import random

import pytest

from bimlab import (
    Alphabet,
    Arc,
    NonFunctionalError,
    PreconditionError,
    ResourceLimitError,
    Transducer,
    build_left_automaton,
    build_psi,
    build_right_automaton,
    check_functional,
    oracle,
    to_bimachine,
)
from bimlab.bimachine import RowInterner
from helpers import built, reference_build_psi, random_word, words_upto

AB = Alphabet(("a", "b"))
XY = Alphabet(("x", "y"))


def one_arc():
    return Transducer(AB, XY, 2, {0}, {1}, (Arc(0, "a", ("x",), 1),))


def test_right_automaton_one_arc():
    t = one_arc()
    dfa, subsets = build_right_automaton(t)
    assert subsets[dfa.start] == frozenset({1})
    assert subsets[dfa.run(("a",))] == frozenset({0})
    assert subsets[dfa.run(("b",))] == frozenset()


def test_right_automaton_total_projection_starts_at_everything():
    t = Transducer(
        AB, XY, 2, {0}, {0, 1},
        (
            Arc(0, "a", (), 1), Arc(0, "b", (), 1),
            Arc(1, "a", (), 0), Arc(1, "b", (), 0),
        ),
    )
    dfa, subsets = build_right_automaton(t)
    assert subsets[dfa.start] == frozenset({0, 1})


def test_right_automaton_rejects_epsilon_arcs():
    t = Transducer(AB, XY, 2, {0}, {1}, (Arc(0, None, (), 1),))
    with pytest.raises(PreconditionError):
        build_right_automaton(t)


def co_accessible_set(t, suffix):
    """States from which ``suffix`` can be read to acceptance (brute force)."""
    good = set()
    for q in range(t.state_count):
        frontier = {q}
        for tok in suffix:
            frontier = {
                a.dst for a in t.arcs for s in frontier
                if a.src == s and a.inp == tok
            }
        if frontier & t.final:
            good.add(q)
    return frozenset(good)


def test_right_automaton_suffix_semantics():
    _, _, prepared, _, _ = built(2, 1)
    dfa, subsets = build_right_automaton(prepared)
    for suffix in words_upto(prepared.input_alphabet.symbols, 3):
        reached = subsets[dfa.run(reversed(suffix))]
        assert reached == co_accessible_set(prepared, suffix)


def test_right_automaton_states_are_exactly_the_suffix_sets():
    # Every automaton state is the co-accessibility set of some suffix.
    _, _, prepared, _, _ = built(2, 1)
    _, subsets = build_right_automaton(prepared)
    seen = {
        co_accessible_set(prepared, suffix)
        for suffix in words_upto(prepared.input_alphabet.symbols, 4)
    }
    assert set(subsets) == seen


def test_right_automaton_tracks_emitting_sources():
    # After the reversed suffix "4", the subset holds exactly the sources of
    # arcs that write the 4-flavored outputs.
    _, _, prepared, _, _ = built(2, 1)
    dfa, subsets = build_right_automaton(prepared)
    reached = subsets[dfa.run(("4",))]
    expected = {a.src for a in prepared.arcs if a.inp == "4" and a.dst in prepared.final}
    assert reached == frozenset(expected)


def test_left_automaton_expansion_order():
    t = Transducer(
        AB, XY, 3, {0}, {1, 2},
        (Arc(0, "a", (), 1), Arc(0, "a", (), 2)),
    )
    dfa, lists = build_left_automaton(t)
    assert lists[dfa.start] == (0,)
    assert lists[dfa.run(("a",))] == (1, 2)


def test_left_automaton_dedup_keeps_earliest():
    t = Transducer(
        AB, XY, 3, {0, 1}, {2},
        (Arc(0, "a", (), 2), Arc(1, "a", (), 2), Arc(1, "a", (), 0)),
    )
    dfa, lists = build_left_automaton(t)
    assert lists[dfa.start] == (0, 1)
    assert lists[dfa.run(("a",))] == (2, 0)


def test_left_automaton_dead_sink():
    t = one_arc()
    dfa, lists = build_left_automaton(t)
    assert lists[dfa.run(("b",))] == ()
    assert lists[dfa.run(("b", "a"))] == ()


def test_left_automaton_state_cap():
    _, _, prepared, _, _ = built(2, 2)
    with pytest.raises(ResourceLimitError):
        build_left_automaton(prepared, state_cap=2)


def test_psi_first_match_one_arc():
    t = one_arc()
    left, lists = build_left_automaton(t)
    right, subsets = build_right_automaton(t)
    psi = build_psi(t, lists, subsets)
    l0 = lists.index((0,))
    r1 = subsets.index(frozenset({1}))
    r_sink = subsets.index(frozenset())
    assert psi[(l0, "a", r1)] == ("x",)
    assert (l0, "a", r_sink) not in psi


def test_psi_first_match_earlier_parent_wins():
    t = Transducer(
        AB, XY, 4, {0, 1}, {3},
        (Arc(0, "a", ("x",), 2), Arc(1, "a", ("y",), 2), Arc(2, "b", (), 3)),
    )
    left, lists = build_left_automaton(t)
    right, subsets = build_right_automaton(t)
    psi = build_psi(t, lists, subsets)
    l0 = lists.index((0, 1))
    r_mid = subsets.index(frozenset({2}))
    assert psi[(l0, "a", r_mid)] == ("x",)


def generic_parts(t):
    _, lists = build_left_automaton(t)
    _, subsets = build_right_automaton(t)
    return lists, subsets


def test_psi_rows_of_one_arc_holding_set_in_two_orders_differ():
    # Lists (0, 1) and (1, 0) hold the same states with arcs on "a", in other
    # orders. State 0 emits x on "a" and 1 emits it on "b", so the first match
    # differs at the right state holding both 2 and 3.
    abcd = Alphabet(("a", "b", "c", "d"))
    t = Transducer(
        abcd, XY, 6, {4, 5}, {2},
        (Arc(4, "d", (), 0), Arc(5, "d", (), 1), Arc(4, "c", (), 1), Arc(5, "c", (), 0),
         Arc(0, "a", ("x",), 3), Arc(1, "a", (), 2), Arc(3, "b", (), 2),
         Arc(2, "b", ("x",), 2)),
    )
    assert check_functional(t).functional
    lists, subsets = generic_parts(t)
    psi = build_psi(t, lists, subsets)
    assert reference_build_psi(t, lists, subsets).row_of == psi.row_of
    forward, backward = lists.index((0, 1)), lists.index((1, 0))
    both = subsets.index(frozenset({2, 3}))
    assert psi[(forward, "a", both)] == ("x",)
    assert psi[(backward, "a", both)] == ()
    assert psi.row_of[forward * 4] != psi.row_of[backward * 4]


def test_psi_lists_that_differ_only_off_the_letter_share_a_row():
    # (1,) and (1, 2) differ only in state 2, which has no arc on "c".
    abc = Alphabet(("a", "b", "c"))
    t = Transducer(
        abc, XY, 4, {0}, {3},
        (Arc(0, "a", (), 1), Arc(0, "b", (), 1), Arc(0, "b", (), 2),
         Arc(1, "c", ("x",), 3), Arc(2, "a", (), 3)),
    )
    assert check_functional(t).functional
    lists, subsets = generic_parts(t)
    psi = build_psi(t, lists, subsets)
    alone, with_two = lists.index((1,)), lists.index((1, 2))
    assert psi.row_of[alone * 3 + 2] == psi.row_of[with_two * 3 + 2] >= 0
    assert psi[(with_two, "c", subsets.index(frozenset({3})))] == ("x",)


@pytest.mark.parametrize("k,n", [(k, n) for k in (2, 3) for n in (1, 2, 3, 4)] + [(2, 6)])
def test_psi_matches_the_slot_by_slot_loop(k, n, monkeypatch):
    # One row is computed and interned per (arc-holding states, letter) key;
    # the table equals the one the slot-by-slot loop builds, word ids and
    # row order included. Generic (3,4) has 432 slots and 141 keys, (2,6)
    # 408 and 144.
    _, _, prepared, _, _ = built(k, n)
    lists, subsets = generic_parts(prepared)
    want = reference_build_psi(prepared, lists, subsets)
    interned = []
    intern = RowInterner.intern
    monkeypatch.setattr(RowInterner, "intern",
                        lambda self, row: interned.append(row) or intern(self, row))
    psi = build_psi(prepared, lists, subsets)
    assert (psi.row_of, psi.rows, psi.words) == (want.row_of, want.rows, want.words)
    keys = {(tuple(p for p in lst if (p, tok) in prepared._letter_arcs), tok)
            for lst in lists for tok in prepared.input_alphabet.symbols}
    assert len(interned) == len(keys)
    if (k, n) in ((3, 4), (2, 6)):
        assert (len(psi.row_of), len(keys)) == {(3, 4): (432, 141), (2, 6): (408, 144)}[(k, n)]


def test_psi_boundary_piece_is_the_whole_output():
    _, _, prepared, generic, _ = built(2, 1)
    word = ("1", "3")
    pieces = []
    for pos, tok in enumerate(word):
        r = generic.right.run(reversed(word[pos + 1 :]))
        pieces.append(generic.psi[(generic.left.run(word[:pos]), tok, r)])
    assert [p for p in pieces if p] == [("3", "1")]


def test_to_bimachine_one_arc():
    bm = to_bimachine(one_arc())
    assert bm.evaluate(("a",)) == ("x",)
    assert bm.evaluate(("b",)) is None
    assert bm.evaluate(()) is None


def test_to_bimachine_empty_word_output():
    t = Transducer(AB, XY, 2, {0}, {0, 1}, (Arc(0, "a", ("x",), 1),))
    bm = to_bimachine(t)
    assert bm.evaluate(()) == ()


def test_to_bimachine_rejects_epsilon_arcs():
    t = Transducer(AB, XY, 2, {0}, {1}, (Arc(0, None, (), 1),))
    with pytest.raises(PreconditionError):
        to_bimachine(t)


def test_to_bimachine_rejects_untrimmed():
    t = Transducer(AB, XY, 3, {0}, {1}, (Arc(0, "a", ("x",), 1),))
    with pytest.raises(PreconditionError):
        to_bimachine(t)


def test_to_bimachine_rejects_non_functional():
    t = Transducer(
        AB, XY, 2, {0}, {1}, (Arc(0, "a", ("x",), 1), Arc(0, "a", ("y",), 1))
    )
    with pytest.raises(NonFunctionalError) as info:
        to_bimachine(t)
    assert info.value.word == ("a",)


def test_generic_matches_oracle_exhaustively():
    params, _, prepared, generic, _ = built(2, 1)
    for word in words_upto(params.alphabet.symbols, 4):
        assert generic.evaluate(word) == oracle(params, word)


def test_generic_matches_oracle_random_3_2():
    params, _, _, generic, _ = built(3, 2)
    rng = random.Random(1234)
    for _ in range(10_000):
        word = random_word(rng, params.alphabet.symbols, 8)
        assert generic.evaluate(word) == oracle(params, word)


def first_match_picks(t, lists, subsets, left, right, word):
    """Replay the construction's selection rule at every position."""
    arcs = t._letter_arcs
    picks = []
    for pos, tok in enumerate(word):
        lst = lists[left.run(word[:pos])]
        subset = subsets[right.run(reversed(word[pos + 1 :]))]
        chosen = None
        for p in lst:
            for out, dst in arcs.get((p, tok), ()):
                if dst in subset:
                    chosen = (p, tok, out, dst)
                    break
            if chosen:
                break
        picks.append(chosen)
    return picks


def test_first_match_picks_form_accepting_path():
    params, _, prepared, generic, _ = built(2, 1)
    left, lists = build_left_automaton(prepared)
    right, subsets = build_right_automaton(prepared)
    for word in words_upto(params.alphabet.symbols, 6):
        expected = oracle(params, word)
        picks = first_match_picks(prepared, lists, subsets, left, right, word)
        if expected is None:
            if word:
                assert None in picks
            continue
        assert all(p is not None for p in picks)
        assert picks[0][0] in prepared.initial
        for here, there in zip(picks, picks[1:]):
            assert here[3] == there[0]
        assert picks[-1][3] in prepared.final
        output = tuple(tok for _, _, out, _ in picks for tok in out)
        assert output == expected


def test_domain_exactness():
    params, _, prepared, generic, _ = built(2, 1)
    for word in words_upto(params.alphabet.symbols, 6):
        defined = generic.evaluate(word) is not None
        assert defined == bool(prepared.relation(word))
