import random

import pytest

from bimlab import (
    Alphabet,
    Dfa,
    Nfa,
    PreconditionError,
    ResourceLimitError,
    UnknownSymbolError,
    moore_reduce,
    reverse,
    subset_construction,
)
from bimlab.fsm import explore
from helpers import built, nfa_accepts, nfa_states_after, reference_moore_reduce, words_upto

AB = Alphabet(("a", "b"))


def test_alphabet_rejects_bad_tokens():
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("a", ""))
    with pytest.raises(ValueError):
        Alphabet(("a", "b c"))
    for reserved in ("-", "a.b", "x#y", "#", "."):
        with pytest.raises(ValueError):
            Alphabet(("a", reserved))


def test_alphabet_lookup():
    assert AB.index("b") == 1
    assert "a" in AB and "z" not in AB
    with pytest.raises(UnknownSymbolError):
        AB.index("z")


def test_alphabet_indices_fail_as_index_does():
    assert AB.indices(("b", "a", "b")) == [1, 0, 1]
    assert AB.indices(iter(())) == []
    with pytest.raises(UnknownSymbolError) as one:
        AB.index("z")
    with pytest.raises(UnknownSymbolError) as many:
        AB.indices(("a", "z", "q"))
    assert str(many.value) == str(one.value) == "unknown symbol 'z'"


def test_explore_caps_discovered_states():
    with pytest.raises(ResourceLimitError):
        explore(AB, 0, lambda state, tok: state + 1, cap=5)
    dfa, states = explore(AB, 0, lambda state, tok: min(state + 1, 4), cap=5)
    assert states == (0, 1, 2, 3, 4) and dfa.run(("a",) * 9) == 4


def test_run_empty_word_is_start():
    d = Dfa(AB, 2, 1, ((0, 1), (1, 0)))
    assert d.run(()) == 1


def test_run_two_state_cycle():
    d = Dfa(AB, 2, 0, ((1, 1), (0, 0)))
    assert d.run(("a", "a")) == 0
    assert d.run(("a",)) == 1


def test_run_unknown_symbol():
    d = Dfa(AB, 1, 0, ((0, 0),))
    for word in (("z",), ("a", "b", "z"), ("z", "a")):
        with pytest.raises(UnknownSymbolError):
            d.run(word)


def test_dfa_must_be_total():
    with pytest.raises(ValueError):
        Dfa(AB, 2, 0, ((0,), (0, 1)))
    with pytest.raises(ValueError):
        Dfa(AB, 2, 0, ((0, 2), (0, 1)))


def test_subset_single_state_no_arcs():
    n = Nfa(AB, 1, (0,), frozenset({0}), ())
    dfa, subsets = subset_construction(n)
    assert dfa.state_count == 2
    assert subsets == (frozenset({0}), frozenset())


def test_subset_last_letter_a():
    # Accepts words whose last letter is a; two reachable subsets plus the
    # (here unreachable) sink.
    n = Nfa(AB, 2, (0,), frozenset({1}), ((0, "a", 0), (0, "b", 0), (0, "a", 1)))
    dfa, subsets = subset_construction(n)
    assert dfa.state_count == 3
    assert subsets[0] == frozenset({0})
    assert subsets[1] == frozenset({0, 1})
    assert subsets[2] == frozenset()
    for word in words_upto(AB.symbols, 6):
        reached = subsets[dfa.run(word)]
        assert reached == nfa_states_after(n, word)


def test_subset_rejects_epsilon_arcs():
    n = Nfa(AB, 2, (0,), frozenset({1}), ((0, None, 1),))
    with pytest.raises(PreconditionError):
        subset_construction(n)


def test_subset_tracks_reachable_sets():
    rng = random.Random(11)
    for _ in range(20):
        states = rng.randint(1, 4)
        arcs = tuple(
            (rng.randrange(states), rng.choice(AB.symbols), rng.randrange(states))
            for _ in range(rng.randint(0, 8))
        )
        n = Nfa(AB, states, (0,), frozenset({states - 1}), arcs)
        dfa, subsets = subset_construction(n)
        # Totality: one successor per (state, symbol).
        assert all(len(row) == 2 for row in dfa.delta)
        for word in words_upto(AB.symbols, 5):
            assert subsets[dfa.run(word)] == nfa_states_after(n, word)


def test_reverse_single_arc():
    n = Nfa(AB, 2, (0,), frozenset({1}), ((0, "a", 1),))
    r = reverse(n)
    assert r.arcs == ((1, "a", 0),)
    assert r.initial == (1,)
    assert r.final == frozenset({0})


def test_reverse_involution():
    n = Nfa(AB, 3, (0, 2), frozenset({1}), ((0, "a", 1), (1, "b", 2), (2, "a", 2)))
    rr = reverse(reverse(n))
    assert rr.arcs == n.arcs
    assert set(rr.initial) == set(n.initial)
    assert rr.final == n.final


def test_reverse_accepts_mirrored_words():
    _, generated, _, _, _ = built(2, 1)
    projection = generated.input_projection()
    rev = reverse(projection)
    for word in words_upto(generated.input_alphabet.symbols, 4):
        assert nfa_accepts(rev, word) == nfa_accepts(projection, tuple(reversed(word)))
    assert nfa_accepts(projection, ("1", "3", "4"))
    assert nfa_accepts(rev, ("4", "3", "1"))


def test_moore_uniform_coloring_collapses():
    # Complete two-state machine where both states behave identically.
    d = Dfa(AB, 2, 0, ((0, 1), (0, 1)))
    reduced, mapping = moore_reduce(d, [0, 0])
    assert reduced.state_count == 1
    assert mapping == (0, 0)


def test_moore_merges_bisimilar_pair():
    # States 1 and 2 share color and rows; state 0 keeps its own color.
    d = Dfa(AB, 3, 0, ((1, 2), (1, 2), (1, 2)))
    reduced, mapping = moore_reduce(d, ["s", "t", "t"])
    assert reduced.state_count == 2
    assert mapping == (0, 1, 1)


def test_moore_respects_signature_split():
    d = Dfa(AB, 2, 0, ((0, 1), (0, 1)))
    reduced, _ = moore_reduce(d, ["u", "v"])
    assert reduced.state_count == 2


def test_moore_quotient_commutes_with_delta():
    rng = random.Random(5)
    for _ in range(25):
        states = rng.randint(1, 6)
        rows = tuple(
            tuple(rng.randrange(states) for _ in AB.symbols) for _ in range(states)
        )
        d = Dfa(AB, states, rng.randrange(states), rows)
        colors = [rng.randint(0, 2) for _ in range(states)]
        reduced, mapping = moore_reduce(d, colors)
        assert reduced.state_count <= d.state_count
        rep_color = {}
        for q in range(states):
            b = mapping[q]
            # Same block implies same color.
            assert rep_color.setdefault(b, colors[q]) == colors[q]
            for pos in range(len(AB)):
                assert reduced.delta[mapping[q]][pos] == mapping[d.delta[q][pos]]


def test_moore_distinguishes_windows():
    # The reduced left automaton of the sliding-window machine still separates
    # all k^n first-block windows.
    _, _, _, _, handcrafted = built(2, 2)
    reduced = handcrafted.reduce()
    assert reduced.left.state_count >= 4


def test_moore_reduce_matches_the_row_wise_rounds():
    # The column-wise rounds give the row-wise rounds' quotient and blocks on
    # random tables of every small shape, a letterless one and single states
    # included, under all-equal, all-distinct and random signatures.
    rng = random.Random(2101)
    shapes = [(1, 0), (1, 1), (1, 3), (7, 0), (40, 0)]
    shapes += [(rng.randint(1, 40), rng.randint(0, 4)) for _ in range(120)]
    for states, letters in shapes:
        alphabet = Alphabet(tuple("abcd"[:letters]))
        rows = tuple(tuple(rng.randrange(states) for _ in range(letters))
                     for _ in range(states))
        d = Dfa(alphabet, states, rng.randrange(states), rows)
        colors = rng.randint(1, 4)
        for signature in ([0] * states, list(range(states)),
                          [rng.randrange(colors) for _ in range(states)],
                          [("s", rng.randrange(2)) for _ in range(states)]):
            assert moore_reduce(d, signature) == reference_moore_reduce(d, signature)
