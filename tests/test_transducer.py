import gc
import random
import weakref
from dataclasses import replace

import pytest

from bimlab import (
    Alphabet,
    Arc,
    DivergingRelationError,
    NonFunctionalError,
    PreconditionError,
    Transducer,
    check_functional,
    equivalent,
    is_trim,
    remove_input_epsilons,
    trim,
)
from bimlab import ResourceLimitError, parse_transducer, transducer
from bimlab.fsm import STATE_CAP
from helpers import built, random_letter_transducer, relation_by_paths, unpruned, words_upto

AB = Alphabet(("a", "b"))
XY = Alphabet(("x", "y"))


def one_arc():
    return Transducer(AB, XY, 2, {0}, {1}, (Arc(0, "a", ("x",), 1),))


def test_relation_single_path():
    assert one_arc().relation(("a",)) == (("x",),)


def test_relation_word_outside_domain():
    assert one_arc().relation(("b",)) == ()


def test_relation_instance_word():
    _, generated, _, _, _ = built(2, 1)
    assert generated.relation(("2", "2", "1", "4")) == (("4", "1"),)


def test_relation_orders_outputs():
    t = Transducer(
        AB, XY, 2, {0}, {1},
        (Arc(0, "a", ("y",), 1), Arc(0, "a", ("x",), 1), Arc(0, "a", ("x", "x"), 1)),
    )
    assert t.relation(("a",)) == (("x",), ("x", "x"), ("y",))


def test_relation_unknown_symbol():
    from bimlab import UnknownSymbolError

    with pytest.raises(UnknownSymbolError):
        one_arc().relation(("z",))


def test_relation_diverging_epsilon_cycle():
    t = Transducer(
        AB, XY, 2, {0}, {1},
        (Arc(0, None, ("x",), 0), Arc(0, "a", (), 1)),
    )
    with pytest.raises(DivergingRelationError):
        t.relation(("a",))


def test_silent_epsilon_cycle_is_fine():
    t = Transducer(
        AB, XY, 3, {0}, {2},
        (Arc(0, None, (), 1), Arc(1, None, (), 0), Arc(1, "a", ("x",), 2)),
    )
    assert t.relation(("a",)) == (("x",),)


def test_evaluate_single():
    assert one_arc().evaluate(("a",)) == ("x",)
    assert one_arc().evaluate(("b",)) is None


def test_evaluate_conflict_raises_with_witness():
    t = Transducer(
        AB, XY, 2, {0}, {1}, (Arc(0, "a", ("x",), 1), Arc(0, "a", ("y",), 1))
    )
    with pytest.raises(NonFunctionalError) as info:
        t.evaluate(("a",))
    assert info.value.word == ("a",)
    assert {info.value.first, info.value.second} == {("x",), ("y",)}


def test_evaluate_instance_word():
    _, generated, _, _, _ = built(2, 2)
    assert generated.evaluate(("1", "2", "1", "3", "4", "4")) == ("4", "2")


def test_relation_matches_path_enumeration():
    rng = random.Random(23)
    for _ in range(30):
        t = random_letter_transducer(rng)
        for word in words_upto(("a", "b"), 4):
            assert set(t.relation(word)) == relation_by_paths(t, word)


def test_relation_matches_path_enumeration_with_epsilons():
    _, generated, _, _, _ = built(2, 1)
    for word in words_upto(generated.input_alphabet.symbols, 4):
        assert set(generated.relation(word)) == relation_by_paths(generated, word)


def test_evaluated_transducer_is_freed():
    # A shape no other test builds: a cache keyed on equal machines would
    # otherwise hold another test's instance and let this one go.
    t = Transducer(AB, XY, 3, {0}, {2}, (Arc(0, "b", ("y",), 1), Arc(1, "b", ("x", "y"), 2)))
    assert t.evaluate(("b", "b")) == ("y", "x", "y")
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None


def test_remove_epsilons_bridge():
    t = Transducer(
        AB, XY, 4, {0}, {3},
        (
            Arc(0, "a", ("x",), 1),
            Arc(1, None, ("y", "x"), 2),
            Arc(2, "b", (), 3),
        ),
    )
    clean = remove_input_epsilons(t)
    assert not clean.has_input_epsilons
    assert clean.relation(("a", "b")) == (("x", "y", "x"),)
    for word in words_upto(AB.symbols, 4):
        assert set(clean.relation(word)) == relation_by_paths(t, word)


def test_remove_epsilons_identity_without_epsilons():
    t = one_arc()
    assert remove_input_epsilons(t) == t


def test_remove_epsilons_out_of_initial_state():
    t = Transducer(
        AB, XY, 3, {0}, {2},
        (Arc(0, None, ("y",), 1), Arc(1, "a", ("x",), 2)),
    )
    clean = remove_input_epsilons(t)
    assert not clean.has_input_epsilons
    assert clean.relation(("a",)) == (("y", "x"),)


def test_remove_epsilons_final_reachable_silently():
    t = Transducer(
        AB, XY, 2, {0}, {1},
        (Arc(0, None, (), 1), Arc(1, "a", ("x",), 0)),
    )
    clean = remove_input_epsilons(t)
    assert clean.relation(()) == ((),)


def test_remove_epsilons_rejects_empty_input_with_output():
    t = Transducer(
        AB, XY, 2, {0}, {1}, (Arc(0, None, ("x",), 1),)
    )
    with pytest.raises(PreconditionError):
        remove_input_epsilons(t)


def test_remove_epsilons_preserves_instance_relation():
    _, generated, _, _, _ = built(2, 1)
    clean = remove_input_epsilons(generated)
    assert clean.relation(("1", "3")) == (("3", "1"),)
    for word in words_upto(generated.input_alphabet.symbols, 4):
        assert clean.relation(word) == generated.relation(word)


def test_trim_drops_unreachable_state():
    t = Transducer(
        AB, XY, 3, {0}, {1}, (Arc(0, "a", ("x",), 1), Arc(2, "a", (), 2))
    )
    trimmed = trim(t)
    assert trimmed.state_count == 2
    assert is_trim(trimmed)
    assert trimmed.relation(("a",)) == (("x",),)


def test_trim_identity_on_trim_machine():
    t = one_arc()
    assert trim(t) == t


def test_trim_preserves_instance_relation():
    _, generated, _, _, _ = built(2, 1)
    trimmed = trim(remove_input_epsilons(generated))
    clean = remove_input_epsilons(generated)
    for word in words_upto(generated.input_alphabet.symbols, 6):
        assert trimmed.relation(word) == clean.relation(word)


def test_check_functional_parallel_arcs():
    t = Transducer(
        AB, XY, 2, {0}, {1}, (Arc(0, "a", ("x",), 1), Arc(0, "a", ("y",), 1))
    )
    report = check_functional(t)
    assert not report.functional
    assert report.witness == ("a",)
    assert len(set(report.outputs)) == 2


def test_check_functional_searches_each_machine_once(monkeypatch):
    searches = []
    real = transducer._delay_search

    def counting(x, y, what, *args):
        searches.append(what)
        return real(x, y, what, *args)

    monkeypatch.setattr(transducer, "_delay_search", counting)
    arcs = (Arc(0, "a", ("x",), 1), Arc(0, "a", ("y",), 1))
    t = Transducer(AB, XY, 2, {0}, {1}, arcs)
    report = check_functional(t)
    assert check_functional(t) is report
    assert searches == ["functionality check"]
    # An equal machine is another object, searched again to the same report.
    assert check_functional(Transducer(AB, XY, 2, {0}, {1}, arcs)) == report
    assert len(searches) == 2


def test_check_functional_single_path():
    assert check_functional(one_arc()).functional


def test_check_functional_requires_letter_input():
    t = Transducer(AB, XY, 2, {0}, {1}, (Arc(0, None, (), 1),))
    with pytest.raises(PreconditionError):
        check_functional(t)


def test_check_functional_equal_outputs_two_routes():
    # Two routes emit the same total output with different timing.
    t = Transducer(
        AB, XY, 4, {0}, {3},
        (
            Arc(0, "a", ("x",), 1),
            Arc(0, "a", (), 2),
            Arc(1, "b", (), 3),
            Arc(2, "b", ("x",), 3),
        ),
    )
    assert check_functional(t).functional


def test_check_functional_conflicting_delays_needs_longer_witness():
    # The two routes agree on a*b only up to one loop iteration.
    t = Transducer(
        AB, XY, 4, {0}, {3},
        (
            Arc(0, "a", ("x",), 1),
            Arc(0, "a", (), 2),
            Arc(1, "a", ("y",), 1),
            Arc(2, "a", ("x",), 2),
            Arc(1, "b", (), 3),
            Arc(2, "b", ("x",), 3),
        ),
    )
    report = check_functional(t)
    assert not report.functional
    assert len(set(t.relation(report.witness))) >= 2
    assert report.witness == ("a", "a", "b")


def test_check_functional_final_pair_delay():
    t = Transducer(
        AB, XY, 3, {0}, {1, 2},
        (Arc(0, "a", ("x",), 1), Arc(0, "a", (), 2)),
    )
    report = check_functional(t)
    assert not report.functional
    assert report.witness == ("a",)


def test_check_functional_ignores_dead_branches():
    # The conflicting pair cannot reach acceptance, so it must not count.
    t = Transducer(
        AB, XY, 4, {0}, {3},
        (
            Arc(0, "a", ("x",), 1),
            Arc(0, "a", ("y",), 2),
            Arc(1, "b", (), 3),
        ),
    )
    assert check_functional(t).functional


def test_check_functional_matches_exhaustive_singleton_test():
    rng = random.Random(77)
    for _ in range(30):
        t = random_letter_transducer(rng)
        report = check_functional(t)
        exhaustive = True
        for word in words_upto(("a", "b"), 2 * t.state_count):
            if len(t.relation(word)) > 1:
                exhaustive = False
                break
        assert report.functional == exhaustive
        if not report.functional:
            assert len(set(t.relation(report.witness))) >= 2


def conflicting_words(t, max_len):
    return [w for w in words_upto(("a", "b"), max_len) if len(t.relation(w)) > 1]


def test_dead_conflicts_with_successors_come_before_a_live_one():
    # On "a", states 1 and 2 owe x and y: conflicts scanned first, whose
    # pairs read on through 3 and 4 but never accept. On "b" the live one:
    # "ba" emits x and then nothing, or nothing and then y.
    dead_part = (Arc(0, "a", ("x",), 1), Arc(0, "a", ("y",), 2), Arc(1, "a", (), 3),
                 Arc(2, "a", (), 4), Arc(3, "a", ("x",), 3), Arc(3, "a", (), 4),
                 Arc(4, "a", ("y",), 4))
    live_part = (Arc(0, "b", ("x",), 5), Arc(0, "b", (), 6), Arc(5, "a", (), 7))
    t = Transducer(AB, XY, 8, {0}, {7}, (*dead_part, *live_part, Arc(6, "a", ("y",), 7)))
    assert conflicting_words(t, 6) == [("b", "a")]
    report = check_functional(t)
    assert (report.functional, report.witness) == (False, ("b", "a"))
    # With x on the last arc, only the dead conflicts are left.
    ok = Transducer(AB, XY, 8, {0}, {7}, (*dead_part, *live_part, Arc(6, "a", ("x",), 7)))
    assert conflicting_words(ok, 6) == []
    assert check_functional(ok).functional
    plain = Transducer(AB, XY, 3, {0}, {2}, (Arc(0, "b", ("x",), 1), Arc(1, "a", (), 2)))
    assert equivalent(ok, plain) is None


def test_dead_conflicts_draining_into_one_region_are_searched_once():
    # 40 arcs on "a" with distinct 6-letter outputs give 1560 conflicting
    # pairs. Each goes on into one 200-state cycle that never accepts. One
    # search per conflict through the cycle would examine 1560 * 201 edges,
    # past EDGE_CAP; the failed searches share their dead pairs instead.
    outputs = [tuple("xy"[int(b)] for b in format(i, "06b")) for i in range(40)]
    arcs = [Arc(0, "a", out, 1 + i) for i, out in enumerate(outputs)]
    arcs += [Arc(1 + i, "a", (), 41) for i in range(40)]
    arcs += [Arc(41 + c, "a", (), 41 + (c + 1) % 200) for c in range(200)]
    t = Transducer(AB, XY, 242, {0}, {241}, (*arcs, Arc(0, "b", ("y",), 241)))
    assert conflicting_words(t, 3) == []
    assert check_functional(t).functional
    assert equivalent(t, t) is None


def with_dead_conflicts(rng):
    """A random letter machine, and the same machine with a dead part: two
    arcs with different outputs from one of its states into new states that
    read on among themselves but accept nothing."""
    t = random_letter_transducer(rng)
    n = t.state_count
    src, tok = rng.randrange(n), rng.choice("ab")
    arcs = [Arc(src, tok, ("x",), n), Arc(src, tok, ("y",), n + 1)]
    for _ in range(rng.randint(1, 5)):
        out = tuple(rng.choice("xy") for _ in range(rng.randint(0, 2)))
        arcs.append(Arc(rng.randrange(n, n + 3), rng.choice("ab"), out, rng.randrange(n, n + 3)))
    return t, Transducer(AB, XY, n + 3, t.initial, t.final, (*t.arcs, *arcs))


def test_random_machines_with_dead_conflicts_agree_with_brute_force():
    rng = random.Random(2003)
    verdicts = []
    for _ in range(300):
        t, dead = with_dead_conflicts(rng)
        report = check_functional(dead)
        verdicts.append(report.functional)
        assert report.functional == (conflicting_words(t, 2 * t.state_count) == [])
        assert report.functional == check_functional(t).functional
        if report.functional:
            assert equivalent(dead, t) is None
        else:
            assert len(dead.relation(report.witness)) >= 2
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 50


def test_instance_transducers_are_functional():
    for (k, n) in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        _, _, prepared, _, _ = built(k, n)
        assert check_functional(prepared).functional


def test_state_count_is_capped():
    assert Transducer(AB, XY, STATE_CAP, {0}, {0}, ()).state_count == STATE_CAP
    with pytest.raises(ResourceLimitError):
        Transducer(AB, XY, STATE_CAP + 1, {0}, {0}, ())
    text = "transducer v1\nalphabet a\nstates 200000\ninitial 0\nfinal 1\narc 0 1 - -\n"
    with pytest.raises(ResourceLimitError):
        parse_transducer(text)


def test_epsilon_closure_is_capped():
    # 17 epsilon steps that each emit x or y: state 0 reaches 2^18 - 1
    # (state, output) pairs without reading a letter.
    steps = [Arc(q, None, (o,), q + 1) for q in range(17) for o in ("x", "y")]
    t = Transducer(AB, XY, 19, {0}, {18}, (*steps, Arc(17, "a", (), 18)))
    with pytest.raises(ResourceLimitError):
        t.relation(("a",))


def test_epsilon_closures_are_capped_in_total():
    def chain(m):
        arcs = [Arc(q, None, (), q + 1) for q in range(m)] + [Arc(m, "a", ("x",), m + 1)]
        return Transducer(AB, XY, m + 2, {0}, {m + 1}, arcs)

    # 300 steps: 300 * 301 / 2 = 45150 pairs besides the trivial ones.
    assert remove_input_epsilons(chain(300)) == Transducer(
        AB, XY, 302, set(range(301)), {301}, (Arc(300, "a", ("x",), 301),)
    )
    with pytest.raises(ResourceLimitError):
        remove_input_epsilons(chain(2000))
    # Only the pairs besides each state's trivial one count toward the cap.
    at_cap = Transducer(AB, XY, STATE_CAP, {0}, {1}, (Arc(0, None, (), 1),))
    assert at_cap.relation(()) == ((),)


def test_relation_step_is_capped():
    # Every letter doubles the outputs: 2^17 after 17 letters.
    t = Transducer(AB, XY, 1, {0}, {0}, (Arc(0, "a", ("x",), 0), Arc(0, "a", ("y",), 0)))
    assert len(t.relation(("a",) * 16)) == 2**16
    with pytest.raises(ResourceLimitError):
        t.relation(("a",) * 17)


def test_functionality_check_is_capped(monkeypatch):
    # 317 initial states: 100489 start pairs, refused before any is built
    # when every pair fits. Pruned, only state 0 with itself can accept.
    many_starts = Transducer(AB, XY, 317, set(range(317)), {0}, ())
    with monkeypatch.context() as patch:
        unpruned(patch)
        with pytest.raises(ResourceLimitError, match="state pairs"):
            check_functional(many_starts)
        assert check_functional(Transducer(AB, XY, 316, set(range(316)), {0}, ())).functional
    assert check_functional(many_starts).functional
    # One state fanning out to 400 states: 160000 reached pairs.
    fan = Transducer(AB, XY, 401, {0}, set(range(1, 401)),
                     [Arc(0, "a", ("x",), q) for q in range(1, 401)])
    with pytest.raises(ResourceLimitError, match="state pairs or edges"):
        check_functional(fan)
    # One state with 400 loops of distinct outputs: one pair, 160000 edges.
    outputs = [tuple("xy"[int(b)] for b in format(i, "b")) for i in range(1, 401)]
    loops = Transducer(AB, XY, 1, {0}, {0}, [Arc(0, "a", out, 0) for out in outputs])
    with pytest.raises(ResourceLimitError, match="state pairs or edges"):
        check_functional(loops)
    # n loops cost n * n arc pairs to build the one group and n * n edges
    # to walk it: 2 * 273^2 = 149,058 fit in EDGE_CAP, 2 * 274^2 = 150,152
    # and 2 * 300^2 = 180,000 do not.
    assert not check_functional(Transducer(
        AB, XY, 1, {0}, {0}, [Arc(0, "a", out, 0) for out in outputs[:273]]
    )).functional
    for count in (274, 300):
        with pytest.raises(ResourceLimitError, match="state pairs or edges"):
            check_functional(Transducer(
                AB, XY, 1, {0}, {0}, [Arc(0, "a", out, 0) for out in outputs[:count]]))


def test_edge_cap_does_not_grow_with_the_alphabet():
    # The 400 loops above, over an alphabet padded with 10,000 letters that
    # no arc reads. Letters cost nothing to add, so they add no room.
    padded = Alphabet(("a", "b", *(f"u{i}" for i in range(10_000))))
    outputs = [tuple("xy"[int(b)] for b in format(i, "b")) for i in range(1, 401)]
    loops = Transducer(padded, XY, 1, {0}, {0}, [Arc(0, "a", out, 0) for out in outputs])
    with pytest.raises(ResourceLimitError, match="state pairs or edges"):
        check_functional(loops)
    with pytest.raises(ResourceLimitError, match="state pairs or edges"):
        equivalent(loops, loops)


def two_chains(n, live):
    """From state 0, "a" leads into chains A (states 1..n, every arc emits x)
    and B (states n+1..2n, no output). Live: both chains accept after "b", and
    B's last arc pays the n x's back. Dead: A accepts after "b" and B after
    "a", so the cross pairs of A and B states never accept."""
    arcs = [Arc(0, "a", ("x",), 1), Arc(0, "a", (), n + 1)]
    arcs += [Arc(i, "a", ("x",), i + 1) for i in range(1, n)]
    arcs += [Arc(n + i, "a", (), n + i + 1) for i in range(1, n)]
    arcs += [Arc(n, "b", (), 2 * n + 1)]
    arcs += [Arc(2 * n, "b", ("x",) * n, 2 * n + 2) if live else Arc(2 * n, "a", (), 2 * n + 2)]
    return Transducer(AB, XY, 2 * n + 3, {0}, {2 * n + 1, 2 * n + 2}, arcs)


def test_delays_count_against_the_pair_cap(monkeypatch):
    # The cross pair of A_i and B_i owes x^i: about n^2 delay tokens over
    # 4n pairs, which must not be held whether or not the pairs can accept.
    # n = 200 holds about 41,000 pairs and tokens; n = 2,000 would hold four
    # million. Dead cross pairs fit nothing, so pruned they are not entered.
    for live in (False, True):
        assert check_functional(two_chains(200, live)).functional
    with pytest.raises(ResourceLimitError, match="state pairs or edges"):
        check_functional(two_chains(2_000, True))
    assert check_functional(two_chains(2_000, False)).functional
    unpruned(monkeypatch)
    with pytest.raises(ResourceLimitError, match="state pairs or edges"):
        check_functional(two_chains(2_000, False))


def test_a_pair_holds_only_its_delay_id():
    # Two equal-output 12,000-state chains on "a", joined at start and end:
    # one emits x.x.x on its first arc, the other on its last. The search
    # reaches about 48,000 pairs, half of them owing x.x.x one way or the
    # other. Counted with their delays' tokens they would hold 120,000, over
    # the cap; a pair holds only its delay's id, and the distinct delays
    # hold six tokens.
    n, xxx = 12_000, ("x",) * 3
    end = 2 * n + 1
    arcs = []
    for head, first, last in ((1, xxx, ()), (n + 1, (), xxx)):
        arcs.append(Arc(0, "a", first, head))
        arcs += [Arc(q, "a", (), q + 1) for q in range(head, head + n - 1)]
        arcs.append(Arc(head + n - 1, "a", last, end))
    assert check_functional(Transducer(AB, XY, end + 1, {0}, {end}, tuple(arcs))).functional


def test_edges_into_dead_pairs_build_no_delay(monkeypatch):
    # States 1 and 2, one owing 1,000 x's to the other, each have 130 arcs
    # on "b" into state 3, which never accepts. Delays are cancelled on the
    # way to (1, 1) and on the first two of its edges into (3, 3); the second
    # is a conflict that makes (3, 3) dead, so the other 67,598 edges into it
    # extend no delay. Pruned, no pair of 3 is entered and none is built.
    outputs = [("y", *("xy"[int(b)] for b in format(i, "b"))) for i in range(1, 131)]
    arcs = [Arc(0, "a", ("x",) * 1000, 1), Arc(0, "a", (), 2)]
    arcs += [Arc(q, "b", out, 3) for q in (1, 2) for out in outputs]
    t = Transducer(AB, XY, 5, {0}, {4}, (*arcs, Arc(0, "b", (), 4)))
    calls = []
    strip = transducer._strip_common_prefix
    monkeypatch.setattr(transducer, "_strip_common_prefix", lambda u, v: calls.append(1) or strip(u, v))
    assert check_functional(replace(t)).functional
    assert calls == []
    unpruned(monkeypatch)
    assert check_functional(t).functional
    assert len(calls) == 3
