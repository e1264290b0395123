import gc
import random
import weakref

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
from bimlab import ResourceLimitError, parse_transducer
from bimlab.fsm import STATE_CAP
from helpers import built, random_letter_transducer, relation_by_paths, words_upto

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


def test_functionality_check_is_capped():
    # 317 initial states: 100489 start pairs, refused before any is built.
    many_starts = Transducer(AB, XY, 317, set(range(317)), {0}, ())
    with pytest.raises(ResourceLimitError, match="state pairs"):
        check_functional(many_starts)
    assert check_functional(Transducer(AB, XY, 316, set(range(316)), {0}, ())).functional
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
    assert not check_functional(Transducer(
        AB, XY, 1, {0}, {0}, [Arc(0, "a", out, 0) for out in outputs[:300]]
    )).functional


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
