import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from bimlab import (
    Bimachine,
    BoundRespected,
    ConsistencyError,
    Dfa,
    ExperimentRow,
    FoolingPair,
    InstanceParams,
    Mismatch,
    ResourceLimitError,
    build_candidates,
    exponent_constant,
    find_collisions,
    refute,
    render_csv,
    run_experiment,
)
from bimlab import ExperimentError, handcrafted_bimachine
from bimlab import lowerbound, transducer
from bimlab.lowerbound import CSV_HEADER
from bimlab.transducer import equivalent
from helpers import built, corrupt_handcrafted, merge_bimachine_states


def test_find_collisions_handcrafted_has_none():
    params, _, _, _, hc = built(2, 1)
    left_pair, right_pair = find_collisions(hc, params)
    assert left_pair is None and right_pair is None


def test_find_collisions_after_left_merge():
    params, _, _, _, hc = built(2, 1)
    l1, l2 = hc.left.run(("1",)), hc.left.run(("2",))
    merged = merge_bimachine_states(hc, left_pair=(l1, l2))
    left_pair, right_pair = find_collisions(merged, params)
    assert right_pair is None
    assert left_pair is not None
    assert (left_pair.side, left_pair.word1, left_pair.word2) == ("left", ("1",), ("2",))
    # The words differ at once, so the candidates carry no pad, and the two
    # left symbols are the last output symbols of the first two candidates.
    right = FoolingPair("right", ("3",), ("4",))
    (a1b3, e1), (a2b3, e2), _ = build_candidates(left_pair, right, params)
    assert (a1b3, a2b3) == (("1", "3"), ("2", "3"))
    assert (e1[1], e2[1]) == ("1", "2")


def test_find_collisions_one_state_side():
    params = InstanceParams(2, 2)
    sigma = params.alphabet
    trivial = Bimachine(
        Dfa(sigma, 1, 0, ((0, 0, 0, 0),)),
        Dfa(sigma, 1, 0, ((0, 0, 0, 0),)),
        {},
        None,
        sigma,
    )
    left_pair, right_pair = find_collisions(trivial, params)
    # Everything collides; the first pair in lexicographic order is reported.
    assert left_pair.word1 == ("1", "1") and left_pair.word2 == ("1", "2")
    assert right_pair.word1 == ("3", "3") and right_pair.word2 == ("3", "4")


def test_find_collisions_enumeration_cap(monkeypatch):
    params, _, _, _, hc = built(2, 1)
    monkeypatch.setattr(lowerbound, "PROBE_CAP", 1)
    with pytest.raises(ResourceLimitError):
        find_collisions(hc, params)


def test_build_candidates_n1():
    params = InstanceParams(2, 1)
    left = FoolingPair("left", ("1",), ("2",))
    right = FoolingPair("right", ("3",), ("4",))
    assert build_candidates(left, right, params) == (
        (("1", "3"), ("3", "1")),
        (("2", "3"), ("3", "2")),
        (("1", "4"), ("4", "1")),
    )


def test_build_candidates_padding():
    params = InstanceParams(2, 2)
    left = FoolingPair("left", ("1", "1"), ("1", "2"))
    right = FoolingPair("right", ("3", "3"), ("4", "3"))
    a1 = ("1", "1", "1")
    a2 = ("1", "2", "1")
    b3 = ("3", "3", "3")
    b4 = ("3", "4", "3")
    assert build_candidates(left, right, params) == (
        (a1 + b3, ("3", "1")),
        (a2 + b3, ("3", "2")),
        (a1 + b4, ("4", "1")),
    )


def test_build_candidates_padding_keeps_collision():
    # Extending both colliding words by the same padding keeps them on the
    # same left state in the machine that produced the pair.
    params, _, _, _, hc = built(2, 2)
    merged = merge_bimachine_states(
        hc,
        left_pair=(hc.left.run(("1", "1")), hc.left.run(("1", "2"))),
        right_pair=(
            hc.right.run(("3", "3")),
            hc.right.run(("3", "4")),
        ),
    )
    left_pair, right_pair = find_collisions(merged, params)
    (w1, _), (w2, _), _ = build_candidates(left_pair, right_pair, params)
    a1, a2 = w1[:3], w2[:3]
    assert merged.left.run(a1) == merged.left.run(a2)


def test_build_candidates_rejects_malformed_pairs():
    params = InstanceParams(2, 1)
    bogus_left = FoolingPair("left", ("3",), ("4",))
    right = FoolingPair("right", ("3",), ("4",))
    with pytest.raises(ConsistencyError):
        build_candidates(bogus_left, right, params)
    # Words that never differ give no position to pad from.
    with pytest.raises(ConsistencyError, match="never differ"):
        build_candidates(FoolingPair("left", ("1",), ("1",)), right, params)
    left = FoolingPair("left", ("1",), ("2",))
    with pytest.raises(ConsistencyError, match="never differ"):
        build_candidates(left, FoolingPair("right", ("4",), ("4",)), params)


def _crossed_words_factor(e1: tuple, e2: tuple, e3: tuple) -> bool:
    """Whether some words X1, X2, Y3, Y4 give X1.Y3 = e1, X2.Y3 = e2 and
    X1.Y4 = e3. X1 and Y3 split e1; X2 and Y4 are then what is left of e2
    and e3."""
    for i in range(len(e1) + 1):
        x1, y3 = e1[:i], e1[i:]
        if len(y3) <= len(e2) and e2[len(e2) - len(y3):] == y3 and e3[:i] == x1:
            return True
    return False


@pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_three_crossed_words_cannot_all_match(k, n):
    # A machine with L(a1) = L(a2) and R(b3) = R(b4) emits X1.Y3, X2.Y3 and
    # X1.Y4 on a1.b3, a2.b3 and a1.b4, so refute needs no third verdict.
    params = InstanceParams(k, n)
    lefts = list(itertools.combinations(itertools.product(params.first_half, repeat=n), 2))
    rights = list(itertools.combinations(itertools.product(params.second_half, repeat=n), 2))
    for w1, w2 in lefts:
        left = FoolingPair("left", w1, w2)
        for w3, w4 in rights:
            cands = build_candidates(left, FoolingPair("right", w3, w4), params)
            assert not _crossed_words_factor(*(expected for _, expected in cands))
    assert len(lefts) * len(rights) == math.comb(k**n, 2) ** 2


def test_crossed_words_with_a_repeated_word_factor():
    # The control: had the third word been the first again, the check
    # above would find the factors.
    params = InstanceParams(2, 1)
    left = FoolingPair("left", ("1",), ("2",))
    right = FoolingPair("right", ("3",), ("4",))
    (_, e1), (_, e2), _ = build_candidates(left, right, params)
    assert _crossed_words_factor(e1, e2, e1)


def test_refute_bound_respected():
    params, _, _, _, hc = built(2, 1)
    verdict = refute(hc, params)
    assert isinstance(verdict, BoundRespected)
    assert verdict.left_certified and verdict.right_certified


def test_refute_generic_bound_respected():
    params, _, _, generic, _ = built(2, 2)
    verdict = refute(generic, params)
    assert isinstance(verdict, BoundRespected)


def test_refute_corrupted_machine():
    params, _, _, _, hc = built(2, 1)
    rng = random.Random(0)
    bad = corrupt_handcrafted(hc, params, rng)
    verdict = refute(bad, params)
    assert isinstance(verdict, Mismatch)
    assert verdict.expected != verdict.actual


def test_refute_constant_machine():
    params = InstanceParams(2, 1)
    sigma = params.alphabet
    row = tuple(0 for _ in sigma.symbols)
    constant = Bimachine(
        Dfa(sigma, 1, 0, (row,)),
        Dfa(sigma, 1, 0, (row,)),
        {(0, tok, 0): () for tok in sigma.symbols},
        None,
        sigma,
    )
    verdict = refute(constant, params)
    assert isinstance(verdict, Mismatch)
    assert verdict.word == ("1", "3")
    assert verdict.expected == ("3", "1")
    assert verdict.actual == ()


@pytest.mark.parametrize("machine_k,params_k", [(3, 2), (2, 3)])
def test_refute_refuses_an_instance_over_another_alphabet(machine_k, params_k):
    # Before the check, a (3,2) machine against (2,2) was BOUND-RESPECTED on
    # a right collision of 33 and 34, and a (2,2) machine against (3,2)
    # failed on an unknown symbol.
    machine = handcrafted_bimachine(InstanceParams(machine_k, 2)).reduce()
    for search in (refute, find_collisions):
        with pytest.raises(ValueError, match="instance alphabet differs from the machine's"):
            search(machine, InstanceParams(params_k, 2))


def _probe_images(b, params, rng, side):
    """The states one side of ``b`` drives two random probe words to, drawn
    among the pairs of probe words whose states differ."""
    half = params.first_half if side == "left" else params.second_half
    dfa, step = (b.left, 1) if side == "left" else (b.right, -1)
    words = itertools.product(half, repeat=params.n)
    states = sorted({dfa.run(word[::step]) for word in words})
    return tuple(rng.sample(states, 2))


def refuter_cases():
    """(label, params, machine) for every machine the refuter pin covers: the
    built machines of each cell, seeded merges of the handcrafted machine's
    probe images on the left, the right and both sides, and seeded
    ``corrupt_handcrafted`` cases."""
    for k, n in ((2, 1), (2, 2), (3, 1), (3, 2), (2, 3)):
        params, _, _, generic, hc = built(k, n)
        yield f"{k},{n} reduced generic", params, generic.reduce()
        yield f"{k},{n} reduced handcrafted", params, hc.reduce()
        yield f"{k},{n} raw handcrafted", params, hc
        for seed in range(4):
            rng = random.Random(seed)
            left = _probe_images(hc, params, rng, "left")
            right = _probe_images(hc, params, rng, "right")
            yield f"{k},{n} left merge {seed}", params, merge_bimachine_states(
                hc, left_pair=left)
            yield f"{k},{n} right merge {seed}", params, merge_bimachine_states(
                hc, right_pair=right)
            yield f"{k},{n} both merge {seed}", params, merge_bimachine_states(
                hc, left_pair=left, right_pair=right)
            yield f"{k},{n} corrupt {seed}", params, corrupt_handcrafted(
                hc, params, random.Random(seed))


def refuter_outcome(b, params):
    """The colliding words ``find_collisions`` reports and ``refute``'s verdict."""
    pairs = tuple(
        None if pair is None else (pair.side, pair.word1, pair.word2)
        for pair in find_collisions(b, params)
    )
    verdict = refute(b, params)
    if isinstance(verdict, Mismatch):
        return pairs, ("mismatch", verdict.word, verdict.expected, verdict.actual)
    return pairs, ("bound", verdict.left_certified, verdict.right_certified)


# SHA-256 of the repr of every ``refuter_cases()`` label with its
# ``refuter_outcome``, recorded while each FoolingPair still carried its
# decomposition (common, symbol1, symbol2) and build_candidates returned a
# CandidateWords record.
REFUTER_SHA256 = "eb2118618c1a64bc8a2dc0b990c43ce572a9d1fc32d65a051b876b26b4c25bbf"


def test_the_refuter_keeps_its_collisions_and_verdicts():
    outcomes = [(label, refuter_outcome(b, params)) for label, params, b in refuter_cases()]
    kinds = [verdict[0] for _, (_, verdict) in outcomes]
    assert len(outcomes) == 5 * (3 + 4 * 4)
    assert kinds.count("mismatch") == 5 * 4 * 2
    for label, (pairs, verdict) in outcomes:
        if "both" in label or "corrupt" in label:
            assert None not in pairs and verdict[0] == "mismatch"
        else:
            assert verdict == ("bound", pairs[0] is None, pairs[1] is None)
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == REFUTER_SHA256


# Runs refute on a one-state machine, which collides on both sides, under
# the benchmark's tracer and prints the verdict's type and the span table.
TRACED_REFUTE = """
import json
import tracer
from bimlab import Bimachine, Dfa, InstanceParams, lowerbound

params = InstanceParams(2, 1)
sigma = params.alphabet
row = (0,) * len(sigma.symbols)
one_state = Dfa(sigma, 1, 0, (row,))
constant = Bimachine(one_state, one_state, {(0, tok, 0): () for tok in sigma.symbols},
                     None, sigma)
spans = tracer.Tracer()
spans.install()
verdict = lowerbound.refute(constant, params)
print(json.dumps([type(verdict).__name__, spans.table()]))
"""


def test_the_benchmark_tracer_binds_the_refuter():
    # The traced benchmark wraps find_collisions and build_candidates by name
    # and reads FoolingPair.side and .word2 to count probes.
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_REFUTE], cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    kind, table = json.loads(proc.stdout)
    assert kind == "Mismatch"
    # Both sides collide on their first two probe words.
    assert table["lowerbound.find_collisions"]["probes"] == 4
    assert table["lowerbound.build_candidates"]["calls"] == 1
    assert table["lowerbound.refute"]["calls"] == 1


def test_exponent_constant_values():
    c3 = exponent_constant(3)
    assert abs(c3 - math.log2(3) / 6) < 1e-12
    assert all(c3 >= math.log2(m) / (2 * m) for m in range(2, 65))
    c2 = exponent_constant(2)
    assert abs(c2 - 0.25) < 1e-12
    with pytest.raises(ValueError):
        exponent_constant(1)


def test_exponent_constant_closed_form_range():
    for k in range(2, 65):
        value = exponent_constant(k)
        assert abs(value - math.log(k) / math.log(2) / (2 * k)) < 1e-12


def test_exponent_argmax_is_three():
    c3 = exponent_constant(3)
    for k in range(2, 65):
        value = exponent_constant(k)
        assert c3 >= value


def test_run_experiment_rows():
    rows = run_experiment([(2, 1), (2, 2)], seed=7)
    assert [(r.k, r.n, r.construction) for r in rows] == [
        (2, 1, "generic"),
        (2, 1, "handcrafted"),
        (2, 2, "generic"),
        (2, 2, "handcrafted"),
    ]
    for row in rows:
        assert row.transducer_states == 2 * row.k * row.n + 2
        assert row.lower_bound == row.k**row.n + 1
        assert row.total_states == row.left_states + row.right_states
        assert row.total_states >= row.lower_bound
        assert max(row.left_states, row.right_states) >= row.k**row.n
        assert row.elapsed_ms == 0


def test_run_experiment_deterministic():
    first = run_experiment([(2, 1), (2, 2)], seed=7)
    second = run_experiment([(2, 2), (2, 1)], seed=7)
    assert render_csv(first) == render_csv(second)


def test_run_experiment_checks_each_cell_once(monkeypatch):
    searches = []
    real = transducer._delay_search

    def counting(x, y, what, *args):
        searches.append(what)
        return real(x, y, what, *args)

    monkeypatch.setattr(transducer, "_delay_search", counting)
    rows = run_experiment([(2, 1), (2, 2), (3, 2)], seed=7)
    # The generic construction reuses the cell's functionality report.
    assert [r.construction for r in rows].count("generic") == 3
    assert searches.count("functionality check") == 3


def test_run_experiment_builds_a_repeated_construction_once(monkeypatch):
    built_cells = []

    def counting(params):
        built_cells.append((params.k, params.n))
        return handcrafted_bimachine(params)

    monkeypatch.setattr(lowerbound, "handcrafted_bimachine", counting)
    rows = run_experiment([(2, 1), (2, 1)], constructions=("handcrafted", "handcrafted"))
    assert built_cells == [(2, 1)]
    assert render_csv(rows) == render_csv(run_experiment([(2, 1)], constructions=("handcrafted",)))
    assert [row.construction for row in rows] == ["handcrafted"]


def test_run_experiment_budget_skips_generic():
    rows = run_experiment([(2, 4)], seed=0)
    assert [r.construction for r in rows] == ["handcrafted"]


def test_render_csv_shape():
    rows = run_experiment([(2, 1)], seed=0)
    text = render_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert text.endswith("\n") and "\r" not in text
    assert not any(line.endswith(",") for line in lines)


def test_experiment_row_ratio():
    row = ExperimentRow(2, 2, "handcrafted", 10, 9, 7, 16, 5, 0)
    assert row.ratio == 4.0
    assert row.csv_line().endswith(",4.0000")


def test_run_experiment_verifies_without_evaluating(monkeypatch):
    compared = []

    def counting(x, y):
        compared.append((type(x).__name__, type(y).__name__))
        return equivalent(x, y)

    def forbidden(*args):
        raise AssertionError("a passing cell evaluated a word")

    monkeypatch.setattr(lowerbound, "equivalent", counting)
    monkeypatch.setattr(lowerbound, "oracle", forbidden)
    monkeypatch.setattr(Bimachine, "evaluate", forbidden)
    rows = run_experiment([(2, 2), (3, 1)])
    assert [row.construction for row in rows] == ["generic", "handcrafted"] * 2
    assert compared == [("Bimachine", "Transducer")] * 4


def test_run_experiment_ignores_the_sampling_arguments():
    base = render_csv(run_experiment([(2, 2)]))
    assert render_csv(run_experiment(
        [(2, 2)], seed=5, exhaustive_word_cap=1, sample_count=0)) == base


def test_run_experiment_names_the_shortest_mismatch(monkeypatch):
    def corrupted(params):
        m = handcrafted_bimachine(params)
        # The psi entry the word 1.3 emits its output (3, 1) from.
        key = (m.left.run(("1",)), "3", m.right.start)
        assert m.psi[key] == ("3", "1")
        psi = {**m.psi, key: ("4", "1")}
        return Bimachine(m.left, m.right, psi, m.empty_word_output, m.output_alphabet)

    monkeypatch.setattr(lowerbound, "handcrafted_bimachine", corrupted)
    with pytest.raises(ExperimentError) as info:
        run_experiment([(2, 1)], constructions=("handcrafted",))
    assert str(info.value) == "cell k=2 n=1 handcrafted: mismatch on 1.3"
