"""End-to-end acceptance suite.

Each criterion is one test that prints a single pass/fail line; run

    pytest tests/test_acceptance.py -v -s

to see the lines as they happen. Any violated criterion fails its test.
"""

import math
import random
import time
from pathlib import Path

from bimlab import (
    BoundRespected,
    InstanceParams,
    Mismatch,
    check_functional,
    exponent_constant,
    handcrafted_bimachine,
    instance_transducer,
    oracle,
    refute,
    remove_input_epsilons,
    render_csv,
    run_experiment,
    trim,
)
from bimlab.cli import main
from helpers import built, corrupt_handcrafted, random_letter_transducer, words_upto

GRID_SMALL = [(k, n) for k in (2, 3) for n in (1, 2)]
GRID_FULL = [(k, n) for k in (2, 3) for n in (1, 2, 3, 4)]


def report(name, ok, detail=""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_c1_instance_sizes():
    started = time.perf_counter()
    for k, n in GRID_FULL:
        params = InstanceParams(k, n)
        unmerged = instance_transducer(params, merged=False).state_count
        merged = instance_transducer(params, merged=True).state_count
        assert unmerged == 2 * k * (n + 1), (k, n, unmerged)
        assert merged == 2 * k * n + 2, (k, n, merged)
    elapsed = time.perf_counter() - started
    report(
        "C1 instance sizes 2k(n+1) / 2kn+2 on {2,3}x{1..4}",
        elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_c2_triple_equivalence():
    worst = 0.0
    words = 0
    for k, n in GRID_SMALL:
        params, _, prepared, generic, handcrafted = built(k, n)
        started = time.perf_counter()
        for word in words_upto(params.alphabet.symbols, 2 * n + 2):
            words += 1
            expected = oracle(params, word)
            assert prepared.evaluate(word) == expected, (k, n, word)
            assert generic.evaluate(word) == expected, (k, n, word)
            assert handcrafted.evaluate(word) == expected, (k, n, word)
        cell = time.perf_counter() - started
        worst = max(worst, cell)
        assert cell < 60.0, (k, n, cell)
    report(
        "C2 oracle/transducer/generic/handcrafted agree on all |w| <= 2n+2",
        True,
        f"{words} words, worst cell {worst:.1f}s",
    )


def test_c3_lower_bound_after_reduce():
    rows = run_experiment(GRID_FULL, seed=7)
    for row in rows:
        bound = row.k**row.n
        assert max(row.left_states, row.right_states) >= bound, row
        assert row.left_states + row.right_states >= bound + 1, row
    both = {(r.k, r.n) for r in rows if r.construction == "generic"}
    assert both == {(k, n) for k, n in GRID_FULL if n <= 3}
    # Every cell's reduced counts, as the benchmark's fixture records them.
    fixture = Path(__file__).parent.parent / "perfbench" / "fixtures" / "grid.csv"
    assert render_csv(rows).encode("utf-8") == fixture.read_bytes()
    report(
        "C3 reduced machines respect max >= k^n and total >= k^n+1",
        True,
        f"{len(rows)} rows",
    )


def test_c4_upper_bound_tightness():
    rows = run_experiment(GRID_FULL, constructions=("handcrafted",), seed=7)
    ratios = []
    for k, n in GRID_FULL:
        machine = handcrafted_bimachine(InstanceParams(k, n))
        assert machine.total_states <= 6 * k**n + 12, (k, n, machine.total_states)
    for row in rows:
        if row.n >= 2:
            ratios.append(row.ratio)
            assert row.ratio <= 7.0, row
    report(
        "C4 handcrafted total <= 6k^n+12; CSV ratio <= 7 for n >= 2",
        True,
        f"max ratio {max(ratios):.2f}",
    )


def test_c5_refuter_guarantee():
    trials = 0
    for k, n in GRID_SMALL:
        params, _, _, _, handcrafted = built(k, n)
        rng = random.Random(1000 * k + n)
        for _ in range(20):
            trials += 1
            corrupted = corrupt_handcrafted(handcrafted, params, rng)
            verdict = refute(corrupted, params)
            assert isinstance(verdict, Mismatch), (k, n, verdict)
    report("C5 corrupted machines always refuted via a candidate word", True,
           f"{trials} trials")


def test_c6_exponent_constant():
    c3 = exponent_constant(3)
    assert abs(c3 - math.log2(3) / 6) < 1e-12
    assert all(c3 >= math.log2(m) / (2 * m) for m in range(2, 65))
    best = max(range(2, 65), key=exponent_constant)
    assert best == 3
    report("C6 c3 = log2(3)/6 within 1e-12; argmax over 2..64 is k=3", True,
           f"c3 = {c3:.10f}")


def test_c7_functionality_checker():
    rng = random.Random(2024)
    disagreements = 0
    for _ in range(50):
        t = random_letter_transducer(rng)
        verdict = check_functional(t).functional
        exhaustive = all(
            len(t.relation(word)) <= 1
            for word in words_upto(("a", "b"), 2 * t.state_count)
        )
        if verdict != exhaustive:
            disagreements += 1
    for k, n in GRID_FULL:
        prepared = trim(remove_input_epsilons(instance_transducer(InstanceParams(k, n))))
        if not check_functional(prepared).functional:
            disagreements += 1
    report("C7 functionality checker matches exhaustive singleton testing",
           disagreements == 0, "50 random machines + 8 instance machines")


def test_c8_experiment_determinism(tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(["experiment", "--kmax", "2", "--nmax", "2", "--csv", str(first)]) == 0
    assert main(["experiment", "--kmax", "2", "--nmax", "2", "--csv", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    report("C8 experiment CSV byte-identical across runs",
           identical, f"{len(first.read_bytes())} bytes")


def test_c9_reduce_and_refute_at_k3_n6():
    # The raw output table has 1095 x 6 x 1096 = 7,200,720 cells, under the
    # PSI_CAP of 2^24.
    params = InstanceParams(3, 6)
    started = time.perf_counter()
    raw = handcrafted_bimachine(params)
    assert (raw.left.state_count, raw.right.state_count) == (1095, 1096)
    assert len(raw.psi) == 4_522_713
    reduced = raw.reduce()
    del raw
    verdict = refute(reduced, params)
    sizes = (reduced.left.state_count, reduced.right.state_count)
    assert len(reduced.psi) == 1_864_779
    elapsed = time.perf_counter() - started
    report("C9 raw (3,6) handcrafted reduces to L=1095 R=609 and respects the bound",
           sizes == (1095, 609) and isinstance(verdict, BoundRespected)
           and verdict.left_certified and not verdict.right_certified,
           f"{elapsed:.2f}s")
