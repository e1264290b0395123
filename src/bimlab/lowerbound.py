"""Pigeonhole collision search over the instance word sets, the candidate-word
refuter for undersized bimachines, the blow-up exponent constant, and the
experiment grid with its CSV report. The grid checks every machine it builds
with the exact equivalence test (``transducer.equivalent``), not on sampled
words.

The refuter keeps only the colliding words: ``find_collisions`` reports, per
side, the first two probe words that reach one state, and
``build_candidates`` pads and crosses the two pairs into three candidate
words. A bimachine with a collision on both sides gets one of the three
candidate words wrong, so ``refute`` has two verdicts; a machine that gets
all three right can only mean a bug, and raises ConsistencyError.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Iterable, NamedTuple, Sequence

from .bimachine import Bimachine
from .construct import to_bimachine
from .errors import ConsistencyError, ExperimentError, ResourceLimitError
from .fsm import STATE_CAP, Word
from .instances import InstanceParams, handcrafted_bimachine, instance_transducer, oracle
from .transducer import check_functional, equivalent, remove_input_epsilons, trim

# The most probe words ``find_collisions`` scans on one side.
PROBE_CAP = 10**6


class FoolingPair(NamedTuple):
    """Two distinct probe words that drive one side's automaton to the same
    state: first-half words run forward from the left start state, and
    second-half words run reversed from the right start state."""

    side: str  # "left" or "right"
    word1: Word
    word2: Word


def find_collisions(
    b: Bimachine, params: InstanceParams
) -> tuple[FoolingPair | None, FoolingPair | None]:
    """Scan all k^n probe words per side in lexicographic order and report the
    first two that reach one state on each side, or None for a side whose
    images are pairwise distinct (which certifies that side has at least k^n
    states). More than PROBE_CAP probe words per side raise
    ResourceLimitError; a machine over another alphabet than the instance's
    raises ValueError."""
    if b.input_alphabet.symbols != params.alphabet.symbols:
        raise ValueError("instance alphabet differs from the machine's")
    if params.k**params.n > PROBE_CAP:
        raise ResourceLimitError(
            f"{params.k}^{params.n} probe words exceed the cap of {PROBE_CAP}"
        )
    pairs: list[FoolingPair | None] = []
    sides = (("left", b.left, params.first_half, 1), ("right", b.right, params.second_half, -1))
    for side, dfa, half, step in sides:
        seen: dict[int, Word] = {}
        for word in itertools.product(half, repeat=params.n):
            state = dfa.run(word[::step])
            if state in seen:
                pairs.append(FoolingPair(side, seen[state], word))
                break
            seen[state] = word
        else:
            pairs.append(None)
    return pairs[0], pairs[1]


def build_candidates(
    left_pair: FoolingPair, right_pair: FoolingPair, params: InstanceParams
) -> tuple[tuple[Word, Word], tuple[Word, Word], tuple[Word, Word]]:
    """The three candidate words crossed from a pair of collisions, each with
    the output the reference function assigns to it.

    Each pair's words first differ at position d (counted from the end on the
    right side), naming symbols x1 and x2 on the left and y3 and y4 on the
    right. The first blocks a1/a2 extend the colliding left words by the pad
    x1^d, so both still drive the left automaton to the same state while
    naming different output symbols; the second blocks b3/b4 prepend y3^d to
    the colliding right words symmetrically. Any machine whose two sides
    both collide must then get one of a1+b3, a2+b3, a1+b4 wrong: with
    L(a1) = L(a2) and R(b3) = R(b4), its outputs factor as X1.Y3, X2.Y3 and
    X1.Y4, and no such words give the three expected outputs y3.x1, y3.x2
    and y4.x1. Every expectation is checked against the reference function,
    and a pair whose words never differ, or any expectation the reference
    function contradicts, raises ConsistencyError.
    """
    padded = []
    for pair, step in ((left_pair, 1), (right_pair, -1)):
        v1, v2 = pair.word1[::step], pair.word2[::step]
        d = next((i for i, (s1, s2) in enumerate(zip(v1, v2)) if s1 != s2), None)
        if d is None:
            raise ConsistencyError(f"{pair.side} words {pair.word1} and {pair.word2} never differ")
        pad = (v1[d],) * d
        padded.append(((v1 + pad)[::step], (v2 + pad)[::step], v1[d], v2[d]))
    (a1, a2, x1, x2), (b3, b4, y3, y4) = padded
    candidates = ((a1 + b3, (y3, x1)), (a2 + b3, (y3, x2)), (a1 + b4, (y4, x1)))
    for word, want in candidates:
        got = oracle(params, word)
        if got != want:
            raise ConsistencyError(
                f"candidate {'.'.join(word)} expected {want} but the reference "
                f"function gives {got}"
            )
    return candidates


class BoundRespected(NamedTuple):
    """At least one side has no collision; each flag that is set certifies
    that its side has at least k^n states."""

    left_certified: bool
    right_certified: bool


class Mismatch(NamedTuple):
    """The machine disagrees with the reference function on ``word``."""

    word: Word
    expected: Word
    actual: Word | None


Verdict = BoundRespected | Mismatch


def refute(b: Bimachine, params: InstanceParams) -> Verdict:
    """Collision search plus the three-candidate evaluation: BoundRespected
    when a side has no collision, else the Mismatch on the first candidate
    word the machine gets wrong. Raises ValueError, through
    ``find_collisions``, when the machine reads another alphabet than the
    instance, and ConsistencyError when the machine gets every candidate
    right, which ``build_candidates`` rules out."""
    left_pair, right_pair = find_collisions(b, params)
    if left_pair is None or right_pair is None:
        return BoundRespected(left_pair is None, right_pair is None)
    for word, want in build_candidates(left_pair, right_pair, params):
        got = b.evaluate(word)
        if got != want:
            return Mismatch(word, want, got)
    raise ConsistencyError("both sides collide, yet every candidate word matches")


def exponent_constant(k: int) -> float:
    """The per-k exponent log2(k)/(2k) of the state blow-up bound; over the
    integers it peaks at k = 3."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return math.log2(k) / (2 * k)


CSV_HEADER = (
    "k,n,construction,transducer_states,left_states,right_states,"
    "total_states,lower_bound,elapsed_ms,ratio"
)


class ExperimentRow(NamedTuple):
    k: int
    n: int
    construction: str
    transducer_states: int
    left_states: int
    right_states: int
    total_states: int
    lower_bound: int
    elapsed_ms: int

    @property
    def ratio(self) -> float:
        return self.total_states / (self.k**self.n)

    def csv_line(self) -> str:
        return (
            f"{self.k},{self.n},{self.construction},{self.transducer_states},"
            f"{self.left_states},{self.right_states},{self.total_states},"
            f"{self.lower_bound},{self.elapsed_ms},{self.ratio:.4f}"
        )


def render_csv(rows: Iterable[ExperimentRow]) -> str:
    return "\n".join([CSV_HEADER, *(row.csv_line() for row in rows)]) + "\n"


def run_experiment(
    grid: Sequence[tuple[int, int]],
    constructions: Sequence[str] = ("generic", "handcrafted"),
    seed: int = 0,
    generic_max_k: int = 3,
    generic_max_n: int = 3,
    handcrafted_max_n: int = 4,
    list_state_cap: int = STATE_CAP,
    exhaustive_word_cap: int = 10**5,
    sample_count: int = 2000,
    measure_timings: bool = False,
) -> list[ExperimentRow]:
    """Per cell: generate, strip epsilons, trim, verify functionality, build
    each construction, reduce, check the reduced machine against the prepared
    transducer with the exact ``equivalent``, and assert the state bounds.
    Rows come out ordered by (k, n, construction), one per distinct cell and
    construction name, however often either is repeated.

    Cells outside the per-construction budget are skipped for that
    construction. ``elapsed_ms`` is reported as 0 unless ``measure_timings``
    is set, keeping the CSV byte-deterministic. ``seed``,
    ``exhaustive_word_cap`` and ``sample_count`` have no effect: they sized
    the sampled check that ``equivalent`` replaced, and stay because the
    benchmark's ``grid`` workload (``perfbench/workloads.py``) still passes
    all three; ROADMAP item 1 removes them with it.
    """
    for name in constructions:
        if name not in ("generic", "handcrafted"):
            raise ValueError(f"unknown construction {name!r}")
    rows: list[ExperimentRow] = []
    for k, n in sorted(set(grid)):
        params = InstanceParams(k, n)
        generated = instance_transducer(params, merged=True)
        prepared = trim(remove_input_epsilons(generated))
        report = check_functional(prepared)
        if not report.functional:
            raise ExperimentError(
                f"cell k={k} n={n}: instance transducer is not functional "
                f"(witness {'.'.join(report.witness)})"
            )
        for tag in sorted(set(constructions)):
            started = time.perf_counter()
            if tag == "generic":
                if k > generic_max_k or n > generic_max_n:
                    continue
                try:
                    machine = to_bimachine(prepared, state_cap=list_state_cap)
                except ResourceLimitError:
                    continue
            else:
                if n > handcrafted_max_n:
                    continue
                machine = handcrafted_bimachine(params)
            reduced = machine.reduce()
            del machine  # the check needs only the reduced machine
            word = equivalent(reduced, prepared)
            if word is not None:
                raise ExperimentError(
                    f"cell k={k} n={n} {tag}: mismatch on {'.'.join(word) or '-'}"
                )
            bound = k**n + 1
            left, right = reduced.left.state_count, reduced.right.state_count
            if max(left, right) < k**n or left + right < bound:
                raise ExperimentError(
                    f"cell k={k} n={n} {tag}: state counts L={left} R={right} "
                    f"fall below the bound {bound}"
                )
            elapsed = int((time.perf_counter() - started) * 1000) if measure_timings else 0
            rows.append(
                ExperimentRow(
                    k=k,
                    n=n,
                    construction=tag,
                    transducer_states=generated.state_count,
                    left_states=left,
                    right_states=right,
                    total_states=left + right,
                    lower_bound=bound,
                    elapsed_ms=elapsed,
                )
            )
    return rows
