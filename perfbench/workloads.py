"""The three benchmark workloads: ``grid``, ``scale`` and ``cli``.

Each workload has a ``setup`` that builds its inputs from the seed (files,
words, expected outputs) and a ``run`` that is the timed phase: it calls the
program and checks every output against an independent reference. Checks use
the functions bound below, before a traced run wraps the package, so the
per-layer numbers count only the program's own calls.

Fixtures under ``fixtures/`` were recorded from the program at the commit the
benchmark was defined on: the grid CSV bytes and the reduced state counts of
the scale cells.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import traceback
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import bimlab
import bimlab.cli
from bimlab.bimachine import Bimachine
from bimlab.fsm import Dfa
from bimlab.instances import InstanceParams, handcrafted_bimachine
from bimlab.instances import oracle as reference_oracle
from bimlab.lowerbound import BoundRespected
from bimlab.textfmt import emit_bimachine, emit_transducer, word_to_text

reference_evaluate = Bimachine.evaluate

FIXTURES = Path(__file__).resolve().parent / "fixtures"

GRID = tuple((k, n) for k in (2, 3) for n in (1, 2, 3, 4))
SMOKE_GRID = ((2, 1), (2, 2))
# Every budget argument is explicit so that a change of defaults cannot
# change the workload.
EXPERIMENT_ARGS = dict(
    constructions=("generic", "handcrafted"),
    generic_max_k=3,
    generic_max_n=3,
    handcrafted_max_n=4,
    list_state_cap=10**5,
    exhaustive_word_cap=10**5,
    measure_timings=False,
)
GRID_SAMPLES = 2000
SMOKE_GRID_SAMPLES = 100

SCALE_HANDCRAFTED = ((3, 5), (2, 8))
SCALE_GENERIC = ((3, 4), (2, 6))
SMOKE_SCALE_HANDCRAFTED = ((2, 3),)
SMOKE_SCALE_GENERIC = ((2, 2),)
SCALE_SAMPLES = 200

CLI_CELLS = ((2, 2), (3, 2), (2, 3), (3, 3), (3, 4))
CLI_NEGATIVE_CELLS = ((2, 2), (2, 3))
SMOKE_CLI_CELLS = ((2, 2),)
CLI_EVAL_WORDS = 25
CLI_EQUIV_SAMPLES = 50
GENERIC_MAX_N = 3


class Checker:
    """Counts checked operations and failures. A failure is a wrong output, a
    wrong verdict, a wrong exit code or an unexpected exception."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(what)

    @contextlib.contextmanager
    def cell(self, what: str):
        """Run one cell; an exception counts as one failed operation and the
        workload goes on with the next cell."""
        try:
            yield
        except Exception:
            self.attempted += 1
            self._fail(f"{what}: {traceback.format_exc(limit=3)}")

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)


def _rng(seed: int, iteration: int, *tags) -> random.Random:
    return random.Random(":".join(map(str, (seed, iteration, *tags))))


def sample_words(params: InstanceParams, rng: random.Random, count: int):
    """Half the words lie in the domain (a first-half block, then a
    second-half block, both of length >= n); half are arbitrary words."""
    def block(tokens, low, high):
        return tuple(rng.choice(tokens) for _ in range(rng.randint(low, high)))

    n = params.n
    words = [
        block(params.first_half, n, n + 3) + block(params.second_half, n, n + 3)
        if i % 2 == 0 else block(params.alphabet.symbols, 0, 4 * n)
        for i in range(count)
    ]
    return [(w, reference_oracle(params, w)) for w in words]


def _load_grid_csv() -> str:
    return (FIXTURES / "grid.csv").read_text(encoding="utf-8")


def _csv_cells(csv_text: str, cells) -> str:
    """The fixture rows of ``cells``; each row depends on its cell only."""
    header, *rows = csv_text.splitlines()
    keep = [r for r in rows if tuple(map(int, r.split(",")[:2])) in set(cells)]
    return "\n".join([header, *keep]) + "\n"


# ---------------------------------------------------------------- grid


@dataclass
class GridInputs:
    seed: int
    cells: tuple
    samples: int
    expected_csv: str


def grid_setup(seed: int, iteration: int, smoke: bool, work: Path) -> GridInputs:
    cells = SMOKE_GRID if smoke else GRID
    return GridInputs(seed * 1000 + iteration, cells,
                      SMOKE_GRID_SAMPLES if smoke else GRID_SAMPLES,
                      _csv_cells(_load_grid_csv(), cells))


def grid_run(inp: GridInputs, check: Checker) -> None:
    rows = []
    with check.cell("grid"):
        rows = bimlab.run_experiment(inp.cells, seed=inp.seed, sample_count=inp.samples,
                                     **EXPERIMENT_ARGS)
    check.expect(bimlab.render_csv(rows) == inp.expected_csv, "grid: CSV bytes differ")
    for row in rows:
        k, n, tag = row.k, row.n, row.construction
        check.expect(row.transducer_states == 2 * k * n + 2,
                     f"grid {k},{n} {tag}: transducer_states {row.transducer_states}")
        _check_bounds(check, f"grid {k},{n} {tag}", k, n, row.left_states, row.right_states)


def _check_bounds(check: Checker, what: str, k: int, n: int, left: int, right: int):
    check.expect(max(left, right) >= k**n and left + right >= k**n + 1,
                 f"{what}: L={left} R={right} below the k^n bound")


# ---------------------------------------------------------------- scale


@dataclass
class ScaleInputs:
    handcrafted: list
    generic: list
    expected: dict
    words: dict = field(default_factory=dict)


def scale_setup(seed: int, iteration: int, smoke: bool, work: Path) -> ScaleInputs:
    handcrafted = SMOKE_SCALE_HANDCRAFTED if smoke else SCALE_HANDCRAFTED
    generic = SMOKE_SCALE_GENERIC if smoke else SCALE_GENERIC
    expected = json.loads((FIXTURES / "scale.json").read_text(encoding="utf-8"))
    inp = ScaleInputs([InstanceParams(k, n) for k, n in handcrafted],
                      [InstanceParams(k, n) for k, n in generic], expected)
    for tag, cells in (("handcrafted", inp.handcrafted), ("generic", inp.generic)):
        for p in cells:
            rng = _rng(seed, iteration, "scale", tag, p.k, p.n)
            inp.words[(tag, p)] = sample_words(p, rng, SCALE_SAMPLES)
    return inp


def _check_reduced(check: Checker, inp: ScaleInputs, tag: str, p: InstanceParams,
                   reduced: Bimachine, verdict) -> None:
    what = f"scale {p.k},{p.n} {tag}"
    left, right = reduced.left.state_count, reduced.right.state_count
    check.expect([left, right] == inp.expected[tag][f"{p.k},{p.n}"],
                 f"{what}: reduced L={left} R={right}")
    _check_bounds(check, what, p.k, p.n, left, right)
    check.expect(isinstance(verdict, BoundRespected), f"{what}: verdict {type(verdict).__name__}")
    wrong = [w for w, want in inp.words[(tag, p)] if reference_evaluate(reduced, w) != want]
    check.expect(not wrong, f"{what}: {len(wrong)} sampled words disagree with oracle")


def _scale_handcrafted(inp: ScaleInputs, p: InstanceParams, check: Checker) -> None:
    machine = bimlab.handcrafted_bimachine(p)
    reduced = machine.reduce()
    del machine
    verdict = bimlab.refute(reduced, p)
    text = bimlab.emit_bimachine(reduced)
    again = bimlab.emit_bimachine(bimlab.parse_bimachine(text))
    check.expect(again == text, f"scale {p.k},{p.n} handcrafted: emit-parse-emit not identical")
    _check_reduced(check, inp, "handcrafted", p, reduced, verdict)


def _scale_generic(inp: ScaleInputs, p: InstanceParams, check: Checker) -> None:
    generated = bimlab.instance_transducer(p)
    check.expect(generated.state_count == 2 * p.k * p.n + 2,
                 f"scale {p.k},{p.n} generic: transducer has {generated.state_count} states")
    prepared = bimlab.trim(bimlab.remove_input_epsilons(generated))
    reduced = bimlab.to_bimachine(prepared).reduce()
    verdict = bimlab.refute(reduced, p)
    _check_reduced(check, inp, "generic", p, reduced, verdict)


def scale_run(inp: ScaleInputs, check: Checker) -> None:
    """One function per cell, so that nothing of a cell outlives it."""
    for p in inp.handcrafted:
        with check.cell(f"scale {p.k},{p.n} handcrafted"):
            _scale_handcrafted(inp, p, check)
    for p in inp.generic:
        with check.cell(f"scale {p.k},{p.n} generic"):
            _scale_generic(inp, p, check)


# ---------------------------------------------------------------- cli


@dataclass
class CliCell:
    params: InstanceParams
    files: dict          # kind -> path of the file the commands write or read
    words: dict          # kind -> [(word text, expected stdout line)]
    max_len: int
    equiv_seed: int
    expected_lr: tuple   # reduced handcrafted (L, R) from the grid fixture


@dataclass
class CliInputs:
    cells: list
    negative: list       # (params, files) for the rejection traffic


def _equiv_max_len(params: InstanceParams) -> int:
    """Longest exhaustive length with at most 5000 words of that length."""
    length = 1
    while (2 * params.k) ** (length + 1) <= 5000 and length < 2 * params.n:
        length += 1
    return length


def _handcrafted_lr(csv_text: str, k: int, n: int) -> tuple[int, int]:
    for row in csv_text.splitlines()[1:]:
        f = row.split(",")
        if (int(f[0]), int(f[1]), f[2]) == (k, n, "handcrafted"):
            return int(f[4]), int(f[5])
    raise KeyError((k, n))


def _corrupt_psi(machine: Bimachine, params: InstanceParams, rng: random.Random) -> Bimachine:
    """Change the output of the boundary psi entry an in-domain word of length
    2n uses, so the machine computes a different function."""
    word = (tuple(rng.choice(params.first_half) for _ in range(params.n))
            + tuple(rng.choice(params.second_half) for _ in range(params.n)))
    lefts = [machine.left.start]
    for tok in word:
        lefts.append(machine.left.step(lefts[-1], tok))
    right = machine.right.start
    psi = dict(machine.psi)
    for i in range(len(word) - 1, -1, -1):
        key = (lefts[i], word[i], right)
        if psi[key]:
            j, first = psi[key]
            psi[key] = (next(t for t in params.second_half if t != j), first)
            break
        right = machine.right.step(right, word[i])
    return Bimachine(machine.left, machine.right, psi, machine.empty_word_output,
                     machine.output_alphabet)


def _merge_state(dfa: Dfa, keep: int, drop: int):
    """Quotient ``drop`` into ``keep``; returns the DFA and the old->new map."""
    remap = {}
    for q in range(dfa.state_count):
        if q != drop:
            remap[q] = len(remap)
    remap[drop] = remap[keep]
    rows = tuple(tuple(remap[t] for t in row) for q, row in enumerate(dfa.delta) if q != drop)
    return Dfa(dfa.alphabet, dfa.state_count - 1, remap[dfa.start], rows), remap


def _undersize(machine: Bimachine, params: InstanceParams, rng: random.Random) -> Bimachine:
    """Merge two distinct probe-word images on each side, leaving a machine
    smaller than the bound allows."""
    lefts = sorted({machine.left.run(w) for w in product(params.first_half, repeat=params.n)})
    rights = sorted({machine.right.run(reversed(v))
                     for v in product(params.second_half, repeat=params.n)})
    (l_keep, l_drop), (r_keep, r_drop) = rng.sample(lefts, 2), rng.sample(rights, 2)
    left, lmap = _merge_state(machine.left, l_keep, l_drop)
    right, rmap = _merge_state(machine.right, r_keep, r_drop)
    psi = {(lmap[l], a, rmap[r]): out for (l, a, r), out in machine.psi.items()
           if l != l_drop and r != r_drop}
    return Bimachine(left, right, psi, machine.empty_word_output, machine.output_alphabet)


def cli_setup(seed: int, iteration: int, smoke: bool, work: Path) -> CliInputs:
    grid_csv = _load_grid_csv()
    cells = []
    for k, n in SMOKE_CLI_CELLS if smoke else CLI_CELLS:
        p = InstanceParams(k, n)
        kinds = ("inst", "gen", "hc") if n <= GENERIC_MAX_N else ("inst", "hc")
        files = {kind: str(work / f"{kind}_{k}_{n}.txt") for kind in kinds}
        words = {}
        for kind in kinds:
            rng = _rng(seed, iteration, "cli", kind, k, n)
            words[kind] = [
                (word_to_text(w), "UNDEFINED" if out is None else word_to_text(out))
                for w, out in sample_words(p, rng, CLI_EVAL_WORDS)
            ]
        cells.append(CliCell(p, files, words, _equiv_max_len(p),
                             _rng(seed, iteration, "equiv", k, n).randrange(10**6),
                             _handcrafted_lr(grid_csv, k, n)))
    negative = []
    for k, n in SMOKE_CLI_CELLS if smoke else CLI_NEGATIVE_CELLS:
        p = InstanceParams(k, n)
        rng = _rng(seed, iteration, "negative", k, n)
        reduced = handcrafted_bimachine(p).reduce()
        good_text = emit_bimachine(reduced)
        texts = {
            "good": good_text,
            "bad_psi": emit_bimachine(_corrupt_psi(reduced, p, rng)),
            "small": emit_bimachine(_undersize(reduced, p, rng)),
            # The first larc line removed: the left automaton is not total.
            "broken": good_text.replace(next(line for line in good_text.splitlines(True)
                                             if line.startswith("larc ")), "", 1),
            "broken_inst": emit_transducer(bimlab.instance_transducer(p)) + "arc 0\n",
        }
        files = {}
        for kind, text in texts.items():
            files[kind] = str(work / f"neg_{kind}_{k}_{n}.txt")
            Path(files[kind]).write_text(text, encoding="utf-8")
        negative.append((p, files))
    return CliInputs(cells, negative)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``bimlab`` command: its exit code and its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = bimlab.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def command(check: Checker, argv: list[str], code: int, prefix: str = "") -> str:
    """Run one command and check its exit code and the start of its output."""
    got, out = run_cli(argv)
    check.expect(got == code and out.startswith(prefix),
                 f"cli {' '.join(argv)}: exit {got}, output {out[:80]!r}")
    return out


def _header_count(text: str, keyword: str) -> int:
    """The count on the first ``<keyword> ... <count>`` header line."""
    line = next(line for line in text.splitlines() if line.startswith(keyword + " "))
    return int(line.split()[2] if keyword in ("left", "right") else line.split()[1])


def _cli_cell(cell: CliCell, check: Checker) -> None:
    k, n = cell.params.k, cell.params.n
    kn, files = ["--k", str(k), "--n", str(n)], cell.files
    command(check, ["instance", *kn, "--out", files["inst"]], 0)
    states = _header_count(Path(files["inst"]).read_text(encoding="utf-8"), "states")
    check.expect(states == 2 * k * n + 2, f"cli {k},{n}: instance has {states} states")
    command(check, ["functional", "--in", files["inst"]], 0, "FUNCTIONAL\n")
    if "gen" in files:
        command(check, ["construct", "--in", files["inst"], "--method", "generic",
                        "--out", files["gen"]], 0)
    command(check, ["construct", "--method", "handcrafted", *kn, "--reduce",
                    "--out", files["hc"]], 0)
    hc = Path(files["hc"]).read_text(encoding="utf-8")
    lr = (_header_count(hc, "left"), _header_count(hc, "right"))
    check.expect(lr == cell.expected_lr, f"cli {k},{n}: reduced handcrafted {lr}")
    for kind, words in cell.words.items():
        for word, want in words:
            out = command(check, ["eval", "--machine", files[kind], "--word", word], 0)
            check.expect(out == want + "\n",
                         f"cli eval {kind} {k},{n} {word}: {out!r} != {want!r}")
    command(check, ["equiv", "--a", files.get("gen", files["inst"]), "--b", files["hc"],
                    "--oracle", f"{k},{n}", "--max-len", str(cell.max_len),
                    "--samples", str(CLI_EQUIV_SAMPLES), "--seed", str(cell.equiv_seed)],
            0, "EQUIVALENT")
    command(check, ["refute", "--machine", files["hc"], *kn], 0, "BOUND-RESPECTED")


def _cli_negative(p: InstanceParams, files: dict, check: Checker) -> None:
    kn = ["--k", str(p.k), "--n", str(p.n)]
    command(check, ["equiv", "--a", files["good"], "--b", files["bad_psi"],
                    "--oracle", f"{p.k},{p.n}", "--max-len", str(2 * p.n)], 1, "MISMATCH")
    command(check, ["refute", "--machine", files["small"], *kn], 1, "MISMATCH")
    command(check, ["eval", "--machine", files["broken"], "--word", "1"], 2)
    command(check, ["refute", "--machine", files["broken"], *kn], 2)
    command(check, ["equiv", "--a", files["good"], "--b", files["broken"]], 2)
    command(check, ["functional", "--in", files["broken_inst"]], 2)


def cli_run(inp: CliInputs, check: Checker) -> None:
    for cell in inp.cells:
        with check.cell(f"cli {cell.params.k},{cell.params.n}"):
            _cli_cell(cell, check)
    for p, files in inp.negative:
        with check.cell(f"cli negative {p.k},{p.n}"):
            _cli_negative(p, files, check)


WORKLOADS = {
    "grid": (grid_setup, grid_run),
    "scale": (scale_setup, scale_run),
    "cli": (cli_setup, cli_run),
}
