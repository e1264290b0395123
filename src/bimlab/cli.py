"""Command-line surface.

Exit status: 0 on success, 1 when a checked property is violated (mismatch,
refuted bound, non-functional machine), 2 on usage or input errors and when
an internal cross-check fails.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache, partial
from pathlib import Path

from .construct import to_bimachine
from .errors import (
    BimlabError,
    ConsistencyError,
    ExperimentError,
    NonFunctionalError,
)
from .instances import InstanceParams, handcrafted_bimachine, instance_transducer, oracle
from .lowerbound import BoundRespected, refute, render_csv, run_experiment
from .textfmt import (
    emit_bimachine,
    emit_transducer,
    load_machine,
    parse_bimachine,
    parse_transducer,
    word_from_text,
    word_to_text,
)
from .transducer import (
    Transducer,
    _compare,
    _letter_input,
    check_functional,
    remove_input_epsilons,
    trim,
)


def _params(args) -> InstanceParams:
    return InstanceParams(args.k, args.n)


def _word_or_undefined(word) -> str:
    return word_to_text(word) if word is not None else "UNDEFINED"


def cmd_instance(args) -> int:
    t = instance_transducer(_params(args), merged=not args.unmerged)
    Path(args.out).write_text(emit_transducer(t), encoding="utf-8")
    return 0


def cmd_construct(args) -> int:
    if args.method == "handcrafted":
        if args.k is None or args.n is None:
            raise ValueError("--method handcrafted needs --k and --n")
        machine = handcrafted_bimachine(_params(args))
    else:
        if args.infile is None:
            raise ValueError("--method generic needs --in")
        t = parse_transducer(Path(args.infile).read_text(encoding="utf-8"))
        machine = to_bimachine(trim(remove_input_epsilons(t)))
    if args.reduce:
        machine = machine.reduce()
    Path(args.out).write_text(emit_bimachine(machine), encoding="utf-8")
    return 0


def cmd_eval(args) -> int:
    machine = load_machine(Path(args.machine).read_text(encoding="utf-8"))
    word = word_from_text(args.word)
    out = machine.evaluate(word)
    print(_word_or_undefined(out))
    return 0


def cmd_functional(args) -> int:
    t = parse_transducer(Path(args.infile).read_text(encoding="utf-8"))
    if t.has_input_epsilons:
        t = trim(remove_input_epsilons(t))
    report = check_functional(t)
    if report.functional:
        print("FUNCTIONAL")
        return 0
    print(
        f"NON-FUNCTIONAL witness={word_to_text(report.witness)} "
        f"outputs={word_to_text(report.outputs[0])},{word_to_text(report.outputs[1])}"
    )
    return 1


def cmd_equiv(args) -> int:
    a = load_machine(Path(args.a).read_text(encoding="utf-8"))
    b = load_machine(Path(args.b).read_text(encoding="utf-8"))
    alphabet = a.input_alphabet
    if b.input_alphabet.symbols != alphabet.symbols:
        raise ValueError("machines have different input alphabets")
    # (name, machine compared, function shown on a mismatch)
    sides = [("a", a, a.evaluate), ("b", b, b.evaluate)]
    if args.oracle is not None:
        try:
            k, n = map(int, args.oracle.split(","))
        except ValueError:
            raise ValueError(f"--oracle wants k,n, got {args.oracle!r}") from None
        params = InstanceParams(k, n)
        if params.alphabet.symbols != alphabet.symbols:
            raise ValueError("oracle alphabet differs from the machines")
        prepared = trim(remove_input_epsilons(instance_transducer(params)))
        sides.append(("oracle", prepared, partial(oracle, params)))
    pivot = next((m for _, m, _ in sides if isinstance(m, Transducer)), a)
    prepared_pivot = _letter_input(pivot)  # once, however many sides meet it
    pairs = 0
    for _, machine, _ in sides:
        if machine is pivot:
            continue
        word, reached = _compare(machine, prepared_pivot)
        pairs += reached
        if word is not None:
            shown = [(name, fn(word)) for name, _, fn in sides]
            if len({out for _, out in shown}) < 2:
                raise ConsistencyError(f"every side agrees on {word_to_text(word)}")
            outputs = " ".join(f"{name}={_word_or_undefined(out)}" for name, out in shown)
            print(f"MISMATCH word={word_to_text(word)} {outputs}")
            return 1
    print(f"EQUIVALENT(pairs={pairs})")
    return 0


def cmd_refute(args) -> int:
    machine = parse_bimachine(Path(args.machine).read_text(encoding="utf-8"))
    verdict = refute(machine, _params(args))
    if isinstance(verdict, BoundRespected):
        print(
            f"BOUND-RESPECTED certified-left={str(verdict.left_certified).lower()} "
            f"certified-right={str(verdict.right_certified).lower()}"
        )
        return 0
    print(
        f"MISMATCH word={word_to_text(verdict.word)} "
        f"expected={word_to_text(verdict.expected)} "
        f"actual={_word_or_undefined(verdict.actual)}"
    )
    return 1


def cmd_experiment(args) -> int:
    grid = [(k, n) for k in range(2, args.kmax + 1) for n in range(1, args.nmax + 1)]
    rows = run_experiment(grid, measure_timings=args.timings)
    Path(args.csv).write_text(render_csv(rows), encoding="utf-8")
    print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it."""
    parser = argparse.ArgumentParser(
        prog="bimlab",
        description="Transducer/bimachine laboratory for the hard instance family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("instance", help="write an instance transducer")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--unmerged", action="store_true",
                   help="keep separate heads and tails (2k(n+1) states)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("construct", help="build a bimachine")
    p.add_argument("--in", dest="infile", help="transducer file (generic method)")
    p.add_argument("--method", choices=("generic", "handcrafted"), required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--reduce", action="store_true", help="reduce before writing")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate a machine on one word")
    p.add_argument("--machine", required=True)
    p.add_argument("--word", required=True, help="`.`-joined tokens; '-' for empty")

    p = sub.add_parser("functional", help="decide functionality of a transducer")
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("equiv", help="decide whether two machines (and optionally "
                                     "the reference function) are equivalent")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--oracle", help="k,n of the reference function")
    p.add_argument("--max-len", type=int, default=6, help="no effect: the check is exact")
    p.add_argument("--samples", type=int, default=0, help="no effect: the check is exact")
    p.add_argument("--seed", type=int, default=0, help="no effect: the check is exact")

    p = sub.add_parser("refute", help="collision search plus candidate words")
    p.add_argument("--machine", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("experiment", help="run the grid and write the CSV report")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--timings", action="store_true",
                   help="record real elapsed_ms (breaks byte-determinism)")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Looked up at each call, so that a rebinding of cmd_<name> is seen.
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except (BimlabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (NonFunctionalError, ExperimentError)) else 2


if __name__ == "__main__":
    raise SystemExit(main())
