"""Module-boundary tracer for the benchmark's traced run.

``install()`` replaces every module attribute that binds one of the traced
public functions (and the traced methods on their classes) with a wrapper
that keeps a span stack in memory. Spans are aggregated per name -- calls,
total seconds and self seconds -- because the grid workload makes over a
million calls. Size counters (states, psi entries, bytes) are read from the
arguments and return values. Nothing under ``src/`` changes: the wrappers
live here and are installed only in a traced worker process.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# home module -> traced public functions. Every binding of each function in
# any bimlab module is wrapped, e.g. ``oracle`` in instances, lowerbound and
# cli, ``moore_reduce`` in bimachine, ``check_functional`` in construct.
FUNCTIONS = {
    "fsm": ("subset_construction", "moore_reduce", "reverse"),
    "transducer": ("remove_input_epsilons", "trim", "check_functional", "is_trim"),
    "construct": ("build_left_automaton", "build_right_automaton", "build_psi",
                  "to_bimachine"),
    "instances": ("oracle", "instance_transducer", "handcrafted_bimachine"),
    "lowerbound": ("find_collisions", "build_candidates", "refute", "run_experiment",
                   "render_csv"),
    "textfmt": ("emit_transducer", "emit_bimachine", "parse_transducer",
                "parse_bimachine", "load_machine"),
    "cli": ("main", "cmd_instance", "cmd_construct", "cmd_eval", "cmd_functional",
            "cmd_equiv", "cmd_refute", "cmd_experiment"),
}
# (module, class, method, span name)
METHODS = (
    ("bimachine", "Bimachine", "evaluate", "bimachine.evaluate"),
    ("bimachine", "Bimachine", "reduce", "bimachine.reduce"),
    ("transducer", "Transducer", "evaluate", "transducer.evaluate"),
)
MODULES = ("fsm", "transducer", "bimachine", "construct", "instances", "lowerbound",
           "textfmt", "cli")
CLI_COMMANDS = ("instance", "construct", "eval", "functional", "equiv", "refute")


def span_name(module: str, function: str) -> str:
    """The two text formats share one span per direction; CLI handlers are
    named after their command."""
    if module == "textfmt" and function.startswith(("parse_", "emit_")):
        return "textfmt." + function.split("_", 1)[0]
    if module == "cli" and function.startswith("cmd_"):
        return "cli." + function[4:]
    return f"{module}.{function}"


def _probes(params, pair) -> int:
    """Probe words find_collisions scanned on one side: all k^n, or up to and
    including the second word of the first collision (lexicographic order)."""
    if pair is None:
        return params.k**params.n
    half = params.first_half if pair.side == "left" else params.second_half
    index = 0
    for tok in pair.word2:
        index = index * params.k + half.index(tok)
    return index + 1


def _observe_collisions(c, args, kwargs, result):
    params = args[1] if len(args) > 1 else kwargs["params"]
    c["probes"] += _probes(params, result[0]) + _probes(params, result[1])


def _observe_reduce(c, args, kwargs, result):
    before = args[0]
    c["states_in"] += before.total_states
    c["states_out"] += result.total_states
    c["psi_in"] += len(before.psi)
    c["psi_out"] += len(result.psi)


def _observe_moore(c, args, kwargs, result):
    c["states_in"] += args[0].state_count
    c["states_out"] += result[0].state_count


def _adder(field, size):
    def observe(c, args, kwargs, result):
        c[field] += size(args, result)
    return observe


_dfa_states = _adder("states", lambda args, result: result[0].state_count)

OBSERVERS = {
    "lowerbound.find_collisions": _observe_collisions,
    "bimachine.reduce": _observe_reduce,
    "fsm.moore_reduce": _observe_moore,
    "fsm.subset_construction": _dfa_states,
    "construct.build_left_automaton": _dfa_states,
    "construct.build_right_automaton": _dfa_states,
    "construct.build_psi": _adder("entries", lambda args, result: len(result)),
    "instances.handcrafted_bimachine":
        _adder("psi_entries", lambda args, result: len(result.psi)),
    "textfmt.parse": _adder("bytes", lambda args, result: len(args[0].encode())),
    "textfmt.emit": _adder("bytes", lambda args, result: len(result.encode())),
}


class Stat:
    __slots__ = ("calls", "total", "self", "counters")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.counters: Counter[str] = Counter()


class Tracer:
    """In-memory span stack with per-name aggregates."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.stack: list[list[float]] = [[0.0]]  # root frame: child seconds

    def wrap(self, fn, name: str):
        stat = self.stats.setdefault(name, Stat())
        observe = OBSERVERS.get(name)
        stack, clock = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self += elapsed - frame[0]
            if observe is not None:
                observe(stat.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of the traced functions and methods."""
        modules = [importlib.import_module("bimlab")]
        modules += [importlib.import_module(f"bimlab.{m}") for m in MODULES]
        for home, names in FUNCTIONS.items():
            owner = importlib.import_module(f"bimlab.{home}")
            for function in names:
                original = getattr(owner, function)
                wrapper = self.wrap(original, span_name(home, function))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        for home, cls_name, method, name in METHODS:
            cls = getattr(importlib.import_module(f"bimlab.{home}"), cls_name)
            setattr(cls, method, self.wrap(vars(cls)[method], name))

    def table(self) -> dict[str, dict]:
        """Every span name with calls, total and self seconds, and counters."""
        return {
            name: {"calls": s.calls, "total_s": s.total, "self_s": s.self, **s.counters}
            for name, s in sorted(self.stats.items())
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Span fields reported per layer; the names follow the span names above.
LAYER_FIELDS = (
    ("instances.oracle", ("calls", "self_s")),
    ("bimachine.evaluate", ("calls", "self_s")),
    ("lowerbound.run_experiment", ("self_s",)),
    ("lowerbound.refute", ("self_s",)),
    ("lowerbound.find_collisions", ("self_s", "probes")),
    ("transducer.check_functional", ("calls", "self_s")),
    ("transducer.evaluate", ("calls", "self_s")),
    ("transducer.remove_input_epsilons", ("self_s",)),
    ("transducer.trim", ("self_s",)),
    ("construct.build_left_automaton", ("self_s", "states")),
    ("construct.build_right_automaton", ("self_s", "states")),
    ("construct.build_psi", ("self_s", "entries")),
    ("fsm.subset_construction", ("self_s", "states")),
    ("fsm.moore_reduce", ("calls", "self_s", "states_in", "states_out")),
    ("bimachine.reduce", ("self_s", "states_in", "states_out", "psi_in", "psi_out")),
    ("instances.handcrafted_bimachine", ("self_s", "psi_entries")),
    ("instances.instance_transducer", ("self_s",)),
    ("textfmt.parse", ("calls", "self_s", "bytes")),
    ("textfmt.emit", ("calls", "self_s", "bytes")),
    *((f"cli.{command}", ("calls", "s")) for command in CLI_COMMANDS),
    ("cli.main", ("self_s",)),
)
_UNITS = {"self_s": "s", "s": "s", "bytes": "B"}

# (metric name, unit) for every per-layer metric the traced run reports.
PER_LAYER = (
    [(f"{name}.{field}", _UNITS.get(field, "count"))
     for name, fields in LAYER_FIELDS for field in fields]
    + [("lowerbound.verify_share", "ratio"), ("bimachine.reduce.kept_ratio", "ratio"),
       ("textfmt.parse.mb_per_s", "MB/s"), ("trace.wall_s", "s"),
       ("trace.overhead", "ratio")]
)


def layer_metrics(table: dict[str, dict]) -> dict[str, float]:
    """Per-layer metric values of one traced iteration, from its span table.

    ``trace.wall_s`` and ``trace.overhead`` are filled in by the caller; a
    span that never ran reads 0.
    """
    def get(name, field):
        return table.get(name, {}).get(field, 0)

    values: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        name, field = metric.rsplit(".", 1)
        if name.startswith("cli.") and field == "s":
            values[metric] = get(name, "total_s")
        else:
            values[metric] = get(name, field)
    values["lowerbound.verify_share"] = _ratio(
        get("bimachine.evaluate", "total_s") + get("instances.oracle", "total_s"),
        get("lowerbound.run_experiment", "total_s"))
    values["bimachine.reduce.kept_ratio"] = _ratio(
        get("bimachine.reduce", "states_out"), get("bimachine.reduce", "states_in"))
    values["textfmt.parse.mb_per_s"] = _ratio(
        get("textfmt.parse", "bytes") / 1e6, get("textfmt.parse", "total_s"))
    return values

