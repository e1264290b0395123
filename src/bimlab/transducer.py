"""Nondeterministic word transducers.

Arcs carry a single input letter (or epsilon) and an output word; the machine
recognizes a relation between input and output words via accepting paths. The
module provides relation/function evaluation, epsilon-input removal, trimming,
and an exact functionality test.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, NamedTuple

from .errors import (
    DivergingRelationError,
    NonFunctionalError,
    PreconditionError,
    ResourceLimitError,
)
from .fsm import STATE_CAP, Alphabet, Nfa, Word


class Arc(NamedTuple):
    src: int
    inp: str | None  # None encodes an epsilon input
    out: Word
    dst: int


def arc_key(arc: Arc):
    """Canonical arc order: by source, then (input, output word, target)."""
    return (arc.src, arc.inp is not None, arc.inp or "", arc.out, arc.dst)


@dataclass(frozen=True)
class Transducer:
    input_alphabet: Alphabet
    output_alphabet: Alphabet
    state_count: int
    initial: frozenset[int]
    final: frozenset[int]
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        if self.state_count > STATE_CAP:
            raise ResourceLimitError(f"{self.state_count} states exceed the cap of {STATE_CAP}")
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "final", frozenset(self.final))
        arcs = {Arc(a[0], a[1], tuple(a[2]), a[3]) for a in self.arcs}
        object.__setattr__(self, "arcs", tuple(sorted(arcs, key=arc_key)))
        for q in (*self.initial, *self.final):
            if not 0 <= q < self.state_count:
                raise ValueError(f"state {q} out of range")
        for arc in self.arcs:
            if not (0 <= arc.src < self.state_count and 0 <= arc.dst < self.state_count):
                raise ValueError(f"arc {arc} out of range")
            if arc.inp is not None:
                self.input_alphabet.index(arc.inp)
            for tok in arc.out:
                self.output_alphabet.index(tok)

    @property
    def has_input_epsilons(self) -> bool:
        return any(arc.inp is None for arc in self.arcs)

    def input_projection(self) -> Nfa:
        """Drop the outputs; epsilon inputs become epsilon arcs."""
        return Nfa(
            self.input_alphabet,
            self.state_count,
            tuple(sorted(self.initial)),
            self.final,
            tuple((a.src, a.inp, a.dst) for a in self.arcs),
        )

    def relation(self, word: Iterable[str]) -> tuple[Word, ...]:
        """All outputs of accepting paths reading ``word``, in sorted order.

        Raises DivergingRelationError when an epsilon cycle with nonempty
        output makes some image infinite, and ResourceLimitError when one step
        holds more than STATE_CAP (state, output) pairs.
        """
        word = self.input_alphabet.check_word(word)
        closures = self._epsilon_closures
        arcs = self._letter_arcs
        config: dict[int, set[Word]] = {}
        for q in sorted(self.initial):
            for q2, u in closures[q]:
                config.setdefault(q2, set()).add(u)
        for tok in word:
            nxt: dict[int, set[Word]] = {}
            pairs = 0
            for q, outs in config.items():
                for w, d in arcs.get((q, tok), ()):
                    for d2, u in closures[d]:
                        bucket = nxt.setdefault(d2, set())
                        pairs -= len(bucket)
                        bucket.update([o + w + u for o in outs])
                        pairs += len(bucket)
                        if pairs > STATE_CAP:
                            raise ResourceLimitError(f"relation step exceeds {STATE_CAP} pairs")
            config = nxt
        results: set[Word] = set()
        for q in self.final:
            results.update(config.get(q, ()))
        return tuple(sorted(results))

    def evaluate(self, word: Iterable[str]) -> Word | None:
        """The function value at ``word``: the unique output, or None when the
        word is outside the domain. Raises NonFunctionalError on conflicts."""
        word = tuple(word)
        outputs = self.relation(word)
        if not outputs:
            return None
        if len(outputs) > 1:
            raise NonFunctionalError(word, outputs[0], outputs[1])
        return outputs[0]

    @cached_property
    def _letter_arcs(self) -> dict[tuple[int, str], tuple[tuple[Word, int], ...]]:
        """Letter arcs grouped by (source, token), in canonical order."""
        grouped: dict[tuple[int, str], list[tuple[Word, int]]] = {}
        for arc in self.arcs:
            if arc.inp is not None:
                grouped.setdefault((arc.src, arc.inp), []).append((arc.out, arc.dst))
        return {k: tuple(v) for k, v in grouped.items()}

    @cached_property
    def _epsilon_closures(self) -> tuple[tuple[tuple[int, Word], ...], ...]:
        """Per state, all (target, output) pairs of epsilon paths (including the
        trivial one). Raises DivergingRelationError when an epsilon cycle emits,
        and ResourceLimitError when the closures together hold more than
        STATE_CAP pairs besides each state's trivial one."""
        eps: dict[int, list[tuple[Word, int]]] = {}
        for arc in self.arcs:
            if arc.inp is None:
                eps.setdefault(arc.src, []).append((arc.out, arc.dst))

        def targets(p: int):
            return [d for _, d in eps.get(p, ())]

        for q, items in eps.items():
            for out, d in items:
                if out and q in _reachable((d,), targets):
                    raise DivergingRelationError(
                        f"epsilon cycle through state {q} emits output"
                    )

        def extend(item: tuple[int, Word]):
            return [(d, item[1] + out) for out, d in eps.get(item[0], ())]

        closures = []
        pairs = 0
        for q in range(self.state_count):
            closure = _reachable([(q, ())], extend)
            pairs += len(closure) - 1
            if pairs > STATE_CAP:
                raise ResourceLimitError(f"epsilon closures exceed {STATE_CAP} pairs")
            closures.append(tuple(sorted(closure)))
        return tuple(closures)


def _reachable(starts: Iterable[Hashable], succ: Callable[[Hashable], Iterable[Hashable]]) -> set:
    """Every node reachable from ``starts`` along ``succ``, starts included.
    Raises ResourceLimitError once more than STATE_CAP nodes are found."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for node in succ(stack.pop()):
            if node not in seen:
                if len(seen) >= STATE_CAP:
                    raise ResourceLimitError(f"a search reached more than {STATE_CAP} nodes")
                seen.add(node)
                stack.append(node)
    return seen


def remove_input_epsilons(t: Transducer) -> Transducer:
    """Fold epsilon-input arcs away without changing the relation.

    Every letter arc absorbs the output of each epsilon path leaving its
    target; a state with an output-free epsilon path to a final state becomes
    final; epsilon paths out of initial states are prepended to the first
    letter arc read from their endpoint.
    """
    closures = t._epsilon_closures
    sources = [(q, q, ()) for q in range(t.state_count)]  # (new source, state, prefix)
    new_initial = set(t.initial)
    for s in t.initial:
        for p, u in closures[s]:
            if not u:
                new_initial.add(p)
            elif p in t.final:
                raise PreconditionError(
                    "empty input maps to nonempty output; not expressible "
                    "with letter-input arcs"
                )
            else:
                sources.append((s, p, u))
    arcs = t._letter_arcs
    new_arcs = {
        Arc(s, tok, u + out + u2, q2)
        for s, p, u in sources
        for tok in t.input_alphabet.symbols
        for out, d in arcs.get((p, tok), ())
        for q2, u2 in closures[d]
    }

    new_final = {
        q for q, items in enumerate(closures) if any(p in t.final and not u for p, u in items)
    }

    return Transducer(
        t.input_alphabet,
        t.output_alphabet,
        t.state_count,
        frozenset(new_initial),
        frozenset(new_final),
        tuple(new_arcs),
    )


def useful_states(t: Transducer) -> set[int]:
    """States that lie on some accepting path (accessible and co-accessible)."""
    succ: list[list[int]] = [[] for _ in range(t.state_count)]
    pred: list[list[int]] = [[] for _ in range(t.state_count)]
    for a in t.arcs:
        succ[a.src].append(a.dst)
        pred[a.dst].append(a.src)
    return _reachable(t.initial, succ.__getitem__) & _reachable(t.final, pred.__getitem__)


def trim(t: Transducer) -> Transducer:
    """Restrict to states on accepting paths; the relation is unchanged."""
    keep = sorted(useful_states(t))
    remap = {old: new for new, old in enumerate(keep)}
    return Transducer(
        t.input_alphabet,
        t.output_alphabet,
        len(keep),
        frozenset(remap[q] for q in t.initial if q in remap),
        frozenset(remap[q] for q in t.final if q in remap),
        tuple(
            Arc(remap[a.src], a.inp, a.out, remap[a.dst])
            for a in t.arcs
            if a.src in remap and a.dst in remap
        ),
    )


def is_trim(t: Transducer) -> bool:
    return len(useful_states(t)) == t.state_count


@dataclass(frozen=True)
class FunctionalityReport:
    functional: bool
    witness: Word | None = None
    outputs: tuple[Word, Word] | None = None


def _strip_common_prefix(u: Word, v: Word) -> tuple[Word, Word]:
    i = 0
    limit = min(len(u), len(v))
    while i < limit and u[i] == v[i]:
        i += 1
    return u[i:], v[i:]


def check_functional(t: Transducer) -> FunctionalityReport:
    """Exact functionality test by squaring with delay tracking.

    Runs the input-synchronized product of the machine with itself, keeping
    for each reached pair of states the two outstanding outputs with their
    common prefix cancelled (the delay). Only pairs that can still reach a
    final pair are considered. A pair reached with two distinct delays, a
    delay with both sides outstanding, or a final pair with a nonzero delay
    certifies two distinct outputs for one input word; that word is
    reconstructed from the search tree and verified before being returned.
    The product is capped: more than STATE_CAP start pairs, reached pairs or
    edges raise ResourceLimitError.
    """
    if t.has_input_epsilons:
        raise PreconditionError("functionality test needs a letter-input machine")
    arcs = t._letter_arcs
    tokens = t.input_alphabet.symbols

    if len(t.initial) ** 2 > STATE_CAP:
        raise ResourceLimitError(f"functionality check exceeds {STATE_CAP} state pairs")
    start_pairs = sorted((p, q) for p in t.initial for q in t.initial)
    reached: set[tuple[int, int]] = set(start_pairs)
    queue = deque(start_pairs)
    succ: dict[tuple[int, int], list[tuple[str, Word, Word, tuple[int, int]]]] = {}
    edge_count = 0
    while queue:
        pair = queue.popleft()
        p, q = pair
        edges = []
        for tok in tokens:
            for w1, d1 in arcs.get((p, tok), ()):
                for w2, d2 in arcs.get((q, tok), ()):
                    nxt = (d1, d2)
                    edges.append((tok, w1, w2, nxt))
                    if nxt not in reached:
                        reached.add(nxt)
                        queue.append(nxt)
                if len(reached) > STATE_CAP or edge_count + len(edges) > STATE_CAP:
                    raise ResourceLimitError(
                        f"functionality check exceeds {STATE_CAP} state pairs or edges"
                    )
        edge_count += len(edges)
        succ[pair] = edges

    final_pairs = {pr for pr in reached if pr[0] in t.final and pr[1] in t.final}

    # Restrict to pairs that can reach a final pair; keep one continuation
    # step per pair for witness reconstruction.
    pred: dict[tuple[int, int], list[tuple[tuple[int, int], str]]] = {}
    for pair, edges in succ.items():
        for tok, _, _, nxt in edges:
            pred.setdefault(nxt, []).append((pair, tok))
    continue_step: dict[tuple[int, int], tuple[str, tuple[int, int]] | None] = {}
    queue = deque(sorted(final_pairs))
    for pr in final_pairs:
        continue_step[pr] = None
    while queue:
        pair = queue.popleft()
        for prev, tok in pred.get(pair, ()):
            if prev not in continue_step:
                continue_step[prev] = (tok, pair)
                queue.append(prev)
    live = set(continue_step)

    def word_to(pair) -> Word:
        toks = []
        while parents[pair] is not None:
            prev, tok = parents[pair]
            toks.append(tok)
            pair = prev
        return tuple(reversed(toks))

    def continuation(pair) -> Word:
        toks = []
        while continue_step[pair] is not None:
            tok, pair = continue_step[pair]
            toks.append(tok)
        return tuple(toks)

    def verified(words: list[Word]) -> FunctionalityReport:
        for word in words:
            outputs = t.relation(word)
            if len(outputs) >= 2:
                return FunctionalityReport(False, word, (outputs[0], outputs[1]))
        raise AssertionError("internal: conflicting delays without a witness")

    delays: dict[tuple[int, int], tuple[Word, Word]] = {}
    parents: dict[tuple[int, int], tuple[tuple[int, int], str] | None] = {}
    queue = deque()
    for pr in start_pairs:
        if pr in live and pr not in delays:
            delays[pr] = ((), ())
            parents[pr] = None
            queue.append(pr)
    while queue:
        pair = queue.popleft()
        d = delays[pair]
        for tok, w1, w2, nxt in succ[pair]:
            if nxt not in live:
                continue
            delay = _strip_common_prefix(d[0] + w1, d[1] + w2)
            if delay[0] and delay[1]:
                return verified([word_to(pair) + (tok,) + continuation(nxt)])
            if nxt in final_pairs and delay != ((), ()):
                return verified([word_to(pair) + (tok,)])
            if nxt in delays:
                if delays[nxt] != delay:
                    z = continuation(nxt)
                    return verified([word_to(pair) + (tok,) + z, word_to(nxt) + z])
            else:
                delays[nxt] = delay
                parents[nxt] = (pair, tok)
                queue.append(nxt)
    return FunctionalityReport(True)
