"""Nondeterministic word transducers.

Arcs carry a single input letter (or epsilon) and an output word; the machine
recognizes a relation between input and output words via accepting paths. The
module provides relation/function evaluation, epsilon-input removal, trimming,
and one delay search, a single forward pass over the product of two
letter-input machines, which runs both the exact functionality test and the
exact equivalence test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Container, Hashable, Iterable, NamedTuple, Sequence

from .errors import (
    DivergingRelationError,
    NonFunctionalError,
    PreconditionError,
    ResourceLimitError,
)
from .bimachine import Bimachine
from .fsm import EDGE_CAP, STATE_CAP, Alphabet, LetterMachine, Nfa, Word, explore


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

    def letter_machine(self) -> LetterMachine:
        """This machine as the product searches read it. Raises
        PreconditionError when the machine has epsilon inputs."""
        if self.has_input_epsilons:
            raise PreconditionError("the product searches need a letter-input machine")
        return LetterMachine.build(
            self.input_alphabet, self.state_count, sorted(self.initial), self.final,
            ((arc.src, arc.inp, arc.out, arc.dst) for arc in self.arcs),
            () if self.initial & self.final else None,
        )

    @cached_property
    def _letter_arcs(self) -> dict[tuple[int, str], tuple[tuple[Word, int], ...]]:
        """Letter arcs grouped by (source, token), in canonical order."""
        grouped: dict[tuple[int, str], list[tuple[Word, int]]] = {}
        for arc in self.arcs:
            if arc.inp is not None:
                grouped.setdefault((arc.src, arc.inp), []).append((arc.out, arc.dst))
        return {k: tuple(v) for k, v in grouped.items()}

    @cached_property
    def _functionality(self) -> FunctionalityReport:
        """What ``check_functional`` reports."""
        m = self.letter_machine()
        words, _ = _delay_search(m, m, "functionality check")
        if not words:
            return FunctionalityReport(True)
        for word in words:
            outputs = self.relation(word)
            if len(outputs) >= 2:
                return FunctionalityReport(False, word, (outputs[0], outputs[1]))
        raise AssertionError("internal: conflicting delays without a witness")

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


def _word_to(parents: dict[int, tuple[int, str] | None], pair: int) -> Word:
    """The labels along the ``parents`` links from a root to ``pair``."""
    toks = []
    while parents[pair] is not None:
        pair, tok = parents[pair]
        toks.append(tok)
    return tuple(reversed(toks))


def _delay_search(x: LetterMachine, y: LetterMachine, what: str,
                  fit: tuple[int, int, Sequence[Container[int]]] | None = None,
                  ) -> tuple[list[Word], int]:
    """Look for two accepting paths, one in ``x`` and one in ``y``, that read
    the same word and emit different outputs.

    One breadth-first pass runs over the input-synchronized product, whose
    pairs are ids ``p * y.state_count + q``; two arcs pair up when they carry
    the same label, so the words found are words of labels. The pass keeps,
    for every pair reached from the pairs of initial states, its parent and
    the two outstanding outputs with their common prefix cancelled (the
    delay). A final pair reached with a nonzero delay shows such paths exist.
    So does a conflict, a pair reached with two different delays or a delay
    with both sides outstanding, but only if a final pair can be reached from
    it: a shortest forward search from the conflict checks that and gives the
    continuation. A failed search puts every pair it met into one shared dead
    set, so the failed searches together scan each pair at most once. Every
    pair reachable from a dead pair is dead, and no delay at a dead pair can
    matter, so an edge into one builds no delay. Dead pairs never pass a delay
    on to a live pair (one that can reach a final pair), because every
    reached predecessor of a live pair is live. On a witness the pass stops and
    returns the words that can show it; the caller checks which one does.
    Otherwise the list is empty. The second value counts the pairs reached
    by then. No edge is stored: the searches read the arcs again.

    ``fit``, when given, is ``(xmod, ymod, allowed)``: the pair of states
    ``p`` and ``q`` fits when ``q % ymod in allowed[p % xmod]``. It must hold
    for every live pair (``_suffix_filter`` builds one that does). The start
    pairs and the edges are then kept only where their pair fits, so only
    dead pairs are left out: the live pairs are reached in the same order,
    with the same parents, delays, conflicts and continuations, and only the
    count of reached pairs falls.

    The cap is one rule, the same for every alphabet: the search holds at
    most STATE_CAP pairs and delay tokens together, and the pass and the
    continuation searches together examine at most EDGE_CAP edges. An edge
    is one pair of arcs with the same label, counted whether or not it fits.
    The start pairs are counted before any is built, each pair's edges
    before they are scanned and each delay before it is stored. More raise
    ResourceLimitError. The largest product of the experiment grid, reduced
    (3,4) handcrafted against its transducer, holds 7,277 pairs and 13,122
    delay tokens and examines 103,800 edges, of which 41,592 fit (16,635
    pairs, 14,040 tokens and 105,348 edges unpruned).
    """
    width = y.state_count
    too_large = f"{what} exceeds {STATE_CAP} state pairs or edges (the edge cap is {EDGE_CAP})"
    if len(x.initial) * len(y.initial) > STATE_CAP:
        raise ResourceLimitError(too_large)
    xarcs, yarcs, xfinal, yfinal = x.arcs, y.arcs, x.final, y.final
    xmod, ymod, allowed = fit or (1, 1, ({0},))  # without a fit, every pair fits
    budget = EDGE_CAP
    dead: set[int] = set()

    def continuation(start: int) -> Word | None:
        """The shortest word from ``start`` to a final pair, or None when
        there is none; then every pair met is dead."""
        nonlocal budget
        back: dict[int, tuple[int, str] | None] = {start: None}
        queue = [start]
        for pair in queue:
            p, q = divmod(pair, width)
            if p in xfinal and q in yfinal:
                return _word_to(back, pair)
            xout = xarcs.get(p)
            yout = xout and yarcs.get(q)
            if not yout:
                continue
            for tok, left in xout.items():
                right = yout.get(tok)
                if not right:
                    continue
                budget -= len(left) * len(right)
                if budget < 0:
                    raise ResourceLimitError(too_large)
                for _, d1 in left:
                    base = d1 * width
                    fits = allowed[d1 % xmod]
                    for _, d2 in right:
                        if d2 % ymod not in fits:
                            continue
                        nxt = base + d2
                        if nxt not in back and nxt not in dead:
                            if len(queue) >= STATE_CAP:
                                raise ResourceLimitError(too_large)
                            back[nxt] = (pair, tok)
                            queue.append(nxt)
        dead.update(queue)
        return None

    empty = ((), ())
    starts = sorted({p * width + q for p in x.initial for q in y.initial
                     if q % ymod in allowed[p % xmod]})
    delays: dict[int, tuple[Word, Word]] = dict.fromkeys(starts, empty)
    parents: dict[int, tuple[int, str] | None] = dict.fromkeys(starts)
    order = list(starts)  # the queue: it grows while it is walked
    held = len(order)  # pairs, and the tokens of their delays
    for pair in order:
        p, q = divmod(pair, width)
        xout = xarcs.get(p)
        yout = xout and yarcs.get(q)
        if not yout:
            continue
        d1, d2 = delays[pair]
        for tok, left in xout.items():
            right = yout.get(tok)
            if not right:
                continue
            budget -= len(left) * len(right)
            if budget < 0:
                raise ResourceLimitError(too_large)
            for w1, t1 in left:
                base = t1 * width
                fits = allowed[t1 % xmod]
                for w2, t2 in right:
                    if t2 % ymod not in fits:
                        continue
                    nxt = base + t2
                    if nxt in dead:  # no delay there can matter
                        delay = empty
                    elif w1 or w2:
                        u, v = d1 + w1, d2 + w2
                        if u and v:
                            u, v = _strip_common_prefix(u, v)
                            if u and v:
                                z = continuation(nxt)
                                if z is not None:
                                    return [_word_to(parents, pair) + (tok,) + z], len(order)
                        delay = (u, v)
                    else:
                        delay = (d1, d2)
                    if delay != empty and t1 in xfinal and t2 in yfinal:
                        return [_word_to(parents, pair) + (tok,)], len(order)
                    seen = delays.get(nxt)
                    if seen is None:
                        held += 1 + len(delay[0]) + len(delay[1])
                        if held > STATE_CAP:
                            raise ResourceLimitError(too_large)
                        delays[nxt] = delay
                        parents[nxt] = (pair, tok)
                        order.append(nxt)
                    elif seen != delay and nxt not in dead:
                        z = continuation(nxt)
                        if z is not None:
                            words = [_word_to(parents, pair) + (tok,) + z, _word_to(parents, nxt) + z]
                            return words, len(order)
    return [], len(order)


def check_functional(t: Transducer) -> FunctionalityReport:
    """Exact functionality test: the delay search over the machine squared.

    A letter-input machine is functional exactly when no two of its
    accepting paths read one word and emit different outputs. The word the
    search reports is checked with ``relation`` before it is returned. Caps
    as in ``_delay_search``. The report is computed once per machine.
    """
    return t._functionality


def _domain_difference(x: LetterMachine, y: LetterMachine) -> Word | None:
    """The length-lex least word on which exactly one machine is defined, or
    the empty word when the two disagree there. Runs the subset construction
    of both machines side by side, breadth-first in alphabet order."""
    if x.empty_output != y.empty_output:
        return ()

    no_arcs: dict = {}

    def step(state, tok: str):
        subsets = (frozenset(x.initial), frozenset(y.initial)) if state is None else state
        return tuple(
            frozenset(d for q in subset for _, d in m.arcs.get(q, no_arcs).get(tok, ()))
            for m, subset in zip((x, y), subsets)
        )

    # A start of its own keeps the empty word, which the letter machines do
    # not read, apart from every word that returns to the start subsets.
    dfa, states = explore(x.alphabet, None, step)
    for target in range(1, dfa.state_count):
        sx, sy = states[target]
        if sx.isdisjoint(x.final) != sy.isdisjoint(y.final):
            # Breadth-first: the first (state, letter) leading to a state
            # is its parent.
            parent: dict[int, tuple[int, str]] = {}
            for src, row in enumerate(dfa.delta):
                for tok, dst in zip(x.alphabet.symbols, row):
                    parent.setdefault(dst, (src, tok))
            word = []
            while target:
                target, tok = parent[target]
                word.append(tok)
            return tuple(reversed(word))
    return None


def _letter_input(machine):
    """``machine``, or the letter-input transducer compared in its place."""
    if isinstance(machine, Transducer) and machine.has_input_epsilons:
        return trim(remove_input_epsilons(machine))
    return machine


def _suffix_filter(x, y) -> tuple[int, int, list[set[int]]] | None:
    """The ``fit`` of ``_delay_search`` for the views of ``x`` and ``y``
    when one is a bimachine and the other a letter-input transducer, else
    None. None too when the fitting pairs below number more than STATE_CAP:
    the search then runs unpruned.

    A view state ``(l, r)`` of the bimachine accepts only suffixes whose
    reversal takes its right automaton R to ``r``, and a transducer state
    ``q`` only suffixes it can read to acceptance. They fit when one suffix
    does both, which is when ``(r, q)`` is reached from ``(R.start, f)``,
    ``f`` final, by reading the suffix backwards: R steps forward on each
    letter while the transducer steps back along an arc that reads it. The
    ``q`` that fit an ``r`` are the union of the co-accessible subsets
    (``construct.build_right_automaton``) that R meets in ``r``, but they
    are found without that subset construction, in at most ``|R| * |Q|``
    pairs.
    """
    if isinstance(x, Bimachine) == isinstance(y, Bimachine):
        return None
    b, t = (x, y) if isinstance(x, Bimachine) else (y, x)
    right, count = b.right, t.state_count
    column = {tok: right.alphabet.index(tok) for tok in t.input_alphabet.symbols}
    into: dict[int, set[tuple[int, int]]] = {}  # q -> (column, p) of each arc p -a-> q
    for arc in t.arcs:
        into.setdefault(arc.dst, set()).add((column[arc.inp], arc.src))
    delta = right.delta

    def back(node: int) -> list[int]:
        r, q = divmod(node, count)
        return [delta[r][col] * count + p for col, p in into.get(q, ())]

    try:
        pairs = _reachable([right.start * count + f for f in t.final], back)
    except ResourceLimitError:
        return None
    width = right.state_count
    fits: list[set[int]] = [set() for _ in range(width if b is x else count)]
    for node in pairs:
        r, q = divmod(node, count)
        if b is x:
            fits[r].add(q)
        else:
            fits[q].add(r)
    return (width, count, fits) if b is x else (count, width, fits)


def _compare(x, y) -> tuple[Word | None, int]:
    """``equivalent``, together with the number of product pairs its delay
    search reached before it stopped (0 when the domains already differ).
    ``bimlab equiv`` prints that number when the machines are equivalent."""
    lx, ly = _letter_input(x), _letter_input(y)
    mx, my = lx.letter_machine(), ly.letter_machine()
    if mx.alphabet.symbols != my.alphabet.symbols:
        raise ValueError("machines have different input alphabets")
    word = _domain_difference(mx, my)
    if word is not None:
        words, pairs = [word], 0
    elif isinstance(x, Bimachine) and isinstance(y, Bimachine):
        labelled, pairs = _delay_search(*x.paired_letter_machines(y), "equivalence check")
        words = [tuple(label[0] for label in word) for word in labelled]
    else:
        words, pairs = _delay_search(mx, my, "equivalence check", _suffix_filter(lx, ly))
    for word in words:
        if x.evaluate(word) != y.evaluate(word):
            return word, pairs
    if words:
        raise AssertionError("internal: a difference without a witness")
    return None, pairs


def equivalent(x, y) -> Word | None:
    """Exact equivalence of two machines, each a Transducer or a Bimachine:
    None when they compute the same partial function, else a word on which
    they differ.

    Two checks run. The domains are compared first, and a difference there
    yields the length-lex least word (in ``x``'s alphabet order) on which
    exactly one machine is defined. On the common domain the delay search
    then pairs each accepting path of ``x`` with each of ``y`` on the same
    word; a word it yields comes from its breadth-first search trees and
    need not be the least. Two bimachines enter that search as their
    ``paired_letter_machines``, so that both guess the same suffix. A
    bimachine and a transducer enter it as their letter views, and the
    search leaves out every pair whose two states cannot accept a common
    suffix (``_suffix_filter``). Every returned word is checked with both
    machines' ``evaluate``.

    A transducer with epsilon inputs is compared through
    ``trim(remove_input_epsilons(...))``, which raises PreconditionError when
    the empty word maps to a nonempty output. A transducer that is not
    functional may make ``evaluate`` raise NonFunctionalError. Raises
    ValueError when the input alphabets differ and ResourceLimitError past
    the caps of ``_delay_search``, ``explore`` and the paired views.
    """
    return _compare(x, y)[0]
