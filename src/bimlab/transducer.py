"""Nondeterministic word transducers.

Arcs carry a single input letter (or epsilon) and an output word; the machine
recognizes a relation between input and output words via accepting paths. The
module provides relation/function evaluation, epsilon-input removal, trimming,
and one delay search, a single forward pass over a product of two machines,
which runs both the exact functionality test and the exact equivalence test.
The equivalence test reads a bimachine straight from its psi rows, both for
its domain and for the search, against a transducer or another bimachine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

from .errors import (
    DivergingRelationError,
    NonFunctionalError,
    PreconditionError,
    ResourceLimitError,
)
from .bimachine import Bimachine
from .fsm import EDGE_CAP, STATE_CAP, Alphabet, LetterMachine, Nfa, Word, explore


# successors(pair, spend) of a product: see ``_delay_search``.
Successors = Callable[[int, Callable[[int], None]],
                      Iterable[tuple[Hashable, int, Iterable[tuple[int, int, bool]]]]]
# What ``_delay_search`` runs on: start pairs, successors and output words.
Product = tuple[Iterable[int], Successors, tuple[Word, ...]]


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
        starts, successors, outputs = _letter_product(m, m)
        words, _ = _delay_search(starts, successors, "functionality check", outputs)
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
    """The letters along the ``parents`` links from a root to ``pair``."""
    toks = []
    while parents[pair] is not None:
        pair, tok = parents[pair]
        toks.append(tok)
    return tuple(reversed(toks))


def _delay_search(starts: Iterable[int], successors: Successors, what: str,
                  words: Sequence[Word]) -> tuple[list[Word], int]:
    """Look for two accepting paths, one in each machine of a product, that
    read the same word and emit different outputs.

    The product is given by its sorted ``starts``, its pair ids, and by
    ``successors(pair, spend)``. That yields the pair's edges in groups
    ``(letter, base, edges)``, one group per letter with edges, in the order
    the search walks them. Each edge is ``(w, offset, final)``: it leads to
    pair ``base + offset``, which is a final pair when ``final`` is true,
    and ``w = w1 * len(words) + w2`` names its two outputs, indices into
    ``words``, where ``words[0]`` is the empty word. Before ``successors``
    scans anything it calls ``spend(n)`` with the number of arc pairs it is
    about to examine; ``spend`` raises ResourceLimitError past the cap.

    One breadth-first pass keeps, for every pair reached from the start
    pairs, its parent and the two outstanding outputs with their common
    prefix cancelled (the delay). A final pair reached with a nonzero delay
    shows such paths exist. So does a conflict, a pair reached with two
    different delays or a delay with both sides outstanding, but only if a
    final pair can be reached from it: a shortest forward search from the
    conflict checks that and gives the continuation. A failed search puts
    every pair it met into one shared dead set, so the failed searches
    together scan each pair at most once. Every pair reachable from a dead
    pair is dead, and no delay at a dead pair can matter, so an edge into
    one builds no delay. Dead pairs never pass a delay on to a live pair
    (one that can reach a final pair), because every reached predecessor of
    a live pair is live. On a witness the pass stops and returns the words
    that can show it; the caller checks which one does. Otherwise the list
    is empty. The second value counts the pairs reached by then.

    Delays are interned: each distinct delay gets a small integer, and the
    step from a delay over an edge's two outputs to the next delay (or a
    conflict) is computed once and remembered. No edge is stored here; the
    continuation searches ask ``successors`` again.

    The cap is one rule, the same for every alphabet. The search holds at
    most STATE_CAP pairs and delay tokens together, and its distinct delays
    hold at most STATE_CAP tokens. The pass and the continuation searches
    together examine at most EDGE_CAP arc pairs: an arc pair counts when
    ``successors`` scans it to build a group of edges (a group counts at
    least 1), and an edge counts each time it is walked. The start pairs
    are counted as they are taken, each group before it is scanned and each
    delay before it is stored. More raise ResourceLimitError. So on an
    untrusted file the search takes at most EDGE_CAP steps over arc pairs,
    besides one look at each letter of each reached pair (at most
    STATE_CAP of them) and, in ``_row_product``, one pass over a psi row's
    cells per letter it is read on. The largest product of the experiment
    grid, reduced (3,4) handcrafted against its transducer, holds 7,277
    pairs and 13,122 delay tokens and examines 46,122 arc pairs: 4,530 to
    build 1,377 groups and 41,592 edges walked (20,509 pairs with every
    pair fitting). Raw (3,4) handcrafted against the same transducer
    examines 63,132 in 7,493 pairs.
    """
    too_large = f"{what} exceeds {STATE_CAP} state pairs or edges (the edge cap is {EDGE_CAP})"
    budget = EDGE_CAP

    def spend(n: int) -> None:
        nonlocal budget
        budget -= n
        if budget < 0:
            raise ResourceLimitError(too_large)

    dead: set[int] = set()

    def continuation(start: int, start_final: bool) -> Word | None:
        """The shortest word from ``start`` to a final pair, or None when
        there is none; then every pair met is dead."""
        if start_final:
            return ()
        back: dict[int, tuple[int, str] | None] = {start: None}
        queue = [start]
        for pair in queue:
            for tok, base, edges in successors(pair, spend):
                for _, offset, final in edges:
                    nxt = base + offset
                    if nxt not in back and nxt not in dead:
                        if len(queue) >= STATE_CAP:
                            raise ResourceLimitError(too_large)
                        back[nxt] = (pair, tok)
                        if final:
                            return _word_to(back, nxt)
                        queue.append(nxt)
        dead.update(queue)
        return None

    order: list[int] = []  # the queue: it grows while it is walked
    for pair in starts:
        if len(order) >= STATE_CAP:
            raise ResourceLimitError(too_large)
        order.append(pair)
    delays: dict[int, int] = dict.fromkeys(order, 0)
    parents: dict[int, tuple[int, str] | None] = dict.fromkeys(order)
    held = len(order)  # pairs, and the tokens of their delays

    # Delay d is table[d]; 0 is the empty delay. tokens[d] counts its
    # tokens, and split[d] tells a conflict: both sides outstanding.
    table: list[tuple[Word, Word]] = [((), ())]
    ids = {table[0]: 0}
    tokens, split = [0], [False]
    interned = 0
    span = len(words)
    area = span * span
    steps: dict[int, int] = {}  # d * area + w -> the next delay

    def step(d: int, w: int) -> int:
        nonlocal interned
        w1, w2 = divmod(w, span)
        u, v = table[d]
        u, v = u + words[w1], v + words[w2]
        if u and v:
            u, v = _strip_common_prefix(u, v)
        nxt = ids.get((u, v))
        if nxt is None:
            interned += len(u) + len(v)
            if interned > STATE_CAP:
                raise ResourceLimitError(too_large)
            nxt = ids[u, v] = len(table)
            table.append((u, v))
            tokens.append(len(u) + len(v))
            split.append(bool(u and v))
        steps[d * area + w] = nxt
        return nxt

    for pair in order:
        d = delays[pair]
        key = d * area
        for tok, base, edges in successors(pair, spend):
            for w, offset, final in edges:
                nxt = base + offset
                if nxt in dead:  # no delay there can matter
                    delay = 0
                elif w:
                    delay = steps.get(key + w)
                    if delay is None:
                        delay = step(d, w)
                    if split[delay]:
                        z = continuation(nxt, final)
                        if z is not None:
                            return [_word_to(parents, pair) + (tok,) + z], len(order)
                else:
                    delay = d
                if delay and final:
                    return [_word_to(parents, pair) + (tok,)], len(order)
                seen = delays.get(nxt)
                if seen is None:
                    held += 1 + tokens[delay]
                    if held > STATE_CAP:
                        raise ResourceLimitError(too_large)
                    delays[nxt] = delay
                    parents[nxt] = (pair, tok)
                    order.append(nxt)
                elif seen != delay and nxt not in dead:
                    z = continuation(nxt, final)
                    if z is not None:
                        words_found = [_word_to(parents, pair) + (tok,) + z,
                                       _word_to(parents, nxt) + z]
                        return words_found, len(order)
    return [], len(order)


def _letter_product(x: LetterMachine, y: LetterMachine) -> Product:
    """The product of two letter machines as ``_delay_search`` reads it:
    pair ``p * y.state_count + q``, and every two arcs with one letter from
    ``p`` and ``q`` an edge, in ``x``'s letter order and then each machine's
    arc order. The start pairs are the pairs of initial states."""
    index: dict[Word, int] = {(): 0}

    def interned(m: LetterMachine):
        return {p: {tok: [(index.setdefault(out, len(index)), t) for out, t in arcs]
                    for tok, arcs in letters.items()}
                for p, letters in m.arcs.items()}

    xarcs = interned(x)
    yarcs = xarcs if y is x else interned(y)
    width, span, xfinal, yfinal = y.state_count, len(index), x.final, y.final

    def successors(pair: int, spend: Callable[[int], None]):
        p, q = divmod(pair, width)
        xout = xarcs.get(p)
        yout = xout and yarcs.get(q)
        if not yout:
            return
        for tok, left in xout.items():
            right = yout.get(tok)
            if right:
                spend(len(left) * len(right))
                yield tok, 0, [(w1 * span + w2, t1 * width + t2, t1 in xfinal and t2 in yfinal)
                               for w1, t1 in left for w2, t2 in right]

    starts = (p * width + q for p in sorted(set(x.initial)) for q in sorted(set(y.initial)))
    return starts, successors, tuple(index)


def check_functional(t: Transducer) -> FunctionalityReport:
    """Exact functionality test: the delay search over the machine squared.

    A letter-input machine is functional exactly when no two of its
    accepting paths read one word and emit different outputs. The word the
    search reports is checked with ``relation`` before it is returned. Caps
    as in ``_delay_search``. The report is computed once per machine.
    """
    return t._functionality


def _subsets(m) -> tuple[Hashable, Callable[[Hashable, str], Hashable],
                        Callable[[Hashable], bool], Word | None]:
    """The subset automaton of ``m``, a letter-input transducer or a
    bimachine: its start subset, its step on a letter, whether a subset
    accepts, and the output at the empty word.

    A transducer's subset is the set of states a prefix reaches. A
    bimachine's is ``(l, rs)``: the left state the prefix reaches, and the
    right states ``r`` (guesses of the suffix behind it) at which the
    prefix's outputs are all defined. It is stepped straight from the psi
    rows: on letter ``a`` from left state ``l``, ``r'`` stays when ``psi(l,
    a, r')`` is defined and ``δR(r', a)`` is in ``rs``. A prefix is in the
    domain when ``R.start`` is in ``rs``. Every empty subset is one state.
    """
    if isinstance(m, Transducer):
        arcs, final = m._letter_arcs, m.final

        def step(subset: frozenset[int], tok: str) -> frozenset[int]:
            return frozenset(d for q in subset for _, d in arcs.get((q, tok), ()))

        empty = () if m.initial & final else None
        return frozenset(m.initial), step, lambda subset: not subset.isdisjoint(final), empty
    symbols, right = m.input_alphabet.symbols, m.right
    letters, position = len(symbols), {tok: pos for pos, tok in enumerate(symbols)}
    row_of, left_delta = m.psi.row_of, m.left.delta
    defined = [[r for r, _ in row] for row in m.psi.defined_cells()]
    into = [[row[c] for row in right.delta] for c in map(right.alphabet.index, symbols)]
    nowhere = (-1, frozenset())

    def row_step(subset: tuple[int, frozenset[int]], tok: str) -> tuple[int, frozenset[int]]:
        l, rs = subset
        if rs:
            pos = position[tok]
            i = row_of[l * letters + pos]
            if i >= 0:
                to = into[pos]
                rs = frozenset(r for r in defined[i] if to[r] in rs)
                if rs:
                    return left_delta[l][pos], rs
        return nowhere

    start = (m.left.start, frozenset(range(right.state_count)))
    return start, row_step, lambda subset: right.start in subset[1], m.empty_word_output


def _domain_difference(x, y) -> Word | None:
    """The length-lex least word on which exactly one machine is defined, or
    the empty word when the two disagree there. Runs the subset automata of
    both machines (``_subsets``) side by side, breadth-first in alphabet
    order."""
    (xstart, xstep, xaccepts, xempty), (ystart, ystep, yaccepts, yempty) = _subsets(x), _subsets(y)
    if xempty != yempty:
        return ()

    def step(state, tok: str):
        sx, sy = (xstart, ystart) if state is None else state
        return xstep(sx, tok), ystep(sy, tok)

    # A start of its own keeps the empty word, which the subset automata do
    # not read, apart from every word that returns to the start subsets.
    dfa, states = explore(x.input_alphabet, None, step)
    for target in range(1, dfa.state_count):
        sx, sy = states[target]
        if xaccepts(sx) != yaccepts(sy):
            # Breadth-first: the first (state, letter) leading to a state
            # is its parent.
            parent: dict[int, tuple[int, str]] = {}
            for src, row in enumerate(dfa.delta):
                for tok, dst in zip(dfa.alphabet.symbols, row):
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
    """The pairs of a right state and a transducer state that fit, where one
    of ``x`` and ``y`` is a bimachine and the other a letter-input
    transducer: ``(xmod, ymod, fits)``, where the states of ``x``'s kind
    (right states or transducer states) number ``xmod``, those of ``y``'s
    kind ``ymod``, and ``fits[s]`` holds the ``y``-kind states that fit
    ``x``-kind state ``s``. ``_row_product`` enters only pairs that fit.
    None when the fitting pairs number more than STATE_CAP: the search then
    runs unpruned, with every pair fitting.

    A bimachine state ``(l, r)``, a left state with a guessed right state,
    accepts only suffixes whose reversal takes its right automaton R to
    ``r``, and a transducer state ``q`` only suffixes it can read to
    acceptance. They fit when one suffix does both, which is when ``(r, q)``
    is reached from ``(R.start, f)``, ``f`` final, by reading the suffix
    backwards: R steps forward on each letter while the transducer steps
    back along an arc that reads it. The ``q`` that fit an ``r`` are the
    union of the co-accessible subsets (``construct.build_right_automaton``)
    that R meets in ``r``, but they are found without that subset
    construction, in at most ``|R| * |Q|`` pairs.
    """
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


class _Everything:
    """The fit when every pair fits: it holds every state, and so does each
    of its items. It takes no room, however many states there are."""

    def __contains__(self, item) -> bool:
        return True

    def __getitem__(self, item) -> _Everything:
        return self


def _row_product(x, y, fit: tuple[int, int, list[set[int]]] | None) -> Product:
    """The product of a bimachine and a letter-input transducer, one of them
    ``x`` and the other ``y``, as ``_delay_search`` reads it, straight from
    the bimachine's psi rows; ``fit`` is ``_suffix_filter(x, y)``, and None
    lets every pair fit.

    A bimachine state is ``(l, r)``: left state ``l``, and right state
    ``r`` guessed for the unread suffix. Its id is ``l * |R| + r``, and a
    pair's id is ``s * |y| + q`` with the bimachine first, ``q * |x| + s``
    with the transducer first. On letter ``a`` the bimachine steps to
    ``(δL(l, a), r')`` for each ``r'`` with ``δR(r', a) = r`` where ``psi(l,
    a, r')`` is defined, and emits that output. Every ``(L.start, r)``
    starts and every ``(l, R.start)`` is final. Only pairs whose right
    state and transducer state fit are started or entered. Once the domains
    are equal, a reached pair that fits is live (it can reach a final
    pair), so no wrong guess of the suffix needs to be trimmed first.

    A pair's edges on a letter depend only on its psi row, the letter,
    ``r`` and the transducer state, up to the base that ``δL(l, a)`` adds to
    their targets, so each such group is built once. It pairs the
    bimachine's arcs, in (output, target) order, with the transducer's, in
    its own order, the arcs of ``x`` outside, and keeps the pairs whose
    targets fit. Arcs into a right state or a transducer state that fits
    nothing are dropped before the pairing. Building a group spends the arc
    pairs it scans, at least 1; walking it spends its edges.
    """
    b, t = (x, y) if isinstance(x, Bimachine) else (y, x)
    bimachine_first = b is x
    if fit is None:
        fits = fitting_r = fitting_q = _Everything()
    else:
        fits = fit[2]
        held, union = {s for s, fitting in enumerate(fits) if fitting}, set().union(*fits)
        fitting_r, fitting_q = (held, union) if bimachine_first else (union, held)
    psi, right, left_delta = b.psi, b.right, b.left.delta
    symbols = b.input_alphabet.symbols
    letters, width, count = len(symbols), right.state_count, t.state_count
    states = b.left.state_count * width
    row_of, rows, rstart, tfinal = psi.row_of, psi.rows, right.start, t.final

    index: dict[Word, int] = {(): 0}
    ids = [index.setdefault(w, len(index)) for w in psi.words]
    # A bimachine arc sorts by (output, target), which is rank * |R| + r'.
    keyed = [0] * len(psi.words)
    for k, v in enumerate(sorted(range(len(psi.words)), key=psi.words.__getitem__)):
        keyed[v] = k * width
    # tarcs[q]: (letter position, letter, arcs) for each letter q reads,
    # in alphabet order; an arc is (output id, target).
    position = {tok: pos for pos, tok in enumerate(symbols)}
    tarcs: list[list[tuple[int, str, list[tuple[int, int]]]]] = [[] for _ in range(count)]
    for (q, tok), arcs in t._letter_arcs.items():
        own = [(index.setdefault(out, len(index)), d) for out, d in arcs if d in fitting_q]
        if own:
            tarcs[q].append((position[tok], tok, own))
    for by_letter in tarcs:
        by_letter.sort()
    span = len(index)

    # sources[pos][r]: the r' with δR(r', a) = r that fit, ascending.
    sources: list[list[list[int]]] = []
    for c in map(right.alphabet.index, symbols):
        by_target: list[list[int]] = [[] for _ in range(width)]
        for r2, row in enumerate(right.delta):
            if r2 in fitting_r:
                by_target[row[c]].append(r2)
        sources.append(by_target)
    barcs: dict[int, list[tuple[int, int]]] = {}
    groups: dict[int, list[tuple[int, int, bool]]] = {}

    def bimachine_arcs(i: int, pos: int, r: int) -> list[tuple[int, int]]:
        """The (output id, r') arcs of row ``i`` on letter ``pos`` from right
        state ``r``, in (output, target) order."""
        key = (i * letters + pos) * width + r
        arcs = barcs.get(key)
        if arcs is None:
            base = i * width
            found = sorted((keyed[v] + r2, v) for r2 in sources[pos][r]
                           for v in (rows[base + r2],) if v >= 0)
            arcs = barcs[key] = [(ids[v], k % width) for k, v in found]
        return arcs

    def build(i: int, pos: int, r: int, own: list[tuple[int, int]],
              spend: Callable[[int], None]) -> list[tuple[int, int, bool]]:
        arcs = bimachine_arcs(i, pos, r)
        spend(max(1, len(arcs) * len(own)))
        if bimachine_first:
            return [(w1 * span + w2, r2 * count + t2, r2 == rstart and t2 in tfinal)
                    for w1, r2 in arcs for fitting in (fits[r2],)
                    for w2, t2 in own if t2 in fitting]
        return [(w1 * span + w2, t1 * states + r2, r2 == rstart and t1 in tfinal)
                for w1, t1 in own for fitting in (fits[t1],)
                for w2, r2 in arcs if r2 in fitting]

    scale = width * count if bimachine_first else width

    def successors(pair: int, spend: Callable[[int], None]):
        if bimachine_first:
            s, q = divmod(pair, count)
        else:
            q, s = divmod(pair, states)
        l, r = divmod(s, width)
        slot, to = l * letters, left_delta[l]
        for pos, tok, own in tarcs[q]:
            i = row_of[slot + pos]
            if i < 0:
                continue
            key = ((i * letters + pos) * width + r) * count + q
            group = groups.get(key)
            if group is None:
                group = groups[key] = build(i, pos, r, own, spend)
            if group:
                spend(len(group))
                yield tok, to[pos] * scale, group

    lstart = b.left.start * width
    initial = sorted(t.initial)
    # Lazy: with every pair fitting there may be far more than the search
    # takes before it refuses.
    if bimachine_first:
        starts = ((lstart + r) * count + q for r in range(width) for q in initial
                  if q in fits[r])
    else:
        starts = (q * states + lstart + r for q in initial for r in range(width)
                  if r in fits[q])
    return starts, successors, tuple(index)


def _paired_row_product(x: Bimachine, y: Bimachine) -> Product:
    """The product of two bimachines as ``_delay_search`` reads it,
    straight from their psi rows.

    Both machines guess the right state of the unread suffix, and they guess
    it together: the right pairs ``J`` are the pairs ``(r1, r2)`` that R1 and
    R2 reach together from ``(R1.start, R2.start)``, read as one automaton.
    Every right pair is reachable, so no guess is filtered. A pair is ``(l1,
    l2, j)``, with id ``(l1 * |L2| + l2) * |J| + j``. The start pairs are
    ``(L1.start, L2.start, j)`` for every ``j``, and a pair is final when
    ``j`` is J's start. On letter ``a`` the pair steps to ``(δL1(l1, a),
    δL2(l2, a), j')`` for each ``j'`` with ``δJ(j', a) = j`` where both psi
    cells at ``j'`` are defined, in ascending ``j'``, and emits them. So each
    path of one machine meets only the other's path on the same word.

    A pair's edges on a letter depend only on its two psi rows, the letter
    and ``j``, up to the base that its left states add to their targets, so
    each such group is built once. Building a group spends the right pairs
    it scans, at least 1; walking it spends its edges. Raises
    ResourceLimitError when R1 and R2 reach more than STATE_CAP right pairs.
    """
    alphabet, (right1, right2) = x.input_alphabet, (x.right, y.right)
    rights, right_pairs = explore(alphabet, (right1.start, right2.start),
                                  lambda j, tok: (right1.step(j[0], tok), right2.step(j[1], tok)))
    size, symbols = rights.state_count, alphabet.symbols
    letters, count = len(symbols), y.left.state_count
    # sources[pos][j]: the j' with δJ(j', a) = j, ascending.
    sources: list[list[list[int]]] = [[[] for _ in range(size)] for _ in symbols]
    for j2, row in enumerate(rights.delta):
        for by_target, j in zip(sources, row):
            by_target[j].append(j2)
    index: dict[Word, int] = {(): 0}
    ids1, ids2 = ([index.setdefault(w, len(index)) for w in m.psi.words] for m in (x, y))
    span = len(index)
    rows1, rows2, width1, width2 = x.psi.rows, y.psi.rows, right1.state_count, right2.state_count
    row_of1, row_of2, distinct = x.psi.row_of, y.psi.row_of, y.psi.distinct
    left1, left2 = x.left.delta, y.left.delta
    groups: dict[int, list[tuple[int, int, bool]]] = {}

    def build(i1: int, i2: int, pos: int, j: int,
              spend: Callable[[int], None]) -> list[tuple[int, int, bool]]:
        found = sources[pos][j]
        spend(max(1, len(found)))
        base1, base2 = i1 * width1, i2 * width2
        return [(ids1[v1] * span + ids2[v2], j2, j2 == 0) for j2 in found
                for r1, r2 in (right_pairs[j2],)
                for v1, v2 in ((rows1[base1 + r1], rows2[base2 + r2]),)
                if v1 >= 0 and v2 >= 0]

    def successors(pair: int, spend: Callable[[int], None]):
        lefts, j = divmod(pair, size)
        l1, l2 = divmod(lefts, count)
        slot1, slot2, to1, to2 = l1 * letters, l2 * letters, left1[l1], left2[l2]
        for pos, tok in enumerate(symbols):
            i1, i2 = row_of1[slot1 + pos], row_of2[slot2 + pos]
            if i1 < 0 or i2 < 0:
                continue
            key = ((i1 * distinct + i2) * letters + pos) * size + j
            group = groups.get(key)
            if group is None:
                group = groups[key] = build(i1, i2, pos, j, spend)
            if group:
                spend(len(group))
                yield tok, (to1[pos] * count + to2[pos]) * size, group

    start = (x.left.start * count + y.left.start) * size
    return range(start, start + size), successors, tuple(index)


def _compare(x, y) -> tuple[Word | None, int]:
    """``equivalent``, together with the number of product pairs its delay
    search reached before it stopped (0 when the domains already differ).
    ``bimlab equiv`` prints that number when the machines are equivalent."""
    lx, ly = _letter_input(x), _letter_input(y)
    if lx.input_alphabet.symbols != ly.input_alphabet.symbols:
        raise ValueError("machines have different input alphabets")
    word = _domain_difference(lx, ly)
    if word is not None:
        words, pairs = [word], 0
    else:
        if isinstance(x, Bimachine) and isinstance(y, Bimachine):
            product = _paired_row_product(x, y)
        elif isinstance(x, Bimachine) or isinstance(y, Bimachine):
            product = _row_product(lx, ly, _suffix_filter(lx, ly))
        else:
            product = _letter_product(lx.letter_machine(), ly.letter_machine())
        starts, successors, outputs = product
        words, pairs = _delay_search(starts, successors, "equivalence check", outputs)
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

    Two checks run. The domains are compared first, by the two machines'
    subset automata side by side (a bimachine's is stepped straight from
    its psi rows, ``_subsets``), and a difference there yields the
    length-lex least word (in ``x``'s alphabet order) on which exactly one
    machine is defined. On the common domain the delay search then pairs
    each accepting path of ``x`` with each of ``y`` on the same word; a word
    it yields comes from its breadth-first search trees and need not be the
    least. A bimachine enters that search straight from its psi rows. Two
    bimachines guess the right states of the suffix together
    (``_paired_row_product``). A bimachine meets a transducer only in pairs
    of states that can accept a common suffix (``_row_product`` and
    ``_suffix_filter``); when more than STATE_CAP pairs fit, the search runs
    with every pair fitting. Every returned word is checked with both
    machines' ``evaluate``.

    A transducer with epsilon inputs is compared through
    ``trim(remove_input_epsilons(...))``, which raises PreconditionError when
    the empty word maps to a nonempty output. A transducer that is not
    functional may make ``evaluate`` raise NonFunctionalError. Raises
    ValueError when the input alphabets differ and ResourceLimitError past
    the caps of ``_delay_search`` and ``explore``.
    """
    return _compare(x, y)[0]
