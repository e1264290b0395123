"""Nondeterministic word transducers.

Arcs carry a single input letter (or epsilon) and an output word; the machine
recognizes a relation between input and output words via accepting paths. The
module provides relation/function evaluation, epsilon-input removal, trimming,
and one delay search, a single forward pass over a product of two machines,
which runs both the exact functionality test and the exact equivalence test.
One function builds every product (``_product``): it reads each machine,
a letter-input transducer or a bimachine straight from its psi rows,
through one view (``_view``), and enters only pairs of states that can
accept a common suffix (``_suffix_filter``). The equivalence test's
domain check reads the same view: its subset automaton, a bimachine's
stepped straight from its psi rows.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Collection, Container, Hashable, Iterable, NamedTuple, Sequence

from .errors import (
    ConsistencyError,
    DivergingRelationError,
    NonFunctionalError,
    PreconditionError,
    ResourceLimitError,
)
from .bimachine import Bimachine
from .fsm import EDGE_CAP, STATE_CAP, Alphabet, Frozen, Nfa, Word, explore


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


class Transducer(Frozen):
    _fields = ("input_alphabet", "output_alphabet", "state_count", "initial", "final", "arcs")

    def __init__(self, input_alphabet: Alphabet, output_alphabet: Alphabet, state_count: int,
                 initial: Iterable[int], final: Iterable[int], arcs: Iterable[Sequence]):
        if state_count > STATE_CAP:
            raise ResourceLimitError(f"{state_count} states exceed the cap of {STATE_CAP}")
        initial, final = frozenset(initial), frozenset(final)
        arcs = tuple(sorted({Arc(a[0], a[1], tuple(a[2]), a[3]) for a in arcs}, key=arc_key))
        for q in (*initial, *final):
            if not 0 <= q < state_count:
                raise ValueError(f"state {q} out of range")
        for arc in arcs:
            if not (0 <= arc.src < state_count and 0 <= arc.dst < state_count):
                raise ValueError(f"arc {arc} out of range")
            if arc.inp is not None:
                input_alphabet.index(arc.inp)
            for tok in arc.out:
                output_alphabet.index(tok)
        self.__dict__.update(input_alphabet=input_alphabet, output_alphabet=output_alphabet,
                             state_count=state_count, initial=initial, final=final, arcs=arcs)

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
    def _functionality(self) -> FunctionalityReport:
        """What ``check_functional`` reports."""
        if self.has_input_epsilons:
            raise PreconditionError("the product searches need a letter-input machine")
        view = _view(self)
        starts, successors, outputs = _product(view, view)
        del view  # the search does not read it: free it before the search grows
        words, _ = _delay_search(starts, successors, "functionality check", outputs)
        if not words:
            return FunctionalityReport(True)
        for word in words:
            outputs = self.relation(word)
            if len(outputs) >= 2:
                return FunctionalityReport(False, word, (outputs[0], outputs[1]))
        raise ConsistencyError("conflicting delays without a witness")

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


class FunctionalityReport(NamedTuple):
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
    """The letters along the ``parents`` links from a root to ``pair``. The
    links are a breadth-first search's: each node's first (parent, letter),
    None at a root."""
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
    pairs, only the two outstanding outputs with their common prefix
    cancelled (the delay). A final pair reached with a nonzero delay
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

    The pass keeps no parents, so a witness's words are rebuilt: a second
    walk of the pass's queue from the start pairs records each pair's first
    (parent, letter), in the order the pass reached it, and stops once the
    pairs the words lead to have one. The words are those of the pass's
    breadth-first tree. The walk asks ``successors`` only for groups the
    pass walked, so it builds none and takes no more steps than the pass
    did; it spends nothing.

    Delays are interned: each distinct delay gets a small integer, and the
    step from a delay over an edge's two outputs to the next delay (or a
    conflict) is computed once and remembered. No edge is stored here; the
    continuation searches ask ``successors`` again.

    The cap is one rule, the same for every alphabet. The search holds at
    most STATE_CAP pairs, each with only the id of its delay, and its
    distinct delays hold at most STATE_CAP tokens; a rebuild adds a link
    for each pair it meets, at most one per pair held. The pass and the
    continuation searches together examine at most EDGE_CAP arc pairs: an
    arc pair counts when ``successors`` scans it to build a group of edges
    (a group counts at least 1), and an edge counts each time it is walked.
    The start pairs are counted as they are taken, each pair and each
    distinct delay before it is stored, and each group before it is
    scanned. More raise ResourceLimitError. So on an untrusted file the
    search takes at most EDGE_CAP steps over arc pairs, besides one look at
    each letter of each reached pair (at most STATE_CAP of them) and, for a
    bimachine, one pass over each psi row's cells per letter it is read on.
    Every product of ``_product`` spends by this rule, two transducers too.
    The largest product of the experiment grid, reduced (3,4) handcrafted
    against its transducer, holds 7,277 pairs and examines 46,122 arc
    pairs: 4,530 to build 1,377 groups and 41,592 edges walked (20,509
    pairs with every pair fitting). Raw (3,4) handcrafted against the same
    transducer examines 63,132 in 7,493 pairs. The functionality check of
    the (3,4) transducer holds 23 pairs and examines 228 arc pairs: 144 to
    build its groups and 84 edges walked.
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
    roots = len(order)
    delays: dict[int, int] = dict.fromkeys(order, 0)

    def nothing(n: int) -> None:
        """The rebuild's spend: the pass paid for every group it walks."""

    def links(*targets: int) -> dict[int, tuple[int, str] | None]:
        """The pass's (parent, letter) links, walked again up to the first
        point where every one of ``targets``, pairs it reached, has one."""
        back: dict[int, tuple[int, str] | None] = dict.fromkeys(order[:roots])
        missing = set(targets).difference(back)
        for pair in order:
            if not missing:
                break
            for tok, base, edges in successors(pair, nothing):
                for _, offset, _ in edges:
                    nxt = base + offset
                    if nxt not in back:
                        back[nxt] = (pair, tok)
                        missing.discard(nxt)
                if not missing:
                    break
        return back

    # Delay d is table[d]; 0 is the empty delay. split[d] tells a conflict:
    # both sides outstanding.
    table: list[tuple[Word, Word]] = [((), ())]
    ids = {table[0]: 0}
    split = [False]
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
            split.append(bool(u and v))
        steps[d * area + w] = nxt
        return nxt

    for pair in order:
        d = delays[pair]
        key = d * area
        for tok, base, edges in successors(pair, spend):
            for w, offset, final in edges:
                nxt = base + offset
                if dead and nxt in dead:  # no delay there can matter
                    delay = 0
                elif w:
                    delay = steps.get(key + w)
                    if delay is None:
                        delay = step(d, w)
                    if split[delay]:
                        z = continuation(nxt, final)
                        if z is not None:
                            return [_word_to(links(pair), pair) + (tok,) + z], len(order)
                else:
                    delay = d
                if delay and final:
                    return [_word_to(links(pair), pair) + (tok,)], len(order)
                seen = delays.get(nxt)
                if seen is None:
                    if len(order) >= STATE_CAP:
                        raise ResourceLimitError(too_large)
                    delays[nxt] = delay
                    order.append(nxt)
                elif seen != delay and nxt not in dead:
                    z = continuation(nxt, final)
                    if z is not None:
                        back = links(pair, nxt)
                        found = [_word_to(back, pair) + (tok,) + z, _word_to(back, nxt) + z]
                        return found, len(order)
    return [], len(order)


def check_functional(t: Transducer) -> FunctionalityReport:
    """Exact functionality test: the delay search over the machine squared.

    A letter-input machine is functional exactly when no two of its
    accepting paths read one word and emit different outputs. The word the
    search reports is checked with ``relation`` before it is returned, and
    ConsistencyError is raised when none shows two outputs. Caps as in
    ``_delay_search``. The report is computed once per machine.
    """
    return t._functionality


def _domain_difference(vx: _View, vy: _View) -> Word | None:
    """The length-lex least word on which exactly one of two machines is
    defined, or the empty word when the two disagree there. Runs the subset
    automata of both (``_View.subsets``) side by side, breadth-first in
    alphabet order. Each view remembers its subset steps, so a step that
    several subset pairs share is computed once; the order of the search,
    and so the word, are those of the plain steps."""
    (xstart, xstep, xaccepts, xempty), (ystart, ystep, yaccepts, yempty) = vx.subsets, vy.subsets
    if xempty != yempty:
        return ()

    def step(state, tok: str):
        sx, sy = (xstart, ystart) if state is None else state
        return xstep(sx, tok), ystep(sy, tok)

    # A start of its own keeps the empty word, which the subset automata do
    # not read, apart from every word that returns to the start subsets.
    dfa, states = explore(vx.alphabet, None, step)
    for target in range(1, dfa.state_count):
        sx, sy = states[target]
        if xaccepts(sx) != yaccepts(sy):
            # Breadth-first: the first (state, letter) leading to a state
            # is its parent.
            parent: dict[int, tuple[int, str] | None] = {0: None}
            for src, row in enumerate(dfa.delta):
                for tok, dst in zip(dfa.alphabet.symbols, row):
                    parent.setdefault(dst, (src, tok))
            return _word_to(parent, target)
    return None


def _letter_input(machine):
    """``machine``, or the letter-input transducer compared in its place."""
    if isinstance(machine, Transducer) and machine.has_input_epsilons:
        return trim(remove_input_epsilons(machine))
    return machine


def _row_arcs(m: Bimachine, steps: list[tuple[int, ...]], index: dict[Word, int],
              fitting: Container[int]) -> Callable[[int, int], list[tuple[int, int]]]:
    """``arcs(key, pos)``, the arcs of bimachine ``m`` on its ``pos``-th
    letter a from psi row ``i`` and right state ``r``, where ``key = i * |R|
    + r``: ``(output id, r')`` for each ``r'`` in ``fitting`` with ``δR(r',
    a) = r`` where the row's cell at ``r'`` is defined, in (output, r')
    order. ``steps[pos][r']`` is ``δR(r', a)``. ``index`` gives the output
    ids, and ``m``'s words are added to it first. Each list is built once."""
    psi, width, letters = m.psi, m.right.state_count, len(m.input_alphabet)
    rows, words = psi.rows, psi.words
    ids = [index.setdefault(w, len(index)) for w in words]
    # An arc sorts by (output, target), which is rank * |R| + r'.
    keyed = [0] * len(words)
    for k, v in enumerate(sorted(range(len(words)), key=words.__getitem__)):
        keyed[v] = k * width
    # sources[pos][r]: the r' with δR(r', a) = r that fit, ascending.
    sources: list[list[list[int]]] = []
    for to in steps:
        by_target: list[list[int]] = [[] for _ in range(width)]
        for r2, r in enumerate(to):
            if r2 in fitting:
                by_target[r].append(r2)
        sources.append(by_target)
    built: dict[int, list[tuple[int, int]]] = {}

    def arcs(key: int, pos: int) -> list[tuple[int, int]]:
        slot = key * letters + pos
        found = built.get(slot)
        if found is None:
            i, r = divmod(key, width)
            base = i * width
            ranked = sorted([(keyed[v] + r2, v) for r2 in sources[pos][r]
                             for v in (rows[base + r2],) if v >= 0])
            found = built[slot] = [(ids[v], k % width) for k, v in ranked]
        return found

    return arcs


# What ``_product`` finds in a unit's moves: letter position, letter, head
# and base.
Units = list[list[tuple[int, str, int, int]]]


class _View(NamedTuple):
    """A machine as ``_product`` reads it, a letter-input transducer or a
    bimachine, by the states' classes.

    State ``q`` is in unit ``q // width``. Its class is its guess of the
    unread suffix: a transducer state is its own unit and its own class, and
    bimachine state ``(l, r)``, id ``l * |R| + r``, is in unit ``l`` with
    class ``r``. ``initial`` holds the (state, class) of each start state,
    each of a class of its own, ``final`` the classes of final states, and
    ``before[c]`` maps the position of each letter on which a state of
    class ``c`` is entered to the classes ``c'`` such that a state of class
    ``c'`` steps on that letter to one of class ``c``. ``alphabet`` is the
    machine's input alphabet.

    ``moves(index, fitting)`` gives ``(units, arcs)``, with output ids from
    ``index`` and only targets whose class is in ``fitting``. ``units[u]``
    lists the letters unit ``u`` reads, in alphabet order, as ``(pos,
    letter, head, base)``. The arcs of state ``q`` on that letter are
    ``arcs(base + q, pos)``, as ``(output id, class)`` in (output, class)
    order, and the arc to class ``c`` leads to state ``head + c``. Every
    key ``base + q`` is below ``keys``.

    ``subsets`` is the machine's subset automaton: its start subset, its
    step on a letter, whether a subset accepts, and the output at the empty
    word. A transducer's subset is the set of states a prefix reaches. A
    bimachine's is ``(l, rs)``: the left state the prefix reaches, and the
    right states ``r`` (guesses of the suffix behind it) at which the
    prefix's outputs are all defined. It is stepped straight from the psi
    rows: on letter ``a`` from left state ``l``, ``r'`` stays when ``psi(l,
    a, r')`` is defined and ``δR(r', a)`` is in ``rs``. A prefix is in the
    domain when ``R.start`` is in ``rs``. Every empty subset is one state.
    The view remembers each step for its life: a transducer's under
    (subset, letter), a bimachine's right states under (row index, letter,
    ``rs``), since the row and the letter's column of R are all the step
    reads besides ``rs``.

    ``reads[u]``, for a bimachine, numbers unit ``u``'s psi row index per
    letter: units with one number read every letter through the same rows.
    None for a transducer.
    """

    alphabet: Alphabet
    width: int
    count: int
    keys: int
    initial: list[tuple[int, int]]
    final: Collection[int]
    before: list[dict[int, Collection[int]]]
    moves: Callable[[dict[Word, int], Container[int]],
                    tuple[Units, Callable[[int, int], list[tuple[int, int]]]]]
    subsets: tuple[Hashable, Callable[[Hashable, str], Hashable], Callable[[Hashable], bool],
                   Word | None]
    reads: list[int] | None


def _view(m) -> _View:
    """The view of ``m``, a letter-input transducer or a bimachine."""
    alphabet = m.input_alphabet
    symbols = alphabet.symbols
    letters, position = len(symbols), {tok: pos for pos, tok in enumerate(symbols)}
    if isinstance(m, Bimachine):
        right, width, row_of, left_delta = m.right, m.right.state_count, m.psi.row_of, m.left.delta
        units = [[(pos, tok, to[pos] * width, (i - l) * width)
                  for pos, tok in enumerate(symbols) for i in (row_of[l * letters + pos],)
                  if i >= 0] for l, to in enumerate(left_delta)]
        read: dict[bytes, int] = {}
        reads = [read.setdefault(row_of[l * letters:(l + 1) * letters].tobytes(), len(read))
                 for l in range(m.left.state_count)]
        # steps[pos][r]: where R steps from r on the pos-th letter, the
        # pos-th column of R's table (both sides share the input alphabet).
        steps = list(zip(*right.delta))
        defined = [[r for r, _ in row] for row in m.psi.defined_cells()]
        nowhere = (-1, frozenset())
        # (row * letters + pos, rs) -> rs': the step reads no left state.
        stepped: dict[tuple[int, frozenset[int]], frozenset[int]] = {}

        def row_step(subset: tuple[int, frozenset[int]], tok: str) -> tuple[int, frozenset[int]]:
            l, rs = subset
            if rs:
                pos = position[tok]
                i = row_of[l * letters + pos]
                if i >= 0:
                    key = (i * letters + pos, rs)
                    found = stepped.get(key)
                    if found is None:
                        to = steps[pos]
                        found = stepped[key] = frozenset(r for r in defined[i] if to[r] in rs)
                    if found:
                        return left_delta[l][pos], found
            return nowhere

        return _View(alphabet, width, m.left.state_count * width, m.psi.distinct * width,
                     [(m.left.start * width + r, r) for r in range(width)], (right.start,),
                     [{pos: (to[c],) for pos, to in enumerate(steps)} for c in range(width)],
                     lambda index, fitting: (units, _row_arcs(m, steps, index, fitting)),
                     ((m.left.start, frozenset(range(width))), row_step,
                      lambda subset: right.start in subset[1], m.empty_word_output), reads)
    arcs, final = m._letter_arcs, m.final
    before: list[dict[int, set[int]]] = [{} for _ in range(m.state_count)]
    for arc in m.arcs:
        before[arc.dst].setdefault(position[arc.inp], set()).add(arc.src)

    def moves(index: dict[Word, int], fitting: Container[int]):
        units: Units = [[] for _ in range(m.state_count)]
        table: dict[int, list[tuple[int, int]]] = {}
        for (q, tok), pairs in arcs.items():
            own = [(index.setdefault(out, len(index)), d) for out, d in pairs if d in fitting]
            if own:
                pos = position[tok]
                units[q].append((pos, tok, 0, 0))
                table[q * letters + pos] = own
        for by_letter in units:
            by_letter.sort()
        return units, lambda q, pos: table[q * letters + pos]

    stepped: dict[tuple[frozenset[int], str], frozenset[int]] = {}

    def step(subset: frozenset[int], tok: str) -> frozenset[int]:
        key = (subset, tok)
        found = stepped.get(key)
        if found is None:
            found = stepped[key] = frozenset(d for q in subset for _, d in arcs.get((q, tok), ()))
        return found

    return _View(alphabet, 1, m.state_count, m.state_count, [(q, q) for q in sorted(m.initial)],
                 final, before, moves,
                 (frozenset(m.initial), step, lambda subset: not subset.isdisjoint(final),
                  () if m.initial & final else None), None)


def _suffix_filter(vx: _View, vy: _View) -> dict[int, set[int]] | None:
    """The pairs of classes that fit, as ``fits[c]``: the classes of
    ``vy``'s states that fit class ``c`` of ``vx``'s, for each ``c`` that
    some class fits. ``_product`` enters only pairs that fit. None when the
    search for them would hold too much: the search then runs unpruned,
    with every pair fitting. That is when the pairs of final classes number
    more than STATE_CAP (checked before any is built), when the pairs
    reached do, or when their predecessors may number more than EDGE_CAP
    in all. A pair counts its ``vy`` class's predecessors times the most
    that its ``vx`` class has on one letter: exactly the pairs it steps
    back to when ``vx`` is a bimachine's, at least as many otherwise.

    A state of class ``c`` accepts only suffixes that a state of that class
    can read to acceptance; a bimachine state ``(l, r)`` only suffixes whose
    reversal takes its right automaton R to ``r``. Two classes fit when one
    suffix does both, which is when their pair is reached from a pair of
    final classes by reading the suffix backwards: each side steps back
    (``before``) on the same letter. Two transducer states fit exactly when
    their pair can reach a final pair. Against a transducer, the ``q`` that
    fit a right state ``r`` are the union of the co-accessible subsets
    (``construct.build_right_automaton``) that R meets in ``r``, found
    without that subset construction, in at most ``|R| * |Q|`` pairs.
    Against a second bimachine, the ``r2`` that fit an ``r`` are those that
    R and R2 reach together with it from ``(R.start, R2.start)``.
    """
    if len(vx.final) * len(vy.final) > STATE_CAP:
        return None
    xbefore, count = vx.before, len(vy.before)
    # Per class of y, its (letter, predecessor) pairs; per class of x, the
    # most predecessors it has on one letter.
    yback = [[(pos, p) for pos, ps in into.items() for p in ps] for into in vy.before]
    xwide = [max(map(len, into.values()), default=0) for into in xbefore]
    budget = EDGE_CAP

    def back(node: int) -> list[int]:
        nonlocal budget
        c1, c2 = divmod(node, count)
        steps = yback[c2]
        budget -= xwide[c1] * len(steps)
        if budget < 0:
            raise ResourceLimitError(f"more than {EDGE_CAP} pairs of predecessors")
        into = xbefore[c1]
        return [p1 * count + p2 for pos, p2 in steps for p1 in into.get(pos, ())]

    try:
        pairs = _reachable([f1 * count + f2 for f1 in vx.final for f2 in vy.final], back)
    except ResourceLimitError:
        return None
    fits: dict[int, set[int]] = {}
    for node in pairs:
        c1, c2 = divmod(node, count)
        fits.setdefault(c1, set()).add(c2)
    return fits


class _Everything:
    """The fit when every pair fits: it holds every state, and so does each
    of its items. It takes no room, however many states there are."""

    def __contains__(self, item) -> bool:
        return True

    def __getitem__(self, item) -> _Everything:
        return self


def _product(vx: _View, vy: _View) -> Product:
    """The product of ``x`` and ``y``, each a letter-input transducer or a
    bimachine, as ``_delay_search`` reads it, from their views ``vx`` and
    ``vy``. When the two are one view, its arcs are built once.

    A pair's id is ``s * |y| + q``. A transducer's states are its own. A
    bimachine state is ``(l, r)``: left state ``l``, and right state ``r``
    guessed for the unread suffix. Its id is ``l * |R| + r``. On letter
    ``a`` it steps to ``(δL(l, a), r')`` for each ``r'`` with ``δR(r', a) =
    r`` where ``psi(l, a, r')`` is defined, and emits that output. Every
    ``(L.start, r)`` starts and every ``(l, R.start)`` is final. Only pairs
    whose classes fit (``_suffix_filter``) are started or entered. Once the
    domains are equal, a reached pair that fits is live (it can reach a
    final pair), so no wrong guess of the suffix needs to be trimmed first.

    A pair's edges on a letter depend only on ``x``'s key, ``y``'s key and
    the letter, up to the base that the two heads add to their targets, so
    each such group is built once. It pairs ``x``'s arcs with ``y``'s, each
    in (output, class) order, ``x``'s arcs outside, and keeps the pairs
    whose classes fit. Arcs into a class that fits nothing are dropped
    before the pairing. Building a group spends the arc pairs it scans, at
    least 1; walking it spends its edges.

    When ``x`` is a bimachine, a pair's nonempty groups, in order, depend
    only on ``x``'s row index per letter (``_View.reads``), its right class
    and ``y``'s state, so pairs of one such key share their list of groups;
    each pair adds its own heads. A list is kept only once a walk of it has
    ended, and by then every one of its groups is built. So a later pair of
    that key spends ``len(group)`` for each nonempty group, in order, as it
    would through the groups alone, and builds, ``spend`` calls and cap
    refusals are those of the walk without lists. A transducer's units get
    no list: each is its own state.
    """
    fits = _suffix_filter(vx, vy)
    count, letters = vy.count, len(vx.alphabet)
    if fits is None:
        fits = held = fitting = _Everything()
        # Lazy: there may be far more than the search takes before it refuses.
        starts = (s * count + q for s, _ in vx.initial for q, _ in vy.initial)
    else:
        held, fitting = fits.keys(), set().union(*fits.values())
        # Sorted from the fitting pairs, which are few, not from every pair.
        first = {c: q for q, c in vy.initial}
        starts = sorted(s * count + first[c] for s, c1 in vx.initial
                        for c in fits.get(c1, ()) if c in first)
    index: dict[Word, int] = {(): 0}
    xunits, xarcs = vx.moves(index, held)
    # When y is x, the fit is symmetric, so its classes are the ones held.
    yunits, yarcs = (xunits, xarcs) if vy is vx else vy.moves(index, fitting)
    span, xfinal, yfinal, xwidth, ywidth = len(index), vx.final, vy.final, vx.width, vy.width
    # A group's key is (y key * x keys + x key) * letters + pos.
    stride = vx.keys * letters
    xsteps = [{pos: (head * count, base, base * letters) for pos, _, head, base in unit}
              for unit in xunits]
    ysteps = [[(pos, tok, head, base, base * stride + pos) for pos, tok, head, base in unit]
              for unit in yunits]
    groups: dict[int, list[tuple[int, int, bool]]] = {}
    # Pair s * |y| + q, s = l * |R| + r, shares its list of groups with the
    # pairs of its key, pair + shifts[l] = (reads[l] * |R| + r) * |y| + q.
    shifts = None if vx.reads is None else [(k - l) * xwidth * count
                                            for l, k in enumerate(vx.reads)]
    lists: dict[int, list[tuple[int, str, int, list[tuple[int, int, bool]]]]] = {}

    def build(xkey: int, ykey: int, pos: int,
              spend: Callable[[int], None]) -> list[tuple[int, int, bool]]:
        own, theirs = xarcs(xkey, pos), yarcs(ykey, pos)
        spend(max(1, len(own) * len(theirs)))
        return [(w1 * span + w2, c1 * count + c2, c1 in xfinal and c2 in yfinal)
                for w1, c1 in own for fit in (fits[c1],) for w2, c2 in theirs if c2 in fit]

    def successors(pair: int, spend: Callable[[int], None]):
        # Operators, not divmod: this runs once per pair visit.
        s, q = pair // count, pair % count
        unit = s // xwidth
        xunit = xsteps[unit]
        if shifts is not None:
            key = pair + shifts[unit]
            shared = lists.get(key)
            if shared is not None:
                for pos, tok, yhead, group in shared:
                    spend(len(group))
                    yield tok, xunit[pos][0] + yhead, group
                return
        walked = []
        at = q * stride + s * letters
        for pos, tok, yhead, ybase, yshift in ysteps[q // ywidth]:
            step = xunit.get(pos)
            if step is None:
                continue
            xhead, xbase, xshift = step
            group_key = at + xshift + yshift
            group = groups.get(group_key)
            if group is None:
                group = groups[group_key] = build(xbase + s, ybase + q, pos, spend)
            if group:
                walked.append((pos, tok, yhead, group))
                spend(len(group))
                yield tok, xhead + yhead, group
        if shifts is not None:
            lists[key] = walked  # only a walk that ended is shared

    return starts, successors, tuple(index)


def _compare(x, y) -> tuple[Word | None, int]:
    """``equivalent``, together with the number of product pairs its delay
    search reached before it stopped (0 when the domains already differ).
    ``bimlab equiv`` prints that number when the machines are equivalent."""
    lx, ly = _letter_input(x), _letter_input(y)
    if lx.input_alphabet.symbols != ly.input_alphabet.symbols:
        raise ValueError("machines have different input alphabets")
    if isinstance(ly, Bimachine) and not isinstance(lx, Bimachine):
        lx, ly = ly, lx  # a bimachine goes first
    vx = _view(lx)
    vy = vx if ly is lx else _view(ly)
    word = _domain_difference(vx, vy)
    if word is not None:
        words, pairs = [word], 0
    else:
        starts, successors, outputs = _product(vx, vy)
        del vx, vy  # the search does not read them: free them before it grows
        words, pairs = _delay_search(starts, successors, "equivalence check", outputs)
    for word in words:
        if x.evaluate(word) != y.evaluate(word):
            return word, pairs
    if words:
        raise ConsistencyError("a difference without a witness")
    return None, pairs


def equivalent(x, y) -> Word | None:
    """Exact equivalence of two machines, each a Transducer or a Bimachine:
    None when they compute the same partial function, else a word on which
    they differ.

    Two checks run. The domains are compared first, by the two machines'
    subset automata side by side (a bimachine's is stepped straight from
    its psi rows, ``_View.subsets``), and a difference there yields the
    length-lex least word (in ``x``'s alphabet order) on which exactly one
    machine is defined. On the common domain the delay search then pairs
    each accepting path of ``x`` with each of ``y`` on the same word; a word
    it yields comes from its breadth-first search trees and need not be the
    least. A bimachine enters that search straight from its psi rows, and
    always as the first machine, so ``equivalent(x, y)`` and
    ``equivalent(y, x)`` search alike. The two machines meet only in pairs
    of states that can accept a common suffix (``_product`` and
    ``_suffix_filter``); two bimachines so guess the right states of the
    suffix together, and two transducers' pairs must be able to reach a
    final pair. When the pairs that fit are too many to find, the search
    runs with every pair fitting. Every returned word is checked with both
    machines' ``evaluate``; ConsistencyError is raised when the search finds
    a difference and no word it yields shows one.

    A transducer with epsilon inputs is compared through
    ``trim(remove_input_epsilons(...))``, which raises PreconditionError when
    the empty word maps to a nonempty output. A transducer that is not
    functional may make ``evaluate`` raise NonFunctionalError. Raises
    ValueError when the input alphabets differ and ResourceLimitError past
    the caps of ``_delay_search`` and ``explore``.
    """
    return _compare(x, y)[0]
