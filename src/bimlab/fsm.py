"""Automaton kernel: alphabets, NFAs, total DFAs, the breadth-first
exploration every determinization runs on, subset construction, reversal,
and Moore partition-refinement reduction.

States are dense integer indices and every iteration order is fixed by
(state index, alphabet order), so repeated builds are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

from .errors import PreconditionError, ResourceLimitError, UnknownSymbolError

# A word is a sequence of alphabet tokens.
Word = tuple[str, ...]

# Default bound on the states any one exploration may discover.
STATE_CAP = 10**5

# Bound on the edges (pairs of arcs with one label) one product search may
# examine in all.
EDGE_CAP = 3 * STATE_CAP // 2

# Bound on the cells (left states x letters x right states) of one
# bimachine's output table, checked before the table is allocated.
PSI_CAP = 2**24


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of symbol tokens; the order fixes deterministic iteration.

    Tokens are nonempty and free of whitespace and of the characters the text
    format reserves: a token may not be ``-`` or contain ``.`` or ``#``.
    """

    symbols: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        index: dict[str, int] = {}
        for pos, tok in enumerate(self.symbols):
            # split() == [tok]: nonempty and free of whitespace.
            if tok.split() != [tok] or tok == "-" or "." in tok or "#" in tok:
                raise ValueError(f"invalid symbol token {tok!r}")
            if tok in index:
                raise ValueError(f"duplicate symbol token {tok!r}")
            index[tok] = pos
        object.__setattr__(self, "_index", index)

    def index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise UnknownSymbolError(f"unknown symbol {token!r}") from None

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def indices(self, word: Iterable[str]) -> list[int]:
        """The position of each token of ``word``; raises UnknownSymbolError
        as ``index`` does at the first token outside the alphabet."""
        try:
            return list(map(self._index.__getitem__, word))
        except KeyError as exc:
            raise UnknownSymbolError(f"unknown symbol {exc.args[0]!r}") from None

    def check_word(self, word: Iterable[str]) -> Word:
        word = tuple(word)
        self.indices(word)
        return word


def _nfa_arc_key(arc: tuple[int, str | None, int]):
    src, label, dst = arc
    return (src, label is not None, label or "", dst)


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic automaton; a ``None`` label marks an epsilon arc."""

    alphabet: Alphabet
    state_count: int
    initial: tuple[int, ...]
    final: frozenset[int]
    arcs: tuple[tuple[int, str | None, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "initial", tuple(dict.fromkeys(self.initial)))
        object.__setattr__(self, "final", frozenset(self.final))
        arcs = tuple(sorted({(s, l, d) for (s, l, d) in self.arcs}, key=_nfa_arc_key))
        object.__setattr__(self, "arcs", arcs)
        for q in (*self.initial, *self.final):
            if not 0 <= q < self.state_count:
                raise ValueError(f"state {q} out of range")
        for src, label, dst in arcs:
            if not (0 <= src < self.state_count and 0 <= dst < self.state_count):
                raise ValueError(f"arc ({src},{label},{dst}) out of range")
            if label is not None:
                self.alphabet.index(label)

    @property
    def has_epsilon_arcs(self) -> bool:
        return any(label is None for _, label, _ in self.arcs)


@dataclass(frozen=True)
class Dfa:
    """Total deterministic automaton: ``delta[state][symbol_index]`` is always
    defined (acceptance plays no role here; every state counts as final)."""

    alphabet: Alphabet
    state_count: int
    start: int
    delta: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "delta", tuple(tuple(row) for row in self.delta))
        if self.state_count < 1:
            raise ValueError("a DFA needs at least one state")
        if not 0 <= self.start < self.state_count:
            raise ValueError(f"start state {self.start} out of range")
        if len(self.delta) != self.state_count:
            raise ValueError("delta must have one row per state")
        for q, row in enumerate(self.delta):
            if len(row) != len(self.alphabet):
                raise ValueError(f"delta row of state {q} is not total")
            for t in row:
                if not 0 <= t < self.state_count:
                    raise ValueError(f"delta target {t} out of range")

    def step(self, state: int, token: str) -> int:
        return self.delta[state][self.alphabet.index(token)]

    def run(self, word: Iterable[str], start: int | None = None) -> int:
        """Fold the transition function over ``word`` from the left. A start
        state outside the automaton raises ValueError."""
        state = self.start if start is None else start
        if not 0 <= state < self.state_count:
            raise ValueError(f"start state {state} out of range")
        delta = self.delta
        for i in self.alphabet.indices(word):
            state = delta[state][i]
        return state


def explore(
    alphabet: Alphabet,
    start: Hashable,
    step: Callable[[Hashable, str], Hashable],
    cap: int = STATE_CAP,
    sink: Hashable | None = None,
) -> tuple[Dfa, tuple[Hashable, ...]]:
    """Build the DFA of ``step`` reachable from ``start`` by breadth-first search.

    States are hashable descriptions, numbered in discovery order (start
    first, successors in alphabet order); the returned tuple gives each DFA
    state its description. Discovering more than ``cap`` states raises
    ResourceLimitError. A ``sink`` that was never reached is appended as a
    self-looping last state, so callers can rely on it existing.
    """
    ids: dict[Hashable, int] = {start: 0}
    order: list[Hashable] = [start]
    rows: list[tuple[int, ...]] = []
    for state in order:  # the queue: ``order`` grows while it is walked
        row = []
        for tok in alphabet.symbols:
            target = step(state, tok)
            if target not in ids:
                if len(order) >= cap:
                    raise ResourceLimitError(f"state space exceeded {cap} states")
                ids[target] = len(order)
                order.append(target)
            row.append(ids[target])
        rows.append(tuple(row))
    if sink is not None and sink not in ids:
        rows.append((len(order),) * len(alphabet))
        order.append(sink)
    return Dfa(alphabet, len(order), 0, tuple(rows)), tuple(order)


def subset_construction(nfa: Nfa) -> tuple[Dfa, tuple[frozenset[int], ...]]:
    """Determinize by breadth-first subset expansion.

    The empty subset is always materialized as a sink, so the result is total.
    Subsets are numbered in discovery order (start subset first, successors in
    alphabet order); the returned mapping gives each DFA state its subset.
    """
    if nfa.has_epsilon_arcs:
        raise PreconditionError("subset construction requires an epsilon-free NFA")
    successors: dict[tuple[int, str], list[int]] = {}
    for src, label, dst in nfa.arcs:
        successors.setdefault((src, label), []).append(dst)

    def step(subset: frozenset[int], tok: str) -> frozenset[int]:
        return frozenset(d for q in subset for d in successors.get((q, tok), ()))

    return explore(nfa.alphabet, frozenset(nfa.initial), step, sink=frozenset())


def reverse(nfa: Nfa) -> Nfa:
    """Flip every arc and swap initial/final; accepts exactly the mirrored words."""
    return Nfa(
        nfa.alphabet,
        nfa.state_count,
        tuple(sorted(nfa.final)),
        frozenset(nfa.initial),
        tuple((d, l, s) for (s, l, d) in nfa.arcs),
    )


def _renumber(keys: Sequence[Hashable]) -> list[int]:
    ids: dict[Hashable, int] = {}
    return [ids.setdefault(k, len(ids)) for k in keys]


def moore_reduce(dfa: Dfa, signature: Sequence[Hashable]) -> tuple[Dfa, tuple[int, ...]]:
    """Quotient by the coarsest partition that refines ``signature`` and is
    compatible with the transition function (Moore refinement).

    Blocks are numbered by first occurrence in state order, which makes the
    quotient deterministic. Never grows the machine. The table is read by
    letter column: a round's key for state q is its block followed by the
    blocks of its targets, one ``map`` per letter over the column, so no
    Python code runs per state and letter.
    """
    if len(signature) != dfa.state_count:
        raise ValueError("signature must cover every state")
    block = _renumber(list(signature))
    columns = list(zip(*dfa.delta))
    while True:
        refined = _renumber(list(zip(block, *(map(block.__getitem__, col) for col in columns))))
        if refined == block:
            break
        block = refined

    count = max(block) + 1
    rep: list[int | None] = [None] * count
    for q, b in enumerate(block):
        if rep[b] is None:
            rep[b] = q
    rows = tuple(tuple(block[t] for t in dfa.delta[rep[b]]) for b in range(count))
    reduced = Dfa(dfa.alphabet, count, block[dfa.start], rows)
    return reduced, tuple(block)
