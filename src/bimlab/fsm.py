"""Automaton kernel: alphabets, NFAs, total DFAs, the breadth-first
exploration every determinization runs on, subset construction, reversal,
and Moore partition-refinement reduction.

States are dense integer indices and every iteration order is fixed by
(state index, alphabet order), so repeated builds are byte-identical.
"""

from __future__ import annotations

from operator import attrgetter
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


class Frozen:
    """Base of the classes that check or normalise their fields when built.

    ``_fields`` names the fields in order. A subclass's ``__init__`` checks
    its arguments and stores the fields in the instance ``__dict__``, which
    is also where ``cached_property`` keeps what it computes. Assigning or
    deleting an attribute raises AttributeError. ``==`` and ``hash`` read
    the tuple of the fields, and an instance equals only instances of its
    own class. ``repr`` spells each field as ``name=value``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls._fields)
        # attrgetter of one name gives the value, not a 1-tuple.
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key(self)))
        return f"{self.__class__.__qualname__}({fields})"


class Alphabet(Frozen):
    """Ordered set of symbol tokens; the order fixes deterministic iteration.

    Tokens are nonempty and free of whitespace and of the characters the text
    format reserves: a token may not be ``-`` or contain ``.`` or ``#``.
    """

    _fields = ("symbols",)

    def __init__(self, symbols: Iterable[str]):
        symbols = tuple(symbols)
        index: dict[str, int] = {}
        for pos, tok in enumerate(symbols):
            # split() == [tok]: nonempty and free of whitespace.
            if tok.split() != [tok] or tok == "-" or "." in tok or "#" in tok:
                raise ValueError(f"invalid symbol token {tok!r}")
            if tok in index:
                raise ValueError(f"duplicate symbol token {tok!r}")
            index[tok] = pos
        self.__dict__.update(symbols=symbols, _index=index)

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


class Nfa(Frozen):
    """Nondeterministic automaton; a ``None`` label marks an epsilon arc."""

    _fields = ("alphabet", "state_count", "initial", "final", "arcs")

    def __init__(self, alphabet: Alphabet, state_count: int, initial: Iterable[int],
                 final: Iterable[int], arcs: Iterable[tuple[int, str | None, int]]):
        initial = tuple(dict.fromkeys(initial))
        final = frozenset(final)
        arcs = tuple(sorted({(s, l, d) for (s, l, d) in arcs}, key=_nfa_arc_key))
        for q in (*initial, *final):
            if not 0 <= q < state_count:
                raise ValueError(f"state {q} out of range")
        for src, label, dst in arcs:
            if not (0 <= src < state_count and 0 <= dst < state_count):
                raise ValueError(f"arc ({src},{label},{dst}) out of range")
            if label is not None:
                alphabet.index(label)
        self.__dict__.update(alphabet=alphabet, state_count=state_count, initial=initial,
                             final=final, arcs=arcs)

    @property
    def has_epsilon_arcs(self) -> bool:
        return any(label is None for _, label, _ in self.arcs)


class Dfa(Frozen):
    """Total deterministic automaton: ``delta[state][symbol_index]`` is always
    defined (acceptance plays no role here; every state counts as final).
    The start state, and a state passed to a method, must be an int in
    ``range(state_count)``, else construction or the method raises
    ValueError naming it."""

    _fields = ("alphabet", "state_count", "start", "delta")

    def __init__(self, alphabet: Alphabet, state_count: int, start: int,
                 delta: Iterable[Iterable[int]]):
        delta = tuple(tuple(row) for row in delta)
        if state_count < 1:
            raise ValueError("a DFA needs at least one state")
        if not (isinstance(start, int) and 0 <= start < state_count):
            raise ValueError(f"start state {start} out of range")
        if len(delta) != state_count:
            raise ValueError("delta must have one row per state")
        for q, row in enumerate(delta):
            if len(row) != len(alphabet):
                raise ValueError(f"delta row of state {q} is not total")
            for t in row:
                if not 0 <= t < state_count:
                    raise ValueError(f"delta target {t} out of range")
        self.__dict__.update(alphabet=alphabet, state_count=state_count, start=start, delta=delta)

    def check_state(self, state, what: str = "state") -> int:
        """``state``, when it is a state of this automaton; else ValueError
        that names it as ``what``."""
        if isinstance(state, int) and 0 <= state < self.state_count:
            return state
        raise ValueError(f"{what} {state} out of range")

    def step(self, state: int, token: str) -> int:
        return self.delta[self.check_state(state)][self.alphabet.index(token)]

    def run(self, word: Iterable[str], start: int | None = None) -> int:
        """Fold the transition function over ``word`` from the left, from
        ``start`` or else the automaton's own start state."""
        state = self.start if start is None else self.check_state(start, "start state")
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
