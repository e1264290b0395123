"""The hard instance family.

For parameters (k, n) the alphabet is {1, ..., 2k}; a word is in the domain
exactly when it is a nonempty block over the first half {1..k} followed by a
nonempty block over the second half {k+1..2k}, both of length at least n. The
output pairs the n-th symbol of the second block with the symbol of the first
block that is followed by exactly n-1 block symbols, in that order.

The module provides the direct-definition reference semantics, a transducer
generator whose state count is exactly 2k(n+1) (or 2kn+2 with the shared
head and tail), and a sliding-window bimachine of size Θ(k^n).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .bimachine import Bimachine, RowInterner
from .errors import ResourceLimitError
from .fsm import STATE_CAP, Alphabet, Word, explore
from .transducer import Arc, Transducer


@dataclass(frozen=True)
class InstanceParams:
    k: int
    n: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        states = 2 * self.k * (self.n + 1)  # of the unmerged transducer
        if states > STATE_CAP:
            raise ResourceLimitError(
                f"k={self.k}, n={self.n} needs {states} states, over the cap of {STATE_CAP}"
            )

    # Cached in the instance __dict__, which a frozen dataclass without
    # __slots__ still has; equality and hashing keep using (k, n) alone.
    @cached_property
    def alphabet(self) -> Alphabet:
        return Alphabet(tuple(str(i) for i in range(1, 2 * self.k + 1)))

    @cached_property
    def first_half(self) -> tuple[str, ...]:
        return tuple(str(i) for i in range(1, self.k + 1))

    @cached_property
    def second_half(self) -> tuple[str, ...]:
        return tuple(str(i) for i in range(self.k + 1, 2 * self.k + 1))


def oracle(params: InstanceParams, word: Iterable[str]) -> Word | None:
    """Reference semantics straight from the definition; the single source of
    truth every machine is tested against."""
    word = tuple(word)
    # The first half {1..k} is exactly the letters at positions 0..k-1.
    positions = params.alphabet.indices(word)
    k, n = params.k, params.n
    split = 0
    while split < len(word) and positions[split] < k:
        split += 1
    block1, block2 = word[:split], word[split:]
    if any(pos < k for pos in positions[split:]):
        return None
    if len(block1) < n or len(block2) < n:
        return None
    return (block2[n - 1], block1[-n])


def instance_transducer(params: InstanceParams, merged: bool = True) -> Transducer:
    """Generate the instance transducer in its bridge form.

    One head chain per first-half symbol i (self-loop on the first half, then
    i, then n-1 first-half steps) and one tail chain per second-half symbol j
    (n-1 second-half steps, then j, then a second-half self-loop); an
    epsilon-input bridge from the end of each head chain to the start of each
    tail chain emits the output pair (j, i). ``merged`` shares a single head
    and a single tail across chains: exactly 2kn+2 states instead of 2k(n+1).
    """
    k, n = params.k, params.n
    sigma = params.alphabet
    first, second = params.first_half, params.second_half
    arcs: list[Arc] = []

    if merged:
        head = 0
        chain1 = {(i, d): 1 + i * n + (d - 1) for i in range(k) for d in range(1, n + 1)}
        chain2 = {(j, d): 1 + k * n + j * n + (d - 1) for j in range(k) for d in range(1, n + 1)}
        tail = 2 * k * n + 1
        count = 2 * k * n + 2
        heads = {i: head for i in range(k)}
        tails = {j: tail for j in range(k)}
        initial, final = frozenset({head}), frozenset({tail})
    else:
        # Chain i occupies states [i*(n+1), (i+1)*(n+1)); tails follow.
        heads = {i: i * (n + 1) for i in range(k)}
        chain1 = {(i, d): i * (n + 1) + d for i in range(k) for d in range(1, n + 1)}
        base = k * (n + 1)
        chain2 = {(j, d): base + j * (n + 1) + (d - 1) for j in range(k) for d in range(1, n + 1)}
        tails = {j: base + j * (n + 1) + n for j in range(k)}
        count = 2 * k * (n + 1)
        initial = frozenset(heads.values())
        final = frozenset(tails.values())

    for i in range(k):
        for tok in first:
            arcs.append(Arc(heads[i], tok, (), heads[i]))
        arcs.append(Arc(heads[i], first[i], (), chain1[(i, 1)]))
        for d in range(1, n):
            for tok in first:
                arcs.append(Arc(chain1[(i, d)], tok, (), chain1[(i, d + 1)]))
    for j in range(k):
        for d in range(1, n):
            for tok in second:
                arcs.append(Arc(chain2[(j, d)], tok, (), chain2[(j, d + 1)]))
        arcs.append(Arc(chain2[(j, n)], second[j], (), tails[j]))
        for tok in second:
            arcs.append(Arc(tails[j], tok, (), tails[j]))
    for i in range(k):
        for j in range(k):
            arcs.append(Arc(chain1[(i, n)], None, (second[j], first[i]), chain2[(j, 1)]))

    return Transducer(sigma, sigma, count, initial, final, tuple(arcs))


def handcrafted_bimachine(params: InstanceParams) -> Bimachine:
    """Sliding-window bimachine for the instance family.

    Left automaton: inside the first block, remember the window of the last
    <= n first-half symbols; one state for "inside the second block"; dead on
    a first-half symbol after the second block started. Right automaton
    (reading the word reversed): remember the window of the last <= n
    second-half symbols read; on crossing into the first block keep only
    whether the block behind was long enough; dead on a second-half symbol
    after crossing. The only nonempty outputs sit on the block boundary,
    where both windows are long enough to name the output pair.
    """
    k, n = params.k, params.n
    sigma = params.alphabet
    first = set(params.first_half)

    def left_step(state, tok):
        if state[0] == "first":
            if tok in first:
                return ("first", (state[1] + (tok,))[-n:])
            return ("second",)
        if state[0] == "second":
            return ("second",) if tok not in first else ("dead",)
        return ("dead",)

    def right_step(state, tok):
        if state[0] == "tail":
            if tok not in first:
                return ("tail", (state[1] + (tok,))[-n:])
            return ("crossed", len(state[1]) >= n)
        if state[0] == "crossed":
            return state if tok in first else ("dead",)
        return ("dead",)

    left, left_states = explore(sigma, ("first", ()), left_step)
    right, right_states = explore(sigma, ("tail", ()), right_step)

    # Every cell of a row (left state, letter) over all right states comes
    # from one of these rows: a first-half letter inside the first block, a
    # second-half letter inside the second block, or the boundary, where the
    # row depends on the oldest first-block symbol i and, for n = 1 only, on
    # the letter. For n > 1 the output's first symbol comes from the right
    # window, so one boundary row per i serves every second-half letter.
    interner = RowInterner(sigma, left.state_count, right.state_count)
    word = interner.word

    def row(outputs) -> int:
        return interner.intern(array("i", [-1 if out is None else word(out) for out in outputs]))

    inside_first = row(() if rs == ("crossed", True) or (rs[0] == "tail" and len(rs[1]) == n)
                       else None for rs in right_states)
    inside_second = row(() if rs[0] == "tail" else None for rs in right_states)
    boundary = {  # by (i, letter) for n = 1, by (i, None) for n > 1
        (i, tok): row((tok if n == 1 else rs[1][len(rs[1]) - (n - 1)], i)
                      if rs[0] == "tail" and len(rs[1]) >= n - 1 else None
                      for rs in right_states)
        for i in params.first_half for tok in (params.second_half if n == 1 else (None,))
    }
    row_of = interner.row_of
    slot = 0
    for ls in left_states:
        for tok in sigma.symbols:
            if ls[0] == "first":
                if tok in first:
                    row_of[slot] = inside_first
                elif len(ls[1]) == n:
                    row_of[slot] = boundary[(ls[1][0], tok if n == 1 else None)]
            elif ls[0] == "second" and tok not in first:
                row_of[slot] = inside_second
            slot += 1
    return Bimachine(left, right, interner.table(), None, sigma)
