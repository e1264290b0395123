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
from functools import cached_property
from typing import Iterable

from .bimachine import Bimachine, RowInterner
from .errors import ResourceLimitError
from .fsm import STATE_CAP, Alphabet, Dfa, Frozen, Word
from .transducer import Arc, Transducer


class InstanceParams(Frozen):
    _fields = ("k", "n")

    def __init__(self, k: int, n: int):
        if k < 2:
            raise ValueError("k must be at least 2")
        if n < 1:
            raise ValueError("n must be at least 1")
        states = 2 * k * (n + 1)  # of the unmerged transducer
        if states > STATE_CAP:
            raise ResourceLimitError(
                f"k={k}, n={n} needs {states} states, over the cap of {STATE_CAP}"
            )
        self.__dict__.update(k=k, n=n)

    # Cached in the instance __dict__, beside the fields; equality and
    # hashing keep using (k, n) alone.
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


def _numbering(blocks, size: list[int]) -> dict:
    """The first state id of each block, in block order: a window level c
    holds ``size[c]`` states, a named block one."""
    first, at = {}, 0
    for block in blocks:
        first[block] = at
        at += size[block] if isinstance(block, int) else 1
    return first


def _extensions(first: dict, size: list[int]) -> list[list[tuple[int, ...]]]:
    """Per window level, the targets of each window on the k letters that
    extend it, one k-tuple per window: a window of level c < n reaches
    level c + 1, and a full window slides to ``(x*k + t) mod k^n``."""
    n, k = len(size) - 1, size[1]
    levels = []
    for c in range(n + 1):
        if c < n:
            targets = range(first[c + 1], first[c + 1] + size[c + 1])
        else:
            targets = [*range(first[n], first[n] + size[n])] * k
        levels.append(list(zip(*[iter(targets)] * k)))
    return levels


def handcrafted_bimachine(params: InstanceParams) -> Bimachine:
    """Sliding-window bimachine for the instance family, built in closed form.

    Left automaton: inside the first block, remember the window of the last
    <= n first-half symbols; one state for "inside the second block"; dead on
    a first-half symbol after the second block started. Right automaton
    (reading the word reversed): remember the window of the last <= n
    second-half symbols read; on crossing into the first block keep only
    whether the block behind was long enough; dead on a second-half symbol
    after crossing. The only nonempty outputs sit on the block boundary,
    where both windows are long enough to name the output pair.

    States are numbered in the order a breadth-first search from the start
    state finds them, successors in alphabet order. Window level c holds the
    k^c windows of length c in lexicographic order, the empty window being
    the start state. Left: the start state, level 1, inside-second-block,
    level 2, dead, then levels 3..n; for n = 1 dead follows
    inside-second-block. Right: the start state, crossed-short, level 1,
    dead, levels 2..n, and crossed-long last. A side of more than STATE_CAP
    states raises ResourceLimitError, the left side checked first, and then
    the psi cap is checked, all before any table is built.
    """
    k, n = params.k, params.n
    sigma = params.alphabet
    windows = (k ** (n + 1) - 1) // (k - 1)  # of every length 0..n
    left_count, right_count = windows + 2, windows + 3
    for count in (left_count, right_count):
        if count > STATE_CAP:
            raise ResourceLimitError(f"state space exceeded {STATE_CAP} states")
    interner = RowInterner(sigma, left_count, right_count)
    size = [k**c for c in range(n + 1)]

    # Letters 0..k-1 are the first half, k..2k-1 the second.
    lat = _numbering([0, 1, "second", *([2] if n > 1 else ()), "dead", *range(3, n + 1)], size)
    to_second, to_dead = (lat["second"],) * k, (lat["dead"],) * k
    rows = {c: [ext + to_second for ext in level] for c, level in enumerate(_extensions(lat, size))}
    rows["second"], rows["dead"] = [to_dead + to_second], [to_dead + to_dead]
    left = Dfa(sigma, left_count, 0, [row for block in lat for row in rows[block]])

    rat = _numbering([0, "short", 1, "dead", *range(2, n + 1), "long"], size)
    to_short, to_long, to_dead = (rat["short"],) * k, (rat["long"],) * k, (rat["dead"],) * k
    rows = {c: [(to_long if c == n else to_short) + ext for ext in level]
            for c, level in enumerate(_extensions(rat, size))}
    rows["short"], rows["long"] = [to_short + to_dead], [to_long + to_dead]
    rows["dead"] = [to_dead + to_dead]
    right = Dfa(sigma, right_count, 0, [row for block in rat for row in rows[block]])

    # Every cell of a row (left state, letter) over all right states comes
    # from one of these rows, interned, and their words numbered, in the
    # order the cells first use them: a first-half letter inside the first
    # block (defined on full right windows and on crossed-long), a
    # second-half letter inside the second block (on every right window), or
    # the boundary. The boundary row depends on the oldest first-block symbol
    # i and, for n = 1 only, on the letter. It is defined on the right
    # windows of length n - 1 and n, whose symbol n - 1 places from the
    # newest is the output's first; a full window holds it one place after
    # the oldest, so level n repeats level n - 1 k times.
    word, intern = interner.word, interner.intern
    blank = array("i", [-1]) * right_count
    empty = array("i", [word(())])
    cells = blank[:]
    cells[rat[n] : rat[n] + size[n]] = empty * size[n]
    cells[rat["long"]] = empty[0]
    inside_first = intern(cells)
    cells = blank[:]
    for c in range(n + 1):
        cells[rat[c] : rat[c] + size[c]] = empty * size[c]
    inside_second = intern(cells)
    boundary = []  # per i, the row index on each second-half letter
    for i in params.first_half:
        patterns = [array("i", [word((j, i))]) for j in params.second_half]
        if n > 1:  # one row: level n - 1 by its oldest symbol
            pattern = array("i")
            for w in patterns:
                pattern += w * size[n - 2]
            patterns = [pattern]
        indices = array("i")
        for pattern in patterns:
            cells = blank[:]
            cells[rat[n - 1] : rat[n - 1] + size[n - 1]] = pattern
            cells[rat[n] : rat[n] + size[n]] = pattern * k
            indices.append(intern(cells))
        boundary.append(indices if n == 1 else indices * k)

    row_of, width = interner.row_of, 2 * k
    on_first = array("i", [inside_first]) * k
    short_window = on_first + array("i", [-1]) * k
    for c in range(n):
        row_of[lat[c] * width : (lat[c] + size[c]) * width] = short_window * size[c]
    full = array("i")
    for indices in boundary:  # the full windows with oldest symbol i
        full += (on_first + indices) * size[n - 1]
    row_of[lat[n] * width : (lat[n] + size[n]) * width] = full
    slot = lat["second"] * width + k
    row_of[slot : slot + k] = array("i", [inside_second]) * k
    return Bimachine(left, right, interner.table(), None, sigma)
