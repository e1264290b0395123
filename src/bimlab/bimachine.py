"""Bimachines: a left-to-right DFA, a right-to-left DFA, and a partial output
table indexed by (left state, letter, right state).

The output table is dense: one cell per (left state, letter, right state),
undefined cells included, and that partiality is what carves out the domain
of the represented function. The empty word gets its own explicit output
slot so that machines whose function is undefined at the empty word can say
so.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import PreconditionError, ResourceLimitError
from .fsm import (EDGE_CAP, PSI_CAP, STATE_CAP, Alphabet, Dfa, LetterMachine, Word, explore,
                  moore_reduce)


def psi_cells(left_count: int, letters: int, right_count: int) -> array:
    """The cells of an output table of this shape, all undefined (-1).
    Every table is allocated here; more than PSI_CAP cells raises
    ResourceLimitError before any memory is taken."""
    size = left_count * letters * right_count
    if size > PSI_CAP:
        raise ResourceLimitError(
            f"psi table of {left_count} x {letters} x {right_count} cells exceeds {PSI_CAP}"
        )
    return array("i", [-1]) * size


class PsiTable(Mapping):
    """A bimachine's output table, read-only.

    Cell ``(l * |Σ| + a) * right_count + r`` of ``cells`` belongs to left
    state ``l``, the ``a``-th letter of ``alphabet`` and right state ``r``.
    It holds an index into ``words``, where each output word appears once
    (``Bimachine.reduce`` compares rows of indices), or -1 where the output
    is undefined. As a Mapping, the keys are the
    defined ``(l, letter, r)`` triples in cell order and the values their
    output words, so ``len`` counts the defined cells.
    """

    __slots__ = ("alphabet", "left_count", "right_count", "cells", "words", "_len")

    def __init__(self, alphabet: Alphabet, left_count: int, right_count: int,
                 cells: array, words: tuple[Word, ...]):
        if len(cells) != left_count * len(alphabet) * right_count:
            raise ValueError("psi cells do not match the table's shape")
        self.alphabet, self.left_count, self.right_count = alphabet, left_count, right_count
        self.cells, self.words = cells, words
        self._len: int | None = None

    @classmethod
    def from_items(cls, alphabet: Alphabet, left_count: int, right_count: int,
                   items: Iterable[tuple[tuple[int, str, int], Iterable[str]]]) -> PsiTable:
        """The table of ``((l, letter, r), output)`` pairs. Raises
        PreconditionError on a key that names a state or letter the shape
        lacks."""
        table = cls(alphabet, left_count, right_count,
                    psi_cells(left_count, len(alphabet), right_count), ())
        ids: dict[Word, int] = {}
        for (l, a, r), out in items:
            cell = table._cell(l, a, r)
            if cell is None:
                raise PreconditionError(f"psi key {(l, a, r)} is outside the machine")
            table.cells[cell] = ids.setdefault(tuple(out), len(ids))
        table.words = tuple(ids)
        return table

    @property
    def shape(self) -> tuple[Alphabet, int, int]:
        return self.alphabet, self.left_count, self.right_count

    def entries(self) -> Iterator[tuple[int, int, int, Word]]:
        """``(l, letter position, r, output)`` for each defined cell, in cell order."""
        cells, words, width = self.cells, self.words, self.right_count
        base = 0
        for l in range(self.left_count):
            for pos in range(len(self.alphabet)):
                for r, v in enumerate(cells[base : base + width]):
                    if v >= 0:
                        yield l, pos, r, words[v]
                base += width

    def items(self):
        symbols = self.alphabet.symbols
        return (((l, symbols[pos], r), out) for l, pos, r, out in self.entries())

    def __iter__(self):
        symbols = self.alphabet.symbols
        return ((l, symbols[pos], r) for l, pos, r, _ in self.entries())

    def __len__(self) -> int:
        if self._len is None:
            self._len = len(self.cells) - self.cells.count(-1)
        return self._len

    def _cell(self, l, a, r) -> int | None:
        """The cell of key ``(l, a, r)``, or None when the key names a state
        or letter outside the table."""
        if not (a in self.alphabet and isinstance(l, int) and isinstance(r, int)
                and 0 <= l < self.left_count and 0 <= r < self.right_count):
            return None
        return (l * len(self.alphabet) + self.alphabet.index(a)) * self.right_count + r

    def __getitem__(self, key) -> Word:
        try:
            cell = self._cell(*key)
        except TypeError:  # the key is not three items
            raise KeyError(key) from None
        if cell is None or self.cells[cell] < 0:
            raise KeyError(key)
        return self.words[self.cells[cell]]


@dataclass(frozen=True)
class Bimachine:
    """``psi`` may be given as any mapping from ``(l, letter, r)`` to output
    words; construction stores it as a PsiTable over the left automaton's
    alphabet and raises PreconditionError on a key outside the machine."""

    left: Dfa
    right: Dfa
    psi: PsiTable
    empty_word_output: Word | None
    output_alphabet: Alphabet

    def __post_init__(self):
        shape = (self.left.alphabet, self.left.state_count, self.right.state_count)
        if not (isinstance(self.psi, PsiTable) and self.psi.shape == shape):
            object.__setattr__(self, "psi", PsiTable.from_items(*shape, self.psi.items()))
        if self.empty_word_output is not None:
            object.__setattr__(self, "empty_word_output", tuple(self.empty_word_output))

    @property
    def input_alphabet(self) -> Alphabet:
        return self.left.alphabet

    @property
    def total_states(self) -> int:
        return self.left.state_count + self.right.state_count

    def psi_star(self, left_state: int, word: Iterable[str], right_state: int) -> Word | None:
        """Generalized output between a left and a right context state.

        Unfolds from the right: the last letter is looked up against
        ``right_state`` directly, earlier letters against the right state
        advanced over the reversed suffix behind them. Undefined as soon as
        one lookup is undefined. A token outside either automaton's alphabet
        raises UnknownSymbolError, wherever it sits in the word.
        """
        word = tuple(word)
        left_index = self.left.alphabet.indices(word)
        right_index = (
            left_index
            if self.right.alphabet is self.left.alphabet
            else self.right.alphabet.indices(word)
        )
        left_delta, right_delta = self.left.delta, self.right.delta
        cells, words = self.psi.cells, self.psi.words
        letters, width = len(self.left.alphabet), self.right.state_count
        l = left_state
        prefix = [l]
        for i in left_index:
            l = left_delta[l][i]
            prefix.append(l)
        parts: list[Word] = []
        r = right_state
        for pos in range(len(word) - 1, -1, -1):
            v = cells[(prefix[pos] * letters + left_index[pos]) * width + r]
            if v < 0:
                return None
            parts.append(words[v])
            r = right_delta[r][right_index[pos]]
        return tuple(tok for piece in reversed(parts) for tok in piece)

    def evaluate(self, word: Iterable[str]) -> Word | None:
        """The represented function, with the empty word handled by its flag."""
        word = tuple(word)
        if not word:
            return self.empty_word_output
        return self.psi_star(self.left.start, word, self.right.start)

    def letter_machine(self) -> LetterMachine:
        """The bimachine as an unambiguous letter transducer.

        State ``l * |R| + r`` is left state ``l`` with right state ``r`` for
        the unread suffix. Wherever ``psi(l, a, r')`` is defined there is an
        arc ``(l, δR(r', a)) --a/psi(l, a, r')--> (δL(l, a), r')``. Every
        ``(L.start, r)`` is initial and every ``(l, R.start)`` final, so a
        nonempty word of the domain has one accepting path, and it emits the
        word's output. The empty word is left to ``empty_word_output``. Only
        states that can reach a final state keep their arcs and initial
        marks; the others are wrong guesses of the suffix, which no product
        search needs to visit.

        The arc table is read off the psi rows, letter by letter and left
        state by left state, and comes out as ``LetterMachine.build`` would
        order it: sources in order of their first letter, then by number,
        and each source's arcs on a letter by (output, target).
        """
        left_count, width = self.left.state_count, self.right.state_count
        symbols = self.input_alphabet.symbols
        letters = len(symbols)
        cells, words = self.psi.cells, self.psi.words
        left_delta = self.left.delta
        right_col = [self.right.alphabet.index(tok) for tok in symbols]
        # δR(r, a), by r and then by the letter's position in ``symbols``
        right_to = [[row[c] for c in right_col] for row in self.right.delta]
        # The live states: a backward search from the finals, which finds the
        # arcs into (l2, r) through the left states each (l2, letter) comes from.
        comes_from: list[list[list[int]]] = [[[] for _ in symbols] for _ in range(left_count)]
        for l, row in enumerate(left_delta):
            for pos, l2 in enumerate(row):
                comes_from[l2][pos].append(l)
        finals = [l * width + self.right.start for l in range(left_count)]
        live, stack = set(finals), list(finals)
        while stack:
            l2, r = divmod(stack.pop(), width)
            for pos, r2 in enumerate(right_to[r]):
                for l in comes_from[l2][pos]:
                    if cells[(l * letters + pos) * width + r] >= 0:
                        src = l * width + r2
                        if src not in live:
                            live.add(src)
                            stack.append(src)
        del comes_from
        # An arc from left state l on a letter is keyed rank * |R| + r, where
        # rank orders its output word among the table's words; sorting the
        # keys of one source orders its arcs by (output, target).
        rank = {w: i for i, w in enumerate(sorted(set(words)))}
        ranked, by_rank = [rank[w] * width for w in words], sorted(rank)
        arcs: dict[int, dict[str, list[tuple[Word, int]]]] = {}
        for pos, tok in enumerate(symbols):
            sources = [row[pos] for row in right_to]
            for l in range(left_count):
                base = (l * letters + pos) * width
                dst = left_delta[l][pos] * width
                groups: dict[int, list[int]] = {}  # source right state -> arc keys
                for r, (v, r2) in enumerate(zip(cells[base : base + width], sources)):
                    if v >= 0 and dst + r in live:
                        if r2 in groups:
                            groups[r2].append(ranked[v] + r)
                        else:
                            groups[r2] = [ranked[v] + r]
                for r2 in sorted(groups):
                    group = groups[r2]
                    group.sort()
                    arcs.setdefault(l * width + r2, {})[tok] = [
                        (by_rank[key // width], dst + key % width) for key in group]
        starts = (self.left.start * width + r for r in range(width))
        return LetterMachine(self.input_alphabet, left_count * width,
                             tuple(q for q in starts if q in live), frozenset(finals), arcs,
                             self.empty_word_output)

    def paired_letter_machines(self, other: Bimachine) -> tuple[LetterMachine, LetterMachine]:
        """This bimachine and ``other`` as two letter transducers with one
        path per word between them, for the product searches.

        Alone, each view of ``letter_machine`` guesses its right state anew
        at every step, so a product of two such views pairs every guess of
        one with every guess of the other. Here both views read with the same
        automata: the pairs of left states that ``L`` and ``L'`` reach
        together, and the pairs of right states that ``R`` and ``R'`` reach
        together (``J``). State ``i * |J| + j`` is left pair ``i`` with right
        pair ``j`` for the unread suffix, and the arc for left pair ``i``,
        letter ``a`` and right pair ``j`` is labelled ``(a, i, j)``. So a
        product pairs each arc of one view only with its twin in the other,
        and each path with the other machine's path on the same word. The
        last state is the only initial one; it has the arcs of every
        ``(i0, j)``, where ``i0`` is the start pair. Raises
        ResourceLimitError when a view would have more than STATE_CAP states
        or more than EDGE_CAP arcs, the edge cap of the search.
        """
        alphabet, machines = self.input_alphabet, (self, other)
        lefts, left_pairs = explore(alphabet, tuple(m.left.start for m in machines),
                                    lambda i, tok: tuple(m.left.step(l, tok)
                                                         for m, l in zip(machines, i)))
        rights, right_pairs = explore(alphabet, tuple(m.right.start for m in machines),
                                      lambda j, tok: tuple(m.right.step(r, tok)
                                                           for m, r in zip(machines, j)))
        width = rights.state_count
        start = lefts.state_count * width
        too_large = f"paired views exceed {STATE_CAP} states or {EDGE_CAP} arcs"
        if start >= STATE_CAP:
            raise ResourceLimitError(too_large)

        def arcs(k: int, psi: PsiTable):
            lefts_of: dict[int, list[int]] = {}
            rights_of: dict[int, list[int]] = {}
            for i, pair in enumerate(left_pairs):
                lefts_of.setdefault(pair[k], []).append(i)
            for j, pair in enumerate(right_pairs):
                rights_of.setdefault(pair[k], []).append(j)
            budget = EDGE_CAP
            symbols = psi.alphabet.symbols
            columns = [alphabet.index(tok) for tok in symbols]
            for l, col, r, out in psi.entries():
                tok, pos = symbols[col], columns[col]
                for i in lefts_of.get(l, ()):
                    budget -= len(rights_of.get(r, ())) * (1 + (i == lefts.start))
                    if budget < 0:
                        raise ResourceLimitError(too_large)
                    dst = lefts.delta[i][pos] * width
                    for j in rights_of.get(r, ()):
                        arc = (tok, i, j), out, dst + j
                        yield (i * width + rights.delta[j][pos], *arc)
                        if i == lefts.start:
                            yield (start, *arc)

        def label_key(label):
            return (alphabet.index(label[0]), *label[1:])

        finals = [i * width + rights.start for i in range(lefts.state_count)]
        return tuple(
            LetterMachine.build(alphabet, start + 1, (start,), finals, arcs(k, m.psi),
                                m.empty_word_output, label_key)
            for k, m in enumerate(machines)
        )

    def validate(self) -> list[str]:
        """Diagnostics for structural problems; an empty list means valid.
        Construction has already refused psi keys outside the machine."""
        problems: list[str] = []
        if self.left.alphabet.symbols != self.right.alphabet.symbols:
            problems.append("alphabet-mismatch: left and right automata disagree")
        for out in dict.fromkeys(self.psi.values()):
            for tok in out:
                if tok not in self.output_alphabet:
                    problems.append(f"psi: output token {tok!r} not in output alphabet")
        if self.empty_word_output is not None:
            for tok in self.empty_word_output:
                if tok not in self.output_alphabet:
                    problems.append(
                        f"empty-word output token {tok!r} not in output alphabet"
                    )
        return problems

    def reduce(self) -> "Bimachine":
        """Merge states indistinguishable by their output rows and transitions,
        left side first, then the right side with recomputed rows.

        The represented function is unchanged. One pass per side reaches the
        fixpoint: merging one side never changes row-distinguishability on the
        other, because merged states have literally identical rows.
        """
        return self._merge("left")._merge("right")

    def _merge(self, side: str) -> "Bimachine":
        """Moore-reduce one side. A state's signature is its row of psi cells
        as bytes: a left state's run of cells, letter-major and then by right
        state; a right state's cells at stride ``|R|``, by left state and then
        by letter. Each output word has one index in the table, so equal
        bytes mean equal outputs. Each block keeps its first state's cells."""
        psi = self.psi
        cells, letters = psi.cells, len(psi.alphabet)
        left_count, right_count = psi.left_count, psi.right_count
        if side == "left":
            size = letters * right_count
            rows = [cells[q * size : (q + 1) * size].tobytes() for q in range(left_count)]
        else:
            rows = [cells[r::right_count].tobytes() for r in range(right_count)]
        reduced, block = moore_reduce(self.left if side == "left" else self.right, rows)
        del rows  # free the signatures before the new table is allocated
        first: dict[int, int] = {}
        for q, b in enumerate(block):
            first.setdefault(b, q)
        count = reduced.state_count
        if side == "left":
            new = psi_cells(count, letters, right_count)
            for b, q in first.items():
                new[b * size : (b + 1) * size] = cells[q * size : (q + 1) * size]
            left, right = reduced, self.right
        else:
            new = psi_cells(left_count, letters, count)
            for b, r in first.items():
                new[b::count] = cells[r::right_count]
            left, right = self.left, reduced
        table = PsiTable(psi.alphabet, left.state_count, right.state_count, new, psi.words)
        return Bimachine(left, right, table, self.empty_word_output, self.output_alphabet)
