"""Bimachines: a left-to-right DFA, a right-to-left DFA, and a partial output
table indexed by (left state, letter, right state).

The output table has a cell per (left state, letter, right state), undefined
cells included, and that partiality is what carves out the domain of the
represented function. It stores each distinct row (one left state and
letter, over all right states) once, with one row index per left state and
letter: the hard family's tables have Θ(k^{2n}) cells but only a handful of
distinct rows. The empty word gets its own explicit output slot so that
machines whose function is undefined at the empty word can say so.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import PreconditionError, ResourceLimitError, UnknownSymbolError
from .fsm import PSI_CAP, Alphabet, Dfa, Word, moore_reduce


def _slot(shape: tuple[Alphabet, int, int], l, a, r) -> int | None:
    """The slot of key ``(l, a, r)`` in a table of this shape, or None when
    the key names a state or letter outside the table."""
    alphabet, left_count, right_count = shape
    if not (a in alphabet and isinstance(l, int) and isinstance(r, int)
            and 0 <= l < left_count and 0 <= r < right_count):
        return None
    return l * len(alphabet) + alphabet.index(a)


class PsiTable(Mapping):
    """A bimachine's output table, read-only.

    The row of left state ``l`` and the ``a``-th letter of ``alphabet`` is
    slot ``l * |Σ| + a`` of ``row_of``, which holds the row's index among
    the distinct rows, or -1 where the row is all undefined. ``rows`` holds
    the distinct rows one after the other, ``right_count`` cells each: cell
    ``i * right_count + r`` is row ``i``'s cell for right state ``r``. A
    cell holds an index into ``words``, where each output word appears
    once, or -1 where the output is undefined.

    The rows are pairwise distinct, none is all undefined, and ``row_of``
    uses every one, so two rows are equal exactly when their indices are.
    ``RowInterner`` builds every table so. Construction raises ValueError
    unless the arrays fit the shape and each row index and each cell is -1
    or names a row or a word the table has. As a Mapping, the keys are the
    defined ``(l, letter, r)`` triples in cell order and the values their
    output words, so ``len`` counts the defined cells.
    """

    __slots__ = ("alphabet", "left_count", "right_count", "row_of", "rows", "words")

    def __init__(self, alphabet: Alphabet, left_count: int, right_count: int,
                 row_of: array, rows: array, words: tuple[Word, ...]):
        if len(row_of) != left_count * len(alphabet) or len(rows) % right_count:
            raise ValueError("psi rows do not match the table's shape")
        # Through sets: one pass over each array, in C.
        if not (set(row_of) <= set(range(-1, len(rows) // right_count))
                and set(rows) <= set(range(-1, len(words)))):
            raise ValueError("psi rows name a row or an output word the table lacks")
        self.alphabet, self.left_count, self.right_count = alphabet, left_count, right_count
        self.row_of, self.rows, self.words = row_of, rows, words

    @classmethod
    def from_items(cls, alphabet: Alphabet, left_count: int, right_count: int,
                   items: Iterable[tuple[tuple[int, str, int], Iterable[str]]]) -> PsiTable:
        """The table of ``((l, letter, r), output)`` pairs. Raises
        PreconditionError on a key that names a state or letter the shape
        lacks."""
        shape = alphabet, left_count, right_count
        interner = RowInterner(*shape)
        row, word = interner.row, interner.word
        for (l, a, r), out in items:
            slot = _slot(shape, l, a, r)
            if slot is None:
                raise PreconditionError(f"psi key {(l, a, r)} is outside the machine")
            row(slot)[r] = word(tuple(out))
        return interner.table()

    @property
    def shape(self) -> tuple[Alphabet, int, int]:
        return self.alphabet, self.left_count, self.right_count

    @property
    def distinct(self) -> int:
        """The number of distinct rows."""
        return len(self.rows) // self.right_count

    def defined_cells(self) -> list[list[tuple[int, int]]]:
        """Per distinct row, its defined cells as ``(r, word index)`` pairs."""
        rows, width = self.rows, self.right_count
        return [[(r, v) for r, v in enumerate(rows[i * width : (i + 1) * width]) if v >= 0]
                for i in range(self.distinct)]

    def items(self) -> Iterator[tuple[tuple[int, str, int], Word]]:
        """``((l, letter, r), output)`` for each defined cell, in cell order."""
        symbols, words, letters = self.alphabet.symbols, self.words, len(self.alphabet)
        defined = [[(r, words[v]) for r, v in row] for row in self.defined_cells()]
        for slot, i in enumerate(self.row_of):
            if i >= 0:
                l, pos = divmod(slot, letters)
                for r, out in defined[i]:
                    yield (l, symbols[pos], r), out

    def __iter__(self):
        return (key for key, _ in self.items())

    def __len__(self) -> int:
        sizes = [len(row) for row in self.defined_cells()]
        return sum(sizes[i] for i in self.row_of if i >= 0)

    def __getitem__(self, key) -> Word:
        try:
            l, a, r = key
        except (TypeError, ValueError):  # the key is not three items
            raise KeyError(key) from None
        slot = _slot(self.shape, l, a, r)
        i = -1 if slot is None else self.row_of[slot]
        v = -1 if i < 0 else self.rows[i * self.right_count + r]
        if v < 0:
            raise KeyError(key)
        return self.words[v]


class RowInterner:
    """Builds a PsiTable: each row is interned once, and ``row_of`` maps a
    slot (``l * |Σ| + a``) to its row's index.

    ``word`` gives an output word's id, numbering the words in order of
    first use; the cells hold these ids. ``intern`` gives a row's index,
    appending the row to ``rows`` the first time it is seen, or -1 for a row
    that is all undefined. A builder writes the indices into ``row_of``
    itself, or writes a slot's row cell by cell into ``row(slot)``. ``table``
    interns the rows still being written and drops the rows that no slot
    uses, so a builder may intern a row it ends up not using. A table of
    more than PSI_CAP cells is refused with ResourceLimitError before
    anything is allocated.
    """

    __slots__ = ("alphabet", "left_count", "right_count", "row_of", "rows", "index",
                 "words", "begun")

    def __init__(self, alphabet: Alphabet, left_count: int, right_count: int):
        letters = len(alphabet)
        if left_count * letters * right_count > PSI_CAP:
            raise ResourceLimitError(
                f"psi table of {left_count} x {letters} x {right_count} cells exceeds {PSI_CAP}")
        self.alphabet, self.left_count, self.right_count = alphabet, left_count, right_count
        self.row_of = array("i", [-1]) * (left_count * letters)
        self.rows = array("i")
        self.index: dict[bytes, int] = {}  # by the row's bytes
        self.words: dict[Word, int] = {}
        self.begun: dict[int, array] = {}  # the rows being written, by slot

    def word(self, out: Word) -> int:
        return self.words.setdefault(out, len(self.words))

    def intern(self, row: array) -> int:
        key = row.tobytes()
        i = self.index.get(key)
        if i is None:
            if row.count(-1) == len(row):
                i = -1
            else:
                i = len(self.rows) // self.right_count
                self.rows.extend(row)
            self.index[key] = i
        return i

    def row(self, slot: int) -> array:
        """The row of slot being written: when its writing begins, blank or
        a copy of the slot's interned row."""
        cells = self.begun.get(slot)
        if cells is None:
            i, width = self.row_of[slot], self.right_count
            cells = self.begun[slot] = (array("i", [-1]) * width if i < 0
                                        else self.rows[i * width : (i + 1) * width])
        return cells

    def table(self) -> PsiTable:
        """The table of ``row_of`` and the rows it uses, whose cells index
        the words in order of their ids."""
        for slot, cells in self.begun.items():
            self.row_of[slot] = self.intern(cells)
        row_of, rows, width = self.row_of, self.rows, self.right_count
        used = set(row_of)
        used.discard(-1)
        if len(used) * width < len(rows):
            kept = sorted(used)
            renumber = {old: new for new, old in enumerate(kept)}
            renumber[-1] = -1
            row_of = array("i", map(renumber.__getitem__, row_of))
            rows = array("i")
            for old in kept:
                rows.extend(self.rows[old * width : (old + 1) * width])
        return PsiTable(self.alphabet, self.left_count, width, row_of, rows, tuple(self.words))


@dataclass(frozen=True)
class Bimachine:
    """A left and a right automaton over one input alphabet, with an output
    table. Construction refuses a machine that breaks a rule of this shape:

    - the input alphabet has at least one letter, else PreconditionError;
    - the right automaton has the left's tokens. A right automaton that
      orders them otherwise is rebuilt over the left's alphabet, its columns
      permuted, so ``right.alphabet == left.alphabet`` always holds; another
      set of tokens raises UnknownSymbolError naming a token only one has;
    - ``psi`` may be given as any mapping from ``(l, letter, r)`` to output
      words. It is stored as a PsiTable over the input alphabet, and a key
      outside the machine raises PreconditionError;
    - every output token, in the table and at the empty word, is in
      ``output_alphabet``, else UnknownSymbolError.
    """

    left: Dfa
    right: Dfa
    psi: PsiTable
    empty_word_output: Word | None
    output_alphabet: Alphabet

    def __post_init__(self):
        alphabet, right = self.left.alphabet, self.right
        if not alphabet:
            raise PreconditionError("a bimachine needs at least one input letter")
        if right.alphabet != alphabet:
            for tok in (*alphabet, *right.alphabet):
                if tok not in alphabet or tok not in right.alphabet:
                    raise UnknownSymbolError(
                        f"symbol {tok!r} is in only one of the bimachine's alphabets")
            order = right.alphabet.indices(alphabet)
            delta = tuple(tuple(row[i] for i in order) for row in right.delta)
            object.__setattr__(self, "right", Dfa(alphabet, right.state_count, right.start, delta))
        shape = (alphabet, self.left.state_count, right.state_count)
        if not (isinstance(self.psi, PsiTable) and self.psi.shape == shape):
            object.__setattr__(self, "psi", PsiTable.from_items(*shape, self.psi.items()))
        check = self.output_alphabet.check_word
        for word in self.psi.words:
            check(word)
        if self.empty_word_output is not None:
            object.__setattr__(self, "empty_word_output", check(self.empty_word_output))

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
        one lookup is undefined. A token outside the input alphabet raises
        UnknownSymbolError, wherever it sits in the word, and a state outside
        its automaton ValueError.
        """
        for side, state, dfa in (("left", left_state, self.left),
                                 ("right", right_state, self.right)):
            if not 0 <= state < dfa.state_count:
                raise ValueError(f"{side} state {state} out of range")
        index = self.left.alphabet.indices(word)
        left_delta, right_delta = self.left.delta, self.right.delta
        row_of, rows, words = self.psi.row_of, self.psi.rows, self.psi.words
        letters, width = len(self.left.alphabet), self.right.state_count
        l = left_state
        prefix = [l]
        for i in index:
            l = left_delta[l][i]
            prefix.append(l)
        parts: list[Word] = []
        r = right_state
        for pos in range(len(index) - 1, -1, -1):
            i = row_of[prefix[pos] * letters + index[pos]]
            v = -1 if i < 0 else rows[i * width + r]
            if v < 0:
                return None
            parts.append(words[v])
            r = right_delta[r][index[pos]]
        return tuple(tok for piece in reversed(parts) for tok in piece)

    def evaluate(self, word: Iterable[str]) -> Word | None:
        """The represented function, with the empty word handled by its flag."""
        word = tuple(word)
        if not word:
            return self.empty_word_output
        return self.psi_star(self.left.start, word, self.right.start)

    def reduce(self) -> "Bimachine":
        """Merge states indistinguishable by their output rows and transitions.

        The represented function is unchanged. Both sides are Moore-reduced
        from this one table: a left state's signature is its |Σ| row
        indices, a right state's its column across the distinct rows. Rows
        are interned, so equal indices mean equal rows, and each output word
        has one index, so equal columns mean equal outputs. Merged states
        have literally identical rows, so merging one side never changes the
        other side's signatures: one pass per side reaches the fixpoint.

        A block's states share their signature, so a left block takes its
        states' row indices, and every row stays in use. A right block takes
        its states' column: each distinct row is projected onto the blocks.
        Merged columns are equal in every row, so the projections stay
        distinct and defined. A side where nothing merges keeps its automaton
        and arrays, and a machine where nothing merges is returned as it is.
        """
        psi, left, right = self.psi, self.left, self.right
        row_of, rows, letters, width = psi.row_of, psi.rows, len(psi.alphabet), psi.right_count
        left_q, left_block = moore_reduce(left, [row_of[q * letters : (q + 1) * letters].tobytes()
                                                 for q in range(left.state_count)])
        right_q, right_block = moore_reduce(right, [rows[r::width].tobytes() for r in range(width)])
        if left_q.state_count == left.state_count and right_q.state_count == width:
            return self
        if left_q.state_count < left.state_count:
            left, row_of = left_q, array("i", [-1]) * (left_q.state_count * letters)
            for q, b in enumerate(left_block):
                to = b * letters
                row_of[to : to + letters] = psi.row_of[q * letters : (q + 1) * letters]
        if right_q.state_count < width:
            right, count = right_q, right_q.state_count
            rows = array("i", [-1]) * (psi.distinct * count)
            for r, b in enumerate(right_block):
                rows[b::count] = psi.rows[r::width]
        table = PsiTable(psi.alphabet, left.state_count, right.state_count, row_of, rows, psi.words)
        return Bimachine(left, right, table, self.empty_word_output, self.output_alphabet)

