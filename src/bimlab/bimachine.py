"""Bimachines: a left-to-right DFA, a right-to-left DFA, and a partial output
table indexed by (left state, letter, right state).

The output table is stored sparsely; an absent triple means undefined, and
that partiality is what carves out the domain of the represented function.
The empty word gets its own explicit output slot so that machines whose
function is undefined at the empty word can say so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import PreconditionError, ResourceLimitError
from .fsm import EDGE_CAP, STATE_CAP, Alphabet, Dfa, LetterMachine, Word, explore, moore_reduce


@dataclass(frozen=True)
class Bimachine:
    left: Dfa
    right: Dfa
    psi: dict[tuple[int, str, int], Word]
    empty_word_output: Word | None
    output_alphabet: Alphabet

    def __post_init__(self):
        psi = self.psi
        # A table whose keys are 3-tuples and whose values are tuples is
        # already normalised (parsed and reduced tables are); copy it whole.
        if (set(map(type, psi)) <= {tuple} and set(map(len, psi)) <= {3}
                and set(map(type, psi.values())) <= {tuple}):
            psi = dict(psi)
        else:
            psi = {(l, a, r): tuple(out) for (l, a, r), out in psi.items()}
        object.__setattr__(self, "psi", psi)
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
        left_delta, right_delta, psi = self.left.delta, self.right.delta, self.psi
        l = left_state
        prefix = [l]
        for i in left_index:
            l = left_delta[l][i]
            prefix.append(l)
        parts: list[Word] = []
        r = right_state
        for pos in range(len(word) - 1, -1, -1):
            piece = psi.get((prefix[pos], word[pos], r))
            if piece is None:
                return None
            parts.append(piece)
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
        word's output. The empty word is left to ``empty_word_output``.
        """
        left_count, right_count = self.left.state_count, self.right.state_count
        left_col = {tok: pos for pos, tok in enumerate(self.left.alphabet.symbols)}
        right_col = {tok: self.right.alphabet.index(tok) for tok in self.input_alphabet.symbols}
        left_delta, right_delta = self.left.delta, self.right.delta

        def arcs():
            for (l, a, r), out in self.psi.items():
                if not (0 <= l < left_count and 0 <= r < right_count):
                    raise PreconditionError(f"psi key {(l, a, r)} is outside the machine")
                yield (l * right_count + right_delta[r][right_col[a]], a, out,
                       left_delta[l][left_col[a]] * right_count + r)

        return LetterMachine.build(
            self.input_alphabet,
            left_count * right_count,
            (self.left.start * right_count + r for r in range(right_count)),
            (l * right_count + self.right.start for l in range(left_count)),
            arcs(),
            self.empty_word_output,
        )

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

        def arcs(k: int, psi: dict):
            lefts_of: dict[int, list[int]] = {}
            rights_of: dict[int, list[int]] = {}
            for i, pair in enumerate(left_pairs):
                lefts_of.setdefault(pair[k], []).append(i)
            for j, pair in enumerate(right_pairs):
                rights_of.setdefault(pair[k], []).append(j)
            budget = EDGE_CAP
            for (l, tok, r), out in psi.items():
                pos = alphabet.index(tok)
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
        """Diagnostics for structural problems; an empty list means valid."""
        problems: list[str] = []
        if self.left.alphabet.symbols != self.right.alphabet.symbols:
            problems.append("alphabet-mismatch: left and right automata disagree")
        for (l, a, r), out in sorted(self.psi.items()):
            if not 0 <= l < self.left.state_count:
                problems.append(f"psi: unknown left state {l}")
            if not 0 <= r < self.right.state_count:
                problems.append(f"psi: unknown right state {r}")
            if a not in self.left.alphabet:
                problems.append(f"psi: unknown input symbol {a!r}")
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
        other, because merged states have literally identical rows. The machine
        must be valid (``validate()`` reports nothing); a psi key naming a
        state the machine lacks raises PreconditionError. The keys are checked
        once here: the right pass only reads keys the left pass built.
        """
        left_count, right_count = self.left.state_count, self.right.state_count
        for l, a, r in self.psi:
            if not (0 <= l < left_count and 0 <= r < right_count):
                raise PreconditionError(f"psi key {(l, a, r)} is outside the machine")
        return self._merge("left")._merge("right")

    def _merge(self, side: str) -> "Bimachine":
        """Moore-reduce one side. A state's signature row lists its psi values
        letter-major, then by the other side's state (None where undefined)."""
        is_left = side == "left"
        dfa, other = (self.left, self.right) if is_left else (self.right, self.left)
        width = other.state_count
        offset = {a: pos * width for pos, a in enumerate(self.input_alphabet.symbols)}
        size = len(offset) * width
        flat: list[Word | None] = [None] * (size * dfa.state_count)
        for (l, a, r), out in self.psi.items():
            q, o = (l, r) if is_left else (r, l)
            flat[q * size + offset[a] + o] = out
        rows = [tuple(flat[q * size : (q + 1) * size]) for q in range(dfa.state_count)]
        del flat
        reduced, block = moore_reduce(dfa, rows)
        del rows  # free the signatures before the new psi table grows
        psi: dict[tuple[int, str, int], Word] = {}
        for (l, a, r), out in self.psi.items():
            key = (block[l], a, r) if is_left else (l, a, block[r])
            if psi.setdefault(key, out) != out:
                raise AssertionError(f"internal: merged {side} states disagree on psi")
        left, right = (reduced, self.right) if is_left else (self.left, reduced)
        return Bimachine(left, right, psi, self.empty_word_output, self.output_alphabet)
