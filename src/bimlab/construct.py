"""Generic bimachine construction from a trimmed, letter-input, functional
transducer: co-accessible-subset right automaton, priority-list left
automaton, first-match output selection.
"""

from __future__ import annotations

from array import array

from .bimachine import Bimachine, PsiTable, RowInterner
from .errors import NonFunctionalError, PreconditionError
from .fsm import STATE_CAP, Dfa, Word, explore, reverse, subset_construction
from .transducer import Transducer, check_functional, is_trim


def build_right_automaton(t: Transducer) -> tuple[Dfa, tuple[frozenset[int], ...]]:
    """Determinize the reversed input projection, starting from the final
    states. After reading a reversed suffix the automaton sits on exactly the
    set of states that can still consume that suffix and accept."""
    if t.has_input_epsilons:
        raise PreconditionError("right automaton needs a letter-input machine")
    return subset_construction(reverse(t.input_projection()))


def build_left_automaton(
    t: Transducer, state_cap: int = STATE_CAP
) -> tuple[Dfa, tuple[tuple[int, ...], ...]]:
    """Priority-list determinization of the forward run.

    A state is the ordered list of transducer states reachable on the prefix
    read so far: parents expand in list order, their arcs in canonical order,
    and duplicates keep the earliest occurrence. That order is what makes
    first-match output selection trace a single accepting path. The empty
    list is the dead sink. Worst case is factorial; ``state_cap`` aborts
    oversized builds.
    """
    if t.has_input_epsilons:
        raise PreconditionError("left automaton needs a letter-input machine")
    arcs = t._letter_arcs

    def step(lst: tuple[int, ...], tok: str) -> tuple[int, ...]:
        return tuple(dict.fromkeys(d for p in lst for _, d in arcs.get((p, tok), ())))

    return explore(t.input_alphabet, tuple(sorted(t.initial)), step, state_cap, sink=())


def build_psi(
    t: Transducer,
    left_lists: tuple[tuple[int, ...], ...],
    coaccessible: tuple[frozenset[int], ...],
) -> PsiTable:
    """First match wins: scan the priority list, each state's arcs in
    canonical order, and emit the first transition landing in the
    co-accessible subset. No matching transition means undefined.

    A row depends only on the letter and on the list's states that have
    arcs on it, in list order, so it is computed once per such key and
    every later slot with the key reuses its index. Rows are still first
    computed in slot order, so word ids keep their order of first use."""
    arcs = t._letter_arcs
    alphabet, right_count = t.input_alphabet, len(coaccessible)
    interner = RowInterner(alphabet, len(left_lists), right_count)
    word, row_of = interner.word, interner.row_of
    holders: dict[int, list[int]] = {}  # transducer state -> right states holding it
    for r_id, subset in enumerate(coaccessible):
        for d in subset:
            holders.setdefault(d, []).append(r_id)
    # Per letter: the states with arcs on it, and the row index of each key.
    sources = {tok: set() for tok in alphabet.symbols}
    for p, tok in arcs:
        sources[tok].add(p)
    made: dict[str, dict[tuple[int, ...], int]] = {tok: {} for tok in alphabet.symbols}
    slot = 0
    for lst in left_lists:
        for tok in alphabet.symbols:
            key = tuple(filter(sources[tok].__contains__, lst))
            i = made[tok].get(key)
            if i is None:
                row = [-1] * right_count
                for p in key:
                    for w, d in arcs[(p, tok)]:
                        word_id = None
                        for r_id in holders.get(d, ()):
                            if row[r_id] < 0:
                                if word_id is None:
                                    word_id = word(w)
                                row[r_id] = word_id
                i = made[tok][key] = interner.intern(array("i", row))
            row_of[slot] = i
            slot += 1
    return interner.table()


def to_bimachine(t: Transducer, state_cap: int = STATE_CAP) -> Bimachine:
    """Assemble the equivalent bimachine for a trimmed, letter-input,
    functional transducer; the result computes the same partial function.

    The empty word maps to the empty output exactly when some initial state
    is final, and is undefined otherwise.
    """
    if t.has_input_epsilons:
        raise PreconditionError("run remove_input_epsilons before construction")
    if not is_trim(t):
        raise PreconditionError("run trim before construction")
    report = check_functional(t)
    if not report.functional:
        raise NonFunctionalError(report.witness, *report.outputs)
    left, lists = build_left_automaton(t, state_cap=state_cap)
    right, subsets = build_right_automaton(t)
    psi = build_psi(t, lists, subsets)
    empty_out: Word | None = () if t.initial & t.final else None
    return Bimachine(left, right, psi, empty_out, t.output_alphabet)
