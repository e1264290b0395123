"""Brute-force oracles, generators, and corruption helpers shared by the suite.

Everything here recomputes results from first principles (set simulation,
path enumeration, direct word scans) so the library code is checked against
independent implementations.
"""

from __future__ import annotations

import random
from functools import lru_cache
from array import array
from itertools import product
from typing import NamedTuple

from bimlab import (
    Alphabet,
    Arc,
    Bimachine,
    Dfa,
    InstanceParams,
    Transducer,
    emit_bimachine,
    handcrafted_bimachine,
    moore_reduce,
    instance_transducer,
    remove_input_epsilons,
    to_bimachine,
    transducer,
    trim,
)
from bimlab.bimachine import PsiTable, RowInterner
from bimlab.fsm import explore


def unpruned(monkeypatch):
    """Run the comparisons under ``monkeypatch`` without the suffix filter."""
    monkeypatch.setattr(transducer, "_suffix_filter", lambda x, y: None)


def with_psi(machine, psi, empty_word_output=None):
    """A new machine with ``machine``'s automata and the table ``psi``."""
    return Bimachine(machine.left, machine.right, psi, empty_word_output,
                     machine.output_alphabet)


def words_upto(tokens, max_len):
    """All words over ``tokens`` of length 0..max_len, shortest first."""
    for length in range(max_len + 1):
        yield from product(tokens, repeat=length)


def nfa_states_after(nfa, word):
    """Set simulation of an NFA (epsilon arcs supported)."""
    eps = {}
    by_label = {}
    for src, label, dst in nfa.arcs:
        if label is None:
            eps.setdefault(src, []).append(dst)
        else:
            by_label.setdefault((src, label), []).append(dst)

    def closure(states):
        todo = list(states)
        out = set(states)
        while todo:
            q = todo.pop()
            for d in eps.get(q, ()):
                if d not in out:
                    out.add(d)
                    todo.append(d)
        return out

    current = closure(set(nfa.initial))
    for tok in word:
        stepped = set()
        for q in current:
            stepped.update(by_label.get((q, tok), ()))
        current = closure(stepped)
    return frozenset(current)


def nfa_accepts(nfa, word):
    return bool(nfa_states_after(nfa, word) & nfa.final)


def relation_by_paths(t, word):
    """Outputs of accepting paths, found by plain depth-first enumeration.

    Epsilon self-revisits within one epsilon chain are pruned; that loses
    nothing because the library rejects emitting epsilon cycles outright.
    """
    word = tuple(word)
    results = set()

    def explore(state, pos, acc, eps_seen):
        if pos == len(word) and state in t.final:
            results.add(acc)
        for arc in t.arcs:
            if arc.src != state:
                continue
            if arc.inp is None:
                if arc.dst in eps_seen:
                    continue
                explore(arc.dst, pos, acc + arc.out, eps_seen | {arc.dst})
            elif pos < len(word) and arc.inp == word[pos]:
                explore(arc.dst, pos + 1, acc + arc.out, frozenset({arc.dst}))

    for q in sorted(t.initial):
        explore(q, 0, (), frozenset({q}))
    return results


def random_letter_transducer(rng: random.Random) -> Transducer:
    """Small random letter-input machine over {a,b} with outputs over {x,y}."""
    inp = Alphabet(("a", "b"))
    out = Alphabet(("x", "y"))
    states = rng.randint(1, 5)
    arcs = []
    for _ in range(rng.randint(0, 10)):
        src = rng.randrange(states)
        dst = rng.randrange(states)
        tok = rng.choice(inp.symbols)
        word = tuple(rng.choice(out.symbols) for _ in range(rng.randint(0, 2)))
        arcs.append(Arc(src, tok, word, dst))
    initial = frozenset(
        q for q in range(states) if rng.random() < 0.5
    ) or frozenset({0})
    final = frozenset(q for q in range(states) if rng.random() < 0.5)
    return Transducer(inp, out, states, initial, final, tuple(arcs))


def random_word(rng: random.Random, tokens, max_len, min_len=0):
    return tuple(rng.choice(tokens) for _ in range(rng.randint(min_len, max_len)))


def merge_dfa_state(dfa: Dfa, keep: int, drop: int):
    """Quotient ``drop`` into ``keep`` and renumber; returns (dfa, old->new)."""
    assert keep != drop
    remap = {}
    for q in range(dfa.state_count):
        if q != drop:
            remap[q] = len(remap)

    def image(q):
        return remap[keep if q == drop else q]

    rows = tuple(
        tuple(image(t) for t in row)
        for q, row in enumerate(dfa.delta)
        if q != drop
    )
    return Dfa(dfa.alphabet, dfa.state_count - 1, image(dfa.start), rows), image


def merge_bimachine_states(b: Bimachine, left_pair=None, right_pair=None) -> Bimachine:
    """Corrupt a bimachine by merging state pairs; the kept state's rows win."""
    left, right, psi = b.left, b.right, dict(b.psi)
    if left_pair is not None:
        keep, drop = left_pair
        left, image = merge_dfa_state(left, keep, drop)
        psi = {
            (image(l), a, r): out
            for (l, a, r), out in psi.items()
            if l != drop
        }
    if right_pair is not None:
        keep, drop = right_pair
        right, image = merge_dfa_state(right, keep, drop)
        psi = {
            (l, a, image(r)): out
            for (l, a, r), out in psi.items()
            if r != drop
        }
    return Bimachine(left, right, psi, b.empty_word_output, b.output_alphabet)


def corrupt_handcrafted(b: Bimachine, params: InstanceParams, rng: random.Random) -> Bimachine:
    """Merge the images of one random probe-word pair on each side."""
    w1, w2 = rng.sample(list(product(params.first_half, repeat=params.n)), 2)
    l1, l2 = b.left.run(w1), b.left.run(w2)
    v1, v2 = rng.sample(list(product(params.second_half, repeat=params.n)), 2)
    r1, r2 = b.right.run(reversed(v1)), b.right.run(reversed(v2))
    assert l1 != l2 and r1 != r2, "probe images must be distinct before merging"
    return merge_bimachine_states(b, left_pair=(l1, l2), right_pair=(r1, r2))


@lru_cache(maxsize=None)
def built(k: int, n: int):
    """Shared per-cell builds: params, generated, prepared, generic, handcrafted."""
    params = InstanceParams(k, n)
    generated = instance_transducer(params)
    prepared = trim(remove_input_epsilons(generated))
    generic = to_bimachine(prepared)
    handcrafted = handcrafted_bimachine(params)
    return params, generated, prepared, generic, handcrafted


@lru_cache(maxsize=None)
def reduced_handcrafted_text(k: int, n: int) -> str:
    """Emitted text of a large cell's reduced handcrafted bimachine, built once."""
    return emit_bimachine(handcrafted_bimachine(InstanceParams(k, n)).reduce())


def assert_psi_invariants(psi):
    """A PsiTable's rows are pairwise distinct, none is all undefined, and
    ``row_of`` uses every one and no other index."""
    width = psi.right_count
    assert len(psi.row_of) == psi.left_count * len(psi.alphabet)
    assert len(psi.rows) == psi.distinct * width
    rows = [psi.rows[i * width : (i + 1) * width].tolist() for i in range(psi.distinct)]
    assert len(set(map(tuple, rows))) == len(rows)
    assert all(max(row) >= 0 for row in rows)
    assert set(psi.row_of) - {-1} == set(range(len(rows)))
    assert all(-1 <= v < len(psi.words) for v in psi.rows)
    assert len(set(psi.words)) == len(psi.words)


def reference_reduce(machine):
    """``Bimachine.reduce`` as it ran over a flat table, recomputed from the
    table's items: left side first, a left state's signature its run of
    cells (letter-major, then by right state), a right state's its column
    (by left state, then by letter), and each block keeping its first
    state's cells."""
    for side in ("left", "right"):
        psi = dict(machine.psi.items())
        symbols = machine.input_alphabet.symbols
        lefts, rights = range(machine.left.state_count), range(machine.right.state_count)
        if side == "left":
            runs = [tuple(psi.get((l, a, r)) for a in symbols for r in rights) for l in lefts]
            reduced, block = moore_reduce(machine.left, runs)
        else:
            columns = [tuple(psi.get((l, a, r)) for l in lefts for a in symbols) for r in rights]
            reduced, block = moore_reduce(machine.right, columns)
        first = {}
        for q, b in enumerate(block):
            first.setdefault(b, q)
        if side == "left":
            table = {(block[l], a, r): out for (l, a, r), out in psi.items()
                     if first[block[l]] == l}
            left, right = reduced, machine.right
        else:
            table = {(l, a, block[r]): out for (l, a, r), out in psi.items()
                     if first[block[r]] == r}
            left, right = machine.left, reduced
        machine = Bimachine(left, right, table, machine.empty_word_output,
                            machine.output_alphabet)
    return machine


class View(NamedTuple):
    """A letter machine with outputs, sorted: ``arcs[q][a]`` lists the
    (output, target) arcs that read letter ``a`` from ``q`` in (output,
    target) order, letters in alphabet order. ``live`` holds the states
    that can accept; only they keep arcs and initial marks."""

    count: int
    initial: list[int]
    final: frozenset[int]
    arcs: dict[int, dict[str, list[tuple[tuple[str, ...], int]]]]
    live: set[int]


def sorted_view(alphabet, count, initial, final, arcs, live):
    """The View of (source, letter, output, target) ``arcs``."""
    table = {}
    for src, tok, out, dst in sorted(arcs, key=lambda a: (alphabet.index(a[1]), a[0], a[2], a[3])):
        if dst in live:
            table.setdefault(src, {}).setdefault(tok, []).append((out, dst))
    return View(count, [q for q in initial if q in live], frozenset(final), table, live)


def reference_view(machine):
    """The letter view of a bimachine, built arc by arc: state ``(l, r)`` is
    ``l * |R| + r``, it reads letter ``a`` to ``(δL(l, a), r')`` when ``δR(r',
    a) = r`` and ``psi(l, a, r')`` is defined, every ``(L.start, r)`` is
    initial and every ``(l, R.start)`` final."""
    width = machine.right.state_count
    arcs, sources = [], {}
    for (l, a, r), out in machine.psi.items():
        src = l * width + machine.right.step(r, a)
        dst = machine.left.step(l, a) * width + r
        arcs.append((src, a, out, dst))
        sources.setdefault(dst, []).append(src)
    finals = [l * width + machine.right.start for l in range(machine.left.state_count)]
    live, stack = set(finals), list(finals)
    while stack:
        for src in sources.get(stack.pop(), ()):
            if src not in live:
                live.add(src)
                stack.append(src)
    starts = [machine.left.start * width + r for r in range(width)]
    return sorted_view(machine.input_alphabet, machine.left.state_count * width, starts, finals,
                       arcs, live)


def transducer_view(t):
    """The letter view of a letter-input transducer; every state counts as
    live."""
    return sorted_view(t.input_alphabet, t.state_count, sorted(t.initial), t.final,
                       [(a.src, a.inp, a.out, a.dst) for a in t.arcs], set(range(t.state_count)))


def view_product(x, y):
    """The product of two Views, pair ``p * y.count + q``: its start pairs,
    and a function giving a pair's edges as (letter, output of x, output of
    y, target, final), in ``x``'s letter order, then ``x``'s arc order, then
    ``y``'s."""
    width = y.count
    starts = [p * width + q for p in x.initial for q in y.initial]

    def edges(pair):
        p, q = divmod(pair, width)
        return [(tok, o1, o2, t1 * width + t2, t1 in x.final and t2 in y.final)
                for tok, left in x.arcs.get(p, {}).items() for o1, t1 in left
                for o2, t2 in y.arcs.get(q, {}).get(tok, ())]

    return starts, edges


def reference_moore_reduce(dfa, signature):
    """``moore_reduce`` as it ran row by row: a round's key for state q is
    its block and the tuple of its targets' blocks."""
    ids = {}
    block = [ids.setdefault(k, len(ids)) for k in signature]
    while True:
        ids = {}
        keys = zip(block, [tuple(map(block.__getitem__, row)) for row in dfa.delta])
        refined = [ids.setdefault(k, len(ids)) for k in keys]
        if refined == block:
            break
        block = refined
    count = max(block) + 1
    rep = [None] * count
    for q, b in enumerate(block):
        if rep[b] is None:
            rep[b] = q
    rows = tuple(tuple(block[t] for t in dfa.delta[rep[b]]) for b in range(count))
    return Dfa(dfa.alphabet, count, block[dfa.start], rows), tuple(block)


def reference_build_psi(t, left_lists, coaccessible) -> PsiTable:
    """``build_psi`` as it ran slot by slot: every (list, letter) scans the
    whole list, its states' arcs in canonical order, first match wins."""
    arcs = t._letter_arcs
    alphabet, right_count = t.input_alphabet, len(coaccessible)
    interner = RowInterner(alphabet, len(left_lists), right_count)
    holders = {}
    for r_id, subset in enumerate(coaccessible):
        for d in subset:
            holders.setdefault(d, []).append(r_id)
    slot = 0
    for lst in left_lists:
        for tok in alphabet.symbols:
            row = [-1] * right_count
            for p in lst:
                for w, d in arcs.get((p, tok), ()):
                    for r_id in holders.get(d, ()):
                        if row[r_id] < 0:
                            row[r_id] = interner.word(w)
            interner.row_of[slot] = interner.intern(array("i", row))
            slot += 1
    return interner.table()


def reference_handcrafted_bimachine(params: InstanceParams) -> Bimachine:
    """``handcrafted_bimachine`` as it was built on ``explore``: the states
    are tuples, numbered in the order a breadth-first search finds them.

    Sliding-window bimachine for the instance family.

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
