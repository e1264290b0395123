"""Brute-force oracles, generators, and corruption helpers shared by the suite.

Everything here recomputes results from first principles (set simulation,
path enumeration, direct word scans) so the library code is checked against
independent implementations.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product

from bimlab import (
    Alphabet,
    Arc,
    Bimachine,
    Dfa,
    InstanceParams,
    Transducer,
    emit_bimachine,
    handcrafted_bimachine,
    instance_transducer,
    remove_input_epsilons,
    to_bimachine,
    trim,
)


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
