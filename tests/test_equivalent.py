"""Exact equivalence (``equivalent``) against the reference function and
against brute-force enumeration."""

import hashlib
import itertools
import random
import time
import tracemalloc
from functools import lru_cache

import pytest

from bimlab import (
    Alphabet,
    Arc,
    Bimachine,
    Dfa,
    InstanceParams,
    NonFunctionalError,
    PreconditionError,
    ResourceLimitError,
    Transducer,
    build_right_automaton,
    check_functional,
    equivalent,
    handcrafted_bimachine,
    instance_transducer,
    oracle,
    remove_input_epsilons,
    trim,
)
from bimlab import transducer
from bimlab.fsm import STATE_CAP, explore
from bimlab.transducer import _compare, _suffix_filter, _view
from helpers import (
    built,
    corrupt_handcrafted,
    random_letter_transducer,
    reference_view,
    transducer_view,
    unpruned,
    view_product,
    with_psi,
    words_upto,
)

GRID = [(k, n) for k in (2, 3) for n in (1, 2, 3, 4)]


def boundary_walk(machine, word):
    """The psi keys ``word`` reads, last letter first."""
    lefts = [machine.left.start]
    for tok in word:
        lefts.append(machine.left.step(lefts[-1], tok))
    right = machine.right.start
    for i in range(len(word) - 1, -1, -1):
        yield (lefts[i], word[i], right)
        right = machine.right.step(right, word[i])


def in_domain_word(params, rng):
    """A seeded word of length 2n inside the domain."""
    return (tuple(rng.choice(params.first_half) for _ in range(params.n))
            + tuple(rng.choice(params.second_half) for _ in range(params.n)))


def least_domain_difference(x, y, tokens, max_len):
    """The first word, length-lex, on which exactly one side is defined."""
    for word in words_upto(tokens, max_len):
        if (x(word) is None) != (y(word) is None):
            return word
    return None


@pytest.mark.parametrize("k,n", GRID)
def test_every_grid_machine_is_equivalent_to_its_transducer(k, n):
    params, generated, prepared, generic, handcrafted = built(k, n)
    for raw in (generic, handcrafted):
        reduced = raw.reduce()
        assert equivalent(reduced, prepared) is None
        # Raw (3,4) handcrafted against the transducer examines 63,132 arc
        # pairs in 7,493 pairs.
        assert equivalent(raw, prepared) is None
        assert equivalent(raw, reduced) is None
    assert equivalent(prepared, reduced) is None
    assert equivalent(generated, reduced) is None


@pytest.mark.parametrize("k,n", GRID)
def test_a_changed_boundary_output_is_found(k, n):
    params, _, prepared, generic, handcrafted = built(k, n)
    rng = random.Random(100 * k + n)
    for machine in (generic.reduce(), handcrafted.reduce()):
        key = next(key for key in boundary_walk(machine, in_domain_word(params, rng))
                   if machine.psi[key])
        out = machine.psi[key]
        swapped = next(t for t in params.second_half if t != out[0])
        bad = with_psi(machine, {**machine.psi, key: (swapped, *out[1:])})
        word = equivalent(bad, prepared)
        assert word is not None
        assert bad.evaluate(word) != oracle(params, word)


def test_a_deleted_psi_entry_gives_the_least_word_leaving_the_domain():
    params, _, prepared, _, handcrafted = built(2, 2)
    machine = handcrafted.reduce()
    rng = random.Random(5)
    for _ in range(10):
        key = rng.choice(list(boundary_walk(machine, in_domain_word(params, rng))))
        psi = dict(machine.psi)
        del psi[key]
        bad = with_psi(machine, psi)
        want = least_domain_difference(bad.evaluate, machine.evaluate,
                                       params.alphabet.symbols, 2 * params.n)
        assert want is not None
        assert equivalent(bad, prepared) == want


def test_an_added_psi_entry_gives_the_least_word_entering_the_domain():
    params, _, prepared, _, handcrafted = built(2, 2)
    machine = handcrafted.reduce()
    found = 0
    for key in itertools.product(range(machine.left.state_count), params.alphabet.symbols,
                                 range(machine.right.state_count)):
        if key in machine.psi:
            continue
        # Most absent keys pair states no word reaches together; those keep
        # the function as it is.
        bad = with_psi(machine, {**machine.psi, key: ()})
        want = least_domain_difference(bad.evaluate, machine.evaluate,
                                       params.alphabet.symbols, 5)
        assert equivalent(bad, prepared) == want
        found += want is not None
    assert found >= 20


def test_the_empty_word_is_compared_through_its_own_output():
    params, _, prepared, _, handcrafted = built(2, 1)
    assert prepared.evaluate(()) is None
    defined = with_psi(handcrafted, handcrafted.psi, empty_word_output=())
    assert equivalent(defined, prepared) == ()
    assert equivalent(prepared, defined) == ()
    assert equivalent(defined, with_psi(handcrafted, handcrafted.psi, ("3",))) == ()
    assert equivalent(defined, defined) is None


def test_bimachine_against_bimachine():
    params, _, _, generic, handcrafted = built(2, 2)
    assert equivalent(generic.reduce(), handcrafted.reduce()) is None
    assert equivalent(generic, handcrafted) is None
    bad = corrupt_handcrafted(handcrafted, params, random.Random(3))
    word = equivalent(handcrafted, bad)
    assert word is not None
    assert handcrafted.evaluate(word) != bad.evaluate(word)


def test_two_bimachines_guess_their_right_states_together():
    # Reduced (3,4) handcrafted against itself: with a right state guessed
    # apart on each side, the product reached 103,330 pairs (over the cap).
    # Guessed together, a machine's right states reach only themselves
    # together, one start pair each, and each path meets only its twin.
    _, _, _, _, handcrafted = built(3, 4)
    reduced = handcrafted.reduce()
    view = _view(reduced)
    starts, _, _ = transducer._product(view, view)
    assert len(list(starts)) == reduced.right.state_count
    assert _compare(reduced, reduced) == (None, 3496)


def test_random_bimachine_pairs_agree_with_brute_force():
    # Two machines of different shape, the reduced generic one and the
    # handcrafted one with one seeded change to its psi table, guessing
    # their right states together.
    rng = random.Random(47)
    differ = equal = 0
    for k, n in ((2, 1), (2, 2), (3, 1)):
        params, _, _, generic, handcrafted = built(k, n)
        good, tokens = generic.reduce(), params.alphabet.symbols
        outputs = handcrafted.output_alphabet.symbols
        for _ in range(30):
            psi = dict(handcrafted.psi)
            key = rng.choice(sorted(psi))
            change = rng.randrange(3)
            if change == 0:
                del psi[key]
            else:
                if change == 2:
                    key = (rng.randrange(handcrafted.left.state_count), rng.choice(tokens),
                           rng.randrange(handcrafted.right.state_count))
                psi[key] = tuple(rng.choice(outputs) for _ in range(rng.randint(0, 2)))
            bad = with_psi(handcrafted, psi)
            brute = next((w for w in words_upto(tokens, 2 * n + 1)
                          if good.evaluate(w) != bad.evaluate(w)), None)
            word = equivalent(good, bad)
            if brute is not None:
                assert word is not None
            if word is None:
                equal += 1
            else:
                differ += 1
                assert good.evaluate(word) != bad.evaluate(word)
    assert differ >= 20 and equal >= 10


def test_random_bimachine_pairs_of_any_shape_agree_with_brute_force():
    # Random left and right automata, drawn apart for the two machines: a
    # total table against another total table (equal domains, so the delay
    # search decides), or a machine against its product with two more
    # random automata, the same function on other states, with one output
    # changed half the time.
    rng = random.Random(43)
    ab, xy = Alphabet(("a", "b")), Alphabet(("x", "y"))
    words = [(), ("x",), ("y",), ("x", "y"), ("y", "x")]

    def dfa(most):
        count = rng.randint(1, most)
        return Dfa(ab, count, rng.randrange(count),
                   [[rng.randrange(count) for _ in ab] for _ in range(count)])

    def drawn(density):
        left, right = dfa(4), dfa(4)
        psi = {(l, a, r): rng.choice(words) for l in range(left.state_count) for a in ab
               for r in range(right.state_count) if rng.random() < density}
        return Bimachine(left, right, psi, rng.choice([None, ()]), xy)

    def times(m, d):
        width = d.state_count
        delta = [[m.delta[p][c] * width + d.delta[q][c] for c in range(len(ab))]
                 for p in range(m.state_count) for q in range(width)]
        return Dfa(ab, m.state_count * width, m.start * width + d.start, delta)

    def blown_up(m):
        d, e = dfa(3), dfa(3)
        dw, ew = d.state_count, e.state_count
        psi = {(l * dw + p, a, r * ew + q): out for (l, a, r), out in m.psi.items()
               for p in range(dw) for q in range(ew)}
        return Bimachine(times(m.left, d), times(m.right, e), psi, m.empty_word_output, xy)

    verdicts, searched = {True: 0, False: 0}, 0
    for trial in range(120):
        if trial % 2:
            x, y = drawn(1.0), drawn(1.0)
            y, same = with_psi(y, y.psi, x.empty_word_output), False
        else:
            x = drawn(0.8)
            y = blown_up(x)
            same = rng.random() < 0.5
            if not same and y.psi:
                key = rng.choice(sorted(y.psi))
                y = with_psi(y, {**y.psi, key: rng.choice(
                    [w for w in words if w != y.psi[key]])}, y.empty_word_output)
        (word, pairs), back = _compare(x, y), equivalent(y, x)
        assert (word is None) == (back is None)
        brute = next((w for w in words_upto(ab.symbols, 6) if x.evaluate(w) != y.evaluate(w)),
                     None)
        if same or word is None:
            assert brute is None and word is None
        if brute is not None:
            assert word is not None
        for found in (word, back):
            if found is not None:
                assert x.evaluate(found) != y.evaluate(found)
        verdicts[word is None] += 1
        searched += pairs > 0 and word is not None
    assert verdicts[True] >= 30 and searched >= 60


def test_transducer_against_transducer():
    params = InstanceParams(2, 2)
    merged = instance_transducer(params)
    unmerged = instance_transducer(params, merged=False)
    assert equivalent(merged, unmerged) is None
    # The bridge into the tail chain of 4 now names 3 as its output.
    arcs = [Arc(a.src, a.inp, ("3", a.out[1]), a.dst) if a.out[:1] == ("4",) else a
            for a in merged.arcs]
    bad = Transducer(merged.input_alphabet, merged.output_alphabet, merged.state_count,
                     merged.initial, merged.final, tuple(arcs))
    word = equivalent(bad, unmerged)
    assert word is not None
    assert bad.evaluate(word) != oracle(params, word) == unmerged.evaluate(word)


def test_random_transducers_agree_with_brute_force():
    rng = random.Random(31)
    differ = equal = 0
    for _ in range(100):
        x = random_letter_transducer(rng)
        # Half of the pairs compare a machine with a copy under renamed states.
        if rng.random() < 0.5:
            y = random_letter_transducer(rng)
        else:
            order = list(range(x.state_count))
            rng.shuffle(order)
            y = Transducer(x.input_alphabet, x.output_alphabet, x.state_count,
                           {order[q] for q in x.initial}, {order[q] for q in x.final},
                           [Arc(order[a.src], a.inp, a.out, order[a.dst]) for a in x.arcs])
        brute = next((w for w in words_upto(("a", "b"), 8) if x.relation(w) != y.relation(w)),
                     None)
        try:
            word = equivalent(x, y)
        except NonFunctionalError:
            assert not (check_functional(x).functional and check_functional(y).functional)
            continue
        if brute is not None:
            assert word is not None
        if word is None:
            equal += 1
        else:
            differ += 1
            assert x.evaluate(word) != y.evaluate(word)
    assert differ >= 20 and equal >= 20


def test_different_alphabets_are_refused():
    t = Transducer(Alphabet(("a",)), Alphabet(("x",)), 1, {0}, {0}, ())
    u = Transducer(Alphabet(("b",)), Alphabet(("x",)), 1, {0}, {0}, ())
    with pytest.raises(ValueError, match="different input alphabets"):
        equivalent(t, u)


def test_product_over_the_cap_is_refused(monkeypatch):
    ab, xy = Alphabet(("a", "b")), Alphabet(("x", "y"))
    # 317 x 317 start pairs, refused before any is built when every pair
    # fits. Only state 0 with itself can accept, so pruned there is one.
    starts = Transducer(ab, xy, 317, set(range(317)), {0}, ())
    assert _compare(starts, starts) == (None, 1)
    with monkeypatch.context() as patch:
        unpruned(patch)
        with pytest.raises(ResourceLimitError, match="equivalence check exceeds"):
            equivalent(starts, starts)
    # The start pairs that fit are found from the fitting pairs, not by
    # testing all 10^10 pairs of start states.
    many = Transducer(ab, xy, STATE_CAP, set(range(STATE_CAP)), {0}, ())
    assert _compare(many, many) == (None, 1)
    # One start pair whose arcs fan out to 400 x 400 reached pairs.
    fan = Transducer(ab, xy, 401, {0}, set(range(1, 401)),
                     [Arc(0, "a", ("x",), q) for q in range(1, 401)])
    with pytest.raises(ResourceLimitError, match="state pairs or edges"):
        equivalent(fan, fan)
    # Few pairs with many edges each: 200 states with an arc from each to
    # each; the fourth pair scanned passes EDGE_CAP edges. The suffix
    # filter, whose every pair has 40,000 pairs of predecessors, gives up
    # on its fifth pair, so the search runs unpruned.
    dense = Transducer(ab, xy, 200, {0}, {0},
                       [Arc(p, "a", (), q) for p in range(200) for q in range(200)])
    assert _suffix_filter(_view(dense), _view(dense)) is None
    with pytest.raises(ResourceLimitError, match="state pairs or edges"):
        equivalent(dense, dense)
    with pytest.raises(ResourceLimitError, match="state pairs or edges"):
        check_functional(dense)
    # Many arcs into the one reached pair, all from unreached states: the
    # search only goes forward, so they cost nothing.
    outputs = [tuple("xy"[int(b)] for b in format(i, "b")) for i in range(1, 51)]
    into = Transducer(ab, xy, 51, {0}, {0},
                      [Arc(p, "a", out, 0) for p in range(1, 51) for out in outputs])
    assert check_functional(into).functional
    assert equivalent(into, into) is None
    # By brute force: the empty word alone is in the domain, with one output.
    assert [w for w in words_upto(("a", "b"), 6) if into.relation(w)] == [()]
    assert into.relation(()) == ((),)


def test_too_many_right_pairs_are_refused():
    a, x = Alphabet(("a",)), Alphabet(("x",))

    def counter(left, right):
        def cycle(n):
            return Dfa(a, n, 0, [((q + 1) % n,) for q in range(n)])

        return Bimachine(cycle(left), cycle(right), {(0, "a", 0): ("x",)}, None, x)

    # Against itself a machine's right states pair only with themselves:
    # one start pair each, and the one pair that reads "a" to acceptance.
    wide, narrow = counter(400, 300), counter(400, 200)
    assert _compare(wide, wide) == (None, 301)
    assert _compare(narrow, narrow) == (None, 201)
    # Right counters of 301 and 400 states, coprime, reach all 120,400
    # right pairs together, more than STATE_CAP. Both machines map "a", and
    # only "a", to "x", so the domain check passes and the search runs. The
    # suffix filter gives up, and the unpruned search has too many starts.
    coprime = counter(400, 301), counter(200, 400)
    for pair in (coprime, coprime[::-1]):
        with pytest.raises(ResourceLimitError, match="equivalence check exceeds"):
            equivalent(*pair)


def test_psi_keys_outside_the_machine_are_refused():
    # The machine is refused when it is built, so no comparison can meet it.
    _, _, _, _, handcrafted = built(2, 1)
    for key in ((0, "3", -1), (handcrafted.left.state_count, "3", 0)):
        with pytest.raises(PreconditionError) as info:
            with_psi(handcrafted, {**handcrafted.psi, key: ()})
        assert str(info.value) == f"psi key {key} is outside the machine"


def outcome(x, y):
    """``_compare(x, y)``, or the message of the NonFunctionalError that a
    transducer that is not functional raises when a word is checked."""
    try:
        return _compare(x, y)
    except NonFunctionalError as error:
        return str(error)


@pytest.mark.parametrize("k,n", GRID)
def test_both_orientations_reach_the_same_pairs(k, n, monkeypatch):
    # A bimachine against a transducer is searched with the bimachine
    # first, whichever side is x: both orientations give the same word and
    # the same pair count, pruned and unpruned; pruning only drops pairs.
    # So on the grid machines, on this cell's seeded corruptions and on an
    # eighth of each set of random machines. The total ones reach the search.
    _, _, prepared, generic, handcrafted = built(k, n)
    machines = [handcrafted.reduce()] + ([generic.reduce()] if n <= 3 else [])
    cases = [(m, prepared) for m in machines]
    cases += [(bad, t) for cell, bad, t in corruption_cases() if cell == (k, n)]
    for random_cases in (random_row_cases(), random_total_cases()):
        share = len(random_cases) // len(GRID)
        at = GRID.index((k, n)) * share
        cases += random_cases[at:at + share]
    pruned = [outcome(b, t) for b, t in cases]
    assert all(pairs for _, pairs in pruned[-share:])
    assert [outcome(t, b) for b, t in cases] == pruned
    unpruned(monkeypatch)
    for (b, t), found in zip(cases, pruned):
        plain = outcome(b, t)
        assert outcome(t, b) == plain
        if isinstance(found, tuple):
            assert plain[1] >= found[1]
    assert pruned[:len(machines)] == [(None, pairs) for pairs in GRID_PAIRS[k, n] if pairs]


def test_reduced_3_4_handcrafted_reaches_few_pairs(monkeypatch):
    _, _, prepared, _, handcrafted = built(3, 4)
    reduced = handcrafted.reduce()
    assert _compare(reduced, prepared) == _compare(prepared, reduced) == (None, 7277)
    unpruned(monkeypatch)
    assert _compare(reduced, prepared) == _compare(prepared, reduced) == (None, 20509)


def test_the_suffix_filter_builds_no_pair_of_final_states_past_the_cap():
    # The fan above has 400 final states: 160,000 pairs of final classes,
    # more than STATE_CAP. The filter gives up before it builds one, where
    # the start pairs alone would take megabytes, and the search refuses.
    ab, xy = Alphabet(("a", "b")), Alphabet(("x", "y"))
    fan = Transducer(ab, xy, 401, {0}, set(range(1, 401)),
                     [Arc(0, "a", ("x",), q) for q in range(1, 401)])
    view = _view(fan)
    tracemalloc.start()
    try:
        fits = _suffix_filter(view, view)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fits is None
    assert peak < 2**16
    with pytest.raises(ResourceLimitError, match="state pairs or edges"):
        equivalent(fan, fan)
    with pytest.raises(ResourceLimitError, match="state pairs or edges"):
        check_functional(fan)


def test_suffix_filter_fits_exactly_the_pairs_the_right_automata_meet():
    # Against a transducer, the states that fit a right state r are the
    # union of the co-accessible subsets S that the two right automata reach
    # together with r. Against a second bimachine, the right states r2 that
    # fit r are those the two right automata reach together with r from
    # their starts: the right pairs of that product.
    for k, n in ((2, 2), (3, 2), (2, 3)):
        _, _, prepared, generic, handcrafted = built(k, n)
        dfa, subsets = build_right_automaton(prepared)
        machines = [generic, handcrafted, generic.reduce(), handcrafted.reduce()]
        for machine in machines:
            right = machine.right
            _, joint = explore(machine.input_alphabet, (right.start, dfa.start),
                               lambda j, tok: (right.step(j[0], tok), dfa.step(j[1], tok)))
            union = [set() for _ in range(right.state_count)]
            for r, s in joint:
                union[r] |= subsets[s]
            assert _suffix_filter(_view(machine), _view(prepared)) == {
                r: fit for r, fit in enumerate(union) if fit}
            for other in machines:
                _, joint = explore(machine.input_alphabet, (right.start, other.right.start),
                                   lambda j, tok: (right.step(j[0], tok),
                                                   other.right.step(j[1], tok)))
                pairs = [set() for _ in range(right.state_count)]
                for r, r2 in joint:
                    pairs[r].add(r2)
                assert _suffix_filter(_view(machine), _view(other)) == {
                    r: fit for r, fit in enumerate(pairs) if fit}


def corruptions(machine, rng, count):
    """``count`` seeded copies of ``machine``, each with one psi cell given
    another output word: mostly a changed word, sometimes a deleted cell or
    a new one."""
    keys = sorted(machine.psi)
    outputs = machine.output_alphabet.symbols
    shape = (machine.left.state_count, machine.input_alphabet.symbols,
             machine.right.state_count)
    for _ in range(count):
        psi = dict(machine.psi)
        change = rng.randrange(6)
        if change == 0:
            del psi[rng.choice(keys)]
        else:
            key = rng.choice(keys) if change > 1 else (
                rng.randrange(shape[0]), rng.choice(shape[1]), rng.randrange(shape[2]))
            old = psi.get(key)
            while psi.get(key) == old:
                psi[key] = tuple(rng.choice(outputs) for _ in range(rng.randint(0, 2)))
        yield with_psi(machine, psi)


@lru_cache(maxsize=None)
def corruption_cases():
    """Seeded psi corruptions of reduced generic and handcrafted machines,
    as (cell, corrupted machine, the cell's transducer)."""
    rng = random.Random(11)
    cases = []
    for k, n in ((2, 3), (3, 2), (3, 3)):
        _, _, prepared, generic, handcrafted = built(k, n)
        for machine in (generic.reduce(), handcrafted.reduce()):
            cases += [((k, n), bad, prepared) for bad in corruptions(machine, rng, 12)]
    _, _, prepared, _, handcrafted = built(2, 4)
    cases += [((2, 4), bad, prepared) for bad in corruptions(handcrafted.reduce(), rng, 12)]
    return tuple(cases)


def test_pruning_keeps_every_witness(monkeypatch):
    # On the corruptions, the pruned search reports the very word the
    # unpruned one does, in both orientations, and reaches no more pairs.
    cases = [pair for _, bad, t in corruption_cases() for pair in ((bad, t), (t, bad))]
    pruned = [_compare(x, y) for x, y in cases]
    unpruned(monkeypatch)
    searched = 0
    for (x, y), (word, pairs) in zip(cases, pruned):
        want, want_pairs = _compare(x, y)
        assert word == want
        assert pairs <= want_pairs
        searched += pairs > 0 and word is not None
    assert searched >= 80


def random_pairs():
    """50 seeded random transducers, each with a copy in which one arc emits
    another word: mostly equal domains, so most pairs reach the search."""
    rng = random.Random(26)
    pairs = []
    for _ in range(50):
        x = random_letter_transducer(rng)
        arcs = list(x.arcs)
        if arcs:
            at = rng.randrange(len(arcs))
            arcs[at] = arcs[at]._replace(out=tuple(rng.choice("xy")
                                                   for _ in range(rng.randint(0, 3))))
        pairs.append((x, Transducer(x.input_alphabet, x.output_alphabet, x.state_count,
                                    x.initial, x.final, arcs)))
    return pairs


def pinned_outcomes():
    """``outcome`` of every corruption case and of ``random_pairs``, and the
    witness of each of 60 seeded random transducers that
    ``check_functional`` finds not functional, as a list."""
    found = [outcome(bad, t) for _, bad, t in corruption_cases()]
    found += [outcome(x, y) for x, y in random_pairs()]
    rng = random.Random(2026)
    for _ in range(60):
        report = check_functional(random_letter_transducer(rng))
        if not report.functional:
            found.append(report.witness)
    return found


# SHA-256 of the repr of ``pinned_outcomes()`` and of what each delay
# search it runs returns, recorded while the search still kept a parent per
# pair. Those searches stop on all three witnesses: 28 on a final pair
# reached with a delay, 33 on a split delay whose continuation reaches a
# final pair and 38 on a pair reached with two delays (two words).
OUTCOMES_SHA256 = "9129b56a63f88f22c7f347376cf539b999f503749ee5aa03fe269b3a12733e9c"


def test_the_searches_keep_their_words_and_pair_counts(monkeypatch):
    searched = []
    search = transducer._delay_search

    def recording(*args):
        searched.append(search(*args))
        return searched[-1]

    corruption_cases()  # built first: building checks each transducer's functionality
    monkeypatch.setattr(transducer, "_delay_search", recording)
    found = pinned_outcomes()
    assert len(found) == 84 + 50 + 24
    assert len([words for words, _ in searched if len(words) == 2]) == 38
    digest = hashlib.sha256(repr((found, searched)).encode()).hexdigest()
    assert digest == OUTCOMES_SHA256


def watched_search(x, y):
    """The delay search of the product of ``x`` and ``y``, watched: what it
    returns, the (rebuild?, pair, letter) of each group ``successors``
    yields, the groups built by the time the rebuild starts (None without
    one) and in all. A call with another ``spend`` than the first call's is
    the rebuild's."""
    builds = 0

    def counted(view):
        def moves(index, fitting):
            units, arcs = view.moves(index, fitting)

            def counting(key, pos):
                nonlocal builds
                builds += 1
                return arcs(key, pos)

            return units, counting

        return view._replace(moves=moves)

    vx = counted(_view(x))
    vy = vx if y is x else counted(_view(y))
    starts, successors, words = transducer._product(vx, vy)
    walked, first, before = [], [], []

    def watching(pair, spend):
        if not first:
            first.append(spend)
        rebuild = spend is not first[0]
        if rebuild and not before:
            before.append(builds)
        for tok, base, edges in successors(pair, spend):
            walked.append((rebuild, pair, tok))
            yield tok, base, edges

    found = transducer._delay_search(starts, watching, "check", words)
    return found, walked, (before or [None])[0], builds


def test_the_rebuild_walks_only_groups_the_search_walked():
    # On "a" the start pair reaches pair (1, 1), id 4, with the empty delay
    # and then with the delay ((), x), and from (1, 1) "a" accepts. So the
    # search stops inside the start pair's walk, before it builds the group
    # on "b", and the word to (1, 1) is rebuilt by walking the start pair's
    # group on "a" again, with a spend that counts nothing.
    t = Transducer(Alphabet(("a", "b")), Alphabet(("x",)), 3, {0}, {2},
                   [Arc(0, "a", (), 1), Arc(0, "a", ("x",), 1), Arc(1, "a", (), 2),
                    Arc(0, "b", (), 2)])
    (words, pairs), walked, before, builds = watched_search(t, t)
    assert (words, pairs) == ([("a", "a"), ("a", "a")], 2)
    assert walked == [(False, 0, "a"), (False, 4, "a"), (True, 0, "a")]
    assert before == builds
    _, successors, _ = transducer._product(_view(t), _view(t))
    assert [tok for tok, _, _ in successors(0, lambda n: None)] == ["a", "b"]
    assert check_functional(t).witness == ("a", "a")
    # On every seeded case the rebuild yields only groups the search
    # yielded and builds none.
    cases = ([(bad, prepared) for _, bad, prepared in corruption_cases()]
             + list(random_row_cases()) + list(random_total_cases()))
    rebuilds = 0
    for x, y in cases:
        _, walked, before, builds = watched_search(x, y)
        searched = {(pair, tok) for rebuild, pair, tok in walked if not rebuild}
        again = [(pair, tok) for rebuild, pair, tok in walked if rebuild]
        assert set(again) <= searched
        assert before in (None, builds)
        rebuilds += bool(again)
    assert rebuilds >= 50


def nth_letter_is_a(m):
    """``w -> w`` on the words over {a, b} whose letter m+1 is ``a``: a
    transducer with m+2 states, whose reversed determinization has 2^(m+1)+1
    states, and a bimachine with a left counter and a right automaton that
    tells the last letter from the others. Also that bimachine with one
    output changed after position m+1."""
    ab = Alphabet(("a", "b"))
    t = Transducer(ab, ab, m + 2, {0}, {m + 1},
                   [Arc(i, x, (x,), i + 1) for i in range(m) for x in "ab"]
                   + [Arc(m, "a", ("a",), m + 1)]
                   + [Arc(m + 1, x, (x,), m + 1) for x in "ab"])
    sink = m + 2
    left = Dfa(ab, m + 3, 0, [(i + 1, i + 1) for i in range(m)]
               + [(m + 1, sink), (m + 1, m + 1), (sink, sink)])
    right = Dfa(ab, 2, 0, [(1, 1), (1, 1)])  # 0: empty suffix, 1: nonempty
    psi = {(l, x, r): (x,) for l in range(m + 2) for x in "ab" for r in (0, 1)
           if l == m + 1 or (l == m and x == "a") or (l < m and r == 1)}
    good = Bimachine(left, right, psi, None, ab)
    bad = with_psi(good, {**psi, (m + 1, "b", 0): ("a",)})
    return t, good, bad


def test_a_transducer_past_the_determinization_cap_keeps_its_verdict(monkeypatch):
    # The fitting pairs need no subset construction, so a transducer whose
    # right automaton build_right_automaton would refuse (2^18 + 1 states at
    # m = 17) is pruned all the same, in a few pairs and milliseconds.
    for m in (1, 2, 3, 4):
        t, _, _ = nth_letter_is_a(m)
        assert build_right_automaton(t)[0].state_count == 2 ** (m + 1) + 1
    t, good, bad = nth_letter_is_a(17)
    assert 2 ** 18 + 1 > STATE_CAP
    mismatch = ("a",) * 18 + ("b",)
    cases = [(good, t), (t, good), (bad, t), (t, bad)]
    started = time.perf_counter()
    pruned = [_compare(x, y) for x, y in cases]
    pruned_s = time.perf_counter() - started
    unpruned(monkeypatch)
    started = time.perf_counter()
    plain = [_compare(x, y) for x, y in cases]
    plain_s = time.perf_counter() - started
    assert [w for w, _ in pruned] == [w for w, _ in plain] == [None, None, mismatch, mismatch]
    assert [p for _, p in pruned] == [20, 20, 20, 20]
    assert [p for _, p in plain] == [21, 21, 21, 21]
    assert pruned_s < plain_s + 0.1


def test_too_many_fitting_pairs_run_the_search_unpruned():
    # A transducer with a 400-state counter that no initial state reaches,
    # against a bimachine with a 300-state right counter: all 120,000
    # (right state, counter state) pairs fit, more than STATE_CAP. The
    # search runs unpruned and needs only the 300 reachable pairs.
    a, x = Alphabet(("a",)), Alphabet(("x",))
    junk = [Arc(q, "a", ("x",), 1 + q % 400) for q in range(1, 401)]
    t = Transducer(a, x, 401, {0}, set(range(401)), [Arc(0, "a", ("x",), 0)] + junk)
    counter = Dfa(a, 300, 0, [((q + 1) % 300,) for q in range(300)])
    good = Bimachine(Dfa(a, 1, 0, [(0,)]), counter,
                     {(0, "a", r): ("x",) for r in range(300)}, (), x)
    bad = with_psi(good, {**good.psi, (0, "a", 5): ("x", "x")}, ())
    assert _suffix_filter(_view(good), _view(t)) is None
    assert _compare(good, t) == _compare(t, good) == (None, 300)
    word, _ = _compare(bad, t)
    assert word is not None and bad.evaluate(word) != t.evaluate(word)
    # 10,000 right states and 10,000 counter states: 10^8 pairs fit. A set
    # of fitting states per right state would take gigabytes. The search
    # holds the 10,000 reachable pairs, and the whole comparison peaks at
    # 21.8 MiB, most of it the suffix filter's search up to STATE_CAP.
    size = 10**4
    junk = [Arc(q, "a", ("x",), 1 + q % size) for q in range(1, size + 1)]
    t = Transducer(a, x, size + 1, {0}, set(range(size + 1)), [Arc(0, "a", ("x",), 0)] + junk)
    counter = Dfa(a, size, 0, [((q + 1) % size,) for q in range(size)])
    good = Bimachine(Dfa(a, 1, 0, [(0,)]), counter,
                     {(0, "a", r): ("x",) for r in range(size)}, (), x)
    assert good.right.state_count * t.state_count >= 10**8
    tracemalloc.start()
    try:
        found = _compare(good, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == (None, size)
    assert peak < 24 * 2**20


# The pairs the reduced handcrafted and generic machines of each grid cell
# reach against their transducer (generic only for n <= 3).
GRID_PAIRS = {(2, 1): (9, 7), (2, 2): (38, 30), (2, 3): (134, 102), (2, 4): (450, None),
              (3, 1): (15, 9), (3, 2): (119, 65), (3, 3): (905, 419), (3, 4): (7277, None)}


@pytest.mark.parametrize("k,n", GRID)
def test_a_bimachine_meets_a_transducer_without_its_letter_view(k, n):
    # The domain check and the search read the bimachine from its psi rows.
    _, _, prepared, generic, handcrafted = built(k, n)
    machines = [handcrafted.reduce()] + ([generic.reduce()] if n <= 3 else [])
    for machine, pairs in zip(machines, GRID_PAIRS[k, n]):
        assert _compare(machine, prepared) == _compare(prepared, machine) == (None, pairs)


def test_the_domain_check_steps_as_many_subsets_as_the_letter_views_did(monkeypatch):
    # A bimachine's subsets are stepped from its rows without the letter
    # view's trim; on these machines the subset product keeps its size.
    sizes = []

    def counting(*args, **kwargs):
        dfa, states = explore(*args, **kwargs)
        sizes.append(dfa.state_count)
        return dfa, states

    monkeypatch.setattr(transducer, "explore", counting)
    for (k, n), index, want in (((2, 4), 4, 36), ((3, 3), 3, 26), ((3, 3), 4, 44),
                                ((3, 4), 4, 126)):
        cell = built(k, n)
        sizes.clear()
        assert transducer._domain_difference(_view(cell[index].reduce()), _view(cell[2])) is None
        assert sizes == [want]


def test_the_largest_handcrafted_cells_step_as_many_subsets(monkeypatch):
    # The domain checks that remember their steps most often: reduced
    # handcrafted (3,5) and (2,8) against their prepared transducers.
    sizes = []

    def counting(*args, **kwargs):
        dfa, states = explore(*args, **kwargs)
        sizes.append(dfa.state_count)
        return dfa, states

    monkeypatch.setattr(transducer, "explore", counting)
    for k, n, want in ((3, 5, 370), (2, 8, 520)):
        params = InstanceParams(k, n)
        prepared = trim(remove_input_epsilons(instance_transducer(params)))
        machine = handcrafted_bimachine(params).reduce()
        sizes.clear()
        assert transducer._domain_difference(_view(machine), _view(prepared)) is None
        assert sizes == [want]


def test_one_row_read_on_two_letters_steps_each_letter_by_its_own_column():
    # Left state 0 reads "a" and "b" through one row, defined at right
    # states 0 and 1, while R's columns differ: a keeps 0 and takes 1 to
    # 2, b takes 0 to 1 and keeps 1. So a word is defined exactly when no
    # "a" after its first letter comes before a "b". A step remembered
    # for the row and the right states alone would read "b" as "a".
    ab, x = Alphabet(("a", "b")), Alphabet(("x",))
    right = Dfa(ab, 3, 0, [(0, 1), (2, 1), (2, 2)])
    psi = {(0, a, r): ("x",) for a in "ab" for r in (0, 1)}
    machine = Bimachine(Dfa(ab, 1, 0, [(0, 0)]), right, psi, (), x)
    assert machine.psi.distinct == 1
    total = Transducer(ab, x, 1, {0}, {0}, [Arc(0, "a", ("x",), 0), Arc(0, "b", ("x",), 0)])
    want = least_domain_difference(machine.evaluate, total.evaluate, ab.symbols, 4)
    assert want == ("a", "a", "b")
    assert equivalent(machine, total) == equivalent(total, machine) == want


def test_left_states_with_other_rows_on_the_same_letters_share_no_edges():
    # After "a" and after "b" the bimachine is in left states 1 and 2 with
    # one right guess, and the transducer in its state 1. Both left states
    # read "a" and "b", through rows that emit "x" and "y". Edges shared
    # by the guess and the transducer state alone would emit "x" after
    # "b" too.
    ab, xy = Alphabet(("a", "b")), Alphabet(("x", "y"))
    left = Dfa(ab, 4, 0, [(1, 2), (3, 3), (3, 3), (3, 3)])
    right = Dfa(ab, 3, 0, [(1, 1), (2, 2), (2, 2)])  # suffix length, capped at 2
    psi = {(0, a, 1): () for a in "ab"}
    psi.update({(l, a, 0): (out,) for l, out in ((1, "x"), (2, "y")) for a in "ab"})
    machine = Bimachine(left, right, psi, None, xy)
    # The transducer emits at the first letter what the bimachine emits at
    # the second.
    t = Transducer(ab, xy, 3, {0}, {2}, [Arc(0, "a", ("x",), 1), Arc(0, "b", ("y",), 1),
                                        Arc(1, "a", (), 2), Arc(1, "b", (), 2)])
    assert _compare(machine, t) == _compare(t, machine) == (None, 4)
    psi.update({(2, a, 0): ("x",) for a in "ab"})
    changed = with_psi(machine, psi)
    word = equivalent(changed, t)
    assert word in (("b", "a"), ("b", "b")) and changed.evaluate(word) == ("x",)


def test_raw_3_4_handcrafted_is_decided_exactly():
    # Counted before the fit test, its arc pairs passed EDGE_CAP (213,798);
    # the groups scan and walk 63,132.
    _, _, prepared, _, handcrafted = built(3, 4)
    assert _compare(handcrafted, prepared) == _compare(prepared, handcrafted) == (None, 7493)


def test_two_bimachines_are_compared_without_letter_views():
    # Their domains are stepped from the psi rows, and so is the search.
    params, _, _, generic, handcrafted = built(2, 2)
    bad = corrupt_handcrafted(handcrafted, params, random.Random(3))
    word = equivalent(handcrafted, bad)
    assert word is not None and handcrafted.evaluate(word) != bad.evaluate(word)
    assert equivalent(generic, handcrafted) is None
    _, _, _, _, big = built(3, 4)
    assert _compare(big.reduce(), big.reduce()) == (None, 3496)
    for key in list(boundary_walk(handcrafted, ("1", "1", "3", "3")))[:2]:
        psi = dict(handcrafted.psi)
        del psi[key]
        cut = with_psi(handcrafted, psi)
        word = equivalent(cut, handcrafted)
        assert word is not None
        assert word == least_domain_difference(cut.evaluate, handcrafted.evaluate,
                                               params.alphabet.symbols, 4)


def test_a_group_over_the_edge_cap_is_refused():
    # A right automaton that every right state leaves for state 0 on "a",
    # with a psi cell at each of 400 right states, against a transducer
    # with 400 arcs on "a": the first group pairs 400 x 400 arcs, and all
    # of them fit, which is more than EDGE_CAP.
    ab, x = Alphabet(("a", "b")), Alphabet(("x",))
    right = Dfa(ab, 400, 0, [(0, min(r + 1, 399)) for r in range(400)])
    psi = {(0, a, r): ("x",) for a in "ab" for r in range(400)}
    machine = Bimachine(Dfa(ab, 1, 0, [(0, 0)]), right, psi, (), x)
    t = Transducer(ab, x, 1, {0}, {0},
                   [Arc(0, "a", ("x",) * i, 0) for i in range(400)] + [Arc(0, "b", ("x",), 0)])
    assert _suffix_filter(_view(machine), _view(t)) is not None
    for pair in ((machine, t), (t, machine)):
        with pytest.raises(ResourceLimitError, match="state pairs or edges"):
            _compare(*pair)


def test_distinct_delays_are_capped():
    # A product built by hand: pair 1 holds a delay of 1,000 tokens, and its
    # edges lead, each with another one-token output, to pairs already held
    # with the empty delay, from which no final pair can be reached. Each
    # edge steps to a new delay of 1,001 tokens. With the delay of pair 1,
    # 98 of them fit in STATE_CAP tokens (99,098), 99 do not (100,099).
    words = ((), ("x",) * 1000) + tuple((f"y{i}",) for i in range(100))
    span = len(words)

    def search(targets):
        def successors(pair, spend):
            spend(1)
            if pair == 0:
                yield "a", 0, [(1 * span, 1, False)]
            elif pair == 1:
                yield "b", 0, [((2 + i) * span, 2 + i, False) for i in range(targets)]

        return transducer._delay_search([0] + [2 + i for i in range(targets)], successors,
                                        "search", words)

    assert search(98) == ([], 100)
    with pytest.raises(ResourceLimitError, match="search exceeds"):
        search(99)


def test_reduced_3_4_examines_few_arc_pairs():
    # Building the 1,377 groups scans 4,530 arc pairs (at least 1 per
    # group), and the search walks 41,592 edges; counted before the fit
    # test, the letter views' product examined 103,800.
    _, _, prepared, _, handcrafted = built(3, 4)
    starts, successors, words = transducer._product(_view(handcrafted.reduce()), _view(prepared))
    spent, walked = [], []

    def counting(pair, spend):
        def record(n):
            spent.append(n)
            spend(n)

        for tok, base, edges in successors(pair, record):
            walked.append(len(edges))
            yield tok, base, edges

    assert transducer._delay_search(starts, counting, "check", words) == ([], 7277)
    assert (sum(spent), sum(walked)) == (46122, 41592)


def test_reduced_3_4_is_checked_in_little_memory():
    # The search keeps one delay id per pair and no parent link. Keeping a
    # (parent, letter) link per pair, this check peaked at 1.84-2.07 MiB
    # under tracemalloc; with a delay id alone, at 1.22-1.40 MiB (the lower
    # figures once the process has run one check).
    _, _, prepared, _, handcrafted = built(3, 4)
    reduced = handcrafted.reduce()
    tracemalloc.start()
    try:
        found = _compare(reduced, prepared)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == (None, 7277)
    assert peak < 1.7 * 2**20


def decoded(product, pairs):
    """Per pair of ``pairs``, its edges as (label, first output, second
    output, target, final), in the order ``product`` lists them."""
    _, successors, words = product
    span = len(words)
    return {pair: [(tok, words[w // span], words[w % span], base + offset, final)
                   for tok, base, edges in successors(pair, lambda n: None)
                   for w, offset, final in edges]
            for pair in pairs}


def reached(product):
    """The start pairs of ``product`` and every pair it reaches from them,
    breadth-first."""
    starts = list(product[0])
    seen, order = set(starts), list(starts)
    for pair in order:
        for edge in decoded(product, [pair])[pair]:
            if edge[3] not in seen:
                seen.add(edge[3])
                order.append(edge[3])
    return starts, order


def class_of(machine, state):
    """The class of ``state``: a bimachine state's right state, or a
    transducer state itself."""
    return state % machine.right.state_count if isinstance(machine, Bimachine) else state


def assert_rows_match_views(first, second):
    """At every pair the product of ``first`` and ``second`` reaches, each a
    bimachine or a letter-input transducer, its edges into pairs of states
    that can accept are the edges of the sorted views' product whose target
    fits, in the same order; so are its start pairs."""
    fits = _suffix_filter(_view(first), _view(second))
    if fits is None:
        return
    x, y = (reference_view(m) if isinstance(m, Bimachine) else transducer_view(m)
            for m in (first, second))

    def fitting(pair):
        s, q = divmod(pair, y.count)
        return class_of(second, q) in fits.get(class_of(first, s), ())

    def accepting(pair):
        s, q = divmod(pair, y.count)
        return s in x.live and q in y.live

    rows = transducer._product(_view(first), _view(second))
    want_starts, edges = view_product(x, y)
    starts, order = reached(rows)
    assert [s for s in starts if accepting(s)] == [s for s in want_starts if fitting(s)]
    got = decoded(rows, order)
    for pair in order:
        assert [e for e in got[pair] if accepting(e[3])] == [e for e in edges(pair)
                                                             if fitting(e[3])]


def in_alphabet(t, alphabet):
    """``t`` with the same arcs over ``alphabet``, the same letters in
    another order."""
    return Transducer(alphabet, t.output_alphabet, t.state_count, t.initial, t.final, t.arcs)


@lru_cache(maxsize=None)
def random_row_cases():
    """Random bimachines whose right states of one letter go anywhere and
    whose outputs repeat across arcs, each with a random transducer. Every
    other case orders its alphabet b, a, unlike the letters' spelling."""
    rng = random.Random(41)
    xy = Alphabet(("x", "y"))
    words = [(), ("x",), ("y",), ("x", "y"), ("y", "x")]

    def dfa():
        count = rng.randint(1, 6)
        return Dfa(ab, count, rng.randrange(count),
                   [[rng.randrange(count) for _ in ab] for _ in range(count)])

    cases = []
    for i in range(80):
        ab = Alphabet(("a", "b") if i % 2 == 0 else ("b", "a"))
        left, right = dfa(), dfa()
        psi = {(l, a, r): rng.choice(words) for l in range(left.state_count) for a in ab
               for r in range(right.state_count) if rng.random() < 0.6}
        t = in_alphabet(random_letter_transducer(rng), ab)
        cases.append((Bimachine(left, right, psi, None, xy), t))
    return tuple(cases)


@lru_cache(maxsize=None)
def random_total_cases():
    """Random bimachines whose every psi cell is defined, each with a random
    complete deterministic transducer whose every state accepts. Both are
    defined on every word and give the empty word the empty output, so the
    domain check passes and every case reaches the delay search. Every
    other case orders its alphabet b, a."""
    rng = random.Random(19)
    xy = Alphabet(("x", "y"))
    words = [(), ("x",), ("y",), ("x", "y"), ("y", "x")]

    def dfa():
        count = rng.randint(1, 6)
        return Dfa(ab, count, rng.randrange(count),
                   [[rng.randrange(count) for _ in ab] for _ in range(count)])

    cases = []
    for i in range(80):
        ab = Alphabet(("a", "b") if i % 2 == 0 else ("b", "a"))
        left, right = dfa(), dfa()
        psi = {(l, a, r): rng.choice(words) for l in range(left.state_count) for a in ab
               for r in range(right.state_count)}
        count = rng.randint(1, 5)
        t = Transducer(ab, xy, count, {0}, set(range(count)),
                       [Arc(q, a, rng.choice(words), rng.randrange(count))
                        for q in range(count) for a in ab])
        cases.append((Bimachine(left, right, psi, (), xy), t))
    return tuple(cases)


def test_row_groups_are_the_letter_views_fitting_edges_in_order():
    # Grid machines (equal domains, so every fitting target can accept) and
    # random machines, against transducers and against each other.
    for k, n in ((2, 3), (3, 2), (3, 3)):
        _, _, prepared, generic, handcrafted = built(k, n)
        machines = (generic.reduce(), handcrafted.reduce())
        for machine in machines:
            assert_rows_match_views(machine, prepared)
            for other in machines:
                assert_rows_match_views(machine, other)
    cases = random_row_cases()
    # Two cases apart, so that both machines order their letters alike.
    for (machine, t), (other, _) in zip(cases, cases[2:] + cases[:2]):
        assert_rows_match_views(machine, t)
        assert_rows_match_views(machine, other)
        assert_rows_match_views(machine, machine)


def test_the_letter_product_is_the_sorted_views_product():
    # Every pair two random transducers reach lists the edges of their
    # sorted views' product into pairs that can reach a final pair, in the
    # same order, and the start pairs are those that can; also with the
    # letters ordered b, a, unlike their spelling.
    rng = random.Random(53)
    ba = Alphabet(("b", "a"))
    for _ in range(150):
        x, y = random_letter_transducer(rng), random_letter_transducer(rng)
        bx, by = in_alphabet(x, ba), in_alphabet(y, ba)
        for first, second in ((x, y), (x, x), (bx, by)):
            assert _suffix_filter(_view(first), _view(second)) is not None
            assert_rows_match_views(first, second)
    # Start states whose fitting set iterates out of order: {1, 64}.
    wide = Transducer(x.input_alphabet, x.output_alphabet, 65, {1, 64}, {1, 64}, ())
    assert list({1, 64}) != [1, 64]
    assert_rows_match_views(wide, wide)


@pytest.mark.parametrize("k,n", GRID)
def test_the_letter_view_is_the_sorted_one(k, n):
    # A bimachine's letter view is now only implicit in its row groups. On
    # every grid cell, raw and reduced, they are the sorted view's fitting
    # edges in order, against the transducer and, up to n = 3, against the
    # cell's reduced handcrafted machine.
    _, _, prepared, generic, handcrafted = built(k, n)
    machines = [handcrafted] + ([generic] if n <= 3 else [])
    reduced = handcrafted.reduce()
    for machine in machines + [m.reduce() for m in machines]:
        assert_rows_match_views(machine, prepared)
        if n <= 3:
            assert_rows_match_views(machine, reduced)
