"""Exact equivalence (``equivalent``) against the reference function and
against brute-force enumeration."""

import itertools
import random

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
    check_functional,
    equivalent,
    instance_transducer,
    oracle,
)
from bimlab.transducer import _compare
from helpers import (
    built,
    corrupt_handcrafted,
    random_letter_transducer,
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
        # Raw (3,4) handcrafted against the transducer is over the edge cap
        # (269,130 edges); against its reduced machine it is not.
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
    # Paired, a machine's left and right states reach only themselves
    # together, and each path meets only its twin.
    _, _, _, _, handcrafted = built(3, 4)
    reduced = handcrafted.reduce()
    views = reduced.paired_letter_machines(reduced)
    size = reduced.left.state_count * reduced.right.state_count + 1
    assert views[0].state_count == views[1].state_count == size
    assert _compare(reduced, reduced) == (None, 3428)


def test_a_bimachine_view_keeps_only_states_that_can_accept():
    # State (l, r) of the view can accept when some word u has
    # R.run(reversed(u)) == r and psi*(l, u, R.start) defined. The view keeps
    # exactly the arcs into such states; the others guess the right state of
    # the suffix wrongly. Brute force over words up to length 5 finds every
    # such state of these machines.
    for machine in built(2, 1)[3:] + built(2, 2)[3:]:
        left, right = machine.left, machine.right
        width = right.state_count
        live = {l * width + right.run(reversed(u))
                for u in words_upto(machine.input_alphabet.symbols, 5)
                for l in range(left.state_count)
                if machine.psi_star(l, u, right.start) is not None}
        every_arc = {(l * width + right.step(r, a), a, out, left.step(l, a) * width + r)
                     for (l, a, r), out in machine.psi.items()}
        view = machine.letter_machine()
        kept = {(src, a, out, dst) for src, labels in view.arcs.items()
                for a, arcs in labels.items() for out, dst in arcs}
        assert kept == {arc for arc in every_arc if arc[3] in live}
        starts = {left.start * width + r for r in range(width)}
        assert set(view.initial) == starts & live
    # Reduced (3,4) handcrafted: 3,496 view states reachable before, 2,376 now.
    view = built(3, 4)[4].reduce().letter_machine()
    reached, stack = set(view.initial), list(view.initial)
    while stack:
        for arcs in view.arcs.get(stack.pop(), {}).values():
            for _, dst in arcs:
                if dst not in reached:
                    reached.add(dst)
                    stack.append(dst)
    assert len(reached) == 2376


def test_random_bimachine_pairs_agree_with_brute_force():
    # Two machines of different shape, the reduced generic one and the
    # handcrafted one with one seeded change to its psi table, compared
    # through their paired views.
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


def test_product_over_the_cap_is_refused():
    ab, xy = Alphabet(("a", "b")), Alphabet(("x", "y"))
    # 317 x 317 start pairs, refused before any is built.
    starts = Transducer(ab, xy, 317, set(range(317)), {0}, ())
    with pytest.raises(ResourceLimitError, match="equivalence check exceeds"):
        equivalent(starts, starts)
    # One start pair whose arcs fan out to 400 x 400 reached pairs.
    fan = Transducer(ab, xy, 401, {0}, set(range(1, 401)),
                     [Arc(0, "a", ("x",), q) for q in range(1, 401)])
    with pytest.raises(ResourceLimitError, match="state pairs or edges"):
        equivalent(fan, fan)
    # Few pairs with many edges each: 200 states with an arc from each to
    # each; the fourth pair scanned passes EDGE_CAP edges.
    dense = Transducer(ab, xy, 200, {0}, {0},
                       [Arc(p, "a", (), q) for p in range(200) for q in range(200)])
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


def test_paired_views_over_the_cap_are_refused():
    a, x = Alphabet(("a",)), Alphabet(("x",))

    def counter(n):
        return Dfa(a, n, 0, [((q + 1) % n,) for q in range(n)])

    # 400 left pairs times 300 right pairs: 120,000 states.
    wide = Bimachine(counter(400), counter(300), {(0, "a", 0): ("x",)}, None, x)
    with pytest.raises(ResourceLimitError, match="paired views exceed"):
        equivalent(wide, wide)
    narrow = Bimachine(counter(400), counter(200), {(0, "a", 0): ("x",)}, None, x)
    assert equivalent(narrow, narrow) is None


def test_psi_keys_outside_the_machine_are_refused():
    # The machine is refused when it is built, so no comparison can meet it.
    _, _, _, _, handcrafted = built(2, 1)
    for key in ((0, "3", -1), (handcrafted.left.state_count, "3", 0)):
        with pytest.raises(PreconditionError) as info:
            with_psi(handcrafted, {**handcrafted.psi, key: ()})
        assert str(info.value) == f"psi key {key} is outside the machine"
