import random
import tracemalloc

import pytest

from bimlab import (
    InstanceParams,
    ResourceLimitError,
    UnknownSymbolError,
    check_functional,
    handcrafted_bimachine,
    instance_transducer,
    oracle,
    remove_input_epsilons,
    trim,
)
from helpers import built, random_word, reference_handcrafted_bimachine, words_upto


def w(text):
    return tuple(text) if text else ()


def test_params_validation():
    with pytest.raises(ValueError):
        InstanceParams(1, 1)
    with pytest.raises(ValueError):
        InstanceParams(2, 0)
    p = InstanceParams(3, 2)
    assert p.alphabet.symbols == ("1", "2", "3", "4", "5", "6")
    assert p.first_half == ("1", "2", "3")
    assert p.second_half == ("4", "5", "6")


def test_params_over_the_state_cap_are_refused():
    # The unmerged transducer has 2k(n+1) states: 100,000 at (2, 24999).
    assert InstanceParams(2, 24999).n == 24999
    for k, n in ((2, 25000), (3, 16666), (2, 10**9)):
        with pytest.raises(ResourceLimitError, match="over the cap"):
            InstanceParams(k, n)


def test_oracle_basic_values():
    p21 = InstanceParams(2, 1)
    assert oracle(p21, w("13")) == ("3", "1")
    assert oracle(p21, w("2214")) == ("4", "1")
    assert oracle(p21, ()) is None
    p22 = InstanceParams(2, 2)
    assert oracle(p22, w("121344")) == ("4", "2")
    assert oracle(p22, w("1234")) == ("4", "1")


def test_oracle_rejects_malformed_blocks():
    p = InstanceParams(2, 1)
    assert oracle(p, w("31")) is None  # starts in the second half
    assert oracle(p, w("131")) is None  # first-half symbol after the second block
    assert oracle(p, w("11")) is None  # no second block
    assert oracle(p, w("33")) is None  # no first block
    p2 = InstanceParams(2, 2)
    assert oracle(p2, w("134")) is None  # first block too short
    assert oracle(p2, w("113")) is None  # second block too short


def test_oracle_unknown_symbol():
    # The later words are undefined from their first letter on.
    for word in (("9",), ("3", "9"), ("3", "1", "9")):
        with pytest.raises(UnknownSymbolError):
            oracle(InstanceParams(2, 1), word)


def test_params_cache_keeps_equality_and_hash():
    p = InstanceParams(3, 2)
    assert p.alphabet is p.alphabet
    assert p.first_half + p.second_half == p.alphabet.symbols
    q = InstanceParams(3, 2)
    assert p == q and hash(p) == hash(q)
    assert {p: "cell"}[q] == "cell" and {q: "cell"}[p] == "cell"
    assert p != InstanceParams(2, 3)


def test_oracle_undefined_below_2n():
    for (k, n) in [(2, 2), (3, 1)]:
        p = InstanceParams(k, n)
        for word in words_upto(p.alphabet.symbols, 2 * n - 1):
            assert oracle(p, word) is None


def test_oracle_position_picking():
    # i is the symbol followed by exactly n-1 first-block symbols; j is the
    # n-th symbol of the second block.
    p = InstanceParams(3, 3)
    word = w("122131") + w("456546")
    assert oracle(p, word) == ("6", "1")


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_state_count_formulas(k, n):
    p = InstanceParams(k, n)
    assert instance_transducer(p, merged=True).state_count == 2 * k * n + 2
    assert instance_transducer(p, merged=False).state_count == 2 * k * (n + 1)


def test_bridge_arcs():
    p = InstanceParams(2, 1)
    t = instance_transducer(p)
    bridges = [a for a in t.arcs if a.inp is None]
    assert len(bridges) == 4
    assert sorted(a.out for a in bridges) == [
        ("3", "1"), ("3", "2"), ("4", "1"), ("4", "2"),
    ]


def test_unmerged_has_k_initials_and_finals():
    p = InstanceParams(3, 2)
    t = instance_transducer(p, merged=False)
    assert len(t.initial) == 3
    assert len(t.final) == 3
    merged = instance_transducer(p, merged=True)
    assert len(merged.initial) == 1
    assert len(merged.final) == 1


def test_merged_and_unmerged_define_the_same_function():
    p = InstanceParams(2, 1)
    merged = instance_transducer(p, merged=True)
    unmerged = instance_transducer(p, merged=False)
    for word in words_upto(p.alphabet.symbols, 4):
        assert merged.relation(word) == unmerged.relation(word)


def test_prepared_instance_matches_oracle():
    for (k, n) in [(2, 1), (2, 2)]:
        params, _, prepared, _, _ = built(k, n)
        for word in words_upto(params.alphabet.symbols, 2 * n + 2):
            assert prepared.evaluate(word) == oracle(params, word)


def test_handcrafted_examples():
    _, _, _, _, hc = built(2, 1)
    assert hc.evaluate(w("13")) == ("3", "1")
    assert hc.evaluate(w("31")) is None
    assert hc.evaluate(()) is None


def test_handcrafted_sizes_golden():
    # Frozen after the first verified build; the closed form is
    # left = S + 2, right = S + 3 with S = sum of k^c for c in 0..n.
    expected = {
        (2, 1): (5, 6),
        (2, 2): (9, 10),
        (2, 3): (17, 18),
        (2, 4): (33, 34),
        (3, 1): (6, 7),
        (3, 2): (15, 16),
        (3, 3): (42, 43),
        (3, 4): (123, 124),
    }
    for (k, n), (left, right) in expected.items():
        hc = handcrafted_bimachine(InstanceParams(k, n))
        assert (hc.left.state_count, hc.right.state_count) == (left, right)
        assert hc.total_states <= 6 * k**n + 12


HANDCRAFTED_CELLS = [(k, n) for k in range(2, 6) for n in range(1, 6) if k**n <= 1024] + [(2, 8)]


@pytest.mark.parametrize("k,n", HANDCRAFTED_CELLS, ids=[f"{k}-{n}" for k, n in HANDCRAFTED_CELLS])
def test_handcrafted_matches_the_explored_machine(k, n):
    params = InstanceParams(k, n)
    got, want = handcrafted_bimachine(params), reference_handcrafted_bimachine(params)
    for side in ("left", "right"):
        a, b = getattr(got, side), getattr(want, side)
        assert (a.state_count, a.start, a.delta) == (b.state_count, b.start, b.delta)
    assert got.psi.row_of == want.psi.row_of
    assert got.psi.rows == want.psi.rows
    assert got.psi.words == want.psi.words


def test_handcrafted_caps_refuse_before_building():
    # (2,17) has 2^18 + 1 = 262,145 left states: refused from (k, n) alone.
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="^state space exceeded 100000 states$"):
            handcrafted_bimachine(InstanceParams(2, 17))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(ResourceLimitError,
                       match="^psi table of 3282 x 6 x 3283 cells exceeds 16777216$"):
        handcrafted_bimachine(InstanceParams(3, 7))


def test_handcrafted_matches_oracle_exhaustively_2_2():
    params, _, _, _, hc = built(2, 2)
    for word in words_upto(params.alphabet.symbols, 6):
        assert hc.evaluate(word) == oracle(params, word)


def test_triple_agreement_exhaustive_small():
    for (k, n) in [(2, 1), (3, 1), (2, 2)]:
        params, _, prepared, generic, hc = built(k, n)
        for word in words_upto(params.alphabet.symbols, 2 * n + 2):
            expected = oracle(params, word)
            assert prepared.evaluate(word) == expected
            assert generic.evaluate(word) == expected
            assert hc.evaluate(word) == expected


def test_triple_agreement_random_3_3():
    params = InstanceParams(3, 3)
    prepared = trim(remove_input_epsilons(instance_transducer(params)))
    hc = handcrafted_bimachine(params)
    rng = random.Random(42)
    for _ in range(10_000):
        word = random_word(rng, params.alphabet.symbols, 4 * params.n)
        expected = oracle(params, word)
        assert hc.evaluate(word) == expected
        assert prepared.evaluate(word) == expected


def test_instances_are_functional():
    for (k, n) in [(2, 3), (3, 3)]:
        params = InstanceParams(k, n)
        prepared = trim(remove_input_epsilons(instance_transducer(params)))
        assert check_functional(prepared).functional
