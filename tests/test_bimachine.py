import json
import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from bimlab import (
    Alphabet,
    Bimachine,
    Dfa,
    PreconditionError,
    ResourceLimitError,
    InstanceParams,
    UnknownSymbolError,
    bimachine,
    handcrafted_bimachine,
)
from helpers import (assert_psi_invariants, built, random_word, reference_reduce, with_psi,
                     words_upto)


def tiny_bimachine(empty_word_output=None):
    """Two-letter machine that writes x for a and y for b."""
    ab = Alphabet(("a", "b"))
    left = Dfa(ab, 1, 0, ((0, 0),))
    right = Dfa(ab, 1, 0, ((0, 0),))
    psi = {(0, "a", 0): ("x",), (0, "b", 0): ("y",)}
    return Bimachine(left, right, psi, empty_word_output, Alphabet(("x", "y")))


def psi_star_positionwise(b, left_state, word, right_state):
    """Independent closed form: product over positions of the table entry at
    (left state after the prefix, letter, right state after the reversed
    suffix)."""
    out = []
    for pos in range(len(word)):
        l = b.left.run(word[:pos], start=left_state)
        r = b.right.run(reversed(word[pos + 1 :]), start=right_state)
        key = (l, word[pos], r)
        if key not in b.psi:
            return None
        out.extend(b.psi[key])
    return tuple(out)


def test_psi_star_empty_word_is_identity():
    b = tiny_bimachine()
    assert b.psi_star(0, (), 0) == ()
    _, _, _, generic, handcrafted = built(2, 1)
    for machine in (generic, handcrafted):
        for l in range(machine.left.state_count):
            for r in range(machine.right.state_count):
                assert machine.psi_star(l, (), r) == ()


def test_psi_star_single_letter_is_table_lookup():
    _, _, _, generic, _ = built(2, 1)
    for (l, tok, r), out in generic.psi.items():
        assert generic.psi_star(l, (tok,), r) == out


def test_psi_star_handcrafted_boundary():
    _, _, _, _, handcrafted = built(2, 1)
    value = handcrafted.psi_star(
        handcrafted.left.start, ("1", "3"), handcrafted.right.start
    )
    assert value == ("3", "1")


def test_psi_star_undefined_propagates():
    b = with_psi(tiny_bimachine(), {(0, "a", 0): ("x",)})
    assert b.psi_star(0, ("a", "b"), 0) is None
    assert b.psi_star(0, ("a",), 0) == ("x",)


def test_psi_star_unknown_symbol():
    b = tiny_bimachine()
    with pytest.raises(UnknownSymbolError):
        b.psi_star(0, ("z",), 0)


def test_states_outside_the_automata_are_refused():
    # Reduced handcrafted (2,1) has 5 left and 4 right states. An unchecked
    # -1 would read the last state, or a cell of another row.
    machine = handcrafted_bimachine(InstanceParams(2, 1)).reduce()
    left, right = machine.left, machine.right
    assert (left.state_count, right.state_count) == (5, 4)
    for l, r, bad in ((-1, 0, "left state -1"), (5, 0, "left state 5"),
                      (0, -1, "right state -1"), (0, 4, "right state 4"),
                      (99, 0, "left state 99")):
        with pytest.raises(ValueError, match=f"^{bad} out of range$"):
            machine.psi_star(l, ("1", "3"), r)
    for l, r in product((0, 4), (0, 3)):
        assert machine.psi_star(l, ("1",), r) == machine.psi.get((l, "1", r))
    for dfa in (left, right):
        for start in (-1, dfa.state_count):
            with pytest.raises(ValueError, match=f"^start state {start} out of range$"):
                dfa.run(("1",), start=start)
        last = dfa.state_count - 1
        assert dfa.run(("1",), start=last) == dfa.step(last, "1")


def test_unknown_symbol_raises_where_the_output_is_undefined():
    b = with_psi(tiny_bimachine(), {(0, "a", 0): ("x",)})
    assert b.evaluate(("a", "b")) is None
    # Each word's output is undefined, but its unknown "z" must still raise.
    for word in (("b", "z"), ("z", "b"), ("a", "b", "z", "a")):
        with pytest.raises(UnknownSymbolError):
            b.evaluate(word)


def test_each_automaton_reads_its_own_alphabet():
    # The right automaton lists the letters in the other order; construction
    # permutes its columns into the left's order, so evaluation still steps
    # each side by the letter it reads.
    ab, ba = Alphabet(("a", "b")), Alphabet(("b", "a"))
    left = Dfa(ab, 1, 0, ((0, 0),))
    right = Dfa(ba, 2, 0, ((0, 1), (0, 1)))  # state 1: an "a" lies behind
    psi = {(0, tok, r): (tok,) * (r + 1) for tok in "ab" for r in (0, 1)}
    b = Bimachine(left, right, psi, (), ab)
    assert b.right == Dfa(ab, 2, 0, ((1, 0), (1, 0)))
    for word in words_upto(ab.symbols, 4):
        assert b.evaluate(word) == psi_star_positionwise(b, 0, word, 0)
    assert b.evaluate(("b", "a")) == ("b", "b", "a")


def test_psi_star_matches_positionwise_product():
    for (k, n) in [(2, 1), (2, 2)]:
        _, _, _, generic, handcrafted = built(k, n)
        tokens = generic.input_alphabet.symbols
        for machine in (generic, handcrafted):
            for word in words_upto(tokens, 4):
                direct = machine.psi_star(machine.left.start, word, machine.right.start)
                closed = psi_star_positionwise(
                    machine, machine.left.start, word, machine.right.start
                )
                assert direct == closed


def test_suffix_compositionality():
    # psi*(l, uv, r) factors through the middle states whenever defined.
    _, _, _, generic, handcrafted = built(2, 1)
    rng = random.Random(9)
    tokens = generic.input_alphabet.symbols
    for machine in (generic, handcrafted):
        for _ in range(300):
            u = random_word(rng, tokens, 4)
            v = random_word(rng, tokens, 4)
            l, r = machine.left.start, machine.right.start
            whole = machine.psi_star(l, u + v, r)
            first = machine.psi_star(l, u, machine.right.run(reversed(v), start=r))
            second = machine.psi_star(machine.left.run(u, start=l), v, r)
            if first is None or second is None:
                assert whole is None
            else:
                assert whole == first + second


def test_construction_owns_a_normalised_psi():
    ab, xy = Alphabet(("a", "b")), Alphabet(("x", "y"))
    d = Dfa(ab, 1, 0, ((0, 0),))
    for psi in ({(0, "a", 0): ("x",)}, {(0, "a", 0): ["x"]}):
        b = Bimachine(d, d, psi, None, xy)
        psi[(0, "b", 0)] = ("y",)
        psi[(0, "a", 0)] = ("y",)
        assert b.psi == {(0, "a", 0): ("x",)}
        assert type(b.psi[(0, "a", 0)]) is tuple
    b = Bimachine(d, d, {(0, "a", 0): ["x", "y"], (0, "b", 0): []}, [], xy)
    assert b.psi == {(0, "a", 0): ("x", "y"), (0, "b", 0): ()}
    assert all(type(out) is tuple for out in b.psi.values())
    assert b.empty_word_output == () and type(b.empty_word_output) is tuple
    # Keys are unpacked as (left, letter, right); states must be ints.
    with pytest.raises(PreconditionError) as info:
        Bimachine(d, d, {"0a0": ("x",)}, None, xy)
    assert str(info.value) == "psi key ('0', 'a', '0') is outside the machine"
    for key, error, message in (
        ((0, "a"), ValueError, "not enough values to unpack (expected 3, got 2)"),
        ((0, "a", 0, 0), ValueError, "too many values to unpack (expected 3)"),
        (0, TypeError, "cannot unpack non-iterable int object"),
    ):
        with pytest.raises(error) as info:
            Bimachine(d, d, {(0, "a", 0): ("x",), key: ("y",)}, None, xy)
        assert str(info.value) == message


def test_psi_table_reads_as_a_mapping():
    b = tiny_bimachine()
    table = {(0, "a", 0): ("x",), (0, "b", 0): ("y",)}
    assert b.psi == table and table == b.psi
    assert len(b.psi) == 2
    assert list(b.psi) == [(0, "a", 0), (0, "b", 0)]
    assert list(b.psi.items()) == list(table.items())
    assert dict(b.psi) == table and {**b.psi} == table
    assert b.psi[(0, "b", 0)] == ("y",) and b.psi.get((0, "c", 0)) is None
    one = with_psi(b, {(0, "a", 0): ("x",)})
    assert one.psi != b.psi and len(one.psi) == 1
    # Undefined cells and keys outside the table read as absent.
    for key in ((0, "b", 0), (0, "a", 1), (-1, "a", 0), (0, "z", 0), ("0", "a", 0),
                (0, "a"), 0, None):
        assert key not in one.psi
        with pytest.raises(KeyError):
            one.psi[key]


def test_psi_tables_are_capped_before_allocation(monkeypatch):
    ab, xy = Alphabet(("a", "b")), Alphabet(("x", "y"))
    wide = Dfa(ab, 3, 0, ((1, 1), (2, 2), (0, 0)))
    monkeypatch.setattr(bimachine, "PSI_CAP", 18)  # 3 x 2 x 3 cells fit
    assert len(Bimachine(wide, wide, {(2, "b", 2): ("y",)}, None, xy).psi) == 1
    monkeypatch.setattr(bimachine, "PSI_CAP", 17)
    with pytest.raises(ResourceLimitError, match="psi table of 3 x 2 x 3 cells exceeds 17"):
        Bimachine(wide, wide, {}, None, xy)
    with pytest.raises(ResourceLimitError):
        bimachine.RowInterner(ab, 3, 3)


@pytest.mark.parametrize("row_of,cell", [(0, 3), (5, 0), (0, -2), (-2, 0)])
def test_psi_tables_name_only_rows_and_words_they_have(row_of, cell):
    # One row, one cell and one word: a row index or a cell outside them
    # would make ``evaluate`` raise IndexError later.
    a = Alphabet(("a",))
    with pytest.raises(ValueError, match="a row or an output word the table lacks"):
        bimachine.PsiTable(a, 1, 1, array("i", [row_of]), array("i", [cell]), (("x",),))
    sound = bimachine.PsiTable(a, 1, 1, array("i", [0]), array("i", [0]), (("x",),))
    machine = Bimachine(Dfa(a, 1, 0, [(0,)]), Dfa(a, 1, 0, [(0,)]), sound, None, Alphabet(("x",)))
    assert machine.evaluate(("a",)) == ("x",)


def test_row_interner_writes_rows_cell_by_cell():
    interner = bimachine.RowInterner(Alphabet(("a", "b")), 2, 3)
    word = interner.word
    assert [word(("y",)), word(("x",)), word(("y",)), word(())] == [0, 1, 0, 2]
    # Slots (0, a) and (0, b) share an interned row; no slot keeps the other.
    interner.row_of[0] = interner.row_of[1] = interner.intern(array("i", [0, -1, 1]))
    interner.intern(array("i", [2, 2, 2]))
    cells = interner.row(1)
    assert cells.tolist() == [0, -1, 1] and interner.row(1) is cells
    cells[1] = 2
    assert interner.rows[:3].tolist() == [0, -1, 1]
    interner.row(2)[0] = 1  # (1, a), blank until now
    table = interner.table()
    assert table.words == (("y",), ("x",), ())
    assert dict(table) == {
        (0, "a", 0): ("y",), (0, "a", 2): ("x",),
        (0, "b", 0): ("y",), (0, "b", 1): (), (0, "b", 2): ("x",),
        (1, "a", 0): ("x",),
    }
    assert table.distinct == 3
    assert_psi_invariants(table)


def test_evaluate_empty_word_flag():
    assert tiny_bimachine().evaluate(()) is None
    assert tiny_bimachine(empty_word_output=()).evaluate(()) == ()
    assert tiny_bimachine(empty_word_output=("x",)).evaluate(()) == ("x",)


def test_evaluate_instance_words():
    params, _, _, generic, handcrafted = built(2, 2)
    for machine in (generic, handcrafted):
        assert machine.evaluate(("1", "2", "1", "3", "4", "4")) == ("4", "2")
        # Both blocks have length exactly n here, which is just enough.
        assert machine.evaluate(("1", "2", "3", "4")) == ("4", "1")
        assert machine.evaluate(("1", "3")) is None


def test_validate_clean_machines():
    # Every built machine reads both automata over one alphabet.
    _, _, _, generic, handcrafted = built(2, 1)
    for b in (generic, handcrafted, tiny_bimachine(), generic.reduce(), handcrafted.reduce()):
        assert b.right.alphabet == b.left.alphabet == b.input_alphabet


def test_validate_reports_bad_output_token():
    b = tiny_bimachine()
    with pytest.raises(UnknownSymbolError, match="'q'"):
        with_psi(b, {**b.psi, (0, "a", 0): ("q",)})
    with pytest.raises(UnknownSymbolError, match="'q'"):
        tiny_bimachine(empty_word_output=("x", "q"))


def test_validate_reports_bad_psi_state():
    # A psi entry naming right state 7 of a one-state automaton is refused at
    # construction, so every machine's keys are in range.
    b = tiny_bimachine()
    with pytest.raises(PreconditionError) as info:
        with_psi(b, {**b.psi, (0, "a", 7): ("x",)})
    assert str(info.value) == "psi key (0, 'a', 7) is outside the machine"


def test_validate_reports_alphabet_mismatch():
    ab = Alphabet(("a", "b"))
    cd = Alphabet(("c", "d"))
    with pytest.raises(UnknownSymbolError, match="'a'") as info:
        Bimachine(Dfa(ab, 1, 0, ((0, 0),)), Dfa(cd, 1, 0, ((0, 0),)), {}, None, ab)
    assert str(info.value) == "symbol 'a' is in only one of the bimachine's alphabets"


def test_construction_refuses_a_machine_over_no_letters():
    none, x = Alphabet(()), Alphabet(("x",))
    with pytest.raises(PreconditionError, match="at least one input letter"):
        Bimachine(Dfa(none, 1, 0, ((),)), Dfa(none, 2, 1, ((), ())), {}, (), x)


def test_reduce_rejects_psi_keys_outside_the_machine():
    # Left or right states out of range are refused when the machine is built,
    # so reduce never indexes the dense table with them.
    b = tiny_bimachine()
    for key in ((0, "a", 1), (0, "a", -1), (1, "b", 0), (-1, "b", 0)):
        with pytest.raises(PreconditionError) as info:
            with_psi(b, {**b.psi, key: ("x",)}).reduce()
        assert str(info.value) == f"psi key {key} is outside the machine"
    assert b.reduce().psi == b.psi


def test_construction_rejects_psi_keys_outside_the_machine():
    # A letter outside the input alphabet and states that are not ints; no
    # machine is built, so reduce and the letter views never meet
    # such a key. States out of range are checked by the two tests above.
    b = tiny_bimachine()
    for key in ((0, "z", 0), (0, "a", "0"), (None, "a", 0)):
        with pytest.raises(PreconditionError) as info:
            with_psi(b, {**b.psi, key: ("x",)})
        assert str(info.value) == f"psi key {key} is outside the machine"


def test_reduce_merges_duplicate_state():
    ab = Alphabet(("a", "b"))
    left = Dfa(ab, 2, 0, ((1, 1), (1, 1)))
    right = Dfa(ab, 1, 0, ((0, 0),))
    psi = {
        (0, "a", 0): ("x",),
        (1, "a", 0): ("x",),
        (0, "b", 0): ("y",),
        (1, "b", 0): ("y",),
    }
    b = Bimachine(left, right, psi, None, Alphabet(("x", "y")))
    reduced = b.reduce()
    assert reduced.left.state_count == 1
    assert reduced.right.state_count == 1
    for word in words_upto(ab.symbols, 4):
        assert reduced.evaluate(word) == b.evaluate(word)


def test_reduce_idempotent():
    for (k, n) in [(2, 1), (2, 2), (3, 1)]:
        _, _, _, generic, handcrafted = built(k, n)
        for machine in (generic, handcrafted):
            once = machine.reduce()
            twice = once.reduce()
            assert once.left.state_count == twice.left.state_count
            assert once.right.state_count == twice.right.state_count


def test_reduce_never_grows():
    for (k, n) in [(2, 1), (2, 2), (3, 2)]:
        _, _, _, generic, handcrafted = built(k, n)
        for machine in (generic, handcrafted):
            reduced = machine.reduce()
            assert reduced.left.state_count <= machine.left.state_count
            assert reduced.right.state_count <= machine.right.state_count


def test_reduce_preserves_evaluate():
    params, _, _, generic, handcrafted = built(2, 1)
    tokens = params.alphabet.symbols
    rng = random.Random(4)
    for machine in (generic, handcrafted):
        reduced = machine.reduce()
        for word in words_upto(tokens, 4):
            assert reduced.evaluate(word) == machine.evaluate(word)
        for _ in range(10_000):
            word = random_word(rng, tokens, 8, min_len=5)
            assert reduced.evaluate(word) == machine.evaluate(word)


def test_reduce_respects_lower_bound():
    _, _, _, generic, _ = built(2, 2)
    reduced = generic.reduce()
    assert reduced.left.state_count + reduced.right.state_count >= 5


def assert_reduces_as_the_reference(machine):
    assert_psi_invariants(machine.psi)
    reduced = machine.reduce()
    assert_psi_invariants(reduced.psi)
    assert reduced == reference_reduce(machine)
    # Nothing merges on either side of a reduced machine.
    assert reduced.reduce() is reduced
    return reduced


GRID = [(k, n) for k in (2, 3) for n in (1, 2, 3, 4)]


@pytest.mark.parametrize("k, n", GRID)
def test_reduce_matches_the_flat_table_reference_on_the_grid(k, n):
    _, _, _, generic, handcrafted = built(k, n)
    for machine in [handcrafted] + ([generic] if n <= 3 else []):
        reduced = assert_reduces_as_the_reference(machine)
        assert reference_reduce(reduced) == reduced


def test_reduce_matches_the_flat_table_reference_on_raw_3_5():
    machine = handcrafted_bimachine(InstanceParams(3, 5))
    assert len(machine.psi) == 503_736 and machine.psi.distinct == 5
    assert assert_reduces_as_the_reference(machine).psi.distinct == 5


def random_table_machines(rng, count):
    """Random automata and tables over {a, b, c}, whose rows repeat output
    words: the machines of ``test_random_letter_views_are_the_sorted_ones``."""
    ab, xy = Alphabet(("a", "b", "c")), Alphabet(("x", "y"))
    words = [(), ("x",), ("y",), ("x", "y"), ("y", "x")]

    def dfa():
        count = rng.randint(1, 6)
        return Dfa(ab, count, rng.randrange(count),
                   [[rng.randrange(count) for _ in ab] for _ in range(count)])

    for _ in range(count):
        left, right = dfa(), dfa()
        psi = {(l, a, r): rng.choice(words) for l in range(left.state_count) for a in ab
               for r in range(right.state_count) if rng.random() < 0.6}
        yield Bimachine(left, right, psi, rng.choice([None, ()]), xy)


def coloured_machines(rng, count):
    """Random automata over {a, b, c} whose outputs depend only on the
    letter and a colour (0 or 1) of each state, so both sides often merge."""
    ab, xy = Alphabet(("a", "b", "c")), Alphabet(("x", "y"))
    words = [(), ("x",), ("y",), ("x", "y")]
    for _ in range(count):
        left, right = (Dfa(ab, size, rng.randrange(size),
                           [[rng.randrange(size) for _ in ab] for _ in range(size)])
                       for size in (rng.randint(1, 6), rng.randint(1, 6)))
        lc = [rng.randrange(2) for _ in range(left.state_count)]
        rc = [rng.randrange(2) for _ in range(right.state_count)]
        psi = {(l, a, r): words[lc[l] + rc[r] + (a == "c")] for l in range(left.state_count)
               for a in ab for r in range(right.state_count) if lc[l] + rc[r] < 2}
        yield Bimachine(left, right, psi, None, xy)


def test_reduce_matches_the_flat_table_reference_on_random_machines():
    for machine in random_table_machines(random.Random(29), 60):
        assert_reduces_as_the_reference(machine)
    merged = Counter()
    for machine in coloured_machines(random.Random(31), 60):
        reduced = assert_reduces_as_the_reference(machine)
        merged["left"] += reduced.left.state_count < machine.left.state_count
        merged["right"] += reduced.right.state_count < machine.right.state_count
    assert min(merged.values()) >= 10


def test_reduce_matches_the_flat_table_reference_when_every_row_differs():
    # Left state 4 copies 3, and right state 5 copies 4 in every row, so
    # both sides merge although no two rows are equal; a second table leaves
    # the copies apart, and nothing merges.
    ab, xy = Alphabet(("a", "b")), Alphabet(("x", "y"))
    left = Dfa(ab, 5, 0, ((1, 2), (3, 0), (4, 3), (2, 1), (2, 1)))
    right = Dfa(ab, 6, 0, ((1, 2), (4, 3), (0, 5), (2, 1), (3, 0), (3, 0)))
    rng = random.Random(3)
    words = [(), ("x",), ("y",), ("x", "y")]
    for copies in (True, False):
        psi = {}
        for l in range(5):
            for pos, a in enumerate("ab"):
                row = [("x",) * (l * 2 + pos + 1)] + [rng.choice(words) for _ in range(5)]
                if copies:
                    row[5] = row[4]
                for r, out in enumerate(row):
                    psi[(l, a, r)] = out
        if copies:
            psi.update({(4, a, r): psi[(3, a, r)] for a in "ab" for r in range(6)})
        machine = Bimachine(left, right, psi, None, xy)
        assert machine.psi.distinct == 8 + 2 * (not copies)
        reduced = assert_reduces_as_the_reference(machine)
        assert (reduced.left.state_count, reduced.right.state_count) == (
            (4, 5) if copies else (5, 6))
        assert (reduced is machine) == (not copies)


def test_reduce_keeps_states_whose_outputs_are_permuted():
    # Left state 1 has state 0's rows with the letters swapped, and right
    # state 1 has state 0's column with the rows swapped. Every transition
    # goes to state 0, so only the signatures tell the states apart.
    ab, xy = Alphabet(("a", "b")), Alphabet(("x", "y"))
    sink = Dfa(ab, 2, 0, ((0, 0), (0, 0)))
    x, y = ("x",), ("y",)
    psi = {(0, "a", 0): x, (0, "a", 1): y, (0, "b", 0): y, (0, "b", 1): x,
           (1, "a", 0): y, (1, "a", 1): x, (1, "b", 0): x, (1, "b", 1): y}
    machine = Bimachine(sink, sink, psi, None, xy)
    assert machine.psi.distinct == 2
    assert machine.reduce() is machine


def test_a_row_only_a_merged_away_left_state_uses_stays_used():
    # Left states 1 and 2 are copies, and no other state uses their rows on
    # b; no word reaches state 2.
    ab, xy = Alphabet(("a", "b")), Alphabet(("x", "y"))
    left = Dfa(ab, 3, 0, ((1, 0), (0, 1), (0, 1)))
    right = Dfa(ab, 2, 0, ((1, 1), (0, 0)))
    psi = {(l, "a", r): ("x",) for l in range(3) for r in range(2)}
    psi.update({(l, "b", 1): ("y", "y") for l in (1, 2)})
    machine = Bimachine(left, right, psi, None, xy)
    assert machine.psi.distinct == 2
    reduced = assert_reduces_as_the_reference(machine)
    assert reduced.left.state_count == 2 and reduced.psi.distinct == 2


def test_building_and_reducing_a_raw_machine_takes_no_flat_table():
    # Raw (2,8) handcrafted has 511 x 4 x 512 cells; flat, they take 4 MB.
    tracemalloc.start()
    try:
        machine = handcrafted_bimachine(InstanceParams(2, 8))
        reduced = machine.reduce()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert machine.psi.distinct == reduced.psi.distinct == 4


def test_reduce_builds_one_table_and_one_machine(monkeypatch):
    # Both sides are reduced from the machine's own table, so a machine
    # whose two sides merge is built once, and one where nothing merges is
    # not built again.
    builds = Counter()

    def count(cls, name):
        build = getattr(cls, name)

        def counted(self, *args):
            builds[cls.__name__] += 1
            build(self, *args)
        monkeypatch.setattr(cls, name, counted)

    count(bimachine.PsiTable, "__init__")
    count(Bimachine, "__post_init__")
    merged = Counter()
    for k, n in GRID:
        _, _, _, generic, handcrafted = built(k, n)
        for machine in [handcrafted] + ([generic] if n <= 3 else []):
            builds.clear()
            reduced = machine.reduce()
            sides = (reduced.left.state_count < machine.left.state_count,
                     reduced.right.state_count < machine.right.state_count)
            merged[sides] += 1
            if any(sides):
                assert builds == {"PsiTable": 1, "Bimachine": 1}
            else:
                assert not builds and reduced is machine
    assert merged[True, True] and merged[False, False]


TRACED_REDUCE = """
import json
import tracer
from bimlab import lowerbound

spans = tracer.Tracer()
spans.install()
lowerbound.run_experiment([(2, 1), (2, 2)])
table = spans.table()
print(json.dumps([table["fsm.moore_reduce"]["calls"], table["bimachine.reduce"]]))
"""


def test_the_benchmark_tracer_binds_reduce():
    # The traced benchmark counts moore_reduce through bimachine's binding,
    # once per side of each reduced machine, and reads states and psi sizes
    # around Bimachine.reduce.
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_REDUCE], cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    moore_calls, reduce = json.loads(proc.stdout)
    assert moore_calls == 2 * 4  # two sides, 2 cells x 2 constructions
    assert reduce["calls"] == 4
    assert (reduce["states_in"], reduce["states_out"]) == (57, 50)
    assert (reduce["psi_in"], reduce["psi_out"]) == (296, 212)
