import contextlib
import random
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from bimlab import (
    Alphabet,
    Arc,
    Bimachine,
    Dfa,
    FormatError,
    ResourceLimitError,
    Transducer,
    UnknownSymbolError,
    emit_bimachine,
    emit_transducer,
    instance_transducer,
    InstanceParams,
    load_machine,
    parse_bimachine,
    parse_transducer,
    word_from_text,
    word_to_text,
)
from bimlab import textfmt
from helpers import (
    assert_psi_invariants, built, merge_bimachine_states, random_word,
    reduced_handcrafted_text, words_upto,
)

AB = Alphabet(("a", "b"))
XY = Alphabet(("x", "y"))


def test_word_text_roundtrip():
    assert word_from_text("1.3") == ("1", "3")
    assert word_from_text("-") == ()
    assert word_from_text("") == ()
    assert word_to_text(("1", "3")) == "1.3"
    assert word_to_text(()) == "-"
    with pytest.raises(ValueError):
        word_from_text("1..3")


def test_transducer_roundtrip_bytes():
    t = Transducer(AB, XY, 2, {0}, {1}, (Arc(0, "a", ("x",), 1),))
    text = emit_transducer(t)
    assert parse_transducer(text) == t
    assert emit_transducer(parse_transducer(text)) == text


def test_transducer_roundtrip_instance_machines():
    for (k, n) in [(2, 1), (2, 2), (3, 1)]:
        _, generated, prepared, _, _ = built(k, n)
        for machine in (generated, prepared):
            text = emit_transducer(machine)
            assert parse_transducer(text) == machine
            assert emit_transducer(parse_transducer(text)) == text


def test_epsilon_arc_line():
    text = (
        "transducer v1\n"
        "alphabet 1 2 3 4\n"
        "states 2\n"
        "initial 0\n"
        "final 1\n"
        "arc 0 1 - 3.1\n"
    )
    t = parse_transducer(text)
    assert t.arcs == (Arc(0, None, ("3", "1"), 1),)
    assert t.output_alphabet.symbols == t.input_alphabet.symbols


def test_instance_file_has_expected_state_ids():
    text = emit_transducer(instance_transducer(InstanceParams(2, 1)))
    parsed = parse_transducer(text)
    ids = set()
    for arc in parsed.arcs:
        ids.update({arc.src, arc.dst})
    ids.update(parsed.initial)
    ids.update(parsed.final)
    assert ids == set(range(6))
    assert "states 6" in text


def test_comments_and_blank_lines():
    text = (
        "# a machine\n"
        "transducer v1\n"
        "alphabet a b  # the input letters\n"
        "\n"
        "states 1\n"
        "initial 0\n"
        "final 0\n"
    )
    t = parse_transducer(text)
    assert t.state_count == 1
    assert t.relation(()) == ((),)


def test_transducer_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError) as info:
        parse_transducer("transducer v2\n")
    assert "line 1" in str(info.value)
    base = "transducer v1\nalphabet a b\nstates 2\ninitial 0\nfinal 1\n"
    with pytest.raises(FormatError) as info:
        parse_transducer(base + "arc 0 5 a -\n")
    assert "line 6" in str(info.value) and "out of range" in str(info.value)
    with pytest.raises(FormatError) as info:
        parse_transducer(base + "arc 0 1 z -\n")
    assert "unknown input token 'z'" in str(info.value)
    with pytest.raises(FormatError) as info:
        parse_transducer(base + "arc 0 1 a q\n")
    assert "unknown output token 'q'" in str(info.value)


def test_transducer_roundtrip_unusual_tokens():
    inp = Alphabet(("a-b", "-c"))
    out = Alphabet(("x_y", "z-"))
    t = Transducer(inp, out, 2, {0}, {1}, (
        Arc(0, "a-b", ("x_y", "z-"), 1), Arc(1, "-c", (), 1), Arc(0, None, ("z-",), 1),
    ))
    text = emit_transducer(t)
    assert parse_transducer(text) == t
    assert emit_transducer(parse_transducer(text)) == text


def test_reserved_alphabet_tokens_are_format_errors():
    for tokens in ("a -", "a a.b"):
        with pytest.raises(FormatError) as info:
            parse_transducer(f"transducer v1\nalphabet {tokens}\nstates 1\ninitial 0\nfinal 0\n")
        assert "line 2" in str(info.value)


def test_end_of_file_reports_last_line():
    with pytest.raises(FormatError) as info:
        parse_transducer("transducer v1\nalphabet a\n")
    assert "line 2:" in str(info.value) and "end of file" in str(info.value)
    text = ("bimachine v1\nalphabet a\noalphabet a\nleft states 1 start 0\n"
            "larc 0 a 0\nright states 1 start 0\n# trailing comment\n")
    with pytest.raises(FormatError) as info:
        parse_bimachine(text)
    assert "line 6:" in str(info.value) and "not total" in str(info.value)


def test_bimachine_roundtrip_bytes():
    for (k, n) in [(2, 1), (2, 2)]:
        _, _, _, generic, handcrafted = built(k, n)
        for machine in (generic, handcrafted, generic.reduce()):
            text = emit_bimachine(machine)
            again = parse_bimachine(text)
            assert again == machine
            assert emit_bimachine(again) == text


def test_bimachine_epsout_roundtrip():
    left = Dfa(AB, 1, 0, ((0, 0),))
    right = Dfa(AB, 1, 0, ((0, 0),))
    psi = {(0, "a", 0): ()}
    for flag in (None, (), ("x",)):
        b = Bimachine(left, right, psi, flag, XY)
        text = emit_bimachine(b)
        assert parse_bimachine(text) == b
    with_eps = emit_bimachine(Bimachine(left, right, psi, (), XY))
    assert "epsout -" in with_eps
    without = emit_bimachine(Bimachine(left, right, psi, None, XY))
    assert "epsout" not in without


def test_a_right_alphabet_in_another_order_round_trips():
    # The right automaton orders a and b the other way; its arc lines are
    # written in the file alphabet's order, so the parsed machine reads its
    # right side as the original did.
    left = Dfa(AB, 1, 0, ((0, 0),))
    right = Dfa(Alphabet(("b", "a")), 2, 0, ((1, 0), (1, 1)))
    psi = {(0, "a", 0): ("a",), (0, "a", 1): ("b",), (0, "b", 0): (), (0, "b", 1): ()}
    b = Bimachine(left, right, psi, None, AB)
    text = emit_bimachine(b)
    assert "rarc 0 a 0\nrarc 0 b 1\n" in text
    again = parse_bimachine(text)
    assert b.evaluate(("a", "b")) == again.evaluate(("a", "b")) == ("b",)
    assert all(b.evaluate(w) == again.evaluate(w) for w in words_upto(AB.symbols, 5))
    assert emit_bimachine(again) == text


def test_a_bimachine_over_no_letters_is_a_format_error():
    # What emit_bimachine would write for such a machine, were it built. A
    # side over no letters has no arc lines, so no line bounds its states.
    for states in (1, 2**24):
        text = ("bimachine v1\nalphabet\noalphabet x\n"
                f"left states {states} start 0\nright states 2 start 1\nepsout -\n")
        with pytest.raises(FormatError) as info:
            load_machine(text)
        assert str(info.value) == "line 2: a bimachine needs at least one input letter"


def test_emit_refuses_sides_with_other_symbols():
    left = Dfa(AB, 1, 0, ((0, 0),))
    for symbols, missing in ((("a", "c"), "'b'"), (("b", "a", "c"), "'c'")):
        right = Dfa(Alphabet(symbols), 1, 0, ((0,) * len(symbols),))
        with pytest.raises(UnknownSymbolError, match=missing):
            emit_bimachine(Bimachine(left, right, {}, None, XY))


def test_bimachine_psi_epsilon_vs_absent():
    _, _, _, generic, _ = built(2, 1)
    text = emit_bimachine(generic)
    again = parse_bimachine(text)
    # Defined-with-empty-output entries survive the round trip.
    empties = [k for k, v in generic.psi.items() if v == ()]
    assert empties
    for key in empties:
        assert again.psi[key] == ()


def test_bimachine_missing_larc_is_totality_error():
    _, _, _, _, handcrafted = built(2, 1)
    lines = emit_bimachine(handcrafted).splitlines()
    removed = next(line for line in lines if line.startswith("larc 1 "))
    lines.remove(removed)
    with pytest.raises(FormatError) as info:
        parse_bimachine("\n".join(lines) + "\n")
    assert "not total" in str(info.value)
    assert "(1," in str(info.value)


def test_bimachine_duplicate_psi_rejected():
    _, _, _, _, handcrafted = built(2, 1)
    text = emit_bimachine(handcrafted)
    psi_line = next(line for line in text.splitlines() if line.startswith("psi "))
    with pytest.raises(FormatError) as info:
        parse_bimachine(text + psi_line + "\n")
    assert "duplicate psi" in str(info.value)


def test_load_machine_dispatch():
    t = Transducer(AB, XY, 2, {0}, {1}, (Arc(0, "a", ("x",), 1),))
    assert isinstance(load_machine(emit_transducer(t)), Transducer)
    _, _, _, generic, _ = built(2, 1)
    assert isinstance(load_machine(emit_bimachine(generic)), Bimachine)
    with pytest.raises(FormatError):
        load_machine("automaton v1\n")
    with pytest.raises(FormatError):
        load_machine("# nothing here\n")


BIMACHINE_LINES = [
    "bimachine v1",
    "alphabet a b",
    "oalphabet x y",
    "left states 2 start 0",
    "larc 0 a 1",
    "larc 0 b 0",
    "larc 1 a 1",
    "larc 1 b 0",
    "right states 2 start 0",
    "rarc 0 a 0",
    "rarc 0 b 1",
    "rarc 1 a 0",
    "rarc 1 b 1",
    "psi 0 a 0 x",
    "psi 0 a 1 x.y",
    "psi 1 b 0 -",
]
TRANSDUCER_LINES = [
    "transducer v1",
    "alphabet a b",
    "oalphabet x y",
    "states 2",
    "initial 0",
    "final 1",
    "arc 0 1 a x",
    "arc 1 1 b x.y",
]
# (base, position the bad lines go to, bad lines, error): each error names the
# line of the first bad line, and a repeated bad field fails on its first line.
REJECTIONS = [
    ("psi", 16, ["psi 0 a 0"], "line 17: expected 'psi <left> <token> <right> <out>'"),
    ("psi", 16, ["psi 2 a 0 x"], "line 17: left state 2 out of range (states 2)"),
    ("psi", 16, ["psi -1 a 0 x"], "line 17: left state -1 out of range (states 2)"),
    ("psi", 16, ["psi z a 0 x"], "line 17: bad left state 'z'"),
    ("psi", 16, ["psi 0 c 0 x"], "line 17: unknown token 'c'"),
    ("psi", 16, ["psi 0 a 2 x"], "line 17: right state 2 out of range (states 2)"),
    ("psi", 16, ["psi 0 a 1.0 x"], "line 17: bad right state '1.0'"),
    ("psi", 16, ["psi 0 a 0 y"], "line 17: duplicate psi entry (0, a, 0)"),
    ("psi", 16, ["psi 1 a 1 x..y"], "line 17: malformed word 'x..y'"),
    ("psi", 16, ["psi 1 a 1 z"], "line 17: unknown output token 'z'"),
    ("psi", 16, ["epsout x"], "line 17: expected 'psi', got 'epsout'"),
    ("psi", 16, ["psi 1 a 1 z", "psi 1 b 1 z"], "line 17: unknown output token 'z'"),
    ("psi", 16, ["psi 1 a 1 x", "psi 9 b 1 x", "psi 9 a 0 x"],
     "line 18: left state 9 out of range (states 2)"),
    ("psi", 13, ["psi 1 a 1 x", "psi 1 a 1 x"], "line 15: duplicate psi entry (1, a, 1)"),
    ("larc", 8, ["larc 0 a"], "line 9: expected 'larc <state> <token> <state>'"),
    ("larc", 8, ["larc 2 a 1"], "line 9: arc source 2 out of range (states 2)"),
    ("larc", 8, ["larc s a 1"], "line 9: bad arc source 's'"),
    ("larc", 8, ["larc 0 c 1"], "line 9: unknown token 'c'"),
    ("larc", 8, ["larc 0 a 5"], "line 9: arc target 5 out of range (states 2)"),
    ("larc", 8, ["larc 0 a t"], "line 9: bad arc target 't'"),
    ("larc", 8, ["larc 0 a 0"], "line 9: duplicate transition (0, a)"),
    ("larc", 4, ["larc 0 a 1", "larc 0 a 1"], "line 6: duplicate transition (0, a)"),
    ("larc", 4, ["larc 0 a 7", "larc 1 a 7"], "line 5: arc target 7 out of range (states 2)"),
    ("rarc", 13, ["rarc 1 b 2"], "line 14: arc target 2 out of range (states 2)"),
    ("arc", 8, ["arc 0 1 a"], "line 9: expected 'arc <src> <dst> <in> <out>'"),
    ("arc", 8, ["arc 2 1 a x"], "line 9: arc source 2 out of range (states 2)"),
    ("arc", 8, ["arc s 1 a x"], "line 9: bad arc source 's'"),
    ("arc", 8, ["arc 0 2 a x"], "line 9: arc target 2 out of range (states 2)"),
    ("arc", 8, ["arc 0 t a x"], "line 9: bad arc target 't'"),
    ("arc", 8, ["arc 0 1 c x"], "line 9: unknown input token 'c'"),
    ("arc", 8, ["arc 0 1 a x..y"], "line 9: malformed word 'x..y'"),
    ("arc", 8, ["arc 0 1 a z"], "line 9: unknown output token 'z'"),
    ("arc", 8, ["psi 0 1 a x"], "line 9: expected 'arc', got 'psi'"),
    ("arc", 8, ["arc 0 1 a z", "arc 1 0 b z"], "line 9: unknown output token 'z'"),
    ("arc", 6, ["arc 1 1 a x..y", "arc 0 1 b x..y"], "line 7: malformed word 'x..y'"),
    # A psi line whose token or left state alone differs from the line before
    # is checked again.
    ("psi", 16, ["psi 1 a 1 x", "psi 1 c 0 x"], "line 18: unknown token 'c'"),
    ("psi", 16, ["psi 1 b 1 x", "psi 7 b 0 x"], "line 18: left state 7 out of range (states 2)"),
    # Row (0, a)'s lines again under another prefix: with one more line, with
    # one byte changed or added in the last line, and into a row already begun.
    ("psi", 16, ["psi 1 a 0 x", "psi 1 a 1 x.y", "psi 1 a 0 x"],
     "line 19: duplicate psi entry (1, a, 0)"),
    ("psi", 16, ["psi 1 a 0 x", "psi 1 a 1 x.z"], "line 18: unknown output token 'z'"),
    ("psi", 16, ["psi 1 a 0 x", "psi 1 a 1 x.yx"], "line 18: unknown output token 'yx'"),
    ("psi", 16, ["psi 1 a 1 x", "psi 1 b 1 x", "psi 1 a 0 x", "psi 1 a 1 x.y"],
     "line 20: duplicate psi entry (1, a, 1)"),
]


@pytest.mark.parametrize("base, at, bad, error", REJECTIONS)
def test_rejections_keep_their_line_and_message(base, at, bad, error):
    lines = TRANSDUCER_LINES if base == "arc" else BIMACHINE_LINES
    parse = parse_transducer if base == "arc" else parse_bimachine
    text = "\n".join(lines[:at] + bad + lines[at:]) + "\n"
    with pytest.raises(FormatError) as info:
        parse(text)
    assert str(info.value) == error


def test_integer_fields_parse_as_int_does():
    canonical = "\n".join(BIMACHINE_LINES) + "\n"
    # The machine has two states per side, so only 0 and 1 are respelled.
    spelled = {
        "larc 0 a 1": "larc 00 a +1",
        "larc 1 a 1": "larc 01 a ١",
        "rarc 0 b 1": "rarc 0_0 b 0_1",
        "psi 0 a 1 x.y": "psi -0 a +01 x.y",
        "psi 1 b 0 -": "psi ١ b 00 -",
    }
    noncanonical = canonical
    for line, spelling in spelled.items():
        noncanonical = noncanonical.replace(line + "\n", spelling + "\n")
    assert noncanonical != canonical
    assert parse_bimachine(noncanonical) == parse_bimachine(canonical)
    assert emit_bimachine(parse_bimachine(noncanonical)) == canonical
    text = "\n".join(TRANSDUCER_LINES) + "\n"
    wide = text.replace("states 2", "states 08").replace("arc 1 1 b", "arc 07 +1 b")
    assert parse_transducer(wide) == Transducer(
        AB, XY, 8, {0}, {1}, (Arc(0, "a", ("x",), 1), Arc(7, "b", ("x", "y"), 1))
    )


@pytest.mark.parametrize(
    "check, args",
    [(test_rejections_keep_their_line_and_message, case) for case in REJECTIONS]
    + [(test_integer_fields_parse_as_int_does, ())],
    ids=[f"rejection{i}" for i in range(len(REJECTIONS))] + ["integer_fields"],
)
def test_one_character_chunks_keep_lines_and_values(check, args, monkeypatch):
    monkeypatch.setattr(textfmt, "_BLOCK", 1)
    check(*args)


SEPARATORS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, textfmt._BLOCK])
def test_raw_lines_number_lines_as_splitlines_does(chunk, monkeypatch):
    monkeypatch.setattr(textfmt, "_BLOCK", chunk)
    texts = ["", "\n", "\n\n", "a", "x".join(SEPARATORS), "x".join(SEPARATORS) + "x"]
    # A "\r\n" at, just before and just after the first cut, which comes
    # after the first line.
    for at in range(chunk - 2, chunk + 3):
        for head in ("", "h\n"):
            texts += [head + "a" * at + "\r\nb", head + "a" * at + "\r\n\r\nb\n",
                      head + "a" * at + "\r" + "b\n"]
    rng = random.Random(3)
    pieces = SEPARATORS + ("", " ", "a", "psi 0 a 1 x", "# c")
    texts += ["".join(rng.choices(pieces, k=rng.randint(0, 40))) for _ in range(200)]
    for text in texts:
        lines = list(textfmt._lines(text, 0, 1))
        assert [(n, line) for n, _, line in lines] == list(enumerate(text.splitlines(True), 1))
        assert all(text.startswith(line, pos) for _, pos, line in lines)
        # Reading on from any line's position numbers the rest the same way.
        for n, pos, _ in lines:
            assert list(textfmt._lines(text, pos, n)) == lines[n - 1 :]


def test_psi_lines_in_any_order_parse_to_the_same_machine():
    canonical = emit_bimachine(built(2, 3)[4].reduce())
    lines = canonical.splitlines()
    psi = [line for line in lines if line.startswith("psi ")]
    assert lines[-len(psi):] == psi
    random.Random(9).shuffle(psi)
    shuffled = "\n".join(lines[: -len(psi)] + psi) + "\n"
    assert shuffled != canonical
    assert emit_bimachine(parse_bimachine(shuffled)) == canonical


def psi_rows(text):
    """The psi section of an emitted bimachine as (head, lines) runs, one per
    row, with the (0-based) index of the row's first line in the file."""
    lines = text.splitlines(True)
    rows = []
    for index, line in enumerate(lines):
        if line.startswith("psi "):
            head = " ".join(line.split(" ")[:3]) + " "
            if rows and rows[-1][1] == head:
                rows[-1][2].append(line)
            else:
                rows.append((index, head, [line]))
    return lines, rows


def test_repeated_rows_are_read_once(monkeypatch):
    text = emit_bimachine(built(2, 3)[4].reduce())
    _, rows = psi_rows(text)
    first_texts = {}
    for _, head, run in rows:
        first_texts.setdefault("".join(line[len(head):] for line in run), len(run))
    checked = []
    real = textfmt._PsiRows.check

    def counting(self, items):
        items = list(items)
        if items:
            checked.append(len(items))
        return real(self, items)

    monkeypatch.setattr(textfmt._PsiRows, "check", counting)
    assert emit_bimachine(parse_bimachine(text)) == text
    # 48 rows of 4 distinct texts: each distinct row's lines are read once.
    assert (len(rows), len(first_texts)) == (48, 4)
    assert sum(checked) == sum(first_texts.values())


class CountingPattern:
    """A compiled pattern that counts its ``match`` calls."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def match(self, *args):
        self.calls += 1
        return self.pattern.match(*args)


def count_reads(monkeypatch):
    """From now on, count ``_ROW`` matches and list the number of lines
    handed to each ``_PsiRows.check`` call that is handed any."""
    pattern = CountingPattern(textfmt._ROW)
    monkeypatch.setattr(textfmt, "_ROW", pattern)
    checked = []
    real = textfmt._PsiRows.check

    def counting(self, items):
        items = list(items)
        if items:
            checked.append(len(items))
        return real(self, items)

    monkeypatch.setattr(textfmt._PsiRows, "check", counting)
    return pattern, checked


@pytest.mark.parametrize("k, n, scans", [(3, 5, 5), (2, 8, 4)])
def test_a_repeated_row_is_read_without_a_scan(k, n, scans, monkeypatch):
    text = reduced_handcrafted_text(k, n)
    _, rows = psi_rows(text)
    first_texts = {}
    for _, head, run in rows:
        first_texts.setdefault("".join(line[len(head):] for line in run), len(run))
    pattern, checked = count_reads(monkeypatch)
    assert emit_bimachine(load_machine(text)) == text
    # (3,5): 1,824 rows of 5 distinct texts; (2,8): 1,536 rows of 4. Only the
    # first run of each text is scanned, and its lines are checked once.
    assert pattern.calls == len(first_texts) == scans
    assert sum(checked) == sum(first_texts.values())


def count_repeats(monkeypatch):
    """From now on, list the prefix of each text ``_repeat`` finds repeated:
    "psi <left> " for a block, "psi <left> <token> " for a run."""
    found = []
    real = textfmt._repeat

    def counting(text, start, prefix, known):
        end = real(text, start, prefix, known)
        if end >= 0:
            found.append(prefix)
        return end

    monkeypatch.setattr(textfmt, "_repeat", counting)
    return found


def test_a_run_that_goes_on_past_a_remembered_one_is_scanned(monkeypatch):
    # Rows (0, b) and (1, b) begin with the text of rows (0, a) and (1, a);
    # row (1, a) has one line more than row (0, a), so left state 1's block
    # does not repeat left state 0's and is read run by run.
    psi = ["psi 0 a 0 x", "psi 0 b 0 x", "psi 0 b 1 y",
           "psi 1 a 0 x", "psi 1 a 1 x", "psi 1 b 0 x", "psi 1 b 1 y"]
    text = "\n".join(BIMACHINE_LINES[:13] + psi) + "\n"
    pattern, checked = count_reads(monkeypatch)
    repeats = count_repeats(monkeypatch)
    assert emit_bimachine(parse_bimachine(text)) == text
    # Each run is scanned and checked, as the remembered text is a different
    # one or ends too early.
    assert pattern.calls == 4
    assert checked == [1, 2, 2, 2]
    assert repeats == []


def test_a_repeated_block_is_read_with_one_comparison(monkeypatch):
    # Left state 1's rows repeat left state 0's.
    psi = ["psi 0 a 0 x", "psi 0 b 0 x", "psi 0 b 1 y",
           "psi 1 a 0 x", "psi 1 b 0 x", "psi 1 b 1 y"]
    text = "\n".join(BIMACHINE_LINES[:13] + psi) + "\n"
    pattern, checked = count_reads(monkeypatch)
    repeats = count_repeats(monkeypatch)
    assert emit_bimachine(parse_bimachine(text)) == text
    # Only left state 0's runs are scanned and checked.
    assert pattern.calls == 2
    assert checked == [1, 2]
    assert repeats == ["psi 1 "]


def test_a_block_that_goes_on_past_a_remembered_one_is_read_run_by_run(monkeypatch):
    # Left state 1's block begins with the text of left state 0's, then goes on.
    psi = ["psi 0 a 0 x", "psi 1 a 0 x", "psi 1 b 0 x", "psi 1 b 1 y"]
    text = "\n".join(BIMACHINE_LINES[:13] + psi) + "\n"
    pattern, checked = count_reads(monkeypatch)
    repeats = count_repeats(monkeypatch)
    assert emit_bimachine(parse_bimachine(text)) == text
    # Row (1, a) repeats row (0, a) with one comparison; row (1, b) goes on
    # past it, so it is scanned and checked.
    assert pattern.calls == 2
    assert checked == [1, 2]
    assert repeats == ["psi 1 a "]


@pytest.mark.parametrize("build, blocks, repeated", [
    (lambda: reduced_handcrafted_text(3, 3), 41, 36),
    (lambda: reduced_handcrafted_text(3, 4), 122, 117),
    (lambda: reduced_handcrafted_text(3, 5), 365, 360),
    (lambda: reduced_handcrafted_text(2, 8), 512, 508),
    (lambda: emit_bimachine(built(3, 3)[3]), 25, 15),
], ids=["reduced_3_3", "reduced_3_4", "reduced_3_5", "reduced_2_8", "raw_generic_3_3"])
def test_repeated_blocks_are_read_without_a_line_check(build, blocks, repeated, monkeypatch):
    text = build()
    lines = text.splitlines(True)
    psi = [line.split(" ")[1] for line in lines if line.startswith("psi ")]
    assert len(set(psi)) == blocks
    scanned, checked = set(), set()
    row, check = textfmt._ROW, textfmt._PsiRows.check

    class Scan:
        def match(self, text, pos):
            scanned.add(text[pos:].split(" ", 2)[1])
            return row.match(text, pos)

    def checking(self, items):
        items = list(items)
        checked.update(fields[1] for _, fields in items)
        return check(self, items)

    monkeypatch.setattr(textfmt, "_ROW", Scan())
    monkeypatch.setattr(textfmt._PsiRows, "check", checking)
    repeats = count_repeats(monkeypatch)
    assert emit_bimachine(load_machine(text)) == text
    # Only the blocks seen for the first time are scanned and checked; each
    # of the others is one comparison with the last block remembered under
    # its first line.
    repeated_blocks = {prefix.split()[1] for prefix in repeats if prefix.count(" ") == 2}
    assert len(repeated_blocks) == repeated
    assert not repeated_blocks & (scanned | checked)


@pytest.mark.parametrize("k, n, repeated, splits", [(3, 4, 117, 4), (3, 5, 360, 4), (2, 8, 508, 3)])
def test_a_block_compared_again_is_not_split_again(k, n, repeated, splits, monkeypatch):
    text = reduced_handcrafted_text(k, n)
    split = []
    real = textfmt._pieces

    def counting(text, known):
        split.append(known[0])
        return real(text, known)

    monkeypatch.setattr(textfmt, "_pieces", counting)
    repeats = count_repeats(monkeypatch)
    assert emit_bimachine(load_machine(text)) == text
    # Each block is compared with the last block remembered under its first
    # line. Here the compares that follow each other use the same remembered
    # block, so it is split once, and each repeat of it is one join.
    assert sum(prefix.count(" ") == 2 for prefix in repeats) == repeated
    assert len(split) <= splits


def test_a_repeated_row_is_a_duplicate_on_its_first_line():
    text = emit_bimachine(built(2, 3)[4].reduce())
    lines, rows = psi_rows(text)
    _, head, run = rows[3]
    # The row again at the end, after a row of another left state and token.
    assert rows[-1][1] != head
    l, tok, r = run[0].split()[1:4]
    with pytest.raises(FormatError) as info:
        parse_bimachine(text + "".join(run))
    assert str(info.value) == f"line {len(lines) + 1}: duplicate psi entry ({l}, {tok}, {r})"


@pytest.mark.parametrize("block", [1, textfmt._BLOCK])
def test_a_row_split_in_two_runs_parses_to_the_canonical_machine(block, monkeypatch):
    monkeypatch.setattr(textfmt, "_BLOCK", block)
    canonical = emit_bimachine(built(2, 3)[4].reduce())
    lines, rows = psi_rows(canonical)
    start = rows[0][0]
    firsts = [line for _, _, run in rows for line in run[: len(run) // 2 + 1]]
    rests = [line for _, _, run in rows for line in run[len(run) // 2 + 1 :]]
    assert rests
    split = "".join(lines[:start] + firsts + rests)
    assert parse_bimachine(split) == parse_bimachine(canonical)
    assert emit_bimachine(parse_bimachine(split)) == canonical


@pytest.mark.parametrize("bad, error", [
    ("psi {l} {tok} {width} {out}", "right state {width} out of range (states {width})"),
    ("psi {l} {tok} 0 z", "unknown output token 'z'"),
], ids=["bad_right_state", "unknown_output"])
@pytest.mark.parametrize("replace", [True, False], ids=["replaced", "inserted"])
def test_an_error_after_replayed_rows_keeps_its_line(bad, error, replace):
    machine = built(2, 3)[4].reduce()
    text = emit_bimachine(machine)
    lines, rows = psi_rows(text)
    # Rows 7, 8 and 9 repeat rows read before them, so they are replayed.
    at, head, run = rows[10]
    _, l, tok, _, out = run[0].split()
    values = dict(l=l, tok=tok, width=machine.right.state_count, out=out)
    lines[at : at + replace] = [bad.format(**values) + "\n"]
    with pytest.raises(FormatError) as info:
        parse_bimachine("".join(lines))
    assert str(info.value) == f"line {at + 1}: " + error.format(**values)


def outcome(text):
    """A parsed machine's text, table and output words, or the error."""
    try:
        machine = parse_bimachine(text)
    except FormatError as exc:
        return str(exc)
    return emit_bimachine(machine), machine.psi.words


def longer_run(lines, rows):
    # Row 1 repeats row 0 (cells 8 to 12); one more line sets its empty cell 0.
    at, head, run = rows[1]
    lines.insert(at + len(run), head + "0 -\n")


def last_byte_changed(lines, rows):
    at, head, run = rows[1]
    assert run[-1] == head + "12 -\n"
    lines[at + len(run) - 1] = head + "12 3\n"


def alternating_bodies(lines, rows):
    # Every other row of cells 8 to 12 gets another last line, so the two
    # texts share all their other lines and alternate.
    fives = [(at, run) for at, _, run in rows if len(run) == 5]
    for at, run in fives[1::2]:
        lines[at + 4] = run[4].replace(" 12 -", " 12 3")


def row_begun(lines, rows):
    # Row 7 repeats row 6, whose cell 1 is empty; that cell comes first.
    at, head, run = rows[7]
    assert not any(line.startswith(head + "1 ") for line in run)
    lines.insert(rows[0][0], head + "1 -\n")


def row_begun_duplicate(lines, rows):
    at, head, run = rows[7]
    lines.insert(rows[0][0], run[-1])


@pytest.mark.parametrize("block", [1, textfmt._BLOCK])
@pytest.mark.parametrize("change", [longer_run, last_byte_changed, alternating_bodies,
                                    row_begun, row_begun_duplicate])
def test_remembered_runs_read_as_line_by_line(change, block, monkeypatch):
    monkeypatch.setattr(textfmt, "_BLOCK", block)
    canonical = emit_bimachine(built(2, 3)[4].reduce())
    lines, rows = psi_rows(canonical)
    change(lines, rows)
    text = "".join(lines)
    assert text != canonical
    read = outcome(text)
    # With no canonical run found, every psi line goes through the checked loop.
    monkeypatch.setattr(textfmt, "_HEAD", re.compile("(?!)"))
    assert read == outcome(text)


NONCANONICAL = {
    "crlf": lambda line: line[:-1] + "\r\n",
    "tab": lambda line: line.replace(" ", "\t"),
    "comment": lambda line: line[:-1] + " # c\n",
}


@pytest.mark.parametrize("block", [1, 2, textfmt._BLOCK])
@pytest.mark.parametrize("kinds", [("crlf",), ("tab",), ("comment",), ("crlf", "tab", "comment")],
                         ids=["crlf", "tab", "comment", "all"])
def test_noncanonical_lines_mid_row_read_as_canonical(kinds, block, monkeypatch):
    monkeypatch.setattr(textfmt, "_BLOCK", block)
    canonical = emit_bimachine(built(2, 3)[4].reduce())
    lines, rows = psi_rows(canonical)
    # Rows 7 (11 lines) and 30 (8 lines) repeat earlier rows.
    for row in (7, 30):
        at, _, run = rows[row]
        assert len(run) >= 4
        for offset, kind in enumerate(kinds, 1):
            lines[at + offset] = NONCANONICAL[kind](lines[at + offset])
    text = "".join(lines)
    assert text != canonical
    machine = parse_bimachine(text)
    assert machine == parse_bimachine(canonical)
    assert emit_bimachine(machine) == canonical


def test_re_whitespace_is_str_isspace():
    # The canonical-run pattern relies on it: a line with no whitespace but
    # its single spaces and final newline splits as split() does and is one
    # line to splitlines().
    everything = "".join(map(chr, range(0x110000)))
    matched = {m.start() for m in re.finditer(r"\s", everything)}
    assert matched == {i for i, c in enumerate(everything) if c.isspace()}


@pytest.mark.parametrize("line, error", [
    ("7" * 2 * 10**6, "expected 'psi', got '" + "7" * 2 * 10**6 + "'"),
    ("psi" + " 0" * 10**6, "expected 'psi <left> <token> <right> <out>'"),
], ids=["two_megabyte_field", "million_fields"])
def test_huge_psi_lines_end_in_a_format_error(line, error):
    text = "\n".join(BIMACHINE_LINES + [line]) + "\n"
    with pytest.raises(FormatError) as info:
        parse_bimachine(text)
    assert str(info.value) == f"line 17: {error}"


def test_reading_a_large_machine_holds_no_list_of_its_lines():
    text = reduced_handcrafted_text(3, 5)
    tracemalloc.start()
    try:
        load_machine(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The file has 211,673 lines; a list of them alone takes about 15 MB.
    assert peak < 8 * 10**6


@pytest.mark.parametrize("k, n, distinct", [(3, 5, 5), (2, 8, 4)])
def test_reading_a_reduced_machine_takes_no_flat_table(k, n, distinct):
    text = reduced_handcrafted_text(k, n)
    tracemalloc.start()
    try:
        machine = load_machine(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Flat, the table of reduced (3,5) takes 1.8 MB and that of (2,8) 3.2 MB.
    assert peak < 1.5 * 2**20
    assert machine.psi.distinct == distinct
    assert_psi_invariants(machine.psi)


def pairs_text(lefts, rights):
    """A canonical bimachine text over a and b whose left states 2j and
    2j + 1 have the same psi rows, and no two other left states do: every
    block repeats once, and each time it repeats a block compared with none
    before. Each left state defines the row of letter a only."""
    lines = ["bimachine v1", "alphabet a b", "oalphabet x y", f"left states {lefts} start 0"]
    for l in range(lefts):
        lines += [f"larc {l} a {(l + 1) % lefts}", f"larc {l} b {l}"]
    lines.append(f"right states {rights} start 0")
    for r in range(rights):
        lines += [f"rarc {r} a {(r + 1) % rights}", f"rarc {r} b {r}"]
    for l in range(lefts):
        # Bit r mod 11 of the pair number chooses the output of cell r.
        lines += [f"psi {l} a {r} {'xy'[l // 2 >> r % 11 & 1]}" for r in range(rights)]
    return "\n".join(lines) + "\n"


def test_blocks_that_repeat_once_hold_one_block_split(monkeypatch):
    text = pairs_text(4000, 64)
    tracemalloc.start()
    try:
        machine = load_machine(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 4.1 MB and 264,133 lines. The read peaked at 2.51 MiB before the last
    # block compared was held split; holding every compared block split
    # takes 10.9 MiB.
    assert peak < 2.75 * 2**20
    assert machine.psi.distinct == 2000
    repeats = count_repeats(monkeypatch)
    fast = read(text)
    assert fast[0] == text
    assert sum(prefix.count(" ") == 2 for prefix in repeats) == 2000
    monkeypatch.setattr(textfmt, "_canonical_side", lambda *args: [])
    monkeypatch.setattr(textfmt, "_HEAD", re.compile("(?!)"))
    assert read(text) == fast


def shuffled_psi(text):
    lines = text.splitlines(True)
    psi = [line for line in lines if line.startswith("psi ")]
    random.Random(9).shuffle(psi)
    return "".join(lines[: -len(psi)] + psi)


def rows_split_in_two(text):
    # Each row's first lines first, then the rest of every row.
    lines, rows = psi_rows(text)
    firsts = [line for _, _, run in rows for line in run[: len(run) // 2 + 1]]
    rests = [line for _, _, run in rows for line in run[len(run) // 2 + 1 :]]
    return "".join(lines[: rows[0][0]] + firsts + rests)


PSI_VARIANTS = {
    "canonical": lambda text: text,
    "shuffled": shuffled_psi,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "split": rows_split_in_two,
    "comments": lambda text: text.replace(" -\n", " - # c\n"),
}


@pytest.mark.parametrize("block", [1, textfmt._BLOCK])
@pytest.mark.parametrize("variant", PSI_VARIANTS)
def test_parsed_tables_keep_the_row_invariants(variant, block, monkeypatch):
    monkeypatch.setattr(textfmt, "_BLOCK", block)
    _, _, _, generic, handcrafted = built(2, 3)
    for machine in (handcrafted.reduce(), handcrafted, generic):
        canonical = emit_bimachine(machine)
        text = PSI_VARIANTS[variant](canonical)
        parsed = parse_bimachine(text)
        assert_psi_invariants(parsed.psi)
        assert parsed.psi.distinct == machine.psi.distinct
        assert parsed == machine and emit_bimachine(parsed) == canonical


def row_begun_by_the_checked_loop(lines, rows):
    # As row_begun, but the line has a comment, so the checked loop begins
    # row 7 from blank, and the run that repeats row 6 must not replace it.
    at, head, run = rows[7]
    lines.insert(rows[0][0], head + "1 - # begun\n")


def block_begun_by_the_checked_loop(lines, rows):
    # Left state 1's block repeats left state 0's. A line with a comment
    # first begins its row (1, 1) from blank in the checked loop, so the
    # block must not be copied over that row.
    at, head, run = next(row for row in rows if row[1] == "psi 1 1 ")
    assert not any(line.startswith(head + "0 ") for line in run)
    lines.insert(rows[0][0], head + "0 - # begun\n")


@pytest.mark.parametrize("block", [1, textfmt._BLOCK])
@pytest.mark.parametrize("change", [longer_run, last_byte_changed, alternating_bodies,
                                    row_begun, row_begun_duplicate,
                                    row_begun_by_the_checked_loop,
                                    block_begun_by_the_checked_loop])
def test_changed_runs_parse_to_tables_with_the_row_invariants(change, block, monkeypatch):
    monkeypatch.setattr(textfmt, "_BLOCK", block)
    lines, rows = psi_rows(emit_bimachine(built(2, 3)[4].reduce()))
    change(lines, rows)
    text = "".join(lines)
    read = outcome(text)
    if not isinstance(read, str):
        assert_psi_invariants(parse_bimachine(text).psi)
    # With no canonical run found, every psi line goes through the checked loop.
    monkeypatch.setattr(textfmt, "_HEAD", re.compile("(?!)"))
    assert read == outcome(text)


# Tokens the format can carry, some of which look like its own syntax.
TOKEN_POOL = ("a", "b", "1", "07", "a-b", "-c", "x_y", "é", "١", "psi", "arc", "+")


def random_transducer(rng):
    inp = Alphabet(tuple(rng.sample(TOKEN_POOL, rng.randint(1, 4))))
    out = Alphabet(tuple(rng.sample(TOKEN_POOL, rng.randint(1, 4))))
    states = rng.randint(1, 6)
    outputs = [random_word(rng, out.symbols, 3) for _ in range(3)]  # so outputs repeat
    arcs = [
        Arc(rng.randrange(states), rng.choice((None, *inp.symbols)), rng.choice(outputs),
            rng.randrange(states))
        for _ in range(rng.randint(0, 12))
    ]
    initial = {q for q in range(states) if rng.random() < 0.4}
    final = {q for q in range(states) if rng.random() < 0.4}
    return Transducer(inp, out, states, initial, final, tuple(arcs))


def random_bimachine(rng):
    inp = Alphabet(tuple(rng.sample(TOKEN_POOL, rng.randint(1, 3))))
    out = Alphabet(tuple(rng.sample(TOKEN_POOL, rng.randint(1, 4))))

    def dfa():
        count = rng.randint(1, 4)
        rows = tuple(tuple(rng.randrange(count) for _ in inp.symbols) for _ in range(count))
        return Dfa(inp, count, rng.randrange(count), rows)

    left, right = dfa(), dfa()
    outputs = [random_word(rng, out.symbols, 3) for _ in range(3)]
    psi = {
        (l, a, r): rng.choice(outputs)
        for l in range(left.state_count) for a in inp.symbols for r in range(right.state_count)
        if rng.random() < 0.7
    }
    empty = rng.choice((None, (), outputs[0]))
    return Bimachine(left, right, psi, empty, out)


def shuffled_columns(dfa, rng):
    """``dfa`` over a shuffled order of its letters, each column moved with
    its letter: the same automaton."""
    order = rng.sample(range(len(dfa.alphabet)), len(dfa.alphabet))
    alphabet = Alphabet(tuple(dfa.alphabet.symbols[i] for i in order))
    delta = tuple(tuple(row[i] for i in order) for row in dfa.delta)
    return Dfa(alphabet, dfa.state_count, dfa.start, delta)


def test_random_machines_round_trip():
    rng = random.Random(5)
    orders = random.Random(6)  # drawn apart, so that rng's draws stay as they were
    shuffled = 0
    for _ in range(150):
        transducer, bimachine = random_transducer(rng), random_bimachine(rng)
        right = shuffled_columns(bimachine.right, orders)
        shuffled += right.alphabet != bimachine.right.alphabet
        reordered = Bimachine(bimachine.left, right, bimachine.psi,
                              bimachine.empty_word_output, bimachine.output_alphabet)
        assert reordered == bimachine
        for machine, emit, parse in (
            (transducer, emit_transducer, parse_transducer),
            (bimachine, emit_bimachine, parse_bimachine),
            (reordered, emit_bimachine, parse_bimachine),
        ):
            text = emit(machine)
            again = parse(text)
            assert again == machine
            assert emit(again) == text
    assert shuffled > 50


# Field replacements for the mutation fuzz: spellings int() accepts or
# rejects, huge and negative counts, malformed words and stray keywords.
FIELD_POOL = (
    "", "-", "0", "1", "-1", "07", "+1", "١", "1_0", "99", "1000000000", "9" * 5000,
    "x", "1..2", "1.", ".", "#", "a b", "psi", "arc", "larc", "rarc", "epsout",
    "states", "start", "v1",
)


def mutate(rng, lines):
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(5)
        at = rng.randrange(len(lines)) if lines else 0
        if op == 0 and lines:
            del lines[at]
        elif op == 1 and lines:
            lines.insert(rng.randrange(len(lines) + 1), lines[at])
        elif op == 2 and lines:
            other = rng.randrange(len(lines))
            lines[at], lines[other] = lines[other], lines[at]
        elif op == 3 and lines:
            fields = lines[at].split(" ")
            fields[rng.randrange(len(fields))] = rng.choice(FIELD_POOL)
            lines[at] = " ".join(fields)
        elif op == 4:
            text = "\n".join(lines)
            lines = text[: rng.randrange(len(text) + 1)].split("\n")
    return "\n".join(lines) + "\n"


def test_golden_mutants_end_in_a_machine_or_a_format_error():
    rng = random.Random(11)
    goldens = sorted((Path(__file__).parent / "golden").glob("*.txt"))
    outcomes = {"parsed": 0, "rejected": 0}
    for path in goldens:
        lines = path.read_text(encoding="utf-8").splitlines()
        for _ in range(750):
            text = mutate(rng, lines)
            try:
                machine = load_machine(text)
            except (FormatError, ResourceLimitError):
                outcomes["rejected"] += 1
                continue
            outcomes["parsed"] += 1
            emit = emit_transducer if isinstance(machine, Transducer) else emit_bimachine
            assert emit(load_machine(emit(machine))) == emit(machine)
    assert len(goldens) == 4
    assert min(outcomes.values()) > 300


GRID = [(k, n) for k in (2, 3) for n in (1, 2, 3, 4)]


def grid_machines():
    """The raw and reduced machines of the experiment grid's cells, generic
    up to n = 3 as the grid builds it."""
    for k, n in GRID:
        _, _, _, generic, handcrafted = built(k, n)
        for machine in (handcrafted, generic) if n <= 3 else (handcrafted,):
            yield machine
            yield machine.reduce()


def test_every_emitted_file_takes_the_side_fast_path(monkeypatch):
    checked = []
    real = textfmt._checked_side

    def checking(parser, side, *args):
        checked.append(side)
        return real(parser, side, *args)

    monkeypatch.setattr(textfmt, "_checked_side", checking)
    rng = random.Random(17)
    machines = [*grid_machines(), *(random_bimachine(rng) for _ in range(150))]
    for machine in machines:
        assert parse_bimachine(emit_bimachine(machine)) == machine
    assert checked == []
    # Another spelling, a line too many and a target out of range each go
    # through the checked loop, which reads them as it always has.
    text = "\n".join(BIMACHINE_LINES) + "\n"
    for old, new in (("larc 1 a 1", "larc 1 a 01"), ("rarc 1 b 1", "rarc 1 b 1\nrarc 1 b 1"),
                     ("larc 0 b 0", "larc 0 b 2")):
        with contextlib.suppress(FormatError):
            parse_bimachine(text.replace(old + "\n", new + "\n"))
    assert checked == ["left", "right", "left"]


# For each emitted file: the runs scanned with ``_ROW``, the runs and blocks
# that ``_repeat`` finds repeated, and the rows written line by line
# (``RowInterner.row`` calls).
EMITTED_READS = {
    "handcrafted 2 1": (6, 6, 6), "handcrafted 2 1 reduced": (6, 6, 6),
    "generic 2 1": (3, 5, 3), "generic 2 1 reduced": (3, 5, 3),
    "handcrafted 2 2": (4, 12, 4), "handcrafted 2 2 reduced": (4, 12, 4),
    "generic 2 2": (5, 12, 5), "generic 2 2 reduced": (5, 11, 5),
    "handcrafted 2 3": (4, 20, 4), "handcrafted 2 3 reduced": (4, 20, 4),
    "generic 2 3": (7, 19, 7), "generic 2 3 reduced": (7, 18, 7),
    "handcrafted 2 4": (4, 36, 4), "handcrafted 2 4 reduced": (4, 36, 4),
    "handcrafted 3 1": (11, 13, 11), "handcrafted 3 1 reduced": (11, 13, 11),
    "generic 3 1": (4, 8, 4), "generic 3 1 reduced": (4, 8, 4),
    "handcrafted 3 2": (5, 28, 5), "handcrafted 3 2 reduced": (5, 28, 5),
    "generic 3 2": (6, 28, 6), "generic 3 2 reduced": (6, 27, 6),
    "handcrafted 3 3": (5, 55, 5), "handcrafted 3 3 reduced": (5, 55, 5),
    "generic 3 3": (8, 46, 8), "generic 3 3 reduced": (8, 45, 8),
    "handcrafted 3 4": (5, 136, 5), "handcrafted 3 4 reduced": (5, 136, 5),
    "handcrafted 3 5 reduced": (5, 379, 5),
    "handcrafted 2 8 reduced": (4, 516, 4),
}


def test_emitted_files_are_read_with_the_pinned_work(monkeypatch):
    texts = {}
    for k, n in GRID:
        _, _, _, generic, handcrafted = built(k, n)
        machines = {"handcrafted": handcrafted, "generic": generic} if n <= 3 else {
            "handcrafted": handcrafted}
        for name, machine in machines.items():
            texts[f"{name} {k} {n}"] = emit_bimachine(machine)
            texts[f"{name} {k} {n} reduced"] = emit_bimachine(machine.reduce())
    for k, n in ((3, 5), (2, 8)):
        texts[f"handcrafted {k} {n} reduced"] = reduced_handcrafted_text(k, n)
    pattern = CountingPattern(textfmt._ROW)
    monkeypatch.setattr(textfmt, "_ROW", pattern)
    repeats = count_repeats(monkeypatch)
    written = []
    real = textfmt.RowInterner.row

    def writing(self, slot):
        written.append(slot)
        return real(self, slot)

    monkeypatch.setattr(textfmt.RowInterner, "row", writing)
    reads = {}
    for name, text in texts.items():
        pattern.calls = 0
        repeats.clear()
        written.clear()
        assert emit_bimachine(load_machine(text)) == text
        reads[name] = (pattern.calls, len(repeats), len(written))
    # Each run scanned is written line by line once: no other memo finds it.
    assert reads == EMITTED_READS

@pytest.mark.parametrize("text", [
    lambda: reduced_handcrafted_text(3, 3), lambda: emit_bimachine(built(3, 3)[3]),
], ids=["reduced_3_3", "raw_generic_3_3"])
def test_lines_splits_about_what_it_hands_out(text, monkeypatch):
    text = text()
    sizes = Counter()
    block_end, lines = textfmt._block_end, textfmt._lines

    def cutting(text, pos, size):
        end = block_end(text, pos, size)
        sizes["split"] += end - pos
        return end

    def handing(text, pos, line_no):
        for item in lines(text, pos, line_no):
            sizes["handed"] += len(item[2])
            yield item

    monkeypatch.setattr(textfmt, "_block_end", cutting)
    monkeypatch.setattr(textfmt, "_lines", handing)
    load_machine(text)
    # The psi and side readers take the text over from the lines, so only
    # the header lines are handed out: no block is split far past them.
    assert 0 < sizes["handed"] <= sizes["split"] <= 2 * sizes["handed"]


def read(text):
    """What ``load_machine`` makes of a text: the machine's emitted text
    (and a bimachine's table and words), or the error."""
    try:
        machine = load_machine(text)
    except (FormatError, ResourceLimitError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(machine, Transducer):
        return emit_transducer(machine)
    return emit_bimachine(machine), machine.psi.words


def workload_texts():
    """The files the benchmark's workloads read, with the kinds of damage
    its rejection traffic has, shuffled psi lines and golden mutants."""
    texts = [emit_bimachine(machine) for machine in grid_machines()]
    for k, n in ((2, 2), (3, 2), (2, 3), (3, 3), (3, 4)):
        _, generated, _, generic, _ = built(k, n)
        reduced = reduced_handcrafted_text(k, n)
        texts += [emit_transducer(generated), reduced, shuffled_psi(reduced)]
        if n <= 3:
            texts.append(emit_bimachine(generic))
    for k, n in ((2, 2), (2, 3)):
        _, generated, _, _, handcrafted = built(k, n)
        reduced = handcrafted.reduce()
        good = emit_bimachine(reduced)
        # The first psi line with an output gets an "x" token, which lies
        # outside the output alphabet.
        line = next(line for line in good.splitlines(True)
                    if line.startswith("psi ") and not line.endswith(" -\n"))
        head, out = line.rsplit(" ", 1)
        texts += [
            good.replace(line, f"{head} x.{out}", 1),
            emit_bimachine(merge_bimachine_states(reduced, (0, 1), (0, 1))),
            good.replace(next(line for line in good.splitlines(True)
                              if line.startswith("larc ")), "", 1),
            emit_transducer(generated) + "arc 0\n",
        ]
    texts += [reduced_handcrafted_text(3, 5), reduced_handcrafted_text(2, 8)]
    rng = random.Random(11)
    for path in sorted((Path(__file__).parent / "golden").glob("*.txt")):
        lines = path.read_text(encoding="utf-8").splitlines()
        texts += [mutate(rng, lines) for _ in range(750)]
    return texts


def test_fast_paths_read_as_the_checked_loops_do(monkeypatch):
    texts = workload_texts()
    fast = [read(text) for text in texts]
    # With no canonical side section and no canonical psi run found, every
    # line goes through the checked loops.
    monkeypatch.setattr(textfmt, "_canonical_side", lambda *args: [])
    monkeypatch.setattr(textfmt, "_HEAD", re.compile("(?!)"))
    assert [read(text) for text in texts] == fast
    rejected = [outcome for outcome in fast if isinstance(outcome[0], str)
                and outcome[0] in ("FormatError", "ResourceLimitError")]
    assert 300 < len(rejected) < len(texts) - 300
