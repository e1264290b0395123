import random
import tracemalloc
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
from helpers import built, random_word, reduced_handcrafted_text

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
    monkeypatch.setattr(textfmt, "_CHUNK", 1)
    check(*args)


SEPARATORS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, textfmt._CHUNK])
def test_raw_lines_number_lines_as_splitlines_does(chunk, monkeypatch):
    monkeypatch.setattr(textfmt, "_CHUNK", chunk)
    texts = ["", "\n", "\n\n", "a", "x".join(SEPARATORS), "x".join(SEPARATORS) + "x"]
    # A "\r\n" at, just before and just after the first cut.
    for at in range(chunk - 2, chunk + 3):
        texts += ["a" * at + "\r\nb", "a" * at + "\r\n\r\nb\n", "a" * at + "\r" + "b\n"]
    rng = random.Random(3)
    pieces = SEPARATORS + ("", " ", "a", "psi 0 a 1 x", "# c")
    texts += ["".join(rng.choices(pieces, k=rng.randint(0, 40))) for _ in range(200)]
    for text in texts:
        assert list(textfmt._raw_lines(text)) == list(enumerate(text.splitlines(), 1))


def test_psi_lines_in_any_order_parse_to_the_same_machine():
    canonical = emit_bimachine(built(2, 3)[4].reduce())
    lines = canonical.splitlines()
    psi = [line for line in lines if line.startswith("psi ")]
    assert lines[-len(psi):] == psi
    random.Random(9).shuffle(psi)
    shuffled = "\n".join(lines[: -len(psi)] + psi) + "\n"
    assert shuffled != canonical
    assert emit_bimachine(parse_bimachine(shuffled)) == canonical


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


def test_random_machines_round_trip():
    rng = random.Random(5)
    for _ in range(150):
        for machine, emit, parse in (
            (random_transducer(rng), emit_transducer, parse_transducer),
            (random_bimachine(rng), emit_bimachine, parse_bimachine),
        ):
            text = emit(machine)
            again = parse(text)
            assert again == machine
            assert emit(again) == text


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
