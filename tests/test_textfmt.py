import pytest

from bimlab import (
    Alphabet,
    Arc,
    Bimachine,
    Dfa,
    FormatError,
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
from helpers import built

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
