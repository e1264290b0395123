import tracemalloc

import pytest

from bimlab import (
    ConsistencyError,
    FoolingPair,
    check_functional,
    cli,
    emit_bimachine,
    equivalent,
    lowerbound,
    parse_bimachine,
    parse_transducer,
    refute,
    remove_input_epsilons,
    transducer,
    trim,
)
from bimlab.cli import main
from helpers import built, merge_bimachine_states


def run_cli(*args):
    return main(list(args))


def test_instance_then_eval(tmp_path, capsys):
    machine = tmp_path / "t.txt"
    assert run_cli("instance", "--k", "2", "--n", "1", "--out", str(machine)) == 0
    assert run_cli("eval", "--machine", str(machine), "--word", "1.3") == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "3.1"
    assert run_cli("eval", "--machine", str(machine), "--word", "3.1") == 0
    assert capsys.readouterr().out.strip() == "UNDEFINED"


def test_instance_unmerged_state_count(tmp_path):
    machine = tmp_path / "t.txt"
    assert run_cli(
        "instance", "--k", "3", "--n", "4", "--unmerged", "--out", str(machine)
    ) == 0
    assert "states 30" in machine.read_text(encoding="utf-8")


def test_oversized_instance_params_are_input_errors(tmp_path, capsys):
    # Refused before anything of the size of k^n or 2k(n+1) is built.
    _, _, _, _, hc = built(2, 1)
    machine = tmp_path / "m.txt"
    machine.write_text(emit_bimachine(hc), encoding="utf-8")
    huge = "1000000000"
    assert run_cli("instance", "--k", "2", "--n", huge, "--out", str(tmp_path / "t.txt")) == 2
    assert run_cli("refute", "--machine", str(machine), "--k", "3", "--n", huge) == 2
    assert run_cli("equiv", "--a", str(machine), "--b", str(machine), "--oracle", f"2,{huge}") == 2
    err = capsys.readouterr().err
    assert err.count("over the cap of 100000") == 3
    assert not (tmp_path / "t.txt").exists()


def test_functional_verdict(tmp_path, capsys):
    machine = tmp_path / "t.txt"
    run_cli("instance", "--k", "2", "--n", "1", "--out", str(machine))
    assert run_cli("functional", "--in", str(machine)) == 0
    assert capsys.readouterr().out.strip() == "FUNCTIONAL"


def test_functional_non_functional_exit(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "transducer v1\n"
        "alphabet a\n"
        "oalphabet x y\n"
        "states 2\n"
        "initial 0\n"
        "final 1\n"
        "arc 0 1 a x\n"
        "arc 0 1 a y\n",
        encoding="utf-8",
    )
    assert run_cli("functional", "--in", str(bad)) == 1
    out = capsys.readouterr().out
    assert out.startswith("NON-FUNCTIONAL witness=a")


def test_construct_and_eval_bimachine(tmp_path, capsys):
    machine = tmp_path / "t.txt"
    run_cli("instance", "--k", "2", "--n", "2", "--out", str(machine))
    generic = tmp_path / "g.txt"
    assert run_cli(
        "construct", "--in", str(machine), "--method", "generic", "--out", str(generic)
    ) == 0
    assert run_cli("eval", "--machine", str(generic), "--word", "1.2.1.3.4.4") == 0
    assert capsys.readouterr().out.strip() == "4.2"


def test_construct_handcrafted_with_reduce(tmp_path):
    out = tmp_path / "h.txt"
    assert run_cli(
        "construct", "--method", "handcrafted", "--k", "2", "--n", "1",
        "--reduce", "--out", str(out),
    ) == 0
    machine = parse_bimachine(out.read_text(encoding="utf-8"))
    assert machine.left.state_count + machine.right.state_count == 9


def test_construct_handcrafted_requires_params(tmp_path, capsys):
    out = tmp_path / "h.txt"
    assert run_cli("construct", "--method", "handcrafted", "--out", str(out)) == 2
    assert "needs --k and --n" in capsys.readouterr().err


def test_equiv_machines_agree(tmp_path, capsys):
    machine = tmp_path / "t.txt"
    run_cli("instance", "--k", "2", "--n", "1", "--out", str(machine))
    generic = tmp_path / "g.txt"
    handcrafted = tmp_path / "h.txt"
    run_cli("construct", "--in", str(machine), "--method", "generic", "--out", str(generic))
    run_cli("construct", "--method", "handcrafted", "--k", "2", "--n", "1",
            "--out", str(handcrafted))
    assert run_cli(
        "equiv", "--a", str(generic), "--b", str(handcrafted),
        "--oracle", "2,1", "--max-len", "4", "--samples", "25", "--seed", "5",
    ) == 0
    # The oracle's prepared transducer is the pivot: a and b are each
    # compared with it, and the product pairs of both searches are summed.
    assert capsys.readouterr().out == "EQUIVALENT(pairs=17)\n"
    # Without --oracle the first transducer side is the pivot.
    assert run_cli("equiv", "--a", str(handcrafted), "--b", str(machine)) == 0
    assert capsys.readouterr().out == "EQUIVALENT(pairs=10)\n"


def test_equiv_prepares_an_epsilon_input_pivot_once(tmp_path, capsys, monkeypatch):
    machine = tmp_path / "t.txt"  # the generated transducer reads epsilons
    run_cli("instance", "--k", "2", "--n", "1", "--out", str(machine))
    handcrafted = tmp_path / "h.txt"
    run_cli("construct", "--method", "handcrafted", "--k", "2", "--n", "1",
            "--out", str(handcrafted))
    capsys.readouterr()
    calls = []
    real = transducer.remove_input_epsilons
    monkeypatch.setattr(transducer, "remove_input_epsilons", lambda t: calls.append(t) or real(t))
    # Side a is the pivot: b and the oracle are each compared with it.
    assert run_cli("equiv", "--a", str(machine), "--b", str(handcrafted),
                   "--oracle", "2,1") == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == "EQUIVALENT(pairs=14)\n"


def test_equiv_two_bimachines_without_a_transducer(tmp_path, capsys):
    _, _, _, _, hc = built(3, 4)
    raw, reduced = tmp_path / "raw.txt", tmp_path / "reduced.txt"
    raw.write_text(emit_bimachine(hc), encoding="utf-8")
    reduced.write_text(emit_bimachine(hc.reduce()), encoding="utf-8")
    # Side a is the pivot; the two machines guess their right states together.
    assert run_cli("equiv", "--a", str(reduced), "--b", str(raw)) == 0
    assert capsys.readouterr().out == "EQUIVALENT(pairs=10085)\n"


def test_equiv_reports_first_mismatch(tmp_path, capsys):
    _, _, _, _, hc = built(2, 1)
    good = tmp_path / "good.txt"
    bad = tmp_path / "bad.txt"
    good.write_text(emit_bimachine(hc), encoding="utf-8")
    corrupted = merge_bimachine_states(
        hc, left_pair=(hc.left.run(("1",)), hc.left.run(("2",)))
    )
    bad.write_text(emit_bimachine(corrupted), encoding="utf-8")
    assert run_cli(
        "equiv", "--a", str(good), "--b", str(bad), "--max-len", "3",
    ) == 1
    out = capsys.readouterr().out
    assert out.startswith("MISMATCH word=")


def test_refute_verdicts(tmp_path, capsys):
    _, _, _, _, hc = built(2, 1)
    good = tmp_path / "good.txt"
    good.write_text(emit_bimachine(hc), encoding="utf-8")
    assert run_cli("refute", "--machine", str(good), "--k", "2", "--n", "1") == 0
    assert capsys.readouterr().out.strip() == (
        "BOUND-RESPECTED certified-left=true certified-right=true"
    )
    corrupted = merge_bimachine_states(
        hc,
        left_pair=(hc.left.run(("1",)), hc.left.run(("2",))),
        right_pair=(hc.right.run(("3",)), hc.right.run(("4",))),
    )
    bad = tmp_path / "bad.txt"
    bad.write_text(emit_bimachine(corrupted), encoding="utf-8")
    assert run_cli("refute", "--machine", str(bad), "--k", "2", "--n", "1") == 1
    assert capsys.readouterr().out.startswith("MISMATCH word=")


def test_refute_of_an_instance_over_another_alphabet_is_usage_error(tmp_path, capsys):
    machine = tmp_path / "m.txt"
    assert run_cli("construct", "--method", "handcrafted", "--k", "3", "--n", "2",
                   "--reduce", "--out", str(machine)) == 0
    capsys.readouterr()
    for k in ("2", "4"):
        assert run_cli("refute", "--machine", str(machine), "--k", k, "--n", "2") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: instance alphabet differs from the machine's\n"
    assert run_cli("refute", "--machine", str(machine), "--k", "3", "--n", "2") == 0


def test_experiment_csv_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli("experiment", "--kmax", "2", "--nmax", "2", "--csv", str(first)) == 0
    assert run_cli("experiment", "--kmax", "2", "--nmax", "2", "--csv", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()
    header = first.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("k,n,construction,")


def test_missing_file_is_usage_error(tmp_path, capsys):
    assert run_cli("eval", "--machine", str(tmp_path / "nope.txt"), "--word", "1") == 2
    assert "error:" in capsys.readouterr().err


def test_bad_format_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("transducer v7\n", encoding="utf-8")
    assert run_cli("eval", "--machine", str(bad), "--word", "1") == 2
    assert "line 1" in capsys.readouterr().err


def test_bimachine_over_no_letters_is_usage_error(tmp_path, capsys):
    machine = tmp_path / "none.txt"
    machine.write_text("bimachine v1\nalphabet\noalphabet x\nleft states 1 start 0\n"
                       "right states 2 start 1\nepsout -\n", encoding="utf-8")
    assert run_cli("eval", "--machine", str(machine), "--word", "-") == 2
    assert capsys.readouterr().err == (
        "error: line 2: a bimachine needs at least one input letter\n")
    # Nor is such a machine built, so none is written.
    transducer = tmp_path / "t.txt"
    transducer.write_text("transducer v1\nalphabet\noalphabet x\nstates 1\ninitial 0\n"
                          "final 0\n", encoding="utf-8")
    out = tmp_path / "b.txt"
    assert run_cli("construct", "--method", "generic", "--in", str(transducer),
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: a bimachine needs at least one input letter\n"
    assert not out.exists()


def test_parser_is_built_once_and_handlers_are_looked_up_per_call(monkeypatch):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "cmd_eval", lambda args: 7)
    assert main(["eval", "--machine", "m.txt", "--word", "1"]) == 7


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["instance", "--k", "2"])
    assert info.value.code == 2


def test_equiv_mismatch_line_shows_every_side(tmp_path, capsys):
    _, _, _, _, hc = built(2, 1)
    good = tmp_path / "good.txt"
    bad = tmp_path / "bad.txt"
    good.write_text(emit_bimachine(hc), encoding="utf-8")
    corrupted = merge_bimachine_states(
        hc, left_pair=(hc.left.run(("1",)), hc.left.run(("2",)))
    )
    bad.write_text(emit_bimachine(corrupted), encoding="utf-8")
    assert run_cli(
        "equiv", "--a", str(good), "--b", str(bad), "--oracle", "2,1", "--max-len", "3",
    ) == 1
    assert capsys.readouterr().out == "MISMATCH word=2.3 a=3.2 b=3.1 oracle=3.2\n"


def test_equiv_shows_only_a_word_every_side_was_evaluated_on(tmp_path, capsys, monkeypatch):
    _, _, _, _, hc = built(2, 1)
    good = tmp_path / "good.txt"
    good.write_text(emit_bimachine(hc), encoding="utf-8")
    monkeypatch.setattr(cli, "_compare", lambda x, y: (("1",), 0))
    assert run_cli("equiv", "--a", str(good), "--b", str(good), "--oracle", "2,1") == 2
    assert "every side agrees on 1" in capsys.readouterr().err


@pytest.mark.parametrize("oracle", ["2", "2,1,3", ""])
def test_equiv_malformed_oracle_is_usage_error(tmp_path, capsys, oracle):
    machine = tmp_path / "inst.txt"
    assert run_cli("instance", "--k", "2", "--n", "1", "--out", str(machine)) == 0
    capsys.readouterr()
    assert run_cli("equiv", "--a", str(machine), "--b", str(machine), "--oracle", oracle) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --oracle wants k,n, got '{oracle}'\n"


def _rule_out_refute(tmp_path, monkeypatch):
    """The correct (2,1) handcrafted machine, with find_collisions made to
    report a collision on each side."""
    params, _, _, _, hc = built(2, 1)
    machine = tmp_path / "hc.txt"
    machine.write_text(emit_bimachine(hc), encoding="utf-8")
    pairs = (FoolingPair("left", ("1",), ("2",)), FoolingPair("right", ("3",), ("4",)))
    monkeypatch.setattr(lowerbound, "find_collisions", lambda b, p: pairs)
    return (lambda: refute(hc, params),
            ["refute", "--machine", str(machine), "--k", "2", "--n", "1"])


def _rule_out_equiv(tmp_path, monkeypatch):
    """Two equal machines, with the delay search made to report 1.3."""
    machine = tmp_path / "inst.txt"
    assert run_cli("instance", "--k", "2", "--n", "1", "--out", str(machine)) == 0
    t = parse_transducer(machine.read_text(encoding="utf-8"))
    monkeypatch.setattr(transducer, "_delay_search", lambda *args: ([("1", "3")], 0))
    return (lambda: equivalent(t, t),
            ["equiv", "--a", str(machine), "--b", str(machine)])


def _rule_out_functional(tmp_path, monkeypatch):
    """The (2,1) instance transducer, with the delay search made to report 1.3."""
    machine = tmp_path / "inst.txt"
    assert run_cli("instance", "--k", "2", "--n", "1", "--out", str(machine)) == 0
    prepared = trim(remove_input_epsilons(parse_transducer(machine.read_text(encoding="utf-8"))))
    monkeypatch.setattr(transducer, "_delay_search", lambda *args: ([("1", "3")], 0))
    return (lambda: check_functional(prepared), ["functional", "--in", str(machine)])


@pytest.mark.parametrize("rule_out", [_rule_out_refute, _rule_out_equiv, _rule_out_functional],
                         ids=["refute", "equiv", "functional"])
def test_a_ruled_out_result_is_a_consistency_error(tmp_path, capsys, monkeypatch, rule_out):
    check, argv = rule_out(tmp_path, monkeypatch)
    with pytest.raises(ConsistencyError):
        check()
    capsys.readouterr()
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_equiv_product_too_large_is_input_error(tmp_path, capsys):
    # 317 x 317 start pairs. With one final state only the pair of it with
    # itself can accept, and the search holds that pair alone. With every
    # state final, the 100,489 pairs of final states are too many to prune
    # by, and the search refuses its start pairs.
    states = " ".join(map(str, range(317)))
    machine = tmp_path / "starts.txt"
    machine.write_text(
        f"transducer v1\nalphabet a\nstates 317\ninitial {states}\nfinal 0\n",
        encoding="utf-8",
    )
    assert run_cli("equiv", "--a", str(machine), "--b", str(machine)) == 0
    assert capsys.readouterr().out == "EQUIVALENT(pairs=1)\n"
    machine.write_text(
        f"transducer v1\nalphabet a\nstates 317\ninitial {states}\nfinal {states}\n",
        encoding="utf-8",
    )
    assert run_cli("equiv", "--a", str(machine), "--b", str(machine)) == 2
    assert "equivalence check exceeds 100000 state pairs" in capsys.readouterr().err


def test_equiv_empty_word_with_output_is_input_error(tmp_path, capsys):
    machine = tmp_path / "eps.txt"
    machine.write_text(
        "transducer v1\nalphabet a\noalphabet x\nstates 2\ninitial 0\nfinal 1\n"
        "arc 0 1 - x\n",
        encoding="utf-8",
    )
    assert run_cli("equiv", "--a", str(machine), "--b", str(machine)) == 2
    assert "empty input maps to nonempty output" in capsys.readouterr().err


def test_too_many_states_is_input_error(tmp_path, capsys):
    machine = tmp_path / "big.txt"
    machine.write_text(
        "transducer v1\nalphabet a\nstates 200000\ninitial 0\nfinal 1\narc 0 1 - -\n",
        encoding="utf-8",
    )
    assert run_cli("functional", "--in", str(machine)) == 2
    assert "200000 states" in capsys.readouterr().err


def test_bimachine_with_too_many_psi_cells_is_input_error(tmp_path, capsys):
    # 5000 x 1 x 5000 cells, over PSI_CAP = 2^24, declared by a 166 kB file:
    # refused before the table is allocated, for every command that reads it.
    arcs = {side: "".join(f"{side} {q} a {(q + 1) % 5000}\n" for q in range(5000))
            for side in ("larc", "rarc")}
    machine = tmp_path / "wide.txt"
    machine.write_text(
        "bimachine v1\nalphabet a\noalphabet x\nleft states 5000 start 0\n"
        f"{arcs['larc']}right states 5000 start 0\n{arcs['rarc']}psi 0 a 0 x\n",
        encoding="utf-8",
    )
    assert machine.stat().st_size < 200_000
    tracemalloc.start()
    try:
        assert run_cli("eval", "--machine", str(machine), "--word", "a") == 2
        assert run_cli("refute", "--machine", str(machine), "--k", "2", "--n", "1") == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20  # the table alone would take 100 MB
    err = capsys.readouterr().err
    assert err.count("psi table of 5000 x 1 x 5000 cells exceeds 16777216") == 2


def wide_machine(states):
    """A bimachine file over one letter with ``states`` states per side and
    one psi line: a table of states x 1 x states cells."""
    arcs = {side: "".join(f"{side} {q} a {(q + 1) % states}\n" for q in range(states))
            for side in ("larc", "rarc")}
    return (f"bimachine v1\nalphabet a\noalphabet x\nleft states {states} start 0\n"
            f"{arcs['larc']}right states {states} start 0\n{arcs['rarc']}psi 0 a 0 x\n")


def test_a_machine_at_the_psi_cap_reads_in_little_memory(tmp_path, capsys):
    # 4096 x 1 x 4096 cells is exactly PSI_CAP, declared by a 135 kB file.
    text = wide_machine(4096)
    assert len(text) < 140_000
    tracemalloc.start()
    try:
        machine = parse_bimachine(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # a flat table alone would take 64 MB
    assert len(machine.psi) == 1 and machine.psi.distinct == 1
    wide = tmp_path / "wide.txt"
    wide.write_text(wide_machine(4097), encoding="utf-8")
    assert run_cli("eval", "--machine", str(wide), "--word", "a") == 2
    assert "psi table of 4097 x 1 x 4097 cells exceeds 16777216" in capsys.readouterr().err


def test_squared_machine_too_large_is_input_error(tmp_path, capsys):
    states = " ".join(map(str, range(700)))
    machine = tmp_path / "starts.txt"
    machine.write_text(
        f"transducer v1\nalphabet a\nstates 700\ninitial {states}\nfinal {states}\n",
        encoding="utf-8",
    )
    assert run_cli("functional", "--in", str(machine)) == 2
    assert "functionality check exceeds 100000 state pairs" in capsys.readouterr().err


def test_long_epsilon_chain_is_input_error(tmp_path, capsys):
    # 2000 output-free epsilon steps: about 2 million closure pairs.
    arcs = "".join(f"arc {q} {q + 1} - -\n" for q in range(2000))
    machine = tmp_path / "chain.txt"
    machine.write_text(
        "transducer v1\nalphabet a\nstates 2002\ninitial 0\nfinal 2001\n"
        + arcs + "arc 2000 2001 a a\n",
        encoding="utf-8",
    )
    assert run_cli("functional", "--in", str(machine)) == 2
    assert "epsilon closures exceed" in capsys.readouterr().err


def test_exponential_relation_is_input_error(tmp_path, capsys):
    machine = tmp_path / "fan.txt"
    machine.write_text(
        "transducer v1\nalphabet a\noalphabet x y\nstates 1\ninitial 0\nfinal 0\n"
        "arc 0 0 a x\narc 0 0 a y\n",
        encoding="utf-8",
    )
    assert run_cli("eval", "--machine", str(machine), "--word", ".".join("a" * 17)) == 2
    assert "error:" in capsys.readouterr().err
