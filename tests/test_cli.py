import argparse
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from bondc import cli, ode, ssa
from bondc.cli import main

MODELS = Path(__file__).resolve().parent.parent / "models"
SRC = Path(__file__).resolve().parent.parent / "src"
CRN_GOLDEN = Path(__file__).resolve().parent / "data" / "crn"
TRANSITIONS_GOLDEN = Path(__file__).resolve().parent / "data" / "transitions"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_ok(capsys):
    code, out, err = run(capsys, "check", str(MODELS / "mm.bond"))
    assert code == 0
    assert out.strip() == "ok"


def test_check_missing_file(capsys):
    code, out, err = run(capsys, "check", str(MODELS / "does_not_exist.bond"))
    assert code == 1
    assert err.startswith("error[PARSE]:")


def test_check_directory_is_parse_error(tmp_path, capsys):
    code, out, err = run(capsys, "check", str(tmp_path))
    assert code == 1
    assert err.startswith("error[PARSE]:")


def test_check_non_utf8_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "latin1.bond"
    bad.write_bytes("species X = s.0; # caf\xe9\n".encode("latin-1"))
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1
    assert err.startswith("error[PARSE]:") and "not UTF-8" in err


def test_check_syntax_error(tmp_path, capsys):
    bad = tmp_path / "bad.bond"
    bad.write_text("species X = ;")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1
    assert err.startswith("error[PARSE]:")


def test_check_arity_error(capsys):
    code, out, err = run(capsys, "check", str(MODELS / "broken_arity.bond"))
    assert code == 1
    assert err.startswith("error[ARITY]:")


def test_primes_lists_species(capsys):
    code, out, err = run(capsys, "primes", str(MODELS / "mm.bond"))
    assert code == 0
    names = out.splitlines()
    assert set(names) >= {"S", "E", "P"}


def test_primes_cap_exceeded(capsys):
    code, out, err = run(capsys, "primes", str(MODELS / "enzyme.bond"), "--cap", "1")
    assert code == 1
    assert err.startswith("error[UNBOUNDED]:")


def test_transitions_filtered(capsys):
    code, out, err = run(
        capsys, "transitions", str(MODELS / "mm.bond"), "--species", "P"
    )
    assert code == 0
    assert out.count("\n") == 1 and "p" in out


def test_transitions_species_with_parameters(capsys):
    code, out, err = run(
        capsys, "transitions", str(MODELS / "inhibitor.bond"), "--species", "SiteB"
    )
    assert code == 0
    assert out.splitlines()[0] == "SiteB(l)  --[b']@l-->  ()SiteB(l)  x1"
    assert all(line.startswith("SiteB(l)  --[") for line in out.splitlines())


def test_transitions_unknown_species(capsys):
    code, out, err = run(
        capsys, "transitions", str(MODELS / "mm.bond"), "--species", "Zed"
    )
    assert code == 1
    assert err.startswith("error[PARSE]: unknown species")


def test_crn_json(capsys):
    code, out, err = run(capsys, "crn", str(MODELS / "dimer.bond"))
    assert code == 0
    doc = json.loads(out)
    assert "primes" in doc and "reactions" in doc
    assert len(doc["reactions"]) == 2


@pytest.mark.parametrize("golden", sorted(CRN_GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_crn_matches_golden(capsys, golden):
    code, out, err = run(capsys, "crn", str(MODELS / f"{golden.stem}.bond"))
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "golden", sorted(TRANSITIONS_GOLDEN.glob("*.txt")), ids=lambda p: p.stem
)
def test_transitions_match_golden(capsys, golden):
    # <model>.txt is the whole table; <model>.<species>.txt is --species
    model, _, species = golden.stem.partition(".")
    options = ["--species", species] if species else []
    code, out, err = run(capsys, "transitions", str(MODELS / f"{model}.bond"), *options)
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


def test_odes_text(capsys):
    code, out, err = run(capsys, "odes", str(MODELS / "mm.bond"))
    assert code == 0
    golden = (Path(__file__).parent / "data" / "mm_odes.txt").read_text()
    assert out == golden


def test_odes_latex(capsys):
    code, out, err = run(capsys, "odes", str(MODELS / "mm.bond"), "--format", "latex")
    assert code == 0
    assert r"\begin{align*}" in out


def test_odes_json(capsys):
    code, out, err = run(capsys, "odes", str(MODELS / "mm.bond"), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["odes"]) == len(doc["primes"])


def test_simulate_stdout_csv(capsys):
    code, out, err = run(
        capsys, "simulate", str(MODELS / "mm.bond"), "--t-end", "1.0", "--grid", "4"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,S,E,P"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 10.0


@pytest.mark.parametrize(
    "command, options, header",
    [
        ("simulate", ["--t-end", "1.0"], "t,S,E,P"),
        ("ssa", ["--h", "0.5", "--t-end", "1.0", "--seed", "42"], "run,t,S,E,P"),
    ],
    ids=["simulate", "ssa"],
)
def test_simulate_out_file(tmp_path, capsys, command, options, header):
    dest = tmp_path / "out.csv"
    code, out, err = run(
        capsys,
        command,
        str(MODELS / "mm.bond"),
        *options,
        "--out",
        str(dest),
    )
    assert code == 0
    assert out == ""
    assert dest.read_text().splitlines()[0] == header


LOADING_COMMANDS = pytest.mark.parametrize(
    "argv",
    [["check"], ["simulate", "--t-end", "1"], ["ssa", "--h", "1", "--seed", "1", "--t-end", "1"]],
    ids=lambda argv: argv[0],
)


@pytest.mark.parametrize("amount", ["-1", "1e400"])
@LOADING_COMMANDS
def test_concentration_must_be_finite_and_nonnegative(tmp_path, capsys, argv, amount):
    model = tmp_path / "m.bond"
    model.write_text(f"species X = x.0;\nmixture {{ {amount} X }}\n")
    code, out, err = run(capsys, argv[0], str(model), *argv[1:])
    assert (code, out) == (1, "")
    found = {"-1": "-1", "1e400": "inf"}[amount]
    assert err == f"error[PARSE]: 2:11: expected a finite concentration >= 0, found {found}\n"


@pytest.mark.parametrize(
    "law, message",
    [
        ("MA(-1)", "expected a rate constant >= 0, found -1"),
        ("MA(1e400)", "expected a finite law parameter, found inf"),
    ],
    ids=["negative", "overflow"],
)
@LOADING_COMMANDS
def test_law_parameter_must_be_finite(tmp_path, capsys, argv, law, message):
    model = tmp_path / "m.bond"
    model.write_text(f"species X = x.0;\naffinity {{ x at {law}; }}\nmixture {{ 5 X }}\n")
    code, out, err = run(capsys, argv[0], str(model), *argv[1:])
    assert (code, out) == (1, "")
    assert err == f"error[PARSE]: 2:20: {message}\n"


def test_user_law_takes_a_negative_parameter(tmp_path, capsys):
    model = tmp_path / "m.bond"
    model.write_text(
        "species X = x.0;\nlaw F(k; x) = -k * x;\naffinity { x at F(-1); }\nmixture { 5 X }\n"
    )
    assert run(capsys, "check", str(model)) == (0, "ok\n", "")
    code, out, err = run(capsys, "simulate", str(model), "--t-end", "1", "--grid", "1")
    assert (code, err) == (0, "")
    assert float(out.splitlines()[-1].split(",")[1]) == pytest.approx(5.0 * math.exp(-1.0))


def test_out_in_missing_directory_is_io_error(tmp_path, capsys):
    dest = tmp_path / "missing" / "out.csv"
    code, out, err = run(
        capsys, "simulate", str(MODELS / "mm.bond"), "--t-end", "1.0", "--out", str(dest)
    )
    assert code == 1
    assert err.startswith("error[IO]:")


def test_out_directory_is_io_error(tmp_path, capsys):
    code, out, err = run(
        capsys, "ssa", str(MODELS / "mm.bond"), "--h", "0.5", "--t-end", "1.0",
        "--seed", "42", "--out", str(tmp_path),
    )
    assert code == 1
    assert err.startswith("error[IO]:")


@pytest.mark.parametrize(
    "command, options",
    [
        ("simulate", ["--t-end", "1.0"]),
        ("ssa", ["--h", "0.5", "--t-end", "1.0", "--seed", "42"]),
    ],
    ids=["simulate", "ssa"],
)
def test_unwritable_out_fails_before_the_run(tmp_path, capsys, monkeypatch, command, options):
    def never(*args, **kwargs):
        raise AssertionError("simulated before opening --out")

    monkeypatch.setattr(ode, "integrate", never)
    monkeypatch.setattr(ssa, "gillespie_runs", never)
    dest = tmp_path / "missing" / "out.csv"
    code, out, err = run(
        capsys, command, str(MODELS / "mm.bond"), *options, "--out", str(dest)
    )
    assert code == 1
    assert err.startswith("error[IO]:")


def test_closed_stdout_pipe_is_not_an_error():
    # about 250 kB of CSV, more than a pipe holds: bondc writes on after the reader has gone
    argv = ["ssa", str(MODELS / "enzyme.bond"), "--h", "0.01", "--seed", "1", "--t-end", "5"]
    with subprocess.Popen(
        [sys.executable, "-m", "bondc.cli", *argv, "--sample-dt", "0.0005"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(SRC)),
    ) as proc:
        assert proc.stdout.readline().startswith(b"run,t,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err.decode()) == (0, "")


def test_model_error_leaves_out_empty(tmp_path, capsys):
    dest = tmp_path / "out.csv"
    dest.write_text("old contents\n")
    code, out, err = run(
        capsys, "simulate", str(MODELS / "enzyme.bond"), "--t-end", "1.0",
        "--cap", "1", "--out", str(dest),
    )
    assert code == 1
    assert err.startswith("error[UNBOUNDED]:")
    assert dest.read_text() == ""


@pytest.mark.parametrize(
    "command, options",
    [
        ("simulate", ["--t-end", "1.0"]),
        ("ssa", ["--h", "0.5", "--t-end", "1.0", "--seed", "42"]),
    ],
    ids=["simulate", "ssa"],
)
def test_simulate_cap_exceeded(capsys, command, options):
    code, out, err = run(
        capsys, command, str(MODELS / "enzyme.bond"), *options, "--cap", "1"
    )
    assert code == 1
    assert err.startswith("error[UNBOUNDED]:")


def test_ssa_stdout_csv(capsys):
    code, out, err = run(
        capsys,
        "ssa",
        str(MODELS / "mm.bond"),
        "--h",
        "0.5",
        "--t-end",
        "1.0",
        "--seed",
        "42",
        "--sample-dt",
        "0.5",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "run,t,S,E,P"
    assert len(lines) == 4


def test_ssa_warns_of_a_prime_that_starts_at_zero_levels(tmp_path, capsys):
    path = tmp_path / "tiny.bond"
    path.write_text("species X = x.(X | X);\naffinity { x at MA(1); }\nmixture { 1 X }\n")
    argv = ["--seed", "1", "--t-end", "1", "--sample-dt", "0.5"]
    code, out, err = run(capsys, "ssa", str(path), "--h", "1e9", *argv)
    assert (code, out) == (0, "run,t,X\n0,0.0,0\n0,0.5,0\n0,1.0,0\n")
    assert err == "warning: initial concentration 1 of 'X' rounds to 0 levels at h=1e+09\n"
    assert run(capsys, "ssa", str(path), "--h", "1.5", *argv)[2] == ""  # 1/1.5 rounds to 1


def test_ssa_deterministic_reruns(capsys):
    argv = [
        "ssa",
        str(MODELS / "enzyme.bond"),
        "--h",
        "0.5",
        "--t-end",
        "2.0",
        "--seed",
        "7",
        "--runs",
        "3",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["simulate", str(MODELS / "mm.bond")])  # missing required --t-end
    assert ei.value.code == 2


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []  # the prog of every parser constructed, subcommand parsers included

    class Counting(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    # argparse's own methods name ArgumentParser, so the subclass goes into cli's view only
    monkeypatch.setattr(cli, "argparse", types.SimpleNamespace(**vars(argparse)))
    monkeypatch.setattr(cli.argparse, "ArgumentParser", Counting)
    cli._parser.cache_clear()
    mm = str(MODELS / "mm.bond")
    try:
        calls = [
            ["check", mm],
            ["primes", mm],
            ["transitions", mm],
            ["crn", mm],
            ["odes", mm, "--format", "latex"],
            ["odes", mm],
            ["simulate", mm, "--t-end", "1", "--grid", "2"],
            ["ssa", mm, "--h", "0.5", "--t-end", "1", "--seed", "1"],
            ["check", str(MODELS / "missing.bond")],
            ["primes", mm, "--cap", "1"],
        ]
        codes = [run(capsys, *argv)[0] for argv in calls]
        assert codes == [0] * 8 + [1, 1]
        assert built.count("bondc") == 1
        assert len(built) == 8  # bondc and its 7 subcommands, once
    finally:
        cli._parser.cache_clear()


def test_repeated_calls_do_not_share_state(capsys):
    argv = ["ssa", str(MODELS / "mm.bond"), "--h", "0.5", "--t-end", "1", "--seed", "3"]
    cli._parser.cache_clear()
    first = run(capsys, *argv)
    assert first[0] == 0
    assert run(capsys, *argv, "--runs", "3")[0] == 0
    with pytest.raises(SystemExit) as ei:
        main(["ssa", str(MODELS / "mm.bond")])
    assert ei.value.code == 2
    assert capsys.readouterr().err.startswith("usage: bondc ssa")
    with pytest.raises(SystemExit) as ei:
        main(["--help"])
    assert ei.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bondc")
    assert run(capsys, *argv) == first  # --runs is back at its default of 1


def test_no_command_exit_2(capsys):
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--t-end", "0"],
        ["simulate", "--t-end", "-1"],
        ["simulate", "--t-end", "nan"],
        ["simulate", "--t-end", "inf"],
        ["simulate", "--t-end", "1", "--rtol", "-1"],
        ["simulate", "--t-end", "1", "--atol", "0"],
        ["simulate", "--t-end", "1", "--grid", "0"],
        ["simulate", "--t-end", "1", "--cap", "0"],
        ["ssa", "--h", "0", "--t-end", "1", "--seed", "1"],
        ["ssa", "--h", "0.1", "--t-end", "-1", "--seed", "1"],
        ["ssa", "--h", "0.1", "--t-end", "1", "--seed", "-1"],
        ["ssa", "--h", "0.1", "--t-end", "1", "--seed", "1", "--sample-dt", "0"],
        ["ssa", "--h", "0.1", "--t-end", "1", "--seed", "1", "--runs", "0"],
        ["ssa", "--h", "0.1", "--t-end", "1", "--seed", "1.5"],
        ["primes", "--cap", "0"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_out_of_range_option_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as ei:
        main([argv[0], str(MODELS / "mm.bond"), *argv[1:]])
    err = capsys.readouterr().err
    assert ei.value.code == 2
    assert "Traceback" not in err and "error: argument" in err


NON_FINITE = {  # model: (source, reaction named, --t-end)
    "nan": (
        "species X = x.(X | X);\nlaw F(k; x) = k*x*x - k*x*x;\n"
        "affinity { x at F(1e300); }\nmixture { 1e10 X }\n",
        "x at F(1e+300)",
        "1",
    ),
    # a constant that overflows to inf must compile and be reported, not crash
    "inf": (
        "species X = x.0;\nlaw F(k; x) = k*k*x;\naffinity { x at F(1e300); }\nmixture { 1 X }\n",
        "x at F(1e+300)",
        "1",
    ),
    # finite at t=0, NaN inside an integration stage once X exceeds about 1e4
    "mid-step": (
        "species X = x.(X | X);\nlaw F(k; x) = k*x*x - k*x*x + x;\n"
        "affinity { x at F(1e300); }\nmixture { 1 X }\n",
        "x at F(1e+300)",
        "20",
    ),
}


@pytest.mark.parametrize(
    "options, model",
    [
        pytest.param(options, model, id=f"options{i}-{model}")
        for i, options in enumerate([["simulate"], ["ssa", "--h", "1e9", "--seed", "1"]])
        for model in sorted(NON_FINITE)
        # at --h 1e9 the ssa starts mid-step's model with no molecules
        if options[0] == "simulate" or model != "mid-step"
    ],
)
def test_non_finite_rate_is_domain_error(tmp_path, capsys, options, model):
    source, reaction, t_end = NON_FINITE[model]
    path = tmp_path / "nan.bond"
    path.write_text(source)
    code, out, err = run(capsys, options[0], str(path), "--t-end", t_end, *options[1:])
    assert code == 1
    assert err.startswith(f"error[DOMAIN]: non-finite rate for reaction '{reaction}'")


def test_simulate_without_primes(tmp_path, capsys):
    # no mixture: zero primes integrate to an empty trajectory, not a crash
    path = tmp_path / "empty.bond"
    path.write_text("species X = x.0;\naffinity { x at MA(1); }\n")
    code, out, err = run(capsys, "simulate", str(path), "--t-end", "1", "--grid", "2")
    assert (code, out) == (0, "t\n0.0\n0.5\n1.0\n")
    assert err == "warning: affinity entry 'x at MA(1)' matches no species\n"


def test_check_rejects_unguarded_recursion(tmp_path, capsys):
    path = tmp_path / "loop.bond"
    path.write_text("species X = (X | X);\n")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (1, "")
    assert err == "error[UNBOUNDED]: species 'X' recurses without a guard: X -> X\n"


def test_long_definition_chain_is_not_recursion(tmp_path, capsys):
    chain = "".join(f"species A{i} = A{i + 1};\n" for i in range(70))
    path = tmp_path / "chain.bond"
    path.write_text(chain + "species A70 = x.0;\naffinity { x at MA(1); }\nmixture { 1 A0 }\n")
    code, out, err = run(capsys, "crn", str(path))
    assert (code, err) == (0, "")
    assert len(json.loads(out)["reactions"]) == 1


def test_definition_chain_deeper_than_the_recursion_limit(tmp_path, capsys):
    chain = "".join(f"species A{i} = A{i + 1};\n" for i in range(1200))
    path = tmp_path / "chain.bond"
    path.write_text(chain + "species A1200 = x.0;\naffinity { x at MA(1); }\nmixture { 1 A0 }\n")
    code, out, err = run(capsys, "crn", str(path))
    assert (code, err) == (0, "")
    assert len(json.loads(out)["reactions"]) == 1


@pytest.mark.parametrize(
    "command, text",
    [
        pytest.param("check", "species X = " + "a." * 1500 + "0;\n", id="deep-guard"),
        pytest.param(
            "crn",
            "".join(f"species A{i} = (A{i + 1} | x.0);\n" for i in range(400))
            + "species A400 = x.0;\naffinity { x at MA(1); }\nmixture { 1 A0 }\n",
            id="deep-par-chain",
        ),
    ],
)
def test_too_deep_model_is_an_error(tmp_path, capsys, command, text):
    path = tmp_path / "deep.bond"
    path.write_text(text)
    code, out, err = run(capsys, command, str(path))
    assert (code, out, err) == (1, "", "error[UNBOUNDED]: the model nests too deeply\n")


@pytest.mark.parametrize("command", [["crn"], ["simulate", "--t-end", "1"]], ids=lambda c: c[0])
def test_constant_division_by_zero_names_reaction(tmp_path, capsys, command):
    path = tmp_path / "div.bond"
    path.write_text(
        "species X = x.0;\nlaw F(k; x) = k / (k - k);\naffinity { x at F(2); }\nmixture { 1 X }\n"
    )
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (1, "")
    assert err == "error[DOMAIN]: rate evaluation failed for reaction 'x at F(2)': division by zero\n"


@pytest.mark.parametrize(
    "command",
    [["crn"], ["odes"], ["simulate", "--t-end", "1"], ["ssa", "--h", "1", "--t-end", "1", "--seed", "1"]],
    ids=lambda c: c[0],
)
def test_compile_warnings_are_printed(tmp_path, capsys, command):
    path = tmp_path / "unmatched.bond"
    path.write_text(
        "species X = x.0;\nspecies Y = q.0;\n"
        "affinity { x at MA(1); q at MA(1); }\nmixture { 1 X }\n"
    )
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 0
    assert err == "warning: affinity entry 'q at MA(1)' matches no species\n"
