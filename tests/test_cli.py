import json
from pathlib import Path

import pytest

from bondc.cli import main

MODELS = Path(__file__).resolve().parent.parent / "models"


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


def test_no_command_exit_2(capsys):
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2
