import argparse
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import bondc
from bondc import cli, ode, ssa
from bondc.cli import main

from conftest import bond_graph_source, cube_edges
from test_ssa import clamped, cluster

MODELS = Path(__file__).resolve().parent.parent / "models"
SRC = Path(__file__).resolve().parent.parent / "src"
CRN_GOLDEN = Path(__file__).resolve().parent / "data" / "crn"
TRANSITIONS_GOLDEN = Path(__file__).resolve().parent / "data" / "transitions"
SSA_GOLDEN = Path(__file__).resolve().parent / "data" / "ssa"
SIMULATE_GOLDEN = Path(__file__).resolve().parent / "data" / "simulate"


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


# every exception class a bondc module defines with a str ``code``, by qualified name
CODED_ERRORS = {
    f"{cls.__module__}.{cls.__qualname__}": cls
    for info in pkgutil.iter_modules(bondc.__path__)
    for cls in vars(importlib.import_module(f"bondc.{info.name}")).values()
    if isinstance(cls, type) and issubclass(cls, Exception)
    and cls.__module__.startswith("bondc.") and isinstance(getattr(cls, "code", None), str)
}


@pytest.mark.parametrize("name", sorted(CODED_ERRORS))
def test_every_coded_error_is_one_error_line(capsys, monkeypatch, name):
    # raised from inside the compile, each gives exit 1 and one error[CODE]: line
    cls = CODED_ERRORS[name]
    e = cls.__new__(cls)
    Exception.__init__(e, "raised in the compile")

    def fail(*args, **kwargs):
        raise e

    monkeypatch.setattr(cli, "build_reaction_system", fail)
    code, out, err = run(capsys, "crn", str(MODELS / "mm.bond"))
    assert (code, out, err) == (1, "", f"error[{cls.code}]: raised in the compile\n")


def test_a_call_may_repeat_a_location(tmp_path, capsys):
    # Q(l, l) passes one location for both parameters: A behaves as Q's body at l
    repeated = tmp_path / "repeated.bond"
    repeated.write_text(
        "species Q(l, m) = a@l.0 + b@m.0;\nspecies A = new l in (Q(l, l) | c@l.0);\n"
    )
    inline = tmp_path / "inline.bond"
    inline.write_text("species A = new l in ((a@l.0 + b@l.0) | c@l.0);\n")
    assert run(capsys, "check", str(repeated)) == (0, "ok\n", "")
    table = run(capsys, "transitions", str(inline), "--species", "A")
    assert table[0] == 0 and len(table[1].splitlines()) == 2
    assert run(capsys, "transitions", str(repeated), "--species", "A") == table


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


@pytest.mark.parametrize("golden", sorted(SSA_GOLDEN.glob("*.csv")), ids=lambda p: p.stem)
def test_ssa_matches_golden(capsys, golden):
    argv = ["--h", "0.01", "--t-end", "5", "--seed", "1", "--runs", "2"]
    code, out, err = run(capsys, "ssa", str(MODELS / f"{golden.stem}.bond"), *argv)
    assert (code, err) == (0, "")
    assert out == golden.read_text(encoding="utf-8")


# the corpus models with a prime that no reaction changes: the ODE step carries it as it is
SIMULATE_ARGV = {"kuznetsov": ["--t-end", "1600", "--grid", "40"]}


@pytest.mark.parametrize("golden", sorted(SIMULATE_GOLDEN.glob("*.csv")), ids=lambda p: p.stem)
def test_simulate_matches_golden(capsys, golden):
    argv = SIMULATE_ARGV.get(golden.stem, ["--t-end", "5", "--grid", "50"])
    code, out, err = run(capsys, "simulate", str(MODELS / f"{golden.stem}.bond"), *argv)
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == golden.read_bytes()


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


@pytest.mark.parametrize("golden", sorted(CRN_GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_odes_latex_is_ascii_with_a_row_per_prime(capsys, golden):
    # pdflatex's default UTF-8 set-up has no ℓ, and math mode drops spaces: a prime
    # such as (new ℓ0 in (A'(ℓ0) | A'(ℓ0))) is written with \ell{} and "\ "
    code, out, err = run(capsys, "odes", str(MODELS / f"{golden.stem}.bond"), "--format", "latex")
    assert code == 0
    assert out.isascii()
    primes = json.loads(golden.read_text(encoding="utf-8"))["primes"]
    rows = [line for line in out.splitlines() if line.startswith(r"\frac")]
    assert len(rows) == len(primes)
    assert not any(" " in p for p in primes) or r"\ " in out


def test_odes_json(capsys):
    code, out, err = run(capsys, "odes", str(MODELS / "mm.bond"), "--format", "json")
    assert code == 0 and out.endswith("}\n")
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
        [sys.executable, "-m", "bondc.cli", *argv, "--grid", "10000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(SRC)),
    ) as proc:
        assert proc.stdout.readline().startswith(b"run,t,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err.decode()) == (0, "")


WITHOUT = """
import contextlib, io, json, sys
sys.modules[sys.argv[1]] = None  # any import of that module now raises ImportError
from bondc.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        results.append([main(argv), out.getvalue()])
print(json.dumps(results))
"""


def test_compile_commands_run_without_numpy(capsys):
    # only simulate and ssa need numpy: the compiler's commands run with it blocked
    f = str(MODELS / "kuznetsov.bond")
    argvs = [["check", f], ["primes", f], ["transitions", f], ["crn", f]]
    argvs += [["odes", f, "--format", fmt] for fmt in ("text", "latex", "json")]
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT, "numpy", json.dumps(argvs)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    blocked = json.loads(proc.stdout)
    assert blocked == [[*run(capsys, *argv)[:2]] for argv in argvs]
    assert blocked[3][1] == (CRN_GOLDEN / "kuznetsov.json").read_text(encoding="utf-8")


def test_ssa_runs_without_numpy_random():
    # the SSA draws from the standard library's generator, so its goldens need no
    # numpy.random (which numpy 2 imports only when it is first used)
    goldens = sorted(SSA_GOLDEN.glob("*.csv"))
    argv = ["--h", "0.01", "--t-end", "5", "--seed", "1", "--runs", "2"]
    argvs = [["ssa", str(MODELS / f"{golden.stem}.bond"), *argv] for golden in goldens]
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT, "numpy.random", json.dumps(argvs)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == [[0, g.read_text(encoding="utf-8")] for g in goldens]


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
        "--grid",
        "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "run,t,S,E,P"
    assert len(lines) == 4


def test_ssa_warns_of_a_prime_that_starts_at_zero_levels(tmp_path, capsys):
    path = tmp_path / "tiny.bond"
    path.write_text("species X = x.(X | X);\naffinity { x at MA(1); }\nmixture { 1 X }\n")
    argv = ["--seed", "1", "--t-end", "1", "--grid", "2"]
    code, out, err = run(capsys, "ssa", str(path), "--h", "1e9", *argv)
    assert (code, out) == (0, "run,t,X\n0,0.0,0\n0,0.5,0\n0,1.0,0\n")
    assert err == "warning: initial concentration 1 of 'X' rounds to 0 levels at h=1e+09\n"
    assert run(capsys, "ssa", str(path), "--h", "1.5", *argv)[2] == ""  # 1/1.5 rounds to 1


def test_ssa_warns_of_zero_levels_before_a_run_fails(tmp_path, capsys):
    # X fires at 1 / (X - 1): the run divides by zero once two of its three
    # levels are gone, after the warning for Z is out
    path = tmp_path / "fails.bond"
    path.write_text(
        "species X = x.0;\nspecies Z = z.0;\nlaw F(k; a) = k / (a - 1);\n"
        "affinity { x at F(1); z at MA(1); }\nmixture { 3 X, 0.01 Z }\n"
    )
    code, out, err = run(capsys, "ssa", str(path), "--h", "1", "--t-end", "100", "--seed", "1")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "warning: initial concentration 0.01 of 'Z' rounds to 0 levels at h=1",
        "error[DOMAIN]: rate evaluation failed for reaction 'x at F(1)': division by zero",
    ]


def test_ssa_prints_each_runs_warnings(tmp_path, capsys):
    # T -> P + Q takes P and Q to 2 levels, where k * (1.5 - x) is negative in every run
    path = tmp_path / "clamped.bond"
    path.write_text(clamped("q"))
    argv = ["--h", "1", "--t-end", "100", "--seed", "1", "--runs", "2", "--grid", "2"]
    code, out, err = run(capsys, "ssa", str(path), *argv)
    assert code == 0 and out.startswith("run,t,T,P,Q\n")
    assert err.splitlines() == [
        f"warning: run {i}: negative propensity for 'q at N(1)' clamped to 0"
        for i in range(2)
    ]


def test_ssa_level_count_beyond_int64_is_domain_error(tmp_path, capsys):
    # 10 S at h=1e-18 is 1e19 levels, above 2^63 - 1
    dest = tmp_path / "out.csv"
    argv = ["--h", "1e-18", "--t-end", "1", "--seed", "1", "--out", str(dest)]
    code, out, err = run(capsys, "ssa", str(MODELS / "mm.bond"), *argv)
    message = "'S' starts at 1e+19 levels at h=1e-18, more than a level count holds (2^63 - 1)"
    assert (code, out, err) == (1, "", f"error[DOMAIN]: {message}\n")
    assert dest.read_text() == ""
    # an h so small that the level count is infinite
    code, out, err = run(capsys, "ssa", str(MODELS / "mm.bond"), "--h", "1e-320", *argv[2:])
    assert (code, out) == (1, "")
    assert err.startswith("error[DOMAIN]: 'S' starts at inf levels at h=")


@pytest.mark.parametrize(
    "command",
    [["simulate", "--t-end", "1"], ["ssa", "--h", "1", "--t-end", "1", "--seed", "1"]],
    ids=["simulate", "ssa"],
)
def test_mixture_sum_that_is_not_finite_is_domain_error(tmp_path, capsys, command):
    # each amount is finite, so check says ok; X's sum is inf
    path = tmp_path / "sum.bond"
    path.write_text("species X = x.0;\naffinity { x at MA(1); }\nmixture { 1e308 X, 1e308 X }\n")
    assert run(capsys, "check", str(path))[0] == 0
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (1, "")
    assert err == "error[DOMAIN]: the mixture's concentrations of 'X' sum to inf\n"


def test_ssa_level_count_within_int64_runs(capsys):
    # 1e18 levels of S fit; at t-end 1e-30 the first event comes after the end
    argv = ["--h", "1e-17", "--t-end", "1e-30", "--seed", "1", "--grid", "1"]
    code, out, err = run(capsys, "ssa", str(MODELS / "mm.bond"), *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "0,0.0,999999999999999872,100000000000000000,0"


def test_ssa_level_count_past_int64_during_a_run_is_domain_error(tmp_path, capsys):
    # A starts 1,023 levels below 2^63 - 1 and gains one at each event
    path = tmp_path / "grows.bond"
    path.write_text(
        "species A = a.(A | A);\naffinity { a at MA(1.0); }\nmixture { 9.223372036854775e18 A }\n"
    )
    dest = tmp_path / "out.csv"
    argv = ["--h", "1", "--t-end", "1e-15", "--seed", "1", "--out", str(dest)]
    code, out, err = run(capsys, "ssa", str(path), *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error[DOMAIN]: run 0: 'A' reaches ") and err.count("\n") == 1
    assert err.endswith(" levels at h=1, more than a level count holds (2^63 - 1)\n")
    assert dest.read_text() == ""


@pytest.mark.parametrize("t_end, grid", [("1", "3"), ("5", "50"), ("0.9", "200"), ("3", "7")])
def test_simulate_and_ssa_sample_one_grid(capsys, t_end, grid):
    # a third and 0.9 / 200 are inexact in binary: the last time is still exactly --t-end
    f = str(MODELS / "mm.bond")
    code, ode_out, err = run(capsys, "simulate", f, "--t-end", t_end, "--grid", grid)
    assert (code, err) == (0, "")
    argv = ["--h", "0.01", "--seed", "1", "--t-end", t_end, "--grid", grid]
    code, ssa_out, err = run(capsys, "ssa", f, *argv)
    assert (code, err) == (0, "")
    times = [row.split(",")[0] for row in ode_out.splitlines()[1:]]
    assert times == [row.split(",")[1] for row in ssa_out.splitlines()[1:]]
    assert len(times) == int(grid) + 1 and float(times[-1]) == float(t_end)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--t-end", "1", "--grid", "1000000000000000"],  # 7 PiB of grid times
        ["ssa", "--h", "0.1", "--t-end", "1", "--seed", "1", "--grid", "1000000000000000"],
    ],
    ids=lambda argv: argv[0],
)
def test_output_too_large_to_allocate_is_memory_error(capsys, argv):
    # both exceed a 47-bit address space: the allocation fails without touching memory
    code, out, err = run(capsys, argv[0], str(MODELS / "mm.bond"), *argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith("error[MEMORY]: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--t-end", "1", "--grid", str(10**20)],
        ["ssa", "--h", "0.1", "--t-end", "1e10", "--seed", "1", "--grid", str(10**20)],
    ],
    ids=lambda argv: argv[0],
)
def test_grid_numpy_cannot_size_is_memory_error(capsys, argv):
    # 1e20 sample times of 8 bytes are past 2^63 bytes, where numpy raises ValueError
    code, out, err = run(capsys, argv[0], str(MODELS / "mm.bond"), *argv[1:])
    assert (code, out) == (1, "")
    assert err == "error[MEMORY]: a grid of 1e+20 sample times does not fit in memory\n"


def test_ssa_event_budget_is_unbounded_error(capsys, monkeypatch):
    # at h=0.01 Kuznetsov fires millions of events per day: the budget stops run 0
    monkeypatch.setattr(ssa, "MAX_EVENTS", 1000)
    argv = ["--h", "0.01", "--t-end", "5", "--seed", "1", "--runs", "2"]
    code, out, err = run(capsys, "ssa", str(MODELS / "kuznetsov.bond"), *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error[UNBOUNDED]: run 0 fired 1000 events by t=")
    assert err.endswith(" at h=0.01; a larger level size takes fewer events\n")


def test_import_loads_neither_dataclasses_nor_inspect():
    # terms and records are NamedTuples and plain classes: the import needs neither
    code = "import bondc.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


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
        assert len(built) == 11  # bondc, its 3 shared-argument parents and 7 subcommands, once
    finally:
        cli._parser.cache_clear()


CAP = {"--cap": (False, 512, None)}
OUT = {"--out": (False, None, None)}
OPTIONS = {  # subcommand: {argument: (required, default, choices)}
    "check": {},
    "primes": CAP,
    "transitions": {"--species": (False, None, None)},
    "crn": CAP,
    "odes": {"--format": (False, "text", ["text", "latex", "json"]), **CAP},
    "simulate": {
        "--t-end": (True, None, None),
        "--rtol": (False, 1e-6, None),
        "--atol": (False, 1e-9, None),
        "--grid": (False, 200, None),
        **CAP,
        **OUT,
    },
    "ssa": {
        "--h": (True, None, None),
        "--t-end": (True, None, None),
        "--seed": (True, None, None),
        "--runs": (False, 1, None),
        "--grid": (False, 200, None),
        **CAP,
        **OUT,
    },
}


def test_option_surface():
    # every subcommand takes its model file, then exactly these options
    (sub,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: {
            " ".join(a.option_strings) or a.dest: (a.required, a.default, a.choices)
            for a in parser._actions
            if a.dest != "help"
        }
        for name, parser in sub.choices.items()
    }
    assert got == {name: {"file": (True, None, None), **o} for name, o in OPTIONS.items()}


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
        ["ssa", "--h", "0.1", "--t-end", "1", "--seed", "1", "--grid", "0"],
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


def law_model(body: str, k: str) -> str:
    law = f"law F(k; a) = {body};\naffinity {{ x at F({k}); }}\n"
    return f"species X = x.0;\n{law}mixture {{ 1 X }}\n"


NON_FINITE_LAW = {  # source; the parse error of every command, or the reaction crn and odes name
    "literal": (law_model("1e999 * a", "1"), "2:15: expected a finite number, found inf", None),
    "overflow": (law_model("k * k * a", "1e200"), None, "x at F(1e+200)"),
    "nan": (law_model("(k*k - k*k) * a", "1e200"), None, "x at F(1e+200)"),
    # MA's k is finite, but a prime with two x sites fires at k * 2 * [X]
    "multiplicity": (
        "species X = (x.0 | x.0);\naffinity { x at MA(1e308); }\nmixture { 1 X }\n",
        None,
        "x at MA(1e+308)",
    ),
}


@pytest.mark.parametrize("command", ["check", "crn", "odes"])
@pytest.mark.parametrize("model", sorted(NON_FINITE_LAW))
def test_non_finite_rate_constant_is_an_error(tmp_path, capsys, command, model):
    source, parse_error, reaction = NON_FINITE_LAW[model]
    path = tmp_path / "law.bond"
    path.write_text(source)
    code, out, err = run(capsys, command, str(path))
    if parse_error:
        assert (code, out, err) == (1, "", f"error[PARSE]: {parse_error}\n")
    elif command == "check":  # the rates are finite until the network is extracted
        assert (code, out, err) == (0, "ok\n", "")
    else:
        message = f"non-finite rate for reaction '{reaction}'"
        assert (code, out) == (1, "")
        assert err == f"error[DOMAIN]: {message} (kinetic law evaluated outside its domain)\n"


def test_simulate_without_primes(tmp_path, capsys):
    # no mixture: zero primes integrate to an empty trajectory, not a crash
    path = tmp_path / "empty.bond"
    path.write_text("species X = x.0;\naffinity { x at MA(1); }\n")
    code, out, err = run(capsys, "simulate", str(path), "--t-end", "1", "--grid", "2")
    assert (code, out) == (0, "t\n0.0\n0.5\n1.0\n")
    assert err == "warning: affinity entry 'x at MA(1)' matches no species\n"


def test_law_on_a_cluster_of_250_primes_simulates(tmp_path, capsys):
    # each rate reads the 250-term cluster total: its generated code must not nest per term
    path = tmp_path / "wide.bond"
    path.write_text(cluster(250))
    for argv in (["simulate"], ["ssa", "--h", "0.1", "--seed", "1"]):
        code, out, err = run(capsys, *argv, str(path), "--t-end", "1", "--grid", "2")
        assert (code, err) == (0, "") and len(out.splitlines()) == 4


def test_json_of_a_cluster_grows_linearly(tmp_path, capsys):
    # a rate reads the cluster's total by name, and "totals" writes it once: the documents
    # grow linearly with the cluster, and no rate or derivative nests deeper for a larger one
    def depth(x):
        return 1 + max(map(depth, x.values()), default=0) if isinstance(x, dict) else 0

    docs = {}
    for n in (10, 1000):
        path = tmp_path / f"cluster{n}.bond"
        path.write_text(cluster(n))
        for argv in (["crn"], ["odes", "--format", "json"]):
            code, out, err = run(capsys, *argv, str(path), "--cap", "2000")
            assert (code, err) == (0, "") and len(out.encode()) < 1_000_000
            docs[n, argv[0]] = json.loads(out)
    for n in (10, 1000):
        assert docs[n, "crn"]["totals"] == {"Σ(s)": {f"A{i}": 1 for i in range(n)}}
        assert docs[n, "odes"]["totals"] == docs[n, "crn"]["totals"]
    trees = {"crn": lambda d: [r["rate"] for r in d["reactions"]], "odes": lambda d: d["odes"]}
    for doc, trees_of in trees.items():
        deepest = [max(map(depth, trees_of(docs[n, doc]))) for n in (10, 1000)]
        assert deepest[0] == deepest[1] <= 6


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


def test_crn_of_the_5_cube_is_fast(tmp_path, capsys):
    # binders on the 5-cube's vertices: labelling the product visited all 3,840
    # automorphisms, 24–29 s, while ties were pruned only by swapping two binders
    model = tmp_path / "cube5.bond"
    model.write_text(bond_graph_source(cube_edges(5)))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "crn", str(model))
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and err == ""
    network = json.loads(out)
    assert len(network["primes"]) == 2 and len(network["reactions"]) == 1
