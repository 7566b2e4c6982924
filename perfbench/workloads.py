"""The three workloads: their inputs, their jobs and the checks on each output.

A workload is a fixed list of jobs.  The runner calls them one after another
in one thread (a closed loop with a single caller) and repeats the list as
passes.  Each job calls bondc through module attributes looked up at call
time, so the tracer's wrappers see every call.  Checks run between jobs,
outside the timed region, and never call bondc.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

import families
import oracles


class Checks:
    """Output checks of one run: how many were made, which failed, which were skipped."""

    def __init__(self) -> None:
        self.made = 0
        self.failures: Counter = Counter()  # (label, detail, known defect or None) -> times
        self.skipped: dict[str, str] = {}
        self._first: dict[str, Any] = {}

    def expect(self, ok: bool, label: str, detail: str = "", known: Optional[str] = None) -> bool:
        self.made += 1
        if not ok:
            self.failures[(label, detail, known)] += 1
        return ok

    def same(self, label: str, value: Any) -> bool:
        """The value must equal the one seen the first time under this label."""
        first = self._first.setdefault(label, value)
        return self.expect(first == value, label, f"{value!r} differs from first run {first!r}")

    def skip(self, label: str, reason: str) -> None:
        self.skipped[label] = reason

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def unexpected(self) -> int:
        return sum(n for (_, _, known), n in self.failures.items() if known is None)


class Job(NamedTuple):
    kind: str
    label: str
    run: Callable[[], Any]
    # checks the output; may return a number of work items (e.g. SSA events)
    check: Callable[[Any, Checks], Optional[float]]


@dataclass
class Workload:
    jobs: list[Job]
    # checks made once after the timed passes (e.g. against a slow oracle)
    final_check: Callable[[Checks], None] = lambda checks: None
    # samples -> printed (name, value, unit, note) rows
    report: Callable[[list], list] = field(default=lambda samples: [])


def _median(xs) -> float:
    return statistics.median(xs) if xs else float("nan")


def _pass_sums(samples, kinds) -> list[float]:
    """Per pass, the summed job time of the given kinds."""
    sums: dict[int, float] = {}
    for pass_no, job, dt, _ in samples:
        if job.kind in kinds:
            sums[pass_no] = sums.get(pass_no, 0.0) + dt
    return list(sums.values())


# --- corpus ------------------------------------------------------------------

# Short runs per model: (t_end, h).  Kuznetsov counts cells, so its levels are large.
_SHORT = {"kuznetsov.bond": ("2", "1e5")}
_DEFAULT_SHORT = ("2", "0.1")
_GRID = 50
_SSA_RUNS = 2


def _cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _check_command(model: str, command: str, expected, result, checks: Checks) -> None:
    code, out, err = result
    label = f"corpus {command} {model}"
    checks.same(f"{label} output", hash(result))
    if expected is None:
        checks.expect(
            code == 1 and "error[ARITY]" in err, label, f"exit {code}, stderr {err.strip()!r}"
        )
        return
    ok = code == 0 and "error[" not in err
    if not checks.expect(ok, label, f"exit {code}, stderr {err.strip()!r}"):
        return
    n_primes = {p for p, _ in expected}
    if command == "check":
        checks.expect(out == "ok\n", label, repr(out))
    elif command == "primes":
        n = len(out.splitlines())
        checks.expect(n in n_primes, label, f"{n} primes, expected {sorted(n_primes)}")
    elif command == "crn":
        d = json.loads(out)
        got = (len(d["primes"]), len(d["reactions"]))
        checks.expect(
            got in expected, label, f"(primes, reactions) = {got}, expected {sorted(expected)}"
        )
    elif command == "odes text":
        if model == "mm.bond":
            checks.expect(out == oracles.MM_ODES_TEXT, label, "differs from data/mm_odes.txt")
        else:
            n = len(out.splitlines())
            checks.expect(n in n_primes, label, f"{n} equations, expected {sorted(n_primes)}")
    elif command == "odes latex":
        n = sum(line.startswith(r"\frac") for line in out.splitlines())
        ok = out.startswith(r"\documentclass") and r"\end{document}" in out and n in n_primes
        checks.expect(ok, label, f"{n} equations, expected {sorted(n_primes)}")
    elif command == "odes json":
        d = json.loads(out)
        n = len(d["odes"])
        ok = n == len(d["primes"]) and n in n_primes
        checks.expect(ok, label, f"{n} equations, expected {sorted(n_primes)}")
    elif command == "simulate":
        rows = _csv_rows(out)
        values = np.array(rows[1:], dtype=float)
        ok = (
            len(rows[0]) - 1 in n_primes
            and values.shape[0] == _GRID + 1
            and bool(np.all(np.isfinite(values)))
            and bool(np.all(values >= 0.0))
        )
        checks.expect(
            ok, label, f"{len(rows) - 1} rows of {len(rows[0])} columns, or a bad value"
        )
    elif command == "ssa":
        rows = _csv_rows(out)
        levels = np.array([r[2:] for r in rows[1:]], dtype=np.int64)
        runs = {r[0] for r in rows[1:]}
        ok = len(rows[0]) - 2 in n_primes and len(runs) == _SSA_RUNS and bool(np.all(levels >= 0))
        checks.expect(
            ok, label, f"{len(runs)} runs of {len(rows[0]) - 2} species, or a negative level"
        )


def corpus(root: Path, seed: int, checks: Checks) -> Workload:
    """Every corpus model through every subcommand, in process, output captured."""
    import bondc.cli as cli

    ssa_seed = random.Random(seed).randrange(2**31)
    jobs = []
    for model, expected in oracles.CORPUS.items():
        path = root / "models" / model
        if not path.is_file():
            raise FileNotFoundError(f"corpus model {path} is missing")
        f = str(path)
        t_end, h = _SHORT.get(model, _DEFAULT_SHORT)
        commands = {
            "check": ["check", f],
            "primes": ["primes", f],
            "crn": ["crn", f],
            "odes text": ["odes", f, "--format", "text"],
            "odes latex": ["odes", f, "--format", "latex"],
            "odes json": ["odes", f, "--format", "json"],
            "simulate": ["simulate", f, "--t-end", t_end, "--grid", str(_GRID)],
            "ssa": ["ssa", f, "--h", h, "--t-end", t_end, "--seed", str(ssa_seed)]
            + ["--runs", str(_SSA_RUNS)],
        }
        for command, argv in commands.items():
            jobs.append(
                Job(
                    command,
                    f"{command} {model}",
                    lambda argv=argv: _cli(cli, argv),
                    lambda r, c, m=model, cmd=command, e=expected: _check_command(m, cmd, e, r, c),
                )
            )
    # warm-up: one run of every subcommand on the smallest model
    for job in jobs:
        if job.label.endswith(" mm.bond"):
            job.run()

    def report(samples):
        ms = sorted(1e3 * dt for _, _, dt, _ in samples)
        rows = [("cmd_ms.p50", _median(ms), "ms", f"n={len(ms)}")]
        if len(ms) >= 100:  # at least ten samples beyond the 90th percentile
            p90 = statistics.quantiles(ms, n=10)[-1]
            beyond = len(ms) - int(0.9 * len(ms))
            rows.append(("cmd_ms.p90", p90, "ms", f"n={len(ms)}, {beyond} beyond"))
        return rows

    return Workload(jobs, report=report)


# --- compile_scaling ---------------------------------------------------------

SCALING = {
    "scaffold": (1, 2, 3, 4),
    "witness": (6, 7, 8, 9),
    "bank": (5, 10, 20, 30),
}


def _check_family(family: str, k: int, out: str, checks: Checks) -> None:
    label = f"compile_scaling {family} k={k}"
    checks.same(f"{label} output", hash(out))
    d = json.loads(out)
    primes, reactions = len(d["primes"]), len(d["reactions"])
    if family == "scaffold":
        want = oracles.scaffold_primes(k)
        checks.expect(
            primes in want,
            label,
            f"{primes} primes, expected {max(want)} (or {min(want)} after fold-back)",
            known=oracles.KNOWN_DEFECT_REASON
            if oracles.KNOWN_DEFECTS.get((family, k)) == primes
            else None,
        )
    elif family == "witness":
        want = oracles.witness_primes(k)
        checks.expect(
            primes in want,
            label,
            f"{primes} primes, expected {max(want)} (or {min(want)} after fold-back)",
        )
    else:
        want = oracles.bank_counts(k)
        got = (primes, reactions)
        checks.expect(got == want, label, f"(primes, reactions) = {got}, expected {want}")


def compile_scaling(root: Path, seed: int, checks: Checks) -> Workload:
    """Compile only, text to CRN JSON, over three generated families."""
    import bondc.parser as parser
    import bondc.reactions as reactions

    def compile_text(text: str) -> str:
        rs = reactions.build_reaction_system(parser.parse_model(text))
        return json.dumps(reactions.reaction_system_json(rs))

    rng = random.Random(seed)
    jobs = []
    for family, ks in SCALING.items():
        generate = getattr(families, family)
        for k in ks:
            text = generate(k, rng)
            jobs.append(
                Job(
                    family,
                    f"{family} k={k}",
                    lambda text=text: compile_text(text),
                    lambda out, c, family=family, k=k: _check_family(family, k, out, c),
                )
            )
    # warm-up: the smallest member of each family
    for family, ks in SCALING.items():
        compile_text(getattr(families, family)(ks[0], random.Random(seed)))

    def report(samples):
        rows = [("compile_s", _median(_pass_sums(samples, SCALING)), "s", "median pass")]
        for family in SCALING:
            family_s = _median(_pass_sums(samples, {family}))
            rows.append((f"compile_s.{family}", family_s, "s", "median pass"))
        return rows

    return Workload(jobs, report=report)


# --- simulate_long -----------------------------------------------------------

KUZNETSOV_DAYS = 1600.0
BANK_K = 12  # 4k = 48 reactions
BANK_H = 0.05
BANK_T_END = 1000.0  # long enough for every run to absorb
SSA_JOBS = 4  # per pass, after the one ODE job; seeds master + 0..3


def simulate_long(root: Path, seed: int, checks: Checks) -> Workload:
    """Kuznetsov over 1600 days (DOPRI5) and SSA on an enzyme bank; compiled here, in set-up."""
    import bondc.ode as ode
    import bondc.parser as parser
    import bondc.reactions as reactions
    import bondc.ssa as ssa

    rng = random.Random(seed)
    master = rng.randrange(2**31)

    kuz_model = parser.parse_model((root / "models" / "kuznetsov.bond").read_text(encoding="utf-8"))
    kuz = reactions.build_reaction_system(kuz_model)
    kuz_x0 = reactions.initial_mixture(kuz_model, kuz.index)
    kuz_names = list(kuz.prime_names)

    bank_model = parser.parse_model(families.bank(BANK_K, rng))
    bank = reactions.build_reaction_system(bank_model)
    n_primes, n_reactions = oracles.bank_counts(BANK_K)
    checks.expect(
        (len(bank.prime_names), len(bank.reactions)) == (n_primes, n_reactions),
        f"simulate_long bank k={BANK_K} network",
        f"{len(bank.prime_names)} primes, {len(bank.reactions)} reactions",
    )
    bank_n0 = ssa.initial_levels(reactions.initial_mixture(bank_model, bank.index), BANK_H)
    enzyme = [i for i, name in enumerate(bank.prime_names) if families.is_bank_enzyme(name)]
    enzyme_total = sum(bank_n0[i] for i in enzyme)

    def run_ode():
        return ode.integrate(ode.build_odes(kuz), kuz_x0, KUZNETSOV_DAYS)

    def run_ssa(j: int):
        dm = ssa.discretize(bank, BANK_H)
        return ssa.gillespie_runs(dm, bank_n0, BANK_T_END, master + j, 1)[0]

    # warm-up
    ode.integrate(ode.build_odes(kuz), kuz_x0, 10.0)
    ssa.gillespie_runs(ssa.discretize(bank, BANK_H), bank_n0, 1.0, master, 1)

    last_ode = {}

    def check_ode(tr, c: Checks):
        label = "simulate_long kuznetsov"
        c.same(
            f"{label} steps, rejected, evaluations, final state",
            (tr.steps, tr.rejected, tr.nfev, tr.y[-1].tolist()),
        )
        ok = np.all(np.isfinite(tr.y)) and np.all(tr.y >= 0.0)
        c.expect(bool(ok), label, "negative or non-finite value")
        is_const = np.all(tr.y[:, kuz_names.index("IS")] == 1.0)
        c.expect(bool(is_const), label, "IS is not constant at 1")
        last_ode["traj"] = tr

    def check_ssa(j: int):
        def check(run, c: Checks):
            label = f"simulate_long ssa seed+{j}"
            c.same(f"{label} events, final levels", (run.events, run.levels[-1].tolist()))
            c.expect(bool(np.all(run.levels >= 0)), label, "negative level")
            totals = run.levels[:, enzyme].sum(axis=1)
            c.expect(
                bool(np.all(totals == enzyme_total)),
                label,
                f"enzyme total ranges {totals.min()}..{totals.max()}, expected {enzyme_total}",
            )
            return run.events

        return check

    def final_check(c: Checks):
        tr = last_ode.get("traj")
        if tr is None:
            return
        ref = oracles.kuznetsov_reference(tr.t)
        label = "simulate_long kuznetsov vs Radau"
        if ref is None:
            c.skip(label, "scipy is not installed")
            return
        order = [kuz_names.index(n) for n in ("EC", "TC", "IS")]
        order.append(next(i for i in range(len(kuz_names)) if i not in order))
        y = tr.y[:, order]
        scale = np.maximum(np.abs(ref).max(axis=0), 1.0)
        err = float((np.abs(y - ref) / scale).max())
        # DOPRI5 at rtol 1e-6 stays within ~3e-7 of the peak values here
        c.expect(err <= 1e-4, label, f"max error {err:.3g} of the peak value, allowed 1e-4")

    jobs = [Job("ode", f"kuznetsov {KUZNETSOV_DAYS:g} d", run_ode, check_ode)]
    jobs += [
        Job("ssa", f"bank k={BANK_K} seed+{j}", lambda j=j: run_ssa(j), check_ssa(j))
        for j in range(SSA_JOBS)
    ]

    def report(samples):
        ode_s = [dt for _, job, dt, _ in samples if job.kind == "ode"]
        rates = [events / dt for _, job, dt, events in samples if job.kind == "ssa"]
        return [
            ("ode_s", _median(ode_s), "s", f"n={len(ode_s)}"),
            ("ssa_events_per_s", _median(rates), "1/s", f"n={len(rates)}, R={n_reactions}"),
        ]

    return Workload(jobs, final_check, report)


WORKLOADS = {
    "corpus": corpus,
    "compile_scaling": compile_scaling,
    "simulate_long": simulate_long,
}
