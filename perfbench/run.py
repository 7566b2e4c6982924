"""bondc benchmark.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the root of a bondc checkout; bondc is imported from its ``src/``.
One caller in one thread runs the workload's jobs back to back (a closed
loop) and repeats them as passes for ``--seconds``.  The run prints a table
of metrics with units, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` the
run also makes traced passes and reports its per-layer ones, with the
tracing overhead.  See ``perfbench/README.md``.
"""

import os

# One caller on a 2-CPU machine: keep numpy's BLAS pool to one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
MIN_PASSES = 2
# Wall time of one calibrate() call at the reference speed all times are scaled to.
CAL_REF_S = 0.01
CAL_WINDOW_S = 1.0
CAL_MIN_SAMPLES = 5


def _tree(n: int):
    return ("leaf", n) if n < 2 else ("node", _tree(n - 1), _tree(n - 2), n)


_CAL_A = np.linspace(0.1, 1.0, 28).reshape(7, 4)
_CAL_W = np.linspace(0.0, 1.0, 7)


def calibrate() -> float:
    """Time fixed work like bondc's: dicts, strings, sorts and nested tuples
    (the compiler), then small numpy steps (the integrators)."""
    t0 = time.perf_counter()
    d: dict = {}
    acc = []
    for i in range(3000):
        key = f"k{i % 97}|{i % 13}"
        d[key] = d.get(key, 0) + 1
        acc.append((i % 7, key))
    acc.sort()
    ",".join(d)
    for r in range(4):
        t = _tree(13 + r % 2)
        d[repr(t)[:64] + str(r)] = hash(t)
    y = np.ones(4)
    for _ in range(600):
        y = np.maximum(y + 0.01 * np.dot(_CAL_W, _CAL_A), 0.0)
        float(np.mean((y / (1.0 + np.abs(y))) ** 2))
    return time.perf_counter() - t0


class Clock:
    """Times calls, and scales their durations to the reference speed.

    A shared machine's speed drifts by tens of percent over tens of seconds
    as other tenants come and go.  calibrate() runs after every timed call;
    a call's duration is scaled by CAL_REF_S over the median calibration time
    within CAL_WINDOW_S of the call (at least CAL_MIN_SAMPLES of them).  The
    calibration does not call bondc, so a change to bondc moves the scaled
    times as much as the wall times.
    """

    def __init__(self) -> None:
        self.cal_t: list[float] = []
        self.cal_s: list[float] = []
        self._calibrate()

    def _calibrate(self) -> None:
        self.cal_t.append(time.perf_counter())
        self.cal_s.append(calibrate())

    def call(self, fn):
        """Returns (result, exception or None, start, end)."""
        t0 = time.perf_counter()
        try:
            out, err = fn(), None
        except Exception as e:
            out, err = None, e
        t1 = time.perf_counter()
        self._calibrate()
        return out, err, t0, t1

    def scaled(self, t0: float, t1: float) -> float:
        """The duration t1 - t0 in seconds at the reference speed."""
        lo = bisect.bisect_left(self.cal_t, t0 - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.cal_t, t1 + CAL_WINDOW_S)
        while hi - lo < CAL_MIN_SAMPLES and (lo > 0 or hi < len(self.cal_t)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.cal_t))
        return (t1 - t0) * CAL_REF_S / statistics.median(self.cal_s[lo:hi])


@dataclass
class Pass:
    raw: list = field(default_factory=list)  # (job, start, end, work)
    samples: list = field(default_factory=list)  # (pass number, job, scaled s, work)
    wall_s: float = 0.0
    scaled_s: float = 0.0
    layer: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def scale(self, number: int, clock: Clock) -> None:
        self.samples = [(number, job, clock.scaled(t0, t1), work) for job, t0, t1, work in self.raw]
        self.wall_s = sum(t1 - t0 for _, t0, t1, _ in self.raw)
        self.scaled_s = sum(dt for _, _, dt, _ in self.samples)


def import_bondc():
    """Import bondc afresh from the checkout's src/ (timed as part of set-up)."""
    src = ROOT / "src"
    if not (src / "bondc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bondc sources under {src}; run from a checkout's root")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "bondc" or n.startswith("bondc.")]:
        del sys.modules[name]
    bondc = importlib.import_module("bondc")
    importlib.import_module("bondc.cli")
    if Path(bondc.__file__).resolve().parent != (src / "bondc").resolve():
        raise SystemExit(f"perfbench: imported bondc from {bondc.__file__}, not from {src}")


def setup(make, seed, checks, clock):
    """Set the workload up SETUP_REPEATS times; keep the last, and the (start, end) of each."""
    times, workload = [], None
    for _ in range(SETUP_REPEATS):

        def once():
            import_bondc()
            return make(ROOT, seed, checks)

        workload, err, t0, t1 = clock.call(once)
        if err:
            raise err
        times.append((t0, t1))
    return workload, times


def run_passes(workload, checks, clock, seconds, min_passes, tracer=None):
    """Repeat the job list until `seconds` have passed and at least `min_passes` ran."""
    stop = time.perf_counter() + seconds
    passes, failed = [], 0
    while len(passes) < min_passes or time.perf_counter() < stop:
        p = Pass()
        if tracer:
            tracer.reset()
        for job in workload.jobs:
            unexpected = checks.unexpected
            out, err, t0, t1 = clock.call(job.run)
            work = None
            if err:
                checks.expect(False, job.label, _describe(err))
            else:
                try:
                    work = job.check(out, checks)
                except Exception as e:
                    checks.expect(False, job.label, "output check raised " + _describe(e))
            failed += checks.unexpected > unexpected
            p.raw.append((job, t0, t1, work))
        if tracer:
            p.layer = tracer.layer_metrics()
            p.counts = tracer.deterministic_counts()
        passes.append(p)
    return passes, failed


def pass_time(passes) -> float:
    """One pass made of each job's median time over the passes."""
    jobs = range(len(passes[0].samples))
    return sum(statistics.median(p.samples[j][2] for p in passes) for j in jobs)


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "bondc").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def check_counts(workload_name, seed, passes, checks):
    """Traced counts repeat in every traced pass, and in a later run of the same code and seed."""
    first = passes[0].counts
    for i, p in enumerate(passes[1:], 1):
        diff = sorted(k for k in p.counts if p.counts[k] != first.get(k))
        checks.expect(not diff, "traced counts across passes", f"pass {i} differs in {diff[:5]}")
    path = OUT / "counts" / f"{workload_name}-seed{seed}-{source_digest()}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        diff = sorted(k for k in set(before) | set(first) if before.get(k) != first.get(k))
        checks.expect(not diff, "traced counts vs an earlier run", f"differ in {diff[:5]}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(first, indent=1, sort_keys=True))


def _describe(e: Exception) -> str:
    return "".join(traceback.format_exception_only(e)).strip()


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"perfbench: {spec_path} is missing; run from the root of a checkout")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")

    import workloads
    from tracing import Tracer

    checks = workloads.Checks()
    clock = Clock()
    workload, setup_times = setup(workloads.WORKLOADS[args.workload], args.seed, checks, clock)

    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    min_passes = 1 if args.trace else MIN_PASSES
    passes, failed = run_passes(workload, checks, clock, untraced_seconds, min_passes)
    attempted = sum(len(p.raw) for p in passes)

    traced = []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_failed = run_passes(
                workload, checks, clock, args.seconds / 2, MIN_PASSES, tracer
            )
        finally:
            tracer.uninstall()
        attempted += sum(len(p.raw) for p in traced)
        failed += traced_failed
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        check_counts(args.workload, args.seed, traced, checks)

    workload.final_check(checks)

    for i, p in enumerate(passes + traced):
        p.scale(i, clock)
    samples = [s for p in passes for s in p.samples]
    setup_s = statistics.median(clock.scaled(t0, t1) for t0, t1 in setup_times)

    end_to_end = {
        "setup_s": (setup_s, f"median of {SETUP_REPEATS} set-ups"),
        "pass_s": (
            pass_time(passes),
            f"sum of per-job medians over {len(passes)} passes of {len(workload.jobs)} jobs",
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "whole run"),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    rows = [(k, v, units[k], note) for k, (v, note) in end_to_end.items()]
    rows.append(("pass_wall_s", statistics.median(p.wall_s for p in passes), "s", "unscaled"))
    job_ms = 1e3 * statistics.median(dt for _, _, dt, _ in samples)
    rows.append(("job_ms.p50", job_ms, "ms", f"n={len(samples)}"))
    rows += workload.report(samples)
    wrong = checks.failed / max(checks.made, 1)
    rows.append(("wrong_frac", wrong, "ratio", f"{checks.failed} of {checks.made} checks failed"))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"(times in seconds at reference speed: calibrate() = {CAL_REF_S} s)")
    for name, value, unit, note in rows:
        print(f"  {name:<24} {_fmt(value):>12} {unit:<6} {note}")

    if args.trace:
        per_layer = {
            k: statistics.median(p.layer[k] * p.scaled_s / p.wall_s for p in traced)
            if units[k] in ("s", "us")
            else traced[0].layer[k]
            for k in traced[0].layer
        }
        traced_pass_s = pass_time(traced)
        per_layer["trace.overhead_s"] = traced_pass_s - end_to_end["pass_s"][0]
        print(f"per-layer over {len(traced)} traced passes (times: median; counts: per pass); "
              f"traced pass {_fmt(traced_pass_s)} s")
        for k, v in per_layer.items():
            print(f"  {k:<30} {_fmt(v):>12} {units[k]}")
        reported = per_layer
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        reported = {k: v for k, (v, _) in end_to_end.items()}
        wanted = [m["name"] for m in spec["end_to_end"]]
    if sorted(reported) != sorted(wanted):
        raise SystemExit(f"perfbench: metrics {sorted(reported)} differ from BENCHMARK.json's")

    for (label, detail, known), times in sorted(checks.failures.items(), key=str):
        tag = f"KNOWN DEFECT ({known})" if known else "FAILED"
        print(f"{tag}: {label}: {detail} [x{times}]")
    for label, reason in checks.skipped.items():
        print(f"SKIPPED: {label}: {reason}")

    print(json.dumps({
        "correct": checks.unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": reported[k], "unit": units[k]} for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
