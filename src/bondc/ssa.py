"""Level-based discretization and Gillespie direct-method simulation.

Concentrations are split into integer levels of size h; each reaction
becomes a discrete event with propensity rate(N*h)/h and jumps equal to its
stoichiometry.  Runs are reproducible: the RNG is numpy's PCG64, and
multi-run mode derives one independent child stream per run id from the
master seed via SeedSequence.spawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, TextIO

import numpy as np

from . import expr as ex
from .reactions import ReactionSystem


@dataclass
class DiscreteEvent:
    jumps: list[tuple[int, int]]  # (prime index, level delta), zero deltas omitted
    rate: ex.Expr
    provenance: str


@dataclass
class DiscreteModel:
    events: list[DiscreteEvent]
    h: float
    names: list[str]

    def __post_init__(self):
        idx = {n: i for i, n in enumerate(self.names)}
        self._rates = ex.compile_exprs([e.rate for e in self.events], idx)

    def propensities(self, levels: Sequence[int]) -> list[float]:
        c = [n * self.h for n in levels]
        return [r / self.h for r in self._rates(c)]


@dataclass
class SsaRun:
    run_id: int
    seed: int
    t: np.ndarray
    levels: np.ndarray  # shape (len(t), n_primes), integer level counts
    events: int
    absorbed: bool
    warnings: list[str] = field(default_factory=list)


def discretize(rs: ReactionSystem, h: float) -> DiscreteModel:
    if h <= 0:
        raise ValueError("level size h must be positive")
    n = len(rs.prime_names)
    events = []
    for r in rs.reactions:
        nu = r.stoichiometry(n)
        jumps = [(i, d) for i, d in enumerate(nu) if d]
        events.append(DiscreteEvent(jumps, r.rate, r.provenance))
    return DiscreteModel(events, h, list(rs.prime_names))


def initial_levels(x0: Sequence[float], h: float) -> list[int]:
    return [int(round(c / h)) for c in x0]


def gillespie(
    model: DiscreteModel,
    n0: Sequence[int],
    t_end: float,
    seed: int,
    sample_dt: Optional[float] = None,
    run_id: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> SsaRun:
    """Direct-method stochastic simulation of one trajectory."""
    if sample_dt is None:
        sample_dt = t_end / 200.0
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(seed))
    levels = list(n0)
    if any(n < 0 for n in levels):
        raise ValueError("initial levels must be nonnegative")
    n_out = int(math.floor(t_end / sample_dt + 1e-9)) + 1
    t_out = np.arange(n_out) * sample_dt
    out = np.empty((n_out, len(levels)), dtype=np.int64)
    out[0] = levels
    next_out = 1

    run_warnings: list[str] = []
    warned_negative = False
    t = 0.0
    n_events = 0
    absorbed = False
    jumps = [e.jumps for e in model.events]

    while True:
        props = model.propensities(levels)
        total = 0.0
        for j, a in enumerate(props):
            if a < 0.0:
                if not warned_negative:
                    run_warnings.append(
                        f"negative propensity for '{model.events[j].provenance}' "
                        "clamped to 0"
                    )
                    warned_negative = True
                props[j] = 0.0
            elif a > 0.0 and any(levels[i] + d < 0 for i, d in jumps[j]):
                props[j] = 0.0  # jump would go negative: event disabled
            else:
                total += props[j]
        if total <= 0.0:
            absorbed = True
            break
        t += rng.exponential(1.0 / total)
        if t > t_end:
            break
        while next_out < n_out and t_out[next_out] < t:
            out[next_out] = levels
            next_out += 1
        u = rng.random() * total
        acc = 0.0
        chosen = len(props) - 1
        for j, a in enumerate(props):
            acc += a
            if u < acc:
                chosen = j
                break
        for i, d in jumps[chosen]:
            levels[i] += d
        n_events += 1

    out[next_out:] = levels
    return SsaRun(run_id, seed, t_out, out, n_events, absorbed, run_warnings)


def gillespie_runs(
    model: DiscreteModel,
    n0: Sequence[int],
    t_end: float,
    seed: int,
    runs: int,
    sample_dt: Optional[float] = None,
) -> list[SsaRun]:
    """Independent runs with per-run child streams of the master seed."""
    children = np.random.SeedSequence(seed).spawn(runs)
    out = []
    for run_id, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        run = gillespie(
            model, n0, t_end, seed, sample_dt=sample_dt, run_id=run_id, rng=rng
        )
        out.append(run)
    return out


def mean_std(runs: list[SsaRun]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pointwise mean and standard deviation of level counts across runs."""
    stack = np.stack([r.levels for r in runs]).astype(float)
    return runs[0].t, stack.mean(axis=0), stack.std(axis=0, ddof=1)


def write_runs_csv(fh: TextIO, model: DiscreteModel, runs: list[SsaRun]) -> None:
    import csv

    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["run", "t", *model.names])
    for r in runs:
        for ti, row in zip(r.t, r.levels):
            w.writerow([r.run_id, repr(float(ti)), *[int(v) for v in row]])
