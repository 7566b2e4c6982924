"""Level-based discretization and Gillespie direct-method simulation.

Concentrations are split into integer levels of size h; each reaction
becomes a discrete event with propensity rate(N*h)/h, compiled per event, and
jumps equal to its stoichiometry.  After an event only its dependents are
recomputed: the events whose rate reads, or whose negative jump checks, a
level it changed (Gibson & Bruck, 2000).  Propensities are pure functions of
the levels, summed left to right as a full rescan would, so the streams equal
the full recompute's.  Runs are reproducible: the RNG is numpy's PCG64, and
multi-run mode derives one independent child stream per run id from the
master seed via SeedSequence.spawn.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Optional, Sequence, TextIO

import numpy as np

from . import expr as ex
from .ode import jumps, write_csv
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
        labels = [e.provenance for e in self.events]
        self._props = ex.compile_exprs([e.rate for e in self.events], labels, idx, h=self.h)
        # per prime, the events whose propensity reads its level: through
        # the rate, or through a jump that could take it below zero
        readers: list[list[int]] = [[] for _ in self.names]
        for k, e in enumerate(self.events):
            for i in {idx[v] for v in ex.variables(e.rate)} | {i for i, d in e.jumps if d < 0}:
                readers[i].append(k)
        self.deps = [sorted({k for i, _ in e.jumps for k in readers[i]}) for e in self.events]


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
    events = [DiscreteEvent(jumps(r), r.rate, r.provenance) for r in rs.reactions]
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
    t = 0.0
    n_events = 0
    absorbed = False
    events, props_of = model.events, model._props
    needs = [[(i, -d) for i, d in e.jumps if d < 0] for e in events]
    props = [0.0] * len(events)
    inf = math.inf

    def update(ks: Iterable[int]) -> None:
        for k in ks:
            a = props_of[k](levels)
            if 0.0 < a < inf:
                for i, m in needs[k]:
                    if levels[i] < m:
                        a = 0.0  # jump would go negative: event disabled
                        break
            elif -inf < a < 0.0:
                if not run_warnings:
                    run_warnings.append(
                        f"negative propensity for '{events[k].provenance}' clamped to 0"
                    )
                a = 0.0
            elif a != 0.0:
                raise ex.non_finite(events[k].provenance)
            props[k] = a

    update(range(len(events)))
    while True:
        acc = list(accumulate(props))
        total = acc[-1] if acc else 0.0
        if total <= 0.0:
            absorbed = True
            break
        t += rng.exponential(1.0 / total)
        if t > t_end:
            break
        while next_out < n_out and t_out[next_out] < t:
            out[next_out] = levels
            next_out += 1
        # the last event when round-off puts u at the total, as a full scan would
        chosen = bisect_right(acc, rng.random() * total, 0, len(acc) - 1)
        for i, d in events[chosen].jumps:
            levels[i] += d
        n_events += 1
        update(model.deps[chosen])

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


def write_runs_csv(fh: TextIO, model: DiscreteModel, runs: list[SsaRun]) -> None:
    write_csv(fh, ["run", "t", *model.names], [((r.run_id,), r.t, r.levels) for r in runs])
