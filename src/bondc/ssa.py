"""Level-based discretization and Gillespie direct-method simulation.

Concentrations are split into integer levels of size h.  The events are the
extracted reactions themselves: each fires with propensity rate(N*h)/h and
changes the levels by its ``Reaction.jumps``.  After an event, the updater of
each prime it changed (primes with equal groups share one) recomputes the
events whose rate reads, or whose negative jump checks, that level (Gibson &
Bruck, 2000), checking a value only where a check can change it:
``compile_updaters`` writes that store rule, and ``gillespie``'s ``slow`` gives
a value it passes on its meaning.  Propensities are pure functions of the
levels, summed left to right as a full rescan would, so the streams equal the
full recompute's; a non-finite total names the non-finite one, if any.  Runs
are reproducible: run i of master seed s draws from ``random.Random(f"{s}:{i}")``.
A run samples its levels at ``ode.sample_times``, as ``integrate`` does, into
rows that become one int64 array at return; a level past 2^63 - 1 is a DomainError.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, TextIO

from . import expr as ex
from .ode import sample_times, write_csv
from .reactions import Reaction, ReactionSystem

if TYPE_CHECKING:
    import numpy as np

#: Events one run may fire, like ``integrate``'s attempt budget.
MAX_EVENTS = 10_000_000


class EventBudgetError(RuntimeError):
    code = "UNBOUNDED"


class DiscreteModel:
    """``jumps[k]``: event k's ``Reaction.jumps``; ``groups``: per prime, the
    events whose propensity reads its level, then those that read no level;
    ``updaters[g](n, p, slow)`` stores group g's propensities in p, one function
    for equal groups; ``after[k]``, the updaters of the primes event k changes,
    recompute its dependents, less those whose events another of them recomputes too."""

    def __init__(self, events: list[Reaction], h: float, names: list[str]):
        self.events, self.h, self.names = events, h, names
        self.jumps = [e.jumps for e in events]
        idx = {n: i for i, n in enumerate(names)}
        readers: list[list[int]] = [[] for _ in names]
        constant, needs = [], []
        for k, e in enumerate(events):
            need = [(i, -d) for i, d in self.jumps[k] if d < 0]
            read = {idx[v] for v in ex.variables(e.rate)} | {i for i, _ in need}
            for i in read:
                readers[i].append(k)
            if not read:
                constant.append(k)
            # a rate >= 0 is +-0 or NaN at level 0 of a factor: no check can change it
            f = _factors(e.rate)
            plain = f is not None and all(m == 1 and names[i] in f for i, m in need)
            needs.append(None if plain else need)
        self.groups = [*readers, constant]
        self.updaters = compile_updaters([e.rate for e in events], names, h, self.groups, needs)
        self.after = []
        for js in self.jumps:
            first = {}  # each group of the changed primes, with the first prime that has it
            for i, _ in js:
                first.setdefault(frozenset(readers[i]), i)
            kept = [i for g, i in first.items() if g and not any(g < o for o in first)]
            self.after.append([self.updaters[i] for i in kept])


def compile_updaters(rates: list[ex.Expr], names: Sequence[str], h: float, groups, needs) -> list:
    """One function g(n, p, slow) of integer levels n (n[i] of ``names[i]``) per distinct index
    list in ``groups``, returned for each equal one, which sets p[j] = rates[j](n*h)/h for
    each member j: as it is if ``needs[j]`` is None, else if positive, finite and n[i] >= m
    for each (i, m) in ``needs[j]``, else to slow(j, value).  An x/0 is slow(j, None)."""

    def store(j: int, text: str) -> str:
        if needs[j] is None:
            return f" p[{j}] = {text}/{h!r}"
        short = "".join(f" and n[{i}] >= {m}" for i, m in needs[j])
        return f" p[{j}] = a if 0.0 < (a := {text}/{h!r}) < inf{short} else slow({j}, a)"

    var = {v: f"(n[{i}]*{h!r})" for i, v in enumerate(names)}
    shared = dict.fromkeys(map(tuple, groups))
    fs = ex.compile_exprs(rates, var, [("n, p, slow", js, store, []) for js in shared], {})
    shared.update(zip(shared, fs))
    return [shared[tuple(js)] for js in groups]


def _factors(e: ex.Expr) -> Optional[set[str]]:
    """The variables multiplying all of ``e``, or None if it has a sub or a negative constant."""

    def leaf(x: ex.Expr) -> Optional[set[str]]:
        if isinstance(x, ex.Var):
            return {x.name}
        return set() if math.copysign(1.0, x.value) > 0 else None

    def node(x: ex.Bin, a, b) -> Optional[set[str]]:
        if x.op == "sub" or a is None or b is None:
            return None
        return a | b if x.op == "mul" else a if x.op == "div" else set()

    return ex.fold(e, leaf, node)


class SsaRun(NamedTuple):
    run_id: int
    t: np.ndarray
    levels: np.ndarray  # shape (len(t), n_primes), integer level counts
    events: int
    absorbed: bool
    warnings: list[str]


def discretize(rs: ReactionSystem, h: float) -> DiscreteModel:
    if h <= 0:
        raise ValueError("level size h must be positive")
    return DiscreteModel(list(rs.reactions), h, list(rs.prime_names))


def initial_levels(x0: Sequence[float], h: float) -> list[int]:
    return [int(round(c / h)) for c in x0]


def gillespie(
    model: DiscreteModel,
    n0: Sequence[int],
    t_end: float,
    seed: int,
    grid: int = 200,
    run_id: int = 0,
) -> SsaRun:
    """Direct-method stochastic simulation of one trajectory.

    It draws from ``random.Random(f"{seed}:{run_id}")``, which turns its str
    seed into an int through SHA-512, so one pair gives one stream on every
    Python version and whatever ``PYTHONHASHSEED`` is.
    Each event takes two uniforms u, v: it waits ``-log1p(-u) / total``, the
    inverse CDF of the exponential, and fires the first event whose running sum
    of propensities exceeds ``v * total``."""
    import random

    import numpy as np

    rnd = random.Random(f"{seed}:{run_id}").random
    levels = list(n0)
    if any(n < 0 for n in levels):
        raise ValueError("initial levels must be nonnegative")
    t_out = sample_times(t_end, grid)
    times = [*t_out.tolist(), math.inf]  # inf: no event samples past the last time
    out, k = [levels.copy()], 1  # the sampled rows; times[k] is the next time to sample

    run_warnings: list[str] = []
    t = 0.0
    n_events = 0
    absorbed = False
    events, jumps, after = model.events, model.jumps, model.after
    props = [0.0] * len(events)
    inf = math.inf
    clamped: set[int] = set()  # the events clamped to 0 up to the first warning
    divided: set[int] = set()  # the events whose rate divided x != 0 by 0

    def slow(j: int, a: Optional[float]) -> float:
        """What event j stores when its line may not store a: NaN for an x/0 (a is
        None), 0 for a short need or a negative a, else a (+-0 or non-finite)."""
        if a is None:
            divided.add(j)
        elif -inf < a < 0.0:
            clamped.add(j)
        return math.nan if a is None else 0.0 if -inf < a < inf and a else a

    for g in dict.fromkeys(model.updaters):
        g(levels, props, slow)
    while True:
        if clamped and not run_warnings:
            p = events[min(clamped)].provenance
            run_warnings.append(f"negative propensity for '{p}' clamped to 0")
        acc = list(accumulate(props))
        total = acc[-1] if acc else 0.0
        if not -inf < total < inf:  # name the first non-finite propensity, if any
            for k in range(len(events)):  # all finite but the ones just recomputed
                if not -inf < props[k] < inf:
                    error = ex.division_by_zero if k in divided else ex.non_finite
                    raise error(events[k].provenance)
            raise ex.DomainError(f"run {run_id}: finite propensities sum to inf at t={t:.6g}")
        if total <= 0.0:
            absorbed = True
            break
        u, v = rnd(), rnd()
        t -= math.log1p(-u) / total
        if t > t_end:
            break
        if n_events == MAX_EVENTS:
            raise EventBudgetError(
                f"run {run_id} fired {MAX_EVENTS} events by t={t:.6g} at h={model.h:g}; "
                "a larger level size takes fewer events"
            )
        while times[k] < t:
            out.append(levels.copy())
            k += 1
        # the last event when round-off puts v * total at the total, as a full scan would
        chosen = bisect_right(acc, v * total, 0, len(acc) - 1)
        for i, d in jumps[chosen]:
            levels[i] += d
        n_events += 1
        for g in after[chosen]:
            g(levels, props, slow)

    out += [levels] * (grid + 1 - k)
    try:
        rows = np.array(out, dtype=np.int64)
    except OverflowError:  # a Python int holds any level, an int64 row does not
        n, i = max((n, i) for row in out for i, n in enumerate(row))
        at = f"'{model.names[i]}' reaches {n} levels at h={model.h:g}"
        raise ex.DomainError(f"run {run_id}: {at}, more than a level count holds (2^63 - 1)")
    return SsaRun(run_id, t_out, rows, n_events, absorbed, run_warnings)


def gillespie_runs(
    model: DiscreteModel,
    n0: Sequence[int],
    t_end: float,
    seed: int,
    runs: int,
    grid: int = 200,
) -> list[SsaRun]:
    """Independent runs: run i is ``gillespie``'s run i of the master seed."""
    return [gillespie(model, n0, t_end, seed, grid, i) for i in range(runs)]


def write_runs_csv(fh: TextIO, model: DiscreteModel, runs: list[SsaRun]) -> None:
    write_csv(fh, ["run", "t", *model.names], [((r.run_id,), r.t, r.levels) for r in runs])
