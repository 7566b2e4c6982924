"""Symbolic ODE system and adaptive explicit Runge-Kutta integration.

One pass over each reaction's sparse stoichiometry (``Reaction.jumps``) gives
each prime's terms: the symbolic derivatives are built from them only to render,
the field only to simulate.  ``compile_field`` owns the field's protocol: one
straight-line function evaluates each named total and rate once, adds each rate
into the primes its reaction changes (a literal 0.0 for a prime none changes)
and checks them finite; a failing rate raises a DomainError naming its reaction.
One rule, ``ex.long_sum``, writes every long sum of generated code: left to
right, as ``ex.total`` adds, at most 256 terms a statement.  An attempt with a
failing stage is rejected, and its error raised only if h falls below its floor
before a step is accepted.  The field takes argument i as ``names[i]``'s value and
returns a list of floats: ``integrate`` calls it directly and counts its calls,
and ``eval_field`` takes and returns arrays.  The integrator is a Dormand-Prince
5(4) embedded pair with error-per-step control.  One attempt is generated per
model, straight-line over floats with the tableau inlined; a prime that no
reaction changes is carried as it is, and adds no square to the error norm.  The
standard quartic continuous extension gives dense output over floats too (its
weighted sum of stages by ``math.fsum``), built only on accepted steps that
reach a point of the grid ``sample_times``, which ``gillespie`` samples too.
Rows become arrays at return.  Concentrations are clipped to zero between
accepted steps: explicit solvers overshoot near the axes and the kinetic laws
live on the nonnegative orthant.
"""

from __future__ import annotations

import functools
import math
from itertools import chain
from operator import mul
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence, TextIO

from . import expr as ex
from .expr import long_sum
from .reactions import ReactionSystem, total_expr, totals_json

if TYPE_CHECKING:
    import numpy as np


class StiffnessError(RuntimeError):
    code = "STIFF"


class OdeSystem:
    def __init__(self, rs: ReactionSystem):
        self.rs, self.names = rs, rs.prime_names
        # per prime, the (net change, reaction index) of each reaction changing it
        self._terms: list[list[tuple[int, int]]] = [[] for _ in self.names]
        for j, r in enumerate(rs.reactions):
            for i, d in r.jumps:
                self._terms[i].append((d, j))

    @functools.cached_property
    def derivs(self) -> list[ex.Expr]:
        """dx_P/dt per prime, constant-folded, built on first use: simulating never needs it."""
        rates = [r.rate for r in self.rs.reactions]
        return [ex.total(ex.mul(ex.const(d), rates[j]) for d, j in ts) for ts in self._terms]

    @functools.cached_property
    def _field(self):
        """The compiled field, compiled on first use: rendering never needs it."""
        rs = self.rs.reactions
        labels = [r.provenance for r in rs]
        return compile_field([r.rate for r in rs], labels, self.names, self._terms, self.rs.totals)

    @functools.cached_property
    def _step(self):
        """One DOPRI5 attempt, straight-line: (y5, scaled error norm, the 7 stage derivatives).

        Each stage passes the field its concentrations as arguments, argument
        i being ``names[i]``'s value.  A prime that no reaction changes (its
        field component is the literal 0.0) is carried as it is: y_i enters
        every stage and y5 and adds no term to the norm, which still divides
        by n.  That is bit-identical to integrating it: y + h*0.0 is y for
        every y but -0.0.
        """
        n = len(self.names)

        def vec(fmt, sep=",", carried="y#"):  # fmt per changed prime, carried per other; '#': i
            parts = (fmt if ts else carried for ts in self._terms)  # None leaves carried ones out
            return sep.join(p.replace("#", str(i)) for i, p in enumerate(parts) if p)

        def comb(row):  # h * sum_s row[s] * k_s, zero coefficients left out
            return "h*(" + "+".join(f"{float(c)!r}*k{s}_#" for s, c in enumerate(row) if c) + ")"

        lines = ["def step(y, k0, h, rtol, atol):", f" [{vec('y#')}] = y"]
        lines.append(f" [{vec('k0_#', carried='_')}] = k0")
        for s in range(1, 6):
            lines.append(f" [{vec(f'k{s}_#', carried='_')}] = k{s} = f({vec('y#+' + comb(_A[s]))})")
        lines.append(vec(" z# = y#+" + comb(_B5), "\n", None))
        lines.append(f" [{vec('k6_#', carried='_')}] = k6 = f({vec('z#')})")
        e = comb([b5 - b4 for b5, b4 in zip(_B5, _B4)])  # the embedded error estimate
        lines.append(vec(f" q# = {e}/(atol+rtol*max(abs(y#),abs(z#)))", "\n", None))
        lines += long_sum("e", [f"+q{i}*q{i}" for i, ts in enumerate(self._terms) if ts] or ["0.0"])
        lines.append(f" return [{vec('z#')}], sqrt(e/{n}), (k0,k1,k2,k3,k4,k5,k6)")
        env = {"f": self._field, "sqrt": math.sqrt}
        exec("\n".join(lines), env)  # noqa: S102 - generated source
        return env["step"]


def compile_field(rates: list[ex.Expr], labels: list[str], names, terms, totals) -> Callable:
    """The field f(c0, c1, ...), argument i being ``names[i]``'s value: it computes each
    total and rate once, sums each prime's (net change, rate index) ``terms`` and returns
    the sums, the literal 0.0 for a prime with no terms.  Unless the rates are all finite it
    raises a DomainError naming the label of the first that is not; an x/0 names its own."""

    def slow(j: int, _) -> float:  # x/0 with x != 0 raises
        raise ex.division_by_zero(labels[j])

    def check(v: tuple) -> None:  # v sums to a non-finite value: name the first non-finite rate
        for j, r in enumerate(v):
            if not math.isfinite(r):
                raise ex.non_finite(labels[j])

    r = [f"r{j}" for j in range(len(rates))]
    tail = []
    for i, ts in enumerate(terms):
        signed = ["-+"[nu > 0] + f"{abs(nu)}*" * (abs(nu) != 1) + r[j] for nu, j in ts]
        tail += long_sum(f"d{i}", signed)
    # a non-finite rate makes each sum holding it non-finite: check these and the rest
    summed = {j for ts in terms for _, j in ts}
    covered = [f"d{i}" for i, ts in enumerate(terms) if ts]
    covered += [x for j, x in enumerate(r) if j not in summed]
    if r:
        tail += long_sum("v", ["+" + x for x in min(covered, r, key=len)])
        tail.append(f" if not isfinite(v): check(({','.join(r)},))")
    tail.append(f" return [{', '.join(f'd{i}' if ts else '0.0' for i, ts in enumerate(terms))}]")
    var = {v: f"c{i}" for i, v in enumerate(names)}
    fdef = (", ".join(var.values()), range(len(rates)), lambda j, t: f" r{j} = {t}", tail)
    env = {"slow": slow, "isfinite": math.isfinite, "check": check}
    return ex.compile_exprs(rates, var, totals, [fdef], env)[0]


class Trajectory(NamedTuple):
    t: np.ndarray
    y: np.ndarray  # shape (len(t), n_primes)
    steps: int
    rejected: int
    nfev: int


def build_odes(rs: ReactionSystem) -> OdeSystem:
    return OdeSystem(rs)


def eval_field(sys: OdeSystem, x: Sequence[float]) -> np.ndarray:
    """The evolution vector at concentration vector x."""
    import numpy as np

    if len(x) != len(sys.names):
        raise ValueError(f"expected {len(sys.names)} concentrations, got {len(x)}")
    return np.array(sys._field(*(x.tolist() if isinstance(x, np.ndarray) else x)))


# Dormand-Prince 5(4) tableau
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
# dense-output coefficients (Hairer, Norsett & Wanner, DOPRI5 CONTD5)
_D = (
    -12715105075.0 / 11282082432.0,
    0.0,
    87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0,
    701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0,
    69997945.0 / 29380423.0,
)


def _interpolant(y, y5, ks, h: float):
    """The quartic continuous extension over an accepted step: theta -> clipped concentrations."""
    parts = []
    for a, b, col in zip(y, y5, zip(*ks)):  # col: prime i's value at each stage
        dy = b - a
        r3 = h * col[0] - dy
        r4 = dy - h * col[6] - r3
        r5 = h * math.fsum(map(mul, _D, col))
        parts.append((a, dy, r3, r4, r5))
    return lambda th: [
        max(a + th * (dy + (1 - th) * (r3 + th * (r4 + (1 - th) * r5))), 0.0)
        for a, dy, r3, r4, r5 in parts
    ]


def integrate(
    sys: OdeSystem,
    x0: Sequence[float],
    t_end: float,
    rtol: float = 1e-6,
    atol: float = 1e-9,
    grid: int = 200,
) -> Trajectory:
    """Integrate from t=0 to t_end, sampling `grid`+1 equispaced points."""
    import numpy as np

    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be positive")
    max_step = t_end / 50.0  # no step is longer

    n = len(sys.names)
    y = np.asarray(x0, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"expected {n} initial concentrations")
    y = y.tolist()
    t = 0.0
    t_out = sample_times(t_end, grid)
    t_grid = t_out.tolist()
    if not n:  # no primes: nothing to integrate
        return Trajectory(t_out, np.zeros((grid + 1, 0)), 0, 0, 0)
    out = [y]  # the sampled rows, one per grid point reached

    step, field = sys._step, sys._field
    k0 = field(*y)
    nfev, steps, rejected = 1, 0, 0
    h = t_end / 100.0
    h_min = 1e-14 * t_end

    max_steps = 10_000_000
    failed = None  # the DomainError of a rejected attempt since the last accepted step
    while t < t_end:
        h = min(h, max_step, t_end - t)
        if h < h_min:
            raise failed or StiffnessError(
                f"step size underflow at t={t:.6g} (h={h:.3g}); "
                "the system appears stiff for an explicit method"
            )
        if steps + rejected > max_steps:
            raise StiffnessError(
                f"step budget exhausted at t={t:.6g} after {max_steps} attempts; "
                "the system appears stiff for an explicit method"
            )
        nfev += 6
        try:
            y5, err, ks = step(y, k0, h, rtol, atol)
        except ex.DomainError as e:  # a stage left the rates' domain: rejected, h shrinks by 0.2
            failed, err = e, math.inf

        if err <= 1.0:
            failed = None
            t_new = t + h
            u = None  # dense output over (t, t_new], built only if a grid point falls there
            while len(out) <= grid and t_grid[len(out)] <= t_new + 1e-15 * t_end:
                u = u or _interpolant(y, y5, ks, h)
                out.append(u((t_grid[len(out)] - t) / h))
            t = t_new
            steps += 1
            if min(y5) < 0.0:
                y = [0.0 if v < 0.0 else v for v in y5]
                k0 = field(*y)
                nfev += 1
            else:
                y, k0 = y5, ks[6]  # FSAL
        else:
            rejected += 1
        factor = 0.9 * err ** -0.2 if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))

    out += [y] * (grid + 1 - len(out))  # guard against float round-off on the last grid point
    return Trajectory(t_out, np.array(out), steps, rejected, nfev)


def write_odes(fh: TextIO, sys: OdeSystem, fmt: str = "text") -> None:
    """Writes the ODEs as text, LaTeX or JSON in pieces, a line at a time or as ``json.dump``
    writes them, ending in a newline: one write of a string past 2 GiB is cut short."""
    sums = {t: total_expr(form) for t, form in sys.rs.totals.items()}
    # text and LaTeX write each named total out where it is read, json by its name
    derivs = [ex.substitute(d, sums) for d in sys.derivs] if sums and fmt != "json" else sys.derivs
    if fmt == "text":
        lines = (
            f"d[{name}]/dt = {ex.render(d, var_fmt=lambda n: f'[{n}]')}"
            for name, d in zip(sys.names, derivs)
        )
    elif fmt == "latex":
        rows = (
            r"\frac{\mathrm{d}[%s]}{\mathrm{d}t} &= %s \\"
            % (_tex_escape(name), ex.render(d, lambda n: f"[{_tex_escape(n)}]", latex=True))
            for name, d in zip(sys.names, derivs)
        )
        begin = [r"\documentclass{article}", r"\usepackage{amsmath}", r"\begin{document}"]
        lines = chain(begin, [r"\begin{align*}"], rows, [r"\end{align*}", r"\end{document}"])
    elif fmt == "json":
        import json

        doc = {"primes": sys.names, **totals_json(sys.rs), "odes": [ex.to_json(d) for d in derivs]}
        json.dump(doc, fh, indent=2)
        fh.write("\n")
        return
    else:
        raise ValueError(f"unknown format {fmt!r}")
    fh.writelines(line + "\n" for line in lines)


def _tex_escape(s: str) -> str:
    """A name in math mode, as ASCII: ``#_&%`` escaped, ℓ as ``\\ell{}``, a space as ``\\ ``."""
    for ch in "#_&%":
        s = s.replace(ch, "\\" + ch)
    return s.replace("ℓ", r"\ell{}").replace(" ", "\\ ")


def sample_times(t_end: float, grid: int) -> np.ndarray:
    """The grid + 1 equispaced times from 0 to t_end that ``integrate`` and ``gillespie``
    sample; MemoryError past 2^60 of them, which numpy cannot size at 8 bytes each."""
    import numpy as np

    if not grid + 1 < 2**60:
        raise MemoryError(f"a grid of {grid + 1:g} sample times does not fit in memory")
    return np.linspace(0.0, t_end, grid + 1)


def write_trajectory_csv(fh: TextIO, names: list[str], traj: Trajectory) -> None:
    write_csv(fh, ["t", *names], [((), traj.t, traj.y)])


def write_csv(fh: TextIO, header: list[str], blocks) -> None:
    """CSV of sampled trajectories: per (leading cells, times, samples) block, a row per time."""
    import csv  # here, not at the top: only the simulate and ssa writers need it

    w = csv.writer(fh, lineterminator="\n")
    w.writerow(header)
    for lead, t, y in blocks:
        w.writerows([*lead, ti, *row] for ti, row in zip(t.tolist(), y.tolist()))
