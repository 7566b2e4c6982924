"""Symbolic ODE system and adaptive explicit Runge-Kutta integration.

The derivatives and the compiled field come from one pass over the sparse
stoichiometry.  The field is one straight-line function: it evaluates each
rate once, checks them finite, and adds each into the primes its reaction
changes; a rate that fails raises a DomainError naming its reaction, so an
error inside a step needs no second evaluation.  The integrator is a
Dormand-Prince 5(4) embedded pair with error-per-step control.  One attempt is
generated per model, straight-line over Python floats with the tableau
inlined.  The standard quartic continuous extension gives dense output, built
only on accepted steps that reach a grid point.
Concentrations are clipped to zero between accepted steps: explicit solvers
overshoot near the axes and the kinetic laws live on the nonnegative orthant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, TextIO

import numpy as np

from . import expr as ex
from .reactions import Reaction, ReactionSystem


class StiffnessError(RuntimeError):
    code = "STIFF"


@dataclass
class OdeSystem:
    rs: ReactionSystem
    derivs: list[ex.Expr] = field(init=False)  # dx_P/dt per prime, constant-folded
    # per prime, the (net change, reaction index) of each reaction changing it
    _terms: list[list[tuple[int, int]]] = field(init=False, repr=False, compare=False)

    @property
    def names(self) -> list[str]:
        return self.rs.prime_names

    def __post_init__(self):
        rates = [r.rate for r in self.rs.reactions]
        self._terms = [[] for _ in self.names]
        for j, r in enumerate(self.rs.reactions):
            for i, d in jumps(r):
                self._terms[i].append((d, j))
        self.derivs = [
            ex.total(ex.mul(ex.const(d), rates[j]) for d, j in ts) for ts in self._terms
        ]

    @functools.cached_property
    def _field(self):
        """The compiled field, compiled on first use: rendering never needs it."""
        rs = self.rs.reactions
        labels = [r.provenance for r in rs]
        return ex.compile_exprs([r.rate for r in rs], labels, self.names, sums=self._terms)

    @functools.cached_property
    def _step(self):
        """One DOPRI5 attempt as _numpy_step, generated straight-line over Python floats."""
        n = len(self.names)

        def vec(fmt, sep=","):  # fmt per component, '#' standing for its index
            return sep.join(fmt.replace("#", str(i)) for i in range(n))

        def comb(row):  # h * sum_s row[s] * k_s, zero coefficients left out
            return "h*(" + "+".join(f"{float(c)!r}*k{s}_#" for s, c in enumerate(row) if c) + ")"

        lines = ["def step(y, k0, h, rtol, atol):", f" [{vec('y#')}] = y", f" [{vec('k0_#')}] = k0"]
        for s in range(1, 6):
            lines.append(f" [{vec(f'k{s}_#')}] = k{s} = f([{vec('y#+' + comb(_A[s]))}])")
        lines.append(vec(" z# = y#+" + comb(_B5), "\n"))
        lines.append(f" [{vec('k6_#')}] = k6 = f([{vec('z#')}])")
        lines.append(vec(f" q# = {comb(_B5 - _B4)}/(atol+rtol*max(abs(y#),abs(z#)))", "\n"))
        err = f"sqrt(({vec('q#*q#', '+')})/{n})"
        lines.append(f" return [{vec('z#')}], {err}, (k0, k1, k2, k3, k4, k5, k6)")
        env = {"f": self._field, "sqrt": math.sqrt}
        exec("\n".join(lines), env)  # noqa: S102 - generated source
        return env["step"]


@dataclass
class Trajectory:
    t: np.ndarray
    y: np.ndarray  # shape (len(t), n_primes)
    steps: int
    rejected: int
    nfev: int


def jumps(r: Reaction) -> list[tuple[int, int]]:
    """The reaction's sparse stoichiometry: (prime index, net change), zeros omitted."""
    nu: dict[int, int] = {}
    for i in r.reactants:
        nu[i] = nu.get(i, 0) - 1
    for i in r.products:
        nu[i] = nu.get(i, 0) + 1
    return sorted((i, d) for i, d in nu.items() if d)


def build_odes(rs: ReactionSystem) -> OdeSystem:
    return OdeSystem(rs)


def eval_field(sys: OdeSystem, x: Sequence[float]) -> np.ndarray:
    """The evolution vector at concentration vector x."""
    if len(x) != len(sys.derivs):
        raise ValueError(f"expected {len(sys.derivs)} concentrations, got {len(x)}")
    return np.array(sys._field(x.tolist() if isinstance(x, np.ndarray) else x))


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
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
# dense-output coefficients (Hairer, Norsett & Wanner, DOPRI5 CONTD5)
_D = np.array(
    [
        -12715105075.0 / 11282082432.0,
        0.0,
        87487479700.0 / 32700410799.0,
        -10690763975.0 / 1880347072.0,
        701980252875.0 / 199316789632.0,
        -1453857185.0 / 822651844.0,
        69997945.0 / 29380423.0,
    ]
)


def _numpy_step(sys: OdeSystem, y, k0, h: float, rtol: float, atol: float):
    """The tests' reference attempt in numpy: (y5, scaled error norm, the 7 stage derivatives)."""
    y = np.asarray(y)
    k = np.empty((7, len(y)))
    k[0] = k0
    for i in range(1, 7):
        k[i] = eval_field(sys, y + h * np.dot(_A[i], k[:i]))
    y5 = y + h * (_B5 @ k)
    err_vec = h * ((_B5 - _B4) @ k)
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
    return y5.tolist(), math.sqrt(float(np.mean((err_vec / scale) ** 2))), k


def _interpolant(y, y5, ks, h: float):
    """The quartic continuous extension over an accepted step, as a function of theta."""
    k, y = np.asarray(ks), np.asarray(y)
    dy = np.asarray(y5) - y
    r3 = h * k[0] - dy
    r4 = dy - h * k[6] - r3
    r5 = h * (_D @ k)
    return lambda th: y + th * (dy + (1 - th) * (r3 + th * (r4 + (1 - th) * r5)))


def integrate(
    sys: OdeSystem,
    x0: Sequence[float],
    t_end: float,
    rtol: float = 1e-6,
    atol: float = 1e-9,
    max_step: Optional[float] = None,
    grid: int = 200,
) -> Trajectory:
    """Integrate from t=0 to t_end, sampling `grid`+1 equispaced points."""
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be positive")
    if max_step is None:
        max_step = t_end / 50.0

    n = len(sys.names)
    y = np.asarray(x0, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"expected {n} initial concentrations")
    y = y.tolist()
    t = 0.0
    t_out = np.linspace(0.0, t_end, grid + 1)
    t_grid = t_out.tolist()
    out = np.empty((len(t_out), n))
    out[0] = y
    if not n:  # no primes: nothing to integrate
        return Trajectory(t_out, out, 0, 0, 0)
    next_out = 1

    nfev = steps = rejected = 0

    def f(x: list[float]) -> list[float]:
        nonlocal nfev
        nfev += 1
        return eval_field(sys, x).tolist()

    step = sys._step
    k0 = f(y)
    h = min(max_step, t_end / 100.0)
    h_min = 1e-14 * t_end

    max_steps = 10_000_000
    while t < t_end:
        h = min(h, max_step, t_end - t)
        if h < h_min:
            raise StiffnessError(
                f"step size underflow at t={t:.6g} (h={h:.3g}); "
                "the system appears stiff for an explicit method"
            )
        if steps + rejected > max_steps:
            raise StiffnessError(
                f"step budget exhausted at t={t:.6g} after {max_steps} attempts; "
                "the system appears stiff for an explicit method"
            )
        y5, err, ks = step(y, k0, h, rtol, atol)
        nfev += 6

        if err <= 1.0:
            t_new = t + h
            u = None  # dense output over (t, t_new], built only if a grid point falls there
            while next_out <= grid and t_grid[next_out] <= t_new + 1e-15 * t_end:
                u = u or _interpolant(y, y5, ks, h)
                out[next_out] = np.maximum(u((t_grid[next_out] - t) / h), 0.0)
                next_out += 1
            t = t_new
            steps += 1
            if min(y5) < 0.0:
                y = [0.0 if v < 0.0 else v for v in y5]
                k0 = f(y)
            else:
                y, k0 = y5, ks[6]  # FSAL
        else:
            rejected += 1
        factor = 0.9 * err ** -0.2 if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))

    out[next_out:] = y  # guard against float round-off on the last grid point
    return Trajectory(t_out, out, steps, rejected, nfev)


def render_odes(sys: OdeSystem, fmt: str = "text") -> str:
    if fmt == "text":
        lines = [
            f"d[{name}]/dt = {ex.render(d, var_fmt=lambda n: f'[{n}]')}"
            for name, d in zip(sys.names, sys.derivs)
        ]
        return "\n".join(lines) + ("\n" if lines else "")
    if fmt == "latex":
        rows = [
            r"\frac{\mathrm{d}[%s]}{\mathrm{d}t} &= %s \\"
            % (_tex_escape(name), ex.render_latex(d, var_fmt=lambda n: f"[{_tex_escape(n)}]"))
            for name, d in zip(sys.names, sys.derivs)
        ]
        return "\n".join(
            [
                r"\documentclass{article}",
                r"\usepackage{amsmath}",
                r"\begin{document}",
                r"\begin{align*}",
                *rows,
                r"\end{align*}",
                r"\end{document}",
                "",
            ]
        )
    if fmt == "json":
        import json

        return json.dumps(
            {
                "primes": sys.names,
                "odes": [ex.to_json(d) for d in sys.derivs],
            },
            indent=2,
        )
    raise ValueError(f"unknown format {fmt!r}")


def _tex_escape(s: str) -> str:
    out = s
    for ch in "#_&%":
        out = out.replace(ch, "\\" + ch)
    return out


def write_trajectory_csv(fh: TextIO, names: list[str], traj: Trajectory) -> None:
    write_csv(fh, ["t", *names], [((), traj.t, traj.y)])


def write_csv(fh: TextIO, header: list[str], blocks) -> None:
    """CSV of sampled trajectories: per (leading cells, times, samples) block, a row per time."""
    import csv  # here, not at the top: only the simulate and ssa writers need it

    w = csv.writer(fh, lineterminator="\n")
    w.writerow(header)
    for lead, t, y in blocks:
        w.writerows([*lead, ti, *row] for ti, row in zip(t.tolist(), y.tolist()))
