"""Symbolic ODE system and adaptive explicit Runge-Kutta integration.

The integrator is a Dormand-Prince 5(4) embedded pair with error-per-step
control and the standard quartic continuous extension for dense output.
Concentrations are clipped to zero between accepted steps: explicit solvers
overshoot near the axes and the kinetic laws live on the nonnegative orthant.
"""

from __future__ import annotations

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
    derivs: list[ex.Expr]  # dx_P/dt per prime, constant-folded

    @property
    def names(self) -> list[str]:
        return self.rs.prime_names

    def __post_init__(self):
        idx = {n: i for i, n in enumerate(self.names)}
        self._rates = ex.compile_exprs([r.rate for r in self.rs.reactions], idx)
        self._stoich = np.array(
            [r.stoichiometry(len(self.names)) for r in self.rs.reactions], dtype=float
        ).reshape(len(self.rs.reactions), len(self.names))


@dataclass
class Trajectory:
    t: np.ndarray
    y: np.ndarray  # shape (len(t), n_primes)
    steps: int
    rejected: int
    nfev: int


def build_odes(rs: ReactionSystem) -> OdeSystem:
    n = len(rs.prime_names)
    derivs: list[ex.Expr] = []
    for i in range(n):
        terms: list[ex.Expr] = []
        for r in rs.reactions:
            nu = r.stoichiometry(n)[i]
            if nu:
                terms.append(ex.mul(ex.const(nu), r.rate))
        derivs.append(ex.total(terms))
    return OdeSystem(rs, derivs)


def eval_field(sys: OdeSystem, x: Sequence[float]) -> np.ndarray:
    """The evolution vector at concentration vector x."""
    if len(x) != len(sys.names):
        raise ValueError(f"expected {len(sys.names)} concentrations, got {len(x)}")
    rates = _rates_checked(sys, list(x))
    return rates @ sys._stoich


def _rates_checked(sys: OdeSystem, x: list[float]) -> np.ndarray:
    try:
        rates = sys._rates(x)
    except ex.DomainError as e:
        env = dict(zip(sys.names, x))
        for r in sys.rs.reactions:
            try:
                ex.evaluate(r.rate, env)
            except ex.DomainError:
                raise ex.DomainError(
                    f"rate evaluation failed for reaction '{r.provenance}': {e}"
                ) from e
        raise ex.DomainError(f"rate evaluation failed: {e}") from e
    for v, r in zip(rates, sys.rs.reactions):
        if not math.isfinite(v):
            raise ex.DomainError(
                f"non-finite rate for reaction '{r.provenance}' "
                "(kinetic law evaluated outside its domain)"
            )
    return np.asarray(rates)


# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
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
    y = np.asarray(x0, dtype=float).copy()
    if y.shape != (n,):
        raise ValueError(f"expected {n} initial concentrations")
    t = 0.0
    t_out = np.linspace(0.0, t_end, grid + 1)
    out = np.empty((len(t_out), n))
    out[0] = y
    next_out = 1

    nfev = steps = rejected = 0

    def f(x: np.ndarray) -> np.ndarray:
        nonlocal nfev
        nfev += 1
        return eval_field(sys, x)

    k = np.empty((7, n))
    k[0] = f(y)
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
        for i in range(1, 7):
            k[i] = f(y + h * np.dot(_A[i], k[:i]))
        y5 = y + h * (_B5 @ k)
        err_vec = h * ((_B5 - _B4) @ k)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = math.sqrt(float(np.mean((err_vec / scale) ** 2)))

        if err <= 1.0:
            t_new = t + h
            # dense output over (t, t_new]
            dy = y5 - y
            r1 = y.copy()
            r2 = dy
            r3 = h * k[0] - dy
            r4 = dy - h * k[6] - r3
            r5 = h * (_D @ k)
            while next_out < len(t_out) and t_out[next_out] <= t_new + 1e-15 * t_end:
                theta = (t_out[next_out] - t) / h
                u = r1 + theta * (r2 + (1 - theta) * (r3 + theta * (r4 + (1 - theta) * r5)))
                out[next_out] = np.maximum(u, 0.0)
                next_out += 1
            clipped = y5 < 0.0
            y = np.where(clipped, 0.0, y5)
            t = t_new
            steps += 1
            if clipped.any():
                k[0] = f(y)
            else:
                k[0] = k[6]  # FSAL
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
    import csv

    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["t", *names])
    for ti, row in zip(traj.t, traj.y):
        w.writerow([repr(float(ti)), *[repr(float(v)) for v in row]])
