import functools
import io
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from bondc import expr as ex
from bondc import ode
from bondc.ode import (
    StiffnessError,
    build_odes,
    eval_field,
    integrate,
    render_odes,
    write_trajectory_csv,
)
from bondc.parser import parse_model
from bondc.reactions import build_reaction_system, initial_mixture

from conftest import evaluate, rational_left_nullspace
from test_expr import from_json

MODELS = Path(__file__).resolve().parent.parent / "models"
DATA = Path(__file__).resolve().parent / "data"


def odes_for(src: str):
    rs = build_reaction_system(parse_model(src))
    return rs, build_odes(rs)


DECAY = "species X = x.0;\naffinity { x at MA(1); }\nmixture { 1 X }"


def test_build_odes_mm_golden():
    rs = build_reaction_system(parse_model((MODELS / "mm.bond").read_text()))
    sys_ = build_odes(rs)
    assert render_odes(sys_, fmt="text") == (DATA / "mm_odes.txt").read_text()


def test_enzyme_conservation_symbolic():
    # d(x_E + x_C)/dt == 0 symbolically
    rs = build_reaction_system(parse_model((MODELS / "enzyme.bond").read_text()))
    sys_ = build_odes(rs)
    e = rs.prime_names.index("E")
    c = next(i for i, n in enumerate(rs.prime_names) if n.startswith("(new"))
    total = ex.add(sys_.derivs[e], sys_.derivs[c])
    env = {n: 1.7 + 0.3 * i for i, n in enumerate(rs.prime_names)}
    # structural cancellation: the sum folds to a constant-free expression
    # that evaluates to 0 at arbitrary points
    for scale in (1.0, 3.5, 0.01):
        assert evaluate(total, {k: v * scale for k, v in env.items()}) == pytest.approx(0.0, abs=1e-12)


def test_render_odes_compiles_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compile_exprs called")

    monkeypatch.setattr(ex, "compile_exprs", refuse)
    rs = build_reaction_system(parse_model((MODELS / "kuznetsov.bond").read_text()))
    for fmt in ("text", "latex", "json"):
        assert render_odes(build_odes(rs), fmt=fmt)


def test_eval_field_decay():
    rs, sys_ = odes_for(DECAY)
    assert eval_field(sys_, [2.0]).tolist() == [-2.0]


def test_eval_field_domain_error_names_reaction():
    src = "species X = x.0;\nlaw F(k; x) = k / (x - 1);\naffinity { x at F(2); }\nmixture { 1 X }"
    rs, sys_ = odes_for(src)
    with pytest.raises(ex.DomainError) as ei:
        eval_field(sys_, [1.0])
    assert "x at F(2)" in str(ei.value)


def test_linear_decay_convergence():
    rs, sys_ = odes_for(DECAY)
    traj = integrate(sys_, [1.0], 1.0, rtol=1e-8, atol=1e-12)
    assert abs(traj.y[-1, 0] - math.exp(-1.0)) <= 1e-6


def test_error_shrinks_with_tolerance():
    rs = build_reaction_system(parse_model((MODELS / "mm.bond").read_text()))
    sys_ = build_odes(rs)
    x0 = initial_mixture(parse_model((MODELS / "mm.bond").read_text()), rs.index)
    ref = integrate(sys_, x0, 2.0, rtol=1e-12, atol=1e-14, max_step=2.0).y[-1]
    errs = []
    for rtol in (1e-3, 1e-7):
        traj = integrate(sys_, x0, 2.0, rtol=rtol, atol=1e-12, max_step=2.0)
        errs.append(float(np.max(np.abs(traj.y[-1] - ref))))
    assert errs[1] < errs[0]


def test_grid_and_endpoints():
    rs, sys_ = odes_for(DECAY)
    traj = integrate(sys_, [1.0], 2.0, grid=10)
    assert traj.t[0] == 0.0 and traj.t[-1] == 2.0
    assert len(traj.t) == 11
    assert traj.y[0, 0] == 1.0


def test_dense_output_accuracy():
    rs, sys_ = odes_for(DECAY)
    traj = integrate(sys_, [1.0], 1.0, rtol=1e-8, atol=1e-12, grid=100)
    for t, y in zip(traj.t, traj.y[:, 0]):
        assert y == pytest.approx(math.exp(-t), abs=1e-7)


def test_nonnegativity_clipping():
    rs, sys_ = odes_for(DECAY)
    traj = integrate(sys_, [1.0], 50.0)
    assert (traj.y >= 0.0).all()


def test_conservation_on_corpus_trajectories():
    for name, t_end in [("enzyme.bond", 10.0), ("dimer.bond", 5.0),
                        ("pingpong.bond", 5.0), ("inhibitor.bond", 5.0)]:
        m = parse_model((MODELS / name).read_text())
        rs = build_reaction_system(m)
        sys_ = build_odes(rs)
        x0 = initial_mixture(m, rs.index)
        atol = 1e-9
        traj = integrate(sys_, x0, t_end, atol=atol)
        stoich = [r.stoichiometry(len(rs.prime_names)) for r in rs.reactions]
        basis = rational_left_nullspace(stoich)
        assert basis, name  # every corpus model here has a conservation law
        for v in basis:
            vals = traj.y @ np.array([float(c) for c in v])
            assert np.max(np.abs(vals - vals[0])) <= 10 * atol, name


def test_stiffness_error_on_vanishing_step():
    # quadratic autocatalysis blows up in finite time, forcing the step below h_min
    src = "species X = x.(X | X);\nlaw F(k; x) = k * x * x;\naffinity { x at F(1); }\nmixture { 1 X }"
    rs, sys_ = odes_for(src)
    with pytest.raises((StiffnessError, ex.DomainError)):
        integrate(sys_, [1.0], 10.0)


def test_integration_stats_counted():
    rs, sys_ = odes_for(DECAY)
    traj = integrate(sys_, [1.0], 1.0)
    assert traj.steps > 0 and traj.nfev > traj.steps


def test_render_odes_json_roundtrip():
    rs = build_reaction_system(parse_model((MODELS / "mm.bond").read_text()))
    sys_ = build_odes(rs)
    import json

    doc = json.loads(render_odes(sys_, fmt="json"))
    assert doc["primes"] == rs.prime_names
    e = from_json(doc["odes"][0])
    assert e == sys_.derivs[0]


def test_render_odes_latex_structure():
    rs = build_reaction_system(parse_model((MODELS / "kuznetsov.bond").read_text()))
    sys_ = build_odes(rs)
    tex = render_odes(sys_, fmt="latex")
    assert tex.count("\\begin{align*}") == 1 and tex.count("\\end{align*}") == 1
    assert tex.count("&=") == len(sys_.names)
    # balanced braces and environments
    assert tex.count("{") == tex.count("}")
    assert "\\documentclass" in tex


def test_write_trajectory_csv():
    rs, sys_ = odes_for(DECAY)
    traj = integrate(sys_, [1.0], 1.0, grid=4)
    buf = io.StringIO()
    write_trajectory_csv(buf, sys_.names, traj)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,X"
    assert len(lines) == 6
    assert float(lines[1].split(",")[1]) == 1.0


def test_empty_system_renders_empty():
    src = "species X = x.0;\naffinity { }\nmixture { 1 X }"
    rs, sys_ = odes_for(src)
    assert "d[X]/dt = 0" in render_odes(sys_, fmt="text")



# --- compiled sparse field and one-pass build ------------------------------------

CORPUS = sorted(p.name for p in MODELS.glob("*.bond") if p.name != "broken_arity.bond")


def sources(scaffold_sizes):
    from test_reactions import scaffold_source

    return [pytest.param(lambda n=n: (MODELS / n).read_text(), id=n) for n in CORPUS] + [
        pytest.param(lambda k=k: scaffold_source(k), id=f"scaffold-k={k}")
        for k in scaffold_sizes
    ]


@pytest.mark.parametrize("source", sources([3]))
def test_compiled_field_matches_interpreted_derivs(source):
    rs, sys_ = odes_for(source())
    rng = random.Random(20261018)
    for _ in range(20):
        x = [rng.uniform(0.0, 5.0) for _ in rs.prime_names]
        env = dict(zip(rs.prime_names, x))
        # round-off scale: the summed magnitudes of the rates
        scale = sum(abs(evaluate(r.rate, env)) for r in rs.reactions)
        got = eval_field(sys_, np.array(x))
        for g, d in zip(got, sys_.derivs):
            want = evaluate(d, env)
            assert g == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)


@pytest.mark.parametrize("source", sources(range(1, 6)))
def test_build_odes_matches_dense_reference(source):
    rs, sys_ = odes_for(source())
    n = len(rs.prime_names)
    dense = [r.stoichiometry(n) for r in rs.reactions]
    ref = [
        ex.total(ex.mul(ex.const(nu[i]), r.rate) for r, nu in zip(rs.reactions, dense) if nu[i])
        for i in range(n)
    ]
    assert sys_.derivs == ref


def test_build_odes_scaffold_k8_fast():
    from test_reactions import scaffold_source

    rs = build_reaction_system(parse_model(scaffold_source(8)))
    assert (len(rs.prime_names), len(rs.reactions)) == (265, 2056)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        build_odes(rs)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.2


def test_eval_field_non_finite_rate_names_reaction():
    src = (
        "species X = x.(X | X);\nlaw F(k; x) = k*x*x - k*x*x;\n"
        "affinity { x at F(1e300); }\nmixture { 1e10 X }"
    )
    rs, sys_ = odes_for(src)
    with pytest.raises(ex.DomainError, match=r"non-finite rate for reaction 'x at F\(1e\+300\)'"):
        eval_field(sys_, [1e10])
    assert eval_field(sys_, [1.0]).tolist() == [0.0]


# --- the generated and the numpy DOPRI5 kernels ----------------------------------


def numpy_step(sys: ode.OdeSystem, y, k0, h: float, rtol: float, atol: float):
    """The reference attempt in numpy: (y5, scaled error norm, the 7 stage derivatives)."""
    y = np.asarray(y)
    k = np.empty((7, len(y)))
    k[0] = k0
    for i in range(1, 7):
        k[i] = eval_field(sys, y + h * np.dot(ode._A[i], k[:i]))
    y5 = y + h * (ode._B5 @ k)
    err_vec = h * ((ode._B5 - ode._B4) @ k)
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
    return y5.tolist(), math.sqrt(float(np.mean((err_vec / scale) ** 2))), k


def both_kernels(source, t_end):
    """The same integration through the generated step and through the numpy one."""
    m = parse_model(source)
    rs = build_reaction_system(m)
    x0 = initial_mixture(m, rs.index)
    gen_sys, numpy_sys = build_odes(rs), build_odes(rs)
    numpy_sys._step = functools.partial(numpy_step, numpy_sys)  # shadows the generated one
    return integrate(gen_sys, x0, t_end), integrate(numpy_sys, x0, t_end)


@pytest.mark.parametrize("source", sources([4, 6]))
def test_generated_step_matches_numpy_step(source):
    gen, ref = both_kernels(source(), 5.0)
    assert (gen.steps, gen.rejected, gen.nfev) == (ref.steps, ref.rejected, ref.nfev)
    peak = np.abs(ref.y).max(axis=0)
    assert (np.abs(gen.y - ref.y) <= 1e-12 * peak).all()


def test_generated_step_matches_numpy_step_kuznetsov_long():
    gen, ref = both_kernels((MODELS / "kuznetsov.bond").read_text(), 1600.0)
    assert (gen.steps, gen.rejected, gen.nfev) == (16_494, 231, 100_351)
    assert ref.steps == 16_494 and abs(ref.rejected - 229) <= 5
    assert gen.y[-1] == pytest.approx(ref.y[-1], rel=1e-6)


MID_STEP_NAN = (  # finite at t=0, NaN inside a stage once X exceeds about 1e4
    "species X = x.(X | X);\nlaw F(k; x) = k*x*x - k*x*x + x;\n"
    "affinity { x at F(1e300); }\nmixture { 1 X }"
)


STAGE_DIVISION_BY_ZERO = (  # finite at t=0; the first stage of the first attempt is at X = 0
    "species X = x.0;\nlaw F(k; x) = k / x;\naffinity { x at F(1); }\nmixture { 1 X }"
)


@pytest.mark.parametrize(
    "source, t_end, message",
    [
        (MID_STEP_NAN, 20.0, r"^non-finite rate for reaction 'x at F\(1e\+300\)' \(kinetic law"),
        # h = 500/100, so the first stage input is 1 + h*(1/5)*(-1/1) = 0 exactly
        (STAGE_DIVISION_BY_ZERO, 500.0, r"^rate evaluation failed for reaction 'x at F\(1\)': "),
    ],
    ids=["nan", "division-by-zero"],
)
def test_domain_error_inside_step_names_reaction(source, t_end, message):
    # the generated step names the reaction itself: no rate is evaluated a second time
    rs, sys_ = odes_for(source)
    step, failed = sys_._step, []

    def spy(*args):  # shadows the generated step: records an attempt that raises
        try:
            return step(*args)
        except ex.DomainError:
            failed.append(args)
            raise

    sys_._step = spy
    with pytest.raises(ex.DomainError, match=message):
        integrate(sys_, [1.0], t_end)
    assert len(failed) == 1
