import functools
import io
import json
import math
import random
import re
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
    write_odes,
    write_trajectory_csv,
)
from bondc.parser import parse_model
from bondc.reactions import build_reaction_system, initial_mixture

import families
from conftest import evaluate, evaluate_rate, family_source, rational_left_nullspace, stoichiometry
from test_expr import from_json

MODELS = Path(__file__).resolve().parent.parent / "models"
DATA = Path(__file__).resolve().parent / "data"


def rendered(sys_, fmt: str = "text") -> str:
    """What ``write_odes`` writes."""
    fh = io.StringIO()
    write_odes(fh, sys_, fmt)
    return fh.getvalue()


def odes_for(src: str):
    rs = build_reaction_system(parse_model(src))
    return rs, build_odes(rs)


DECAY = "species X = x.0;\naffinity { x at MA(1); }\nmixture { 1 X }"


def test_build_odes_mm_golden():
    rs = build_reaction_system(parse_model((MODELS / "mm.bond").read_text()))
    sys_ = build_odes(rs)
    assert rendered(sys_, "text") == (DATA / "mm_odes.txt").read_text()


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
        assert rendered(build_odes(rs), fmt)


def test_eval_field_decay():
    rs, sys_ = odes_for(DECAY)
    assert eval_field(sys_, [2.0]).tolist() == [-2.0]


def test_simulating_builds_no_symbolic_derivatives():
    rs, sys_ = odes_for(DECAY)
    integrate(sys_, [1.0], 1.0)
    assert eval_field(sys_, [2.0]).tolist() == [-2.0]
    with pytest.raises(ValueError, match="expected 1 concentrations, got 2"):
        eval_field(sys_, [1.0, 2.0])
    assert "derivs" not in vars(sys_)
    assert rendered(sys_) == "d[X]/dt = -1*[X]\n" and "derivs" in vars(sys_)


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
    ref = integrate(sys_, x0, 2.0, rtol=1e-12, atol=1e-14).y[-1]
    errs = []
    for rtol in (1e-3, 1e-7):
        traj = integrate(sys_, x0, 2.0, rtol=rtol, atol=1e-12)
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


def test_negative_step_is_clipped_to_zero():
    # a saturated enzyme with km = 1e-6 removes S at rate ~1 until S is near 0, where a
    # step overshoots below 0: the state is clipped and k0 evaluated again, not taken FSAL
    rs, sys_ = odes_for(
        "species S = s.0;\nlaw MM(v, km; a) = v * a / (km + a);\n"
        "affinity { s at MM(1.0, 1e-6); }\nmixture { 1 S }"
    )
    traj = integrate(sys_, [1.0], 2.0, rtol=1e-3, atol=1e-6, grid=20)
    # one evaluation at t=0 and six per attempt; each clipped step adds one more
    clipped = traj.nfev - 1 - 6 * (traj.steps + traj.rejected)
    assert clipped >= 1
    assert (traj.y >= 0.0).all()
    assert traj.y[-1, 0] == 0.0


@pytest.mark.parametrize(
    "src, t_end, tol, clipped",
    [
        ((MODELS / "kuznetsov.bond").read_text(), 400.0, {}, 0),
        (
            "species S = s.0;\nlaw MM(v, km; a) = v * a / (km + a);\n"
            "affinity { s at MM(1.0, 1e-6); }\nmixture { 1 S }",
            2.0,
            {"rtol": 1e-3, "atol": 1e-6, "grid": 20},
            1,
        ),
    ],
    ids=["kuznetsov", "clipped"],
)
def test_nfev_counts_every_field_call(src, t_end, tol, clipped):
    # the counter replaces the field before the step is built, so the step's six
    # stage calls go through it as well as integrate's own k0 and a clipped step's
    m = parse_model(src)
    rs = build_reaction_system(m)
    sys_ = build_odes(rs)
    calls = 0
    field = sys_._field

    def counted(*y):
        nonlocal calls
        calls += 1
        return field(*y)

    sys_._field = counted
    traj = integrate(sys_, initial_mixture(m, rs.index), t_end, **tol)
    assert calls == traj.nfev == 1 + 6 * (traj.steps + traj.rejected) + clipped


def test_conservation_on_corpus_trajectories():
    for name, t_end in [("enzyme.bond", 10.0), ("dimer.bond", 5.0),
                        ("pingpong.bond", 5.0), ("inhibitor.bond", 5.0)]:
        m = parse_model((MODELS / name).read_text())
        rs = build_reaction_system(m)
        sys_ = build_odes(rs)
        x0 = initial_mixture(m, rs.index)
        atol = 1e-9
        traj = integrate(sys_, x0, t_end, atol=atol)
        stoich = [stoichiometry(r, len(rs.prime_names)) for r in rs.reactions]
        basis = rational_left_nullspace(stoich)
        assert basis, name  # every corpus model here has a conservation law
        for v in basis:
            vals = traj.y @ np.array([float(c) for c in v])
            assert np.max(np.abs(vals - vals[0])) <= 10 * atol, name


def family_totals(family, k, names):
    """The family's conserved totals as weight vectors over primes, read off the prime
    names by the family's definitions alone: no stoichiometry from bondc."""
    if family == "bank":
        return {"enzyme": [float(families.is_bank_enzyme(n)) for n in names]}
    totals = {"scaffold": [float(n == "Sc" or "Site" in n or "Bound" in n) for n in names]}
    for i in range(k):
        totals[f"ligand {i}"] = [float(n == f"L{i}") + n.count(f"Lb{i}(") for n in names]
    return totals


@pytest.mark.parametrize("family, k", [*(("scaffold", k) for k in range(1, 7)), ("bank", 4)])
def test_family_trajectories_keep_their_totals(family, k):
    # free ligand i plus each Lb{i} it is bound as; one scaffold; the bank's one enzyme
    m = parse_model(family_source(family, k))
    rs = build_reaction_system(m)
    atol = 1e-9
    traj = integrate(build_odes(rs), initial_mixture(m, rs.index), 5.0, atol=atol)
    for what, weights in family_totals(family, k, rs.prime_names).items():
        vals = traj.y @ np.array(weights)
        assert vals[0] == 1.0, what
        assert np.max(np.abs(vals - vals[0])) <= 10 * atol, what


def test_stiffness_error_on_vanishing_step():
    # quadratic autocatalysis blows up in finite time, forcing the step below h_min
    src = "species X = x.(X | X);\nlaw F(k; x) = k * x * x;\naffinity { x at F(1); }\nmixture { 1 X }"
    rs, sys_ = odes_for(src)
    with pytest.raises((StiffnessError, ex.DomainError)):
        integrate(sys_, [1.0], 10.0)


def test_enzyme_runs_past_failing_stages_to_t_end():
    # the first attempts take h = t_end/100 = 300: a stage's mass-action rates overflow
    # to a NaN, and such an attempt is rejected, like one whose error is too large
    m = parse_model((MODELS / "enzyme.bond").read_text())
    rs = build_reaction_system(m)
    traj = integrate(build_odes(rs), initial_mixture(m, rs.index), 30000.0)
    assert traj.t[-1] == 30000.0 and traj.rejected > 0 and np.isfinite(traj.y).all()
    enzyme = [i for i, name in enumerate(rs.prime_names) if name == "E" or "e'@" in name]
    assert np.abs(traj.y[:, enzyme].sum(axis=1) - 2.0).max() < 1e-4


def test_integration_stats_counted():
    rs, sys_ = odes_for(DECAY)
    traj = integrate(sys_, [1.0], 1.0)
    assert traj.steps > 0 and traj.nfev > traj.steps


def test_render_odes_json_roundtrip():
    rs = build_reaction_system(parse_model((MODELS / "mm.bond").read_text()))
    sys_ = build_odes(rs)
    doc = json.loads(rendered(sys_, "json"))
    assert doc["primes"] == rs.prime_names
    e = from_json(doc["odes"][0])
    assert e == sys_.derivs[0]


def test_write_odes_writes_in_pieces_ending_in_a_newline():
    # one write of a string past 2 GiB is cut short: text and LaTeX are written a line per
    # call, JSON in json.dump's pieces and then a newline, as crn writes its document
    class Pieces(io.StringIO):
        def write(self, s):
            pieces.append(s)
            return super().write(s)

    sys_ = build_odes(build_reaction_system(parse_model((MODELS / "kuznetsov.bond").read_text())))
    for fmt, lines in (("text", 0), ("latex", 6)):  # LaTeX: 4 lines before the rows, 2 after
        pieces, fh = [], Pieces()
        write_odes(fh, sys_, fmt)
        assert len(pieces) == len(sys_.names) + lines, fmt
        assert all(p.count("\n") == 1 and p.endswith("\n") for p in pieces), fmt
    pieces, fh = [], Pieces()
    write_odes(fh, sys_, "json")
    assert len(pieces) > len(sys_.names) and pieces[-1] == "\n"
    assert fh.getvalue() == json.dumps(json.loads(fh.getvalue()), indent=2) + "\n"


def test_render_odes_latex_structure():
    rs = build_reaction_system(parse_model((MODELS / "kuznetsov.bond").read_text()))
    sys_ = build_odes(rs)
    tex = rendered(sys_, "latex")
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
    assert "d[X]/dt = 0" in rendered(sys_, "text")



# --- compiled sparse field and one-pass build ------------------------------------

CORPUS = sorted(p.name for p in MODELS.glob("*.bond") if p.name != "broken_arity.bond")


def sources(scaffold_sizes):
    return [pytest.param(lambda n=n: (MODELS / n).read_text(), id=n) for n in CORPUS] + [
        pytest.param(lambda k=k: family_source("scaffold", k), id=f"scaffold-k={k}")
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
        scale = sum(abs(evaluate_rate(rs, r.rate, env)) for r in rs.reactions)
        got = eval_field(sys_, np.array(x))
        for g, d in zip(got, sys_.derivs):
            want = evaluate_rate(rs, d, env)
            assert g == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)


@pytest.mark.parametrize("source", sources(range(1, 6)))
def test_build_odes_matches_dense_reference(source):
    rs, sys_ = odes_for(source())
    n = len(rs.prime_names)
    dense = [stoichiometry(r, n) for r in rs.reactions]
    ref = [
        ex.total(ex.mul(ex.const(nu[i]), r.rate) for r, nu in zip(rs.reactions, dense) if nu[i])
        for i in range(n)
    ]
    assert sys_.derivs == ref


def test_build_odes_scaffold_k8_fast():
    rs = build_reaction_system(parse_model(family_source("scaffold", 8)))
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


def test_field_names_an_overflowing_rate_that_changes_no_prime():
    # A -> A changes no prime, so no sum holds its rate; B's three decays share one sum,
    # so the field checks that sum and A -> A's rate, fewer than the four rates
    src = (
        "species A = a.A;\nspecies B = b.0 + c.0 + d.0;\n"
        "affinity { a at MA(1e300); b at MA(1); c at MA(2); d at MA(3); }\nmixture { 1 A, 1 B }"
    )
    rs, sys_ = odes_for(src)
    assert [r.jumps for r in rs.reactions].count([]) == 1 and len(rs.reactions) == 4
    i = rs.prime_names.index("A")
    x = [1.0] * 2
    assert eval_field(sys_, x).tolist()[i] == 0.0
    x[i] = 1e10
    with pytest.raises(ex.DomainError, match=r"^non-finite rate for reaction 'a at MA\(1e\+300\)"):
        eval_field(sys_, x)


def test_field_above_255_arguments():
    # 300 independent decays X{i} -> 0 at rate (1 + i % 3)*X{i}: one field argument per prime
    n = 300
    src = "".join(f"species X{i} = x{i}.0;\n" for i in range(n))
    src += "affinity {\n" + "".join(f"  x{i} at MA({1 + i % 3});\n" for i in range(n)) + "}\n"
    src += "mixture { " + ", ".join(f"1 X{i}" for i in range(n)) + " }"
    rs, sys_ = odes_for(src)
    assert len(rs.prime_names) == n
    rng = random.Random(20261019)
    x = [rng.uniform(0.0, 5.0) for _ in range(n)]
    env = dict(zip(rs.prime_names, x))
    assert eval_field(sys_, x).tolist() == [evaluate_rate(rs, d, env) for d in sys_.derivs]
    traj = integrate(sys_, [1.0] * n, 1.0, rtol=1e-8, atol=1e-12)
    rate = {f"X{i}": 1 + i % 3 for i in range(n)}
    want = [math.exp(-rate[name]) for name in rs.prime_names]
    assert traj.y[-1].tolist() == pytest.approx(want, rel=1e-6)


def test_field_sum_above_256_terms_continues_left_to_right():
    # bank k=100's enzyme prime is changed by 300 reactions at unit stoichiometry: its sum
    # takes two statements, the second continuing the first, so it adds as ex.total does
    rs, sys_ = odes_for(family_source("bank", 100))
    assert max(map(len, sys_._terms)) == 300
    assert {abs(d) for ts in sys_._terms for d, _ in ts} == {1}
    rng = random.Random(20261020)
    for _ in range(20):
        x = [rng.uniform(0.0, 5.0) for _ in rs.prime_names]
        env = dict(zip(rs.prime_names, x))
        assert eval_field(sys_, x).tolist() == [evaluate_rate(rs, d, env) for d in sys_.derivs]


@pytest.mark.parametrize("model", ["mm", "pingpong", "kuznetsov"])
def test_primes_no_reaction_changes_keep_their_value(model):
    m = parse_model((MODELS / f"{model}.bond").read_text())
    rs = build_reaction_system(m)
    x0 = initial_mixture(m, rs.index)
    sys_ = build_odes(rs)
    carried = [i for i, d in enumerate(sys_.derivs) if d == ex.ZERO]
    assert carried  # IS in Kuznetsov, the enzyme E in mm and pingpong
    traj = integrate(sys_, x0, 20.0)
    for i in carried:
        assert {v.hex() for v in traj.y[:, i].tolist()} == {float(x0[i]).hex()}


def test_model_no_reaction_changes_integrates_as_before():
    # A -> A changes no prime: every stage is A itself and the error norm is sqrt(0.0/n)
    rs, sys_ = odes_for("species A = a.A; affinity { a at MA(1); } mixture { 1 A }")
    traj = integrate(sys_, [1.0], 5.0)
    assert (traj.steps, traj.rejected, traj.nfev) == (51, 0, 307)
    assert (traj.y == 1.0).all()


@pytest.mark.parametrize("k", [5, 1000])
def test_step_error_norm_is_the_sum_of_squares_left_to_right(k):
    # bank k=1000 changes 3,001 primes: its norm is summed in statements of 256 squares,
    # each continuing the last, which gives the bits of k=5's one flat sum
    m = parse_model(family_source("bank", k))
    rs = build_reaction_system(m, cap=4000)
    x0 = initial_mixture(m, rs.index)
    sys_ = build_odes(rs)
    h, rtol, atol = 0.01, 1e-6, 1e-9
    y5, err, ks = sys_._step(x0, sys_._field(*x0), h, rtol, atol)
    coeffs = [(b5 - b4, s) for s, (b5, b4) in enumerate(zip(ode._B5, ode._B4)) if b5 - b4]
    total = 0.0
    for i, ts in enumerate(sys_._terms):
        if ts:
            e = coeffs[0][0] * ks[coeffs[0][1]][i]
            for c, s in coeffs[1:]:
                e += c * ks[s][i]
            q = h * e / (atol + rtol * max(abs(x0[i]), abs(y5[i])))
            total += q * q
    assert sum(map(bool, sys_._terms)) == 3 * k + 1
    assert err == math.sqrt(total / len(sys_.names)) > 0.0
    traj = integrate(sys_, x0, 0.05, grid=1)
    assert traj.steps > 0 and np.isfinite(traj.y).all()


# --- the generated and the numpy DOPRI5 kernels ----------------------------------


def numpy_step(sys: ode.OdeSystem, y, k0, h: float, rtol: float, atol: float):
    """The reference attempt in numpy: (y5, scaled error norm, the 7 stage derivatives)."""
    y = np.asarray(y)
    k = np.empty((7, len(y)))
    k[0] = k0
    for i in range(1, 7):
        k[i] = eval_field(sys, y + h * np.dot(ode._A[i], k[:i]))
    y5 = y + h * (ode._B5 @ k)
    err_vec = h * (np.subtract(ode._B5, ode._B4) @ k)
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


def numpy_interpolant(y, y5, ks, h: float):
    """The reference dense output in numpy, clipped to zero as integrate clips it."""
    k, y = np.asarray(ks), np.asarray(y)
    dy = np.asarray(y5) - y
    r3, r5 = h * k[0] - dy, h * (np.asarray(ode._D) @ k)
    r4 = dy - h * k[6] - r3
    return lambda th: np.maximum(y + th * (dy + (1 - th) * (r3 + th * (r4 + (1 - th) * r5))), 0.0)


@pytest.mark.parametrize("model", ["mm", "inhibitor", "pingpong", "kuznetsov"])
def test_float_interpolant_matches_numpy_interpolant(monkeypatch, model):
    # the stages are summed in another order: a cell may move by an ulp of its column's peak
    m = parse_model((MODELS / f"{model}.bond").read_text())
    rs = build_reaction_system(m)
    x0 = initial_mixture(m, rs.index)
    got = integrate(build_odes(rs), x0, 20.0, grid=997)
    monkeypatch.setattr(ode, "_interpolant", numpy_interpolant)
    ref = integrate(build_odes(rs), x0, 20.0, grid=997)
    assert (got.steps, got.rejected, got.nfev) == (ref.steps, ref.rejected, ref.nfev)
    assert (np.abs(got.y - ref.y) <= 2 * np.spacing(np.abs(ref.y).max(axis=0))).all()


MID_STEP_NAN = (  # finite at t=0, NaN inside a stage once X exceeds about 1e4
    "species X = x.(X | X);\nlaw F(k; x) = k*x*x - k*x*x + x;\n"
    "affinity { x at F(1e300); }\nmixture { 1 X }"
)


STAGE_DIVISION_BY_ZERO = (  # finite at t=0; the first stage of the first attempt is at X = 0
    "species X = x.0;\nlaw F(k; x) = k / x;\naffinity { x at F(1); }\nmixture { 1 X }"
)


@pytest.mark.parametrize(
    "source, t_end, message, outcome",
    [
        (
            MID_STEP_NAN,
            20.0,
            r"^non-finite rate for reaction 'x at F\(1e\+300\)' \(kinetic law",
            None,
        ),
        # h = 500/100, so the first stage input is 1 + h*(1/5)*(-1/1) = 0 exactly; a smaller
        # step goes on, up to t = 0.5, where the solution sqrt(1 - 2t) ends with infinite slope
        (
            STAGE_DIVISION_BY_ZERO,
            500.0,
            r"^rate evaluation failed for reaction 'x at F\(1\)': ",
            r"^step size underflow at t=0\.5 ",
        ),
    ],
    ids=["nan", "division-by-zero"],
)
def test_domain_error_inside_step_names_reaction(source, t_end, message, outcome):
    # the generated step names the reaction itself: no rate is evaluated a second time.
    # A failing attempt is a rejected one, retried at h/5: its error is raised only once
    # h falls below h_min with no step accepted since (else ``outcome``, a StiffnessError)
    rs, sys_ = odes_for(source)
    step, attempts, failed = sys_._step, [], []

    def spy(*args):  # shadows the generated step: records each attempt, and those that raise
        attempts.append(args)
        try:
            return step(*args)
        except ex.DomainError as e:
            failed.append((args, str(e)))
            raise

    sys_._step = spy
    with pytest.raises(StiffnessError if outcome else ex.DomainError, match=outcome or message):
        integrate(sys_, [1.0], t_end)
    assert failed and re.match(message, failed[0][1])
    if not outcome:
        assert attempts[-1] is failed[-1][0] and 0.2 * failed[-1][0][2] < 1e-14 * t_end
