"""End-to-end acceptance suite.

Each test states its tolerance and runtime budget inline; the budgets are
asserted so regressions in performance are caught alongside regressions in
results.
"""

import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from bondc import expr as ex
from bondc.congruence import normalize, primes
from bondc.ode import build_odes, eval_field, integrate
from bondc.parser import parse_model
from bondc.reactions import build_reaction_system, initial_mixture
from bondc.ssa import discretize, gillespie_runs, initial_levels
from bondc.terms import Par
from bondc.transitions import TransitionSystem

from conftest import mean_std, rational_left_nullspace, stoichiometry
from test_congruence import random_species
from test_reactions import brute_force_field

MODELS = Path(__file__).resolve().parent.parent / "models"
CORPUS = [
    "mm.bond",
    "enzyme.bond",
    "dimer.bond",
    "trimer.bond",
    "monomer_twosite.bond",
    "pingpong.bond",
    "inhibitor.bond",
    "kuznetsov.bond",
]


def load(name):
    return parse_model((MODELS / name).read_text())


def systems(name):
    model = load(name)
    rs = build_reaction_system(model)
    return model, rs, build_odes(rs)


# --- 1. rate combinatorics ---------------------------------------------------------


def test_symmetric_rate_factors():
    """Bonding rates carry the symmetry factors 1/2 (dimer), 1/6 (trimer),
    and 1 (two distinct sites), exactly, after constant folding.  Budget 1 s."""
    t0 = time.perf_counter()

    def bond_rate(src_name, prefix):
        _, rs, _ = systems(src_name)
        (r,) = [r for r in rs.reactions if r.provenance.startswith(prefix)]
        return r.rate

    a = ex.Var("A")
    b = ex.Var("B")
    # single site a on A, two participants: 1/2 * k2 * x_A^2 with k2 = 2.0
    assert bond_rate("dimer.bond", "a || a at ") == ex.mul(
        ex.const(0.5 * 2.0), ex.mul(a, a)
    )
    # single site a, three participants: 1/6 * k3 * x_A^3 with k3 = 6.0
    assert bond_rate("trimer.bond", "a || a || a at ") == ex.mul(
        ex.const(6.0 / 6.0), ex.prod([a, a, a])
    )
    # distinct sites a, b on the same species B: k * x_B^2 with k = 1.0
    assert bond_rate("monomer_twosite.bond", "a || b at ") == ex.mul(
        ex.const(1.0), ex.mul(b, b)
    )
    assert time.perf_counter() - t0 < 1.0


# --- 2. tumour-immune ODE reproduction ---------------------------------------------


def test_tumour_immune_odes_match_reference():
    """The extracted 4-variable system equals the reference closed forms
    (effector, tumour, complex, constant signal) at 25 random positive
    points to 1e-10 relative.  Budget 2 s."""
    t0 = time.perf_counter()
    model, rs, sys_ = systems("kuznetsov.bond")

    # constants as written in models/kuznetsov.bond
    s, f, g = 1.3e4, 2.49e7, 2.019e7
    k1 = 3e-7
    a, b = 0.18, 2e-9
    km1, k2, k3 = 6.3186, 3.67, 0.0114
    d1 = 0.15

    def reference(E, T, C):
        dE = s + f * C / (g + T) - d1 * E - k1 * E * T + (km1 + k2) * C
        dT = a * T * (1 - b * (T + C)) - k1 * E * T + (km1 + k3) * C
        dC = k1 * E * T - (km1 + k2 + k3) * C
        return dE, dT, dC, 0.0

    names = rs.prime_names
    iE, iT, iI = names.index("EC"), names.index("TC"), names.index("IS")
    iC = next(i for i in range(4) if i not in (iE, iT, iI))

    rng = random.Random(2)
    for _ in range(25):
        x = [0.0] * 4
        x[iE] = rng.uniform(1e3, 1e7)
        x[iT] = rng.uniform(1e4, 5e8)
        x[iC] = rng.uniform(1e2, 1e7)
        x[iI] = rng.uniform(0.1, 10.0)
        got = eval_field(sys_, x)
        want = reference(x[iE], x[iT], x[iC])
        for gi, wi in zip((got[iE], got[iT], got[iC], got[iI]), want):
            assert gi == pytest.approx(wi, rel=1e-10, abs=1e-12)
    assert time.perf_counter() - t0 < 2.0


# --- 3. Michaelis-Menten corpus -----------------------------------------------------


def test_mm_closed_forms_and_enzyme_conservation():
    """The saturating-law model yields its closed-form ODEs; the mass-action
    enzyme model conserves enzyme + complex symbolically (every reaction has
    zero net stoichiometry on that pair).  Budget 1 s."""
    t0 = time.perf_counter()
    _, rs, sys_ = systems("mm.bond")
    S, E, P = ex.Var("S"), ex.Var("E"), ex.Var("P")
    vmax, km, kdeg = 100.0, 10.0, 0.5
    mm = ex.div(ex.prod([ex.const(vmax), S, E]), ex.add(ex.const(km), E))
    by_name = dict(zip(sys_.names, sys_.derivs))
    assert by_name["S"] == ex.mul(ex.const(-1.0), mm)
    assert by_name["E"] == ex.ZERO
    assert by_name["P"] == ex.add(mm, ex.mul(ex.const(-kdeg), P))

    _, rs_e, _ = systems("enzyme.bond")
    n = len(rs_e.prime_names)
    i_e = rs_e.prime_names.index("E")
    i_c = next(
        i for i, nm in enumerate(rs_e.prime_names) if nm not in ("S", "E", "P")
    )
    for r in rs_e.reactions:
        nu = stoichiometry(r, n)
        assert nu[i_e] + nu[i_c] == 0, r.provenance
    assert time.perf_counter() - t0 < 1.0


# --- 4. semantics oracle ------------------------------------------------------------


def test_slotwise_extraction_matches_brute_force():
    """Slot-wise rate extraction equals the (1/m!)-weighted enumeration of
    ordered transition tuples on every corpus model (pattern sizes <= 3),
    at 10 random points each, 1e-9 relative.  Budget 10 s."""
    t0 = time.perf_counter()
    for name in CORPUS:
        model, rs, sys_ = systems(name)
        assert max(len(e.pattern) for e in model.affinity) <= 3
        rng = random.Random(name)
        for _ in range(10):
            x = [rng.uniform(0.05, 4.0) for _ in rs.prime_names]
            want = brute_force_field(model, rs, x)
            got = eval_field(sys_, x)
            for w, g in zip(want, got):
                assert g == pytest.approx(w, rel=1e-9, abs=1e-12)
    assert time.perf_counter() - t0 < 10.0


# --- 5. integrator convergence and conservation -------------------------------------


def test_integrator_convergence_and_conservation():
    """Linear decay end-state error <= 1e-6 at rtol 1e-8; every conserved
    linear combination stays within 10*atol along every corpus trajectory.
    Budget 5 s."""
    t0 = time.perf_counter()
    decay = parse_model(
        "species X = x.0;\naffinity { x at MA(1.0); }\nmixture { 1 X }"
    )
    rs = build_reaction_system(decay)
    traj = integrate(build_odes(rs), [1.0], 1.0, rtol=1e-8, atol=1e-12)
    assert abs(traj.y[-1, 0] - math.exp(-1.0)) <= 1e-6

    atol = 1e-9
    for name in CORPUS:
        model, rs, sys_ = systems(name)
        x0 = initial_mixture(model, rs.index)
        n = len(rs.prime_names)
        rows = [stoichiometry(r, n) for r in rs.reactions]
        basis = rational_left_nullspace(rows)
        if not basis:
            continue
        t_end = 100.0 if name == "kuznetsov.bond" else 10.0
        traj = integrate(sys_, x0, t_end, rtol=1e-6, atol=atol, grid=100)
        for v in basis:
            vals = traj.y @ np.array([float(c) for c in v])
            assert np.max(np.abs(vals - vals[0])) <= 10 * atol, (name, v)
    assert time.perf_counter() - t0 < 5.0


# --- 6. sustained oscillation -------------------------------------------------------


def test_tumour_immune_oscillation():
    """Over the 400-day horizon documented in models/kuznetsov.bond the
    tumour population has >= 2 interior local maxima.  Budget 5 s."""
    t0 = time.perf_counter()
    model, rs, sys_ = systems("kuznetsov.bond")
    x0 = initial_mixture(model, rs.index)
    traj = integrate(sys_, x0, 400.0, rtol=1e-6, atol=1e-3, grid=2000)
    y = traj.y[:, rs.prime_names.index("TC")]
    floor = 0.01 * y.max()  # ignore numerical ripple near the troughs
    peaks = [
        i
        for i in range(1, len(y) - 1)
        if y[i - 1] < y[i] > y[i + 1] and y[i] > floor
    ]
    assert len(peaks) >= 2
    assert time.perf_counter() - t0 < 5.0


# --- 7. stochastic/fluid consistency -----------------------------------------------


def test_ssa_mean_tracks_ode():
    """Mass-action enzyme model with initial levels >= 500: over 200 runs the
    mean level is within 3 standard errors of the ODE at 5 checkpoints, and
    reruns with the same seed are bit-identical.  Budget 60 s."""
    t0 = time.perf_counter()
    model, rs, sys_ = systems("enzyme.bond")
    x0 = initial_mixture(model, rs.index)
    h = 0.004  # E: 2.0/h = 500 levels, S: 2500 levels
    n0 = initial_levels(x0, h)
    assert min(v for v in n0 if v > 0) >= 500

    dm = discretize(rs, h)
    seed = 20260826
    runs = gillespie_runs(dm, n0, 0.5, seed=seed, runs=200, grid=5)
    t, mean, std = mean_std(runs)
    ref = integrate(sys_, x0, 0.5, rtol=1e-8, atol=1e-12, grid=5)
    assert np.array_equal(t, ref.t)
    checkpoints = [j for j, tj in enumerate(t) if tj > 0]
    assert len(checkpoints) == 5
    for j in checkpoints:
        for k in range(len(rs.prime_names)):
            se = std[j, k] / math.sqrt(len(runs))
            assert abs(mean[j, k] - ref.y[j, k] / h) <= 3 * se

    rerun = gillespie_runs(dm, n0, 0.5, seed=seed, runs=200, grid=5)
    for a, b in zip(runs, rerun):
        assert np.array_equal(a.levels, b.levels)
        assert a.events == b.events
    assert time.perf_counter() - t0 < 60.0


# --- 8. normalization and prime-decomposition properties ----------------------------


def test_random_term_properties():
    """On 1000 random terms of depth <= 5: normalize is idempotent, prime
    decomposition factorizes parallel composition, and the transition
    relation is invariant under normalization.  Budget 30 s."""
    t0 = time.perf_counter()
    ts = TransitionSystem({})
    rng = random.Random(20260826)
    terms = [random_species(rng, rng.randrange(1, 6)) for _ in range(1000)]
    for i, term in enumerate(terms):
        n = normalize(term)
        assert normalize(n) == n
        other = terms[(i + 1) % len(terms)]
        combined = primes(Par((term, other)))
        split = primes(term) + primes(other)
        assert sorted(combined, key=repr) == sorted(split, key=repr)
        assert ts.transitions(term) == ts.transitions(n)
    assert time.perf_counter() - t0 < 30.0
