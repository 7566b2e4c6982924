import hashlib
import io
import math
import random
from pathlib import Path

import numpy as np
import pytest

from bondc import expr as ex
from bondc.ode import build_odes
from bondc.parser import parse_model
from bondc.reactions import build_reaction_system, initial_mixture
from bondc.ssa import (
    compile_updaters,
    discretize,
    gillespie,
    gillespie_runs,
    initial_levels,
    write_runs_csv,
)

from conftest import (
    evaluate,
    evaluate_rate,
    family_source,
    mean_std,
    rational_left_nullspace,
    stoichiometry,
    with_totals,
)

MODELS = Path(__file__).resolve().parent.parent / "models"

DECAY = "species X = x.0;\naffinity { x at MA(1.0); }\nmixture { 100 X }"


def decay_model(h=1.0):
    rs = build_reaction_system(parse_model(DECAY))
    return discretize(rs, h), rs


def enzyme_model(h=0.01):
    model = parse_model((MODELS / "enzyme.bond").read_text())
    rs = build_reaction_system(model)
    n0 = initial_levels(initial_mixture(model, rs.index), h)
    return discretize(rs, h), rs, n0


def test_initial_levels_rounding():
    assert initial_levels([1.0, 0.26, 0.0], 0.25) == [4, 1, 0]
    assert initial_levels([10.0], 0.004) == [2500]


def test_discretize_rejects_nonpositive_h():
    _, rs = decay_model()
    with pytest.raises(ValueError):
        discretize(rs, 0.0)


def test_propensity_matches_scaled_rate():
    # propensity a(N) = rate(N*h)/h for mass-action decay: rate(x) = k*x
    dm, _ = decay_model(h=0.5)
    assert dm.groups == [[0], []]  # X's readers, then the events that read no level
    p = [None]
    dm.updaters[0]([10], p, None)  # a plain line: it never calls slow
    assert p == [1.0 * (10 * 0.5) / 0.5]


def test_same_seed_bit_identical():
    dm, _ = decay_model()
    a = gillespie(dm, [100], 5.0, seed=42)
    b = gillespie(dm, [100], 5.0, seed=42)
    assert np.array_equal(a.levels, b.levels)
    assert a.events == b.events and a.absorbed == b.absorbed


def test_different_seeds_differ():
    dm, _ = decay_model()
    a = gillespie(dm, [100], 5.0, seed=1)
    b = gillespie(dm, [100], 5.0, seed=2)
    assert not np.array_equal(a.levels, b.levels)


def test_runs_bit_identical_and_independent():
    dm, _ = decay_model()
    runs1 = gillespie_runs(dm, [100], 3.0, seed=7, runs=5)
    runs2 = gillespie_runs(dm, [100], 3.0, seed=7, runs=5)
    for a, b in zip(runs1, runs2):
        assert np.array_equal(a.levels, b.levels)
    # distinct child streams give distinct trajectories
    assert not np.array_equal(runs1[0].levels, runs1[1].levels)


def test_decay_mean_matches_exponential():
    # E[N(t)] = N0 * exp(-k t) for unit-rate decay
    dm, _ = decay_model()
    runs = gillespie_runs(dm, [400], 2.0, seed=3, runs=200, grid=4)
    t, mean, std = mean_std(runs)
    se = std / math.sqrt(len(runs))
    for i, ti in enumerate(t):
        expected = 400 * math.exp(-ti)
        assert abs(mean[i, 0] - expected) <= 4 * max(se[i, 0], 1.0)


def test_levels_never_negative_and_absorbed():
    dm, _ = decay_model()
    run = gillespie(dm, [20], 1e6, seed=9)
    assert (run.levels >= 0).all()
    assert run.absorbed  # every particle eventually decays
    assert run.levels[-1, 0] == 0


def test_enzyme_conservation_exact_per_run():
    dm, rs, n0 = enzyme_model(h=0.1)
    i_e = dm.names.index("E")
    i_c = next(i for i, n in enumerate(dm.names) if n not in ("S", "E", "P"))
    for run in gillespie_runs(dm, n0, 5.0, seed=11, runs=10, grid=5):
        totals = run.levels[:, i_e] + run.levels[:, i_c]
        assert (totals == totals[0]).all()


def test_sampling_grid():
    dm, _ = decay_model()
    run = gillespie(dm, [50], 2.0, seed=5, grid=8)
    assert len(run.t) == 9
    assert run.t[0] == 0.0 and run.t[-1] == 2.0
    assert run.levels[0, 0] == 50


def test_negative_initial_levels_rejected():
    dm, _ = decay_model()
    with pytest.raises(ValueError):
        gillespie(dm, [-1], 1.0, seed=0)


def test_write_runs_csv_format():
    dm, _ = decay_model()
    runs = gillespie_runs(dm, [10], 1.0, seed=13, runs=2, grid=2)
    buf = io.StringIO()
    write_runs_csv(buf, dm, runs)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "run,t,X"
    assert len(lines) == 1 + 2 * 3  # header + 2 runs x 3 sample points
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0 and first[2] == "10"


def test_mean_std_shapes():
    dm, _ = decay_model()
    runs = gillespie_runs(dm, [30], 1.0, seed=17, runs=4, grid=2)
    t, mean, std = mean_std(runs)
    assert mean.shape == (len(t), 1) and std.shape == mean.shape
    assert (std >= 0).all()


# --- dependency graph and local propensity updates -----------------------------------

CORPUS = sorted(p.name for p in MODELS.glob("*.bond") if p.name != "broken_arity.bond")


def fingerprint(runs):
    return [(r.events, hashlib.sha256(r.levels.tobytes()).hexdigest()) for r in runs]


def test_golden_streams_enzyme():
    # as reference_runs, the full-rescan direct method below, reproduces it
    dm, rs, n0 = enzyme_model(h=0.01)
    assert fingerprint(gillespie_runs(dm, n0, 5.0, seed=20261018, runs=3)) == [
        (1407, "5fa9092c76641b582813db013654dc6ffd063b4ea01ee9073aa303815dff2f3d"),
        (1409, "86a81de7df79f82463e7b95cefafa579a01ca8e5c5738a6229170a8de01cd418"),
        (1391, "03e746b9b5d62b3ff1adc5679edb31779d8bd9e06045fbf5d13dce7a1a56402c"),
    ]


def test_golden_streams_bank_k4():
    model = parse_model(family_source("bank", 4))
    rs = build_reaction_system(model)
    n0 = initial_levels(initial_mixture(model, rs.index), 0.05)
    runs = gillespie_runs(discretize(rs, 0.05), n0, 1000.0, seed=20261018, runs=3)
    assert all(r.absorbed for r in runs)
    assert fingerprint(runs) == [
        (2466, "a6bc5c538cce0e71630ac388d5d2a3fed13da9bce12b3068bb3ae9a9e8084742"),
        (2660, "adceab5d1f82548f7426dbdcadf3c5096e5396f7fb8032ac68b2942b322779fa"),
        (2562, "5c9af33571c20ea7e6bde27e06bd967a9b919d669ec8d7c8320d14774c81afc8"),
    ]


def test_golden_stream_int_seed():
    # one trajectory seeded with an int, as reference_runs reproduces it
    dm, _ = decay_model()
    assert fingerprint([gillespie(dm, [100], 5.0, seed=42)]) == [
        (98, "c7b01c0f225defbec0dc3435f90afb080e105827ca761c4e1dcecc8707dfcbec"),
    ]


# per corpus model: (h, t_end) with every prime of nonzero concentration above
# 0 levels, and the fingerprints of two runs at seed 20261018, as reference_runs
# reproduces them
CORPUS_GOLDENS = {
    "dimer.bond": (0.01, 5.0, [
        (188, "ec1fbf7a94349eb31a4bf03109ed0734b5f08be87b08c55d45d288b8eadcd2c6"),
        (156, "b72b8ba6673aff71b822557f54f5e6027875dc07110a561ff982056ccab8df48"),
    ]),
    "enzyme.bond": (0.01, 5.0, [
        (1407, "5fa9092c76641b582813db013654dc6ffd063b4ea01ee9073aa303815dff2f3d"),
        (1409, "86a81de7df79f82463e7b95cefafa579a01ca8e5c5738a6229170a8de01cd418"),
    ]),
    "inhibitor.bond": (0.05, 5.0, [
        (255, "85244f9ffc4cca06fc505401c242ea21ea8ba5f6b30382b835b73c2b028b9edf"),
        (250, "6511fae46d72d67938365712789275d148aed849b613d64a796b28329fc2df04"),
    ]),
    "kuznetsov.bond": (1.0, 1e-4, [
        (3012, "605c66dfae81dd8ed5a95a7293c6f0018ba275d88c961e0f0956a1ebe8804aae"),
        (2886, "4fb140847751103e7e84eec401cd92be197ec47e81502ca6c6f0dd4b8b007451"),
    ]),
    "mm.bond": (0.01, 5.0, [
        (1930, "84fa2d8b753b2c764517b8a69b43e83b33bef6cc287cc0fe941a1e610da5e2b8"),
        (1894, "933ed70cdc406b6771907b621c891bfb9ae440dd04a7a972f450c1fb98180284"),
    ]),
    "monomer_twosite.bond": (0.01, 5.0, [
        (188, "ec1fbf7a94349eb31a4bf03109ed0734b5f08be87b08c55d45d288b8eadcd2c6"),
        (156, "b72b8ba6673aff71b822557f54f5e6027875dc07110a561ff982056ccab8df48"),
    ]),
    "pingpong.bond": (0.05, 20.0, [
        (100, "c94476d212414d80446125308983a125d5f9239c4b611220649c03ee7e463bb8"),
        (100, "acad4929f745c6eccee3b6bcdc62fb920a8533ed56f74a0e859425fcff861cb3"),
    ]),
    "trimer.bond": (0.01, 2.0, [
        (62, "853411266f2da12d741375f0f56dbce1d2dc7ec4908dfc6ccd82dbec2afc14c1"),
        (57, "d02f8383b9b79ef69e88930ee0174a3f575bbb77b57a6bddeb80b21f3c3b3d83"),
    ]),
}


def test_corpus_goldens_cover_every_simulable_model():
    assert sorted(CORPUS_GOLDENS) == CORPUS


@pytest.mark.parametrize("name", sorted(CORPUS_GOLDENS))
def test_golden_streams_corpus(name):
    h, t_end, golden = CORPUS_GOLDENS[name]
    model = parse_model((MODELS / name).read_text())
    rs = build_reaction_system(model)
    x0 = initial_mixture(model, rs.index)
    n0 = initial_levels(x0, h)
    assert all(n > 0 for c, n in zip(x0, n0) if c)
    runs = gillespie_runs(discretize(rs, h), n0, t_end, seed=20261018, runs=2)
    assert all(not r.warnings for r in runs)
    assert fingerprint(runs) == golden


# name: (source, h, t_end); the corpus as in its goldens, the families at 20 levels a unit
CONSERVATION_CASES = {
    **{name: ((MODELS / name).read_text(), h, t) for name, (h, t, _) in CORPUS_GOLDENS.items()},
    **{f"scaffold k={k}": (family_source("scaffold", k), 0.05, 5.0) for k in range(1, 5)},
    "bank k=4": (family_source("bank", 4), 0.05, 5.0),
}


@pytest.mark.parametrize("case", sorted(CONSERVATION_CASES))
def test_every_row_keeps_each_conserved_total_exactly(case):
    # each left-null vector of the stoichiometry, scaled to integers, weighs every row alike
    source, h, t_end = CONSERVATION_CASES[case]
    model = parse_model(source)
    rs = build_reaction_system(model)
    basis = rational_left_nullspace([stoichiometry(r, len(rs.prime_names)) for r in rs.reactions])
    assert basis, case
    n0 = initial_levels(initial_mixture(model, rs.index), h)
    run = gillespie(discretize(rs, h), n0, t_end, seed=20261018)
    assert run.events > 0
    for v in basis:
        scale = math.lcm(*(c.denominator for c in v))
        totals = run.levels @ np.array([int(c * scale) for c in v])
        assert (totals == totals[0]).all(), (case, v)


# X -> X + Y at the constant rate 2: its propensity reads no level
CONSTANT = (
    "species X = x.(X | Y);\nspecies Y = y.0;\nlaw C(k; a) = k;\n"
    "affinity { x at C(2); }\nmixture { 1 X }"
)


def test_constant_propensity_golden_stream():
    dm = discretize(build_reaction_system(parse_model(CONSTANT)), 0.1)
    assert fingerprint(gillespie_runs(dm, [10, 0], 5.0, seed=20261018, runs=2)) == [
        (104, "c190bf7f8130917bc94b9ac76d7c055e451e016c5ae001f816650f268772dad9"),
        (96, "07e33c3e8a9830a895f1e0b6d3579411e5ab78e7f733fac9f6315aed7efbfdab"),
    ]


def test_constant_propensity_mean_tracks_rate():
    # Y is a Poisson count of mean 2t/h levels: its mean concentration is 2t
    h = 0.1
    dm = discretize(build_reaction_system(parse_model(CONSTANT)), h)
    runs = gillespie_runs(dm, [10, 0], 4.0, seed=5, runs=200, grid=4)
    t, mean, std = mean_std(runs)
    se = std / math.sqrt(len(runs))
    assert (runs[0].levels[:, 0] == 10).all()
    for i, ti in enumerate(t[1:], 1):
        assert abs(mean[i, 1] * h - 2 * ti) <= 3 * se[i, 1] * h, ti


def trigger(laws: str, entries: list[str], p: int, q: int) -> str:
    """T -> P + Q at rate 1, P -> P and Q -> Q at the given laws."""
    return (
        f"species T = t.(P | Q);\nspecies P = p.P;\nspecies Q = q.Q;\n{laws}\n"
        f"affinity {{ t at MA(1); {' '.join(entries)} }}\nmixture {{ 1 T, {p} P, {q} Q }}"
    )


def clamped(first: str) -> str:
    """``trigger`` with P and Q at k * (1.5 - x), first's entry listed first: T -> P + Q
    takes both below 0 in one update."""
    entries = [f"{first} at N(1);", f"{'pq'[first == 'p']} at N(1);"]
    return trigger("law N(k; x) = k * (1.5 - x);", entries, 1, 1)


def cluster(n: int) -> str:
    """n species A{i} = s.0 under one non-mass-action law: each rate reads the cluster's total."""
    text = "".join(f"species A{i} = s.0;\n" for i in range(n))
    text += "law L(k; a) = k * a / (1 + a);\naffinity { s at L(2.0); }\n"
    return text + "mixture { " + ", ".join(f"1 A{i}" for i in range(n)) + " }\n"


def test_primes_with_equal_groups_share_one_updater():
    # every event reads the total Σ(s): its group lists all 250 events once, each prime's
    # own group is empty, and one updater serves the empty groups, one the total's
    dm = discretize(build_reaction_system(parse_model(cluster(250))), 0.1)
    assert dm.groups == [[]] * 250 + [list(range(250)), []]
    assert len(dm.updaters) == 252 and len(set(dm.updaters)) == 2
    assert dm.after == [[dm.updaters[250]]] * 250


def test_a_cluster_total_of_5000_primes_compiles():
    # the field and an updater compute the 5,000-term total once, in statements of 256
    # terms, and each rate reads it by name: both compile and equal a tree walk bit for bit
    rs = build_reaction_system(parse_model(cluster(5000)), cap=10_000)
    names, n, h = rs.prime_names, 5000, 0.1
    assert rs.totals == {"Σ(s)": tuple((f"A{i}", 1) for i in range(n))}
    field = build_odes(rs)._field
    rates = [r.rate for r in rs.reactions]
    assert [r.jumps for r in rs.reactions] == [[(i, -1)] for i in range(n)]
    [update] = compile_updaters(rates, names, h, [list(range(n))], [None] * n, rs.totals)
    rng = random.Random(5000)
    for _ in range(3):
        levels = [rng.randrange(30) for _ in names]
        x = [k * h for k in levels]
        env = with_totals(rs, dict(zip(names, x)))
        assert list(map(repr, field(*x))) == [repr(-evaluate(e, env)) for e in rates]
        p = [None] * n
        update(levels, p, None)
        assert list(map(repr, p)) == [repr(evaluate(e, env) / h) for e in rates]
    # the events are listed once, under the total they read, not again under each prime
    dm = discretize(rs, h)
    assert sum(map(len, dm.groups)) <= 2 * n


# --- a reference direct method that shares no code with gillespie ------------------


def reference_runs(rs, h, n0, t_end, seed, runs):
    """Gillespie's direct method with a full rescan per event, run i of ``runs`` (None
    is one run) drawing from ``random.Random(f"{seed}:{i}")``.  Every propensity is
    ``evaluate_rate`` at n*h over h, or 0 when it is negative or a reactant is short; they
    are summed left to right.  Each event draws u, then v: it waits -log1p(-u)/total
    and fires the first event whose running sum exceeds v*total, or the last one.
    Returns each run's (events, sha256 of its levels)."""
    names, n_primes = rs.prime_names, len(rs.prime_names)
    nus = [stoichiometry(r, n_primes) for r in rs.reactions]
    grid = [i * (t_end / 200) for i in range(200)] + [t_end]
    out = []
    for run_id in range(runs or 1):
        rng = random.Random(f"{seed}:{run_id}")
        n, t, events, rows = list(n0), 0.0, 0, [list(n0)]
        while True:
            env = {name: k * h for name, k in zip(names, n)}
            props = []
            for r, nu in zip(rs.reactions, nus):
                a = evaluate_rate(rs, r.rate, env) / h
                assert -math.inf < a < math.inf, (r.provenance, n)
                short = any(k < -d for k, d in zip(n, nu) if d < 0)
                props.append(0.0 if short or a < 0.0 else a)
            total = 0.0
            for a in props:
                total += a
            if total <= 0.0:
                break
            u = rng.random()
            v = rng.random()
            t -= math.log1p(-u) / total
            if t > t_end:
                break
            while len(rows) < len(grid) and grid[len(rows)] < t:
                rows.append(list(n))
            running, chosen = 0.0, len(props) - 1
            for k, a in enumerate(props):
                running += a
                if running > v * total:
                    chosen = k
                    break
            n = [k + d for k, d in zip(n, nus[chosen])]
            events += 1
        rows += [list(n)] * (len(grid) - len(rows))
        levels = np.array(rows, dtype=np.int64)
        out.append((events, hashlib.sha256(levels.tobytes()).hexdigest()))
    return out


# name: (source, h, t_end, runs, n0 or None for the mixture's levels, seed); runs None
# is one run of gillespie itself
REFERENCE_CASES = {
    **{
        name: ((MODELS / name).read_text(), h, t_end, 2, None, 20261018)
        for name, (h, t_end, _) in CORPUS_GOLDENS.items()
    },
    "enzyme runs=3": ((MODELS / "enzyme.bond").read_text(), 0.01, 5.0, 3, None, 20261018),
    "bank k=4": (family_source("bank", 4), 0.05, 1000.0, 3, None, 20261018),
    "constant": (CONSTANT, 0.1, 5.0, 2, [10, 0], 20261018),
    "cluster of 20": (cluster(20), 0.1, 5.0, 2, None, 20261018),
    "decay int seed": (DECAY, 1.0, 5.0, None, [100], 42),
    **{
        f"clamped {first}": (clamped(first), 1.0, 100.0, None, [1, 1, 1], 3)
        for first in "qp"
    },
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_gillespie_matches_reference_direct_method(case):
    source, h, t_end, runs, n0, seed = REFERENCE_CASES[case]
    model = parse_model(source)
    rs = build_reaction_system(model)
    n0 = n0 or initial_levels(initial_mixture(model, rs.index), h)
    dm = discretize(rs, h)
    if runs is None:
        got = fingerprint([gillespie(dm, n0, t_end, seed)])
    else:
        got = fingerprint(gillespie_runs(dm, n0, t_end, seed, runs))
    assert got == reference_runs(rs, h, n0, t_end, seed, runs)


# X -> X + Pk at the constant rate k, for k = 1, 2, 3: channels of propensity 1, 2 and 3 at h = 1
THREE_CHANNELS = (
    "species X = a.(X | P1) + b.(X | P2) + c.(X | P3);\n"
    "species P1 = p.0;\nspecies P2 = p.0;\nspecies P3 = p.0;\nlaw C(k; a) = k;\n"
    "affinity { a at C(1); b at C(2); c at C(3); }\nmixture { 1 X }"
)


def test_three_constant_channels_fire_in_proportion_and_as_a_poisson_process():
    # the events are a Poisson process of rate 6, each channel k chosen with chance k/6;
    # this reads only the run's output, so it holds whatever draws the sampler makes
    rs = build_reaction_system(parse_model(THREE_CHANNELS))
    t_end = 6000.0
    run = gillespie(discretize(rs, 1.0), [1, 0, 0, 0], t_end, seed=20261018)
    products = [rs.prime_names.index(f"P{k}") for k in (1, 2, 3)]
    counts = run.levels[-1, products].tolist()
    assert sum(counts) == run.events >= 30_000
    # chi-square against 1:2:3 on 2 degrees of freedom, whose p-value is exp(-chi2 / 2)
    chi2 = sum((c - run.events * k / 6) ** 2 / (run.events * k / 6) for k, c in zip((1, 2, 3), counts))
    assert math.exp(-chi2 / 2) > 1e-3, counts
    assert abs(run.events - 6 * t_end) <= 4 * math.sqrt(6 * t_end)
    # each of the 200 sample intervals holds a Poisson(6 dt) count: their dispersion
    # statistic is about chi-square on 200 degrees of freedom (mean 200, sd 20)
    per_interval = np.diff(run.levels[:, products].sum(axis=1))
    lam = 6 * (run.t[1] - run.t[0])
    dispersion = float(((per_interval - lam) ** 2 / lam).sum())
    assert abs(dispersion - len(per_interval)) <= 4 * math.sqrt(2 * len(per_interval)), dispersion


# --- an exact master-equation oracle that shares no code with ssa -------------------


def master_equation(rs, h, n0, t_end):
    """The states reachable from n0 and their exact probabilities at t_end.  A state
    moves by a reaction's stoichiometry at ``evaluate_rate`` at n*h over h, unless that
    takes a level below 0.  Uniformization (Jensen, 1953): with lam the largest exit
    rate, p(t_end) is the Poisson(lam * t_end)-weighted sum of p(0) (I + Q/lam)^k."""
    names, nus = rs.prime_names, [stoichiometry(r, len(rs.prime_names)) for r in rs.reactions]
    states, index, moves = [tuple(n0)], {tuple(n0): 0}, []
    for state in states:  # breadth first: the list grows as it is walked
        env = {name: k * h for name, k in zip(names, state)}
        out = []
        for r, nu in zip(rs.reactions, nus):
            a = evaluate_rate(rs, r.rate, env) / h
            assert 0.0 <= a < math.inf, (r.provenance, state)
            target = tuple(k + d for k, d in zip(state, nu))
            if a > 0.0 and min(target) >= 0:
                if target not in index:
                    index[target] = len(states)
                    states.append(target)
                out.append((index[target], a))
        moves.append(out)
    lam = max(sum(a for _, a in out) for out in moves)
    step = np.eye(len(states))
    for i, out in enumerate(moves):
        for j, a in out:
            step[i, j] += a / lam
            step[i, i] -= a / lam
    p = np.zeros(len(states))
    p[0] = weight = total = math.exp(-lam * t_end)
    term, k = p.copy(), 0
    while total < 1 - 1e-12:
        k += 1
        term = term @ step * (lam * t_end / k)
        weight *= lam * t_end / k
        p += term
        total += weight
    return states, p


def chi_square_p(chi2, df):
    """P(X >= chi2) for X chi-square on df degrees of freedom: one minus the series
    of the regularized lower incomplete gamma function P(df/2, chi2/2)."""
    a, x = df / 2, chi2 / 2
    term = series = 1 / a
    n = 0
    while term > 1e-17 * series:
        n += 1
        term *= x / (a + n)
        series += term
    return 1 - math.exp(a * math.log(x) - x - math.lgamma(a)) * series


# model, h, t_end: each has 10 to 200 reachable states, most of them within reach by t_end
MASTER_EQUATION_CASES = [
    ("mm.bond", 1.0, 0.05),
    ("enzyme.bond", 1.0, 0.5),
    ("dimer.bond", 0.05, 1.0),
]


@pytest.mark.parametrize("name, h, t_end", MASTER_EQUATION_CASES)
def test_end_states_follow_the_master_equation(name, h, t_end):
    model = parse_model((MODELS / name).read_text())
    rs = build_reaction_system(model)
    n0 = initial_levels(initial_mixture(model, rs.index), h)
    states, p = master_equation(rs, h, n0, t_end)
    runs = gillespie_runs(discretize(rs, h), n0, t_end, seed=20261018, runs=4000, grid=1)
    index = {s: i for i, s in enumerate(states)}
    observed = np.zeros(len(states))
    for run in runs:
        observed[index[tuple(run.levels[-1].tolist())]] += 1
    expected = len(runs) * p
    # the states expected fewer than 5 times are pooled, and the pool joins the
    # least of the other cells if it is still under 5
    big = expected >= 5
    obs, exp = [*observed[big], observed[~big].sum()], [*expected[big], expected[~big].sum()]
    if exp[-1] < 5:
        least = int(np.argmin(exp[:-1]))
        obs[least] += obs.pop()
        exp[least] += exp.pop()
    chi2 = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    assert chi_square_p(chi2, len(obs) - 1) > 1e-3, (chi2, len(obs) - 1)


# at P = 3, 1/(3 - P) divides by zero; at Q = 13408 the two products overflow
# and their difference is NaN, where at 13407 it is 0
TWO_FAILURES = "law D(k; x) = k / (3 - x);\nlaw G(k; x) = k * x * x - k * x * x;"


@pytest.mark.parametrize(
    "entries, message",
    [
        (["q at G(1e300);", "p at D(1);"], r"non-finite rate for reaction 'q at G\(1e\+300\)'"),
        (["p at D(1);", "q at G(1e300);"], r"rate evaluation failed for reaction 'p at D\(1\)'"),
    ],
    ids=["non-finite-first", "division-first"],
)
@pytest.mark.parametrize("p, q", [(2, 13407), (3, 13408)], ids=["after-an-event", "at-the-start"])
def test_two_failures_in_one_update_name_the_lower_index(entries, message, p, q):
    # T -> P + Q updates P's readers before Q's, whatever their reaction indices;
    # recorded from per-reaction propensities, which failed in index order
    rs = build_reaction_system(parse_model(trigger(TWO_FAILURES, entries, p, q)))
    assert [r.provenance for r in rs.reactions][0] == "t at MA(1)"
    with pytest.raises(ex.DomainError, match=message):
        gillespie(discretize(rs, 1.0), [1, p, q], 1e9, seed=1)


@pytest.mark.parametrize("first", ["q", "p"])
def test_negative_propensity_warning_names_the_lower_index(first):
    rs = build_reaction_system(parse_model(clamped(first)))
    run = gillespie(discretize(rs, 1.0), [1, 1, 1], 100.0, seed=3)
    assert run.warnings == [f"negative propensity for '{first} at N(1)' clamped to 0"]
    assert run.absorbed and fingerprint([run]) == [
        (2, "e48c3db594416c701947480827978425f562a812a78e2d005dfad6bca1dbf4d5"),
    ]


@pytest.mark.parametrize("seed", [0, 20261018])
def test_run_i_of_runs_is_gillespie_run_i(seed):
    dm, _, n0 = enzyme_model(h=0.05)
    runs = gillespie_runs(dm, n0, 2.0, seed=seed, runs=3)
    for i in range(3):
        one = gillespie(dm, n0, 2.0, seed, run_id=i)
        assert fingerprint([runs[i]]) == fingerprint([one])
        assert runs[i].run_id == one.run_id == i
        assert runs[i].absorbed == one.absorbed
        assert np.array_equal(runs[i].t, one.t)


def test_seed_and_run_id_pairs_give_different_streams():
    # (1, 23) and (12, 3) join to the same digits: the separator keeps them apart
    dm, _ = decay_model()
    a = gillespie(dm, [100], 5.0, seed=1, run_id=23)
    b = gillespie(dm, [100], 5.0, seed=12, run_id=3)
    assert fingerprint([a]) != fingerprint([b])


@pytest.mark.parametrize("name", CORPUS)
def test_dependency_graph_matches_brute_force(name):
    rs = build_reaction_system(parse_model((MODELS / name).read_text()))
    dm = discretize(rs, 0.1)
    n, events = len(rs.prime_names), range(len(rs.reactions))
    nus = [stoichiometry(r, n) for r in rs.reactions]
    # a rate reads a prime's level itself, or through a named total holding the prime
    levels = {v: {i} for i, v in enumerate(rs.prime_names)}
    levels.update((t, {rs.prime_names.index(p) for p, _ in form}) for t, form in rs.totals.items())
    reads = [
        set().union(*(levels[v] for v in ex.variables(r.rate))) | {i for i in range(n) if nu[i] < 0}
        for r, nu in zip(rs.reactions, nus)
    ]
    # a group per prime, per named total, then the events that read no level
    assert len(dm.groups) == len(dm.updaters) == n + len(rs.totals) + 1
    assert dm.groups[-1] == [k for k in events if not reads[k]]
    if not rs.totals:
        assert dm.groups[:n] == [[k for k in events if i in reads[k]] for i in range(n)]
    # every event is in some group, and each group lists its events once, in order
    assert set().union(*map(set, dm.groups)) == set(events)
    assert all(g == sorted(set(g)) for g in dm.groups)
    for j, nu in enumerate(nus):
        changed = {i for i in range(n) if nu[i]}
        # the updaters an event calls recompute exactly its dependents
        listed = [set(dm.groups[dm.updaters.index(u)]) for u in dm.after[j]]
        assert set().union(*listed) == {k for k in events if reads[k] & changed}, j
        # each is called once, and no called group is a subset of another
        assert len(set(dm.after[j])) == len(dm.after[j]), j
        assert not any(a <= b for x, a in enumerate(listed) for b in listed[x + 1 :] + listed[:x]), j
        assert rs.reactions[j].jumps == [(i, nu[i]) for i in range(n) if nu[i]], j


NON_FINITE = (
    "species X = x.(X | X);\nlaw F(k; x) = k*x*x - k*x*x;\n"
    "affinity { x at F(1e300); }\nmixture { 1e10 X }"
)


def test_non_finite_propensity_names_reaction():
    rs = build_reaction_system(parse_model(NON_FINITE))
    dm = discretize(rs, 1e9)
    with pytest.raises(ex.DomainError, match=r"non-finite rate for reaction 'x at F\(1e\+300\)'"):
        gillespie(dm, [10], 1.0, seed=1)


def test_negative_infinite_propensity_names_reaction():
    # -inf sums to a total of -inf, which must not read as an absorbed state
    src = "species X = x.0;\nlaw F(k; x) = 1 - k*x*x;\naffinity { x at F(1e300); }\nmixture { 1 X }"
    dm = discretize(build_reaction_system(parse_model(src)), 1.0)
    with pytest.raises(ex.DomainError, match=r"non-finite rate for reaction 'x at F\(1e\+300\)'"):
        gillespie(dm, [10**5], 1.0, seed=1)


def test_overflowing_total_of_finite_propensities_stops_the_run():
    # 1e308 + 1.5e308 overflows: with a total of inf every event would wait 0
    # and the choice would always fall on the last one
    src = (
        "species A = a.A; species B = b.B;\n"
        "affinity { a at MA(1e308); b at MA(1.5e308); }\nmixture { 1 A, 1 B }"
    )
    dm = discretize(build_reaction_system(parse_model(src)), 1.0)
    with pytest.raises(ex.DomainError, match=r"^run 3: finite propensities sum to inf at t=0$"):
        gillespie(dm, [1, 1], 1.0, seed=1, run_id=3)


def test_rate_division_by_zero_names_reaction():
    src = "species X = x.0;\nlaw F(k; x) = k / (x - 1);\naffinity { x at F(2); }\nmixture { 1 X }"
    rs = build_reaction_system(parse_model(src))
    dm = discretize(rs, 1.0)
    levels = []

    def spy(update):
        def recompute(n, p, slow):
            levels.append(n[0])
            update(n, p, slow)

        return recompute

    spies = {u: spy(u) if js else u for u, js in zip(dm.updaters, dm.groups)}
    dm.updaters = [spies[u] for u in dm.updaters]
    dm.after = [[spies[u] for u in us] for us in dm.after]
    # level 3 fires twice; at level 1 the recomputed propensity divides by zero
    with pytest.raises(ex.DomainError, match=r"rate evaluation failed for reaction 'x at F\(2\)'"):
        gillespie(dm, [3], 100.0, seed=1)
    assert levels == [3, 2, 1]  # the scan names it: it is not evaluated again


ORACLE_MODELS = [(MODELS / name).read_text() for name in CORPUS] + [
    CONSTANT,
    trigger(TWO_FAILURES, ["q at G(1e300);", "p at D(1);"], 2, 13407),
    clamped("q"),
]


def per_event_propensity(rs, r, levels, h):
    """What per-event code stores for r: ``evaluate_rate`` scaled by h, then every need checked."""
    try:
        a = evaluate_rate(rs, r.rate, {n: k * h for n, k in zip(rs.prime_names, levels)}) / h
    except ex.DomainError:
        return "division"
    if 0.0 < a < math.inf:
        return 0.0 if any(levels[i] < -d for i, d in r.jumps if d < 0) else a
    if -math.inf < a < 0.0:
        return "clamped"
    return a if a == 0.0 else "non-finite"


@pytest.mark.parametrize("h", [0.5, 1.0, 1e-300])
@pytest.mark.parametrize("m", range(len(ORACLE_MODELS)))
def test_grouped_updaters_store_per_event_propensities(m, h):
    rs = build_reaction_system(parse_model(ORACLE_MODELS[m]))
    dm, names, n = discretize(rs, h), rs.prime_names, len(rs.prime_names)
    rng = random.Random(m)
    divided = set()

    def slow(j, a):
        if a is None:
            divided.add(j)
            return math.nan
        if -math.inf < a < 0.0:
            return "clamped"
        return 0.0 if 0.0 < a < math.inf else a

    assert set().union(*map(set, dm.groups)) == set(range(len(rs.reactions)))
    for _ in range(60):
        levels = [rng.choice([0, 0, 1, 2, 3, 13407, 13408, 2**62]) for _ in range(n)]
        for update, js in zip(dm.updaters, dm.groups):
            p, divided = [None] * len(rs.reactions), set()
            update(levels, p, slow)
            assert [k for k, a in enumerate(p) if a is not None] == js
            want = {k: per_event_propensity(rs, rs.reactions[k], levels, h) for k in js}
            for k in js:
                if want[k] == "division":
                    assert math.isnan(p[k])
                elif want[k] == "non-finite":
                    assert not math.isfinite(p[k])
                else:
                    assert repr(p[k]) == repr(want[k]), (k, levels)
            # an x/0 is reported for the first member it fails, and only for members it fails
            failing = [k for k in js if want[k] == "division"]
            assert divided <= set(failing) and (not failing or failing[0] in divided)
