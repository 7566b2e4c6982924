import hashlib
import io
import math
from pathlib import Path

import numpy as np
import pytest

from bondc import expr as ex
from bondc.parser import parse_model
from bondc.reactions import build_reaction_system, initial_mixture
from bondc.ssa import (
    discretize,
    gillespie,
    gillespie_runs,
    initial_levels,
    write_runs_csv,
)

from conftest import mean_std, stoichiometry

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
    assert [f([10]) for f in dm._props] == [pytest.approx(1.0 * (10 * 0.5) / 0.5)]


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
    runs = gillespie_runs(dm, [400], 2.0, seed=3, runs=200, sample_dt=0.5)
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
    for run in gillespie_runs(dm, n0, 5.0, seed=11, runs=10, sample_dt=1.0):
        totals = run.levels[:, i_e] + run.levels[:, i_c]
        assert (totals == totals[0]).all()


def test_sampling_grid():
    dm, _ = decay_model()
    run = gillespie(dm, [50], 2.0, seed=5, sample_dt=0.25)
    assert len(run.t) == 9
    assert run.t[0] == 0.0 and run.t[-1] == pytest.approx(2.0)
    assert run.levels[0, 0] == 50


def test_negative_initial_levels_rejected():
    dm, _ = decay_model()
    with pytest.raises(ValueError):
        gillespie(dm, [-1], 1.0, seed=0)


def test_write_runs_csv_format():
    dm, _ = decay_model()
    runs = gillespie_runs(dm, [10], 1.0, seed=13, runs=2, sample_dt=0.5)
    buf = io.StringIO()
    write_runs_csv(buf, dm, runs)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "run,t,X"
    assert len(lines) == 1 + 2 * 3  # header + 2 runs x 3 sample points
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0 and first[2] == "10"


def test_mean_std_shapes():
    dm, _ = decay_model()
    runs = gillespie_runs(dm, [30], 1.0, seed=17, runs=4, sample_dt=0.5)
    t, mean, std = mean_std(runs)
    assert mean.shape == (len(t), 1) and std.shape == mean.shape
    assert (std >= 0).all()


# --- dependency graph and local propensity updates -----------------------------------

CORPUS = sorted(p.name for p in MODELS.glob("*.bond") if p.name != "broken_arity.bond")


def fingerprint(runs):
    return [(r.events, hashlib.sha256(r.levels.tobytes()).hexdigest()) for r in runs]


def test_golden_streams_enzyme():
    # recorded from the full-recompute direct method before local updates
    dm, rs, n0 = enzyme_model(h=0.01)
    assert fingerprint(gillespie_runs(dm, n0, 5.0, seed=20261018, runs=3)) == [
        (1357, "5bc55ebd082229bd37071beffe34bbea6176a691143aabbb6e454e58c857e952"),
        (1380, "c8a0aa22ce051615c877975711bfc756cee4affb7663bd8d95ea067e00dce1a6"),
        (1511, "31ddc2738db2ce39ab2ec072ceca6fd30f3c38a5581a31f13dc6e6471f246c1f"),
    ]


def test_golden_streams_bank_k4():
    from test_reactions import bank_source

    model = parse_model(bank_source(4))
    rs = build_reaction_system(model)
    n0 = initial_levels(initial_mixture(model, rs.index), 0.05)
    runs = gillespie_runs(discretize(rs, 0.05), n0, 1000.0, seed=20261018, runs=3)
    assert all(r.absorbed for r in runs)
    assert fingerprint(runs) == [
        (2446, "0da2c58b27a9fd13a0ac1b275c5e2e71260e310b37a99b6c48165536dfbb01a0"),
        (2408, "f5fa34e28bd6749024f11165b9ec892cb5040dbf45ac94efb3a08c7462d93616"),
        (2402, "251b6c095244cd13e6101bbf0e9d78b654d2edf5ce68c79ce130106cebbca349"),
    ]


def test_golden_stream_int_seed():
    # one trajectory seeded with an int, recorded before the seeding paths were one
    dm, _ = decay_model()
    assert fingerprint([gillespie(dm, [100], 5.0, seed=42)]) == [
        (100, "96249cd216fb1732ce2f65558cb8d680367d8c382b450ada097dd22ded489dce"),
    ]


@pytest.mark.parametrize("seed", [0, 20261018])
def test_runs_are_gillespie_seeded_with_spawned_children(seed):
    dm, _, n0 = enzyme_model(h=0.05)
    runs = gillespie_runs(dm, n0, 2.0, seed=seed, runs=3)
    children = np.random.SeedSequence(seed).spawn(3)
    for i, child in enumerate(children):
        one = gillespie(dm, n0, 2.0, child, run_id=i)
        assert fingerprint([runs[i]]) == fingerprint([one])
        assert runs[i].run_id == one.run_id == i
        assert runs[i].absorbed == one.absorbed
        assert np.array_equal(runs[i].t, one.t)


@pytest.mark.parametrize("name", CORPUS)
def test_dependency_graph_matches_brute_force(name):
    rs = build_reaction_system(parse_model((MODELS / name).read_text()))
    dm = discretize(rs, 0.1)
    n = len(rs.prime_names)
    nus = [stoichiometry(r, n) for r in rs.reactions]
    reads = [
        {rs.prime_names.index(v) for v in ex.variables(r.rate)} | {i for i in range(n) if nu[i] < 0}
        for r, nu in zip(rs.reactions, nus)
    ]
    for j, nu in enumerate(nus):
        changed = {i for i in range(n) if nu[i]}
        assert dm.deps[j] == [k for k in range(len(nus)) if reads[k] & changed], j
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


def test_rate_division_by_zero_names_reaction():
    src = "species X = x.0;\nlaw F(k; x) = k / (x - 1);\naffinity { x at F(2); }\nmixture { 1 X }"
    rs = build_reaction_system(parse_model(src))
    dm = discretize(rs, 1.0)
    prop, levels = dm._props[0], []

    def spy(n):
        levels.append(n[0])
        return prop(n)

    dm._props[0] = spy
    # level 3 fires twice; at level 1 the recomputed propensity divides by zero
    with pytest.raises(ex.DomainError, match=r"rate evaluation failed for reaction 'x at F\(2\)'"):
        gillespie(dm, [3], 100.0, seed=1)
    assert levels == [3, 2, 1]  # the compiled propensity names it: it is not evaluated again
