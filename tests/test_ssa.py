import hashlib
import io
import math
import random
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

from conftest import evaluate, family_source, mean_std, stoichiometry

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
        (1419, "60f1d49f0be0458bc43cb7baf8ce08a0cc3405c48fbdecb3a8f20b78937e0615"),
        (1466, "da01e0e7b7e3eb7d8ddeb0123c45a1d377e220e083d8cf97f23745ec1d40ab9e"),
        (1345, "144147c9fb58f9e1d639c91fcf393688730a565bc09cd8cf950aa6de984d59a2"),
    ]


def test_golden_streams_bank_k4():
    model = parse_model(family_source("bank", 4))
    rs = build_reaction_system(model)
    n0 = initial_levels(initial_mixture(model, rs.index), 0.05)
    runs = gillespie_runs(discretize(rs, 0.05), n0, 1000.0, seed=20261018, runs=3)
    assert all(r.absorbed for r in runs)
    assert fingerprint(runs) == [
        (2386, "e58900e1234d5608c0f2ca4c3f5b58bfa0c5844802555836a709712ac4fff7fa"),
        (2622, "9c1fb8ffe47b4d42be238c838b1c7480bdaec5f0a9f1196c73ba154cb412b0f1"),
        (2496, "900854146b4d5aa028222587e92cd2ad590d9a469364bfcf653eb2968d6d26de"),
    ]


def test_golden_stream_int_seed():
    # one trajectory seeded with an int, as reference_runs reproduces it
    dm, _ = decay_model()
    assert fingerprint([gillespie(dm, [100], 5.0, seed=42)]) == [
        (100, "b742496d9057db719e5d0501d0725223cb4066a3f54cb442340dda34dfa75249"),
    ]


# per corpus model: (h, t_end) with every prime of nonzero concentration above
# 0 levels, and the fingerprints of two runs at seed 20261018, as reference_runs
# reproduces them
CORPUS_GOLDENS = {
    "dimer.bond": (0.01, 5.0, [
        (193, "f3807c53a330b3948107f86826dfccf94eb0a6e97410d0765484e17f815d7f53"),
        (181, "9f823dfc2665756be0f64631955d1eeb0b9876d04a963afef8d3dcee599f58f4"),
    ]),
    "enzyme.bond": (0.01, 5.0, [
        (1419, "60f1d49f0be0458bc43cb7baf8ce08a0cc3405c48fbdecb3a8f20b78937e0615"),
        (1466, "da01e0e7b7e3eb7d8ddeb0123c45a1d377e220e083d8cf97f23745ec1d40ab9e"),
    ]),
    "inhibitor.bond": (0.05, 5.0, [
        (257, "d17f0bc86884b919cde90a14f766336c13f8a98f102219c3cb86bbc9470a0cd6"),
        (252, "3919a32eedcaf2d2e8474bc65d028d0923486f2a13f190964bac0522d0dc41c4"),
    ]),
    "kuznetsov.bond": (1.0, 1e-4, [
        (2968, "b7a98a39c5ecfb24a3548bce279f456e6c85575827717b2606ed1549a8c3da20"),
        (2954, "cd1f10461d5f0cdd84269e637229a7f975b57b89ec1ab4e99c9e6bda5028f2a8"),
    ]),
    "mm.bond": (0.01, 5.0, [
        (1913, "82e6f6d5122f414bd36e5a8997706f862e0d1c78198d3fb84c8c101ca7e707b3"),
        (1904, "f294e945dc3780a592c5b7e1251ec4c1f468c2942ce5a7bdc922fd2a19bb6ef0"),
    ]),
    "monomer_twosite.bond": (0.01, 5.0, [
        (193, "f3807c53a330b3948107f86826dfccf94eb0a6e97410d0765484e17f815d7f53"),
        (181, "9f823dfc2665756be0f64631955d1eeb0b9876d04a963afef8d3dcee599f58f4"),
    ]),
    "pingpong.bond": (0.05, 20.0, [
        (100, "9ae73c7157c12071d299b4edd983e4c2d093f797bcaf9e5a5fbf5cd5b363a311"),
        (100, "3153670aa6dfc1dc8d5a19a908b0389b297c4bb6b8c804cb201c0b418f21cc57"),
    ]),
    "trimer.bond": (0.01, 2.0, [
        (59, "9d4cf56ad395454b35765c185fa5f75656b086d8310bec0cc7c2f4e681e37767"),
        (49, "1b110d21027a262ee791a4944c6096d5729a75d2a227cc94d3589dddeb477629"),
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


# X -> X + Y at the constant rate 2: its propensity reads no level
CONSTANT = (
    "species X = x.(X | Y);\nspecies Y = y.0;\nlaw C(k; a) = k;\n"
    "affinity { x at C(2); }\nmixture { 1 X }"
)


def test_constant_propensity_golden_stream():
    dm = discretize(build_reaction_system(parse_model(CONSTANT)), 0.1)
    assert fingerprint(gillespie_runs(dm, [10, 0], 5.0, seed=20261018, runs=2)) == [
        (107, "cf6abf0f3b6afd18389b45128a178c6d4e575fdb41b6baf4ca94a47e40823dd6"),
        (120, "23d35fcc18b728e51f4a307c9b89a0e7e25fc02a26d05b4f244f630a58041de9"),
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


# --- a reference direct method that shares no code with gillespie ------------------


def reference_runs(rs, h, n0, t_end, seed, runs):
    """Gillespie's direct method with a full rescan per event, on ``runs`` spawned
    child streams of ``seed`` (an int seeds one run).  Every propensity is
    ``evaluate`` at n*h over h, or 0 when a reactant is short; they are summed left
    to right.  Each event reads the next pair (u, v) of blocks of 1024 uniforms:
    it waits -log1p(-u)/total and fires the first event whose running sum exceeds
    v*total, or the last one.  Returns each run's (events, sha256 of its levels)."""
    names, n_primes = rs.prime_names, len(rs.prime_names)
    nus = [stoichiometry(r, n_primes) for r in rs.reactions]
    grid = [i * (t_end / 200) for i in range(200)] + [t_end]
    seeds = [seed] if runs is None else np.random.SeedSequence(seed).spawn(runs)
    out = []
    for child in seeds:
        rng = np.random.Generator(np.random.PCG64(child))
        block: list[float] = []
        n, t, events, rows = list(n0), 0.0, 0, [list(n0)]
        while True:
            env = {name: k * h for name, k in zip(names, n)}
            props = []
            for r, nu in zip(rs.reactions, nus):
                a = evaluate(r.rate, env) / h
                assert 0.0 <= a < math.inf, (r.provenance, n)
                short = any(k < -d for k, d in zip(n, nu) if d < 0)
                props.append(0.0 if short else a)
            total = 0.0
            for a in props:
                total += a
            if total <= 0.0:
                break
            if not block:
                block = rng.random(1024).tolist()[::-1]
            u, v = block.pop(), block.pop()
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
# is one run seeded with the int itself
REFERENCE_CASES = {
    **{
        name: ((MODELS / name).read_text(), h, t_end, 2, None, 20261018)
        for name, (h, t_end, _) in CORPUS_GOLDENS.items()
    },
    "enzyme runs=3": ((MODELS / "enzyme.bond").read_text(), 0.01, 5.0, 3, None, 20261018),
    "bank k=4": (family_source("bank", 4), 0.05, 1000.0, 3, None, 20261018),
    "constant": (CONSTANT, 0.1, 5.0, 2, [10, 0], 20261018),
    "decay int seed": (DECAY, 1.0, 5.0, None, [100], 42),
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
    if case == "bank k=4":  # every run refills its block at least twice: over 2 * 512 events
        assert all(events > 1024 for events, _ in got)


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


def trigger(laws: str, entries: list[str], p: int, q: int) -> str:
    """T -> P + Q at rate 1, P -> P and Q -> Q at the given laws."""
    return (
        f"species T = t.(P | Q);\nspecies P = p.P;\nspecies Q = q.Q;\n{laws}\n"
        f"affinity {{ t at MA(1); {' '.join(entries)} }}\nmixture {{ 1 T, {p} P, {q} Q }}"
    )


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
    # T -> P + Q takes both k * (1.5 - x) below 0 in one update
    entries = [f"{first} at N(1);", f"{'pq'[first == 'p']} at N(1);"]
    rs = build_reaction_system(parse_model(trigger("law N(k; x) = k * (1.5 - x);", entries, 1, 1)))
    run = gillespie(discretize(rs, 1.0), [1, 1, 1], 100.0, seed=3)
    assert run.warnings == [f"negative propensity for '{first} at N(1)' clamped to 0"]
    assert run.absorbed and fingerprint([run]) == [
        (1, "1aa629aba2ff5371b72230e97a16a8a1872290b5cce84117d35d82de884eaa88"),
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
    assert dm.groups == [[k for k in range(len(nus)) if i in reads[k]] for i in range(n)] + [
        [k for k in range(len(nus)) if not reads[k]]
    ]
    for j, nu in enumerate(nus):
        changed = {i for i in range(n) if nu[i]}
        # the updaters an event calls recompute exactly its dependents
        deps = {k for i in changed for k in dm.groups[i]}
        assert sorted(deps) == [k for k in range(len(nus)) if reads[k] & changed], j
        # they are a subsequence of the changed primes' updaters, none redundant
        full = [dm.updaters[i] for i in sorted(changed) if dm.groups[i]]
        at = [full.index(u) for u in dm.after[j]]
        assert at == sorted(set(at)), j
        listed = [set(dm.groups[dm.updaters.index(u)]) for u in dm.after[j]]
        assert set().union(*listed) == deps, j
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
    trigger("law N(k; x) = k * (1.5 - x);", ["q at N(1);", "p at N(1);"], 1, 1),
]


def per_event_propensity(r, names, levels, h):
    """What per-event code stores for r: ``evaluate`` scaled by h, then every need checked."""
    try:
        a = evaluate(r.rate, {n: k * h for n, k in zip(names, levels)}) / h
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
            want = {k: per_event_propensity(rs.reactions[k], names, levels, h) for k in js}
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
