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

from conftest import evaluate, mean_std, stoichiometry

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


# per corpus model: (h, t_end) with every prime of nonzero concentration above
# 0 levels, and the fingerprints of two runs at seed 20261018, recorded from
# per-reaction propensities before they were grouped per prime
CORPUS_GOLDENS = {
    "dimer.bond": (0.01, 5.0, [
        (192, "507444d37d21e38ec53f09d93e4d7fba0b76bfd7724d634ffee5b68197e459fd"),
        (159, "2ef17cb822f9625de50e5762844b11bae019cfbfbbe50feacf1a8c0ca8d2bed5"),
    ]),
    "enzyme.bond": (0.01, 5.0, [
        (1357, "5bc55ebd082229bd37071beffe34bbea6176a691143aabbb6e454e58c857e952"),
        (1380, "c8a0aa22ce051615c877975711bfc756cee4affb7663bd8d95ea067e00dce1a6"),
    ]),
    "inhibitor.bond": (0.05, 5.0, [
        (252, "16385d25426d68acf4ba4ba4a207a0bbe2b1375ef7415f54c591e6beb6384a6b"),
        (242, "aa65cb2dc1a3736697e310de63860b6d5715ddf4982d66ed3abda57854a18421"),
    ]),
    "kuznetsov.bond": (1.0, 1e-4, [
        (2864, "ad64f1514106535f093e6d80910fdb0292f57913850d06c91e62e7600c2a69ec"),
        (2914, "8cc665bdb21f2531fafa73808b0cd2cd74aded1dcff2a657ba875a055a29eb7f"),
    ]),
    "mm.bond": (0.01, 5.0, [
        (1888, "cffd50f970a6b99b093a02b6eb47d9437980ac45bf4767c3fdeb3a9ca99619d0"),
        (1920, "2eb0aaa7bec96ca61a76ec1d77493bff37b589c3e4d84ae949f144aa3b7aa531"),
    ]),
    "monomer_twosite.bond": (0.01, 5.0, [
        (192, "507444d37d21e38ec53f09d93e4d7fba0b76bfd7724d634ffee5b68197e459fd"),
        (159, "2ef17cb822f9625de50e5762844b11bae019cfbfbbe50feacf1a8c0ca8d2bed5"),
    ]),
    "pingpong.bond": (0.05, 20.0, [
        (100, "8b542bc6428e612c5b94d6ebb582545af203434f369053877997d107a51f0fe2"),
        (100, "82cbf2487067075906ad48f4dc5b767b000191c07a757039d2c996e00bceeff9"),
    ]),
    "trimer.bond": (0.01, 2.0, [
        (62, "06d5476d27ba14cc23eb8981d111462c87d1c04c5e06ff7b2a1d89474f056c40"),
        (51, "9f77e501552b6294e4f46ae424f879cb1562f9b23e5a77b7534a305e93c4c73c"),
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
        (121, "86a4367bf0d54c7c04da0ed7c6f66aa6f12cac14cd6bab715d83afbcadab9302"),
        (103, "03fd211868f47ced52bf1120a6f4f65199dfbcd21ca63a6ab8b9a1dfdaa6caae"),
    ]


def test_constant_propensity_mean_tracks_rate():
    # Y is a Poisson count of mean 2t/h levels: its mean concentration is 2t
    h = 0.1
    dm = discretize(build_reaction_system(parse_model(CONSTANT)), h)
    runs = gillespie_runs(dm, [10, 0], 4.0, seed=5, runs=200, sample_dt=1.0)
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
        assert dm.after[j] == [dm.updaters[i] for i in sorted(changed) if dm.groups[i]], j
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
