import functools
import gc
import hashlib
import itertools
import json
import math
import random
import re
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from bondc import congruence, reactions
from bondc import expr as ex
from bondc.congruence import primes, serialize
from bondc.parser import parse_model
from bondc.reactions import (
    PrimeIndex,
    UnboundedError,
    build_reaction_system,
    cluster_concentrations,
    extract_reactions,
    initial_mixture,
    reachable_primes,
    reaction_system_json,
)
from bondc.terms import AMBIENT, Call
from bondc.transitions import (
    Transition,
    TransitionSystem,
    canonical_abstraction,
    colocate,
    commit,
)

from conftest import evaluate, evaluate_rate, family_source, total_value

MODELS = Path(__file__).resolve().parent.parent / "models"


def load(name):
    return parse_model((MODELS / name).read_text())


def system(name):
    return build_reaction_system(load(name))


def rate_value(rs, reaction, x):
    env = {n: v for n, v in zip(rs.prime_names, x)}
    return evaluate_rate(rs, reaction.rate, env)


# --- quoted rate combinatorics --------------------------------------------------


def test_dimer_forward_rate():
    rs = system("dimer.bond")
    fwd = [r for r in rs.reactions if r.provenance.startswith("a ||")]
    assert len(fwd) == 1
    a = rs.prime_names.index("A")
    # (1/2) * k2 * x_A^2 with k2 = 2.0
    x = [0.0] * len(rs.prime_names)
    x[a] = 3.0
    assert rate_value(rs, fwd[0], x) == pytest.approx(0.5 * 2.0 * 9.0)
    assert Counter(fwd[0].reactants) == {a: 2}


def test_trimer_forward_rate():
    rs = system("trimer.bond")
    fwd = [r for r in rs.reactions if r.provenance.startswith("a ||")]
    assert len(fwd) == 1
    a = rs.prime_names.index("A")
    x = [0.0] * len(rs.prime_names)
    x[a] = 2.0
    assert rate_value(rs, fwd[0], x) == pytest.approx((1 / 6) * 6.0 * 8.0)
    assert Counter(fwd[0].reactants) == {a: 3}


def test_two_site_monomer_rate_has_no_symmetry_factor():
    rs = system("monomer_twosite.bond")
    fwd = [r for r in rs.reactions if r.provenance.startswith("a ||")]
    assert len(fwd) == 1
    b = rs.prime_names.index("B")
    x = [0.0] * len(rs.prime_names)
    x[b] = 3.0
    assert rate_value(rs, fwd[0], x) == pytest.approx(1.0 * 9.0)


def test_dimer_unbind_stoichiometry():
    rs = system("dimer.bond")
    back = [r for r in rs.reactions if r.provenance.startswith("a'&a' at")]
    assert len(back) == 1
    a = rs.prime_names.index("A")
    assert Counter(back[0].products) == {a: 2}


# --- reachable primes -----------------------------------------------------------


def test_kuznetsov_reachable_primes():
    m = load("kuznetsov.bond")
    index = reachable_primes(m)
    names = set(index.names)
    assert {"EC", "TC", "IS"} <= names
    assert len(names) == 4  # plus the bound EC'-TC' complex
    (complex_name,) = names - {"EC", "TC", "IS"}
    assert "EC'" in complex_name and "TC'" in complex_name


def test_enzyme_primes():
    m = load("enzyme.bond")
    index = reachable_primes(m)
    assert len(index) == 4


def test_unbounded_cap():
    # a polymerising chain: every reaction creates a longer complex
    src = (
        "species A = a(l).B(l);\n"
        "species B(l) = (a(m).C(l, m) | a'@l.0);\n"
        "species C(l, m) = (a'@l.0 | a'@m.0);\n"
        "affinity { a || a at MA(1); }\n"
        "mixture { 1 A }"
    )
    # not actually unbounded, but a tiny cap still triggers the guard
    with pytest.raises(UnboundedError) as ei:
        reachable_primes(parse_model(src), cap=2)
    assert ei.value.code == "UNBOUNDED"


# --- cluster concentrations ------------------------------------------------------


def test_cluster_concentration_multiplicity():
    m = parse_model("species X = s.0 + s.0;\naffinity { s at MA(1); }\nmixture { 1 X }")
    index = reachable_primes(m, ts=TransitionSystem(m.species))
    conc = cluster_concentrations(index)
    assert conc[("s",)] == (("X", 2),)
    assert total_value(conc[("s",)], {"X": 5.0}) == 10.0


def test_cluster_concentration_sums_over_species():
    m = load("kuznetsov.bond")
    index = reachable_primes(m, ts=TransitionSystem(m.species))
    conc = cluster_concentrations(index)
    (complex_name,) = set(index.names) - {"EC", "TC", "IS"}
    env = {"EC": 1.0, "TC": 2.0, "IS": 5.0, complex_name: 7.0}
    # both bound and unbound TC consume resources
    assert total_value(conc[("consumeResources",)], env) == 9.0
    assert total_value(conc[("growTC",)], env) == 2.0


# --- structural invariants --------------------------------------------------------


@pytest.mark.parametrize("name", ["mm.bond", "enzyme.bond", "dimer.bond", "pingpong.bond"])
def test_rates_nonnegative_on_random_points(name):
    rs = system(name)
    rng = random.Random(7)
    for _ in range(20):
        x = [rng.uniform(0.0, 5.0) for _ in rs.prime_names]
        for r in rs.reactions:
            assert rate_value(rs, r, x) >= -1e-12


def test_order_independence_of_definitions():
    src_a = (MODELS / "enzyme.bond").read_text()
    m1 = parse_model(src_a)
    # permute species definitions and affinity entries
    src_b = (
        "species P = p.0;\n"
        "species E = e(l).e'@l.E;\n"
        "species S = s(l).(s'@l.S + p'@l.P);\n"
        "affinity {\n  p at MA(0.1);\n  p' & e' at MA(0.4);\n"
        "  s' & e' at MA(0.25);\n  s || e at MA(1.0);\n}\n"
        "mixture { 2 E, 10 S, 0 P }"
    )
    m2 = parse_model(src_b)
    rs1, rs2 = build_reaction_system(m1), build_reaction_system(m2)
    assert sorted(rs1.prime_names) == sorted(rs2.prime_names)

    def key(rs):
        out = set()
        for r in rs.reactions:
            rn = tuple(sorted(rs.prime_names[i] for i in r.reactants))
            pn = tuple(sorted(rs.prime_names[i] for i in r.products))
            out.add((rn, pn, ex.render(r.rate)))
        return out

    assert key(rs1) == key(rs2)


def test_mass_action_rates_are_monomials():
    for name in ["enzyme.bond", "dimer.bond", "trimer.bond", "inhibitor.bond"]:
        rs = system(name)
        for r in rs.reactions:
            e = r.rate
            while isinstance(e, ex.Bin):
                assert e.op == "mul"
                e = e.right if isinstance(e.left, (ex.Const, ex.Var)) else e.left
            assert isinstance(e, (ex.Const, ex.Var))


def test_total_rate_factorization():
    # sum of merged rates per entry == (1/sym) * law(a_1..a_m) numerically
    rng = random.Random(3)
    for name in ["mm.bond", "enzyme.bond", "dimer.bond", "trimer.bond",
                 "monomer_twosite.bond", "pingpong.bond", "kuznetsov.bond"]:
        m = load(name)
        index = reachable_primes(m, ts=TransitionSystem(m.species))
        rs = extract_reactions(m, index)
        conc = cluster_concentrations(index)
        for entry in m.affinity:
            if any(c not in conc for c in entry.pattern):
                continue
            pat = " || ".join("&".join(c) for c in entry.pattern)
            prov_rates = [r.rate for r in rs.reactions
                          if r.provenance.startswith(pat + " at ")]
            if not prov_rates:
                continue
            sym = 1
            for _, cnt in Counter(entry.pattern).items():
                sym *= math.factorial(cnt)
            law = m.laws[entry.law_name]
            for _ in range(5):
                env = {n: rng.uniform(0.1, 3.0) for n in index.names}
                a_vals = [total_value(conc[c], env) for c in entry.pattern]
                f_val = evaluate(
                    law.apply(entry.law_params, [ex.const(v) for v in a_vals]), {}
                )
                got = sum(evaluate_rate(rs, r, env) for r in prov_rates)
                assert got == pytest.approx(f_val / sym, rel=1e-12)


# --- brute-force semantics oracle -------------------------------------------------


def brute_force_field(model, rs, x):
    """Derivative field via direct enumeration of ordered transition tuples.

    For an affinity entry with an m-cluster pattern, every ordered tuple of
    (prime, transition) choices whose cluster bag equals the pattern
    contributes (1/m!) * prod(mult_i * x_i) * law(a_1..a_m) / prod(a_j).
    """
    ts = TransitionSystem(model.species)
    index = PrimeIndex(ts)  # rs's primes, matched under the full table
    for p in rs.index.primes:
        index.add(p)
    conc = cluster_concentrations(index)
    env = {n: v for n, v in zip(index.names, x)}
    field = [0.0] * len(index)
    candidates = []
    for i, p in enumerate(index.primes):
        for tr, mult in ts.ambient(p).items():
            candidates.append((i, tr, mult))
    for entry in model.affinity:
        m = len(entry.pattern)
        law = model.laws[entry.law_name]
        pattern_bag = Counter(entry.pattern)
        a_vals = [total_value(conc[c], env) if c in conc else 0.0
                  for c in entry.pattern]
        f_val = evaluate(law.apply(entry.law_params, [ex.const(v) for v in a_vals]), {})
        denom = 1.0
        for v in a_vals:
            denom *= v
        for combo in itertools.product(candidates, repeat=m):
            if Counter(c[1].cluster for c in combo) != pattern_bag:
                continue
            flux = f_val / (denom * math.factorial(m))
            for i, _, mult in combo:
                flux *= mult * x[i]
            target = None
            for _, tr, _ in combo:
                target = tr.target if target is None else colocate(target, tr.target)
            for i, _, _ in combo:
                field[i] -= flux
            for p in primes(commit(target)):
                field[index.index_of(p)] += flux
    return field


@pytest.mark.parametrize(
    "name",
    ["mm.bond", "enzyme.bond", "dimer.bond", "trimer.bond",
     "monomer_twosite.bond", "pingpong.bond", "inhibitor.bond", "kuznetsov.bond"],
)
def test_brute_force_oracle(name):
    from bondc.ode import build_odes, eval_field

    model = load(name)
    rs = build_reaction_system(model)
    sys_ = build_odes(rs)
    rng = random.Random(hash(name) % 2**31)
    for _ in range(10):
        x = [rng.uniform(0.05, 4.0) for _ in rs.prime_names]
        want = brute_force_field(model, rs, x)
        got = eval_field(sys_, x)
        for w, g in zip(want, got):
            assert g == pytest.approx(w, rel=1e-9, abs=1e-12)


def test_initial_mixture_vector():
    m = load("enzyme.bond")
    rs = build_reaction_system(m)
    x0 = initial_mixture(m, rs.index)
    by_name = dict(zip(rs.prime_names, x0))
    assert by_name["S"] == 10.0 and by_name["E"] == 2.0 and by_name["P"] == 0.0


def test_compile_warnings_leave_the_model_unchanged():
    m = parse_model(
        "species X = x.0;\nspecies Y = q.0;\n"
        "affinity { x at MA(1); q at MA(1); zz at MA(2); }\nmixture { 1 X }"
    )
    parsed = ["site 'zz' in affinity pattern never occurs in a species"]
    assert m.warnings == parsed
    for _ in range(2):  # each compile reports its warnings once and leaves the model as it was
        rs = build_reaction_system(m)
        assert rs.warnings == [
            "affinity entry 'q at MA(1)' matches no species",
            "affinity entry 'zz at MA(2)' matches no species",
        ]
        assert m.warnings == parsed


def test_named_species_stay_opaque_in_mixture():
    # X = (a.0 | b.0) is *not* unfolded: the name itself is the prime, and
    # only reaction products appear in structural form
    src = (
        "species X = (a.0 | b.0);\n"
        "affinity { a at MA(1); }\n"
        "mixture { 2 X }"
    )
    m = parse_model(src)
    index = reachable_primes(m)
    x0 = initial_mixture(m, index)
    assert sorted(zip(index.names, x0)) == [("X", 2.0), ("b.0", 0.0)]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_scaffold_family_counts(k):
    # 2^k occupancy states, k free ligands and the Sc call itself; per
    # state and site one bind or one unbind, plus Sc's k bindings
    rs = build_reaction_system(parse_model(family_source("scaffold", k)))
    assert len(rs.prime_names) == 2**k + k + 1
    assert len(rs.reactions) == k * 2**k + k
    lone = [n for n in rs.prime_names if re.fullmatch(r"\(new \S+ in Lb\d+\(\S+\)\)", n)]
    assert lone == []


def test_scaffold_normalize_budget(monkeypatch):
    # a product is normalized only when some target is open, and an open
    # target only when another open one shares its cluster: compiling
    # scaffold k=6 took 2,954 normalize calls when every step of a transition
    # normalized its target, 818 when every product was normalized too, and
    # 626 when every surfaced target was (415 now)
    real, calls = congruence.normalize, 0

    def counting(t):
        nonlocal calls
        calls += 1
        return real(t)

    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "bondc" and getattr(mod, "normalize", None) is real:
            monkeypatch.setattr(mod, "normalize", counting)
    rs = build_reaction_system(parse_model(family_source("scaffold", 6)))
    assert len(rs.prime_names) == 2**6 + 6 + 1
    assert 0 < calls <= 450


@pytest.mark.parametrize(
    "family, k, normalizes, walks", [("scaffold", 6, 415, 24), ("bank", 30, 211, 121)]
)
def test_free_name_walks_are_pinned(monkeypatch, family, k, normalizes, walks):
    # congruence gathers an atom's free names while flattening, and only under a
    # `new` or at the top level; a lone choice atom is canonical without them.
    # free_locations calls from congruence went 3,720 -> 24 for scaffold k=6
    # and 271 -> 121 for bank k=30; the normalize calls did not change
    counts = Counter()

    def counting(name, real):
        def f(t):
            counts[name] += 1
            return real(t)

        return f

    real = congruence.normalize
    for modname, mod in list(sys.modules.items()):
        if modname.partition(".")[0] == "bondc" and getattr(mod, "normalize", None) is real:
            monkeypatch.setattr(mod, "normalize", counting("normalize", real))
    monkeypatch.setattr(
        congruence, "free_locations", counting("free_locations", congruence.free_locations)
    )
    build_reaction_system(parse_model(family_source(family, k)))
    assert (counts["normalize"], counts["free_locations"]) == (normalizes, walks)


def test_scaffold_serialize_budget(monkeypatch):
    # normal forms carry their serialization, so sorting them serializes
    # nothing: compiling scaffold k=6 took 23,589 serialize calls while every
    # sort re-serialized its keys, and 2,919 while a lone closed target's
    # parts were sorted again (711 now, mostly for prime names)
    real, calls = congruence.serialize, 0

    def counting(t):
        nonlocal calls
        calls += 1
        return real(t)

    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "bondc" and getattr(mod, "serialize", None) is real:
            monkeypatch.setattr(mod, "serialize", counting)
    rs = build_reaction_system(parse_model(family_source("scaffold", 6)))
    assert len(rs.prime_names) == 2**6 + 6 + 1
    assert 0 < calls <= 800


def test_scaffold_call_budget(monkeypatch):
    # a call atom's edge strings are read off its arguments: compiling scaffold
    # k=6 took 8,148 _call calls while each edge relabelled the atom (3,528 now)
    real, calls = congruence._call, 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(congruence, "_call", counting)
    rs = build_reaction_system(parse_model(family_source("scaffold", 6)))
    assert len(rs.prime_names) == 2**6 + 6 + 1
    assert 0 < calls <= 4000


def test_cluster_totals_built_only_for_laws_that_read_them(monkeypatch):
    # mass action's rate is k times the matched shares: it reads no cluster total
    def refuse(index):
        raise AssertionError("cluster totals built")

    monkeypatch.setattr(reactions, "cluster_concentrations", refuse)
    for family in ("scaffold", "witness", "bank"):
        assert build_reaction_system(parse_model(family_source(family, 4))).reactions
    assert system("dimer.bond").reactions
    with pytest.raises(AssertionError, match="cluster totals built"):
        system("kuznetsov.bond")  # Response and Logistic read them


def test_a_compile_leaves_no_cyclic_garbage():
    # recursive closures held each compile's data, its Model and TransitionSystem
    # among them, in reference cycles until the cyclic collector ran
    sources = [family_source("scaffold", 4)] + [(MODELS / n).read_text() for n in CORPUS]
    gc.collect()
    gc.disable()
    try:
        for source in sources:
            reaction_system_json(build_reaction_system(parse_model(source)))
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_witness_k12_compiles_fast():
    # only w0 & w1 is a pattern, so Com never builds the other 2^12 - 14
    # site combinations
    t0 = time.perf_counter()
    rs = build_reaction_system(parse_model(family_source("witness", 12)))
    assert time.perf_counter() - t0 < 1.0
    # X and its unfolding, each turning into the unfolding
    assert len(rs.prime_names) == 2
    assert len(rs.reactions) == 2


def test_ambient_computed_once_per_prime(monkeypatch):
    calls = Counter()
    ambient = TransitionSystem.ambient

    def counting(self, t):
        calls[serialize(t)] += 1
        return ambient(self, t)

    monkeypatch.setattr(TransitionSystem, "ambient", counting)
    rs = build_reaction_system(parse_model(family_source("bank", 10)))
    assert len(rs.prime_names) == 31 and len(rs.reactions) == 40
    assert calls == Counter(rs.prime_names)


def test_index_serves_extraction(monkeypatch):
    # the index built by reachable_primes is matched once; extraction reuses it
    calls = Counter()
    ambient = TransitionSystem.ambient

    def counting(self, t):
        calls[serialize(t)] += 1
        return ambient(self, t)

    monkeypatch.setattr(TransitionSystem, "ambient", counting)
    m = parse_model(family_source("bank", 5))
    rs = extract_reactions(m, reachable_primes(m))
    assert len(rs.prime_names) == 16 and len(rs.reactions) == 20
    assert calls == Counter(rs.prime_names)


def test_same_cluster_transitions_order_independent():
    # X and Y each have two ambient transitions on cluster s; the network
    # must not depend on the order their definitions are written in
    nets = set()
    for b, c in itertools.permutations("BC"):
        for x in itertools.permutations(["s.A", f"s.({b} | {c})"]):
            for y in itertools.permutations(["s.A", "t.B", "s.C"]):
                text = "\n".join([
                    f"species X = {' + '.join(x)};",
                    f"species Y = ({' | '.join(y)});",
                    "species A = a.0;", "species B = b.0;", "species C = c.0;",
                    "affinity { s at MA(1); s || t at MA(2); a at MA(3); }",
                    "mixture { 1 X, 2 Y }",
                ])
                rs = build_reaction_system(parse_model(text))
                nets.add(json.dumps(reaction_system_json(rs)))
    assert len(nets) == 1
    assert len(json.loads(nets.pop())["primes"]) == 8


CORPUS = ["mm.bond", "enzyme.bond", "dimer.bond", "trimer.bond", "monomer_twosite.bond",
          "pingpong.bond", "inhibitor.bond", "kuznetsov.bond"]


@pytest.mark.parametrize("name", CORPUS)
def test_parameterless_call_is_its_own_prime(name):
    # reachable_primes and initial_mixture index a mixture species by its call as it is
    m = parse_model((MODELS / name).read_text())
    calls = [Call(n, ()) for n, sd in m.species.items() if not sd.params]
    assert calls and all(primes(c) == [c] for c in calls)


@pytest.mark.parametrize(
    "source",
    [pytest.param(lambda name=name: (MODELS / name).read_text(), id=name) for name in CORPUS]
    + [
        pytest.param(lambda k=k: family_source("scaffold", k), id=f"scaffold-k={k}")
        for k in range(1, 5)
    ],
)
def test_pruned_network_equals_unpruned(source):
    text = source()
    pruned = reaction_system_json(build_reaction_system(parse_model(text)))
    m = parse_model(text)
    index = reachable_primes(m, ts=TransitionSystem(m.species))
    full = reaction_system_json(extract_reactions(m, index))
    assert pruned == full


# X unfolds to new l in (A(l) | B(l)): its s transitions from A and from B
# have targets congruent but not equal until canonicalized, one transition x2
CONGRUENT_OPEN_TARGETS = """
species X = new l in (A(l) | B(l));
species A(l) = s(m).(A(l) | C(m));
species B(l) = s(m).(B(l) | C(m));
species C(m) = c@m.0;
species R = r(m).D(m);
species D(m) = d@m.R;
affinity { s || r at MA(1); c & d at MA(2); }
mixture { 1 X, 1 R }
"""


@pytest.mark.parametrize(
    "source",
    [pytest.param(lambda name=name: (MODELS / name).read_text(), id=name) for name in CORPUS]
    + [
        pytest.param(lambda f=f, k=k: family_source(f, k), id=f"{f}-k={k}")
        for f, top in [("scaffold", 4), ("witness", 9), ("bank", 10)]
        for k in range(1, top + 1)
    ]
    + [pytest.param(lambda: CONGRUENT_OPEN_TARGETS, id="congruent-open-targets")],
)
def test_ambient_is_the_ambient_part_of_the_table(source):
    # ambient() leaves an open target raw when no other open target shares
    # its cluster; canonicalized, its table is the ambient rows of
    # transitions(), in the same order with the same multiplicities
    m = parse_model(source())
    index = reachable_primes(m)
    for p in index.primes:
        got = [
            (Transition(tr.cluster, tr.location, canonical_abstraction(tr.target)), mult)
            for tr, mult in index.ts.ambient(p).items()
        ]
        want = [(tr, mult) for tr, mult in index.ts.transitions(p).items() if tr.location is AMBIENT]
        assert got == want


@pytest.mark.parametrize(
    "source",
    [pytest.param(lambda name=name: (MODELS / name).read_text(), id=name) for name in CORPUS]
    + [
        pytest.param(lambda f=f, k=k: family_source(f, k), id=f"{f}-k={k}")
        for f, top in [("scaffold", 4), ("witness", 9), ("bank", 10)]
        for k in range(1, top + 1)
    ],
)
def test_no_two_node_types_share_a_tuple(source):
    # nodes compare and hash as plain tuples, which ignore the type: no node
    # may equal a node of another type (the invariant in bondc.terms)
    m = parse_model(source())
    rs = build_reaction_system(m)
    types: dict = {}

    def walk(x) -> None:
        if hasattr(x, "_fields"):  # a node
            if x in types:
                types[x].add(type(x))
                return
            types[x] = {type(x)}
        if isinstance(x, tuple):
            for y in x:
                walk(y)

    ts = rs.index.ts
    for p in [*rs.index.primes, *(sd.body for sd in ts.defs.values())]:  # primes unfold to these
        walk(p)
        for tr in ts.ambient(p):
            walk(tr)
    for r in rs.reactions:
        walk(r.rate)
    assert {k: t for k, t in types.items() if len(t) > 1} == {}
    assert {"Sum", "Prefix"} <= {t.__name__ for (t,) in types.values()}


# SHA-256 of `crn` JSON, recorded while every product and target was still
# normalized in full (scaffold k=6 and bank k=30: while every ambient target
# was): skipping terms already canonical, or that merge with none, must not
# change a byte
FAMILY_CRN_SHA256 = {
    ("scaffold", 1): "7cadfdc34be2606290cbaa8a40f05c4e9bebef4715485760c57dac35f93fe3dd",
    ("scaffold", 2): "f3c99329ce2cfc17a45096c470f623fe495fb8d1e22a8125232232da6f6c85e0",
    ("scaffold", 3): "a0e893f03d67d1203a79c4b4c3fdf6a9be6f51ea6ddb05731a137fedf372d37b",
    ("scaffold", 4): "0f24b9c4e1f76b467058e550b928ef69d35efc341a47575fef33b2ac46e3151d",
    ("scaffold", 5): "927cc4b843aafc7c4b77c4d79ce5fc035ac2b37cfb39beaa3476d88c35ceb099",
    ("scaffold", 6): "4653050ac6e4308eaf15bcb52e77003b8f20c09c52de2e761059dc0b357eea4e",
    ("witness", 6): "80298996b2d3aacbba21a6d1cb866b22bf8f31105bf4726cec42ad9280bbe255",
    ("witness", 7): "ffb056ff5618fa47e38e4f8ad391eb2312855835e9c36860ce02744a7dab6b88",
    ("witness", 8): "91b73ae3b2b638622e6efdf51da1e46e84bf97948e80a2cfbd7875b53c03fc98",
    ("witness", 9): "fbe6f3d959f19ea651753531a00c8e3702e6c21649a0d869abd739d85314b923",
    ("bank", 5): "62031ec83f27b4973880ade6faac6841864d015de7aabf11be0762d03fac018e",
    ("bank", 10): "e0cabdc839360b9c4d34fc58acc4c3b404ee5f5511973738d55da16b3e536a1a",
    ("bank", 20): "bff834ba898b3831e05224b3c8cc626dfe7343e55fb15464b0e8190dae2ecf89",
    ("bank", 30): "c174337ef2696bd65ee24691d437b2683690b90447860abbb3701ed8230d8720",
}


@pytest.mark.parametrize("family,k", list(FAMILY_CRN_SHA256), ids=lambda v: str(v))
def test_family_crn_unchanged(family, k):
    rs = build_reaction_system(parse_model(family_source(family, k)))
    doc = json.dumps(reaction_system_json(rs), indent=2)
    assert hashlib.sha256(doc.encode()).hexdigest() == FAMILY_CRN_SHA256[family, k]


@pytest.mark.parametrize(
    "source",
    [pytest.param(lambda name=name: (MODELS / name).read_text(), id=name) for name in CORPUS]
    + [
        pytest.param(lambda f=f, k=k: family_source(f, k), id=f"{f}-k={k}")
        for f, k in FAMILY_CRN_SHA256
    ],
)
def test_carried_serialization_is_serialize(source, monkeypatch):
    # normalize builds each normal form with its serialization; the string
    # it carries must be the one serialize writes, at every level
    built: dict = {}

    def checking(real):
        def wrapper(*args):
            n, s = real(*args)
            assert s == serialize(n)
            built[n] = s
            return n, s

        return wrapper

    for name in ("_canon", "_atom", "_prime"):
        monkeypatch.setattr(congruence, name, checking(getattr(congruence, name)))
    m = parse_model(source())
    # the compile indexes a mixture species by its call, which is its own normal form
    for _, name in m.mixture:
        congruence.normalize(Call(name, ()))
    rs = build_reaction_system(m)
    ts = rs.index.ts
    outputs = [sd.body for sd in ts.defs.values()] + rs.index.primes
    outputs += [tr.target.body for p in rs.index.primes for tr in ts.transitions(p)]
    assert [n for n in outputs if n not in built] == []
    assert rs.prime_names == [built[p] for p in rs.index.primes]


@pytest.mark.parametrize(
    "source",
    [pytest.param(lambda name=name: (MODELS / name).read_text(), id=name) for name in CORPUS]
    + [
        pytest.param(lambda: family_source("scaffold", 5), id="scaffold-k=5"),
        pytest.param(lambda: family_source("bank", 10), id="bank-k=10"),
    ],
)
def test_shared_call_tables_are_never_mutated(source):
    # a system shares the table of each invocation it unfolds: after a whole
    # compile, its ambient tables are those of a fresh system, in the same
    # order with the same multiplicities
    m = parse_model(source())
    index = reachable_primes(m)
    clusters = [c for entry in m.affinity for c in entry.pattern]
    for p in index.primes:
        fresh = TransitionSystem(m.species, clusters=clusters)
        assert list(index.ts.ambient(p).items()) == list(fresh.ambient(p).items())


@pytest.mark.parametrize(
    "source",
    [pytest.param(lambda name=name: (MODELS / name).read_text(), id=name) for name in CORPUS]
    + [
        pytest.param(lambda f=f, k=k: family_source(f, k), id=f"{f}-k={k}")
        for f, k in FAMILY_CRN_SHA256
    ],
)
def test_closed_products_match_general_path(source):
    # a tuple of closed targets takes its product from the targets' own
    # primes; the general path colocates, commits and normalizes
    m = parse_model(source())
    index = reachable_primes(m)
    by_cluster, closed = index.matches(), 0
    for entry in m.affinity:
        for combo in itertools.product(*(by_cluster.get(c, []) for c in entry.pattern)):
            if all(mt.tr.target.arity == 0 for mt in combo):
                target = functools.reduce(colocate, (mt.tr.target for mt in combo))
                got = [index.primes[i] for i in index.products(combo)]
                assert got == primes(commit(target))
                closed += 1
    assert closed > 0


def test_wide_cluster_of_sites_no_guard_offers():
    # 2^31 sub-bags if every site of the wide cluster were listed; only "a" is offered
    wide = " & ".join(["a"] + [f"z{i}" for i in range(30)])
    affinity = f"affinity {{ {wide} at MA(1.0); a at MA(1.0); }}"
    m = parse_model(f"species X = a.X;\n{affinity}\nmixture {{ 1 X }}\n")
    rs = build_reaction_system(m)
    assert len(rs.index.ts._fit) <= 2
    unpruned = extract_reactions(m, reachable_primes(m, ts=TransitionSystem(m.species)))
    assert reaction_system_json(rs) == reaction_system_json(unpruned)
    assert len(rs.reactions) == 1


def test_wide_cluster_of_offered_sites():
    # every site is offered but none is co-located with another: each bag a
    # transition forms has one site, where listing the cluster's sub-bags
    # would take 2^31 - 1
    sites = ["a"] + [f"z{i}" for i in range(30)]
    src = (
        f"species X = ({' | '.join(f'{s}.0' for s in sites)});\n"
        f"affinity {{ {' & '.join(sites)} at MA(1.0); a at MA(1.0); }}\nmixture {{ 1 X }}\n"
    )
    m = parse_model(src)
    t0 = time.perf_counter()
    rs = build_reaction_system(m)
    assert time.perf_counter() - t0 < 0.25
    unpruned = extract_reactions(m, reachable_primes(m, ts=TransitionSystem(m.species)))
    assert reaction_system_json(rs) == reaction_system_json(unpruned)
    assert [r.provenance for r in rs.reactions] == ["a at MA(1)"]
