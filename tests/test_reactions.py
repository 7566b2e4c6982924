import functools
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

from bondc import congruence
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
from bondc.terms import AMBIENT
from bondc.transitions import TransitionSystem, colocate, commit

from conftest import evaluate

MODELS = Path(__file__).resolve().parent.parent / "models"


def load(name):
    return parse_model((MODELS / name).read_text())


def system(name):
    return build_reaction_system(load(name))


def rate_value(rs, reaction, x):
    env = {n: v for n, v in zip(rs.prime_names, x)}
    return evaluate(reaction.rate, env)


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
    assert evaluate(conc[("s",)], {"X": 5.0}) == 10.0


def test_cluster_concentration_sums_over_species():
    m = load("kuznetsov.bond")
    index = reachable_primes(m, ts=TransitionSystem(m.species))
    conc = cluster_concentrations(index)
    (complex_name,) = set(index.names) - {"EC", "TC", "IS"}
    env = {"EC": 1.0, "TC": 2.0, "IS": 5.0, complex_name: 7.0}
    # both bound and unbound TC consume resources
    assert evaluate(conc[("consumeResources",)], env) == 9.0
    assert evaluate(conc[("growTC",)], env) == 2.0


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
                a_vals = [evaluate(conc[c], env) for c in entry.pattern]
                f_val = evaluate(
                    law.apply(entry.law_params, [ex.const(v) for v in a_vals]), {}
                )
                got = sum(evaluate(r, env) for r in prov_rates)
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
        a_vals = [evaluate(conc[c], env) if c in conc else 0.0 for c in entry.pattern]
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


def scaffold_source(k):
    """k sites on one scaffold, each binding and releasing its own ligand."""
    sites = " | ".join(f"Site{i}(l)" for i in range(k))
    lines = [f"species Sc = new l in ({sites});"]
    affinity, mixture = [], ["1 Sc"]
    for i in range(k):
        lines += [
            f"species Site{i}(l) = a{i}(m).Bound{i}(l, m);",
            f"species Bound{i}(l, m) = u{i}@m.Site{i}(l);",
            f"species L{i} = l{i}(m).Lb{i}(m);",
            f"species Lb{i}(m) = v{i}@m.L{i};",
        ]
        affinity += [f"a{i} || l{i} at MA(1.0);", f"u{i} & v{i} at MA(0.5);"]
        mixture.append(f"1 L{i}")
    lines += ["affinity {", *affinity, "}", f"mixture {{ {', '.join(mixture)} }}"]
    return "\n".join(lines)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_scaffold_family_counts(k):
    # 2^k occupancy states, k free ligands and the Sc call itself; per
    # state and site one bind or one unbind, plus Sc's k bindings
    rs = build_reaction_system(parse_model(scaffold_source(k)))
    assert len(rs.prime_names) == 2**k + k + 1
    assert len(rs.reactions) == k * 2**k + k
    lone = [n for n in rs.prime_names if re.fullmatch(r"\(new \S+ in Lb\d+\(\S+\)\)", n)]
    assert lone == []


def test_scaffold_normalize_budget(monkeypatch):
    # targets are canonicalized where they surface, and a product only when
    # some target is open: compiling scaffold k=6 took 2,954 normalize calls
    # when every step of a transition normalized its target, and 818 when
    # every product was normalized too (626 now)
    real, calls = congruence.normalize, 0

    def counting(t):
        nonlocal calls
        calls += 1
        return real(t)

    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "bondc" and getattr(mod, "normalize", None) is real:
            monkeypatch.setattr(mod, "normalize", counting)
    rs = build_reaction_system(parse_model(scaffold_source(6)))
    assert len(rs.prime_names) == 2**6 + 6 + 1
    assert 0 < calls <= 700


def witness_source(k):
    """k co-located sites w_i@l under one new l; only w0 & w1 react."""
    sites = " | ".join(f"W{i}(l)" for i in range(k))
    lines = [f"species X = new l in ({sites});"]
    lines += [f"species W{i}(l) = w{i}@l.W{i}(l);" for i in range(k)]
    lines += ["affinity { w0 & w1 at MA(1.0); }", "mixture { 1 X }"]
    return "\n".join(lines)


def bank_source(k):
    """k substrates sharing one enzyme with k sites: 3k + 1 primes."""
    lines = ["species E = " + " + ".join(f"e{i}(l).Eb{i}(l)" for i in range(k)) + ";"]
    affinity, mixture = [], ["1 E"]
    for i in range(k):
        lines += [
            f"species Eb{i}(l) = x{i}@l.E;",
            f"species S{i} = s{i}(l).(r{i}@l.S{i} + c{i}@l.P{i});",
            f"species P{i} = p{i}.0;",
        ]
        affinity += [
            f"s{i} || e{i} at MA(1.0);",
            f"r{i} & x{i} at MA(0.5);",
            f"c{i} & x{i} at MA(0.3);",
            f"p{i} at MA(0.1);",
        ]
        mixture.append(f"5 S{i}")
    lines += ["affinity {", *affinity, "}", f"mixture {{ {', '.join(mixture)} }}"]
    return "\n".join(lines)


def test_witness_k12_compiles_fast():
    # only w0 & w1 is a pattern, so Com never builds the other 2^12 - 14
    # site combinations
    t0 = time.perf_counter()
    rs = build_reaction_system(parse_model(witness_source(12)))
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
    rs = build_reaction_system(parse_model(bank_source(10)))
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
    m = parse_model(bank_source(5))
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


@pytest.mark.parametrize(
    "source",
    [pytest.param(lambda name=name: (MODELS / name).read_text(), id=name) for name in CORPUS]
    + [pytest.param(lambda k=k: scaffold_source(k), id=f"scaffold-k={k}") for k in range(1, 5)],
)
def test_pruned_network_equals_unpruned(source):
    text = source()
    pruned = reaction_system_json(build_reaction_system(parse_model(text)))
    m = parse_model(text)
    index = reachable_primes(m, ts=TransitionSystem(m.species))
    full = reaction_system_json(extract_reactions(m, index))
    assert pruned == full


FAMILIES = {"scaffold": scaffold_source, "witness": witness_source, "bank": bank_source}

# SHA-256 of `crn` JSON, recorded while every product and target was still
# normalized in full: skipping terms already canonical must not change a byte
FAMILY_CRN_SHA256 = {
    ("scaffold", 1): "7cadfdc34be2606290cbaa8a40f05c4e9bebef4715485760c57dac35f93fe3dd",
    ("scaffold", 2): "f3c99329ce2cfc17a45096c470f623fe495fb8d1e22a8125232232da6f6c85e0",
    ("scaffold", 3): "a0e893f03d67d1203a79c4b4c3fdf6a9be6f51ea6ddb05731a137fedf372d37b",
    ("scaffold", 4): "0f24b9c4e1f76b467058e550b928ef69d35efc341a47575fef33b2ac46e3151d",
    ("scaffold", 5): "927cc4b843aafc7c4b77c4d79ce5fc035ac2b37cfb39beaa3476d88c35ceb099",
    ("witness", 6): "80298996b2d3aacbba21a6d1cb866b22bf8f31105bf4726cec42ad9280bbe255",
    ("witness", 7): "ffb056ff5618fa47e38e4f8ad391eb2312855835e9c36860ce02744a7dab6b88",
    ("witness", 8): "91b73ae3b2b638622e6efdf51da1e46e84bf97948e80a2cfbd7875b53c03fc98",
    ("witness", 9): "fbe6f3d959f19ea651753531a00c8e3702e6c21649a0d869abd739d85314b923",
    ("bank", 5): "62031ec83f27b4973880ade6faac6841864d015de7aabf11be0762d03fac018e",
    ("bank", 10): "e0cabdc839360b9c4d34fc58acc4c3b404ee5f5511973738d55da16b3e536a1a",
    ("bank", 20): "bff834ba898b3831e05224b3c8cc626dfe7343e55fb15464b0e8190dae2ecf89",
}


@pytest.mark.parametrize("family,k", list(FAMILY_CRN_SHA256), ids=lambda v: str(v))
def test_family_crn_unchanged(family, k):
    rs = build_reaction_system(parse_model(FAMILIES[family](k)))
    doc = json.dumps(reaction_system_json(rs), indent=2)
    assert hashlib.sha256(doc.encode()).hexdigest() == FAMILY_CRN_SHA256[family, k]


@pytest.mark.parametrize(
    "source",
    [pytest.param(lambda name=name: (MODELS / name).read_text(), id=name) for name in CORPUS]
    + [
        pytest.param(lambda f=f, k=k: FAMILIES[f](k), id=f"{f}-k={k}")
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
