import itertools
import math
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from bondc import expr as ex
from bondc.congruence import primes, serialize
from bondc.parser import parse_model
from bondc.reactions import (
    UnboundedError,
    build_reaction_system,
    cluster_concentrations,
    extract_reactions,
    initial_mixture,
    reachable_primes,
)
from bondc.terms import AMBIENT
from bondc.transitions import TransitionSystem, colocate, commit

MODELS = Path(__file__).resolve().parent.parent / "models"


def load(name):
    return parse_model((MODELS / name).read_text())


def system(name):
    return build_reaction_system(load(name))


def rate_value(rs, reaction, x):
    env = {n: v for n, v in zip(rs.prime_names, x)}
    return ex.evaluate(reaction.rate, env)


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
    ts = TransitionSystem(m.species)
    index = reachable_primes(m, ts=ts)
    conc = cluster_concentrations(ts, index)
    assert ex.evaluate(conc[("s",)], {"X": 5.0}) == 10.0


def test_cluster_concentration_sums_over_species():
    m = load("kuznetsov.bond")
    ts = TransitionSystem(m.species)
    index = reachable_primes(m, ts=ts)
    conc = cluster_concentrations(ts, index)
    (complex_name,) = set(index.names) - {"EC", "TC", "IS"}
    env = {"EC": 1.0, "TC": 2.0, "IS": 5.0, complex_name: 7.0}
    # both bound and unbound TC consume resources
    assert ex.evaluate(conc[("consumeResources",)], env) == 9.0
    assert ex.evaluate(conc[("growTC",)], env) == 2.0


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
        ts = TransitionSystem(m.species)
        index = reachable_primes(m, ts=ts)
        rs = extract_reactions(m, index, ts=ts)
        conc = cluster_concentrations(ts, index)
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
                a_vals = [ex.evaluate(conc[c], env) for c in entry.pattern]
                f_val = ex.evaluate(
                    law.apply(entry.law_params, [ex.const(v) for v in a_vals]), {}
                )
                got = sum(ex.evaluate(r, env) for r in prov_rates)
                assert got == pytest.approx(f_val / sym, rel=1e-12)


# --- brute-force semantics oracle -------------------------------------------------


def brute_force_field(model, rs, x):
    """Derivative field via direct enumeration of ordered transition tuples.

    For an affinity entry with an m-cluster pattern, every ordered tuple of
    (prime, transition) choices whose cluster bag equals the pattern
    contributes (1/m!) * prod(mult_i * x_i) * law(a_1..a_m) / prod(a_j).
    """
    ts = TransitionSystem(model.species)
    index = rs.index
    conc = cluster_concentrations(ts, index)
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
        a_vals = [ex.evaluate(conc[c], env) if c in conc else 0.0 for c in entry.pattern]
        f_val = ex.evaluate(law.apply(entry.law_params, [ex.const(v) for v in a_vals]), {})
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
