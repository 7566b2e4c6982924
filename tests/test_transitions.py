import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from bondc.congruence import normalize, primes, serialize
from bondc.parser import parse_model
from bondc.reactions import reachable_primes
from bondc.terms import (
    AMBIENT,
    NIL,
    Abstraction,
    Call,
    New,
    Par,
    Prefix,
    SpeciesDef,
    Sum,
)
from bondc.transitions import (
    Transition,
    TransitionSystem,
    UnguardedRecursionError,
    colocate,
    commit,
    restrict_abstraction,
)

from conftest import family_source

MODELS = Path(__file__).resolve().parent.parent / "models"


def guard(site, loc=AMBIENT, receives=(), body=NIL):
    return Prefix(site, loc, tuple(receives), body)


def S(*guards):
    return Sum(tuple(guards))


def defs(**bodies):
    return {
        name: SpeciesDef(name, params, body)
        for name, (params, body) in bodies.items()
    }


ENZYME = defs(
    S=((), S(guard("s", receives=("l",), body=S(guard("s'", "l", body=Call("S", ())), guard("p'", "l", body=Call("P", ())))))),
    E=((), S(guard("e", receives=("l",), body=S(guard("e'", "l", body=Call("E", ())))))),
    P=((), S(guard("p"))),
)


def test_single_prefix_transition():
    ts = TransitionSystem(defs(P=((), S(guard("p")))))
    out = ts.transitions(Call("P", ()))
    assert len(out) == 1
    (tr, mult), = out.items()
    assert mult == 1
    assert tr.cluster == ("p",)
    assert tr.location is AMBIENT
    assert tr.target.binders == ()
    assert normalize(tr.target.body) == NIL


def test_choice_multiplicity():
    # s.0 + s.0 fires s with multiplicity 2
    ts = TransitionSystem({})
    out = ts.transitions(S(guard("s"), guard("s")))
    (tr, mult), = out.items()
    assert mult == 2 and tr.cluster == ("s",)


def test_reception_produces_abstraction():
    ts = TransitionSystem(ENZYME)
    out = ts.transitions(Call("S", ()))
    (tr, _), = out.items()
    assert tr.cluster == ("s",)
    assert tr.target.arity == 1


def test_par_interleaving():
    ts = TransitionSystem({})
    t = Par((S(guard("a")), S(guard("b"))))
    out = ts.transitions(t)
    by_cluster = {tr.cluster: tr for tr in out}
    assert set(by_cluster) == {("a",), ("b",)}
    # the idle part is carried along in the target
    rest = normalize(commit(by_cluster[("a",)].target))
    assert rest == normalize(S(guard("b")))


def test_com_rule_combines_clusters():
    # a@l.0 | b@l.0 at shared Named location l can fire jointly as {a,b}@l
    ts = TransitionSystem({})
    t = Par((S(guard("a", "l")), S(guard("b", "l"))))
    out = ts.transitions(t)
    clusters = {(tr.cluster, tr.location) for tr in out}
    assert (("a", "b"), "l") in clusters
    assert (("a",), "l") in clusters and (("b",), "l") in clusters


def test_com_rule_three_way():
    ts = TransitionSystem({})
    t = Par((S(guard("a", "l")), S(guard("b", "l")), S(guard("c", "l"))))
    out = ts.transitions(t)
    clusters = {tr.cluster for tr in out}
    assert ("a", "b", "c") in clusters
    assert ("a", "b") in clusters and ("a", "c") in clusters and ("b", "c") in clusters


def test_no_com_across_different_locations():
    ts = TransitionSystem({})
    t = Par((S(guard("a", "l")), S(guard("b", "m"))))
    out = ts.transitions(t)
    assert all(len(tr.cluster) == 1 for tr in out)


def test_restriction_lifts_multi_site_cluster_to_ambient():
    ts = TransitionSystem({})
    t = New(("l",), Par((S(guard("a", "l")), S(guard("b", "l")))))
    out = ts.transitions(t)
    assert len(out) == 1
    (tr, _), = out.items()
    assert tr.cluster == ("a", "b") and tr.location is AMBIENT


def test_restriction_drops_singletons():
    # a lone site at a restricted location cannot react at all
    ts = TransitionSystem({})
    t = New(("l",), S(guard("a", "l")))
    assert ts.transitions(t) == {}


def test_restriction_passes_other_locations():
    ts = TransitionSystem({})
    t = New(("l",), Par((S(guard("a", "l")), S(guard("b", "m")))))
    out = ts.transitions(t)
    assert {(tr.cluster, tr.location) for tr in out} == {(("b",), "m")}


def test_ambient_sites_unaffected_by_restriction():
    ts = TransitionSystem({})
    t = New(("l",), Par((S(guard("a", "l")), S(guard("p")))))
    out = ts.transitions(t)
    assert {(tr.cluster, tr.location) for tr in out} == {(("p",), AMBIENT)}


def _restricted(binders, table):
    """The restriction rule applied to a surfaced table by hand: single sites at a
    binder dropped, the rest at a binder moved to ambient, each target restricted."""
    out = Counter()
    for tr, m in table.items():
        bound = tr.location in binders
        if not (bound and len(tr.cluster) < 2):
            target = Abstraction(tr.target.arity, normalize(New(binders, tr.target.body)))
            out[Transition(tr.cluster, AMBIENT if bound else tr.location, target)] += m
    return out


def _restriction_cases():
    paths = [p for p in sorted(MODELS.glob("*.bond")) if p.stem != "broken_arity"]
    models = [parse_model(p.read_text()) for p in paths]
    families = [("scaffold", range(1, 5)), ("witness", range(2, 5)), ("bank", range(1, 5))]
    models += [parse_model(family_source(f, k)) for f, ks in families for k in ks]
    for m in models:
        clusters = [c for entry in m.affinity for c in entry.pattern]
        index = reachable_primes(m)
        for ts in (TransitionSystem(m.species, clusters=clusters), TransitionSystem(m.species)):
            for p in index.primes:
                if isinstance(p, Call):  # a mixture species: its definition's body
                    p = ts.defs[p.name].body
                if isinstance(p, New) and isinstance(p.body, Par):
                    yield ts, p
                    if len(p.binders) > 1:  # one binder at a time: the others' sites stay free
                        yield from ((ts, New((b,), p.body)) for b in p.binders)


def test_restriction_rule_over_corpus_and_family_primes():
    # new B in P, for a Par P: what the rule gives from P's own table, in the same order
    n = 0
    for ts, t in _restriction_cases():
        want = _restricted(t.binders, ts.transitions(t.body))
        assert list(ts.transitions(t).items()) == list(want.items()), serialize(t)
        n += 1
    assert n > 100


def test_enzyme_complex_transitions():
    ts = TransitionSystem(ENZYME)
    # build the complex by committing the colocated bind targets
    s_tr = next(iter(ts.transitions(Call("S", ()))))
    e_tr = next(iter(ts.transitions(Call("E", ()))))
    c = normalize(commit(colocate(s_tr.target, e_tr.target)))
    out = ts.transitions(c)
    clusters = sorted(tr.cluster for tr in out)
    assert clusters == [("e'", "p'"), ("e'", "s'")]
    by_cluster = {tr.cluster: tr for tr in out}
    unbind = primes(commit(by_cluster[("e'", "s'")].target))
    assert [serialize(p) for p in unbind] == ["E", "S"]
    release = primes(commit(by_cluster[("e'", "p'")].target))
    assert [serialize(p) for p in release] == ["E", "P"]


def test_call_unfolding_with_args():
    ds = defs(
        D=(("l",), S(guard("a'", "l"))),
    )
    ts = TransitionSystem(ds)
    out = ts.transitions(Call("D", ("m",)))
    (tr, _), = out.items()
    assert tr.cluster == ("a'",) and tr.location == "m"


def test_unguarded_recursion_detected():
    ds = defs(X=((), Call("X", ())))
    with pytest.raises(UnguardedRecursionError) as ei:
        ts = TransitionSystem(ds)
        ts.transitions(Call("X", ()))
    assert ei.value.code == "UNBOUNDED"


def test_unguarded_recursion_through_new_and_par_names_the_cycle():
    ds = defs(
        A=((), New(("l",), Par((S(guard("a", "l")), Call("B", ()))))),
        B=((), Par((Call("C", ()), S(guard("b"))))),
        C=((), Call("A", ())),
    )
    with pytest.raises(UnguardedRecursionError) as ei:
        TransitionSystem(ds)
    assert str(ei.value) == "species 'A' recurses without a guard: A -> B -> C -> A"


def test_unused_unguarded_definition_fails_at_load():
    with pytest.raises(UnguardedRecursionError):
        parse_model("species X = x.0;\nspecies Y = (Y | X);\nmixture { 1 X }\n")


def test_guarded_recursion_fine():
    ds = defs(X=((), S(guard("x", body=Call("X", ())))))
    ts = TransitionSystem(ds)
    out = ts.transitions(Call("X", ()))
    assert len(out) == 1


def test_transitions_invariant_under_normalize():
    ts = TransitionSystem({})
    t = Par((S(guard("b", "l"), guard("a")), New(("m",), S(guard("c", "m")))))
    assert ts.transitions(t) == ts.transitions(normalize(t))


def test_ambient_merges_congruent_targets():
    # raw targets X|Y and Y|X differ until they surface, where they are one
    # canonical transition carrying both multiplicities
    ts = TransitionSystem({})
    xy, yx = Par((Call("X", ()), Call("Y", ()))), Par((Call("Y", ()), Call("X", ())))
    out = ts.ambient(S(guard("s", body=xy), guard("s", body=yx)))
    (tr, mult), = out.items()
    assert tr.cluster == ("s",) and mult == 2
    assert tr.target.body == normalize(xy)


def test_ambient_merges_congruent_open_targets():
    # s(x).(A(x) | B) + s(y).(B | A(y)): the two open targets share cluster s,
    # so both are canonicalized and merge into one transition x2
    ax, ay, b = Call("A", ("x",)), Call("A", ("y",)), Call("B", ())
    t = S(guard("s", receives=("x",), body=Par((ax, b))), guard("s", receives=("y",), body=Par((b, ay))))
    (tr, mult), = TransitionSystem({}).ambient(t).items()
    assert tr.cluster == ("s",) and tr.target.arity == 1 and mult == 2
    assert tr.target.body == normalize(Par((Call("A", ("?a0",)), b)))


def test_ambient_merges_congruent_com_combinations():
    ts = TransitionSystem({})
    xy, yx = Par((Call("X", ()), Call("Y", ()))), Par((Call("Y", ()), Call("X", ())))
    t = New(("l",), Par((S(guard("a", "l", body=xy)), S(guard("a", "l", body=yx)), S(guard("b", "l")))))
    out = ts.ambient(t)
    assert {tr.cluster: m for tr, m in out.items()} == {
        ("a", "b"): 2, ("a", "a"): 1, ("a", "a", "b"): 1
    }
    assert len(out) == 3
    assert all(tr.location is AMBIENT for tr in out)


@pytest.mark.parametrize(
    "name",
    ["mm.bond", "enzyme.bond", "dimer.bond", "trimer.bond", "monomer_twosite.bond",
     "pingpong.bond", "inhibitor.bond", "kuznetsov.bond"],
)
def test_pruned_table_is_the_fitting_part_of_the_full_table(name):
    # a transition survives pruning iff its site bag is a sub-bag of some
    # affinity cluster, with its full multiplicity
    model = parse_model((MODELS / name).read_text())
    clusters = [c for entry in model.affinity for c in entry.pattern]
    full = TransitionSystem(model.species)
    pruned = TransitionSystem(model.species, clusters=clusters)
    for sd in model.species.values():
        src = Call(sd.name, sd.params)
        want = Counter({
            tr: m for tr, m in full.transitions(src).items()
            if any(Counter(tr.cluster) <= Counter(c) for c in clusters)
        })
        assert pruned.transitions(src) == want


def test_pruned_com_skips_combinations_that_fit_no_cluster():
    # eight co-located sites, one two-site cluster: the full table has
    # 2^8 - 8 - 1 combinations at l, the pruned one only w0 & w1
    parts = tuple(S(guard(f"w{i}", "l")) for i in range(8))
    t = Par(parts)
    full = TransitionSystem({}).transitions(t)
    pruned = TransitionSystem({}, clusters=[("w0", "w1")]).transitions(t)
    assert sum(len(tr.cluster) >= 2 for tr in full) == 2**8 - 8 - 1
    assert sorted(tr.cluster for tr in pruned) == [("w0",), ("w0", "w1"), ("w1",)]


@pytest.mark.parametrize(
    "clusters",
    [
        [("a", "a", "b")],
        [("x", "y", "y", "z")],
        [("a", "a", "b"), ("x", "y", "y", "z")],  # disjoint
        [("a", "b"), ("b", "c"), ("a", "a", "b")],  # overlapping
    ],
)
def test_fits_is_the_sub_bag_test(clusters):
    # every sorted bag of up to 4 sites, one of them in no cluster
    pruned, full = TransitionSystem({}, clusters=clusters), TransitionSystem({})
    sites = sorted({s for c in clusters for s in c} | {"q"})
    for n in range(1, 5):
        for bag in itertools.combinations_with_replacement(sites, n):
            assert pruned._fits(bag) == any(Counter(bag) <= Counter(c) for c in clusters), bag
            assert full._fits(bag)


@pytest.mark.parametrize("seed", range(20))
def test_fits_matches_a_brute_force_sub_bag_check(seed):
    # random clusters over a..e with repeated sites; bags also hold q and z, in no cluster
    rng = random.Random(seed)
    clusters = [
        tuple(sorted(rng.choices("abcde", k=rng.randint(1, 4)))) for _ in range(rng.randint(1, 4))
    ]
    ts = TransitionSystem({}, clusters=clusters)
    bags = [(s,) for s in "abcdeqz"]
    bags += [tuple(sorted(rng.choices("abcdeqz", k=rng.randint(1, 5)))) for _ in range(200)]
    for bag in bags * 2:  # the second time, from the memo
        want = any(all(bag.count(s) <= c.count(s) for s in bag) for c in clusters)
        assert ts._fits(bag) == want, (clusters, bag)


# --- abstraction algebra -------------------------------------------------------


def test_colocate_shares_binders_positionally():
    f = Abstraction(1, S(guard("a", "?a0")))
    g = Abstraction(1, S(guard("b", "?a0")))
    h = colocate(f, g)
    assert h.arity == 1
    assert normalize(commit(h)) == normalize(
        New(("x",), Par((S(guard("a", "x")), S(guard("b", "x")))))
    )


def test_colocate_max_arity():
    f = Abstraction(2, Par((S(guard("a", "?a0")), S(guard("b", "?a1")))))
    g = Abstraction(1, S(guard("c", "?a0")))
    h = colocate(f, g)
    assert h.arity == 2


def test_colocate_joins_any_number_in_one_flat_par():
    # arities 2, 1 and 0: f and g share ?a0, h's free l is no placeholder
    f = Abstraction(2, Par((S(guard("a", "?a0")), S(guard("b", "?a1")))))
    g = Abstraction(1, S(guard("c", "?a0")))
    h = Abstraction(0, S(guard("d", "l")))
    fgh = colocate(f, g, h)
    assert fgh == Abstraction(2, Par((f.body, g.body, h.body)))
    assert primes(commit(fgh)) == primes(commit(colocate(colocate(f, g), h)))


def test_colocate_commutative_up_to_congruence():
    f = Abstraction(1, S(guard("a", "?a0")))
    g = Abstraction(1, S(guard("b", "?a0")))
    assert normalize(commit(colocate(f, g))) == normalize(commit(colocate(g, f)))


def test_restrict_abstraction_passes_through_binders():
    # (new l)(m)A == (m)(new l)A
    f = Abstraction(1, Par((S(guard("a", "?a0")), S(guard("b", "l"), guard("c", "l")))))
    r = restrict_abstraction(("l",), f)
    assert r.arity == 1
    assert normalize(commit(r)) == normalize(
        New(("m", "l"), Par((S(guard("a", "m")), S(guard("b", "l"), guard("c", "l")))))
    )


def test_commit_zero_arity_is_body():
    f = Abstraction(0, S(guard("a")))
    assert normalize(commit(f)) == normalize(S(guard("a")))
