import itertools
import random
from graphlib import CycleError, TopologicalSorter

import pytest

from bondc.terms import (
    AMBIENT,
    NIL,
    Call,
    KineticLaw,
    MASS_ACTION,
    New,
    Par,
    Prefix,
    SpeciesDef,
    Sum,
    UnguardedRecursionError,
    check_guarded,
    free_locations,
    fresh_name,
    make_cluster,
    rename_locations,
)
from bondc import expr as ex

from conftest import evaluate


def guard(site, loc=AMBIENT, receives=(), body=NIL):
    return Prefix(site, loc, tuple(receives), body)


def test_free_locations_basic():
    assert free_locations(NIL) == frozenset()
    t = Sum((guard("s", "l"), guard("p", "m")))
    assert free_locations(t) == {"l", "m"}


def test_free_locations_restriction_binds():
    t = New(("l",), Sum((guard("s", "l"), guard("p", "m"))))
    assert free_locations(t) == {"m"}


def test_free_locations_receive_binds_in_continuation():
    # s(l).p@l.0 has no free locations: l is bound by the reception
    t = Sum((guard("s", receives=("l",), body=Sum((guard("p", "l"),))),))
    assert free_locations(t) == frozenset()
    # ...but a site at l *outside* the continuation is free
    t2 = Par((t, Sum((guard("q", "l"),))))
    assert free_locations(t2) == {"l"}


def test_free_locations_call_args():
    assert free_locations(Call("D", ("l", "m"))) == {"l", "m"}


def test_rename_locations_free_only():
    t = Sum((guard("s", "l"),))
    assert rename_locations(t, {"l": "k"}) == Sum((guard("s", "k"),))
    bound = New(("l",), t)
    assert rename_locations(bound, {"l": "k"}) == bound


def test_rename_locations_capture_avoiding():
    # renaming m -> l under a binder for l must not capture
    t = New(("l",), Sum((guard("s", "l"), guard("p", "m"))))
    out = rename_locations(t, {"m": "l"})
    assert isinstance(out, New)
    fresh = out.binders[0]
    assert fresh != "l"
    inner = out.body
    assert inner == Sum((guard("s", fresh), guard("p", "l")))


def test_rename_locations_oracle_on_fresh_targets():
    # when targets cannot clash with binders, renaming is naive substitution
    t = New(("b",), Sum((guard("s", "b"), guard("p", "m", ("x",), Sum((guard("q", "x"),))))))
    out = rename_locations(t, {"m": "zz"})
    assert out == New(("b",), Sum((guard("s", "b"), guard("p", "zz", ("x",), Sum((guard("q", "x"),))))))


# --- an independent oracle for renaming ------------------------------------
# binders renamed apart, then naive substitution; compared up to alpha-equivalence

CLASHING = ["l", "l'", "l''", "m", "m'", "k", "ℓ0", "ℓ0'", "ℓ1", "?a0", "?a0'", "?a1"]


def relabel(t, env, fresh=None):
    """Every name in ``t`` through ``env``, binders too, with no regard to scope.
    Given an iterator ``fresh``, each binder instead takes the next unique ``~n``."""
    kind = type(t).__name__
    if kind == "Nil":
        return t
    if kind == "Call":
        return Call(t.name, tuple(env.get(a, a) for a in t.args))
    if kind == "Par":
        return Par(tuple(relabel(p, env, fresh) for p in t.parts))

    def bind(names):
        return {**env, **{b: f"~{next(fresh)}" for b in names}} if fresh else env

    if kind == "New":
        inner = bind(t.binders)
        return New(tuple(inner.get(b, b) for b in t.binders), relabel(t.body, inner, fresh))
    guards = []
    for site, loc, receives, body in t.guards:
        inner = bind(receives)
        rec = tuple(inner.get(r, r) for r in receives)
        guards.append(Prefix(site, env.get(loc, loc), rec, relabel(body, inner, fresh)))
    return Sum(tuple(guards))


def oracle_rename(t, sub):
    return relabel(relabel(t, {}, itertools.count()), sub)


def alpha_key(t, env=None, depth=0):
    """``t`` with each bound name replaced by (its binder's depth, position)."""
    env = env or {}
    kind = type(t).__name__
    if kind == "Nil":
        return ()
    if kind == "Call":
        return (t.name, tuple(env.get(a, a) for a in t.args))
    if kind == "Par":
        return ("|", tuple(alpha_key(p, env, depth) for p in t.parts))
    if kind == "New":
        inner = {**env, **{b: (depth, i) for i, b in enumerate(t.binders)}}
        return ("new", len(t.binders), alpha_key(t.body, inner, depth + 1))
    return tuple(
        (site, env.get(loc, loc), len(rec), alpha_key(body, {**env, **bound}, depth + 1))
        for site, loc, rec, body in t.guards
        for bound in [{r: (depth, i) for i, r in enumerate(rec)}]
    )


def random_term(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.15:
        if rng.random() < 0.4:
            return NIL
        return Call("D", tuple(rng.choice(CLASHING) for _ in range(rng.randint(0, 3))))
    if roll < 0.55:
        return Sum(
            tuple(
                guard(
                    rng.choice("abc"),
                    rng.choice([AMBIENT, *CLASHING]),
                    rng.sample(CLASHING, rng.randint(0, 2)),
                    random_term(rng, depth - 1),
                )
                for _ in range(rng.randint(1, 3))
            )
        )
    if roll < 0.75:
        return Par((random_term(rng, depth - 1), random_term(rng, depth - 1)))
    return New(tuple(rng.sample(CLASHING, rng.randint(1, 2))), random_term(rng, depth - 1))


def binder_names(t):
    kind = type(t).__name__
    if kind == "Par":
        return {b for p in t.parts for b in binder_names(p)}
    if kind == "New":
        return set(t.binders) | binder_names(t.body)
    if kind == "Sum":
        return {b for g in t.guards for b in (*g.receives, *binder_names(g.body))}
    return set()


def test_rename_locations_agrees_with_a_naive_oracle_up_to_alpha():
    rng = random.Random(20261020)
    clashes = 0
    for _ in range(5000):
        t = random_term(rng, 3)
        targets = sorted(binder_names(t)) or CLASHING
        sub = {k: rng.choice(targets) for k in rng.sample(CLASHING, rng.randint(1, 4))}
        out = rename_locations(t, sub)
        assert alpha_key(out) == alpha_key(oracle_rename(t, sub)), (t, sub)
        clashes += alpha_key(out) != alpha_key(relabel(t, sub))
    assert clashes > 1000  # terms where naive substitution captures or renames a binder


@pytest.mark.parametrize(
    "t, sub, expected",
    [
        (  # a received name captures an incoming one
            Sum((Prefix("a", "m", ("l", "l'"), Call("D", ("l", "l'", "k"))),)),
            {"k": "l", "m": "l'"},
            Sum((Prefix("a", "l'", ("l''", "l'"), Call("D", ("l''", "l'", "l"))),)),
        ),
        (  # the freshened outer binder's name captures under a nested binder
            New(
                ("ℓ0",),
                Par((Sum((guard("b", "ℓ0"),)), New(("ℓ0'",), Call("D", ("ℓ0", "ℓ0'", "m"))))),
            ),
            {"m": "ℓ0"},
            New(
                ("ℓ0'",),
                Par((Sum((guard("b", "ℓ0'"),)), New(("ℓ0''",), Call("D", ("ℓ0'", "ℓ0''", "ℓ0"))))),
            ),
        ),
        (  # placeholders, as a call's parameters are renamed to them
            Par(
                (
                    Sum((Prefix("r", "?a0", ("?a1",), Call("E", ("?a1", "x"))),)),
                    Call("E", ("x", "y")),
                )
            ),
            {"x": "?a1", "y": "?a0"},
            Par(
                (
                    Sum((Prefix("r", "?a0", ("?a1'",), Call("E", ("?a1'", "?a1"))),)),
                    Call("E", ("?a1", "?a0")),
                )
            ),
        ),
    ],
)
def test_rename_locations_pinned_clashes(t, sub, expected):
    assert rename_locations(t, sub) == expected


def test_fresh_name():
    assert fresh_name("l", {"l"}) == "l'"
    assert fresh_name("l", {"l", "l'"}) == "l''"
    assert fresh_name("l", set()) == "l"


def test_make_cluster_sorted_bag():
    assert make_cluster(["b", "a", "b"]) == ("a", "b", "b")


def test_mass_action_apply_variadic():
    r = MASS_ACTION.apply((2.0,), [ex.Var("x"), ex.Var("y")])
    assert evaluate(r, {"x": 3.0, "y": 4.0}) == 24.0
    r1 = MASS_ACTION.apply((0.5,), [ex.Var("x")])
    assert evaluate(r1, {"x": 4.0}) == 2.0


def test_law_apply_substitutes_args():
    law = KineticLaw(
        name="MM",
        params=("vmax", "km"),
        args=("x", "y"),
        body=ex.div(
            ex.mul(ex.Var("vmax"), ex.mul(ex.Var("x"), ex.Var("y"))),
            ex.add(ex.Var("km"), ex.Var("y")),
        ),
    )
    r = law.apply((10.0, 2.0), [ex.Var("S"), ex.Var("E")])
    assert evaluate(r, {"S": 3.0, "E": 2.0}) == pytest.approx(60.0 / 4.0)
    assert ex.variables(r) == {"S", "E"}


def graphlib_cycle(calls: dict[str, list[str]]):
    """The reference: graphlib's cycle over callee -> caller edges, reversed."""
    try:
        TopologicalSorter(calls).prepare()
    except CycleError as e:
        return e.args[1][::-1]
    return None


def test_check_guarded_words_the_cycle_graphlib_finds():
    # random unguarded call graphs, some names undefined, some calls repeated
    for seed in range(300):
        rng = random.Random(seed)
        names = [f"N{i}" for i in range(rng.randint(1, 8))]
        defined = rng.sample(names, rng.randint(1, len(names)))
        calls = {n: [rng.choice(names) for _ in range(rng.randint(0, 3))] for n in defined}
        defs = {
            n: SpeciesDef(n, (), New(("l",), Par((*(Call(c, ()) for c in cs), NIL))))
            for n, cs in calls.items()
        }
        cycle = graphlib_cycle(calls)
        if cycle is None:
            check_guarded(defs)
            continue
        with pytest.raises(UnguardedRecursionError) as ei:
            check_guarded(defs)
        assert str(ei.value) == str(UnguardedRecursionError(cycle)), seed
