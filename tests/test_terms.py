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
    Sum,
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
