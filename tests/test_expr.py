import math

import pytest

from bondc import expr as ex


def test_constant_folding():
    assert ex.add(ex.const(2), ex.const(3)) == ex.Const(5.0)
    assert ex.mul(ex.const(2), ex.const(3)) == ex.Const(6.0)
    assert ex.sub(ex.const(2), ex.const(3)) == ex.Const(-1.0)
    assert ex.div(ex.const(6), ex.const(3)) == ex.Const(2.0)


def test_identity_folding():
    x = ex.Var("x")
    assert ex.add(ex.ZERO, x) == x
    assert ex.add(x, ex.ZERO) == x
    assert ex.mul(ex.ONE, x) == x
    assert ex.mul(x, ex.ONE) == x
    assert ex.mul(ex.ZERO, x) == ex.ZERO
    assert ex.div(x, ex.ONE) == x
    assert ex.sub(x, ex.ZERO) == x


def test_constants_merge_through_products():
    x = ex.Var("x")
    e = ex.mul(ex.const(-1), ex.mul(ex.const(2), x))
    assert e == ex.Bin("mul", ex.Const(-2.0), x)
    # left-associated chains fold too
    e = ex.mul(ex.const(0.5), ex.mul(ex.mul(ex.const(2), x), x))
    assert ex.evaluate(e, {"x": 3.0}) == pytest.approx(9.0)
    assert "0.5" not in ex.render(e)


def test_div_self_is_one():
    x = ex.Var("x")
    assert ex.div(x, x) == ex.ONE


def test_guarded_division():
    x, y = ex.Var("x"), ex.Var("y")
    q = ex.Bin("div", x, y)
    assert ex.evaluate(q, {"x": 0.0, "y": 0.0}) == 0.0
    assert ex.evaluate(q, {"x": 6.0, "y": 2.0}) == 3.0
    with pytest.raises(ex.DomainError):
        ex.evaluate(q, {"x": 1.0, "y": 0.0})


def test_compiled_matches_interpreted():
    e = ex.div(
        ex.mul(ex.const(3), ex.mul(ex.Var("a"), ex.Var("b"))),
        ex.add(ex.const(1), ex.Var("b")),
    )
    f = ex.compile_exprs([e], ["e"], ["a", "b"], sums=[[(1, 0)]])
    env = {"a": 2.5, "b": 4.0}
    assert f([env["a"], env["b"]])[0] == pytest.approx(ex.evaluate(e, env))


def test_compiled_guarded_division():
    q = ex.Bin("div", ex.Var("a"), ex.Var("b"))
    f = ex.compile_exprs([ex.Var("a"), q], ["a", "a/b"], ["a", "b"], sums=[[(1, 0), (1, 1)]])
    assert f([0.0, 0.0])[0] == 0.0
    with pytest.raises(ex.DomainError, match=r"^rate evaluation failed for reaction 'a/b': "):
        f([1.0, 0.0])
    with pytest.raises(ex.DomainError, match=r"^non-finite rate for reaction 'a/b' \(kinetic"):
        f([1.0, math.nan])


def test_compiled_finite_overflow_is_not_an_error():
    # the rates sum to inf, but each is finite
    f = ex.compile_exprs([ex.Var("a"), ex.Var("a")], ["r0", "r1"], ["a"], sums=[[(1, 0)]])
    assert f([1e308]) == [1e308]


def test_substitute():
    e = ex.add(ex.Var("x"), ex.mul(ex.const(2), ex.Var("y")))
    out = ex.substitute(e, {"x": ex.const(1), "y": ex.Var("z")})
    assert ex.variables(out) == {"z"}
    assert ex.evaluate(out, {"z": 3.0}) == 7.0


def test_render_precedence():
    x, y, z = ex.Var("x"), ex.Var("y"), ex.Var("z")
    assert ex.render(ex.mul(ex.add(x, y), z)) == "(x + y)*z"
    assert ex.render(ex.add(x, ex.mul(y, z))) == "x + y*z"
    assert ex.render(ex.Bin("div", x, ex.add(y, z))) == "x/(y + z)"
    assert ex.render(ex.sub(x, ex.sub(y, z))) == "x - (y - z)"


def test_render_roundtrip_numeric():
    # a rendered expression is plain arithmetic and evaluates identically
    e = ex.div(ex.mul(ex.const(2), ex.Var("x")), ex.add(ex.Var("y"), ex.const(1)))
    env = {"x": 1.25, "y": 3.0}
    assert eval(ex.render(e), {}, env) == pytest.approx(ex.evaluate(e, env))


def test_render_latex():
    e = ex.div(ex.Var("x"), ex.add(ex.Var("y"), ex.const(1)))
    s = ex.render_latex(e)
    assert "\\frac" in s


def test_json_roundtrip():
    e = ex.sub(
        ex.div(ex.mul(ex.const(2), ex.Var("x")), ex.Var("y")),
        ex.add(ex.Var("x"), ex.const(0.5)),
    )
    assert ex.from_json(ex.to_json(e)) == e


def test_evaluate_nan_propagates_domain_error():
    q = ex.Bin("div", ex.Var("a"), ex.Var("b"))
    # 0/0 guard applies exactly at zero, not for tiny denominators
    assert ex.evaluate(q, {"a": 1e-300, "b": 1e-300}) == 1.0


def test_fmt_num_integers():
    assert ex._fmt_num(2.0) == "2"
    assert ex._fmt_num(0.5) == "0.5"
    assert not math.isnan(float(ex._fmt_num(1e-9)))
