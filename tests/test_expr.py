import math
import random

import pytest

from bondc import expr as ex

from conftest import evaluate


def from_json(d: dict) -> ex.Expr:
    """The inverse of ``ex.to_json``."""
    kind = d["kind"]
    if kind == "const":
        return ex.Const(float(d["value"]))
    if kind == "var":
        return ex.Var(d["name"])
    return ex.Bin(kind, from_json(d["left"]), from_json(d["right"]))


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
    assert evaluate(e, {"x": 3.0}) == pytest.approx(9.0)
    assert "0.5" not in ex.render(e)


def test_div_self_is_one():
    x = ex.Var("x")
    assert ex.div(x, x) == ex.ONE


def test_guarded_division():
    x, y = ex.Var("x"), ex.Var("y")
    q = ex.Bin("div", x, y)
    assert evaluate(q, {"x": 0.0, "y": 0.0}) == 0.0
    assert evaluate(q, {"x": 6.0, "y": 2.0}) == 3.0
    with pytest.raises(ex.DomainError):
        evaluate(q, {"x": 1.0, "y": 0.0})


def test_compiled_matches_interpreted():
    e = ex.div(
        ex.mul(ex.const(3), ex.mul(ex.Var("a"), ex.Var("b"))),
        ex.add(ex.const(1), ex.Var("b")),
    )
    f = ex.compile_exprs([e], ["e"], ["a", "b"], sums=[[(1, 0)]])
    env = {"a": 2.5, "b": 4.0}
    assert f([env["a"], env["b"]])[0] == pytest.approx(evaluate(e, env))


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
    assert evaluate(out, {"z": 3.0}) == 7.0


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
    assert eval(ex.render(e), {}, env) == pytest.approx(evaluate(e, env))


def test_render_latex():
    e = ex.div(ex.Var("x"), ex.add(ex.Var("y"), ex.const(1)))
    s = ex.render_latex(e)
    assert "\\frac" in s


def test_json_roundtrip():
    e = ex.sub(
        ex.div(ex.mul(ex.const(2), ex.Var("x")), ex.Var("y")),
        ex.add(ex.Var("x"), ex.const(0.5)),
    )
    assert from_json(ex.to_json(e)) == e


def test_evaluate_nan_propagates_domain_error():
    q = ex.Bin("div", ex.Var("a"), ex.Var("b"))
    # 0/0 guard applies exactly at zero, not for tiny denominators
    assert evaluate(q, {"a": 1e-300, "b": 1e-300}) == 1.0


def test_fmt_num_integers():
    assert ex._fmt_num(2.0) == "2"
    assert ex._fmt_num(0.5) == "0.5"
    assert not math.isnan(float(ex._fmt_num(1e-9)))


VALUES = [0.0, -0.0, 1.0, -1.0, 2.5, 3.0, 1e-300, 1e300]  # zeros make 0/0 and x/0 common
LEAVES = [ex.Var("a"), ex.Var("b"), ex.Var("c"), ex.Const(0.0), ex.Const(-0.0), ex.Const(2.0)]


def random_rates(rng: random.Random, k: int) -> list[ex.Expr]:
    """k raw (unfolded) expressions over one pool of nodes, so that sub-trees
    are shared, between the expressions and within each, and divisions nest."""
    pool = list(LEAVES)
    for _ in range(10):
        op = rng.choice(["add", "sub", "mul", "div", "div"])
        pool.append(ex.Bin(op, rng.choice(pool), rng.choice(pool)))
    # structurally equal copies of shared nodes, and nodes equal to each other
    # up to the sign of a zero constant, which must stay apart
    pool += [ex.Bin(n.op, n.left, n.right) for n in pool if isinstance(n, ex.Bin)]
    pool += [ex.Bin("add", pool[-1], ex.Const(0.0)), ex.Bin("add", pool[-1], ex.Const(-0.0))]
    return [rng.choice(pool[len(LEAVES) :]) for _ in range(k)]


def expected(es: dict[str, ex.Expr], env: dict, nonfinite: bool):
    """Values by ``evaluate``, and the message of the first error in label order."""
    values = []
    for label, e in es.items():
        try:
            values.append(evaluate(e, env))
        except ex.DomainError:
            return values, str(ex.division_by_zero(label))
    bad = [label for label, v in zip(es, values) if not math.isfinite(v)]
    return values, str(ex.non_finite(bad[0])) if nonfinite and bad else None


@pytest.mark.parametrize("seed", range(40))
def test_compiled_rates_match_evaluate_bit_for_bit(seed):
    rng = random.Random(seed)
    names, h = ["a", "b", "c"], 0.5
    for _ in range(10):
        es = random_rates(rng, 4)
        labels = [f"r{j}" for j in range(len(es))]
        field = ex.compile_exprs(es, labels, names, sums=[[(1, j)] for j in range(len(es))])
        props = ex.compile_exprs(es, labels, {"a": 0, "b": 1, "c": 2}, h=h)
        for _ in range(6):
            x = [rng.choice(VALUES) for _ in names]
            values, error = expected(dict(zip(labels, es)), dict(zip(names, x)), True)
            if error is None:
                assert list(map(repr, field(x))) == list(map(repr, values))
            else:
                with pytest.raises(ex.DomainError) as ei:
                    field(x)
                assert str(ei.value) == error
            env = {n: v * h for n, v in zip(names, x)}
            for label, e, f in zip(labels, es, props):
                values, error = expected({label: e}, env, False)
                if error is None:
                    assert repr(f(x)) == repr(values[0] / h)
                else:
                    with pytest.raises(ex.DomainError) as ei:
                        f(x)
                    assert str(ei.value) == error


def test_failing_shared_division_names_its_first_user():
    a, b = ex.Var("a"), ex.Var("b")
    shared = ex.Bin("div", ex.Bin("add", a, b), ex.Bin("sub", b, b))  # (a+b)/0
    nan = ex.Bin("div", ex.Const(math.inf), ex.Const(math.inf))  # r0 is never finite
    es = [ex.Bin("mul", a, nan), ex.Bin("mul", shared, a), ex.Bin("add", b, shared)]
    f = ex.compile_exprs(es, ["r0", "r1", "r2"], ["a", "b"], sums=[[(1, 0)], [(1, 1)], [(1, 2)]])
    # r1 is the first to reach the shared x/0, and it raises before r0's finiteness is tested
    with pytest.raises(ex.DomainError, match=r"^rate evaluation failed for reaction 'r1': "):
        f([1.0, 2.0])
    # 0/0 = 0 in the shared division: the first failing rate is the non-finite r0
    with pytest.raises(ex.DomainError, match=r"^non-finite rate for reaction 'r0' "):
        f([0.0, 0.0])
