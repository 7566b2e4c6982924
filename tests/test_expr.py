import json
import math
import random

import pytest

from bondc import expr as ex
from bondc.ode import compile_field
from bondc.ssa import _factors, compile_updaters

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
    f = compile_field([e], ["e"], ["a", "b"], [[(1, 0)]])
    env = {"a": 2.5, "b": 4.0}
    assert f(env["a"], env["b"])[0] == pytest.approx(evaluate(e, env))


def test_compiled_guarded_division():
    q = ex.Bin("div", ex.Var("a"), ex.Var("b"))
    f = compile_field([ex.Var("a"), q], ["a", "a/b"], ["a", "b"], [[(1, 0), (1, 1)]])
    assert f(0.0, 0.0)[0] == 0.0
    with pytest.raises(ex.DomainError, match=r"^rate evaluation failed for reaction 'a/b': "):
        f(1.0, 0.0)
    with pytest.raises(ex.DomainError, match=r"^non-finite rate for reaction 'a/b' \(kinetic"):
        f(1.0, math.nan)


def test_compiled_finite_overflow_is_not_an_error():
    # the rates sum to inf, but each is finite
    f = compile_field([ex.Var("a"), ex.Var("a")], ["r0", "r1"], ["a"], [[(1, 0)]])
    assert f(1e308) == [1e308]


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
    s = ex.render(e, latex=True)
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
        field = compile_field(es, labels, names, [[(1, j)] for j in range(len(es))])
        # plain lines store the value as it is; checked ones pass it to slow
        # unless it is positive, finite and each n[i] >= m
        needs = [rng.choice([None, [], [(0, 1), (2, 2)]]) for _ in es]
        groups = [[0, 1, 2, 3], [1, 3], []]
        updaters = compile_updaters(es, names, h, groups, needs)
        for _ in range(6):
            x = [rng.choice(VALUES) for _ in names]
            values, error = expected(dict(zip(labels, es)), dict(zip(names, x)), True)
            if error is None:
                assert list(map(repr, field(*x))) == list(map(repr, values))
            else:
                with pytest.raises(ex.DomainError) as ei:
                    field(*x)
                assert str(ei.value) == error
            env = {n: v * h for n, v in zip(names, x)}
            want = []  # per expression, its scaled value, or None for an x/0
            for label, e in zip(labels, es):
                values, error = expected({label: e}, env, False)
                want.append(None if error else values[0] / h)
            for update, js in zip(updaters, groups):
                p, divided = [None] * len(es), set()

                def slow(j, a):
                    if a is None:
                        divided.add(j)
                        return math.nan
                    return ("slow", j, repr(a))

                update(x, p, slow)
                assert [j for j, a in enumerate(p) if a is not None] == js
                for j in js:
                    a = math.nan if want[j] is None else want[j]
                    short = any(x[i] < m for i, m in needs[j] or [])
                    if needs[j] is None or (0.0 < a < math.inf and not short):
                        assert repr(p[j]) == repr(a)
                    else:
                        assert p[j] == ("slow", j, repr(a))
                # an x/0 is reported for the first member it fails, and only for members it fails
                failing = [j for j in js if want[j] is None]
                assert divided <= set(failing) and (not failing or failing[0] in divided)


def test_long_left_deep_sum_matches_evaluate_bit_for_bit():
    # a law over a 250-term cluster total: the compiled code nests no parenthesis per term
    xs = [ex.Var(f"x{i}") for i in range(250)]
    a = ex.total(ex.mul(ex.const(1 + i % 3), x) for i, x in enumerate(xs))
    es = [a, ex.mul(ex.div(ex.mul(ex.const(2.0), a), ex.add(ex.ONE, a)), ex.div(xs[7], a))]
    names, labels, h = [x.name for x in xs], ["total", "law"], 0.5
    field = compile_field(es, labels, names, [[(1, 0)], [(1, 1)]])
    [update] = compile_updaters(es, names, h, [[0, 1]], [None, [(7, 1)]])
    rng = random.Random(250)
    for _ in range(5):
        x = [rng.choice([0.0, 1.0, 2.5, 1e-300]) for _ in names]
        values, error = expected(dict(zip(labels, es)), dict(zip(names, x)), True)
        assert error is None and list(map(repr, field(*x))) == list(map(repr, values))
        p = [None, None]
        update(x, p, lambda j, a: ("slow", j, repr(a)))
        want = [evaluate(e, {n: v * h for n, v in zip(names, x)}) / h for e in es]
        assert repr(p[0]) == repr(want[0])
        if 0.0 < want[1] < math.inf and x[7] >= 1:
            assert repr(p[1]) == repr(want[1])
        else:
            assert p[1] == ("slow", 1, repr(want[1]))


def test_failing_shared_division_names_its_first_user():
    a, b = ex.Var("a"), ex.Var("b")
    shared = ex.Bin("div", ex.Bin("add", a, b), ex.Bin("sub", b, b))  # (a+b)/0
    nan = ex.Bin("div", ex.Const(math.inf), ex.Const(math.inf))  # r0 is never finite
    es = [ex.Bin("mul", a, nan), ex.Bin("mul", shared, a), ex.Bin("add", b, shared)]
    f = compile_field(es, ["r0", "r1", "r2"], ["a", "b"], [[(1, 0)], [(1, 1)], [(1, 2)]])
    # r1 is the first to reach the shared x/0, and it raises before r0's finiteness is tested
    with pytest.raises(ex.DomainError, match=r"^rate evaluation failed for reaction 'r1': "):
        f(1.0, 2.0)
    # 0/0 = 0 in the shared division: the first failing rate is the non-finite r0
    with pytest.raises(ex.DomainError, match=r"^non-finite rate for reaction 'r0' "):
        f(0.0, 0.0)


# --- recursive reference walkers that share no code with ex.fold ----------------------


def ref_substitute(e, env):
    if isinstance(e, ex.Const):
        return e
    if isinstance(e, ex.Var):
        return env.get(e.name, e)
    a = ref_substitute(e.left, env)
    b = ref_substitute(e.right, env)
    return {"add": ex.add, "sub": ex.sub, "mul": ex.mul, "div": ex.div}[e.op](a, b)


def ref_finite(e):
    if isinstance(e, ex.Bin):
        return ref_finite(e.left) and ref_finite(e.right)
    return isinstance(e, ex.Var) or math.isfinite(e.value)


def ref_variables(e):
    if isinstance(e, ex.Const):
        return set()
    if isinstance(e, ex.Var):
        return {e.name}
    return ref_variables(e.left) | ref_variables(e.right)


def ref_render(e, var_fmt=lambda n: n):
    def prec(x):
        if isinstance(x, (ex.Const, ex.Var)):
            return 3
        return {"add": 1, "sub": 1, "mul": 2, "div": 2}[x.op]

    def go(x):
        if isinstance(x, ex.Const):
            return ex._fmt_num(x.value)
        if isinstance(x, ex.Var):
            return var_fmt(x.name)
        sym = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[x.op]
        ls, rs = go(x.left), go(x.right)
        if prec(x.left) < prec(x):
            ls = f"({ls})"
        if prec(x.right) < prec(x) or (prec(x.right) == prec(x) and x.op in ("sub", "div")):
            rs = f"({rs})"
        return f"{ls}{sym}{rs}"

    return go(e)


def ref_render_latex(e, var_fmt=lambda n: n):
    def go(x, ctx):
        # ctx "sum": a sum may appear bare; ctx "prod": a sum takes parentheses
        if isinstance(x, ex.Const):
            return ex._fmt_num(x.value)
        if isinstance(x, ex.Var):
            return var_fmt(x.name)
        if x.op == "div":
            return r"\frac{%s}{%s}" % (go(x.left, "sum"), go(x.right, "sum"))
        if x.op == "mul":
            return r"%s \cdot %s" % (go(x.left, "prod"), go(x.right, "prod"))
        sym = "+" if x.op == "add" else "-"
        s = "%s %s %s" % (go(x.left, "sum"), sym, go(x.right, "prod" if x.op == "sub" else "sum"))
        return r"\left(%s\right)" % s if ctx == "prod" else s

    return go(e, "sum")


def ref_to_json(e):
    if isinstance(e, ex.Const):
        return {"kind": "const", "value": e.value}
    if isinstance(e, ex.Var):
        return {"kind": "var", "name": e.name}
    return {"kind": e.op, "left": ref_to_json(e.left), "right": ref_to_json(e.right)}


def ref_factors(e):
    if isinstance(e, ex.Const):
        return set() if math.copysign(1.0, e.value) > 0 else None
    if isinstance(e, ex.Var):
        return {e.name}
    a, b = ref_factors(e.left), ref_factors(e.right)
    if e.op == "sub" or a is None or b is None:
        return None
    return a | b if e.op == "mul" else a if e.op == "div" else set()


CONSTS = [0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan]


def random_tree(rng: random.Random, depth: int, pool: list) -> ex.Expr:
    """A raw tree of height at most ``depth``, built with Bin directly; ``pool`` holds
    (tree, height) of the compounds built so far, reused as repeated subtrees."""
    if depth == 0 or rng.random() < 0.2:
        return ex.Var(rng.choice("abc")) if rng.random() < 0.6 else ex.Const(rng.choice(CONSTS))
    reuse = [t for t, h in pool if h <= depth]
    if reuse and rng.random() < 0.2:
        return rng.choice(reuse)
    op = rng.choice(["add", "sub", "mul", "div"])
    t = ex.Bin(op, random_tree(rng, depth - 1, pool), random_tree(rng, depth - 1, pool))
    pool.append((t, depth))
    return t


def outcome(f, *args):
    """repr of f's value, or its DomainError's message: NaN constants compare by repr."""
    try:
        return repr(f(*args))
    except ex.DomainError as err:
        return f"DomainError: {err}"


@pytest.mark.parametrize("seed", range(10))
def test_fold_walkers_match_recursive_references(seed):
    rng = random.Random(seed)
    pool: list = []
    fmt = "[{}]".format
    for _ in range(50):
        e = random_tree(rng, rng.randint(1, 8), pool)
        env = {"a": ex.Const(rng.choice(CONSTS)), "b": random_tree(rng, 3, pool)}
        assert outcome(ex.substitute, e, env) == outcome(ref_substitute, e, env)
        assert ex.finite(e) is ref_finite(e)
        assert ex.variables(e) == ref_variables(e)
        assert ex.render(e) == ref_render(e) and ex.render(e, fmt) == ref_render(e, fmt)
        assert ex.render(e, fmt, latex=True) == ref_render_latex(e, fmt)
        assert json.dumps(ex.to_json(e)) == json.dumps(ref_to_json(e))
        assert _factors(e) == ref_factors(e)


def test_walkers_return_on_a_2000_term_cluster_total():
    # a law k*a/(1 + a) over a cluster of 2,000 primes: each walker loops down the long sum
    xs = [ex.Var(f"x{i}") for i in range(2000)]
    t = ex.total(xs)
    e = ex.div(ex.mul(xs[0], t), ex.add(ex.ONE, t))
    names = [x.name for x in xs]
    one = ex.substitute(e, {n: ex.ONE for n in names})
    assert one == ex.Const(2000.0 / 2001.0)
    assert ex.finite(e) and ex.variables(e) == set(names)
    assert ex.render(e).endswith(" + x1999)") and ex.render(e, latex=True).startswith(r"\frac")
    assert ex.to_json(e)["kind"] == "div" and _factors(e) == {"x0"}
    field = compile_field([e], ["law"], names, [[(1, 0)]])
    assert field(*[1.0] * 2000) == [2000.0 / 2001.0]
    [update] = compile_updaters([e], names, 1.0, [[0]], [None])
    p = [None]
    update([1] * 2000, p, None)
    assert p == [2000.0 / 2001.0]
