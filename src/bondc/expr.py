"""Symbolic rate expressions.

Reaction rates and ODE right hand sides are built from a tiny expression
language with node kinds const/var/add/sub/mul/div.  The smart constructors
fold constants eagerly so that e.g. mass-action rates come out as plain
monomials.  Division follows the continuous extension 0/0 = 0 used by the
rate semantics; x/0 with x != 0 is a domain error at evaluation time.
``compile_exprs`` generates what both simulators share: shared sub-expressions
computed once, division guarded inline.  ``ode.compile_field`` and
``ssa.compile_updaters`` own what their code does with each value.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union


class DomainError(ValueError):
    """A rate expression left its domain (division blow-up)."""

    code = "DOMAIN"


class Const(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str


class Bin(NamedTuple):
    op: str  # "add" | "sub" | "mul" | "div"
    left: "Expr"
    right: "Expr"


Expr = Union[Const, Var, Bin]

ZERO = Const(0.0)
ONE = Const(1.0)


def const(v: float) -> Const:
    return Const(float(v))


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Bin("add", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Bin("sub", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if isinstance(b, Const):
        # keep constants on the left for readable renderings
        a, b = b, a
    if isinstance(a, Const):
        if a.value == 0.0:
            return ZERO
        if a.value == 1.0:
            return b
        # pull the constant through nested products so adjacent constants
        # fold: c * (l * r) -> (c * l) * r
        if isinstance(b, Bin) and b.op == "mul":
            return mul(mul(a, b.left), b.right)
        if isinstance(b, Bin) and b.op == "div":
            return div(mul(a, b.left), b.right)
    return Bin("mul", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const):
        if b.value == 1.0:
            return a
        if isinstance(a, Const):
            if a.value == 0.0 and b.value == 0.0:
                return ZERO
            if b.value == 0.0:
                raise DomainError("constant division by zero")
            return Const(a.value / b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return ZERO
    if a == b:
        # x/x is only used for cancellation factors, where 0/0 := 0 would
        # apply anyway on the support boundary; folding to 1 matches the
        # continuous extension on the interior and keeps rates tidy.
        return ONE
    return Bin("div", a, b)


def prod(factors: Iterable[Expr]) -> Expr:
    out: Expr = ONE
    for f in factors:
        out = mul(out, f)
    return out


def total(terms: Iterable[Expr]) -> Expr:
    out: Expr = ZERO
    for t in terms:
        out = add(out, t)
    return out


def substitute(e: Expr, env: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions, refolding along the way."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return env.get(e.name, e)
    a = substitute(e.left, env)
    b = substitute(e.right, env)
    return {"add": add, "sub": sub, "mul": mul, "div": div}[e.op](a, b)


def finite(e: Expr) -> bool:
    """Whether every constant in ``e`` is finite."""
    if isinstance(e, Bin):
        return finite(e.left) and finite(e.right)
    return isinstance(e, Var) or math.isfinite(e.value)


def variables(e: Expr) -> set[str]:
    if isinstance(e, Const):
        return set()
    if isinstance(e, Var):
        return {e.name}
    return variables(e.left) | variables(e.right)


def division_by_zero(label: str) -> DomainError:
    """The error for a rate of the reaction ``label`` that divides x != 0 by 0."""
    return DomainError(f"rate evaluation failed for reaction '{label}': division by zero")


def non_finite(label: str) -> DomainError:
    """The error for a rate of the reaction ``label`` that is not finite."""
    return DomainError(
        f"non-finite rate for reaction '{label}' (kinetic law evaluated outside its domain)"
    )


def compile_exprs(exprs: list[Expr], var: Mapping[str, str], defs: list, env: dict) -> list:
    """Compile expressions into straight-line Python functions, generated in one exec.

    Values are bit-identical to a tree walk (tests/conftest.py ``evaluate``).
    ``var`` gives each variable's text.  Each (params, js, assign, tail) of
    ``defs`` is one function of ``params`` that computes each expression j of
    js as the line ``assign(j, text)``, then runs the ``tail`` lines; ``env``
    holds the globals they read.  Within a function a sub-expression used more
    than once (or a variable's compound text) is computed once, before the first
    expression using it (which a failing division in it names); division is
    guarded inline, calling slow(j, None) only for an x/0.
    """
    prec = {"add": 1, "sub": 1, "mul": 2}  # a division's conditional stays grouped
    sym = {"add": "+", "sub": "-", "mul": "*"}
    nodes: dict = {}  # each compound (op, left, right) to its number, which keys it cheaply

    def value(e: Expr):  # a leaf's text or a compound's number: equal values are bit-identical
        if isinstance(e, Bin):
            return nodes.setdefault((e.op, value(e.left), value(e.right)), len(nodes))
        return repr(e.value) if isinstance(e, Const) else var[e.name]

    roots = [value(e) for e in exprs]
    node = list(nodes)

    def statements(js: Sequence[int], assign: Callable[[int, str], str]) -> list[str]:
        """Lines computing each expression j of js as the line ``assign(j, text)``."""
        uses: dict = {}  # occurrences of compounds and compound leaves, not inside a repeat

        def count(v) -> None:
            if isinstance(v, int) or v[0] == "(":
                uses[v] = uses.get(v, 0) + 1
                if uses[v] == 1 and isinstance(v, int):
                    count(node[v][1])
                    count(node[v][2])

        for j in js:
            count(roots[j])
        names, lines = {}, []  # the local of each value hoisted; the lines computing them

        def emit(v, j: int, atom: bool = False) -> str:
            if v in names:
                return names[v]
            if isinstance(v, str):
                text = v
            elif node[v][0] == "div":  # of atoms: the text reads each operand more than once
                a, b = emit(node[v][1], j, True), emit(node[v][2], j, True)
                text = f"({a}/{b} if {b} else 0.0 if {a} == 0.0 else slow({j}, None))"
            else:  # ungrouped: a left operand binding as tightly, a right one binding more
                op, l, r = node[v]
                a, b = emit(l, j), emit(r, j)
                if isinstance(l, int) and a[0] == "(" and prec.get(node[l][0], 0) >= prec[op]:
                    a = a[1:-1]
                if isinstance(r, int) and b[0] == "(" and prec.get(node[r][0], 0) > prec[op]:
                    b = b[1:-1]
                text = f"({a}{sym[op]}{b})"
            if uses.get(v, 0) > 1 or atom and text[0] == "(":  # names and constants lack "("
                names[v] = f"t{len(names)}"
                lines.append(f" {names[v]} = {text}")
                return names[v]
            return text

        for j in js:
            lines.append(assign(j, emit(roots[j], j)))  # after emit's own lines
        return lines

    lines = []
    for k, (params, js, assign, tail) in enumerate(defs):
        lines += [f"def f{k}({params}):", *(statements(js, assign) + tail or [" pass"])]
    env = {**env, "inf": math.inf, "nan": math.nan}  # repr() of non-finite constants
    exec("\n".join(lines), env)  # noqa: S102 - generated source
    return [env[f"f{k}"] for k in range(len(defs))]


def render(e: Expr, var_fmt: Callable[[str], str] = lambda n: n) -> str:
    """Render with minimal parentheses, deterministic."""

    def prec(x: Expr) -> int:
        if isinstance(x, (Const, Var)):
            return 3
        return {"add": 1, "sub": 1, "mul": 2, "div": 2}[x.op]

    def go(x: Expr) -> str:
        if isinstance(x, Const):
            return _fmt_num(x.value)
        if isinstance(x, Var):
            return var_fmt(x.name)
        sym = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[x.op]
        lp, rp = prec(x.left), prec(x.right)
        ls = go(x.left)
        rs = go(x.right)
        if lp < prec(x):
            ls = f"({ls})"
        # a right operand is parenthesized on ties for the non-associative ops
        if rp < prec(x) or (rp == prec(x) and x.op in ("sub", "div")):
            rs = f"({rs})"
        return f"{ls}{sym}{rs}"

    return go(e)


def render_latex(e: Expr, var_fmt: Callable[[str], str] = lambda n: n) -> str:
    def go(x: Expr, ctx: str) -> str:
        # ctx "sum": a sum may appear bare; ctx "prod": a sum takes parentheses
        if isinstance(x, Const):
            return _fmt_num(x.value)
        if isinstance(x, Var):
            return var_fmt(x.name)
        if x.op == "div":
            return r"\frac{%s}{%s}" % (go(x.left, "sum"), go(x.right, "sum"))
        if x.op == "mul":
            return r"%s \cdot %s" % (go(x.left, "prod"), go(x.right, "prod"))
        sym = "+" if x.op == "add" else "-"
        # the right operand of "-" must bind at least as tightly as a product
        s = "%s %s %s" % (go(x.left, "sum"), sym, go(x.right, "prod" if x.op == "sub" else "sum"))
        return r"\left(%s\right)" % s if ctx == "prod" else s

    return go(e, "sum")


def _fmt_num(v: float) -> str:
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_json(e: Expr) -> dict:
    if isinstance(e, Const):
        return {"kind": "const", "value": e.value}
    if isinstance(e, Var):
        return {"kind": "var", "name": e.name}
    return {"kind": e.op, "left": to_json(e.left), "right": to_json(e.right)}

