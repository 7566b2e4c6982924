"""Symbolic rate expressions.

Reaction rates and ODE right hand sides are built from a tiny expression
language with node kinds const/var/add/sub/mul/div.  The smart constructors
fold constants eagerly so that e.g. mass-action rates come out as plain
monomials.  Division follows the continuous extension 0/0 = 0 used by the
rate semantics; x/0 with x != 0 is a domain error at evaluation time.  The
compiled form computes shared sub-expressions once and guards division inline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Union


class DomainError(ValueError):
    """A rate expression left its domain (division blow-up)."""

    code = "DOMAIN"


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Bin:
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


def compile_exprs(
    exprs: list[Expr],
    labels: list[str],
    var_index: Mapping[str, int] | Iterable[str],
    sums: Optional[list[list[tuple[int, int]]]] = None,
    h: Optional[float] = None,
):
    """Compile expressions into straight-line Python, generated in one exec.

    Values are bit-identical to a tree walk (tests/conftest.py ``evaluate``),
    but a DomainError names the label (one per expression) of the expression
    that failed.  ``var_index`` maps variable names to argument positions, as
    a mapping or as an ordered sequence of names.  With ``sums`` (per output,
    its (coefficient, expression index) terms) the result is one function of a
    value vector that computes each value once, raises DomainError unless all
    are finite, and returns the sums.  With a level size ``h`` instead, it is a
    list of functions, one per expression, of integer levels n, giving
    e(n*h)/h.
    Within a function a sub-expression used more than once is computed once,
    before the first expression using it (which a failing division in it
    names); division is guarded inline, with a call only to raise for x/0.
    """
    if not isinstance(var_index, Mapping):
        var_index = {n: i for i, n in enumerate(var_index)}
    var = "c[{}]" if h is None else f"(n[{{}}]*{h!r})"

    def value(e: Expr):  # a leaf's text or (op, left, right): equal values are bit-identical
        if isinstance(e, Bin):
            return (e.op, value(e.left), value(e.right))
        return repr(e.value) if isinstance(e, Const) else var.format(var_index[e.name])

    roots = [value(e) for e in exprs]

    def statements(js: list[int], assign: str) -> list[str]:
        """Lines computing each expression j of js as ``assign.format(j=j, text=...)``."""
        uses: dict = {}  # compound occurrences, not counting those inside a repeated one

        def count(v) -> None:
            if isinstance(v, tuple):
                uses[v] = uses.get(v, 0) + 1
                if uses[v] == 1:
                    count(v[1])
                    count(v[2])

        for j in js:
            count(roots[j])
        names, lines = {}, []  # the local of each value hoisted; the lines computing them

        def emit(v, j: int, atom: bool = False) -> str:
            if v in names:
                return names[v]
            if isinstance(v, str):
                text = v
            elif v[0] == "div":  # of atoms: the text reads each operand more than once
                a, b = emit(v[1], j, True), emit(v[2], j, True)
                text = f"({a}/{b} if {b} else 0.0 if {a} == 0.0 else _gdiv({j}))"
            else:
                op = {"add": "+", "sub": "-", "mul": "*"}[v[0]]
                text = f"({emit(v[1], j)}{op}{emit(v[2], j)})"
            if uses.get(v, 0) > 1 or atom and text[0] == "(":  # names and constants lack "("
                names[v] = f"t{len(names)}"
                lines.append(f" {names[v]} = {text}")
                return names[v]
            return text

        for j in js:
            lines.append(assign.format(j=j, text=emit(roots[j], j)))  # after emit's own lines
        return lines

    def gdiv(j: int) -> float:  # x/0 with x != 0 raises
        raise division_by_zero(labels[j])

    def check(v: tuple) -> None:  # v sums to a non-finite value: name the first non-finite rate
        for j, r in enumerate(v):
            if not math.isfinite(r):
                raise non_finite(labels[j])

    def chain(name: str, signed: list[str]) -> list[str]:
        # at most 256 terms per statement keep the compiler's recursion shallow
        return [
            f" {name} {'+' * (k > 0)}= {''.join(signed[k : k + 256]).lstrip('+')}"
            for k in range(0, len(signed), 256)
        ]

    if h is not None:
        lines, fs = [], []  # a function needs a def only for its locals
        for j in range(len(exprs)):
            *body, ret = statements([j], f"{{text}}/{h!r}")
            lines += [f"def f{j}(n):", *body, f" return {ret}"] if body else []
            fs.append(f"f{j}" if body else f"lambda n: {ret}")
        lines.append(f"f = [{', '.join(fs)}]")
    else:
        rates = [f"r{j}" for j in range(len(exprs))]
        lines = ["def f(c):", *statements(list(range(len(exprs))), " r{j} = {text}")]
        if rates:
            lines += chain("v", ["+" + r for r in rates])
            lines.append(f" if not isfinite(v): check(({','.join(rates)},))")
        for i, terms in enumerate(sums):
            signed = ["-+"[nu > 0] + f"{abs(nu)}*" * (abs(nu) != 1) + f"r{j}" for nu, j in terms]
            lines += chain(f"d{i}", signed)
        lines.append(f" return [{', '.join(f'd{i}' if ts else '0.0' for i, ts in enumerate(sums))}]")
    env = {"_gdiv": gdiv, "isfinite": math.isfinite, "check": check}
    env.update(inf=math.inf, nan=math.nan)  # repr() of non-finite constants
    exec("\n".join(lines), env)  # noqa: S102 - generated source
    return env["f"]


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
        # right operand needs parens on ties for the non-associative ops
        if rp < prec(x) or (rp == prec(x) and x.op in ("sub", "div")):
            rs = f"({rs})"
        return f"{ls}{sym}{rs}"

    return go(e)


def render_latex(e: Expr, var_fmt: Callable[[str], str] = lambda n: n) -> str:
    def go(x: Expr, ctx: str) -> str:
        # ctx "sum": sums may appear bare; ctx "prod": sums need parentheses
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

