"""Symbolic rate expressions.

Reaction rates and ODE right hand sides are built from a tiny expression
language with node kinds const/var/add/sub/mul/div.  The smart constructors
fold constants eagerly so that e.g. mass-action rates come out as plain
monomials; one to a non-finite value raises ``NonFinite``, so no walker looks
for one.  Division follows the continuous extension 0/0 = 0 used by the rate
semantics; x/0 with x != 0 is a domain error, when it folds or is evaluated.
One ``fold`` walks every tree, left operands in a loop, so a long sum does
not nest the stack.  ``compile_exprs`` generates what both simulators share:
each named total and shared sub-expression computed once, division guarded
inline, and every long sum by one rule, ``long_sum``.  ``ode.compile_field``
and ``ssa.compile_updaters`` own what their code does with each value.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TypeVar, Union


class DomainError(ValueError):
    """A rate expression left its domain (division blow-up)."""

    code = "DOMAIN"


class NonFinite(DomainError):
    """A constant fold whose value is not finite."""


class Const(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str


class Bin(NamedTuple):
    op: str  # "add" | "sub" | "mul" | "div"
    left: "Expr"
    right: "Expr"


Expr = Union[Const, Var, Bin]
T = TypeVar("T")

ZERO = Const(0.0)
ONE = Const(1.0)


def const(v: float) -> Const:
    return Const(float(v))


def _folded(op: str, v: float) -> Const:  # the value of a fold at op, which must be finite
    if not math.isfinite(v):
        raise NonFinite(f"folding constants at '{op}' gives a non-finite value")
    return Const(v)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _folded("+", a.value + b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Bin("add", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _folded("-", a.value - b.value)
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Bin("sub", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _folded("*", a.value * b.value)
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
            return _folded("/", a.value / b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return ZERO
    if a == b:
        # x/x is only used for cancellation factors, where 0/0 := 0 would
        # apply anyway on the support boundary; folding to 1 matches the
        # continuous extension on the interior and keeps rates tidy.
        return ONE
    return Bin("div", a, b)


def prod(factors: Iterable[Expr]) -> Expr:
    return reduce(mul, factors, ONE)


def total(terms: Iterable[Expr]) -> Expr:
    return reduce(add, terms, ZERO)


def fold(e: Expr, leaf: Callable[[Expr], T], node: Callable[[Bin, T, T], T]) -> T:
    """Fold ``e`` post-order, left operand before right: ``leaf(x)`` at a Const or Var,
    ``node(x, a, b)`` at a Bin x whose operands fold to a and b.  Left operands are walked
    in a loop and only right ones recursed on, so a long sum does not deepen the stack."""
    spine = []
    while isinstance(e, Bin):
        spine.append(e)
        e = e.left
    out = leaf(e)
    while spine:
        x = spine.pop()
        r = x.right
        out = node(x, out, fold(r, leaf, node) if isinstance(r, Bin) else leaf(r))
    return out


def substitute(e: Expr, env: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions, refolding along the way."""
    ops = {"add": add, "sub": sub, "mul": mul, "div": div}

    def leaf(x: Expr) -> Expr:
        return env.get(x.name, x) if isinstance(x, Var) else x

    return fold(e, leaf, lambda x, a, b: ops[x.op](a, b))


def variables(e: Expr) -> set[str]:
    return fold(e, lambda x: {x.name} if isinstance(x, Var) else set(), lambda x, a, b: a | b)


def division_by_zero(label: str) -> DomainError:
    """The error for a rate of the reaction ``label`` that divides x != 0 by 0."""
    return DomainError(f"rate evaluation failed for reaction '{label}': division by zero")


def non_finite(label: str) -> DomainError:
    """The error for a rate of the reaction ``label`` that is not finite."""
    return DomainError(
        f"non-finite rate for reaction '{label}' (kinetic law evaluated outside its domain)"
    )


def compile_exprs(exprs: list[Expr], var: Mapping[str, str], totals, defs: list, env: dict) -> list:
    """Compile expressions into straight-line Python functions, generated in one exec.

    Values are bit-identical to a tree walk (tests/conftest.py ``evaluate``).
    ``var`` gives each variable's text, and ``totals`` each other's (variable, multiplicity)
    pairs: its terms m*x summed left to right, as ``total`` adds.  Each (params, js, assign,
    tail) of ``defs`` is one function of ``params`` that computes each expression j of js as
    the line ``assign(j, text)``, then runs the ``tail`` lines; ``env`` holds the globals
    they read.  Within a function a sub-expression used more than once (or a variable's
    compound text, or a total) is computed once, before the first expression using it (which
    a failing division in it names); division is guarded inline, calling slow(j, None) only
    for an x/0.
    """
    var, sums = dict(var), {}  # each total's text s<k>, and the lines computing it
    for k, (t, form) in enumerate(totals.items()):
        var[t] = f"s{k}"
        terms = ["+" + f"{float(m)!r}*" * (m != 1) + var[x] for x, m in form]
        sums[var[t]] = long_sum(var[t], terms)
    prec = {"add": 1, "sub": 1, "mul": 2}  # a division's conditional stays grouped
    sym = {"add": "+", "sub": "-", "mul": "*"}
    nodes: dict = {}  # each compound (op, left, right) to its number, which keys it cheaply

    def leaf(x: Expr) -> str:
        return repr(x.value) if isinstance(x, Const) else var[x.name]

    roots = [  # a leaf's text or a compound's number: equal values are bit-identical
        fold(e, leaf, lambda x, a, b: nodes.setdefault((x.op, a, b), len(nodes))) for e in exprs
    ]
    node = list(nodes)

    def statements(js: Sequence[int], assign: Callable[[int, str], str]) -> list[str]:
        """Lines computing each expression j of js as the line ``assign(j, text)``."""
        uses: dict = {}  # occurrences of compounds and compound leaves, not inside a repeat

        def count(v) -> None:  # right operands recursed on, left ones in a loop
            while isinstance(v, int) or v[0] == "(":
                uses[v] = uses.get(v, 0) + 1
                if uses[v] > 1 or isinstance(v, str):
                    return
                count(node[v][2])
                v = node[v][1]

        for j in js:
            count(roots[j])
        names, lines, unsummed = {}, [], dict(sums)  # hoisted locals, lines, totals not summed

        def emit(v, j: int, atom: bool = False) -> str:  # hoisting post-order
            spine = [(v, atom)]  # v and the compounds down its left operands, each atom or not
            while isinstance(v, int) and v not in names:
                op, v, _ = node[v]
                spine.append((v, op == "div"))
            for v, atom in reversed(spine):
                if isinstance(v, str) or v in names:
                    lines.extend(unsummed.pop(v, ()))  # a total's lines, where it is first read
                    text = names.get(v, v)
                elif node[v][0] == "div":  # of atoms: the text reads each operand more than once
                    a, b = text, emit(node[v][2], j, True)
                    text = f"({a}/{b} if {b} else 0.0 if {a} == 0.0 else slow({j}, None))"
                else:  # ungrouped: a left operand binding as tightly, a right one binding more
                    op, l, r = node[v]
                    a, b = text, emit(r, j)
                    if isinstance(l, int) and a[0] == "(" and prec.get(node[l][0], 0) >= prec[op]:
                        a = a[1:-1]
                    if isinstance(r, int) and b[0] == "(" and prec.get(node[r][0], 0) > prec[op]:
                        b = b[1:-1]
                    text = f"({a}{sym[op]}{b})"
                # a compound's text starts with "(", a hoisted name's or a constant's does not
                if v not in names and (uses.get(v, 0) > 1 or atom and text[0] == "("):
                    names[v] = f"t{len(names)}"
                    lines.append(f" {names[v]} = {text}")
                    text = names[v]
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


def long_sum(name: str, signed: list[str]) -> list[str]:
    """Lines setting ``name`` to the sum of the ``signed`` terms ('+x' or '-x') left to right,
    as ``total`` adds, in statements of at most 256 terms, each continuing the last."""
    chunks = ("".join(signed[k : k + 256]) for k in range(0, len(signed), 256))
    return [f" {name} = {(name * (k > 0) + c).lstrip('+')}" for k, c in enumerate(chunks)]


def render(e: Expr, var_fmt: Callable[[str], str] = lambda n: n, latex: bool = False) -> str:
    """Render with minimal parentheses, deterministic.  As LaTeX they are \\left( \\right),
    and a quotient is a \\frac: sums and products group as in text, so one rule serves both."""
    prec = {"add": 1, "sub": 1, "mul": 2, "div": 2}  # a leaf's is 3
    sym = {"add": " + ", "sub": " - ", "mul": r" \cdot " if latex else "*", "div": "/"}
    paren = r"\left(%s\right)" if latex else "(%s)"

    def leaf(x: Expr) -> tuple:
        return _fmt_num(x.value) if isinstance(x, Const) else var_fmt(x.name), 3

    def node(x: Bin, left: tuple, right: tuple) -> tuple:  # (text, precedence) of each
        (a, pa), (b, pb), p = left, right, prec[x.op]
        if latex and x.op == "div":
            return r"\frac{%s}{%s}" % (a, b), p
        # a right operand is parenthesized on ties for the non-associative ops
        b = paren % b if pb < p or pb == p and x.op in ("sub", "div") else b
        return (paren % a if pa < p else a) + sym[x.op] + b, p

    return fold(e, leaf, node)[0]


def _fmt_num(v: float) -> str:
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_json(e: Expr) -> dict:
    def leaf(x: Expr) -> dict:
        if isinstance(x, Const):
            return {"kind": "const", "value": x.value}
        return {"kind": "var", "name": x.name}

    return fold(e, leaf, lambda x, a, b: {"kind": x.op, "left": a, "right": b})
