import operator
import types
from fractions import Fraction
from functools import reduce

import numpy as np

from bondc import expr as ex

import families

# perfbench's family generators shuffle their models' parts; this rng keeps them as written
_IN_ORDER = types.SimpleNamespace(shuffle=lambda parts: None)


def family_source(family, k):
    """The model text of ``perfbench/families.py``'s ``family`` at size k, parts in order."""
    return getattr(families, family)(k, _IN_ORDER)


def cube_edges(d):
    """The edges of the d-cube, on vertices 0 .. 2^d - 1."""
    return [(v, v | 1 << i) for v in range(2**d) for i in range(d) if not v >> i & 1]


def bond_graph_source(edges):
    """A model whose one reaction, on site go, releases binders v0, v1, ... bonded
    by one atom (e@x.0 + e@y.0) per edge: its product is labelled as the graph."""
    n = 1 + max(max(e) for e in edges)
    atoms = " | ".join(f"(e@v{x}.0 + e@v{y}.0)" for x, y in edges)
    binders = ",".join(f"v{v}" for v in range(n))
    return (
        f"species Q = go.(new {binders} in ({atoms}));\n"
        "affinity { go at MA(1.0); }\nmixture { 1 Q }\n"
    )


def rational_left_nullspace(rows):
    """Basis of {v : v @ M == 0} for an integer matrix given as rows.

    M has one row per reaction (stoichiometry vectors); a left-null vector of
    M^T -- i.e. a null vector of the column space -- is a conserved linear
    combination of species.  Exact Fraction arithmetic, Gaussian elimination.
    """
    if not rows:
        return []
    n = len(rows[0])
    # solve M v = 0 where rows of M are the reaction stoichiometries
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


def stoichiometry(r, n_primes):
    """A reaction's dense stoichiometry: per prime, products minus reactants."""
    nu = [0] * n_primes
    for i in r.reactants:
        nu[i] -= 1
    for i in r.products:
        nu[i] += 1
    return nu


def mean_std(runs):
    """Pointwise mean and standard deviation of SSA level counts across runs."""
    stack = np.stack([r.levels for r in runs]).astype(float)
    return runs[0].t, stack.mean(axis=0), stack.std(axis=0, ddof=1)


def evaluate(e, env):
    """The value of an expression tree at ``env``, walked node by node.

    The reference that ``ex.compile_exprs``'s generated code must match bit
    for bit: 0/0 is 0, and x/0 with x != 0 raises DomainError.
    """
    if isinstance(e, ex.Const):
        return e.value
    if isinstance(e, ex.Var):
        return env[e.name]
    a = evaluate(e.left, env)
    b = evaluate(e.right, env)
    if e.op == "add":
        return a + b
    if e.op == "sub":
        return a - b
    if e.op == "mul":
        return a * b
    if b == 0.0 and a != 0.0:
        raise ex.DomainError("division by zero")
    return a / b if b else 0.0


def total_value(form, env):
    """The value at ``env`` of a cluster total given as (prime, multiplicity) pairs: its
    terms m*x added left to right, as ``ex.total`` adds them."""
    return reduce(operator.add, (float(m) * env[p] for p, m in form))


def with_totals(rs, env):
    """``env``, a value per prime of ``rs``, and the ``total_value`` of each of ``rs.totals``."""
    return {**env, **{t: total_value(form, env) for t, form in rs.totals.items()}}


def evaluate_rate(rs, e, env):
    """``evaluate`` of an expression over ``rs``'s primes and named totals, such as a
    rate or a derivative, at ``env``, a value per prime: it reads each total's value."""
    return evaluate(e, with_totals(rs, env))
