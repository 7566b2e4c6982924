from fractions import Fraction

import numpy as np

from bondc import expr as ex


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
