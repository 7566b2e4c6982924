"""Expected outputs, written without calling bondc.

Counts come from closed forms or from counting the species of each corpus
model by hand; the Kuznetsov reference trajectory comes from a hand-written
right-hand side integrated by scipy.  Where ROADMAP item 1 (a true canonical
form that folds a prime equal to the unfolding of a parameterless
definition back to its ``Call``) changes a count, both the count before and
after that fold-back are accepted.
"""

from __future__ import annotations

from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# The corpus workload runs exactly these models.
# model -> accepted (primes, reactions) pairs, counted by hand:
CORPUS = {
    "broken_arity.bond": None,  # must fail with error[ARITY]
    # S, E, P; s||e and p decay
    "mm.bond": {(3, 2)},
    # S, E, P, complex E:S; bind, unbind, release P, p decay
    "enzyme.bond": {(4, 4)},
    # A, B, E, P, Q; one ternary a||b||e
    "pingpong.bond": {(5, 1)},
    # A, A:A; bind, unbind
    "dimer.bond": {(2, 2)},
    # A, A:A:A; bind, unbind
    "trimer.bond": {(2, 2)},
    # B, Ba:Bb; bind, unbind
    "monomer_twosite.bond": {(2, 2)},
    # S, E, I, P, E:S, E:I, and E's unfolding (SiteA|SiteB) as a separate
    # prime until the fold-back; each binding then matches both forms of E
    # (2+2), plus unbind S, release P, unbind I, p decay.  After fold-back:
    # 6 primes and 1+1+4 reactions.
    "inhibitor.bond": {(7, 8), (6, 6)},
    # EC, TC, IS, EC:TC; spawn, bind, growth (one per consumeResources
    # holder: TC and EC:TC), unbind, kill, deplete, EC death
    "kuznetsov.bond": {(4, 8)},
}

MM_ODES_TEXT = (DATA / "mm_odes.txt").read_text(encoding="utf-8")


def scaffold_primes(k: int) -> set[int]:
    # 2^k occupancy states + k free ligands + the Sc call (gone after fold-back)
    return {2**k + k + 1, 2**k + k}


def witness_primes(k: int) -> set[int]:
    return {2, 1}


def bank_counts(k: int) -> tuple[int, int]:
    return 3 * k + 1, 4 * k


# Wrong answers at the seed commit, recorded exactly: (family, k) -> observed
# primes.  A check that fails with exactly this value is counted in
# wrong_frac and printed, but does not make the run incorrect; any other
# wrong value does.
KNOWN_DEFECTS = {("scaffold", 2): 12, ("scaffold", 3): 26, ("scaffold", 4): 56}
KNOWN_DEFECT_REASON = (
    "ROADMAP item 1: normalize captures binders, so ligands torn off while "
    "still bound accumulate as extra primes"
)


# --- Kuznetsov tumour-immune model (models/kuznetsov.bond) by hand ----------
#
# Species order: EC, TC, IS, C = (new l in (EC'(l) | TC'(l))).  Rates:
#   spawn   13000 + 2.49e7 C / (2.019e7 + TC)         -> +EC
#   bind    3e-7 EC TC                                 EC + TC -> C
#   growth  0.18 TC (1 - 2e-9 (TC + C))                -> +TC
#   unbind  6.3186 C                                   C -> EC + TC
#   kill    3.67 C                                     C -> EC
#   deplete 0.0114 C                                   C -> TC
#   death   0.15 EC                                    EC -> 0

KUZNETSOV_X0 = (5e5, 1e8, 1.0, 0.0)
_K_OFF = 6.3186 + 3.67 + 0.0114


def kuznetsov_rhs(t, x):
    ec, tc, _, c = x
    bind = 3e-7 * ec * tc
    return [
        13000.0 + 2.49e7 * c / (2.019e7 + tc) - bind + (6.3186 + 3.67) * c - 0.15 * ec,
        -bind + 0.18 * tc * (1.0 - 2e-9 * (tc + c)) + (6.3186 + 0.0114) * c,
        0.0,
        bind - _K_OFF * c,
    ]


def kuznetsov_jac(t, x):
    ec, tc, _, c = x
    g = 2.019e7 + tc
    return [
        [-3e-7 * tc - 0.15, -3e-7 * ec - 2.49e7 * c / g**2, 0.0, 2.49e7 / g + 6.3186 + 3.67],
        [
            -3e-7 * tc,
            -3e-7 * ec + 0.18 - 0.72e-9 * tc - 0.36e-9 * c,
            0.0,
            -0.36e-9 * tc + 6.3186 + 0.0114,
        ],
        [0.0, 0.0, 0.0, 0.0],
        [3e-7 * tc, 3e-7 * ec, 0.0, -_K_OFF],
    ]


def kuznetsov_reference(t_eval):
    """Radau at tight tolerance; None when scipy is not installed."""
    try:
        from scipy.integrate import solve_ivp
    except ImportError:
        return None
    sol = solve_ivp(
        kuznetsov_rhs,
        (0.0, float(t_eval[-1])),
        KUZNETSOV_X0,
        method="Radau",
        t_eval=t_eval,
        rtol=1e-8,
        atol=1e-3,
        jac=kuznetsov_jac,
    )
    if sol.status != 0:
        raise RuntimeError(f"Radau reference failed: {sol.message}")
    return sol.y.T
