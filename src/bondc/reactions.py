"""Mixture-level semantics: reachable primes and reaction extraction.

Reactions are found by matching each affinity pattern's clusters against the
ambient transitions of the reachable primes, slot by slot.  A ``PrimeIndex``
owns the transition system, pruned to the model's clusters (see
``transitions``), and a match index that groups each prime's ambient
transitions by cluster: they are computed once, when the prime is first
matched, and kept in table order, which depends only on the canonical prime.
The index is built once, by ``reachable_primes``, and serves extraction too.
The reachable-prime fixpoint is semi-naive (Bancilhon & Ramakrishnan, 1986):
an affinity entry re-evaluates only the tuples holding a prime found since
its last evaluation, since the others' products are already indexed.  A
tuple's product is its colocated targets, committed and normalized once (by
``primes``); it is memoized, so extraction does not colocate or normalize.
Tuples are visited in the same order either way, so prime numbering does
not depend on any of this.  The rate of a matched tuple is the kinetic law
applied to the total cluster concentrations, divided by those concentrations
and multiplied back by each participant's own contribution; a slot whose
cluster is matched by a single (prime, transition) pair cancels exactly.  Repeated clusters in a pattern contribute the standard
1/multiplicity! symmetry correction, so e.g. a homodimerization under
mass-action k fires at (1/2) k [A]^2.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from . import expr as ex
from .congruence import primes, serialize
from .terms import AffinityEntry, Call, Cluster, Model, Species
from .transitions import Transition, TransitionSystem, colocate, commit


class UnboundedError(RuntimeError):
    code = "UNBOUNDED"

    def __init__(self, cap: int):
        super().__init__(
            f"more than {cap} reachable prime species; the model may generate "
            "an unbounded species set (polymerisation-like behaviour)"
        )


class Match(NamedTuple):
    """One matched slot: a prime's ambient transition and its multiplicity."""

    prime: int
    pos: int  # position among the prime's ambient transitions, in table order
    tr: Transition
    mult: int


@dataclass
class PrimeIndex:
    """Reachable canonical primes in deterministic discovery order.

    It owns the transition system the primes are matched under, the match
    index and the products of the matched tuples evaluated so far.
    """

    ts: TransitionSystem = field(repr=False, compare=False)
    primes: list[Species] = field(default_factory=list)
    names: list[str] = field(default_factory=list)
    by_name: dict[str, int] = field(default_factory=dict)
    _by_cluster: dict[Cluster, list[Match]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _n_matched: int = field(default=0, repr=False, compare=False)
    _products: dict[tuple[tuple[int, int], ...], tuple[int, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def add(self, p: Species) -> tuple[int, bool]:
        key = serialize(p)
        idx = self.by_name.get(key)
        if idx is not None:
            return idx, False
        idx = len(self.primes)
        self.primes.append(p)
        self.names.append(key)
        self.by_name[key] = idx
        return idx, True

    def index_of(self, p: Species) -> int:
        return self.by_name[serialize(p)]

    def __len__(self) -> int:
        return len(self.primes)

    def matches(self) -> dict[Cluster, list[Match]]:
        """Every prime's ambient transitions, grouped by cluster.

        Each list runs in prime order, and within a prime in table order.
        Only primes added since the last call are matched afresh.
        """
        for i in range(self._n_matched, len(self.primes)):
            for pos, (tr, m) in enumerate(self.ts.ambient(self.primes[i]).items()):
                self._by_cluster.setdefault(tr.cluster, []).append(Match(i, pos, tr, m))
        self._n_matched = len(self.primes)
        return self._by_cluster

    def products(self, combo: tuple[Match, ...]) -> tuple[int, ...]:
        """Indices of the primes a tuple from ``matches`` produces, adding new ones."""
        key = tuple((mt.prime, mt.pos) for mt in combo)
        hit = self._products.get(key)
        if hit is None:
            target = None
            for mt in combo:
                target = mt.tr.target if target is None else colocate(target, mt.tr.target)
            hit = tuple(self.add(p)[0] for p in primes(commit(target)))
            self._products[key] = hit
        return hit


@dataclass(frozen=True)
class Reaction:
    reactants: tuple[int, ...]  # sorted prime indices, with repetition
    products: tuple[int, ...]
    rate: ex.Expr
    provenance: str

    def stoichiometry(self, n_primes: int) -> list[int]:
        nu = [0] * n_primes
        for i in self.reactants:
            nu[i] -= 1
        for i in self.products:
            nu[i] += 1
        return nu


@dataclass
class ReactionSystem:
    index: PrimeIndex
    reactions: list[Reaction]

    @property
    def prime_names(self) -> list[str]:
        return self.index.names


def initial_mixture(model: Model, index: PrimeIndex) -> list[float]:
    """Initial concentration vector over the prime index."""
    x = [0.0] * len(index)
    for conc, name in model.mixture:
        for p in primes(Call(name, ())):
            x[index.index_of(p)] += conc
    return x


def reachable_primes(
    model: Model, cap: int = 512, ts: Optional[TransitionSystem] = None
) -> PrimeIndex:
    """Least fixpoint of the initial primes under all affinity reactions.

    ``ts`` defaults to the transition system pruned to the model's clusters.
    """
    if ts is None:
        clusters = [c for entry in model.affinity for c in entry.pattern]
        ts = TransitionSystem(model.species, clusters=clusters)
    index = PrimeIndex(ts)
    for conc, name in model.mixture:
        for p in primes(Call(name, ())):
            index.add(p)
    if len(index) > cap:
        raise UnboundedError(cap)

    # prime count when each entry was last evaluated: tuples of older primes
    # only were evaluated then, so their products are indexed already
    seen = [0] * len(model.affinity)
    while any(s < len(index) for s in seen):
        for e, entry in enumerate(model.affinity):
            by_cluster = index.matches()
            old, seen[e] = seen[e], len(index)
            slot_lists = [by_cluster.get(c, []) for c in entry.pattern]
            for combo in itertools.product(*slot_lists):
                if all(mt.prime < old for mt in combo):
                    continue
                index.products(combo)
                if len(index) > cap:
                    raise UnboundedError(cap)
    return index


def cluster_concentrations(index: PrimeIndex) -> dict[Cluster, ex.Expr]:
    """Per-cluster total concentration as a linear form over prime variables."""
    out: dict[Cluster, ex.Expr] = {}
    for cluster, ms in index.matches().items():
        coeffs: Counter = Counter()
        for mt in ms:
            coeffs[mt.prime] += mt.mult
        out[cluster] = ex.total(
            ex.mul(ex.const(mult), ex.Var(index.names[i]))
            for i, mult in sorted(coeffs.items())
        )
    return out


def _entry_provenance(entry: AffinityEntry) -> str:
    pat = " || ".join("&".join(c) for c in entry.pattern)
    params = ",".join(ex._fmt_num(v) for v in entry.law_params)
    return f"{pat} at {entry.law_name}({params})"


def extract_reactions(model: Model, index: PrimeIndex) -> ReactionSystem:
    by_cluster = index.matches()
    conc = cluster_concentrations(index)
    reactions: list[Reaction] = []
    merged: dict[tuple[tuple[int, ...], tuple[int, ...], str], int] = {}

    for entry in model.affinity:
        law = model.laws[entry.law_name]
        prov = _entry_provenance(entry)
        slot_lists = [by_cluster.get(c, []) for c in entry.pattern]
        if any(not ms for ms in slot_lists):
            model.warnings.append(f"affinity entry '{prov}' matches no species")
            continue
        sym = 1
        for _, count in Counter(entry.pattern).items():
            sym *= math.factorial(count)
        a_exprs = [conc[c] for c in entry.pattern]

        for combo in itertools.product(*slot_lists):
            reactants = tuple(sorted(mt.prime for mt in combo))
            products = tuple(sorted(index.products(combo)))
            try:
                rate = _tuple_rate(law, entry.law_params, combo, slot_lists, a_exprs, index)
            except ex.DomainError:  # the law folded a constant x/0
                raise ex.division_by_zero(prov) from None
            if sym != 1:
                rate = ex.mul(ex.const(1.0 / sym), rate)
            key = (reactants, products, prov)
            if key in merged:
                r = reactions[merged[key]]
                reactions[merged[key]] = Reaction(
                    r.reactants, r.products, ex.add(r.rate, rate), r.provenance
                )
            else:
                merged[key] = len(reactions)
                reactions.append(Reaction(reactants, products, rate, prov))

    return ReactionSystem(index, reactions)


def _tuple_rate(
    law,
    params: tuple[float, ...],
    combo: tuple[Match, ...],
    slot_lists: list[list[Match]],
    a_exprs: list[ex.Expr],
    index: PrimeIndex,
) -> ex.Expr:
    if law.variadic:
        # mass action: f(a_1..a_m)/prod(a_j) == k, so every slot reduces to
        # its own participant's contribution and the rate is a monomial
        factors: list[ex.Expr] = [ex.const(params[0])]
        for mt in combo:
            factors.append(ex.mul(ex.const(mt.mult), ex.Var(index.names[mt.prime])))
        return ex.prod(factors)
    rate = law.apply(params, a_exprs)
    for j, mt in enumerate(combo):
        if len(slot_lists[j]) == 1:
            continue  # sole match: (mult * x_i) / a_j == 1 exactly
        share = ex.mul(ex.const(mt.mult), ex.Var(index.names[mt.prime]))
        rate = ex.mul(rate, ex.div(share, a_exprs[j]))
    return rate


def build_reaction_system(model: Model, cap: int = 512) -> ReactionSystem:
    return extract_reactions(model, reachable_primes(model, cap))


def reaction_system_json(rs: ReactionSystem) -> dict:
    return {
        "primes": rs.prime_names,
        "reactions": [
            {
                "reactants": list(r.reactants),
                "products": list(r.products),
                "rate": ex.to_json(r.rate),
                "provenance": r.provenance,
            }
            for r in rs.reactions
        ],
    }
