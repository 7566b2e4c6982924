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
its last evaluation, since the others' products are already indexed; a
tuple whose other slots hold old primes only takes the last slot's new ones,
and an entry with no new match in any slot is skipped.
A tuple's product is its targets joined in one flat ``Par`` (``colocate``),
committed and normalized once (by ``primes``), which also canonicalizes an
open target the table left raw; when every target is closed, each is a
normal form already, and the product is the sorted union of their primes.
It is memoized, so extraction does not colocate or normalize.  Tuples are
visited in the same order either way, so prime numbering does not depend on
any of this.  The rate of a matched tuple is the kinetic law applied to the
total cluster concentrations, divided by those concentrations and multiplied
back by each participant's own contribution, by one rule for every slot: for
a slot whose cluster is matched by a single (prime, transition) pair,
share/total is x/x, which ``expr.div`` folds to exactly 1.  The law is
applied once per entry, and the totals are built only for a law that reads
them: mass action does not.  Repeated clusters in a pattern contribute the
standard 1/multiplicity! symmetry correction, so e.g. a homodimerization
under mass-action k fires at (1/2) k [A]^2.  Tuples with equal reactants,
products and entry sum into one reaction; a non-finite constant in a rate is
an error.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from operator import attrgetter
from typing import NamedTuple, Optional

from . import expr as ex
from .congruence import parts, primes, serialize
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


class PrimeIndex:
    """Reachable canonical primes in deterministic discovery order.

    It owns the transition system the primes are matched under, the match
    index and the products of the matched tuples evaluated so far.
    """

    def __init__(self, ts: TransitionSystem):
        self.ts = ts
        self.primes: list[Species] = []
        self.names: list[str] = []
        self._ids: dict[Species, int] = {}  # canonical terms compare as tuples
        self._by_cluster: dict[Cluster, list[Match]] = {}
        self._n_matched = 0
        self._products: dict[tuple[tuple[int, int], ...], tuple[int, ...]] = {}

    def add(self, p: Species) -> tuple[int, bool]:
        idx = self._ids.get(p)
        if idx is not None:
            return idx, False
        idx = self._ids[p] = len(self.primes)
        self.primes.append(p)
        self.names.append(serialize(p))
        return idx, True

    def index_of(self, p: Species) -> int:
        return self._ids[p]

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
            targets = [mt.tr.target for mt in combo]
            if all(f.arity == 0 for f in targets):
                # closed targets are normal forms: the product's primes are theirs, merged
                ps = [p for f in targets for p in parts(f.body)]  # sorted within each target
                if len(targets) > 1:
                    ps.sort(key=serialize)
            else:
                ps = primes(commit(colocate(*targets)))
            hit = tuple(self.add(p)[0] for p in ps)
            self._products[key] = hit
        return hit


class Reaction(NamedTuple):
    reactants: tuple[int, ...]  # sorted prime indices, with repetition
    products: tuple[int, ...]
    rate: ex.Expr
    provenance: str

    @property
    def jumps(self) -> list[tuple[int, int]]:
        """The sparse stoichiometry: sorted (prime index, net change) pairs, zeros left out."""
        nu = Counter(self.products)
        nu.subtract(self.reactants)
        return sorted((i, d) for i, d in nu.items() if d)


class ReactionSystem(NamedTuple):
    index: PrimeIndex
    reactions: list[Reaction]
    warnings: list[str]  # the compile's, such as an affinity entry that matches no species

    @property
    def prime_names(self) -> list[str]:
        return self.index.names


def initial_mixture(model: Model, index: PrimeIndex) -> list[float]:
    """Initial concentration vector over the prime index; a non-finite sum is a DomainError."""
    x = [0.0] * len(index)
    for conc, name in model.mixture:
        x[index.index_of(Call(name, ()))] += conc
    for name, c in zip(index.names, x):
        if not math.isfinite(c):
            raise ex.DomainError(f"the mixture's concentrations of '{name}' sum to {c:g}")
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
    for conc, name in model.mixture:  # a call is its own normal form, and one prime
        index.add(Call(name, ()))
    if len(index) > cap:
        raise UnboundedError(cap)

    # prime count when each entry was last evaluated: tuples of older primes
    # only were evaluated then, so their products are indexed already
    seen = [0] * len(model.affinity)
    while any(s < len(index) for s in seen):
        for e, entry in enumerate(model.affinity):
            by_cluster = index.matches()
            old, seen[e] = seen[e], len(index)
            *heads, last = slots = [by_cluster.get(c, []) for c in entry.pattern]
            if all(not ms or ms[-1].prime < old for ms in slots):
                continue  # no slot has a new match: each list runs in prime order
            # so an all-old head takes only the last slot's new matches
            new = last[bisect.bisect_left(last, old, key=attrgetter("prime")) :]
            for head in itertools.product(*heads):
                for mt in last if any(h.prime >= old for h in head) else new:
                    index.products((*head, mt))
                    if len(index) > cap:
                        raise UnboundedError(cap)
    return index


def cluster_concentrations(index: PrimeIndex) -> dict[Cluster, ex.Expr]:
    """Per-cluster total concentration as a linear form over prime variables."""
    out: dict[Cluster, ex.Expr] = {}
    for cluster, ms in index.matches().items():
        coeffs: Counter = Counter()  # in prime order, as ms runs: a Counter keeps insertion order
        for mt in ms:
            coeffs[mt.prime] += mt.mult
        terms = (ex.mul(ex.const(m), ex.Var(index.names[i])) for i, m in coeffs.items())
        out[cluster] = ex.total(terms)
    return out


def _entry_provenance(entry: AffinityEntry) -> str:
    pat = " || ".join("&".join(c) for c in entry.pattern)
    params = ",".join(ex._fmt_num(v) for v in entry.law_params)
    return f"{pat} at {entry.law_name}({params})"


def extract_reactions(model: Model, index: PrimeIndex) -> ReactionSystem:
    by_cluster = index.matches()
    conc: Optional[dict[Cluster, ex.Expr]] = None  # built when a law first reads it
    # merged rate per (reactants, products, provenance), in first-occurrence order
    rates: dict[tuple[tuple[int, ...], tuple[int, ...], str], ex.Expr] = {}
    warnings: list[str] = []

    for entry in model.affinity:
        law = model.laws[entry.law_name]
        prov = _entry_provenance(entry)
        slot_lists = [by_cluster.get(c, []) for c in entry.pattern]
        if any(not ms for ms in slot_lists):
            warnings.append(f"affinity entry '{prov}' matches no species")
            continue
        scale = ex.const(1.0 / math.prod(math.factorial(n) for n in Counter(entry.pattern).values()))
        if law.variadic:  # mass action weighs each share by itself: its a_j are 1, f is k
            a_exprs = [ex.ONE] * len(entry.pattern)
        else:
            conc = conc or cluster_concentrations(index)
            a_exprs = [conc[c] for c in entry.pattern]
        try:  # the law's value f(a_1..a_m), once per entry
            value = law.apply(entry.law_params, a_exprs)
        except ex.DomainError:  # the law folded a constant x/0
            raise ex.division_by_zero(prov) from None

        for combo in itertools.product(*slot_lists):
            rate = value
            for j, mt in enumerate(combo):  # times each share/a_j, which is 1 for a sole match
                share = ex.mul(ex.const(mt.mult), ex.Var(index.names[mt.prime]))
                rate = ex.mul(rate, ex.div(share, a_exprs[j]))
            rate = ex.mul(scale, rate)
            reactants = tuple(sorted(mt.prime for mt in combo))
            key = (reactants, tuple(sorted(index.products(combo))), prov)
            rates[key] = ex.add(rates[key], rate) if key in rates else rate

    for (_, _, prov), rate in rates.items():
        if not ex.finite(rate):  # a constant overflowed in the law, a product or a sum
            raise ex.non_finite(prov)
    reactions = [Reaction(r, p, rate, prov) for (r, p, prov), rate in rates.items()]
    return ReactionSystem(index, reactions, warnings)


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
