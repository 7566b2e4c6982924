"""The species-level labelled multi-transition system.

A transition says: this species can take part in a reaction by consuming a
cluster of sites at some location, becoming an abstraction (a species with
not-yet-created bound locations).  Transitions at the same named location
combine across parallel components; a restriction turns internal multi-site
combinations at its location into ambient transitions, and discards the
single-site ones (a bound site cannot react with the outside on its own): a
``Par`` right under it never lifts them out of a part, though Com reads them.

Given the affinity clusters, a system computes only the transitions that can
still take part in a reaction.  A transition's site bag only grows (by Com at
a shared location) until it surfaces at ambient, where a pattern slot must
match it exactly.  So a guard whose site lies in no cluster is dropped, and
Com grows a combination part by part only while its bag is a sub-bag of some
cluster: its cost follows the combinations that fit, not 2^parts.  One site
fits if a cluster holds it; a larger bag is tested once, when first formed,
against the clusters that hold its first site.  Without clusters the system
computes the full table.  A system also keeps the table of each invocation
it unfolds, which callers only read.

Targets are positional: their bound locations are ?a0, ?a1, ..., to which a
guard renames its received locations; restriction only wraps a body.  A
parallel part's transition puts its target's body in one flat ``Par`` with
the parts left idle, built once per part, and Com joins its targets' bodies
once (``colocate``), when it emits a combination.  Targets are canonicalized
once, where a transition surfaces in ``transitions()`` or ``ambient()``, and
congruent transitions merge there, in order of first occurrence: every step
maps congruent targets to congruent ones, so the table is the one
canonicalizing at each step gives.  Congruent transitions share a cluster, so
``ambient()`` leaves an open target raw when no other open target has its
cluster: it merges with nothing, and the product it takes part in is
normalized anyway.  Closed targets, which a product takes its primes from,
are always canonical.

The system keeps each definition's body in normal form, so a canonical term
lists its transitions in an order that depends only on the term, not on how
a definition orders its guards and parallel parts.
"""

from __future__ import annotations

from collections import Counter
from typing import Container, Iterable, Mapping, NamedTuple, Optional

from .congruence import normalize, serialize
from .terms import (
    AMBIENT,
    Abstraction,
    Call,
    Cluster,
    New,
    Nil,
    Par,
    Species,
    SpeciesDef,
    Sum,
    UnguardedRecursionError,  # noqa: F401 - re-exported
    check_guarded,
    placeholders,
    rename_locations,
)


class Transition(NamedTuple):
    cluster: Cluster
    location: Optional[str]  # None = ambient
    target: Abstraction  # canonical once surfaced, but for a lone open ambient one


def canonical_abstraction(f: Abstraction) -> Abstraction:
    """The abstraction with its body in normal form."""
    return Abstraction(f.arity, normalize(f.body))


def colocate(*targets: Abstraction) -> Abstraction:
    """Join open reaction products in one Par, sharing bound locations by position."""
    return Abstraction(max(f.arity for f in targets), Par(tuple(f.body for f in targets)))


def restrict_abstraction(names: tuple[str, ...], f: Abstraction) -> Abstraction:
    """Push a restriction through an abstraction: (nu l)(m)A = (m)(nu l)A."""
    return Abstraction(f.arity, New(names, f.body))


def commit(f: Abstraction) -> Species:
    """Close an abstraction by restricting its bound locations (not normalized)."""
    return New(f.binders, f.body) if f.arity else f.body


def _surface(raw: Iterable[tuple[Transition, int]], lone: Container[Cluster] = ()) -> Counter:
    """Canonical targets, merging the multiplicities of congruent transitions.

    An open target whose cluster is in ``lone`` stays raw.
    """
    out: Counter = Counter()
    for tr, m in raw:
        if not (tr.target.arity and tr.cluster in lone):
            tr = Transition(tr.cluster, tr.location, canonical_abstraction(tr.target))
        out[tr] += m
    return out


class TransitionSystem:
    """Transition computation over a fixed set of definitions.

    ``clusters``, the affinity patterns' clusters, prunes every transition
    that no pattern slot can ever match; ``None`` keeps the full table.
    Definitions that recurse without a guard raise UnguardedRecursionError.
    """

    def __init__(
        self, defs: Mapping[str, SpeciesDef], clusters: Optional[Iterable[Cluster]] = None
    ):
        check_guarded(defs)
        self.defs = {n: SpeciesDef(n, sd.params, normalize(sd.body)) for n, sd in defs.items()}
        self._holding: dict[str, set[Cluster]] = {}  # each site's clusters
        for c in clusters or ():
            for s in c:
                self._holding.setdefault(s, set()).add(c)
        # each bag tested so far: whether it fits; None keeps everything
        self._fit: Optional[dict[Cluster, bool]] = None if clusters is None else {}
        self._calls: dict[Call, dict[Transition, int]] = {}  # a call's table, shared read-only

    def _fits(self, sites: Cluster) -> bool:
        """Whether a site bag is a sub-bag of some cluster (always, unpruned)."""
        if self._fit is None:
            return True
        if len(sites) == 1:
            return sites[0] in self._holding
        fit = self._fit.get(sites)
        if fit is None:
            fit = self._fit[sites] = any(
                all(sites.count(s) <= c.count(s) for s in sites)
                for c in self._holding.get(sites[0], ())
            )
        return fit

    def transitions(self, t: Species) -> Counter:
        return _surface(self._transitions(t).items())

    def ambient(self, t: Species) -> Counter:
        raw = [(tr, m) for tr, m in self._transitions(t).items() if tr.location is AMBIENT]
        shared = Counter(tr.cluster for tr, _ in raw if tr.target.arity)
        return _surface(raw, {c for c, n in shared.items() if n == 1})

    def _transitions(self, t: Species, bound: Container[str] = ()) -> dict[Transition, int]:
        """The raw table; right under a restriction of ``bound``, a Par lifts no lone site there."""
        if isinstance(t, Call):
            if t not in self._calls:
                u = t
                while isinstance(u, Call):  # a loop, so a long chain of definitions unfolds
                    sd = self.defs[u.name]
                    u = rename_locations(sd.body, dict(zip(sd.params, u.args)))
                self._calls[t] = self._transitions(u)
            return self._calls[t]
        out: dict[Transition, int] = {}
        if isinstance(t, Nil):
            return out
        if isinstance(t, Sum):
            for g in t.guards:
                if not self._fits((g.site,)):
                    continue
                ph = placeholders(len(g.receives))
                body = rename_locations(g.body, dict(zip(g.receives, ph)))
                k = Transition((g.site,), g.location, Abstraction(len(ph), body))
                out[k] = out.get(k, 0) + 1
            return out
        if isinstance(t, Par):
            return self._par_transitions(t.parts, bound)
        if isinstance(t, New):
            bound = set(t.binders)
            for (cluster, loc, target), m in self._transitions(t.body, bound).items():
                if loc in bound and len(cluster) < 2:
                    continue  # a single bound site: it cannot react on its own
                # a completed internal combination at a bound location surfaces at ambient
                loc = AMBIENT if loc in bound else loc
                k = Transition(cluster, loc, restrict_abstraction(t.binders, target))
                out[k] = out.get(k, 0) + m
            return out
        raise TypeError(t)

    def _par_transitions(self, parts: tuple[Species, ...], bound: Container[str]) -> dict:
        sub = [self._transitions(p) for p in parts]
        out: dict[Transition, int] = {}
        n = len(parts)

        def with_rest(target: Abstraction, rest: tuple[Species, ...]) -> Abstraction:
            return Abstraction(target.arity, Par((target.body, *rest))) if rest else target

        for i, trs in enumerate(sub):
            rest = parts[:i] + parts[i + 1 :]
            for tr, m in trs.items():
                if len(tr.cluster) < 2 and tr.location in bound:
                    continue
                k = Transition(tr.cluster, tr.location, with_rest(tr.target, rest))
                out[k] = out.get(k, 0) + m

        # Com: combine one transition each from >= 2 parts at a shared
        # named location (never at ambient, never twice from one part),
        # extending a combination only while its site bag fits a cluster,
        # depth first: each combination comes before its extensions
        locs = sorted(
            {tr.location for trs in sub for tr in trs if tr.location is not None}
        )
        for loc in locs:
            per_part = [
                [(tr, m) for tr, m in trs.items() if tr.location == loc] for trs in sub
            ]
            todo = [(0, (), (), 1, ())]  # next part, parts used, site bag, multiplicity, targets
            while todo:
                start, used, sites, mult, targets = todo.pop()
                if len(used) > 1:
                    rest = tuple(parts[j] for j in range(n) if j not in used)
                    k = Transition(sites, loc, with_rest(colocate(*targets), rest))
                    out[k] = out.get(k, 0) + mult
                grown = []
                for i in range(start, n):
                    for tr, m in per_part[i]:
                        bag = tuple(sorted(sites + tr.cluster))
                        if self._fits(bag):
                            tgts = (*targets, tr.target)
                            grown.append((i + 1, (*used, i), bag, mult * m, tgts))
                todo += reversed(grown)
        return out


def format_transition(source: Species, tr: Transition, mult: int) -> str:
    cluster = "|".join(tr.cluster)
    loc = tr.location if tr.location is not None else "⊤"
    binders = f"({','.join(tr.target.binders)})"
    return (
        f"{serialize(source)}  --[{cluster}]@{loc}-->  "
        f"{binders}{serialize(tr.target.body)}  x{mult}"
    )
