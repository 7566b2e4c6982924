"""The species-level labelled multi-transition system.

A transition says: this species can take part in a reaction by consuming a
cluster of sites at some location, becoming an abstraction (a species with
not-yet-created bound locations).  Transitions at the same named location
combine across parallel components; a restriction turns internal multi-site
combinations at its location into ambient transitions, and discards the
single-site ones (a bound site cannot react with the outside on its own).

Given the affinity clusters, a system computes only the transitions that can
still take part in a reaction.  A transition's site bag only grows (by Com at
a shared location) until it surfaces at ambient, where a pattern slot must
match it exactly.  So a guard whose site lies in no cluster is dropped, and
Com grows a combination part by part only while its bag is a sub-bag of some
cluster: its cost follows the combinations that fit, not 2^parts.  Without
clusters the system computes the full table.

Targets are positional: their bound locations are ?a0, ?a1, ..., to which
a guard renames its received locations; Com and restriction only wrap
bodies.  Targets are canonicalized once, where a transition surfaces in
``transitions()`` or ``ambient()``, and congruent transitions merge there,
in order of first occurrence: every step maps congruent targets to
congruent ones, so the table is the one canonicalizing at each step gives.

The system keeps each definition's body in normal form, so a canonical term
lists its transitions in an order that depends only on the term, not on how
a definition orders its guards and parallel parts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

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


@dataclass(frozen=True)
class Transition:
    cluster: Cluster
    location: Optional[str]  # None = ambient
    target: Abstraction  # canonical once surfaced


def canonical_abstraction(f: Abstraction) -> Abstraction:
    """The abstraction with its body in normal form."""
    return Abstraction(f.arity, normalize(f.body))


def colocate(f: Abstraction, g: Abstraction) -> Abstraction:
    """Join two open reaction products, sharing bound locations by position."""
    return Abstraction(max(f.arity, g.arity), Par((f.body, g.body)))


def restrict_abstraction(names: tuple[str, ...], f: Abstraction) -> Abstraction:
    """Push a restriction through an abstraction: (nu l)(m)A = (m)(nu l)A."""
    return Abstraction(f.arity, New(names, f.body))


def commit(f: Abstraction) -> Species:
    """Close an abstraction by restricting its bound locations (not normalized)."""
    return New(f.binders, f.body) if f.arity else f.body


def _surface(raw: Iterable[tuple[Transition, int]]) -> Counter:
    """Canonical targets, merging the multiplicities of congruent transitions."""
    out: Counter = Counter()
    for tr, m in raw:
        out[Transition(tr.cluster, tr.location, canonical_abstraction(tr.target))] += m
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
        # site -> the distinct clusters holding it, as multisets
        self._by_site: Optional[dict[str, list[Counter]]] = None
        if clusters is not None:
            self._by_site = {}
            for c in dict.fromkeys(clusters):
                for site in set(c):
                    self._by_site.setdefault(site, []).append(Counter(c))

    def _fits(self, sites: Counter) -> bool:
        """Whether a site bag is a sub-bag of some cluster (always, unpruned)."""
        if self._by_site is None:
            return True
        site = next(iter(sites))
        return any(sites <= c for c in self._by_site.get(site, ()))

    def transitions(self, t: Species) -> Counter:
        return _surface(self._transitions(t).items())

    def ambient(self, t: Species) -> Counter:
        raw = self._transitions(t).items()
        return _surface((tr, m) for tr, m in raw if tr.location is AMBIENT)

    def _transitions(self, t: Species) -> Counter:
        while isinstance(t, Call):  # a loop, so a long chain of definitions unfolds
            sd = self.defs[t.name]
            t = rename_locations(sd.body, dict(zip(sd.params, t.args)))
        out: Counter = Counter()
        if isinstance(t, Nil):
            return out
        if isinstance(t, Sum):
            for g in t.guards:
                if not self._fits(Counter((g.site,))):
                    continue
                ph = placeholders(len(g.receives))
                body = rename_locations(g.body, dict(zip(g.receives, ph)))
                out[Transition((g.site,), g.location, Abstraction(len(ph), body))] += 1
            return out
        if isinstance(t, Par):
            return self._par_transitions(t.parts)
        if isinstance(t, New):
            inner = self._transitions(t.body)
            bound = set(t.binders)
            for tr, m in inner.items():
                if tr.location not in bound:
                    tgt = restrict_abstraction(t.binders, tr.target)
                    out[Transition(tr.cluster, tr.location, tgt)] += m
                elif len(tr.cluster) >= 2:
                    # completed internal combination: surface at ambient
                    tgt = restrict_abstraction(t.binders, tr.target)
                    out[Transition(tr.cluster, AMBIENT, tgt)] += m
                # single bound site: dropped, it cannot react on its own
            return out
        raise TypeError(t)

    def _par_transitions(self, parts: tuple[Species, ...]) -> Counter:
        sub = [self._transitions(p) for p in parts]
        out: Counter = Counter()
        n = len(parts)

        def with_rest(target: Abstraction, used: set[int]) -> Abstraction:
            rest = tuple(parts[j] for j in range(n) if j not in used)
            if not rest:
                return target
            rest_abs = Abstraction(0, rest[0] if len(rest) == 1 else Par(rest))
            return colocate(target, rest_abs)

        for i, trs in enumerate(sub):
            for tr, m in trs.items():
                out[Transition(tr.cluster, tr.location, with_rest(tr.target, {i}))] += m

        # Com: combine one transition each from >= 2 parts at a shared
        # named location (never at ambient, never twice from one part),
        # extending a combination only while its site bag fits a cluster
        def grow(loc, per_part, start, used, sites, mult, target):
            for i in range(start, n):
                for tr, m in per_part[i]:
                    bag = sites + Counter(tr.cluster)
                    if not self._fits(bag):
                        continue
                    tgt = colocate(target, tr.target) if used else tr.target
                    if used:
                        tr_out = Transition(
                            tuple(sorted(bag.elements())), loc, with_rest(tgt, {*used, i})
                        )
                        out[tr_out] += mult * m
                    grow(loc, per_part, i + 1, (*used, i), bag, mult * m, tgt)

        locs = sorted(
            {tr.location for trs in sub for tr in trs if tr.location is not None}
        )
        for loc in locs:
            per_part = [
                [(tr, m) for tr, m in trs.items() if tr.location == loc] for trs in sub
            ]
            grow(loc, per_part, 0, (), Counter(), 1, None)
        return out


def format_transition(source: Species, tr: Transition, mult: int) -> str:
    cluster = "|".join(tr.cluster)
    loc = tr.location if tr.location is not None else "⊤"
    binders = f"({','.join(tr.target.binders)})"
    return (
        f"{serialize(source)}  --[{cluster}]@{loc}-->  "
        f"{binders}{serialize(tr.target.body)}  x{mult}"
    )
