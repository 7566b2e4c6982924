"""Core term language: species, abstractions, laws, affinity networks, models.

Locations are plain strings; the ambient location is represented by None.
Species terms are immutable and hashable, so they can be used directly as
mixture keys once normalized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from typing import Mapping, Optional, Union

from . import expr as ex

#: The ambient location (written ⊤ in output); never bindable.
AMBIENT: Optional[str] = None


class ModelError(ValueError):
    """A structurally invalid model (unknown names, arity mismatches...)."""

    code = "PARSE"

    def __init__(self, message: str, code: str = "PARSE"):
        super().__init__(message)
        self.code = code


class UnguardedRecursionError(ModelError):
    def __init__(self, cycle: list[str]):
        super().__init__(
            f"species '{cycle[0]}' recurses without a guard: {' -> '.join(cycle)}",
            code="UNBOUNDED",
        )


@dataclass(frozen=True)
class Nil:
    def __repr__(self) -> str:
        return "Nil()"


NIL = Nil()


@dataclass(frozen=True)
class Prefix:
    """One guard of a choice: site@location(received...).body"""

    site: str
    location: Optional[str]  # None = ambient
    receives: tuple[str, ...]
    body: "Species"


@dataclass(frozen=True)
class Sum:
    guards: tuple[Prefix, ...]


@dataclass(frozen=True)
class Par:
    parts: tuple["Species", ...]


@dataclass(frozen=True)
class New:
    binders: tuple[str, ...]
    body: "Species"


@dataclass(frozen=True)
class Call:
    """Invocation of a named species definition; opaque to normalization."""

    name: str
    args: tuple[str, ...]


Species = Union[Nil, Sum, Par, New, Call]


def placeholders(n: int) -> tuple[str, ...]:
    return tuple(f"?a{i}" for i in range(n))


@dataclass(frozen=True)
class Abstraction:
    """A body with `arity` bound locations, the placeholders ?a0, ?a1, ... free in it."""

    arity: int
    body: Species

    @property
    def binders(self) -> tuple[str, ...]:
        return placeholders(self.arity)


# --- free locations and renaming -------------------------------------------


def free_locations(t: Species) -> frozenset[str]:
    if isinstance(t, Nil):
        return frozenset()
    if isinstance(t, Call):
        return frozenset(t.args)
    if isinstance(t, Sum):
        out: set[str] = set()
        for g in t.guards:
            if g.location is not None:
                out.add(g.location)
            out |= free_locations(g.body) - set(g.receives)
        return frozenset(out)
    if isinstance(t, Par):
        out = set()
        for p in t.parts:
            out |= free_locations(p)
        return frozenset(out)
    if isinstance(t, New):
        return free_locations(t.body) - set(t.binders)
    raise TypeError(t)


def fresh_name(base: str, avoid: set[str]) -> str:
    name = base
    while name in avoid:
        name += "'"
    return name


def rename_locations(t: Species, sub: dict[str, str]) -> Species:
    """Capture-avoiding renaming of free locations."""
    if isinstance(t, Nil):
        return t
    if isinstance(t, Call):
        return Call(t.name, tuple(sub.get(a, a) for a in t.args))
    if isinstance(t, Sum):
        return Sum(tuple(_rename_prefix(g, sub) for g in t.guards))
    if isinstance(t, Par):
        return Par(tuple(rename_locations(p, sub) for p in t.parts))
    if isinstance(t, New):
        binders, body = _rename_under(t.binders, t.body, sub)
        return New(binders, body)
    raise TypeError(t)


def _rename_prefix(g: Prefix, sub: dict[str, str]) -> Prefix:
    loc = g.location if g.location is None else sub.get(g.location, g.location)
    receives, body = _rename_under(g.receives, g.body, sub)
    return Prefix(g.site, loc, receives, body)


def _rename_under(
    binders: tuple[str, ...], body: Species, sub: dict[str, str]
) -> tuple[tuple[str, ...], Species]:
    free = free_locations(body)
    inner = {k: v for k, v in sub.items() if k not in binders and k in free}
    # freshen binders that would capture an incoming name
    incoming = set(inner.values())
    if incoming & set(binders):
        avoid = set(free) | incoming | set(binders) | set(inner)
        fresh: dict[str, str] = {}
        new_binders = []
        for b in binders:
            if b in incoming:
                nb = fresh_name(b, avoid)
                avoid.add(nb)
                fresh[b] = nb
                new_binders.append(nb)
            else:
                new_binders.append(b)
        body = rename_locations(body, fresh)
        binders = tuple(new_binders)
    if not inner:
        return binders, body
    return binders, rename_locations(body, inner)


# --- kinetic laws, affinity networks, models --------------------------------

Cluster = tuple[str, ...]  # sorted bag of site names
Pattern = tuple[Cluster, ...]  # bag of clusters; kept in written order


def make_cluster(sites: list[str]) -> Cluster:
    if not sites:
        raise ValueError("empty cluster")
    return tuple(sorted(sites))


@dataclass(frozen=True)
class KineticLaw:
    name: str
    params: tuple[str, ...]
    args: tuple[str, ...]
    body: Optional[ex.Expr]  # None for the builtin variadic mass-action law
    variadic: bool = False

    def arity_ok(self, n_clusters: int) -> bool:
        return self.variadic or len(self.args) == n_clusters

    def apply(self, param_values: tuple[float, ...], arg_exprs: list[ex.Expr]) -> ex.Expr:
        """The raw law value f(a_1,...,a_m) as an expression."""
        if self.variadic:
            return ex.prod([ex.const(param_values[0]), *arg_exprs])
        env: dict[str, ex.Expr] = {}
        for p, v in zip(self.params, param_values):
            env[p] = ex.const(v)
        for a, e in zip(self.args, arg_exprs):
            env[a] = e
        return ex.substitute(self.body, env)


MASS_ACTION = KineticLaw("MA", ("k",), (), None, variadic=True)


@dataclass(frozen=True)
class AffinityEntry:
    pattern: Pattern
    law_name: str
    law_params: tuple[float, ...]


@dataclass(frozen=True)
class SpeciesDef:
    name: str
    params: tuple[str, ...]
    body: Species


@dataclass
class Model:
    species: dict[str, SpeciesDef]
    laws: dict[str, KineticLaw]
    affinity: tuple[AffinityEntry, ...]
    mixture: tuple[tuple[float, str], ...]  # (concentration, species name)
    warnings: list[str] = field(default_factory=list, compare=False)


def check_guarded(defs: Mapping[str, SpeciesDef]) -> None:
    """Reject a definition that reaches itself through "|" and "new" alone.

    Unfolding it never reaches a guard, so it has no finite transition table.
    """

    def calls(t: Species) -> list[str]:
        if isinstance(t, Call):
            return [t.name]
        if isinstance(t, Par):
            return [c for p in t.parts for c in calls(p)]
        return calls(t.body) if isinstance(t, New) else []

    try:
        TopologicalSorter({n: calls(sd.body) for n, sd in defs.items()}).prepare()
    except CycleError as e:  # its cycle runs from callee to caller
        raise UnguardedRecursionError(e.args[1][::-1]) from None


def validate_model(m: Model) -> None:
    """Check cross-references and the site/location namespace split."""
    sites: set[str] = set()
    locations: set[str] = set()

    def scan(t: Species) -> None:
        if isinstance(t, Sum):
            for g in t.guards:
                sites.add(g.site)
                if g.location is not None:
                    locations.add(g.location)
                locations.update(g.receives)
                scan(g.body)
        elif isinstance(t, Par):
            for p in t.parts:
                scan(p)
        elif isinstance(t, New):
            locations.update(t.binders)
            scan(t.body)
        elif isinstance(t, Call):
            locations.update(t.args)
            sd = m.species.get(t.name)
            if sd is None:
                raise ModelError(f"unknown species '{t.name}'")
            if len(sd.params) != len(t.args):
                raise ModelError(
                    f"species '{t.name}' takes {len(sd.params)} location(s), "
                    f"got {len(t.args)}",
                    code="ARITY",
                )

    for sd in m.species.values():
        locations.update(sd.params)
        scan(sd.body)
    check_guarded(m.species)

    clash = sites & locations
    if clash:
        raise ModelError(f"name used as both site and location: {sorted(clash)[0]}")

    for entry in m.affinity:
        law = m.laws.get(entry.law_name)
        if law is None:
            raise ModelError(f"unknown law '{entry.law_name}'")
        if not law.variadic and len(entry.law_params) != len(law.params):
            raise ModelError(
                f"law '{law.name}' takes {len(law.params)} parameter(s), "
                f"got {len(entry.law_params)}",
                code="ARITY",
            )
        if law.variadic and len(entry.law_params) != 1:
            raise ModelError("law 'MA' takes 1 parameter", code="ARITY")
        if not law.arity_ok(len(entry.pattern)):
            raise ModelError(
                f"law '{law.name}' expects {len(law.args)} cluster(s), pattern "
                f"has {len(entry.pattern)}",
                code="ARITY",
            )
        for cluster in entry.pattern:
            for s in cluster:
                if s not in sites:
                    m.warnings.append(
                        f"site '{s}' in affinity pattern never occurs in a species"
                    )

    for _, name in m.mixture:
        sd = m.species.get(name)
        if sd is None:
            raise ModelError(f"unknown species '{name}' in mixture")
        if sd.params:
            raise ModelError(
                f"mixture species '{name}' must not take location parameters",
                code="ARITY",
            )
        if free_locations(sd.body):
            raise ModelError(
                f"mixture species '{name}' has free locations "
                f"{sorted(free_locations(sd.body))}"
            )
