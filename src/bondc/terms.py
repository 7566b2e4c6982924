"""Core term language: species, abstractions, laws, affinity networks, models.

Locations are plain strings; the ambient location is represented by None.
Renaming is capture-avoiding and takes one pass (see ``_rename_under``);
the parser checks a model's cross-references, on the records it gathers.
Species terms are NamedTuples, so once normalized they serve as mixture keys.
Their equality and hashing are tuple operations, which ignore the type: that
is sound because no two node types, rate expressions and transitions included,
share a tuple shape.  ``Nil`` is the only 0-tuple; ``Sum`` holds ``Prefix``
4-tuples and ``Par`` species of at most 2 fields, neither ever empty; the
first field of ``New`` is a tuple, of ``Call`` a str, of ``Abstraction`` an
int; ``Const`` holds a float and ``Var`` a str; a ``Transition`` 3-tuple
starts with a tuple and a ``Bin`` with a str.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Union

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


class Nil(NamedTuple):
    """The inert process 0."""


NIL = Nil()


class Prefix(NamedTuple):
    """One guard of a choice: site@location(received...).body"""

    site: str
    location: Optional[str]  # None = ambient
    receives: tuple[str, ...]
    body: "Species"


class Sum(NamedTuple):
    guards: tuple[Prefix, ...]


class Par(NamedTuple):
    parts: tuple["Species", ...]


class New(NamedTuple):
    binders: tuple[str, ...]
    body: "Species"


class Call(NamedTuple):
    """Invocation of a named species definition; opaque to normalization."""

    name: str
    args: tuple[str, ...]


Species = Union[Nil, Sum, Par, New, Call]


_PLACEHOLDERS = tuple(f"?a{i}" for i in range(64))


def placeholders(n: int) -> tuple[str, ...]:
    return _PLACEHOLDERS[:n] if n <= len(_PLACEHOLDERS) else tuple(f"?a{i}" for i in range(n))


class Abstraction(NamedTuple):
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
        return frozenset().union(*map(free_locations, t.parts))
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
    if not sub or isinstance(t, Nil):
        return t
    if isinstance(t, Call):
        return Call(t.name, tuple(sub.get(a, a) for a in t.args))
    if isinstance(t, Sum):
        return Sum(
            tuple(
                Prefix(site, sub.get(loc, loc), *_rename_under(receives, body, sub))
                for site, loc, receives, body in t.guards
            )
        )
    if isinstance(t, Par):
        return Par(tuple(rename_locations(p, sub) for p in t.parts))
    if isinstance(t, New):
        return New(*_rename_under(t.binders, t.body, sub))
    raise TypeError(t)


def _rename_under(
    binders: tuple[str, ...], body: Species, sub: dict[str, str]
) -> tuple[tuple[str, ...], Species]:
    """Rename ``body``'s free names under ``binders`` in one pass: a binder that
    would capture an incoming name joins the substitution under a fresh name."""
    free = free_locations(body)
    inner = {k: v for k, v in sub.items() if k not in binders and k in free}
    incoming = set(inner.values())
    if not incoming.isdisjoint(binders):
        avoid = {*free, *incoming, *binders}
        for b in binders:
            if b in incoming:
                inner[b] = fresh_name(b, avoid)
                avoid.add(inner[b])
        binders = tuple(inner.get(b, b) for b in binders)
    return binders, rename_locations(body, inner)


# --- kinetic laws, affinity networks, models --------------------------------

Cluster = tuple[str, ...]  # sorted bag of site names
Pattern = tuple[Cluster, ...]  # bag of clusters; kept in written order


def make_cluster(sites: list[str]) -> Cluster:
    if not sites:
        raise ValueError("empty cluster")
    return tuple(sorted(sites))


class KineticLaw(NamedTuple):
    name: str
    params: tuple[str, ...]
    args: tuple[str, ...]
    body: Optional[ex.Expr]  # None for the builtin mass-action law, over any number of clusters

    def apply(self, param_values: tuple[float, ...], arg_exprs: list[ex.Expr]) -> ex.Expr:
        """The raw law value f(a_1,...,a_m) as an expression."""
        if self.body is None:
            return ex.prod([ex.const(param_values[0]), *arg_exprs])
        env = {p: ex.const(v) for p, v in zip(self.params, param_values)}
        env.update(zip(self.args, arg_exprs))
        return ex.substitute(self.body, env)


MASS_ACTION = KineticLaw("MA", ("k",), (), None)


class AffinityEntry(NamedTuple):
    pattern: Pattern
    law_name: str
    law_params: tuple[float, ...]


class SpeciesDef(NamedTuple):
    name: str
    params: tuple[str, ...]
    body: Species


class Model(NamedTuple):
    species: dict[str, SpeciesDef]
    laws: dict[str, KineticLaw]
    affinity: tuple[AffinityEntry, ...]
    mixture: tuple[tuple[float, str], ...]  # (concentration, species name)
    warnings: list[str]


def check_guarded(defs: Mapping[str, SpeciesDef]) -> None:
    """Reject a definition that reaches itself through "|" and "new" alone.

    Unfolding it never reaches a guard, so it has no finite transition table.
    One depth-first search walks from callee to caller, names in order of first
    mention, and the first cycle it meets is worded from caller to callee.
    """
    callers: dict[str, list[str]] = {}
    for n, sd in defs.items():
        callers.setdefault(n, [])
        todo = [sd.body]  # the calls it reaches through "|" and "new", in order
        while todo:
            t = todo.pop()
            if isinstance(t, Call):
                callers.setdefault(t.name, []).append(n)
            elif isinstance(t, Par):
                todo += reversed(t.parts)
            elif isinstance(t, New):
                todo.append(t.body)
    at: dict[Optional[str], int] = {}  # a name's index on the path, -1 once it is left
    path = [(None, iter(callers))]  # every name is a root, in order
    while path:
        n = next(path[-1][1], None)
        if n is None:
            at[path.pop()[0]] = -1
        elif n not in at:
            at[n] = len(path)
            path.append((n, iter(callers[n])))
        elif at[n] >= 0:
            raise UnguardedRecursionError([n, *(m for m, _ in reversed(path[at[n] :]))])
