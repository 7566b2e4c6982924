"""Structural congruence via canonical forms, and prime decomposition.

normalize() quotients the standard congruence axioms: associativity and
commutativity of | and +, Nil identity, scope extrusion/minimization,
garbage collection of unused binders, and alpha-renaming.  Named invocations
are opaque: they are never unfolded here, only in the transition system.

The normal form is prenex.  Every restriction and parallel composition of a
term is pulled out into one binder list over its choice and invocation
atoms, renaming each binder apart as it is flattened; atoms linked by shared
bound locations form one prime, written with a single `new` over its parts.
Choices sort their guards, and guard bodies are normalized recursively.

Canonical bound locations are written ℓ0, ℓ1, ... (non-ASCII on purpose:
the parser cannot produce them, so they never collide with user names).
Numbering starts at one above the largest free ℓ index of the term, so a
free ℓ is never captured.  A prime's binders take the next numbers in
canonical order; a guard's received locations follow them, and the guard's
body is numbered from there.

The canonical order of a prime's binders comes from individualization-
refinement (McKay & Piperno, Practical graph isomorphism II, 2014).  Binders
are coloured by how the atoms use them, and the colours are refined until
stable.  A cell of tied binders is split by trying each of them first; the
least serialization over all orders reached wins.  A binder is not tried
when swapping it with one already tried leaves the atoms unchanged, so k
interchangeable binders cost k leaves, not k!.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

from .terms import (
    NIL,
    Call,
    New,
    Nil,
    Par,
    Prefix,
    Species,
    Sum,
    free_locations,
)


# --- serialization -----------------------------------------------------------


def serialize(t: Species) -> str:
    """Deterministic serialization; the canonical-form total-order key."""
    if isinstance(t, Nil):
        return "0"
    if isinstance(t, Call):
        if t.args:
            return f"{t.name}({','.join(t.args)})"
        return t.name
    if isinstance(t, Sum):
        return " + ".join(_ser_prefix(g) for g in t.guards)
    if isinstance(t, Par):
        return "(" + " | ".join(serialize(p) for p in t.parts) + ")"
    if isinstance(t, New):
        return f"(new {','.join(t.binders)} in {serialize(t.body)})"
    raise TypeError(t)


def _ser_prefix(g: Prefix) -> str:
    s = g.site
    if g.location is not None:
        s += "@" + g.location
    if g.receives:
        s += "(" + ",".join(g.receives) + ")"
    body = serialize(g.body)
    if isinstance(g.body, (Nil, Call)) or (
        isinstance(g.body, Sum) and len(g.body.guards) == 1
    ):
        return f"{s}.{body}"
    return f"{s}.({body})" if not body.startswith("(") else f"{s}.{body}"


# --- normalization -----------------------------------------------------------


def normalize(t: Species) -> Species:
    """Canonical representative of t's structural-congruence class."""
    free_l = [int(a[1:]) for a in free_locations(t) if a.startswith("ℓ")]
    return _canon(t, {}, max(free_l, default=-1) + 1)


def primes(t: Species) -> list[Species]:
    """The unique bag of prime factors of t's normal form, sorted."""
    n = normalize(t)
    if isinstance(n, Nil):
        return []
    if isinstance(n, Par):
        return list(n.parts)
    return [n]


# --- prenex form: atoms, binders and primes ----------------------------------


def _flatten(
    t: Species, env: dict[str, str], binders: set[str], atoms: list[tuple[Species, dict[str, str]]]
) -> None:
    """Collect the Sum/Call atoms of t, each with the renaming of its names.

    Every restricted name is renamed apart to a fresh '#n' (unparseable) and
    added to binders; an atom's env maps each name in scope to its renaming.
    """
    if isinstance(t, New):
        fresh = {b: f"#{len(binders) + i}" for i, b in enumerate(t.binders)}
        binders.update(fresh.values())
        _flatten(t.body, {**env, **fresh}, binders, atoms)
    elif isinstance(t, Par):
        for p in t.parts:
            _flatten(p, env, binders, atoms)
    elif isinstance(t, Call) or (isinstance(t, Sum) and t.guards):
        atoms.append((t, env))


def _canon(t: Species, env: dict[str, str], depth: int) -> Species:
    """Normal form of t with its free names renamed by env.

    Binders are renamed apart while flattening.  Bound locations are numbered
    from ℓ<depth>; every free ℓ index of the renamed term is below depth.
    """
    binders: set[str] = set()
    atoms: list[tuple[Species, dict[str, str]]] = []
    _flatten(t, env, binders, atoms)
    # connected components of the atoms, linked by the bound names they share
    uses = [{e.get(x, x) for x in free_locations(a)} & binders for a, e in atoms]
    groups: list[tuple[set[str], list[int]]] = []
    for i, used in enumerate(uses):
        names, members = set(used), [i]
        for g in [g for g in groups if g[0] & used]:
            groups.remove(g)
            names |= g[0]
            members += g[1]
        groups.append((names, members))

    out = sorted(
        (
            _prime([atoms[i] for i in members], [uses[i] for i in members], depth)
            for _, members in groups
        ),
        key=serialize,
    )
    if not out:
        return NIL
    return out[0] if len(out) == 1 else Par(tuple(out))


def _atom(a: Species, env: dict[str, str], depth: int) -> Species:
    """Canonical form of one atom: guards sorted, bodies normalized."""
    if isinstance(a, Call):
        return Call(a.name, tuple(env.get(x, x) for x in a.args))
    guards = []
    for g in a.guards:
        names = tuple(f"ℓ{depth + i}" for i in range(len(g.receives)))
        inner = {**env, **dict(zip(g.receives, names))}
        body = _canon(g.body, inner, depth + len(names))
        guards.append(Prefix(g.site, env.get(g.location, g.location), names, body))
    return Sum(tuple(sorted(guards, key=_ser_prefix)))


# --- canonical labelling of a prime's binders --------------------------------


def _prime(
    atoms: list[tuple[Species, dict[str, str]]], uses: list[set[str]], depth: int
) -> Species:
    """One prime: a single `new` over atoms, binders canonically labelled."""
    binders = sorted(set().union(*uses))
    if not binders:
        return _atom(*atoms[0], depth)
    inner = depth + len(binders)

    def label(i: int, sub: dict[str, str]) -> Species:  # atom i, binders renamed by sub
        a, env = atoms[i]
        return _atom(a, {x: sub.get(v, v) for x, v in env.items()}, inner)

    def key(i: int, sub: dict[str, str]) -> str:
        return serialize(label(i, sub))

    # how atom i uses binder b: the atom with b marked '!', other binders '?'
    edge = {
        (i, b): key(i, {c: "!" if c == b else "?" for c in used})
        for i, used in enumerate(uses)
        for b in used
    }
    occurs = {b: [i for i, used in enumerate(uses) if b in used] for b in binders}

    def refine(colour: dict[str, int]) -> dict[str, int]:
        """Colour refinement of binders through the atoms they share."""
        while True:
            sig = {
                b: (
                    colour[b],
                    *sorted(
                        (edge[i, b], tuple(sorted((colour[c], edge[i, c]) for c in uses[i])))
                        for i in occurs[b]
                    ),
                )
                for b in binders
            }
            ranks = {s: r for r, s in enumerate(sorted(set(sig.values())))}
            refined = {b: ranks[sig[b]] for b in binders}
            if len(ranks) == len(set(colour.values())):
                return refined
            colour = refined

    def swap_fixes(u: str, v: str) -> bool:
        """Whether exchanging binders u and v maps the atom bag to itself."""
        hit = [i for i, used in enumerate(uses) if u in used or v in used]
        return Counter(key(i, {}) for i in hit) == Counter(key(i, {u: v, v: u}) for i in hit)

    def leaves(colour: dict[str, int]) -> Iterator[Species]:
        tied = min((c for c, k in Counter(colour.values()).items() if k > 1), default=None)
        if tied is None:  # discrete: colours are 0..n-1
            sub = {b: f"ℓ{depth + colour[b]}" for b in binders}
            parts = sorted((label(i, sub) for i in range(len(atoms))), key=serialize)
            names = tuple(f"ℓ{depth + i}" for i in range(len(binders)))
            yield New(names, parts[0] if len(parts) == 1 else Par(tuple(parts)))
            return
        tried: list[str] = []
        for v in (b for b in binders if colour[b] == tied):
            if any(swap_fixes(u, v) for u in tried):
                continue
            tried.append(v)
            yield from leaves(refine({b: 2 * c + (b != v) for b, c in colour.items()}))

    return min(leaves(refine({b: 0 for b in binders})), key=serialize)
