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
Flattening also records each atom's free names as renamed: under a `new`,
they link the atom to the binders it uses; at the top level, they give the
largest free ℓ index (below).  A lone choice atom needs neither: it is a
prime of its own, and it goes straight to sorting its guards.

Canonical bound locations are written ℓ0, ℓ1, ... (non-ASCII on purpose:
the parser cannot produce them, so they never collide with user names).
Numbering starts at one above the largest free ℓ index of the term, so a
free ℓ is never captured.  A prime's binders take the next numbers in
canonical order; a guard's received locations follow them, and the guard's
body is numbered from there.

The canonical order of a prime's binders comes from individualization-
refinement (McKay & Piperno, Practical graph isomorphism II, 2014).  Binders
are coloured by how the atoms use them, and the colours are refined until
stable or discrete.  A cell of tied binders is split by trying each of them
first; the least serialization over all orders reached wins.  Two orders
that serialize equally map the atoms onto themselves: this automorphism is
recorded, and the search backs up to where the two paths part.  A binder is
not tried when an automorphism fixing the binders tried above it maps a
tried one to it, so the d-cube costs d + 1 leaves, not 2^d d!.

Normal forms carry their serialization, built bottom-up: every sort keys on
it, and no level serializes the one below again.  A labelling substitutes
into a call atom's arguments, but canonicalizes a choice atom afresh: its
guard order depends on the binders' names.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Iterable, Optional, Sequence

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
        return _ser_call(t.name, t.args)
    if isinstance(t, Sum):
        return " + ".join(_ser_prefix(g, serialize(g.body)) for g in t.guards)
    if isinstance(t, Par):
        return _ser_par(map(serialize, t.parts))
    if isinstance(t, New):
        return _ser_new(t.binders, serialize(t.body))
    raise TypeError(t)


def _ser_call(name: str, args: Sequence[str]) -> str:
    return f"{name}({','.join(args)})" if args else name


def _ser_prefix(g: Prefix, body: str) -> str:
    """A guard, given its body's serialization."""
    s = g.site
    if g.location is not None:
        s += "@" + g.location
    if g.receives:
        s += "(" + ",".join(g.receives) + ")"
    bare = isinstance(g.body, (Nil, Call)) or (isinstance(g.body, Sum) and len(g.body.guards) == 1)
    return f"{s}.{body}" if bare or body.startswith("(") else f"{s}.({body})"


def _ser_par(parts: Iterable[str]) -> str:
    return "(" + " | ".join(parts) + ")"


def _ser_new(binders: tuple[str, ...], body: str) -> str:
    return f"(new {','.join(binders)} in {body})"


# --- normalization -----------------------------------------------------------

Normal = tuple[Species, str]  # a normal form and its serialization
Atom = tuple[Species, dict[str, str], Optional[set[str]]]  # see _flatten


def normalize(t: Species) -> Species:
    """Canonical representative of t's structural-congruence class."""
    return _canon(t, {}, None)[0]


def primes(t: Species) -> list[Species]:
    """The unique bag of prime factors of t's normal form, sorted."""
    return parts(normalize(t))


def parts(n: Species) -> list[Species]:
    """The prime factors of a term in normal form, sorted."""
    if isinstance(n, Nil):
        return []
    if isinstance(n, Par):
        return list(n.parts)
    return [n]


def _call(name: str, args: tuple[str, ...], env: dict[str, str]) -> Normal:
    """A call with its arguments renamed by env."""
    args = tuple(map(env.get, args, args))
    return Call(name, args), _ser_call(name, args)


def _par(parts: list[Normal]) -> Normal:
    """The parallel composition of sorted normal forms."""
    if not parts:
        return NIL, "0"
    if len(parts) == 1:
        return parts[0]
    ps, ss = zip(*parts)
    return Par(ps), _ser_par(ss)


# --- prenex form: atoms, binders and primes ----------------------------------


def _flatten(
    t: Species, env: dict[str, str], binders: set[str], atoms: list[Atom], names: bool
) -> None:
    """Collect the Sum/Call atoms of t, each with the renaming of its names.

    Every restricted name is renamed apart to a fresh '#n' (unparseable) and
    added to binders; an atom's env maps each name in scope to its renaming.
    A call atom is renamed at once, and its env is empty.  Under a `new`, or
    everywhere if names is set, an atom also carries its free names as
    renamed, a binder's as its '#n'; elsewhere it uses no binder, and None.
    """
    if isinstance(t, New):
        fresh = {b: f"#{len(binders) + i}" for i, b in enumerate(t.binders)}
        binders.update(fresh.values())
        _flatten(t.body, {**env, **fresh}, binders, atoms, True)
    elif isinstance(t, Par):
        for p in t.parts:
            _flatten(p, env, binders, atoms, names)
    elif isinstance(t, Call):
        t = Call(t.name, tuple(map(env.get, t.args, t.args)))
        atoms.append((t, {}, set(t.args) if names else None))
    elif isinstance(t, Sum) and t.guards:
        atoms.append((t, env, {env.get(x, x) for x in free_locations(t)} if names else None))


def _top(names: set[str]) -> int:
    """The largest ℓ index among names, -1 if there is none."""
    if not names or max(names) < "ℓ":  # every ℓ name sorts at or above "ℓ"
        return -1
    return max([int(x[1:]) for x in names if x[:1] == "ℓ"], default=-1)


def _canon(t: Species, env: dict[str, str], depth: Optional[int]) -> Normal:
    """Normal form of t with its free names renamed by env.

    Binders are renamed apart while flattening.  Bound locations are numbered
    from ℓ<depth>; every free ℓ index of the renamed term is below depth.
    Depth None starts one above the largest free ℓ index of the atoms.  A
    lone choice atom is its own prime, canonical as it stands.
    """
    if isinstance(t, Call):  # its own normal form, once renamed
        return _call(t.name, t.args, env)
    if isinstance(t, Nil):
        return t, "0"
    if isinstance(t, Sum) and t.guards:  # a lone choice atom: a prime of its own
        if depth is None:
            depth = 1 + _top({env.get(x, x) for x in free_locations(t)})
        return _atom(t, env, depth)
    binders: set[str] = set()
    atoms: list[Atom] = []
    _flatten(t, env, binders, atoms, depth is None)
    if depth is None:
        depth = 1 + _top(set().union(*[free for *_, free in atoms]))
    # an atom using no binder is a prime of its own (a call atom as renamed); the
    # others form connected components, linked by the bound names they share
    out: list[Normal] = []
    groups: list[tuple[set[str], list[int]]] = []
    for i, (a, e, free) in enumerate(atoms):
        used = free & binders if binders and free else None
        if not used:
            out.append((a, _ser_call(*a)) if isinstance(a, Call) else _atom(a, e, depth))
            continue
        names, members = set(used), [i]
        for g in [g for g in groups if g[0] & used]:
            groups.remove(g)
            names |= g[0]
            members += g[1]
        groups.append((names, members))
    for names, members in groups:
        uses = [atoms[i][2] & names for i in members]
        out.append(_prime([atoms[i][:2] for i in members], uses, depth))
    return _par(sorted(out, key=itemgetter(1)))


def _atom(a: Species, env: dict[str, str], depth: int) -> Normal:
    """Canonical form of a choice atom: guards sorted, bodies normalized."""
    guards = []
    for g in a.guards:
        names = tuple(f"ℓ{depth + i}" for i in range(len(g.receives))) if g.receives else ()
        inner = {**env, **dict(zip(g.receives, names))} if names else env
        body, s = _canon(g.body, inner, depth + len(names))
        g = Prefix(g.site, env.get(g.location, g.location), names, body)
        guards.append((g, _ser_prefix(g, s)))
    guards.sort(key=itemgetter(1))
    gs, ss = zip(*guards)
    return Sum(gs), " + ".join(ss)


# --- canonical labelling of a prime's binders --------------------------------


def _prime(
    atoms: list[tuple[Species, dict[str, str]]], uses: list[set[str]], depth: int
) -> Normal:
    """One prime: a single `new` over atoms, binders canonically labelled."""
    binders = sorted(set().union(*uses))
    inner = depth + len(binders)

    def label(i: int, sub: dict[str, str]) -> Normal:  # atom i, binders renamed by sub
        a, env = atoms[i]
        if isinstance(a, Call):  # relabelled by substituting into its arguments
            return _call(a.name, a.args, sub)
        return _atom(a, {x: sub.get(v, v) for x, v in env.items()}, inner)

    def close(order: list[str]) -> Normal:
        """The prime with its binders named ℓ<depth>, ... in this order."""
        names = tuple(f"ℓ{depth + i}" for i in range(len(order)))
        sub = dict(zip(order, names))
        body, s = _par(sorted((label(i, sub) for i in range(len(atoms))), key=itemgetter(1)))
        return New(names, body), _ser_new(names, s)

    if len(binders) == 1:
        return close(binders)

    # how atom i uses binder b: the atom with b marked '!', other binders '?',
    # as the rank of that string among all of them
    edge = {
        (i, b): _ser_call(a.name, ["!" if x == b else "?" if x in used else x for x in a.args])
        if isinstance(a, Call) else label(i, {c: "!" if c == b else "?" for c in used})[1]
        for i, ((a, _), used) in enumerate(zip(atoms, uses)) for b in used
    }
    rank = {e: r for r, e in enumerate(sorted(set(edge.values())))}
    edge = {ib: rank[e] for ib, e in edge.items()}
    occurs = {b: [i for i, used in enumerate(uses) if b in used] for b in binders}

    def refine(colour: dict[str, int], k: int) -> tuple[dict[str, int], int]:
        """Colour refinement of binders through the atoms they share, from k colours."""
        while True:
            # atom i's binders by colour and use, the same for each binder it holds
            near = [
                tuple(sorted((colour[c], edge[i, c]) for c in used)) for i, used in enumerate(uses)
            ]
            sig = {
                b: (colour[b], *sorted((edge[i, b], near[i]) for i in occurs[b])) for b in binders
            }
            ranks = {s: r for r, s in enumerate(sorted(set(sig.values())))}
            colour = {b: ranks[sig[b]] for b in binders}
            if len(ranks) in (k, len(binders)):  # stable, or discrete and so stable
                return colour, len(ranks)
            k = len(ranks)

    # each leaf's serialization: the first leaf giving it, its order and its path
    found: dict[str, tuple[Normal, list[str], tuple[str, ...]]] = {}
    autos: list[dict[str, str]] = []
    nodes: list = []  # the open path: each node's path, colouring, colour count, cell, tried

    def visit(path: tuple[str, ...], colour: dict[str, int], k: int) -> None:
        if k < len(binders):
            tied = min(c for c, m in Counter(colour.values()).items() if m > 1)
            nodes.append((path, colour, k, (b for b in binders if colour[b] == tied), []))
            return
        order = sorted(binders, key=colour.__getitem__)
        leaf = close(order)
        _, first, at = found.setdefault(leaf[1], (leaf, order, path))
        if first is not order:
            # an automorphism: where the two paths part, it maps the first leaf's
            # branch onto this one's, so the rest of this branch is not searched
            autos.append(dict(zip(order, first)))
            del nodes[1 + next(j for j, (u, v) in enumerate(zip(path, at)) if u != v) :]

    visit((), *refine(dict.fromkeys(binders, 0), 1))
    while nodes:
        path, colour, k, cell, tried = nodes[-1]
        v = next(cell, None)
        if v is None:
            nodes.pop()
        elif v not in _orbit(tried, [g for g in autos if all(g[u] == u for u in path)]):
            tried.append(v)
            visit((*path, v), *refine({b: 2 * c + (b != v) for b, c in colour.items()}, k + 1))
    return found[min(found)][0]


def _orbit(xs: list[str], maps: list[dict[str, str]]) -> set[str]:
    """Every image of xs under the maps, applied any number of times."""
    orbit = set(xs)
    while more := {g[x] for g in maps for x in orbit} - orbit:
        orbit |= more
    return orbit
