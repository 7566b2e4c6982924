import functools
import itertools
import random
import time
from collections import Counter

import pytest

from bondc import congruence
from bondc.congruence import normalize, primes, serialize
from bondc.terms import (
    AMBIENT,
    NIL,
    Call,
    New,
    Par,
    Prefix,
    Sum,
    free_locations,
    rename_locations,
)

from conftest import cube_edges


def guard(site, loc=AMBIENT, receives=(), body=NIL):
    return Prefix(site, loc, tuple(receives), body)


def S(*guards):
    return Sum(tuple(guards))


def embed(t):
    """Unit-concentration mixture over the primes of t (with multiplicity)."""
    return Counter(primes(t))


def is_prime(t):
    return len(primes(t)) == 1


def test_nil_identity():
    t = Par((S(guard("a")), NIL, NIL))
    assert normalize(t) == normalize(S(guard("a")))


def test_par_flatten_and_commute():
    a, b, c = S(guard("a")), S(guard("b")), S(guard("c"))
    left = Par((Par((a, b)), c))
    right = Par((c, Par((b, a))))
    assert normalize(left) == normalize(right)
    assert serialize(normalize(left)) == "(a.0 | b.0 | c.0)"


def test_alpha_equivalence():
    t1 = New(("l",), S(guard("s", "l")))
    t2 = New(("m",), S(guard("s", "m")))
    assert normalize(t1) == normalize(t2)


def test_receive_binder_alpha_equivalence():
    t1 = S(guard("s", receives=("l",), body=S(guard("p", "l"))))
    t2 = S(guard("s", receives=("m",), body=S(guard("p", "m"))))
    assert normalize(t1) == normalize(t2)


def test_unused_binder_collected():
    t = New(("l",), S(guard("a")))
    assert normalize(t) == normalize(S(guard("a")))


def test_nested_new_collapse():
    t1 = New(("l",), New(("m",), S(guard("a", "l"), guard("b", "m"))))
    t2 = New(("m", "l"), S(guard("a", "l"), guard("b", "m")))
    assert normalize(t1) == normalize(t2)


def _a_l_with(inner):
    """a@l.0 | inner"""
    return Par((S(guard("a", "l")), inner))


@pytest.mark.parametrize(
    "shadowed, apart",
    [
        pytest.param(  # new l in (a@l.0 | new l in b@l.0)
            New(("l",), _a_l_with(New(("l",), S(guard("b", "l"))))),
            New(("l",), _a_l_with(New(("m",), S(guard("b", "m"))))),
            id="new-under-new",
        ),
        pytest.param(  # new l in (a@l.0 | r(l).b@l.0)
            New(("l",), _a_l_with(S(guard("r", receives=("l",), body=S(guard("b", "l")))))),
            New(("l",), _a_l_with(S(guard("r", receives=("m",), body=S(guard("b", "m")))))),
            id="receive-under-new",
        ),
        pytest.param(  # r(l).(a@l.0 | new l in b@l.0)
            S(guard("r", receives=("l",), body=_a_l_with(New(("l",), S(guard("b", "l")))))),
            S(guard("r", receives=("l",), body=_a_l_with(New(("m",), S(guard("b", "m")))))),
            id="new-under-receive",
        ),
    ],
)
def test_shadowing_binder_normalizes_like_renamed_apart(shadowed, apart):
    assert normalize(shadowed) == normalize(apart)


def test_scope_minimization_splits_components():
    # (new l,m in a@l.0 | b@m.0) == (new l in a@l.0) | (new m in b@m.0)
    t = New(("l", "m"), Par((S(guard("a", "l")), S(guard("b", "m")))))
    ps = primes(t)
    assert len(ps) == 2
    assert [serialize(p) for p in ps] == [
        "(new ℓ0 in a@ℓ0.0)",
        "(new ℓ0 in b@ℓ0.0)",
    ]


def test_shared_binder_keeps_component_together():
    t = New(("l",), Par((S(guard("a", "l")), S(guard("b", "l")))))
    assert is_prime(t)


def test_connected_components_oracle():
    # three parts, l shared by parts 0 and 1, m private to part 2
    t = New(
        ("l", "m"),
        Par((S(guard("a", "l")), S(guard("b", "l")), S(guard("c", "m")))),
    )
    ps = primes(t)
    assert len(ps) == 2
    sizes = sorted(
        len(p.body.parts) if isinstance(p, New) and isinstance(p.body, Par) else 1
        for p in ps
    )
    assert sizes == [1, 2]


def test_primes_factorize_parallel():
    a = New(("l",), Par((S(guard("a", "l")), S(guard("b", "l")))))
    b = S(guard("c"))
    both = primes(Par((a, b)))
    assert both == sorted(primes(a) + primes(b), key=serialize)


def test_embed_counts_multiplicity():
    t = Par((S(guard("a")), S(guard("a")), S(guard("b"))))
    e = embed(t)
    assert sorted(e.values()) == [1, 2]


def test_embed_nil_empty():
    assert embed(NIL) == {}


def test_normalize_idempotent_on_examples():
    cases = [
        NIL,
        Par((NIL, NIL)),
        New(("l",), Par((S(guard("a", "l")), S(guard("a", "l"))))),
        S(guard("s", receives=("x", "y"), body=Par((S(guard("p", "x")), S(guard("q", "y")))))),
        New(("l", "m"), Par((S(guard("a", "l")), S(guard("b", "m")), S(guard("c", "l"))))),
    ]
    for t in cases:
        n = normalize(t)
        assert normalize(n) == n, serialize(t)


def test_calls_are_opaque():
    # two distinct names are distinct species even with identical bodies
    assert normalize(Call("A", ())) != normalize(Call("B", ()))
    assert is_prime(Call("A", ()))


def test_symmetric_par_under_binder():
    # the dimer complex: binder numbering must not depend on part order
    p1 = New(("l",), Par((Call("X", ("l",)), Call("Y", ("l",)))))
    p2 = New(("l",), Par((Call("Y", ("l",)), Call("X", ("l",)))))
    assert normalize(p1) == normalize(p2)


def test_binder_renumbering_is_canonical():
    t = New(("q",), Par((S(guard("b", "q")), S(guard("a", "q")))))
    assert serialize(normalize(t)) == "(new ℓ0 in (a@ℓ0.0 | b@ℓ0.0))"


# --- randomized property tests ------------------------------------------------

SITES = ["a", "b", "c"]
LOCS = ["l", "m", "n"]


def random_species(rng: random.Random, depth: int, bound: tuple[str, ...] = ()):
    """A random closed species term of bounded depth."""
    if depth <= 0:
        return NIL if rng.random() < 0.5 else S(guard(rng.choice(SITES)))
    kind = rng.randrange(5)
    if kind == 0:
        return NIL
    if kind == 1:
        guards = []
        for _ in range(rng.randrange(1, 3)):
            loc = rng.choice(bound) if bound and rng.random() < 0.6 else AMBIENT
            recv = tuple(rng.sample(LOCS, rng.randrange(0, 2)))
            body = random_species(rng, depth - 1, bound + recv)
            guards.append(guard(rng.choice(SITES), loc, recv, body))
        return S(*guards)
    if kind == 2:
        parts = tuple(
            random_species(rng, depth - 1, bound) for _ in range(rng.randrange(2, 4))
        )
        return Par(parts)
    if kind == 3:
        fresh = tuple(x for x in LOCS if x not in bound)[: rng.randrange(1, 3)]
        if not fresh:
            return random_species(rng, depth - 1, bound)
        body = random_species(rng, depth - 1, bound + fresh)
        return New(fresh, body)
    return random_species(rng, depth - 1, bound)


@pytest.mark.parametrize("seed", range(8))
def test_normalize_idempotent_random(seed):
    rng = random.Random(seed)
    for _ in range(50):
        t = random_species(rng, rng.randrange(1, 5))
        n = normalize(t)
        assert normalize(n) == n, serialize(t)


@pytest.mark.parametrize("seed", range(8))
def test_primes_factorize_random(seed):
    rng = random.Random(1000 + seed)
    for _ in range(30):
        a = random_species(rng, rng.randrange(1, 4))
        b = random_species(rng, rng.randrange(1, 4))
        combined = primes(Par((a, b)))
        assert combined == sorted(primes(a) + primes(b), key=serialize)


@pytest.mark.parametrize("seed", range(4))
def test_par_permutation_invariance_random(seed):
    rng = random.Random(2000 + seed)
    for _ in range(25):
        parts = [random_species(rng, 2) for _ in range(3)]
        shuffled = parts[:]
        rng.shuffle(shuffled)
        assert normalize(Par(tuple(parts))) == normalize(Par(tuple(shuffled)))


# --- canonical labelling ------------------------------------------------------


def test_free_canonical_name_is_not_captured():
    # the body is open over ℓ0, which must stay free and distinct from x
    n = normalize(New(("x",), Call("A", ("x", "ℓ0"))))
    assert "ℓ0" in free_locations(n)
    assert n != normalize(New(("x",), Call("A", ("x", "x"))))


def test_triangle_with_doubled_edge_has_one_normal_form():
    def P(a, b):
        return Call("P", (a, b))

    parts = [P("x", "y"), P("y", "z"), P("z", "x"), P("x", "y")]
    forms = {
        serialize(normalize(New(binders, Par(order))))
        for order in itertools.permutations(parts)
        for binders in itertools.permutations("xyz")
    }
    assert len(forms) == 1


GRAPH_NAMES = ["x0", "x1", "x2", "x3", "x4"]


def random_graph_atom(rng: random.Random, names: list[str]):
    kind = rng.randrange(4)
    if kind == 0:
        return Call("P", (rng.choice(names), rng.choice(names)))
    if kind == 1:
        return Call("Q", (rng.choice(names),))
    if kind == 2:
        return S(*(guard("a", rng.choice(names)) for _ in range(rng.randrange(2, 4))))
    # a receive with a restriction under it, linked back to an outer name
    inner = Par((Call("P", ("y", "z")), Call("P", ("z", rng.choice(names)))))
    return S(guard("r", rng.choice(names), ("y",), New(("z",), inner)))


@pytest.mark.parametrize("seed", range(6))
def test_graph_terms_have_one_normal_form(seed):
    rng = random.Random(3000 + seed)
    for _ in range(15):
        names = GRAPH_NAMES[: rng.randrange(2, 6)]
        atoms = [random_graph_atom(rng, names) for _ in range(rng.randrange(2, 8))]
        forms = set()
        for _ in range(6):
            renamed = names[:]
            rng.shuffle(renamed)
            parts = [rename_locations(a, dict(zip(names, renamed))) for a in atoms]
            rng.shuffle(parts)
            binders = names[:]
            rng.shuffle(binders)
            # split the binders over nested restrictions
            t = Par(tuple(parts))
            while binders:
                k = rng.randrange(1, len(binders) + 1)
                t, binders = New(tuple(binders[:k]), t), binders[k:]
            n = normalize(t)
            assert normalize(n) == n, serialize(t)
            forms.add(serialize(n))
        assert len(forms) == 1, forms


def test_interchangeable_binders_do_not_branch_factorially():
    ls = tuple(f"l{i}" for i in range(1, 8))
    star = New(ls, Par((S(*(guard("a", l) for l in ls)), *(Call("B", (l,)) for l in ls))))
    start = time.perf_counter()
    n = normalize(star)
    assert time.perf_counter() - start < 0.25
    assert is_prime(n)


# --- symmetric bond graphs: automorphisms found prune the labelling -----------------


def bond_graph(edges, rng=None):
    """Binders on the vertices, one atom (e@x.0 + e@y.0) per edge; with rng, the
    vertices renamed, the atoms and guards shuffled and the binders nested at random."""
    names = [f"v{v}" for v in range(1 + max(max(e) for e in edges))]
    if rng is None:
        atoms = [S(guard("e", names[x]), guard("e", names[y])) for x, y in edges]
        return New(tuple(names), Par(tuple(atoms)))
    rng.shuffle(names)
    atoms = [[guard("e", names[x]), guard("e", names[y])] for x, y in edges]
    for a in atoms:
        rng.shuffle(a)
    rng.shuffle(atoms)
    t, binders = Par(tuple(S(*a) for a in atoms)), names[:]
    rng.shuffle(binders)
    while binders:
        k = rng.randrange(1, len(binders) + 1)
        t, binders = New(tuple(binders[:k]), t), binders[k:]
    return t


SYMMETRIC_GRAPHS = {
    "Q4": cube_edges(4),
    "K4,4": [(a, 4 + b) for a in range(4) for b in range(4)],
    "C12": [(v, (v + 1) % 12) for v in range(12)],
    # 4-regular but not vertex-transitive: colour refinement ties all 7 binders, and
    # trying a triangle corner first and a square corner first give different leaves
    "co-(C3+C4)": [
        (x, y) for x, y in itertools.combinations(range(7), 2)
        if (x, y) not in {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)}
    ],
}


@pytest.mark.parametrize("edges", SYMMETRIC_GRAPHS.values(), ids=SYMMETRIC_GRAPHS)
def test_symmetric_bond_graphs_have_one_normal_form(edges):
    rng = random.Random(26)
    n = normalize(bond_graph(edges))
    assert is_prime(n) and normalize(n) == n
    for _ in range(8):
        assert normalize(bond_graph(edges, rng)) == n


def test_cube_normal_form_is_pinned():
    # the 3-cube's binders, numbered by the least serialization over all leaves
    assert serialize(normalize(bond_graph(cube_edges(3)))) == (
        "(new ℓ0,ℓ1,ℓ2,ℓ3,ℓ4,ℓ5,ℓ6,ℓ7 in (e@ℓ0.0 + e@ℓ1.0 | e@ℓ0.0 + e@ℓ2.0 | e@ℓ0.0 + e@ℓ3.0"
        " | e@ℓ1.0 + e@ℓ4.0 | e@ℓ1.0 + e@ℓ5.0 | e@ℓ2.0 + e@ℓ4.0 | e@ℓ2.0 + e@ℓ6.0"
        " | e@ℓ3.0 + e@ℓ5.0 | e@ℓ3.0 + e@ℓ6.0 | e@ℓ4.0 + e@ℓ7.0 | e@ℓ5.0 + e@ℓ7.0"
        " | e@ℓ6.0 + e@ℓ7.0))"
    )


def test_cube_labelling_prunes_by_the_automorphisms_found(monkeypatch):
    # none of the 5-cube's 3,840 automorphisms swaps just two binders: pruning by
    # such swaps alone visited every one, with 419,520 _atom calls in about 15 s;
    # the automorphisms the search finds leave 6 leaves and 640 calls
    real, calls = congruence._atom, 0

    def counting(*args):
        nonlocal calls
        calls += 1
        assert calls <= 1500, "more than 1,500 _atom calls"
        return real(*args)

    monkeypatch.setattr(congruence, "_atom", counting)
    assert is_prime(normalize(bond_graph(cube_edges(5))))


# --- soundness: an exhaustive canonical form that shares no code with congruence.py --------


def brute_names(t, bound=frozenset()) -> set:
    """The names free in t: guard locations and call arguments no binder within t binds."""
    if isinstance(t, Call):
        return {a for a in t.args if a not in bound}
    if isinstance(t, Sum):
        out = set()
        for g in t.guards:
            if g.location is not None and g.location not in bound:
                out.add(g.location)
            out |= brute_names(g.body, bound | set(g.receives))
        return out
    if isinstance(t, Par):
        return set().union(*(brute_names(p, bound) for p in t.parts))
    if isinstance(t, New):
        return brute_names(t.body, bound | set(t.binders))
    return set()


def brute_form(t, env=None, depth=0) -> str:
    """The least serialization of t over every order of its binders.

    t is flattened to its choice and call atoms, each `new` binder renamed apart
    to '$n'; env maps each name in scope to its renaming.  Binders that no atom
    uses are dropped.  Each order of the rest names them %depth, %depth+1, ...,
    the atoms are serialized and sorted, and the least result is kept.  A guard's
    received names are numbered after the binders, and its body from there.
    """
    atoms, binders = [], []

    def flat(u, env):
        if isinstance(u, New):
            fresh = {b: f"${len(binders) + i}" for i, b in enumerate(u.binders)}
            binders.extend(fresh.values())
            flat(u.body, {**env, **fresh})
        elif isinstance(u, Par):
            for p in u.parts:
                flat(p, env)
        elif isinstance(u, Call) or isinstance(u, Sum) and u.guards:
            atoms.append((u, env))

    flat(t, env or {})
    uses = [sorted({env.get(x, x) for x in brute_names(u)} & set(binders)) for u, env in atoms]
    used = sorted(set().union(*uses))
    assert len(used) <= 6, "too many binders to try every order"
    inner = depth + len(used)

    def atom_form(u, env):
        if isinstance(u, Call):
            return f"{u.name}({','.join(env.get(a, a) for a in u.args)})"
        guards = []
        for g in u.guards:
            received = {r: f"%{inner + j}" for j, r in enumerate(g.receives)}
            loc = "*" if g.location is None else env.get(g.location, g.location)
            body = brute_form(g.body, {**env, **received}, inner + len(received))
            guards.append(f"{g.site}@{loc}/{len(received)}.{body}")
        return " + ".join(sorted(guards))

    forms, seen = [], {}  # an atom's form, by the atom and the names its binders get
    for order in itertools.permutations(used):
        sub = {b: f"%{depth + i}" for i, b in enumerate(order)}
        atom_forms = []
        for i, (u, env) in enumerate(atoms):
            key = (i, *map(sub.get, uses[i]))
            if key not in seen:
                seen[key] = atom_form(u, {x: sub.get(v, v) for x, v in env.items()})
            atom_forms.append(seen[key])
        forms.append(f"[{len(used)}]{{{' | '.join(sorted(atom_forms))}}}")
    return min(forms)


ORACLE_SITES = ("a", "b", "e")
ORACLE_FREE = ("f", "ℓ0", "ℓ1")  # free ℓ names: canonical numbering must not capture them


def oracle_term(rng: random.Random, depth: int, scope: tuple = (), budget=None):
    """A random term over the names in scope and ORACLE_FREE, with at most 6 binders.
    Binders and received names are mostly fresh, and sometimes shadow a name in scope
    or ℓ0; locations and arguments are mostly names in scope."""
    budget = [6] if budget is None else budget  # binders left to make

    def name():
        return rng.choice(scope if scope and rng.random() < 0.7 else (*scope, *ORACLE_FREE))

    def fresh(k):
        k = min(k, budget[0])
        budget[0] -= k
        return tuple(
            rng.choice((*scope, "ℓ0")) if scope and rng.random() < 0.2 else f"x{len(scope) + i}"
            for i in range(k)
        )

    kind = rng.randrange(7) if depth > 0 else rng.randrange(3)
    if kind == 0:
        return NIL
    if kind == 1:
        return Call(rng.choice("PQ"), tuple(name() for _ in range(rng.randrange(3))))
    if kind == 2:
        guards = []
        for _ in range(rng.randrange(1, 3)):
            recv = fresh(depth > 0 and rng.random() < 0.3)
            body = oracle_term(rng, depth - 1, scope + recv, budget) if depth > 0 else NIL
            guards.append(guard(rng.choice(ORACLE_SITES), rng.choice((None, name())), recv, body))
        return S(*guards)
    if kind in (3, 4):
        parts = rng.randrange(2, 4)
        return Par(tuple(oracle_term(rng, depth - 1, scope, budget) for _ in range(parts)))
    bs = tuple(dict.fromkeys(fresh(rng.randrange(1, 3))))
    return New(bs, oracle_term(rng, depth - 1, scope + bs, budget)) if bs else NIL


def congruent_variant(t, rng: random.Random, env=None, fresh=None):
    """A term congruent to t: every binder renamed to a fresh z<n>, parts and guards
    shuffled, restrictions split, an unused one or a 0 added, a part's `new` pulled out."""
    env, fresh = env or {}, fresh or itertools.count()
    if isinstance(t, Call):
        return Call(t.name, tuple(env.get(a, a) for a in t.args))
    if isinstance(t, Sum):
        guards = []
        for g in t.guards:
            recv = tuple(f"z{next(fresh)}" for _ in g.receives)
            body = congruent_variant(g.body, rng, {**env, **dict(zip(g.receives, recv))}, fresh)
            guards.append(Prefix(g.site, env.get(g.location, g.location), recv, body))
        rng.shuffle(guards)
        return Sum(tuple(guards))
    if isinstance(t, Par):
        parts = [congruent_variant(p, rng, env, fresh) for p in t.parts] + [NIL] * rng.randrange(2)
        rng.shuffle(parts)
        if isinstance(parts[0], New) and rng.random() < 0.5:  # its binders are fresh
            return New(parts[0].binders, Par((parts[0].body, *parts[1:])))
        return Par((Par(tuple(parts[:2])), *parts[2:])) if len(parts) > 2 else Par(tuple(parts))
    if isinstance(t, New):
        bs = [f"z{next(fresh)}" for _ in t.binders]
        body = congruent_variant(t.body, rng, {**env, **dict(zip(t.binders, bs))}, fresh)
        rng.shuffle(bs)
        if rng.random() < 0.2:
            bs.append(f"z{next(fresh)}")  # unused
        if not bs:
            return body
        k = rng.randrange(1, len(bs) + 1)
        return New(tuple(bs[:k]), New(tuple(bs[k:]), body) if k < len(bs) else body)
    return Par((NIL, NIL)) if rng.random() < 0.3 else t


def near_miss(t, rng: random.Random):
    """t with one guard's site, one guard's location or one call argument changed
    to another name in scope (or None if t has none of them)."""
    seen, pick = 0, -1  # the slot numbered pick is changed

    def other(x, pool):
        return rng.choice([y for y in pool if y != x])

    def go(u, scope):
        nonlocal seen
        names = (*scope, *ORACLE_FREE)
        if isinstance(u, Call):
            args = []
            for a in u.args:
                args.append(other(a, names) if seen == pick else a)
                seen += 1
            return Call(u.name, tuple(args))
        if isinstance(u, Sum):
            guards = []
            for g in u.guards:
                site = other(g.site, ORACLE_SITES) if seen == pick else g.site
                loc = other(g.location, (None, *names)) if seen + 1 == pick else g.location
                seen += 2
                guards.append(Prefix(site, loc, g.receives, go(g.body, scope + g.receives)))
            return Sum(tuple(guards))
        if isinstance(u, Par):
            return Par(tuple(go(p, scope) for p in u.parts))
        if isinstance(u, New):
            return New(u.binders, go(u.body, scope + u.binders))
        return u

    go(t, ())
    if not seen:
        return None
    seen, pick = 0, rng.randrange(seen)
    return go(t, ())


@functools.lru_cache(maxsize=None)  # the tests compare one term with several
def brute(t) -> str:
    return brute_form(t)


def oracle_agrees(a, b) -> bool:
    """Whether a and b have one normal form, asserting that the brute force agrees."""
    same = normalize(a) == normalize(b)
    assert same == (brute(a) == brute(b)), f"{serialize(a)} vs {serialize(b)}"
    return same


def test_normal_forms_meet_exactly_when_the_brute_force_forms_do():
    rng, verdicts = random.Random(28), Counter()
    for _ in range(150):
        bs = ("x", "y", "z")[: rng.randrange(4)]  # most terms restrict some names at the top
        a = New(bs, oracle_term(rng, rng.randrange(1, 4), bs, [6 - len(bs)]))
        v = congruent_variant(a, rng)
        for b in (v, near_miss(a, rng), near_miss(v, rng), oracle_term(rng, 2)):
            if b is not None:
                verdicts[oracle_agrees(a, b)] += 1
    assert verdicts[True] >= 150 and verdicts[False] >= 150, verdicts


def cube_with_received_corners(rng=None):
    """The 3-cube as a bond graph whose corners 0 and 7 are received, not restricted,
    so that 6 binders are left to order: go(v0,v7).(new v1..v6 in ...)."""
    g = bond_graph(cube_edges(3), rng)
    while isinstance(g, New):  # the binders, however bond_graph nested them
        g = g.body
    names = sorted(brute_names(g))
    received = (names[0], names[-1]) if rng is None else tuple(rng.sample(names, 2))
    inner = New(tuple(x for x in names if x not in received), g)
    return S(guard("go", receives=received, body=inner))


ORACLE_GRAPHS = {  # bond graphs on 6 binders; C6 and 2C3, and K3,3 and the prism, are
    # regular of one degree: colour refinement alone does not tell them apart
    "C6": [(v, (v + 1) % 6) for v in range(6)],
    "2C3": [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
    "K3,3": [(a, 3 + b) for a in range(3) for b in range(3)],
    "prism": [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)],
}


def test_symmetric_bond_graphs_against_the_brute_force():
    rng = random.Random(10)
    graphs = [bond_graph(edges) for edges in ORACLE_GRAPHS.values()]
    for a, b in itertools.combinations(graphs, 2):
        assert not oracle_agrees(a, b)
    for g, edges in zip(graphs, ORACLE_GRAPHS.values()):
        assert oracle_agrees(g, bond_graph(edges, rng))
        for _ in range(3):
            oracle_agrees(g, near_miss(bond_graph(edges, rng), rng))
    q3 = cube_with_received_corners()
    assert oracle_agrees(q3, congruent_variant(q3, rng))
    for _ in range(3):
        oracle_agrees(q3, cube_with_received_corners(rng))
        oracle_agrees(q3, near_miss(q3, rng))
