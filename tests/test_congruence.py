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
