"""Random models: every subcommand fails cleanly, and reordering a model keeps its network.

A seeded ``random.Random`` writes models over a few sites and locations, with
guards, "|", "new" (names may shadow), calls with location parameters, mass
action and one user law.  A definition calls those listed after it anywhere,
and any under a guard, so most models are guarded; one in ten gets a fault.
The model is kept as a tree, so that a variant can list its definitions,
affinity entries, mixture entries, parallel parts and guards in another order:
the network must be the same up to numbering (Chen, Cheung & Yiu, 1998).
Listing a whole mixture amount c >= 1 as the two entries 1 and c - 1 must print the
same ``crn`` and ``simulate`` output, for the corpus too, and ``normalize`` must
be idempotent on every prime and every target that ``transitions`` surfaces.
"""

import random
import re
from pathlib import Path

import pytest

from bondc import ssa
from bondc.cli import main
from bondc.congruence import normalize
from bondc.expr import DomainError
from bondc.parser import ParseError, parse_model
from bondc.reactions import UnboundedError, build_reaction_system
from bondc.terms import Call, ModelError
from bondc.transitions import TransitionSystem

from conftest import evaluate_rate

SITES = "abcd"
LOCS = "lmn"
PARAMS = {"A": (), "B": (), "C": (), "P": ("l",), "Q": ("l", "m")}
CAP = 30
MODELS = Path(__file__).resolve().parent.parent / "models"


def gen_body(rng, scope, callees, depth):
    """A species term over the locations in ``scope``; it calls ``callees`` unguarded."""
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        names = [n for n in callees if scope or not PARAMS[n]]
        if not names or rng.random() < 0.3:
            return ("0",)
        name = rng.choice(names)
        return ("call", name, tuple(rng.choices(scope, k=len(PARAMS[name]))))
    if roll < 0.6:
        return gen_choice(rng, scope, depth)
    if roll < 0.8:
        return ("par", [gen_body(rng, scope, callees, depth - 1) for _ in range(rng.randint(2, 3))])
    names = tuple(rng.sample(LOCS, rng.randint(1, 2)))
    return ("new", names, gen_body(rng, sorted({*scope, *names}), callees, depth - 1))


def gen_choice(rng, scope, depth):
    guards = []
    for _ in range(rng.randint(1, 2)):
        loc = rng.choice(scope) if scope and rng.random() < 0.5 else None
        receives = tuple(rng.sample(LOCS, rng.randint(0, 1)))
        cont = gen_body(rng, sorted({*scope, *receives}), list(PARAMS), depth - 1)
        guards.append((rng.choice(SITES), loc, receives, cont))
    return ("sum", guards)


def gen_model(rng):
    """(definitions, affinity entries, mixture entries) of a random model."""
    order = list(PARAMS)
    # the mixture's species start with a choice, so that their sites can fire
    defs = [
        (name, (), gen_choice(rng, [], 3)) if name in "ABC" else
        (name, PARAMS[name], gen_body(rng, list(PARAMS[name]), order[i + 1 :], 3))
        for i, name in enumerate(order)
    ]
    if rng.random() < 0.1:
        i = rng.randrange(len(defs))
        bad = rng.choice([("call", "Z", ()), ("call", "P", ()), ("call", defs[i][0], defs[i][1])])
        defs[i] = (*defs[i][:2], ("par", [defs[i][2], bad]))
    used = sorted(set(sites(("par", [body for _, _, body in defs]))))
    affinity = []
    for _ in range(rng.randint(2, 4)):
        clusters = [
            " & ".join(rng.sample(used, min(len(used), 1 + (rng.random() < 0.25))))
            for _ in range(rng.randint(1, 2))
        ]
        law = f"MA({rng.choice([0.5, 1, 2])})"
        if len(clusters) == 1 and rng.random() < 0.3:
            law = "H(2, 1)"
        affinity.append(f"{' || '.join(clusters)} at {law};")
    mixture = [f"{rng.choice([0.5, 1, 2])} {rng.choice('ABC')}" for _ in range(rng.randint(1, 3))]
    # one of the first mixture species' guards fires on its own
    choice = defs["ABC".index(mixture[0][-1])][2]
    affinity.append(f"{rng.choice(choice[1])[0]} at MA(1);")
    return defs, affinity, mixture


def sites(t):
    """The sites of a term's guards, at any depth."""
    if t[0] == "sum":
        return [s for site, _, _, cont in t[1] for s in (site, *sites(cont))]
    if t[0] == "par":
        return [s for p in t[1] for s in sites(p)]
    return sites(t[2]) if t[0] == "new" else []


def render(t, rng=None):
    """The text of a term; given ``rng``, its parallel parts and guards are shuffled."""
    kind = t[0]
    if kind == "0":
        return "0"
    if kind == "call":
        return t[1] + (f"({', '.join(t[2])})" if t[2] else "")
    if kind == "new":
        return f"new {', '.join(t[1])} in {wrap(t[2], rng)}"
    items = list(t[1])
    if rng:
        rng.shuffle(items)
    if kind == "par":
        return "(" + " | ".join(wrap(p, rng) for p in items) + ")"
    return " + ".join(
        site + (f"@{loc}" if loc else "") + (f"({', '.join(rec)})" if rec else "")
        + "." + wrap(cont, rng)
        for site, loc, rec, cont in items
    )


def wrap(t, rng):
    return render(t, rng) if t[0] in ("0", "call") else f"({render(t, rng)})"


def source(model, rng=None):
    """The model text; given ``rng``, every list in it is shuffled."""
    defs, affinity, mixture = (list(part) for part in model)
    if rng:
        for part in (defs, affinity, mixture):
            rng.shuffle(part)
    return "\n".join(
        [
            *(f"species {render(('call', n, ps))} = {render(t, rng)};" for n, ps, t in defs),
            "law H(k, K; x) = k * x / (K + x);",
            "affinity {",
            *affinity,
            "}",
            f"mixture {{ {', '.join(mixture)} }}",
            "",
        ]
    )


def compiled(text):
    """The reaction system, or the class of the error that stops the compile."""
    try:
        return build_reaction_system(parse_model(text), cap=CAP)
    except (ParseError, ModelError, UnboundedError, DomainError) as e:
        return type(e)


COMMANDS = [
    ["check"],
    ["primes", "--cap", str(CAP)],
    ["transitions"],
    ["crn", "--cap", str(CAP)],
    *(["odes", "--cap", str(CAP), "--format", f] for f in ("text", "latex", "json")),
    ["simulate", "--cap", str(CAP), "--t-end", "1", "--grid", "4"],
    ["ssa", "--cap", str(CAP), "--t-end", "1", "--grid", "4", "--h", "0.5", "--seed", "1"],
]


@pytest.mark.parametrize("seed", range(4))
def test_every_subcommand_exits_cleanly(tmp_path, capsys, monkeypatch, seed):
    # a model that blows up in finite time runs ssa to its event budget: make that quick
    monkeypatch.setattr(ssa, "MAX_EVENTS", 20_000)
    rng = random.Random(seed)
    path = tmp_path / "model.bond"
    for _ in range(10):
        path.write_text(source(gen_model(rng)), encoding="utf-8")
        for command in COMMANDS:
            code = main([command[0], str(path), *command[1:]])
            err = capsys.readouterr().err
            errors = [line for line in err.splitlines() if line.startswith("error[")]
            assert (code, len(errors)) in ((0, 0), (1, 1)), (command, path.read_text(), err)


def network(rs):
    """The prime names, and per (reactant names, product names, provenance) the rate."""
    names = rs.prime_names
    return set(names), {
        (
            tuple(sorted(names[i] for i in r.reactants)),
            tuple(sorted(names[i] for i in r.products)),
            r.provenance,
        ): r.rate
        for r in rs.reactions
    }


@pytest.mark.parametrize("seed", range(4))
def test_reordered_models_give_the_same_network(seed):
    rng = random.Random(1000 + seed)
    compiling = 0
    for _ in range(25):
        model = gen_model(rng)
        text = source(model)
        rs = compiled(text)
        for _ in range(2):
            variant = source(model, rng)
            other = compiled(variant)
            if isinstance(rs, type):
                assert other is rs, (text, variant)
                continue
            assert not isinstance(other, type), (text, variant, other)
            names, rates = network(rs)
            other_names, other_rates = network(other)
            assert other_names == names, (text, variant)
            assert other_rates.keys() == rates.keys(), (text, variant)
            for _ in range(3):
                point = {n: rng.uniform(0.5, 2.0) for n in names}
                for key, rate in rates.items():
                    want = evaluate_rate(rs, rate, point)
                    got = evaluate_rate(other, other_rates[key], point)
                    assert got == pytest.approx(want, rel=1e-12, abs=0), (text, variant, key)
        if not isinstance(rs, type):
            compiling += 1
            for p in rs.index.primes:
                assert normalize(p) == p, (text, p)
            # and every target of the full table, from each definition and each prime
            ts = TransitionSystem(parse_model(text).species)
            for src in [*(Call(n, sd.params) for n, sd in ts.defs.items()), *rs.index.primes]:
                for tr in ts.transitions(src):
                    assert normalize(tr.target.body) == tr.target.body, (text, src, tr)
    assert compiling >= 15


def split_mixture(text):
    """The text with each whole mixture amount c >= 1 listed as two entries, 1 and c - 1."""

    def split(m):
        c = int(m[1])
        return f"1 {m[2]}, {c - 1} {m[2]}" if c else m[0]

    entries = r"(?<=[{,])\s*(\d+)\s+(\w+)"
    return re.sub(r"mixture\s*\{[^}]*\}", lambda b: re.sub(entries, split, b[0]), text)


def outputs(capsys, path, text, commands):
    """Each command's exit code, stdout and stderr on the model text."""
    path.write_text(text, encoding="utf-8")
    return [(main([c[0], str(path), *c[1:]]), *capsys.readouterr()) for c in commands]


@pytest.mark.parametrize("model", sorted(MODELS.glob("*.bond")), ids=lambda p: p.stem)
def test_split_mixture_entries_give_the_same_corpus_output(tmp_path, capsys, model):
    # whole amounts sum exactly, so the initial state, and all that follows, is the same
    text = model.read_text(encoding="utf-8")
    split = split_mixture(text)
    assert split != text
    commands = [["crn"], ["simulate", "--t-end", "5", "--grid", "10"]]
    want = outputs(capsys, tmp_path / model.name, text, commands)
    assert outputs(capsys, tmp_path / model.name, split, commands) == want


@pytest.mark.parametrize("seed", range(4))
def test_split_mixture_entries_give_the_same_output(tmp_path, capsys, seed):
    rng = random.Random(2000 + seed)
    commands = [c for c in COMMANDS if c[0] in ("crn", "simulate")]
    split_models = 0
    for _ in range(10):
        text = source(gen_model(rng))
        split = split_mixture(text)
        if split != text:
            split_models += 1
            want = outputs(capsys, tmp_path / "model.bond", text, commands)
            assert outputs(capsys, tmp_path / "model.bond", split, commands) == want, split
    assert split_models >= 5
