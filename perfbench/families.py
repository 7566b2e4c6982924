"""Generated model families with known answers.

Each generator takes a size k and a ``random.Random``; the generator only
shuffles the order in which the model lists its parallel parts and its
affinity entries.  The reaction network does not depend on that order, so
the closed forms in ``oracles.py`` hold for every seed.
"""

from __future__ import annotations

import random


def _model(species: list[str], affinity: list[str], mixture: list[str], rng: random.Random) -> str:
    affinity = list(affinity)
    rng.shuffle(affinity)
    return "\n".join(
        [
            *species,
            "affinity {",
            *(f"  {a}" for a in affinity),
            "}",
            f"mixture {{ {', '.join(mixture)} }}",
            "",
        ]
    )


def _par(parts: list[str], rng: random.Random) -> str:
    parts = list(parts)
    rng.shuffle(parts)
    return parts[0] if len(parts) == 1 else "(" + " | ".join(parts) + ")"


def scaffold(k: int, rng: random.Random) -> str:
    """k binding sites on one scaffold, one ligand per site (ROADMAP item 1).

    Every site binds and releases its ligand independently, so the
    reachable species are the 2^k occupancy states of the scaffold, the k
    free ligands and the ``Sc`` definition itself.
    """
    species = [f"species Sc = new l in {_par([f'Site{i}(l)' for i in range(k)], rng)};"]
    affinity, mixture = [], ["1 Sc"]
    for i in range(k):
        species += [
            f"species Site{i}(l) = a{i}(m).Bound{i}(l, m);",
            f"species Bound{i}(l, m) = u{i}@m.Site{i}(l);",
            f"species L{i} = l{i}(m).Lb{i}(m);",
            f"species Lb{i}(m) = v{i}@m.L{i};",
        ]
        affinity += [f"a{i} || l{i} at MA(1.0);", f"u{i} & v{i} at MA(0.5);"]
        mixture.append(f"1 L{i}")
    return _model(species, affinity, mixture, rng)


def witness(k: int, rng: random.Random) -> str:
    """k co-located sites ``w_i@l`` under one ``new l``; only w0 & w1 react.

    The one reaction turns the species into itself, so there are exactly two
    primes: the ``X`` definition and its unfolding.
    """
    species = [f"species X = new l in {_par([f'W{i}(l)' for i in range(k)], rng)};"]
    species += [f"species W{i}(l) = w{i}@l.W{i}(l);" for i in range(k)]
    return _model(species, ["w0 & w1 at MA(1.0);"], ["1 X"], rng)


def bank(k: int, rng: random.Random) -> str:
    """An enzyme bank: k substrates that share one enzyme with k sites.

    The enzyme holds at most one substrate at a time, so the species are the
    free enzyme, and per substrate i the substrate, its complex and its
    product: 3k + 1 primes.  Per substrate there are four reactions: bind,
    unbind, catalyse and product decay.  Free enzyme plus all complexes is
    conserved.
    """
    species = ["species E = " + " + ".join(f"e{i}(l).Eb{i}(l)" for i in range(k)) + ";"]
    affinity, mixture = [], ["1 E"]
    for i in range(k):
        species += [
            f"species Eb{i}(l) = x{i}@l.E;",
            f"species S{i} = s{i}(l).(r{i}@l.S{i} + c{i}@l.P{i});",
            f"species P{i} = p{i}.0;",
        ]
        affinity += [
            f"s{i} || e{i} at MA(1.0);",
            f"r{i} & x{i} at MA(0.5);",
            f"c{i} & x{i} at MA(0.3);",
            f"p{i} at MA(0.1);",
        ]
        mixture.append(f"5 S{i}")
    return _model(species, affinity, mixture, rng)


def is_bank_enzyme(prime_name: str) -> bool:
    """Free enzyme or an enzyme-substrate complex of ``bank``."""
    return prime_name == "E" or "Eb" in prime_name
