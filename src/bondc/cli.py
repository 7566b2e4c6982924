"""bondc command line interface.

Exit codes: 0 success (also when the reader closes stdout early), 1 model
error (with a machine-parsable ``error[CODE]:`` line on stderr), 2 usage
error.  The codes are PARSE (a model file that cannot be read or parsed),
ARITY, UNBOUNDED, DOMAIN, STIFF, IO (an unwritable output file) and MEMORY
(output too large to allocate, such as a huge ``--grid``).

Every subcommand reads its model first.  ``crn``, ``odes``, ``simulate`` and
``ssa`` then open their output (``--out``, or stdout), compile the model and
emit.  ``main(argv)`` may be called repeatedly in one process: it builds the
argument parser on its first call and reuses it afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import ode as ode_mod
from . import ssa as ssa_mod
from .expr import DomainError
from .parser import ParseError, parse_model
from .reactions import (
    UnboundedError,
    build_reaction_system,
    initial_mixture,
    reachable_primes,
    reaction_system_json,
)
from .terms import Call, ModelError
from .transitions import TransitionSystem, format_transition


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ModelError(str(e)) from e
    except UnicodeDecodeError as e:
        raise ModelError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from e
    model = parse_model(text)
    _warn(model.warnings)
    return model


def _warn(warnings: list[str]) -> None:
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)


def _output(path: str | None):
    """The --out file opened for writing, or stdout when there is none."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _checked(cast, ok, what: str):
    """An argparse type: ``cast`` of the text, which must satisfy ``ok``."""

    def parse(text: str):
        with contextlib.suppress(ValueError):
            if ok(value := cast(text)):
                return value
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")

    return parse


_POSITIVE = _checked(float, lambda v: 0.0 < v < float("inf"), "a positive number")
_COUNT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_SEED = _checked(int, lambda v: v >= 0, "an integer >= 0")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and kept for the process."""
    # --help shows the docstring up to its last paragraph, which is for callers of main
    ap = argparse.ArgumentParser(prog="bondc", description=__doc__.rsplit("\n\n", 1)[0])
    sub = ap.add_subparsers(dest="command", required=True)
    # the arguments that several subcommands share, each declared once
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("file")
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--cap", type=_COUNT, default=512)
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--t-end", type=_POSITIVE, required=True)
    run.add_argument("--grid", type=_COUNT, default=200)
    run.add_argument("--out", help="output CSV path (default: stdout)")

    def command(name: str, help: str, *shared: argparse.ArgumentParser):
        return sub.add_parser(name, help=help, parents=[model, *shared])

    command("check", "parse and validate a model")
    command("primes", "list reachable prime species", capped)
    p = command("transitions", "print the species transition table")
    p.add_argument("--species", help="restrict to one defined species")
    command("crn", "emit the extracted reaction network", capped)
    p = command("odes", "emit the extracted ODE system", capped)
    p.add_argument("--format", choices=["text", "latex", "json"], default="text")

    p = command("simulate", "deterministic (ODE) trajectory as CSV", capped, run)
    p.add_argument("--rtol", type=_POSITIVE, default=1e-6)
    p.add_argument("--atol", type=_POSITIVE, default=1e-9)

    p = command("ssa", "stochastic (Gillespie) trajectories as CSV", capped, run)
    p.add_argument("--h", type=_POSITIVE, required=True, help="concentration per level")
    p.add_argument("--seed", type=_SEED, required=True)
    p.add_argument("--runs", type=_COUNT, default=1)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _dispatch(args)
        sys.stdout.flush()  # a reader that closed stdout shows here, not at exit
        return 0
    except BrokenPipeError:  # the reader of stdout stopped early: not a failure
        # stdout on /dev/null, so that the interpreter's own flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ParseError, ModelError, UnboundedError, DomainError, ode_mod.StiffnessError,
            ssa_mod.EventBudgetError) as e:
        print(f"error[{e.code}]: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error[UNBOUNDED]: the model nests too deeply", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error[MEMORY]: {e or 'out of memory'}", file=sys.stderr)
        return 1
    except OSError as e:  # model files are read by _load, so this is --out
        print(f"error[IO]: {e}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> None:
    model = _load(args.file)
    if args.command == "check":
        print("ok")
        return
    if args.command == "primes":
        for name in reachable_primes(model, cap=args.cap).names:
            print(name)
        return
    if args.command == "transitions":
        ts = TransitionSystem(model.species)
        if args.species:
            if args.species not in model.species:
                raise ModelError(f"unknown species '{args.species}'")
            sources = [Call(args.species, model.species[args.species].params)]
        else:
            sources = [Call(name, ()) for name, sd in model.species.items() if not sd.params]
        for src in sources:
            for line in sorted(
                format_transition(src, tr, mult) for tr, mult in ts.transitions(src).items()
            ):
                print(line)
        return

    # crn and odes have no --out and print to stdout; a bad --out fails before the compile
    with _output(getattr(args, "out", None)) as fh:
        rs = build_reaction_system(model, cap=args.cap)
        _warn(rs.warnings)
        if args.command == "crn":
            json.dump(reaction_system_json(rs), fh, indent=2)  # in pieces: one write cuts at 2 GiB
            fh.write("\n")
        elif args.command == "odes":
            ode_mod.write_odes(fh, ode_mod.build_odes(rs), args.format)
        elif args.command == "simulate":
            sys_ = ode_mod.build_odes(rs)
            x0 = initial_mixture(model, rs.index)
            traj = ode_mod.integrate(
                sys_, x0, args.t_end, rtol=args.rtol, atol=args.atol, grid=args.grid
            )
            ode_mod.write_trajectory_csv(fh, sys_.names, traj)
        else:
            dm = ssa_mod.discretize(rs, args.h)
            x0 = initial_mixture(model, rs.index)
            for name, c in zip(dm.names, x0):
                if not c / args.h < 2**63:  # levels are stored as int64
                    n = f"'{name}' starts at {c / args.h:g} levels at h={args.h:g}"
                    raise DomainError(f"{n}, more than a level count holds (2^63 - 1)")
            n0 = ssa_mod.initial_levels(x0, args.h)
            for name, c, n in zip(dm.names, x0, n0):  # before the runs, which may fail
                if c and not n:
                    w = f"initial concentration {c:g} of '{name}' rounds to 0 levels"
                    print(f"warning: {w} at h={args.h:g}", file=sys.stderr)
            runs = ssa_mod.gillespie_runs(dm, n0, args.t_end, args.seed, args.runs, args.grid)
            for r in runs:
                for w in r.warnings:
                    print(f"warning: run {r.run_id}: {w}", file=sys.stderr)
            ssa_mod.write_runs_csv(fh, dm, runs)


if __name__ == "__main__":
    raise SystemExit(main())
