"""bondc command line interface.

Exit codes: 0 success (also when the reader closes stdout early), 1 model
error (with a machine-parsable ``error[CODE]:`` line on stderr), 2 usage
error.  The codes are PARSE (a model file that cannot be read or parsed),
ARITY, UNBOUNDED, DOMAIN, STIFF and IO (an unwritable output file).

``main(argv)`` may be called repeatedly in one process: it builds the
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


def _compile(model, cap: int):
    """The model's reaction system; prints the warnings the compile adds."""
    n = len(model.warnings)
    rs = build_reaction_system(model, cap=cap)
    _warn(model.warnings[n:])
    return rs


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

    p = sub.add_parser("check", help="parse and validate a model")
    p.add_argument("file")

    p = sub.add_parser("primes", help="list reachable prime species")
    p.add_argument("file")
    p.add_argument("--cap", type=_COUNT, default=512)

    p = sub.add_parser("transitions", help="print the species transition table")
    p.add_argument("file")
    p.add_argument("--species", help="restrict to one defined species")

    p = sub.add_parser("crn", help="emit the extracted reaction network")
    p.add_argument("file")
    p.add_argument("--format", choices=["json"], default="json")
    p.add_argument("--cap", type=_COUNT, default=512)

    p = sub.add_parser("odes", help="emit the extracted ODE system")
    p.add_argument("file")
    p.add_argument("--format", choices=["text", "latex", "json"], default="text")
    p.add_argument("--cap", type=_COUNT, default=512)

    p = sub.add_parser("simulate", help="deterministic (ODE) trajectory as CSV")
    p.add_argument("file")
    p.add_argument("--t-end", type=_POSITIVE, required=True)
    p.add_argument("--rtol", type=_POSITIVE, default=1e-6)
    p.add_argument("--atol", type=_POSITIVE, default=1e-9)
    p.add_argument("--grid", type=_COUNT, default=200)
    p.add_argument("--cap", type=_COUNT, default=512)
    p.add_argument("--out", help="output CSV path (default: stdout)")

    p = sub.add_parser("ssa", help="stochastic (Gillespie) trajectories as CSV")
    p.add_argument("file")
    p.add_argument("--h", type=_POSITIVE, required=True, help="concentration per level")
    p.add_argument("--t-end", type=_POSITIVE, required=True)
    p.add_argument("--seed", type=_SEED, required=True)
    p.add_argument("--runs", type=_COUNT, default=1)
    p.add_argument("--sample-dt", type=_POSITIVE)
    p.add_argument("--cap", type=_COUNT, default=512)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a reader that closed stdout shows here, not at exit
        return code
    except BrokenPipeError:  # the reader of stdout stopped early: not a failure
        # stdout on /dev/null, so that the interpreter's own flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ParseError, ModelError, UnboundedError, DomainError, ode_mod.StiffnessError) as e:
        print(f"error[{e.code}]: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error[UNBOUNDED]: the model nests too deeply", file=sys.stderr)
        return 1
    except OSError as e:  # model files are read by _load, so this is --out
        print(f"error[IO]: {e}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "check":
        _load(args.file)
        print("ok")
        return 0

    if args.command == "primes":
        model = _load(args.file)
        index = reachable_primes(model, cap=args.cap)
        for name in index.names:
            print(name)
        return 0

    if args.command == "transitions":
        model = _load(args.file)
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
        return 0

    if args.command == "crn":
        model = _load(args.file)
        rs = _compile(model, args.cap)
        print(json.dumps(reaction_system_json(rs), indent=2))
        return 0

    if args.command == "odes":
        model = _load(args.file)
        rs = _compile(model, args.cap)
        sys_ = ode_mod.build_odes(rs)
        print(ode_mod.render_odes(sys_, fmt=args.format), end="")
        return 0

    if args.command == "simulate":
        model = _load(args.file)
        with _output(args.out) as fh:  # before the run: a bad path fails fast
            rs = _compile(model, args.cap)
            sys_ = ode_mod.build_odes(rs)
            x0 = initial_mixture(model, rs.index)
            traj = ode_mod.integrate(
                sys_, x0, args.t_end, rtol=args.rtol, atol=args.atol, grid=args.grid
            )
            ode_mod.write_trajectory_csv(fh, sys_.names, traj)
        return 0

    if args.command == "ssa":
        model = _load(args.file)
        with _output(args.out) as fh:
            rs = _compile(model, args.cap)
            dm = ssa_mod.discretize(rs, args.h)
            x0 = initial_mixture(model, rs.index)
            n0 = ssa_mod.initial_levels(x0, args.h)
            runs = ssa_mod.gillespie_runs(
                dm, n0, args.t_end, args.seed, args.runs, sample_dt=args.sample_dt
            )
            for name, c, n in zip(dm.names, x0, n0):
                if c and not n:
                    w = f"initial concentration {c:g} of '{name}' rounds to 0 levels"
                    print(f"warning: {w} at h={args.h:g}", file=sys.stderr)
            for r in runs:
                for w in r.warnings:
                    print(f"warning: run {r.run_id}: {w}", file=sys.stderr)
            ssa_mod.write_runs_csv(fh, dm, runs)
        return 0

    raise AssertionError(args.command)


if __name__ == "__main__":
    raise SystemExit(main())
