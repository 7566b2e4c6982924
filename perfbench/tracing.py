"""Spans around bondc's public entry points, recorded from outside bondc.

``Tracer.install`` wraps each entry point in ``TARGETS``.  bondc modules
import these names with ``from ... import``, so a function's wrapper is
rebound in every bondc module that holds the original; methods are replaced
on their class.  Each call records a span (name, start, end, parent) in
memory.  A layer's self time is its spans' durations minus the time their
direct child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, layer).  Span names are "<layer>.<attribute>".
TARGETS = [
    ("bondc.parser", "parse_model", "parser"),
    ("bondc.congruence", "normalize", "congruence"),
    ("bondc.congruence", "serialize", "congruence"),
    ("bondc.congruence", "primes", "congruence"),
    ("bondc.transitions", "TransitionSystem.transitions", "transitions"),
    ("bondc.transitions", "TransitionSystem.ambient", "transitions"),
    ("bondc.transitions", "colocate", "transitions"),
    ("bondc.reactions", "PrimeIndex.add", "reactions"),
    ("bondc.reactions", "reachable_primes", "reactions"),
    ("bondc.reactions", "extract_reactions", "reactions"),
    ("bondc.reactions", "build_reaction_system", "reactions"),
    ("bondc.expr", "compile_exprs", "expr"),
    ("bondc.ode", "build_odes", "ode"),
    ("bondc.ode", "integrate", "ode"),
    ("bondc.ode", "eval_field", "ode"),
    ("bondc.ssa", "discretize", "ssa"),
    ("bondc.ssa", "gillespie_runs", "ssa"),
    ("bondc.cli", "main", "cli"),
]

def _expr_nodes(e) -> int:
    stack, n = [e], 0
    while stack:
        x = stack.pop()
        n += 1
        if hasattr(x, "left"):
            stack += (x.left, x.right)
    return n


def _cache_size(args) -> int:
    return len(getattr(args[0], "_cache", ()))


class Tracer:
    def __init__(self) -> None:
        self.span_names = [f"{layer}.{attr}" for _, attr, layer in TARGETS]
        self._installed: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()  # cleared in place: observers hold it
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts.clear()

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, nid: int, fn, before=None, after=None):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(i)
            state = before(args) if before else None
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
            if after:
                after(args, result, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observers(self, span: str):
        c = self.counts

        def transitions(args, result, size_before):
            c["transitions.cache_hits"] += size_before == _cache_size(args)

        def prime_add(args, result, _):
            c["reactions.prime_adds"] += 1
            c["reactions.new_primes"] += bool(result[1])

        def reach(args, result, _):
            c["reactions.primes"] += len(result)

        def extract(args, result, _):
            c["reactions.reactions"] += len(result.reactions)

        def compile_exprs(args, result, _):
            c["expr.rate_nodes"] += sum(_expr_nodes(e) for e in args[0])

        def integrate(args, result, _):
            c["ode.steps"] += result.steps
            c["ode.rejected"] += result.rejected
            c["ode.rhs_evals"] += result.nfev

        def gillespie_runs(args, result, _):
            c["ssa.reactions"] = max(c["ssa.reactions"], len(args[0].events))
            c["ssa.events"] += sum(r.events for r in result)
            c["ssa.absorbed_runs"] += sum(bool(r.absorbed) for r in result)

        return {
            "transitions.TransitionSystem.transitions": (_cache_size, transitions),
            "reactions.PrimeIndex.add": (None, prime_add),
            "reactions.reachable_primes": (None, reach),
            "reactions.extract_reactions": (None, extract),
            "expr.compile_exprs": (None, compile_exprs),
            "ode.integrate": (None, integrate),
            "ssa.gillespie_runs": (None, gillespie_runs),
        }.get(span, (None, None))

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "bondc" or n.startswith("bondc.")]
        for nid, (modname, attr, _) in enumerate(TARGETS):
            span = self.span_names[nid]
            before, after = self._observers(span)
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._installed.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(nid, orig, before, after))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(nid, orig, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._installed.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._installed):
            setattr(owner, key, orig)
        self._installed.clear()

    # -- summaries ------------------------------------------------------------

    def span_table(self) -> dict[str, tuple[int, float, float]]:
        """span name -> (calls, total seconds, self seconds)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.span_names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=dur - child, minlength=k)
        return {
            s: (int(calls[i]), float(total[i]), float(self_s[i]))
            for i, s in enumerate(self.span_names)
        }

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset()."""
        t = self.span_table()
        c = self.counts
        layer_self: Counter = Counter()
        for (_, _, layer), span in zip(TARGETS, self.span_names):
            layer_self[layer] += t[span][2]

        def ratio(num, den):
            return num / den if den else 0.0

        calls = {s: v[0] for s, v in t.items()}
        total = {s: v[1] for s, v in t.items()}
        return {
            "parser.s": total["parser.parse_model"],
            "parser.calls": calls["parser.parse_model"],
            "congruence.normalize.calls": calls["congruence.normalize"],
            "congruence.normalize.self_s": t["congruence.normalize"][2],
            "congruence.serialize.calls": calls["congruence.serialize"],
            "congruence.serialize.self_s": t["congruence.serialize"][2],
            "transitions.calls": calls["transitions.TransitionSystem.transitions"],
            "transitions.cache_hit_ratio": ratio(
                c["transitions.cache_hits"], calls["transitions.TransitionSystem.transitions"]
            ),
            "transitions.colocate.calls": calls["transitions.colocate"],
            "transitions.self_s": layer_self["transitions"],
            "reactions.reach_s": total["reactions.reachable_primes"],
            "reactions.extract_s": total["reactions.extract_reactions"],
            "reactions.primes": c["reactions.primes"],
            "reactions.reactions": c["reactions.reactions"],
            "reactions.ambient.calls": calls["transitions.TransitionSystem.ambient"],
            "reactions.new_prime_ratio": ratio(
                c["reactions.new_primes"], c["reactions.prime_adds"]
            ),
            "expr.compile_s": total["expr.compile_exprs"],
            "expr.rate_nodes": c["expr.rate_nodes"],
            "ode.steps": c["ode.steps"],
            "ode.rejected": c["ode.rejected"],
            "ode.rhs_evals": c["ode.rhs_evals"],
            "ode.rhs_us": 1e6 * ratio(total["ode.eval_field"], calls["ode.eval_field"]),
            "ode.integrate_s": total["ode.integrate"],
            "ssa.reactions": c["ssa.reactions"],
            "ssa.events": c["ssa.events"],
            "ssa.us_per_event": 1e6 * ratio(total["ssa.gillespie_runs"], c["ssa.events"]),
            "ssa.absorbed_runs": c["ssa.absorbed_runs"],
            "cli.self_s": layer_self["cli"],
        }

    def deterministic_counts(self) -> dict[str, int]:
        """Every count that must repeat exactly when the same inputs rerun."""
        out = {f"{s}.calls": v[0] for s, v in self.span_table().items()}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            span_names=np.array(self.span_names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
