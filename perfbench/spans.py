"""Spans around the public functions of each so3sparse module, kept in memory.

`instrumented(tracer)` replaces, for the duration of a `with` block, every
public function (the module's `__all__`) of each layer module with a wrapper
that records a span, in every package module that binds it. Calls made
through a hidden child layer (run_trial -> sampling, basis, precondition,
solve; recover_transmission -> dictionary, solve) therefore show up as
child spans while the program runs unchanged; the traced run checks that
its outputs equal the untraced ones. The benchmark opens the root span
itself, around `cli.run`.

A span's self time is its duration minus the durations of its children;
spans are strictly nested because the traced run is single-threaded.
"""

from __future__ import annotations

import importlib
import inspect
import math
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("cli", "experiments", "nearfield", "sensing", "solver", "wigner", "sampling")
TRIAL_SPAN = "experiments.run_trial"


@dataclass(slots=True)
class Span:
    name: str            # "<layer>.<function>"
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 for a root
    op: int              # index of the CLI command it belongs to
    trial: int           # index of the enclosing run_trial span, -1 outside trials
    counts: dict | None  # work counted from the call's result

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _counts(name: str, result) -> dict | None:
    """Work done by one call, read off its result."""
    if name == "wigner.evaluate_basis":
        return {"entries": int(result.size)}
    if name.startswith("sampling.sample_"):
        return {"points": len(result)}
    if name.startswith("solver.") and hasattr(result, "iterations"):
        return {"iterations": int(result.iterations), "status": result.status}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        trial = idx if name == TRIAL_SPAN else (self.spans[parent].trial if parent >= 0 else -1)
        span = Span(name, perf_counter(), math.nan, parent, self.op, trial, None)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
            span.counts = _counts(name, result)
            return result
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Route every call of a layer's public functions through `tracer`."""
    modules = [importlib.import_module(f"so3sparse.{layer}") for layer in LAYERS]
    saved = []
    try:
        for layer, mod in zip(LAYERS, modules):
            for name in getattr(mod, "__all__", ()):
                fn = mod.__dict__.get(name)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = tracer.wrap(f"{layer}.{name}", fn)
                for target in modules:
                    if target.__dict__.get(name) is fn:
                        saved.append((target, name, fn))
                        setattr(target, name, wrapper)
        yield tracer
    finally:
        for target, name, fn in saved:
            setattr(target, name, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.seconds
    return out


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of p50/p75/p90/p95/p99 that leaves at
    least ten samples above it, by nearest rank; (0, 0) below 20 samples."""
    xs = sorted(samples)
    n = len(xs)
    best = (0.0, 0.0)
    for p in (50, 75, 90, 95, 99):
        rank = math.ceil(n * p / 100)
        if n - rank >= 10:
            best = (float(p), xs[rank - 1])
    return best


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced pass: self (busy) time per layer,
    inclusive time of named functions, and the work counts."""
    selfs = self_times(spans)
    busy = {layer: 0.0 for layer in LAYERS}
    inclusive: dict[str, float] = {}
    for s, self_s in zip(spans, selfs):
        busy[s.layer] += self_s
        inclusive[s.name] = inclusive.get(s.name, 0.0) + s.seconds

    def incl(name):
        return inclusive.get(name, 0.0)

    solves = [s.counts for s in spans if s.layer == "solver" and s.counts]
    iters = sorted(c["iterations"] for c in solves)
    statuses = [c["status"] for c in solves]
    entries = sum(s.counts["entries"] for s in spans if s.name == "wigner.evaluate_basis")
    trials = [s.seconds for s in spans if s.name == TRIAL_SPAN]
    tail_pct, tail_s = tail(trials)
    return {
        "cli.self_s": busy["cli"],
        "sampling.busy_s": busy["sampling"],
        "sampling.points": sum(s.counts["points"] for s in spans
                               if s.layer == "sampling" and s.counts),
        "wigner.busy_s": busy["wigner"],
        "wigner.evaluate_basis_s": incl("wigner.evaluate_basis"),
        "wigner.entries": entries,
        "wigner.ns_per_entry": 1e9 * incl("wigner.evaluate_basis") / entries if entries else 0.0,
        "wigner.computed_mb": entries * 16 / 1e6,
        "sensing.busy_s": busy["sensing"],
        "sensing.make_problem_s": incl("sensing.make_problem"),
        "sensing.precondition_s": incl("sensing.precondition"),
        "sensing.gram_s": incl("sensing.gram_matrix"),
        "solver.busy_s": busy["solver"],
        "solver.solves": len(solves),
        "solver.iters_total": sum(iters),
        "solver.iters_p50": iters[(len(iters) - 1) // 2] if iters else 0,
        "solver.iters_max": iters[-1] if iters else 0,
        "solver.us_per_iter": 1e6 * busy["solver"] / sum(iters) if sum(iters) else 0.0,
        "solver.converged_frac": statuses.count("Converged") / len(statuses) if statuses else 0.0,
        "solver.maxiter": statuses.count("MaxIter"),
        "solver.infeasible": statuses.count("Infeasible"),
        "experiments.busy_s": busy["experiments"],
        "experiments.bound_scan_s": incl("experiments.bound_scan"),
        "experiments.trials": len(trials),
        "experiments.trial_p50_s": sorted(trials)[(len(trials) - 1) // 2] if trials else 0.0,
        "experiments.trial_tail_pct": tail_pct,
        "experiments.trial_tail_s": tail_s,
        "nearfield.busy_s": busy["nearfield"],
        "nearfield.dictionary_s": incl("nearfield.build_dictionary"),
        "nearfield.l1_s": incl("nearfield.recover_transmission"),
        "nearfield.ls_s": incl("nearfield.baseline_least_squares"),
        "nearfield.pattern_s": incl("nearfield.pattern_cut"),
    }
