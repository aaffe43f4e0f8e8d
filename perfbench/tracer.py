"""Span tracer around the public functions of every spinsqueeze module.

`Tracer.install` replaces each public function by a timing wrapper under
its name in every spinsqueeze module namespace that binds it, so calls
through `from .x import f` are seen as well as calls through `x.f`. Spans
(name, start, end, parent) are kept in memory and written out when the run
ends; `layer_metrics` turns a span file into the per-layer metrics.

Counters are taken at the same boundaries from the arguments and results.
Byte counts are computed from array sizes; memory bandwidth is not measured.
Time spent computing counters is recorded as its own `trace.hook` span so
it is not charged to any layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

MODULES = ("hamiltonians", "evolution", "dicke", "squeezing", "pairwise",
           "oracle", "verify", "cli")
SUITES = ("lemma1", "lemma2", "lemma3", "prop3", "prop4", "parity", "oracle", "x-form")
HOOK_SPAN = "trace.hook"
# Called once per CSV cell: a span would cost more than the work it times,
# so its time stays in write_csv's self time.
UNTRACED = ("cli.fmt",)

BUILD = ("hamiltonians.build_hamiltonian",)
EIGEN = ("evolution.hermitian_eigen",)
PROPAGATE = ("evolution.trajectory", "evolution.evolve_grid", "evolution.evolve_to")
MOMENTS = ("dicke.collective_moments",)
XI2 = ("squeezing.squeezing_even_odd", "squeezing.squeezing_general",
       "squeezing.perpendicular_correlation_min")
REDUCE = ("pairwise.reduced_two_qubit",)
CONCURRENCE = ("pairwise.concurrence_x_form", "pairwise.concurrence_spectral")
ROWS = ("cli.evolve_rows",)
WRITE_CSV = ("cli.write_csv",)


def _suite_function(suite: str) -> str:
    return "verify.suite_" + suite.replace("-", "_")


# Per-layer metrics: name -> (unit, how, functions). `how` is "incl" for the
# time inside the outermost call of any listed function, "self" for the
# time inside the listed functions minus their traced callees, "calls" for
# the call count, or a counter name summed (or maxed) over the listed calls.
LAYER_METRICS = {
    "hamiltonians.build_s": ("s", "incl", BUILD),
    "hamiltonians.build_calls": ("count", "calls", BUILD),
    "hamiltonians.matrix_bytes": ("B", "matrix_bytes", BUILD),
    "evolution.eigen_s": ("s", "incl", EIGEN),
    "evolution.eigen_calls": ("count", "calls", EIGEN),
    "evolution.eigen_dim": ("count", "eigen_dim", EIGEN),
    "evolution.propagate_s": ("s", "self", PROPAGATE),
    "evolution.states": ("count", "states", PROPAGATE),
    "evolution.max_norm_drift": ("ratio", "max_norm_drift", PROPAGATE),
    "dicke.moments_s": ("s", "incl", MOMENTS),
    "dicke.moments_calls": ("count", "calls", MOMENTS),
    "squeezing.xi2_s": ("s", "incl", XI2),
    "squeezing.xi2_calls": ("count", "calls", XI2),
    "squeezing.degenerate_ratio": ("ratio", "degenerate_ratio", ("squeezing.squeezing_general",)),
    "pairwise.reduce_s": ("s", "incl", REDUCE),
    "pairwise.concurrence_s": ("s", "incl", CONCURRENCE),
    "pairwise.calls": ("count", "calls", REDUCE + CONCURRENCE),
    "oracle.calls": ("count", "calls", ("oracle.*",)),
    "oracle.state_bytes": ("B", "array_bytes", ("oracle.*",)),
    **{f"verify.{s}_s": ("s", "incl", (_suite_function(s),)) for s in SUITES},
    "verify.checks": ("count", "checks", ("verify.suite_*",)),
    "verify.failed": ("count", "failed_checks", ("verify.suite_*",)),
    "cli.rows_s": ("s", "self", ROWS),
    "cli.write_csv_s": ("s", "incl", WRITE_CSV),
    "cli.csv_bytes": ("B", "csv_bytes", WRITE_CSV),
    # Self time per module: these and trace.hook_s add up to the traced wall_s.
    **{f"{m}.self_s": ("s", "self", (f"{m}.*",)) for m in MODULES},
    "trace.hook_s": ("s", "self", (HOOK_SPAN,)),
}


def _array_bytes(obj, depth: int = 2) -> int:
    """Bytes of the numpy arrays in a result, looking `depth` levels deep."""
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    if depth == 0:
        return 0
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(item, depth - 1) for item in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return sum(_array_bytes(getattr(obj, f), depth - 1) for f in obj.__dataclass_fields__)
    return 0


def _states_hook(args, kwargs, result):
    import numpy as np

    states = result if isinstance(result, list) else [result]
    drift = max((abs(float(np.linalg.norm(s.amplitudes)) - 1.0) for s in states), default=0.0)
    return {"states": len(states), "max_norm_drift": drift}


def _write_csv_hook(args, kwargs, result):
    path = args[0] if args else kwargs.get("path", "")
    return {"csv_bytes": os.path.getsize(path) if path not in ("", "-") else 0}


def _suite_hook(args, kwargs, result):
    return {"checks": len(result), "failed_checks": sum(not c.passed for c in result)}


HOOKS = {
    "hamiltonians.build_hamiltonian": lambda a, k, r: {"matrix_bytes": _array_bytes(r)},
    "evolution.hermitian_eigen": lambda a, k, r: {"eigen_dim": int(r.dim)},
    "evolution.evolve_grid": _states_hook,
    "evolution.evolve_to": _states_hook,
    "cli.write_csv": _write_csv_hook,
}


def _hook_for(name: str):
    if name in HOOKS:
        return HOOKS[name]
    if name.startswith("oracle."):
        return lambda a, k, r: {"array_bytes": _array_bytes(r)}
    if name.startswith("verify.suite_"):
        return _suite_hook
    return None


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index, counters, raised]
        self._stack = []
        self.functions = []

    def install(self) -> None:
        modules = {m: importlib.import_module(f"spinsqueeze.{m}") for m in MODULES}
        namespaces = [importlib.import_module("spinsqueeze"), *modules.values()]
        for short, module in modules.items():
            for attr, fn in vars(module).copy().items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in UNTRACED:
                    continue
                wrapped = self._wrap(name, fn, _hook_for(name))
                self.functions.append(name)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        setattr(ns, attr, wrapped)

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[5] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if hook is not None:
                start = clock()
                span[4] = hook(args, kwargs, result)
                spans.append([HOOK_SPAN, start, clock(), parent, None, None])
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"run_id": self.run_id, "functions": self.functions,
                       "spans": self.spans}, handle)


def _matches(name: str, patterns) -> bool:
    return any(name == p or (p.endswith("*") and name.startswith(p[:-1])) for p in patterns)


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced call, from a span file's contents.

    A metric whose functions no longer exist is reported with value None
    and `missing: true`, never as zero.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    by_name = {}
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            child_time[parent] += end - start
    present = set(trace["functions"]) | {HOOK_SPAN}
    metrics = {}
    for metric, (unit, how, patterns) in LAYER_METRICS.items():
        if not any(_matches(f, patterns) for f in present):
            metrics[metric] = {"value": None, "unit": unit, "missing": True}
            continue
        chosen = [i for name, idx in by_name.items() if _matches(name, patterns) for i in idx]
        if how == "incl":
            inside = set(chosen)
            value = 0.0
            for i in chosen:
                p = spans[i][3]
                while p >= 0 and p not in inside:
                    p = spans[p][3]
                if p < 0:
                    value += spans[i][2] - spans[i][1]
        elif how == "self":
            value = sum(spans[i][2] - spans[i][1] - child_time[i] for i in chosen)
        elif how == "calls":
            value = len(chosen)
        elif how == "degenerate_ratio":
            degenerate = sum(spans[i][5] == "MeanSpinDegenerateError" for i in chosen)
            value = degenerate / len(chosen) if chosen else 0.0
        else:
            counts = [spans[i][4].get(how, 0) for i in chosen if spans[i][4]]
            value = max(counts, default=0.0) if how.startswith("max_") else sum(counts)
        metrics[metric] = {"value": value, "unit": unit}
    return metrics
