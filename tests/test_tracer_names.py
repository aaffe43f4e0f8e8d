"""The benchmark tracer's per-layer metrics name functions that exist.

`perfbench/tracer.py` wraps the public functions of the package by name,
and each `LAYER_METRICS` entry lists the functions it reads. After a rename
or a deletion an entry can match nothing, and its metric then reads 0
without an error. This test lists the functions the way `Tracer.install`
does, without wrapping any, and reads the tracer file without changing it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def traced_functions(tracer) -> set:
    """`module.function` of each public function defined in one of
    `tracer.MODULES`, less `tracer.UNTRACED`: the names `Tracer.install` wraps."""
    names = set()
    for short in tracer.MODULES:
        module = importlib.import_module(f"spinsqueeze.{short}")
        for attr, fn in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                names.add(f"{short}.{attr}")
    return names - set(tracer.UNTRACED)


def test_every_layer_metric_matches_a_traced_function():
    tracer = load_tracer()
    functions = traced_functions(tracer)
    unmatched = [
        metric for metric, (_, _, patterns) in tracer.LAYER_METRICS.items()
        if patterns != (tracer.HOOK_SPAN,)  # the tracer's own span, not a function
        and not any(tracer._matches(name, patterns) for name in functions)
    ]
    assert functions
    assert unmatched == []
