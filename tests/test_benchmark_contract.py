"""The functions BENCHMARK.json names per layer are the ones the tracer wraps.

A traced benchmark run (perfbench/run.py --trace 1) reports a per-layer
metric "layer.function.stat" only for a function that perfbench/tracing.py
wraps: a public function defined in the module arrcensus.<layer>, not a
generator function.  A function that is renamed, made private, moved or
turned into a generator is reported as absent and its metrics are missing
from the run.  This test reads BENCHMARK.json and the tracer's layer list
and changes nothing under perfbench/.
"""

import importlib
import importlib.util
import inspect
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tracer_filter():
    """LAYERS and NOT_WRAPPED of perfbench/tracing.py, read in place."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS, tracing.NOT_WRAPPED


def declared_functions():
    """(layer, function) of every per-layer name layer.function.stat."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    return sorted({tuple(name.split(".")[:2]) for name in names
                   if name.count(".") == 2})


def test_every_declared_function_is_wrapped_by_the_tracer():
    layers, not_wrapped = tracer_filter()
    declared = declared_functions()
    assert declared
    missing = []
    for layer, name in declared:
        if layer not in layers:
            missing.append("%s.%s: not a traced layer" % (layer, name))
            continue
        mod = importlib.import_module("arrcensus." + layer)
        fn = getattr(mod, name, None)
        if (name.startswith("_") or not inspect.isfunction(fn)
                or fn.__module__ != mod.__name__
                or inspect.isgeneratorfunction(fn)
                or (layer, name) in not_wrapped):
            missing.append("%s.%s" % (layer, name))
    assert not missing, "not wrapped by the tracer: %s" % ", ".join(missing)
