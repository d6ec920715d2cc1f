"""Spans around the public functions of the eight library layers.

Installed only in the traced run.  Every public function of a layer module
is wrapped, and the wrapper is bound at each name callers look it up under:
`arrcensus.chambers.feasible_strict` as well as
`arrcensus.exact_linalg.feasible_strict`, and `arrcensus.cli.cmd_*`, which
the argument parser reads from the module globals on every call.  Private
helpers are not wrapped, so their time is self time of the public function
that called them.  `dot` is not wrapped: it runs millions of times per run
and a wrapper would swamp it.  Generator functions are not wrapped either:
their span would close before their work runs.

Spans are kept in memory as tuples and written when the run ends.  Self
time is a span's duration minus the durations of its direct children.
"""

import inspect
import sys
import time

LAYERS = ("cli", "normal_system", "discriminantal", "exact_linalg",
          "concurrency", "charpoly", "chambers", "affine_geometry")
NOT_WRAPPED = {("exact_linalg", "dot")}
CHARPOLY_ENGINES = ("poset_charpoly", "whitney_charpoly",
                    "combinatorial_charpoly")

# spans under these functions feed the per-outcome ratios
_UNDER = {("charpoly", f): 1 for f in CHARPOLY_ENGINES}
_UNDER[("concurrency", "is_concurrency_free")] = 2
_UNDER[("chambers", "enumerate_chambers")] = 4
_UNDER[("affine_geometry", "region_census")] = 8


def _outcome(name, result):
    """A count read off a result: points found, cones, regions."""
    if name == "feasible_strict":
        return int(result is not None)
    if name == "enumerate_chambers":
        return len(result)
    if name == "region_census":
        return result["total"]
    return 0


class Tracer:
    """Wraps the layer modules of one process and records its spans."""

    def __init__(self):
        self.names = []        # function id -> "layer.function"
        self.spans = []        # (fid, start_ns, end_ns, parent, job, outcome)
        self.stack = []
        self.job = -1

    def install(self):
        """Wrap every public function at every name it is bound to."""
        modules = [sys.modules["arrcensus." + layer] for layer in LAYERS]
        originals = {}
        for layer, mod in zip(LAYERS, modules):
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)
                        or (layer, name) in NOT_WRAPPED):
                    continue
                originals[fn] = self._wrap(layer, name, fn)
        for mod in [m for k, m in list(sys.modules.items())
                    if k == "arrcensus" or k.startswith("arrcensus.")]:
            for name, obj in list(vars(mod).items()):
                try:
                    wrapper = originals.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    setattr(mod, name, wrapper)

    def _wrap(self, layer, name, fn):
        fid = len(self.names)
        self.names.append("%s.%s" % (layer, name))
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            out = 0
            try:
                result = fn(*args, **kwargs)
                out = _outcome(name, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, tracer.job, out)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def write(self, path, job_systems):
        """One line per span: name, start, end, parent, job, system."""
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,job,system\n")
            for fid, start, end, parent, job, _ in self.spans:
                fh.write("%s,%d,%d,%d,%d,%s\n" % (
                    self.names[fid], start, end, parent, job,
                    job_systems.get(job, "")))

    def summary(self, job_scale):
        """Per function and per layer: calls and self ms; the ratios.

        Self times are scaled by their job's machine-speed factor, as job
        times are.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        under = [0] * len(spans)
        for i, (fid, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += end - start
                pfid = spans[parent][0]
                under[i] = under[parent] | _UNDER.get(
                    tuple(self.names[pfid].split(".", 1)), 0)
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        outcome = [0] * len(self.names)
        under_calls = {}
        for i, (fid, start, end, _, job, out) in enumerate(spans):
            calls[fid] += 1
            self_ns[fid] += (end - start - child_ns[i]) * (
                job_scale[job] if job >= 0 else 1.0)
            outcome[fid] += out
            if under[i]:
                key = (fid, under[i])
                under_calls[key] = under_calls.get(key, 0) + 1
        index = {name: fid for fid, name in enumerate(self.names)}
        metrics = {}
        layer_ns = dict.fromkeys(LAYERS, 0)
        for fid, name in enumerate(self.names):
            metrics[name + ".calls"] = calls[fid]
            metrics[name + ".self_ms"] = self_ns[fid] / 1e6
            layer_ns[name.split(".", 1)[0]] += self_ns[fid]
        for layer, ns in layer_ns.items():
            metrics[layer + ".self_ms"] = ns / 1e6

        def get(name, table):
            fid = index.get(name)
            return None if fid is None else table[fid]

        def under_count(name, bit):
            fid = index.get(name)
            if fid is None:
                return None
            return sum(v for (f, mask), v in under_calls.items()
                       if f == fid and mask & bit)

        def ratio(num, den):
            if num is None or den is None:
                return None
            return num / den if den else 0.0

        engines = [get("charpoly." + f, calls) for f in CHARPOLY_ENGINES]
        engines = [c for c in engines if c is not None]
        cones = get("chambers.enumerate_chambers", outcome)
        regions = get("affine_geometry.region_census", outcome)
        derived = {
            "exact_linalg.feasible_strict.yield": ratio(
                get("exact_linalg.feasible_strict", outcome),
                get("exact_linalg.feasible_strict", calls)),
            "charpoly.rref_per_call": ratio(
                under_count("exact_linalg.rref", 1),
                sum(engines) if engines else None),
            "concurrency.rank_per_call": ratio(
                under_count("exact_linalg.rank", 2),
                get("concurrency.is_concurrency_free", calls)),
            "chambers.cones": cones,
            "chambers.feasible_per_cone": ratio(
                under_count("exact_linalg.feasible_strict", 4), cones),
            "affine_geometry.feasible_per_region": ratio(
                under_count("exact_linalg.feasible_strict", 8), regions),
        }
        metrics.update({k: v for k, v in derived.items() if v is not None})
        return metrics
