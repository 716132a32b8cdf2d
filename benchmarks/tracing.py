"""Span tracing for the benchmark's traced passes.

The package is not edited: the tracer replaces, from outside, every public
function of each layer module and the multiplication of each polynomial
kernel by a wrapper that records a span.  The replacement is made in every
module namespace (and module-level tuple) of the package that binds the
object, because `cli` and `checks` import functions by name.  Spans stay in
memory as ``(name, start, end, parent, job)`` until the pass ends.  Untraced
passes install nothing.
"""

from __future__ import annotations

import functools
import sys
import time

# The package's modules, one layer each.
LAYERS = ("exact", "partitions", "bell", "chow", "qseries", "tables", "kazarian", "checks", "cli")

# Kernel multiplications, by the metric that counts them.
KERNELS = {
    "bell.poly_mul": (("bell", "SparsePoly"),),
    "chow.class_mul": (("chow", "GradedClass"), ("chow", "P2Class")),
    "exact.polyd_mul": (("exact", "PolyD"),),
    "qseries.series_mul": (("qseries", "PowerSeries"),),
}
SET_PARTITIONS = "partitions.set_partitions"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "nodal_atlas" or name.startswith("nodal_atlas.")]


class Tracer:
    """Records spans at the package's layer boundaries while installed."""

    def __init__(self):
        self.spans = []
        self.job = -1
        self.set_partitions = 0
        self.paused = False  # set while the benchmark verifies a result
        self._stack = []
        self._patches = []

    def wrap(self, name, fn):
        """``fn`` wrapped to record one span named ``name`` per call."""
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.job)

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = _package_modules()
        for layer in LAYERS:
            mod = sys.modules[f"nodal_atlas.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                self._rebind(modules, obj, self.wrap(f"{layer}.{attr}", obj))
        for metric, classes in KERNELS.items():
            for layer, cls_name in classes:
                cls = getattr(sys.modules[f"nodal_atlas.{layer}"], cls_name)
                for attr in ("__mul__", "__rmul__"):
                    if attr in vars(cls):
                        self._patch(cls, attr, self.wrap(metric, vars(cls)[attr]))
        set_partition = sys.modules["nodal_atlas.partitions"].SetPartition
        init = set_partition.__init__

        def counted_init(pi, *args, **kwargs):
            if not self.paused:
                self.set_partitions += 1
            init(pi, *args, **kwargs)

        self._patch(set_partition, "__init__", counted_init)

    def _rebind(self, modules, obj, wrapped):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is obj:
                    self._patch(mod, attr, wrapped)
                elif isinstance(value, tuple) and any(v is obj for v in value):
                    self._patch(mod, attr, tuple(wrapped if v is obj else v for v in value))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = {}
    for name, start, end, parent, job in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(children.get(i, ()), start, end)
        for i, (name, start, end, parent, job) in enumerate(spans)
    ]


def _covered(intervals, lo, hi):
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(spans, set_partitions=0):
    """Per-layer calls and self time, and the kernel counts, of one pass.

    Spans outside the layers (the benchmark's own per-job spans) are left
    out of the sums.
    """
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = 0
        metrics[f"{layer}.self_s"] = 0.0
    for metric in KERNELS:
        metrics[metric] = 0
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        layer = name.split(".", 1)[0]
        if layer not in LAYERS:
            continue
        metrics[f"{layer}.calls"] += 1
        metrics[f"{layer}.self_s"] += own
        if name in KERNELS:
            metrics[name] += 1
    metrics[SET_PARTITIONS] = set_partitions
    return metrics


def find_caches():
    """Every ``lru_cache`` in the package; call before installing wrappers."""
    found = {id(obj): obj for mod in _package_modules() for obj in vars(mod).values()
             if hasattr(obj, "cache_info")}
    return list(found.values())


def cache_counts(caches):
    """(hits, misses) summed over the caches."""
    infos = [c.cache_info() for c in caches]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)
