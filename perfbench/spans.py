"""Spans around the public functions of each kcompress layer.

The tracer wraps functions from outside the program.  The package imports
these functions by name (``from .samples import draw_sample`` in
``experiments`` and ``schemes``), so a wrapper is installed at every module
attribute that holds the function, not only in its home module.  A call
inside a span of the same group (``canonical_order_choice`` calling
``OrderChoice.canonical``) is not a new span, so each group counts
outermost calls only.

Spans are kept in memory as tuples and turned into per-layer numbers per
pass; a layer's self time is its span's duration minus the durations of
its child spans.  The program is single-threaded, so children never
overlap and no layer waits on a queue or a lock.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

# (group, home module, attribute) for every wrapped function
TARGETS = (
    ("indexing.order_choice", "kcompress.indexing", "OrderChoice.random"),
    ("indexing.order_choice", "kcompress.indexing", "OrderChoice.canonical"),
    ("indexing.order_choice", "kcompress.indexing", "canonical_order_choice"),
    ("indexing.subsample", "kcompress.indexing", "subsample"),
    ("samples.seed", "kcompress.samples", "spawn_rng"),
    ("samples.seed", "kcompress.samples", "derive_seed"),
    ("samples.draw", "kcompress.samples", "draw_sample"),
    ("samples.label", "kcompress.samples", "label_sample"),
    ("losses.empirical", "kcompress.losses", "empirical_loss_partite"),
    ("losses.empirical", "kcompress.losses", "empirical_loss_nonpartite"),
    ("losses.total_exact", "kcompress.losses", "total_loss_exact_rectangles"),
    ("losses.total_exact", "kcompress.losses", "total_loss_exact_sum_threshold"),
    ("schemes.reconstruct", "kcompress.schemes", "reconstruct"),
    ("schemes.validity", "kcompress.schemes", "check_compression_validity"),
    ("learner.m_pac", "kcompress.learner", "m_pac"),
    ("learner.azuma_bound", "kcompress.learner", "azuma_bound"),
    ("experiments.run", "kcompress.experiments", "run_concentration_suite"),
    ("experiments.run", "kcompress.experiments", "run_pac_experiment"),
    ("experiments.run", "kcompress.experiments", "run_bound_table"),
    ("experiments.run", "kcompress.experiments", "run_validity_experiment"),
    ("experiments.write", "kcompress.experiments", "write_outputs"),
    ("cli.dispatch", "kcompress.cli", "dispatch"),
)


def _scan_limit(args, kwargs):
    return kwargs["scan_limit"] if "scan_limit" in kwargs else args[1]


# group -> function(args, kwargs, result) -> {count name: amount}
COUNTERS = {
    "samples.draw": lambda a, kw, r: {"points": sum(len(s) for s in r.sides)},
    "samples.label": lambda a, kw, r: {"cells": int(r.labels.codes.size)},
    "schemes.validity": lambda a, kw, r: {
        "samples": len(r.records), "passed": sum(1 for x in r.records if x.passed),
    },
    "learner.m_pac": lambda a, kw, r: {"scanned": int(_scan_limit(a, kw))},
    "experiments.run": lambda a, kw, r: {"trials": len(r.records)},
    "experiments.write": lambda a, kw, r: {"bytes": sum(os.path.getsize(p) for p in r)},
}

# Per-layer metrics in the order they are reported: (name, unit, better).
# Every value is per pass of the workload.
METRICS = (
    ("indexing.order_choice.calls", "count", "lower"),
    ("indexing.order_choice.self_s", "s", "lower"),
    ("indexing.order_choice.per_sample", "calls/sample", "lower"),
    ("indexing.subsample.calls", "count", "lower"),
    ("indexing.subsample.self_s", "s", "lower"),
    ("samples.seed.calls", "count", "lower"),
    ("samples.seed.self_s", "s", "lower"),
    ("samples.draw.calls", "count", "lower"),
    ("samples.draw.self_s", "s", "lower"),
    ("samples.draw.points", "count", "lower"),
    ("samples.label.calls", "count", "lower"),
    ("samples.label.self_s", "s", "lower"),
    ("samples.label.cells", "count", "lower"),
    ("losses.empirical.calls", "count", "lower"),
    ("losses.empirical.self_s", "s", "lower"),
    ("losses.total_exact.calls", "count", "lower"),
    ("losses.total_exact.self_s", "s", "lower"),
    ("schemes.reconstruct.calls", "count", "lower"),
    ("schemes.reconstruct.self_s", "s", "lower"),
    ("schemes.validity.self_s", "s", "lower"),
    ("schemes.validity.samples", "count", "higher"),
    ("schemes.validity.pass_ratio", "ratio", "higher"),
    ("learner.m_pac.calls", "count", "lower"),
    ("learner.m_pac.self_s", "s", "lower"),
    ("learner.m_pac.scanned", "count", "lower"),
    ("learner.azuma_bound.calls", "count", "lower"),
    ("learner.azuma_bound.self_s", "s", "lower"),
    ("experiments.run.self_s", "s", "lower"),
    ("experiments.run.trials", "count", "higher"),
    ("experiments.write.calls", "count", "lower"),
    ("experiments.write.self_s", "s", "lower"),
    ("experiments.write.bytes", "B", "lower"),
    ("cli.dispatch.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Records spans (id, group, start, end, parent id, audit id, counts)."""

    def __init__(self):
        self.spans = []
        self.audit = None
        self._stack = []
        self._saved = []

    def _wrap(self, group, fn):
        counter = COUNTERS.get(group)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent[1] == group:
                return fn(*args, **kwargs)
            span = [len(spans), group, clock(), None, parent[0] if parent else None,
                    self.audit, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target wherever a kcompress module holds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "kcompress" or name.startswith("kcompress."))]
        for group, home, attr in TARGETS:
            owner = importlib.import_module(home)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapped = classmethod(self._wrap(group, original.__func__))
                self._saved.append((cls, meth, original))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(group, original)
            sites = 0
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, wrapped)
                        sites += 1
            if sites == 0:
                raise RuntimeError(f"no call site found for {home}.{attr}")

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def take(self):
        """The spans recorded since the last take, as a list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def layer_numbers(spans) -> dict:
    """Per-layer numbers of one pass from its spans (METRICS minus overhead)."""
    duration = {}
    child = {}
    for sid, group, start, end, parent, _, _ in spans:
        duration[sid] = end - start
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    groups = {}
    for sid, group, _, _, _, _, counts in spans:
        g = groups.setdefault(group, {"calls": 0, "self_s": 0.0})
        g["calls"] += 1
        g["self_s"] += duration[sid] - child.get(sid, 0.0)
        for key, amount in (counts or {}).items():
            g[key] = g.get(key, 0) + amount
    out = {}
    for name, _, _ in METRICS:
        group, _, key = name.rpartition(".")
        out[name] = groups.get(group, {}).get(key, 0)
    validity = groups.get("schemes.validity", {})
    samples = validity.get("samples", 0)
    if samples:
        out["indexing.order_choice.per_sample"] = out["indexing.order_choice.calls"] / samples
        out["schemes.validity.pass_ratio"] = validity["passed"] / samples
    out.pop("trace.overhead_s")
    return out


def span_rows(spans):
    """Spans as JSON-ready dicts, for writing when the run ends."""
    for sid, group, start, end, parent, audit, counts in spans:
        row = {"id": sid, "name": group, "start": start, "end": end,
               "parent": parent, "audit": audit}
        if counts:
            row["counts"] = counts
        yield row
