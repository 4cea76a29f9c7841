"""Span tracing around the public functions of every llrseg module.

`Tracer.install()` replaces each public function with a wrapper that records
a span (name, start, end, parent) and, for some functions, work counts. The
library imports functions by name (`from .gmm import sinkhorn_assign`), so a
wrapper is bound in every llrseg module that holds the original object, not
only in the defining module. `uninstall()` restores every binding; untraced
runs never install anything.

Counts are taken after the wrapped call returns, inside a `trace.probe` span
of their own, so their cost shows as tracing overhead and not as the self
time of the layer that called the traced function.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = ("cli", "anomalymix", "datamodel", "neuralcore", "gmm", "inlier",
          "uem", "inference", "metrics")

# Functions that share one span name; everything else public is
# "<layer>.<function>".
ALIASES = {
    "datamodel": {name: "map_io" for name in (
        "load_feature_map", "save_feature_map", "load_label_map",
        "save_label_map", "load_outlier_map", "save_outlier_map",
        "load_score_map", "save_score_map")},
    "neuralcore": {"softmax_cross_entropy": "loss",
                   "sigmoid_bce_with_logits": "loss"},
    "gmm": {"sinkhorn_assign": "sinkhorn", **{name: "density" for name in (
        "gaussian_log_density", "gaussian_log_density_batch",
        "component_log_densities", "gmm_log_density", "gmm_log_density_batch",
        "gmm_all_log_densities", "gmm_all_log_densities_with_grad")}},
    "inlier": {"inlier_from_bundle": "from_bundle"},
    "uem": {"uem_from_bundle": "from_bundle"},
}


_TINY = np.finfo(np.float64).tiny


def _mlp_macs(mlp) -> int:
    return sum(layer.weight.size for layer in mlp.layers)


def _count_mlp_forward(args, result):
    rows = args[1].shape[0]
    # computed from layer shapes: one multiply-add per weight per row
    return {"rows": rows, "flop": 2 * rows * _mlp_macs(args[0])}


def _count_mlp_backward(args, result):
    rows = args[1].inputs[0].shape[0]
    d_out = np.asarray(args[2])
    # subnormal operands make BLAS take slow paths, so count them
    subnormal = np.count_nonzero((d_out != 0) & (np.abs(d_out) < _TINY))
    # two GEMMs per layer: weight gradient and input gradient
    return {"rows": rows, "flop": 4 * rows * _mlp_macs(args[0]),
            "grad_entries": d_out.size, "grad_subnormal": int(subnormal)}


def _count_sinkhorn(args, plan):
    return {"residual_max": plan.marginal_residual()}


def _count_score_image(args, result):
    f, plan = args[1], args[2]
    wh, ww = plan.window
    return {"tiles": plan.tile_count(),
            "pixel_visits": plan.tile_count() * wh * ww,
            "pixels": f.height * f.width}


def _count_make_dataset(args, result):
    cfg = args[0]
    return {"pixels": cfg.height * cfg.width * sum(cfg.splits)}


def _count_map_io(args, result):
    # the path is the last positional argument of every load_* / save_*
    return {"bytes": os.path.getsize(args[-1])}


def _count_bundle_files(args, result):
    """Files and bytes of the bundle directory a save wrote or a load read."""
    files = [p for p in Path(args[1]).iterdir() if p.is_file()]
    return {"files_max": len(files),
            "bytes_max": sum(p.stat().st_size for p in files)}


COUNTERS = {
    "neuralcore.mlp_forward": _count_mlp_forward,
    "neuralcore.mlp_backward": _count_mlp_backward,
    "gmm.sinkhorn": _count_sinkhorn,
    "inference.score_image": _count_score_image,
    "anomalymix.make_dataset": _count_make_dataset,
    "datamodel.map_io": _count_map_io,
    "datamodel.bundle_save": _count_bundle_files,
    "datamodel.bundle_load": _count_bundle_files,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "child_s", "counts")

    def __init__(self, name: str, start: float, parent: int | None, root: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.root = root
        self.child_s = 0.0
        self.counts: dict = {}


class Tracer:
    """Records spans of one process in memory; aggregates them on demand."""

    def __init__(self, llrseg_package):
        self._pkg = llrseg_package
        self._restore: list = []
        self.spans: list[Span] = []
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        root = len(self.spans) if parent is None else self.spans[parent].root
        self.spans.append(Span(name, time.perf_counter(), parent, root))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start
        return span

    def call(self, name: str, fn, args, kwargs):
        idx = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = self._close(idx)
        counter = COUNTERS.get(name)
        if counter is not None:
            probe = self._open("trace.probe")
            try:
                span.counts = counter(args, result)
            finally:
                self._close(probe)
        if name == "gmm.density" and fn.__name__ == "gmm_all_log_densities_with_grad":
            logdens, backward = result
            result = (logdens, self._wrap(backward, "gmm.backward"))
        return result

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
        return traced

    def _wrap_cli_main(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(argv=None):
            command = (argv or sys.argv[1:] or ["unknown"])[0]
            return tracer.call(f"cli.{command}", fn, (argv,), {})
        return traced

    # -- installing --------------------------------------------------------
    def _modules(self):
        prefix = self._pkg.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def _rebind(self, original, wrapper) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            module = sys.modules[f"{self._pkg.__name__}.{layer}"]
            if layer == "cli":
                self._rebind(module.main, self._wrap_cli_main(module.main))
                continue
            aliases = ALIASES.get(layer, {})
            for name, obj in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                span = f"{layer}.{aliases.get(name, name)}"
                self._rebind(obj, self._wrap(obj, span))
        bundle_cls = sys.modules[f"{self._pkg.__name__}.datamodel"].ModelBundle
        save = bundle_cls.__dict__["save"]
        load = bundle_cls.__dict__["load"]
        self._restore.append((bundle_cls, "save", save))
        self._restore.append((bundle_cls, "load", load))
        bundle_cls.save = self._wrap(save, "datamodel.bundle_save")
        bundle_cls.load = classmethod(self._wrap(load.__func__, "datamodel.bundle_load"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- aggregation -------------------------------------------------------
    def partition_error(self) -> float:
        """Largest gap between a root span's duration and the summed self
        times of its tree; also checks that every child lies inside its
        parent and that siblings do not overlap. Returns inf on a broken
        tree."""
        last_end: dict = {}
        tree_self: dict = {}
        for span in self.spans:
            if span.parent is not None:
                parent = self.spans[span.parent]
                if span.start < parent.start or span.end > parent.end:
                    return float("inf")
                if span.start < last_end.get(span.parent, parent.start):
                    return float("inf")
                last_end[span.parent] = span.end
            self_s = (span.end - span.start) - span.child_s
            tree_self[span.root] = tree_self.get(span.root, 0.0) + self_s
        return max((abs(total - (self.spans[r].end - self.spans[r].start))
                    for r, total in tree_self.items()), default=0.0)

    def aggregate(self, roots: tuple | None = None) -> dict:
        """Per span name: outermost inclusive time `s`, outermost `calls`,
        summed `self_s`, and counters (summed, or max for `*_max`). With
        `roots`, only trees whose root span has one of those names count."""
        out: dict = {}
        for span in self.spans:
            if roots is not None and self.spans[span.root].name not in roots:
                continue
            entry = out.setdefault(span.name, {"s": 0.0, "calls": 0, "self_s": 0.0})
            dur = span.end - span.start
            entry["self_s"] += dur - span.child_s
            if not self._nested_in_same_name(span):
                entry["s"] += dur
                entry["calls"] += 1
            for key, value in span.counts.items():
                _combine(entry, key, value)
        return out

    def _nested_in_same_name(self, span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == span.name:
                return True
            parent = self.spans[parent].parent
        return False


def _combine(entry: dict, key: str, value) -> None:
    """Counters named `*_max` keep the largest value; all others add up."""
    if key.endswith("_max"):
        entry[key] = max(entry.get(key, value), value)
    else:
        entry[key] = entry.get(key, 0) + value


def merge(into: dict, other: dict) -> dict:
    """Combine two `aggregate()` results (e.g. from two processes)."""
    for name, entry in other.items():
        target = into.setdefault(name, {})
        for key, value in entry.items():
            _combine(target, key, value)
    return into
