"""Span tracing at the boundaries between countmatch modules.

A :class:`Tracer` replaces the public names that one module calls in
another (for example ``matching.hungarian_solve``, which the matcher
looks up in its own namespace) with wrappers that record one span per
call: a name, a start, an end and the span that was open when the call
began. Spans stay in memory; :func:`layer_metrics` turns the spans of one
pass into the per-layer metrics. Self time is a span's duration minus the
time its child spans cover. A wrapped function that is never called
reports 0, and a name a later version of the package no longer has is
left unwrapped (its metrics read 0).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    # (args, kwargs, result) of the call, kept only where a counter needs it.
    call: Optional[tuple] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _conv_name(args, kwargs) -> str:
    size = kwargs["size"] if "size" in kwargs else args[2]
    return f"dynconv.conv{int(size)}"


#: (module, attribute, span name or naming function, keep the call for counters)
TARGETS: tuple[tuple[str, str, Any, bool], ...] = (
    ("synth", "sample_points", "synth.sample", False),
    ("synth", "perturb_points", "synth.perturb", False),
    ("cli", "main", "cli.main", False),
    ("cli", "cmd_eval", "cli.eval", False),
    ("cli", "parse_coord_file", "cli.parse", True),
    ("metrics", "evaluate_case", "metrics.evaluate", False),
    ("metrics", "aggregate_report", "metrics.aggregate", False),
    ("metrics", "match_points", "matching.match", True),
    ("matching", "match_points", "matching.match", True),
    ("matching", "all_radii", "geometry.radii", True),
    ("matching", "build_weight_matrix", "matching.weights", True),
    ("matching", "hungarian_solve", "assignment.solve", True),
    ("densitymap", "render_density", "densitymap.render", False),
    ("densitymap", "extract_peaks", "densitymap.peaks", True),
    ("dynconv", "predict_params", "dynconv.params", True),
    ("dynconv", "multiscale_forward", "dynconv.multiscale", False),
    ("dynconv", "dynamic_gaussian_conv", _conv_name, True),
    ("dynconv", "fusion_attention", "dynconv.attention", False),
    ("dynconv", "squash_sigma", "kernels.squash", False),
    ("dynconv", "squash_offset", "kernels.squash", False),
    ("dynconv", "logistic", "kernels.squash", False),
)


class Tracer:
    """Installs span-recording wrappers on a set of modules and removes them.

    ``modules`` maps the short module names used in :data:`TARGETS` to the
    imported module objects. Use as a context manager, or call
    :meth:`install` and :meth:`restore`.
    """

    def __init__(self, modules: dict):
        self._modules = modules
        self._saved: list[tuple[Any, str, Any]] = []
        self._stack: list[int] = []
        self.spans: list[Span] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name, keep in TARGETS:
            module = self._modules[mod_name]
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, keep))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a traced call is open")
        spans, self.spans = self.spans, []
        return spans

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, fn, name, keep: bool):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name if isinstance(name, str) else name(args, kwargs),
                        tracer._stack[-1] if tracer._stack else -1)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                tracer._stack.pop()
            if keep:
                span.call = (args, kwargs, result)
            return result

        return wrapper


#: Per-layer metrics: (name, unit, better). Each is measured per pass of
#: the workload (the synth ones per set-up) and reads 0 when the layer is
#: not reached.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("synth.sample_s", "s", "lower"),
    ("synth.perturb_s", "s", "lower"),
    ("cli.parse_s", "s", "lower"),
    ("cli.parse_points", "count", "lower"),
    ("cli.eval_self_s", "s", "lower"),
    ("metrics.evaluate_self_s", "s", "lower"),
    ("metrics.aggregate_s", "s", "lower"),
    ("geometry.radii_s", "s", "lower"),
    ("geometry.radii_queries", "count", "lower"),
    ("geometry.grid_share", "ratio", "higher"),
    ("matching.weights_s", "s", "lower"),
    ("matching.assemble_s", "s", "lower"),
    ("matching.dense_cells", "count", "lower"),
    ("matching.in_radius_edges", "count", "lower"),
    ("matching.edge_ratio", "ratio", "higher"),
    ("matching.stripped_pairs", "count", "lower"),
    ("assignment.solve_s", "s", "lower"),
    ("assignment.solves", "count", "lower"),
    ("assignment.cells", "count", "lower"),
    ("assignment.max_side", "count", "lower"),
    ("densitymap.render_s", "s", "lower"),
    ("densitymap.peaks_s", "s", "lower"),
    ("densitymap.peaks_out", "count", "higher"),
    ("densitymap.pixels", "count", "lower"),
    ("dynconv.params_s", "s", "lower"),
    ("dynconv.conv3_s", "s", "lower"),
    ("dynconv.conv5_s", "s", "lower"),
    ("dynconv.conv7_s", "s", "lower"),
    ("dynconv.conv9_s", "s", "lower"),
    ("dynconv.multiscale_self_s", "s", "lower"),
    ("dynconv.attention_s", "s", "lower"),
    ("dynconv.madds", "count", "lower"),
    ("kernels.squash_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

#: Work counts the benchmark computes from call arguments and results.
#: They must repeat exactly from pass to pass and from run to run.
COMPUTED_COUNTS = ("matching.dense_cells", "matching.in_radius_edges", "assignment.cells",
                   "densitymap.pixels", "dynconv.madds")

#: Span name -> metric name, for metrics that sum span durations.
_TOTAL_TIME = {
    "synth.sample": "synth.sample_s",
    "synth.perturb": "synth.perturb_s",
    "cli.parse": "cli.parse_s",
    "metrics.aggregate": "metrics.aggregate_s",
    "geometry.radii": "geometry.radii_s",
    "matching.weights": "matching.weights_s",
    "assignment.solve": "assignment.solve_s",
    "densitymap.render": "densitymap.render_s",
    "densitymap.peaks": "densitymap.peaks_s",
    "dynconv.params": "dynconv.params_s",
    "dynconv.conv3": "dynconv.conv3_s",
    "dynconv.conv5": "dynconv.conv5_s",
    "dynconv.conv7": "dynconv.conv7_s",
    "dynconv.conv9": "dynconv.conv9_s",
    "dynconv.attention": "dynconv.attention_s",
    "kernels.squash": "kernels.squash_s",
}

#: Span name -> metric name, for metrics that sum span self times.
_SELF_TIME = {
    "cli.eval": "cli.eval_self_s",
    "metrics.evaluate": "metrics.evaluate_self_s",
    "matching.match": "matching.assemble_s",
    "dynconv.multiscale": "dynconv.multiscale_self_s",
}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span], grid_threshold: int) -> dict:
    """Per-layer metrics of one pass (every name in LAYER_METRICS but trace.*)."""
    out = {name: 0.0 if unit == "s" else 0
           for name, unit, _ in LAYER_METRICS if not name.startswith("trace.")}
    radii_calls = grid_calls = 0
    solver_pairs = kept_pairs = 0
    for span, own in zip(spans, self_times(spans)):
        if span.name in _TOTAL_TIME:
            out[_TOTAL_TIME[span.name]] += span.duration
        if span.name in _SELF_TIME:
            out[_SELF_TIME[span.name]] += own
        if span.call is None:
            continue
        args, kwargs, result = span.call
        if span.name == "cli.parse":
            out["cli.parse_points"] += len(result)
        elif span.name == "geometry.radii":
            radii_calls += 1
            out["geometry.radii_queries"] += len(args[0])
            grid_calls += len(args[1]) >= grid_threshold
        elif span.name == "matching.weights":
            out["matching.dense_cells"] += len(args[0]) * len(args[1])
            out["matching.in_radius_edges"] += int(result.in_radius.sum())
        elif span.name == "matching.match":
            kept_pairs += len(result.pairs)
        elif span.name == "assignment.solve":
            rows, cols = np.shape(args[0])
            out["assignment.solves"] += 1
            out["assignment.cells"] += rows * cols
            out["assignment.max_side"] = max(out["assignment.max_side"], rows, cols)
            solver_pairs += len(result.pairs)
        elif span.name == "densitymap.peaks":
            out["densitymap.peaks_out"] += len(result)
            out["densitymap.pixels"] += int(args[0].values.size)
        elif span.name == "dynconv.params":
            c, h, w = args[0].values.shape
            out["dynconv.madds"] += 3 * c * h * w
        elif span.name.startswith("dynconv.conv"):
            c, h, w = args[0].values.shape
            size = int(kwargs["size"] if "size" in kwargs else args[2])
            out["dynconv.madds"] += c * h * w * size * size
    if radii_calls:
        out["geometry.grid_share"] = grid_calls / radii_calls
    if out["matching.dense_cells"]:
        out["matching.edge_ratio"] = out["matching.in_radius_edges"] / out["matching.dense_cells"]
    out["matching.stripped_pairs"] = solver_pairs - kept_pairs if solver_pairs else 0
    return out

