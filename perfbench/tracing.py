"""Span tracing around uavlink's public functions, and per-layer metrics.

The tracer wraps every public function of each measured module, plus the
Realization methods, from outside the package: it rebinds each function in
every module namespace that holds it, so calls through imported names
(``from .rates import scale_alloc``) are caught as well as calls through
module attributes. Spans stay in memory; a span is
(name, layer, start, end, parent index, count).
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from time import perf_counter

import numpy as np

from stats import percentile, summarize

# geometry holds plain containers and cli only parses arguments; both are
# deliberately unmeasured.
LAYERS = ("channel", "beamforming", "rates", "links", "pso", "relay", "learn",
          "harness")
METHODS = {"links": {"Realization": ("__init__", "evaluate_batch", "stages_at",
                                     "rate_at", "channel_pair_at")}}

NAME, LAYER, START, END, PARENT, COUNT = range(6)

BUILD = "links.Realization.__init__"
EVAL = "links.Realization.evaluate_batch"
SOLVES = ("pso.solve_joint", "pso.solve_loc_equal_pa", "pso.solve_pa_fixed_loc")
WRITES = ("harness.write_results_csv", "harness.write_records_csv",
          "harness.write_manifest", "harness.emit_surface")


def _eval_detail(name, args, kwargs):
    return name, int(np.atleast_2d(np.asarray(args[1])).shape[0])


def _solve_detail(name, args, kwargs):
    cfg = next(a for a in args if hasattr(a, "particles"))
    return name, cfg.particles * (cfg.iterations + 1)


def _policy_detail(name, args, kwargs):
    return f"{name}:{kwargs.get('mode', 'with_buffer')}", 1


DETAILS = {EVAL: _eval_detail, "relay.optimize_policy": _policy_detail,
           **{name: _solve_detail for name in SOLVES}}


class Tracer:
    """Records spans while ``enabled``; ``install`` patches, ``uninstall``
    restores every binding it replaced."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.enabled = False
        self._restore: list = []

    def _wrap(self, fn, name: str, layer: str):
        detail = DETAILS.get(name)
        spans, stack = self.spans, self.stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name, count = (name, 1) if detail is None else detail(
                name, args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (span_name, layer, start, end, parent, count)
        return wrapper

    def install(self, extra_modules=()) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"uavlink.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    self._restore.append((cls, meth, fn))
                    setattr(cls, meth,
                            self._wrap(fn, f"{layer}.{cls_name}.{meth}", layer))
        namespaces = [m for n, m in sys.modules.items()
                      if n == "uavlink" or n.startswith("uavlink.")]
        for mod in namespaces + list(extra_modules):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        for mod in namespaces + list(extra_modules):
            missed = [a for a, o in vars(mod).items()
                      if inspect.isfunction(o) and o in wrapped]
            if missed:
                raise RuntimeError(f"{mod.__name__} still binds unwrapped "
                                   f"{missed}")

    def uninstall(self) -> None:
        while self._restore:
            target, attr, obj = self._restore.pop()
            setattr(target, attr, obj)


# --- span arithmetic ------------------------------------------------------------

def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [(s[END] - s[START]) - covered(s[START], s[END], children[i])
            for i, s in enumerate(spans)]


def under(spans, names) -> list[bool]:
    """Whether each span has a strict ancestor named in ``names``.

    Parents are appended before their children, so one forward pass works.
    """
    flags = []
    for s in spans:
        p = s[PARENT]
        flags.append(p >= 0 and (spans[p][NAME] in names or flags[p]))
    return flags


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics from one traced pass (values as floats)."""
    selfs = self_times(spans)
    in_build = under(spans, (BUILD,))
    in_solve = under(spans, SOLVES)

    def durs(*names):
        return [s[END] - s[START] for s in spans if s[NAME] in names]

    def counts(*names):
        return [s[COUNT] for s in spans if s[NAME] in names]

    def p(values, q, scale):
        if not values:
            return 0.0
        return (statistics.median(values) if q == 50
                else percentile(values, q)) * scale

    def layer_self(layer, mask=None):
        return sum(t for i, (s, t) in enumerate(zip(spans, selfs))
                   if s[LAYER] == layer and (mask is None or mask[i]))

    def per(total, n):
        return total / n if n else 0.0

    def n_layer(layer):
        return sum(1 for s in spans if s[LAYER] == layer)

    builds = len(durs(BUILD))
    candidates = sum(counts(EVAL))
    proposed = sum(counts(*SOLVES))
    solved = sum(s[COUNT] for s, f in zip(spans, in_solve)
                 if f and s[NAME] == EVAL)
    policies = [s for s in spans if s[NAME].startswith("relay.optimize_policy")]
    return {
        "channel.calls": n_layer("channel"),
        "channel.self_ms_per_build": per(layer_self("channel", in_build),
                                         builds) * 1e3,
        "beamforming.select_pairs_calls": len(durs("beamforming.select_pairs")),
        "beamforming.self_ms_per_build": per(
            layer_self("beamforming", in_build), builds) * 1e3,
        "links.builds": builds,
        "links.build_p50_ms": p(durs(BUILD), 50, 1e3),
        "links.build_p90_ms": p(durs(BUILD), 90, 1e3),
        "links.rf_design_calls": len(durs("links.design_rf_stages")),
        "links.eval_calls": len(durs(EVAL)),
        "links.eval_candidates": candidates,
        "links.eval_batch_p50": p(counts(EVAL), 50, 1),
        "links.eval_us_per_candidate": per(sum(durs(EVAL)), candidates) * 1e6,
        "links.eval_self_s": sum(t for s, t in zip(spans, selfs)
                                 if s[NAME] == EVAL),
        "links.rate_at_calls": len(durs("links.Realization.rate_at")),
        "links.rate_at_p50_us": p(durs("links.Realization.rate_at"), 50, 1e6),
        "links.stages_at_calls": len(durs("links.Realization.stages_at")),
        "rates.rate_report_calls": len(durs("rates.rate_report")),
        "rates.self_us_per_call": per(layer_self("rates"),
                                      n_layer("rates")) * 1e6,
        "pso.solves": len(durs(*SOLVES)),
        "pso.solve_joint_p50_ms": p(durs("pso.solve_joint"), 50, 1e3),
        "pso.solve_loc_p50_ms": p(durs("pso.solve_loc_equal_pa"), 50, 1e3),
        "pso.solve_pa_p50_ms": p(durs("pso.solve_pa_fixed_loc"), 50, 1e3),
        "pso.self_s": layer_self("pso"),
        "pso.candidates_proposed": proposed,
        "pso.infeasible_ratio": 1.0 - solved / proposed if proposed else 0.0,
        "pso.grid_calls": len(durs("pso.exhaustive_grid")),
        "pso.grid_p50_ms": p(durs("pso.exhaustive_grid"), 50, 1e3),
        "relay.policy_calls": len(policies),
        "relay.policy_buffered_p50_ms": p(
            durs("relay.optimize_policy:with_buffer"), 50, 1e3),
        "relay.policy_fixed_p50_ms": p(
            durs("relay.optimize_policy:without_buffer"), 50, 1e3),
        "relay.self_ms": layer_self("relay") * 1e3,
        "learn.rows_labeled": len(durs("learn.build_labels")),
        "learn.features_p50_us": p(durs("learn.build_features"), 50, 1e6),
        "learn.train_s": sum(durs("learn.train")),
        "learn.backprop_calls": len(durs("learn.backprop")),
        "learn.backprop_p50_us": p(durs("learn.backprop"), 50, 1e6),
        "learn.train_self_s": sum(t for s, t in zip(spans, selfs)
                                  if s[NAME] == "learn.train"),
        "learn.forward_p50_us": p(durs("learn.forward"), 50, 1e6),
        "harness.self_s": layer_self("harness"),
        "harness.write_s": sum(durs(*WRITES)),
    }


TIMED = (BUILD, EVAL, "links.design_rf_stages", "links.Realization.rate_at",
         *SOLVES, "pso.exhaustive_grid", "relay.optimize_policy:with_buffer",
         "relay.optimize_policy:without_buffer", "learn.generate_dataset",
         "learn.train", "learn.backprop", "learn.forward",
         "learn.build_features", "learn.predict_and_denormalize", *WRITES)


def timing_summaries(spans) -> dict:
    """Median, qualified tail and count, in ms, of each key span seen."""
    out = {}
    for name in TIMED:
        durations = [(s[END] - s[START]) * 1e3 for s in spans
                     if s[NAME] == name]
        if durations:
            out[name] = summarize(durations)
    return out
