"""Span recording around ridelink's public functions, from outside the package.

The traced run patches each layer's public functions with a wrapper that
records a span: name, start, end and the enclosing span. Hot functions (the
planner search, the classifier, hex ``locate``, ``great_circle_m``) are only
aggregated into a call count and a total, so the trace stays small. Spans
live in memory and are written once, at the end of the run.

Self time is a call's duration minus the durations of the wrapped calls it
made on the same thread. Calls made on a worker thread have no enclosing span
on that thread, so the time a parent spends waiting for its pool counts as
the parent's own.

A function that a later version of the package removes or renames is not
patched; it is listed in ``Tracer.missing`` and its metrics read 0. The
tracer never changes arguments or results.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    stage: str
    start: float
    end: float
    self_s: float
    parent: Optional[int]


class _Frame:
    __slots__ = ("span_id", "child_s")

    def __init__(self, span_id):
        self.span_id = span_id
        self.child_s = 0.0


class Tracer:
    """Thread-aware span recorder with per-(stage, name) aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stage = "-"
        self.spans: list[Span] = []
        # (stage, name) -> [calls, total_s, self_s]
        self.stats: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        # (stage, counter) -> value, and name -> last value, fed by result hooks
        self.counters: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self.missing: list[str] = []
        self.hook_errors: Counter = Counter()
        self.fit_keys: set = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, keep_span: bool = True,
             before=None, after=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        span_id = None
        if keep_span:
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
        parent = next((f.span_id for f in reversed(stack)
                       if f.span_id is not None), None)
        frame = _Frame(span_id)
        token = self._hook(name, before, args, kwargs) if before else None
        stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self.record(name, start, end, frame.child_s, span_id, parent)
            if stack:
                stack[-1].child_s += end - start
        if after is not None:
            self._hook(name, after, token, args, kwargs, result)
        return result

    def record(self, name, start, end, child_s, span_id=None, parent=None):
        duration = end - start
        with self._lock:
            entry = self.stats[(self.stage, name)]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_s
            if span_id is not None:
                self.spans.append(Span(span_id, name, self.stage, start, end,
                                       duration - child_s, parent))

    def count(self, key: str, value=1) -> None:
        with self._lock:
            self.counters[(self.stage, key)] += value

    def set(self, key: str, value) -> None:
        with self._lock:
            self.gauges[key] = value

    def _hook(self, name, hook, *args):
        try:
            return hook(self, *args)
        except Exception:  # a hook reads results; a changed shape must not fail the run
            self.hook_errors[name] += 1
            return None

    # aggregates -----------------------------------------------------------

    def total(self, name: str, stages=None, field: int = 1) -> float:
        return sum(v[field] for (stage, n), v in self.stats.items()
                   if n == name and (stages is None or stage in stages))

    def calls(self, name: str, stages=None) -> int:
        return int(self.total(name, stages, field=0))

    def self_time(self, prefix: str, stages=None) -> float:
        return sum(v[2] for (stage, n), v in self.stats.items()
                   if n.startswith(prefix) and (stages is None or stage in stages))

    def counter(self, key: str, stages=None) -> float:
        return sum(v for (stage, k), v in self.counters.items()
                   if k == key and (stages is None or stage in stages))


# ---------------------------------------------------------------------------
# patching


def _resolve(target: str):
    """'ridelink.ptnet:NetworkPlanner.plan' -> (owner, attribute, raw value)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if isinstance(owner, type):
        raw = owner.__dict__[attr]
    else:
        raw = getattr(owner, attr)
    return owner, attr, raw


def patch(tracer: Tracer, name: str, target: str, hot: bool = False,
          before=None, after=None, package: str = "ridelink") -> list:
    """Wrap ``target`` and rebind every module-level alias of it inside
    ``package``. Returns undo records; a missing target is noted on the
    tracer and patches nothing."""
    try:
        owner, attr, raw = _resolve(target)
    except (ImportError, AttributeError, KeyError):
        tracer.missing.append(name)
        return []
    is_classmethod = isinstance(raw, classmethod)
    fn = raw.__func__ if is_classmethod else raw

    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, keep_span=not hot,
                           before=before, after=after)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    undo = []
    if isinstance(owner, type):
        undo.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        return undo
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package
                                  or mod_name.startswith(package + ".")):
            continue
        for key, value in list(vars(module).items()):
            if value is fn:
                undo.append((module, key, value))
                setattr(module, key, wrapper)
    return undo


def unpatch(undo: list) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# the layers of ridelink and what each wrapper counts


def _args(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _plan_after(tracer, token, args, kwargs, alt):
    tracer.count("ptnet.plans")
    tracer.count("ptnet.available", int(bool(alt.available)))


def _cached_before(tracer, args, kwargs):
    return len(args[0])


def _cached_after(tracer, size_before, args, kwargs, alt):
    tracer.count("ptnet.lookups")
    tracer.count("ptnet.hits", int(len(args[0]) == size_before))


def _network_after(tracer, token, args, kwargs, net):
    tracer.set("ptnet.stations", len(net.stations))
    tracer.set("ptnet.routes", len(net.routes))


def _classify_all_after(tracer, token, args, kwargs, result):
    results, _ = result
    for res in results:
        if res.failed_condition:
            tracer.count(f"classify.failed_{res.failed_condition}")


def _digest(array) -> str:
    return hashlib.sha1(array.tobytes()).hexdigest()


def _fit_after(tracer, token, args, kwargs, model):
    X = _args(args, kwargs, 0, "X")
    y = _args(args, kwargs, 1, "y")
    params = _args(args, kwargs, 2, "params")
    key = (repr(params), _digest(X), _digest(y))
    tracer.count("boost.fits")
    if key in tracer.fit_keys:
        tracer.count("boost.repeat_fits")
    tracer.fit_keys.add(key)
    tracer.count("boost.trees", len(model.trees))
    tracer.count("boost.leaves", sum(_leaves(tree) for tree in model.trees))


def _leaves(node: dict) -> int:
    if "value" in node:
        return 1
    return _leaves(node["left"]) + _leaves(node["right"])


def _predict_after(tracer, token, args, kwargs, out):
    tracer.count("boost.predict_rows", len(out))


def _leaf_paths_after(tracer, token, args, kwargs, paths):
    tracer.count("explain.leaf_boxes", len(paths))


def _pdp_after(tracer, token, args, kwargs, curve):
    tracer.count("explain.pdp_rows", len(_args(args, kwargs, 1, "X")) * len(curve.grid))


def _sweep_after(tracer, token, args, kwargs, report):
    tracer.count("sensitivity.points", len(report.values))


# metric-name stem -> (target, hot, before, after)
TARGETS = {
    "synth.generate": ("ridelink.synth:generate", False, None, None),
    "ingest.parse_trips": ("ridelink.ingest:parse_trips", False, None, None),
    "ingest.iqr_filter": ("ridelink.ingest:iqr_filter", False, None, None),
    "ingest.write_trips": ("ridelink.ingest:write_trips", False, None, None),
    "ptnet.load_network": ("ridelink.ptnet:load_network", False, None, _network_after),
    "ptnet.plan": ("ridelink.ptnet:NetworkPlanner.plan", True, None, _plan_after),
    "ptnet.cached_plan": ("ridelink.ptnet:CachedPlanner.plan", True,
                          _cached_before, _cached_after),
    "ptnet.cache_save": ("ridelink.ptnet:CachedPlanner.save", False, None, None),
    "ptnet.cache_load": ("ridelink.ptnet:CachedPlanner.load", False, None, None),
    "classify.classify_all": ("ridelink.classify:classify_all", False, None,
                              _classify_all_after),
    "classify.classify_trip": ("ridelink.classify:classify_trip", True, None, None),
    "classify.write_classified": ("ridelink.classify:write_classified", False, None, None),
    "classify.read_classified": ("ridelink.classify:read_classified", False, None, None),
    "geo.great_circle_m": ("ridelink.geo:great_circle_m", True, None, None),
    "hexgrid.locate": ("ridelink.hexgrid:locate", True, None, None),
    "hexgrid.compute_ratios": ("ridelink.hexgrid:compute_ratios", False, None, None),
    "hexgrid.od_flows": ("ridelink.hexgrid:od_flows", False, None, None),
    "hexgrid.trip_stats": ("ridelink.hexgrid:trip_stats", False, None, None),
    "hexgrid.complementary_breakdown": ("ridelink.hexgrid:complementary_breakdown",
                                        False, None, None),
    "features.assemble_features": ("ridelink.features:assemble_features", False, None, None),
    "features.tnc_travel_columns": ("ridelink.features:tnc_travel_columns", False, None, None),
    "features.road_metrics": ("ridelink.features:road_metrics", False, None, None),
    "features.apply_vif": ("ridelink.features:apply_vif", False, None, None),
    "boost.random_search": ("ridelink.boost:random_search", False, None, None),
    "boost.cross_validate": ("ridelink.boost:cross_validate", False, None, None),
    "boost.fit": ("ridelink.boost:fit", False, None, _fit_after),
    "boost.predict": ("ridelink.boost:predict", False, None, _predict_after),
    "explain.shap_values": ("ridelink.explain:shap_values", False, None, None),
    "explain.leaf_paths": ("ridelink.explain:_leaf_paths", True, None, _leaf_paths_after),
    "explain.pdp": ("ridelink.explain:pdp", False, None, _pdp_after),
    "explain.export_plots": ("ridelink.explain:export_plots", False, None, None),
    "sensitivity.elasticity_sweep": ("ridelink.sensitivity:elasticity_sweep", False,
                                     None, _sweep_after),
    "svgchart.bar_chart": ("ridelink.svgchart:bar_chart", False, None, None),
    "svgchart.beeswarm": ("ridelink.svgchart:beeswarm", False, None, None),
    "svgchart.line_panels": ("ridelink.svgchart:line_panels", False, None, None),
    "svgchart.line_chart": ("ridelink.svgchart:line_chart", False, None, None),
}


def install(tracer: Tracer) -> list:
    """Patch every layer target; returns the combined undo list."""
    undo = []
    for name, (target, hot, before, after) in TARGETS.items():
        undo.extend(patch(tracer, name, target, hot=hot, before=before, after=after))
    return undo


STAGES = ("synth", "ingest", "plan", "classify", "gridify", "features", "train",
          "explain", "elasticity", "report")


def layer_metrics(tracer: Tracer, measured, echoes: dict, import_s: float,
                  cpu_s: float, untraced_s: float) -> dict[str, float]:
    """Per-layer metric values from a traced run. Layer figures cover the
    ``measured`` stages only, except ``synth.generate_s``, which covers the
    set-up; ``echoes`` holds each stage's one-line JSON summary, and
    ``untraced_s`` the same stages' time in this process without wrappers."""
    m = set(measured)

    def t(name):
        return tracer.total(name, m)

    def c(name):
        return tracer.calls(name, m)

    def k(key):
        return tracer.counter(key, m)

    def share(a, b):
        return a / b if b else 0.0

    def echo(stage, key):
        value = echoes.get(stage, {}).get(key, 0)
        return len(value) if isinstance(value, list) else value

    traced_s = sum(t(f"cli.{s}") for s in m)
    out = {
        "cli.import_s": import_s,
        "cli.cpu_s": cpu_s,
        "cli.untraced_s": untraced_s,
        "cli.traced_s": traced_s,
        "cli.trace_overhead_s": traced_s - untraced_s,
        "cli.self_s": tracer.self_time("cli.", m),
    }
    for stage in STAGES:
        out[f"cli.{stage}_s"] = tracer.total(f"cli.{stage}")
    out.update({
        "synth.generate_s": tracer.total("synth.generate"),
        "ingest.parse_trips_s": t("ingest.parse_trips"),
        "ingest.parse_trips_calls": c("ingest.parse_trips"),
        "ingest.iqr_filter_s": t("ingest.iqr_filter"),
        "ingest.write_trips_s": t("ingest.write_trips"),
        "ingest.rows": echo("ingest", "parsed"),
        "ingest.rejected": echo("ingest", "rejected"),
        "ingest.self_s": tracer.self_time("ingest.", m),
        "ptnet.load_network_s": t("ptnet.load_network"),
        "ptnet.plan_s": t("ptnet.plan"),
        "ptnet.plan_calls": c("ptnet.plan"),
        "ptnet.cache_hit_share": share(k("ptnet.hits"), k("ptnet.lookups")),
        "ptnet.available_share": share(k("ptnet.available"), k("ptnet.plans")),
        "ptnet.cache_save_s": t("ptnet.cache_save"),
        "ptnet.cache_load_s": t("ptnet.cache_load"),
        "ptnet.stations": tracer.gauges.get("ptnet.stations", 0),
        "ptnet.routes": tracer.gauges.get("ptnet.routes", 0),
        "ptnet.self_s": tracer.self_time("ptnet.", m),
        "classify.classify_all_s": t("classify.classify_all"),
        "classify.classify_trip_calls": c("classify.classify_trip"),
        "classify.write_classified_s": t("classify.write_classified"),
        "classify.read_classified_s": t("classify.read_classified"),
    })
    for cond in range(1, 7):
        out[f"classify.failed_C{cond}"] = k(f"classify.failed_C{cond}")
    out.update({
        "classify.self_s": tracer.self_time("classify.", m),
        "geo.great_circle_calls": c("geo.great_circle_m"),
        "geo.great_circle_s": t("geo.great_circle_m"),
        "hexgrid.locate_calls": c("hexgrid.locate"),
        "hexgrid.locate_s": t("hexgrid.locate"),
        "hexgrid.compute_ratios_s": t("hexgrid.compute_ratios"),
        "hexgrid.od_flows_s": t("hexgrid.od_flows"),
        "hexgrid.trip_stats_s": t("hexgrid.trip_stats"),
        "hexgrid.complementary_breakdown_s": t("hexgrid.complementary_breakdown"),
        "hexgrid.cells": echo("gridify", "cells"),
        "hexgrid.flows": echo("gridify", "flows"),
        "hexgrid.self_s": tracer.self_time("hexgrid.", m),
        "features.assemble_s": t("features.assemble_features"),
        "features.tnc_travel_columns_s": t("features.tnc_travel_columns"),
        "features.road_metrics_s": t("features.road_metrics"),
        "features.vif_s": t("features.apply_vif"),
        "features.rows": echo("features", "cells"),
        "features.columns": echo("features", "columns"),
        "features.self_s": tracer.self_time("features.", m),
        "boost.random_search_s": t("boost.random_search"),
        "boost.cross_validate_s": t("boost.cross_validate"),
        "boost.cross_validate_calls": c("boost.cross_validate"),
        "boost.fit_s": t("boost.fit"),
        "boost.fit_calls": c("boost.fit"),
        "boost.repeat_fit_share": share(k("boost.repeat_fits"), k("boost.fits")),
        "boost.trees": k("boost.trees"),
        "boost.leaves": k("boost.leaves"),
        "boost.tree_ms": share(1000.0 * t("boost.fit"), k("boost.trees")),
        "boost.predict_s": t("boost.predict"),
        "boost.predict_rows": k("boost.predict_rows"),
        "boost.self_s": tracer.self_time("boost.", m),
        "explain.shap_values_s": t("explain.shap_values"),
        "explain.leaf_boxes": k("explain.leaf_boxes"),
        "explain.pdp_s": t("explain.pdp"),
        "explain.pdp_rows": k("explain.pdp_rows"),
        "explain.export_plots_s": t("explain.export_plots"),
        "explain.self_s": tracer.self_time("explain.", m),
        "sensitivity.elasticity_sweep_s": t("sensitivity.elasticity_sweep"),
        "sensitivity.points": k("sensitivity.points"),
        "sensitivity.self_s": tracer.self_time("sensitivity.", m),
        "svgchart.render_s": tracer.self_time("svgchart.", m),
    })
    return {name: float(value) for name, value in out.items()}
