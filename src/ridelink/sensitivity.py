"""Threshold elasticity of the substitutive share.

Re-classifies a trip set while sweeping one classifier threshold over a set
of evaluation values, reporting the substitutive share at each value and its
baseline-anchored arc elasticity: the percentage change of the share divided
by the percentage change of the threshold, both measured against the
baseline configuration.

Only C3-C6 read a threshold, so the trips that reach C3 are the same at
every setting. :func:`sweep_base` takes them from ``classify``'s verdicts, whose
``classify.trace`` settles each trip's service window (C1) and station labels
(C2), and keeps its duration and cost with its journey from ``plan``'s cache;
every sweep point of every parameter then counts the triples that pass all of
``classify_thresholds``, and divides by all trips as ``summarize`` does.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

from . import svgchart
from .classify import ClassifierConfig, Verdicts, classify_thresholds, trace
from .errors import finite_number
from .ingest import Trips
from .ptnet import PtAlternative

PARAMETERS = ("walk_threshold_m", "time_gate_min", "max_transfers", "cost_ratio")


@dataclass
class ElasticityReport:
    parameter: str
    baseline: float
    values: list[float]                    # evaluation points, caller order
    ratios: list[float]                    # substitutive share per point
    elasticities: list[Optional[float]]    # None at the baseline anchor


def arc_elasticity(baseline_value: float, baseline_ratio: float,
                   value: float, ratio: float) -> Optional[float]:
    """Baseline-anchored arc elasticity; None at the anchor itself and when
    the baseline value or share is zero (a percentage change from zero is
    undefined)."""
    if value == baseline_value:
        return None
    if baseline_value == 0.0 or baseline_ratio == 0.0:
        return None
    return (((ratio - baseline_ratio) / baseline_ratio)
            / ((value - baseline_value) / baseline_value))


class SweepBase(NamedTuple):
    """Each trip that reaches C3 as its duration, cost and journey, of ``total`` trips."""
    reaching: list[tuple[int, float, PtAlternative]]
    total: int


def sweep_base(trips: Trips, verdicts: Verdicts, planner) -> SweepBase:
    """Each of ``trips`` whose ``trace`` in ``verdicts`` (at any setting) reaches C3,
    with its journey from ``planner``, a :class:`~ridelink.ptnet.CachedPlanner`
    (anything with ``plan(olon, olat, dlon, dlat)``): the base every sweep shares."""
    ends = zip(trips.olon, trips.olat, trips.dlon, trips.dlat)
    return SweepBase([(dropoff - pickup, cost, planner.plan(*key))
                      for pickup, dropoff, cost, key, label, failed in zip(
                          trips.pickup_min, trips.dropoff_min, trips.cost, ends, verdicts.label,
                          verdicts.failed_condition, strict=True) if "C3" in trace(label, failed)],
                     len(trips))


def _swept_config(cfg: ClassifierConfig, parameter: str, value: float) -> ClassifierConfig:
    """``cfg`` with one threshold replaced; the config validates the value.
    ``max_transfers`` counts transfers, so a whole point reaches it as ``int``."""
    if parameter == "max_transfers" and value.is_integer():
        value = int(value)
    return replace(cfg, **{parameter: value})


def elasticity_sweep(
    base: SweepBase,
    cfg: ClassifierConfig,
    parameter: str,
    values: Sequence[float],
) -> ElasticityReport:
    """Substitutive share and elasticity at each threshold value.

    ``base`` comes from :func:`sweep_base`. Each value must make a valid
    :class:`ClassifierConfig`, and ``values`` must include the baseline (the
    threshold currently set on ``cfg``); the share reported at the baseline
    is identical to a plain classification run with ``cfg``.
    """
    if parameter not in PARAMETERS:
        raise ValueError(f"unknown sweep parameter {parameter!r}; "
                         f"expected one of {', '.join(PARAMETERS)}")
    if isinstance(values, (str, bytes)) or not isinstance(values, Sequence) or not all(
            map(finite_number, values)):
        raise ValueError(f"{parameter} sweep values must be a list of numbers, all finite, "
                         f"got {values!r}")
    points = [float(v) for v in values]
    if not points:
        raise ValueError("values must not be empty")
    configs = [_swept_config(cfg, parameter, v) for v in points]
    baseline = float(getattr(cfg, parameter))
    if baseline not in points:
        raise ValueError(f"values must include the baseline "
                         f"{parameter}={baseline}")

    ratios = []
    for swept in configs:
        count = sum(classify_thresholds(duration, cost, alt, swept) is None
                    for duration, cost, alt in base.reaching)
        ratios.append(count / base.total if base.total else 0.0)

    base_ratio = ratios[points.index(baseline)]
    elasticities = [arc_elasticity(baseline, base_ratio, v, r)
                    for v, r in zip(points, ratios)]
    return ElasticityReport(parameter=parameter, baseline=baseline,
                            values=points, ratios=ratios,
                            elasticities=elasticities)


def write_elasticity_csv(reports: Sequence[ElasticityReport], path) -> None:
    """One row per sweep point; the elasticity cell is empty at the anchor."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter", "value", "substitutive_ratio",
                         "arc_elasticity"])
        for report in reports:
            for v, r, e in zip(report.values, report.ratios,
                               report.elasticities):
                writer.writerow([report.parameter, repr(float(v)),
                                 repr(float(r)),
                                 "" if e is None else repr(float(e))])


def elasticity_svg(report: ElasticityReport) -> str:
    """Line chart of the substitutive share over the sweep, low to high."""
    order = sorted(range(len(report.values)), key=lambda i: report.values[i])
    xs = [report.values[i] for i in order]
    ys = [report.ratios[i] for i in order]
    return svgchart.line_chart(
        xs, ys, f"substitutive share vs {report.parameter}",
        x_label=report.parameter, y_label="substitutive share")


__all__ = ["PARAMETERS", "ElasticityReport", "SweepBase", "arc_elasticity",
           "sweep_base", "elasticity_sweep", "write_elasticity_csv", "elasticity_svg"]
