"""Model attribution and response curves for boosted tree models.

Three pieces:

* interventional Shapley attributions (``shap_values``), where the value of a
  coalition S is the mean model output over a background sample with the
  explained row's values spliced in on S. Root-to-leaf paths are walked once
  per (row, background row) pair, classifying each constrained feature as
  forced-in, forced-out, or free and applying the closed-form Shapley weight
  of that restricted game, so no coalition is ever enumerated. Local
  accuracy holds: base_value + sum(phi) equals the model output for every
  row.
* importance shares (``importance``): mean absolute attribution per feature,
  normalized to percentages that sum to 100.
* partial dependence (``pdp``): the mean prediction as one feature is swept
  over an evenly spaced grid, with a per-point density flag marking grid
  values at or below the 95th percentile of the observed column. Each tree
  runs once per interval between its own thresholds on the swept feature,
  and the curve is bit-identical to predicting the whole tiled sweep.

CSV and SVG exports are deterministic: fixed canvas, fixed precision, and a
seeded jitter for the beeswarm layout.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import svgchart
from .boost import BoostModel, _tree_predict, predict

DEFAULT_BACKGROUND_SIZE = 100
PDP_GRID_INTERVALS = 100
DENSITY_PERCENTILE = 95.0
PLOT_TOP_FEATURES = 10


@dataclass
class ShapMatrix:
    values: np.ndarray          # (n_rows, n_features) attributions
    base_value: float           # mean model output over the background
    feature_names: list[str]
    n_background: int


@dataclass
class ImportanceReport:
    feature_names: list[str]
    mean_abs: np.ndarray        # A_j = mean |phi_j| over rows
    share_percent: np.ndarray   # 100 * A_j / sum(A); zeros when sum(A) == 0


@dataclass
class PdpCurve:
    feature: str
    grid: np.ndarray            # PDP_GRID_INTERVALS + 1 evenly spaced values
    values: np.ndarray          # mean prediction with the column pinned
    dense: np.ndarray           # grid value <= 95th percentile of the column
    cutoff: float
    tree_rows: int = 0          # rows pushed through trees to compute values


# ---------------------------------------------------------------------------
# inputs


def sample_background(X: np.ndarray, size: int = DEFAULT_BACKGROUND_SIZE,
                      seed: int = 0) -> np.ndarray:
    """Fixed-seed background sample; the whole matrix when it is small."""
    X = np.asarray(X, dtype=float)
    if size < 1:
        raise ValueError("background size must be at least 1")
    if len(X) <= size:
        return X.copy()
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(len(X), size=size, replace=False))
    return X[rows].copy()


def _as_matrix(model: BoostModel, X: np.ndarray, what: str) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] != len(model.feature_names):
        raise ValueError(f"{what} must have {len(model.feature_names)} columns "
                         f"matching the model schema")
    return X


# ---------------------------------------------------------------------------
# Shapley attributions


def shap_values(model: BoostModel, X: np.ndarray,
                background: np.ndarray) -> ShapMatrix:
    X = _as_matrix(model, X, "X")
    background = _as_matrix(model, background, "background")
    if len(background) == 0:
        raise ValueError("background must contain at least one row")
    values = _shap_tree(model, X, background)
    base = float(predict(model, background).mean())
    return ShapMatrix(values=values, base_value=base,
                      feature_names=list(model.feature_names),
                      n_background=len(background))


def _leaf_paths(tree: dict) -> list[tuple[float, dict]]:
    """Leaves with per-feature half-open intervals (lo, hi], the intersection
    of every split taken on the way down; branches whose interval is empty
    are unreachable for any input and dropped."""
    leaves: list[tuple[float, dict]] = []

    def rec(node: dict, cons: dict) -> None:
        if "value" in node:
            leaves.append((float(node["value"]), cons))
            return
        j = int(node["feature"])
        t = float(node["threshold"])
        lo, hi = cons.get(j, (-math.inf, math.inf))
        if lo < min(hi, t):
            left = dict(cons)
            left[j] = (lo, min(hi, t))
            rec(node["left"], left)
        if max(lo, t) < hi:
            right = dict(cons)
            right[j] = (max(lo, t), hi)
            rec(node["right"], right)

    rec(tree, {})
    return leaves


def _shap_tree(model: BoostModel, X: np.ndarray,
               background: np.ndarray) -> np.ndarray:
    n, d = X.shape
    m = len(background)
    phi = np.zeros((n, d))
    if n == 0:
        return phi
    fact = [math.factorial(i) for i in range(d + 1)]
    w_in = np.zeros((d + 1, d + 1))
    w_out = np.zeros((d + 1, d + 1))
    for a in range(d + 1):
        for o in range(d + 1 - a):
            if a >= 1:
                w_in[a, o] = fact[a - 1] * fact[o] / fact[a + o]
            if o >= 1:
                w_out[a, o] = fact[a] * fact[o - 1] / fact[a + o]
    for tree, gamma in zip(model.trees, model.gammas):
        if gamma == 0.0:
            continue
        for value, cons in _leaf_paths(tree):
            if not cons or value == 0.0:
                continue
            v = gamma * value
            feats = sorted(cons)
            los = np.array([cons[j][0] for j in feats])
            his = np.array([cons[j][1] for j in feats])
            sx = (X[:, feats] > los) & (X[:, feats] <= his)           # (n, p)
            sb = (background[:, feats] > los) & (background[:, feats] <= his)
            forced_in = sx[:, None, :] & ~sb[None, :, :]              # (n, m, p)
            forced_out = ~sx[:, None, :] & sb[None, :, :]
            alive = ~(~sx[:, None, :] & ~sb[None, :, :]).any(axis=2)  # (n, m)
            a_cnt = forced_in.sum(axis=2)
            o_cnt = forced_out.sum(axis=2)
            gain = w_in[a_cnt, o_cnt] * alive
            loss = w_out[a_cnt, o_cnt] * alive
            for c, j in enumerate(feats):
                phi[:, j] += v * (gain * forced_in[:, :, c]).sum(axis=1)
                phi[:, j] -= v * (loss * forced_out[:, :, c]).sum(axis=1)
    phi /= m
    return phi


# ---------------------------------------------------------------------------
# importance


def importance(shap: ShapMatrix) -> ImportanceReport:
    d = len(shap.feature_names)
    if len(shap.values):
        mean_abs = np.abs(shap.values).mean(axis=0)
    else:
        mean_abs = np.zeros(d)
    total = float(mean_abs.sum())
    if total > 0.0:
        share = 100.0 * mean_abs / total
    else:
        share = np.zeros(d)
    return ImportanceReport(feature_names=list(shap.feature_names),
                            mean_abs=mean_abs, share_percent=share)


def top_order(report: ImportanceReport, k: Optional[int] = None) -> list[int]:
    """Feature indices by descending mean-|phi|, ties kept in schema order."""
    order = np.argsort(-report.mean_abs, kind="stable")
    if k is not None:
        order = order[:k]
    return [int(i) for i in order]


# ---------------------------------------------------------------------------
# partial dependence


def pdp(model: BoostModel, X: np.ndarray, feature: Union[int, str],
        n_grid: int = PDP_GRID_INTERVALS) -> PdpCurve:
    """Mean prediction over the rows of ``X`` with column ``feature`` pinned
    to each grid value.

    With x_j = g, a tree's leaves depend on g only through its tests g <= t
    on its own thresholds for j, so all grid points in one interval between
    them reach the same leaves: each tree runs once per such interval (once
    when it never splits on j) and is gathered back to (grid, row). Each
    entry sums f0 and gamma * leaf over the nonzero-gamma trees in tree
    order, as ``predict`` does on the tiled sweep, so the values equal
    ``predict(model, sweep).reshape(len(grid), n).mean(axis=1)`` bit for bit.
    """
    X = _as_matrix(model, X, "X")
    if len(X) == 0:
        raise ValueError("partial dependence requires at least one row")
    if n_grid < 1:
        raise ValueError("n_grid must be at least 1")
    if isinstance(feature, str):
        if feature not in model.feature_names:
            raise ValueError(f"unknown feature {feature!r}")
        j = model.feature_names.index(feature)
    else:
        j = int(feature)
        if not 0 <= j < X.shape[1]:
            raise ValueError(f"feature index {j} out of range")
    col = X[:, j]
    grid = np.linspace(float(col.min()), float(col.max()), n_grid + 1)
    cutoff = float(np.percentile(col, DENSITY_PERCENTILE))
    out = np.full((len(grid), len(X)), model.f0)
    pinned = X.copy()
    tree_rows = 0
    for tree, gamma in zip(model.trees, model.gammas):
        if gamma == 0.0:
            continue
        labels = np.searchsorted(np.sort(_cut_points(tree, j)), grid, side="left")
        _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
        h = np.empty((len(first), len(X)))
        for k, g in enumerate(grid[first]):
            pinned[:, j] = g
            h[k] = _tree_predict(tree, pinned)
        out += (gamma * h)[inverse]
        tree_rows += h.size
    return PdpCurve(feature=model.feature_names[j], grid=grid,
                    values=out.mean(axis=1), dense=grid <= cutoff,
                    cutoff=cutoff, tree_rows=tree_rows)


def _cut_points(node: dict, j: int) -> list[float]:
    """Thresholds of every split on feature ``j`` in one tree."""
    if "value" in node:
        return []
    own = [float(node["threshold"])] if int(node["feature"]) == j else []
    return own + _cut_points(node["left"], j) + _cut_points(node["right"], j)


# ---------------------------------------------------------------------------
# exports


def value_ranks(X: np.ndarray) -> np.ndarray:
    """Per-column ordinal rank of each entry (0-based, stable on ties)."""
    X = np.asarray(X, dtype=float)
    ranks = np.empty(X.shape, dtype=int)
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        ranks[np.ix_(order, [j])] = np.arange(len(X)).reshape(-1, 1)
    return ranks


def write_beeswarm_csv(shap: ShapMatrix, X: np.ndarray, path) -> None:
    X = np.asarray(X, dtype=float)
    ranks = value_ranks(X) if len(X) else np.zeros(X.shape, dtype=int)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "shap_value", "feature_value_rank"])
        for j, name in enumerate(shap.feature_names):
            for i in range(len(shap.values)):
                writer.writerow([name, repr(float(shap.values[i, j])),
                                 int(ranks[i, j])])


def write_importance_csv(report: ImportanceReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "mean_abs_shap", "share_percent"])
        for j, name in enumerate(report.feature_names):
            writer.writerow([name, repr(float(report.mean_abs[j])),
                             repr(float(report.share_percent[j]))])


def write_pdp_csv(curves: Sequence[PdpCurve], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "grid_value", "pdp_value", "dense"])
        for curve in curves:
            for g, v, flag in zip(curve.grid, curve.values, curve.dense):
                writer.writerow([curve.feature, repr(float(g)),
                                 repr(float(v)), "true" if flag else "false"])


def export_plots(out_dir, shap: ShapMatrix, X: np.ndarray,
                 curves: Sequence[PdpCurve], seed: int = 0) -> list[str]:
    """Write shap.csv, importance.csv/.svg, beeswarm.svg, pdp.csv/.svg into
    ``out_dir``. Plots keep the ten highest-importance features; an empty
    attribution matrix still produces valid (empty) files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    X = np.asarray(X, dtype=float)
    report = importance(shap)
    order = top_order(report, PLOT_TOP_FEATURES)

    write_beeswarm_csv(shap, X, out / "shap.csv")
    write_importance_csv(report, out / "importance.csv")
    write_pdp_csv(curves, out / "pdp.csv")

    n = len(shap.values)
    ranks = value_ranks(X) if n else np.zeros(X.shape, dtype=int)
    swarm_rows = []
    if n:
        scale = 1.0 / (n - 1) if n > 1 else None
        for j in order:
            rank_col = (ranks[:, j] * scale if scale is not None
                        else np.full(n, 0.5))
            swarm_rows.append((shap.feature_names[j], shap.values[:, j],
                               rank_col))
    (out / "beeswarm.svg").write_text(svgchart.beeswarm(
        swarm_rows, "attribution spread (top features)", seed=seed))

    bar_labels = [report.feature_names[j] for j in order] if n else []
    bar_values = [float(report.share_percent[j]) for j in order] if n else []
    (out / "importance.svg").write_text(svgchart.bar_chart(
        bar_labels, bar_values, "mean |attribution| share", unit="%"))

    panels = [(c.feature, c.grid, c.values, list(c.dense)) for c in curves]
    (out / "pdp.svg").write_text(svgchart.line_panels(
        panels, "partial dependence (top features)"))

    return [str(out / name) for name in
            ("shap.csv", "importance.csv", "pdp.csv",
             "beeswarm.svg", "importance.svg", "pdp.svg")]


__all__ = [
    "DEFAULT_BACKGROUND_SIZE", "PDP_GRID_INTERVALS",
    "ShapMatrix", "ImportanceReport", "PdpCurve",
    "sample_background", "shap_values", "importance", "top_order", "pdp",
    "value_ranks", "write_beeswarm_csv", "write_importance_csv",
    "write_pdp_csv", "export_plots",
]
