"""Model attribution and response curves for boosted tree models.

Both routes read one table of leaf boxes: per tree with a nonzero gamma, each
reachable leaf's value and its (lo, hi] bounds on every feature.

* interventional Shapley attributions (``shap_values``), where the value of a
  coalition S is the mean model output over a background sample with the
  explained row's values spliced in on S. Per leaf, rows reduce to p-bit
  "inside the box" patterns over the p features it constrains; the Shapley
  weights of the 3^p pattern pairs that reach it are summed, by background
  count, into a (2^p, p) table that each explained row reads, so no
  coalition and no (row, background row) pair is enumerated. Local accuracy
  holds: base_value + sum(phi) equals the model output for every row.
* importance shares (``importance``): mean absolute attribution per feature,
  normalized to percentages that sum to 100.
* partial dependence (``pdp_curves``; ``pdp`` for one curve): the mean
  prediction as one feature is swept over an evenly spaced grid, with a
  per-point density flag marking grid values at or below the 95th percentile
  of the observed column, bit-identical to predicting the tiled sweep. Trees
  are added to every curve one at a time, and no state is kept per tree.

CSV and SVG exports are deterministic: fixed canvas, fixed precision, and a
seeded jitter for the beeswarm layout.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from . import svgchart
from .boost import BoostModel, predict

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
    leaf_boxes: int = 0         # rows of the leaf-box table the values read


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
    if not np.isfinite(X).all():  # a leaf box holds no NaN and no -inf
        raise ValueError(f"{what} must hold finite numbers")
    return X


# ---------------------------------------------------------------------------
# Shapley attributions


def shap_values(model: BoostModel, X: np.ndarray,
                background: np.ndarray) -> ShapMatrix:
    X = _as_matrix(model, X, "X")
    background = _as_matrix(model, background, "background")
    if len(background) == 0:
        raise ValueError("background must contain at least one row")
    phi = np.zeros(X.shape)
    tables: dict[int, tuple] = {}
    n_boxes = 0
    for gamma, leaf_values, lo, hi in _leaf_boxes(model, X.shape[1]):
        n_boxes += len(leaf_values)
        for value, low, high in zip(leaf_values, lo, hi):
            feats = np.flatnonzero((low > -math.inf) | (high < math.inf))
            p = len(feats)
            if p == 0 or value == 0.0:
                continue
            if p not in tables:
                tables[p] = _pair_table(p)
            pair_b, index, weights, bits = tables[p]
            low, high = low[feats], high[feats]
            x_in = ((X[:, feats] > low) & (X[:, feats] <= high)) @ bits
            b_in = ((background[:, feats] > low) & (background[:, feats] <= high)) @ bits
            count = np.bincount(b_in, minlength=1 << p)
            table = np.bincount(index, (count[pair_b][:, None] * weights).ravel(),
                                minlength=p << p).reshape(-1, p)
            phi[:, feats] += (gamma * value) * table[x_in]
    return ShapMatrix(values=phi / len(background),
                      base_value=float(predict(model, background).mean()),
                      feature_names=list(model.feature_names),
                      n_background=len(background), leaf_boxes=n_boxes)


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


def _leaf_boxes(model: BoostModel, d: int) -> Iterator[tuple]:
    """(gamma, leaf values, lo, hi) per nonzero-gamma tree, in tree order: the
    (leaves, d) bounds of ``_leaf_paths``, +-inf where a leaf is unbounded."""
    for tree, gamma in zip(model.trees, model.gammas):
        if gamma != 0.0:
            paths = _leaf_paths(tree)
            box = np.array([[cons.get(j, (-math.inf, math.inf)) for j in range(d)]
                            for _, cons in paths])                  # (leaves, d, 2)
            yield gamma, np.array([value for value, _ in paths]), *np.moveaxis(box, 2, 0)


def _pair_table(p: int) -> tuple[np.ndarray, ...]:
    """(b, flat index a * p + c, weights, bits) of the 3^p pattern pairs (a, b)
    that reach a leaf, a | b covering all p bits: a feature c forced in (a & ~b)
    gains (|in| - 1)! |out|! / (|in| + |out|)!, one forced out (~a & b) loses
    |in|! (|out| - 1)! / (|in| + |out|)!."""
    a = b = np.zeros(1, dtype=np.int64)
    for bit in (1 << c for c in range(p)):  # bit c is in both, in a only, or in b only
        a, b = np.concatenate([a | bit, a | bit, a]), np.concatenate([b | bit, b, b | bit])
    forced_in = ((a & ~b)[:, None] >> np.arange(p)) & 1
    forced_out = ((~a & b)[:, None] >> np.arange(p)) & 1
    k_in, k_out = forced_in.sum(axis=1), forced_out.sum(axis=1)
    fact = np.array([math.factorial(i) for i in range(p + 1)], dtype=float)
    gain = fact[np.maximum(k_in - 1, 0)] * fact[k_out] / fact[k_in + k_out]
    loss = fact[k_in] * fact[np.maximum(k_out - 1, 0)] / fact[k_in + k_out]
    weights = gain[:, None] * forced_in - loss[:, None] * forced_out
    return b, (a[:, None] * p + np.arange(p)).ravel(), weights, 1 << np.arange(p)


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
    """One curve of ``pdp_curves``."""
    return pdp_curves(model, X, [feature], n_grid)[0]


def pdp_curves(model: BoostModel, X: np.ndarray, features: Sequence[Union[int, str]],
               n_grid: int = PDP_GRID_INTERVALS) -> list[PdpCurve]:
    """Mean prediction over the rows of ``X`` with each of ``features`` pinned
    in turn to each grid value. Trees are added to every curve one at a time,
    each read once per interval between its bounds on j; grid points that all
    trees so far sent to the same leaves share one row of sums. Summed in tree
    order, each value is the tiled ``predict`` sweep's mean, bit for bit."""
    X = _as_matrix(model, X, "X")
    if len(X) == 0:
        raise ValueError("partial dependence requires at least one row")
    if n_grid < 1:
        raise ValueError("n_grid must be at least 1")
    cols = [_feature_index(model, feature) for feature in features]
    grids = [np.linspace(float(X[:, j].min()), float(X[:, j].max()), n_grid + 1) for j in cols]
    cutoffs = [float(np.percentile(X[:, j], DENSITY_PERCENTILE)) for j in cols]
    classes = [np.zeros(n_grid + 1, dtype=np.intp) for _ in cols]
    sums = [np.full((1, len(X)), model.f0) for _ in cols]
    tree_rows = [0] * len(cols)
    for gamma, values, lo, hi in _leaf_boxes(model, X.shape[1]):
        outside = (X <= lo[:, None, :]) | (X > hi[:, None, :])      # (leaves, n, d)
        misses = outside.sum(axis=2)
        pred = gamma * values[(misses == 0).argmax(axis=0)]
        for k, (j, grid, old) in enumerate(zip(cols, grids, classes)):
            if not (np.isfinite(lo[:, j]).any() or np.isfinite(hi[:, j]).any()):
                sums[k] += pred
                tree_rows[k] += len(X)
                continue
            # grid points with no bound of the tree between them share a label
            labels = np.searchsorted(np.sort(np.concatenate([lo[:, j], hi[:, j]])), grid, side="left")
            _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
            holds = (grid[first, None] > lo[:, j]) & (grid[first, None] <= hi[:, j])  # (groups, leaves)
            reach = misses == outside[:, :, j]          # (leaves, n) with j pinned
            h = values[(holds[:, :, None] & reach).argmax(axis=1)]           # (groups, n)
            # a class splits where this tree sends its grid points to two groups
            _, rep, classes[k] = np.unique(old * len(first) + inverse, return_index=True,
                                           return_inverse=True)
            sums[k] = sums[k][old[rep]] + (gamma * h)[inverse[rep]]
            tree_rows[k] += h.size
    return [PdpCurve(feature=model.feature_names[j], grid=grid, values=out.mean(axis=1)[cls],
                     dense=grid <= cutoff, cutoff=cutoff, tree_rows=rows)
            for j, grid, cutoff, cls, out, rows
            in zip(cols, grids, cutoffs, classes, sums, tree_rows)]


def _feature_index(model: BoostModel, feature: Union[int, str]) -> int:
    if isinstance(feature, str) and feature not in model.feature_names:
        raise ValueError(f"unknown feature {feature!r}")
    j = model.feature_names.index(feature) if isinstance(feature, str) else int(feature)
    if not 0 <= j < len(model.feature_names):
        raise ValueError(f"feature index {j} out of range")
    return j


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
    ranks = value_ranks(X)
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
    ranks = value_ranks(X)
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
    "pdp_curves", "value_ranks", "write_beeswarm_csv", "write_importance_csv",
    "write_pdp_csv", "export_plots",
]
