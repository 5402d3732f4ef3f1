"""Gradient-boosted regression trees with ordered boosting.

The booster minimises mean squared error. To avoid the target-leakage bias of
plain gradient boosting (each tree scoring the very rows it was fitted on),
gradients are taken against permutation-prefix models: a seeded permutation is
cut into ``ordered_segments`` contiguous segments of geometrically growing
size, and the gradient for a row in segment ``j`` is computed from a side
model trained only on segments ``0..j-1``. Segment 0 has no preceding data,
so its gradients stay anchored to the global mean; the geometric sizing keeps
that segment small. ``ordered_segments=1`` disables the scheme and gives
classic gradient boosting.

Growth chooses a tree's splits and records the rows of each leaf, and every
leaf is then fit by one rule: the weighted mean of a target over its rows. A
prefix tree's target is the gradient it was grown on. A main tree is grown on
the prefix-based gradients but fit to the deployed model's own residuals, the
classic per-leaf line-search step; without it the no-prefix segment's frozen
gradients would leave a permanent training-loss floor. The step ``gamma_m``
is a one-dimensional line search on training loss, times the learning rate.

Randomness is consumed in a fixed order so a fit can be replayed exactly:
one permutation up front, then per iteration (a) bagging weights, drawn only
when ``bagging_temperature > 0``, (b) the column subset, drawn only when the
subset is proper, (c) split-score noise inside each tree build, drawn only
when ``random_strength > 0``, for the prefix trees in segment order and then
the main tree.

Trees are exact-greedy: every unique value of every candidate column is
scored by weighted variance reduction, ties resolved toward the lowest
feature index and then the lowest threshold. Split rule is ``x <= threshold``
to the left branch.

Each fit sorts every column once (a stable argsort, so equal values keep
ascending row order), as in SLIQ's presorting and XGBoost's column blocks.
A node splits its sorted view between its children by a stable partition,
so each child's view equals a fresh stable sort of that child's rows, and
one pass then scores all candidate columns with running sums along their
orders. The sums, the candidates and their order, and so every split, are
the same as a per-node sort of each column would give; nothing is binned.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

PARAM_RANGES = {
    "iterations": (100, 1000),
    "learning_rate": (0.001, 0.1),
    "depth": (1, 10),
    "bagging_temperature": (0.0, 1.0),
    "random_strength": (0.0, 1.0),
    "column_sample_ratio": (0.05, 1.0),
    "min_data_in_leaf": (10, 100),
}

MODEL_FORMAT = "boost-model/1"


@dataclass(frozen=True)
class BoostParams:
    iterations: int = 300
    learning_rate: float = 0.05
    depth: int = 6
    bagging_temperature: float = 0.0
    random_strength: float = 0.0
    column_sample_ratio: float = 1.0
    min_data_in_leaf: int = 10
    ordered_segments: int = 4
    seed: int = 0

    def __post_init__(self):
        for name, (lo, hi) in PARAM_RANGES.items():
            value = getattr(self, name)
            if not (lo <= value <= hi):
                raise ValueError(f"{name} must be within [{lo}, {hi}], got {value}")
        if not (1 <= self.ordered_segments <= 10):
            raise ValueError("ordered_segments must be within [1, 10]")


@dataclass
class BoostModel:
    f0: float
    trees: list                 # nested {"feature","threshold","left","right"} / {"value"}
    gammas: list[float]         # effective per-tree step, learning rate included
    feature_names: list[str]
    target: str
    schema_hash: str
    permutation: list[int]
    params: BoostParams


def schema_hash(feature_names: Sequence[str], target: str) -> str:
    payload = json.dumps([list(feature_names), target]).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


# ---------------------------------------------------------------------------
# tree building


def _best_split(g, w, rows, orders, xs, cols, min_leaf, noise_scale, rng):
    """Score every boundary of every candidate column in one pass; returns
    (gain, feature, threshold) or None. Row ``i`` of ``orders`` lists ``rows``
    sorted by column ``cols[i]``, ties in ascending row order, and row ``i``
    of ``xs`` holds their values in that column."""
    parent_w = w[rows]
    parent_g = g[rows]
    sw = parent_w.sum()
    swg = (parent_w * parent_g).sum()
    swgg = (parent_w * parent_g * parent_g).sum()
    parent_sse = swgg - swg * swg / sw
    # a candidate cuts after sorted position p: p + 1 rows go left
    m = len(rows)
    lo, hi = max(min_leaf - 1, 0), min(m - min_leaf, m - 1)
    feasible = np.zeros(orders.shape, dtype=bool)
    np.not_equal(xs[:, lo:hi], xs[:, lo + 1:hi + 1], out=feasible[:, lo:hi])
    candidates = np.flatnonzero(feasible)  # column by column, thresholds ascending
    if candidates.size == 0:
        return None
    # running sums of w, w*g and w*g*g along each column's sorted rows
    sums = np.empty((3,) + orders.shape)
    g_s = np.take(g, orders)
    np.take(w, orders, out=sums[0])
    np.multiply(sums[0], g_s, out=sums[1])
    np.multiply(sums[1], g_s, out=sums[2])
    np.cumsum(sums, axis=2, out=sums)
    lw, lg, lgg = np.take(sums.reshape(3, -1), candidates, axis=1)
    rw, rg, rgg = sw - lw, swg - lg, swgg - lgg
    gains = parent_sse - ((lgg - lg * lg / lw) + (rgg - rg * rg / rw))
    if noise_scale > 0.0:
        # candidates run column by column, so one draw gives each column the
        # same numbers as a draw of its own, and the noise stream stays fixed
        gains = gains + rng.normal(size=gains.shape) * noise_scale
    pick = int(np.argmax(gains))  # first maximum -> lowest feature, then threshold
    gain = float(gains[pick])
    if gain <= 0.0:
        return None
    i, p = divmod(int(candidates[pick]), m)
    return gain, int(cols[i]), float(xs[i, p])


def _grow(X, g, w, rows, view, cols, depth, min_leaf, random_strength, rng):
    """Grow one tree depth-first over ``rows``, whose sorted ``view`` (row
    order and values per column) comes from the fit's presort. A child's view
    is a stable partition of its parent's, made once the child is to split.
    Returns ``(tree, leaves)``: ``leaves`` pairs each leaf dict, left to right,
    with the ascending rows growth sent to it, which are the rows of ``rows``
    that ``_tree_predict`` routes there; ``_fit_leaves`` sets their values."""
    leaves = []

    def leaf(rows):
        node = {}
        leaves.append((node, rows))
        return node

    def grow(rows, orders, xs, keep, depth_left):
        if depth_left == 0 or len(rows) < 2 * min_leaf:
            return leaf(rows)
        if keep is not None:
            orders, xs = _partition(orders, xs, keep)
        noise_scale = 0.0
        if random_strength > 0.0:
            pw = w[rows]
            pg = g[rows]
            mean = (pw * pg).sum() / pw.sum()
            parent_sse = (pw * (pg - mean) ** 2).sum()
            noise_scale = random_strength * math.sqrt(parent_sse / len(rows) + 1e-12)
        found = _best_split(g, w, rows, orders, xs, cols, min_leaf, noise_scale, rng)
        if found is None:
            return leaf(rows)
        _, feature, threshold = found
        mask = X[rows, feature] <= threshold
        side = X[orders, feature] <= threshold
        left = grow(rows[mask], orders, xs, side, depth_left - 1)
        right = grow(rows[~mask], orders, xs, ~side, depth_left - 1)
        return {"feature": feature, "threshold": threshold, "left": left, "right": right}

    return grow(rows, view[0][cols], view[1][cols], None, depth), leaves


def _partition(orders, xs, keep):
    """The flagged entries of each column's sorted view; the filter is stable,
    so every column stays sorted with ties in ascending row order."""
    c = len(orders)
    return orders[keep].reshape(c, -1), xs[keep].reshape(c, -1)


def _tree_predict(node: dict, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X), dtype=float)
    stack = [(node, np.arange(len(X)))]
    while stack:
        nd, idx = stack.pop()
        if "value" in nd:
            out[idx] = nd["value"]
            continue
        mask = X[idx, nd["feature"]] <= nd["threshold"]
        stack.append((nd["left"], idx[mask]))
        stack.append((nd["right"], idx[~mask]))
    return out


def _fit_leaves(leaves, target: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Set each leaf to the weighted mean of ``target`` over its rows (0.0 when
    they weigh nothing); returns the tree's output on the grown rows, zero on
    every other row."""
    h = np.zeros(len(target))
    for node, rows in leaves:
        sw = float(w[rows].sum())
        node["value"] = float((w[rows] * target[rows]).sum() / sw) if sw > 0.0 else 0.0
        h[rows] = node["value"]
    return h


# ---------------------------------------------------------------------------
# fitting


def _fit_core(X: np.ndarray, y: np.ndarray, params, feature_names, target) -> BoostModel:
    """Boosting loop; ``params`` is duck-typed so pathological configurations
    can be exercised directly in tests without range validation."""
    n, d = X.shape
    rng = np.random.default_rng(params.seed)
    f0 = float(y.mean())
    perm = rng.permutation(n)
    model = BoostModel(
        f0=f0, trees=[], gammas=[], feature_names=list(feature_names),
        target=target, schema_hash=schema_hash(feature_names, target),
        permutation=[int(i) for i in perm], params=params,
    )
    if float(np.ptp(y)) == 0.0:
        return model

    k = params.ordered_segments
    segments = _segment_permutation(perm, k)
    prefix_rows = [np.sort(np.concatenate(segments[:j])) for j in range(1, k)]
    # presort once: each column's rows in ascending value order, ties in
    # ascending row order, and their values; each prefix model keeps its rows
    orders = np.argsort(X, axis=0, kind="stable").T
    view = (orders, np.take_along_axis(X.T, orders, axis=1))
    prefix_views = [_partition(*view, np.isin(orders, rows)) for rows in prefix_rows]
    prefix_pred = [np.full(n, f0) for _ in range(1, k)]
    main_pred = np.full(n, f0)
    lr = params.learning_rate
    n_cols = max(1, math.ceil(params.column_sample_ratio * d))

    for _ in range(params.iterations):
        if params.bagging_temperature > 0.0:
            u = np.clip(rng.random(n), 1e-16, None)
            w = (-np.log(u)) ** params.bagging_temperature
        else:
            w = np.ones(n)
        if n_cols < d:
            cols = np.sort(rng.choice(d, size=n_cols, replace=False))
        else:
            cols = np.arange(d)

        for j in range(1, k):
            rows = prefix_rows[j - 1]
            g = y[rows] - prefix_pred[j - 1][rows]
            g_full = np.zeros(n)
            g_full[rows] = g
            tree, leaves = _grow(X, g_full, w, rows, prefix_views[j - 1], cols, params.depth,
                                 params.min_data_in_leaf, params.random_strength, rng)
            h = _fit_leaves(leaves, g_full, w)[rows]
            denom = float(h @ h)
            gamma = lr * float(g @ h) / denom if denom > 0.0 else 0.0
            # the prefix model is read only on its own rows and the next segment
            prefix_pred[j - 1][rows] += gamma * h
            prefix_pred[j - 1][segments[j]] += gamma * _tree_predict(tree, X[segments[j]])

        if k == 1:
            grad_base = main_pred
        else:
            grad_base = np.full(n, f0)
            for j in range(1, k):
                grad_base[segments[j]] = prefix_pred[j - 1][segments[j]]
        g_main = y - grad_base
        tree, leaves = _grow(X, g_main, w, np.arange(n), view, cols, params.depth,
                             params.min_data_in_leaf, params.random_strength, rng)
        r = y - main_pred
        h = _fit_leaves(leaves, r, w)
        denom = float(h @ h)
        gamma = lr * float(r @ h) / denom if denom > 0.0 else 0.0
        main_pred += gamma * h
        model.trees.append(tree)
        model.gammas.append(gamma)
    return model


def _segment_permutation(perm: np.ndarray, k: int) -> list[np.ndarray]:
    """Cut the permutation into k segments of geometrically growing size
    (proportions 1:2:4:...), so the leading no-prefix segment, whose gradients
    stay anchored to the global mean, covers only a small share of the rows."""
    n = len(perm)
    if k == 1:
        return [perm]
    total = 2 ** k - 1
    bounds = [round(n * (2 ** (j + 1) - 1) / total) for j in range(k - 1)]
    segments = np.split(perm, bounds)
    if any(len(s) == 0 for s in segments):
        raise ValueError("too few rows for ordered_segments")
    return segments


def fit(X: np.ndarray, y: np.ndarray, params: BoostParams,
        feature_names: Optional[Sequence[str]] = None, target: str = "y") -> BoostModel:
    """Train a boosted model; deterministic given (X, y, params)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be 2-d and aligned with y")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("missing values or infinities in training data")
    if len(X) < 2 * params.min_data_in_leaf:
        raise ValueError("too few rows for min_data_in_leaf")
    if feature_names is None:
        feature_names = [f"f{j}" for j in range(X.shape[1])]
    if len(feature_names) != X.shape[1]:
        raise ValueError("feature_names must match columns")
    return _fit_core(X, y, params, feature_names, target)


def predict(model: BoostModel, X: np.ndarray,
            feature_names: Optional[Sequence[str]] = None) -> np.ndarray:
    """Evaluate F(x) = F0 + sum gamma_m h_m(x); columns are remapped by name
    when the caller's layout differs from the training schema."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if feature_names is not None:
        names = list(feature_names)
        if names != model.feature_names:
            if sorted(names) != sorted(model.feature_names):
                raise ValueError("feature names do not match the model schema")
            order = [names.index(n) for n in model.feature_names]
            X = X[:, order]
    out = np.full(len(X), model.f0)
    for tree, gamma in zip(model.trees, model.gammas):
        if gamma != 0.0:
            out += gamma * _tree_predict(tree, X)
    return out


# ---------------------------------------------------------------------------
# serialization


def model_to_json(model: BoostModel) -> str:
    doc = {
        "format": MODEL_FORMAT,
        "f0": model.f0,
        "trees": model.trees,
        "gammas": model.gammas,
        "feature_names": model.feature_names,
        "target": model.target,
        "schema_hash": model.schema_hash,
        "permutation": model.permutation,
        "params": asdict(model.params),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def model_from_json(text: str) -> BoostModel:
    doc = json.loads(text)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError("unrecognized model format")
    return BoostModel(
        f0=doc["f0"], trees=doc["trees"], gammas=doc["gammas"],
        feature_names=doc["feature_names"], target=doc["target"],
        schema_hash=doc["schema_hash"], permutation=doc["permutation"],
        params=BoostParams(**doc["params"]),
    )


def save_model(model: BoostModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(model_to_json(model))
        handle.write("\n")


def load_model(path: str) -> BoostModel:
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_json(handle.read())


# ---------------------------------------------------------------------------
# evaluation and spatial cross-validation


@dataclass(frozen=True)
class EvalReport:
    r2: float
    mae: float
    mse: float
    rmse: float


def evaluate(y_true: np.ndarray, y_pred: np.ndarray) -> EvalReport:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    err = y_true - y_pred
    mse = float((err ** 2).mean())
    mae = float(np.abs(err).mean())
    ss_res = float((err ** 2).sum())
    ss_tot = float(((y_true - y_true.mean()) ** 2).sum())
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else float("-inf")
    else:
        r2 = 1.0 - ss_res / ss_tot
    return EvalReport(r2=r2, mae=mae, mse=mse, rmse=math.sqrt(mse))


def evaluate_model(model: BoostModel, X: np.ndarray, y: np.ndarray) -> EvalReport:
    return evaluate(y, predict(model, X))


def spatial_kfold(cells: Sequence[str], k: int = 5) -> np.ndarray:
    """Contiguous spatial folds: cells sorted by axial (q, r) are cut into k
    nearly equal tiles. The cut is deterministic."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > len(cells):
        raise ValueError("k exceeds the number of cells")
    axial = []
    for i, cid in enumerate(cells):
        q_s, r_s = cid.split(",")
        axial.append((int(q_s), int(r_s), i))
    order = [i for _, _, i in sorted(axial)]
    fold_of = np.empty(len(cells), dtype=int)
    for f, chunk in enumerate(np.array_split(np.array(order), k)):
        fold_of[chunk] = f
    return fold_of


@dataclass
class CvReport:
    folds: list[EvalReport]
    pooled: EvalReport


def cross_validate(X: np.ndarray, y: np.ndarray, cells: Sequence[str],
                   params: BoostParams, k: int = 5,
                   feature_names: Optional[Sequence[str]] = None,
                   target: str = "y") -> CvReport:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    fold_of = spatial_kfold(cells, k)
    pooled_pred = np.empty(len(y))
    folds = []
    for f in range(k):
        test = fold_of == f
        train = ~test
        model = fit(X[train], y[train], params, feature_names, target)
        pred = predict(model, X[test])
        pooled_pred[test] = pred
        folds.append(evaluate(y[test], pred))
    return CvReport(folds=folds, pooled=evaluate(y, pooled_pred))


def write_cv_report(report: CvReport, path: str) -> None:
    doc = {
        "folds": [asdict(f) for f in report.folds],
        "pooled": asdict(report.pooled),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


# ---------------------------------------------------------------------------
# random hyperparameter search


@dataclass(frozen=True)
class ParamSpace:
    """Closed sampling ranges; every range must sit inside the validated
    parameter bounds so all sampled configurations are constructible."""

    iterations: tuple[int, int] = PARAM_RANGES["iterations"]
    learning_rate: tuple[float, float] = PARAM_RANGES["learning_rate"]
    depth: tuple[int, int] = PARAM_RANGES["depth"]
    bagging_temperature: tuple[float, float] = PARAM_RANGES["bagging_temperature"]
    random_strength: tuple[float, float] = PARAM_RANGES["random_strength"]
    column_sample_ratio: tuple[float, float] = PARAM_RANGES["column_sample_ratio"]
    min_data_in_leaf: tuple[int, int] = PARAM_RANGES["min_data_in_leaf"]
    ordered_segments: int = 4

    def __post_init__(self):
        for name, (full_lo, full_hi) in PARAM_RANGES.items():
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} range is inverted")
            if lo < full_lo or hi > full_hi:
                raise ValueError(f"{name} range must sit inside [{full_lo}, {full_hi}]")

    def sample(self, rng: np.random.Generator) -> BoostParams:
        return BoostParams(
            iterations=int(rng.integers(self.iterations[0], self.iterations[1] + 1)),
            learning_rate=float(rng.uniform(*self.learning_rate)),
            depth=int(rng.integers(self.depth[0], self.depth[1] + 1)),
            bagging_temperature=float(rng.uniform(*self.bagging_temperature)),
            random_strength=float(rng.uniform(*self.random_strength)),
            column_sample_ratio=float(rng.uniform(*self.column_sample_ratio)),
            min_data_in_leaf=int(rng.integers(self.min_data_in_leaf[0],
                                              self.min_data_in_leaf[1] + 1)),
            ordered_segments=self.ordered_segments,
            seed=int(rng.integers(2 ** 31)),
        )


@dataclass
class Trial:
    index: int
    params: BoostParams
    cv: CvReport

    @property
    def cv_mse(self) -> float:
        return self.cv.pooled.mse

    @property
    def cv_r2(self) -> float:
        return self.cv.pooled.r2


def random_search(X: np.ndarray, y: np.ndarray, cells: Sequence[str],
                  space: ParamSpace, trials: int, seed: int, k: int = 5,
                  feature_names: Optional[Sequence[str]] = None,
                  target: str = "y") -> tuple[BoostParams, list[Trial]]:
    """Seeded uniform random search over ``space``; the winner is the trial
    with the lowest pooled cross-validation MSE (ties to the earliest). Each
    trial keeps its full cross-validation report."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    candidates = [space.sample(rng) for _ in range(trials)]
    log = [Trial(index=index, params=params,
                 cv=cross_validate(X, y, cells, params, k, feature_names, target))
           for index, params in enumerate(candidates)]
    best = min(log, key=lambda t: (t.cv_mse, t.index))
    return best.params, log


TRIAL_COLUMNS = ["trial", "iterations", "learning_rate", "depth",
                 "bagging_temperature", "random_strength", "column_sample_ratio",
                 "min_data_in_leaf", "ordered_segments", "seed", "cv_mse", "cv_r2"]


def write_trial_log(log: Sequence[Trial], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRIAL_COLUMNS)
        for t in log:
            p = t.params
            writer.writerow([
                t.index, p.iterations, repr(p.learning_rate), p.depth,
                repr(p.bagging_temperature), repr(p.random_strength),
                repr(p.column_sample_ratio), p.min_data_in_leaf,
                p.ordered_segments, p.seed, repr(t.cv_mse), repr(t.cv_r2),
            ])


__all__ = [
    "MODEL_FORMAT",
    "PARAM_RANGES",
    "TRIAL_COLUMNS",
    "BoostModel",
    "BoostParams",
    "CvReport",
    "EvalReport",
    "ParamSpace",
    "Trial",
    "cross_validate",
    "evaluate",
    "evaluate_model",
    "fit",
    "load_model",
    "model_from_json",
    "model_to_json",
    "predict",
    "random_search",
    "save_model",
    "schema_hash",
    "spatial_kfold",
    "write_cv_report",
    "write_trial_log",
]
