"""Exact interventional Shapley values by enumerating all 2^d coalitions: the
oracle for the tree-path route ``ridelink.explain.shap_values``. Kept verbatim
from the exhaustive route that ``explain`` used to offer; only the imports
are new. The oracle's base value is ``float(predict(model, background).mean())``."""

import math

import numpy as np

from ridelink.boost import BoostModel, predict

EXACT_FEATURE_LIMIT = 20


def _shap_exact(model: BoostModel, X: np.ndarray,
                background: np.ndarray) -> np.ndarray:
    n, d = X.shape
    if d > EXACT_FEATURE_LIMIT:
        raise ValueError(
            f"exact attribution enumerates 2^d coalitions and supports at "
            f"most {EXACT_FEATURE_LIMIT} features; got {d}. Use mode='tree'.")
    m = len(background)
    if n == 0:
        return np.zeros((0, d))
    # coalition values: v[i, S] = mean_b F(x_i on S, b elsewhere)
    tiled = np.tile(background, (n, 1))
    xrep = np.repeat(X, m, axis=0)
    vals = np.empty((n, 1 << d))
    for mask in range(1 << d):
        on = np.array([(mask >> j) & 1 for j in range(d)], dtype=bool)
        mix = np.where(on[None, :], xrep, tiled)
        vals[:, mask] = predict(model, mix).reshape(n, m).mean(axis=1)
    fact = [math.factorial(i) for i in range(d + 1)]
    weight = [fact[s] * fact[d - s - 1] / fact[d] for s in range(d)]
    phi = np.zeros((n, d))
    for mask in range(1 << d):
        w = weight[bin(mask).count("1")] if bin(mask).count("1") < d else 0.0
        for j in range(d):
            bit = 1 << j
            if not mask & bit:
                phi[:, j] += w * (vals[:, mask | bit] - vals[:, mask])
    return phi
