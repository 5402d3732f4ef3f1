"""Tests for interventional attributions, importance shares, and partial
dependence, verified against hand-enumerated coalitions and closed-form
behavior of handcrafted tree ensembles."""

import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridelink import boost, explain
from ridelink.boost import BoostModel, BoostParams, fit, predict
from ridelink.explain import (
    ImportanceReport,
    PdpCurve,
    ShapMatrix,
    export_plots,
    importance,
    pdp,
    pdp_curves,
    sample_background,
    shap_values,
    top_order,
    value_ranks,
)
from shap_oracle import _shap_exact


def _stump(feature, threshold, left, right):
    return {"feature": feature, "threshold": threshold,
            "left": {"value": left}, "right": {"value": right}}


def _model(trees, gammas, f0=0.0, names=("x0", "x1")):
    names = list(names)
    return BoostModel(f0=f0, trees=list(trees), gammas=list(gammas),
                      feature_names=names, target="y",
                      schema_hash=boost.schema_hash(names, "y"),
                      permutation=[], params=None)


def _oracle(model, X, bg):
    """Exact 2^d attributions as a ShapMatrix; the base value is the mean
    background prediction, as ``shap_values`` defines it."""
    return ShapMatrix(values=_shap_exact(model, X, bg),
                      base_value=float(predict(model, bg).mean()),
                      feature_names=list(model.feature_names),
                      n_background=len(bg))


def _fitted(n=120, d=5, seed=0, **overrides):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (np.sin(X[:, 0]) + 0.5 * X[:, 1] * X[:, 2]
         + (X[:, d - 1] > 0.3) + 0.05 * rng.normal(size=n))
    params = BoostParams(**{**dict(iterations=100, learning_rate=0.1, depth=3,
                                   ordered_segments=2, seed=seed),
                            **overrides})
    names = [f"x{j}" for j in range(d)]
    return fit(X, y, params, feature_names=names), X


class TestExactEnumeration:
    def test_single_split_two_row_background_by_hand(self):
        # stump on x0 at 0.5 (left -1, right +1), background {(0,0), (1,1)},
        # explained row (1, 0). Coalition values over the two feature game:
        #   f(empty)   = mean(F(0,0), F(1,1)) = (-1 + 1) / 2 = 0
        #   f({x0})    = mean(F(1,0), F(1,1)) = (+1 + 1) / 2 = 1
        #   f({x1})    = mean(F(0,0), F(1,0)) = (-1 + 1) / 2 = 0
        #   f({x0,x1}) = F(1,0)               = 1
        # phi_0 = 1/2 (f({x0}) - f(empty)) + 1/2 (f(full) - f({x1})) = 1
        # phi_1 = 1/2 (f({x1}) - f(empty)) + 1/2 (f(full) - f({x0})) = 0
        model = _model([_stump(0, 0.5, -1.0, 1.0)], [1.0])
        X = np.array([[1.0, 0.0]])
        bg = np.array([[0.0, 0.0], [1.0, 1.0]])
        for shap in (_oracle(model, X, bg), shap_values(model, X, bg)):
            assert shap.values[0, 0] == pytest.approx(1.0, abs=1e-15)
            assert shap.values[0, 1] == 0.0
            assert shap.base_value == pytest.approx(0.0, abs=1e-15)
            assert shap.n_background == 2

    def test_feature_limit_advises_tree_mode(self):
        names = [f"x{j}" for j in range(21)]
        model = _model([_stump(0, 0.0, -1.0, 1.0)], [1.0], names=names)
        X = np.zeros((1, 21))
        with pytest.raises(ValueError, match="tree"):
            _shap_exact(model, X, X)
        # tree mode itself is fine at this width
        shap = shap_values(model, X, X)
        assert shap.values.shape == (1, 21)

    def test_column_count_validated(self):
        model = _model([_stump(0, 0.0, -1.0, 1.0)], [1.0])
        with pytest.raises(ValueError, match="columns"):
            shap_values(model, np.zeros((1, 3)), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="columns"):
            shap_values(model, np.zeros((1, 2)), np.zeros((1, 3)))

    def test_empty_background_rejected(self):
        model = _model([_stump(0, 0.0, -1.0, 1.0)], [1.0])
        with pytest.raises(ValueError, match="background"):
            shap_values(model, np.zeros((1, 2)), np.zeros((0, 2)))


class TestAxioms:
    def test_local_accuracy_on_fitted_model(self):
        model, X = _fitted(n=150, d=5, seed=11)
        bg = sample_background(X, size=20, seed=3)
        rows = X[:50]
        shap = shap_values(model, rows, bg)
        pred = predict(model, rows)
        recon = shap.base_value + shap.values.sum(axis=1)
        for i in range(len(rows)):
            tol = 1e-9 * max(1.0, abs(pred[i]))
            assert abs(recon[i] - pred[i]) <= tol

    def test_local_accuracy_exact_mode(self):
        model, X = _fitted(n=80, d=4, seed=5, iterations=100)
        bg = sample_background(X, size=10, seed=1)
        rows = X[:8]
        shap = _oracle(model, rows, bg)
        pred = predict(model, rows)
        recon = shap.base_value + shap.values.sum(axis=1)
        assert np.allclose(recon, pred, rtol=1e-9, atol=1e-9)

    def test_local_accuracy_with_offset(self):
        # a nonzero model constant lands in the base value, not the phis
        model = _model([_stump(0, 0.0, -2.0, 3.0)], [0.5], f0=5.0)
        X = np.array([[1.0, 7.0], [-1.0, -7.0]])
        bg = np.array([[0.5, 0.0], [-0.5, 1.0], [2.0, -1.0]])
        for shap in (_oracle(model, X, bg), shap_values(model, X, bg)):
            recon = shap.base_value + shap.values.sum(axis=1)
            assert np.allclose(recon, predict(model, X), rtol=0, atol=1e-12)

    def test_dummy_feature_is_exactly_zero(self):
        # four features, splits only ever on x0 and x1
        trees = [_stump(0, 0.0, -1.0, 2.0), _stump(1, 1.5, 4.0, -3.0),
                 _stump(0, -1.0, 0.5, 1.5)]
        model = _model(trees, [1.0, 0.7, 0.3],
                       names=["x0", "x1", "x2", "x3"])
        rng = np.random.default_rng(7)
        X = rng.normal(size=(12, 4))
        bg = rng.normal(size=(6, 4))
        for shap in (_oracle(model, X, bg), shap_values(model, X, bg)):
            assert np.all(shap.values[:, 2] == 0.0)
            assert np.all(shap.values[:, 3] == 0.0)

    def test_symmetry_for_interchangeable_features(self):
        # identical columns and mirrored trees: equal roles in the model
        trees = [_stump(0, 0.2, -1.0, 1.0), _stump(1, 0.2, -1.0, 1.0)]
        model = _model(trees, [0.5, 0.5])
        rng = np.random.default_rng(2)
        col = rng.normal(size=15)
        X = np.column_stack([col, col])
        bcol = rng.normal(size=7)
        bg = np.column_stack([bcol, bcol])
        for shap in (_oracle(model, X, bg), shap_values(model, X, bg)):
            assert np.max(np.abs(shap.values[:, 0] - shap.values[:, 1])) <= 1e-9
            report = importance(shap)
            assert abs(report.mean_abs[0] - report.mean_abs[1]) <= 1e-9

    def test_tree_mode_matches_exact_mode(self):
        model, X = _fitted(n=90, d=6, seed=23, iterations=100, depth=4)
        bg = sample_background(X, size=8, seed=9)
        rows = X[:12]
        tree = shap_values(model, rows, bg)
        exact = _oracle(model, rows, bg)
        assert np.allclose(tree.values, exact.values, rtol=0, atol=1e-6)
        assert tree.base_value == exact.base_value

    def test_additive_model_attributions(self):
        # F(x) = g0(x0) + g1(x1): phi_0 is g0(x0) minus its background mean
        trees = [_stump(0, 0.0, -1.0, 1.0), _stump(1, 0.5, 0.0, 3.0)]
        gammas = [2.0, 1.0]
        model = _model(trees, gammas)
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 2))
        bg = rng.normal(size=(9, 2))

        def g0(v):
            return 2.0 * np.where(v <= 0.0, -1.0, 1.0)

        def g1(v):
            return 1.0 * np.where(v <= 0.5, 0.0, 3.0)

        for shap in (_oracle(model, X, bg), shap_values(model, X, bg)):
            want0 = g0(X[:, 0]) - g0(bg[:, 0]).mean()
            want1 = g1(X[:, 1]) - g1(bg[:, 1]).mean()
            assert np.allclose(shap.values[:, 0], want0, rtol=0, atol=1e-12)
            assert np.allclose(shap.values[:, 1], want1, rtol=0, atol=1e-12)

    def test_base_value_is_mean_background_prediction(self):
        model = _model([_stump(0, 0.0, -1.0, 1.0)], [1.0], f0=2.0)
        rng = np.random.default_rng(6)
        bg = rng.normal(size=(11, 2))
        shap = shap_values(model, np.zeros((1, 2)), bg)
        assert shap.base_value == float(predict(model, bg).mean())


class TestLeafPaths:
    def test_contradictory_branch_is_pruned(self):
        # outer split x0 <= 2; inner right branch needs x0 > 5: impossible
        tree = {"feature": 0, "threshold": 2.0,
                "left": {"feature": 0, "threshold": 5.0,
                         "left": {"value": 1.0}, "right": {"value": 99.0}},
                "right": {"value": -1.0}}
        leaves = explain._leaf_paths(tree)
        values = sorted(v for v, _ in leaves)
        assert values == [-1.0, 1.0]
        # and the two routes agree on the model built from this tree
        model = _model([tree], [1.0])
        rng = np.random.default_rng(8)
        X = rng.uniform(-4, 8, size=(10, 2))
        bg = rng.uniform(-4, 8, size=(5, 2))
        tree_shap = shap_values(model, X, bg)
        exact_shap = _oracle(model, X, bg)
        assert np.allclose(tree_shap.values, exact_shap.values,
                           rtol=0, atol=1e-12)

    def test_intervals_intersect_along_path(self):
        # x0 <= 4 then x0 <= 1 narrows to (-inf, 1]; the middle leaf gets
        # (1, 4] and the right leaf (4, inf)
        tree = {"feature": 0, "threshold": 4.0,
                "left": {"feature": 0, "threshold": 1.0,
                         "left": {"value": 10.0}, "right": {"value": 20.0}},
                "right": {"value": 30.0}}
        leaves = {v: cons for v, cons in explain._leaf_paths(tree)}
        assert leaves[10.0][0] == (-math.inf, 1.0)
        assert leaves[20.0][0] == (1.0, 4.0)
        assert leaves[30.0][0] == (4.0, math.inf)


@st.composite
def _ensemble_cases(draw):
    """A hand-built ensemble over 1-5 features: trees of depth at most 3 with
    integer thresholds, features free to repeat along a path, zero leaves and
    zero gammas, and explained and background rows on the same integer grid,
    so that rows sit exactly on thresholds."""
    d = draw(st.integers(1, 5))
    grid = st.integers(-3, 3).map(float)

    def grow(depth):
        if depth == 0 or draw(st.booleans()):
            return {"value": draw(st.just(0.0) | st.floats(-2.0, 2.0))}
        return {"feature": draw(st.integers(0, d - 1)), "threshold": draw(grid),
                "left": grow(depth - 1), "right": grow(depth - 1)}

    trees = [grow(draw(st.integers(0, 3))) for _ in range(draw(st.integers(1, 6)))]
    gammas = [draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])) for _ in trees]
    model = _model(trees, gammas, f0=draw(st.floats(-1.0, 1.0)),
                   names=[f"x{j}" for j in range(d)])

    def rows(most):
        return np.array(draw(st.lists(st.lists(grid, min_size=d, max_size=d),
                                      min_size=1, max_size=most)))

    return model, rows(8), rows(5)


class TestTreeMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=_ensemble_cases())
    def test_random_ensembles(self, case):
        model, X, bg = case
        shap = shap_values(model, X, bg)
        assert np.max(np.abs(shap.values - _shap_exact(model, X, bg))) <= 1e-12
        recon = shap.base_value + shap.values.sum(axis=1)
        assert np.max(np.abs(recon - predict(model, X))) <= 1e-12


def _complete_tree(order, thresholds, values):
    """A complete tree that splits on ``order[k]`` at depth k, taking node
    thresholds and leaf values from the two iterators in depth-first order."""
    if not order:
        return {"value": next(values)}
    return {"feature": order[0], "threshold": next(thresholds),
            "left": _complete_tree(order[1:], thresholds, values),
            "right": _complete_tree(order[1:], thresholds, values)}


class TestWidePatternTables:
    """Every leaf of a complete tree over p distinct features constrains all
    p of them, so these trees reach the (2^p, p) pattern tables with p from
    4 to 7, which the depth-3 ensembles above never build."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("p", [4, 5, 6, 7])
    def test_matches_oracle(self, p, seed):
        rng = np.random.default_rng(100 * p + seed)
        d = p + 1                       # one feature no tree splits on
        order = [int(j) for j in rng.permutation(d)[:p]]
        big = _complete_tree(order, iter(rng.integers(-2, 3, size=2**p).astype(float)),
                             iter(rng.uniform(-2, 2, size=2**p)))
        # a second tree splits on one feature twice along each path
        small = _complete_tree([order[0], order[1], order[0], order[2]],
                               iter(rng.integers(-2, 3, size=15).astype(float)),
                               iter(rng.uniform(-2, 2, size=16)))
        model = _model([big, small], [0.7, 0.3], f0=0.25,
                       names=[f"x{j}" for j in range(d)])
        X = rng.integers(-3, 4, size=(9, d)).astype(float)
        bg = rng.integers(-3, 4, size=(7, d)).astype(float)
        assert {len(cons) for _, cons in explain._leaf_paths(big)} == {p}
        shap = shap_values(model, X, bg)
        assert np.max(np.abs(shap.values - _shap_exact(model, X, bg))) <= 1e-12
        assert shap.leaf_boxes == 2**p + len(explain._leaf_paths(small))


class TestImportance:
    def test_mean_abs_and_shares(self):
        values = np.array([[1.0, -3.0, 0.0], [-1.0, 1.0, 0.0]])
        shap = ShapMatrix(values=values, base_value=0.0,
                          feature_names=["a", "b", "c"], n_background=4)
        report = importance(shap)
        assert np.allclose(report.mean_abs, [1.0, 2.0, 0.0], rtol=0, atol=0)
        assert np.allclose(report.share_percent, [100 / 3, 200 / 3, 0.0],
                           rtol=1e-12, atol=0)
        assert abs(report.share_percent.sum() - 100.0) <= 1e-6

    def test_never_split_feature_has_zero_share(self):
        model, X = _fitted(n=60, d=3, seed=3)
        X5 = np.column_stack([X, np.zeros(len(X))])
        names = model.feature_names + ["inert"]
        wide = _model(model.trees, model.gammas, f0=model.f0, names=names)
        bg = sample_background(X5, size=12, seed=0)
        shap = shap_values(wide, X5[:20], bg)
        report = importance(shap)
        assert report.mean_abs[3] == 0.0
        assert report.share_percent[3] == 0.0
        assert abs(report.share_percent.sum() - 100.0) <= 1e-6

    def test_all_zero_attributions_degenerate(self):
        shap = ShapMatrix(values=np.zeros((4, 2)), base_value=1.0,
                          feature_names=["a", "b"], n_background=1)
        report = importance(shap)
        assert np.all(report.share_percent == 0.0)
        assert not np.any(np.isnan(report.share_percent))

    def test_top_order_descending_with_stable_ties(self):
        report = ImportanceReport(feature_names=list("abcd"),
                                  mean_abs=np.array([1.0, 3.0, 3.0, 0.5]),
                                  share_percent=np.zeros(4))
        assert top_order(report) == [1, 2, 0, 3]
        assert top_order(report, k=2) == [1, 2]

    def test_empty_matrix_importance(self):
        shap = ShapMatrix(values=np.zeros((0, 3)), base_value=0.0,
                          feature_names=["a", "b", "c"], n_background=1)
        report = importance(shap)
        assert np.all(report.mean_abs == 0.0)
        assert not np.any(np.isnan(report.share_percent))


class TestPdp:
    def test_grid_has_101_points_by_default(self):
        model, X = _fitted(n=40, d=3, seed=1)
        curve = pdp(model, X, 0)
        assert len(curve.grid) == 101
        assert len(curve.values) == 101
        assert curve.grid[0] == X[:, 0].min()
        assert curve.grid[-1] == X[:, 0].max()
        steps = np.diff(curve.grid)
        assert np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12)

    def test_ignored_feature_curve_is_flat(self):
        trees = [_stump(0, 0.0, -1.0, 2.0)]
        model = _model(trees, [1.0], names=["x0", "x1"])
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 2))
        curve = pdp(model, X, "x1")
        assert float(np.var(curve.values)) < 1e-12

    def test_single_feature_model_equals_response(self):
        trees = [_stump(0, 0.0, -1.0, 2.0), _stump(0, 1.0, 0.5, -0.5)]
        model = _model(trees, [1.0, 0.8], f0=0.3)
        rng = np.random.default_rng(9)
        X = np.column_stack([rng.uniform(-2, 2, 25), rng.normal(size=25)])
        curve = pdp(model, X, 0)
        direct = predict(model, np.column_stack([curve.grid,
                                                 np.zeros(len(curve.grid))]))
        assert np.allclose(curve.values, direct, rtol=0, atol=1e-9)

    def test_five_row_hand_average_at_three_grid_points(self):
        # F = stump(x0 at 0.5: -1/+1) + stump(x1 at 2: 10/20)
        # x1 column (0,1,2,3,4): mean of g1 over rows = (10*3 + 20*2)/5 = 14
        # x0 column spans [0, 1]; n_grid=2 puts the grid at 0, 0.5, 1
        #   g=0   -> -1 + 14 = 13
        #   g=0.5 -> -1 + 14 = 13   (0.5 goes left: split is x <= 0.5)
        #   g=1   -> +1 + 14 = 15
        trees = [_stump(0, 0.5, -1.0, 1.0), _stump(1, 2.0, 10.0, 20.0)]
        model = _model(trees, [1.0, 1.0])
        X = np.column_stack([[0.0, 0.25, 0.5, 0.75, 1.0],
                             [0.0, 1.0, 2.0, 3.0, 4.0]])
        curve = pdp(model, X, 0, n_grid=2)
        assert np.allclose(curve.grid, [0.0, 0.5, 1.0], rtol=0, atol=0)
        assert np.allclose(curve.values, [13.0, 13.0, 15.0], rtol=0, atol=1e-12)

    def test_density_flag_uses_95th_percentile(self):
        # column (0,1,2,3,100): the linearly interpolated 95th percentile is
        # 3 + 0.8 * 97 = 80.6, so grid values of 90 and 100 are sparse
        trees = [_stump(0, 50.0, 0.0, 1.0)]
        model = _model(trees, [1.0])
        X = np.column_stack([[0.0, 1.0, 2.0, 3.0, 100.0], np.zeros(5)])
        curve = pdp(model, X, 0, n_grid=10)
        assert curve.cutoff == pytest.approx(80.6, rel=1e-9)
        assert np.array_equal(curve.dense,
                              np.array([True] * 9 + [False] * 2))

    def test_pdp_shap_coherence_on_additive_model(self):
        # with background == X, the centered per-sample dependence values
        # equal the attributions for each feature of an additive model
        trees = [_stump(0, 0.0, -1.0, 1.0), _stump(1, 0.5, 0.0, 3.0)]
        model = _model(trees, [2.0, 1.0], f0=0.7)
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 2))
        shap = shap_values(model, X, X)
        for j in range(2):
            dep = np.empty(len(X))
            for i in range(len(X)):
                pinned = X.copy()
                pinned[:, j] = X[i, j]
                dep[i] = predict(model, pinned).mean()
            centered = dep - dep.mean()
            assert np.allclose(centered, shap.values[:, j], rtol=0, atol=1e-6)

    def test_pdp_matches_direct_column_pinning(self):
        model, X = _fitted(n=50, d=3, seed=17)
        curve = pdp(model, X, 1, n_grid=7)
        for g, value in zip(curve.grid, curve.values):
            pinned = X.copy()
            pinned[:, 1] = g
            assert value == pytest.approx(float(predict(model, pinned).mean()),
                                          rel=1e-12)

    def test_pdp_errors(self):
        model = _model([_stump(0, 0.0, -1.0, 1.0)], [1.0])
        X = np.zeros((3, 2))
        with pytest.raises(ValueError, match="at least one row"):
            pdp(model, np.zeros((0, 2)), 0)
        with pytest.raises(ValueError, match="unknown feature"):
            pdp(model, X, "nope")
        with pytest.raises(ValueError, match="out of range"):
            pdp(model, X, 5)
        with pytest.raises(ValueError, match="n_grid"):
            pdp(model, X, 0, n_grid=0)


def _tiled_pdp(model, X, j, n_grid):
    """Brute-force partial dependence: the whole sweep through ``predict``."""
    grid = np.linspace(X[:, j].min(), X[:, j].max(), n_grid + 1)
    swept = np.tile(X, (len(grid), 1))
    swept[:, j] = np.repeat(grid, len(X))
    return predict(model, swept).reshape(len(grid), len(X)).mean(axis=1)


@st.composite
def _pdp_cases(draw):
    """A small seeded fit over an integer column whose grid points land on
    split thresholds, a constant column and a float column, with one tree's
    gamma zeroed on request."""
    seed = draw(st.integers(0, 2**16))
    n_grid = draw(st.sampled_from([1, 2, 7]))
    n = draw(st.integers(40, 80))
    rng = np.random.default_rng(seed)
    span = n_grid * draw(st.integers(1, 2))
    ints = rng.integers(0, span + 1, size=n).astype(float)
    ints[:2] = (0.0, float(span))
    X = np.column_stack([ints, np.full(n, draw(st.sampled_from([-1.5, 0.0, 3.0]))),
                         rng.normal(size=n)])
    y = X[:, 0] + np.sin(2 * X[:, 2]) + 0.1 * rng.normal(size=n)
    params = BoostParams(iterations=100, learning_rate=0.1,
                         depth=draw(st.integers(1, 3)), ordered_segments=2,
                         seed=seed)
    model = fit(X, y, params, feature_names=["ints", "const", "floats"])
    zeroed = draw(st.none() | st.integers(0, len(model.trees) - 1))
    if zeroed is not None:
        model.gammas[zeroed] = 0.0
    return model, X, draw(st.integers(0, 2)), n_grid


class TestPdpOracle:
    @settings(max_examples=40, deadline=None)
    @given(case=_pdp_cases())
    def test_bit_equal_to_tiled_predict(self, case):
        model, X, j, n_grid = case
        curve = pdp(model, X, j, n_grid=n_grid)
        assert np.array_equal(curve.values, _tiled_pdp(model, X, j, n_grid))

    @settings(max_examples=25, deadline=None)
    @given(case=_pdp_cases())
    def test_all_curves_at_once_bit_equal(self, case):
        # one call shares each tree's masks across every feature's curve
        model, X, _, n_grid = case
        curves = pdp_curves(model, X, list(range(X.shape[1])), n_grid)
        assert [c.feature for c in curves] == model.feature_names
        for j, curve in enumerate(curves):
            assert np.array_equal(curve.values, _tiled_pdp(model, X, j, n_grid))
            assert curve.tree_rows == pdp(model, X, j, n_grid).tree_rows

    def test_non_finite_rows_rejected(self):
        # no leaf box holds NaN or -inf, so neither route accepts them
        model = _model([_stump(0, 0.0, -1.0, 1.0)], [1.0])
        for bad in (math.nan, -math.inf, math.inf):
            X = np.array([[0.5, 1.0], [bad, 2.0]])
            with pytest.raises(ValueError, match="finite"):
                pdp_curves(model, X, [1])
            with pytest.raises(ValueError, match="finite"):
                shap_values(model, X[:1], X)

    def test_grid_points_on_thresholds_and_zero_gamma(self):
        # stumps on x0 at 1 and 2 with the grid at 0, 1, 2, 3: the points on
        # a threshold go left, and the zero-gamma tree (which would add 100)
        # is skipped as in predict
        trees = [_stump(0, 1.0, -1.0, 1.0), _stump(0, 2.0, 0.5, 2.5),
                 _stump(0, 1.0, 100.0, 100.0), _stump(1, 0.0, 0.25, 4.0)]
        model = _model(trees, [1.0, 0.5, 0.0, 1.0], f0=0.1)
        X = np.column_stack([[0.0, 1.0, 3.0, 2.0], [-1.0, 1.0, 1.0, 1.0]])
        curve = pdp(model, X, 0, n_grid=3)
        assert np.array_equal(curve.grid, [0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(curve.values, _tiled_pdp(model, X, 0, 3))
        # f0 plus the x1 stump's mean, (0.25 + 3 * 4) / 4, is 3.1625
        assert np.allclose(curve.values, [3.1625 - 1 + 0.25, 3.1625 - 1 + 0.25,
                                          3.1625 + 1 + 0.25, 3.1625 + 1 + 1.25])
        # three trees with nonzero gamma; grid points fall in two intervals
        # of each stump on x0 and in one of the x1 stump
        assert curve.tree_rows == (2 + 2 + 1) * len(X)


class TestPdpMemory:
    """Curves are summed tree by tree: ``pdp_curves`` holds at most one
    (grid, rows) sum per curve, whatever the number of trees."""

    @staticmethod
    def _peak(model, X):
        tracemalloc.start()
        try:
            curves = pdp_curves(model, X, range(X.shape[1]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(curves) == X.shape[1]
        return peak

    def test_peak_does_not_grow_with_the_tree_count(self):
        peaks = {}
        for iterations in (100, 400):
            model, X = _fitted(n=300, d=8, seed=3, iterations=iterations, depth=6)
            pdp_curves(model, X[:5], [0], n_grid=2)  # first-call allocations
            peaks[iterations] = self._peak(model, X)
        assert peaks[400] <= 1.25 * peaks[100], peaks


class TestBackground:
    def test_small_matrix_returned_whole(self):
        X = np.arange(12.0).reshape(4, 3)
        bg = sample_background(X, size=10, seed=0)
        assert np.array_equal(bg, X)
        assert bg is not X

    def test_sampling_is_seeded_and_sorted(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 2))
        a = sample_background(X, size=10, seed=4)
        b = sample_background(X, size=10, seed=4)
        c = sample_background(X, size=10, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert len(a) == 10
        # every sampled row exists in X, in original order
        positions = [int(np.where((X == row).all(axis=1))[0][0]) for row in a]
        assert positions == sorted(positions)

    def test_size_validated(self):
        with pytest.raises(ValueError, match="size"):
            sample_background(np.zeros((3, 2)), size=0)


class TestRanksAndCsv:
    def test_value_ranks_stable_ties(self):
        X = np.array([[3.0], [1.0], [3.0], [0.0]])
        ranks = value_ranks(X)
        assert ranks[:, 0].tolist() == [2, 1, 3, 0]

    def test_beeswarm_csv_layout(self, tmp_path):
        shap = ShapMatrix(values=np.array([[0.5, -1.5], [2.5, 0.0]]),
                          base_value=1.0, feature_names=["a", "b"],
                          n_background=3)
        X = np.array([[10.0, 5.0], [7.0, 6.0]])
        path = tmp_path / "shap.csv"
        explain.write_beeswarm_csv(shap, X, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "feature,shap_value,feature_value_rank"
        assert len(lines) == 1 + 4
        assert lines[1] == "a,0.5,1"      # x=10 ranks above x=7
        assert lines[2] == "a,2.5,0"
        assert lines[3] == "b,-1.5,0"
        assert lines[4] == "b,0.0,1"

    def test_importance_csv(self, tmp_path):
        report = ImportanceReport(feature_names=["a", "b"],
                                  mean_abs=np.array([2.0, 6.0]),
                                  share_percent=np.array([25.0, 75.0]))
        path = tmp_path / "importance.csv"
        explain.write_importance_csv(report, path)
        lines = path.read_text().strip().split("\n")
        assert lines == ["feature,mean_abs_shap,share_percent",
                         "a,2.0,25.0", "b,6.0,75.0"]

    def test_pdp_csv(self, tmp_path):
        curve = PdpCurve(feature="a", grid=np.array([0.0, 1.0]),
                         values=np.array([2.0, 3.0]),
                         dense=np.array([True, False]), cutoff=0.5)
        path = tmp_path / "pdp.csv"
        explain.write_pdp_csv([curve], path)
        lines = path.read_text().strip().split("\n")
        assert lines == ["feature,grid_value,pdp_value,dense",
                         "a,0.0,2.0,true", "a,1.0,3.0,false"]


class TestExportPlots:
    def _shap_and_curves(self, d=12, n=30, seed=0):
        rng = np.random.default_rng(seed)
        names = [f"f{j:02d}" for j in range(d)]
        # one stump per feature with geometrically decaying weight, so the
        # importance ranking is f00 > f01 > ... deterministically
        trees = [_stump(j, 0.0, -1.0, 1.0) for j in range(d)]
        gammas = [2.0 * 0.7 ** j for j in range(d)]
        model = _model(trees, gammas, names=names)
        X = rng.normal(size=(n, d))
        bg = rng.normal(size=(8, d))
        shap = shap_values(model, X, bg)
        curves = [pdp(model, X, j, n_grid=10)
                  for j in top_order(importance(shap), 10)]
        return shap, X, curves

    def test_files_written_and_valid(self, tmp_path):
        shap, X, curves = self._shap_and_curves()
        paths = export_plots(tmp_path, shap, X, curves, seed=7)
        assert len(paths) == 6
        for path in paths:
            text = open(path).read()
            assert text
            if path.endswith(".svg"):
                assert text.startswith("<svg")
                assert 'width="800" height="600"' in text

    def test_top_ten_truncation(self, tmp_path):
        shap, X, curves = self._shap_and_curves(d=12)
        export_plots(tmp_path, shap, X, curves, seed=7)
        swarm = (tmp_path / "beeswarm.svg").read_text()
        bars = (tmp_path / "importance.svg").read_text()
        for j in range(10):
            assert f"f{j:02d}" in swarm
            assert f"f{j:02d}" in bars
        for j in (10, 11):
            assert f"f{j:02d}" not in swarm
            assert f"f{j:02d}" not in bars
        # the full csv keeps every feature
        shap_csv = (tmp_path / "shap.csv").read_text()
        assert "f11" in shap_csv

    def test_byte_identical_rerender(self, tmp_path):
        shap, X, curves = self._shap_and_curves(seed=2)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        export_plots(dir_a, shap, X, curves, seed=3)
        export_plots(dir_b, shap, X, curves, seed=3)
        for name in ("shap.csv", "importance.csv", "pdp.csv",
                     "beeswarm.svg", "importance.svg", "pdp.svg"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_jitter_seed_changes_layout_only(self, tmp_path):
        shap, X, curves = self._shap_and_curves(seed=2)
        export_plots(tmp_path / "a", shap, X, curves, seed=3)
        export_plots(tmp_path / "b", shap, X, curves, seed=4)
        assert ((tmp_path / "a" / "beeswarm.svg").read_bytes()
                != (tmp_path / "b" / "beeswarm.svg").read_bytes())
        assert ((tmp_path / "a" / "shap.csv").read_bytes()
                == (tmp_path / "b" / "shap.csv").read_bytes())

    def test_empty_matrix_still_succeeds(self, tmp_path):
        model = _model([_stump(0, 0.0, -1.0, 1.0)], [1.0])
        bg = np.zeros((2, 2))
        shap = shap_values(model, np.zeros((0, 2)), bg)
        assert shap.values.shape == (0, 2)
        paths = export_plots(tmp_path, shap, np.zeros((0, 2)), [], seed=0)
        for path in paths:
            text = open(path).read()
            assert text
            if path.endswith(".svg"):
                assert "no data" in text
        assert (tmp_path / "shap.csv").read_text().strip() == \
            "feature,shap_value,feature_value_rank"


class TestEndToEnd:
    def test_fitted_model_full_explain_cycle(self, tmp_path):
        model, X = _fitted(n=100, d=5, seed=31)
        bg = sample_background(X, size=25, seed=0)
        shap = shap_values(model, X, bg)
        report = importance(shap)
        assert abs(report.share_percent.sum() - 100.0) <= 1e-6
        curves = [pdp(model, X, j) for j in top_order(report, 10)]
        assert len(curves) == 5
        paths = export_plots(tmp_path, shap, X, curves, seed=1)
        assert all(open(p).read() for p in paths)


class TestGoldenExplain:
    def test_golden_explain_digest(self, tmp_path):
        # A seeded fit on fixed data, explained in tree mode over a 100-row
        # background; the digest pins every byte of the six exported files.
        # Column x2 holds small integers, so PDP grid points land on split
        # thresholds and many rows tie.
        rng = np.random.default_rng(2025)
        n, d = 160, 6
        X = rng.normal(size=(n, d))
        X[:, 2] = rng.integers(0, 6, size=n)
        y = (np.sin(X[:, 0]) + 0.4 * X[:, 1] * X[:, 2] + (X[:, 3] > 0.2)
             + 0.1 * rng.normal(size=n))
        params = BoostParams(iterations=100, learning_rate=0.1, depth=4,
                             ordered_segments=2, seed=5)
        model = fit(X, y, params, feature_names=[f"x{j}" for j in range(d)])
        bg = sample_background(X, size=100, seed=0)
        shap = shap_values(model, X, bg)
        curves = [pdp(model, X, j) for j in range(d)]
        paths = export_plots(tmp_path, shap, X, curves, seed=0)
        lines = [f"{Path(p).name} {hashlib.sha256(Path(p).read_bytes()).hexdigest()}"
                 for p in paths]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "ad99eb20f550537b58ce0f10c13541facc0c2bbb267ee70590e368cc75f6dcd9"
