"""Tests for the boosted-tree regressor, spatial folds, and random search."""

import csv
import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridelink.boost import (
    PARAM_RANGES,
    TRIAL_COLUMNS,
    BoostParams,
    ParamSpace,
    _best_split,
    _fit_core,
    _fit_leaves,
    _grow,
    _partition,
    _segment_permutation,
    _tree_predict,
    cross_validate,
    evaluate,
    evaluate_model,
    fit,
    load_model,
    model_from_json,
    model_to_json,
    predict,
    random_search,
    save_model,
    spatial_kfold,
    write_trial_log,
)


def _blob(n, d, seed, noise=0.3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    coef = rng.normal(size=d)
    y = X @ coef + noise * rng.normal(size=n)
    return X, y


class TestParams:
    @pytest.mark.parametrize("field,value", [
        ("iterations", 50), ("iterations", 1500),
        ("learning_rate", 0.0005), ("learning_rate", 0.5),
        ("depth", 0), ("depth", 11),
        ("bagging_temperature", -0.1), ("bagging_temperature", 1.5),
        ("random_strength", -0.2), ("random_strength", 2.0),
        ("column_sample_ratio", 0.01), ("column_sample_ratio", 1.2),
        ("min_data_in_leaf", 5), ("min_data_in_leaf", 200),
        ("ordered_segments", 0), ("ordered_segments", 11),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError):
            BoostParams(**{field: value})

    def test_defaults_valid(self):
        p = BoostParams()
        assert p.ordered_segments == 4


class TestSegmentation:
    def test_geometric_sizes(self):
        perm = np.random.default_rng(0).permutation(150)
        segments = _segment_permutation(perm, 4)
        assert [len(s) for s in segments] == [10, 20, 40, 80]
        assert np.array_equal(np.concatenate(segments), perm)

    def test_single_segment_passthrough(self):
        perm = np.arange(30)
        segments = _segment_permutation(perm, 1)
        assert len(segments) == 1
        assert np.array_equal(segments[0], perm)

    def test_too_few_rows(self):
        X, y = _blob(20, 2, 0)
        with pytest.raises(ValueError, match="too few rows for ordered_segments"):
            fit(X, y, BoostParams(ordered_segments=10))


class TestFitBasics:
    def test_constant_target_zero_trees(self):
        X = np.random.default_rng(1).normal(size=(40, 3))
        y = np.full(40, 0.3)
        model = fit(X, y, BoostParams(iterations=100))
        assert model.trees == []
        assert model.f0 == 0.3
        assert np.all(predict(model, X) == 0.3)

    @pytest.mark.parametrize("seed", [1, 7, 99])
    def test_step_target_converges(self, seed):
        rng = np.random.default_rng(0)
        n = 200
        X = np.sort(rng.uniform(0, 1, size=(n, 1)), axis=0)
        y = (X[:, 0] > X[n // 2, 0]).astype(float)
        params = BoostParams(iterations=400, learning_rate=0.1, depth=1,
                             min_data_in_leaf=10, seed=seed)
        model = fit(X, y, params)
        mse = float(((predict(model, X) - y) ** 2).mean())
        assert mse < 1e-3 * y.var()

    @pytest.mark.parametrize("seed", range(4))
    def test_training_loss_never_worse_than_mean(self, seed):
        X, y = _blob(80, 5, 40 + seed, noise=1.0)
        params = BoostParams(iterations=150, learning_rate=0.05, depth=4,
                             min_data_in_leaf=10, bagging_temperature=0.7,
                             random_strength=0.5, column_sample_ratio=0.6, seed=seed)
        model = fit(X, y, params)
        mse = float(((predict(model, X) - y) ** 2).mean())
        assert mse <= y.var() + 1e-12

    def test_shrinkage_toward_base(self):
        X, y = _blob(60, 3, 2, noise=1.0)
        f0 = y.mean()
        devs = []
        for lr in (0.1, 0.01, 0.001):
            params = BoostParams(iterations=100, learning_rate=lr, depth=3,
                                 min_data_in_leaf=10, seed=2)
            devs.append(float(np.max(np.abs(predict(fit(X, y, params), X) - f0))))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] <= 0.2 * float(np.max(np.abs(y - f0)))

    def test_input_validation(self):
        X, y = _blob(30, 2, 3)
        with pytest.raises(ValueError, match="too few rows"):
            fit(X[:15], y[:15], BoostParams(min_data_in_leaf=10))
        bad = X.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="missing values"):
            fit(bad, y, BoostParams())
        with pytest.raises(ValueError, match="feature_names"):
            fit(X, y, BoostParams(), feature_names=["only_one"])

    def test_min_data_in_leaf_honored(self):
        X, y = _blob(60, 4, 5, noise=0.5)
        params = BoostParams(iterations=100, depth=5, min_data_in_leaf=12, seed=3)
        model = fit(X, y, params)

        def leaf_counts(node, rows):
            if "value" in node:
                yield len(rows)
                return
            mask = X[rows, node["feature"]] <= node["threshold"]
            yield from leaf_counts(node["left"], rows[mask])
            yield from leaf_counts(node["right"], rows[~mask])

        every = np.arange(60)
        for tree in model.trees:
            for count in leaf_counts(tree, every):
                assert count >= 12

    def test_ordered_and_plain_modes_differ(self):
        X, y = _blob(80, 3, 6, noise=1.0)
        ordered = fit(X, y, BoostParams(iterations=100, depth=2, seed=4,
                                        ordered_segments=4))
        plain = fit(X, y, BoostParams(iterations=100, depth=2, seed=4,
                                      ordered_segments=1))
        assert not np.array_equal(predict(ordered, X), predict(plain, X))


class TestPredict:
    def test_manual_traversal_oracle(self):
        X, y = _blob(60, 4, 7)
        model = fit(X, y, BoostParams(iterations=100, depth=3, seed=8))

        def walk(node, x):
            while "value" not in node:
                node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
            return node["value"]

        got = predict(model, X)
        for i in range(len(X)):
            manual = model.f0
            for tree, gamma in zip(model.trees, model.gammas):
                if gamma != 0.0:
                    manual += gamma * walk(tree, X[i])
            assert got[i] == manual

    def test_schema_remap(self):
        X, y = _blob(50, 3, 9)
        names = ["alpha", "beta", "gamma"]
        model = fit(X, y, BoostParams(iterations=100, depth=2, seed=1), names)
        shuffled = ["gamma", "alpha", "beta"]
        Xs = X[:, [2, 0, 1]]
        assert np.array_equal(predict(model, Xs, shuffled), predict(model, X))
        with pytest.raises(ValueError, match="schema"):
            predict(model, X, ["a", "b", "c"])

    def test_single_row_shape(self):
        X, y = _blob(40, 2, 10)
        model = fit(X, y, BoostParams(iterations=100, depth=2, seed=0))
        single = predict(model, X[5])
        assert single.shape == (1,)
        assert single[0] == predict(model, X)[5]


class TestDeterminism:
    def test_bit_identical_refit(self):
        X, y = _blob(80, 5, 11, noise=0.8)
        params = BoostParams(iterations=120, learning_rate=0.08, depth=4,
                             bagging_temperature=0.7, random_strength=0.4,
                             column_sample_ratio=0.5, min_data_in_leaf=10, seed=21)
        a = model_to_json(fit(X, y, params))
        b = model_to_json(fit(X, y, params))
        assert a == b

    def test_save_load_roundtrip(self, tmp_path):
        X, y = _blob(50, 3, 12)
        model = fit(X, y, BoostParams(iterations=100, depth=3, seed=2))
        path = tmp_path / "model.json"
        save_model(model, str(path))
        back = load_model(str(path))
        assert model_to_json(back) == model_to_json(model)
        assert np.array_equal(predict(back, X), predict(model, X))

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            model_from_json(json.dumps({"format": "other"}))


def _replica_stump(X, g, rows, min_leaf):
    """Independent exact-greedy depth-1 builder following the documented scan:
    ascending features, ascending unique thresholds, strict improvement."""
    best = None
    for j in range(X.shape[1]):
        xs = X[rows, j]
        for v in np.unique(xs)[:-1]:
            left = rows[xs <= v]
            right = rows[xs > v]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            parent = g[rows]
            sse_p = float(((parent - parent.mean()) ** 2).sum())
            sse_l = float(((g[left] - g[left].mean()) ** 2).sum())
            sse_r = float(((g[right] - g[right].mean()) ** 2).sum())
            gain = sse_p - (sse_l + sse_r)
            if best is None or gain > best[0]:
                best = (gain, j, float(v))
    if best is None or best[0] <= 0.0:
        return None
    return best[1], best[2]


class TestOrderedTrace:
    """Replays three boosting iterations of a 10-row fit with an independent
    simulation of the documented algorithm: geometric segments, a prefix model
    supplying gradients for the trailing segment, structure from those
    gradients, leaf refit on deployed residuals, then the global line search."""

    def test_ten_row_hand_simulation(self):
        rng_data = np.random.default_rng(33)
        n = 10
        X = rng_data.normal(size=(n, 2))
        y = rng_data.normal(size=n)
        params = SimpleNamespace(iterations=3, learning_rate=0.1, depth=1,
                                 bagging_temperature=0.0, random_strength=0.0,
                                 column_sample_ratio=1.0, min_data_in_leaf=1,
                                 ordered_segments=2, seed=5)
        model = _fit_core(X, y, params, ["a", "b"], "y")

        rng = np.random.default_rng(5)
        f0 = float(y.mean())
        perm = rng.permutation(n)
        cut = round(n * 1 / 3)
        seg0, seg1 = perm[:cut], perm[cut:]
        prefix_rows = np.sort(seg0)
        prefix_pred = np.full(n, f0)
        main_pred = np.full(n, f0)
        structures, gammas = [], []
        for _ in range(3):
            g_pref = y - prefix_pred
            split = _replica_stump(X, g_pref, prefix_rows, 1)
            h = np.empty(n)
            if split is None:
                h[:] = g_pref[prefix_rows].mean()
            else:
                j, t = split
                mask_p = X[prefix_rows, j] <= t
                left_v = g_pref[prefix_rows[mask_p]].mean()
                right_v = g_pref[prefix_rows[~mask_p]].mean()
                h = np.where(X[:, j] <= t, left_v, right_v)
            denom = float(h[prefix_rows] @ h[prefix_rows])
            gamma_p = 0.1 * float(g_pref[prefix_rows] @ h[prefix_rows]) / denom if denom else 0.0
            prefix_pred = prefix_pred + gamma_p * h

            grad_base = np.full(n, f0)
            grad_base[seg1] = prefix_pred[seg1]
            g_main = y - grad_base
            split = _replica_stump(X, g_main, np.arange(n), 1)
            r = y - main_pred
            if split is None:
                h = np.full(n, r.mean())
                structures.append(None)
            else:
                j, t = split
                mask = X[:, j] <= t
                h = np.where(mask, r[mask].mean(), r[~mask].mean())
                structures.append((j, t))
            denom = float(h @ h)
            gamma = 0.1 * float(r @ h) / denom if denom else 0.0
            main_pred = main_pred + gamma * h
            gammas.append(gamma)

        assert [ (t["feature"], t["threshold"]) for t in model.trees ] == structures
        assert np.allclose(model.gammas, gammas, atol=1e-12)
        assert np.allclose(predict(model, X), main_pred, atol=1e-12)

class TestEvaluate:
    def test_perfect_predictions(self):
        y = np.array([1.0, 2.0, 3.0])
        rep = evaluate(y, y.copy())
        assert rep.r2 == 1.0 and rep.mae == 0.0 and rep.mse == 0.0 and rep.rmse == 0.0

    def test_predicting_mean_gives_zero_r2(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        rep = evaluate(y, np.full(4, y.mean()))
        assert rep.r2 == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_three_points(self):
        rep = evaluate(np.array([1.0, 2.0, 4.0]), np.array([1.0, 3.0, 3.0]))
        assert rep.mse == pytest.approx(2.0 / 3.0)
        assert rep.mae == pytest.approx(2.0 / 3.0)
        assert rep.rmse == pytest.approx(math.sqrt(2.0 / 3.0))
        assert rep.r2 == pytest.approx(1.0 - 2.0 / (42.0 / 9.0))

    def test_rmse_is_sqrt_mse(self):
        rng = np.random.default_rng(13)
        rep = evaluate(rng.normal(size=30), rng.normal(size=30))
        assert rep.rmse == pytest.approx(math.sqrt(rep.mse), rel=1e-15)

    def test_constant_target_edge(self):
        y = np.ones(5)
        assert evaluate(y, y).r2 == 1.0
        assert evaluate(y, y + 1.0).r2 == float("-inf")

    def test_model_wrapper(self):
        X = np.random.default_rng(14).normal(size=(40, 2))
        y = np.full(40, 1.5)
        model = fit(X, y, BoostParams())
        rep = evaluate_model(model, X, y)
        assert rep.r2 == 1.0 and rep.mse == 0.0


class TestSpatialKfold:
    def test_hundred_cells_five_folds(self):
        cells = [f"{q},{r}" for q in range(10) for r in range(10)]
        fold_of = spatial_kfold(cells, k=5)
        counts = np.bincount(fold_of, minlength=5)
        assert list(counts) == [20] * 5

    def test_every_cell_assigned_once(self):
        cells = [f"{q},{r}" for q in range(7) for r in range(6)]
        fold_of = spatial_kfold(cells, k=5)
        assert fold_of.shape == (42,)
        assert set(fold_of) == {0, 1, 2, 3, 4}

    def test_k_errors(self):
        cells = [f"{q},0" for q in range(4)]
        with pytest.raises(ValueError, match="k exceeds"):
            spatial_kfold(cells, k=5)
        with pytest.raises(ValueError, match="k must be"):
            spatial_kfold(cells, k=1)

    def test_folds_are_spatially_coherent(self):
        cells = [(q, r) for q in range(10) for r in range(10)]
        ids = [f"{q},{r}" for q, r in cells]
        fold_of = spatial_kfold(ids, k=5)
        assigned = dict(zip(cells, fold_of))
        axial_steps = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]

        def within_fraction(assignment):
            same = total = 0
            for (q, r), f in assignment.items():
                for dq, dr in axial_steps:
                    nb = (q + dq, r + dr)
                    if nb in assignment:
                        total += 1
                        same += assignment[nb] == f
            return same / total

        contiguous = within_fraction(assigned)
        rng = np.random.default_rng(15)
        shuffled = dict(zip(cells, rng.permutation(fold_of)))
        assert contiguous >= 0.5
        assert contiguous > within_fraction(shuffled)


class TestCrossValidate:
    def test_fold_reports_and_pooling(self):
        X, y = _blob(150, 3, 16, noise=0.5)
        cells = [f"{i % 15},{i // 15}" for i in range(150)]
        params = BoostParams(iterations=100, depth=2, min_data_in_leaf=10, seed=3)
        report = cross_validate(X, y, cells, params, k=5)
        assert len(report.folds) == 5
        for rep in report.folds:
            assert rep.rmse == pytest.approx(math.sqrt(rep.mse), rel=1e-15)
        # equal fold sizes: pooled MSE is the mean of fold MSEs
        assert report.pooled.mse == pytest.approx(
            np.mean([rep.mse for rep in report.folds]), rel=1e-12)

    def test_deterministic(self):
        X, y = _blob(100, 2, 17, noise=0.5)
        cells = [f"{i % 10},{i // 10}" for i in range(100)]
        params = BoostParams(iterations=100, depth=2, seed=5)
        a = cross_validate(X, y, cells, params, k=4)
        b = cross_validate(X, y, cells, params, k=4)
        assert a.pooled == b.pooled
        assert a.folds == b.folds


class TestRandomSearch:
    SPACE = ParamSpace(iterations=(100, 110), learning_rate=(0.01, 0.1),
                       depth=(1, 2), bagging_temperature=(0.0, 0.5),
                       random_strength=(0.0, 0.3), column_sample_ratio=(0.5, 1.0),
                       min_data_in_leaf=(10, 12), ordered_segments=1)

    def _data(self):
        X, y = _blob(60, 3, 18, noise=0.5)
        cells = [f"{i % 6},{i // 6}" for i in range(60)]
        return X, y, cells

    def test_containment_and_best(self):
        X, y, cells = self._data()
        best, log = random_search(X, y, cells, self.SPACE, trials=4, seed=42)
        assert len(log) == 4
        for trial in log:
            p = trial.params
            assert self.SPACE.iterations[0] <= p.iterations <= self.SPACE.iterations[1]
            assert self.SPACE.learning_rate[0] <= p.learning_rate <= self.SPACE.learning_rate[1]
            assert self.SPACE.depth[0] <= p.depth <= self.SPACE.depth[1]
            assert self.SPACE.min_data_in_leaf[0] <= p.min_data_in_leaf <= self.SPACE.min_data_in_leaf[1]
        assert best == min(log, key=lambda t: (t.cv_mse, t.index)).params
        assert min(t.cv_mse for t in log) == [t for t in log if t.params == best][0].cv_mse

    def test_single_trial_wins(self):
        X, y, cells = self._data()
        best, log = random_search(X, y, cells, self.SPACE, trials=1, seed=7)
        assert len(log) == 1
        assert best == log[0].params

    def test_trials_keep_their_cv_report(self):
        # the winner's report is reused by `train`, so it must be exactly
        # what a fresh cross-validation of its params gives
        X, y, cells = self._data()
        _, log = random_search(X, y, cells, self.SPACE, trials=2, seed=5, k=4)
        for trial in log:
            again = cross_validate(X, y, cells, trial.params, k=4)
            assert trial.cv == again
            assert (trial.cv_mse, trial.cv_r2) == (again.pooled.mse, again.pooled.r2)

    def test_space_validation(self):
        with pytest.raises(ValueError, match="inverted"):
            ParamSpace(depth=(5, 2))
        with pytest.raises(ValueError, match="inside"):
            ParamSpace(iterations=(50, 200))
        with pytest.raises(ValueError, match="inside"):
            ParamSpace(learning_rate=(0.01, 0.5))

    def test_trial_log_csv(self, tmp_path):
        X, y, cells = self._data()
        _, log = random_search(X, y, cells, self.SPACE, trials=2, seed=3)
        path = tmp_path / "trials.csv"
        write_trial_log(log, str(path))
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == TRIAL_COLUMNS
        assert len(rows) == 3
        assert [float(r[-2]) for r in rows[1:]] == [t.cv_mse for t in log]

    def test_zero_trials_rejected(self):
        X, y, cells = self._data()
        with pytest.raises(ValueError, match="trials"):
            random_search(X, y, cells, self.SPACE, trials=0, seed=1)


def _golden_data(kind: str):
    """Fixed training data. In ``integer`` data every column holds values
    0..3, so many rows share each candidate threshold, and the last column
    repeats the first, so equal gains fall to the lower feature index. In
    ``symmetric`` data the target marks the middle two of four equally common
    values of the first column, so its first split scores exactly the same at
    thresholds 0 and 2 and falls to the lower one."""
    rng = np.random.default_rng(404)
    n, d = 120, 5
    if kind == "normal":
        X = rng.normal(size=(n, d))
    else:
        X = rng.integers(0, 4, size=(n, d)).astype(float)
        X[:, 4] = X[:, 0]
    if kind == "symmetric":
        X[:, 0] = rng.permutation(np.repeat(np.arange(4.0), n // 4))
        return X, ((X[:, 0] == 1) | (X[:, 0] == 2)).astype(float)
    y = X[:, 0] - 0.5 * X[:, 1] * X[:, 2] + (X[:, 3] > 0.5) + 0.2 * rng.normal(size=n)
    return X, y


# case -> (data kind, params, sha256 of model_to_json)
GOLDEN_MODELS = {
    "random_strength": ("normal", BoostParams(
        iterations=100, learning_rate=0.1, depth=4, random_strength=0.7, seed=1),
        "8086aacadd379b32cfb3f0b4ff94d4b90c5ef31f422d4d00aae261b028948c14"),
    "bagging": ("normal", BoostParams(
        iterations=100, learning_rate=0.1, depth=4, bagging_temperature=0.9, seed=2),
        "2a4b3b91bb2ae5bcc04dce431d8a60f23f1ae4a4972b5feb3bedf769db935983"),
    "column_subset": ("normal", BoostParams(
        iterations=100, learning_rate=0.1, depth=4, column_sample_ratio=0.5, seed=3),
        "92a917260ee79e3d0536c7c5c3707626574de6474932aa64c2e5ab569a09f0e6"),
    "all_randomness": ("normal", BoostParams(
        iterations=100, learning_rate=0.1, depth=5, random_strength=0.4,
        bagging_temperature=0.5, column_sample_ratio=0.6, seed=4),
        "d78355dc98d9e12183ede0b4f8d89048e1f30dc9b11873ad84cd2f4c27976c5d"),
    "one_segment": ("normal", BoostParams(
        iterations=100, learning_rate=0.1, depth=4, ordered_segments=1, seed=5),
        "75c6e951d662206f21fc64f7bbe1e84a849dbae524a0e11f12b3c05f276f0a97"),
    "four_segments": ("normal", BoostParams(
        iterations=100, learning_rate=0.1, depth=4, ordered_segments=4, seed=6),
        "042ba0a7277d3bbb12cb320eefb3cd0688899582d393060c5f561ccd033a81a5"),
    "min_leaf_binds": ("normal", BoostParams(
        iterations=100, learning_rate=0.1, depth=6, min_data_in_leaf=25, seed=7),
        "1ddd107f85967558e79cda008561904d1a3e984503b04bedb8f0aa5f67e5b3cd"),
    "integer_ties": ("integer", BoostParams(
        iterations=100, learning_rate=0.1, depth=4, bagging_temperature=0.5, seed=8),
        "a30e4c88e3c9048f0a5fb5dacc9010a2c41cfd27104081c461c87aeaf06c6d7f"),
    "threshold_ties": ("symmetric", BoostParams(
        iterations=100, learning_rate=0.1, depth=3, ordered_segments=1, seed=9),
        "819777570480d67dbe974b00e182901d674637ed61c123292727f68ed935a22d"),
}


def _leaf_sizes(node, X, rows):
    if "value" in node:
        return [len(rows)]
    mask = X[rows, node["feature"]] <= node["threshold"]
    return _leaf_sizes(node["left"], X, rows[mask]) + _leaf_sizes(node["right"], X, rows[~mask])


class TestGoldenModels:
    """sha256 of ``model_to_json`` for seeded fits, pinned from the exact,
    per-column split search; a faster search must reproduce every byte."""

    @pytest.mark.parametrize("case", sorted(GOLDEN_MODELS))
    def test_golden_model_digest(self, case):
        kind, params, digest = GOLDEN_MODELS[case]
        X, y = _golden_data(kind)
        model = fit(X, y, params, feature_names=[f"x{j}" for j in range(X.shape[1])])
        assert hashlib.sha256(model_to_json(model).encode()).hexdigest() == digest

    def test_min_leaf_binds_in_its_case(self):
        # the main trees stop at leaves of exactly min_data_in_leaf rows,
        # well short of depth 6
        _, params, _ = GOLDEN_MODELS["min_leaf_binds"]
        X, y = _golden_data("normal")
        model = fit(X, y, params)
        sizes = [_leaf_sizes(tree, X, np.arange(len(X))) for tree in model.trees]
        assert min(min(s) for s in sizes) == params.min_data_in_leaf
        assert max(len(s) for s in sizes) <= len(X) // params.min_data_in_leaf

    def test_deep_partitions_digest(self):
        # depth 8 over 320 rows with bagging, noise and a column subset: most
        # trees reach full depth, so sorted views are partitioned 7 levels deep
        rng = np.random.default_rng(808)
        n = 320
        X = np.column_stack([rng.normal(size=n), rng.integers(0, 6, size=n),
                             rng.normal(size=n).round(1), rng.integers(0, 3, size=n),
                             rng.normal(size=n), rng.uniform(size=n)]).astype(float)
        y = (np.sin(2 * X[:, 0]) + X[:, 1] * X[:, 3] - X[:, 2] ** 2
             + 0.3 * rng.normal(size=n))
        params = BoostParams(iterations=100, learning_rate=0.1, depth=8,
                             random_strength=0.5, bagging_temperature=0.8,
                             column_sample_ratio=0.7, min_data_in_leaf=10, seed=11)
        model = fit(X, y, params, feature_names=[f"x{j}" for j in range(X.shape[1])])
        assert (hashlib.sha256(model_to_json(model).encode()).hexdigest()
                == "815256eccda39b8a28610a5fa406b150f96a417dd82c8a4848a0b6b8e5b5cb7d")

        def depth(node):
            return 0 if "value" in node else 1 + max(depth(node["left"]), depth(node["right"]))

        assert sum(depth(tree) == 8 for tree in model.trees) > 50


def _scan_split(X, g, w, rows, cols, min_leaf, noise_scale, rng):
    """The per-column split scan that the one-pass search replaced, kept as
    its oracle: each column is sorted on its own and scored in turn, noise is
    drawn per column, and only a strictly larger gain moves the pick."""
    best = None
    parent_w = w[rows]
    parent_g = g[rows]
    sw = parent_w.sum()
    swg = (parent_w * parent_g).sum()
    swgg = (parent_w * parent_g * parent_g).sum()
    parent_sse = swgg - swg * swg / sw
    for j in cols:
        xs = X[rows, j]
        order = np.argsort(xs, kind="stable")
        xs_s = xs[order]
        w_s = parent_w[order]
        g_s = parent_g[order]
        cw = np.cumsum(w_s)
        cwg = np.cumsum(w_s * g_s)
        cwgg = np.cumsum(w_s * g_s * g_s)
        boundary = np.nonzero(xs_s[:-1] != xs_s[1:])[0]
        if boundary.size == 0:
            continue
        left_n = boundary + 1
        right_n = len(rows) - left_n
        feasible = (left_n >= min_leaf) & (right_n >= min_leaf)
        boundary = boundary[feasible]
        if boundary.size == 0:
            continue
        lw, lg, lgg = cw[boundary], cwg[boundary], cwgg[boundary]
        rw, rg, rgg = sw - lw, swg - lg, swgg - lgg
        sse = (lgg - lg * lg / lw) + (rgg - rg * rg / rw)
        gains = parent_sse - sse
        if noise_scale > 0.0:
            gains = gains + rng.normal(size=gains.shape) * noise_scale
        pick = int(np.argmax(gains))
        gain = float(gains[pick])
        threshold = float(xs_s[boundary[pick]])
        if best is None or gain > best[0]:
            best = (gain, int(j), threshold)
    if best is None or best[0] <= 0.0:
        return None
    return best


def _node_view(X, rows, cols):
    """Each candidate column's rows sorted by a stable argsort of the node's
    own values, and those values: what a per-node sort gives."""
    orders = rows[np.argsort(X[np.ix_(rows, cols)], axis=0, kind="stable")].T
    return orders, X[orders, np.asarray(cols)[:, None]]


@st.composite
def _split_cases(draw):
    """A node of up to 40 rows: normal, tie-heavy integer, constant and
    repeated columns; integer or normal gradients; unit or bagging weights;
    an ascending row subset, a sorted column subset, and a min_leaf that
    often binds."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n = draw(st.integers(1, 40))
    kinds = draw(st.lists(st.sampled_from(["normal", "integer", "constant", "repeat"]),
                          min_size=1, max_size=5))
    rng = np.random.default_rng(seed)
    X = np.empty((n, len(kinds)))
    for j, kind in enumerate(kinds):
        if kind == "normal":
            X[:, j] = rng.normal(size=n)
        elif kind == "integer" or (kind == "repeat" and j == 0):
            X[:, j] = rng.integers(0, 3, size=n)
        elif kind == "constant":
            X[:, j] = 1.5
        else:
            X[:, j] = X[:, rng.integers(j)]
    if draw(st.booleans()):
        g = rng.integers(-2, 3, size=n).astype(float)
    else:
        g = rng.normal(size=n)
    w = np.ones(n)
    if draw(st.booleans()):
        w = (-np.log(np.clip(rng.random(n), 1e-16, None))) ** draw(st.floats(0.1, 1.0))
    rows = np.flatnonzero(rng.random(n) < draw(st.floats(0.3, 1.0)))
    if rows.size == 0:
        rows = np.arange(n)
    cols = np.flatnonzero(rng.random(len(kinds)) < draw(st.floats(0.3, 1.0)))
    if cols.size == 0:
        cols = np.arange(len(kinds))
    min_leaf = draw(st.integers(1, len(rows) // 2 + 2))
    noise_scale = draw(st.sampled_from([0.0, 0.0, 0.3, 2.0]))
    return X, g, w, rows, cols, min_leaf, noise_scale, seed


class TestSplitSearch:
    """The one-pass search over presorted views picks exactly what the
    per-column scan picks and leaves the random stream where it left it."""

    @settings(max_examples=400, deadline=None)
    @given(_split_cases())
    def test_matches_per_column_scan(self, case):
        X, g, w, rows, cols, min_leaf, noise_scale, seed = case
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _best_split(g, w, rows, *_node_view(X, rows, cols), cols, min_leaf,
                          noise_scale, ours)
        want = _scan_split(X, g, w, rows, cols, min_leaf, noise_scale, theirs)
        assert got == want
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_equal_gains_fall_to_the_lower_feature(self):
        X = np.repeat(np.arange(4.0), 5)[:, None].repeat(2, axis=1)
        g = (X[:, 0] >= 2).astype(float)
        rows, cols = np.arange(20), np.arange(2)
        rng = np.random.default_rng(0)
        found = _best_split(g, np.ones(20), rows, *_node_view(X, rows, cols), cols, 1,
                            0.0, rng)
        assert found == _scan_split(X, g, np.ones(20), rows, cols, 1, 0.0, rng)
        assert found[1:] == (0, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30), st.integers(1, 4))
    def test_partition_equals_a_fresh_sort(self, seed, n, d):
        # a presorted view filtered to any row subset, then split again by
        # any mask, is what a stable argsort of each subset gives
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 4, size=(n, d)).astype(float)
        orders = np.argsort(X, axis=0, kind="stable").T
        view = (orders, np.take_along_axis(X.T, orders, axis=1))
        rows = np.flatnonzero(rng.random(n) < 0.7)
        keep = np.zeros(n, dtype=bool)
        keep[rows] = True
        node = _partition(*view, keep[view[0]])
        cols = np.arange(d)
        assert all(np.array_equal(a, b) for a, b in zip(node, _node_view(X, rows, cols)))
        left = np.zeros(n, dtype=bool)
        left[rows[rng.random(len(rows)) < 0.5]] = True
        for side, child in ((left, rows[left[rows]]), (~left, rows[~left[rows]])):
            got = _partition(*node, side[node[0]])
            assert all(np.array_equal(a, b) for a, b in zip(got, _node_view(X, child, cols)))


def _refit_leaves(node: dict, X: np.ndarray, r: np.ndarray, w: np.ndarray,
                  rows: np.ndarray) -> None:
    """Replace each leaf's output with the weighted mean of the deployed
    model's residuals among the rows the leaf captures. The re-walk of each
    tree that leaf fitting from growth's own rows replaced, kept as its
    oracle."""
    if "value" in node:
        sw = float(w[rows].sum())
        if sw > 0.0:
            node["value"] = float((w[rows] * r[rows]).sum() / sw)
        return
    mask = X[rows, node["feature"]] <= node["threshold"]
    _refit_leaves(node["left"], X, r, w, rows[mask])
    _refit_leaves(node["right"], X, r, w, rows[~mask])


def _walk(tree, x):
    node = tree
    while "feature" in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node


def _with_zero_leaves(node):
    """A copy of a grown tree whose every leaf reads 0.0, the value growth gave
    a leaf whose rows weigh nothing."""
    if "feature" not in node:
        return {"value": 0.0}
    return {**node, "left": _with_zero_leaves(node["left"]),
            "right": _with_zero_leaves(node["right"])}


@st.composite
def _grow_cases(draw):
    """One tree as a fit grows it: tie-heavy integer columns (one repeated),
    the rows of a prefix model (``ordered_segments`` 4) or all rows (1), unit
    or bagging weights, integer or normal gradients scattered over those rows,
    and a leaf-fitting target that is that gradient or another array."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n = draw(st.integers(15, 60))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    X = rng.integers(0, draw(st.integers(2, 5)), size=(n, d)).astype(float)
    if d > 1 and draw(st.booleans()):
        X[:, -1] = X[:, 0]
    segments = _segment_permutation(rng.permutation(n), draw(st.sampled_from([1, 4])))
    if len(segments) == 1:
        rows = np.arange(n)
    else:
        rows = np.sort(np.concatenate(segments[:draw(st.integers(1, 3))]))
    w = np.ones(n)
    if draw(st.booleans()):
        w = (-np.log(np.clip(rng.random(n), 1e-16, None))) ** draw(st.floats(0.1, 1.0))
    g = np.zeros(n)
    if draw(st.booleans()):
        g[rows] = rng.integers(-2, 3, size=len(rows))
    else:
        g[rows] = rng.normal(size=len(rows))
    target = g if draw(st.booleans()) else rng.normal(size=n)
    cols = np.flatnonzero(rng.random(d) < 0.7)
    if cols.size == 0:
        cols = np.arange(d)
    depth = draw(st.integers(1, 5))
    min_leaf = draw(st.integers(1, 6))
    random_strength = draw(st.sampled_from([0.0, 0.0, 0.5]))
    return X, g, w, rows, cols, depth, min_leaf, random_strength, target, seed


class TestLeafRows:
    """Growth hands each leaf the rows a root-to-leaf walk sends there, and
    fitting leaves from those rows gives the bits of the tree re-walk."""

    @settings(max_examples=300, deadline=None)
    @given(_grow_cases())
    def test_leaf_rows_match_the_tree_walk(self, case):
        X, g, w, rows, cols, depth, min_leaf, random_strength, target, seed = case
        orders = np.argsort(X, axis=0, kind="stable").T
        view = _partition(orders, np.take_along_axis(X.T, orders, axis=1),
                          np.isin(orders, rows))
        tree, leaves = _grow(X, g, w, rows, view, cols, depth, min_leaf, random_strength,
                             np.random.default_rng(seed))
        grown = [leaf_rows for _, leaf_rows in leaves]
        assert all(np.all(np.diff(leaf_rows) > 0) for leaf_rows in grown)
        assert np.array_equal(np.sort(np.concatenate(grown)), rows)
        for node, leaf_rows in leaves:
            assert all(_walk(tree, X[i]) is node for i in leaf_rows)

        oracle = _with_zero_leaves(tree)
        _refit_leaves(oracle, X, target, w, rows)
        h = _fit_leaves(leaves, target, w)
        assert json.dumps(tree) == json.dumps(oracle)
        assert h[rows].tobytes() == _tree_predict(tree, X[rows]).tobytes()
        assert not np.delete(h, rows).any()

    def test_weightless_leaf_reads_zero(self):
        X = np.repeat(np.arange(2.0), 10)[:, None]
        g = X[:, 0].copy()
        rows = np.arange(20)
        orders = np.argsort(X, axis=0, kind="stable").T
        view = (orders, np.take_along_axis(X.T, orders, axis=1))
        tree, leaves = _grow(X, g, np.ones(20), rows, view, np.arange(1), 1, 1, 0.0, None)
        w = np.where(X[:, 0] == 0.0, 0.0, 2.0)
        h = _fit_leaves(leaves, g + 5.0, w)
        assert (tree["left"], tree["right"]) == ({"value": 0.0}, {"value": 6.0})
        assert h.tolist() == [0.0] * 10 + [6.0] * 10
