"""Acceptance gate: one test per shipping criterion.

Every test re-derives its expected values through an independent route
(hand-built cases, exhaustive enumeration, brute-force recounts, closed-form
identities, byte comparison) and checks the production code against them at a
pinned tolerance. ``pytest -v`` therefore reports exactly one pass/fail line
per criterion; each test additionally prints a ``criterion NN`` verdict with
the measured numbers behind it.
"""

import contextlib
import hashlib
import io
import json
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cityfix import build_city
from classify_oracle import as_classes
from enum_oracle import best_journey, random_network
from geojson_oracle import cell_polygon
from matrix_cases import build_condition_matrix
from ridelink import boost
from ridelink.boost import BoostModel, BoostParams, fit, model_to_json, predict
from ridelink.classify import (
    FIRST_MILE,
    LAST_MILE,
    SUBSTITUTIVE,
    ClassifierConfig,
    classify_all,
    classify_trip,
    trace,
)
from ridelink.cli import main as cli_main
from ridelink.explain import pdp, sample_background, shap_values
from ridelink.features import vif_filter
from ridelink.geo import point_in_ring
from ridelink.hexgrid import (
    axial_center_xy,
    build_grid,
    cell_id,
    compute_ratios,
    locate,
    trip_rows,
)
from ridelink.ingest import parse_trips
from ridelink.ptnet import NetworkPlanner, load_network, station_lexicon
from ridelink.sensitivity import elasticity_sweep, sweep_base
from ridelink.synth import ScenarioSpec, bbox_of, generate
from shap_oracle import _shap_exact
from synth_oracle import read_ground_truth
from trip_oracle import as_records, as_trips


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line, flush=True)
    assert ok, line


def _stump(feature, threshold, left, right):
    return {"feature": feature, "threshold": threshold,
            "left": {"value": left}, "right": {"value": right}}


def _hand_model(trees, gammas, f0=0.0, names=("x0", "x1")):
    names = list(names)
    return BoostModel(f0=f0, trees=list(trees), gammas=list(gammas),
                      feature_names=names, target="y",
                      schema_hash=boost.schema_hash(names, "y"),
                      permutation=[], params=None)


@pytest.fixture(scope="module")
def city(tmp_path_factory):
    """Default synthetic scenario, classified once after a full file round trip."""
    spec = ScenarioSpec()
    paths = generate(spec, tmp_path_factory.mktemp("accept_city"))
    net = load_network(paths["stations"], paths["routes"], paths["fares"])
    lexicon = station_lexicon(net)
    trips, rejected = parse_trips(paths["trips"], bbox_of(spec))
    assert not rejected
    truth = read_ground_truth(paths["ground_truth"])
    cfg = ClassifierConfig()
    started = time.perf_counter()
    results, summary = classify_all(trips, NetworkPlanner(net), net, lexicon, cfg)
    elapsed = time.perf_counter() - started
    return SimpleNamespace(spec=spec, net=net, lexicon=lexicon, trips=trips,
                           records=as_records(trips), truth=truth, cfg=cfg, results=results,
                           summary=summary, elapsed=elapsed)


def test_criterion_01_planted_city_recovered_exactly(city):
    """Classification of the default synthetic city reproduces every planted
    label and violated condition, within the runtime budget."""
    mismatches = sum(
        1 for res, gt in zip(as_classes(city.results), city.truth)
        if res.label != gt.intended_class
        or res.failed_condition != gt.violated_condition)
    ok = (len(city.trips) == 5000 and len(city.truth) == 5000
          and len(city.net.stations) == 60
          and mismatches == 0 and city.elapsed < 10.0)
    _verdict(1, "planted city recovered", ok,
             f"{len(city.trips) - mismatches}/{len(city.trips)} trips agree, "
             f"{len(city.net.stations)} stations, classified in {city.elapsed:.2f}s")


def test_criterion_02_condition_matrix_agreement():
    """Every hand-built case pins label, failed condition, matched station,
    both-ends flag, and the evaluation trace; the classifier matches them all."""
    net = build_city()
    lexicon = station_lexicon(net)
    cases = build_condition_matrix(net, lexicon)
    bad = []
    for case in cases:
        lex = case.lexicon if case.lexicon is not None else lexicon
        got = classify_trip(as_trips([case.trip]), 0, case.alt, net, lex)
        expected = (case.label, case.failed, case.matched, case.both_ends,
                    case.trace)
        actual = (*got, trace(*got[:2]))
        if actual != expected:
            bad.append(case.name)
    ok = len(cases) >= 20 and not bad
    _verdict(2, "condition matrix", ok,
             f"{len(cases) - len(bad)}/{len(cases)} hand-built cases agree"
             + (f"; first mismatch {bad[0]}" if bad else ""))


def test_criterion_03_cell_ratios_match_brute_force(city):
    """Per-cell ratios equal an independent nearest-center recount, located
    points fall geometrically inside their cell polygon, and origin/arrival
    totals are conserved exactly."""
    grid = build_grid(bbox_of(city.spec), side_km=1.0)
    days = city.spec.days
    stats = compute_ratios(*trip_rows(grid, city.trips), city.results.label, grid, days)

    centers = np.array([axial_center_xy(grid, q, r) for q, r in grid.cells])
    ids = [cell_id(q, r) for q, r in grid.cells]

    def nearest(lon, lat):
        x, y = grid.projection.to_xy(lon, lat)
        d2 = (centers[:, 0] - x) ** 2 + (centers[:, 1] - y) ** 2
        return ids[int(np.argmin(d2))]

    recount = {cid: [0, 0, 0, 0, 0, 0] for cid in ids}  # o a fc lc ds as
    for trip, res in zip(city.records, as_classes(city.results)):
        origin = recount[nearest(trip.olon, trip.olat)]
        dest = recount[nearest(trip.dlon, trip.dlat)]
        origin[0] += 1
        dest[1] += 1
        if res.label == FIRST_MILE:
            origin[2] += 1
        elif res.label == LAST_MILE:
            dest[3] += 1
        elif res.label == SUBSTITUTIVE:
            origin[4] += 1
            dest[5] += 1

    mismatched = []
    for cid in ids:
        o, a, fc, lc, ds, as_ = recount[cid]
        cs = stats[cid]
        expected = (o, a, fc, lc, ds, as_,
                    fc / o if o else None, lc / a if a else None,
                    ds / o if o else None, as_ / a if a else None)
        actual = (cs.o_total, cs.a_total, cs.fc_total, cs.lc_total,
                  cs.ds_total, cs.as_total, cs.ratio("fcr"), cs.ratio("lcr"),
                  cs.ratio("dsr"), cs.ratio("asr"))
        if actual != expected:
            mismatched.append(cid)

    sample = city.records[::97]
    rows = locate(grid, [t.olon for t in sample], [t.olat for t in sample])
    outside = 0
    for trip, row in zip(sample, rows):
        cell = grid.cells[row] if row >= 0 else None
        if cell is None or not point_in_ring(trip.olon, trip.olat,
                                             cell_polygon(grid, *cell)):
            outside += 1

    total_o = sum(cs.o_total for cs in stats.values())
    total_a = sum(cs.a_total for cs in stats.values())
    conserved = (total_o == len(city.trips) == total_a
                 and total_o / days == len(city.trips) / days
                 and abs(math.fsum(cs.daily("o_total") for cs in stats.values())
                         - len(city.trips) / days) <= 1e-9)
    ok = not mismatched and outside == 0 and conserved
    _verdict(3, "cell ratio surfaces", ok,
             f"{len(ids)} cells recounted, {total_o} origins and {total_a} "
             f"arrivals conserved over {days} days"
             + (f"; first mismatch {mismatched[0]}" if mismatched else ""))


def test_criterion_04_boosting_recovers_step_target():
    """A one-feature step target trains to near-zero error, training never
    ends worse than the constant-mean model, and refitting is bit-identical."""
    rng = np.random.default_rng(0)
    n = 200
    X = np.sort(rng.uniform(0, 1, size=(n, 1)), axis=0)
    y = (X[:, 0] > X[n // 2, 0]).astype(float)
    params = BoostParams(iterations=400, learning_rate=0.1, depth=1,
                         min_data_in_leaf=10, seed=3)
    model = fit(X, y, params)
    mse = float(((predict(model, X) - y) ** 2).mean())
    converged = mse < 1e-3 * float(y.var())

    rng2 = np.random.default_rng(17)
    Xn = rng2.normal(size=(80, 5))
    yn = Xn[:, 0] - 2.0 * Xn[:, 3] + rng2.normal(size=80)
    noisy_params = BoostParams(iterations=150, learning_rate=0.05, depth=4,
                               min_data_in_leaf=10, bagging_temperature=0.7,
                               random_strength=0.5, column_sample_ratio=0.6,
                               seed=5)
    mse_noisy = float(((predict(fit(Xn, yn, noisy_params), Xn) - yn) ** 2).mean())
    never_worse = mse_noisy <= float(yn.var()) + 1e-12

    refit_identical = model_to_json(fit(X, y, params)) == model_to_json(model)
    ok = converged and never_worse and refit_identical
    _verdict(4, "boosting convergence", ok,
             f"step mse {mse:.2e} vs bound {1e-3 * float(y.var()):.2e}, "
             f"noisy mse {mse_noisy:.3f} vs variance {float(yn.var()):.3f}, "
             f"refit bit-identical: {refit_identical}")


def test_criterion_05_attribution_axioms():
    """Attributions satisfy local accuracy at 1e-9, give untouched features
    exactly zero, and the path-walking route matches exhaustive 2^d
    enumeration, which is kept as the test oracle ``tests/shap_oracle.py``."""
    rng = np.random.default_rng(11)
    X = rng.normal(size=(150, 5))
    y = (np.sin(X[:, 0]) + 0.5 * X[:, 1] * X[:, 2] + (X[:, 4] > 0.3)
         + 0.05 * rng.normal(size=150))
    model = fit(X, y, BoostParams(iterations=100, learning_rate=0.1, depth=3,
                                  ordered_segments=2, seed=11))
    background = sample_background(X, size=20, seed=3)
    rows = X[:50]
    shap = shap_values(model, rows, background)
    pred = predict(model, rows)
    recon = shap.base_value + shap.values.sum(axis=1)
    local_err = float(np.max(np.abs(recon - pred)
                             / np.maximum(1.0, np.abs(pred))))
    local_ok = local_err <= 1e-9

    trees = [_stump(0, 0.0, -1.0, 2.0), _stump(1, 1.5, 4.0, -3.0)]
    dummy_model = _hand_model(trees, [1.0, 0.7], names=["x0", "x1", "x2", "x3"])
    Xd = rng.normal(size=(12, 4))
    bgd = rng.normal(size=(6, 4))
    dummy_ok = all(
        np.all(values[:, 2:] == 0.0)
        for values in (_shap_exact(dummy_model, Xd, bgd),
                       shap_values(dummy_model, Xd, bgd).values))

    Xs = rng.normal(size=(60, 6))
    ys = Xs[:, 0] + Xs[:, 1] * (Xs[:, 2] > 0) - Xs[:, 5] + 0.1 * rng.normal(size=60)
    narrow = fit(Xs, ys, BoostParams(iterations=100, learning_rate=0.1,
                                     depth=3, seed=2))
    bgs = sample_background(Xs, size=8, seed=4)
    sample = Xs[:10]
    exact = _shap_exact(narrow, sample, bgs)
    tree = shap_values(narrow, sample, bgs).values
    mode_gap = float(np.max(np.abs(exact - tree)))
    modes_ok = mode_gap <= 1e-6

    ok = local_ok and dummy_ok and modes_ok
    _verdict(5, "attribution axioms", ok,
             f"local accuracy err {local_err:.1e} <= 1e-9 on 50 rows, dummy "
             f"features exactly zero: {dummy_ok}, tree vs exact gap "
             f"{mode_gap:.1e} <= 1e-6 on 6 features")


def test_criterion_06_partial_dependence_identities():
    """A feature the trees ignore yields a flat curve; on a one-feature model
    the curve equals the model response."""
    rng = np.random.default_rng(3)
    ignored = _hand_model([_stump(0, 0.0, -1.0, 2.0)], [1.0],
                          names=["x0", "x1"])
    flat_var = float(np.var(pdp(ignored, rng.normal(size=(30, 2)), "x1").values))
    flat_ok = flat_var < 1e-12

    solo = _hand_model([_stump(0, 0.0, -1.0, 2.0), _stump(0, 1.0, 0.5, -0.5)],
                       [1.0, 0.8], f0=0.3)
    X = np.column_stack([rng.uniform(-2, 2, 25), rng.normal(size=25)])
    curve = pdp(solo, X, 0)
    direct = predict(solo, np.column_stack([np.asarray(curve.grid),
                                            np.zeros(len(curve.grid))]))
    gap = float(np.max(np.abs(np.asarray(curve.values) - direct)))
    single_ok = gap <= 1e-9
    ok = flat_ok and single_ok
    _verdict(6, "partial dependence identities", ok,
             f"ignored-feature variance {flat_var:.1e} < 1e-12, "
             f"single-feature gap {gap:.1e} <= 1e-9")


def test_criterion_07_substitutive_share_monotone(city):
    """Relaxing the walk threshold or the time gate never shrinks the
    substitutive share, and the baseline point reproduces the plain run."""
    base = sweep_base(city.trips, city.results, NetworkPlanner(city.net))
    walk = elasticity_sweep(base, city.cfg, "walk_threshold_m",
                            [300, 400, 500, 600, 700, 800])
    gate = elasticity_sweep(base, city.cfg, "time_gate_min",
                            [10, 15, 20, 25, 30, 35, 40])
    walk_ok = all(b >= a for a, b in zip(walk.ratios, walk.ratios[1:]))
    gate_ok = all(b >= a for a, b in zip(gate.ratios, gate.ratios[1:]))
    base_share = city.summary["shares"][SUBSTITUTIVE]
    anchored = (walk.ratios[walk.values.index(400.0)] == base_share
                and gate.ratios[gate.values.index(15.0)] == base_share)
    ok = walk_ok and gate_ok and anchored
    _verdict(7, "threshold elasticity", ok,
             f"walk sweep {walk.ratios[0]:.4f}..{walk.ratios[-1]:.4f} "
             f"non-decreasing: {walk_ok}, gate sweep {gate.ratios[0]:.4f}.."
             f"{gate.ratios[-1]:.4f} non-decreasing: {gate_ok}, "
             f"baseline anchored: {anchored}")


def test_criterion_08_collinearity_screening():
    """A planted perfectly collinear column is always removed; orthogonal
    columns all survive with inflation factors of exactly one."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=40)
    collinear = vif_filter(np.column_stack([a, 2.0 * a + 3.0]),
                           ["a", "b"], threshold=10.0)
    collinear_ok = (len(collinear.dropped) == 1 and len(collinear.retained) == 1
                    and collinear.rounds[0]["vif"]["a"] == math.inf
                    and collinear.rounds[0]["vif"]["b"] == math.inf)

    base = np.column_stack([np.ones(60),
                            np.random.default_rng(1).normal(size=(60, 4))])
    q, _ = np.linalg.qr(base)
    ortho = vif_filter(q[:, 1:], ["w", "x", "y", "z"], threshold=10.0)
    unit_err = max(abs(v - 1.0) for v in ortho.rounds[0]["vif"].values())
    ortho_ok = ortho.dropped == [] and unit_err <= 1e-9

    ok = collinear_ok and ortho_ok
    _verdict(8, "collinearity screening", ok,
             f"collinear column dropped: {collinear_ok}, orthogonal deviation "
             f"{unit_err:.1e} <= 1e-9 with none dropped")


def test_criterion_09_planner_matches_enumeration():
    """On 100 random small networks the planner returns exactly the
    generalized-cost minimum found by exhaustive journey enumeration."""
    checked = found = disagreements = 0
    for seed in range(100):
        rng = np.random.default_rng(61000 + seed)
        net = random_network(rng)
        planner = NetworkPlanner(net)
        for _ in range(2):
            o = (121.0 + float(rng.uniform(0, 0.03)),
                 31.0 + float(rng.uniform(0, 0.03)))
            d = (121.0 + float(rng.uniform(0, 0.03)),
                 31.0 + float(rng.uniform(0, 0.03)))
            expected = best_journey(net, o, d)
            alt = planner.plan(o[0], o[1], d[0], d[1])
            checked += 1
            if expected is None:
                agree = not alt.available
            else:
                found += 1
                agree = (alt.available
                         and alt.gen_cost_min == expected.gen_cost
                         and alt.transfers == expected.transfers
                         and alt.t_pt_min == expected.t_pt)
            if not agree:
                disagreements += 1
    ok = disagreements == 0 and found > 0
    _verdict(9, "planner optimality", ok,
             f"{checked - disagreements}/{checked} plans over 100 networks "
             f"match the enumerated optimum exactly ({found} with a journey)")


PIPELINE_CONFIG = {
    "synth": {
        "first_mile": 25, "last_mile": 25, "substitutive": 30,
        "independent_c1": 15, "independent_c3": 20, "independent_c4": 15,
        "independent_c5": 8, "independent_c6": 12, "poi_count": 400,
    },
    "train": {
        "trials": 2, "folds": 4,
        "space": {
            "iterations": [100, 120], "depth": [2, 3],
            "learning_rate": [0.05, 0.1], "min_data_in_leaf": [10, 11],
            "bagging_temperature": [0.0, 0.3], "random_strength": [0.0, 0.3],
            "column_sample_ratio": [0.9, 1.0], "ordered_segments": 2,
        },
    },
    "explain": {"background_size": 50},
}

PIPELINE_STAGES = (
    ["synth"], ["ingest"], ["plan"], ["classify"], ["gridify"],
    ["features"], ["train", "--seed", "7"], ["explain"], ["elasticity"],
    ["report"],
)


def _run_pipeline(workspace: Path, config_path: Path) -> None:
    for argv in PIPELINE_STAGES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv + ["--config", str(config_path),
                                    "--workspace", str(workspace)])
        assert code == 0, f"{argv[0]} failed: {err.getvalue()}"


def _tree_digest(root: Path) -> dict:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def test_criterion_10_pipeline_reproducibility(tmp_path):
    """Running every subcommand twice from one configuration produces two
    byte-identical workspace trees."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(PIPELINE_CONFIG))
    first, second = tmp_path / "first", tmp_path / "second"
    _run_pipeline(first, config_path)
    _run_pipeline(second, config_path)
    d1, d2 = _tree_digest(first), _tree_digest(second)
    identical = d1 == d2
    differing = sorted(set(d1) ^ set(d2)) or [
        rel for rel in d1 if rel in d2 and d1[rel] != d2[rel]]
    ok = identical and len(d1) >= 25
    _verdict(10, "pipeline reproducibility", ok,
             f"{len(d1)} files byte-identical across two runs"
             + (f"; first difference {differing[0]}" if differing else ""))
