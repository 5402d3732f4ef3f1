"""Output oracles for the benchmark's workloads.

Each check returns ``(name, ok, detail)``; the runner counts every check as
one operation, so a failed check raises the reported failure count. The
checks read the workspace's artifacts and the generators' planted truth;
where an oracle needs the model (SHAP, PDP), it evaluates it with
``ridelink.boost.predict``, the same function the program uses.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path

TRIP_KEY = ("plate_id", "pickup_time", "dropoff_time", "pickup_label",
            "dropoff_label")
TOL = 1e-9                  # the acceptance suite's tolerance for SHAP and PDP
PDP_SPOTS = (0, 50, 100)    # grid points checked on each feature's curve


def _rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _key(row: dict) -> tuple:
    return tuple(row[k] for k in TRIP_KEY)


def match_ground_truth(trips_csv, truth_csv, clean_csv,
                       classified_csv) -> tuple[int, int, int]:
    """Compare classifier output with the planted classes.

    Ground truth row ``i`` describes row ``i`` of the raw trip file; ingest
    reorders rows and plate ids repeat, so rows are matched on the trip key
    (plate, pick-up and drop-off times and labels) as multisets. Returns
    ``(matched, mismatched, lost)``: a classified row is a mismatch when no
    planted trip with its key has the same label and violated condition, and
    a row ingest kept in ``clean_csv`` is lost when it has no classified row.
    """
    trips = _rows(trips_csv)
    expected: Counter = Counter()
    for row in _rows(truth_csv):
        trip = trips[int(row["trip_index"])]
        expected[(_key(trip), row["intended_class"], row["violated_condition"])] += 1
    classified = _rows(classified_csv)
    got: Counter = Counter(
        (_key(row), row["label"], row["failed_condition"]) for row in classified)
    lost = Counter(_key(row) for row in _rows(clean_csv)) \
        - Counter(_key(row) for row in classified)
    return (sum((expected & got).values()), sum((got - expected).values()),
            sum(lost.values()))


def check_ground_truth(ws: Path) -> tuple:
    """Every trip ingest kept is classified as planted; planted trips without
    a classified row are exactly the rows ingest removed."""
    matched, mismatched, lost = match_ground_truth(
        ws / "city" / "trips.csv", ws / "city" / "ground_truth.csv",
        ws / "trips_clean.csv", ws / "classified.csv")
    planted = len(_rows(ws / "city" / "ground_truth.csv"))
    removed = len(_rows(ws / "city" / "trips.csv")) - len(_rows(ws / "trips_clean.csv"))
    ok = mismatched == 0 and lost == 0 and matched > 0 \
        and planted - matched == removed
    return ("ground_truth", ok,
            f"{mismatched} mismatches, {lost} kept trips unclassified; {matched} "
            f"of {planted} planted trips classified as planted, {removed} "
            f"removed by ingest")


def check_no_rejections(ws: Path) -> tuple:
    """Every row a synthetic city writes is well formed and inside its bbox."""
    rejected = [line for line in (ws / "rejections.csv").read_text().splitlines()
                if line.strip()]
    return ("no_rejections", not rejected, f"{len(rejected)} rows rejected")


def _model_inputs(ws: Path, config: dict):
    """The model, the feature matrix, and the SHAP background ``explain``
    draws under ``config`` (the run's --config tree)."""
    from ridelink import boost, cli, explain, features

    settings = {**cli.DEFAULTS["explain"], **config.get("explain", {})}
    model = boost.load_model(str(ws / "model.json"))
    matrix = features.read_features(str(ws / "features.csv"))
    background = explain.sample_background(
        matrix.X, int(settings["background_size"]), int(settings["seed"]))
    return boost, model, matrix, background


def check_shap_local_accuracy(ws: Path, config: dict) -> tuple:
    """base value + sum of a row's attributions == the model's prediction,
    rebuilt from shap.csv (feature-major rows) and model.json."""
    import numpy as np

    boost, model, matrix, background = _model_inputs(ws, config)
    by_feature: dict[str, list[float]] = {}
    for row in _rows(ws / "explain" / "shap.csv"):
        by_feature.setdefault(row["feature"], []).append(float(row["shap_value"]))
    phi = np.array([by_feature[name] for name in matrix.names]).T
    base = float(boost.predict(model, background).mean())
    pred = boost.predict(model, matrix.X)
    err = float(np.max(np.abs(base + phi.sum(axis=1) - pred)
                       / np.maximum(1.0, np.abs(pred))))
    return ("shap_local_accuracy", err <= TOL,
            f"max relative error {err:.2e} over {len(pred)} rows")


def check_pdp_spots(ws: Path, config: dict) -> tuple:
    """Each feature's PDP at a few grid points equals the brute-force mean
    prediction with that column pinned."""
    import numpy as np

    boost, model, matrix, _ = _model_inputs(ws, config)
    curves: dict[str, list[tuple[float, float]]] = {}
    for row in _rows(ws / "explain" / "pdp.csv"):
        curves.setdefault(row["feature"], []).append(
            (float(row["grid_value"]), float(row["pdp_value"])))
    worst, checked = 0.0, 0
    for j, name in enumerate(matrix.names):
        curve = curves[name]
        for i in PDP_SPOTS:
            grid, value = curve[min(i, len(curve) - 1)]
            X = matrix.X.copy()
            X[:, j] = grid
            brute = float(boost.predict(model, X).mean())
            worst = max(worst, abs(brute - value) / max(1.0, abs(brute)))
            checked += 1
    return ("pdp_spots", worst <= TOL and checked > 0,
            f"max relative gap {worst:.2e} over {checked} grid points")


def check_elasticity_baseline(ws: Path, baselines: dict) -> tuple:
    """Each sweep's share at the configured threshold equals the substitutive
    share of the plain classification run."""
    share = json.loads((ws / "summary.json").read_text())["shares"]["substitutive"]
    seen = {}
    for row in _rows(ws / "elasticity.csv"):
        base = baselines.get(row["parameter"])
        if base is not None and float(row["value"]) == base:
            seen[row["parameter"]] = float(row["substitutive_ratio"])
    ok = set(seen) == set(baselines) and all(v == share for v in seen.values())
    return ("elasticity_baseline", ok, f"summary share {share}, sweeps {seen}")


def check_planted_rejections(ws: Path, planted: dict) -> tuple:
    """Ingest rejects exactly the planted dirty rows, for the planted reasons,
    and its outlier filter drops exactly the planted outliers."""
    reasons = Counter()
    for line in (ws / "rejections.csv").read_text().splitlines():
        if line.strip():
            reasons[json.loads(line)["reason"]] += 1
    kept = len(_rows(ws / "trips_clean.csv"))
    want_kept = planted["rows"] - sum(planted["rejected"].values()) \
        - planted["iqr_outliers"]
    ok = dict(reasons) == planted["rejected"] and kept == want_kept
    return ("planted_rejections", ok,
            f"rejected {sum(reasons.values())} (planted "
            f"{sum(planted['rejected'].values())}), kept {kept} (expected {want_kept})")


def check_planted_labels(ws: Path, planted: dict) -> tuple:
    """Trips labelled with a station alias classify as first or last mile."""
    counts = json.loads((ws / "summary.json").read_text())["counts"]
    got = (counts["first_mile_complementary"], counts["last_mile_complementary"])
    want = (planted["first_mile"], planted["last_mile"])
    return ("planted_labels", got == want, f"first/last mile {got}, planted {want}")


def workspace_digest(ws: Path) -> str:
    """sha256 over every file under the workspace, path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(ws).rglob("*") if p.is_file()):
        h.update(path.relative_to(ws).as_posix().encode())
        h.update(b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()
