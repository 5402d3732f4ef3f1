"""End-to-end tests for the command-line pipeline.

A module-scoped fixture drives every subcommand once over a small synthetic
scenario; individual tests then check artifacts, oracle agreement, config
layering, and the error contract (JSON on stderr, exit codes 2/3/4).
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ridelink import boost, features
from ridelink.cli import (
    ARTIFACTS,
    DEFAULTS,
    RunConfig,
    env_overrides,
    load_config,
    main,
)
from ridelink.classify import ClassifierConfig
from ridelink.errors import ConfigError
from ridelink.synth import read_ground_truth

CONFIG = {
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

STAGES = (
    ["synth"], ["ingest"], ["plan"], ["classify"], ["gridify"],
    ["features"], ["train", "--seed", "7"], ["explain"], ["elasticity"],
    ["report"],
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _args(**kwargs) -> SimpleNamespace:
    merged = {"config": None, "set": None}
    merged.update(kwargs)
    return SimpleNamespace(**merged)


def _write_rows(path, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    ws = tmp_path_factory.mktemp("ws")
    config_path = ws / "config.json"
    config_path.write_text(json.dumps({**CONFIG, "workspace": str(ws)}))
    echoes = {}
    for argv in STAGES:
        code, out, err = run_cli(argv + ["--config", str(config_path)])
        assert code == 0, f"{argv[0]} failed: {err}"
        echoes[argv[0]] = json.loads(out.strip().splitlines()[-1])
    return ws, config_path, echoes


class TestConfigLayers:
    def test_defaults(self):
        cfg = load_config(_args())
        assert cfg.days == 7
        assert cfg.classifier() == ClassifierConfig()
        assert cfg.data["grid"]["side_km"] == 0.5
        assert cfg.target == "FCR"

    def test_file_layer(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"classifier": {"walk_threshold_m": 500.0},
                                    "days": 3}))
        cfg = load_config(_args(config=str(path)))
        assert cfg.classifier().walk_threshold_m == 500.0
        assert cfg.classifier().time_gate_min == 15.0
        assert cfg.days == 3

    def test_env_layer_beats_file(self, tmp_path, monkeypatch):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"grid": {"side_km": 1.0}}))
        monkeypatch.setenv("RIDELINK_GRID__SIDE_KM", "0.25")
        cfg = load_config(_args(config=str(path)))
        assert cfg.data["grid"]["side_km"] == 0.25

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("RIDELINK_GRID__SIDE_KM", "0.25")
        cfg = load_config(_args(side_km=0.75))
        assert cfg.data["grid"]["side_km"] == 0.75

    def test_set_override(self):
        cfg = load_config(_args(set=["train.trials=9", "target=LCR"]))
        assert cfg.data["train"]["trials"] == 9
        assert cfg.target == "LCR"

    def test_set_rejects_malformed(self):
        with pytest.raises(ConfigError, match="dotted.path"):
            load_config(_args(set=["no-equals-sign"]))

    def test_env_value_parsing(self):
        environ = {"RIDELINK_INGEST__PER_DAY": "true",
                   "RIDELINK_WORKSPACE": "plain/dir",
                   "RIDELINK_BBOX": "[1.0, 2.0, 3.0, 4.0]",
                   "UNRELATED": "x"}
        tree = env_overrides(environ)
        assert tree == {"ingest": {"per_day": True},
                        "workspace": "plain/dir",
                        "bbox": [1.0, 2.0, 3.0, 4.0]}

    def test_bad_config_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(["report", "--config", str(path)])
        assert code == 3
        assert json.loads(err)["kind"] == "config"

    def test_degenerate_bbox_rejected(self):
        cfg = RunConfig({**json.loads(json.dumps(DEFAULTS)),
                         "bbox": [3.0, 1.0, 3.0, 2.0]})
        with pytest.raises(ConfigError, match="degenerate"):
            cfg.bbox()

    def test_bad_target(self):
        cfg = load_config(_args(set=["target=XYZ"]))
        with pytest.raises(ConfigError, match="FCR/LCR/DSR/ASR"):
            _ = cfg.target

    def test_bad_classifier_threshold(self):
        cfg = load_config(_args(set=["classifier.cost_ratio=7"]))
        with pytest.raises(ConfigError, match="cost_ratio"):
            cfg.classifier()


# sha256 of the gridify and features artifacts in the fixture workspace
GOLDEN_ARTIFACTS = {
    "cells.csv": "a41e5602a705ad0d77e2a3746f9a18e4a2ae15f5762732403a981e5a962f6bf9",
    "cells.geojson": "e68bedf2d778dfa9b3c640bd37af554dddcd63e2e5e2ea51d18b1812a393c2ab",
    "od_flows.csv": "fd333b207bf17372118a98b9dd60c92a9cb79b85edfe3bacae546a98abf83e06",
    "temporal.csv": "5bcd6b51b18d92791cfe01be9b854641c279a5defa5bb902b62a42b89395029b",
    "trip_stats.json": "8a7404ccda575aa78f3d1176facfe21f401d46230a17fb85ce4854f08532bec5",
    "breakdown.json": "5f5885ac1e8bf5865a895633311ff46940293cc67da8f5e286c0ca7a36d77dc7",
    "features.csv": "42639430edc4e4ea6170dae8fd2d54c8e3dc0bde0688d6147f3c1c218be7ffd9",
    "features_schema.json": "b1435e52f789a446da31fdd134c39a6c58caefd27474721012bbf996d211986f",
    "vif_report.json": "1d59b26aca70213eb9e66a34239e6bd4fb578a0a828b90442f31a29a158f7930",
}


class TestPipelineArtifacts:
    @pytest.mark.parametrize("name", sorted(GOLDEN_ARTIFACTS))
    def test_grid_and_feature_digests(self, pipeline, name):
        ws, _, _ = pipeline
        assert hashlib.sha256((ws / name).read_bytes()).hexdigest() == GOLDEN_ARTIFACTS[name]

    def test_all_artifacts_written(self, pipeline):
        ws, _, _ = pipeline
        for producer, filename in ARTIFACTS.values():
            assert (ws / filename).exists(), f"{producer} did not write {filename}"
        assert (ws / "report" / "report.json").exists()
        assert (ws / "report" / "shares.svg").exists()
        assert (ws / "report" / "temporal.svg").exists()
        assert (ws / "elasticity_walk_threshold_m.svg").exists()

    def test_summary_matches_planted_truth(self, pipeline):
        # the outlier filter may drop planted trips, so restrict the ground
        # truth to rows that survived into the cleaned artifact
        ws, _, _ = pipeline
        raw = (ws / "city" / "trips.csv").read_text().splitlines()[1:]
        kept = set((ws / "trips_clean.csv").read_text().splitlines()[1:])
        assert kept <= set(raw)
        truth = read_ground_truth(ws / "city" / "ground_truth.csv")
        expected = Counter(truth[i].intended_class
                           for i, line in enumerate(raw) if line in kept)
        summary = json.loads((ws / "summary.json").read_text())
        assert summary["counts"] == {label: expected.get(label, 0)
                                     for label in summary["counts"]}
        assert summary["total"] == len(kept)
        assert abs(sum(summary["shares"].values()) - 1.0) < 1e-12

    def test_wait_feature_survives_the_pipeline(self, pipeline):
        ws, _, _ = pipeline
        header = (ws / "features.csv").read_text().splitlines()[0]
        assert "avg_wait_min" in header.split(",")

    def test_model_is_loadable_and_matches_features(self, pipeline):
        ws, _, _ = pipeline
        model = boost.load_model(str(ws / "model.json"))
        matrix = features.read_features(str(ws / "features.csv"))
        assert list(model.feature_names) == list(matrix.names)
        assert model.target == matrix.target == "FCR"
        pred = boost.predict(model, matrix.X)
        assert np.isfinite(pred).all()

    def test_trial_log_rows(self, pipeline):
        ws, _, echoes = pipeline
        lines = (ws / "trials.csv").read_text().splitlines()
        assert len(lines) == CONFIG["train"]["trials"] + 1
        assert echoes["train"]["trials"] == CONFIG["train"]["trials"]

    def test_train_echo_counts_trees_and_leaves(self, pipeline):
        ws, _, echoes = pipeline
        model = boost.load_model(str(ws / "model.json"))

        def leaves(node):
            return 1 if "value" in node else leaves(node["left"]) + leaves(node["right"])

        assert echoes["train"]["trees"] == len(model.trees) > 0
        assert echoes["train"]["leaves"] == sum(leaves(tree) for tree in model.trees)
        assert not any("leaves" in path.read_text(errors="replace")
                       for path in ws.rglob("*") if path.is_file())

    def test_elasticity_outputs(self, pipeline):
        ws, _, _ = pipeline
        lines = (ws / "elasticity.csv").read_text().splitlines()
        assert lines[0] == "parameter,value,substitutive_ratio,arc_elasticity"
        params = {line.split(",")[0] for line in lines[1:]}
        assert params == {"walk_threshold_m", "time_gate_min"}

    def test_elasticity_classifies_each_trip_once(self, pipeline, tmp_path, monkeypatch):
        from ridelink import sensitivity

        ws, config_path, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        calls = []
        classify_trip = sensitivity.classify_trip

        def counting(*args):
            calls.append(1)
            return classify_trip(*args)

        monkeypatch.setattr(sensitivity, "classify_trip", counting)
        code, _, err = run_cli(["elasticity", "--config", str(config_path),
                                "--workspace", str(copy)])
        assert code == 0, err
        trips = len((ws / "trips_clean.csv").read_text().splitlines()) - 1
        assert len(calls) == trips  # once per run, not once per swept parameter
        assert (copy / "elasticity.csv").read_bytes() == (ws / "elasticity.csv").read_bytes()

    def test_plan_echo_counts_expanded_states(self, pipeline, tmp_path):
        ws, config_path, echoes = pipeline
        expanded = echoes["plan"]["states_expanded"]
        assert isinstance(expanded, int) and expanded > 0
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        code, out, _ = run_cli(["plan", "--config", str(config_path),
                                "--workspace", str(copy)])
        assert code == 0
        assert json.loads(out)["states_expanded"] == expanded
        assert not any("states_expanded" in path.read_text(errors="replace")
                       for path in copy.rglob("*") if path.is_file())

    def test_classify_echo_counts_failed_conditions(self, pipeline):
        ws, _, echoes = pipeline
        failed = echoes["classify"]["failed_conditions"]
        with open(ws / "classified.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        counted = Counter(row["failed_condition"] for row in rows)
        assert list(failed) == ["C1", "C2", "C3", "C4", "C5", "C6"]
        assert failed == {c: counted[c] for c in failed}
        assert failed["C2"] == 0  # a label miss falls through to C3, never fails
        assert sum(failed.values()) == sum(row["label"] == "independent" for row in rows)
        assert not any("failed_conditions" in path.read_text(errors="replace")
                       for path in ws.rglob("*") if path.is_file())

    def test_explain_echo_counts_pdp_tree_rows(self, pipeline):
        ws, _, echoes = pipeline
        model = boost.load_model(str(ws / "model.json"))
        matrix = features.read_features(str(ws / "features.csv"))
        rows = echoes["explain"]["pdp_tree_rows"]
        # at least one tree run per curve, at most one per grid point
        live = sum(gamma != 0.0 for gamma in model.gammas)
        n, d = matrix.X.shape
        assert isinstance(rows, int)
        assert d * live * n <= rows <= d * live * n * 101
        assert not any("pdp_tree_rows" in path.read_text(errors="replace")
                       for path in ws.rglob("*") if path.is_file())

    def test_report_manifest(self, pipeline):
        ws, _, _ = pipeline
        doc = json.loads((ws / "report" / "report.json").read_text())
        summary = json.loads((ws / "summary.json").read_text())
        assert doc["classification"] == summary
        assert doc["cells"]["total"] > 0
        for entry in doc["artifacts"].values():
            assert (ws / entry["path"]).exists()
            assert len(entry["sha256"]) == 64
        assert "model" in doc["artifacts"]

    def test_echo_lines_are_json(self, pipeline):
        _, _, echoes = pipeline
        assert set(echoes) == {argv[0] for argv in STAGES}
        for name, doc in echoes.items():
            assert doc["command"] == name


class TestRetiredJobs:
    """``jobs`` is no longer a setting: the flag is rejected, while a stray
    ``RIDELINK_JOBS`` is an unknown key like any other and changes nothing."""

    def test_jobs_flag_rejected(self, pipeline):
        _, config_path, _ = pipeline
        code, _, err = run_cli(["classify", "--config", str(config_path),
                                "--jobs", "2"])
        assert code == 3
        assert json.loads(err)["kind"] == "config"

    def test_jobs_env_key_changes_nothing(self, pipeline, tmp_path, monkeypatch):
        ws, config_path, _ = pipeline
        trees = {}
        for name, jobs in (("plain", None), ("jobs", "2")):
            copy = tmp_path / name
            shutil.copytree(ws, copy)
            if jobs is None:
                monkeypatch.delenv("RIDELINK_JOBS", raising=False)
            else:
                monkeypatch.setenv("RIDELINK_JOBS", jobs)
            # the stages of the benchmark's trips-bulk workload that used to
            # read the setting
            for stage in ("plan", "classify", "elasticity"):
                code, _, err = run_cli([stage, "--config", str(config_path),
                                        "--workspace", str(copy)])
                assert code == 0, f"{stage} failed: {err}"
            trees[name] = {path.relative_to(copy).as_posix(): path.read_bytes()
                           for path in sorted(copy.rglob("*")) if path.is_file()}
        assert trees["plain"] == trees["jobs"]


class TestErrorContract:
    def test_report_before_anything(self, tmp_path):
        code, _, err = run_cli(["report", "--workspace", str(tmp_path / "w")])
        assert code == 2
        doc = json.loads(err)
        assert doc["kind"] == "input"
        assert doc["producer"] == "classify"
        assert "missing artifact" in doc["error"]

    def test_train_missing_features_names_producer(self, tmp_path):
        code, _, err = run_cli(["train", "--seed", "1",
                                "--workspace", str(tmp_path / "w")])
        assert code == 2
        assert json.loads(err)["producer"] == "features"

    def test_train_requires_seed(self, tmp_path):
        code, _, err = run_cli(["train", "--workspace", str(tmp_path / "w")])
        assert code == 3
        assert "--seed" in json.loads(err)["error"]

    def test_train_population_too_small(self, tmp_path):
        ws = tmp_path / "w"
        ws.mkdir()
        matrix = features.FeatureMatrix(
            target="FCR", cell_ids=["q0r0"], names=["a", "b"],
            X=np.array([[1.0, 2.0]]), y=np.array([0.5]))
        features.write_features(matrix, str(ws / "features.csv"))
        code, _, err = run_cli(["train", "--seed", "1", "--workspace", str(ws)])
        assert code == 2
        assert "population too small" in json.loads(err)["error"]

    def test_unknown_subcommand(self):
        code, _, err = run_cli(["transmogrify"])
        assert code == 3
        assert json.loads(err)["kind"] == "config"

    def test_negative_grid_side(self, pipeline):
        _, config_path, _ = pipeline
        code, _, err = run_cli(["gridify", "--config", str(config_path),
                                "--set", "grid.side_km=-1"])
        assert code == 3
        assert "side_km" in json.loads(err)["error"]

    def test_env_override_reaches_validation(self, pipeline, monkeypatch):
        _, config_path, _ = pipeline
        monkeypatch.setenv("RIDELINK_CLASSIFIER__COST_RATIO", "7")
        code, _, err = run_cli(["classify", "--config", str(config_path)])
        assert code == 3
        assert "cost_ratio" in json.loads(err)["error"]

    def test_bad_planner_settings(self, pipeline, tmp_path):
        ws, config_path, _ = pipeline
        # a negative penalty makes transfer cycles ever cheaper, so the
        # search would never end; it must be refused before planning starts
        for setting in ("planner.transfer_penalty_min=-10",
                        "planner.transfer_penalty_min=Infinity",
                        "planner.search_radius_m=NaN"):
            proc = subprocess.run(
                [sys.executable, "-m", "ridelink", "plan", "--config", str(config_path),
                 "--set", setting], capture_output=True, text=True, timeout=60)
            assert proc.returncode == 3, setting
            assert "invalid planner settings" in json.loads(proc.stderr)["error"]
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        code, _, err = run_cli(["plan", "--config", str(config_path), "--workspace",
                                str(copy), "--set", "planner.transfer_penalty_min=0"])
        assert code == 0, err

    @pytest.mark.parametrize("values", ["5", "[400,null]", "true", "[400,true]", '"400"',
                                        "[NaN,400]", "[400,Infinity]"])
    def test_sweep_values_not_a_list_of_numbers(self, pipeline, values):
        _, config_path, _ = pipeline
        code, _, err = run_cli(["elasticity", "--config", str(config_path),
                                "--parameter", "walk_threshold_m",
                                "--set", f"elasticity.values.walk_threshold_m={values}"])
        assert code == 3, err
        assert "list of numbers" in json.loads(err)["error"]

    @pytest.mark.parametrize("value", ["1.5", "true"])
    def test_max_transfers_must_be_whole(self, pipeline, value):
        _, config_path, _ = pipeline
        code, _, err = run_cli(["classify", "--config", str(config_path),
                                "--set", f"classifier.max_transfers={value}"])
        assert code == 3, err
        assert "max_transfers" in json.loads(err)["error"]

    @pytest.mark.parametrize("setting", ["classifier.walk_threshold_m=NaN",
                                         "classifier.time_gate_min=Infinity",
                                         "classifier.time_ratio=NaN"])
    def test_non_finite_thresholds_rejected(self, pipeline, setting):
        _, config_path, _ = pipeline
        code, _, err = run_cli(["classify", "--config", str(config_path), "--set", setting])
        assert code == 3, err
        assert "invalid classifier thresholds" in json.loads(err)["error"]

    def test_stationless_feature_category(self, pipeline, tmp_path):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        path = copy / "city" / "stations.csv"
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        hubs = [r for r in rows if r["mode"] == "bus" and "|" in r["line_ids"]]
        assert hubs
        for row in hubs:  # cut every bus hub to one line
            row["line_ids"] = row["line_ids"].split("|")[0]
        _write_rows(path, rows)
        code, _, err = run_cli(["features", "--workspace", str(copy)])
        assert code == 2, err
        assert "category empty: dist_bus_hub_km" in json.loads(err)["error"]

    @pytest.mark.parametrize("stage", ["plan", "classify", "gridify", "features"])
    def test_non_finite_station_coordinate(self, pipeline, tmp_path, stage):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        path = copy / "city" / "stations.csv"
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        rows[0]["lon"] = "nan"
        _write_rows(path, rows)
        code, _, err = run_cli([stage, "--workspace", str(copy)])
        assert code == 2, err
        error = json.loads(err)["error"]
        assert error.startswith("transit network failed to load")
        assert f"station {rows[0]['id']!r}" in error

    def test_classified_names_unknown_station(self, pipeline, tmp_path):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        path = copy / "classified.csv"
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        next(r for r in rows if r["matched_station"])["matched_station"] = "zz_unknown"
        _write_rows(path, rows)
        code, _, err = run_cli(["gridify", "--workspace", str(copy)])
        assert code == 2, err
        error = json.loads(err)["error"]
        assert "'zz_unknown'" in error and "re-run 'classify'" in error

    @pytest.mark.parametrize("case", ["nan_coordinate", "dropoff_not_after_pickup",
                                      "wrong_column_count", "outside_bbox"])
    @pytest.mark.parametrize("stage", ["gridify", "features"])
    def test_bad_classified_row_names_its_line(self, pipeline, tmp_path, case, stage):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        path = copy / "classified.csv"
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        header, row = rows[0], rows[3]  # line 4
        if case == "nan_coordinate":
            row[header.index("olat")] = "nan"
        elif case == "dropoff_not_after_pickup":
            row[header.index("dropoff_time")] = row[header.index("pickup_time")]
        elif case == "wrong_column_count":
            row.append("extra")
        else:
            lon_max = json.loads((copy / "city" / "scenario.json").read_text())["bbox"][2]
            row[header.index("dlon")] = repr(lon_max + 0.5)
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        code, _, err = run_cli([stage, "--workspace", str(copy)])
        assert code == 2, err
        error = json.loads(err)["error"]
        assert "line 4 " in error and "re-run 'classify'" in error

    @pytest.mark.parametrize("stage", ["plan", "classify", "elasticity"])
    def test_headerless_clean_trips(self, pipeline, tmp_path, stage):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        (copy / "trips_clean.csv").write_text("")
        code, _, err = run_cli([stage, "--workspace", str(copy)])
        assert code == 2, err
        assert "re-run 'ingest'" in json.loads(err)["error"]

    @pytest.mark.parametrize("extra", [
        ["--set", "elasticity.values=5"],
        ["--set", "elasticity.parameters=5"],
        ["--parameter", "walk_threshold_m", "--parameter", "walk_threshold_m"],
        ["--set", 'elasticity.parameters=["time_gate_min","walk_threshold_m","time_gate_min"]'],
    ], ids=["values_not_a_map", "parameters_not_a_list", "flag_repeated", "config_repeated"])
    def test_bad_elasticity_parameters(self, pipeline, tmp_path, extra):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        (copy / "elasticity.csv").unlink()
        proc = subprocess.run(
            [sys.executable, "-m", "ridelink", "elasticity", "--workspace", str(copy), *extra],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3, proc.stderr
        assert json.loads(proc.stderr)["kind"] == "config"
        assert not (copy / "elasticity.csv").exists()

    def test_partial_alternatives_cache(self, pipeline, tmp_path):
        ws, config_path, _ = pipeline
        broken = tmp_path / "w"
        broken.mkdir()
        (broken / "trips_clean.csv").write_text(
            (ws / "trips_clean.csv").read_text())
        (broken / "city").mkdir()
        for name in ("stations.csv", "routes.csv", "fares.json",
                     "scenario.json"):
            (broken / "city" / name).write_text(
                (ws / "city" / name).read_text())
        lines = (ws / "alternatives.jsonl").read_text().splitlines()
        (broken / "alternatives.jsonl").write_text("\n".join(lines[:-1]) + "\n")
        code, _, err = run_cli(["classify", "--workspace", str(broken)])
        assert code == 2
        assert "re-run 'plan'" in json.loads(err)["error"]

    def test_schema_error_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("plate_id,olon\nx,1.0\n")
        code, _, err = run_cli([
            "ingest", "--workspace", str(tmp_path / "w"),
            "--set", f"paths.trips={bad}",
            "--bbox", "0,0,1,1"])
        assert code == 2
        assert "schema" in json.loads(err)["error"]

    def test_internal_errors_exit_4(self, monkeypatch):
        from ridelink import cli as cli_module

        def boom(cfg, args):
            raise RuntimeError("wires crossed")

        monkeypatch.setitem(cli_module.COMMANDS, "report", boom)
        code, _, err = run_cli(["report"])
        assert code == 4
        doc = json.loads(err)
        assert doc["kind"] == "internal"
        assert "wires crossed" in doc["error"]

    def test_unknown_explain_mode(self, pipeline):
        _, config_path, _ = pipeline
        code, _, err = run_cli(["explain", "--config", str(config_path),
                                "--mode", "bogus"])
        assert code == 3
        assert json.loads(err)["kind"] == "config"

    @pytest.mark.parametrize("assignment", [
        "explain.background_size=0", "explain.background_size=-3",
        "explain.background_size=abc", "explain.seed=-1"])
    def test_bad_explain_setting(self, pipeline, assignment):
        _, config_path, _ = pipeline
        code, _, err = run_cli(["explain", "--config", str(config_path),
                                "--set", assignment])
        assert code == 3, err
        doc = json.loads(err)
        assert doc["kind"] == "config"
        assert assignment.split("=")[0] in doc["error"]


    def test_train_counts_must_be_integers(self, pipeline):
        _, config_path, _ = pipeline
        for setting in ("train.trials=abc", "train.folds=abc"):
            proc = subprocess.run(
                [sys.executable, "-m", "ridelink", "train", "--config", str(config_path),
                 "--seed", "7", "--set", setting], capture_output=True, text=True,
                timeout=60)
            assert proc.returncode == 3, (setting, proc.stderr)
            doc = json.loads(proc.stderr)
            assert doc["kind"] == "config"
            assert setting.split("=")[0] in doc["error"]

    @pytest.mark.parametrize("extra, env", [
        (["--set", "ingest.columns=5"], {}),
        (["--set", 'ingest.columns=["x"]'], {}),
        (["--set", 'ingest.columns={"olon": 5}'], {}),
        (["--set", "ingest.iqr_k=abc"], {}),
        (["--set", "ingest.iqr_k=-1"], {}),
        (["--set", "ingest.iqr_k=NaN"], {}),
        (["--iqr-k", "inf"], {}),
        ([], {"RIDELINK_INGEST__PER_DAY": "no"}),
    ], ids=["columns_number", "columns_list", "columns_value_number", "iqr_k_text",
            "iqr_k_negative", "iqr_k_nan", "iqr_k_flag_inf", "per_day_env_no"])
    def test_bad_ingest_setting(self, pipeline, tmp_path, extra, env):
        ws, config_path, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        proc = subprocess.run(
            [sys.executable, "-m", "ridelink", "ingest", "--config", str(config_path),
             "--workspace", str(copy), *extra],
            capture_output=True, text=True, timeout=60, env={**os.environ, **env})
        assert proc.returncode == 3, proc.stderr
        doc = json.loads(proc.stderr)
        assert doc["kind"] == "config"
        assert "ingest." in doc["error"]
        assert (copy / "trips_clean.csv").read_bytes() == (ws / "trips_clean.csv").read_bytes()

    def test_good_ingest_settings(self, pipeline, tmp_path):
        ws, config_path, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        code, _, err = run_cli([
            "ingest", "--config", str(config_path), "--workspace", str(copy),
            "--iqr-k", "1.5", "--set", "ingest.per_day=true",
            "--set", 'ingest.columns={"plate_id": "plate_id"}'])
        assert code == 0, err

    @pytest.mark.parametrize("value", ["abc", "NaN", "inf", "Infinity", "-Infinity"])
    def test_vif_threshold_must_be_finite(self, pipeline, value):
        _, config_path, _ = pipeline
        code, _, err = run_cli(["features", "--config", str(config_path),
                                "--set", f"features.vif_threshold={value}"])
        assert code == 3, err
        doc = json.loads(err)
        assert doc["kind"] == "config"
        assert "features.vif_threshold" in doc["error"]

    @pytest.mark.parametrize("stage", ["train", "explain"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [1, -1], ids=["feature", "target"])
    def test_non_finite_features_value(self, pipeline, tmp_path, stage, value, column):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        path = copy / "features.csv"
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        rows[3][column] = value
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        argv = [stage, "--workspace", str(copy)] + (["--seed", "7"] if stage == "train" else [])
        code, out, err = run_cli(argv)
        assert code == 2, err
        doc = json.loads(err)
        assert doc["kind"] == "input"
        assert f"cell {rows[3][0]}, column {rows[0][column]}" in doc["error"]
        assert out == ""
        assert (copy / "model.json").read_bytes() == (ws / "model.json").read_bytes()

    def test_train_empty_features(self, pipeline, tmp_path):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        (copy / "features.csv").write_text("")
        code, out, err = run_cli(["train", "--seed", "7", "--workspace", str(copy)])
        assert code == 2, err
        doc = json.loads(err)
        assert doc["kind"] == "input"
        assert str(copy / "features.csv") in doc["error"]
        assert "re-run 'features'" in doc["error"]
        assert out == ""

    @pytest.mark.parametrize("stage", ["train", "explain"])
    @pytest.mark.parametrize("case", ["not_a_number", "short_row"])
    def test_malformed_features_row(self, pipeline, tmp_path, stage, case):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        path = copy / "features.csv"
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        if case == "not_a_number":
            rows[3][1] = "abc"
        else:
            del rows[3][-2:]
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        argv = [stage, "--workspace", str(copy)] + (["--seed", "7"] if stage == "train" else [])
        code, out, err = run_cli(argv)
        assert code == 2, err
        doc = json.loads(err)
        assert doc["kind"] == "input"
        assert "line 4" in doc["error"] and "re-run 'features'" in doc["error"]
        assert out == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("layer", ["poi", "population", "roads"])
    def test_non_finite_context_coordinate(self, pipeline, tmp_path, layer, value):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        if layer == "roads":
            path = copy / "city" / "roads.geojson"
            doc = json.loads(path.read_text())
            doc["features"][0]["geometry"]["coordinates"][0][0] = float(value)
            path.write_text(json.dumps(doc))
        else:
            path = copy / "city" / f"{layer}.csv"
            with open(path, newline="") as handle:
                rows = list(csv.DictReader(handle))
            rows[0]["lon"] = value
            _write_rows(path, rows)
        code, out, err = run_cli(["features", "--workspace", str(copy)])
        assert code == 2, err
        assert json.loads(err)["kind"] == "input"
        assert out == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("layer, column", [("population", "population")])
    def test_non_finite_context_value(self, pipeline, tmp_path, layer, column, value):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        path = copy / "city" / f"{layer}.csv"
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        rows[1][column] = value
        _write_rows(path, rows)
        code, out, err = run_cli(["features", "--workspace", str(copy)])
        assert code == 2, err
        doc = json.loads(err)
        assert doc["kind"] == "input"
        assert str(path) in doc["error"] and "line 3" in doc["error"]
        assert out == ""

    def test_roads_non_finite_vertex_names_feature(self, pipeline, tmp_path):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        path = copy / "city" / "roads.geojson"
        doc = json.loads(path.read_text())
        doc["features"][1]["geometry"]["coordinates"][-1][1] = float("inf")
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(["features", "--workspace", str(copy)])
        assert code == 2, err
        error = json.loads(err)["error"]
        assert str(path) in error and "feature 1" in error

    @pytest.mark.parametrize("layer, column", [
        ("poi", "lon"), ("population", "population"), ("roads", None),
    ])
    def test_malformed_context_file(self, pipeline, tmp_path, layer, column):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        if layer == "roads":
            path = copy / "city" / "roads.geojson"
            path.write_text("{not json")
        else:
            path = copy / "city" / f"{layer}.csv"
            with open(path, newline="") as handle:
                rows = list(csv.DictReader(handle))
            rows[1][column] = "abc"
            _write_rows(path, rows)
        code, _, err = run_cli(["features", "--workspace", str(copy)])
        assert code == 2, err
        doc = json.loads(err)
        assert doc["kind"] == "input"
        assert str(path) in doc["error"]
        if column:
            assert "line 3" in doc["error"]

    @pytest.mark.parametrize("content", [
        "{not json",
        "[1, 2]",
        json.dumps({"type": "FeatureCollection", "features": [{
            "type": "Feature", "properties": {"name": "west"},
            "geometry": {"type": "Polygon",
                         "coordinates": [[[121.0, 31.0], [121.05], [121.0, 31.05]]]}}]}),
    ], ids=["invalid_json", "top_level_list", "one_number_vertex"])
    def test_malformed_districts_file(self, pipeline, tmp_path, content):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        path = tmp_path / "districts.geojson"
        path.write_text(content)
        code, _, err = run_cli(["gridify", "--workspace", str(copy),
                                "--set", f"paths.districts={path}"])
        assert code == 2, err
        doc = json.loads(err)
        assert doc["kind"] == "input"
        assert str(path) in doc["error"]

    @pytest.mark.parametrize("argv, env, section", [
        (["ingest", "--set", "ingest=5", "--bbox", "0,0,1,1"], {}, "ingest"),
        (["train", "--seed", "7", "--set", "train.space=5"], {}, "train.space"),
        (["plan", "--set", "planner=[1]"], {}, "planner"),
        (["elasticity", "--set", "elasticity.values=null"], {}, "elasticity.values"),
        (["classify"], {"RIDELINK_CLASSIFIER": "5"}, "classifier"),
        (["gridify", "--side-km", "0.5"], {"RIDELINK_GRID": "x"}, "grid"),
    ], ids=["ingest", "train_space", "planner", "elasticity_values", "env_classifier",
            "env_grid_with_flag"])
    def test_section_that_is_not_an_object(self, tmp_path, monkeypatch, argv, env, section):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        code, _, err = run_cli(argv + ["--workspace", str(tmp_path / "w")])
        assert code == 3, err
        doc = json.loads(err)
        assert doc["kind"] == "config"
        assert doc["error"].startswith(f"{section} must be a JSON object")


# the ridelink modules each stage loads: the package, ``cli`` and ``errors``,
# then the modules the stage runs and what they import
_LOADED_BY_EVERY_STAGE = {"ridelink", "ridelink.cli", "ridelink.errors"}
_TRIP_LAYERS = {"ridelink.classify", "ridelink.geo", "ridelink.ingest", "ridelink.ptnet"}
_FEATURE_LAYERS = _TRIP_LAYERS | {"ridelink.features", "ridelink.hexgrid"}
STAGE_MODULES = {
    "synth": _TRIP_LAYERS | {"ridelink.synth"},
    "ingest": {"ridelink.ingest"},
    "plan": {"ridelink.geo", "ridelink.ingest", "ridelink.ptnet"},
    "classify": _TRIP_LAYERS,
    "gridify": _TRIP_LAYERS | {"ridelink.hexgrid"},
    "features": _FEATURE_LAYERS,
    "train": {"ridelink.boost", "ridelink.features"},
    "explain": {"ridelink.boost", "ridelink.explain", "ridelink.features", "ridelink.svgchart"},
    "elasticity": _TRIP_LAYERS | {"ridelink.sensitivity", "ridelink.svgchart"},
    "report": _TRIP_LAYERS | {"ridelink.hexgrid", "ridelink.svgchart"},
}

_REPORT_MODULES = """
import json, sys
from ridelink.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "ridelink")))
sys.exit(code)
"""


class TestStageImports:
    """Each stage runs in a process of its own and loads only the modules it
    runs, so none pays for compiling and importing the others."""

    @pytest.mark.parametrize("argv", STAGES, ids=[argv[0] for argv in STAGES])
    def test_stage_loads_only_its_modules(self, pipeline, tmp_path, argv):
        ws, config_path, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        proc = subprocess.run(
            [sys.executable, "-c", _REPORT_MODULES, *argv, "--config", str(config_path),
             "--workspace", str(copy)], capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.strip().splitlines()[-1])
        assert loaded == sorted(_LOADED_BY_EVERY_STAGE | STAGE_MODULES[argv[0]])


class TestModuleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ridelink", "transmogrify"],
            capture_output=True, text=True)
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["kind"] == "config"
