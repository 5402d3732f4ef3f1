"""End-to-end tests for the command-line pipeline.

A module-scoped fixture drives every subcommand once over a small synthetic
scenario; individual tests then check artifacts, oracle agreement, config
layering, and the error contract (JSON on stderr, exit codes 2/3/4).
"""

import contextlib
import csv
import dataclasses
import datetime
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ridelink import boost, explain, features, hexgrid, ptnet, sensitivity, synth
from ridelink.cli import (
    ARTIFACTS,
    DEFAULTS,
    SETTINGS,
    TARGETS,
    env_overrides,
    load_config,
    main,
)
from ridelink.classify import ClassifierConfig, read_classified
from ridelink.errors import ConfigError, finite_number
from ridelink.ingest import CANONICAL_COLUMNS
from ridelink.synth import ScenarioSpec, build_network
from locate_oracle import OFF_GRID
from locate_oracle import locate as oracle_locate
from numpy_geo_oracle import nearest_station as oracle_nearest
from synth_oracle import read_ground_truth
from trip_oracle import as_records

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


def _edit_json(edit):
    """A corruption that applies ``edit`` to the parsed JSON document."""
    def corrupt(text: str) -> str:
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return corrupt


def _split_on(feature):
    """A model corruption: the first tree rooted at a split splits on ``feature``."""
    return _edit_json(lambda doc: next(tree for tree in doc["trees"] if "feature" in tree)
                      .update(feature=feature))


def _first_leaf(node: dict) -> dict:
    """The leftmost leaf of a serialized tree."""
    return node if "value" in node else _first_leaf(node["left"])


def _fc_above_o(text: str) -> str:
    """``cells.csv`` text with its first row's ``fc_total`` 5 above ``o_total``."""
    o_total = next(csv.DictReader(io.StringIO(text)))["o_total"]
    return _set_csv_field(text, "fc_total", str(int(o_total) + 5))


def _set_csv_field(text: str, column: str, value: str) -> str:
    """``text`` with ``column`` of its first data row set to ``value``."""
    rows = list(csv.reader(io.StringIO(text)))
    rows[1][rows[0].index(column)] = value
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


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

    def test_config_file_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"days": 3, "workspace": "caf\xe9"}')
        code, _, err = run_cli(["ingest", "--config", str(path)])
        assert code == 3, err
        assert json.loads(err)["kind"] == "config"

    def test_config_file_is_a_directory(self, tmp_path):
        code, _, err = run_cli(["ingest", "--config", str(tmp_path)])
        assert code == 3, err
        assert json.loads(err) == {"kind": "config", "error": f"config file not found: {tmp_path}"}

    def test_degenerate_bbox_rejected(self):
        with pytest.raises(ConfigError, match="degenerate"):
            load_config(_args(set=["bbox=[3.0, 1.0, 3.0, 2.0]"]))

    def test_bad_target(self):
        with pytest.raises(ConfigError, match="FCR/LCR/DSR/ASR"):
            load_config(_args(set=["target=XYZ"]))

    def test_targets_are_the_grid_ratios(self):
        # cli names the targets without importing hexgrid, which defines them
        assert set(TARGETS) == {r.upper() for r in hexgrid.RATIOS}

    def test_bad_classifier_threshold(self):
        with pytest.raises(ConfigError, match="cost_ratio"):
            load_config(_args(set=["classifier.cost_ratio=7"]))

    def test_section_set_in_part(self):
        """A section that ``--set`` replaces with an object reads each key
        the object lacks as its default."""
        cfg = load_config(_args(set=['classifier={"walk_threshold_m": 300}',
                                     'elasticity.values={"walk_threshold_m": [300, 400]}']))
        assert cfg.classifier() == ClassifierConfig(walk_threshold_m=300.0)
        assert cfg.data["elasticity"]["values"] == {
            **DEFAULTS["elasticity"]["values"], "walk_threshold_m": [300, 400]}


# sha256 of the ingest, plan, classify, gridify, features, train, elasticity
# and report artifacts and of the synthetic city's files in the fixture workspace
GOLDEN_ARTIFACTS = {
    "trips_clean.csv": "2dd12d397bbab8d517a2e986d88fb462a7e09948bc0aa185decb0171bac5379d",
    "rejections.csv": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "iqr_report.csv": "66f35f88b95d5a08ded25925015d373cb808877edfb2d00044153dd78f13d84e",
    "classified.csv": "78361797b31a1751df03d986ce26731cb8e43d28476140bb151c62e1b6137750",
    "summary.json": "708a3a306f385e91723799fe3826153998c6041f844fbf618ce652fbb329d148",
    "alternatives.jsonl": "4da19f7c16d910d5dceb0e9eab9319780ac23d2d50c9879378de1874f8586ab5",
    "cells.csv": "a41e5602a705ad0d77e2a3746f9a18e4a2ae15f5762732403a981e5a962f6bf9",
    "cells.geojson": "e68bedf2d778dfa9b3c640bd37af554dddcd63e2e5e2ea51d18b1812a393c2ab",
    "od_flows.csv": "fd333b207bf17372118a98b9dd60c92a9cb79b85edfe3bacae546a98abf83e06",
    "temporal.csv": "5bcd6b51b18d92791cfe01be9b854641c279a5defa5bb902b62a42b89395029b",
    "trip_stats.json": "8a7404ccda575aa78f3d1176facfe21f401d46230a17fb85ce4854f08532bec5",
    "breakdown.json": "5f5885ac1e8bf5865a895633311ff46940293cc67da8f5e286c0ca7a36d77dc7",
    "features.csv": "42639430edc4e4ea6170dae8fd2d54c8e3dc0bde0688d6147f3c1c218be7ffd9",
    "features_schema.json": "b1435e52f789a446da31fdd134c39a6c58caefd27474721012bbf996d211986f",
    "vif_report.json": "1d59b26aca70213eb9e66a34239e6bd4fb578a0a828b90442f31a29a158f7930",
    "model.json": "2c667d118f96135da00d8021a81268a03d0af803243a3eb0a94f81980429a4b8",
    "trials.csv": "381042de525ece18ea020343d79d721a4bb43cf51a2c1dd652dd734c6453b8e4",
    "elasticity.csv": "f1ed0942b395d555f7ac0c09e10260ca83b2461b372343daa4539aae60e17aad",
    "elasticity_time_gate_min.svg": "b617ca724b4e0b98de07c348a8c59d9be9da4256a935952d869a7d78a256a4b4",
    "elasticity_walk_threshold_m.svg": "7ddddb9860d11659c90acc891acbb143845725ef35cad5ae17016a06c7257110",
    "report/shares.svg": "86835fcb818a99b940c5e9d7f9f4e7541639f2d87c9de3bab6d765a51c11464f",
    "report/temporal.svg": "44230bdcd64702a1019431e5be8a9f9e19f6e9e8b593e22c017aa62bdaa94aec",
    "city/trips.csv": "2dd12d397bbab8d517a2e986d88fb462a7e09948bc0aa185decb0171bac5379d",
    "city/ground_truth.csv": "87df2d02c2b6aa6ea1b79d8fff60f4d0b2572bcd881837ca3cd91dd31cc57df0",
    "city/stations.csv": "0e3c3b7afe271656da088a7171a2dd7de39d2acfc719542ee7e4446fbc5cab54",
    "city/routes.csv": "1fdb5e2d5a387ce2389b8e9e6f7c63cadae32b8c9214ff7d0118678c960551d1",
    "city/fares.json": "46b3708ce35ca88b5c04a7b910c0c72022462eef13ae4da0cd9289cf8d39eb8a",
    "city/poi.csv": "fc9441a13ec499065f856041974a86e9ca57dc07bde83f7afbb9656225b255ab",
    "city/population.csv": "fa69b92b863ef88e3b664a4887b9c247034ef6fa7f9af701baa2d2e0e6bbb2ca",
    "city/roads.geojson": "45635d21b7db60de6f0cc1b091072621a641952d82fe30c117d3bee8eb6d6424",
    "city/scenario.json": "31754e2583d02595f55ac5b460712e78f92c7f3e01dda55441057a912056d97d",
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

    def test_elasticity_reads_only_classify_and_plan(self, pipeline, tmp_path):
        ws, config_path, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        for name in ("trips_clean.csv", "city/stations.csv", "city/routes.csv",
                     "city/fares.json", "elasticity.csv", "elasticity_time_gate_min.svg",
                     "elasticity_walk_threshold_m.svg"):
            (copy / name).unlink()
        code, _, err = run_cli(["elasticity", "--config", str(config_path),
                                "--workspace", str(copy)])
        assert code == 0, err
        for name in ("elasticity.csv", "elasticity_time_gate_min.svg",
                     "elasticity_walk_threshold_m.svg"):
            assert (copy / name).read_bytes() == (ws / name).read_bytes(), name

    def test_plan_echo_counts_expanded_states(self, pipeline, tmp_path):
        ws, config_path, echoes = pipeline
        expanded = echoes["plan"]["states_expanded"]
        # pinned: the count is a sum of per-trip searches, so a change to the
        # planning order or to the blocks that alters the search work fails here
        assert expanded == 2215
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        code, out, _ = run_cli(["plan", "--config", str(config_path),
                                "--workspace", str(copy)])
        assert code == 0
        assert json.loads(out)["states_expanded"] == expanded
        assert not any("states_expanded" in path.read_text(errors="replace")
                       for path in copy.rglob("*") if path.is_file())

    def test_gridify_echo_counts_off_grid_trip_ends(self, pipeline, tmp_path, monkeypatch):
        ws, config_path, echoes = pipeline
        cfg = load_config(_args(config=str(config_path)))
        trips = as_records(read_classified(str(ws / "classified.csv"), cfg.bbox())[0])

        def off_grid(grid):
            """Off-grid origins and destinations, one scalar oracle call per end."""
            return [sum(oracle_locate(grid, lon, lat) is OFF_GRID for lon, lat in ends)
                    for ends in ([(t.olon, t.olat) for t in trips],
                                 [(t.dlon, t.dlat) for t in trips])]

        # pinned: every trip end lies in the bbox, which the grid covers
        echo = echoes["gridify"]
        counts = off_grid(hexgrid.build_grid(cfg.bbox(), cfg.data["grid"]["side_km"]))
        assert [echo["off_grid_origins"], echo["off_grid_destinations"]] == counts == [0, 0]
        # a grid over the bbox's west half leaves trip ends off it
        build = hexgrid.build_grid
        half = {}

        def west_half(bbox, side_km):
            lon_min, lat_min, lon_max, lat_max = bbox
            half["grid"] = build((lon_min, lat_min, (lon_min + lon_max) / 2, lat_max), side_km)
            return half["grid"]

        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        monkeypatch.setattr(hexgrid, "build_grid", west_half)
        code, out, err = run_cli(["gridify", "--config", str(config_path), "--workspace", str(copy)])
        assert code == 0, err
        echo = json.loads(out)
        counts = off_grid(half["grid"])
        assert [echo["off_grid_origins"], echo["off_grid_destinations"]] == counts
        assert min(counts) > 0
        assert not any("off_grid" in path.read_text(errors="replace")
                       for path in copy.rglob("*") if path.is_file())

    def test_stages_call_the_traced_table_functions(self, pipeline, tmp_path, monkeypatch):
        """``plan`` saves the journey table once; ``classify`` loads it once and
        looks up each trip; ``elasticity`` loads it once and looks up each trip
        whose trace reaches C3. The benchmark's ``ptnet.cache_save``,
        ``ptnet.cache_load`` and ``ptnet.cached_plan`` layers time these three
        functions, so a stage that stops calling one leaves its layer at 0."""
        from ridelink.classify import read_classified, trace

        ws, config_path, echoes = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        calls = Counter()
        for name in ("save", "load", "plan"):
            def counted(*args, _name=name, _inner=getattr(ptnet.CachedPlanner, name)):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(ptnet.CachedPlanner, name, counted)

        def run(stage):
            calls.clear()
            code, _, err = run_cli([stage, "--config", str(config_path),
                                    "--workspace", str(copy)])
            assert code == 0, err
            return dict(calls)

        trips = echoes["classify"]["trips"]
        assert run("plan") == {"save": 1}
        assert run("classify") == {"load": 1, "plan": trips}
        bbox = json.loads((copy / "city" / "scenario.json").read_text())["bbox"]
        _, results = read_classified(str(copy / "classified.csv"), bbox)
        reaching = sum("C3" in trace(*r[:2]) for r in zip(*results))
        assert 0 < reaching < trips
        assert run("elasticity") == {"load": 1, "plan": reaching}

    def test_stages_call_the_traced_trip_codecs(self, pipeline, tmp_path, monkeypatch):
        """Each stage reads its trip file with one call and ``ingest`` and
        ``classify`` write theirs with one. The benchmark's
        ``ingest.parse_trips``, ``ingest.write_trips``,
        ``classify.read_classified`` and ``classify.write_classified`` layers
        time these four functions, so a stage that stops calling one leaves
        its layer at 0."""
        from ridelink import classify, ingest

        ws, config_path, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        calls = Counter()
        for module, name in ((ingest, "parse_trips"), (ingest, "write_trips"),
                             (classify, "read_classified"), (classify, "write_classified")):
            def counted(*args, _name=name, _inner=getattr(module, name)):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(module, name, counted)

        def run(stage):
            calls.clear()
            code, _, err = run_cli([stage, "--config", str(config_path),
                                    "--workspace", str(copy)])
            assert code == 0, err
            return dict(calls)

        assert run("ingest") == {"parse_trips": 1, "write_trips": 1}
        assert run("plan") == {"parse_trips": 1}
        assert run("classify") == {"parse_trips": 1, "write_classified": 1}
        for stage in ("gridify", "features", "elasticity"):
            assert run(stage) == {"read_classified": 1}, stage

    def test_gridify_locates_each_trip_end_once(self, pipeline, tmp_path, monkeypatch):
        """``gridify`` locates every origin with one ``hexgrid.locate`` call and
        every destination with another, and hands the rows to both the cell
        counts and the flows. The benchmark's ``hexgrid.locate`` layer counts
        these calls."""
        ws, config_path, echoes = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        located = []

        def counted(grid, lon, lat, _inner=hexgrid.locate):
            located.append(len(lon))
            return _inner(grid, lon, lat)

        monkeypatch.setattr(hexgrid, "locate", counted)
        code, _, err = run_cli(["gridify", "--config", str(config_path), "--workspace", str(copy)])
        assert code == 0, err
        trips = echoes["gridify"]["trips"]
        assert located == [trips, trips]
        for name in ("cells.csv", "cells.geojson", "od_flows.csv"):
            assert (copy / name).read_bytes() == (ws / name).read_bytes(), name

    def test_explain_calls_the_traced_layers(self, pipeline, tmp_path, monkeypatch):
        """``explain`` attributes, draws curves and exports with one call
        each, and reads every live tree's leaf paths twice: once for the
        attributions and once for the curves. The benchmark's
        ``explain.shap_values``, ``explain.leaf_paths`` and
        ``explain.export_plots`` layers wrap these functions, so a stage that
        stops calling one leaves its layer at 0."""
        ws, config_path, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        calls = Counter()
        for name in ("shap_values", "pdp_curves", "export_plots", "_leaf_paths"):
            def counted(*args, _name=name, _inner=getattr(explain, name), **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)
            monkeypatch.setattr(explain, name, counted)
        code, _, err = run_cli(["explain", "--config", str(config_path),
                                "--workspace", str(copy)])
        assert code == 0, err
        live = sum(gamma != 0.0 for gamma in boost.load_model(str(copy / "model.json")).gammas)
        assert live > 0
        assert dict(calls) == {"shap_values": 1, "pdp_curves": 1, "export_plots": 1,
                               "_leaf_paths": 2 * live}

    def test_request_after_pickup_is_rejected(self, pipeline, tmp_path):
        """A request time after pickup would read as a negative wait in
        ``features.csv``; ``ingest`` rejects the row instead."""
        ws, config_path, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        trips = copy / "city" / "trips.csv"
        with open(trips, newline="") as handle:
            rows = list(csv.reader(handle))
        at = rows[0].index("request_time")
        for row in rows[1:]:
            row[at] = "2022/9/30 23:59"
        with open(trips, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        code, _, err = run_cli(["ingest", "--config", str(config_path),
                                "--workspace", str(copy)])
        assert code == 2, err
        assert "population too small" in json.loads(err)["error"]

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

    def test_reread_traces_match_the_classifier(self, pipeline):
        from ridelink.classify import classify_all, read_classified, trace
        from ridelink.ingest import parse_trips
        from ridelink.ptnet import CachedPlanner, load_network, station_lexicon

        ws, _, _ = pipeline
        bbox = json.loads((ws / "city" / "scenario.json").read_text())["bbox"]
        trips, _ = parse_trips(str(ws / "trips_clean.csv"), bbox)
        net = load_network(*(str(ws / "city" / name)
                             for name in ("stations.csv", "routes.csv", "fares.json")))
        cache = CachedPlanner.load(str(ws / "alternatives.jsonl"))
        results, _ = classify_all(trips, cache, net, station_lexicon(net))
        _, reread = read_classified(str(ws / "classified.csv"), bbox)
        assert [trace(*r[:2]) for r in zip(*reread)] == [trace(*r[:2]) for r in zip(*results)]
        assert {len(trace(*r[:2])) for r in zip(*results)} == {1, 2, 3, 4, 5, 6}

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

    def test_explain_echo_counts_leaf_boxes(self, pipeline):
        ws, _, echoes = pipeline
        model = boost.load_model(str(ws / "model.json"))
        # one row of the leaf-box table per reachable leaf of each live tree
        boxes = sum(len(explain._leaf_paths(tree))
                    for tree, gamma in zip(model.trees, model.gammas) if gamma != 0.0)
        assert echoes["explain"]["leaf_boxes"] == boxes > 0
        assert not any("leaf_boxes" in path.read_text(errors="replace")
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


class TestRetiredExplainMode:
    """``explain.mode`` is no longer a setting: there is one attribution
    route, and a stray key, set on the command line or in the environment,
    is an unknown key like any other and changes nothing. So is a stray key
    in ``classifier`` or ``planner``."""

    def test_mode_key_changes_nothing(self, pipeline, tmp_path, monkeypatch):
        ws, config_path, echoes = pipeline
        assert set(echoes["explain"]) == {"command", "samples", "background",
                                          "leaf_boxes", "pdp_tree_rows", "files"}
        trees = {}
        for name, extra, env in (("plain", [], None),
                                 ("set", ["--set", "explain.mode=exact"], None),
                                 ("env", [], "exact")):
            copy = tmp_path / name
            shutil.copytree(ws, copy)
            if env is None:
                monkeypatch.delenv("RIDELINK_EXPLAIN__MODE", raising=False)
            else:
                monkeypatch.setenv("RIDELINK_EXPLAIN__MODE", env)
            code, out, err = run_cli(["explain", "--config", str(config_path),
                                      "--workspace", str(copy)] + extra)
            assert code == 0, f"{name} failed: {err}"
            assert set(json.loads(out)) == set(echoes["explain"])
            trees[name] = {path.relative_to(copy).as_posix(): path.read_bytes()
                           for path in sorted((copy / "explain").rglob("*"))
                           if path.is_file()}
        assert trees["plain"]
        assert trees["plain"] == trees["set"] == trees["env"]

    @pytest.mark.parametrize("stage, key", [("classify", "classifier.foo"),
                                            ("elasticity", "classifier.foo"),
                                            ("plan", "planner.foo")])
    def test_unknown_key_changes_nothing(self, pipeline, tmp_path, stage, key):
        ws, config_path, _ = pipeline
        trees = {}
        for name, extra in (("plain", []), ("set", ["--set", f"{key}=1"])):
            copy = tmp_path / name
            shutil.copytree(ws, copy)
            code, _, err = run_cli([stage, "--config", str(config_path),
                                    "--workspace", str(copy)] + extra)
            assert code == 0, f"{name} failed: {err}"
            trees[name] = {path.relative_to(copy).as_posix(): path.read_bytes()
                           for path in sorted(copy.rglob("*")) if path.is_file()}
        assert trees["plain"] == trees["set"]


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

    def test_grid_over_the_cell_cap(self, pipeline):
        # 1e-9 km sides would walk about 1e20 cells: refused before the walk
        _, config_path, _ = pipeline
        proc = subprocess.run(
            [sys.executable, "-m", "ridelink", "gridify", "--config", str(config_path),
             "--set", "grid.side_km=1e-9"], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3, proc.stderr
        doc = json.loads(proc.stderr)
        assert doc["kind"] == "config"
        assert "grid.side_km" in doc["error"] and "bbox" in doc["error"]

    @pytest.mark.parametrize("stage", ["plan", "gridify"])
    @pytest.mark.parametrize("files, missing", [
        ({"routes.csv": ""}, "id, line_id, mode, station_ids"),
        ({"routes.csv": "id,mode\n"}, "line_id, station_ids, headway_min"),
        ({"stations.csv": ",".join(ptnet.STATION_COLUMNS) + "\n",
          "routes.csv": ",".join(ptnet.ROUTE_COLUMNS) + "\n"}, None),
    ], ids=["routes_zero_bytes", "routes_two_columns", "both_header_only"])
    def test_network_without_its_columns_or_routes(self, pipeline, tmp_path, stage, files,
                                                   missing):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        for name, text in files.items():
            (copy / "city" / name).write_text(text)
        code, out, err = run_cli([stage, "--workspace", str(copy)])
        assert code == 2, err
        error = json.loads(err)["error"]
        routes = str(copy / "city" / "routes.csv")
        if missing:
            assert f"{routes} lacks the column(s) {missing}" in error
        else:
            assert f"{routes} has no routes" in error
        assert out == ""

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
            assert setting.split("=")[0] in json.loads(proc.stderr)["error"]
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

    # every stage checks every setting, so classify also refuses a bad
    # planner, grid or days value; a bool or a string is never a number
    @pytest.mark.parametrize("setting", ["classifier.walk_threshold_m=NaN",
                                         "classifier.time_gate_min=Infinity",
                                         "classifier.time_ratio=NaN",
                                         "classifier.walk_threshold_m=true",
                                         "planner.search_radius_m=true",
                                         "grid.side_km=true", 'grid.side_km="0.5"',
                                         "grid.side_km=1e308",
                                         "days=true",
                                         pytest.param("days=1" + "0" * 400, id="days=10^400")])
    def test_non_finite_thresholds_rejected(self, pipeline, setting):
        _, config_path, _ = pipeline
        code, _, err = run_cli(["classify", "--config", str(config_path), "--set", setting])
        assert code == 3, err
        doc = json.loads(err)
        assert doc["kind"] == "config"
        assert setting.split("=")[0] in doc["error"]

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

    @pytest.mark.parametrize("label, station, both", [
        ("first_mile_complementary", "", "false"), ("last_mile_complementary", "", "false"),
        ("last_mile_complementary", None, "true"), ("substitutive", "m", "false"),
        ("independent", "m", "false"), ("independent", "", "true"),
    ], ids=["first_mile_without_station", "last_mile_without_station", "both_ends_on_last_mile",
            "station_on_substitutive", "station_on_independent", "both_ends_on_independent"])
    @pytest.mark.parametrize("stage", ["gridify", "features", "elasticity"])
    def test_classified_row_that_does_not_fit_its_label(self, pipeline, tmp_path, label,
                                                         station, both, stage):
        """A complementary row without a station, a station on any other row,
        or both ends on a row that is not first-mile is refused at its line:
        ``classify`` never writes one, and ``gridify`` would count the trip in
        the cells but not in the breakdown. ``None`` keeps the row's station;
        ``"m"`` puts a station of the network on it."""
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        path = copy / "classified.csv"
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        header = rows[0]
        at = {name: header.index(name) for name in ("label", "matched_station", "both_ends_station")}
        line, row = next((n, r) for n, r in enumerate(rows[1:], start=2) if r[at["label"]] == label)
        named = next(r[at["matched_station"]] for r in rows[1:] if r[at["matched_station"]])
        if station is not None:
            row[at["matched_station"]] = named if station == "m" else station
        row[at["both_ends_station"]] = both
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        code, _, err = run_cli([stage, "--workspace", str(copy)])
        assert code == 2, err
        error = json.loads(err)["error"]
        assert f"line {line} " in error and f"do not fit label '{label}'" in error
        assert "re-run 'classify'" in error

    @pytest.mark.parametrize("case", ["nan_coordinate", "dropoff_not_after_pickup",
                                      "wrong_column_count", "outside_bbox",
                                      "unknown_failed_condition", "condition_on_a_feeder",
                                      "both_ends_not_boolean"])
    @pytest.mark.parametrize("stage", ["gridify", "features", "elasticity"])
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
        elif case == "unknown_failed_condition":
            row[header.index("label")] = "independent"
            row[header.index("failed_condition")] = "C9"
        elif case == "condition_on_a_feeder":
            row[header.index("label")] = "first_mile_complementary"
            row[header.index("failed_condition")] = "C3"
        elif case == "both_ends_not_boolean":
            row[header.index("both_ends_station")] = "yes"
        else:
            lon_max = json.loads((copy / "city" / "scenario.json").read_text())["bbox"][2]
            row[header.index("dlon")] = repr(lon_max + 0.5)
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        code, _, err = run_cli([stage, "--workspace", str(copy)])
        assert code == 2, err
        error = json.loads(err)["error"]
        assert "line 4 " in error and "re-run 'classify'" in error

    @pytest.mark.parametrize("stage", ["plan", "classify"])
    def test_headerless_clean_trips(self, pipeline, tmp_path, stage):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        (copy / "trips_clean.csv").write_text("")
        code, _, err = run_cli([stage, "--workspace", str(copy)])
        assert code == 2, err
        assert "re-run 'ingest'" in json.loads(err)["error"]

    @pytest.mark.parametrize("stage", ["plan", "classify"])
    def test_rejected_clean_trip_names_its_line(self, pipeline, tmp_path, stage):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        path = copy / "trips_clean.csv"
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        for row in (rows[3], rows[5]):  # lines 4 and 6
            row[rows[0].index("olat")] = "nan"
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        code, out, err = run_cli([stage, "--workspace", str(copy)])
        assert code == 2, err
        error = json.loads(err)["error"]
        assert str(path) in error and "2 unreadable rows" in error
        assert "line 4:" in error and "re-run 'ingest'" in error
        assert out == ""

    @pytest.mark.parametrize("stage", ["gridify", "features", "elasticity"])
    def test_headerless_classified(self, pipeline, tmp_path, stage):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        (copy / "classified.csv").write_text("")
        code, _, err = run_cli([stage, "--workspace", str(copy)])
        assert code == 2, err
        assert "re-run 'classify'" in json.loads(err)["error"]

    @pytest.mark.parametrize("extra", [
        ["--set", "elasticity.values=5"],
        ["--set", "elasticity.parameters=5"],
        ["--parameter", "walk_threshold_m", "--parameter", "walk_threshold_m"],
        ["--set", 'elasticity.parameters=["time_gate_min","walk_threshold_m","time_gate_min"]'],
        ["--set", 'elasticity.values.cost_ratio="abc"'],
        ["--set", 'elasticity.values={"walk_threshold_m":[300]}'],
    ], ids=["values_not_a_map", "parameters_not_a_list", "flag_repeated", "config_repeated",
            "unswept_values_text", "values_in_part_without_baseline"])
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

    @pytest.mark.parametrize("stage, assignment", [
        ("ingest", "paths.trips=5"),
        ("gridify", 'paths.districts=["a"]'),
        ("ingest", "train.trials=abc"),
    ], ids=["trips_path_number", "districts_path_list", "other_stage_section"])
    def test_setting_checked_in_every_stage(self, pipeline, tmp_path, stage, assignment):
        ws, config_path, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        proc = subprocess.run(
            [sys.executable, "-m", "ridelink", stage, "--config", str(config_path),
             "--workspace", str(copy), "--set", assignment],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3, proc.stderr
        doc = json.loads(proc.stderr)
        assert doc["kind"] == "config"
        assert assignment.split("=")[0] in doc["error"]

    @pytest.mark.parametrize("stage, assignment", [
        ("classify", 'classifier={"walk_threshold_m":300}'),
        ("elasticity", 'elasticity.values={"walk_threshold_m":[300,400],"time_gate_min":[10,15]}'),
    ], ids=["classifier", "elasticity_values"])
    def test_section_set_in_part_runs(self, pipeline, tmp_path, stage, assignment):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        code, _, err = run_cli([stage, "--workspace", str(copy), "--set", assignment])
        assert code == 0, err

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

    def test_alternatives_missing_a_swept_trip(self, pipeline, tmp_path):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        with open(ws / "classified.csv", newline="") as handle:
            swept = next(row for row in csv.DictReader(handle) if row["label"] == "substitutive")
        key = [float(swept[c]) for c in ("olon", "olat", "dlon", "dlat")]
        path = copy / "alternatives.jsonl"
        lines = path.read_text().splitlines()
        kept = [line for line in lines if json.loads(line)["key"] != key]
        assert len(kept) == len(lines) - 1
        path.write_text("\n".join(kept) + "\n")
        code, out, err = run_cli(["elasticity", "--workspace", str(copy)])
        assert code == 2, err
        error = json.loads(err)["error"]
        assert "does not cover the trip set" in error and "re-run 'plan'" in error
        assert out == ""

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

    @pytest.mark.parametrize("assignment", [
        'synth.first_mile="x"', "synth.first_mile=1.5", "synth.first_mile=true",
        "synth.metro_spacing_km=NaN", "synth.half_extent_km=1" + "0" * 400,
        "synth.days=2.5", "synth.seed=-5", "synth.poi_count=-1", "synth.metro_speed_kmh=0",
        "synth.bus_headway_min=-1", "synth.population_pitch_km=0",
        "synth.anchor_lat=95", "synth.anchor_lat=-90.5", "synth.anchor_lon=180.5",
        "synth.anchor_lon=-200", "synth.anchor_lat=90", "synth.anchor_lat=89.95",
        "synth.anchor_lat=-89.95", "synth.anchor_lon=179.99", "synth.anchor_lon=-179.99",
        "synth.half_extent_km=20000", "synth.days=1" + "0" * 400,
        "synth.poi_count=1" + "0" * 400, "synth.first_mile=1" + "0" * 400,
        "synth.metro_spacing_km=1e308", "synth.population_pitch_km=1e-6",
        "synth.half_extent_km=5000"],
        ids=["count_text", "count_float", "count_bool", "distance_nan", "distance_over_float",
             "days_float", "seed_negative", "poi_count_negative", "speed_zero",
             "headway_negative", "pitch_zero", "lat_over_pole", "lat_under_pole",
             "lon_over_antimeridian", "lon_under_antimeridian", "lat_at_pole",
             "box_over_north_pole", "box_under_south_pole", "box_over_antimeridian",
             "box_under_antimeridian", "box_around_the_globe", "days_over_int64",
             "poi_count_over_int64", "count_over_int64", "spacing_to_infinite_stations",
             "raster_too_fine", "street_grid_too_wide"])
    def test_bad_synth_setting(self, tmp_path, assignment):
        ws = tmp_path / "w"
        code, _, err = run_cli(["synth", "--workspace", str(ws), "--set", assignment])
        assert code == 3, err
        doc = json.loads(err)
        assert doc["kind"] == "config"
        assert assignment.split("=")[0].split(".")[1] in doc["error"]
        assert not (ws / "city").exists()


    def test_train_counts_must_be_integers(self, pipeline):
        _, config_path, _ = pipeline
        for setting in ("train.trials=abc", "train.folds=abc",
                        'train.space={"ordered_segments": 1.5}',
                        'train.space={"depth": [true, 2]}'):
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
        (["--set", 'ingest.columns={"olng": "x"}'], {}),
        (["--set", 'ingest.columns={"request_time": "pickup_time"}'], {}),
        (["--set", 'ingest.columns={"plate_id": "request_time"}'], {}),
        (["--set", 'ingest.columns={"olon": "olat"}'], {}),
        (["--set", "ingest.iqr_k=abc"], {}),
        (["--set", "ingest.iqr_k=-1"], {}),
        (["--set", "ingest.iqr_k=NaN"], {}),
        (["--iqr-k", "inf"], {}),
        (["--set", "ingest.iqr_k=1" + "0" * 400], {}),
        ([], {"RIDELINK_INGEST__PER_DAY": "no"}),
    ], ids=["columns_number", "columns_list", "columns_value_number", "columns_unknown_field",
            "columns_request_on_pickup", "columns_plate_on_request", "columns_two_on_one",
            "iqr_k_text",
            "iqr_k_negative", "iqr_k_nan", "iqr_k_flag_inf", "iqr_k_over_float",
            "per_day_env_no"])
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
    def test_header_only_features(self, pipeline, tmp_path, stage):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        path = copy / "features.csv"
        path.write_text(path.read_text().splitlines(keepends=True)[0])
        argv = [stage, "--workspace", str(copy)] + (["--seed", "7"] if stage == "train" else [])
        code, out, err = run_cli(argv)
        assert code == 2, err
        doc = json.loads(err)
        assert doc["kind"] == "input"
        if stage == "explain":
            assert str(path) in doc["error"] and "re-run 'features'" in doc["error"]
        assert out == ""

    def test_roads_position_with_one_number(self, pipeline, tmp_path):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        path = copy / "city" / "roads.geojson"
        doc = json.loads(path.read_text())
        doc["features"][0]["geometry"]["coordinates"][0] = [121.0]
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["features", "--workspace", str(copy)])
        assert code == 2, err
        doc = json.loads(err)
        assert doc["kind"] == "input"
        assert str(path) in doc["error"]
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

    @pytest.mark.parametrize("value", [10 ** 400, True], ids=["over_float", "bool"])
    def test_roads_vertex_not_a_float_names_feature(self, pipeline, tmp_path, value):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        path = copy / "city" / "roads.geojson"
        doc = json.loads(path.read_text())
        doc["features"][1]["geometry"]["coordinates"][-1][0] = value
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["features", "--workspace", str(copy)])
        assert code == 2, err
        error = json.loads(err)["error"]
        assert str(path) in error and "feature 1" in error
        assert out == ""

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
        *(json.dumps({"type": "FeatureCollection", "features": [{
            "type": "Feature", "properties": {"name": "west"},
            "geometry": {"type": "Polygon", "coordinates": [
                [[121.0, 31.0], [lon, 31.0], [121.05, 31.05], [121.0, 31.0]]]}}]})
          for lon in (10 ** 400, "121.05")),
    ], ids=["invalid_json", "top_level_list", "one_number_vertex", "vertex_over_float",
            "string_vertex"])
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

    def test_district_altitudes_are_ignored(self, pipeline, tmp_path):
        # a position is lon, lat and an optional altitude (RFC 7946 3.1.1)
        ws, _, _ = pipeline
        lon_min, lat_min, lon_max, lat_max = json.loads(
            (ws / "city" / "scenario.json").read_text())["bbox"]
        mid = (lon_min + lon_max) / 2
        rings = {"west": [[lon_min - 1, lat_min - 1], [mid, lat_min - 1], [mid, lat_max + 1]],
                 "east": [[mid, lat_min - 1], [lon_max + 1, lat_min - 1], [mid, lat_max + 1]]}
        flows = []
        for name, extra in (("flat", []), ("altitude", [12.5])):
            copy = tmp_path / name
            shutil.copytree(ws, copy)
            path = tmp_path / f"{name}.geojson"
            path.write_text(json.dumps({"type": "FeatureCollection", "features": [{
                "type": "Feature", "properties": {"name": district},
                "geometry": {"type": "Polygon", "coordinates": [
                    [p + extra for p in ring + ring[:1]]]}} for district, ring in rings.items()]}))
            code, _, err = run_cli(["gridify", "--workspace", str(copy),
                                    "--set", f"paths.districts={path}"])
            assert code == 0, err
            flows.append((copy / "od_flows.csv").read_text())
        assert flows[0] == flows[1]
        assert "\ndistrict," in flows[0]

    def test_null_district_properties_and_geometry(self, pipeline, tmp_path):
        # RFC 7946 3.2: a feature's "properties" and "geometry" may be null;
        # a null name falls back to the default and a null geometry is skipped
        ws, _, _ = pipeline
        lon_min, lat_min, lon_max, lat_max = json.loads(
            (ws / "city" / "scenario.json").read_text())["bbox"]
        mid = (lon_min + lon_max) / 2
        rings = [[[lon_min - 1, lat_min - 1], [mid, lat_min - 1], [mid, lat_max + 1]],
                 [[mid, lat_min - 1], [lon_max + 1, lat_min - 1], [mid, lat_max + 1]]]
        flows = []
        for name, properties, extra in (("named", [{"name": "d0"}, {"name": "d1"}], []),
                                        ("null", [None, None],
                                         [{"type": "Feature", "properties": None,
                                           "geometry": None}])):
            copy = tmp_path / name
            shutil.copytree(ws, copy)
            path = tmp_path / f"{name}.geojson"
            path.write_text(json.dumps({"type": "FeatureCollection", "features": extra + [{
                "type": "Feature", "properties": props,
                "geometry": {"type": "Polygon", "coordinates": [ring + ring[:1]]}}
                for props, ring in zip(properties, rings)]}))
            code, _, err = run_cli(["gridify", "--workspace", str(copy),
                                    "--set", f"paths.districts={path}"])
            assert code == 0, err
            flows.append((copy / "od_flows.csv").read_text())
        assert flows[0] == flows[1]
        assert "\ndistrict,d0,d1," in flows[0]

    def test_null_road_properties_and_geometry(self, pipeline, tmp_path):
        # RFC 7946 3.2: a null "properties" reads as none set (no highway flag)
        # and a feature with a null geometry is skipped
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        roads = copy / "city" / "roads.geojson"
        doc = json.loads(roads.read_text())
        street = next(f for f in doc["features"] if not f["properties"].get("highway"))
        street["properties"] = None
        doc["features"].append({"type": "Feature", "properties": None, "geometry": None})
        roads.write_text(json.dumps(doc))
        code, _, err = run_cli(["features", "--workspace", str(copy)])
        assert code == 0, err
        assert (copy / "features.csv").read_bytes() == (ws / "features.csv").read_bytes()

    def test_multipolygon_districts(self, pipeline, tmp_path):
        # RFC 7946 3.1.7: a MultiPolygon holds a district's parts; a cell
        # belongs to it when its centre lies in any part's outer ring
        ws, _, _ = pipeline
        lon_min, lat_min, lon_max, lat_max = json.loads(
            (ws / "city" / "scenario.json").read_text())["bbox"]
        mid_lon, mid_lat = (lon_min + lon_max) / 2, (lat_min + lat_max) / 2

        def box(w, s, e, n):
            return [[w, s], [e, s], [e, n], [w, n], [w, s]]

        west = box(lon_min - 1, lat_min - 1, mid_lon, lat_max + 1)
        east = box(mid_lon, lat_min - 1, lon_max + 1, lat_max + 1)
        # the west half as two parts split at the middle latitude
        west_parts = [box(lon_min - 1, lat_min - 1, mid_lon, mid_lat),
                      box(lon_min - 1, mid_lat, mid_lon, lat_max + 1)]
        flows = []
        for name, geometries in (
                ("single", [("Polygon", [west]), ("Polygon", [east])]),
                ("multi", [("MultiPolygon", [[part] for part in west_parts]),
                           ("MultiPolygon", [[east]])])):
            copy = tmp_path / name
            shutil.copytree(ws, copy)
            path = tmp_path / f"{name}.geojson"
            path.write_text(json.dumps({"type": "FeatureCollection", "features": [{
                "type": "Feature", "properties": {"name": district},
                "geometry": {"type": kind, "coordinates": coordinates}}
                for district, (kind, coordinates) in zip(("west", "east"), geometries)]}))
            code, _, err = run_cli(["gridify", "--workspace", str(copy),
                                    "--set", f"paths.districts={path}"])
            assert code == 0, err
            flows.append((copy / "od_flows.csv").read_text())
        assert flows[0] == flows[1]
        assert flows[0].count("\ndistrict,") == 4

    def test_multilinestring_roads(self, pipeline, tmp_path):
        # RFC 7946 3.1.5: a MultiLineString is read part by part, so each road
        # as a one-part MultiLineString, or one road cut in two parts that share
        # a vertex, builds the same street graph
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        roads = copy / "city" / "roads.geojson"
        doc = json.loads(roads.read_text())
        for feature in doc["features"]:
            coords = feature["geometry"]["coordinates"]
            feature["geometry"] = {"type": "MultiLineString", "coordinates": [coords]}
        longest = max(doc["features"], key=lambda f: len(f["geometry"]["coordinates"][0]))
        (coords,) = longest["geometry"]["coordinates"]
        cut = len(coords) // 2
        assert 0 < cut < len(coords) - 1
        longest["geometry"]["coordinates"] = [coords[:cut + 1], coords[cut:]]
        roads.write_text(json.dumps(doc))
        code, _, err = run_cli(["features", "--workspace", str(copy)])
        assert code == 0, err
        assert (copy / "features.csv").read_bytes() == (ws / "features.csv").read_bytes()
        assert "avg_clustering" in (copy / "features.csv").read_text().splitlines()[0]

    @pytest.mark.parametrize("argv, env, section", [
        (["ingest", "--set", "ingest=5", "--bbox", "0,0,1,1"], {}, "ingest"),
        (["train", "--seed", "7", "--set", "train.space=5"], {}, "train.space"),
        (["plan", "--set", "planner=[1]"], {}, "planner"),
        (["elasticity", "--set", "elasticity.values=null"], {}, "elasticity.values"),
        (["classify"], {"RIDELINK_CLASSIFIER": "5"}, "classifier"),
        (["gridify", "--side-km", "0.5"], {"RIDELINK_GRID": "x"}, "grid"),
        (["gridify"], {"RIDELINK_GRID": "x", "RIDELINK_GRID__SIDE_KM": "1"}, "grid"),
    ], ids=["ingest", "train_space", "planner", "elasticity_values", "env_classifier",
            "env_grid_with_flag", "env_grid_with_its_key"])
    def test_section_that_is_not_an_object(self, tmp_path, monkeypatch, argv, env, section):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        code, _, err = run_cli(argv + ["--workspace", str(tmp_path / "w")])
        assert code == 3, err
        doc = json.loads(err)
        assert doc["kind"] == "config"
        assert doc["error"].startswith(f"{section} must be a JSON object")

    @pytest.mark.parametrize("content", [
        '{"metro_base": NaN}', '{"bus_flat": -2}', '{"bus_fare": 2.0}', "[2.0, 3.0]",
        '{"metro_step_km": 0}', '{"metro_base": 1%s}' % ("0" * 400), '{"metro_base": true}',
    ], ids=["nan_fare", "negative_fare", "unknown_key", "list", "zero_step", "fare_over_float",
            "bool_fare"])
    @pytest.mark.parametrize("stage", ["plan", "classify"])
    def test_invalid_fares_file(self, pipeline, tmp_path, content, stage):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        (copy / "city" / "fares.json").write_text(content)
        code, out, err = run_cli([stage, "--workspace", str(copy)])
        assert code == 2, err
        doc = json.loads(err)
        assert doc["kind"] == "input"
        assert "fares" in doc["error"]
        assert out == ""

    _BAD_NUMBERS = {"string_time": {"t_pt_min": "x"}, "string_transfers": {"transfers": "2"},
                    "nan_walk": {"access_walk_m": float("nan")},
                    "time_over_float": {"t_pt_min": 10 ** 400}}
    # a key coordinate made a JSON number beyond a double, the same number as text, a bool
    _BAD_KEYS = {"key_over_float": lambda v: 10 ** 400, "string_key": repr,
                 "bool_key": lambda v: True}

    @pytest.mark.parametrize("case", ["garbage_line", "repeated_key", "three_number_key",
                                      "alt_missing_fields", *_BAD_NUMBERS, *_BAD_KEYS])
    @pytest.mark.parametrize("stage", ["classify", "elasticity"])
    def test_corrupt_alternatives(self, pipeline, tmp_path, case, stage):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        path = copy / "alternatives.jsonl"
        lines = path.read_text().splitlines()
        if case == "garbage_line":
            lines.append("garbage")
            number = len(lines)
        elif case == "repeated_key":
            lines.append(json.dumps({"key": json.loads(lines[0])["key"],
                                     "alt": {"available": False}}))
            number = len(lines)
        else:
            number = next(i for i, line in enumerate(lines, 1)
                          if json.loads(line)["alt"]["available"])
            entry = json.loads(lines[number - 1])
            if case == "three_number_key":
                entry["key"] = entry["key"][:3]
            elif case == "alt_missing_fields":
                del entry["alt"]["t_pt_min"]
            elif case in self._BAD_KEYS:
                entry["key"][1] = self._BAD_KEYS[case](entry["key"][1])
            else:
                entry["alt"].update(self._BAD_NUMBERS[case])
            lines[number - 1] = json.dumps(entry)
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli([stage, "--workspace", str(copy)])
        assert code == 2, err
        doc = json.loads(err)
        assert doc["kind"] == "input"
        assert f"line {number}:" in doc["error"] and "re-run 'plan'" in doc["error"]
        assert case != "repeated_key" or "repeats an earlier key" in doc["error"]
        assert out == ""

    @pytest.mark.parametrize("stage, name, producer, corrupt", [
        ("explain", "model.json", "train", lambda text: "{}"),
        ("explain", "model.json", "train", lambda text: "not json"),
        ("explain", "model.json", "train", lambda text: re.sub(r'"depth":\d+', '"depth":99', text)),
        ("features", "cells.csv", "gridify", lambda text: _set_csv_field(text, "o_total", "2.5")),
        ("features", "cells.csv", "gridify", lambda text: text.replace("o_total", "o_count", 1)),
        ("report", "cells.csv", "gridify", lambda text: _set_csv_field(text, "o_total", "2.5")),
        ("report", "cells.csv", "gridify", lambda text: text.replace("o_total", "o_count", 1)),
        ("report", "summary.json", "classify", lambda text: "{}"),
        ("report", "summary.json", "classify", lambda text: "not json"),
        ("report", "temporal.csv", "gridify", lambda text: _set_csv_field(text, "hour", "x")),
        ("explain", "model.json", "train", _edit_json(lambda d: d.update(gammas=d["gammas"][:1]))),
        ("explain", "model.json", "train", _edit_json(lambda d: d["trees"].__setitem__(0, {}))),
        ("explain", "model.json", "train", _split_on("f0")),
        ("explain", "model.json", "train", _split_on(99)),
        ("features", "cells.csv", "gridify", lambda text: _set_csv_field(text, "fc_total", "-3")),
        ("features", "cells.csv", "gridify", _fc_above_o),
        ("features", "cells.csv", "gridify", lambda text: _set_csv_field(text, "days", "0")),
        ("report", "cells.csv", "gridify", lambda text: _set_csv_field(text, "fc_total", "-3")),
        ("report", "cells.csv", "gridify", _fc_above_o),
        ("report", "cells.csv", "gridify", lambda text: _set_csv_field(text, "days", "0")),
        ("report", "cells.csv", "gridify", lambda text: _set_csv_field(text, "cell_id", "-nan2,-4")),
        ("report", "cells.csv", "gridify", lambda text: text + text.splitlines()[1] + "\n"),
        ("gridify", "city/scenario.json", "synth", lambda text: "{}"),
        ("gridify", "city/scenario.json", "synth", lambda text: "garbage"),
        ("gridify", "city/scenario.json", "synth", lambda text: "[1,2]"),
        ("features", "city/scenario.json", "synth", lambda text: "{}"),
        ("features", "city/scenario.json", "synth", lambda text: "garbage"),
        ("features", "city/scenario.json", "synth", lambda text: "[1,2]"),
        ("gridify", "city/scenario.json", "synth", lambda text: '{"bbox": "x"}'),
        ("gridify", "city/scenario.json", "synth", lambda text: '{"bbox": [1, 2, 3]}'),
        ("gridify", "city/scenario.json", "synth", lambda text: '{"bbox": [3, 1, 3, 2]}'),
        ("features", "city/scenario.json", "synth", lambda text: '{"bbox": "x"}'),
        ("features", "city/scenario.json", "synth", lambda text: '{"bbox": [1, 2, 3]}'),
        ("features", "city/scenario.json", "synth", lambda text: '{"bbox": [3, 1, 3, 2]}'),
        ("gridify", "city/scenario.json", "synth", lambda text: '{"bbox": "1234"}'),
        ("features", "city/scenario.json", "synth", lambda text: '{"bbox": "1234"}'),
        ("explain", "model.json", "train", _edit_json(lambda d: d.update(f0=10 ** 400))),
        ("explain", "model.json", "train",
         _edit_json(lambda d: d["gammas"].__setitem__(0, 10 ** 400))),
        ("explain", "model.json", "train",
         _edit_json(lambda d: _first_leaf(d["trees"][-1]).update(value=10 ** 400))),
        ("explain", "model.json", "train", _edit_json(
            lambda d: next(t for t in d["trees"] if "feature" in t).update(threshold=10 ** 400))),
    ], ids=["model_empty_object", "model_not_json", "model_depth_99",
            "features_cells_float_count", "features_cells_renamed_column",
            "report_cells_float_count", "report_cells_renamed_column",
            "summary_empty_object", "summary_not_json", "temporal_hour_x",
            "model_one_gamma", "model_empty_node", "model_feature_name", "model_feature_99",
            "features_cells_negative_count", "features_cells_numerator_above_denominator",
            "features_cells_zero_days", "report_cells_negative_count",
            "report_cells_numerator_above_denominator", "report_cells_zero_days",
            "report_cells_id_not_parsed", "report_cells_repeated_id",
            "gridify_manifest_empty_object", "gridify_manifest_not_json",
            "gridify_manifest_list", "features_manifest_empty_object",
            "features_manifest_not_json", "features_manifest_list",
            "gridify_manifest_bbox_string", "gridify_manifest_bbox_three_numbers",
            "gridify_manifest_bbox_degenerate", "features_manifest_bbox_string",
            "features_manifest_bbox_three_numbers", "features_manifest_bbox_degenerate",
            "gridify_manifest_bbox_four_characters", "features_manifest_bbox_four_characters",
            "model_f0_over_float", "model_gamma_over_float", "model_leaf_over_float",
            "model_threshold_over_float"])
    def test_corrupt_artifact_names_its_producer(self, pipeline, tmp_path, stage, name,
                                                 producer, corrupt):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        path = copy / name
        path.write_text(corrupt(path.read_text()))
        code, out, err = run_cli([stage, "--workspace", str(copy)])
        assert code == 2, err
        doc = json.loads(err)
        assert doc["kind"] == "input"
        assert str(path) in doc["error"] and f"re-run '{producer}'" in doc["error"]
        assert out == ""

    # one field past csv's default limit of 131,072 characters
    _LONG_FIELD = b"x" * 131_073 + b"\n"

    # byte-level corruptions that once escaped every reader's except clause
    @pytest.mark.parametrize("stage, name, producer, tail", [
        ("ingest", "city/trips.csv", None, b"\xff\xfe\n"),
        ("ingest", "city/trips.csv", None, _LONG_FIELD),
        ("plan", "trips_clean.csv", "ingest", b"\xff\xfe\n"),
        ("plan", "trips_clean.csv", "ingest", _LONG_FIELD),
        ("gridify", "classified.csv", "classify", _LONG_FIELD),
        ("features", "cells.csv", "gridify", b'"-12,-2",7,0\n'),
        ("report", "cells.csv", "gridify", b'"-12,-2",7,0\n'),
        ("report", "cells.csv", "gridify", _LONG_FIELD),
        ("plan", "city/stations.csv", None, b"zz\n"),
        ("plan", "city/routes.csv", None, b"zz\n"),
        ("plan", "city/stations.csv", None, _LONG_FIELD),
    ], ids=["ingest_trips_not_utf8", "ingest_trips_long_field", "plan_clean_not_utf8",
            "plan_clean_long_field", "gridify_classified_long_field",
            "features_cells_short_row", "report_cells_short_row", "report_cells_long_field",
            "plan_stations_short_row", "plan_routes_short_row", "plan_stations_long_field"])
    def test_unparsable_file_exits_2(self, pipeline, tmp_path, stage, name, producer, tail):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        path = copy / name
        path.write_bytes(path.read_bytes() + tail)
        code, out, err = run_cli([stage, "--workspace", str(copy)])
        assert code == 2, err
        doc = json.loads(err)
        assert doc["kind"] == "input"
        assert str(path) in doc["error"]
        if producer:
            assert f"re-run '{producer}'" in doc["error"]
        assert out == ""

    # each paths.* key with the stage that reads it
    @pytest.mark.parametrize("key, stage", [
        ("trips", "ingest"), ("stations", "plan"), ("routes", "plan"), ("fares", "plan"),
        ("poi", "features"), ("population", "features"), ("roads", "features"),
        ("districts", "gridify"),
    ])
    def test_configured_directory_is_not_found(self, pipeline, tmp_path, key, stage):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        directory = tmp_path / "a_directory"
        directory.mkdir()
        code, out, err = run_cli([stage, "--workspace", str(copy),
                                  "--set", f"paths.{key}={directory}"])
        assert code == 2, err
        assert json.loads(err) == {
            "kind": "input", "error": f"input file not found: {directory} (paths.{key})"}
        assert out == ""

    # one file that each reading stage needs, replaced by a directory
    @pytest.mark.parametrize("stage, name, producer", [
        ("ingest", "city/trips.csv", "synth"),
        ("plan", "trips_clean.csv", "ingest"),
        ("plan", "city/stations.csv", "synth"),
        ("classify", "alternatives.jsonl", "plan"),
        ("gridify", "classified.csv", "classify"),
        ("features", "cells.csv", "gridify"),
        ("train", "features.csv", "features"),
        ("explain", "model.json", "train"),
        ("elasticity", "alternatives.jsonl", "plan"),
        ("report", "summary.json", "classify"),
    ])
    def test_directory_in_place_of_a_file_is_missing(self, pipeline, tmp_path, stage, name,
                                                     producer):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        (copy / name).unlink()
        (copy / name).mkdir()
        extra = ["--seed", "7"] if stage == "train" else []
        code, out, err = run_cli([stage, "--workspace", str(copy), *extra])
        assert code == 2, err
        doc = json.loads(err)
        assert (doc["kind"], doc["artifact"], doc["producer"]) == ("input", name, producer)
        assert out == ""

    def test_manifest_directory_is_no_manifest(self, pipeline, tmp_path):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        (copy / "city" / "scenario.json").unlink()
        (copy / "city" / "scenario.json").mkdir()
        code, out, err = run_cli(["gridify", "--workspace", str(copy)])
        assert code == 3, err
        assert "no scenario manifest exists" in json.loads(err)["error"]

    def test_configured_bbox_skips_the_manifest(self, pipeline, tmp_path):
        ws, _, _ = pipeline
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        manifest = copy / "city" / "scenario.json"
        bbox = json.loads(manifest.read_text())["bbox"]
        manifest.write_text("garbage")
        code, _, err = run_cli(["gridify", "--workspace", str(copy),
                                "--bbox", ",".join(map(repr, bbox))])
        assert code == 0, err
        assert (copy / "cells.csv").read_bytes() == (ws / "cells.csv").read_bytes()

    @pytest.mark.parametrize("bbox", ['"1234"', "[121, 31, Infinity, 32]"],
                             ids=["four_characters", "infinite"])
    def test_configured_bbox_not_four_finite_numbers(self, pipeline, bbox):
        _, config_path, _ = pipeline
        code, out, err = run_cli(["gridify", "--config", str(config_path),
                                  "--set", f"bbox={bbox}"])
        assert code == 3, err
        doc = json.loads(err)
        assert doc["kind"] == "config"
        assert doc["error"].startswith("bbox must be a list of four finite numbers")
        assert out == ""


def _at(tree, key):
    """The value at the dotted ``key`` of a settings tree."""
    for part in key.split("."):
        tree = tree[part]
    return tree


def _rows(table, prefix=""):
    """(dotted key, row) for every row of a settings table."""
    for key, row in table.items():
        if isinstance(row, dict):
            yield from _rows(row, f"{prefix}{key}.")
        else:
            yield prefix + key, row


ROWS = dict(_rows(SETTINGS))
SECTIONS = sorted({key.rsplit(".", 1)[0] for key in ROWS if "." in key})


def _given(value, key, row):
    """The value that setting a section to ``value`` gives the dotted
    ``key`` below it: the object's entry, else the row's default."""
    for part in key.split("."):
        if not (isinstance(value, dict) and part in value):
            return row.default
        value = value[part]
    return value

# JSON values a hostile config might hold, and a few that some row accepts;
# every key and section meets each of them, then hypothesis draws more
_EDGES = (None, True, False, "abc", "", "FCR", "dsr", "2022-09-01", "x.csv",
          math.nan, math.inf, -math.inf, -1, -0.5, 0, 0.5, 1, 2, 7, 1e308, -1e308,
          10 ** 400, -10 ** 400, [], [1], [400.0, 300.0], [3, 1, 3, 2],
          [121.0, 31.0, 122.0, 32.0], ["walk_threshold_m"], ["cost_ratio"] * 2,
          {}, {"olon": "lon"}, {"olon": 5}, {"depth": [2, 3]}, {"walk_threshold_m": 300},
          {"walk_threshold_m": [300, 400]})
_HOSTILE = st.one_of(
    st.sampled_from(_EDGES), st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.one_of(st.integers(), st.floats(), st.booleans(), st.text(max_size=2),
                       st.none()), max_size=5),
    st.dictionaries(st.text(max_size=3), st.one_of(st.text(max_size=3), st.integers()),
                    max_size=2))


def _each_edge(test):
    """``test`` run on each of ``_EDGES`` as well as on the values drawn."""
    for value in _EDGES:
        test = example(value=value)(test)
    return test


def _allowed(key, row, value, stored) -> bool:
    """Whether the checked tree may hold ``stored`` at ``key`` for the
    configured ``value``: a value of the row's kind, inside its bounds."""
    if value is None and row.default is None:
        return stored is None
    if key == "bbox":
        return (isinstance(value, list) and stored == tuple(value) and len(stored) == 4
                and all(type(v) is float and math.isfinite(v) for v in stored)
                and stored[0] < stored[2] and stored[1] < stored[3])
    if key == "epoch":
        return isinstance(value, str) and stored == datetime.date.fromisoformat(value)
    if key == "target":
        return stored in TARGETS and stored == value.upper()
    if key.startswith("paths."):
        return isinstance(stored, str) and stored == value
    if key == "ingest.columns":
        fields = CANONICAL_COLUMNS + ("request_time",)
        names = [stored.get(f, f) for f in fields] if isinstance(stored, dict) else []
        return (isinstance(stored, dict) and set(stored) <= set(fields)
                and all(isinstance(v, str) for v in stored.values())
                and len(set(names)) == len(fields))
    if key == "elasticity.parameters":
        return (isinstance(stored, list) and set(stored) <= set(sensitivity.PARAMETERS)
                and len(set(stored)) == len(stored))
    if key == "train.space":  # ParamSpace takes each range as a tuple
        return isinstance(value, dict) and stored == {
            name: tuple(v) if isinstance(v, list) else v for name, v in value.items()}
    if key.startswith("elasticity.values."):
        return isinstance(stored, list) and len(stored) > 0 and all(
            type(v) in (int, float) and math.isfinite(v) for v in stored)
    kind = type(row.default)
    if type(stored) is not kind or stored != (float(value) if kind is float else value):
        return False
    if kind is float and not math.isfinite(stored):
        return False
    return kind not in (int, float) or row.above < stored and row.least <= stored <= row.most


class TestSettingsTable:
    """``load_config`` checks every key against ``SETTINGS`` once, and
    ``ScenarioSpec.validate`` every ``synth`` field: a hostile value is
    refused or lands inside the bounds its row declares."""

    def test_rows_are_the_defaults(self):
        assert set(DEFAULTS["elasticity"]["values"]) == set(sensitivity.PARAMETERS)
        cfg = load_config(_args())
        for key, row in ROWS.items():
            assert _allowed(key, row, row.default, _at(cfg.data, key)), key

    @settings(max_examples=150, deadline=None)
    @given(value=_HOSTILE)
    @_each_edge
    def test_hostile_value_refused_or_in_bounds(self, value):
        for key, row in ROWS.items():
            try:
                cfg = load_config(_args(set=[f"{key}={json.dumps(value)}"]))
            except ConfigError as exc:
                assert key in str(exc)
                continue
            assert _allowed(key, row, value, _at(cfg.data, key)), (key, value)
        for section in SECTIONS:  # a whole section replaced, keys it lacks read as defaults
            try:
                cfg = load_config(_args(set=[f"{section}={json.dumps(value)}"]))
            except ConfigError as exc:
                assert section in str(exc)
                continue
            for key, row in ROWS.items():
                if key.startswith(f"{section}."):
                    given = _given(value, key[len(section) + 1:], row)
                    assert _allowed(key, row, given, _at(cfg.data, key)), (section, key, value)
        for field in dataclasses.fields(ScenarioSpec):
            spec = ScenarioSpec(**{field.name: value})
            try:
                spec.validate()
            except ValueError:
                continue
            if field.type == "int":
                cap = synth.MAX_DAYS if field.name == "days" else (
                    synth.MAX_COUNT if field.name in (*spec.planted_counts(), "poi_count")
                    else math.inf)
                assert type(value) is int and (field.name != "days" or value >= 1)
                assert 0 <= value <= cap, (field.name, value)
            else:
                assert type(value) in (int, float) and math.isfinite(value), (field.name, value)
                assert value > 0 or field.name.startswith("anchor_")
            build_network(spec)  # the city it validates can be built


_FLOAT_MAX = int(sys.float_info.max)  # the largest double, as an exact integer


def _holds_a_float(value) -> bool:
    """The rule, stated apart from ``finite_number``: an int (a bool is no
    int here) compared exactly with the largest double, never converted, or
    a float that is neither NaN nor infinite."""
    if type(value) is int:
        return -_FLOAT_MAX <= value <= _FLOAT_MAX
    return type(value) is float and not math.isnan(value) and not math.isinf(value)


class TestFiniteNumber:
    """``errors.finite_number`` is the one test of a JSON number in ``src/``."""

    @settings(max_examples=300, deadline=None)
    @given(value=st.one_of(
        st.integers(), st.integers(min_value=_FLOAT_MAX - 2, max_value=_FLOAT_MAX + 2),
        st.integers(min_value=-_FLOAT_MAX - 2, max_value=-_FLOAT_MAX + 2),
        st.floats(), st.booleans(), st.text(max_size=6)))
    @example(value=_FLOAT_MAX + 1)
    @example(value=-_FLOAT_MAX - 1)
    @example(value=sys.float_info.max)
    @_each_edge
    def test_matches_the_rule(self, value):
        assert finite_number(value) is _holds_a_float(value), value


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
# the stages that compute on no array, so their process never imports numpy
NUMPY_FREE_STAGES = {"ingest", "classify", "gridify", "elasticity", "report"}

_REPORT_MODULES = """
import json, sys
from ridelink.cli import main
code = main(sys.argv[1:])
print(json.dumps({"ridelink": sorted(m for m in sys.modules if m.split(".")[0] == "ridelink"),
                  "numpy": "numpy" in sys.modules}))
sys.exit(code)
"""


class TestStageImports:
    """Each stage runs in a process of its own and loads only the modules it
    runs, so none pays for compiling and importing the others; numpy alone
    takes several times the interpreter's own start-up."""

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
        assert loaded["ridelink"] == sorted(_LOADED_BY_EVERY_STAGE | STAGE_MODULES[argv[0]])
        assert loaded["numpy"] == (argv[0] not in NUMPY_FREE_STAGES)

    def test_classify_picks_among_stations_of_one_name_without_numpy(
            self, pipeline, tmp_path, monkeypatch):
        # "Juniper Station" also names m01, so each Juniper label matches two
        # stations and classify picks the nearer one
        ws, config_path, _ = pipeline
        copies = []
        for name in ("subprocess", "oracle"):
            copy = tmp_path / name
            shutil.copytree(ws, copy)
            stations = copy / "city" / "stations.csv"
            text = stations.read_text()
            assert "\nm01,Alder Station,Alder Station Exit A|" in text
            stations.write_text(text.replace("\nm01,Alder Station,Alder Station Exit A|",
                                             "\nm01,Alder Station,Juniper Station|Alder Station Exit A|"))
            copies.append(copy)
        proc = subprocess.run(
            [sys.executable, "-c", _REPORT_MODULES, "classify", "--config", str(config_path),
             "--workspace", str(copies[0])], capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1])["numpy"] is False
        # the numpy argmin it replaced classifies every trip the same way
        calls = []

        def argmin(net, lon, lat, among):
            among = list(among)
            calls.append(len(among))
            return oracle_nearest(net, lon, lat, among)

        monkeypatch.setattr(ptnet.TransitNetwork, "nearest_station", argmin)
        code, _, err = run_cli(["classify", "--config", str(config_path),
                                "--workspace", str(copies[1])])
        assert code == 0, err
        assert max(calls) >= 2
        assert ((copies[0] / "classified.csv").read_bytes()
                == (copies[1] / "classified.csv").read_bytes())


class TestModuleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ridelink", "transmogrify"],
            capture_output=True, text=True)
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["kind"] == "config"
