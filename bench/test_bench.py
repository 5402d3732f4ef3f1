"""Tests of the benchmark's own logic (not of ridelink).

    python3 -m pytest -q bench
"""

from __future__ import annotations

import csv
import json
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import checks
import spans
import widenet
from workloads import WORKLOADS

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_nested_calls():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def inner(step):
        clock.now += step

    def outer():
        clock.now += 1.0
        tracer.call("layer.inner", inner, (2.0,), {})
        clock.now += 0.5
        tracer.call("layer.inner", inner, (3.0,), {}, keep_span=False)

    tracer.stage = "s"
    tracer.call("cli.s", outer, (), {})
    assert tracer.total("cli.s") == pytest.approx(6.5)
    assert tracer.total("layer.inner") == pytest.approx(5.0)
    assert tracer.calls("layer.inner") == 2
    assert tracer.self_time("cli.") == pytest.approx(1.5)
    assert tracer.self_time("layer.") == pytest.approx(5.0)
    # only the kept inner call has a span, and it points at the outer span
    by_name = {s.name: s for s in tracer.spans}
    assert len(tracer.spans) == 2
    assert by_name["layer.inner"].parent == by_name["cli.s"].id
    assert by_name["cli.s"].self_s == pytest.approx(1.5)


def test_self_time_counts_a_failed_call_and_reraises():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    def outer():
        clock.now += 1.0
        with pytest.raises(ValueError):
            tracer.call("a.boom", boom, (), {})

    tracer.call("a.outer", outer, (), {})
    assert tracer.total("a.boom") == pytest.approx(1.0)
    assert tracer.self_time("a.outer") == pytest.approx(1.0)


def test_stage_filter_and_hooks():
    tracer = spans.Tracer(clock=FakeClock())
    tracer.stage = "setup"
    tracer.call("x.f", lambda: 1, (), {}, after=lambda t, tok, a, k, r: t.count("x.n", r))
    tracer.stage = "plan"
    tracer.call("x.f", lambda: 2, (), {}, after=lambda t, tok, a, k, r: t.count("x.n", r))
    tracer.call("x.f", lambda: 3, (), {}, after=lambda t, tok, a, k, r: 1 / 0)
    assert tracer.calls("x.f", {"plan"}) == 2
    assert tracer.counter("x.n", {"plan"}) == 2
    assert tracer.counter("x.n") == 3
    assert tracer.hook_errors["x.f"] == 1


def test_patch_rebinds_aliases_and_reports_missing():
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1

    core.work = work
    user.work = work  # a `from .core import work` alias
    sys.modules.update({"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user})
    try:
        tracer = spans.Tracer()
        undo = spans.patch(tracer, "core.work", "fakepkg.core:work", package="fakepkg")
        assert user.work(1) == 2 and core.work(2) == 3
        assert tracer.calls("core.work") == 2
        assert spans.patch(tracer, "core.gone", "fakepkg.core:gone", package="fakepkg") == []
        assert tracer.missing == ["core.gone"]
        spans.unpatch(undo)
        assert core.work is work and user.work is work
    finally:
        for name in ("fakepkg", "fakepkg.core", "fakepkg.user"):
            sys.modules.pop(name, None)


def test_layer_metrics_cover_every_per_layer_metric():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    values = spans.layer_metrics(spans.Tracer(), ["ingest"], {}, 0.1, 0.2, 0.3)
    assert set(values) == {m["name"] for m in spec["per_layer"]}


# -- the wide-network generator ------------------------------------------------


@pytest.fixture
def small_network(monkeypatch):
    monkeypatch.setattr(widenet, "TRIPS", 60)


def _generate(tmp_path, seed, name):
    return widenet.generate(tmp_path / name, seed), tmp_path / name


def test_generator_is_deterministic(tmp_path, small_network):
    a, dir_a = _generate(tmp_path, 5, "a")
    b, dir_b = _generate(tmp_path, 5, "b")
    c, dir_c = _generate(tmp_path, 6, "c")
    assert a == b
    for name in ("stations.csv", "routes.csv", "fares.json", "trips.csv", "planted.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    assert (dir_a / "trips.csv").read_bytes() != (dir_c / "trips.csv").read_bytes()
    assert a["stations"] == 1131 and a["routes"] == 40


def test_generator_plants_what_ingest_rejects(tmp_path, small_network):
    from ridelink import ingest, ptnet

    manifest, city = _generate(tmp_path, 3, "city")
    net = ptnet.load_network(str(city / "stations.csv"), str(city / "routes.csv"),
                             str(city / "fares.json"))
    assert len(net.stations) == manifest["stations"]
    trips, rejections = ingest.parse_trips(str(city / "trips.csv"),
                                           tuple(manifest["bbox"]))
    assert dict(Counter(r.reason for r in rejections)) == manifest["rejected"]
    kept, _ = ingest.iqr_filter(trips, 3.0)
    assert len(trips) - len(kept) == manifest["iqr_outliers"]


# -- oracles -----------------------------------------------------------------


def _write(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def test_ground_truth_matcher_handles_reordering_and_repeated_plates(tmp_path):
    trip_cols = ["plate_id", "pickup_time", "dropoff_time", "pickup_label",
                 "dropoff_label"]
    trips = [["T1", "9:00", "9:10", "A", "B"],
             ["T1", "9:30", "9:50", "C", "D"],
             ["T2", "9:00", "9:10", "A", "B"]]
    _write(tmp_path / "trips.csv", trip_cols, trips)
    _write(tmp_path / "truth.csv", ["trip_index", "intended_class", "violated_condition"],
           [[2, "independent", "C3"], [0, "substitutive", ""], [1, "independent", "C4"]])
    out_cols = trip_cols + ["label", "failed_condition"]
    good = [trips[1] + ["independent", "C4"], trips[2] + ["independent", "C3"],
            trips[0] + ["substitutive", ""]]

    def match(clean, classified):
        _write(tmp_path / "clean.csv", trip_cols, clean)
        _write(tmp_path / "classified.csv", out_cols, classified)
        return checks.match_ground_truth(
            tmp_path / "trips.csv", tmp_path / "truth.csv", tmp_path / "clean.csv",
            tmp_path / "classified.csv")

    assert match(trips[::-1], good) == (3, 0, 0)
    assert match(trips, [good[0], good[1], trips[0] + ["independent", "C6"]]) == (2, 1, 0)
    # a trip ingest dropped has no clean row, so its missing output is no loss
    assert match(trips[1:], good[:2]) == (2, 0, 0)
    # a kept trip without a classified row is lost
    assert match(trips, good[:2]) == (2, 0, 1)


def _city(ws: Path, trips: list, truth: list, clean: list, classified: list):
    cols = ["plate_id", "pickup_time", "dropoff_time", "pickup_label", "dropoff_label"]
    (ws / "city").mkdir(parents=True)
    _write(ws / "city" / "trips.csv", cols, trips)
    _write(ws / "city" / "ground_truth.csv",
           ["trip_index", "intended_class", "violated_condition"], truth)
    _write(ws / "trips_clean.csv", cols, clean)
    _write(ws / "classified.csv", cols + ["label", "failed_condition"], classified)


def test_ground_truth_check_fails_on_lost_rows(tmp_path):
    trips = [[f"T{i}", "9:00", "9:10", "A", "B"] for i in range(4)]
    truth = [[i, "substitutive", ""] for i in range(4)]
    out = [t + ["substitutive", ""] for t in trips]
    _city(tmp_path / "all", trips, truth, trips, out)
    assert checks.check_ground_truth(tmp_path / "all")[1]
    # ingest dropped T3: allowed
    _city(tmp_path / "dropped", trips, truth, trips[:3], out[:3])
    assert checks.check_ground_truth(tmp_path / "dropped")[1]
    # ingest kept T3 but nothing classified it
    _city(tmp_path / "lost", trips, truth, trips, out[:3])
    assert not checks.check_ground_truth(tmp_path / "lost")[1]


def test_workspace_digest_sees_names_and_bytes(tmp_path):
    (tmp_path / "a").write_text("x")
    first = checks.workspace_digest(tmp_path)
    (tmp_path / "a").rename(tmp_path / "b")
    assert checks.workspace_digest(tmp_path) != first
    (tmp_path / "b").rename(tmp_path / "a")
    assert checks.workspace_digest(tmp_path) == first


# -- the benchmark's description ---------------------------------------------


def test_every_workload_and_layer_metric_is_mapped():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    layers = json.loads((REPO / "bench" / "layers.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [
        m["name"] for layer in layers["layers"] for m in layer["metrics"]]
    assert all(set(layer["on"]) <= set(WORKLOADS) for layer in layers["layers"])
