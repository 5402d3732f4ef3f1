"""Tests for the synthetic scenario generator.

The generator is the end-to-end oracle for the rest of the pipeline, so these
tests hold it to a high bar: planted trips must classify exactly as intended
through the real planner and classifier, every emitted file must round-trip
through the production readers, and regeneration must be byte-identical.
"""

import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import synth_oracle
from classify_oracle import as_classes
from ridelink import synth
from ridelink.classify import (
    FIRST_MILE,
    INDEPENDENT,
    LAST_MILE,
    SUBSTITUTIVE,
    ClassifierConfig,
    classify_all,
    classify_trip,
    match_label,
)
from ridelink.geo import great_circle_m
from ridelink.ingest import parse_trips
from ridelink.ptnet import (
    NetworkPlanner,
    load_network,
    station_lexicon,
)
from ridelink.synth import (
    GROUND_TRUTH_COLUMNS,
    ScenarioSpec,
    _Factory,
    bbox_of,
    build_network,
    generate,
    plant_trips,
)
from synth_oracle import OracleFactory, read_ground_truth
from trip_oracle import as_trips, on_records

plant_records = on_records(plant_trips)  # the planted table as records

SMALL = ScenarioSpec(first_mile=15, last_mile=15, substitutive=15,
                     independent_c1=15, independent_c3=15, independent_c4=15,
                     independent_c5=15, independent_c6=15, poi_count=300)


@pytest.fixture(scope="module")
def small_city():
    net, meta = build_network(SMALL)
    trips, truth = plant_records(SMALL, net, meta)
    return net, meta, trips, truth


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenario")
    paths = generate(SMALL, out)
    return paths


class TestSpecValidation:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            replace(SMALL, first_mile=-1).validate()

    def test_line_count_bounds(self):
        with pytest.raises(ValueError, match="metro_lines"):
            replace(SMALL, metro_lines=5).validate()
        with pytest.raises(ValueError, match="bus_routes"):
            replace(SMALL, bus_routes=4).validate()

    def test_metro_station_names_suffice(self):
        # four chained lines of 13 stations need 49 names; there are 48
        with pytest.raises(ValueError, match="station names"):
            replace(ScenarioSpec(), metro_stations_per_line=13).validate()
        net, _ = build_network(replace(ScenarioSpec(), metro_lines=2, metro_stations_per_line=20,
                                       independent_c4=0, independent_c5=0))
        assert sum(s.mode == "metro" for s in net.stations.values()) == 39

    def test_feeder_trips_without_stations_infeasible(self):
        spec = replace(SMALL, metro_lines=0, bus_routes=0)
        with pytest.raises(ValueError, match="infeasible"):
            spec.validate()

    def test_metro_recipes_need_metro(self):
        spec = replace(SMALL, metro_lines=0, bus_routes=2,
                       independent_c4=0, independent_c5=0)
        with pytest.raises(ValueError, match="infeasible"):
            spec.validate()

    def test_transfer_recipe_needs_full_chain(self):
        with pytest.raises(ValueError, match="four chained"):
            replace(SMALL, metro_lines=3, independent_c4=0).validate()

    def test_days_positive(self):
        with pytest.raises(ValueError, match="days"):
            replace(SMALL, days=0).validate()

    def test_total(self):
        assert SMALL.total_trips() == 8 * 15
        assert ScenarioSpec().total_trips() == 5000


class TestNetwork:
    def test_station_census(self, small_city):
        net, _, _, _ = small_city
        modes = Counter(s.mode for s in net.stations.values())
        assert modes == {"metro": 45, "bus": 15}
        assert len(net.stations) == 60
        assert len(net.routes) == 7

    def test_lines_chain_through_shared_corners(self, small_city):
        net, _, _, _ = small_city
        m = {rid: net.routes[rid].station_ids for rid in ("M1", "M2", "M3", "M4")}
        assert m["M1"][0] == m["M2"][0]
        assert m["M2"][-1] == m["M3"][0]
        assert m["M3"][-1] == m["M4"][0]
        # open loop: the east belt never reaches the north belt
        assert m["M4"][-1] not in m["M1"]

    def test_hub_flags(self, small_city):
        net, _, _, _ = small_city
        hubs = {sid for sid, s in net.stations.items() if s.is_hub}
        corner_ids = {net.routes["M2"].station_ids[0],
                      net.routes["M3"].station_ids[0],
                      net.routes["M4"].station_ids[0]}
        assert corner_ids <= hubs
        # the B1/B2 shared stop and the bus-metro interchange are hubs too
        b1 = set(net.routes["B1"].station_ids)
        b2 = set(net.routes["B2"].station_ids)
        assert len(b1 & b2 & hubs) == 1
        metro_ids = {sid for sid, s in net.stations.items() if s.mode == "metro"}
        assert len(b2 & metro_ids) == 1

    def test_station_names_unique_and_aliased(self, small_city):
        net, _, _, _ = small_city
        names = [s.name for s in net.stations.values()]
        assert len(set(names)) == len(names)
        for s in net.stations.values():
            if s.mode == "metro":
                assert s.name.endswith("Station")
                assert len(s.aliases) == 2
            else:
                assert s.name.endswith("Road")
                assert s.aliases == (f"{s.name} Bus Stop",)

    def test_lexicon_resolves_aliases(self, small_city):
        net, _, _, _ = small_city
        lex = station_lexicon(net)
        for s in net.stations.values():
            for label in (s.name, *s.aliases):
                assert s.id in match_label(label, lex)

    def test_smaller_city_shrinks(self):
        spec = replace(SMALL, metro_lines=2, bus_routes=1,
                       independent_c4=0, independent_c5=0)
        net, _ = build_network(spec)
        modes = Counter(s.mode for s in net.stations.values())
        assert modes == {"metro": 23, "bus": 6}


class TestPlanting:
    def test_exact_class_counts(self, small_city):
        _, _, _, truth = small_city
        counts = Counter((g.intended_class, g.violated_condition) for g in truth)
        assert counts == {
            (FIRST_MILE, None): 15,
            (LAST_MILE, None): 15,
            (SUBSTITUTIVE, None): 15,
            (INDEPENDENT, "C1"): 15,
            (INDEPENDENT, "C3"): 15,
            (INDEPENDENT, "C4"): 15,
            (INDEPENDENT, "C5"): 15,
            (INDEPENDENT, "C6"): 15,
        }

    def test_every_trip_classifies_as_intended(self, small_city):
        net, _, trips, truth = small_city
        planner = NetworkPlanner(net)
        lex = station_lexicon(net)
        results, _ = classify_all(as_trips(trips), planner, net, lex, ClassifierConfig())
        assert len(results) == len(truth)
        for g in truth:
            r = as_classes(results)[g.trip_index]
            assert r.label == g.intended_class
            assert r.failed_condition == g.violated_condition

    def test_feeder_labels_match_real_stations(self, small_city):
        net, _, trips, truth = small_city
        lex = station_lexicon(net)
        for g in truth:
            trip = trips[g.trip_index]
            if g.intended_class == FIRST_MILE:
                assert match_label(trip.dropoff_label, lex)
                assert not match_label(trip.pickup_label, lex)
            elif g.intended_class == LAST_MILE:
                assert match_label(trip.pickup_label, lex)
                assert not match_label(trip.dropoff_label, lex)
            else:
                assert not match_label(trip.pickup_label, lex)
                assert not match_label(trip.dropoff_label, lex)

    def test_out_of_service_trips_start_at_night(self, small_city):
        net, _, trips, truth = small_city
        first_start = min(r.service_start for r in net.routes.values())
        last_end = max(r.service_end for r in net.routes.values())
        for g in truth:
            tod = trips[g.trip_index].pickup_min % 1440
            if g.violated_condition == "C1":
                # outside every route's window, so no alternative can save it
                assert tod < first_start or tod > last_end
            else:
                assert 330 <= tod <= 1380

    def test_request_time_always_present(self, small_city):
        _, _, trips, _ = small_city
        for trip in trips:
            assert trip.request_min is not None
            assert 2 <= trip.pickup_min - trip.request_min <= 10

    def test_substitutive_instance_passes_all_six_conditions(self, small_city):
        # check one planted trip condition by condition with independent
        # arithmetic rather than trusting the classifier verdict
        net, _, trips, truth = small_city
        planner = NetworkPlanner(net)
        lex = station_lexicon(net)
        cfg = ClassifierConfig()
        g = next(t for t in truth if t.intended_class == SUBSTITUTIVE)
        trip = trips[g.trip_index]
        alt = planner.plan(trip.olon, trip.olat, trip.dlon, trip.dlat)
        assert alt.available and alt.legs
        tod = trip.pickup_min % 1440
        for leg in alt.legs:
            route = net.routes[leg.route_id]
            assert route.service_start <= tod <= route.service_end  # C1
        assert not match_label(trip.pickup_label, lex)              # C2
        assert not match_label(trip.dropoff_label, lex)
        assert alt.access_walk_m <= cfg.walk_threshold_m            # C3
        assert alt.egress_walk_m <= cfg.walk_threshold_m
        t_tnc = trip.duration_min                                   # C4
        if t_tnc <= cfg.time_gate_min:
            assert alt.t_pt_min - t_tnc <= cfg.time_gate_min
        else:
            assert alt.t_pt_min <= cfg.time_ratio * t_tnc
        assert alt.transfers <= cfg.max_transfers                   # C5
        assert alt.fare_rmb <= cfg.cost_ratio * trip.cost           # C6
        got = classify_trip(as_trips([trip]), 0, alt, net, lex, cfg)
        assert got[0] == SUBSTITUTIVE

    def test_transfer_heavy_trips_need_three_transfers(self, small_city):
        net, _, trips, truth = small_city
        planner = NetworkPlanner(net)
        for g in truth:
            if g.violated_condition != "C5":
                continue
            trip = trips[g.trip_index]
            alt = planner.plan(trip.olon, trip.olat, trip.dlon, trip.dlat)
            assert alt.transfers >= 3

    def test_cheap_hops_fail_only_the_fare_check(self, small_city):
        net, _, trips, truth = small_city
        planner = NetworkPlanner(net)
        cfg = ClassifierConfig()
        for g in truth:
            if g.violated_condition != "C6":
                continue
            trip = trips[g.trip_index]
            alt = planner.plan(trip.olon, trip.olat, trip.dlon, trip.dlat)
            assert alt.fare_rmb > cfg.cost_ratio * trip.cost
            assert alt.transfers <= cfg.max_transfers
            assert alt.access_walk_m <= cfg.walk_threshold_m

    def test_impossible_recipe_raises(self):
        # with 3 km station spacing the around-the-loop journey is so slow
        # that the time condition fails before the transfer condition, so a
        # transfer-violation trip can never be planted
        spec = ScenarioSpec(first_mile=0, last_mile=0, substitutive=0,
                            independent_c1=0, independent_c3=0,
                            independent_c4=0, independent_c5=1,
                            independent_c6=0, max_attempts=5,
                            metro_spacing_km=3.0)
        net, meta = build_network(spec)
        with pytest.raises(RuntimeError, match="independent_c5"):
            plant_trips(spec, net, meta)

    def test_deterministic_replant(self, small_city):
        net, meta, trips, truth = small_city
        trips2, truth2 = plant_records(SMALL, net, meta)
        assert trips == trips2
        assert truth == truth2

    def test_seed_changes_output(self):
        spec = replace(SMALL, seed=SMALL.seed + 1)
        net, meta = build_network(spec)
        trips2, _ = plant_trips(spec, net, meta)
        net0, meta0 = build_network(SMALL)
        trips0, _ = plant_trips(SMALL, net0, meta0)
        assert trips0 != trips2


class TestGenerate:
    def test_artifact_inventory(self, small_files):
        expected = {"trips", "stations", "routes", "fares", "ground_truth",
                    "poi", "population", "roads", "scenario"}
        assert set(small_files) == expected
        for path in small_files.values():
            assert Path(path).stat().st_size > 0

    def test_trips_round_trip(self, small_files):
        trips, rejected = parse_trips(small_files["trips"], bbox_of(SMALL))
        assert len(trips) == SMALL.total_trips()
        assert rejected == []
        header = Path(small_files["trips"]).read_text().splitlines()[0]
        assert header.endswith(",request_time")

    def test_network_round_trip(self, small_files):
        net = load_network(small_files["stations"], small_files["routes"],
                           small_files["fares"])
        assert len(net.stations) == 60
        assert net.fares.metro_base == 3.0

    def test_ground_truth_round_trip(self, small_files):
        truth = read_ground_truth(small_files["ground_truth"])
        assert [g.trip_index for g in truth] == list(range(SMALL.total_trips()))
        header = Path(small_files["ground_truth"]).read_text().splitlines()[0]
        assert header == ",".join(GROUND_TRUTH_COLUMNS)

    def test_classification_agrees_after_round_trip(self, small_files):
        trips, _ = parse_trips(small_files["trips"], bbox_of(SMALL))
        net = load_network(small_files["stations"], small_files["routes"],
                           small_files["fares"])
        results, _ = classify_all(trips, NetworkPlanner(net), net,
                                  station_lexicon(net), ClassifierConfig())
        truth = read_ground_truth(small_files["ground_truth"])
        for g in truth:
            assert results.label[g.trip_index] == g.intended_class
            assert results.failed_condition[g.trip_index] == g.violated_condition

    def test_poi_layer(self, small_files):
        lines = Path(small_files["poi"]).read_text().splitlines()
        assert lines[0] == "lon,lat,category"
        cats = Counter(line.rsplit(",", 1)[1] for line in lines[1:])
        assert set(cats) == {"residence", "retail", "catering", "enterprise"}
        assert cats["residence"] > cats["enterprise"]
        lon_min, lat_min, lon_max, lat_max = bbox_of(SMALL)
        for line in lines[1:]:
            lon, lat, _ = line.split(",")
            assert lon_min <= float(lon) <= lon_max
            assert lat_min <= float(lat) <= lat_max

    def test_population_layer(self, small_files):
        lines = Path(small_files["population"]).read_text().splitlines()
        assert lines[0] == "lon,lat,population"
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert len(values) > 100
        assert all(v > 0 for v in values)
        assert max(values) > 5 * min(values)

    def test_road_layer(self, small_files):
        doc = json.loads(Path(small_files["roads"]).read_text())
        assert doc["type"] == "FeatureCollection"
        kinds = Counter(f["geometry"]["type"] for f in doc["features"])
        assert set(kinds) == {"LineString"}
        highways = [f for f in doc["features"]
                    if f["properties"].get("highway")]
        assert len(highways) == 2
        assert len(doc["features"]) > 40

    def test_scenario_manifest(self, small_files):
        doc = json.loads(Path(small_files["scenario"]).read_text())
        assert doc["stations"] == 60
        assert doc["routes"] == 7
        assert doc["trips"] == SMALL.total_trips()
        assert doc["spec"]["seed"] == SMALL.seed
        assert len(doc["bbox"]) == 4

    def test_byte_identical_regeneration(self, small_files, tmp_path):
        again = generate(SMALL, tmp_path / "again")
        for name, path in small_files.items():
            assert Path(path).read_bytes() == Path(again[name]).read_bytes(), name

    def test_station_coordinates_match_metadata(self, small_city):
        # station positions recorded in local km must agree with the
        # emitted lon/lat to within a metre
        net, meta, _, _ = small_city
        proj = meta["proj"]
        for sid, (x, y) in meta["xy"].items():
            s = net.stations[sid]
            lon, lat = proj.to_lonlat(x * 1000.0, y * 1000.0)
            assert great_circle_m(lon, lat, s.lon, s.lat) < 1.0


class _Rejecting:
    """``classify_trip``, except that the calls numbered in ``reject`` (from
    0, one per verified draw) return a verdict that no recipe intends."""

    def __init__(self, reject):
        self.reject, self.calls = set(reject), 0

    def __call__(self, *args):
        self.calls += 1
        return (("rejected", None, None, False) if self.calls - 1 in self.reject
                else classify_trip(*args))


# block-sized recipes: 2 blocks and a part of first-mile trips, then 3 last-mile
# and 3 substitutive ones, at most 4 attempts each
BLOCKS = replace(ScenarioSpec(), first_mile=40, last_mile=3, substitutive=3, independent_c1=0,
                 independent_c3=0, independent_c4=0, independent_c5=0, independent_c6=0,
                 max_attempts=4)
F = BLOCKS.first_mile  # unless a draw misses, the last-mile draws are F, F + 1, F + 2


class TestBlockPlanting:
    """``plant_all`` verifies its draws in planner blocks; the one-at-a-time
    loop it replaced (``tests/synth_oracle.py``) must give the same trips, the
    same truth, the same error and the same final generator state."""

    @staticmethod
    def _plant(factory_class, spec, monkeypatch, module, reject):
        stub = _Rejecting(reject)
        monkeypatch.setattr(module, "classify_trip", stub)
        factory = factory_class(spec, *build_network(spec))
        try:
            outcome = factory.plant_all()
        except RuntimeError as exc:
            outcome = str(exc)
        return outcome, factory.rng.bit_generator.state, stub.calls, factory

    def _compare(self, spec, monkeypatch, reject):
        got, state, calls, factory = self._plant(_Factory, spec, monkeypatch, synth, reject)
        want, oracle_state, oracle_calls, _ = self._plant(OracleFactory, spec, monkeypatch,
                                                          synth_oracle, reject)
        assert got == want
        assert state == oracle_state
        assert calls == oracle_calls
        return got, factory, calls

    @pytest.mark.parametrize("reject", [
        lambda b: [],
        lambda b: [0],                           # the first draw of the first block
        lambda b: [b - 1],                       # its last draw
        lambda b: [b],                           # the first draw of the second block
        lambda b: [b - 1, b, b + 2],             # the retry of a miss misses, then a block starts
        lambda b: [0, 1, 2, 5, 9, b + 5],        # three misses, a success, and misses later on
        lambda b: range(F + 2, F + 5),           # the last last-mile trip on its last attempt
        lambda b: [F + 3, F + 5, F + 6],         # misses in the last recipe
    ], ids=["none", "block_first", "block_last", "second_block_first", "retry_misses",
            "spread", "last_attempt", "last_recipe"])
    def test_misses_keep_the_oracle_stream(self, monkeypatch, reject):
        block = _Factory(BLOCKS, *build_network(BLOCKS)).planner.block_trips
        assert 2 * block < BLOCKS.first_mile < 3 * block
        (trips, truth), _, _ = self._compare(BLOCKS, monkeypatch, reject(block))
        assert len(trips) == BLOCKS.total_trips() == len(truth)

    @pytest.mark.parametrize("start", [0, F // 2, F + 3])
    def test_max_attempts_of_misses_raise_as_the_oracle(self, monkeypatch, start):
        message, _, _ = self._compare(BLOCKS, monkeypatch,
                                      range(start, start + BLOCKS.max_attempts))
        assert message.startswith("could not place a ")
        assert message.endswith(f" trip in {BLOCKS.max_attempts} attempts; the scenario "
                                f"geometry cannot express it")

    def test_no_attempts_draw_nothing(self, monkeypatch):
        spec = replace(BLOCKS, max_attempts=0)
        message, factory, calls = self._compare(spec, monkeypatch, [])
        assert "first_mile trip in 0 attempts" in message and calls == 0
        assert factory.rng.bit_generator.state == np.random.default_rng(spec.seed).bit_generator.state

    def test_real_misses_keep_the_oracle_stream(self, monkeypatch):
        # with 1.5 km station spacing a few draws miss their recipe unstubbed
        spec = replace(ScenarioSpec(), metro_spacing_km=1.5,
                       **{recipe: 30 for recipe in ScenarioSpec().planted_counts()})
        (trips, _), _, calls = self._compare(spec, monkeypatch, [])
        assert len(trips) == 240 < calls
