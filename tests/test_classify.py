import csv
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classify_oracle
from cityfix import build_city
from classify_oracle import TripClass, as_classes, as_verdicts
from matrix_cases import build_condition_matrix
from ridelink.classify import (
    _VERDICTS,
    ALL_LABELS,
    CONDITIONS,
    FIRST_MILE,
    INDEPENDENT,
    LAST_MILE,
    SUBSTITUTIVE,
    ClassifierConfig,
    classify_all,
    classify_trip,
    match_label,
    normalize_label,
    read_classified,
    summarize,
    trace,
    write_classified,
    write_summary,
)
from ridelink.ingest import parse_trips, write_trips
from ridelink.ptnet import Leg, NetworkPlanner, PtAlternative, station_lexicon
from trip_oracle import TripRecord, as_trips

_NET = build_city()
_LEX = station_lexicon(_NET)
_CASES = build_condition_matrix(_NET, _LEX)
_BBOX = (120.9, 30.9, 121.1, 31.1)  # around build_city()


class TestNormalizeLabel:
    @pytest.mark.parametrize("raw,key,suffix", [
        ("Anting Station Exit A", "anting station", "exit a"),
        ("Hongqiao Station B1", "hongqiao station", "b1"),
        ("LONGYANG  Road   Station", "longyang road station", ""),
        ("People's Square", "peoples square", ""),
        ("Century Avenue Station Exit 12", "century avenue station", "exit 12"),
        ("Garden Road Bus Stop", "garden road", "bus stop"),
        ("Xintiandi Station, Gate 3", "xintiandi station", "gate 3"),
        ("Nanjing East Rd. Station Exit A2", "nanjing east rd station", "exit a2"),
    ])
    def test_examples(self, raw, key, suffix):
        assert normalize_label(raw) == (key, suffix)

    def test_key_never_emptied(self):
        # every token looks like a designator, but the key keeps its last one
        got = normalize_label("Exit A")
        assert got.key != ""

    def test_peeling_is_iterative(self):
        got = normalize_label("Cedar Station Exit B Bus Stop")
        assert got.key == "cedar station"
        assert got.suffix == "exit b bus stop"

    def test_case_and_punctuation_insensitive(self):
        a = normalize_label("CEDAR   station -- Exit  B")
        b = normalize_label("cedar station exit b")
        assert a.key == b.key == "cedar station"


class TestMatchLabel:
    def test_name_alias_and_exit_forms_hit_same_station(self):
        for raw in ("Cedar Station", "Cedar Station B1", "cedar  STATION exit a"):
            assert match_label(raw, _LEX) == ("m3",)

    def test_non_station_labels_miss(self):
        assert match_label("People's Park", _LEX) == ()
        assert match_label("Cedar Gardens", _LEX) == ()


class TestConfig:
    def test_defaults(self):
        cfg = ClassifierConfig()
        assert (cfg.walk_threshold_m, cfg.time_gate_min, cfg.time_ratio,
                cfg.max_transfers, cfg.cost_ratio) == (400.0, 15.0, 2.0, 2, 0.5)

    @pytest.mark.parametrize("kwargs", [
        {"walk_threshold_m": 0.0},
        {"time_gate_min": -1.0},
        {"time_ratio": 0.0},
        {"max_transfers": -1},
        {"max_transfers": 1.5},
        {"max_transfers": True},
        {"max_transfers": "2"},
        {"cost_ratio": 0.0},
        {"cost_ratio": 1.5},
        {"walk_threshold_m": math.nan},
        {"walk_threshold_m": math.inf},
        {"time_gate_min": math.nan},
        {"time_gate_min": math.inf},
        {"time_ratio": math.nan},
        {"time_ratio": math.inf},
        {"cost_ratio": math.nan},
        {"walk_threshold_m": 10 ** 400},  # no double holds it
        {"max_transfers": 10 ** 400},
        {"cost_ratio": True},
        {"time_ratio": "2"},
    ])
    def test_rejects_bad_thresholds(self, kwargs):
        with pytest.raises(ValueError):
            ClassifierConfig(**kwargs)

    def test_whole_float_transfers_accepted(self):
        assert ClassifierConfig(max_transfers=3.0).max_transfers == 3.0


class TestConditionMatrix:
    @pytest.mark.parametrize("case", _CASES, ids=lambda c: c.name)
    def test_case(self, case):
        lex = case.lexicon if case.lexicon is not None else _LEX
        label, failed, matched, both = classify_trip(as_trips([case.trip]), 0, case.alt, _NET, lex)
        assert label == case.label, case.name
        assert failed == case.failed, case.name
        assert matched == case.matched, case.name
        assert both == case.both_ends, case.name
        assert trace(label, failed) == case.trace, case.name

    def test_matrix_covers_every_condition_and_label(self):
        assert len(_CASES) >= 20
        failed = {c.failed for c in _CASES if c.failed}
        assert failed == {"C1", "C3", "C4", "C5", "C6"}  # C2 never fails a trip
        assert {c.label for c in _CASES} == set(ALL_LABELS)

    def test_trace_short_circuits(self):
        for case in _CASES:
            evaluated = list(case.trace)
            assert evaluated == list(CONDITIONS[:len(evaluated)]), case.name
            lex = case.lexicon if case.lexicon is not None else _LEX
            label, failed, _, _ = classify_trip(as_trips([case.trip]), 0, case.alt, _NET, lex)
            if failed:
                assert list(trace(label, failed))[-1] == failed
                assert not trace(label, failed)[failed]

    @pytest.mark.parametrize("label, failed", sorted(_VERDICTS))
    def test_trace_matches_the_verdict_object(self, label, failed):
        """Every verdict ``classified.csv`` can hold has the trace that the
        verdict object gave it."""
        assert trace(label, failed or None) == TripClass(label, failed or None).trace


def _random_alt(rng) -> PtAlternative:
    if rng.random() < 0.15:
        return PtAlternative(available=False)
    return PtAlternative(
        available=True,
        access_walk_m=float(rng.uniform(0, 900)),
        egress_walk_m=float(rng.uniform(0, 900)),
        t_pt_min=float(rng.uniform(5, 80)),
        transfers=int(rng.integers(0, 5)),
        fare_rmb=float(rng.uniform(2, 12)),
        gen_cost_min=0.0,
        legs=(),
    )


def _random_trip(rng) -> TripRecord:
    pickup = int(rng.integers(0, 1440))
    return TripRecord(
        plate_id="R", olon=121.01, olat=31.01, pickup_label="A",
        pickup_min=pickup, dlon=121.05, dlat=31.0, dropoff_label="B",
        dropoff_min=pickup + int(rng.integers(3, 70)),
        distance_km=float(rng.uniform(1, 30)), cost=float(rng.uniform(8, 80)),
    )


class TestClassifierProperties:
    def test_every_trip_gets_exactly_one_label(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            label, failed, _, _ = classify_trip(as_trips([_random_trip(rng)]), 0,
                                                _random_alt(rng), _NET, _LEX)
            assert label in ALL_LABELS
            if label == INDEPENDENT:
                assert failed in CONDITIONS
            else:
                assert failed is None

    def test_tightening_thresholds_never_gains_substitutive(self):
        rng = np.random.default_rng(7)
        loose = ClassifierConfig(walk_threshold_m=500, time_gate_min=20,
                                 time_ratio=2.5, max_transfers=3, cost_ratio=0.7)
        tight = ClassifierConfig(walk_threshold_m=300, time_gate_min=10,
                                 time_ratio=1.5, max_transfers=1, cost_ratio=0.3)
        for _ in range(300):
            trip, alt = as_trips([_random_trip(rng)]), _random_alt(rng)
            tight_label = classify_trip(trip, 0, alt, _NET, _LEX, tight)[0]
            loose_label = classify_trip(trip, 0, alt, _NET, _LEX, loose)[0]
            if tight_label == SUBSTITUTIVE:
                assert loose_label == SUBSTITUTIVE

    def test_complementary_ignores_downstream_conditions(self):
        # a first-mile match is decided before walks/time/fare are looked at
        bad_alt = PtAlternative(available=True, access_walk_m=9999, egress_walk_m=9999,
                                t_pt_min=999, transfers=9, fare_rmb=999,
                                gen_cost_min=999, legs=())
        trip = as_trips([TripRecord(plate_id="T", olon=121.02, olat=31.004, pickup_label="Home",
                                    pickup_min=600, dlon=121.036, dlat=31.0005,
                                    dropoff_label="Cedar Station Exit A", dropoff_min=615,
                                    distance_km=3.0, cost=15.0)])
        label, _, matched, _ = classify_trip(trip, 0, bad_alt, _NET, _LEX)
        assert label == FIRST_MILE
        assert matched == "m3"


class TestClassifyAll:
    def _trips(self):
        return as_trips(self._records())

    def _records(self):
        # two complementary, one substitutive-looking, one night trip
        return [
            TripRecord("P1", 121.010, 31.006, "Maple Estate", 480,
                       121.0362, 31.0004, "Cedar Station Exit A", 492, 3.1, 14.0),
            TripRecord("P2", 121.0001, 31.0003, "Alder Station Exit B", 510,
                       121.0155, 31.0088, "Willow Court", 522, 2.8, 13.0),
            TripRecord("P3", 121.0003, 31.0006, "Corner A", 540,
                       121.0538, 31.0004, "Corner B", 562, 5.6, 40.0),
            TripRecord("P4", 121.0003, 31.0006, "Corner A", 150,
                       121.0538, 31.0004, "Corner B", 172, 5.6, 40.0),
        ]

    def test_labels_summary_and_order(self, city_planner):
        results, summary = classify_all(self._trips(), city_planner, _NET, _LEX)
        assert results.label == [
            FIRST_MILE, LAST_MILE, SUBSTITUTIVE, INDEPENDENT]
        assert results.failed_condition[3] == "C1"
        assert summary["total"] == 4
        assert summary["counts"][FIRST_MILE] == 1
        assert abs(sum(summary["shares"].values()) - 1.0) < 1e-12

    def test_summarize_empty(self):
        summary = summarize([])
        assert summary["total"] == 0
        assert all(v == 0.0 for v in summary["shares"].values())


class TestClassifiedRoundtrip:
    def test_csv_roundtrip(self, city_planner, tmp_path):
        trips = TestClassifyAll()._trips()
        results, summary = classify_all(trips, city_planner, _NET, _LEX)
        path = tmp_path / "classified.csv"
        write_classified(trips, results, str(path))
        trips2, results2 = read_classified(str(path), _BBOX)
        assert trips2 == trips
        for a, b in zip(as_classes(results), as_classes(results2)):
            assert (a.label, a.failed_condition, a.matched_station,
                    a.both_ends_station) == (b.label, b.failed_condition,
                                             b.matched_station, b.both_ends_station)

    def test_header_shape(self, city_planner, tmp_path):
        trips = TestClassifyAll()._trips().take([0])
        results, _ = classify_all(trips, city_planner, _NET, _LEX)
        path = tmp_path / "classified.csv"
        write_classified(trips, results, str(path))
        with open(path, newline="") as handle:
            header = next(csv.reader(handle))
        assert header[-4:] == ["label", "failed_condition",
                               "matched_station", "both_ends_station"]
        assert "request_time" not in header

    def test_request_time_survives_roundtrip(self, city_planner, tmp_path):
        trips = as_trips([replace(t, request_min=t.pickup_min - 4)
                          for t in TestClassifyAll()._records()])
        results, _ = classify_all(trips, city_planner, _NET, _LEX)
        path = tmp_path / "classified.csv"
        write_classified(trips, results, str(path))
        with open(path, newline="") as handle:
            header = next(csv.reader(handle))
        assert "request_time" in header
        trips2, _ = read_classified(str(path), _BBOX)
        assert trips2 == trips

    def test_mismatched_lengths_rejected(self, tmp_path):
        trips = TestClassifyAll()._trips()
        with pytest.raises(ValueError):
            write_classified(trips, as_verdicts([TripClass(INDEPENDENT)]), str(tmp_path / "x.csv"))

    def test_bad_label_on_read(self, tmp_path):
        trips = TestClassifyAll()._trips().take([0])
        path = tmp_path / "classified.csv"
        write_classified(trips, as_verdicts([TripClass(INDEPENDENT, failed_condition="C1")]),
                         str(path))
        text = path.read_text().replace("independent", "mystery")
        path.write_text(text)
        with pytest.raises(ValueError, match="unknown trip label"):
            read_classified(str(path), _BBOX)

    def test_summary_json(self, tmp_path):
        import json
        summary = summarize([SUBSTITUTIVE, INDEPENDENT])
        path = tmp_path / "summary.json"
        write_summary(summary, str(path))
        assert json.loads(path.read_text()) == summary


_LABEL_TEXT = st.text(alphabet='abZ09 ,"\'-', max_size=12).map(str.strip)


@st.composite
def _trip_and_class(draw, timed):
    lon = st.floats(_BBOX[0], _BBOX[2])
    lat = st.floats(_BBOX[1], _BBOX[3])
    pickup = draw(st.integers(0, 30 * 1440))
    request = draw(st.integers(0, 90).map(lambda w: pickup - w) if timed
                   else st.none() | st.integers(pickup - 90, pickup))
    trip = TripRecord(
        draw(_LABEL_TEXT), draw(lon), draw(lat), draw(_LABEL_TEXT), pickup,
        draw(lon), draw(lat), draw(_LABEL_TEXT), pickup + draw(st.integers(1, 600)),
        draw(st.floats(1e-6, 500.0)), draw(st.floats(0.0, 1e4)), request)
    # only an independent trip records a failed condition, and never C2; only a
    # complementary trip names a station, and only a first-mile one both ends
    label = draw(st.sampled_from(ALL_LABELS))
    failed = (draw(st.sampled_from([c for c in CONDITIONS if c != "C2"]))
              if label == INDEPENDENT else None)
    result = TripClass(label, failed,
                       draw(st.sampled_from(sorted(_NET.stations)))
                       if label in (FIRST_MILE, LAST_MILE) else None,
                       label == FIRST_MILE and draw(st.booleans()))
    return trip, result


class TestOneTripCodec:
    """``classified.csv`` is ``trips_clean.csv`` plus four label columns, read
    with the same checks."""

    @settings(max_examples=150, deadline=None)
    @given(st.booleans().flatmap(lambda timed: st.lists(_trip_and_class(timed), max_size=6)))
    def test_classified_extends_trips_clean(self, rows):
        trips = [t for t, _ in rows]
        results = [r for _, r in rows]
        with tempfile.TemporaryDirectory() as tmp:
            clean, classified = Path(tmp, "trips_clean.csv"), Path(tmp, "classified.csv")
            write_trips(as_trips(trips), str(clean))
            write_classified(as_trips(trips), as_verdicts(results), str(classified))
            clean_lines = clean.read_bytes().split(b"\r\n")
            classified_lines = classified.read_bytes().split(b"\r\n")
            assert len(clean_lines) == len(classified_lines) == len(trips) + 2
            for plain, labelled in zip(clean_lines[:-1], classified_lines):
                assert labelled.startswith(plain + b",")
            parsed, rejections = parse_trips(str(clean), _BBOX)
            trips2, results2 = read_classified(str(classified), _BBOX)
        assert rejections == []
        if not all(t.request_min is not None for t in trips):  # written only when all have one
            trips = [replace(t, request_min=None) for t in trips]
        trips = as_trips(trips)
        assert trips2 == parsed == trips
        assert [(r.label, r.failed_condition, r.matched_station, r.both_ends_station)
                for r in as_classes(results2)] == [
            (r.label, r.failed_condition, r.matched_station, r.both_ends_station)
            for r in results]

    @pytest.mark.parametrize("edit,reason", [
        (lambda row: row.__setitem__(1, "nan"), "bad number"),
        (lambda row: row.__setitem__(8, row[4]), "dropoff not after pickup"),
        (lambda row: row.pop(), "wrong column count"),
        (lambda row: row.__setitem__(2, "31.5"), "coordinates outside bbox"),
        (lambda row: row.__setitem__(slice(-4, -2), [INDEPENDENT, "C9"]),
         "failed_condition 'C9' does not fit label 'independent'"),
        (lambda row: row.__setitem__(slice(-4, -2), [INDEPENDENT, "C2"]),
         "failed_condition 'C2' does not fit label 'independent'"),
        (lambda row: row.__setitem__(slice(-4, -2), [INDEPENDENT, ""]),
         "failed_condition '' does not fit label 'independent'"),
        (lambda row: row.__setitem__(slice(-4, -2), [FIRST_MILE, "C3"]),
         f"failed_condition 'C3' does not fit label '{FIRST_MILE}'"),
        (lambda row: row.__setitem__(-1, "yes"),
         "both_ends_station 'yes' is not true or false"),
    ], ids=["nan", "dropoff", "width", "bbox", "unknown_condition", "c2_condition",
            "independent_without_condition", "condition_on_a_feeder", "both_ends_yes"])
    def test_first_bad_row_names_its_line(self, city_planner, tmp_path, edit, reason):
        trips = TestClassifyAll()._trips()
        results, _ = classify_all(trips, city_planner, _NET, _LEX)
        path = tmp_path / "classified.csv"
        write_classified(trips, results, str(path))
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        edit(rows[3])
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        with pytest.raises(ValueError, match=f"^line 4 of .*: {reason}$"):
            read_classified(str(path), _BBOX)


class TestVerdictContract:
    """A station names the matched station of a complementary trip only, and
    only a first-mile trip can match a station at both ends: a row that breaks
    either is refused at its line, as ``write_classified`` never writes it."""

    @pytest.mark.parametrize("line, station, both", [
        (2, "", "false"), (2, "", "true"), (3, "", "false"), (3, "m1", "true"),
        (4, "m3", "false"), (4, "", "true"), (5, "b1", "false"), (5, "", "true"),
    ], ids=["first_mile_without_station", "both_ends_without_station",
            "last_mile_without_station", "both_ends_on_last_mile", "station_on_substitutive",
            "both_ends_on_substitutive", "station_on_independent", "both_ends_on_independent"])
    def test_row_that_does_not_fit_its_label(self, city_planner, tmp_path, line, station, both):
        trips = TestClassifyAll()._trips()
        results, _ = classify_all(trips, city_planner, _NET, _LEX)
        path = tmp_path / "classified.csv"
        write_classified(trips, results, str(path))
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        rows[line - 1][-2:] = [station, both]
        label = rows[line - 1][-4]
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        with pytest.raises(ValueError, match=(
                f"^line {line} of .*: matched_station {station!r} and both_ends_station "
                f"{both!r} do not fit label {label!r}$")):
            read_classified(str(path), _BBOX)

    def test_classified_rows_fit_their_labels(self, city_planner):
        _, _, station, both = classify_all(TestClassifyAll()._trips(), city_planner, _NET, _LEX)[0]
        assert station == ["m3", "m1", None, None] and both == [False] * 4


class _Journeys(dict):
    """A journey per trip key: a planner that plans nothing."""

    def plan(self, olon, olat, dlon, dlat):
        return self[olon, olat, dlon, dlat]


# minutes of the day around the fixture routes' windows: metro 330-1410, bus 360-1380
_SERVICE_EDGES = (0, 120, 329, 330, 359, 360, 1380, 1381, 1410, 1411, 1439)
_LEGS = ((), (Leg("metro", "M1", "M1", "m1", "m2", 2.9, 1.72),),
         (Leg("bus", "B1", "B1", "b1", "b2", 5.1, 1.72),),
         (Leg("metro", "M1", "M1", "m1", "m3", 5.8, 3.4), Leg("bus", "B1", "B1", "b3", "b2", 4.0, 1.7)))
# station labels in several spellings, and labels that match no station
_STATION_LABELS = ("Cedar Station Exit A", "alder station", "Harbor Bus Stop", "Fir Station B1")
_PLACE_LABELS = ("Maple Estate", "Corner A", "Cedar Gardens")
_LABELS = st.sampled_from(_STATION_LABELS) | st.sampled_from(_PLACE_LABELS)
_CONFIGS = st.builds(
    ClassifierConfig,
    walk_threshold_m=st.sampled_from([400.0]) | st.floats(50.0, 900.0),
    time_gate_min=st.integers(5, 30).map(float),
    time_ratio=st.sampled_from([2.0]) | st.floats(1.1, 3.0),
    max_transfers=st.integers(0, 3),
    cost_ratio=st.sampled_from([0.5, 1.0]) | st.floats(0.05, 1.0))


@st.composite
def _judged_trip(draw, cfg):
    """A trip and its journey that meet every threshold of ``cfg`` but one of
    access walk, egress walk, time, transfers and fare, which sits on its
    inclusive threshold or one step either side of it."""
    pickup = 1440 * draw(st.integers(0, 3)) + draw(st.sampled_from(_SERVICE_EDGES)
                                                   | st.integers(330, 1380))
    gate = int(cfg.time_gate_min)
    duration = draw(st.sampled_from([gate, gate + 1]) | st.integers(1, 120))
    cost = draw(st.floats(0.0, 200.0))
    trip = TripRecord(
        "R", draw(st.floats(_BBOX[0], _BBOX[2])), draw(st.floats(_BBOX[1], _BBOX[3])),
        draw(_LABELS), pickup, draw(st.floats(_BBOX[0], _BBOX[2])),
        draw(st.floats(_BBOX[1], _BBOX[3])), draw(_LABELS), pickup + duration,
        draw(st.floats(0.1, 50.0)), cost)
    limits = {"access": cfg.walk_threshold_m, "egress": cfg.walk_threshold_m,
              "time": (duration + cfg.time_gate_min if duration <= cfg.time_gate_min
                       else cfg.time_ratio * duration),
              "fare": cfg.cost_ratio * cost}
    edge = draw(st.sampled_from([*limits, "transfers"]))
    step = draw(st.sampled_from([-math.inf, None, math.inf]))
    value = {name: (limit if step is None else math.nextafter(limit, step)) if name == edge
             else draw(st.floats(0.0, limit)) for name, limit in limits.items()}
    transfers = (cfg.max_transfers + (step == math.inf) if edge == "transfers"
                 else draw(st.integers(0, cfg.max_transfers)))
    alt = PtAlternative(
        available=draw(st.sampled_from([True, True, True, False])),
        access_walk_m=value["access"], egress_walk_m=value["egress"], t_pt_min=value["time"],
        transfers=transfers, fare_rmb=value["fare"], gen_cost_min=0.0,
        legs=draw(st.sampled_from(_LEGS)))
    return trip, alt


def _edge_rows():
    """Hand-set trips at the default thresholds: C1 either side of each
    window edge, a station label at either end or both, and each of C3-C6
    exactly on its inclusive threshold and one step past it."""
    def trip(pickup=600, duration=20, cost=30.0, o="Maple Estate", d="Corner A"):
        return TripRecord("E", 121.02, 31.004, o, pickup, 121.036, 31.0005, d,
                          pickup + duration, 6.0, cost)

    def alt(walk=400.0, t_pt=40.0, transfers=2, fare=15.0, legs=_LEGS[1]):
        return PtAlternative(True, walk, walk, t_pt, transfers, fare, 0.0, legs)

    past = math.nextafter
    rows = [(trip(pickup=m), alt(legs=legs)) for m in (329, 330, 1410, 1411, 1440 + 120)
            for legs in _LEGS[:2]]
    rows += [(trip(o="Cedar Station Exit A"), alt()), (trip(d="alder station"), alt()),
             (trip(o="Harbor Bus Stop", d="Fir Station B1"), alt())]
    rows += [(trip(), alt(walk=400.0)), (trip(), alt(walk=past(400.0, math.inf))),
             (trip(), alt(t_pt=40.0)), (trip(), alt(t_pt=past(40.0, math.inf))),
             (trip(duration=15), alt(t_pt=30.0)), (trip(duration=15), alt(t_pt=31.0)),
             (trip(duration=16), alt(t_pt=32.0)), (trip(duration=16), alt(t_pt=33.0)),
             (trip(), alt(transfers=2)), (trip(), alt(transfers=3)),
             (trip(cost=30.0), alt(fare=15.0)), (trip(cost=30.0), alt(fare=past(15.0, math.inf)))]
    # each row its own key
    return [(replace(t, olon=t.olon + i * 1e-5), a) for i, (t, a) in enumerate(rows)]


class TestTableClassifier:
    """``classify_all`` over a ``Trips`` table gives each row the verdict that
    the record classifier (``classify_oracle``) gives that trip alone."""

    @staticmethod
    def _check(rows, cfg):
        records = [t for t, _ in rows]
        journeys = _Journeys(((t.olon, t.olat, t.dlon, t.dlat), a) for t, a in rows)
        got, summary = classify_all(as_trips(records), journeys, _NET, _LEX, cfg)
        want = [classify_oracle.classify_trip(
            t, journeys.plan(t.olon, t.olat, t.dlon, t.dlat), _NET, _LEX, cfg) for t in records]
        assert as_classes(got) == want
        assert summary == summarize([r.label for r in want])
        return got

    def test_edge_rows(self):
        got = self._check(_edge_rows(), ClassifierConfig())
        assert set(got.failed_condition) == {None, "C1", "C3", "C4", "C5", "C6"}
        assert set(got.label) == set(ALL_LABELS)
        assert any(got.both_ends_station)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), cfg=_CONFIGS)
    def test_random_tables(self, data, cfg):
        self._check(data.draw(st.lists(_judged_trip(cfg), max_size=12)), cfg)
