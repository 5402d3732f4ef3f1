"""Tests for the threshold sweep: shares recomputed per value over cached
journeys, baseline-anchored arc elasticities, and CSV/SVG outputs."""

import pytest

from cityfix import build_city
from ridelink.classify import SUBSTITUTIVE, ClassifierConfig, classify_all
from ridelink.ingest import TripRecord
from ridelink.ptnet import (
    FareRules,
    NetworkPlanner,
    Route,
    Station,
    TransitNetwork,
    station_lexicon,
)
from ridelink.sensitivity import (
    PARAMETERS,
    ElasticityReport,
    arc_elasticity,
    elasticity_sweep,
    elasticity_svg,
    write_elasticity_csv,
)

_NET = build_city()
_LEX = station_lexicon(_NET)
_PLANNER = NetworkPlanner(_NET)

# station coordinates from the shared fixture city
M1 = (121.000, 31.000)
M2 = (121.018, 31.000)
M3 = (121.036, 31.000)
M4 = (121.054, 31.000)
M6 = (121.036, 31.030)
B1 = (121.000, 30.985)
B3 = (121.036, 30.985)

LAT_M = 1.0 / 111320.0  # degrees of latitude per meter, close enough here


def _trip(o, d, duration=20, cost=30.0, pickup=600):
    return TripRecord(plate_id="p", olon=o[0], olat=o[1],
                      pickup_label="Somewhere", pickup_min=pickup,
                      dlon=d[0], dlat=d[1], dropoff_label="Elsewhere",
                      dropoff_min=pickup + duration, distance_km=8.0,
                      cost=cost)


def _walk_trips():
    """Six trips whose only varying condition is the access walk: origins
    250..750 m north of the west-end station, destinations at the east end."""
    return [_trip((M1[0], M1[1] + meters * LAT_M), M4)
            for meters in (250, 350, 450, 550, 650, 750)]


class TestValidation:
    def test_parameter_enum(self):
        assert PARAMETERS == ("walk_threshold_m", "time_gate_min",
                              "max_transfers", "cost_ratio")
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            elasticity_sweep([], _PLANNER, _NET, _LEX, ClassifierConfig(),
                             "time_ratio", [2.0])

    def test_values_must_include_baseline(self):
        with pytest.raises(ValueError, match="baseline"):
            elasticity_sweep([], _PLANNER, _NET, _LEX, ClassifierConfig(),
                             "walk_threshold_m", [300.0, 500.0])

    def test_values_must_not_be_empty(self):
        with pytest.raises(ValueError, match="empty"):
            elasticity_sweep([], _PLANNER, _NET, _LEX, ClassifierConfig(),
                             "walk_threshold_m", [])

    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_non_positive_value_rejected(self, bad):
        with pytest.raises(ValueError, match="positive"):
            elasticity_sweep([], _PLANNER, _NET, _LEX, ClassifierConfig(),
                             "walk_threshold_m", [bad, 400.0])


class TestArcElasticity:
    def test_hand_computed(self):
        # share 0.5 -> 0.6 while the threshold moves 400 -> 600:
        # (0.1/0.5) / (200/400) = 0.2 / 0.5 = 0.4
        assert arc_elasticity(400.0, 0.5, 600.0, 0.6) == pytest.approx(0.4)

    def test_none_at_anchor(self):
        assert arc_elasticity(400.0, 0.5, 400.0, 0.5) is None

    def test_none_when_baseline_share_zero(self):
        assert arc_elasticity(400.0, 0.0, 600.0, 0.2) is None

    def test_none_when_baseline_value_zero(self):
        assert arc_elasticity(0.0, 0.5, 1.0, 0.75) is None

    def test_sign_tracks_direction(self):
        assert arc_elasticity(400.0, 0.5, 300.0, 0.25) > 0  # both shrink
        assert arc_elasticity(400.0, 0.5, 300.0, 0.75) < 0  # opposite moves


class TestWalkSweep:
    VALUES = [300.0, 400.0, 500.0, 600.0, 700.0, 800.0]

    def test_share_counts_by_construction(self):
        trips = _walk_trips()
        report = elasticity_sweep(trips, _PLANNER, _NET, _LEX,
                                  ClassifierConfig(), "walk_threshold_m",
                                  self.VALUES)
        # each 100 m of extra allowance admits exactly one more trip
        assert report.ratios == [i / 6 for i in range(1, 7)]
        assert report.baseline == 400.0
        assert report.values == self.VALUES

    def test_monotone_non_decreasing(self):
        report = elasticity_sweep(_walk_trips(), _PLANNER, _NET, _LEX,
                                  ClassifierConfig(), "walk_threshold_m",
                                  self.VALUES)
        assert all(a <= b for a, b in zip(report.ratios, report.ratios[1:]))

    def test_baseline_matches_plain_classification_exactly(self):
        trips = _walk_trips()
        _, summary = classify_all(trips, _PLANNER, _NET, _LEX,
                                  ClassifierConfig())
        report = elasticity_sweep(trips, _PLANNER, _NET, _LEX,
                                  ClassifierConfig(), "walk_threshold_m",
                                  self.VALUES)
        at_baseline = report.ratios[report.values.index(400.0)]
        assert at_baseline == summary["shares"][SUBSTITUTIVE]

    def test_anchor_elasticity_is_none_others_match_formula(self):
        report = elasticity_sweep(_walk_trips(), _PLANNER, _NET, _LEX,
                                  ClassifierConfig(), "walk_threshold_m",
                                  self.VALUES)
        base_ratio = report.ratios[1]
        assert report.elasticities[1] is None
        for i, value in enumerate(self.VALUES):
            if value == 400.0:
                continue
            want = (((report.ratios[i] - base_ratio) / base_ratio)
                    / ((value - 400.0) / 400.0))
            assert report.elasticities[i] == pytest.approx(want, rel=1e-12)

    def test_planner_called_once_per_trip(self):
        calls = []

        class Counting:
            def plan(self, olon, olat, dlon, dlat):
                calls.append(1)
                return _PLANNER.plan(olon, olat, dlon, dlat)

        trips = _walk_trips()
        elasticity_sweep(trips, Counting(), _NET, _LEX, ClassifierConfig(),
                         "walk_threshold_m", self.VALUES)
        assert len(calls) == len(trips)


class TestTimeGateSweep:
    VALUES = [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]

    def _trips_and_gaps(self):
        # short-duration trips over journeys of increasing length; with the
        # duration below every swept gate, a trip passes the time condition
        # exactly when (pt time - duration) fits the gate
        ods = [
            (M1, M2),
            (M1, M4),
            (B1, B3),
            (M1, M6),
            ((B1[0], B1[1] - 390 * LAT_M), (B3[0], B3[1] - 390 * LAT_M)),
            ((M1[0], M1[1] + 390 * LAT_M), (M6[0], M6[1] + 390 * LAT_M)),
        ]
        trips = [_trip(o, d, duration=5) for o, d in ods]
        gaps = []
        for trip in trips:
            alt = _PLANNER.plan(trip.olon, trip.olat, trip.dlon, trip.dlat)
            assert alt.available
            assert alt.access_walk_m <= 400 and alt.egress_walk_m <= 400
            gaps.append(alt.t_pt_min - trip.duration_min)
        return trips, gaps

    def test_shares_match_gap_counts_and_are_monotone(self):
        trips, gaps = self._trips_and_gaps()
        report = elasticity_sweep(trips, _PLANNER, _NET, _LEX,
                                  ClassifierConfig(), "time_gate_min",
                                  self.VALUES)
        expected = [sum(1 for gap in gaps if gap <= g) / len(trips)
                    for g in self.VALUES]
        assert report.ratios == expected
        assert all(a <= b for a, b in zip(report.ratios, report.ratios[1:]))
        # the sweep actually discriminates: at least three distinct shares
        assert len(set(report.ratios)) >= 3
        assert report.elasticities[self.VALUES.index(15.0)] is None


class TestTransferSweep:
    def _chain(self):
        # three metro lines sharing consecutive stations: j1 -> j4 needs two
        # transfers, j1 -> j3 one, j1 -> j2 none
        def station(sid, lon, lines):
            return Station(id=sid, name=f"Stop {sid}", aliases=(), lon=lon,
                           lat=31.0, mode="metro", line_ids=tuple(lines))

        stations = {
            "j1": station("j1", 121.000, ["L1"]),
            "j2": station("j2", 121.015, ["L1", "L2"]),
            "j3": station("j3", 121.030, ["L2", "L3"]),
            "j4": station("j4", 121.045, ["L3"]),
        }

        def route(rid, sids):
            return Route(id=rid, line_id=rid, mode="metro",
                         station_ids=tuple(sids), headway_min=6.0,
                         service_start=330, service_end=1410,
                         speed_kmh=35.0, fare_class="metro")

        net = TransitNetwork(stations=stations,
                             routes={"L1": route("L1", ["j1", "j2"]),
                                     "L2": route("L2", ["j2", "j3"]),
                                     "L3": route("L3", ["j3", "j4"])},
                             fares=FareRules())
        return net, NetworkPlanner(net), station_lexicon(net)

    def test_relaxing_transfers_is_monotone(self):
        net, planner, lex = self._chain()
        c = {sid: (net.stations[sid].lon, net.stations[sid].lat)
             for sid in net.stations}
        trips = [_trip(c["j1"], c["j2"]),   # direct
                 _trip(c["j1"], c["j3"]),   # one transfer
                 _trip(c["j1"], c["j4"])]   # two transfers
        report = elasticity_sweep(trips, planner, net, lex,
                                  ClassifierConfig(), "max_transfers",
                                  [1.0, 2.0, 3.0])
        assert report.ratios == [2 / 3, 1.0, 1.0]
        assert report.elasticities[1] is None
        # tightening to one transfer: (-1/3) / (-1/2) = 2/3
        assert report.elasticities[0] == pytest.approx(2 / 3, rel=1e-12)
        assert report.elasticities[2] == 0.0

    def _chain_trips(self, net):
        c = {sid: (net.stations[sid].lon, net.stations[sid].lat)
             for sid in net.stations}
        return [_trip(c["j1"], c["j2"]), _trip(c["j1"], c["j3"]),
                _trip(c["j1"], c["j4"])]

    def test_zero_transfers_is_a_valid_point(self):
        net, planner, lex = self._chain()
        trips = self._chain_trips(net)
        report = elasticity_sweep(trips, planner, net, lex, ClassifierConfig(),
                                  "max_transfers", [0, 1, 2, 3])
        _, summary = classify_all(trips, planner, net, lex,
                                  ClassifierConfig(max_transfers=0))
        assert report.values == [0.0, 1.0, 2.0, 3.0]
        assert report.ratios[0] == summary["shares"][SUBSTITUTIVE] == 1 / 3
        assert report.ratios == [1 / 3, 2 / 3, 1.0, 1.0]

    def test_zero_baseline_has_no_elasticities(self):
        net, planner, lex = self._chain()
        report = elasticity_sweep(self._chain_trips(net), planner, net, lex,
                                  ClassifierConfig(max_transfers=0),
                                  "max_transfers", [0, 1, 2])
        assert report.ratios == [1 / 3, 2 / 3, 1.0]
        assert report.elasticities == [None, None, None]

    @pytest.mark.parametrize("bad", [1.5, -1.0])
    def test_fractional_or_negative_transfers_rejected(self, bad):
        net, planner, lex = self._chain()
        with pytest.raises(ValueError, match="max_transfers"):
            elasticity_sweep([], planner, net, lex, ClassifierConfig(),
                             "max_transfers", [bad, 2.0])


class TestCostRatioSweep:
    def test_collapse_when_fares_sit_just_under_half(self):
        # all transit fares at exactly 0.45x the trip cost: every trip is
        # substitutive at the 0.5 default and none survives 0.4
        fare = _PLANNER.plan(M1[0], M1[1], M4[0], M4[1]).fare_rmb
        assert fare > 0
        cost = fare / 0.45
        trips = [_trip(M1, M4, cost=cost, pickup=540 + 30 * i)
                 for i in range(4)]
        report = elasticity_sweep(trips, _PLANNER, _NET, _LEX,
                                  ClassifierConfig(), "cost_ratio",
                                  [0.4, 0.5])
        assert report.ratios == [0.0, 1.0]
        # (-100% share) / (-20% threshold) = 5
        assert report.elasticities[0] == pytest.approx(5.0, rel=1e-12)
        assert report.elasticities[1] is None
        assert all(a <= b for a, b in zip(report.ratios, report.ratios[1:]))


class TestOutputs:
    def _report(self):
        return ElasticityReport(parameter="walk_threshold_m", baseline=400.0,
                                values=[300.0, 400.0], ratios=[0.25, 0.5],
                                elasticities=[2.0, None])

    def test_csv_layout_with_empty_anchor_cell(self, tmp_path):
        path = tmp_path / "elasticity.csv"
        write_elasticity_csv([self._report()], path)
        lines = path.read_text().strip().split("\n")
        assert lines == [
            "parameter,value,substitutive_ratio,arc_elasticity",
            "walk_threshold_m,300.0,0.25,2.0",
            "walk_threshold_m,400.0,0.5,",
        ]

    def test_csv_stacks_multiple_parameters(self, tmp_path):
        other = ElasticityReport(parameter="cost_ratio", baseline=0.5,
                                 values=[0.5], ratios=[0.1],
                                 elasticities=[None])
        path = tmp_path / "elasticity.csv"
        write_elasticity_csv([self._report(), other], path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 4
        assert lines[3] == "cost_ratio,0.5,0.1,"

    def test_svg_is_deterministic_and_sorted(self):
        # points given out of order are plotted low-to-high
        report = ElasticityReport(parameter="time_gate_min", baseline=15.0,
                                  values=[20.0, 10.0, 15.0],
                                  ratios=[0.8, 0.2, 0.5],
                                  elasticities=[1.0, None, None])
        a = elasticity_svg(report)
        b = elasticity_svg(report)
        assert a == b
        assert a.startswith("<svg")
        assert 'width="800" height="600"' in a
        assert "time_gate_min" in a
