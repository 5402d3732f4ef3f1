"""Tests for the threshold sweep: shares recomputed per value over cached
journeys, baseline-anchored arc elasticities, and CSV/SVG outputs."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cityfix import build_city
from ridelink import classify, sensitivity
from ridelink.classify import FIRST_MILE, INDEPENDENT, SUBSTITUTIVE, ClassifierConfig
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
from trip_oracle import TripRecord, from_records

# the stages that take a trip table, on lists of records
classify_all = from_records(classify.classify_all)
sweep_base = from_records(sensitivity.sweep_base)

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


def _sweep(trips, planner, net, lexicon, cfg, parameter, values):
    """One parameter's sweep over a base of its own, built from the
    verdicts of ``classify_all``."""
    results, _ = classify_all(trips, planner, net, lexicon, cfg)
    return elasticity_sweep(sweep_base(trips, results, planner), cfg, parameter, values)


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
            _sweep([], _PLANNER, _NET, _LEX, ClassifierConfig(),
                   "time_ratio", [2.0])

    def test_values_must_include_baseline(self):
        with pytest.raises(ValueError, match="baseline"):
            _sweep([], _PLANNER, _NET, _LEX, ClassifierConfig(),
                   "walk_threshold_m", [300.0, 500.0])

    def test_values_must_not_be_empty(self):
        with pytest.raises(ValueError, match="empty"):
            _sweep([], _PLANNER, _NET, _LEX, ClassifierConfig(),
                   "walk_threshold_m", [])

    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_non_positive_value_rejected(self, bad):
        with pytest.raises(ValueError, match="positive"):
            _sweep([], _PLANNER, _NET, _LEX, ClassifierConfig(),
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
        report = _sweep(trips, _PLANNER, _NET, _LEX,
                        ClassifierConfig(), "walk_threshold_m",
                        self.VALUES)
        # each 100 m of extra allowance admits exactly one more trip
        assert report.ratios == [i / 6 for i in range(1, 7)]
        assert report.baseline == 400.0
        assert report.values == self.VALUES

    def test_monotone_non_decreasing(self):
        report = _sweep(_walk_trips(), _PLANNER, _NET, _LEX,
                        ClassifierConfig(), "walk_threshold_m",
                        self.VALUES)
        assert all(a <= b for a, b in zip(report.ratios, report.ratios[1:]))

    def test_baseline_matches_plain_classification_exactly(self):
        trips = _walk_trips()
        _, summary = classify_all(trips, _PLANNER, _NET, _LEX,
                                  ClassifierConfig())
        report = _sweep(trips, _PLANNER, _NET, _LEX,
                        ClassifierConfig(), "walk_threshold_m",
                        self.VALUES)
        at_baseline = report.ratios[report.values.index(400.0)]
        assert at_baseline == summary["shares"][SUBSTITUTIVE]

    def test_anchor_elasticity_is_none_others_match_formula(self):
        report = _sweep(_walk_trips(), _PLANNER, _NET, _LEX,
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

    def _mixed_trips(self):
        """The walk trips, then one out of service (fails C1) and one whose
        drop-off names a station (first-mile at C2): neither reaches C3."""
        return _walk_trips() + [
            _trip(M1, M4, pickup=120),
            replace(_trip(M1, M4), dropoff_label="Fir Station")]

    def _counting(self, calls):
        class Counting:
            def plan(self, olon, olat, dlon, dlat):
                calls.append((olon, olat, dlon, dlat))
                return _PLANNER.plan(olon, olat, dlon, dlat)

        return Counting()

    def test_planner_called_once_per_trip(self):
        calls = []
        trips = self._mixed_trips()
        results, _ = classify_all(trips, _PLANNER, _NET, _LEX, ClassifierConfig())
        assert results.label[-2:] == [INDEPENDENT, FIRST_MILE]
        assert results.failed_condition[-2] == "C1"
        base = sweep_base(trips, results, self._counting(calls))
        assert calls == [(t.olon, t.olat, t.dlon, t.dlat) for t in trips[:-2]]
        assert base.total == len(trips)
        assert [(duration, cost) for duration, cost, _ in base.reaching] == [
            (t.duration_min, t.cost) for t in trips[:-2]]

    def test_one_base_serves_every_parameter(self):
        calls = []
        trips = self._mixed_trips()
        cfg = ClassifierConfig()
        results, _ = classify_all(trips, _PLANNER, _NET, _LEX, cfg)
        base = sweep_base(trips, results, self._counting(calls))
        for parameter, values in (("walk_threshold_m", self.VALUES),
                                  ("time_gate_min", [10.0, 15.0, 20.0]),
                                  ("cost_ratio", [0.3, 0.5])):
            assert (elasticity_sweep(base, cfg, parameter, values)
                    == _sweep(trips, _PLANNER, _NET, _LEX, cfg, parameter, values))
        assert len(calls) == len(trips) - 2


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
        report = _sweep(trips, _PLANNER, _NET, _LEX,
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
                         speed_kmh=35.0)

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
        report = _sweep(trips, planner, net, lex,
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
        report = _sweep(trips, planner, net, lex, ClassifierConfig(),
                        "max_transfers", [0, 1, 2, 3])
        _, summary = classify_all(trips, planner, net, lex,
                                  ClassifierConfig(max_transfers=0))
        assert report.values == [0.0, 1.0, 2.0, 3.0]
        assert report.ratios[0] == summary["shares"][SUBSTITUTIVE] == 1 / 3
        assert report.ratios == [1 / 3, 2 / 3, 1.0, 1.0]

    def test_zero_baseline_has_no_elasticities(self):
        net, planner, lex = self._chain()
        report = _sweep(self._chain_trips(net), planner, net, lex,
                        ClassifierConfig(max_transfers=0),
                        "max_transfers", [0, 1, 2])
        assert report.ratios == [1 / 3, 2 / 3, 1.0]
        assert report.elasticities == [None, None, None]

    @pytest.mark.parametrize("bad", [1.5, -1.0])
    def test_fractional_or_negative_transfers_rejected(self, bad):
        net, planner, lex = self._chain()
        with pytest.raises(ValueError, match="max_transfers"):
            _sweep([], planner, net, lex, ClassifierConfig(),
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
        report = _sweep(trips, _PLANNER, _NET, _LEX,
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


class _MemoPlanner:
    """Plans each OD pair once across the many classification runs below."""

    def __init__(self, planner):
        self.planner = planner
        self.alts = {}

    def plan(self, olon, olat, dlon, dlat):
        key = (olon, olat, dlon, dlat)
        if key not in self.alts:
            self.alts[key] = self.planner.plan(olon, olat, dlon, dlat)
        return self.alts[key]


_MEMO = _MemoPlanner(_PLANNER)
_ENDS = [M1, M2, M3, M4, M6, B1, B3, (121.020, 31.020)]
# plain addresses, and station labels that make first- and last-mile trips
_LABELS = ["Somewhere", "Elsewhere", "Alder Station Exit B", "Fir Station"]
# before, at and after the service windows (B1 runs 360-1380, metro 330-1410)
_PICKUPS = [120, 330, 360, 600, 1380, 1400, 1420]


@st.composite
def _trip_sets(draw):
    """Trips over the fixture city. Costs are whole multiples or simple
    fractions of the journey's fare, so fare / cost can land exactly on a
    cost_ratio point."""
    trips = []
    for _ in range(draw(st.integers(1, 8))):
        o, d = draw(st.sampled_from(_ENDS)), draw(st.sampled_from(_ENDS))
        north = draw(st.sampled_from([0, 150, 300, 450])) * LAT_M
        o = (o[0], o[1] + north)
        fare = _MEMO.plan(o[0], o[1], d[0], d[1]).fare_rmb or 4.0
        pickup = draw(st.sampled_from(_PICKUPS))
        trips.append(TripRecord(
            plate_id="p", olon=o[0], olat=o[1],
            pickup_label=draw(st.sampled_from(_LABELS)), pickup_min=pickup,
            dlon=d[0], dlat=d[1], dropoff_label=draw(st.sampled_from(_LABELS)),
            dropoff_min=pickup + draw(st.integers(1, 45)), distance_km=8.0,
            cost=fare * draw(st.sampled_from([1.0, 2.0, 4.0, 2.5, 0.5]))))
    return trips


def _threshold_points(parameter, trips):
    """Values that put some trip exactly on the parameter's inclusive
    threshold, plus the default: each walk, each trip duration (C4 switches
    branch at duration == gate) and transit time gap, each transfer count,
    each fare / cost."""
    points = {float(getattr(ClassifierConfig(), parameter))}
    for trip in trips:
        alt = _MEMO.plan(trip.olon, trip.olat, trip.dlon, trip.dlat)
        if parameter == "walk_threshold_m":
            points |= {alt.access_walk_m, alt.egress_walk_m}
        elif parameter == "time_gate_min":
            points |= {float(trip.duration_min), alt.t_pt_min - trip.duration_min}
        elif parameter == "max_transfers":
            points |= {float(alt.transfers), 0.0}
        else:
            points.add(alt.fare_rmb / trip.cost)
    if parameter == "cost_ratio":
        return sorted(p for p in points if 0.0 < p <= 1.0)
    return sorted(p for p in points if p > 0.0 or parameter == "max_transfers")


class TestSweepMatchesClassifyAll:
    """The sweep takes each trip's C1 and C2 verdicts from one classification
    and re-runs only C3-C6 per point; every point's share must still be
    ``classify_all``'s at that config."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), trips=_trip_sets(), parameter=st.sampled_from(PARAMETERS))
    def test_every_point_equals_classify_all(self, data, trips, parameter):
        candidates = _threshold_points(parameter, trips)
        values = data.draw(st.lists(st.sampled_from(candidates), min_size=1,
                                    max_size=6, unique=True))
        baseline = values[0]
        as_config = int if parameter == "max_transfers" else float
        cfg = replace(ClassifierConfig(), **{parameter: as_config(baseline)})
        report = _sweep(trips, _MEMO, _NET, _LEX, cfg, parameter, values)
        for value, ratio in zip(values, report.ratios):
            swept = replace(cfg, **{parameter: as_config(value)})
            _, summary = classify_all(trips, _MEMO, _NET, _LEX, swept)
            assert ratio == summary["shares"][SUBSTITUTIVE], (parameter, value)

    @pytest.mark.parametrize("walk_end", ["access", "egress"])
    def test_trip_on_every_threshold_is_substitutive(self, walk_end):
        # one trip sitting exactly on all four inclusive thresholds at once:
        # its access or egress walk, its transit time gap (an 8-minute trip,
        # so the short-trip branch of C4 applies), its transfers and half its
        # cost as the fare
        off = (M1[0], M1[1] + 300 * LAT_M)
        o, d = (off, M4) if walk_end == "access" else (M4, off)
        alt = _PLANNER.plan(o[0], o[1], d[0], d[1])
        walk = getattr(alt, f"{walk_end}_walk_m")
        trip = _trip(o, d, duration=8, cost=2 * alt.fare_rmb)
        gap = alt.t_pt_min - 8
        assert walk > 0 and gap >= 8
        cfg = ClassifierConfig(walk_threshold_m=walk, time_gate_min=gap,
                               max_transfers=alt.transfers, cost_ratio=0.5)
        below = {"walk_threshold_m": walk - 0.01, "time_gate_min": gap - 0.01,
                 "max_transfers": alt.transfers - 1, "cost_ratio": 0.49}
        for parameter in PARAMETERS:
            values = [float(getattr(cfg, parameter)), below[parameter]]
            if values[1] < 0:  # a direct journey has no fewer transfers
                values.pop()
            report = _sweep([trip], _PLANNER, _NET, _LEX, cfg, parameter, values)
            assert report.ratios == [1.0, 0.0][:len(values)], parameter

    def test_duration_equal_to_gate_takes_the_short_trip_branch(self):
        # transit takes about 16.6 min against a 10-minute trip; with
        # time_ratio 1.5 the long-trip branch fails (16.6 > 15), and the
        # short-trip branch passes (gap 6.6 <= gate) while duration <= gate
        alt = _PLANNER.plan(M1[0], M1[1] + 300 * LAT_M, M4[0], M4[1])
        trip = _trip((M1[0], M1[1] + 300 * LAT_M), M4, duration=10)
        cfg = ClassifierConfig(time_ratio=1.5)
        assert alt.t_pt_min > 1.5 * 10 and alt.t_pt_min - 10 <= 9
        report = _sweep([trip], _PLANNER, _NET, _LEX, cfg,
                        "time_gate_min", [15.0, 10.0, 9.0])
        assert report.ratios == [1.0, 1.0, 0.0]
