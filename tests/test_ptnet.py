import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cityfix import build_lattice
from enum_oracle import best_journey, random_network
from numpy_geo_oracle import nearest_station as oracle_nearest
from planner_oracle import OraclePlanner
from ridelink.geo import EARTH_RADIUS_M, great_circle_m
from ridelink.ptnet import (
    DEFAULT_SEARCH_RADIUS_M,
    CachedPlanner,
    FareRules,
    Leg,
    NetworkPlanner,
    PtAlternative,
    Route,
    Station,
    TransitNetwork,
    UNAVAILABLE,
    WALK_SPEED_KMH,
    alternative_fare,
    is_in_service,
    load_network,
    station_lexicon,
    validate_network,
    write_fares,
    write_routes,
    write_stations,
)


def deg_for_m(metres: float) -> float:
    return math.degrees(metres / EARTH_RADIUS_M)


def two_stop_net(leg_minutes=10.0, headway=10.0, ride_km=5000.0):
    a_lat, b_lat = 31.0, 31.0 + deg_for_m(ride_km)
    stations = {
        "A": Station("A", "Stop A", (), 121.0, a_lat, "metro", ("L1",)),
        "B": Station("B", "Stop B", (), 121.0, b_lat, "metro", ("L1",)),
    }
    routes = {
        "R1": Route("R1", "L1", "metro", ("A", "B"), headway, 330, 1410, 30.0,
                    leg_times_min=(leg_minutes,)),
    }
    return TransitNetwork(stations=stations, routes=routes, fares=FareRules()), a_lat, b_lat


class TestPlanner:
    def test_walk_wait_ride_walk_arithmetic(self):
        # 0.2 km walk at 4.8 km/h = 2.5 min on each end, headway 10 -> 5 min
        # wait, one 10 min ride: 20 minutes door to door, no transfers
        net, a_lat, b_lat = two_stop_net()
        planner = NetworkPlanner(net)
        alt = planner.plan(121.0, a_lat - deg_for_m(200.0), 121.0, b_lat + deg_for_m(200.0))
        assert alt.available
        assert alt.t_pt_min == pytest.approx(20.0, abs=1e-6)
        assert alt.transfers == 0
        assert alt.gen_cost_min == alt.t_pt_min
        assert alt.access_walk_m == pytest.approx(200.0, abs=1e-6)
        assert alt.egress_walk_m == pytest.approx(200.0, abs=1e-6)
        assert alt.fare_rmb == 3.0  # one metro leg of ~5 km
        assert len(alt.legs) == 1 and alt.legs[0].board == "A"

    def test_unreachable_origin(self):
        net, a_lat, b_lat = two_stop_net()
        planner = NetworkPlanner(net)
        alt = planner.plan(121.2, a_lat, 121.0, b_lat)  # ~19 km from both stops
        assert alt == UNAVAILABLE

    def test_same_station_board_and_alight_is_unavailable(self):
        net, a_lat, _ = two_stop_net(ride_km=2000.0)
        planner = NetworkPlanner(net)
        # both endpoints only reach stop A; any journey would alight where it boarded
        alt = planner.plan(121.0, a_lat - deg_for_m(250.0), 121.0, a_lat - deg_for_m(300.0))
        assert not alt.available

    def test_transfer_path_and_hub(self, city_net, city_planner):
        # m1 (west end of M1) to m6 (north end of M2) must change at the hub m3
        o = (city_net.stations["m1"].lon, city_net.stations["m1"].lat - deg_for_m(100))
        d = (city_net.stations["m6"].lon, city_net.stations["m6"].lat + deg_for_m(100))
        alt = city_planner.plan(o[0], o[1], d[0], d[1])
        assert alt.available
        assert alt.transfers == 1
        assert [l.route_id for l in alt.legs] == ["M1", "M2"]
        assert alt.legs[0].alight == "m3" and alt.legs[1].board == "m3"
        assert alt.gen_cost_min == pytest.approx(alt.t_pt_min + 5.0, rel=1e-12)
        assert city_net.stations["m3"].is_hub

    def test_t_pt_equals_sum_of_parts(self, city_net, city_planner):
        rng = np.random.default_rng(3)
        for _ in range(25):
            o = (121.0 + rng.uniform(0, 0.06), 30.98 + rng.uniform(0, 0.06))
            d = (121.0 + rng.uniform(0, 0.06), 30.98 + rng.uniform(0, 0.06))
            alt = city_planner.plan(o[0], o[1], d[0], d[1])
            if not alt.available:
                continue
            walk = (alt.access_walk_m + alt.egress_walk_m) / 1000.0 / WALK_SPEED_KMH * 60.0
            waits = sum(city_net.routes[l.route_id].headway_min / 2.0 for l in alt.legs)
            rides = sum(l.ride_min for l in alt.legs)
            assert alt.t_pt_min == pytest.approx(walk + waits + rides, rel=1e-9)
            assert alt.transfers == len(alt.legs) - 1

    def test_agrees_with_exhaustive_enumeration(self):
        for seed in range(40):
            rng = np.random.default_rng(9000 + seed)
            net = random_network(rng)
            planner = NetworkPlanner(net)
            for _ in range(3):
                o = (121.0 + float(rng.uniform(0, 0.03)), 31.0 + float(rng.uniform(0, 0.03)))
                d = (121.0 + float(rng.uniform(0, 0.03)), 31.0 + float(rng.uniform(0, 0.03)))
                expected = best_journey(net, o, d)
                alt = planner.plan(o[0], o[1], d[0], d[1])
                if expected is None:
                    assert not alt.available, f"seed {seed}: planner found a journey the oracle rules out"
                else:
                    assert alt.available, f"seed {seed}: oracle found a journey the planner missed"
                    assert alt.gen_cost_min == expected.gen_cost, f"seed {seed}"
                    assert alt.transfers == expected.transfers, f"seed {seed}"
                    assert alt.t_pt_min == expected.t_pt, f"seed {seed}"

    def test_deterministic_replanning(self, city_planner):
        a1 = city_planner.plan(121.001, 30.999, 121.055, 31.001)
        a2 = city_planner.plan(121.001, 30.999, 121.055, 31.001)
        assert a1 == a2

    def test_higher_headways_never_cheapen(self):
        for seed in range(15):
            rng = np.random.default_rng(500 + seed)
            net = random_network(rng)
            scaled_routes = {
                rid: Route(r.id, r.line_id, r.mode, r.station_ids, r.headway_min * 1.5,
                           r.service_start, r.service_end, r.speed_kmh,
                           r.leg_times_min)
                for rid, r in net.routes.items()
            }
            scaled = TransitNetwork(stations=net.stations, routes=scaled_routes, fares=net.fares)
            p1, p2 = NetworkPlanner(net), NetworkPlanner(scaled)
            for _ in range(3):
                o = (121.0 + float(rng.uniform(0, 0.03)), 31.0 + float(rng.uniform(0, 0.03)))
                d = (121.0 + float(rng.uniform(0, 0.03)), 31.0 + float(rng.uniform(0, 0.03)))
                a1 = p1.plan(o[0], o[1], d[0], d[1])
                a2 = p2.plan(o[0], o[1], d[0], d[1])
                assert a1.available == a2.available
                if a1.available:
                    assert a2.gen_cost_min >= a1.gen_cost_min - 1e-12
                    # the original journey itself also got slower
                    extra_wait = sum(0.5 * (scaled.routes[l.route_id].headway_min
                                            - net.routes[l.route_id].headway_min)
                                     for l in a1.legs)
                    assert extra_wait >= 0.0

    def test_symmetric_reversal(self):
        net, a_lat, b_lat = two_stop_net()
        planner = NetworkPlanner(net)
        o = (121.0, a_lat - deg_for_m(180.0))
        d = (121.0, b_lat + deg_for_m(320.0))
        fwd = planner.plan(o[0], o[1], d[0], d[1])
        rev = planner.plan(d[0], d[1], o[0], o[1])
        assert fwd.available and rev.available
        assert fwd.t_pt_min == pytest.approx(rev.t_pt_min, rel=1e-12)
        assert fwd.access_walk_m == pytest.approx(rev.egress_walk_m, rel=1e-12)

    def test_bad_radius(self, city_net):
        with pytest.raises(ValueError, match="radius"):
            NetworkPlanner(city_net, search_radius_m=0.0)
        for radius in (math.inf, math.nan):
            with pytest.raises(ValueError, match="radius"):
                NetworkPlanner(city_net, search_radius_m=radius)

    def test_bad_transfer_penalty(self, city_net):
        for penalty in (-10.0, -1e-9, math.inf, math.nan):
            with pytest.raises(ValueError, match="transfer penalty"):
                NetworkPlanner(city_net, transfer_penalty_min=penalty)
        # m1 to m6 changes at the hub m3, which costs nothing extra at 0
        alt = NetworkPlanner(city_net, transfer_penalty_min=0).plan(121.0, 30.999, 121.036, 31.031)
        assert alt.transfers == 1 and alt.gen_cost_min == alt.t_pt_min

    def test_golden_plans_on_tie_heavy_lattice(self):
        # Uniform leg times, one headway per mode and endpoints placed exactly
        # on stations make many journeys tie on cost, so this digest pins the
        # chosen legs and the lexicographic tie-break as well as the costs.
        rng = np.random.default_rng(2024)
        net = build_lattice(rng)
        sids = sorted(net.stations)
        lons = [s.lon for s in net.stations.values()]
        lats = [s.lat for s in net.stations.values()]
        ods = []
        for k in range(200):
            if k % 2:
                a, b = (net.stations[s] for s in rng.choice(sids, size=2, replace=False))
                ods.append((a.lon, a.lat, b.lon, b.lat))
            else:
                ods.append(tuple(float(rng.uniform(min(v) - 0.004, max(v) + 0.004))
                                 for v in (lons, lats, lons, lats)))
        lines = []
        for penalty in (0.0, 5.0):
            planner = NetworkPlanner(net, transfer_penalty_min=penalty)
            lines.extend(json.dumps(planner.plan(*od).to_dict()) for od in ods)
        assert sum('"transfers": 0' not in line for line in lines) > 100
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "e55d705da8559c57dab7f756abd52df7109c4e1d01092c368a27e7dcf6327f04"


@st.composite
def _planner_cases(draw):
    """Networks on a lattice of points about 600 m apart, where journeys tie on
    cost: row and column lines with one leg time, rings round a rectangle
    (either way round costs the same), walks that revisit a station or loop
    back to their first, co-located stations, leg-time tables with a 0-minute
    leg or legs faster than any cruise speed, transfer penalties of 0 and 5,
    and endpoints placed exactly on stations."""
    size = draw(st.integers(4, 7))
    at = dict(zip([(i, j) for i in range(size) for j in range(size)],
                  draw(st.permutations([f"S{k:02d}" for k in range(size * size)]))))
    point = {sid: (121.0 + 0.006 * i, 31.0 + 0.006 * j) for (i, j), sid in at.items()}
    twins = {}
    for k in range(draw(st.integers(0, 2))):
        twins[draw(st.sampled_from(sorted(at)))] = f"T{k}"
    point.update((sid, point[at[node]]) for node, sid in twins.items())
    lines = ([("bus", [at[i, j] for j in range(size)]) for i in range(size)]
             + [("metro", [at[i, j] for i in range(size)]) for j in range(size)])
    paths = [(mode, line, 2.0) for mode, line in lines if draw(st.booleans())]
    for _ in range(draw(st.integers(0, 2))):  # rings
        (i1, j1), (i2, j2) = draw(st.lists(st.sampled_from(sorted(at)), min_size=2, max_size=2,
                                           unique=True))
        ring = [at[i1, j1], at[i2, j1], at[i2, j2], at[i1, j2], at[i1, j1]]
        paths.append(("bus", ring if i1 != i2 and j1 != j2 else ring[:2], draw(
            st.sampled_from([None, 2.0]))))
    for _ in range(draw(st.integers(0 if paths else 1, 2))):
        node = draw(st.sampled_from(sorted(at)))
        path = [at[node]]
        for _ in range(draw(st.integers(1, 6))):  # to a node in the same row or column
            node = draw(st.sampled_from([n for n in sorted(at) if n != node and (
                n[0] == node[0] or n[1] == node[1])]))
            path.append(at[node])
            if node in twins and draw(st.booleans()):
                path.append(twins[node])
        if draw(st.booleans()):
            path.append(path[0])
        paths.append((draw(st.sampled_from(["metro", "bus"])), path,
                      draw(st.one_of(st.none(), st.sampled_from([0.0, 0.5, 2.0, 4.0])))))
    routes = {}
    for j, (mode, path, minutes) in enumerate(paths):
        table = None if minutes is None else tuple(
            draw(st.sampled_from([minutes, 2.0])) for _ in path[1:])
        routes[f"R{j}"] = Route(f"R{j}", f"L{j}", mode, tuple(path),
                                {"metro": 6.0, "bus": 8.0}[mode], 330, 1410,
                                {"metro": 30.0, "bus": 15.0}[mode], leg_times_min=table)
    stations = {sid: Station(sid, sid, (), *p, "bus", ()) for sid, p in point.items()}
    net = TransitNetwork(stations=stations, routes=routes, fares=FareRules())
    end = st.one_of(st.sampled_from(sorted(point.values())),
                    st.tuples(st.floats(120.998, 121.038), st.floats(30.998, 31.038)))
    ods = draw(st.lists(st.tuples(end, end).map(lambda p: (*p[0], *p[1])),
                        min_size=1, max_size=12))
    return net, draw(st.sampled_from([0.0, 5.0])), ods


class TestPlannerOracle:
    """The goal-directed search against the plain Dijkstra it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(case=_planner_cases())
    def test_plans_match_the_dijkstra_oracle(self, case):
        net, penalty, ods = case
        planner = NetworkPlanner(net, transfer_penalty_min=penalty)
        oracle = OraclePlanner(net, transfer_penalty_min=penalty)
        for od in ods:
            before = planner.states_expanded, oracle.states_expanded
            assert json.dumps(planner.plan(*od).to_dict()) == json.dumps(oracle.plan(*od).to_dict())
            assert planner.states_expanded - before[0] <= oracle.states_expanded - before[1]

    def test_lower_bound_settles_fewer_states(self):
        net = build_lattice(np.random.default_rng(2024))
        planner, oracle = NetworkPlanner(net), OraclePlanner(net)
        a, b = net.stations["N11"], net.stations["N55"]
        for od in ((a.lon, a.lat, b.lon, b.lat), (b.lon, b.lat, a.lon, a.lat)):
            assert planner.plan(*od) == oracle.plan(*od)
        assert 0 < planner.states_expanded < oracle.states_expanded

    @pytest.mark.parametrize("table", [None, (1.0, 0.0, 1.0, 1.0)])
    def test_zero_minute_leg_keeps_the_oracle_legs(self, table):
        # "a" and "b" share a point and R1 rides b -> a in 0 minutes, so (a, R1)
        # ties (a, R2) on cost but is reached only after it is popped; the
        # oracle keeps R2's transfer to R3, which a least-key tie rule would not
        o, x, d = (121.0, 31.0), (121.01, 31.0), (121.02, 31.0)
        stations = {sid: Station(sid, sid, (), *p, "bus", ())
                    for sid, p in (("o", o), ("a", x), ("b", x), ("d", d))}
        routes = {rid: Route(rid, rid, "bus", sids, 4.0, 330, 1410, 20.0, leg_times_min=t)
                  for rid, sids, t in (("R1", ("o", "b", "a", "b", "o"), table),
                                       ("R2", ("o", "a"), table and table[:1]),
                                       ("R3", ("a", "d"), table and table[:1]))}
        net = TransitNetwork(stations=stations, routes=routes, fares=FareRules())
        alt = NetworkPlanner(net).plan(*o, *d)
        assert alt == OraclePlanner(net).plan(*o, *d)
        assert [leg.route_id for leg in alt.legs] == ["R2", "R3"]


def _full_lattice(nodes: int) -> TransitNetwork:
    """A station at each node of a square lattice about 600 m apart, each row a
    metro line and each column a bus line, 2 minutes a leg."""
    def sid(i, j):
        return f"N{i:02d}-{j:02d}"

    stations = {sid(i, j): Station(sid(i, j), sid(i, j), (), 121.0 + 0.006 * i, 31.0 + 0.006 * j,
                                   "metro", (f"R{j}", f"C{i}"))
                for i in range(nodes) for j in range(nodes)}
    routes = {}
    for k in range(nodes):
        for rid, mode, path in ((f"R{k}", "metro", [sid(i, k) for i in range(nodes)]),
                                (f"C{k}", "bus", [sid(k, j) for j in range(nodes)])):
            routes[rid] = Route(rid, rid, mode, tuple(path), {"metro": 6.0, "bus": 8.0}[mode],
                                330, 1410, 30.0, leg_times_min=(2.0,) * (nodes - 1))
    return TransitNetwork(stations=stations, routes=routes, fares=FareRules())


@st.composite
def _block_cases(draw):
    """A case of ``_planner_cases`` with its trips drawn again, with repeats,
    to fill one to three ``plan_many`` blocks and a part of one, and with a
    search radius that is either the default or the exact distance from one
    trip end to one station, which then lies on the radius."""
    net, penalty, ods = draw(_planner_cases())
    block = NetworkPlanner(net).block_trips
    rnd = draw(st.randoms(use_true_random=False))
    trips = [rnd.choice(ods) for _ in range(draw(st.integers(block + 1, 3 * block + 1)))]
    radius = DEFAULT_SEARCH_RADIUS_M
    if draw(st.booleans()):
        end = draw(st.sampled_from([od[:2] for od in ods] + [od[2:] for od in ods]))
        d = net.station_distances_m(*end)
        radius = float(d[draw(st.integers(0, len(d) - 1))]) or radius
    return net, penalty, radius, trips


class TestPlanBlocks:
    """``plan_many``'s block front end against the per-point search it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(case=_block_cases())
    def test_blocks_match_the_dijkstra_oracle(self, case):
        net, penalty, radius, trips = case
        planner = NetworkPlanner(net, radius, penalty)
        oracle = OraclePlanner(net, radius, penalty)
        expected = {od: json.dumps(oracle.plan(*od).to_dict()) for od in set(trips)}
        got = planner.plan_many(trips)
        assert len(got) == len(trips) > planner.block_trips
        assert [json.dumps(alt.to_dict()) for alt in got] == [expected[od] for od in trips]
        one_by_one = NetworkPlanner(net, radius, penalty)
        for od in trips:
            one_by_one.plan(*od)
        assert planner.states_expanded == one_by_one.states_expanded

    def test_one_trip_fills_a_block_on_a_wide_lattice(self):
        # 35 x 35 stations, so the two ends of one trip take more than half a block
        net = _full_lattice(35)
        planner, oracle = NetworkPlanner(net), OraclePlanner(net)
        assert len(net.station_ids) > 1000 and planner.block_trips == 1
        a, b, c = (net.stations[sid] for sid in ("N10-10", "N14-14", "N20-12"))
        ods = [(a.lon, a.lat, b.lon, b.lat), (b.lon + 0.001, b.lat, c.lon, c.lat - 0.002),
               (121.0, 30.9, c.lon, c.lat)]
        trips = [ods[k] for k in (0, 1, 0, 2, 1, 1)]
        expected = [json.dumps(oracle.plan(*od).to_dict()) for od in trips]
        assert [json.dumps(alt.to_dict()) for alt in planner.plan_many(trips)] == expected
        assert '"available": false' in expected[3] and expected[0] != expected[1]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), stations=st.integers(1, 1200),
           trips=st.integers(1, 40), spread=st.sampled_from([1e-4, 0.05, 5.0, 90.0]))
    def test_block_rows_are_the_per_point_rows(self, seed, stations, trips, spread):
        rng = np.random.default_rng(seed)
        lons = rng.uniform(-spread, spread, stations + 2 * trips) * 2.0
        lats = rng.uniform(-spread, spread, stations + 2 * trips)
        on_first = rng.random(len(lons)) < 0.1  # stations and ends on one point
        lons[on_first], lats[on_first] = lons[0], lats[0]
        net = TransitNetwork(stations={f"S{i:04d}": Station(f"S{i:04d}", "", (), float(lons[i]),
                                                            float(lats[i]), "bus", ())
                                       for i in range(stations)}, routes={})
        # plan_many's block: an (origin, destination) pair of rows per trip,
        # passed as the column views of one (ends, 2) array
        ends = np.stack([lons[stations:], lats[stations:]], axis=1)
        rows = net.distance_rows(ends[:, 0], ends[:, 1])
        assert rows.shape == (2 * trips, stations)
        for row, (lon, lat) in zip(rows, ends.tolist()):
            assert row.tobytes() == net.station_distances_m(lon, lat).tobytes()


class TestFares:
    def test_metro_distance_bands(self):
        rules = FareRules()
        assert rules.metro_fare(5.0) == 3.0
        assert rules.metro_fare(6.0) == 3.0
        assert rules.metro_fare(6.01) == 4.0
        assert rules.metro_fare(16.0) == 4.0
        assert rules.metro_fare(16.5) == 5.0
        assert rules.metro_fare(26.0) == 5.0
        assert rules.metro_fare(26.5) == 6.0

    def test_alternative_fare_sums_legs(self, city_net):
        legs = [
            Leg("metro", "M1", "M1", "m1", "m3", 6.0, 3.4),
            Leg("bus", "B1", "B1", "b1", "b3", 10.0, 3.4),
        ]
        assert alternative_fare(city_net, legs) == 5.0  # 3 metro + 2 bus flat

    @pytest.mark.parametrize("rule, value", [
        ("metro_base", math.nan), ("metro_base", math.inf), ("bus_flat", -2.0),
        ("bus_flat", True), ("bus_flat", "2"), ("bus_flat", None), ("metro_step_km", 0),
        pytest.param("metro_base", 10 ** 400, id="metro_base-over_float"),
    ])
    def test_rejects_bad_rule(self, rule, value):
        with pytest.raises(ValueError, match=f"fare rule '{rule}'"):
            FareRules(**{rule: value})

    def test_zero_fares_allowed(self):
        assert FareRules(bus_flat=0, metro_base=0, metro_base_km=0, metro_step_rmb=0).bus_flat == 0


class TestServiceWindows:
    def _alt_on(self, route_id):
        return PtAlternative(available=True, access_walk_m=100, egress_walk_m=100,
                             t_pt_min=20, transfers=0, fare_rmb=2, gen_cost_min=20,
                             legs=(Leg("bus", route_id, route_id, "x", "y", 10.0, 2.0),))

    def test_daytime_trip_within_window(self, city_net):
        alt = self._alt_on("M1")
        start = 2 * 1440 + 8 * 60 + 30
        assert is_in_service(city_net, alt, (start, start + 65))

    def test_overnight_trip_outside_all_windows(self, city_net):
        alt = self._alt_on("M1")
        start = 1 * 60  # 01:00
        assert not is_in_service(city_net, alt, (start, start + 30))

    def test_window_edge_counts_at_trip_start(self, city_net):
        # bus route B1 ends 23:00; a 22:50 departure is in service even though
        # the trip finishes after the window closes
        alt = self._alt_on("B1")
        start = 22 * 60 + 50
        assert is_in_service(city_net, alt, (start, start + 20))
        assert not is_in_service(city_net, alt, (23 * 60 + 10, 23 * 60 + 30))

    def test_every_leg_must_be_in_service(self, city_net):
        legs = (Leg("metro", "M1", "M1", "m1", "m3", 6.0, 3.4),
                Leg("bus", "B1", "B1", "b3", "b1", 10.0, 3.4))
        alt = PtAlternative(True, 100, 100, 30, 1, 5, 35, legs)
        start = 5 * 60 + 45  # metro runs from 05:30, bus only from 06:00
        assert not is_in_service(city_net, alt, (start, start + 40))
        assert is_in_service(city_net, alt, (6 * 60 + 5, 6 * 60 + 45))

    def test_fallback_to_network_when_no_legs(self, city_net):
        assert is_in_service(city_net, UNAVAILABLE, (12 * 60, 12 * 60 + 20))
        assert not is_in_service(city_net, UNAVAILABLE, (60, 90))


class TestNetworkIO:
    def test_roundtrip(self, city_net, tmp_path):
        sp, rp, fp = tmp_path / "s.csv", tmp_path / "r.csv", tmp_path / "f.json"
        write_stations(city_net.stations.values(), str(sp))
        write_routes(city_net.routes.values(), str(rp))
        write_fares(city_net.fares, str(fp))
        loaded = load_network(str(sp), str(rp), str(fp))
        assert loaded.stations == city_net.stations
        assert loaded.routes == city_net.routes
        assert loaded.fares == city_net.fares

    def test_route_with_missing_station(self, city_net, tmp_path):
        routes = dict(city_net.routes)
        routes["BAD"] = Route("BAD", "LX", "bus", ("b1", "ghost"), 10.0, 360, 1380, 20.0)
        with pytest.raises(ValueError, match="'BAD'.*'ghost'"):
            validate_network(TransitNetwork(stations=city_net.stations, routes=routes))

    def test_route_too_short(self, city_net):
        routes = {"R": Route("R", "L", "bus", ("b1",), 10.0, 360, 1380, 20.0)}
        with pytest.raises(ValueError, match="fewer than 2"):
            validate_network(TransitNetwork(stations=city_net.stations, routes=routes))

    def test_bad_headway_and_window(self, city_net):
        for headway in (0.0, math.nan, math.inf):
            routes = {"R": Route("R", "L", "bus", ("b1", "b2"), headway, 360, 1380, 20.0)}
            with pytest.raises(ValueError, match="headway"):
                validate_network(TransitNetwork(stations=city_net.stations, routes=routes))
        routes = {"R": Route("R", "L", "bus", ("b1", "b2"), 10.0, 360, 1380, math.nan)}
        with pytest.raises(ValueError, match="speed"):
            validate_network(TransitNetwork(stations=city_net.stations, routes=routes))
        routes = {"R": Route("R", "L", "bus", ("b1", "b2"), 10.0, 1380, 360, 20.0)}
        with pytest.raises(ValueError, match="service window"):
            validate_network(TransitNetwork(stations=city_net.stations, routes=routes))

    def test_bad_leg_times(self, city_net):
        for leg in (-1.0, -1e-9, math.nan, math.inf):
            routes = {"R": Route("R", "L", "bus", ("b1", "b2", "b3"), 10.0, 360, 1380, 20.0,
                                 leg_times_min=(2.0, leg))}
            with pytest.raises(ValueError, match="'R'.*leg time"):
                validate_network(TransitNetwork(stations=city_net.stations, routes=routes))
        routes = {"R": Route("R", "L", "bus", ("b1", "b2", "b3"), 10.0, 360, 1380, 20.0,
                             leg_times_min=(0.0, 2.0))}
        validate_network(TransitNetwork(stations=city_net.stations, routes=routes))

    def test_non_finite_station_coordinate(self, city_net):
        for lon, lat in ((math.nan, 31.0), (121.0, math.inf), (-math.inf, math.nan)):
            stations = dict(city_net.stations)
            stations["b2"] = dataclasses.replace(stations["b2"], lon=lon, lat=lat)
            with pytest.raises(ValueError, match="station 'b2'.*non-finite"):
                validate_network(TransitNetwork(stations=stations, routes=city_net.routes))


class TestLexicon:
    def test_names_and_aliases_share_keys(self, city_net, city_lexicon):
        assert city_lexicon["alder station"] == ("m1",)
        assert city_lexicon["cedar station"] == ("m3",)  # exit alias collapses
        assert "cedar station exit a" not in city_lexicon

    def test_duplicate_names_return_all_candidates(self):
        stations = {
            "x1": Station("x1", "People's Square", (), 121.0, 31.0, "metro", ("M9",)),
            "x2": Station("x2", "People's Square Bus Stop", (), 121.001, 31.001, "bus", ("B9",)),
        }
        routes = {"M9": Route("M9", "M9", "metro", ("x1", "x2"), 5.0, 330, 1410, 35.0, "metro")}
        net = TransitNetwork(stations=stations, routes=routes)
        lex = station_lexicon(net)
        assert lex["peoples square"] == ("x1", "x2")


class RecordingPlanner:
    """Plans through ``inner`` and records the points of each ``plan_many`` call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def plan_many(self, points):
        self.calls.append(list(points))
        return self.inner.plan_many(points)


# coordinates inside the fixture city, and offsets far below the ~1 m that a
# 5-decimal rounding of degrees would merge
_LON = st.floats(120.995, 121.06, allow_nan=False)
_LAT = st.floats(30.98, 31.035, allow_nan=False)
_TINY = st.floats(1e-9, 9e-6).flatmap(lambda d: st.sampled_from([d, -d]))


@st.composite
def _coordinate_sequences(draw):
    """Trip coordinate 4-tuples with exact repeats and near-duplicates that
    differ from an earlier tuple by less than 1e-5 degrees in one coordinate."""
    seq = [tuple(draw(s) for s in (_LON, _LAT, _LON, _LAT))
           for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(1, 6))):
        base = list(draw(st.sampled_from(seq)))
        if draw(st.booleans()):
            base[draw(st.integers(0, 3))] += draw(_TINY)
        seq.append(tuple(base))
    return draw(st.permutations(seq))


class TestPlanCache:
    @settings(max_examples=40, deadline=None)
    @given(seq=_coordinate_sequences())
    def test_exact_per_coordinate_memo(self, city_planner, seq):
        recording = RecordingPlanner(city_planner)
        cache = CachedPlanner.of(recording, seq)
        distinct = set(seq)
        assert recording.calls == [sorted(distinct)]
        assert len(cache) == len(distinct)
        for coords in seq:
            assert cache.plan(*coords) == city_planner.plan(*coords)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "alts.jsonl")
            cache.save(path)
            replay = CachedPlanner.load(path)
        assert len(replay) == len(distinct)
        for coords in distinct:
            assert replay.plan(*coords) == city_planner.plan(*coords)
        absent = (seq[0][0] + 1.0, *seq[0][1:])  # east of every drawn longitude
        for table in (cache, replay):
            with pytest.raises(KeyError):
                table.plan(*absent)

    def test_save_load_replay(self, city_planner, tmp_path):
        coords = (121.001, 30.999, 121.055, 31.001)
        cache = CachedPlanner.of(city_planner, [coords, coords])
        alt = cache.plan(*coords)
        assert len(cache) == 1 and alt == city_planner.plan(*coords)
        path = tmp_path / "alts.jsonl"
        cache.save(str(path))
        replay = CachedPlanner.load(str(path))
        assert replay.plan(*coords) == alt
        for table in (cache, replay):
            with pytest.raises(KeyError):
                table.plan(121.002, 30.999, 121.055, 31.001)


@st.composite
def _station_cases(draw):
    """Stations drawn onto a few shared points, so equal distances occur, with
    ids in any order; a candidate subset in any order; and a query point that
    may sit on a station."""
    points = draw(st.lists(st.tuples(_LON, _LAT), min_size=1, max_size=4))
    ids = draw(st.lists(st.text("abcxyz", min_size=1, max_size=3),
                        min_size=1, max_size=10, unique=True))
    stations = {sid: Station(sid, sid, (), *draw(st.sampled_from(points)), "bus", ("B1",))
                for sid in ids}
    among = draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
    point = draw(st.one_of(st.tuples(_LON, _LAT), st.sampled_from(points)))
    return stations, among, point


class TestStationIndex:
    @settings(max_examples=300, deadline=None)
    @given(case=_station_cases())
    def test_nearest_station_is_the_brute_force_minimum(self, case):
        stations, among, (lon, lat) = case
        net = TransitNetwork(stations=stations, routes={})
        assert net.station_ids == sorted(stations)
        got = net.nearest_station(lon, lat, among)
        assert got in among
        scalar = {sid: great_circle_m(lon, lat, stations[sid].lon, stations[sid].lat)
                  for sid in among}
        assert scalar[got] == pytest.approx(min(scalar.values()), abs=1e-6)
        # among exactly equal distances the lowest id wins
        vector = dict(zip(net.station_ids, net.station_distances_m(lon, lat)))
        assert vector[got] == min(vector[sid] for sid in among)
        assert got == min(sid for sid in among if vector[sid] == vector[got])

    def test_station_distances_follow_rows(self):
        net, a_lat, b_lat = two_stop_net()
        d = net.station_distances_m(121.0, a_lat)
        assert d[0] == 0.0 and d[1] == pytest.approx(5000.0)
        assert list(net.station_distances_m(121.0, a_lat, [1, 0])) == [d[1], d[0]]

    def test_single_candidate_needs_no_distance(self, monkeypatch):
        net, _, _ = two_stop_net()

        def refuse(*args, **kwargs):
            raise AssertionError("no distance is needed for one candidate")

        monkeypatch.setattr(net, "station_distances_m", refuse)
        assert net.nearest_station(0.0, 0.0, ["B"]) == "B"

    def test_several_candidates_in_a_process_without_numpy(self):
        # "b" and "c" share the nearest point; "a" is the farthest
        script = """
import sys
from ridelink.ptnet import Station, TransitNetwork
stations = {sid: Station(sid, sid, (), lon, 31.0, "bus", ("B1",))
            for sid, lon in (("d", 121.002), ("c", 121.001), ("b", 121.001), ("a", 121.003))}
net = TransitNetwork(stations=stations, routes={})
assert "numpy" not in sys.modules
print(net.nearest_station(121.0, 31.0, ["d", "c", "a", "b"]),
      net.nearest_station(121.0, 31.0, ["a", "d"]),
      net.nearest_station(121.0045, 31.0, ["a", "d"]))
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["b", "d", "a"]


def _bus(sid: str, lon: float, lat: float) -> Station:
    return Station(sid, sid, (), lon, lat, "bus", ("B1",))


@st.composite
def _mirror_cases(draw):
    """Two stations mirrored about the query point's meridian (query on lon 0)
    or about its parallel (query on the equator), so their distances tie
    exactly, among other stations drawn anywhere nearby."""
    d = draw(st.floats(1e-6, 0.05))
    ids = draw(st.lists(st.text("abcxyz", min_size=1, max_size=3),
                        min_size=2, max_size=6, unique=True))
    if draw(st.booleans()):
        point, lat2 = (0.0, draw(st.floats(-60.0, 60.0))), draw(st.floats(-60.0, 60.0))
        pair = [(d, lat2), (-d, lat2)]
    else:
        point, lon2 = (draw(st.floats(-170.0, 170.0)), 0.0), draw(st.floats(-170.0, 170.0))
        pair = [(lon2, d), (lon2, -d)]
    near = st.tuples(st.floats(point[0] - 0.1, point[0] + 0.1),
                     st.floats(point[1] - 0.1, point[1] + 0.1))
    coords = pair + [draw(near) for _ in ids[2:]]
    stations = {sid: _bus(sid, lon, lat) for sid, (lon, lat) in zip(ids, coords)}
    among = draw(st.permutations(ids))
    return stations, among, point, ids[:2]


class TestNearestStationOracle:
    """``nearest_station`` ranks by the haversine term in ``math``; the numpy
    ``argmin`` over ``great_circle_m`` it replaced is the oracle. The two can
    differ only when two distances lie within one ulp of each other, which
    none of these cases draws: ties here are exact."""

    @settings(max_examples=300, deadline=None)
    @given(case=_station_cases(), repeats=st.integers(1, 3))
    def test_matches_the_argmin_with_repeated_stations(self, case, repeats):
        stations, among, (lon, lat) = case
        net = TransitNetwork(stations=stations, routes={})
        among = among * repeats
        assert net.nearest_station(lon, lat, among) == oracle_nearest(net, lon, lat, among)

    @settings(max_examples=300, deadline=None)
    @given(case=_mirror_cases())
    def test_mirror_image_tie_goes_to_the_lowest_id(self, case):
        stations, among, (lon, lat), pair = case
        net = TransitNetwork(stations=stations, routes={})
        got = net.nearest_station(lon, lat, among)
        assert got == oracle_nearest(net, lon, lat, among)
        d = dict(zip(net.station_ids, net.station_distances_m(lon, lat)))
        assert d[pair[0]] == d[pair[1]]
        if got in pair:
            assert got == min(pair)

    @settings(max_examples=100, deadline=None)
    @given(lon=_LON, lat=_LAT, slon=_LON, slat=_LAT, copies=st.integers(1, 3))
    def test_lone_candidate(self, lon, lat, slon, slat, copies):
        net = TransitNetwork(stations={"a": _bus("a", 121.0, 31.0), "m": _bus("m", slon, slat),
                                       "z": _bus("z", lon, lat)}, routes={})
        assert net.nearest_station(lon, lat, ["m"] * copies) == "m"
        assert oracle_nearest(net, lon, lat, ["m"] * copies) == "m"

    def test_unknown_station_raises(self):
        net = TransitNetwork(stations={"a": _bus("a", 121.0, 31.0)}, routes={})
        with pytest.raises(KeyError):
            net.nearest_station(121.0, 31.0, ["a", "nope"])
