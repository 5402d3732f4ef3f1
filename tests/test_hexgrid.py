import csv
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cityfix import build_city
from geojson_oracle import cell_polygon
from geojson_oracle import write_cell_stats_geojson as whole_document_geojson
from locate_oracle import OFF_GRID
from locate_oracle import locate as scalar_locate
from ridelink.classify import FIRST_MILE, INDEPENDENT, LAST_MILE, SUBSTITUTIVE
from ridelink.hexgrid import (
    CELL_STATS_COLUMNS,
    COUNTS,
    HexGrid,
    SQRT3,
    axial_center_xy,
    build_grid,
    cell_center,
    cell_id,
    complementary_breakdown,
    compute_ratios,
    locate,
    od_flows,
    read_cell_stats,
    temporal_profile,
    trip_rows,
    trip_stats,
    write_cell_stats,
    write_cell_stats_geojson,
    write_od_flows,
    write_temporal_profile,
)
from trip_oracle import TripRecord, as_trips

BBOX = (121.00, 31.00, 121.105, 31.09)  # ~10 x 10 km at this latitude


def _trip(olon, olat, dlon, dlat, pickup=480, duration=15, cost=20.0, request=None):
    return TripRecord(
        plate_id="T", olon=olon, olat=olat, pickup_label="A", pickup_min=pickup,
        dlon=dlon, dlat=dlat, dropoff_label="B", dropoff_min=pickup + duration,
        distance_km=5.0, cost=cost, request_min=request,
    )


def _locate_one(grid, lon, lat):
    """One point through the sequence ``locate``: its axial cell, or OFF_GRID."""
    (row,) = locate(grid, [lon], [lat])
    return grid.cells[row] if row >= 0 else OFF_GRID


def _nearest_center_oracle(grid, lon, lat):
    """Independent point location: hexagons are the Voronoi cells of their
    centers, so the nearest center in the projected plane is the answer."""
    x, y = grid.projection.to_xy(lon, lat)
    best, best_d = None, math.inf
    for q, r in grid.cells:
        cx, cy = axial_center_xy(grid, q, r)
        d = (cx - x) ** 2 + (cy - y) ** 2
        if d < best_d:
            best, best_d = (q, r), d
    return best, math.sqrt(best_d)


class TestBuildGrid:
    def test_cell_count_near_analytic_estimate(self):
        grid = build_grid(BBOX, side_km=0.5)
        x_min, y_min = grid.projection.to_xy(BBOX[0], BBOX[1])
        x_max, y_max = grid.projection.to_xy(BBOX[2], BBOX[3])
        s = grid.side_m
        padded_area = (x_max - x_min + 2 * s) * (y_max - y_min + 2 * s)
        hex_area = 1.5 * SQRT3 * s * s
        estimate = padded_area / hex_area
        perimeter = 2 * ((x_max - x_min + 2 * s) + (y_max - y_min + 2 * s))
        one_ring = perimeter / (SQRT3 * s) + 8
        assert abs(len(grid.cells) - estimate) <= one_ring

    def test_all_cells_same_area(self):
        grid = build_grid(BBOX, side_km=0.5)
        proj = grid.projection
        expected_km2 = 1.5 * SQRT3 * 0.25
        for q, r in list(grid.cells)[::17]:
            ring = [proj.to_xy(lon, lat) for lon, lat in cell_polygon(grid, q, r)]
            shoelace = 0.0
            for (x1, y1), (x2, y2) in zip(ring, ring[1:] + ring[:1]):
                shoelace += x1 * y2 - x2 * y1
            area_km2 = abs(shoelace) / 2.0 / 1e6
            assert area_km2 == pytest.approx(expected_km2, rel=1e-9)

    def test_rebuild_is_identical(self):
        assert build_grid(BBOX, 0.5) == build_grid(BBOX, 0.5)

    @pytest.mark.parametrize("bbox", [
        (121.0, 31.0, 121.0, 31.1),
        (121.0, 31.0, 120.9, 31.1),
        (121.0, 31.0, 121.1, 31.0),
    ])
    def test_degenerate_bbox_rejected(self, bbox):
        with pytest.raises(ValueError, match="degenerate"):
            build_grid(bbox, 0.5)

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError, match="side_km"):
            build_grid(BBOX, 0.0)

    @pytest.mark.parametrize("side_km", [math.nan, math.inf])
    def test_non_finite_side_rejected(self, side_km):
        with pytest.raises(ValueError, match="side_km must be a finite number"):
            build_grid(BBOX, side_km)

    def test_grid_over_the_cell_cap_refused(self):
        with pytest.raises(ValueError, match="more than 1,000,000; raise grid.side_km"):
            build_grid(BBOX, 1e-9)


class TestLocate:
    def test_cell_center_maps_to_itself(self):
        grid = build_grid(BBOX, 0.5)
        for q, r in list(grid.cells)[::13]:
            lon, lat = cell_center(grid, q, r)
            assert _locate_one(grid, lon, lat) == (q, r)

    def test_epsilon_off_center_same_cell(self):
        grid = build_grid(BBOX, 0.5)
        q, r = grid.cells[len(grid.cells) // 2]
        lon, lat = cell_center(grid, q, r)
        assert _locate_one(grid, lon + 1e-7, lat - 1e-7) == (q, r)

    def test_far_point_is_off_grid(self):
        grid = build_grid(BBOX, 0.5)
        assert _locate_one(grid, 125.0, 35.0) is OFF_GRID

    def test_every_in_box_point_lands_in_a_cell(self):
        grid = build_grid(BBOX, 0.5)
        rng = np.random.default_rng(11)
        for _ in range(400):
            lon = float(rng.uniform(BBOX[0], BBOX[2]))
            lat = float(rng.uniform(BBOX[1], BBOX[3]))
            assert _locate_one(grid, lon, lat) is not OFF_GRID

    def test_agrees_with_nearest_center_oracle(self):
        grid = build_grid(BBOX, 0.5)
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(300):
            lon = float(rng.uniform(BBOX[0], BBOX[2]))
            lat = float(rng.uniform(BBOX[1], BBOX[3]))
            oracle_cell, d = _nearest_center_oracle(grid, lon, lat)
            # skip near-ties where Voronoi membership is ambiguous in floats
            x, y = grid.projection.to_xy(lon, lat)
            cx, cy = axial_center_xy(grid, *oracle_cell)
            second = min(
                math.hypot(axial_center_xy(grid, q, r)[0] - x,
                           axial_center_xy(grid, q, r)[1] - y)
                for q, r in grid.cells if (q, r) != oracle_cell
            )
            if second - d < 1e-6:
                continue
            checked += 1
            assert _locate_one(grid, lon, lat) == oracle_cell
        assert checked > 250

    def test_shared_edge_point_assigned_to_exactly_one_adjacent_cell(self):
        grid = build_grid(BBOX, 0.5)
        cells = grid.cell_set()
        q, r = grid.cells[len(grid.cells) // 2]
        proj = grid.projection
        for dq, dr in ((1, 0), (0, 1), (1, -1)):
            neighbor = (q + dq, r + dr)
            if neighbor not in cells:
                continue
            x1, y1 = axial_center_xy(grid, q, r)
            x2, y2 = axial_center_xy(grid, *neighbor)
            lon, lat = proj.to_lonlat((x1 + x2) / 2.0, (y1 + y2) / 2.0)
            results = {_locate_one(grid, lon, lat) for _ in range(5)}
            assert len(results) == 1
            assert results.pop() in {(q, r), neighbor}


# axial steps to the six neighbors of a cell
_NEIGHBOR_STEPS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


@st.composite
def _grid_and_points(draw):
    """A grid anywhere on the globe and points on its centers, shared-edge
    midpoints and three-cell corners (where cube rounding ties), nudged by
    0 or 1e-9 degrees, plus points in and far outside the box."""
    lon_min = draw(st.floats(-170.0, 170.0))
    lat_min = draw(st.floats(-60.0, 60.0))
    bbox = (lon_min, lat_min, lon_min + draw(st.floats(0.005, 0.06)),
            lat_min + draw(st.floats(0.005, 0.06)))
    grid = build_grid(bbox, draw(st.sampled_from([0.25, 0.5, 1.0, 1.7])))
    s = grid.side_m
    points = []
    for kind in draw(st.lists(st.sampled_from(["center", "edge", "vertex", "box", "far"]),
                              max_size=40)):
        q, r = draw(st.sampled_from(grid.cells))
        x, y = axial_center_xy(grid, q, r)
        if kind == "edge":
            dq, dr = draw(st.sampled_from(_NEIGHBOR_STEPS))
            nx, ny = axial_center_xy(grid, q + dq, r + dr)
            x, y = (x + nx) / 2.0, (y + ny) / 2.0
        elif kind == "vertex":
            angle = math.pi / 3.0 * draw(st.integers(0, 5))
            x, y = x + s * math.cos(angle), y + s * math.sin(angle)
        lon, lat = grid.projection.to_lonlat(x, y)
        if kind == "box":
            lon = draw(st.floats(bbox[0] - 0.02, bbox[2] + 0.02))
            lat = draw(st.floats(bbox[1] - 0.02, bbox[3] + 0.02))
        elif kind == "far":
            lon += draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 9.0))
            lat += draw(st.floats(-9.0, 9.0))
        nudge = st.sampled_from([0.0, 1e-9, -1e-9])
        points.append((lon + draw(nudge), lat + draw(nudge)))
    return grid, points


class TestLocateOracle:
    """The sequence ``locate`` equals the scalar oracle point by point."""

    @staticmethod
    def _expected(grid, points):
        row_of = {cell: row for row, cell in enumerate(grid.cells)}
        return [row_of.get(scalar_locate(grid, lon, lat), -1) for lon, lat in points]

    @settings(max_examples=300, deadline=None)
    @given(_grid_and_points())
    def test_matches_scalar_oracle(self, case):
        grid, points = case
        rows = locate(grid, [p[0] for p in points], [p[1] for p in points])
        assert all(type(row) is int for row in rows)
        assert rows == self._expected(grid, points)

    @pytest.mark.parametrize("target", [-1.5, -0.5, 0.5, 1.5])
    def test_exact_half_integer_tie(self, target):
        # on the anchor's meridian x is exactly 0, so q is exactly 0; pick a
        # latitude and a side for which r is exactly ``target``, where the
        # rounding mode (half to even) decides between two cells
        base = build_grid(BBOX, 0.5)
        for step in range(1, 400):
            lat = base.lat0 + math.copysign(0.0007 * step, target)
            _, y = base.projection.to_xy(base.lon0, lat)
            grid = build_grid(BBOX, SQRT3 / 3.0 * y / target / 1000.0)
            if (SQRT3 / 3.0 * y) / grid.side_m == target:
                break
        else:
            pytest.fail("no exact tie found")
        assert grid.lon0 == base.lon0 and grid.lat0 == base.lat0
        rows = locate(grid, [base.lon0], [lat])
        assert rows == self._expected(grid, [(base.lon0, lat)])
        assert grid.cells[rows[0]] in {(0, math.floor(target)), (0, math.ceil(target))}

    def test_empty_input(self):
        assert locate(build_grid(BBOX, 0.5), [], []) == []

    def test_unequal_lengths_raise(self):
        grid = build_grid(BBOX, 0.5)
        lon, lat = cell_center(grid, *grid.cells[0])
        with pytest.raises(ValueError):
            locate(grid, [lon, lon], [lat])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1], ids=["lon", "lat"])
    def test_non_finite_coordinate_raises(self, bad, axis):
        grid = build_grid(BBOX, 0.5)
        points = [list(cell_center(grid, *grid.cells[i])) for i in range(3)]
        points[1][axis] = bad
        with pytest.raises(ValueError, match="non-finite"):
            locate(grid, [p[0] for p in points], [p[1] for p in points])


class TestComputeRatios:
    def _grid(self):
        return build_grid(BBOX, 0.5)

    def test_hand_counts_and_ratios(self):
        grid = self._grid()
        a = cell_center(grid, *grid.cells[10])
        b = cell_center(grid, *grid.cells[40])
        trips = [
            _trip(a[0], a[1], b[0], b[1]),
            _trip(a[0], a[1], b[0], b[1]),
            _trip(a[0], a[1], b[0], b[1]),
            _trip(b[0], b[1], a[0], a[1]),
        ]
        labels = [FIRST_MILE, SUBSTITUTIVE, INDEPENDENT, LAST_MILE]
        stats = compute_ratios(*trip_rows(grid, as_trips(trips)), labels, grid, days=2)
        ca = stats[cell_id(*grid.cells[10])]
        cb = stats[cell_id(*grid.cells[40])]
        assert (ca.o_total, ca.a_total) == (3, 1)
        assert (ca.fc_total, ca.ds_total) == (1, 1)
        assert ca.lc_total == 1 and ca.as_total == 0  # LM counts at its dest cell
        assert ca.ratio("fcr") == 1 / 3 and ca.ratio("dsr") == 1 / 3
        assert ca.ratio("lcr") == 1.0 and ca.ratio("asr") == 0.0
        assert ca.daily("o_total") == 1.5
        assert (cb.o_total, cb.a_total) == (1, 3)
        assert cb.lc_total == 0 and cb.as_total == 1
        assert cb.ratio("asr") == 1 / 3

    def test_empty_cell_has_undefined_ratios(self):
        grid = self._grid()
        stats = compute_ratios([], [], [], grid, days=1)
        empty = stats[cell_id(*grid.cells[0])]
        assert empty.ratio("fcr") is None and empty.ratio("lcr") is None
        assert empty.ratio("dsr") is None and empty.ratio("asr") is None

    def test_conservation_and_brute_force_recount(self):
        grid = self._grid()
        rng = np.random.default_rng(5)
        labels = [FIRST_MILE, LAST_MILE, SUBSTITUTIVE, INDEPENDENT]
        trips, results = [], []
        for _ in range(300):
            trips.append(_trip(float(rng.uniform(BBOX[0], BBOX[2])),
                               float(rng.uniform(BBOX[1], BBOX[3])),
                               float(rng.uniform(BBOX[0], BBOX[2])),
                               float(rng.uniform(BBOX[1], BBOX[3]))))
            results.append(labels[int(rng.integers(0, 4))])
        days = 3
        stats = compute_ratios(*trip_rows(grid, as_trips(trips)), results, grid, days)

        assert sum(cs.o_total for cs in stats.values()) == 300
        assert sum(cs.a_total for cs in stats.values()) == 300
        assert sum(cs.daily("o_total") for cs in stats.values()) == pytest.approx(300 / days, rel=1e-12)

        # independent recount: assign each trip end by nearest hex center
        recount = {cid: [0, 0, 0, 0, 0, 0] for cid in stats}
        for trip, res in zip(trips, results):
            ocell, _ = _nearest_center_oracle(grid, trip.olon, trip.olat)
            dcell, _ = _nearest_center_oracle(grid, trip.dlon, trip.dlat)
            ok, dk = cell_id(*ocell), cell_id(*dcell)
            recount[ok][0] += 1
            recount[dk][1] += 1
            if res == FIRST_MILE:
                recount[ok][2] += 1
            elif res == LAST_MILE:
                recount[dk][3] += 1
            elif res == SUBSTITUTIVE:
                recount[ok][4] += 1
                recount[dk][5] += 1
        for cid, cs in stats.items():
            o, a, fc, lc, ds, asub = recount[cid]
            assert (cs.o_total, cs.a_total, cs.fc_total,
                    cs.lc_total, cs.ds_total, cs.as_total) == (o, a, fc, lc, ds, asub)
            if o:
                assert cs.ratio("fcr") == fc / o and cs.ratio("dsr") == ds / o
            if a:
                assert cs.ratio("lcr") == lc / a and cs.ratio("asr") == asub / a

    def test_bad_days_rejected(self):
        with pytest.raises(ValueError, match="days"):
            compute_ratios([], [], [], self._grid(), days=0)


class TestTemporalProfile:
    def test_single_hour_concentration(self):
        trips = [_trip(121.01, 31.01, 121.02, 31.02, pickup=8 * 60 + m) for m in range(5)]
        results = [FIRST_MILE] * 5
        profile = temporal_profile(as_trips(trips), results)
        assert profile.totals[8] == 5
        assert sum(profile.totals) == 5
        assert profile.first_mile[8] == 5

    def test_empty_profile(self):
        profile = temporal_profile(as_trips([]), [])
        assert profile.totals == [0] * 24

    def test_bins_sum_to_total(self):
        rng = np.random.default_rng(3)
        labels = [FIRST_MILE, LAST_MILE, SUBSTITUTIVE, INDEPENDENT]
        trips = [_trip(121.01, 31.01, 121.02, 31.02,
                       pickup=int(rng.integers(0, 1440))) for _ in range(97)]
        results = [labels[int(rng.integers(0, 4))] for _ in range(97)]
        profile = temporal_profile(as_trips(trips), results)
        assert sum(profile.totals) == 97
        per_class = (sum(profile.first_mile) + sum(profile.last_mile)
                     + sum(profile.substitutive) + sum(profile.independent))
        assert per_class == 97


class TestOdFlows:
    def test_single_trip_single_flow(self):
        grid = build_grid(BBOX, 0.5)
        a = cell_center(grid, *grid.cells[5])
        b = cell_center(grid, *grid.cells[25])
        flows = od_flows(*trip_rows(grid, as_trips([_trip(a[0], a[1], b[0], b[1])])), grid, days=2)
        assert len(flows) == 1
        f = flows[0]
        assert f.level == "grid"
        assert f.flow == 0.5
        assert (f.from_id, f.to_id) == (cell_id(*grid.cells[5]), cell_id(*grid.cells[25]))

    def test_district_rollup_conserves_grid_flows(self):
        grid = build_grid(BBOX, 0.5)
        rng = np.random.default_rng(9)
        trips = [_trip(float(rng.uniform(BBOX[0], BBOX[2])),
                       float(rng.uniform(BBOX[1], BBOX[3])),
                       float(rng.uniform(BBOX[0], BBOX[2])),
                       float(rng.uniform(BBOX[1], BBOX[3]))) for _ in range(120)]
        mid_lon = (BBOX[0] + BBOX[2]) / 2
        # two half-plane districts covering the whole padded area
        districts = {
            "west": [[(BBOX[0] - 1, BBOX[1] - 1), (mid_lon, BBOX[1] - 1),
                      (mid_lon, BBOX[3] + 1), (BBOX[0] - 1, BBOX[3] + 1)]],
            "east": [[(mid_lon, BBOX[1] - 1), (BBOX[2] + 1, BBOX[1] - 1),
                      (BBOX[2] + 1, BBOX[3] + 1), (mid_lon, BBOX[3] + 1)]],
        }
        flows = od_flows(*trip_rows(grid, as_trips(trips)), grid, days=2, districts=districts)
        grid_total = sum(f.flow for f in flows if f.level == "grid")
        district_total = sum(f.flow for f in flows if f.level == "district")
        assert district_total == pytest.approx(grid_total, rel=1e-12)
        assert grid_total == pytest.approx(120 / 2, rel=1e-12)


class TestTripStats:
    def test_mass_equals_class_count(self):
        rng = np.random.default_rng(2)
        trips = [_trip(121.01, 31.01, 121.02, 31.02,
                       duration=int(rng.integers(5, 60))) for _ in range(50)]
        results = [SUBSTITUTIVE] * 30 + [INDEPENDENT] * 20
        stats = trip_stats(as_trips(trips), results)
        assert stats[SUBSTITUTIVE]["travel_min"].mass == 30
        assert stats[INDEPENDENT]["fare_per_km"].mass == 20
        assert stats[FIRST_MILE]["travel_min"].mass == 0

    def test_wait_histogram_requires_request_times(self):
        trips = as_trips([_trip(121.01, 31.01, 121.02, 31.02)])
        stats = trip_stats(trips, [SUBSTITUTIVE])
        assert "wait_min" not in stats[SUBSTITUTIVE]
        trips = as_trips([_trip(121.01, 31.01, 121.02, 31.02, pickup=480, request=474)])
        stats = trip_stats(trips, [SUBSTITUTIVE])
        assert stats[SUBSTITUTIVE]["wait_min"].mass == 1


class TestComplementaryBreakdown:
    def test_direct_and_indirect_split(self):
        net = build_city()
        # origin next to m2 but matched to m3 (a hub): indirect-hub
        # origin next to m3 matched to m3: direct
        # dest next to m2 matched m1 (single line): indirect-single, last-mile
        trips = [
            _trip(121.0361, 31.0002, 121.05, 31.02),
            _trip(121.0181, 31.0001, 121.05, 31.02),
            _trip(121.05, 31.02, 121.0182, 31.0003),
            _trip(121.0001, 30.9851, 121.05, 31.02),
        ]
        labels = [FIRST_MILE, FIRST_MILE, LAST_MILE, FIRST_MILE]
        stations = ["m3", "m3", "m1", "b1"]
        breakdown = complementary_breakdown(as_trips(trips), labels, stations, net)
        assert breakdown["total"] == 4
        assert breakdown["mode_counts"] == {"metro": 3, "bus": 1}
        assert breakdown["by_mode"]["metro"] == {
            "direct": 1, "indirect_hub": 1, "indirect_single": 1}
        assert breakdown["by_mode"]["bus"]["direct"] == 1
        assert breakdown["mode_shares"]["metro"] == 0.75

    def test_non_complementary_trips_ignored(self):
        net = build_city()
        trips = as_trips([_trip(121.01, 31.0, 121.02, 31.0)])
        breakdown = complementary_breakdown(trips, [SUBSTITUTIVE], [None], net)
        assert breakdown["total"] == 0


class TestWriters:
    def test_cell_stats_roundtrip(self, tmp_path):
        grid = build_grid(BBOX, 0.5)
        a = cell_center(grid, *grid.cells[10])
        trips = [_trip(a[0], a[1], a[0], a[1])] * 4
        results = [FIRST_MILE, SUBSTITUTIVE, LAST_MILE, INDEPENDENT]
        stats = compute_ratios(*trip_rows(grid, as_trips(trips)), results, grid, days=2)
        path = tmp_path / "cells.csv"
        write_cell_stats(stats, str(path))
        back = read_cell_stats(str(path))
        assert set(back) == set(stats)
        for cid, cs in stats.items():
            bs = back[cid]
            assert (bs.days, bs.o_total, bs.a_total, bs.fc_total, bs.lc_total,
                    bs.ds_total, bs.as_total) == (cs.days, cs.o_total, cs.a_total,
                                                  cs.fc_total, cs.lc_total,
                                                  cs.ds_total, cs.as_total)
            assert bs.ratio("fcr") == cs.ratio("fcr") and bs.ratio("asr") == cs.ratio("asr")

    def test_geojson_output(self, tmp_path):
        grid = build_grid(BBOX, 0.5)
        stats = compute_ratios([], [], [], grid, days=1)
        path = tmp_path / "cells.geojson"
        write_cell_stats_geojson(grid, stats, str(path))
        doc = json.loads(path.read_text())
        assert doc["type"] == "FeatureCollection"
        assert len(doc["features"]) == len(grid.cells)
        first = doc["features"][0]
        assert first["geometry"]["type"] == "Polygon"
        assert len(first["geometry"]["coordinates"][0]) == 7  # closed ring
        assert first["properties"]["fcr"] is None

    @pytest.mark.parametrize("side_km", [0.5, 0.37])
    def test_geojson_rings_are_cell_polygons(self, tmp_path, side_km):
        grid = build_grid(BBOX, side_km)
        path = tmp_path / "cells.geojson"
        write_cell_stats_geojson(grid, compute_ratios([], [], [], grid, days=1), str(path))
        features = json.loads(path.read_text())["features"]
        assert len(features) == len(grid.cells)
        for feature, (q, r) in zip(features, grid.cells):
            ring = [list(corner) for corner in cell_polygon(grid, q, r)]
            assert feature["geometry"]["coordinates"] == [ring + ring[:1]]

    def test_columns_follow_the_count_and_ratio_tables(self, tmp_path):
        grid = build_grid(BBOX, 0.5)
        stats = compute_ratios([], [], [], grid, days=1)
        derived = ["o_daily", "a_daily", "fc_daily", "lc_daily", "ds_daily", "as_daily",
                   "fcr", "lcr", "dsr", "asr"]
        assert CELL_STATS_COLUMNS == ("cell_id", "days", *COUNTS, *derived)
        path = tmp_path / "cells.geojson"
        write_cell_stats_geojson(grid, stats, str(path))
        properties = json.loads(path.read_text())["features"][0]["properties"]
        assert list(properties) == ["cell_id", *derived]

    @pytest.mark.parametrize("column, value", [
        ("days", "0"), ("a_total", "-1"), ("fc_total", "4"), ("as_total", "4"),
    ])
    def test_reader_rejects_impossible_counts(self, tmp_path, column, value):
        grid = build_grid(BBOX, 0.5)
        a = cell_center(grid, *grid.cells[10])
        trips = [_trip(a[0], a[1], a[0], a[1])] * 3
        results = [FIRST_MILE, SUBSTITUTIVE, LAST_MILE]
        stats = compute_ratios(*trip_rows(grid, as_trips(trips)), results, grid, days=2)
        path = tmp_path / "cells.csv"
        write_cell_stats(stats, str(path))
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        cid = cell_id(*grid.cells[10])
        row = next(r for r in rows if r[0] == cid)
        row[rows[0].index(column)] = value
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        with pytest.raises(ValueError, match=f"cell {cid} has impossible counts"):
            read_cell_stats(str(path))

    @pytest.mark.parametrize("bad_id", ["-nan2,-4", "1, 2", "+1,2", "01,2", "1,2,3", "12", ""])
    def test_reader_rejects_an_id_that_does_not_parse(self, tmp_path, bad_id):
        grid = build_grid(BBOX, 0.5)
        path = tmp_path / "cells.csv"
        write_cell_stats(compute_ratios([], [], [], grid, days=2), str(path))
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        rows[3][0] = bad_id
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        with pytest.raises(ValueError, match=re.escape(f"line 4: cell id {bad_id!r} is not")):
            read_cell_stats(str(path))

    def test_reader_rejects_a_repeated_id(self, tmp_path):
        grid = build_grid(BBOX, 0.5)
        path = tmp_path / "cells.csv"
        write_cell_stats(compute_ratios([], [], [], grid, days=2), str(path))
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        rows.append(rows[5])
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        with pytest.raises(ValueError, match=f"line {len(rows)}: cell id '{rows[5][0]}' .* repeats"):
            read_cell_stats(str(path))

    def test_flow_and_profile_writers_deterministic(self, tmp_path):
        grid = build_grid(BBOX, 0.5)
        a = cell_center(grid, *grid.cells[5])
        b = cell_center(grid, *grid.cells[25])
        trips = [_trip(a[0], a[1], b[0], b[1])]
        results = [FIRST_MILE]
        flows = od_flows(*trip_rows(grid, as_trips(trips)), grid, days=1)
        profile = temporal_profile(as_trips(trips), results)
        p1, p2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        write_od_flows(flows, str(p1))
        write_od_flows(flows, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        t1 = tmp_path / "t1.csv"
        write_temporal_profile(profile, str(t1))
        lines = t1.read_text().strip().splitlines()
        assert len(lines) == 25


@st.composite
def _geojson_case(draw):
    """A grid somewhere in one of the four hemispheres, its cell stats over
    ``days`` > 1, with every third cell empty (each ratio None)."""
    lon = draw(st.sampled_from([-1, 1])) * draw(st.floats(0.5, 179.0))
    lat = draw(st.sampled_from([-1, 1])) * draw(st.floats(0.5, 75.0))
    width_km, height_km = draw(st.floats(1.0, 6.0)), draw(st.floats(1.0, 6.0))
    half_lon = width_km / 2 / (111.32 * math.cos(math.radians(abs(lat))))
    half_lat = height_km / 2 / 110.57
    side_km = draw(st.one_of(st.sampled_from([0.37, 2.0]), st.floats(0.3, 2.5)))
    grid = build_grid((lon - half_lon, lat - half_lat, lon + half_lon, lat + half_lat), side_km)
    stats = compute_ratios([], [], [], grid, days=draw(st.integers(2, 31)))
    for i, cs in enumerate(stats.values()):
        if i % 3:
            cs.o_total, cs.a_total = draw(st.integers(0, 40)), draw(st.integers(1, 40))
            cs.fc_total, cs.ds_total = draw(st.integers(0, cs.o_total)), draw(st.integers(0, cs.o_total))
            cs.lc_total, cs.as_total = draw(st.integers(0, cs.a_total)), draw(st.integers(0, cs.a_total))
    return grid, stats


class TestGeojsonStream:
    """The streaming ``cells.geojson`` writer against the whole-document oracle."""

    @settings(max_examples=60, deadline=None)
    @given(_geojson_case())
    def test_bytes_match_the_whole_document_oracle(self, tmp_path_factory, case):
        grid, stats = case
        tmp = tmp_path_factory.mktemp("geojson")
        write_cell_stats_geojson(grid, stats, str(tmp / "stream.geojson"))
        whole_document_geojson(grid, stats, str(tmp / "oracle.geojson"))
        assert (tmp / "stream.geojson").read_bytes() == (tmp / "oracle.geojson").read_bytes()

    def test_empty_grid_matches_the_oracle(self, tmp_path):
        grid = HexGrid(lon0=121.0, lat0=31.0, side_km=0.5, cells=())
        write_cell_stats_geojson(grid, {}, str(tmp_path / "stream.geojson"))
        whole_document_geojson(grid, {}, str(tmp_path / "oracle.geojson"))
        assert (tmp_path / "stream.geojson").read_bytes() == (tmp_path / "oracle.geojson").read_bytes()

    def test_memory_does_not_grow_with_the_cell_count(self, tmp_path):
        peaks = {}
        for side_km in (0.34, 0.17):
            grid = build_grid(BBOX, side_km)
            stats = compute_ratios([], [], [], grid, days=2)
            tracemalloc.start()
            try:
                write_cell_stats_geojson(grid, stats, str(tmp_path / "cells.geojson"))
                peaks[len(grid.cells)] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        (small, small_peak), (large, large_peak) = sorted(peaks.items())
        assert 350 <= small <= 450 and 1_400 <= large <= 1_800
        assert large_peak <= 1.5 * small_peak, peaks
