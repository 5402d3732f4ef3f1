"""Tests for the per-cell feature builders and the VIF screen."""

import json
import math

import numpy as np
import pytest

from ridelink.classify import FIRST_MILE, INDEPENDENT, LAST_MILE, SUBSTITUTIVE
from ridelink.features import (
    COLUMN_SCHEMA,
    RoadGraph,
    apply_vif,
    assemble_features,
    load_points,
    load_roads,
    nearest_distances,
    poi_and_population,
    read_features,
    road_metrics,
    station_densities,
    tnc_travel_columns,
    vif_filter,
    write_features,
    write_vif_report,
)
from ridelink.geo import great_circle_m
from ridelink.hexgrid import build_grid, cell_center, cell_id, compute_ratios, locate, trip_rows
from ridelink.ptnet import Station, TransitNetwork
from trip_oracle import TripRecord, as_trips

BBOX = (121.00, 31.00, 121.05, 31.04)


def _station(sid, lon, lat, mode, lines):
    return Station(id=sid, name=sid.upper(), aliases=(), lon=lon, lat=lat,
                   mode=mode, line_ids=tuple(lines))


def _full_net(*extra, drop=()):
    """Six stations covering all four mode x hub categories, plus the
    ``extra`` stations and without the ids in ``drop``."""
    stations = {
        "ms1": _station("ms1", 121.010, 31.010, "metro", ["M1"]),
        "ms2": _station("ms2", 121.042, 31.031, "metro", ["M1"]),
        "mh1": _station("mh1", 121.025, 31.020, "metro", ["M1", "M2"]),
        "bs1": _station("bs1", 121.015, 31.034, "bus", ["B1"]),
        "bs2": _station("bs2", 121.044, 31.008, "bus", ["B2"]),
        "bh1": _station("bh1", 121.031, 31.013, "bus", ["B1", "B2"]),
    }
    stations.update((s.id, s) for s in extra)
    for sid in drop:
        del stations[sid]
    return TransitNetwork(stations=stations, routes={})


def _trip(olon, olat, dlon, dlat, pickup=480, duration=20, distance=10.0,
          cost=30.0, request=None):
    return TripRecord(
        plate_id="p", olon=olon, olat=olat, pickup_label="Somewhere",
        pickup_min=pickup, dlon=dlon, dlat=dlat, dropoff_label="Elsewhere",
        dropoff_min=pickup + duration, distance_km=distance, cost=cost,
        request_min=None if request is None else pickup - request,
    )


class TestRoadGraphMetrics:
    def test_triangle_clustering_is_one(self):
        g = RoadGraph(nodes=[(0, 0), (0, 1), (1, 0)],
                      edges=[(0, 1, 1.0, False), (1, 2, 1.0, False), (0, 2, 1.0, False)])
        for v in range(3):
            assert g.clustering(v) == 1.0
            assert g.degree(v) == 2

    def test_star_clustering_is_zero(self):
        g = RoadGraph(nodes=[(0, 0), (0, 1), (1, 0), (1, 1)],
                      edges=[(0, 1, 1.0, False), (0, 2, 1.0, False), (0, 3, 1.0, False)])
        assert g.degree(0) == 3
        assert g.clustering(0) == 0.0
        for leaf in (1, 2, 3):
            assert g.degree(leaf) == 1
            assert g.clustering(leaf) == 0.0

    def test_random_graph_against_pair_count(self):
        rng = np.random.default_rng(7)
        n = 12
        edges = []
        pairs = set()
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.35:
                    edges.append((u, v, 1.0, False))
                    pairs.add((u, v))
        g = RoadGraph(nodes=[(0.0, float(i)) for i in range(n)], edges=edges)

        def linked(a, b):
            return (min(a, b), max(a, b)) in pairs

        for v in range(n):
            neighbors = [u for u in range(n) if u != v and linked(u, v)]
            k = len(neighbors)
            assert g.degree(v) == k
            if k < 2:
                assert g.clustering(v) == 0.0
                continue
            links = sum(1 for i in range(k) for j in range(i + 1, k)
                        if linked(neighbors[i], neighbors[j]))
            assert g.clustering(v) == pytest.approx(2.0 * links / (k * (k - 1)))


class TestLoadRoads:
    def test_dedup_and_flags(self, tmp_path):
        doc = {"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": {"highway": False},
             "geometry": {"type": "LineString",
                          "coordinates": [[121.01, 31.01], [121.02, 31.01], [121.03, 31.02]]}},
            {"type": "Feature", "properties": {"highway": True},
             "geometry": {"type": "LineString",
                          "coordinates": [[121.03, 31.02], [121.04, 31.02]]}},
            # repeats the first edge and contains a zero-length hop
            {"type": "Feature", "properties": {},
             "geometry": {"type": "LineString",
                          "coordinates": [[121.01, 31.01], [121.02, 31.01], [121.02, 31.01]]}},
        ]}
        path = tmp_path / "roads.geojson"
        path.write_text(json.dumps(doc))
        g = load_roads(str(path))
        assert len(g.nodes) == 4
        assert len(g.edges) == 3
        assert [e[3] for e in g.edges] == [False, False, True]
        expected = great_circle_m(121.03, 31.02, 121.04, 31.02) / 1000.0
        assert g.edges[2][2] == pytest.approx(expected)

    def test_altitude_in_positions_is_ignored(self, tmp_path):
        line = [[121.01, 31.01], [121.02, 31.01], [121.02, 31.02], [121.01, 31.01]]
        graphs = []
        for name, coords in (("flat", line), ("alt", [p + [4.0 + i] for i, p in enumerate(line)])):
            path = tmp_path / f"{name}.geojson"
            path.write_text(json.dumps({"type": "FeatureCollection", "features": [
                {"type": "Feature", "properties": {"highway": True},
                 "geometry": {"type": "LineString", "coordinates": coords}}]}))
            graphs.append(load_roads(str(path)))
        assert graphs[0] == graphs[1]
        assert len(graphs[0].edges) == 3


class TestNearestDistances:
    def test_station_at_cell_center_gives_zero(self):
        grid = build_grid(BBOX, 0.5)
        q, r = grid.cells[len(grid.cells) // 2]
        lon, lat = cell_center(grid, q, r)
        net = _full_net(_station("ms1", lon, lat, "metro", ["M1"]))
        dist = nearest_distances(grid, net)
        assert dist[cell_id(q, r)]["dist_metro_single_km"] == pytest.approx(0.0, abs=1e-9)

    def test_missing_category_is_an_error(self):
        net = _full_net(drop=("bh1",))
        grid = build_grid(BBOX, 0.5)
        with pytest.raises(ValueError, match="category empty"):
            nearest_distances(grid, net)

    def test_matches_exhaustive_scan(self):
        grid = build_grid(BBOX, 0.5)
        net = _full_net()
        dist = nearest_distances(grid, net)
        groups = {
            "dist_metro_single_km": ["ms1", "ms2"],
            "dist_metro_hub_km": ["mh1"],
            "dist_bus_single_km": ["bs1", "bs2"],
            "dist_bus_hub_km": ["bh1"],
        }
        for q, r in grid.cells:
            lon, lat = cell_center(grid, q, r)
            for name, sids in groups.items():
                best = min(
                    float(great_circle_m(lon, lat, net.stations[s].lon, net.stations[s].lat))
                    for s in sids) / 1000.0
                assert dist[cell_id(q, r)][name] == pytest.approx(best, rel=1e-12)

    def test_triangle_sanity(self):
        grid = build_grid(BBOX, 0.5)
        net = _full_net()
        dist = nearest_distances(grid, net)
        for q, r in grid.cells:
            lon, lat = cell_center(grid, q, r)
            row = dist[cell_id(q, r)]
            for sid in ("ms1", "ms2"):
                s = net.stations[sid]
                specific = float(great_circle_m(lon, lat, s.lon, s.lat)) / 1000.0
                assert row["dist_metro_single_km"] <= specific + 1e-12


class TestStationDensities:
    def test_counts_per_area(self):
        grid = build_grid(BBOX, 0.5)
        net = _full_net()
        dens = station_densities(grid, net)
        area = grid.cell_area_km2
        singles = {"bs1": False, "bs2": False, "bh1": True}
        for sid, hub in singles.items():
            s = net.stations[sid]
            (row,) = locate(grid, [s.lon], [s.lat])
            cell = grid.cells[row]
            key = "bus_hub_density" if hub else "bus_single_density"
            assert dens[cell_id(*cell)][key] >= 1.0 / area - 1e-12
        total_single = sum(d["bus_single_density"] for d in dens.values()) * area
        total_hub = sum(d["bus_hub_density"] for d in dens.values()) * area
        assert total_single == pytest.approx(2.0)
        assert total_hub == pytest.approx(1.0)

    def test_station_outside_grid_ignored(self):
        grid = build_grid(BBOX, 0.5)
        net = _full_net(_station("far", 122.5, 32.5, "bus", ["B9"]))
        dens = station_densities(grid, net)
        total = sum(d["bus_single_density"] for d in dens.values()) * grid.cell_area_km2
        assert total == pytest.approx(2.0)


def _random_roads(rng, n_lines, inner):
    """Polylines strictly inside ``inner`` so every segment is grid-covered."""
    lon_lo, lat_lo, lon_hi, lat_hi = inner
    features = []
    for _ in range(n_lines):
        k = int(rng.integers(2, 5))
        lons = rng.uniform(lon_lo, lon_hi, size=k)
        lats = rng.uniform(lat_lo, lat_hi, size=k)
        features.append({
            "type": "Feature",
            "properties": {"highway": bool(rng.random() < 0.3)},
            "geometry": {"type": "LineString",
                         "coordinates": [[float(a), float(b)] for a, b in zip(lons, lats)]},
        })
    return {"type": "FeatureCollection", "features": features}


class TestRoadMetrics:
    def test_segment_inside_one_cell(self):
        grid = build_grid(BBOX, 0.5)
        q, r = grid.cells[4]
        lon, lat = cell_center(grid, q, r)
        nodes = [(lon - 0.0005, lat), (lon + 0.0005, lat)]
        length = float(great_circle_m(*nodes[0], *nodes[1])) / 1000.0
        g = RoadGraph(nodes=nodes, edges=[(0, 1, length, True)])
        metrics = road_metrics(grid, g)
        area = grid.cell_area_km2
        assert metrics[cell_id(q, r)]["road_density_km_per_km2"] == pytest.approx(length / area, rel=1e-9)
        assert metrics[cell_id(q, r)]["highway_density_km_per_km2"] == pytest.approx(length / area, rel=1e-9)
        others = sum(m["road_density_km_per_km2"] for cid, m in metrics.items()
                     if cid != cell_id(q, r))
        assert others == 0.0

    def test_clipping_conserves_length(self, tmp_path):
        rng = np.random.default_rng(11)
        inner = (BBOX[0] + 0.002, BBOX[1] + 0.002, BBOX[2] - 0.002, BBOX[3] - 0.002)
        doc = _random_roads(rng, 30, inner)
        path = tmp_path / "roads.geojson"
        path.write_text(json.dumps(doc))
        g = load_roads(str(path))
        grid = build_grid(BBOX, 0.5)
        metrics = road_metrics(grid, g)
        area = grid.cell_area_km2
        clipped_total = sum(m["road_density_km_per_km2"] for m in metrics.values()) * area
        clipped_highway = sum(m["highway_density_km_per_km2"] for m in metrics.values()) * area
        true_total = sum(e[2] for e in g.edges)
        true_highway = sum(e[2] for e in g.edges if e[3])
        assert clipped_total == pytest.approx(true_total, rel=1e-9)
        assert clipped_highway == pytest.approx(true_highway, rel=1e-9)
        assert clipped_highway <= clipped_total

    def test_node_averages(self):
        grid = build_grid(BBOX, 0.5)
        qa, ra = grid.cells[3]
        lon, lat = cell_center(grid, qa, ra)
        # a triangle and an isolated chain endpoint inside the same cell
        nodes = [(lon, lat), (lon + 0.0004, lat), (lon, lat + 0.0004),
                 (lon - 0.0004, lat - 0.0002)]
        edges = [(0, 1, 0.04, False), (1, 2, 0.05, False), (0, 2, 0.04, False),
                 (0, 3, 0.05, False)]
        g = RoadGraph(nodes=nodes, edges=edges)
        metrics = road_metrics(grid, g)
        row = metrics[cell_id(qa, ra)]
        # clustering: node0 has k=3 neighbors {1,2,3} with one linked pair -> 1/3
        expected_clus = (1.0 / 3.0 + 1.0 + 1.0 + 0.0) / 4.0
        expected_deg = (3 + 2 + 2 + 1) / 4.0
        assert row["avg_clustering"] == pytest.approx(expected_clus)
        assert row["avg_centrality"] == pytest.approx(expected_deg)

    def test_empty_graph_gives_zero_columns(self):
        grid = build_grid(BBOX, 0.5)
        metrics = road_metrics(grid, RoadGraph(nodes=[], edges=[]))
        for row in metrics.values():
            assert row == {"avg_clustering": 0.0, "avg_centrality": 0.0,
                           "road_density_km_per_km2": 0.0,
                           "highway_density_km_per_km2": 0.0}


class TestPoiAndPopulation:
    def test_uniform_raster_matches_analytic_density(self):
        grid = build_grid(BBOX, 0.5)
        proj = grid.projection
        # square lattice in projected meters, extended 1.2 km past the bbox so
        # every grid hexagon is fully covered
        x0, y0 = proj.to_xy(BBOX[0], BBOX[1])
        x1, y1 = proj.to_xy(BBOX[2], BBOX[3])
        density = 4200.0  # persons per km^2
        pitch = 25.0  # meters; fine enough that lattice quantization stays < 2%
        mass = density * (pitch / 1000.0) ** 2
        points = []
        xs = np.arange(x0 - 1200.0, x1 + 1200.0, pitch)
        ys = np.arange(y0 - 1200.0, y1 + 1200.0, pitch)
        for x in xs:
            for y in ys:
                lon, lat = proj.to_lonlat(x, y)
                points.append((float(lon), float(lat), mass))
        out = poi_and_population(grid, [], points)
        expected = math.log(density + 1.0)
        for row in out.values():
            got = math.exp(row["log_population_density"]) - 1.0
            assert abs(got - density) / density < 0.02
            assert abs(row["log_population_density"] - expected) < math.log(1.03)

    def test_zero_pois_zero_density(self):
        grid = build_grid(BBOX, 0.5)
        out = poi_and_population(grid, [], [])
        for row in out.values():
            assert row["residence_density"] == 0.0
            assert row["retail_density"] == 0.0
            assert row["catering_density"] == 0.0
            assert row["enterprise_density"] == 0.0
            assert row["log_population_density"] == 0.0

    def test_poi_counted_exactly_once(self):
        grid = build_grid(BBOX, 0.5)
        # a point close to a hexagon edge still lands in exactly one cell
        qa, ra = grid.cells[6]
        lon, lat = cell_center(grid, qa, ra)
        side_deg = 0.5 / 111.0 / 2.0
        pois = [(lon + side_deg * 0.999, lat, "retail")]
        out = poi_and_population(grid, pois, [])
        total = sum(row["retail_density"] for row in out.values()) * grid.cell_area_km2
        assert total == pytest.approx(1.0)

    def test_unknown_category_ignored(self):
        grid = build_grid(BBOX, 0.5)
        lon, lat = cell_center(grid, *grid.cells[0])
        out = poi_and_population(grid, [(lon, lat, "parkland")], [])
        for row in out.values():
            for c in ("residence", "retail", "catering", "enterprise"):
                assert row[f"{c}_density"] == 0.0


class TestTncTravelColumns:
    def test_average_duration(self):
        grid = build_grid(BBOX, 0.5)
        lon, lat = cell_center(grid, *grid.cells[2])
        trips = [_trip(lon, lat, 121.049, 31.001, duration=10),
                 _trip(lon, lat, 121.049, 31.001, duration=20)]
        cols = tnc_travel_columns(as_trips(trips), grid, days=1, side="origin")
        cid = cell_id(*grid.cells[2])
        assert cols[cid]["avg_travel_min"] == pytest.approx(15.0)
        assert cols[cid]["n_trips_daily"] == pytest.approx(2.0)

    def test_destination_side_anchoring(self):
        grid = build_grid(BBOX, 0.5)
        o = cell_center(grid, *grid.cells[1])
        d = cell_center(grid, *grid.cells[-2])
        trips = [_trip(o[0], o[1], d[0], d[1])]
        dest = tnc_travel_columns(as_trips(trips), grid, days=1, side="destination")
        orig = tnc_travel_columns(as_trips(trips), grid, days=1, side="origin")
        assert dest[cell_id(*grid.cells[-2])]["n_trips_daily"] == 1.0
        assert dest[cell_id(*grid.cells[1])]["n_trips_daily"] == 0.0
        assert orig[cell_id(*grid.cells[1])]["n_trips_daily"] == 1.0

    def test_wait_column_rule(self):
        grid = build_grid(BBOX, 0.5)
        lon, lat = cell_center(grid, *grid.cells[2])
        bare = [_trip(lon, lat, 121.049, 31.001)]
        cols = tnc_travel_columns(as_trips(bare), grid, days=1, side="origin")
        assert all(row["avg_wait_min"] is None for row in cols.values())
        timed = [_trip(lon, lat, 121.049, 31.001, request=4),
                 _trip(lon, lat, 121.049, 31.001, request=8)]
        cols = tnc_travel_columns(as_trips(timed), grid, days=1, side="origin")
        assert cols[cell_id(*grid.cells[2])]["avg_wait_min"] == pytest.approx(6.0)

    def test_fare_per_km_recompute(self):
        rng = np.random.default_rng(3)
        grid = build_grid(BBOX, 0.5)
        lon, lat = cell_center(grid, *grid.cells[5])
        trips = [_trip(lon, lat, 121.049, 31.001,
                       distance=float(rng.uniform(2, 30)),
                       cost=float(rng.uniform(10, 90))) for _ in range(25)]
        cols = tnc_travel_columns(as_trips(trips), grid, days=1, side="origin")
        expected = np.mean([t.cost / t.distance_km for t in trips])
        assert cols[cell_id(*grid.cells[5])]["avg_fare_per_km"] == pytest.approx(expected, rel=1e-12)

    def test_days_scaling_and_errors(self):
        grid = build_grid(BBOX, 0.5)
        lon, lat = cell_center(grid, *grid.cells[2])
        trips = [_trip(lon, lat, 121.049, 31.001) for _ in range(6)]
        cols = tnc_travel_columns(as_trips(trips), grid, days=3, side="origin")
        assert cols[cell_id(*grid.cells[2])]["n_trips_daily"] == pytest.approx(2.0)
        with pytest.raises(ValueError):
            tnc_travel_columns(as_trips(trips), grid, days=0, side="origin")
        with pytest.raises(ValueError):
            tnc_travel_columns(as_trips(trips), grid, days=1, side="midpoint")


class TestVifFilter:
    def test_collinear_pair_drops_one(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=40)
        X = np.column_stack([a, 2.0 * a + 3.0])
        report = vif_filter(X, ["a", "b"], threshold=10.0)
        assert report.dropped == ["a"]
        assert report.retained == ["b"]
        assert report.rounds[0]["vif"]["a"] == math.inf
        assert report.rounds[0]["vif"]["b"] == math.inf

    def test_orthogonal_columns_have_unit_vif(self):
        rng = np.random.default_rng(1)
        base = np.column_stack([np.ones(60), rng.normal(size=(60, 4))])
        q, _ = np.linalg.qr(base)
        X = q[:, 1:]  # mutually orthogonal and orthogonal to the intercept
        report = vif_filter(X, ["w", "x", "y", "z"], threshold=10.0)
        assert report.dropped == []
        assert report.retained == ["w", "x", "y", "z"]
        for value in report.rounds[0]["vif"].values():
            assert abs(value - 1.0) <= 1e-9

    def test_against_pseudoinverse_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 5))
        X[:, 3] = 0.6 * X[:, 0] + 0.8 * X[:, 1] + rng.normal(scale=0.4, size=50)
        names = ["c0", "c1", "c2", "c3", "c4"]
        report = vif_filter(X, names, threshold=10.0)
        first = report.rounds[0]["vif"]
        for j, name in enumerate(names):
            yj = X[:, j]
            design = np.column_stack([np.delete(X, j, axis=1), np.ones(50)])
            fitted = design @ (np.linalg.pinv(design) @ yj)
            ss_res = float(((yj - fitted) ** 2).sum())
            ss_tot = float(((yj - yj.mean()) ** 2).sum())
            expected = 1.0 / (1.0 - (1.0 - ss_res / ss_tot))
            assert first[name] == pytest.approx(expected, rel=1e-9)

    def test_iterative_drop_order(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=45)
        b = rng.normal(size=45)
        X = np.column_stack([a, b, a + b + rng.normal(scale=1e-8, size=45),
                             rng.normal(size=45)])
        report = vif_filter(X, ["a", "b", "ab", "free"], threshold=10.0)
        assert len(report.dropped) == 1
        assert report.dropped[0] == "a"  # tie on extreme VIFs resolves to lowest index
        final = report.rounds[-1]["vif"]
        assert all(v <= 10.0 for v in final.values())

    def test_constant_column_is_infinite(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.full(30, 2.5), rng.normal(size=30)])
        report = vif_filter(X, ["const", "x"], threshold=10.0)
        assert report.rounds[0]["vif"]["const"] == math.inf
        assert report.dropped == ["const"]

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError, match="underdetermined VIF"):
            vif_filter(np.zeros((3, 4)), ["a", "b", "c", "d"])

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 6))
        X[:, 5] = X[:, 0] - X[:, 2]
        names = [f"c{i}" for i in range(6)]
        r1 = vif_filter(X, names)
        r2 = vif_filter(X, names)
        assert r1.retained == r2.retained
        assert r1.rounds == r2.rounds


def _mini_world(with_request=True, wide=False):
    grid = build_grid(BBOX, 0.5)
    net = _full_net()
    cells = grid.cells
    a = cell_center(grid, *cells[3])
    b = cell_center(grid, *cells[10])
    c = cell_center(grid, *cells[17])
    trips, results = [], []
    for i in range(8):
        trips.append(_trip(a[0], a[1], b[0], b[1], pickup=480 + i,
                           request=3 if with_request else None))
        results.append(FIRST_MILE if i < 2 else INDEPENDENT)
    for i in range(5):
        trips.append(_trip(c[0], c[1], a[0], a[1], pickup=540 + i,
                           request=5 if with_request else None))
        results.append(SUBSTITUTIVE if i < 3 else LAST_MILE)
    if wide:
        # one pickup per cell so every cell carries a defined origin target
        for q, r in cells:
            o = cell_center(grid, q, r)
            trips.append(_trip(o[0], o[1], b[0], b[1], pickup=600,
                               request=2 if with_request else None))
            results.append(INDEPENDENT)
    trips = as_trips(trips)
    stats = compute_ratios(*trip_rows(grid, trips), results, grid, days=1)
    rng = np.random.default_rng(9)
    pois = [(float(rng.uniform(BBOX[0], BBOX[2])), float(rng.uniform(BBOX[1], BBOX[3])),
             ["residence", "retail", "catering", "enterprise"][i % 4]) for i in range(40)]
    population = [(float(rng.uniform(BBOX[0], BBOX[2])), float(rng.uniform(BBOX[1], BBOX[3])),
                   float(rng.uniform(5, 50))) for _ in range(200)]
    roads = RoadGraph(nodes=[a, b, c], edges=[(0, 1, 1.2, False), (1, 2, 0.9, True)])
    return grid, net, trips, results, stats, pois, population, roads


class TestAssembleFeatures:
    def test_schema_each_column_exactly_once(self):
        grid, net, trips, results, stats, pois, population, roads = _mini_world()
        m = assemble_features(grid, stats, net, trips, 1, "FCR",
                              pois, population, roads)
        assert m.names == list(COLUMN_SCHEMA)
        assert len(m.names) == len(set(m.names)) == 19
        assert m.X.shape == (len(m.cell_ids), 19)

    def test_wait_column_dropped_without_request_times(self):
        grid, net, trips, results, stats, pois, population, roads = _mini_world(False)
        m = assemble_features(grid, stats, net, trips, 1, "FCR",
                              pois, population, roads)
        assert "avg_wait_min" not in m.names
        assert len(m.names) == 18

    def test_rows_are_cells_with_defined_target(self):
        grid, net, trips, results, stats, pois, population, roads = _mini_world()
        m = assemble_features(grid, stats, net, trips, 1, "FCR",
                              pois, population, roads)
        defined = [cid for cid in stats if stats[cid].ratio("fcr") is not None]
        assert m.cell_ids == defined
        assert np.all(m.y >= 0.0) and np.all(m.y <= 1.0)

    def test_target_values_and_sides(self):
        grid, net, trips, results, stats, pois, population, roads = _mini_world()
        fcr = assemble_features(grid, stats, net, trips, 1, "FCR",
                                pois, population, roads)
        cid_a = cell_id(*grid.cells[3])
        row_a = fcr.cell_ids.index(cid_a)
        assert fcr.y[row_a] == pytest.approx(2.0 / 8.0)
        assert fcr.column("n_trips_daily")[row_a] == pytest.approx(8.0)
        lcr = assemble_features(grid, stats, net, trips, 1, "LCR",
                                pois, population, roads)
        assert set(lcr.cell_ids) == {cid for cid in stats if stats[cid].ratio("lcr") is not None}
        row_a_dest = lcr.cell_ids.index(cid_a)
        assert lcr.y[row_a_dest] == pytest.approx(2.0 / 5.0)
        assert lcr.column("n_trips_daily")[row_a_dest] == pytest.approx(5.0)

    def test_unknown_target_rejected(self):
        grid, net, trips, results, stats, pois, population, roads = _mini_world()
        with pytest.raises(ValueError, match="unknown target"):
            assemble_features(grid, stats, net, trips, 1, "XYZ",
                              pois, population, roads)

    def test_no_missing_values(self):
        grid, net, trips, results, stats, pois, population, roads = _mini_world()
        for target in ("FCR", "LCR", "DSR", "ASR"):
            m = assemble_features(grid, stats, net, trips, 1, target,
                                  pois, population, roads)
            assert np.all(np.isfinite(m.X))


class TestSerialization:
    def test_feature_roundtrip(self, tmp_path):
        grid, net, trips, results, stats, pois, population, roads = _mini_world()
        m = assemble_features(grid, stats, net, trips, 1, "DSR",
                              pois, population, roads)
        path = tmp_path / "features.csv"
        schema_path = tmp_path / "features_schema.json"
        write_features(m, str(path), str(schema_path))
        back = read_features(str(path))
        assert back.target == "DSR"
        assert back.names == m.names
        assert back.cell_ids == m.cell_ids
        assert np.array_equal(back.X, m.X)
        assert np.array_equal(back.y, m.y)
        schema = json.loads(schema_path.read_text())
        assert [c["name"] for c in schema["columns"]] == m.names
        assert all(set(c) == {"name", "unit", "describes"} for c in schema["columns"])

    def test_vif_report_roundtrip(self, tmp_path):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 3))
        report = vif_filter(X, ["a", "b", "c"])
        path = tmp_path / "vif.json"
        write_vif_report(report, str(path))
        doc = json.loads(path.read_text())
        assert doc["retained"] == report.retained
        assert doc["threshold"] == 10.0

    def test_apply_vif_projects_matrix(self):
        grid, net, trips, results, stats, pois, population, roads = _mini_world(wide=True)
        m = assemble_features(grid, stats, net, trips, 1, "FCR",
                              pois, population, roads)
        assert m.X.shape[0] >= m.X.shape[1]
        filtered, report = apply_vif(m, threshold=10.0)
        assert filtered.names == report.retained
        assert filtered.X.shape == (len(m.cell_ids), len(report.retained))
        for name in filtered.names:
            assert np.array_equal(filtered.column(name), m.column(name))
