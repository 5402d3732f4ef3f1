"""Per-cell explanatory variables and multicollinearity screening.

Builds the cell-level design matrix used by the regression stage: accessibility
distances to four station categories (metro/bus crossed with single-line/hub),
station densities, street-network statistics (clustering, degree, road and
highway length densities), ride demand and service columns aggregated from
classified trips, and point-of-interest plus population densities. Columns are
screened with an iterative variance-inflation-factor filter.

External data formats: population raster as CSV ``lon,lat,pop`` (cell mass at
raster-point centers), POIs as CSV ``lon,lat,category`` with categories
``residence|retail|catering|enterprise``, street network as a GeoJSON
FeatureCollection of LineStrings with a boolean ``highway`` property.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import finite_number

if TYPE_CHECKING:
    from .hexgrid import HexGrid
    from .ingest import Trips
    from .ptnet import TransitNetwork

POI_CATEGORIES = ("residence", "retail", "catering", "enterprise")

STATION_CATEGORIES = (
    ("metro", False, "dist_metro_single_km"),
    ("metro", True, "dist_metro_hub_km"),
    ("bus", False, "dist_bus_single_km"),
    ("bus", True, "dist_bus_hub_km"),
)

# column name -> (unit, what it measures)
COLUMN_SCHEMA = {
    "log_population_density": ("log(persons/km^2 + 1)", "log-transformed residential population density"),
    "dist_metro_single_km": ("km", "distance from cell center to nearest single-line metro station"),
    "dist_metro_hub_km": ("km", "distance from cell center to nearest multi-line metro hub"),
    "dist_bus_single_km": ("km", "distance from cell center to nearest single-line bus stop"),
    "dist_bus_hub_km": ("km", "distance from cell center to nearest multi-line bus hub"),
    "bus_single_density": ("stops/km^2", "single-line bus stops per unit area"),
    "bus_hub_density": ("stops/km^2", "multi-line bus hubs per unit area"),
    "avg_clustering": ("ratio", "mean clustering coefficient of street junctions in the cell"),
    "avg_centrality": ("edges/junction", "mean junction degree (streets directly connected)"),
    "road_density_km_per_km2": ("km/km^2", "street length per unit area"),
    "highway_density_km_per_km2": ("km/km^2", "highway length per unit area"),
    "n_trips_daily": ("trips/day", "daily ride pickups or dropoffs anchored in the cell"),
    "avg_wait_min": ("min", "mean wait between request and pickup"),
    "avg_travel_min": ("min", "mean in-vehicle trip duration"),
    "avg_fare_per_km": ("RMB/km", "mean trip cost per kilometre"),
    "residence_density": ("points/km^2", "residential points of interest per unit area"),
    "retail_density": ("points/km^2", "retail points of interest per unit area"),
    "catering_density": ("points/km^2", "catering points of interest per unit area"),
    "enterprise_density": ("points/km^2", "enterprise points of interest per unit area"),
}

# ---------------------------------------------------------------------------
# station accessibility


def nearest_distances(grid: HexGrid, net: TransitNetwork) -> dict[str, dict[str, float]]:
    """Per-cell great-circle distance (km) to the nearest station of each of
    the four mode x hub categories. A category with no stations is an error."""
    from .hexgrid import cell_center, cell_id
    masks = {}
    for mode, hub, name in STATION_CATEGORIES:
        masks[name] = np.array([net.stations[sid].mode == mode and net.stations[sid].is_hub == hub
                                for sid in net.station_ids], dtype=bool)
        if not masks[name].any():
            raise ValueError(f"category empty: {name}")
    out: dict[str, dict[str, float]] = {}
    for q, r in grid.cells:
        d = net.station_distances_m(*cell_center(grid, q, r))
        out[cell_id(q, r)] = {name: float(np.min(d[mask])) / 1000.0
                              for name, mask in masks.items()}
    return out


def _rows(grid: HexGrid, points: Sequence[tuple]) -> list[int]:
    """Grid row of each ``(lon, lat, ...)`` point, or -1 off the grid."""
    from .hexgrid import locate
    return locate(grid, [p[0] for p in points], [p[1] for p in points])


def station_densities(grid: HexGrid, net: TransitNetwork) -> dict[str, dict[str, float]]:
    """Single-line bus stop and bus hub counts per km^2 for each cell."""
    from .hexgrid import cell_id
    bus = [s for s in (net.stations[sid] for sid in net.station_ids) if s.mode == "bus"]
    counts = [[0, 0] for _ in grid.cells]
    for s, row in zip(bus, _rows(grid, [(s.lon, s.lat) for s in bus])):
        if row >= 0:
            counts[row][1 if s.is_hub else 0] += 1
    area = grid.cell_area_km2
    return {cell_id(q, r): {"bus_single_density": single / area, "bus_hub_density": hub / area}
            for (q, r), (single, hub) in zip(grid.cells, counts)}


# ---------------------------------------------------------------------------
# street network


@dataclass
class RoadGraph:
    """Undirected simple street graph: junction nodes and straight segments."""

    nodes: list[tuple[float, float]]                     # lon, lat
    edges: list[tuple[int, int, float, bool]]            # u, v, length_km, highway
    adjacency: dict[int, set] = field(init=False, default_factory=dict)

    def __post_init__(self):
        for u, v, _, _ in self.edges:
            self.adjacency.setdefault(u, set()).add(v)
            self.adjacency.setdefault(v, set()).add(u)

    def degree(self, node: int) -> int:
        return len(self.adjacency.get(node, ()))

    def clustering(self, node: int) -> float:
        neighbors = sorted(self.adjacency.get(node, ()))
        k = len(neighbors)
        if k < 2:
            return 0.0
        links = 0
        for i, u in enumerate(neighbors):
            for v in neighbors[i + 1:]:
                if v in self.adjacency.get(u, ()):
                    links += 1
        return 2.0 * links / (k * (k - 1))


def load_roads(path: str) -> RoadGraph:
    """Street graph from GeoJSON LineStrings and the parts of MultiLineStrings;
    consecutive vertices of a line form edges."""
    from .geo import great_circle_m
    index: dict[tuple[float, float], int] = {}
    nodes: list[tuple[float, float]] = []
    seen: set = set()
    edges: list[tuple[int, int, float, bool]] = []

    def node_of(lon: float, lat: float) -> int:
        key = (round(lon, 7), round(lat, 7))
        if key not in index:
            index[key] = len(nodes)
            nodes.append((lon, lat))
        return index[key]

    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    for number, feat in enumerate(doc.get("features", [])):
        # RFC 7946 3.2: "geometry" and "properties" may be null
        geom = feat.get("geometry") or {}
        if geom.get("type") not in ("LineString", "MultiLineString"):
            continue
        lines = geom["coordinates"] if geom["type"] == "MultiLineString" else [geom["coordinates"]]
        highway = bool((feat.get("properties") or {}).get("highway", False))
        if not all(finite_number(c) for coords in lines for vertex in coords for c in vertex):
            raise ValueError(f"feature {number} has a vertex that is not finite numbers")
        # a position is lon, lat and an optional altitude (RFC 7946 3.1.1)
        pairs = (pair for coords in lines for pair in zip(coords, coords[1:]))
        for (lon1, lat1, *_), (lon2, lat2, *_) in pairs:
            u, v = node_of(lon1, lat1), node_of(lon2, lat2)
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            length_km = float(great_circle_m(lon1, lat1, lon2, lat2)) / 1000.0
            edges.append((u, v, length_km, highway))
    return RoadGraph(nodes=nodes, edges=edges)


def _clip_segment_to_hex(p0, p1, corners) -> float:
    """Length of the part of segment p0->p1 inside a convex CCW polygon."""
    t0, t1 = 0.0, 1.0
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    n = len(corners)
    for i in range(n):
        ax, ay = corners[i]
        bx, by = corners[(i + 1) % n]
        # inward normal of a CCW edge points left of the edge direction
        nx, ny = -(by - ay), bx - ax
        denom = nx * dx + ny * dy
        num = nx * (p0[0] - ax) + ny * (p0[1] - ay)
        if denom == 0.0:
            if num < 0.0:
                return 0.0
            continue
        t_cross = -num / denom
        if denom > 0.0:
            t0 = max(t0, t_cross)
        else:
            t1 = min(t1, t_cross)
        if t0 >= t1:
            return 0.0
    return (t1 - t0) * math.hypot(dx, dy)


def road_metrics(grid: HexGrid, roads: RoadGraph) -> dict[str, dict[str, float]]:
    """Street statistics per cell.

    Clustering and degree are computed on the full graph and averaged over the
    junctions located in each cell; road and highway densities use exact
    clipping of each segment against the hexagon in the projected plane.
    """
    from .hexgrid import cell_id, corners_xy
    members = grid.cell_set()
    proj = grid.projection
    area = grid.cell_area_km2
    sums: dict[str, list[float]] = {cell_id(q, r): [0.0, 0.0, 0, 0.0, 0.0]
                                    for q, r in grid.cells}
    by_row = list(sums.values())
    for idx, row in enumerate(_rows(grid, roads.nodes)):
        if row < 0:
            continue
        entry = by_row[row]
        entry[0] += roads.clustering(idx)
        entry[1] += roads.degree(idx)
        entry[2] += 1

    corners: dict[tuple[int, int], list[tuple[float, float]]] = {}
    s = grid.side_m
    for u, v, length_km, highway in roads.edges:
        lon1, lat1 = roads.nodes[u]
        lon2, lat2 = roads.nodes[v]
        p0 = proj.to_xy(lon1, lat1)
        p1 = proj.to_xy(lon2, lat2)
        planar_km = math.hypot(p1[0] - p0[0], p1[1] - p0[1]) / 1000.0
        if planar_km == 0.0:
            continue
        scale = length_km / planar_km
        # candidate cells from the fractional axial range of the segment bbox
        q_lo = math.floor((min(p0[0], p1[0]) - 2 * s) / (1.5 * s))
        q_hi = math.ceil((max(p0[0], p1[0]) + 2 * s) / (1.5 * s))
        y_lo, y_hi = min(p0[1], p1[1]), max(p0[1], p1[1])
        for q in range(q_lo, q_hi + 1):
            r_lo = math.floor((y_lo - 2 * s) / (s * math.sqrt(3)) - q / 2.0)
            r_hi = math.ceil((y_hi + 2 * s) / (s * math.sqrt(3)) - q / 2.0)
            for r in range(r_lo, r_hi + 1):
                if (q, r) not in members:
                    continue
                if (q, r) not in corners:
                    corners[(q, r)] = corners_xy(grid, q, r)
                clipped_m = _clip_segment_to_hex(p0, p1, corners[(q, r)])
                if clipped_m <= 0.0:
                    continue
                clipped_km = clipped_m / 1000.0 * scale
                entry = sums[cell_id(q, r)]
                entry[3] += clipped_km
                if highway:
                    entry[4] += clipped_km

    out = {}
    for cid, (clus, deg, n_nodes, road_km, highway_km) in sums.items():
        out[cid] = {
            "avg_clustering": clus / n_nodes if n_nodes else 0.0,
            "avg_centrality": deg / n_nodes if n_nodes else 0.0,
            "road_density_km_per_km2": road_km / area,
            "highway_density_km_per_km2": highway_km / area,
        }
    return out


# ---------------------------------------------------------------------------
# POIs and population


def load_points(path: str, value_column: Optional[str] = None) -> list[tuple]:
    """CSV points: (lon, lat) plus either a category string or a mass value;
    a bad row raises ``ValueError`` naming its line."""
    points = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        try:
            for row in reader:
                lon, lat = float(row["lon"]), float(row["lat"])
                value = row["category"] if value_column is None else float(row[value_column])
                numbers = (lon, lat) if value_column is None else (lon, lat, value)
                if not all(map(math.isfinite, numbers)):
                    raise ValueError(f"non-finite number in {numbers}")
                points.append((lon, lat, value))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
    return points


def poi_and_population(
    grid: HexGrid,
    pois: Sequence[tuple[float, float, str]],
    population: Sequence[tuple[float, float, float]],
) -> dict[str, dict[str, float]]:
    """Density columns: POI counts per km^2 per category, and the log of the
    population density (raster mass assigned to the hex holding each raster
    point, divided by cell area, plus one)."""
    from .hexgrid import cell_id
    area = grid.cell_area_km2
    counts = [{c: 0 for c in POI_CATEGORIES} for _ in grid.cells]
    mass = [0.0] * len(grid.cells)
    pois = [p for p in pois if p[2] in POI_CATEGORIES]
    for (_, _, category), row in zip(pois, _rows(grid, pois)):
        if row >= 0:
            counts[row][category] += 1
    for (_, _, value), row in zip(population, _rows(grid, population)):
        if row >= 0:
            mass[row] += value
    return {cell_id(q, r): {**{f"{c}_density": n[c] / area for c in POI_CATEGORIES},
                            "log_population_density": math.log(m / area + 1.0)}
            for (q, r), n, m in zip(grid.cells, counts, mass)}


# ---------------------------------------------------------------------------
# demand and service columns


def tnc_travel_columns(
    trips: Trips,
    grid: HexGrid,
    days: int,
    side: str,
) -> dict[str, dict[str, Optional[float]]]:
    """Per-cell ride columns anchored at the pickup ("origin") or dropoff
    ("destination") end: daily trip count, mean wait (when request times are
    present on every trip), mean duration, mean fare per km."""
    from .hexgrid import cell_id, locate
    from .ingest import has_request_times
    if side not in ("origin", "destination"):
        raise ValueError("side must be 'origin' or 'destination'")
    if days < 1:
        raise ValueError("days must be >= 1")
    with_wait = has_request_times(trips)
    acc = [[0, 0.0, 0.0, 0.0] for _ in grid.cells]
    rows = (locate(grid, trips.olon, trips.olat) if side == "origin"
            else locate(grid, trips.dlon, trips.dlat))
    for row, pickup, dropoff, cost, km, request in zip(rows, trips.pickup_min, trips.dropoff_min,
                                                       trips.cost, trips.distance_km, trips.request_min):
        if row < 0:
            continue
        entry = acc[row]
        entry[0] += 1
        entry[1] += dropoff - pickup
        entry[2] += cost / km
        if with_wait:
            entry[3] += pickup - request
    return {cell_id(q, r): {
        "n_trips_daily": n / days,
        "avg_travel_min": travel / n if n else 0.0,
        "avg_fare_per_km": fare / n if n else 0.0,
        "avg_wait_min": (wait / n if n else 0.0) if with_wait else None,
    } for (q, r), (n, travel, fare, wait) in zip(grid.cells, acc)}


# ---------------------------------------------------------------------------
# matrix assembly


@dataclass
class FeatureMatrix:
    target: str
    cell_ids: list[str]
    names: list[str]
    X: np.ndarray
    y: np.ndarray

    def column(self, name: str) -> np.ndarray:
        return self.X[:, self.names.index(name)]


def assemble_features(
    grid: HexGrid,
    stats: dict,
    net: TransitNetwork,
    trips: Trips,
    days: int,
    target: str,
    pois: Sequence[tuple[float, float, str]] = (),
    population: Sequence[tuple[float, float, float]] = (),
    roads: Optional[RoadGraph] = None,
) -> FeatureMatrix:
    """Design matrix over cells where the chosen target ratio is defined."""
    from .hexgrid import RATIOS, cell_id
    target, ratio = target.upper(), target.lower()
    if ratio not in RATIOS:
        raise ValueError(f"unknown target {target!r}")
    side = "origin" if RATIOS[ratio][1] == "o_total" else "destination"
    distances = nearest_distances(grid, net)
    densities = station_densities(grid, net)
    road_cols = road_metrics(grid, roads if roads is not None else RoadGraph([], []))
    env_cols = poi_and_population(grid, pois, population)
    ride_cols = tnc_travel_columns(trips, grid, days, side)

    with_wait = any(row["avg_wait_min"] is not None for row in ride_cols.values())
    names = [n for n in COLUMN_SCHEMA if with_wait or n != "avg_wait_min"]

    cell_ids, rows, targets = [], [], []
    for q, r in grid.cells:
        cid = cell_id(q, r)
        value = stats[cid].ratio(ratio)
        if value is None:
            continue
        merged = {}
        for source in (distances[cid], densities[cid], road_cols[cid],
                       env_cols[cid], ride_cols[cid]):
            merged.update(source)
        cell_ids.append(cid)
        rows.append([merged[n] for n in names])
        targets.append(value)
    X = np.array(rows, dtype=float) if rows else np.zeros((0, len(names)))
    y = np.array(targets, dtype=float)
    return FeatureMatrix(target=target, cell_ids=cell_ids, names=names, X=X, y=y)


# ---------------------------------------------------------------------------
# VIF screening


@dataclass
class VifReport:
    threshold: float
    rounds: list[dict]          # {"vif": {name: value}, "dropped": name | None}
    retained: list[str]
    dropped: list[str]


def _vif_values(X: np.ndarray) -> np.ndarray:
    n, p = X.shape
    out = np.empty(p)
    for j in range(p):
        yj = X[:, j]
        others = np.delete(X, j, axis=1)
        design = np.column_stack([others, np.ones(n)])
        coef, _, _, _ = np.linalg.lstsq(design, yj, rcond=None)
        resid = yj - design @ coef
        ss_res = float(resid @ resid)
        ss_tot = float(((yj - yj.mean()) ** 2).sum())
        if ss_tot == 0.0:
            out[j] = math.inf
            continue
        r2 = 1.0 - ss_res / ss_tot
        out[j] = math.inf if r2 >= 1.0 - 1e-12 else 1.0 / (1.0 - r2)
    return out


def vif_filter(X: np.ndarray, names: Sequence[str], threshold: float = 10.0) -> VifReport:
    """Iteratively drop the highest-VIF column while any exceeds the threshold.

    Ties break toward the lowest column index, making the filter
    order-independent for a given column layout.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] < X.shape[1]:
        raise ValueError("underdetermined VIF: fewer rows than columns")
    names = list(names)
    if len(names) != X.shape[1]:
        raise ValueError("names must match columns")
    keep = list(range(len(names)))
    rounds = []
    dropped: list[str] = []
    while keep:
        vifs = _vif_values(X[:, keep])
        record = {"vif": {names[keep[i]]: float(vifs[i]) for i in range(len(keep))},
                  "dropped": None}
        worst = int(np.argmax(vifs))  # argmax returns the first (lowest-index) max
        if len(keep) > 1 and vifs[worst] > threshold:
            record["dropped"] = names[keep[worst]]
            dropped.append(names[keep[worst]])
            keep.pop(worst)
            rounds.append(record)
            continue
        rounds.append(record)
        break
    return VifReport(threshold=threshold, rounds=rounds,
                     retained=[names[i] for i in keep], dropped=dropped)


def apply_vif(matrix: FeatureMatrix, threshold: float = 10.0) -> tuple[FeatureMatrix, VifReport]:
    report = vif_filter(matrix.X, matrix.names, threshold)
    idx = [matrix.names.index(n) for n in report.retained]
    filtered = FeatureMatrix(
        target=matrix.target, cell_ids=list(matrix.cell_ids),
        names=list(report.retained), X=matrix.X[:, idx], y=matrix.y.copy(),
    )
    return filtered, report


# ---------------------------------------------------------------------------
# serialization


def write_features(matrix: FeatureMatrix, path: str, schema_path: Optional[str] = None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["cell_id"] + matrix.names + [matrix.target])
        for i, cid in enumerate(matrix.cell_ids):
            writer.writerow([cid] + [repr(float(v)) for v in matrix.X[i]]
                            + [repr(float(matrix.y[i]))])
    if schema_path:
        schema = [{"name": n, "unit": COLUMN_SCHEMA[n][0], "describes": COLUMN_SCHEMA[n][1]}
                  for n in matrix.names]
        with open(schema_path, "w", encoding="utf-8") as handle:
            json.dump({"target": matrix.target, "columns": schema}, handle, indent=2)
            handle.write("\n")


def read_features(path: str) -> FeatureMatrix:
    """Read a features artifact; every row must be full width and every value
    a finite number, else ``ValueError`` naming the line or the cell."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        if not header:
            raise ValueError("no header row")
        names, target = header[1:-1], header[-1]
        cell_ids, rows, ys = [], [], []
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, expected {len(header)}")
                values = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
            for value, column in zip(values, header[1:]):
                if not math.isfinite(value):
                    raise ValueError(f"{value} in cell {row[0]}, column {column}")
            cell_ids.append(row[0])
            rows.append(values[:-1])
            ys.append(values[-1])
    X = np.array(rows, dtype=float) if rows else np.zeros((0, len(names)))
    return FeatureMatrix(target=target, cell_ids=cell_ids, names=names,
                         X=X, y=np.array(ys, dtype=float))


def write_vif_report(report: VifReport, path: str) -> None:
    doc = {"threshold": report.threshold, "rounds": report.rounds,
           "retained": report.retained, "dropped": report.dropped}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


__all__ = [
    "COLUMN_SCHEMA",
    "POI_CATEGORIES",
    "STATION_CATEGORIES",
    "FeatureMatrix",
    "RoadGraph",
    "VifReport",
    "apply_vif",
    "assemble_features",
    "load_points",
    "load_roads",
    "nearest_distances",
    "poi_and_population",
    "read_features",
    "road_metrics",
    "station_densities",
    "tnc_travel_columns",
    "vif_filter",
    "write_features",
    "write_vif_report",
]
