"""Hexagonal tessellation and per-cell aggregation of classified trips.

The grid uses flat-top hexagons on a local equirectangular plane anchored at
the study-area centroid (distortion is far below 0.1% at city scale and the
projection inverts trivially). Cells are addressed by axial coordinates
``(q, r)`` with centers at

    x = s * 3/2 * q
    y = s * (sqrt(3)/2 * q + sqrt(3) * r)

for side length ``s`` in meters. Point location converts to fractional axial
coordinates and applies cube rounding, so every in-box point lands in exactly
one cell and shared edges resolve deterministically.

Aggregations: per-cell ratio surfaces (first-mile / last-mile complementary,
departure / arrival substitutive), hourly profiles, OD flows of all trips with
optional district rollup, per-class trip statistics, and the complementary-trip
breakdown by connecting mode and directness. Counts are reported as daily
averages (totals divided by the observation-day count); ratios are left
undefined, never zeroed, when their denominator is empty.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .classify import ALL_LABELS, FIRST_MILE, LAST_MILE, SUBSTITUTIVE
from .errors import finite_number
from .geo import LocalProjection, point_in_ring
from .ingest import Trips, has_request_times
from .ptnet import TransitNetwork

SQRT3 = math.sqrt(3.0)
HISTOGRAM_BINS = 20  # equal-width bins per trip_stats histogram
MAX_GRID_CELLS = 1_000_000  # build_grid refuses a grid that would walk more


@dataclass(frozen=True)
class HexGrid:
    lon0: float
    lat0: float
    side_km: float
    cells: tuple[tuple[int, int], ...]       # sorted axial indices

    @property
    def side_m(self) -> float:
        return self.side_km * 1000.0

    @property
    def projection(self) -> LocalProjection:
        return LocalProjection(self.lon0, self.lat0)

    @property
    def cell_area_km2(self) -> float:
        return 1.5 * SQRT3 * self.side_km ** 2

    def cell_set(self) -> frozenset:
        return frozenset(self.cells)


def cell_id(q: int, r: int) -> str:
    return f"{q},{r}"


def parse_cell_id(cid: str) -> tuple[int, int]:
    q, r = cid.split(",")
    return int(q), int(r)


def axial_center_xy(grid: HexGrid, q: int, r: int) -> tuple[float, float]:
    s = grid.side_m
    return s * 1.5 * q, s * (SQRT3 / 2.0 * q + SQRT3 * r)


def cell_center(grid: HexGrid, q: int, r: int) -> tuple[float, float]:
    x, y = axial_center_xy(grid, q, r)
    return grid.projection.to_lonlat(x, y)


def corners_xy(grid: HexGrid, q: int, r: int) -> list[tuple[float, float]]:
    """Six corners in the projected plane (metres), counter-clockwise."""
    cx, cy = axial_center_xy(grid, q, r)
    s = grid.side_m
    return [(cx + s * math.cos(math.pi / 3.0 * k), cy + s * math.sin(math.pi / 3.0 * k))
            for k in range(6)]


def build_grid(bbox: Sequence[float], side_km: float = 0.5) -> HexGrid:
    """Tile a lon/lat bounding box with flat-top hexagons.

    The cell set contains every hexagon whose center lies within the box padded
    by one side length, which guarantees full coverage of the box itself.
    """
    if not 0 < side_km < math.inf:
        raise ValueError(f"side_km must be a finite number > 0, got {side_km!r}")
    lon_min, lat_min, lon_max, lat_max = (float(v) for v in bbox)
    if not (lon_max > lon_min and lat_max > lat_min):
        raise ValueError("degenerate bounding box")
    lon0 = (lon_min + lon_max) / 2.0
    lat0 = (lat_min + lat_max) / 2.0
    proj = LocalProjection(lon0, lat0)
    x_min, y_min = proj.to_xy(lon_min, lat_min)
    x_max, y_max = proj.to_xy(lon_max, lat_max)
    s = side_km * 1000.0
    pad = s
    # the q range and each r range below span at most 5 steps more than these
    walk = ((x_max - x_min + 2 * pad) / (1.5 * s) + 5) * ((y_max - y_min + 2 * pad) / (s * SQRT3) + 5)
    if not walk <= MAX_GRID_CELLS:
        raise ValueError(f"a grid of side {side_km} km over bbox {tuple(bbox)} would walk up to "
                         f"{walk:.3g} cells, more than {MAX_GRID_CELLS:,}; raise grid.side_km")
    cells = []
    q_lo = math.floor((x_min - pad) / (1.5 * s)) - 1
    q_hi = math.ceil((x_max + pad) / (1.5 * s)) + 1
    for q in range(q_lo, q_hi + 1):
        # y = s*sqrt(3)*(q/2 + r)  =>  r = y/(s*sqrt(3)) - q/2
        r_lo = math.floor((y_min - pad) / (s * SQRT3) - q / 2.0) - 1
        r_hi = math.ceil((y_max + pad) / (s * SQRT3) - q / 2.0) + 1
        for r in range(r_lo, r_hi + 1):
            x = s * 1.5 * q
            y = s * (SQRT3 / 2.0 * q + SQRT3 * r)
            if (x_min - pad <= x <= x_max + pad) and (y_min - pad <= y <= y_max + pad):
                cells.append((q, r))
    cells.sort()
    return HexGrid(lon0=lon0, lat0=lat0, side_km=side_km, cells=tuple(cells))


def locate(grid: HexGrid, lon: Sequence[float], lat: Sequence[float]) -> list[int]:
    """Row in ``grid.cells`` of the cell holding each point, or -1 off the grid.

    ``lon`` and ``lat`` are equal-length sequences. Cube rounding uses ``round``
    (half to even), so shared edges and vertices always resolve the same way.
    Raises ``ValueError`` on a non-finite coordinate.
    """
    to_xy, s = grid.projection.to_xy, grid.side_m
    row_of = {cell: row for row, cell in enumerate(grid.cells)}
    rows = []
    for plon, plat in zip(lon, lat, strict=True):
        if not (math.isfinite(plon) and math.isfinite(plat)):
            raise ValueError(f"cannot locate the non-finite point ({plon}, {plat})")
        x, y = to_xy(plon, plat)
        qf = (2.0 / 3.0) * x / s
        rf = (-x / 3.0 + SQRT3 / 3.0 * y) / s
        # cube rounding: x=q, z=r, y=-x-z; fix the component with the largest error
        yf = -qf - rf
        rx, ry, rz = round(qf), round(yf), round(rf)
        dx, dy, dz = abs(rx - qf), abs(ry - yf), abs(rz - rf)
        if dx > dy and dx > dz:
            rx = -ry - rz
        elif not dy > dz:
            rz = -rx - ry
        rows.append(row_of.get((rx, rz), -1))
    return rows


def trip_rows(grid: HexGrid, trips: Trips) -> tuple[list[int], list[int]]:
    """Grid rows of every trip's origin and destination (-1 off the grid)."""
    return locate(grid, trips.olon, trips.olat), locate(grid, trips.dlon, trips.dlat)


# per-cell trip counts, and each ratio as (numerator, denominator): first-mile and
# departure substitutive trips per origin, last-mile and arrival substitutive per arrival
COUNTS = ("o_total", "a_total", "fc_total", "lc_total", "ds_total", "as_total")
RATIOS = {"fcr": ("fc_total", "o_total"), "lcr": ("lc_total", "a_total"),
          "dsr": ("ds_total", "o_total"), "asr": ("as_total", "a_total")}


@dataclass
class GridCellStats:
    """Counts and ratio surface for one hexagonal cell.

    Totals are raw trip counts over the whole observation period; ``daily``
    divides one by the day count. A ratio is None when its denominator is zero
    (a cell without departures has no defined departure ratio).
    """

    cell_id: str
    days: int
    o_total: int = 0    # trips originating in the cell
    a_total: int = 0    # trips arriving in the cell
    fc_total: int = 0   # first-mile complementary, by origin cell
    lc_total: int = 0   # last-mile complementary, by destination cell
    ds_total: int = 0   # substitutive, by origin cell
    as_total: int = 0   # substitutive, by destination cell

    def daily(self, count: str) -> float:
        return getattr(self, count) / self.days

    def ratio(self, name: str) -> Optional[float]:
        numerator, denominator = (getattr(self, count) for count in RATIOS[name])
        return numerator / denominator if denominator else None


def compute_ratios(
    origins: Sequence[int], destinations: Sequence[int],
    labels: Sequence[str],
    grid: HexGrid,
    days: int,
) -> dict[str, GridCellStats]:
    """Per-cell counts and ratios for every grid cell (including empty ones), from :func:`trip_rows`."""
    if days < 1:
        raise ValueError("days must be >= 1")
    if not len(origins) == len(destinations) == len(labels):
        raise ValueError("trips and labels must align")
    stats = {cell_id(q, r): GridCellStats(cell_id(q, r), days) for q, r in grid.cells}
    by_row = list(stats.values())
    for orow, drow, label in zip(origins, destinations, labels):
        if orow >= 0:
            cs = by_row[orow]
            cs.o_total += 1
            if label == FIRST_MILE:
                cs.fc_total += 1
            elif label == SUBSTITUTIVE:
                cs.ds_total += 1
        if drow >= 0:
            cs = by_row[drow]
            cs.a_total += 1
            if label == LAST_MILE:
                cs.lc_total += 1
            elif label == SUBSTITUTIVE:
                cs.as_total += 1
    return stats


@dataclass
class TemporalProfile:
    """Hour-of-day histogram (by pickup hour) with per-bin class mix."""

    totals: list[int]           # 24 bins
    first_mile: list[int]
    last_mile: list[int]
    substitutive: list[int]
    independent: list[int]


def temporal_profile(trips: Trips, labels: Sequence[str]) -> TemporalProfile:
    if len(trips) != len(labels):
        raise ValueError("trips and labels must align")
    bins = {label: [0] * 24 for label in ALL_LABELS}  # in TemporalProfile's field order
    for pickup, label in zip(trips.pickup_min, labels):
        bins[label][pickup % 1440 // 60] += 1
    return TemporalProfile([sum(hour) for hour in zip(*bins.values())], *bins.values())


@dataclass(frozen=True)
class OdFlow:
    level: str        # "grid" or "district"
    from_id: str
    to_id: str
    flow: float       # daily average count


def od_flows(
    origins: Sequence[int], destinations: Sequence[int],
    grid: HexGrid,
    days: int,
    districts: Optional[dict[str, list[list[tuple[float, float]]]]] = None,
) -> list[OdFlow]:
    """Daily OD flows of all trips between grid cells, from :func:`trip_rows`, optionally
    rolled up to districts (name -> the outer ring of each part, as lon/lat pairs)."""
    if days < 1:
        raise ValueError("days must be >= 1")
    ids = [cell_id(q, r) for q, r in grid.cells]
    counts: dict[tuple[str, str], int] = {}
    for orow, drow in zip(origins, destinations):
        if orow < 0 or drow < 0:
            continue
        key = (ids[orow], ids[drow])
        counts[key] = counts.get(key, 0) + 1
    flows = [OdFlow("grid", a, b, n / days) for (a, b), n in sorted(counts.items())]
    if districts is None:
        return flows
    assignment = _district_of_cells(grid, districts)
    rolled: dict[tuple[str, str], float] = {}
    for f in flows:
        da, db = assignment.get(f.from_id), assignment.get(f.to_id)
        if da is None or db is None:
            continue
        rolled[(da, db)] = rolled.get((da, db), 0.0) + f.flow
    flows.extend(OdFlow("district", a, b, v) for (a, b), v in sorted(rolled.items()))
    return flows


def _district_of_cells(grid: HexGrid,
                       districts: dict[str, list[list[tuple[float, float]]]]) -> dict[str, str]:
    assignment = {}
    for q, r in grid.cells:
        lon, lat = cell_center(grid, q, r)
        for name in sorted(districts):
            if any(point_in_ring(lon, lat, ring) for ring in districts[name]):
                assignment[cell_id(q, r)] = name
                break
    return assignment


def load_districts(path: str) -> dict[str, list[list[tuple[float, float]]]]:
    """District polygons from a GeoJSON FeatureCollection: the outer ring of a
    Polygon, or of each part of a MultiPolygon."""
    out = {}
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    for feat in doc.get("features", []):
        # RFC 7946 3.2: "geometry" and "properties" may be null
        name = str((feat.get("properties") or {}).get("name", f"d{len(out)}"))
        geom = feat.get("geometry") or {}
        if geom.get("type") not in ("Polygon", "MultiPolygon"):
            continue
        parts = geom["coordinates"] if geom["type"] == "MultiPolygon" else [geom["coordinates"]]
        rings = [polygon[0] for polygon in parts]
        if not all(finite_number(c) for ring in rings for vertex in ring for c in vertex):
            raise ValueError(f"district {name!r} has a vertex that is not finite numbers")
        # a position is lon, lat and an optional altitude (RFC 7946 3.1.1)
        out[name] = [[(float(lon), float(lat)) for lon, lat, *_ in ring] for ring in rings]
    return out


@dataclass
class Histogram:
    edges: list[float]
    counts: list[int]

    @property
    def mass(self) -> int:
        return sum(self.counts)


def _histogram(values: list[float]) -> Histogram:
    bins = HISTOGRAM_BINS
    if not values:
        return Histogram(edges=[], counts=[])
    lo, hi = min(values), max(values)
    if hi == lo:
        return Histogram(edges=[lo, hi], counts=[len(values)])
    width = (hi - lo) / bins
    edges = [lo + width * i for i in range(bins + 1)]
    counts = [0] * bins
    for v in values:
        idx = min(int((v - lo) / width), bins - 1)
        counts[idx] += 1
    return Histogram(edges=edges, counts=counts)


def trip_stats(
    trips: Trips,
    labels: Sequence[str],
) -> dict[str, dict[str, Histogram]]:
    """Per-class histograms of travel time and fare per km, plus waiting time
    when the input schema carries request timestamps on every trip."""
    if len(trips) != len(labels):
        raise ValueError("trips and labels must align")
    measures = {"travel_min": [d - p for p, d in zip(trips.pickup_min, trips.dropoff_min)],
                "fare_per_km": [c / km for c, km in zip(trips.cost, trips.distance_km)]}
    if has_request_times(trips):
        measures["wait_min"] = [p - r for p, r in zip(trips.pickup_min, trips.request_min)]
    return {label: {name: _histogram([v for v, of in zip(values, labels) if of == label])
                    for name, values in measures.items()} for label in ALL_LABELS}


def complementary_breakdown(
    trips: Trips,
    labels: Sequence[str],
    stations: Sequence[Optional[str]],
    net: TransitNetwork,
) -> dict:
    """Split complementary trips by connecting mode and directness.

    A trip is "direct" when its matched station is the nearest station of that
    mode to the trip's street end (the origin for first-mile trips, the
    destination for last-mile trips); indirect trips split by whether the
    matched station is a multi-line hub.
    """
    by_mode = {"metro": {"direct": 0, "indirect_hub": 0, "indirect_single": 0},
               "bus": {"direct": 0, "indirect_hub": 0, "indirect_single": 0}}
    mode_ids = {m: [sid for sid in net.station_ids if net.stations[sid].mode == m]
                for m in by_mode}
    for label, matched, olon, olat, dlon, dlat in zip(labels, stations, trips.olon, trips.olat,
                                                      trips.dlon, trips.dlat):
        if label not in (FIRST_MILE, LAST_MILE):
            continue
        station = net.stations[matched]
        mode = station.mode
        if mode not in by_mode:
            continue
        lon, lat = (olon, olat) if label == FIRST_MILE else (dlon, dlat)
        kind = ("direct" if net.nearest_station(lon, lat, mode_ids[mode]) == matched
                else "indirect_hub" if station.is_hub else "indirect_single")
        by_mode[mode][kind] += 1
    mode_counts = {m: sum(v.values()) for m, v in by_mode.items()}
    total = sum(mode_counts.values())
    return {
        "total": total,
        "mode_counts": mode_counts,
        "mode_shares": {m: (c / total if total else 0.0) for m, c in mode_counts.items()},
        "by_mode": by_mode,
    }


# ---------------------------------------------------------------------------
# serialization

_DAILY_COLUMNS = tuple(count.replace("_total", "_daily") for count in COUNTS)
CELL_STATS_COLUMNS = ("cell_id", "days", *COUNTS, *_DAILY_COLUMNS, *RATIOS)


def _derived(cs: GridCellStats) -> dict[str, Optional[float]]:
    """Daily averages, then ratios, keyed by their column names."""
    return {**{column: cs.daily(count) for column, count in zip(_DAILY_COLUMNS, COUNTS)},
            **{name: cs.ratio(name) for name in RATIOS}}


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else repr(value)


def write_cell_stats(stats: dict[str, GridCellStats], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CELL_STATS_COLUMNS)
        for cid in sorted(stats, key=parse_cell_id):
            cs = stats[cid]
            writer.writerow([cs.cell_id, cs.days, *(getattr(cs, count) for count in COUNTS),
                             *map(_fmt, _derived(cs).values())])


def read_cell_stats(path: str) -> dict[str, GridCellStats]:
    """Cell stats back from ``cells.csv``. Raises ``ValueError`` naming the
    line of an id that is not ``cell_id``'s text or repeats an earlier one, or
    the cell when its counts are impossible: fewer than one day, a negative
    count, or a ratio numerator above its denominator."""
    stats = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for row in (reader := csv.DictReader(handle)):
            cid = row["cell_id"]
            try:
                canonical = cell_id(*parse_cell_id(cid))
            except ValueError:
                canonical = None
            if cid != canonical or cid in stats:
                raise ValueError(f"line {reader.line_num}: cell id {cid!r} is not a 'q,r' "
                                 f"cell id or repeats an earlier row")
            counts = {count: int(row[count]) for count in COUNTS}
            cs = GridCellStats(cell_id=cid, days=int(row["days"]), **counts)
            if cs.days < 1 or min(counts.values()) < 0 or any(
                    counts[num] > counts[den] for num, den in RATIOS.values()):
                raise ValueError(f"cell {cs.cell_id} has impossible counts: days "
                                 f"{cs.days}, {counts}")
            stats[cs.cell_id] = cs
    return stats


def _closed_rings(grid: HexGrid):
    """Each cell's closed ring, flat as lon, lat, lon, lat, ...: the centre plus
    six offsets worked out once (``corners_xy``'s operations), so the bits of
    projecting each corner alone."""
    s, to_lonlat = grid.side_m, grid.projection.to_lonlat
    offsets = [(s * math.cos(math.pi / 3.0 * k), s * math.sin(math.pi / 3.0 * k))
               for k in (*range(6), 0)]
    for q, r in grid.cells:
        cx, cy = axial_center_xy(grid, q, r)
        yield [c for dx, dy in offsets for c in to_lonlat(cx + dx, cy + dy)]


# one feature as json.dump(..., indent=1) writes it inside the collection: %r
# for each ring coordinate (json's float text), %s for the id and each value
_POINT = "\n      [\n       %r,\n       %r\n      ]"
_FEATURE = ('{\n   "type": "Feature",\n   "geometry": {\n    "type": "Polygon",\n'
            '    "coordinates": [\n     [' + ",".join([_POINT] * 7) + '\n     ]\n    ]\n   },\n'
            '   "properties": {\n    "cell_id": "%s"'
            + "".join(f',\n    "{name}": %s' for name in (*_DAILY_COLUMNS, *RATIOS))
            + "\n   }\n  }")


def write_cell_stats_geojson(grid: HexGrid, stats: dict[str, GridCellStats], path: str) -> None:
    """The cells as GeoJSON, ``json.dump(doc, indent=1)``'s bytes and a newline,
    one feature at a time: every number is finite (a finite bbox, days >= 1)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{\n "type": "FeatureCollection",\n "features": [')
        sep = "\n  "
        for (q, r), ring in zip(grid.cells, _closed_rings(grid)):
            cid = cell_id(q, r)
            values = ("null" if v is None else repr(v) for v in _derived(stats[cid]).values())
            handle.write(sep + _FEATURE % (*ring, cid, *values))
            sep = ",\n  "
        handle.write("\n ]\n}\n" if grid.cells else "]\n}\n")


def write_od_flows(flows: Sequence[OdFlow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["level", "from", "to", "class", "flow"])
        for f in flows:
            writer.writerow([f.level, f.from_id, f.to_id, "all", repr(f.flow)])


def write_temporal_profile(profile: TemporalProfile, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["hour", "total", "first_mile", "last_mile",
                         "substitutive", "independent"])
        for hour in range(24):
            writer.writerow([hour, profile.totals[hour], profile.first_mile[hour],
                             profile.last_mile[hour], profile.substitutive[hour],
                             profile.independent[hour]])


def write_trip_stats(stats: dict[str, dict[str, Histogram]], path: str) -> None:
    doc = {label: {name: {"edges": h.edges, "counts": h.counts}
                   for name, h in entry.items()}
           for label, entry in stats.items()}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


def write_breakdown(breakdown: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(breakdown, handle, indent=2)
        handle.write("\n")


__all__ = [
    "CELL_STATS_COLUMNS",
    "COUNTS",
    "GridCellStats",
    "HexGrid",
    "Histogram",
    "OdFlow",
    "RATIOS",
    "TemporalProfile",
    "axial_center_xy",
    "build_grid",
    "cell_center",
    "cell_id",
    "complementary_breakdown",
    "compute_ratios",
    "corners_xy",
    "load_districts",
    "locate",
    "od_flows",
    "parse_cell_id",
    "read_cell_stats",
    "temporal_profile",
    "trip_rows",
    "trip_stats",
    "write_breakdown",
    "write_cell_stats",
    "write_cell_stats_geojson",
    "write_od_flows",
    "write_temporal_profile",
    "write_trip_stats",
]
