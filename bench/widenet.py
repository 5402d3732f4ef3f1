"""Seeded generator for the ``wide-network`` workload.

The network is a square lattice of transit lines, far larger than the
synthetic city ``ridelink synth`` builds: metro lines and bus lines run along
alternating rows and columns of a node grid, and every node a line passes is
a station. Crossings are shared stations, so the lines form one connected
graph and the planner's search on each trip sees the whole lattice. With the
sizes below that is 1,131 stations on 40 routes (12 metro lines, 14 bus
lines each cut into two overlapping routes).

Trips run between points near lattice nodes during service hours. Some carry
a station alias as their drop-off or pick-up label, which the classifier must
match (first-mile and last-mile trips). A known number of rows are planted
dirty: malformed rows and out-of-bbox rows that ingest rejects, and trips
whose travel time or distance is an interquartile-range outlier, which ingest
drops. ``generate`` returns the planted counts so the benchmark can check
ingest's verdicts exactly.

Files are written in the schemas the CLI reads: ``stations.csv``,
``routes.csv``, ``fares.json`` and ``trips.csv``, plus ``planted.json`` with
the counts and the bbox. The only dependency is the standard library.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

EARTH_RADIUS_M = 6_371_008.8
ANCHOR_LON = 121.40
ANCHOR_LAT = 31.15

# Column words and row words; a station's name is "<column word> <row word>",
# unique per node. No word is a station suffix ("exit", "gate", "entrance",
# "bus stop") or a code token, so names survive label normalisation intact.
COLUMN_WORDS = (
    "Amber", "Aspen", "Azure", "Basil", "Birch", "Bramble", "Cedar", "Cinder",
    "Clover", "Copper", "Coral", "Cypress", "Dawn", "Ember", "Fennel", "Fern",
    "Flint", "Garnet", "Ginger", "Granite", "Hazel", "Heather", "Holly",
    "Indigo", "Iris", "Ivory", "Jade", "Jasper", "Juniper", "Laurel", "Lilac",
    "Linden", "Maple", "Marble", "Myrtle", "Nutmeg", "Oak", "Olive", "Onyx",
    "Opal", "Pearl", "Pine", "Poplar", "Quartz", "Rowan", "Saffron", "Sage",
    "Slate", "Tamarind", "Willow",
)
ROW_WORDS = (
    "Abbey", "Acre", "Arbor", "Bank", "Bay", "Bend", "Bluff", "Brook", "Butte",
    "Cliff", "Coast", "Cove", "Creek", "Crest", "Dale", "Dell", "Dune", "Falls",
    "Field", "Fjord", "Ford", "Forest", "Glade", "Glen", "Grove", "Heath",
    "Hill", "Hollow", "Isle", "Knoll", "Lake", "Landing", "Lea", "Marsh",
    "Meadow", "Mesa", "Moor", "Orchard", "Park", "Peak", "Point", "Pond",
    "Prairie", "Ridge", "Rise", "Shore", "Spring", "Summit", "Vale", "View",
)
PLACE_WORDS = ("Court", "Block", "Market", "Tower", "Plaza", "Garden")

HEADER = ("plate_id", "olon", "olat", "pickup_label", "pickup_time", "dlon",
          "dlat", "dropoff_label", "dropoff_time", "distance_km", "cost")

# malformed-row kinds and the rejection reason ingest gives each
MALFORMED_REASONS = {
    "bad_timestamp": "bad timestamp",
    "bad_number": "bad number",
    "wrong_columns": "wrong column count",
    "dropoff_before_pickup": "dropoff not after pickup",
    "nonpositive_distance": "nonpositive distance",
    "negative_cost": "negative cost",
}
OUT_OF_BBOX_REASON = "coordinates outside bbox"

NODES = 50                          # lattice nodes per side
SPACING_KM = 0.6
METRO_LINES = (4, 12, 20, 28, 36, 44)   # rows and columns carrying metro
BUS_LINES = (0, 8, 16, 24, 32, 40, 48)  # rows and columns carrying buses
TRIPS = 150                         # clean trips, outliers excluded
FIRST_MILE_SHARE = 0.12             # drop-off labelled with a station alias
LAST_MILE_SHARE = 0.08              # pick-up labelled with a station alias
MALFORMED_PER_KIND = 3
OUT_OF_BBOX = 10
OUTLIERS = 8                        # half travel-time, half distance
DAYS = 7


def _node_xy(i: int, j: int) -> tuple[float, float]:
    half = (NODES - 1) * SPACING_KM / 2.0
    return i * SPACING_KM - half, j * SPACING_KM - half


def _to_lonlat(x_km: float, y_km: float) -> tuple[float, float]:
    kx = EARTH_RADIUS_M * math.cos(math.radians(ANCHOR_LAT))
    lon = ANCHOR_LON + math.degrees(x_km * 1000.0 / kx)
    lat = ANCHOR_LAT + math.degrees(y_km * 1000.0 / EARTH_RADIUS_M)
    return lon, lat


def bbox() -> list[float]:
    half = (NODES - 1) * SPACING_KM / 2.0 + 1.0
    lon_min, lat_min = _to_lonlat(-half, -half)
    lon_max, lat_max = _to_lonlat(half, half)
    return [lon_min, lat_min, lon_max, lat_max]


def build_lines() -> list[dict]:
    """Every route as {id, line_id, mode, nodes}; bus lines are cut into two
    routes that overlap by one stop, so each bus route spans half the city."""
    n = NODES
    lines = []
    for axis in ("row", "col"):
        for k in METRO_LINES:
            nodes = [(i, k) if axis == "row" else (k, i) for i in range(n)]
            lines.append({"id": f"M{axis[0].upper()}{k}", "mode": "metro",
                          "nodes": nodes})
        for k in BUS_LINES:
            nodes = [(i, k) if axis == "row" else (k, i) for i in range(n)]
            mid = n // 2
            for part, chunk in (("a", nodes[:mid + 1]), ("b", nodes[mid:])):
                lines.append({"id": f"B{axis[0].upper()}{k}{part}",
                              "mode": "bus", "nodes": chunk})
    for line in lines:
        line["line_id"] = line["id"].rstrip("ab")
    return lines


def build_stations(lines: list[dict]) -> dict:
    """Node -> station record; a node on any metro line is a metro station."""
    stations: dict[tuple[int, int], dict] = {}
    for line in lines:
        for node in line["nodes"]:
            st = stations.setdefault(node, {"modes": set(), "line_ids": []})
            st["modes"].add(line["mode"])
            if line["line_id"] not in st["line_ids"]:
                st["line_ids"].append(line["line_id"])
    for (i, j), st in stations.items():
        st["mode"] = "metro" if "metro" in st["modes"] else "bus"
        st["id"] = f"{'m' if st['mode'] == 'metro' else 'b'}{i:02d}{j:02d}"
        st["name"] = f"{COLUMN_WORDS[i]} {ROW_WORDS[j]}"
        st["alias"] = (f"{st['name']} Station" if st["mode"] == "metro"
                       else f"{st['name']} Bus Stop")
        st["lon"], st["lat"] = _to_lonlat(*_node_xy(i, j))
    return stations


def _stamp(day: int, minute: int) -> str:
    minute = int(minute)
    d = 1 + day + minute // 1440
    minute %= 1440
    return f"2022/9/{d} {minute // 60:02d}:{minute % 60:02d}"


class _TripMaker:
    def __init__(self, stations: dict, rng: random.Random):
        self.rng = rng
        self.nodes = sorted(stations)
        self.count = 0

    def _near(self, node, max_m: float) -> tuple[float, float]:
        x, y = _node_xy(*node)
        r = self.rng.uniform(20.0, max_m) / 1000.0
        a = self.rng.uniform(0.0, 2.0 * math.pi)
        return _to_lonlat(x + r * math.cos(a), y + r * math.sin(a))

    def _place(self) -> str:
        return (f"{self.rng.choice(COLUMN_WORDS)} "
                f"{self.rng.choice(PLACE_WORDS)} {self.rng.randint(1, 99)}")

    def row(self, pickup_label=None, dropoff_label=None, o_node=None,
            d_node=None, extra_minutes=0, extra_km=0.0) -> list[str]:
        rng = self.rng
        o_node = o_node or rng.choice(self.nodes)
        d_node = d_node or rng.choice(self.nodes)
        while d_node == o_node:
            d_node = rng.choice(self.nodes)
        olon, olat = self._near(o_node, 150.0 if pickup_label else 500.0)
        dlon, dlat = self._near(d_node, 150.0 if dropoff_label else 500.0)
        ox, oy = _node_xy(*o_node)
        dx, dy = _node_xy(*d_node)
        km = 1.3 * math.hypot(dx - ox, dy - oy) + rng.uniform(0.2, 1.0)
        minutes = max(4, round(km / 24.0 * 60.0 + rng.uniform(-3.0, 6.0)))
        day = rng.randrange(DAYS)
        pickup = rng.randrange(7 * 60, 21 * 60)
        self.count += 1
        return [
            f"W{self.count:05d}", repr(olon), repr(olat),
            pickup_label or self._place(), _stamp(day, pickup),
            repr(dlon), repr(dlat), dropoff_label or self._place(),
            _stamp(day, pickup + minutes + extra_minutes),
            repr(round(km + extra_km, 3)), repr(round(14.0 + 2.5 * km, 2)),
        ]


def _malformed(maker: _TripMaker, kind: str) -> list[str]:
    row = maker.row()
    if kind == "bad_timestamp":
        row[4] = "2022/13/45 25:61"
    elif kind == "bad_number":
        row[1] = "not-a-number"
    elif kind == "wrong_columns":
        row = row[:-1]
    elif kind == "dropoff_before_pickup":
        row[8] = row[4]
    elif kind == "nonpositive_distance":
        row[9] = "0.0"
    elif kind == "negative_cost":
        row[10] = "-5.0"
    return row


def generate(out_dir, seed: int) -> dict:
    """Write the network and ``TRIPS`` clean trips plus the planted dirty rows
    into ``out_dir``; returns the manifest that ``planted.json`` also holds."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    lines = build_lines()
    stations = build_stations(lines)

    with open(out / "stations.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "name", "aliases", "lon", "lat", "mode", "line_ids"])
        for node in sorted(stations, key=lambda n: stations[n]["id"]):
            st = stations[node]
            writer.writerow([st["id"], st["name"], st["alias"], repr(st["lon"]),
                             repr(st["lat"]), st["mode"], "|".join(st["line_ids"])])
    with open(out / "routes.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "line_id", "mode", "station_ids", "headway_min",
                         "service_start", "service_end", "speed_kmh"])
        for line in lines:
            metro = line["mode"] == "metro"
            writer.writerow([line["id"], line["line_id"], line["mode"],
                             "|".join(stations[n]["id"] for n in line["nodes"]),
                             "5.0" if metro else "8.0", "05:30", "23:30",
                             "35.0" if metro else "20.0"])
    with open(out / "fares.json", "w", encoding="utf-8") as fh:
        json.dump({"bus_flat": 2.0, "metro_base": 3.0, "metro_base_km": 6.0,
                   "metro_step_rmb": 1.0, "metro_step_km": 10.0}, fh, indent=2)
        fh.write("\n")

    maker = _TripMaker(stations, rng)
    n_first = round(TRIPS * FIRST_MILE_SHARE)
    n_last = round(TRIPS * LAST_MILE_SHARE)
    rows = []
    for k in range(TRIPS):
        if k < n_first:
            node = rng.choice(maker.nodes)
            rows.append(maker.row(dropoff_label=f"{stations[node]['alias']} Exit "
                                                f"{rng.choice('ABCD')}",
                                  d_node=node))
        elif k < n_first + n_last:
            node = rng.choice(maker.nodes)
            rows.append(maker.row(pickup_label=stations[node]["alias"],
                                  o_node=node))
        else:
            rows.append(maker.row())
    # far beyond Q3 + 3 IQR of any clean sample: trips last at most ~2.5 h
    # and run at most ~55 km
    for k in range(OUTLIERS):
        if k % 2 == 0:
            rows.append(maker.row(extra_minutes=1500))
        else:
            rows.append(maker.row(extra_km=600.0))
    malformed = {}
    for kind in MALFORMED_REASONS:
        for _ in range(MALFORMED_PER_KIND):
            rows.append(_malformed(maker, kind))
        malformed[kind] = MALFORMED_PER_KIND
    box = bbox()
    for _ in range(OUT_OF_BBOX):
        row = maker.row()
        row[5] = repr(box[2] + rng.uniform(0.01, 0.05))
        rows.append(row)
    rng.shuffle(rows)
    with open(out / "trips.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        writer.writerows(rows)

    rejected = {MALFORMED_REASONS[k]: v for k, v in malformed.items()}
    rejected[OUT_OF_BBOX_REASON] = OUT_OF_BBOX
    manifest = {
        "seed": seed,
        "bbox": box,
        "stations": len(stations),
        "routes": len(lines),
        "rows": len(rows),
        "rejected": rejected,
        "iqr_outliers": OUTLIERS,
        "first_mile": n_first,
        "last_mile": n_last,
    }
    with open(out / "planted.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
