"""Seeded synthetic city and trip generator with planted ground truth.

Builds a deterministic city from a scenario description: four metro lines
chained into an almost-closed loop (consecutive lines share a corner
station), three bus routes with a bus-bus hub and one bus-metro interchange,
point-of-interest and population layers, and a street grid. On top of the
network it plants trips whose classification outcome is forced by
construction: feeder trips labeled with station aliases, substitutive trips
that satisfy every threshold, and independent trips violating exactly one
condition each. Every planted trip is re-checked through the real planner
and classifier before it is accepted (re-drawing on the rare misses), so the
emitted ground truth is correct by verification, not by hope.

All randomness flows through one seeded generator: the same spec always
produces byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .classify import (
    FIRST_MILE,
    INDEPENDENT,
    LAST_MILE,
    SUBSTITUTIVE,
    ClassifierConfig,
    classify_trip,
)
from .cli import MAX_DAYS
from .errors import finite_number
from .geo import LocalProjection
from .ingest import Trips, write_trips
from .ptnet import (
    FareRules,
    NetworkPlanner,
    Route,
    Station,
    TransitNetwork,
    station_lexicon,
    validate_network,
    write_fares,
    write_routes,
    write_stations,
)

METRO_WORDS = (
    "Alder", "Aspen", "Basalt", "Beech", "Birch", "Brook", "Camphor", "Cedar",
    "Cypress", "Dogwood", "Elm", "Fennel", "Fir", "Garnet", "Ginkgo", "Granite",
    "Hawthorn", "Hazel", "Hemlock", "Holly", "Ivy", "Jade", "Juniper", "Larch",
    "Laurel", "Linden", "Magnolia", "Maple", "Marble", "Mulberry", "Myrtle",
    "Oak", "Olive", "Onyx", "Pine", "Poplar", "Quartz", "Rowan", "Sequoia",
    "Spruce", "Sycamore", "Tamarind", "Walnut", "Willow", "Wisteria", "Yew",
    "Zelkova", "Zinnia",
)

BUS_WORDS = (
    "Anchor", "Beacon", "Breeze", "Canal", "Delta", "Drift", "Estuary",
    "Ferry", "Harbor", "Inlet", "Jetty", "Lagoon", "Marsh", "Pier", "Quay",
    "Reef", "Shoal", "Tide", "Wharf",
)

PLACE_KINDS = ("Court", "Block", "Plaza", "Garden", "Market", "Tower")

GROUND_TRUTH_COLUMNS = ("trip_index", "intended_class", "violated_condition")

# daytime pickup hours, drawn with weights that peak at 08:30 and 18:00
_PICKUP_HOURS = np.arange(7, 22)
_HOUR_WEIGHTS = 1.0 + 2.0 * np.exp(-0.5 * ((_PICKUP_HOURS - 8.5) / 1.2) ** 2) \
    + 2.0 * np.exp(-0.5 * ((_PICKUP_HOURS - 18.0) / 1.2) ** 2)
_PICKUP_HOUR_P = _HOUR_WEIGHTS / _HOUR_WEIGHTS.sum()
# the cdf that ``Generator.choice(_PICKUP_HOURS, p=_PICKUP_HOUR_P)`` builds on
# every call: searching it with one ``random()`` draw gives the same hour and
# leaves the generator in the same state
_PICKUP_CDF = _PICKUP_HOUR_P.cumsum()
_PICKUP_CDF /= _PICKUP_CDF[-1]

# a cap, so that a typo cannot start a run that never ends (cli.MAX_DAYS caps days)
MAX_COUNT = 1_000_000  # per planted class and of POIs: each is drawn (and checked) one at a time


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int = 20220901
    anchor_lon: float = 121.40
    anchor_lat: float = 31.15
    days: int = 7
    metro_lines: int = 4
    metro_stations_per_line: int = 12
    metro_spacing_km: float = 1.2
    bus_routes: int = 3
    metro_speed_kmh: float = 35.0
    bus_speed_kmh: float = 20.0
    metro_headway_min: float = 6.0
    bus_headway_min: float = 10.0
    first_mile: int = 800
    last_mile: int = 800
    substitutive: int = 900
    independent_c1: int = 600
    independent_c3: int = 700
    independent_c4: int = 500
    independent_c5: int = 300
    independent_c6: int = 400
    poi_count: int = 2400
    population_pitch_km: float = 0.5
    half_extent_km: float = 9.0
    max_attempts: int = 80

    def planted_counts(self) -> dict[str, int]:
        return {recipe: getattr(self, recipe) for recipe in _Factory.RECIPES}

    def total_trips(self) -> int:
        return sum(self.planted_counts().values())

    def validate(self) -> None:
        for item in fields(self):
            value = getattr(self, item.name)
            if item.type == "int" and type(value) is not int:
                raise ValueError(f"{item.name} must be an integer, got {value!r}")
            if item.type == "float" and not finite_number(value):
                raise ValueError(f"{item.name} must be a finite number, got {value!r}")
            if item.type == "int" and value < 0:
                raise ValueError(f"{item.name} must be >= 0, got {value!r}")
            if item.type == "float" and value <= 0 and not item.name.startswith("anchor_"):
                raise ValueError(f"{item.name} must be positive, got {value!r}")
        for name in (*_Factory.RECIPES, "poi_count"):
            if getattr(self, name) > MAX_COUNT:
                raise ValueError(f"{name} must be at most {MAX_COUNT:,}, got {getattr(self, name)!r}")
        # _population_raster and _street_grid walk square grids int(steps) + 1 points a side
        steps = max(2 * (self.half_extent_km - 0.6) / self.population_pitch_km,
                    2 * (self.half_extent_km - 1.0) / 0.8)
        if steps >= math.isqrt(MAX_COUNT):
            raise ValueError(f"population_pitch_km {self.population_pitch_km!r} and half_extent_km "
                             f"{self.half_extent_km!r} give the population raster or the street "
                             f"grid more than {MAX_COUNT:,} points")
        with np.errstate(over="ignore"):  # a near-pole anchor stretches longitudes to inf
            box = bbox_of(self)
        if not (-180 <= box[0] and box[2] <= 180 and -90 <= box[1] and box[3] <= 90):
            raise ValueError(f"anchor_lon, anchor_lat and half_extent_km put the city box "
                             f"{box} outside [-180, 180] x [-90, 90]")
        if not 0 <= self.metro_lines <= 4:
            raise ValueError("metro_lines must be between 0 and 4")
        if not 0 <= self.bus_routes <= 3:
            raise ValueError("bus_routes must be between 0 and 3")
        if not 2 <= self.metro_stations_per_line <= 20:
            raise ValueError("metro_stations_per_line must be between 2 and 20")
        # chained lines share a corner station, and each other station takes a name
        if self.metro_lines * (self.metro_stations_per_line - 1) + 1 > len(METRO_WORDS):
            raise ValueError(f"the metro lines need more than the {len(METRO_WORDS)} station names")
        if not math.isfinite(self.metro_spacing_km * self.metro_stations_per_line * 1000.0):
            raise ValueError(f"metro_spacing_km {self.metro_spacing_km!r} would put the "
                             f"metro stations at non-finite coordinates")
        if not 1 <= self.days <= MAX_DAYS:
            raise ValueError(f"days must be between 1 and {MAX_DAYS:,}, got {self.days!r}")
        needs_network = any(count > 0 for count in self.planted_counts().values())
        if needs_network and self.metro_lines == 0 and self.bus_routes == 0:
            raise ValueError("infeasible spec: trips requested but the city "
                             "has no transit at all")
        metro_only = ("first_mile", "last_mile", "substitutive",
                      "independent_c3", "independent_c4", "independent_c6")
        if self.metro_lines == 0 and any(
                getattr(self, name) > 0 for name in metro_only):
            raise ValueError("infeasible spec: metro-anchored trips requested "
                             "but metro_lines is 0")
        if self.independent_c1 > 0 and self.metro_lines == 0 \
                and self.bus_routes == 0:
            raise ValueError("infeasible spec: out-of-service trips need at "
                             "least one route")
        if self.independent_c4 > 0 and (self.metro_lines < 3
                                        or self.metro_stations_per_line < 8):
            raise ValueError("infeasible spec: the slow-transit recipe needs "
                             "at least three chained metro lines of 8+ stations")
        if self.independent_c5 > 0 and (self.metro_lines < 4
                                        or self.metro_stations_per_line < 8):
            raise ValueError("infeasible spec: the transfer-heavy recipe "
                             "needs all four chained metro lines")


# ---------------------------------------------------------------------------
# network construction


def _metro_line_starts(spec: ScenarioSpec) -> list[tuple]:
    """Chained corner-to-corner line layouts in local km: (origin, direction,
    spacing). Consecutive lines share their corner station."""
    n = spec.metro_stations_per_line
    s = spec.metro_spacing_km
    side = s * (n - 1)
    west = -0.5 * side - 0.6
    east = west + side
    north = 0.5 * side - 0.6
    south = north - side
    return [
        ((west, north), (1.0, 0.0), s),   # north belt, west to east
        ((west, north), (0.0, -1.0), s),  # west belt, north to south
        ((west, south), (1.0, 0.0), s),   # south belt, west to east
        # east belt climbs from the south-east corner with slightly tighter
        # spacing so its last stop sits below the north belt: an open loop
        ((east, south), (0.0, 1.0), s * (n - 1) / n),
    ][: spec.metro_lines]


def build_network(spec: ScenarioSpec) -> tuple[TransitNetwork, dict]:
    """Deterministic city network plus layout metadata (local km positions)."""
    spec.validate()
    proj = LocalProjection(spec.anchor_lon, spec.anchor_lat)
    stations: dict[str, Station] = {}
    routes: dict[str, Route] = {}
    xy: dict[str, tuple[float, float]] = {}
    by_pos: dict[tuple[float, float], str] = {}

    def add_route(rid, mode, positions, words, aliases, headway, window,
                  speed) -> list[str]:
        """Add route ``rid`` through ``positions`` and return its station
        ids. A stop at an existing station's position joins that station;
        a new stop takes the next name from ``words``, and each suffix in
        ``aliases`` gives it one alias."""
        sids = []
        for pos in positions:
            key = (round(pos[0], 6), round(pos[1], 6))
            sid = by_pos.get(key)
            if sid is None:
                sid = by_pos[key] = f"{mode[0]}{len(by_pos) + 1:02d}"
                name = next(words)
                lon, lat = proj.to_lonlat(pos[0] * 1000.0, pos[1] * 1000.0)
                stations[sid] = Station(
                    id=sid, name=name,
                    aliases=tuple(f"{name} {suffix}" for suffix in aliases),
                    lon=lon, lat=lat, mode=mode, line_ids=(rid,))
                xy[sid] = (pos[0], pos[1])
            elif rid not in stations[sid].line_ids:
                stations[sid] = replace(
                    stations[sid], line_ids=stations[sid].line_ids + (rid,))
            sids.append(sid)
        routes[rid] = Route(id=rid, line_id=rid, mode=mode,
                            station_ids=tuple(sids), headway_min=headway,
                            service_start=window[0], service_end=window[1],
                            speed_kmh=speed)
        return sids

    metro_names = (f"{word} Station" for word in METRO_WORDS)
    metro_ids = [
        add_route(f"M{li + 1}", "metro",
                  [(origin[0] + direction[0] * spacing * i,
                    origin[1] + direction[1] * spacing * i)
                   for i in range(spec.metro_stations_per_line)],
                  metro_names, ("Exit A", "Exit B"), spec.metro_headway_min,
                  (330, 1410), spec.metro_speed_kmh)
        for li, (origin, direction, spacing)
        in enumerate(_metro_line_starts(spec))]

    bus_layouts = [
        [(-4.5 + 1.5 * i, -1.8) for i in range(6)],            # east-west
        [(0.0, -1.8 - 1.35 * i) for i in range(5)],            # north-south
        [(-4.5 + 1.5 * i, 2.4) for i in range(6)],             # interior belt
    ][: spec.bus_routes]
    bus_names = (f"{word} Road" for word in BUS_WORDS)
    for bi, stops in enumerate(bus_layouts):
        add_route(f"B{bi + 1}", "bus", stops, bus_names, ("Bus Stop",),
                  spec.bus_headway_min, (360, 1380), spec.bus_speed_kmh)

    net = TransitNetwork(stations=stations, routes=routes, fares=FareRules())
    validate_network(net)
    meta = {"proj": proj, "xy": xy, "metro_ids": metro_ids}
    return net, meta


# ---------------------------------------------------------------------------
# trip planting


@dataclass
class GroundTruth:
    trip_index: int
    intended_class: str
    violated_condition: Optional[str]


class _Factory:
    """Draws candidate trips recipe by recipe and verifies each against the
    real classifier before accepting it."""

    def __init__(self, spec: ScenarioSpec, net: TransitNetwork, meta: dict):
        self.spec = spec
        self.net = net
        self.proj: LocalProjection = meta["proj"]
        self.xy = meta["xy"]
        self.metro_ids = meta["metro_ids"]
        self.planner = NetworkPlanner(net)
        self.lexicon = station_lexicon(net)
        self.cfg = ClassifierConfig()
        self.rng = np.random.default_rng(spec.seed)
        self.plates = [f"T{i:05d}" for i in range(900)]
        self.metro_sids = sorted(sid for sid, s in net.stations.items()
                                 if s.mode == "metro")
        # interior stations of each line: never a shared corner, so a point
        # close to one is far from every other station
        self.interior = [line[2:-2] for line in self.metro_ids]

    # drawing helpers ------------------------------------------------------

    def _day_minute(self) -> int:
        day = int(self.rng.integers(self.spec.days))
        hour = int(_PICKUP_HOURS[_PICKUP_CDF.searchsorted(self.rng.random(),
                                                          side="right")])
        minute = int(self.rng.integers(60))
        return day * 1440 + hour * 60 + minute

    def _night_minute(self) -> int:
        day = int(self.rng.integers(self.spec.days))
        return day * 1440 + int(self.rng.integers(70, 300))

    def _place_label(self) -> str:
        kind = PLACE_KINDS[int(self.rng.integers(len(PLACE_KINDS)))]
        word = METRO_WORDS[int(self.rng.integers(len(METRO_WORDS)))]
        return f"{word} {kind} {int(self.rng.integers(1, 90))}"

    def _near(self, sid: str, max_m: float):
        angle = self.rng.uniform(0.0, 2.0 * math.pi)
        radius = self.rng.uniform(20.0, max_m) / 1000.0
        x, y = self.xy[sid]
        return (x + radius * math.cos(angle), y + radius * math.sin(angle))

    def _interior_point(self):
        r = self.spec.half_extent_km - 1.5
        return (self.rng.uniform(-r, r), self.rng.uniform(-r, r))

    def _station_alias(self, sid: str) -> str:
        station = self.net.stations[sid]
        pool = (station.name, *station.aliases)
        return pool[int(self.rng.integers(len(pool)))]

    def _pick(self, seq):
        return seq[int(self.rng.integers(len(seq)))]

    def _trip(self, o_xy, d_xy, o_label, d_label, pickup, duration,
              cost=None) -> Trips:
        olon, olat = self.proj.to_lonlat(o_xy[0] * 1000.0, o_xy[1] * 1000.0)
        dlon, dlat = self.proj.to_lonlat(d_xy[0] * 1000.0, d_xy[1] * 1000.0)
        euclid = math.hypot(d_xy[0] - o_xy[0], d_xy[1] - o_xy[1])
        distance = round(euclid * self.rng.uniform(1.25, 1.45) + 0.2, 3)
        if cost is None:
            cost = round(14.0 + 2.7 * max(0.0, distance - 3.0)
                         + self.rng.uniform(-1.0, 1.0), 2)
        wait = int(self.rng.integers(2, 11))
        duration = max(2, int(round(duration)))
        return Trips(
            plate_id=[self._pick(self.plates)],
            olon=[olon], olat=[olat], pickup_label=[o_label], pickup_min=[pickup],
            dlon=[dlon], dlat=[dlat], dropoff_label=[d_label],
            dropoff_min=[pickup + duration], distance_km=[distance],
            cost=[float(cost)], request_min=[pickup - wait])

    def _ride(self, origin, dest, pickup, lo, hi, cost=None) -> Trips:
        """A ride between two places: draws its duration in [lo, hi), then
        its fare in the range ``cost`` when given, then two place labels.
        Callers draw ``origin``, ``dest`` and ``pickup`` in the argument
        list, which Python evaluates left to right, so each recipe keeps its
        draw order: C4 must stay pick, near, pick, near."""
        duration = float(self.rng.uniform(lo, hi))
        if cost is not None:
            cost = round(float(self.rng.uniform(*cost)), 2)
        return self._trip(origin, dest, self._place_label(),
                          self._place_label(), pickup, duration, cost=cost)

    # recipes --------------------------------------------------------------

    def _feeder(self, to_station: bool) -> Trips:
        """A first-mile ride (``to_station``) from an interior point to a
        metro station, or a last-mile ride from the station outwards."""
        sid = self._pick(self.metro_sids)
        near = self._near(sid, 250.0)
        far = self._interior_point()
        pickup = self._day_minute()
        duration = max(4.0, math.hypot(far[0] - near[0], far[1] - near[1])
                       / 22.0 * 60.0 + self.rng.uniform(-2.0, 4.0))
        if to_station:
            return self._trip(far, near, self._place_label(),
                              self._station_alias(sid), pickup, duration)
        return self._trip(near, far, self._station_alias(sid),
                          self._place_label(), pickup, duration)

    def _corridor_pair(self, max_legs: int) -> tuple[str, str]:
        line = self._pick(self.metro_ids)
        i = int(self.rng.integers(0, len(line) - 1))
        span = int(self.rng.integers(1, max_legs + 1))
        j = min(i + span, len(line) - 1)
        return line[i], line[j]

    def _draw_substitutive(self) -> Trips:
        a, b = self._corridor_pair(max_legs=4)
        return self._ride(self._near(a, 330.0), self._near(b, 330.0),
                          self._day_minute(), 14.0, 26.0)

    def _draw_independent_c1(self) -> Trips:
        a, b = self._corridor_pair(max_legs=4)
        return self._ride(self._near(a, 330.0), self._near(b, 330.0),
                          self._night_minute(), 8.0, 20.0)

    def _draw_independent_c3(self) -> Trips:
        line = self._pick(self.interior)
        sid = self._pick(line)
        # origin 480..720 m out, roughly perpendicular to the line so no
        # neighbouring station is any closer; planner stays available (<800)
        x, y = self.xy[sid]
        side = 1.0 if self.rng.random() < 0.5 else -1.0
        along = self.rng.uniform(-0.25, 0.25)
        out = self.rng.uniform(0.48, 0.72)
        if abs(self.xy[line[0]][1] - self.xy[line[-1]][1]) < 1e-9:
            origin = (x + along, y + side * out)      # horizontal line
        else:
            origin = (x + side * out, y + along)      # vertical line
        return self._ride(origin,
                          self._near(self._pick(self.metro_sids), 330.0),
                          self._day_minute(), 10.0, 24.0)

    def _draw_independent_c4(self) -> Trips:
        # opposite belts: transit must ride around the loop, the street route
        # cuts straight across, so the time condition fails on the gap
        return self._ride(self._near(self._pick(self.interior[0]), 330.0),
                          self._near(self._pick(self.interior[2]), 330.0),
                          self._day_minute(), 8.0, 14.0)

    def _draw_independent_c5(self) -> Trips:
        # middle of the north belt to middle of the east belt: the chained
        # layout forces three transfers; both stations are picked first
        a = self._pick(self.metro_ids[0][4:8])
        b = self._pick(self.metro_ids[3][4:8])
        return self._ride(self._near(a, 330.0), self._near(b, 330.0),
                          self._day_minute(), 48.0, 62.0)

    def _draw_independent_c6(self) -> Trips:
        # one-stop hop where the metro fare exceeds half the (cheap) fare of
        # the ride itself
        line = self._pick(self.metro_ids)
        i = int(self.rng.integers(2, len(line) - 3))
        return self._ride(self._near(line[i], 240.0),
                          self._near(line[i + 1], 240.0),
                          self._day_minute(), 5.0, 9.0, cost=(4.2, 5.6))

    # recipe -> (draw, intended class, violated condition)
    RECIPES = {
        "first_mile": (lambda self: self._feeder(True), FIRST_MILE, None),
        "last_mile": (lambda self: self._feeder(False), LAST_MILE, None),
        "substitutive": (_draw_substitutive, SUBSTITUTIVE, None),
        "independent_c1": (_draw_independent_c1, INDEPENDENT, "C1"),
        "independent_c3": (_draw_independent_c3, INDEPENDENT, "C3"),
        "independent_c4": (_draw_independent_c4, INDEPENDENT, "C4"),
        "independent_c5": (_draw_independent_c5, INDEPENDENT, "C5"),
        "independent_c6": (_draw_independent_c6, INDEPENDENT, "C6"),
    }

    def plant(self, recipe: str, count: int) -> Trips:
        """``count`` trips of ``recipe``, each the first of at most
        ``max_attempts`` draws that classifies as intended.

        Draws are verified a planner block at a time. A draw never depends on
        a verdict; only where a recipe stops does. So a block's draws are
        accepted in order up to the first miss, the generator is re-seated
        just after the missed draw, and that trip goes on one draw at a time:
        the random stream is the one that verifying each draw before the next
        gives."""
        draw, label, violated = self.RECIPES[recipe]
        trips = Trips.empty()
        misses = 0  # of the trip being drawn
        while len(trips) < count:
            if misses == self.spec.max_attempts:
                raise RuntimeError(f"could not place a {recipe} trip in "
                                   f"{self.spec.max_attempts} attempts; the scenario "
                                   f"geometry cannot express it")
            drawn, states = Trips.empty(), []
            for _ in range(1 if misses else min(self.planner.block_trips, count - len(trips))):
                drawn.extend(draw(self))
                states.append(self.rng.bit_generator.state)
            alts = self.planner.plan_many(list(zip(drawn.olon, drawn.olat, drawn.dlon, drawn.dlat)))
            for i, (alt, state) in enumerate(zip(alts, states)):
                got = classify_trip(drawn, i, alt, self.net, self.lexicon, self.cfg)
                if got[:2] != (label, violated):
                    misses += 1
                    self.rng.bit_generator.state = state
                    break
                trips.extend(drawn.take([i]))
                misses = 0
        return trips

    def plant_all(self) -> tuple[Trips, list[GroundTruth]]:
        trips = Trips.empty()
        intents: list[tuple[str, Optional[str]]] = []
        for recipe, count in self.spec.planted_counts().items():
            trips.extend(self.plant(recipe, count))
            intents += [self.RECIPES[recipe][1:]] * count
        order = self.rng.permutation(len(trips))
        shuffled = trips.take(order)
        truth = [GroundTruth(trip_index=new_idx,
                             intended_class=intents[old_idx][0],
                             violated_condition=intents[old_idx][1])
                 for new_idx, old_idx in enumerate(order)]
        return shuffled, truth


def plant_trips(spec: ScenarioSpec, net: TransitNetwork,
                meta: dict) -> tuple[Trips, list[GroundTruth]]:
    return _Factory(spec, net, meta).plant_all()


# ---------------------------------------------------------------------------
# context layers: points of interest, population, streets


def _poi_points(spec: ScenarioSpec, meta: dict,
                rng: np.random.Generator) -> list[tuple[float, float, str]]:
    proj: LocalProjection = meta["proj"]
    xy = meta["xy"]
    extent = spec.half_extent_km - 0.8
    station_pos = [xy[sid] for sid in sorted(xy)]
    mix = (("residence", 0.40), ("retail", 0.25), ("catering", 0.20),
           ("enterprise", 0.15))
    anchors = {
        "residence": [(rng.uniform(-extent, extent),
                       rng.uniform(-extent, extent)) for _ in range(8)],
        "retail": [station_pos[int(rng.integers(len(station_pos)))]
                   for _ in range(10)] if station_pos else [],
        "catering": [station_pos[int(rng.integers(len(station_pos)))]
                     for _ in range(8)] if station_pos else [],
        "enterprise": [(rng.uniform(0.5, extent), rng.uniform(0.5, extent))
                       for _ in range(3)],
    }
    sigma = {"residence": 1.2, "retail": 0.5, "catering": 0.7,
             "enterprise": 1.0}
    out = []
    for category, share in mix:
        n = int(round(spec.poi_count * share))
        blobs = anchors[category]
        for _ in range(n):
            if blobs and rng.random() < 0.7:
                cx, cy = blobs[int(rng.integers(len(blobs)))]
                x = cx + rng.normal(0.0, sigma[category])
                y = cy + rng.normal(0.0, sigma[category])
            else:
                x = rng.uniform(-extent, extent)
                y = rng.uniform(-extent, extent)
            x = float(np.clip(x, -extent, extent))
            y = float(np.clip(y, -extent, extent))
            lon, lat = proj.to_lonlat(x * 1000.0, y * 1000.0)
            out.append((lon, lat, category))
    return out


def _population_raster(spec: ScenarioSpec, meta: dict,
                       rng: np.random.Generator) -> list[tuple[float, float, float]]:
    proj: LocalProjection = meta["proj"]
    extent = spec.half_extent_km - 0.6
    pitch = spec.population_pitch_km
    blobs = [(rng.uniform(-extent * 0.7, extent * 0.7),
              rng.uniform(-extent * 0.7, extent * 0.7),
              rng.uniform(600.0, 1500.0)) for _ in range(6)]
    out = []
    steps = int(2 * extent / pitch) + 1
    for i in range(steps):
        for j in range(steps):
            x = -extent + i * pitch
            y = -extent + j * pitch
            value = 120.0 + 60.0 * math.exp(-(x * x + y * y) / (2 * 5.0 ** 2))
            for bx, by, mass in blobs:
                d2 = (x - bx) ** 2 + (y - by) ** 2
                value += mass * math.exp(-d2 / (2 * 1.8 ** 2))
            lon, lat = proj.to_lonlat(x * 1000.0, y * 1000.0)
            out.append((lon, lat, round(value, 3)))
    return out


def _street_grid(spec: ScenarioSpec, meta: dict) -> dict:
    """GeoJSON street grid with diagonal in-fills (they create triangles, so
    junction clustering is not degenerate) and two marked highways."""
    proj: LocalProjection = meta["proj"]
    extent = spec.half_extent_km - 1.0
    step = 0.8

    def lonlat(x, y):
        lon, lat = proj.to_lonlat(x * 1000.0, y * 1000.0)
        return [round(lon, 7), round(lat, 7)]

    features = []
    ticks = np.arange(-extent, extent + step / 2, step)
    for x in ticks:
        coords = [lonlat(float(x), float(y)) for y in ticks]
        features.append({"type": "Feature", "properties": {},
                         "geometry": {"type": "LineString",
                                      "coordinates": coords}})
    for y in ticks:
        coords = [lonlat(float(x), float(y)) for x in ticks]
        features.append({"type": "Feature", "properties": {},
                         "geometry": {"type": "LineString",
                                      "coordinates": coords}})
    for k in range(0, len(ticks) - 1, 3):
        for m in range(0, len(ticks) - 1, 4):
            x, y = float(ticks[k]), float(ticks[m])
            features.append({"type": "Feature", "properties": {},
                             "geometry": {"type": "LineString",
                                          "coordinates": [lonlat(x, y),
                                                          lonlat(x + step,
                                                                 y + step)]}})
    for y in (-extent - 0.4, extent + 0.4):
        coords = [lonlat(float(x), y) for x in
                  np.arange(-extent - 0.4, extent + 0.401, 2.0)]
        features.append({"type": "Feature", "properties": {"highway": True},
                         "geometry": {"type": "LineString",
                                      "coordinates": coords}})
    return {"type": "FeatureCollection", "features": features}


# ---------------------------------------------------------------------------
# emission


def write_ground_truth(truth: Sequence[GroundTruth], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GROUND_TRUTH_COLUMNS)
        for row in truth:
            writer.writerow([row.trip_index, row.intended_class,
                             row.violated_condition or ""])


def bbox_of(spec: ScenarioSpec) -> tuple[float, float, float, float]:
    # as floats: numpy holds no integer anchor beyond int64
    proj = LocalProjection(float(spec.anchor_lon), float(spec.anchor_lat))
    e = spec.half_extent_km * 1000.0
    lon_min, lat_min = proj.to_lonlat(-e, -e)
    lon_max, lat_max = proj.to_lonlat(e, e)
    return (lon_min, lat_min, lon_max, lat_max)


def generate(spec: ScenarioSpec, out_dir) -> dict[str, str]:
    """Emit the full scenario into ``out_dir``; returns artifact paths."""
    spec.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    net, meta = build_network(spec)
    trips, truth = plant_trips(spec, net, meta)
    context_rng = np.random.default_rng(spec.seed + 1)

    paths = {
        "trips": out / "trips.csv",
        "stations": out / "stations.csv",
        "routes": out / "routes.csv",
        "fares": out / "fares.json",
        "ground_truth": out / "ground_truth.csv",
        "poi": out / "poi.csv",
        "population": out / "population.csv",
        "roads": out / "roads.geojson",
        "scenario": out / "scenario.json",
    }
    write_trips(trips, str(paths["trips"]))
    write_stations([net.stations[sid] for sid in sorted(net.stations)],
                   str(paths["stations"]))
    write_routes([net.routes[rid] for rid in sorted(net.routes)],
                 str(paths["routes"]))
    write_fares(net.fares, str(paths["fares"]))
    write_ground_truth(truth, paths["ground_truth"])

    with open(paths["poi"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lon", "lat", "category"])
        for lon, lat, category in _poi_points(spec, meta, context_rng):
            writer.writerow([repr(lon), repr(lat), category])
    with open(paths["population"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lon", "lat", "population"])
        for lon, lat, value in _population_raster(spec, meta, context_rng):
            writer.writerow([repr(lon), repr(lat), repr(value)])
    with open(paths["roads"], "w") as fh:
        json.dump(_street_grid(spec, meta), fh, separators=(",", ":"),
                  sort_keys=True)
        fh.write("\n")
    with open(paths["scenario"], "w") as fh:
        json.dump({"spec": asdict(spec), "stations": len(net.stations),
                   "routes": len(net.routes), "trips": len(trips),
                   "bbox": list(bbox_of(spec))}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {name: str(path) for name, path in paths.items()}


__all__ = ["ScenarioSpec", "GroundTruth", "build_network", "plant_trips",
           "generate", "write_ground_truth", "bbox_of",
           "GROUND_TRUTH_COLUMNS"]
