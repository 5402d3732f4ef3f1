"""Public-transit network model and door-to-door journey planner.

The network is deliberately time-independent: a journey's waiting cost is
headway/2 per boarding rather than a timetable lookup, and in-vehicle times
come from inter-station great-circle distances at the route's cruise speed.
The planner minimises a generalized cost

    gen_cost = t_pt + transfer_penalty * transfers

where ``t_pt`` is the door-to-door time (access walk + waits + rides + egress
walk) in minutes. Walking is straight-line at a constant 4.8 km/h. Service
windows are not part of planning; they are checked separately against a trip's
start time via :func:`is_in_service`. A journey therefore depends only on its
origin and destination coordinates, which are all that
:meth:`NetworkPlanner.plan_many` takes and all that :class:`CachedPlanner` keys on.

File formats:

* stations CSV: ``id,name,aliases,lon,lat,mode,line_ids`` with ``|``-separated
  multi-valued cells;
* routes CSV: ``id,line_id,mode,station_ids,headway_min,service_start,
  service_end,speed_kmh`` (service times as ``HH:MM``);
* fare rules: a small JSON object, see :class:`FareRules`.
"""

from __future__ import annotations

import csv
import heapq
import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .errors import finite_number
from .geo import great_circle_m

if TYPE_CHECKING:
    import numpy as np

MODES = ("metro", "bus")

WALK_SPEED_KMH = 4.8
DEFAULT_SEARCH_RADIUS_M = 800.0
DEFAULT_TRANSFER_PENALTY_MIN = 5.0
# distances per block of NetworkPlanner.plan_many; small, because a block's
# arrays (about a dozen of 16 KB at once) add to the stage's resident memory
BLOCK_DISTANCES = 2 ** 11


@dataclass(frozen=True)
class Station:
    id: str
    name: str
    aliases: tuple[str, ...]
    lon: float
    lat: float
    mode: str
    line_ids: tuple[str, ...]

    @property
    def is_hub(self) -> bool:
        return len(set(self.line_ids)) >= 2


@dataclass(frozen=True)
class Route:
    id: str
    line_id: str
    mode: str
    station_ids: tuple[str, ...]
    headway_min: float
    service_start: int  # minutes of day
    service_end: int
    speed_kmh: float
    leg_times_min: Optional[tuple[float, ...]] = None  # overrides speed when given


@dataclass(frozen=True)
class FareRules:
    bus_flat: float = 2.0
    metro_base: float = 3.0
    metro_base_km: float = 6.0
    metro_step_rmb: float = 1.0
    metro_step_km: float = 10.0

    def __post_init__(self):
        for f in fields(self):
            value, positive = getattr(self, f.name), f.name == "metro_step_km"
            if not (finite_number(value) and (0 < value if positive else 0 <= value)):
                raise ValueError(f"fare rule {f.name!r} must be a finite number "
                                 f"{'>' if positive else '>='} 0, got {value!r}")

    def metro_fare(self, ride_km: float) -> float:
        if ride_km <= self.metro_base_km:
            return self.metro_base
        extra = ride_km - self.metro_base_km
        return self.metro_base + math.ceil(extra / self.metro_step_km) * self.metro_step_rmb


@dataclass
class TransitNetwork:
    """Stations, routes and fares. Stations and routes are fixed once the
    network is built: the routes at each station and the station index
    (``station_ids`` sorted, with coordinates in the same order) derive from them.
    The coordinate arrays are built on the first distance query, and
    ``nearest_station`` ranks in ``math``, so a stage that only matches labels or
    picks a nearest station never imports numpy."""

    stations: dict[str, Station]
    routes: dict[str, Route]
    fares: FareRules = field(default_factory=FareRules)

    def routes_at(self, station_id: str) -> list[str]:
        return self._routes_at.get(station_id, [])

    def __post_init__(self):
        self._routes_at: dict[str, list[str]] = {}
        for rid in sorted(self.routes):
            for sid in self.routes[rid].station_ids:
                lst = self._routes_at.setdefault(sid, [])
                if rid not in lst:
                    lst.append(rid)
        self.station_ids = sorted(self.stations)
        self._row = {sid: i for i, sid in enumerate(self.station_ids)}
        self._lon = self._lat = None

    def _coords(self) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np
        if self._lon is None:
            self._lon = np.array([self.stations[s].lon for s in self.station_ids])
            self._lat = np.array([self.stations[s].lat for s in self.station_ids])
        return self._lon, self._lat

    def station_distances_m(self, lon: float, lat: float, rows=None) -> np.ndarray:
        """Metres from a point to the stations at ``rows`` of ``station_ids`` (default all)."""
        import numpy as np
        lons, lats = self._coords()
        if rows is not None:
            lons, lats = lons[rows], lats[rows]
        return great_circle_m(np.full(len(lons), lon), np.full(len(lons), lat), lons, lats)

    def distance_rows(self, lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
        """Metres from each point to every station, one row per point: row i is
        ``station_distances_m(lons[i], lats[i])`` bit for bit, as both take one
        ``great_circle_m`` pass over contiguous arrays (numpy's ``arcsin`` need
        not round as ``math.asin`` does, so no scalar path may stand in)."""
        import numpy as np
        m, (slon, slat) = len(lons), self._coords()
        d = great_circle_m(np.repeat(lons, len(slon)), np.repeat(lats, len(slon)),
                           np.tile(slon, m), np.tile(slat, m))
        return d.reshape(m, len(slon))

    def nearest_station(self, lon: float, lat: float, among: Iterable[str]) -> str:
        """Nearest of ``among``, ranked by ``great_circle_m``'s haversine term ``h``
        in ``math``: ``arcsin`` is monotone, so this is the distances' order unless
        two distances lie within one ulp of each other. ``min`` keeps the first
        minimum over the sorted ids, so a tie goes to the lowest id."""
        lon1, lat1 = math.radians(lon), math.radians(lat)
        cos1 = math.cos(lat1)

        def h(sid: str) -> float:
            station = self.stations[sid]
            lon2, lat2 = math.radians(station.lon), math.radians(station.lat)
            a, b = math.sin((lat2 - lat1) / 2.0), math.sin((lon2 - lon1) / 2.0)
            return a * a + cos1 * math.cos(lat2) * (b * b)

        return min(sorted(among), key=h)


@dataclass(frozen=True)
class Leg:
    mode: str
    line_id: str
    route_id: str
    board: str
    alight: str
    ride_min: float
    ride_km: float


@dataclass(frozen=True)
class PtAlternative:
    available: bool
    access_walk_m: float = 0.0
    egress_walk_m: float = 0.0
    t_pt_min: float = 0.0
    transfers: int = 0
    fare_rmb: float = 0.0
    gen_cost_min: float = 0.0
    legs: tuple[Leg, ...] = ()

    def to_dict(self) -> dict:
        """The fields as JSON values, legs as dicts; shallow, since every
        value but ``legs`` is a number or a string."""
        if not self.available:
            return {"available": False}
        return {**vars(self), "legs": [vars(leg) for leg in self.legs]}

    @staticmethod
    def from_dict(data: dict) -> "PtAlternative":
        """The alternative ``to_dict`` wrote. Every field must be present, and
        no default fills one in; a bad number raises ``ValueError``."""
        if not data.get("available"):
            return UNAVAILABLE
        values = {name: data[name] for name in _ALTERNATIVE_FIELDS}
        values["legs"] = tuple(Leg(**leg) for leg in values["legs"])
        alt = PtAlternative(**values)
        for record in (alt, *alt.legs):
            _check_numbers(record)
        return alt


def _check_numbers(record) -> None:
    """Raise ``ValueError`` unless each ``float`` field of ``record`` holds a
    finite JSON number >= 0 and each ``int`` field a JSON integer >= 0 (the
    annotations are strings, as this module postpones them)."""
    for name, kind in _NUMBER_FIELDS[type(record)]:
        value = getattr(record, name)
        if not (finite_number(value) and value >= 0 and (kind == "float" or type(value) is int)):
            raise ValueError(f"{name} must be a finite {kind} >= 0, got {value!r}")


# the field names of PtAlternative, and the (name, kind) of each number field,
# read from the dataclasses once per class
_ALTERNATIVE_FIELDS = tuple(f.name for f in fields(PtAlternative))
_NUMBER_FIELDS = {cls: tuple((f.name, f.type) for f in fields(cls) if f.type in ("float", "int"))
                  for cls in (PtAlternative, Leg)}
UNAVAILABLE = PtAlternative(available=False)


def parse_hhmm(text: str) -> int:
    parts = text.strip().split(":")
    if len(parts) != 2:
        raise ValueError(f"bad HH:MM time {text!r}")
    h, m = int(parts[0]), int(parts[1])
    if not (0 <= h < 24 and 0 <= m < 60):
        raise ValueError(f"bad HH:MM time {text!r}")
    return h * 60 + m


def format_hhmm(minutes: int) -> str:
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


STATION_COLUMNS = ("id", "name", "aliases", "lon", "lat", "mode", "line_ids")
ROUTE_COLUMNS = ("id", "line_id", "mode", "station_ids", "headway_min",
                 "service_start", "service_end", "speed_kmh")


def _table(handle, path: str, columns: Sequence[str]) -> csv.DictReader:
    """Rows of a CSV file whose header must hold ``columns``."""
    reader = csv.DictReader(handle)
    if missing := [c for c in columns if c not in (reader.fieldnames or ())]:
        raise ValueError(f"{path} lacks the column(s) {', '.join(missing)}")
    return reader


def load_network(
    stations_path: str,
    routes_path: str,
    fares: Optional[str] = None,
) -> TransitNetwork:
    """Load stations/routes CSVs plus fare rules from a JSON path (defaults when None)."""
    stations: dict[str, Station] = {}
    with open(stations_path, "r", encoding="utf-8", newline="") as handle:
        for row in _table(handle, stations_path, STATION_COLUMNS):
            sid = row["id"].strip()
            if sid in stations:
                raise ValueError(f"duplicate station id {sid!r}")
            mode = row["mode"].strip()
            if mode not in MODES:
                raise ValueError(f"station {sid!r} has unknown mode {mode!r}")
            aliases = tuple(a.strip() for a in row["aliases"].split("|") if a.strip())
            line_ids = tuple(l.strip() for l in row["line_ids"].split("|") if l.strip())
            stations[sid] = Station(
                id=sid, name=row["name"].strip(), aliases=aliases,
                lon=float(row["lon"]), lat=float(row["lat"]),
                mode=mode, line_ids=line_ids,
            )
    routes: dict[str, Route] = {}
    with open(routes_path, "r", encoding="utf-8", newline="") as handle:
        for row in _table(handle, routes_path, ROUTE_COLUMNS):
            rid = row["id"].strip()
            if rid in routes:
                raise ValueError(f"duplicate route id {rid!r}")
            mode = row["mode"].strip()
            if mode not in MODES:
                raise ValueError(f"route {rid!r} has unknown mode {mode!r}")
            station_ids = tuple(s.strip() for s in row["station_ids"].split("|") if s.strip())
            routes[rid] = Route(
                id=rid, line_id=row["line_id"].strip(), mode=mode,
                station_ids=station_ids,
                headway_min=float(row["headway_min"]),
                service_start=parse_hhmm(row["service_start"]),
                service_end=parse_hhmm(row["service_end"]),
                speed_kmh=float(row["speed_kmh"]),
            )
    if not routes:
        raise ValueError(f"{routes_path} has no routes")
    fare_rules = FareRules()
    if fares is not None:
        with open(fares, "r", encoding="utf-8") as handle:
            try:
                fare_rules = FareRules(**json.load(handle))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"invalid fares file {fares}: {exc}") from None
    net = TransitNetwork(stations=stations, routes=routes, fares=fare_rules)
    validate_network(net)
    return net


def validate_network(net: TransitNetwork) -> None:
    for sid in net.station_ids:
        if not (math.isfinite(net.stations[sid].lon) and math.isfinite(net.stations[sid].lat)):
            raise ValueError(f"station {sid!r} has a non-finite coordinate")
    for rid in sorted(net.routes):
        route = net.routes[rid]
        if len(route.station_ids) < 2:
            raise ValueError(f"route {rid!r} has fewer than 2 stations")
        for sid in route.station_ids:
            if sid not in net.stations:
                raise ValueError(f"route {rid!r} references missing station {sid!r}")
        if not 0 < route.headway_min < math.inf:
            raise ValueError(f"route {rid!r} has a nonpositive or non-finite headway")
        if not 0 < route.speed_kmh < math.inf:
            raise ValueError(f"route {rid!r} has a nonpositive or non-finite speed")
        if not (0 <= route.service_start < route.service_end <= 1440):
            raise ValueError(f"route {rid!r} has invalid service window")
        if route.leg_times_min is not None:
            if len(route.leg_times_min) != len(route.station_ids) - 1:
                raise ValueError(f"route {rid!r} leg-time table length mismatch")
            if not all(0 <= t < math.inf for t in route.leg_times_min):
                raise ValueError(f"route {rid!r} has a negative or non-finite leg time")


def write_stations(stations: Iterable[Station], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(STATION_COLUMNS)
        for s in stations:
            writer.writerow([s.id, s.name, "|".join(s.aliases), repr(s.lon), repr(s.lat),
                             s.mode, "|".join(s.line_ids)])


def write_routes(routes: Iterable[Route], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(ROUTE_COLUMNS)
        for r in routes:
            writer.writerow([r.id, r.line_id, r.mode, "|".join(r.station_ids),
                             repr(r.headway_min), format_hhmm(r.service_start),
                             format_hhmm(r.service_end), repr(r.speed_kmh)])


def write_fares(rules: FareRules, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(asdict(rules), handle, indent=2)
        handle.write("\n")


def leg_km(net: TransitNetwork, route: Route, i: int) -> float:
    a = net.stations[route.station_ids[i]]
    b = net.stations[route.station_ids[i + 1]]
    return great_circle_m(a.lon, a.lat, b.lon, b.lat) / 1000.0


def walk_minutes(walk_m: float) -> float:
    return walk_m / 1000.0 / WALK_SPEED_KMH * 60.0


def leg_fare(net: TransitNetwork, leg: Leg) -> float:
    if leg.mode == "bus":
        return net.fares.bus_flat
    return net.fares.metro_fare(leg.ride_km)


def alternative_fare(net: TransitNetwork, legs: Sequence[Leg]) -> float:
    return float(sum(leg_fare(net, leg) for leg in legs))


class NetworkPlanner:
    """Minimum generalized-cost journey search over a prebuilt static graph.

    States are (station, route, ridden, boarding station): ``ridden`` flips to
    True on the first in-vehicle leg and gates both transfers and arrival, so a
    journey always contains at least one ride. A state is the integer
    ``(pair * 2 + ridden) * S + board``, ``pair`` indexing the sorted (station,
    route) keys and ``board`` the ``S`` sorted station ids, so integer order is
    tuple order. The best journey is the minimum (cost, state) over settled
    states that can end one, each scored with its egress walk.

    The search is A* (Hart, Nilsson and Raphael 1968) on the lower bound
    ``h = (1 - 1e-6) * gc * 60 / (1000 * V)`` minutes, ``gc`` the great-circle
    metres to the destination and ``V`` the larger of the walking speed and the
    fastest leg of any route (km per minute * 60, over legs longer than 0 km).
    It is admissible, as a ride covers at least ``gc`` at no more than ``V`` and
    the egress walk is slower, and consistent, as a leg costs at least its
    length over ``V`` (the triangle inequality) and a transfer stays put; the
    1e-6 margin covers rounding. The heap key is (g + h, g, state) and the
    search stops once a popped g + h exceeds the best score, so every arrival
    that could win or tie was settled, and so was every state that relaxes one
    of its predecessors at equal cost. On a tie of cost, the predecessor with
    the least (g, state, move index) is kept: the one a search in (g, state)
    order relaxes first, so the legs do not depend on pop order. Where some leg
    takes 0 minutes, a move of cost 0 can reach a smaller state after a larger
    one was popped, out of key order; then ``h`` is 0, which is that search
    (plain Dijkstra), and the first relaxation is kept.

    ``states_expanded`` counts the settled states over every :meth:`plan_many` call.
    """

    def __init__(
        self,
        net: TransitNetwork,
        search_radius_m: float = DEFAULT_SEARCH_RADIUS_M,
        transfer_penalty_min: float = DEFAULT_TRANSFER_PENALTY_MIN,
    ):
        if not 0 < search_radius_m < math.inf:
            raise ValueError("search radius must be positive and finite")
        if not 0 <= transfer_penalty_min < math.inf:
            raise ValueError("transfer penalty must be nonnegative and finite")
        self.net = net
        self.search_radius_m = search_radius_m
        self.transfer_penalty_min = transfer_penalty_min
        self.states_expanded = 0
        # per-leg times/distances; per (station, route), the rides to each
        # neighbouring stop as (station, minutes, leg index); and the speeds
        self._leg_min: dict[str, list[float]] = {}
        self._leg_km: dict[str, list[float]] = {}
        hops: dict[tuple[str, str], list[tuple[str, float, int]]] = {}
        speeds = [WALK_SPEED_KMH]
        for rid in sorted(net.routes):
            route = net.routes[rid]
            n = len(route.station_ids)
            kms = self._leg_km[rid] = [leg_km(net, route, i) for i in range(n - 1)]
            mins = self._leg_min[rid] = (list(route.leg_times_min) if route.leg_times_min is not None
                                         else [km / route.speed_kmh * 60.0 for km in kms])
            for i, (a, b) in enumerate(zip(route.station_ids, route.station_ids[1:])):
                hops.setdefault((a, rid), []).append((b, mins[i], i))  # leg i, both ways
                hops.setdefault((b, rid), []).append((a, mins[i], i))
            speeds += [km / m * 60.0 if m > 0 else math.inf for km, m in zip(kms, mins)]
        self._h_per_m = (1.0 - 1e-6) * 60.0 / (1000.0 * max(speeds))
        # per pair: its (station, route), station row and the leg of each ride;
        # per pair * 2 + ridden: the moves as (next state less its board, minutes,
        # move index, next station row), rides and then transfers once ridden;
        # per station row: (state less its board, wait) of boarding each route
        self._pairs = sorted(hops)
        self._n = n = len(net.station_ids)
        row, pair_of = net._row, {key: i for i, key in enumerate(self._pairs)}
        self._pair_row = [row[sid] for sid, _ in self._pairs]
        self._ride_legs = [[leg for *_, leg in hops[key]] for key in self._pairs]
        self._moves = []
        for sid, rid in self._pairs:
            moves = [(nsid, rid, w) for nsid, w, _ in hops[sid, rid]] + [
                (sid, rid2, transfer_penalty_min + net.routes[rid2].headway_min / 2.0)
                for rid2 in net.routes_at(sid) if rid2 != rid]
            moves = [((pair_of[nsid, nrid] * 2 + 1) * n, w, k, row[nsid])
                     for k, (nsid, nrid, w) in enumerate(moves)]
            self._moves += [moves[:len(hops[sid, rid])], moves]
        self._boards = [[(pair_of[sid, rid] * 2 * n, net.routes[rid].headway_min / 2.0)
                         for rid in net.routes_at(sid)] for sid in net.station_ids]
        self.block_trips = max(1, BLOCK_DISTANCES // max(1, 2 * n))  # two ends a trip

    def plan(self, olon: float, olat: float, dlon: float, dlat: float) -> PtAlternative:
        """The best journey from origin to destination: :meth:`plan_many` of one trip."""
        return self.plan_many([(olon, olat, dlon, dlat)])[0]

    def plan_many(self, points: Sequence[tuple[float, float, float, float]]) -> list[PtAlternative]:
        """The best journey for each ``(olon, olat, dlon, dlat)`` of ``points``.

        Journeys that board and alight at the same station are excluded from
        the candidate space: the search state carries the boarding station, so
        such a journey can never be selected even when it would be the cost
        minimum.

        Trips go in blocks of ``block_trips``: one ``distance_rows`` pass gives
        every end of a block its distances to every station, and from them its
        stations within the search radius and, at the destination, the bound
        ``h``. Each trip is then searched on its own.
        """
        import numpy as np
        out = []
        for start in range(0, len(points), self.block_trips):
            ends = np.array(points[start:start + self.block_trips], dtype=float).reshape(-1, 2)
            d = self.net.distance_rows(ends[:, 0], ends[:, 1])
            rows, cols = np.nonzero(d <= self.search_radius_m)
            first = np.searchsorted(rows, np.arange(len(ends) + 1)).tolist()
            cols, near = cols.tolist(), d[rows, cols].tolist()
            h = (d[1::2] * self._h_per_m).tolist()
            for i, h_row in enumerate(h):
                access, egress = (dict(zip(cols[first[e]:first[e + 1]], near[first[e]:first[e + 1]]))
                                  for e in (2 * i, 2 * i + 1))
                out.append(self._search(access, egress, h_row) if access and egress else UNAVAILABLE)
        return out

    def _search(self, access: dict[int, float], egress: dict[int, float],
                h: list[float]) -> PtAlternative:
        """The search from the ``access`` station rows to the ``egress`` ones,
        each with its walk in metres; ``h`` is the bound at each station row."""
        n = self._n
        egress_walk_min = {r: walk_minutes(m) for r, m in egress.items()}
        canonical = self._h_per_m > 0

        dist: dict[int, float] = {}
        prev: dict[int, tuple] = {}
        heap: list[tuple[float, float, int]] = []
        for r, walk_m in access.items():
            walk = walk_minutes(walk_m)
            for base, wait in self._boards[r]:
                state, cost = base + r, walk + wait
                dist[state] = cost
                prev[state] = (None, None, walk_m)
                heap.append((cost + h[r], cost, state))
        heapq.heapify(heap)

        best_state, best_total = None, math.inf
        expanded = 0
        moves, pair_row = self._moves, self._pair_row
        pop, push, get = heapq.heappop, heapq.heappush, dist.get
        while heap:
            bound, cost, state = pop(heap)
            if bound > best_total:
                break
            if cost > dist[state]:
                continue
            expanded += 1
            q, board = divmod(state, n)
            r = pair_row[q >> 1]
            if q & 1 and r != board and r in egress_walk_min:
                total = cost + egress_walk_min[r]
                if total < best_total or (total == best_total and state < best_state):
                    best_state, best_total = state, total
            for base, w, k, nr in moves[q]:
                nstate, ncost = base + board, cost + w
                old = get(nstate, math.inf)
                if ncost < old:
                    dist[nstate] = ncost
                    prev[nstate] = (cost, state, k)
                    push(heap, (ncost + h[nr], ncost, nstate))
                elif ncost == old and canonical and cost < ncost < math.inf:
                    # a move whose minutes round away keeps no tie, so prev has no cycle
                    prev[nstate] = min(prev[nstate], (cost, state, k))
        self.states_expanded += expanded
        if best_state is None:
            return UNAVAILABLE

        legs, transfers, access_walk_m = self._recover(best_state, prev)
        t_pt = best_total - self.transfer_penalty_min * transfers
        return PtAlternative(
            available=True,
            access_walk_m=access_walk_m,
            egress_walk_m=egress[self._pair_row[best_state // n >> 1]],
            t_pt_min=t_pt,
            transfers=transfers,
            fare_rmb=alternative_fare(self.net, legs),
            gen_cost_min=best_total,
            legs=tuple(legs),
        )

    def _recover(self, state, prev):
        # walk predecessors back to the access edge, then stitch ride runs
        steps = []
        while prev[state][0] is not None:
            _, origin, k = prev[state]
            steps.append((origin, k, state))
            state = origin
        access_walk_m = prev[state][2]
        steps.reverse()
        n = self._n
        legs: list[Leg] = []
        transfers = 0
        sid, run_route = self._pairs[state // n >> 1]
        run_board, run_min, run_km = sid, 0.0, 0.0

        def close_run(alight_sid):
            route = self.net.routes[run_route]
            legs.append(Leg(route.mode, route.line_id, run_route, run_board, alight_sid,
                            run_min, run_km))

        for origin, k, state in steps:
            ride_legs = self._ride_legs[origin // n >> 1]
            sid, rid = self._pairs[state // n >> 1]
            if k < len(ride_legs):
                run_min += self._leg_min[rid][ride_legs[k]]
                run_km += self._leg_km[rid][ride_legs[k]]
            else:  # transfer
                close_run(sid)
                transfers += 1
                run_route, run_board, run_min, run_km = rid, sid, 0.0, 0.0
        close_run(sid)
        return legs, transfers, access_walk_m


def is_in_service(net: TransitNetwork, alt: PtAlternative, interval: tuple[int, int]) -> bool:
    """Check service windows against a trip interval (minutes since epoch).

    The operative instant is the trip start: a window counts when it contains
    ``interval[0]`` expressed as minutes-of-day, boundaries inclusive.

    An available ``alt`` with legs requires *every* leg's route window to
    contain the start; an alternative without legs falls back to
    "any route in the network".
    """
    tod = interval[0] % 1440

    def window_ok(route: Route) -> bool:
        return route.service_start <= tod <= route.service_end

    if alt.available and alt.legs:
        return all(window_ok(net.routes[l.route_id]) for l in alt.legs)
    return any(window_ok(net.routes[rid]) for rid in sorted(net.routes))


def station_lexicon(net: TransitNetwork) -> dict[str, tuple[str, ...]]:
    """Map normalized name/alias keys to the station ids sharing them."""
    from .classify import normalize_label  # local import avoids a module cycle

    table: dict[str, set[str]] = {}
    for sid in sorted(net.stations):
        station = net.stations[sid]
        for raw in (station.name, *station.aliases):
            key = normalize_label(raw).key
            if key:
                table.setdefault(key, set()).add(sid)
    return {key: tuple(sorted(ids)) for key, ids in sorted(table.items())}


class CachedPlanner:
    """The journey table: one journey per trip key, the exact origin and
    destination coordinates.

    The planner does not depend on time, so a trip's journey is a function of
    its four coordinates alone. The ``plan`` stage fills the table once with
    :meth:`of`; ``classify`` and ``elasticity`` :meth:`load` it and only look
    journeys up. Entries persist as JSON lines, whose floats round-trip
    exactly, so those stages run without planning.
    """

    def __init__(self, table: dict[tuple[float, float, float, float], PtAlternative]):
        self._table = table

    @classmethod
    def of(cls, planner: NetworkPlanner, points) -> "CachedPlanner":
        """The table of each distinct key of ``points``, planned in sorted key
        order by one ``planner.plan_many`` call."""
        keys = sorted({cls.key(*p) for p in points})
        return cls(dict(zip(keys, planner.plan_many(keys))))

    @staticmethod
    def key(olon, olat, dlon, dlat) -> tuple[float, float, float, float]:
        return (float(olon), float(olat), float(dlon), float(dlat))

    def plan(self, olon, olat, dlon, dlat) -> PtAlternative:
        """The stored journey; ``KeyError`` when the table has none for the key."""
        return self._table[self.key(olon, olat, dlon, dlat)]

    def __len__(self) -> int:
        return len(self._table)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for k in sorted(self._table):
                handle.write(json.dumps({"key": k, "alt": self._table[k].to_dict()}) + "\n")

    @classmethod
    def load(cls, path: str) -> "CachedPlanner":
        """Read a saved table; a malformed entry or a repeated key raises
        ``ValueError`` naming its line."""
        table = {}
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                    if not (len(entry["key"]) == 4 and all(map(finite_number, entry["key"]))):
                        raise ValueError(f"key must be four finite numbers, got {entry['key']!r}")
                    k = cls.key(*entry["key"])
                    if k in table:
                        raise ValueError(f"key {list(k)} repeats an earlier key")
                    table[k] = PtAlternative.from_dict(entry["alt"])
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    raise ValueError(f"line {number}: malformed entry "
                                     f"({type(exc).__name__}: {exc})") from None
        return cls(table)


__all__ = [
    "CachedPlanner",
    "DEFAULT_SEARCH_RADIUS_M",
    "DEFAULT_TRANSFER_PENALTY_MIN",
    "FareRules",
    "Leg",
    "MODES",
    "NetworkPlanner",
    "PtAlternative",
    "ROUTE_COLUMNS",
    "Route",
    "STATION_COLUMNS",
    "Station",
    "TransitNetwork",
    "UNAVAILABLE",
    "WALK_SPEED_KMH",
    "alternative_fare",
    "format_hhmm",
    "is_in_service",
    "leg_km",
    "load_network",
    "parse_hhmm",
    "station_lexicon",
    "validate_network",
    "write_fares",
    "write_routes",
    "write_stations",
]
