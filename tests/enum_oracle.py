"""Exhaustive journey enumeration used as an independent check on the planner.

Enumerates every simple journey (no repeated board/alight station) over a small
network, accumulating costs hop by hop in travel order with the same arithmetic
building blocks the planner uses, and returns the generalized-cost minimum.
Journeys that board and alight at the same station are not candidates, matching
the planner's candidate space.  Only practical for networks of a handful of
stations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ridelink.geo import great_circle_m
from ridelink.ptnet import WALK_SPEED_KMH, TransitNetwork


@dataclass
class OracleJourney:
    gen_cost: float
    t_pt: float
    transfers: int
    first_board: str
    last_alight: str

    @property
    def degenerate(self) -> bool:
        return self.first_board == self.last_alight


def _walk_min(net: TransitNetwork, metres: float) -> float:
    return metres / 1000.0 / WALK_SPEED_KMH * 60.0


def _hop_min(net: TransitNetwork, route, i: int) -> float:
    if route.leg_times_min is not None:
        return route.leg_times_min[i]
    a = net.stations[route.station_ids[i]]
    b = net.stations[route.station_ids[i + 1]]
    return great_circle_m(a.lon, a.lat, b.lon, b.lat) / 1000.0 / route.speed_kmh * 60.0


def best_journey(
    net: TransitNetwork,
    origin: tuple[float, float],
    destination: tuple[float, float],
    search_radius_m: float = 800.0,
    transfer_penalty_min: float = 5.0,
) -> Optional[OracleJourney]:
    sids = sorted(net.stations)
    access = []
    egress = {}
    for sid in sids:
        s = net.stations[sid]
        da = great_circle_m(origin[0], origin[1], s.lon, s.lat)
        de = great_circle_m(destination[0], destination[1], s.lon, s.lat)
        if da <= search_radius_m:
            access.append((sid, da))
        if de <= search_radius_m:
            egress[sid] = de
    if not access or not egress:
        return None

    best: list[Optional[OracleJourney]] = [None]
    max_legs = len(sids)

    def consider(candidate: OracleJourney):
        if candidate.degenerate:
            return
        if best[0] is None or candidate.gen_cost < best[0].gen_cost:
            best[0] = candidate

    def ride_from(sid: str, rid: str, cost: float, visited: frozenset,
                  nlegs: int, first_board: str, transfers: int):
        route = net.routes[rid]
        for p, stop in enumerate(route.station_ids):
            if stop != sid:
                continue
            for direction in (1, -1):
                c = cost
                q = p
                while 0 <= q + direction < len(route.station_ids):
                    c = c + _hop_min(net, route, min(q, q + direction))
                    q = q + direction
                    asid = route.station_ids[q]
                    # arrival is allowed anywhere (the planner has no memory of
                    # earlier leg endpoints); re-transferring at one is never
                    # cheaper, so only the sink needs the visited exemption
                    if asid in egress:
                        total = c + _walk_min(net, egress[asid])
                        consider(OracleJourney(total, total - transfer_penalty_min * transfers,
                                               transfers, first_board, asid))
                    if asid in visited:
                        continue
                    if nlegs < max_legs:
                        for rid2 in sorted(net.routes_at(asid)):
                            if rid2 == rid:
                                continue
                            c2 = c + (transfer_penalty_min + net.routes[rid2].headway_min / 2.0)
                            ride_from(asid, rid2, c2, visited | {asid},
                                      nlegs + 1, first_board, transfers + 1)

    for sid, walk_m in access:
        for rid in sorted(net.routes_at(sid)):
            start = _walk_min(net, walk_m) + net.routes[rid].headway_min / 2.0
            ride_from(sid, rid, start, frozenset({sid}), 1, sid, 0)
    return best[0]


def random_network(rng, n_stations: int = None, modes=("metro", "bus")) -> TransitNetwork:
    """Small random network with distinct coordinates for agreement testing."""
    from ridelink.ptnet import FareRules, Route, Station, TransitNetwork

    n = n_stations if n_stations is not None else int(rng.integers(3, 9))
    stations = {}
    for i in range(n):
        sid = f"S{i}"
        stations[sid] = Station(
            id=sid, name=f"Stop {i}", aliases=(),
            lon=121.0 + float(rng.uniform(0, 0.03)),
            lat=31.0 + float(rng.uniform(0, 0.03)),
            mode=modes[int(rng.integers(0, len(modes)))],
            line_ids=(),
        )
    n_routes = int(rng.integers(1, 4))
    routes = {}
    sids = sorted(stations)
    for j in range(n_routes):
        size = int(rng.integers(2, n + 1))
        members = list(rng.choice(sids, size=size, replace=False))
        mode = modes[int(rng.integers(0, len(modes)))]
        routes[f"R{j}"] = Route(
            id=f"R{j}", line_id=f"L{j}", mode=mode, station_ids=tuple(members),
            headway_min=float(rng.uniform(4, 15)),
            service_start=330, service_end=1410,
            speed_kmh=float(rng.uniform(15, 40)),
        )
    return TransitNetwork(stations=stations, routes=routes, fares=FareRules())
