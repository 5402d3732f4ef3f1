"""The planner as a plain Dijkstra search: the oracle for the goal-directed
``ridelink.ptnet.NetworkPlanner``. Kept verbatim from the search that
``NetworkPlanner`` ran before its lower bound and integer states; only the
class name and the imports are new. It pops states in (cost, state) order,
keeps the first relaxation that reaches a state's cost, and stops at the best
arrival; ``states_expanded`` counts its settled states."""

from __future__ import annotations

import heapq
import math

from ridelink.ptnet import (
    DEFAULT_SEARCH_RADIUS_M,
    DEFAULT_TRANSFER_PENALTY_MIN,
    UNAVAILABLE,
    Leg,
    PtAlternative,
    TransitNetwork,
    alternative_fare,
    leg_km,
    walk_minutes,
)


class OraclePlanner:
    """Minimum generalized-cost journey search over a prebuilt static graph.

    States are (station, route, ridden) triples: ``ridden`` flips to True on the
    first in-vehicle leg and gates both transfers and arrival, so a journey
    always contains at least one ride. Ties between equal-cost states break on
    the lexicographic state key, which keeps results reproducible.

    The search stops at its best arrival: each settled state that can end a
    journey is scored with its egress walk, and the search ends once a popped
    cost exceeds the best score so far. Rides, waits, transfers and walks all
    cost at least zero, so states pop in nondecreasing cost order and every
    state still queued would score above the best; all that could win or tie
    were settled first, in the same order a search of the whole graph would
    settle them. The ride and transfer moves of each (station, route) are built
    once per planner.

    ``states_expanded`` counts the settled states over every :meth:`plan` call.
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
        # neighbouring stop, and those rides then the transfers once ridden
        self._leg_min: dict[str, list[float]] = {}
        self._leg_km: dict[str, list[float]] = {}
        self._rides: dict[tuple[str, str], list[tuple]] = {}
        for rid in sorted(net.routes):
            route = net.routes[rid]
            n = len(route.station_ids)
            kms = self._leg_km[rid] = [leg_km(net, route, i) for i in range(n - 1)]
            self._leg_min[rid] = (list(route.leg_times_min) if route.leg_times_min is not None
                                  else [km / route.speed_kmh * 60.0 for km in kms])
            for p, sid in enumerate(route.station_ids):
                self._rides.setdefault((sid, rid), []).extend(
                    (route.station_ids[q], rid, self._leg_min[rid][min(p, q)], "ride", (p, q))
                    for q in (p - 1, p + 1) if 0 <= q < n)
        self._moves = {
            (sid, rid): rides + [
                (sid, rid2, transfer_penalty_min + net.routes[rid2].headway_min / 2.0,
                 "transfer", None)
                for rid2 in net.routes_at(sid) if rid2 != rid]
            for (sid, rid), rides in self._rides.items()}

    def _stations_within(self, lon: float, lat: float) -> list[tuple[str, float]]:
        import numpy as np
        d = self.net.station_distances_m(lon, lat)
        ids = self.net.station_ids
        return [(ids[i], float(d[i])) for i in np.flatnonzero(d <= self.search_radius_m)]

    def plan(self, olon: float, olat: float, dlon: float, dlat: float) -> PtAlternative:
        """Plan the best journey from origin to destination.

        Journeys that board and alight at the same station are excluded from
        the candidate space: the search state carries the boarding station, so
        such a journey can never be selected even when it would be the cost
        minimum.
        """
        net = self.net
        access = self._stations_within(olon, olat)
        egress = self._stations_within(dlon, dlat)
        if not access or not egress:
            return UNAVAILABLE
        egress_walk_min = {sid: walk_minutes(m) for sid, m in egress}

        # state = (station, route, ridden, boarding station)
        dist: dict[tuple, float] = {}
        prev: dict[tuple, tuple] = {}
        heap: list[tuple[float, tuple]] = []
        for sid, walk_m in access:
            walk = walk_minutes(walk_m)
            for rid in net.routes_at(sid):
                cost = walk + net.routes[rid].headway_min / 2.0
                state = (sid, rid, False, sid)
                if cost < dist.get(state, math.inf):
                    dist[state] = cost
                    prev[state] = (None, "access", walk_m)
                    heapq.heappush(heap, (cost, state))

        best_state, best_total = None, math.inf
        expanded = 0
        rides, moves = self._rides, self._moves
        while heap:
            cost, state = heapq.heappop(heap)
            if cost > best_total:
                break
            if cost > dist[state]:
                continue
            expanded += 1
            sid, rid, ridden, board0 = state
            if ridden and sid != board0 and sid in egress_walk_min:
                total = cost + egress_walk_min[sid]
                if total < best_total or (total == best_total and state < best_state):
                    best_state, best_total = state, total
            for nsid, nrid, w, kind, payload in (moves if ridden else rides)[sid, rid]:
                nstate, ncost = (nsid, nrid, True, board0), cost + w
                if ncost < dist.get(nstate, math.inf):
                    dist[nstate] = ncost
                    prev[nstate] = (state, kind, payload)
                    heapq.heappush(heap, (ncost, nstate))
        self.states_expanded += expanded
        if best_state is None:
            return UNAVAILABLE

        legs, transfers, access_walk_m = self._recover(best_state, prev)
        t_pt = best_total - self.transfer_penalty_min * transfers
        return PtAlternative(
            available=True,
            access_walk_m=access_walk_m,
            egress_walk_m=dict(egress)[best_state[0]],
            t_pt_min=t_pt,
            transfers=transfers,
            fare_rmb=alternative_fare(net, legs),
            gen_cost_min=best_total,
            legs=tuple(legs),
        )

    def _recover(self, state, prev):
        # walk predecessors back to the access edge, then stitch ride runs
        steps = []
        cur = state
        while True:
            origin_state, kind, payload = prev[cur]
            steps.append((cur, kind, payload))
            if kind == "access":
                access_walk_m = payload
                break
            cur = origin_state
        steps.reverse()
        legs: list[Leg] = []
        transfers = 0
        run_route = None
        run_board = None
        run_min = 0.0
        run_km = 0.0

        def close_run(alight_sid):
            route = self.net.routes[run_route]
            legs.append(Leg(route.mode, route.line_id, run_route, run_board, alight_sid,
                            run_min, run_km))

        cur_station = None
        for st, kind, payload in steps:
            sid, rid = st[0], st[1]
            if kind == "access":
                run_route, run_board, run_min, run_km = rid, sid, 0.0, 0.0
            elif kind == "transfer":
                close_run(sid)
                transfers += 1
                run_route, run_board, run_min, run_km = rid, sid, 0.0, 0.0
            else:  # ride
                p, q = payload
                run_min += self._leg_min[rid][min(p, q)]
                run_km += self._leg_km[rid][min(p, q)]
            cur_station = sid
        close_run(cur_station)
        return legs, transfers, access_walk_m
