"""Fixed small-city network shared by the unit tests and the acceptance suite."""

from ridelink.ptnet import FareRules, Route, Station, TransitNetwork


def _station(sid, name, lon, lat, mode, lines, aliases=()):
    return Station(id=sid, name=name, aliases=tuple(aliases), lon=lon, lat=lat,
                   mode=mode, line_ids=tuple(lines))


def build_city() -> TransitNetwork:
    """Metro line M1 (west-east), M2 (north-south, hub at Cedar), one bus route."""
    stations = {}
    for s in [
        _station("m1", "Alder Station", 121.000, 31.000, "metro", ["M1"],
                 ["Alder Station Exit A", "Alder Station Exit B"]),
        _station("m2", "Birch Station", 121.018, 31.000, "metro", ["M1"],
                 ["Birch Station Exit A"]),
        _station("m3", "Cedar Station", 121.036, 31.000, "metro", ["M1", "M2"],
                 ["Cedar Station Exit A", "Cedar Station B1"]),
        _station("m4", "Dogwood Station", 121.054, 31.000, "metro", ["M1"], []),
        _station("m5", "Elm Station", 121.036, 31.015, "metro", ["M2"], []),
        _station("m6", "Fir Station", 121.036, 31.030, "metro", ["M2"], []),
        _station("b1", "Harbor Bus Stop", 121.000, 30.985, "bus", ["B1"], []),
        _station("b2", "Inlet Bus Stop", 121.018, 30.985, "bus", ["B1"], []),
        _station("b3", "Jetty Bus Stop", 121.036, 30.985, "bus", ["B1"], []),
    ]:
        stations[s.id] = s
    routes = {
        "M1": Route(id="M1", line_id="M1", mode="metro",
                    station_ids=("m1", "m2", "m3", "m4"),
                    headway_min=8.0, service_start=330, service_end=1410,
                    speed_kmh=35.0),
        "M2": Route(id="M2", line_id="M2", mode="metro",
                    station_ids=("m3", "m5", "m6"),
                    headway_min=8.0, service_start=330, service_end=1410,
                    speed_kmh=35.0),
        "B1": Route(id="B1", line_id="B1", mode="bus",
                    station_ids=("b1", "b2", "b3"),
                    headway_min=12.0, service_start=360, service_end=1380,
                    speed_kmh=20.0),
    }
    return TransitNetwork(stations=stations, routes=routes, fares=FareRules())


def build_lattice(rng, nodes: int = 7, spacing_deg: float = 0.006) -> TransitNetwork:
    """Seeded tie-heavy lattice: metro rows and bus columns with one uniform
    leg time and a shared headway per mode, stations shared at crossings, plus
    one loop route that passes its first station twice."""
    lines = {}
    for j in range(nodes):
        if rng.random() < 0.6:
            lines[f"MR{j}"] = ("metro", [(i, j) for i in range(nodes)])
    for i in range(nodes):
        if rng.random() < 0.6:
            lines[f"BC{i}"] = ("bus", [(i, j) for j in range(nodes)])
    lo, hi = 1, nodes - 2
    lines["LOOP"] = ("bus", [(lo, lo), (hi, lo), (hi, hi), (lo, hi), (lo, lo)])
    on_lines: dict = {}
    for rid, (mode, path) in sorted(lines.items()):
        for node in path:
            on_lines.setdefault(node, []).append((rid, mode))
    stations = {}
    for (i, j), members in sorted(on_lines.items()):
        mode = "metro" if any(m == "metro" for _, m in members) else "bus"
        sid = f"N{i}{j}"
        stations[sid] = _station(sid, f"Node {i} {j}", 121.0 + i * spacing_deg,
                                 31.0 + j * spacing_deg, mode,
                                 sorted({rid for rid, _ in members}))
    headway = {"metro": 6.0, "bus": 8.0}
    routes = {}
    for rid, (mode, path) in sorted(lines.items()):
        sids = tuple(f"N{i}{j}" for i, j in path)
        routes[rid] = Route(id=rid, line_id=rid, mode=mode, station_ids=sids,
                            headway_min=headway[mode], service_start=330,
                            service_end=1410, speed_kmh=30.0,
                            leg_times_min=(2.0,) * (len(sids) - 1))
    return TransitNetwork(stations=stations, routes=routes, fares=FareRules())
