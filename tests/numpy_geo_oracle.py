"""numpy projection and nearest-station search: the oracles for the scalar
``math`` code in ``ridelink.geo.LocalProjection`` and
``ridelink.ptnet.TransitNetwork.nearest_station``.

``to_xy`` and ``to_lonlat`` are kept verbatim from the projection methods that
took scalars or arrays, and ``nearest_station`` from the method that took the
``argmin`` of ``great_circle_m``; each now takes its projection or network as
its first argument."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ridelink.geo import EARTH_RADIUS_M, LocalProjection
from ridelink.ptnet import TransitNetwork


def to_xy(proj: LocalProjection, lon, lat):
    lon = np.asarray(lon, dtype=float)
    lat = np.asarray(lat, dtype=float)
    kx = EARTH_RADIUS_M * np.cos(np.radians(proj.lat0))
    x = np.radians(lon - proj.lon0) * kx
    y = np.radians(lat - proj.lat0) * EARTH_RADIUS_M
    if x.ndim == 0:
        return float(x), float(y)
    return x, y


def to_lonlat(proj: LocalProjection, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    kx = EARTH_RADIUS_M * np.cos(np.radians(proj.lat0))
    lon = proj.lon0 + np.degrees(x / kx)
    lat = proj.lat0 + np.degrees(y / EARTH_RADIUS_M)
    if lon.ndim == 0:
        return float(lon), float(lat)
    return lon, lat


def nearest_station(net: TransitNetwork, lon: float, lat: float, among: Iterable[str]) -> str:
    """Nearest of ``among``; rows follow sorted ids, so argmin's first minimum
    breaks a tie toward the lowest id."""
    rows = sorted(net._row[sid] for sid in among)
    if len(rows) == 1:
        return net.station_ids[rows[0]]
    return net.station_ids[rows[int(np.argmin(net.station_distances_m(lon, lat, rows)))]]
