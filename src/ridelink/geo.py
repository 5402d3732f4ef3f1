"""Small geographic helpers shared across the package."""

from __future__ import annotations

import math
from dataclasses import dataclass

# Mean Earth radius in metres; every distance in the package goes through here.
EARTH_RADIUS_M = 6_371_008.8


def great_circle_m(lon1, lat1, lon2, lat2):
    """Haversine distance in metres. Accepts scalars or numpy arrays."""
    import numpy as np
    lon1, lat1, lon2, lat2 = (np.radians(np.asarray(v, dtype=float)) for v in (lon1, lat1, lon2, lat2))
    dlon = lon2 - lon1
    dlat = lat2 - lat1
    h = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    d = 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
    if d.ndim == 0:
        return float(d)
    return d


@dataclass(frozen=True)
class LocalProjection:
    """Equirectangular plane (metres) anchored at a fixed lon/lat.

    Adequate for city-scale extents; the anchor should be the study-area
    centroid so distortion stays small at the edges. Scalars only, in ``math``:
    ``math.radians`` and ``math.degrees`` multiply by numpy's constants, so a
    point projects to the bits of numpy's elementwise formulas.
    """

    lon0: float
    lat0: float

    def to_xy(self, lon: float, lat: float) -> tuple[float, float]:
        kx = EARTH_RADIUS_M * math.cos(math.radians(self.lat0))
        return math.radians(lon - self.lon0) * kx, math.radians(lat - self.lat0) * EARTH_RADIUS_M

    def to_lonlat(self, x: float, y: float) -> tuple[float, float]:
        kx = EARTH_RADIUS_M * math.cos(math.radians(self.lat0))
        return self.lon0 + math.degrees(x / kx), self.lat0 + math.degrees(y / EARTH_RADIUS_M)


def point_in_ring(lon: float, lat: float, ring) -> bool:
    """Ray-casting point-in-polygon test on a lon/lat ring.

    Points exactly on an edge may land on either side; callers that care
    about boundaries should not rely on edge behaviour.
    """
    inside = False
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        if (y1 > lat) != (y2 > lat):
            xcross = x1 + (lat - y1) * (x2 - x1) / (y2 - y1)
            if lon < xcross:
                inside = not inside
    return inside
