import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy_geo_oracle as oracle
from ridelink.geo import LocalProjection

_FINITE = {"allow_nan": False, "allow_infinity": False}


def _bits(values) -> tuple[str, ...]:
    """Each float's exact bits, so -0.0 and 0.0 differ."""
    return tuple(float(v).hex() for v in values)


@st.composite
def _city_cases(draw):
    """An anchor anywhere a city can be, and points within about 50 km of it."""
    proj = LocalProjection(draw(st.floats(-180.0, 180.0)), draw(st.floats(-85.0, 85.0)))
    points = draw(st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.45, 0.45)),
                           min_size=1, max_size=20))
    return proj, [(proj.lon0 + dlon, proj.lat0 + dlat) for dlon, dlat in points]


@st.composite
def _world_cases(draw):
    """Anchor and points anywhere in -180..180 and -90..90, poles and the
    antimeridian included."""
    lon, lat = st.floats(-180.0, 180.0), st.floats(-90.0, 90.0)
    proj = LocalProjection(draw(lon), draw(lat))
    return proj, draw(st.lists(st.tuples(lon, lat), min_size=1, max_size=20))


class TestProjectionOracle:
    """The scalar ``math`` projection gives the bits of numpy's formulas, both
    point by point and elementwise over arrays."""

    @staticmethod
    def _check(proj, points):
        for lon, lat in points:
            assert _bits(proj.to_xy(lon, lat)) == _bits(oracle.to_xy(proj, lon, lat))
        xs, ys = oracle.to_xy(proj, [p[0] for p in points], [p[1] for p in points])
        got = [proj.to_xy(lon, lat) for lon, lat in points]
        assert [_bits(p) for p in got] == [_bits(p) for p in zip(xs, ys)]
        for x, y in got:
            assert _bits(proj.to_lonlat(x, y)) == _bits(oracle.to_lonlat(proj, x, y))
        lons, lats = oracle.to_lonlat(proj, xs, ys)
        assert ([_bits(proj.to_lonlat(x, y)) for x, y in got]
                == [_bits(p) for p in zip(lons, lats)])

    @settings(max_examples=300, deadline=None)
    @given(_city_cases())
    def test_city_scale(self, case):
        self._check(*case)

    @settings(max_examples=300, deadline=None)
    @given(_world_cases())
    def test_whole_globe(self, case):
        self._check(*case)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-180.0, 180.0), st.floats(-90.0, 90.0),
           st.floats(-2.1e7, 2.1e7, **_FINITE), st.floats(-1.1e7, 1.1e7, **_FINITE))
    def test_to_lonlat_over_the_plane(self, lon0, lat0, x, y):
        proj = LocalProjection(lon0, lat0)
        assert _bits(proj.to_lonlat(x, y)) == _bits(oracle.to_lonlat(proj, x, y))

    def test_returns_python_floats(self):
        proj = LocalProjection(121.0, 31.0)
        for pair in (proj.to_xy(121.01, 31.02), proj.to_lonlat(1000.0, -2000.0),
                     proj.to_xy(np.float64(121.01), np.float64(31.02))):
            assert [type(v) for v in pair] == [float, float]

    def test_poles_and_antimeridian(self):
        for lon0, lat0 in ((180.0, 90.0), (-180.0, -90.0), (0.0, 90.0), (179.999, -89.999)):
            proj = LocalProjection(lon0, lat0)
            points = [(-180.0, -90.0), (180.0, 90.0), (0.0, 0.0), (lon0, lat0)]
            self._check(proj, points)
            assert math.isfinite(proj.to_xy(180.0, 90.0)[0])
