"""Scalar point location, one point per call: the oracle for the array
``ridelink.hexgrid.locate``. Kept verbatim from the scalar implementation
that the array version replaced; only the imports are new."""

from typing import Optional

from ridelink.hexgrid import SQRT3, HexGrid

OFF_GRID = None  # sentinel returned by locate() for points outside the grid


def _axial_round(qf: float, rf: float) -> tuple[int, int]:
    # cube rounding: x=q, z=r, y=-x-z; fix the component with the largest error
    xf, zf = qf, rf
    yf = -xf - zf
    rx, ry, rz = round(xf), round(yf), round(zf)
    dx, dy, dz = abs(rx - xf), abs(ry - yf), abs(rz - zf)
    if dx > dy and dx > dz:
        rx = -ry - rz
    elif dy > dz:
        ry = -rx - rz
    else:
        rz = -rx - ry
    return int(rx), int(rz)


def locate(grid: HexGrid, lon: float, lat: float,
           _cells: Optional[frozenset] = None) -> Optional[tuple[int, int]]:
    """Axial cell containing the point, or the off-grid sentinel (None)."""
    x, y = grid.projection.to_xy(lon, lat)
    s = grid.side_m
    qf = (2.0 / 3.0) * x / s
    rf = (-x / 3.0 + SQRT3 / 3.0 * y) / s
    cell = _axial_round(qf, rf)
    members = _cells if _cells is not None else grid.cell_set()
    return cell if cell in members else OFF_GRID
