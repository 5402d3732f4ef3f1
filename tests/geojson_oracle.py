"""Whole-document GeoJSON writer: the oracle for the streaming
``ridelink.hexgrid.write_cell_stats_geojson``. Kept verbatim from the writer
that built the whole document and passed it to ``json.dump``; only the imports
are new, and each ring comes from ``cell_polygon``, one projection call per
corner, in place of the batched corner computation it checks."""

import json

from ridelink.hexgrid import HexGrid, GridCellStats, _derived, cell_id, corners_xy


def cell_polygon(grid: HexGrid, q: int, r: int) -> list[tuple[float, float]]:
    """Six corners (lon, lat), closed ring not included."""
    return [grid.projection.to_lonlat(x, y) for x, y in corners_xy(grid, q, r)]


def _closed_rings(grid: HexGrid):
    for q, r in grid.cells:
        ring = [list(corner) for corner in cell_polygon(grid, q, r)]
        yield ring + ring[:1]


def write_cell_stats_geojson(grid: HexGrid, stats: dict[str, GridCellStats], path: str) -> None:
    features = []
    for (q, r), ring in zip(grid.cells, _closed_rings(grid)):
        cid = cell_id(q, r)
        features.append({
            "type": "Feature",
            "geometry": {"type": "Polygon", "coordinates": [ring]},
            "properties": {"cell_id": cid, **_derived(stats[cid])},
        })
    doc = {"type": "FeatureCollection", "features": features}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
