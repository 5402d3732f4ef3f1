"""Trip CSV ingestion: schema-checked parsing, rejection logging, outlier pruning.

The canonical trip table is a UTF-8 CSV with header

    plate_id,olon,olat,pickup_label,pickup_time,dlon,dlat,dropoff_label,dropoff_time,distance_km,cost

Timestamps use the ``YYYY/M/D HH:MM`` form (month/day unpadded) and are read in
the configured local timezone with no DST handling; internally every time is an
integer count of minutes since midnight of a configurable epoch date, so
``t % 1440`` is minutes-of-day. An optional ``request_time`` column, read
whenever the header has one, yields pick-up waiting times.

The trip columns of both ``trips_clean.csv`` and ``classified.csv`` are read by
:func:`read_trip_header` and :func:`parse_trip_row` and written by :func:`trip_cells`.
"""

from __future__ import annotations

import csv
import datetime as _dt
import json
import math
import re
from dataclasses import asdict, dataclass
from typing import Iterable, NamedTuple, Optional, Sequence, TextIO

CANONICAL_COLUMNS = (
    "plate_id",
    "olon",
    "olat",
    "pickup_label",
    "pickup_time",
    "dlon",
    "dlat",
    "dropoff_label",
    "dropoff_time",
    "distance_km",
    "cost",
)

DEFAULT_EPOCH = _dt.date(2022, 9, 1)

TIME_FORMAT = "%Y/%m/%d %H:%M"
# strptime's own pattern for TIME_FORMAT (year, month, day, hour, minute)
_TIME_RE = re.compile(r"(\d\d\d\d)/(1[0-2]|0[1-9]|[1-9])/(3[01]|[12]\d|0[1-9]|[1-9]| [1-9])"
                      r"\s+(2[0-3]|[01]\d|\d):([0-5]\d|\d)", re.IGNORECASE)


class SchemaError(ValueError):
    """The input header is unusable (missing or duplicated required columns)."""


@dataclass
class TripRecord:
    plate_id: str
    olon: float
    olat: float
    pickup_label: str
    pickup_min: int
    dlon: float
    dlat: float
    dropoff_label: str
    dropoff_min: int
    distance_km: float
    cost: float
    request_min: Optional[int] = None

    @property
    def duration_min(self) -> int:
        return self.dropoff_min - self.pickup_min

    @property
    def wait_min(self) -> Optional[int]:
        if self.request_min is None:
            return None
        return self.pickup_min - self.request_min

    @property
    def fare_per_km(self) -> float:
        return self.cost / self.distance_km

    @property
    def pickup_day(self) -> int:
        return self.pickup_min // 1440

    @property
    def pickup_hour(self) -> int:
        return (self.pickup_min % 1440) // 60


@dataclass(frozen=True)
class Rejection:
    row: int  # 1-based line number in the source file (header is line 1)
    reason: str


@dataclass(frozen=True)
class IqrFilterReport:
    field: str  # "travel_time_min" or "distance_km"
    q1: float
    q3: float
    lo: float
    hi: float
    removed_count: int
    day: Optional[int] = None  # set only when filtering per day


def parse_time(text: str, epoch: _dt.date = DEFAULT_EPOCH) -> int:
    """Parse ``YYYY/M/D HH:MM`` into minutes since midnight of ``epoch``.

    Accepts and rejects exactly what ``datetime.strptime(text.strip(),
    TIME_FORMAT)`` does, with the regular expression ``strptime`` builds for
    that format, at well under half its cost.
    """
    found = _TIME_RE.fullmatch(text.strip())
    if found is None:
        raise ValueError(f"time data {text!r} does not match format {TIME_FORMAT!r}")
    moment = _dt.datetime(*map(int, found.groups()))
    origin = _dt.datetime(epoch.year, epoch.month, epoch.day)
    delta = moment - origin
    return delta.days * 1440 + delta.seconds // 60


def format_time(minutes: int, epoch: _dt.date = DEFAULT_EPOCH) -> str:
    origin = _dt.datetime(epoch.year, epoch.month, epoch.day)
    moment = origin + _dt.timedelta(minutes=int(minutes))
    return f"{moment.year}/{moment.month}/{moment.day} {moment.hour:02d}:{moment.minute:02d}"


def _parse_float(text: str) -> float:
    value = float(text)
    if math.isnan(value) or math.isinf(value):
        raise ValueError("not finite")
    return value


def has_request_times(trips: Sequence[TripRecord]) -> bool:
    """True when every trip carries a request time, the condition under which
    the optional ``request_time`` column is written and waiting times exist."""
    return bool(trips) and all(t.request_min is not None for t in trips)


def trip_header(with_request: bool) -> tuple[str, ...]:
    return CANONICAL_COLUMNS + (("request_time",) if with_request else ())


def trip_cells(t: TripRecord, epoch: _dt.date, with_request: bool) -> list[str]:
    """One trip's cells under :func:`trip_header`; floats use repr so a reparse is lossless."""
    row = [t.plate_id, repr(t.olon), repr(t.olat), t.pickup_label, format_time(t.pickup_min, epoch),
           repr(t.dlon), repr(t.dlat), t.dropoff_label, format_time(t.dropoff_min, epoch),
           repr(t.distance_km), repr(t.cost)]
    if with_request:
        row.append(format_time(t.request_min, epoch))
    return row


class TripLayout(NamedTuple):
    index: tuple[int, ...]  # header position of each CANONICAL_COLUMNS field
    request: Optional[int]  # position of the request_time column, if any
    extra: tuple[int, ...]  # positions of the caller's extra columns
    width: int


def read_trip_header(reader, columns: Optional[dict[str, str]] = None,
                     extra: Sequence[str] = ()) -> TripLayout:
    """Read the header row and locate the trip columns in it.

    ``columns`` maps canonical field names to header names. ``request_time``
    is read from the column so named (or mapped) whenever the header has it.
    Each required field, each ``extra`` name and a present ``request_time``
    must appear exactly once, else :class:`SchemaError`.
    """
    columns = columns or {}
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise SchemaError("empty input: no header row") from None

    def position(canon: str, kind: str = "required", needed: bool = True) -> Optional[int]:
        wanted = columns.get(canon, canon)
        hits = [i for i, h in enumerate(header) if h == wanted]
        if len(hits) > 1 or (needed and not hits):
            raise SchemaError(f"trip schema: {kind} column {wanted!r} ({canon}) appears "
                              f"{len(hits)} times in header")
        return hits[0] if hits else None

    return TripLayout(
        index=tuple(position(c) for c in CANONICAL_COLUMNS),
        request=position("request_time", "optional", needed="request_time" in columns),
        extra=tuple(position(c) for c in extra),
        width=len(header),
    )


def parse_trip_row(row: Sequence[str], layout: TripLayout,
                   bbox: tuple[float, float, float, float], epoch: _dt.date) -> TripRecord:
    """Parse and check one data row; a bad row raises ``ValueError(reason)``.

    The reasons, in the order checked: wrong column count, bad timestamp, bad
    number, dropoff not after pickup, nonpositive distance, negative cost,
    coordinates outside bbox.
    """
    if len(row) != layout.width:
        raise ValueError("wrong column count")
    (plate_id, olon, olat, pickup_label, pickup_time, dlon, dlat, dropoff_label,
     dropoff_time, distance_km, cost) = [row[i].strip() for i in layout.index]
    try:
        pickup_min = parse_time(pickup_time, epoch)
        dropoff_min = parse_time(dropoff_time, epoch)
        request_min = None
        if layout.request is not None and row[layout.request].strip():
            request_min = parse_time(row[layout.request], epoch)
    except ValueError:
        raise ValueError("bad timestamp") from None
    try:
        olon, olat = _parse_float(olon), _parse_float(olat)
        dlon, dlat = _parse_float(dlon), _parse_float(dlat)
        distance_km = _parse_float(distance_km)
        cost = _parse_float(cost)
    except ValueError:
        raise ValueError("bad number") from None
    if dropoff_min <= pickup_min:
        raise ValueError("dropoff not after pickup")
    if distance_km <= 0.0:
        raise ValueError("nonpositive distance")
    if cost < 0.0:
        raise ValueError("negative cost")
    lon_min, lat_min, lon_max, lat_max = bbox
    if not (lon_min <= olon <= lon_max and lat_min <= olat <= lat_max
            and lon_min <= dlon <= lon_max and lat_min <= dlat <= lat_max):
        raise ValueError("coordinates outside bbox")
    return TripRecord(plate_id, olon, olat, pickup_label, pickup_min, dlon, dlat,
                      dropoff_label, dropoff_min, distance_km, cost, request_min)


def parse_trips(
    source: str | TextIO,
    bbox: tuple[float, float, float, float],
    epoch: _dt.date = DEFAULT_EPOCH,
    columns: Optional[dict[str, str]] = None,
) -> tuple[list[TripRecord], list[Rejection]]:
    """Read the canonical trip CSV.

    ``columns`` maps canonical field names to the actual header names (fields
    not listed keep their canonical name; a ``request_time`` entry names the
    optional waiting-time column, which is otherwise read whenever the header
    has a ``request_time`` column). A missing or repeated column raises
    :class:`SchemaError`. Malformed rows never abort the run: each one becomes
    a :class:`Rejection` with the reason from :func:`parse_trip_row`, and valid
    rows are returned in input order.

    ``bbox`` is ``(lon_min, lat_min, lon_max, lat_max)``; both trip endpoints
    must fall inside it.
    """
    close_after = False
    if isinstance(source, str):
        handle: TextIO = open(source, "r", encoding="utf-8", newline="")
        close_after = True
    else:
        handle = source
    try:
        reader = csv.reader(handle)
        layout = read_trip_header(reader, columns)
        trips: list[TripRecord] = []
        rejections: list[Rejection] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                trips.append(parse_trip_row(row, layout, bbox, epoch))
            except ValueError as exc:
                rejections.append(Rejection(lineno, str(exc)))
        return trips, rejections
    finally:
        if close_after:
            handle.close()


def write_trips(trips: Iterable[TripRecord], target: str | TextIO, epoch: _dt.date = DEFAULT_EPOCH) -> None:
    """Write the canonical trip CSV through :func:`trip_cells`.

    A ``request_time`` column is appended when every trip carries one, so the
    optional waiting-time signal survives a write/parse cycle.
    """
    rows = list(trips)
    with_request = has_request_times(rows)
    close_after = False
    if isinstance(target, str):
        handle: TextIO = open(target, "w", encoding="utf-8", newline="")
        close_after = True
    else:
        handle = target
    try:
        writer = csv.writer(handle)
        writer.writerow(trip_header(with_request))
        for t in rows:
            writer.writerow(trip_cells(t, epoch, with_request))
    finally:
        if close_after:
            handle.close()


def write_rejections(rejections: Iterable[Rejection], target: str) -> None:
    with open(target, "w", encoding="utf-8") as handle:
        for r in rejections:
            handle.write(json.dumps({"row": r.row, "reason": r.reason}) + "\n")


def _quartiles(values: list[float]) -> tuple[float, float]:
    """Type-7 quartiles of two or more values, bit-equal to ``np.percentile(values,
    [25, 75], method="linear")``: the virtual index (n - 1) * q is exact for
    q = 1/4 and 3/4, and the interpolation is numpy's ``_lerp``."""
    ordered = sorted(values)
    out = []
    for q in (0.25, 0.75):
        pos = (len(ordered) - 1) * q
        a, b, t = ordered[int(pos)], ordered[int(pos) + 1], pos % 1.0
        out.append(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t)
    return out[0], out[1]


def _field_values(trips: Sequence[TripRecord], field_name: str) -> list[float]:
    if field_name == "travel_time_min":
        return [float(t.duration_min) for t in trips]
    if field_name == "distance_km":
        return [float(t.distance_km) for t in trips]
    raise ValueError(f"unknown filter field {field_name!r}")


IQR_FIELDS = ("travel_time_min", "distance_km")


def iqr_filter(
    trips: Sequence[TripRecord],
    k: float = 3.0,
    per_day: bool = False,
) -> tuple[list[TripRecord], list[IqrFilterReport]]:
    """Drop trips whose travel time or distance falls outside [Q1-k*IQR, Q3+k*IQR].

    Quartiles are computed on the pre-filter population (single pass, no
    re-iteration) and a trip is removed when either field is out of bounds.
    With ``per_day`` the bounds are computed separately for each pickup day.
    Requires at least 4 trips per filtered population.
    """
    if k <= 0.0:
        raise ValueError("k must be positive")
    groups: dict[Optional[int], list[int]] = {} if per_day else {None: []}
    for i, t in enumerate(trips):
        groups.setdefault(t.pickup_day if per_day else None, []).append(i)
    keep_mask = [True] * len(trips)
    reports: list[IqrFilterReport] = []
    for day in sorted(groups):
        idx = groups[day]
        keep, day_reports = _filter_once([trips[i] for i in idx], k, day)
        for i, kept in zip(idx, keep):
            keep_mask[i] = kept
        reports.extend(day_reports)
    return [t for t, kept in zip(trips, keep_mask) if kept], reports


def _filter_once(trips: list[TripRecord], k: float, day: Optional[int]) -> tuple[list[bool], list[IqrFilterReport]]:
    if len(trips) < 4:
        scope = f"day {day}" if day is not None else "dataset"
        raise ValueError(f"population too small for quartiles ({len(trips)} trips in {scope})")
    keep = [True] * len(trips)
    reports = []
    for field_name in IQR_FIELDS:
        values = _field_values(trips, field_name)
        q1, q3 = _quartiles(values)
        iqr = q3 - q1
        lo, hi = q1 - k * iqr, q3 + k * iqr
        out = [v < lo or v > hi for v in values]
        reports.append(IqrFilterReport(field_name, q1, q3, lo, hi, sum(out), day))
        keep = [kept and not dropped for kept, dropped in zip(keep, out)]
    return keep, reports


def write_iqr_reports(reports: Iterable[IqrFilterReport], target: str) -> None:
    payload = [{k: v for k, v in asdict(r).items() if v is not None} for r in reports]
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


__all__ = [
    "CANONICAL_COLUMNS",
    "DEFAULT_EPOCH",
    "IqrFilterReport",
    "Rejection",
    "SchemaError",
    "TripLayout",
    "TripRecord",
    "format_time",
    "has_request_times",
    "iqr_filter",
    "parse_time",
    "parse_trip_row",
    "parse_trips",
    "read_trip_header",
    "trip_cells",
    "trip_header",
    "write_iqr_reports",
    "write_rejections",
    "write_trips",
]
