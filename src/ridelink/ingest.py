"""Trip CSV ingestion: schema-checked parsing, rejection logging, outlier pruning.

The canonical trip table is a UTF-8 CSV with header

    plate_id,olon,olat,pickup_label,pickup_time,dlon,dlat,dropoff_label,dropoff_time,distance_km,cost

Timestamps use the ``YYYY/M/D HH:MM`` form (month/day unpadded) and are read in
the configured local timezone with no DST handling; internally every time is an
integer count of minutes since midnight of a configurable epoch date, so
``t % 1440`` is minutes-of-day. An optional ``request_time`` column, read
whenever the header has one, yields pick-up waiting times.

Every stage holds trips as one :class:`Trips` table, a list per field. The
trip columns of both ``trips_clean.csv`` and ``classified.csv`` are read by
:func:`read_trip_header` and :func:`read_trip_blocks` and written by
:func:`trip_columns`, one column pass per block of ``BLOCK_ROWS`` rows: each
number column is parsed with one ``map``, each date's first minute and each
day's written prefix are computed once per call, and every check runs over
whole columns in a fixed order, so a rejected row gets its first failing reason.
"""

from __future__ import annotations

import csv
import datetime as _dt
import json
import math
import re
from dataclasses import asdict, dataclass
from functools import cache
from itertools import chain, product
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO

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


class Trips(NamedTuple):
    """The trip table: one list per field, trip ``i`` at position ``i`` of each.
    Times count minutes from midnight of the epoch date; ``request_min`` is None
    where a trip has no request time. ``len`` counts the trips, and iterating or
    unpacking gives the columns. Trip ``i`` lasts ``dropoff_min[i] - pickup_min[i]``."""
    plate_id: list[str]
    olon: list[float]
    olat: list[float]
    pickup_label: list[str]
    pickup_min: list[int]
    dlon: list[float]
    dlat: list[float]
    dropoff_label: list[str]
    dropoff_min: list[int]
    distance_km: list[float]
    cost: list[float]
    request_min: list[Optional[int]]

    def __len__(self) -> int:
        return len(self.plate_id)

    @classmethod
    def empty(cls) -> Trips:
        return cls(*([] for _ in cls._fields))

    def take(self, rows: Sequence[int]) -> Trips:
        """The trips at positions ``rows``, in that order."""
        return Trips(*([column[i] for i in rows] for column in self))

    def extend(self, more: Trips) -> None:
        for column, added in zip(self, more):
            column.extend(added)


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


BLOCK_ROWS = 1024  # rows per column pass: one block's columns are alive at a time


@cache
def _clock() -> tuple[str, ...]:
    """"HH:MM" of each minute of the day, built on a process's first write."""
    return tuple(map("".join, product([f"{h:02d}:" for h in range(24)],
                                      [f"{m:02d}" for m in range(60)])))


def _minutes(cells: Sequence[str], epoch: _dt.date, dates: dict, bad: set) -> list[int]:
    """Each ``YYYY/M/D HH:MM`` cell as minutes since midnight of ``epoch``.
    A cell parses exactly when ``datetime.strptime(cell.strip(),
    TIME_FORMAT)`` would, by the regular expression ``strptime`` builds for
    that format; one that does not reads 0 and its position joins ``bad``.
    ``dates`` holds each date's first minute, computed once."""
    out = [0] * len(cells)
    for i, found in enumerate(map(_TIME_RE.fullmatch, map(str.strip, cells))):
        if found is None:
            bad.add(i)
            continue
        year, month, day, hour, minute = found.groups()
        start = dates.get((year, month, day))
        if start is None:
            try:
                start = (_dt.date(int(year), int(month), int(day)) - epoch).days * 1440
            except ValueError:
                bad.add(i)
                continue
            dates[year, month, day] = start
        out[i] = start + int(hour) * 60 + int(minute)
    return out


def _stamps(minutes: Iterable[int], epoch: _dt.date, days: dict) -> list[str]:
    """Each minute count as ``YYYY/M/D HH:MM``; ``days`` holds each day's prefix."""
    clock, out = _clock(), []
    for value in minutes:
        day, minute = divmod(int(value), 1440)
        prefix = days.get(day)
        if prefix is None:
            moment = epoch + _dt.timedelta(days=day)
            prefix = days[day] = f"{moment.year}/{moment.month}/{moment.day} "
        out.append(prefix + clock[minute])
    return out


def _float(text: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        return math.nan


def _floats(cells: Sequence[str]) -> list[float]:
    """The cells as floats, NaN where a cell is no number. ``float`` strips
    no more than ``str.strip``, so one ``map`` over the unstripped cells
    agrees wherever it succeeds."""
    try:
        return list(map(float, cells))
    except ValueError:
        return [_float(text) for text in cells]


def has_request_times(trips: Trips) -> bool:
    """True when every trip carries a request time, the condition under which
    the optional ``request_time`` column is written and waiting times exist."""
    return bool(trips) and None not in trips.request_min


def trip_header(with_request: bool) -> tuple[str, ...]:
    return CANONICAL_COLUMNS + (("request_time",) if with_request else ())


def trip_columns(trips: Trips, rows: slice, epoch: _dt.date, with_request: bool,
                 days: dict) -> list[list[str]]:
    """The cells of the trips at ``rows`` under :func:`trip_header`, one list per column;
    floats use repr so a reparse is lossless. ``days`` is :func:`_stamps`' cache."""
    def text(column):
        return list(map(repr, column[rows]))

    def times(column):
        return _stamps(column[rows], epoch, days)

    columns = [trips.plate_id[rows], text(trips.olon), text(trips.olat), trips.pickup_label[rows],
               times(trips.pickup_min), text(trips.dlon), text(trips.dlat),
               trips.dropoff_label[rows], times(trips.dropoff_min), text(trips.distance_km),
               text(trips.cost)]
    if with_request:
        columns.append(times(trips.request_min))
    return columns


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


def _row_blocks(reader) -> Iterator[list[tuple[int, list[str]]]]:
    """The data rows with their row numbers (the header is 1), ``BLOCK_ROWS``
    at a time. A row the reader cannot split ends the blocks, after the rows
    before it, so the rows before it are checked first."""
    block = []
    try:
        for numbered in enumerate(reader, start=2):
            block.append(numbered)
            if len(block) == BLOCK_ROWS:
                yield block
                block = []
    except csv.Error:
        if block:
            yield block
        raise
    if block:
        yield block


def read_trip_blocks(reader, layout: TripLayout, bbox: tuple[float, float, float, float],
                     epoch: _dt.date, check_extra: Optional[Callable] = None):
    """Parse and check the data rows after :func:`read_trip_header`, one
    column pass per block of ``BLOCK_ROWS`` rows.

    Yields ``(trips, extra, rejections)`` per block: the :class:`Trips` of
    the rows that pass, the ``layout.extra`` columns over the same rows, and one
    :class:`Rejection` per other row, in row order. Blank rows are skipped.
    A row's reason is the first failing check of: wrong column count, bad
    timestamp, bad number, dropoff not after pickup, request after pickup,
    nonpositive distance, negative cost, coordinates outside bbox, and then
    ``check_extra(*extra)``, a map from a row's position among the block's
    full-width rows to its reason.
    """
    dates: dict = {}
    lon_min, lat_min, lon_max, lat_max = bbox
    for block in _row_blocks(reader):
        lines, rows = map(list, zip(*block))
        reasons = {}
        if set(map(len, rows)) != {layout.width}:
            reasons = {n: "wrong column count" for n, row in block if row and len(row) != layout.width}
            lines = [n for n, row in block if len(row) == layout.width]
            rows = [row for row in rows if len(row) == layout.width]
        cells = list(zip(*rows)) or [()] * layout.width
        (plate_id, olon, olat, pickup_label, pickup_time, dlon, dlat, dropoff_label,
         dropoff_time, distance_km, cost) = (cells[i] for i in layout.index)
        failed: dict[int, str] = {}

        def flag(reason, positions):
            for i in positions:
                failed.setdefault(i, reason)

        bad: set = set()
        pickup = _minutes(pickup_time, epoch, dates, bad)
        dropoff = _minutes(dropoff_time, epoch, dates, bad)
        request: list = [None] * len(rows)
        if layout.request is not None:
            stamps = cells[layout.request]
            given = [i for i, text in enumerate(stamps) if text.strip()]
            timed: set = set()
            for i, minutes in zip(given, _minutes([stamps[i] for i in given], epoch, dates, timed)):
                request[i] = minutes
            bad.update(given[j] for j in timed)
        flag("bad timestamp", bad)
        numbers = [_floats(column) for column in (olon, olat, dlon, dlat, distance_km, cost)]
        if not all(map(math.isfinite, chain.from_iterable(numbers))):
            flag("bad number", (i for i, row in enumerate(zip(*numbers))
                                if not all(map(math.isfinite, row))))
        olon, olat, dlon, dlat, distance_km, cost = numbers
        flag("dropoff not after pickup", (i for i, (p, d) in enumerate(zip(pickup, dropoff))
                                          if d <= p))
        flag("request after pickup", (i for i, (r, p) in enumerate(zip(request, pickup))
                                      if r is not None and r > p))
        flag("nonpositive distance", (i for i, v in enumerate(distance_km) if v <= 0.0))
        flag("negative cost", (i for i, v in enumerate(cost) if v < 0.0))
        flag("coordinates outside bbox", (
            i for i, (x0, y0, x1, y1) in enumerate(zip(olon, olat, dlon, dlat))
            if not (lon_min <= x0 <= lon_max and lat_min <= y0 <= lat_max
                    and lon_min <= x1 <= lon_max and lat_min <= y1 <= lat_max)))
        extra = [cells[i] for i in layout.extra]
        if check_extra is not None:
            for i, reason in check_extra(*extra).items():
                failed.setdefault(i, reason)
        trips = Trips(list(map(str.strip, plate_id)), olon, olat,
                      list(map(str.strip, pickup_label)), pickup, dlon, dlat,
                      list(map(str.strip, dropoff_label)), dropoff, distance_km, cost, request)
        if failed:
            reasons.update((lines[i], reason) for i, reason in failed.items())
            kept = [i for i in range(len(rows)) if i not in failed]
            trips = trips.take(kept)
            extra = [[column[i] for i in kept] for column in extra]
        yield trips, extra, [Rejection(*r) for r in sorted(reasons.items())]


def parse_trips(
    source: str | TextIO,
    bbox: tuple[float, float, float, float],
    epoch: _dt.date = DEFAULT_EPOCH,
    columns: Optional[dict[str, str]] = None,
) -> tuple[Trips, list[Rejection]]:
    """Read the canonical trip CSV into one :class:`Trips`, a block at a time.

    ``columns`` maps canonical field names to the actual header names (fields
    not listed keep their canonical name; a ``request_time`` entry names the
    optional waiting-time column, which is otherwise read whenever the header
    has a ``request_time`` column). A missing or repeated column raises
    :class:`SchemaError`. Malformed rows never abort the run: each one becomes
    a :class:`Rejection` with the reason from :func:`read_trip_blocks`, and
    valid rows are returned in input order.

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
        trips = Trips.empty()
        rejections: list[Rejection] = []
        for kept, _, rejected in read_trip_blocks(reader, layout, bbox, epoch):
            trips.extend(kept)
            rejections.extend(rejected)
        return trips, rejections
    finally:
        if close_after:
            handle.close()


def write_trips(trips: Trips, target: str | TextIO, epoch: _dt.date = DEFAULT_EPOCH) -> None:
    """Write the canonical trip CSV through :func:`trip_columns`, a block at a time.

    A ``request_time`` column is appended when every trip carries one, so the
    optional waiting-time signal survives a write/parse cycle.
    """
    with_request = has_request_times(trips)
    close_after = False
    if isinstance(target, str):
        handle: TextIO = open(target, "w", encoding="utf-8", newline="")
        close_after = True
    else:
        handle = target
    try:
        writer = csv.writer(handle)
        writer.writerow(trip_header(with_request))
        days: dict = {}
        for start in range(0, len(trips), BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            writer.writerows(zip(*trip_columns(trips, rows, epoch, with_request, days)))
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


IQR_FIELDS = ("travel_time_min", "distance_km")


def iqr_filter(
    trips: Trips,
    k: float = 3.0,
    per_day: bool = False,
) -> tuple[Trips, list[IqrFilterReport]]:
    """Drop trips whose travel time or distance falls outside [Q1-k*IQR, Q3+k*IQR].

    Quartiles are computed on the pre-filter population (single pass, no
    re-iteration) and a trip is removed when either field is out of bounds.
    With ``per_day`` the bounds are computed separately for each pickup day.
    Requires at least 4 trips per filtered population.
    """
    if k <= 0.0:
        raise ValueError("k must be positive")
    values = ([float(d - p) for p, d in zip(trips.pickup_min, trips.dropoff_min)],
              list(map(float, trips.distance_km)))
    groups: dict[Optional[int], list[int]] = {} if per_day else {None: []}
    for i, pickup in enumerate(trips.pickup_min):
        groups.setdefault(pickup // 1440 if per_day else None, []).append(i)
    kept: list[int] = []
    reports: list[IqrFilterReport] = []
    for day in sorted(groups):
        idx = groups[day]
        keep, day_reports = _filter_once([[column[i] for i in idx] for column in values], k, day)
        kept.extend(i for i, flag in zip(idx, keep) if flag)
        reports.extend(day_reports)
    return trips.take(sorted(kept)), reports


def _filter_once(columns: list[list[float]], k: float, day: Optional[int]) -> tuple[list[bool], list[IqrFilterReport]]:
    """Which of one population's trips to keep, given its ``IQR_FIELDS`` columns."""
    n = len(columns[0])
    if n < 4:
        scope = f"day {day}" if day is not None else "dataset"
        raise ValueError(f"population too small for quartiles ({n} trips in {scope})")
    keep = [True] * n
    reports = []
    for field_name, values in zip(IQR_FIELDS, columns):
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
    "BLOCK_ROWS",
    "CANONICAL_COLUMNS",
    "DEFAULT_EPOCH",
    "IqrFilterReport",
    "Rejection",
    "SchemaError",
    "TripLayout",
    "Trips",
    "has_request_times",
    "iqr_filter",
    "parse_trips",
    "read_trip_blocks",
    "read_trip_header",
    "trip_columns",
    "trip_header",
    "write_iqr_reports",
    "write_rejections",
    "write_trips",
]
