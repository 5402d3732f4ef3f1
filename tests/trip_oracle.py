"""The trip codec one row at a time: the oracle for ``ridelink.ingest``'s
column pass (``parse_trips``, ``write_trips``) and for ``ridelink.classify``'s
``read_classified`` and ``write_classified``, which run the same pass.

``TripRecord`` is kept verbatim from the one object per trip that every stage
used before they all read the columns of ``ridelink.ingest.Trips``.
``as_trips`` and ``as_records`` turn a list of records into that table and
back; ``on_records`` and ``from_records`` let a test call a stage that returns
or takes a table with records instead. ``parse_time``, ``format_time``,
``parse_trip_row`` and ``trip_cells`` are kept verbatim from the row codec that
``ingest`` ran before it read and wrote by column, with one check added to
``parse_trip_row``: a request time after pickup. The readers and writers below
are the loops that called them."""

from __future__ import annotations

import csv
import datetime as _dt
import math
from dataclasses import astuple, dataclass
from typing import Optional, Sequence

from classify_oracle import TripClass
from ridelink.classify import _FAILABLE, ALL_LABELS, CLASSIFIED_EXTRA_COLUMNS, INDEPENDENT
from ridelink.ingest import (DEFAULT_EPOCH, TIME_FORMAT, Rejection, TripLayout, Trips, _TIME_RE,
                             read_trip_header, trip_header)


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


def as_trips(records: Sequence[TripRecord]) -> Trips:
    """The records as one table, a column per field in ``Trips`` order."""
    table = Trips.empty()
    for record in records:
        for column, value in zip(table, astuple(record)):
            column.append(value)
    return table


def as_records(trips: Trips) -> list[TripRecord]:
    """The table's rows as records."""
    return [TripRecord(*row) for row in zip(*trips, strict=True)]


def on_records(read):
    """``read``, a reader that returns a table and one more value, returning
    the table as records instead."""
    def read_records(*args, **kwargs):
        trips, other = read(*args, **kwargs)
        return as_records(trips), other
    return read_records


def from_records(call):
    """``call``, whose first argument is a table, taking records instead."""
    def call_records(records, *args, **kwargs):
        return call(as_trips(records), *args, **kwargs)
    return call_records


def has_request_times(trips: Sequence[TripRecord]) -> bool:
    return bool(trips) and all(t.request_min is not None for t in trips)


def parse_time(text: str, epoch: _dt.date = DEFAULT_EPOCH) -> int:
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


def trip_cells(t: TripRecord, epoch: _dt.date, with_request: bool) -> list[str]:
    """One trip's cells under :func:`trip_header`; floats use repr so a reparse is lossless."""
    row = [t.plate_id, repr(t.olon), repr(t.olat), t.pickup_label, format_time(t.pickup_min, epoch),
           repr(t.dlon), repr(t.dlat), t.dropoff_label, format_time(t.dropoff_min, epoch),
           repr(t.distance_km), repr(t.cost)]
    if with_request:
        row.append(format_time(t.request_min, epoch))
    return row


def parse_trip_row(row: Sequence[str], layout: TripLayout,
                   bbox: tuple[float, float, float, float], epoch: _dt.date) -> TripRecord:
    """Parse and check one data row; a bad row raises ``ValueError(reason)``.

    The reasons, in the order checked: wrong column count, bad timestamp, bad
    number, dropoff not after pickup, request after pickup, nonpositive
    distance, negative cost, coordinates outside bbox.
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
    if request_min is not None and request_min > pickup_min:
        raise ValueError("request after pickup")
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


def parse_trips(handle, bbox, epoch=DEFAULT_EPOCH, columns=None):
    reader = csv.reader(handle)
    layout = read_trip_header(reader, columns)
    trips, rejections = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            trips.append(parse_trip_row(row, layout, bbox, epoch))
        except ValueError as exc:
            rejections.append(Rejection(lineno, str(exc)))
    return trips, rejections


def write_trips(trips, handle, epoch=DEFAULT_EPOCH) -> None:
    rows = list(trips)
    with_request = has_request_times(rows)
    writer = csv.writer(handle)
    writer.writerow(trip_header(with_request))
    for t in rows:
        writer.writerow(trip_cells(t, epoch, with_request))


def write_classified(trips, results, path, epoch=DEFAULT_EPOCH) -> None:
    with_request = has_request_times(trips)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(trip_header(with_request) + CLASSIFIED_EXTRA_COLUMNS)
        for t, r in zip(trips, results):
            writer.writerow(trip_cells(t, epoch, with_request) + [
                r.label, r.failed_condition or "", r.matched_station or "",
                "true" if r.both_ends_station else "false",
            ])


def read_classified(path, bbox, epoch=DEFAULT_EPOCH):
    trips, results = [], []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        layout = read_trip_header(reader, extra=CLASSIFIED_EXTRA_COLUMNS)
        label_at, failed_at, station_at, both_at = layout.extra
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                trips.append(parse_trip_row(row, layout, bbox, epoch))
                label, failed = row[label_at], row[failed_at]
                if label not in ALL_LABELS:
                    raise ValueError(f"unknown trip label {label!r}")
                if failed not in (_FAILABLE if label == INDEPENDENT else ("",)):
                    raise ValueError(f"failed_condition {failed!r} does not fit label {label!r}")
                if row[both_at] not in ("true", "false"):
                    raise ValueError(f"both_ends_station {row[both_at]!r} is not true or false")
            except ValueError as exc:
                raise ValueError(f"line {lineno} of {path}: {exc}") from None
            results.append(TripClass(
                label=label,
                failed_condition=failed or None,
                matched_station=row[station_at] or None,
                both_ends_station=row[both_at] == "true",
            ))
    return trips, results
