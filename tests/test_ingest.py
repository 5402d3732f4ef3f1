import datetime
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ridelink import ingest
from ridelink.ingest import (
    CANONICAL_COLUMNS,
    DEFAULT_EPOCH,
    TIME_FORMAT,
    IqrFilterReport,
    Rejection,
    SchemaError,
    Trips,
    _minutes,
    _quartiles,
    _stamps,
)
from trip_oracle import TripRecord, as_trips, from_records, on_records

BBOX = (120.0, 30.0, 122.5, 32.0)

parse_trips = on_records(ingest.parse_trips)
write_trips = from_records(ingest.write_trips)


def iqr_filter(records, k=3.0, per_day=False):
    """``ingest.iqr_filter`` on the table of ``records``. Their positions
    stand in for the plate ids, which the filter does not read, so each kept
    row comes back as the record it was."""
    table = as_trips(records)
    kept, reports = ingest.iqr_filter(Trips(list(range(len(records))), *table[1:]), k, per_day)
    return [records[i] for i in kept.plate_id], reports


def parse_time(text, epoch=DEFAULT_EPOCH):
    """One cell through the readers' timestamp column parser."""
    bad = set()
    (minutes,) = _minutes([text], epoch, {}, bad)
    if bad:
        raise ValueError(f"time data {text!r} does not match format {TIME_FORMAT!r}")
    return minutes


def format_time(minutes, epoch=DEFAULT_EPOCH):
    """One value through the writers' timestamp column formatter."""
    return _stamps([minutes], epoch, {})[0]


def make_trip(duration_min=20, distance_km=8.0, cost=30.0, pickup_min=510, **overrides):
    base = dict(
        plate_id="P0001",
        olon=121.40, olat=31.10,
        pickup_label="No. 12 Fir Road",
        pickup_min=pickup_min,
        dlon=121.45, dlat=31.15,
        dropoff_label="No. 98 Pine Road",
        dropoff_min=pickup_min + duration_min,
        distance_km=distance_km,
        cost=cost,
    )
    base.update(overrides)
    return TripRecord(**base)


def csv_text(rows, header=None):
    out = [",".join(header or CANONICAL_COLUMNS)]
    out.extend(",".join(str(c) for c in row) for row in rows)
    return "\n".join(out) + "\n"


SAMPLE_ROW = [
    "ADXXXXX", "121.521568", "31.194264", "Yanggao South Road", "2022/9/3 08:30",
    "121.157783", "31.290597", "Anting Station Exit A", "2022/9/3 09:35", "55.3", "165.2",
]


class TestParsing:
    def test_sample_row_fields(self):
        trips, rejections = parse_trips(io.StringIO(csv_text([SAMPLE_ROW])), BBOX)
        assert rejections == []
        (t,) = trips
        assert t.plate_id == "ADXXXXX"
        assert t.duration_min == 65
        assert t.cost == 165.2
        assert t.distance_km == 55.3
        assert round(t.fare_per_km, 2) == 2.99
        assert t.pickup_label == "Yanggao South Road"
        assert t.dropoff_label == "Anting Station Exit A"

    def test_time_epoch_arithmetic(self):
        # epoch is 2022-09-01 00:00, so 2022/9/3 08:30 is 2*1440 + 510 minutes
        assert parse_time("2022/9/3 08:30") == 2 * 1440 + 510
        assert format_time(2 * 1440 + 510) == "2022/9/3 08:30"
        assert parse_time("2022/9/1 00:00") == 0

    def test_custom_epoch(self):
        epoch = datetime.date(2023, 1, 1)
        assert parse_time("2023/1/2 01:05", epoch) == 1440 + 65
        assert format_time(1440 + 65, epoch) == "2023/1/2 01:05"

    @staticmethod
    def _strptime_minutes(text):
        """The oracle: minutes from ``datetime.strptime``, or ``ValueError``."""
        try:
            moment = datetime.datetime.strptime(text.strip(), TIME_FORMAT)
        except ValueError:
            return ValueError
        delta = moment - datetime.datetime(2022, 9, 1)
        return delta.days * 1440 + delta.seconds // 60

    @staticmethod
    def _parsed_minutes(text):
        try:
            return parse_time(text)
        except ValueError:
            return ValueError

    @settings(max_examples=300, deadline=None)
    @given(moment=st.datetimes(datetime.datetime(1000, 1, 1),
                               datetime.datetime(9999, 12, 31, 23, 59)),
           day=st.none() | st.integers(28, 31),
           month_pad=st.sampled_from(["", "0"]), day_pad=st.sampled_from(["", "0", " "]),
           hour_pad=st.sampled_from(["", "0"]), minute_pad=st.sampled_from(["", "0"]),
           gap=st.sampled_from([" ", "  ", "\t", " \t\t "]))
    def test_same_as_strptime_on_real_moments(self, moment, day, month_pad, day_pad,
                                              hour_pad, minute_pad, gap):
        # unpadded, zero-padded and space-padded fields of real moments, and
        # days 28-31 in every month (Feb 30 and Apr 31 do not exist)
        def pad(value, prefix):
            return f"{prefix}{value}" if value < 10 else str(value)

        text = (f"{moment.year}/{pad(moment.month, month_pad)}/"
                f"{pad(moment.day if day is None else day, day_pad)}"
                f"{gap}{pad(moment.hour, hour_pad)}:{pad(moment.minute, minute_pad)}")
        assert self._parsed_minutes(text) == self._strptime_minutes(text)

    # arbitrary fields, separators and stray characters: mostly invalid
    _PAD = st.sampled_from(["", "0", " ", "00"])
    _GAP = st.sampled_from([" ", "  ", "\t", " \t ", "", "/", "\n"])

    @settings(max_examples=300, deadline=None)
    @given(year=st.integers(0, 99999), year_width=st.sampled_from([4, 1, 5]),
           month=st.integers(0, 13), month_pad=_PAD,
           day=st.integers(0, 32), day_pad=_PAD, gap=_GAP,
           hour=st.integers(0, 25), minute=st.integers(0, 61),
           minute_pad=st.sampled_from(["", "0"]),
           edges=st.sampled_from(["", " ", "\t", "x", "0"]))
    @example(year=2024, year_width=4, month=2, month_pad="", day=30, day_pad="",
             gap=" ", hour=8, minute=0, minute_pad="", edges="")
    @example(year=2022, year_width=4, month=9, month_pad="0", day=3, day_pad=" ",
             gap="\t", hour=24, minute=0, minute_pad="", edges="")
    @example(year=2022, year_width=4, month=9, month_pad="", day=3, day_pad="",
             gap="  ", hour=23, minute=60, minute_pad="", edges="")
    def test_same_as_strptime_on_built_stamps(self, year, year_width, month, month_pad,
                                              day, day_pad, gap, hour, minute,
                                              minute_pad, edges):
        # valid and invalid dates, zero- and space-padded fields, runs of
        # spaces and tabs, hour 24 and minute 60, and stray leading or
        # trailing characters
        text = (f"{edges}{year:0{year_width}d}/{month_pad}{month}/{day_pad}{day}"
                f"{gap}{hour}:{minute_pad}{minute}{edges}")
        assert self._parsed_minutes(text) == self._strptime_minutes(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789/: \t\n\u0663x", max_size=20))
    def test_same_as_strptime_on_any_text(self, text):
        assert self._parsed_minutes(text) == self._strptime_minutes(text)

    def test_missing_column_is_fatal(self):
        header = [c for c in CANONICAL_COLUMNS if c != "cost"]
        text = ",".join(header) + "\n"
        with pytest.raises(SchemaError, match="cost"):
            parse_trips(io.StringIO(text), BBOX)

    def test_column_mapping(self):
        header = ["car", "olon", "olat", "pickup_label", "pickup_time",
                  "dlon", "dlat", "dropoff_label", "dropoff_time", "distance_km", "cost"]
        row = SAMPLE_ROW
        trips, rej = parse_trips(io.StringIO(csv_text([row], header)), BBOX, columns={"plate_id": "car"})
        assert rej == [] and trips[0].plate_id == "ADXXXXX"

    def test_bad_rows_rejected_not_fatal(self):
        good = SAMPLE_ROW
        rows = [
            good,
            ["P2", "121.5", "31.2", "a", "not a time", "121.5", "31.2", "b", "2022/9/3 09:00", "5", "10"],
            ["P3", "121.5", "31.2", "a", "2022/9/3 08:00", "121.5", "31.2", "b", "2022/9/3 09:00", "oops", "10"],
            ["P4", "121.5", "31.2", "a", "2022/9/3 09:00", "121.5", "31.2", "b", "2022/9/3 09:00", "5", "10"],
            ["P5", "121.5", "31.2", "a", "2022/9/3 08:00", "121.5", "31.2", "b", "2022/9/3 09:00", "0", "10"],
            ["P6", "121.5", "31.2", "a", "2022/9/3 08:00", "121.5", "31.2", "b", "2022/9/3 09:00", "5", "-1"],
            ["P7", "10.0", "31.2", "a", "2022/9/3 08:00", "121.5", "31.2", "b", "2022/9/3 09:00", "5", "10"],
            ["P8", "121.5", "31.2", "a", "2022/9/3 08:00", "121.5", "31.2", "b", "2022/9/3 09:00", "5"],
            good,
        ]
        trips, rejections = parse_trips(io.StringIO(csv_text(rows)), BBOX)
        assert len(trips) == 2
        reasons = {r.row: r.reason for r in rejections}
        assert reasons == {
            3: "bad timestamp",
            4: "bad number",
            5: "dropoff not after pickup",
            6: "nonpositive distance",
            7: "negative cost",
            8: "coordinates outside bbox",
            9: "wrong column count",
        }

    def test_rejection_of_nan_value(self):
        row = list(SAMPLE_ROW)
        row[10] = "nan"
        trips, rejections = parse_trips(io.StringIO(csv_text([row])), BBOX)
        assert trips == [] and rejections == [Rejection(2, "bad number")]

    def test_unmapped_request_time_is_read(self):
        header = list(CANONICAL_COLUMNS) + ["request_time"]
        text = csv_text([SAMPLE_ROW + ["2022/9/3 08:21"], SAMPLE_ROW + [""]], header)
        trips, rejections = parse_trips(io.StringIO(text), BBOX)
        assert rejections == []
        assert [t.wait_min for t in trips] == [9, None]

    def test_request_after_pickup_rejected(self):
        header = list(CANONICAL_COLUMNS) + ["request_time"]
        late = list(SAMPLE_ROW)
        late[8] = late[4]  # dropoff not after pickup comes first
        free = list(SAMPLE_ROW)
        free[9] = "0"  # request after pickup comes before nonpositive distance
        rows = [SAMPLE_ROW + ["2022/9/3 08:31"], SAMPLE_ROW + ["2022/9/3 08:30"],
                late + ["2022/9/3 08:31"], free + ["2022/9/4 08:00"]]
        trips, rejections = parse_trips(io.StringIO(csv_text(rows, header)), BBOX)
        assert [t.wait_min for t in trips] == [0]
        assert rejections == [Rejection(2, "request after pickup"),
                              Rejection(4, "dropoff not after pickup"),
                              Rejection(5, "request after pickup")]

    def test_duplicated_request_time_is_fatal(self):
        header = list(CANONICAL_COLUMNS) + ["request_time", "request_time"]
        text = csv_text([SAMPLE_ROW + ["2022/9/3 08:21", "2022/9/3 08:22"]], header)
        with pytest.raises(SchemaError, match="'request_time'.* 2 times"):
            parse_trips(io.StringIO(text), BBOX)

    def test_mapped_request_time_wins(self):
        header = list(CANONICAL_COLUMNS) + ["request_time", "ordered"]
        text = csv_text([SAMPLE_ROW + ["2022/9/3 08:21", "2022/9/3 08:10"]], header)
        trips, _ = parse_trips(io.StringIO(text), BBOX, columns={"request_time": "ordered"})
        assert trips[0].wait_min == 20
        with pytest.raises(SchemaError, match="'booked'"):
            parse_trips(io.StringIO(text), BBOX, columns={"request_time": "booked"})

    def test_roundtrip_is_lossless(self):
        rng = np.random.default_rng(20240915)
        trips = []
        for i in range(60):
            pickup = int(rng.integers(0, 14 * 1440))
            trips.append(make_trip(
                plate_id=f"P{i:04d}",
                olon=float(rng.uniform(120.5, 122.0)),
                olat=float(rng.uniform(30.5, 31.8)),
                dlon=float(rng.uniform(120.5, 122.0)),
                dlat=float(rng.uniform(30.5, 31.8)),
                pickup_min=pickup,
                dropoff_min=pickup + int(rng.integers(1, 180)),
                distance_km=float(rng.uniform(0.3, 80.0)),
                cost=float(rng.uniform(0.0, 300.0)),
            ))
        buffer = io.StringIO()
        write_trips(trips, buffer)
        reparsed, rejections = parse_trips(io.StringIO(buffer.getvalue()), BBOX)
        assert rejections == []
        assert reparsed == trips


# finite values up to 1e300 in size, either sign; ``+ 0.0`` turns -0.0 into
# 0.0, since a sort may order the two zeros either way (and no trip field
# parses to -0.0: durations are whole minutes and distances positive)
_QUARTILE_VALUES = st.floats(min_value=-1e300, max_value=1e300).map(lambda v: v + 0.0)


@st.composite
def _tied_values(draw, min_size, max_size):
    """Values of which many repeat a few drawn ones, so order statistics tie."""
    pool = draw(st.lists(_QUARTILE_VALUES, min_size=1, max_size=4))
    return draw(st.lists(st.one_of(st.sampled_from(pool), _QUARTILE_VALUES,
                                   st.integers(-50, 50).map(float)),
                         min_size=min_size, max_size=max_size))


@st.composite
def _day_groups(draw):
    """Trips on one to three pickup days, each day with at least four trips,
    in any order: durations and distances with ties and far outliers."""
    trips = []
    for day in draw(st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True)):
        for _ in range(draw(st.integers(4, 40))):
            trips.append(make_trip(
                duration_min=draw(st.one_of(st.integers(5, 60), st.integers(-10**6, 10**6))),
                distance_km=draw(st.one_of(st.sampled_from([1.5, 2.0, 8.25]),
                                           st.floats(1e-3, 1e300))),
                pickup_min=day * 1440 + draw(st.integers(0, 1439))))
    return draw(st.permutations(trips))


def _numpy_iqr_filter(trips, k, per_day):
    """Reference filter on numpy arrays: ``np.percentile`` quartiles and
    boolean masks, per pickup day when ``per_day``."""
    groups = {}
    for i, t in enumerate(trips):
        groups.setdefault(t.pickup_day if per_day else None, []).append(i)
    keep = np.ones(len(trips), dtype=bool)
    reports = []
    for day in sorted(groups):
        idx = np.array(groups[day])
        for name, values in (("travel_time_min", [trips[i].duration_min for i in idx]),
                             ("distance_km", [trips[i].distance_km for i in idx])):
            values = np.array(values, dtype=float)
            q1, q3 = np.percentile(values, [25.0, 75.0], method="linear")
            lo, hi = q1 - k * (q3 - q1), q3 + k * (q3 - q1)
            out = (values < lo) | (values > hi)
            reports.append(IqrFilterReport(name, float(q1), float(q3), float(lo), float(hi),
                                           int(out.sum()), day))
            keep[idx[out]] = False
    return [t for t, kept in zip(trips, keep) if kept], reports


class TestQuartiles:
    @settings(max_examples=300, deadline=None)
    @given(values=_tied_values(4, 500))
    def test_bit_equal_to_numpy_percentile(self, values):
        expected = np.percentile(np.array(values), [25.0, 75.0], method="linear")
        assert [v.hex() for v in _quartiles(values)] == [float(v).hex() for v in expected]

    @settings(max_examples=100, deadline=None)
    @given(trips=_day_groups(), k=st.floats(0.05, 5.0), per_day=st.booleans())
    def test_filter_matches_numpy_reference(self, trips, k, per_day):
        kept, reports = iqr_filter(trips, k, per_day)
        want_kept, want_reports = _numpy_iqr_filter(trips, k, per_day)
        assert [id(t) for t in kept] == [id(t) for t in want_kept]
        assert reports == want_reports
        assert [(r.q1.hex(), r.q3.hex(), r.lo.hex(), r.hi.hex()) for r in reports] == \
            [(r.q1.hex(), r.q3.hex(), r.lo.hex(), r.hi.hex()) for r in want_reports]


class TestIqrFilter:
    def test_hand_computed_bounds(self):
        # durations 10,12,14,16,18,20,200; linear-interpolated quartiles put
        # Q1 at rank 1.5 and Q3 at rank 4.5 (0-based): 13 and 19, so k=3 keeps
        # [-5, 37] and drops only the 200-minute trip
        durations = [10, 12, 14, 16, 18, 20, 200]
        trips = [make_trip(duration_min=d) for d in durations]
        kept, reports = iqr_filter(trips, k=3.0)
        time_report = next(r for r in reports if r.field == "travel_time_min")
        assert (time_report.q1, time_report.q3) == (13.0, 19.0)
        assert (time_report.lo, time_report.hi) == (-5.0, 37.0)
        assert time_report.removed_count == 1
        assert [t.duration_min for t in kept] == [10, 12, 14, 16, 18, 20]

    def test_matches_independent_quartile_oracle(self):
        def quartile(sorted_vals, p):
            h = (len(sorted_vals) - 1) * p
            lo = math.floor(h)
            if lo == len(sorted_vals) - 1:
                return sorted_vals[lo]
            return sorted_vals[lo] + (h - lo) * (sorted_vals[lo + 1] - sorted_vals[lo])

        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(4, 120))
            durations = sorted(int(v) for v in rng.integers(1, 300, size=n))
            trips = [make_trip(duration_min=d) for d in durations]
            _, reports = iqr_filter(trips, k=3.0)
            r = next(rep for rep in reports if rep.field == "travel_time_min")
            assert r.q1 == pytest.approx(quartile(durations, 0.25), abs=1e-12)
            assert r.q3 == pytest.approx(quartile(durations, 0.75), abs=1e-12)

    def test_union_of_field_outliers(self):
        trips = [make_trip(duration_min=20, distance_km=8.0) for _ in range(20)]
        trips.append(make_trip(duration_min=900, distance_km=8.0))   # time outlier
        trips.append(make_trip(duration_min=20, distance_km=500.0))  # distance outlier
        kept, reports = iqr_filter(trips, k=3.0)
        assert len(kept) == 20
        by_field = {r.field: r.removed_count for r in reports}
        assert by_field == {"travel_time_min": 1, "distance_km": 1}

    def test_bounds_come_from_prefilter_population(self):
        # after removing 200 the bounds would tighten around 10..20 and also
        # drop 36; a single-pass filter must keep 36
        durations = [10, 12, 14, 16, 18, 20, 36, 200]
        trips = [make_trip(duration_min=d) for d in durations]
        kept, _ = iqr_filter(trips, k=3.0)
        assert 36 in [t.duration_min for t in kept]
        assert 200 not in [t.duration_min for t in kept]

    def test_refiltering_only_shrinks(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(8, 200))
            trips = [
                make_trip(duration_min=int(rng.integers(1, 400)),
                          distance_km=float(rng.uniform(0.5, 120.0)))
                for _ in range(n)
            ]
            kept1, _ = iqr_filter(trips, k=3.0)
            if len(kept1) < 4:
                continue
            kept2, _ = iqr_filter(kept1, k=3.0)
            ids1 = {id(t) for t in kept1}
            assert all(id(t) in ids1 for t in kept2), "second pass may only remove, not add"
            assert len(kept2) <= len(kept1)

    def test_order_preserved(self):
        trips = [make_trip(duration_min=d, plate_id=f"P{d}") for d in (30, 10, 25, 11, 29, 12)]
        kept, _ = iqr_filter(trips, k=3.0)
        assert [t.plate_id for t in kept] == [t.plate_id for t in trips if t in kept]

    def test_too_small_population(self):
        trips = [make_trip() for _ in range(3)]
        with pytest.raises(ValueError, match="population too small"):
            iqr_filter(trips)

    def test_bad_k(self):
        with pytest.raises(ValueError, match="k must be positive"):
            iqr_filter([make_trip() for _ in range(5)], k=0.0)

    def test_per_day_mode(self):
        day0 = [make_trip(duration_min=d, pickup_min=480) for d in (10, 12, 14, 16, 18, 20)]
        day1 = [make_trip(duration_min=d, pickup_min=1440 + 480) for d in (10, 12, 14, 16, 18, 200)]
        kept, reports = iqr_filter(day0 + day1, k=3.0, per_day=True)
        assert len(kept) == 11
        days = {r.day for r in reports}
        assert days == {0, 1}
        day1_time = next(r for r in reports if r.day == 1 and r.field == "travel_time_min")
        assert day1_time.removed_count == 1
