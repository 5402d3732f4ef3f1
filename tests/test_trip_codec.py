"""The column pass that reads and writes ``trips_clean.csv`` and
``classified.csv`` against the row codec it replaced (``trip_oracle``): the
same trips, the same rejections (line and reason) and the same bytes, for
every rejection reason, padded cells, mapped columns, other epochs, times
before the epoch and row counts on each side of a block boundary."""

import csv
import datetime
import io
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trip_oracle as oracle
from classify_oracle import TripClass, as_classes, as_verdicts
from ridelink import classify, ingest
from ridelink.classify import ALL_LABELS, FIRST_MILE, INDEPENDENT, LAST_MILE
from ridelink.ingest import BLOCK_ROWS, CANONICAL_COLUMNS, DEFAULT_EPOCH
from trip_oracle import TripRecord, from_records, on_records

BBOX = (120.0, 30.0, 122.5, 32.0)
# the column codec in the row codec's form: trips as records, verdicts as objects
parse_trips = on_records(ingest.parse_trips)
write_trips = from_records(ingest.write_trips)


def read_classified(*args):
    trips, verdicts = on_records(classify.read_classified)(*args)
    return trips, as_classes(verdicts)


def write_classified(trips, results, *args):
    from_records(classify.write_classified)(trips, as_verdicts(results), *args)


EPOCHS = (DEFAULT_EPOCH, datetime.date(2023, 1, 1), datetime.date(2022, 10, 15),
          datetime.date(2024, 2, 29), datetime.date(1999, 12, 31))
# every rejection reason, in the order the checks run
REASONS = ("wrong column count", "bad timestamp", "bad number", "dropoff not after pickup",
           "request after pickup", "nonpositive distance", "negative cost",
           "coordinates outside bbox")
NUMBERS = ("olon", "olat", "dlon", "dlat", "distance_km", "cost")
PADS = ("", "", " ", "\t", "  ", "\x1c")  # str.strip removes "\x1c"; float does not
BAD_STAMPS = ("", "x", "2022/13/1 08:00", "2022/2/30 08:00", "2022/9/3 24:00",
              "2022/9/3T08:00", "22/9/3 08:00", "2022/9/3 08:60")
BAD_NUMBERS = ("nan", "inf", "-Infinity", "x", "", "1e999", "1.5.2")
GAPS = (" ", "  ", "\t")
SEEDS = st.integers(0, 2 ** 32 - 1)  # each example builds its rows from random.Random(seed)


def _stamp(rng, minutes, epoch):
    """``minutes`` after ``epoch`` in one of the forms the format accepts."""
    moment = datetime.datetime(epoch.year, epoch.month, epoch.day) + datetime.timedelta(
        minutes=minutes)

    def pad(value, prefixes):
        return rng.choice(prefixes) + str(value) if value < 10 else str(value)

    return (f"{moment.year}/{pad(moment.month, ('', '0'))}/{pad(moment.day, ('', '0', ' '))}"
            f"{rng.choice(GAPS)}{pad(moment.hour, ('', '0'))}:"
            f"{pad(moment.minute, ('0', '0', ''))}")


def _cells(rng, epoch, timed, faults=()):
    """One row's cells by field name. The trip is valid, then each fault in
    ``faults`` (names from ``REASONS``) is applied, the earliest reason last,
    so no later fault undoes it."""
    pickup = rng.randint(-40 * 1440, 40 * 1440)
    values = {
        "plate_id": rng.choice(("P1", "ABC 9", "x,y", 'q"t')),
        "olon": rng.uniform(BBOX[0], BBOX[2]), "olat": rng.uniform(BBOX[1], BBOX[3]),
        "pickup_label": rng.choice(("Anting Station Exit A", "No. 12 Fir Road", "")),
        "pickup_time": pickup,
        "dlon": rng.uniform(BBOX[0], BBOX[2]), "dlat": rng.uniform(BBOX[1], BBOX[3]),
        "dropoff_label": rng.choice(("Cedar", "Pine Road bus stop")),
        "dropoff_time": pickup + rng.randint(1, 300),
        "distance_km": rng.choice((rng.uniform(0.01, 90.0), 5, 1e-9)),
        "cost": rng.choice((rng.uniform(0.0, 400.0), 0.0, 12)),
        "request_time": pickup - rng.randint(0, 30) if timed else None,
    }
    overrides = {}
    for reason in sorted(faults, key=REASONS.index, reverse=True):
        if reason == "bad timestamp":
            field = rng.choice(("pickup_time", "dropoff_time") + (("request_time",) if timed else ()))
            overrides[field] = rng.choice(BAD_STAMPS[1:] if field == "request_time" else BAD_STAMPS)
        elif reason == "bad number":
            overrides[rng.choice(NUMBERS)] = rng.choice(BAD_NUMBERS)
        elif reason == "dropoff not after pickup":
            values["dropoff_time"] = values["pickup_time"] - rng.randint(0, 60)
        elif reason == "request after pickup":
            values["request_time"] = values["pickup_time"] + rng.randint(1, 60)
        elif reason == "nonpositive distance":
            overrides["distance_km"] = rng.choice(("0", "-0.0", "-3.25"))
        elif reason == "negative cost":
            overrides["cost"] = rng.choice(("-0.01", "-5"))
        elif reason == "coordinates outside bbox":
            overrides[rng.choice(("olon", "dlon"))] = rng.choice(("119.99", "122.51"))
            overrides[rng.choice(("olat", "dlat"))] = rng.choice(("30.0", "29.9"))
    cells = {}
    for field, value in values.items():
        if field.endswith("_time"):
            text = "" if value is None else _stamp(rng, value, epoch)
        else:
            text = value if isinstance(value, str) else repr(value)
        text = overrides.get(field, text)
        cells[field] = rng.choice(PADS) + text + rng.choice(PADS) if rng.random() < 0.2 else text
    return cells


def _table(rng, n, epoch, faulty=0.3, reasons=REASONS, timed=None):
    """A trip CSV of ``n`` data rows, blank rows between some, with the
    ``columns`` map that reads it: columns shuffled, some renamed, an unread
    column, and an optional request column (mapped or not, some cells
    empty)."""
    timed = rng.random() < 0.7 if timed is None else timed
    fields = list(CANONICAL_COLUMNS) + (["request_time"] if timed else [])
    columns = {f: f"{f}_in" for f in fields if rng.random() < 0.3}
    header = [columns.get(f, f) for f in fields] + ["note"]
    order = list(range(len(header)))
    rng.shuffle(order)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([header[i] for i in order])
    for _ in range(n):
        faults = (rng.sample(reasons, min(len(reasons), rng.choice((1, 1, 2))))
                  if rng.random() < faulty else ())
        cells = _cells(rng, epoch, timed, faults)
        if timed and not faults and rng.random() < 0.1:
            cells["request_time"] = rng.choice(("", " "))
        row = [cells[f] for f in fields] + ["n"]
        row = [row[i] for i in order]
        if "wrong column count" in faults:
            row = row[:-1] if rng.random() < 0.5 else row + ["extra"]
        writer.writerow(row)
        if rng.random() < 0.05:
            writer.writerow([])
    return out.getvalue(), columns


def _both(parse, text, epoch, columns):
    return parse(io.StringIO(text), BBOX, epoch, columns)


def _trips(rng, n, epoch_span=60 * 1440, timed=None):
    timed = rng.random() < 0.5 if timed is None else timed
    trips = []
    for i in range(n):
        pickup = rng.randint(-epoch_span, epoch_span)
        trips.append(TripRecord(
            rng.choice(("P1", "x,y", " lead", 'q"t')), rng.uniform(120.0, 122.5),
            rng.uniform(30.0, 32.0), rng.choice(("a", "Anting Station", "")), pickup,
            rng.uniform(120.0, 122.5), rng.uniform(30.0, 32.0), "b",
            pickup + rng.randint(1, 600), rng.uniform(0.01, 90.0),
            rng.choice((0.0, 12.5, rng.uniform(0.0, 1e4))),
            pickup - rng.randint(0, 40) if timed or rng.random() < 0.5 else None))
    return trips


def _verdicts(rng, n):
    """Verdicts as ``classify`` gives them: a station only on a complementary
    trip, a station at both ends only on a first-mile one."""
    results = []
    for _ in range(n):
        label = rng.choice(ALL_LABELS)
        results.append(TripClass(label, rng.choice(("C1", "C3", "C4", "C5", "C6"))
                                 if label == INDEPENDENT else None,
                                 rng.choice(("S1", "Cedar")) if label in (FIRST_MILE, LAST_MILE)
                                 else None, label == FIRST_MILE and rng.random() < 0.5))
    return results


def _outcome(read, path, epoch=DEFAULT_EPOCH):
    try:
        return read(str(path), BBOX, epoch)
    except ValueError as exc:
        return str(exc)


class TestParseTrips:
    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, n=st.integers(0, 40),
           epoch=st.sampled_from(EPOCHS))
    def test_same_trips_and_rejections(self, seed, n, epoch):
        rng = random.Random(seed)
        text, columns = _table(rng, n, epoch)
        assert _both(parse_trips, text, epoch, columns) == _both(oracle.parse_trips, text, epoch,
                                                                 columns)

    @pytest.mark.parametrize("reason", REASONS)
    def test_each_reason_alone(self, reason):
        rng = random.Random(REASONS.index(reason))
        for epoch in EPOCHS:
            text, columns = _table(rng, 30, epoch, faulty=1.0, reasons=[reason], timed=True)
            got = _both(parse_trips, text, epoch, columns)
            assert got == _both(oracle.parse_trips, text, epoch, columns)
            assert got[0] == [] and {r.reason for r in got[1]} == {reason}

    @pytest.mark.parametrize("first, second", [
        (a, b) for i, a in enumerate(REASONS) for b in REASONS[i + 1:]])
    def test_first_failure_wins(self, first, second):
        rng = random.Random(f"{first}/{second}")
        body = io.StringIO()
        fields = list(CANONICAL_COLUMNS) + ["request_time"]
        writer = csv.writer(body)
        writer.writerow(fields)
        for _ in range(20):
            cells = _cells(rng, DEFAULT_EPOCH, True, (first, second))
            row = [cells[f] for f in fields]
            if "wrong column count" in (first, second):
                row.append("extra")
            writer.writerow(row)
        text = body.getvalue()
        got = _both(parse_trips, text, DEFAULT_EPOCH, None)
        assert got == _both(oracle.parse_trips, text, DEFAULT_EPOCH, None)
        assert got[0] == [] and {r.reason for r in got[1]} == {first}

    @pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   2 * BLOCK_ROWS + 1])
    def test_row_counts_around_blocks(self, n):
        rng = random.Random(n)
        for faulty in (0.0, 0.1):
            text, columns = _table(rng, n, DEFAULT_EPOCH, faulty=faulty)
            got = _both(parse_trips, text, DEFAULT_EPOCH, columns)
            assert got == _both(oracle.parse_trips, text, DEFAULT_EPOCH, columns)
            assert len(got[0]) + len(got[1]) == n

    def test_path_and_handle_agree(self, tmp_path):
        text, columns = _table(random.Random(5), 50, DEFAULT_EPOCH)
        path = tmp_path / "trips.csv"
        path.write_text(text, newline="")
        assert parse_trips(str(path), BBOX, DEFAULT_EPOCH, columns) == _both(
            oracle.parse_trips, text, DEFAULT_EPOCH, columns)

    def test_unsplittable_row_raises_csv_error(self):
        """A row the csv reader cannot split raises ``csv.Error`` in both codecs."""
        text, columns = _table(random.Random(3), 10, DEFAULT_EPOCH, faulty=0.0)
        text += '"' + "x" * (csv.field_size_limit() + 1) + '"\r\n'
        for parse in (parse_trips, oracle.parse_trips):
            with pytest.raises(csv.Error):
                _both(parse, text, DEFAULT_EPOCH, columns)


class TestWriters:
    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, n=st.integers(0, 30),
           epoch=st.sampled_from(EPOCHS))
    def test_write_trips_same_bytes(self, seed, n, epoch):
        rng = random.Random(seed)
        trips = _trips(rng, n)
        got, want = io.StringIO(), io.StringIO()
        write_trips(trips, got, epoch)
        oracle.write_trips(trips, want, epoch)
        assert got.getvalue() == want.getvalue()

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, n=st.integers(0, 30),
           epoch=st.sampled_from(EPOCHS))
    def test_write_classified_same_bytes(self, seed, n, epoch):
        rng = random.Random(seed)
        trips, results = _trips(rng, n), _verdicts(rng, n)
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
            write_classified(trips, results, str(got), epoch)
            oracle.write_classified(trips, results, str(want), epoch)
            assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   2 * BLOCK_ROWS + 1])
    def test_row_counts_around_blocks(self, n, tmp_path):
        rng = random.Random(n)
        trips, results = _trips(rng, n, timed=True), _verdicts(rng, n)
        got, want = io.StringIO(), io.StringIO()
        write_trips(trips, got)
        oracle.write_trips(trips, want)
        assert got.getvalue() == want.getvalue()
        write_classified(trips, results, str(tmp_path / "got.csv"))
        oracle.write_classified(trips, results, str(tmp_path / "want.csv"))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _classified(rng, n, epoch, tmp, faulty):
    """A ``classified.csv`` the oracle wrote for ``n`` trips, with some rows'
    trip or label cells corrupted."""
    path = Path(tmp, "classified.csv")
    oracle.write_classified(_trips(rng, n), _verdicts(rng, n), str(path), epoch)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    for row in rows[1:]:
        if rng.random() >= faulty:
            continue
        if rng.random() < 0.5:
            cells = _cells(rng, epoch, "request_time" in header, rng.sample(REASONS, 1))
            row[:len(header) - 4] = [cells[f] for f in header[:-4]]
        else:
            at, value = rng.choice([(-4, "mystery"), (-3, "C2"), (-3, ""), (-3, "C9"),
                                    (-1, "yes"), (-1, "True")])
            row[at] = value
            if at == -3 and value == "":
                row[-4] = INDEPENDENT
            if rng.random() < 0.3:
                row[-4:] = [FIRST_MILE, "C3", "", "maybe"]
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    return path


class TestReadClassified:
    @settings(max_examples=150, deadline=None)
    @given(seed=SEEDS, n=st.integers(0, 30),
           epoch=st.sampled_from(EPOCHS), faulty=st.sampled_from((0.0, 0.05, 0.3)))
    def test_same_trips_or_first_error(self, seed, n, epoch, faulty):
        rng = random.Random(seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = _classified(rng, n, epoch, tmp, faulty)
            assert _outcome(read_classified, path, epoch) == _outcome(
                oracle.read_classified, path, epoch)

    @pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   2 * BLOCK_ROWS + 1])
    def test_row_counts_around_blocks(self, n, tmp_path):
        rng = random.Random(n)
        for faulty in (0.0, 1.0 / (n + 1)):
            path = _classified(rng, n, DEFAULT_EPOCH, tmp_path, faulty)
            assert _outcome(read_classified, path) == _outcome(oracle.read_classified, path)

    def test_bad_row_before_an_unsplittable_one(self, tmp_path):
        """The first bad row is named even when a later row of its block cannot
        be split, as when rows were read one at a time."""
        rng = random.Random(11)
        path = _classified(rng, 20, DEFAULT_EPOCH, tmp_path, 0.0)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        rows[4][-1] = "yes"
        rows[9][0] = "x" * (csv.field_size_limit() + 1)
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        expected = _outcome(oracle.read_classified, path)
        assert expected.startswith("line 5 of ")
        assert _outcome(read_classified, path) == expected


class TestReaderMemory:
    """Blocks bound the readers' working memory: the memory a read holds only
    while it runs (its peak less what its result keeps) grows by at most half
    when the file has four times the rows. And a table of columns keeps less
    than a list of records of the same trips."""

    @staticmethod
    def _traced(read):
        """What ``read``'s result keeps, and its peak less that."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = read()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current > before and result
        return current - before, peak - current

    @classmethod
    def _transient(cls, read):
        return cls._traced(read)[1]

    @pytest.mark.parametrize("reader", ["parse_trips", "read_classified"])
    def test_transient_memory_is_bounded(self, reader, tmp_path):
        rng = random.Random(7)
        sizes = {}
        for n in (2500, 10000):
            path = tmp_path / f"{n}.csv"
            trips = _trips(rng, n, epoch_span=7 * 1440, timed=True)
            if reader == "parse_trips":
                write_trips(trips, str(path))
                sizes[n] = self._transient(lambda: ingest.parse_trips(str(path), BBOX))
            else:
                write_classified(trips, _verdicts(rng, n), str(path))
                sizes[n] = self._transient(lambda: classify.read_classified(str(path), BBOX))
        assert sizes[10000] <= 1.5 * sizes[2500], sizes

    def test_table_keeps_less_than_records(self, tmp_path):
        """The ``Trips`` that ``parse_trips`` returns for 10,000 trips keeps at
        most 0.9 of what the row codec's list of ``TripRecord`` keeps for the
        same file: both hold the same cells, but a record also holds an
        object and its attribute slots per trip."""
        path = tmp_path / "trips.csv"
        write_trips(_trips(random.Random(7), 10000, epoch_span=7 * 1440, timed=True), str(path))
        kept = {}
        for name, parse in (("table", ingest.parse_trips), ("records", oracle.parse_trips)):
            with open(path, newline="") as handle:
                kept[name] = self._traced(lambda: parse(handle, BBOX))[0]
        assert kept["table"] <= 0.9 * kept["records"], kept

    def test_verdict_columns_keep_less_than_objects(self, tmp_path):
        """The ``Verdicts`` that ``read_classified`` returns for 10,000 rows keep
        at most half of what the row codec's list of ``TripClass`` keeps for the
        same file: four lists that share one string per distinct label,
        condition and station, against an object per row with its own strings."""
        rng = random.Random(7)
        path = tmp_path / "classified.csv"
        write_classified(_trips(rng, 10000, epoch_span=7 * 1440, timed=True),
                         _verdicts(rng, 10000), str(path))
        kept = {}
        for name, read in (("columns", classify.read_classified),
                           ("objects", oracle.read_classified)):
            kept[name] = self._traced(lambda: read(str(path), BBOX)[1])[0]
        assert kept["columns"] <= 0.5 * kept["objects"], kept
