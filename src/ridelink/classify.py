"""Six-condition trip classifier and station-label matching.

Each trip is tested, in order, against:

* C1 service: the transit alternative's routes run at the trip's start time;
* C2 label match: the drop-off label naming a station makes the trip a
  first-mile complement, a pick-up label match makes it a last-mile complement
  (a match on both ends counts as first-mile and raises ``both_ends_station``);
* C3 walk access: both access and egress walks within the threshold;
* C4 time: for short trips (duration <= gate) transit may lose at most the gate
  in minutes, otherwise it must stay within ``time_ratio`` times the trip time;
* C5 at most ``max_transfers`` transfers;
* C6 transit fare at most ``cost_ratio`` of the trip's cost.

A trip surviving C3-C6 is substitutive; failing any of them makes it
independent, with the first failing condition recorded. Checks short-circuit:
the trace only contains conditions that were actually evaluated. All threshold
comparisons are inclusive.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple, Optional, Sequence

from .errors import finite_number
from .ingest import (BLOCK_ROWS, DEFAULT_EPOCH, Trips, has_request_times, read_trip_blocks,
                     read_trip_header, trip_columns, trip_header)
from .ptnet import PtAlternative, TransitNetwork, is_in_service

FIRST_MILE = "first_mile_complementary"
LAST_MILE = "last_mile_complementary"
SUBSTITUTIVE = "substitutive"
INDEPENDENT = "independent"
ALL_LABELS = (FIRST_MILE, LAST_MILE, SUBSTITUTIVE, INDEPENDENT)

CONDITIONS = ("C1", "C2", "C3", "C4", "C5", "C6")
_FAILABLE = ("C1", "C3", "C4", "C5", "C6")  # a C2 label miss falls through to C3

# Trailing tokens treated as station designators rather than name words;
# phrases are token lists, longest first.
_SUFFIX_WORDS = frozenset(("exit", "gate", "entrance"))
_SUFFIX_PHRASES = (["bus", "stop"],)

_CODE_RE = re.compile(r"[a-z]|\d{1,3}|[a-z]\d{1,2}|\d{1,2}[a-z]")
_APOSTROPHE_RE = re.compile(r"['’]")
_PUNCT_RE = re.compile(r"[^\w\s]+", re.UNICODE)
_SPACE_RE = re.compile(r"\s+")


class NormalizedLabel(NamedTuple):
    key: str
    suffix: str


def normalize_label(raw: str) -> NormalizedLabel:
    """Lowercase, strip punctuation, collapse whitespace, peel station suffixes.

    Suffix designators (exit/gate codes, trailing phrases like "bus stop") move
    into the ``suffix`` field so the ``key`` is comparable across spellings:
    "Anting Station Exit A" keys as "anting station" with suffix "exit a".
    The key never loses its last token.
    """
    text = _PUNCT_RE.sub(" ", _APOSTROPHE_RE.sub("", raw.lower()))
    tokens = _SPACE_RE.sub(" ", text).strip().split()
    suffix_parts: list[str] = []
    changed = True
    while changed and len(tokens) > 1:
        changed = False
        for phrase in _SUFFIX_PHRASES:
            if len(tokens) > len(phrase) and tokens[-len(phrase):] == phrase:
                suffix_parts.insert(0, " ".join(phrase))
                tokens = tokens[:-len(phrase)]
                changed = True
                break
        if changed:
            continue
        if len(tokens) > 2 and tokens[-2] in _SUFFIX_WORDS and _CODE_RE.fullmatch(tokens[-1]):
            suffix_parts.insert(0, f"{tokens[-2]} {tokens[-1]}")
            tokens = tokens[:-2]
            changed = True
        elif tokens[-1] in _SUFFIX_WORDS:
            suffix_parts.insert(0, tokens[-1])
            tokens = tokens[:-1]
            changed = True
        elif _CODE_RE.fullmatch(tokens[-1]) and any(c.isdigit() for c in tokens[-1]):
            suffix_parts.insert(0, tokens[-1])
            tokens = tokens[:-1]
            changed = True
    return NormalizedLabel(" ".join(tokens), " ".join(suffix_parts))


def match_label(raw: str, lexicon: dict[str, tuple[str, ...]]) -> tuple[str, ...]:
    """Exact lookup of a raw label's normalized key; no fuzzy matching."""
    return lexicon.get(normalize_label(raw).key, ())


@dataclass(frozen=True)
class ClassifierConfig:
    walk_threshold_m: float = 400.0
    time_gate_min: float = 15.0
    time_ratio: float = 2.0
    max_transfers: int = 2
    cost_ratio: float = 0.5

    def __post_init__(self):
        if not all(finite_number(v) and v > 0 for v in (self.walk_threshold_m,
                                                        self.time_gate_min, self.time_ratio)):
            raise ValueError("classifier thresholds must be positive and finite")
        transfers = self.max_transfers
        if not (finite_number(transfers) and transfers >= 0 and transfers % 1 == 0):
            raise ValueError(f"max_transfers must be a whole number >= 0, got {transfers!r}")
        if not (finite_number(self.cost_ratio) and 0.0 < self.cost_ratio <= 1.0):
            raise ValueError("cost_ratio must be in (0, 1]")


class Verdicts(NamedTuple):
    """The verdict columns of a trip table, trip ``i``'s at position ``i`` of each:
    a failed condition only on an independent trip, a matched station only on a
    complementary one, both ends only on a first-mile one. ``len`` counts the trips."""
    label: list[str]
    failed_condition: list[Optional[str]]
    matched_station: list[Optional[str]]
    both_ends_station: list[bool]

    def __len__(self) -> int:
        return len(self.label)

    @classmethod
    def empty(cls) -> Verdicts:
        return cls([], [], [], [])

    def extend(self, more) -> None:
        for column, added in zip(self, more):
            column.extend(added)


def trace(label: str, failed_condition: Optional[str]) -> dict[str, bool]:
    """Each condition evaluated for a verdict, in order, and its outcome. C2
    records a label match, which ends the checks; every other condition is
    True except the failed one, where the checks stop."""
    if label in (FIRST_MILE, LAST_MILE):
        return {"C1": True, "C2": True}
    last = CONDITIONS.index(failed_condition or CONDITIONS[-1])
    return {c: c not in ("C2", failed_condition) for c in CONDITIONS[:last + 1]}


def classify_trip(
    trips: Trips,
    i: int,
    alt: PtAlternative,
    net: TransitNetwork,
    lexicon: dict[str, tuple[str, ...]],
    cfg: ClassifierConfig = ClassifierConfig(),
) -> tuple[str, Optional[str], Optional[str], bool]:
    """The verdict on trip ``i`` of ``trips``, whose journey is ``alt``: one
    row of :class:`Verdicts`."""
    pickup, dropoff = trips.pickup_min[i], trips.dropoff_min[i]
    if not is_in_service(net, alt, (pickup, dropoff)):
        return INDEPENDENT, "C1", None, False

    dest_hits = match_label(trips.dropoff_label[i], lexicon)
    orig_hits = match_label(trips.pickup_label[i], lexicon)
    if dest_hits:
        matched = net.nearest_station(trips.dlon[i], trips.dlat[i], dest_hits)
        return FIRST_MILE, None, matched, bool(orig_hits)
    if orig_hits:
        matched = net.nearest_station(trips.olon[i], trips.olat[i], orig_hits)
        return LAST_MILE, None, matched, False

    failed = classify_thresholds(dropoff - pickup, trips.cost[i], alt, cfg)
    return (INDEPENDENT, failed, None, False) if failed else (SUBSTITUTIVE, None, None, False)


def classify_thresholds(duration_min: int, cost: float, alt: PtAlternative,
                        cfg: ClassifierConfig) -> Optional[str]:
    """The first of C3-C6, the only conditions that read ``cfg``, that a trip of
    ``duration_min`` and ``cost`` fails after passing C1 and matching no station
    label in C2; None when it passes them all and is substitutive."""
    if not (alt.available and alt.access_walk_m <= cfg.walk_threshold_m
            and alt.egress_walk_m <= cfg.walk_threshold_m):
        return "C3"

    if duration_min <= cfg.time_gate_min:
        c4 = (alt.t_pt_min - duration_min) <= cfg.time_gate_min
    else:
        c4 = alt.t_pt_min <= cfg.time_ratio * duration_min
    if not c4:
        return "C4"

    if not (alt.transfers <= cfg.max_transfers):
        return "C5"

    if not (alt.fare_rmb <= cfg.cost_ratio * cost):
        return "C6"
    return None


def classify_all(
    trips: Trips,
    planner,
    net: TransitNetwork,
    lexicon: dict[str, tuple[str, ...]],
    cfg: ClassifierConfig = ClassifierConfig(),
) -> tuple[Verdicts, dict]:
    """Classify every trip; returns the verdicts (input order) and a summary.

    ``planner`` is a :class:`~ridelink.ptnet.CachedPlanner` (anything with
    ``plan(olon, olat, dlon, dlat)``); each trip's alternative is its ``plan``.
    """
    rows = (classify_trip(trips, i, planner.plan(*ends), net, lexicon, cfg)
            for i, ends in enumerate(zip(trips.olon, trips.olat, trips.dlon, trips.dlat)))
    verdicts = Verdicts.empty()
    while block := list(islice(rows, BLOCK_ROWS)):
        verdicts.extend(zip(*block))
    return verdicts, summarize(verdicts.label)


def summarize(labels: Sequence[str]) -> dict:
    counts = {label: labels.count(label) for label in ALL_LABELS}
    total = len(labels)
    shares = {label: (counts[label] / total if total else 0.0) for label in ALL_LABELS}
    return {"total": total, "counts": counts, "shares": shares}


CLASSIFIED_EXTRA_COLUMNS = Verdicts._fields
# each row of label cells that write_classified writes, its station cell as filled or not
_ROWS = frozenset([(FIRST_MILE, "", True, "true"), (FIRST_MILE, "", True, "false"),
                   (LAST_MILE, "", True, "false"), (SUBSTITUTIVE, "", False, "false")]
                  + [(INDEPENDENT, c, False, "false") for c in _FAILABLE])
_VERDICTS = frozenset(row[:2] for row in _ROWS)  # each (label, failed_condition) pair
_FLAGS = frozenset(("true", "false"))


def write_classified(
    trips: Trips,
    verdicts: Verdicts,
    path: str,
    epoch=DEFAULT_EPOCH,
) -> None:
    """Write the trip columns of ``trips_clean.csv``, then the four label columns."""
    if len(trips) != len(verdicts):
        raise ValueError("trips and verdicts must align")
    with_request = has_request_times(trips)
    days: dict = {}
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(trip_header(with_request) + CLASSIFIED_EXTRA_COLUMNS)
        for start in range(0, len(trips), BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            label, failed, station, both = (column[rows] for column in verdicts)
            writer.writerows(zip(
                *trip_columns(trips, rows, epoch, with_request, days),
                label, [f or "" for f in failed], [s or "" for s in station],
                ["true" if b else "false" for b in both]))


def _verdict_problems(label, failed, station, both) -> dict[int, str]:
    """Each row whose label columns :func:`write_classified` would not write,
    by position, with the first of its problems."""
    if _ROWS.issuperset(zip(label, failed, map(bool, station), both)):
        return {}
    problems = {}
    for i, (name, condition, matched, flag) in enumerate(zip(label, failed, station, both)):
        if name not in ALL_LABELS:
            problems[i] = f"unknown trip label {name!r}"
        elif (name, condition) not in _VERDICTS:
            problems[i] = f"failed_condition {condition!r} does not fit label {name!r}"
        elif flag not in _FLAGS:
            problems[i] = f"both_ends_station {flag!r} is not true or false"
        elif (name, condition, bool(matched), flag) not in _ROWS:
            problems[i] = (f"matched_station {matched!r} and both_ends_station {flag!r} "
                           f"do not fit label {name!r}")
    return problems


def read_classified(path: str, bbox: tuple[float, float, float, float],
                    epoch=DEFAULT_EPOCH) -> tuple[Trips, Verdicts]:
    """Reload a classified-trip CSV, a column pass per block of rows: each
    row's trip columns are checked as ``ingest`` checks ``trips_clean.csv``,
    its verdict against what :func:`write_classified` writes. The first bad
    row raises a ``ValueError`` naming its line. The verdicts hold one string
    per distinct label, condition and station."""
    trips, verdicts = Trips.empty(), Verdicts.empty()
    shared: dict = {"": None}  # an empty cell reads None
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        layout = read_trip_header(reader, extra=CLASSIFIED_EXTRA_COLUMNS)
        for kept, (label, failed, station, both), rejected in read_trip_blocks(
                reader, layout, bbox, epoch, _verdict_problems):
            if rejected:
                raise ValueError(f"line {rejected[0].row} of {path}: {rejected[0].reason}")
            trips.extend(kept)
            verdicts.extend([[shared.setdefault(cell, cell) for cell in column]
                             for column in (label, failed, station)] + [[b == "true" for b in both]])
    return trips, verdicts


def write_summary(summary: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")


__all__ = [
    "ALL_LABELS",
    "CLASSIFIED_EXTRA_COLUMNS",
    "CONDITIONS",
    "ClassifierConfig",
    "FIRST_MILE",
    "INDEPENDENT",
    "LAST_MILE",
    "NormalizedLabel",
    "SUBSTITUTIVE",
    "Verdicts",
    "classify_all",
    "classify_thresholds",
    "classify_trip",
    "match_label",
    "normalize_label",
    "read_classified",
    "summarize",
    "trace",
    "write_classified",
    "write_summary",
]
