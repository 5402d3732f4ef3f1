"""The classifier one ``TripRecord`` at a time: ``classify_trip`` and
``classify_thresholds`` are kept verbatim from ``ridelink.classify`` as it was
before it judged the rows of a ``ridelink.ingest.Trips`` table. The oracle for
``classify_all``.

``TripClass`` is kept verbatim from the one object per verdict that
``ridelink.classify`` returned before it kept its verdicts as the columns of
``ridelink.classify.Verdicts``; its ``trace`` is the oracle for
``ridelink.classify.trace``. ``as_verdicts`` and ``as_classes`` turn a list of
verdicts into that table and back."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from ridelink.classify import (CONDITIONS, FIRST_MILE, INDEPENDENT, LAST_MILE, SUBSTITUTIVE,
                               ClassifierConfig, Verdicts, match_label)
from ridelink.ptnet import PtAlternative, TransitNetwork, is_in_service

if TYPE_CHECKING:  # trip_oracle imports this module
    from trip_oracle import TripRecord


@dataclass
class TripClass:
    label: str
    failed_condition: Optional[str] = None
    matched_station: Optional[str] = None
    both_ends_station: bool = False

    @property
    def trace(self) -> dict[str, bool]:
        """Each condition evaluated, in order, and its outcome. C2 records a
        label match, which ends the checks; every other condition is True
        except the failed one, where the checks stop."""
        if self.label in (FIRST_MILE, LAST_MILE):
            return {"C1": True, "C2": True}
        last = CONDITIONS.index(self.failed_condition or CONDITIONS[-1])
        return {c: c not in ("C2", self.failed_condition) for c in CONDITIONS[:last + 1]}


def as_verdicts(results: Sequence[TripClass]) -> Verdicts:
    """The verdicts as one table, a column per field in ``Verdicts`` order."""
    return Verdicts(*([getattr(r, name) for r in results] for name in Verdicts._fields))


def as_classes(verdicts: Verdicts) -> list[TripClass]:
    """The table's rows as verdicts."""
    return [TripClass(*row) for row in zip(*verdicts, strict=True)]


def classify_trip(
    trip: TripRecord,
    alt: PtAlternative,
    net: TransitNetwork,
    lexicon: dict[str, tuple[str, ...]],
    cfg: ClassifierConfig = ClassifierConfig(),
) -> TripClass:
    if not is_in_service(net, alt, (trip.pickup_min, trip.dropoff_min)):
        return TripClass(INDEPENDENT, "C1")

    dest_hits = match_label(trip.dropoff_label, lexicon)
    orig_hits = match_label(trip.pickup_label, lexicon)
    if dest_hits:
        matched = net.nearest_station(trip.dlon, trip.dlat, dest_hits)
        return TripClass(FIRST_MILE, matched_station=matched,
                         both_ends_station=bool(orig_hits))
    if orig_hits:
        matched = net.nearest_station(trip.olon, trip.olat, orig_hits)
        return TripClass(LAST_MILE, matched_station=matched)

    return classify_thresholds(trip, alt, cfg)


def classify_thresholds(trip: TripRecord, alt: PtAlternative,
                        cfg: ClassifierConfig) -> TripClass:
    """C3-C6, the only conditions that read ``cfg``, for a trip that passed C1
    and matched no station label in C2."""
    if not (alt.available and alt.access_walk_m <= cfg.walk_threshold_m
            and alt.egress_walk_m <= cfg.walk_threshold_m):
        return TripClass(INDEPENDENT, "C3")

    t_tnc = trip.duration_min
    if t_tnc <= cfg.time_gate_min:
        c4 = (alt.t_pt_min - t_tnc) <= cfg.time_gate_min
    else:
        c4 = alt.t_pt_min <= cfg.time_ratio * t_tnc
    if not c4:
        return TripClass(INDEPENDENT, "C4")

    if not (alt.transfers <= cfg.max_transfers):
        return TripClass(INDEPENDENT, "C5")

    if not (alt.fare_rmb <= cfg.cost_ratio * trip.cost):
        return TripClass(INDEPENDENT, "C6")
    return TripClass(SUBSTITUTIVE)
