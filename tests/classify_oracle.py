"""The classifier one ``TripRecord`` at a time: ``classify_trip`` and
``classify_thresholds`` are kept verbatim from ``ridelink.classify`` as it was
before it judged the rows of a ``ridelink.ingest.Trips`` table. The oracle for
``classify_all``."""

from __future__ import annotations

from ridelink.classify import (FIRST_MILE, INDEPENDENT, LAST_MILE, SUBSTITUTIVE, ClassifierConfig,
                               TripClass, match_label)
from ridelink.ptnet import PtAlternative, TransitNetwork, is_in_service
from trip_oracle import TripRecord


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
