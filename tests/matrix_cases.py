"""Hand-built classification matrix: one row per condition outcome.

Each case pins a single condition branch or boundary with a synthetic trip and
transit alternative whose fields are set exactly, so expected labels, failed
conditions, matched stations, and evaluation traces are all known by
construction. Shared by the classifier unit tests and the acceptance suite.
"""

from dataclasses import dataclass, field
from typing import Optional

from ridelink.classify import FIRST_MILE, INDEPENDENT, LAST_MILE, SUBSTITUTIVE
from ridelink.ptnet import Leg, PtAlternative, TransitNetwork, UNAVAILABLE
from trip_oracle import TripRecord


@dataclass
class Case:
    name: str
    trip: TripRecord
    alt: PtAlternative
    label: str
    failed: Optional[str] = None
    matched: Optional[str] = None
    both_ends: bool = False
    trace: dict = field(default_factory=dict)
    lexicon: Optional[dict] = None  # override; None means the network lexicon


def _trip(pickup_min, duration_min, cost, pickup_label="Somewhere", dropoff_label="Elsewhere",
          olon=121.010, olat=31.005, dlon=121.045, dlat=31.008, distance_km=6.0):
    return TripRecord(
        plate_id="T0001", olon=olon, olat=olat, pickup_label=pickup_label,
        pickup_min=pickup_min, dlon=dlon, dlat=dlat, dropoff_label=dropoff_label,
        dropoff_min=pickup_min + duration_min, distance_km=distance_km, cost=cost,
    )


def _metro_leg():
    return Leg("metro", "M1", "M1", "m1", "m2", 2.9, 1.72)


def _bus_leg():
    return Leg("bus", "B1", "B1", "b1", "b2", 5.1, 1.72)


def _alt(access=250.0, egress=250.0, t_pt=18.0, transfers=0, fare=3.0, legs=None):
    legs = (_metro_leg(),) if legs is None else legs
    return PtAlternative(
        available=True, access_walk_m=access, egress_walk_m=egress,
        t_pt_min=t_pt, transfers=transfers, fare_rmb=fare,
        gen_cost_min=t_pt + 5.0 * transfers, legs=legs,
    )


def _sub_trace():
    return {"C1": True, "C2": False, "C3": True, "C4": True, "C5": True, "C6": True}


def _ind_trace(failed):
    # C2 records whether a label matched; False just means classification
    # continued, so it is False on every path that reaches C3 and beyond
    order = ("C1", "C2", "C3", "C4", "C5", "C6")
    trace = {}
    for cond in order:
        trace[cond] = cond != failed and cond != "C2"
        if cond == failed:
            break
    return trace


def build_condition_matrix(net: TransitNetwork, lexicon: dict) -> list[Case]:
    day = 480     # 08:00, all routes running
    cases = [
        # --- C1: service window (alternative's own routes at trip start) ---
        Case("c1_night_trip_out_of_service",
             _trip(120, 20, 20.0), _alt(),
             INDEPENDENT, failed="C1", trace=_ind_trace("C1")),
        Case("c1_start_at_window_open_is_in_service",
             _trip(330, 20, 20.0), _alt(),
             SUBSTITUTIVE, trace=_sub_trace()),
        Case("c1_every_leg_must_run_bus_leg_still_closed",
             _trip(345, 20, 20.0), _alt(legs=(_metro_leg(), _bus_leg())),
             INDEPENDENT, failed="C1", trace=_ind_trace("C1")),
        # --- C2: station-label matching ---
        Case("c2_dropoff_name_match_is_first_mile",
             _trip(day, 20, 20.0, dropoff_label="Cedar Station"), _alt(),
             FIRST_MILE, matched="m3", trace={"C1": True, "C2": True}),
        Case("c2_dropoff_alias_match_is_first_mile",
             _trip(day, 20, 20.0, dropoff_label="Cedar Station B1"), _alt(),
             FIRST_MILE, matched="m3", trace={"C1": True, "C2": True}),
        Case("c2_dropoff_exit_code_match_is_first_mile",
             _trip(day, 20, 20.0, dropoff_label="Alder Station Exit B"), _alt(),
             FIRST_MILE, matched="m1", trace={"C1": True, "C2": True}),
        Case("c2_pickup_match_is_last_mile",
             _trip(day, 20, 20.0, pickup_label="Birch Station Exit A"), _alt(),
             LAST_MILE, matched="m2", trace={"C1": True, "C2": True}),
        Case("c2_both_ends_station_counts_as_first_mile",
             _trip(day, 20, 20.0, pickup_label="Alder Station",
                   dropoff_label="Dogwood Station"), _alt(),
             FIRST_MILE, matched="m4", both_ends=True,
             trace={"C1": True, "C2": True}),
        Case("c2_ambiguous_name_resolves_to_nearest_station",
             _trip(day, 20, 20.0, dropoff_label="Riverside Station",
                   dlon=121.0545, dlat=31.0004), _alt(),
             FIRST_MILE, matched="m4", trace={"C1": True, "C2": True},
             lexicon={**lexicon, "riverside station": ("m1", "m4")}),
        # --- C3: walk distances, both legs, boundary inclusive ---
        Case("c3_walks_exactly_at_threshold_pass",
             _trip(day, 20, 20.0), _alt(access=400.0, egress=400.0),
             SUBSTITUTIVE, trace=_sub_trace()),
        Case("c3_access_walk_over_threshold_fails",
             _trip(day, 20, 20.0), _alt(access=401.0),
             INDEPENDENT, failed="C3", trace=_ind_trace("C3")),
        Case("c3_egress_walk_over_threshold_fails",
             _trip(day, 20, 20.0), _alt(egress=401.0),
             INDEPENDENT, failed="C3", trace=_ind_trace("C3")),
        Case("c3_no_transit_alternative_fails",
             _trip(day, 20, 20.0), UNAVAILABLE,
             INDEPENDENT, failed="C3", trace=_ind_trace("C3")),
        # --- C4: time, short-trip gate branch vs ratio branch ---
        Case("c4_short_trip_loses_exactly_the_gate_pass",
             _trip(day, 12, 20.0), _alt(t_pt=27.0),
             SUBSTITUTIVE, trace=_sub_trace()),
        Case("c4_short_trip_loses_more_than_gate_fails",
             _trip(day, 12, 20.0), _alt(t_pt=27.5),
             INDEPENDENT, failed="C4", trace=_ind_trace("C4")),
        Case("c4_gate_branch_is_laxer_than_ratio_for_short_trips",
             _trip(day, 14, 20.0), _alt(t_pt=28.5),
             SUBSTITUTIVE, trace=_sub_trace()),
        Case("c4_long_trip_at_exact_ratio_pass",
             _trip(day, 20, 20.0), _alt(t_pt=40.0),
             SUBSTITUTIVE, trace=_sub_trace()),
        Case("c4_long_trip_over_ratio_fails",
             _trip(day, 20, 20.0), _alt(t_pt=40.5),
             INDEPENDENT, failed="C4", trace=_ind_trace("C4")),
        Case("c4_ratio_branch_is_laxer_than_gate_for_long_trips",
             _trip(day, 16, 20.0), _alt(t_pt=31.5),
             SUBSTITUTIVE, trace=_sub_trace()),
        # --- C5: transfer cap, boundary inclusive ---
        Case("c5_transfers_at_cap_pass",
             _trip(day, 20, 20.0), _alt(transfers=2),
             SUBSTITUTIVE, trace=_sub_trace()),
        Case("c5_transfers_over_cap_fail",
             _trip(day, 20, 20.0), _alt(transfers=3),
             INDEPENDENT, failed="C5", trace=_ind_trace("C5")),
        # --- C6: fare ratio, boundary inclusive ---
        Case("c6_fare_exactly_half_of_cost_pass",
             _trip(day, 20, 20.0), _alt(fare=10.0),
             SUBSTITUTIVE, trace=_sub_trace()),
        Case("c6_fare_over_half_of_cost_fails",
             _trip(day, 20, 20.0), _alt(fare=10.01),
             INDEPENDENT, failed="C6", trace=_ind_trace("C6")),
    ]
    return cases
