"""The synthetic city's trip planting one draw at a time: the oracle for
``ridelink.synth._Factory.plant_all``, which verifies its draws in planner
blocks. ``classify``, ``plant`` and ``plant_all`` are kept verbatim from the
loop that ``_Factory`` ran before it planned in blocks; only the class name
and the imports are new. Each draw is planned and classified before the next
is drawn, so the random stream is the one the block loop must reproduce.

Each draw is now a ``Trips`` table of one row, so ``classify`` judges row 0
and ``plant_all`` joins the shuffled draws into one table; the loops are
otherwise unchanged.

``read_ground_truth`` reads back the ``ground_truth.csv`` that
``ridelink.synth.write_ground_truth`` writes; only the tests read that file."""

from __future__ import annotations

import csv
from typing import Optional

from classify_oracle import TripClass
from ridelink.classify import classify_trip
from ridelink.ingest import Trips
from ridelink.synth import GroundTruth, _Factory


class OracleFactory(_Factory):
    def classify(self, trip: Trips) -> TripClass:
        alt = self.planner.plan(trip.olon[0], trip.olat[0], trip.dlon[0], trip.dlat[0])
        return TripClass(*classify_trip(trip, 0, alt, self.net, self.lexicon, self.cfg))

    def plant(self, recipe: str) -> tuple[Trips, str, Optional[str]]:
        draw, label, violated = self.RECIPES[recipe]
        for _ in range(self.spec.max_attempts):
            trip = draw(self)
            got = self.classify(trip)
            if got.label == label and got.failed_condition == violated:
                return trip, label, violated
        raise RuntimeError(f"could not place a {recipe} trip in "
                           f"{self.spec.max_attempts} attempts; the scenario "
                           f"geometry cannot express it")

    def plant_all(self) -> tuple[Trips, list[GroundTruth]]:
        trips: list[Trips] = []
        intents: list[tuple[str, Optional[str]]] = []
        for recipe, count in self.spec.planted_counts().items():
            for _ in range(count):
                trip, label, violated = self.plant(recipe)
                trips.append(trip)
                intents.append((label, violated))
        order = self.rng.permutation(len(trips))
        shuffled = Trips.empty()
        for i in order:
            shuffled.extend(trips[i])
        truth = [GroundTruth(trip_index=new_idx,
                             intended_class=intents[old_idx][0],
                             violated_condition=intents[old_idx][1])
                 for new_idx, old_idx in enumerate(order)]
        return shuffled, truth


def read_ground_truth(path) -> list[GroundTruth]:
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(GroundTruth(
                trip_index=int(row["trip_index"]),
                intended_class=row["intended_class"],
                violated_condition=row["violated_condition"] or None))
    out.sort(key=lambda g: g.trip_index)
    return out
