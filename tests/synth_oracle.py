"""The synthetic city's trip planting one draw at a time: the oracle for
``ridelink.synth._Factory.plant_all``, which verifies its draws in planner
blocks. ``classify``, ``plant`` and ``plant_all`` are kept verbatim from the
loop that ``_Factory`` ran before it planned in blocks; only the class name
and the imports are new. Each draw is planned and classified before the next
is drawn, so the random stream is the one the block loop must reproduce.

``read_ground_truth`` reads back the ``ground_truth.csv`` that
``ridelink.synth.write_ground_truth`` writes; only the tests read that file."""

from __future__ import annotations

import csv
from typing import Optional

from ridelink.classify import TripClass, classify_trip
from ridelink.ingest import TripRecord
from ridelink.synth import GroundTruth, _Factory


class OracleFactory(_Factory):
    def classify(self, trip: TripRecord) -> TripClass:
        alt = self.planner.plan(trip.olon, trip.olat, trip.dlon, trip.dlat)
        return classify_trip(trip, alt, self.net, self.lexicon, self.cfg)

    def plant(self, recipe: str) -> tuple[TripRecord, str, Optional[str]]:
        draw, label, violated = self.RECIPES[recipe]
        for _ in range(self.spec.max_attempts):
            trip = draw(self)
            got = self.classify(trip)
            if got.label == label and got.failed_condition == violated:
                return trip, label, violated
        raise RuntimeError(f"could not place a {recipe} trip in "
                           f"{self.spec.max_attempts} attempts; the scenario "
                           f"geometry cannot express it")

    def plant_all(self) -> tuple[list[TripRecord], list[GroundTruth]]:
        trips: list[TripRecord] = []
        intents: list[tuple[str, Optional[str]]] = []
        for recipe, count in self.spec.planted_counts().items():
            for _ in range(count):
                trip, label, violated = self.plant(recipe)
                trips.append(trip)
                intents.append((label, violated))
        order = self.rng.permutation(len(trips))
        shuffled = [trips[i] for i in order]
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
