"""The benchmark's workloads: how each builds its inputs, which CLI stages it
measures, and which oracles judge its outputs. Why each was chosen is recorded
in BENCHMARK.json.

Every workload takes its seed from the runner; the program only ever sees the
generated files. Settings reach the CLI through a ``--config`` file and, for
``trips-bulk``, through the documented ``RIDELINK_*`` environment layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import checks
import widenet

# planted trip counts of the default ScenarioSpec
DEFAULT_COUNTS = {
    "first_mile": 800, "last_mile": 800, "substitutive": 900,
    "independent_c1": 600, "independent_c3": 700, "independent_c4": 500,
    "independent_c5": 300, "independent_c6": 400,
}
# workloads plant these counts scaled by their factor
PIPELINE_FACTOR = 0.25
BULK_FACTOR = 0.5
TRAIN_SEED = 7
# one search trial over two folds, with the tree shape pinned, so every
# workload seed trains (and explains) a model of the same size
PIPELINE_TRAIN = {
    "trials": 1,
    "folds": 2,
    "space": {"iterations": [100, 100], "depth": [4, 4],
              "min_data_in_leaf": [35, 35]},
}
SWEEP_BASELINES = {"walk_threshold_m": 400.0, "time_gate_min": 15.0}


@dataclass
class Workload:
    name: str
    stages: list                      # [(stage, extra CLI args)]
    config: Callable                  # config(ws, seed) -> --config tree
    checks: Callable                  # checks(ws, config) -> [(name, ok, detail)]
    env: dict = field(default_factory=dict)
    # builds the inputs under ws/city; None means `ridelink synth --seed`
    generate: Optional[Callable] = None


def _scaled(factor: float) -> dict:
    return {k: round(v * factor) for k, v in DEFAULT_COUNTS.items()}


def _synth_config(counts: dict, extra: dict):
    return lambda ws, seed: {"synth": dict(counts), **extra}


def _wide_config(ws: Path, seed: int) -> dict:
    city = ws / "city"
    return {
        "bbox": widenet.bbox(),
        "paths": {key: str(city / name) for key, name in (
            ("trips", "trips.csv"), ("stations", "stations.csv"),
            ("routes", "routes.csv"), ("fares", "fares.json"))},
    }


def _wide_generate(ws: Path, seed: int) -> None:
    widenet.generate(ws / "city", seed)


def _bulk_checks(ws: Path, config: dict) -> list:
    return [checks.check_no_rejections(ws), checks.check_ground_truth(ws),
            checks.check_elasticity_baseline(ws, SWEEP_BASELINES)]


def _pipeline_checks(ws: Path, config: dict) -> list:
    return _bulk_checks(ws, config) + [
        checks.check_shap_local_accuracy(ws, config),
        checks.check_pdp_spots(ws, config),
    ]


def _wide_checks(ws: Path, config: dict) -> list:
    planted = json.loads((ws / "city" / "planted.json").read_text())
    return [checks.check_planted_rejections(ws, planted),
            checks.check_planted_labels(ws, planted)]


WORKLOADS = {
    "pipeline": Workload(
        name="pipeline",
        stages=[("ingest", []), ("plan", []), ("classify", []), ("gridify", []),
                ("features", []), ("train", ["--seed", str(TRAIN_SEED)]),
                ("explain", []), ("elasticity", []), ("report", [])],
        config=_synth_config(_scaled(PIPELINE_FACTOR), {"train": PIPELINE_TRAIN}),
        checks=_pipeline_checks,
    ),
    "trips-bulk": Workload(
        name="trips-bulk",
        stages=[("ingest", []), ("plan", []), ("classify", []), ("gridify", []),
                ("features", []), ("elasticity", [])],
        env={"RIDELINK_JOBS": "2"},
        config=_synth_config(_scaled(BULK_FACTOR), {}),
        checks=_bulk_checks,
    ),
    "wide-network": Workload(
        name="wide-network",
        stages=[("ingest", []), ("plan", []), ("classify", []), ("gridify", [])],
        config=_wide_config,
        generate=_wide_generate,
        checks=_wide_checks,
    ),
}
