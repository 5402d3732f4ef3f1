"""Pipeline orchestration: one command per stage, one configuration tree.

Configuration is a JSON tree merged from four layers (later wins): built-in
defaults, the ``--config`` file, ``RIDELINK_*`` environment variables, and
command-line flags. Environment keys use ``__`` as the path separator, so
``RIDELINK_CLASSIFIER__WALK_THRESHOLD_M=500`` sets
``classifier.walk_threshold_m``; values parse as JSON with a plain-string
fallback. ``--set a.b=value`` does the same from the command line.
``load_config`` checks the merged tree once against ``SETTINGS``, which gives
every key its default, kind and bounds.

Stages communicate through files in the workspace directory. Each command
reads the artifacts of earlier stages by their well-known names and fails
with a machine-readable error naming the producing subcommand when one is
missing or does not parse. A reader raises what it naturally raises on a
bad file, and ``_read`` and ``_read_city`` alone turn those (``MALFORMED``)
into exit 2. Success prints a one-line JSON summary to stdout; failures print
a JSON error to stderr and exit 2 (input), 3 (config), or 4 (internal).

Every stage runs in its own process, so this module imports only ``errors``
and the standard library, and each command imports the modules it runs.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import datetime as _dt
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from .errors import CliError, ConfigError, InputError, MissingArtifactError, finite_number

if TYPE_CHECKING:
    from .classify import ClassifierConfig

ENV_PREFIX = "RIDELINK_"

# the ratios a model can explain: hexgrid.RATIOS, upper-cased
TARGETS = ("FCR", "LCR", "DSR", "ASR")

# workspace artifact name -> (producing subcommand, file name)
ARTIFACTS = {
    "trips_clean": ("ingest", "trips_clean.csv"),
    "rejections": ("ingest", "rejections.csv"),
    "iqr_report": ("ingest", "iqr_report.csv"),
    "alternatives": ("plan", "alternatives.jsonl"),
    "classified": ("classify", "classified.csv"),
    "summary": ("classify", "summary.json"),
    "cells": ("gridify", "cells.csv"),
    "cells_geojson": ("gridify", "cells.geojson"),
    "od_flows": ("gridify", "od_flows.csv"),
    "temporal": ("gridify", "temporal.csv"),
    "trip_stats": ("gridify", "trip_stats.json"),
    "breakdown": ("gridify", "breakdown.json"),
    "features": ("features", "features.csv"),
    "features_schema": ("features", "features_schema.json"),
    "vif_report": ("features", "vif_report.json"),
    "model": ("train", "model.json"),
    "trials": ("train", "trials.csv"),
    "cv_report": ("train", "cv_report.json"),
    "train_summary": ("train", "train_summary.json"),
    "shap": ("explain", "explain/shap.csv"),
    "importance": ("explain", "explain/importance.csv"),
    "pdp": ("explain", "explain/pdp.csv"),
    "beeswarm_svg": ("explain", "explain/beeswarm.svg"),
    "importance_svg": ("explain", "explain/importance.svg"),
    "pdp_svg": ("explain", "explain/pdp.svg"),
    "elasticity": ("elasticity", "elasticity.csv"),
}

# city input files; produced by synth unless the config points elsewhere
CITY_FILES = {
    "trips": "trips.csv",
    "stations": "stations.csv",
    "routes": "routes.csv",
    "fares": "fares.json",
    "poi": "poi.csv",
    "population": "population.csv",
    "roads": "roads.geojson",
    "scenario": "scenario.json",
}

# what a reader raises on a file that does not parse; cli maps each to exit 2
MALFORMED = (csv.Error, AttributeError, IndexError, KeyError, TypeError, ValueError)


# ---------------------------------------------------------------------------
# configuration


def _deep_merge(base: dict, override: dict) -> None:
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_merge(base[key], value)
        else:
            base[key] = value


def _parse_scalar(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _assign(tree: dict, path: list, value) -> None:
    """Set ``tree`` at the key ``path``, making the objects on the way."""
    node = tree
    for depth, part in enumerate(path[:-1], 1):
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{'.'.join(path[:depth])} must be a JSON object to hold "
                              f"{'.'.join(path)}, got {node!r}")
    node[path[-1]] = value


def env_overrides(environ=None) -> dict:
    environ = os.environ if environ is None else environ
    out: dict = {}
    for key in sorted(environ):
        if key.startswith(ENV_PREFIX):
            _assign(out, key[len(ENV_PREFIX):].lower().split("__"), _parse_scalar(environ[key]))
    return out


def _set_override(data: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set expects dotted.path=value, got {assignment!r}")
    dotted, raw = assignment.split("=", 1)
    parts = [p for p in dotted.strip().split(".") if p]
    if not parts:
        raise ConfigError(f"--set has an empty key in {assignment!r}")
    _assign(data, parts, _parse_scalar(raw))


class RunConfig:
    """The merged configuration tree, checked against ``SETTINGS``: each
    value holds the type its row gives it."""

    def __init__(self, data: dict):
        self.data = data

    @property
    def workspace(self) -> Path:
        return Path(self.data["workspace"])

    @property
    def days(self) -> int:
        return self.data["days"]

    @property
    def epoch(self) -> _dt.date:
        return self.data["epoch"]

    @property
    def target(self) -> str:
        return self.data["target"]

    def classifier(self) -> ClassifierConfig:
        from .classify import ClassifierConfig
        return ClassifierConfig(**self.data["classifier"])

    def bbox(self) -> tuple[float, float, float, float]:
        """The configured bbox, else the scenario manifest's; a bad box in
        the manifest is an input error."""
        if self.data["bbox"] is not None:
            return self.data["bbox"]
        manifest = self.workspace / "city" / CITY_FILES["scenario"]
        if not manifest.is_file():
            raise ConfigError(
                "bbox is not configured and no scenario manifest exists; set "
                "bbox in the config or generate a city with 'synth'")
        try:
            return _four_numbers(json.loads(manifest.read_text())["bbox"])
        except MALFORMED as exc:
            raise InputError(f"scenario manifest {manifest} has no readable bbox "
                             f"({exc!r}); re-run 'synth' or set bbox") from None

    # artifact and input paths ------------------------------------------

    def artifact(self, name: str) -> Path:
        _, filename = ARTIFACTS[name]
        return self.workspace / filename

    def need_artifact(self, name: str) -> Path:
        producer, filename = ARTIFACTS[name]
        path = self.workspace / filename
        if not path.is_file():
            raise MissingArtifactError(filename, producer)
        return path

    def input_file(self, key: str, required: bool = True) -> Optional[Path]:
        explicit = self.data["paths"].get(key)
        if explicit:
            path = Path(explicit)
            if not path.is_file():
                raise InputError(f"input file not found: {path} (paths.{key})")
            return path
        path = self.workspace / "city" / CITY_FILES[key]
        if not path.is_file():
            if required:
                raise MissingArtifactError(f"city/{CITY_FILES[key]}", "synth")
            return None
        return path


def _four_numbers(box) -> tuple[float, float, float, float]:
    """``box`` as (lon_min, lat_min, lon_max, lat_max); raises ``ValueError``
    unless it is a list of four finite numbers spanning a nonempty area."""
    if not (isinstance(box, list) and len(box) == 4 and all(map(finite_number, box))):
        raise ValueError(f"must be a list of four finite numbers, got {box!r}")
    lon_min, lat_min, lon_max, lat_max = (float(v) for v in box)
    if not (lon_min < lon_max and lat_min < lat_max):
        raise ValueError(f"is degenerate: {box!r}")
    return (lon_min, lat_min, lon_max, lat_max)


def _kind(text: str, test: Callable, read: Callable = lambda value: value) -> Callable:
    """A row's kind: ``read(value)`` if ``test(value)`` holds, else a ValueError."""
    def check(value):
        try:
            if test(value):
                return read(value)
        except (TypeError, ValueError):
            pass
        raise ValueError(f"must be {text}, got {value!r}")
    return check


# a row's kind when it names none: its default's
_KINDS = {
    bool: _kind("true or false", lambda v: isinstance(v, bool)),
    int: _kind("an integer", lambda v: type(v) is int),
    float: _kind("a finite number", finite_number, float),
    str: _kind("a string", lambda v: isinstance(v, str)),
    dict: _kind("a JSON object", lambda v: isinstance(v, dict)),
}
_SWEEP = _kind("a nonempty list of numbers, all finite",
               lambda v: isinstance(v, list) and v and all(map(finite_number, v)))


def _trip_fields(columns) -> bool:
    """Whether ``columns`` maps trip fields to header names and leaves no two
    fields on one header name. Only a set ``ingest.columns`` loads ``ingest``."""
    from .ingest import trip_header
    fields = trip_header(with_request=True)
    names = [columns.get(f, f) for f in fields]
    return (set(columns) <= set(fields) and all(isinstance(h, str) for h in columns.values())
            and len(set(names)) == len(names))


_SPACE = _kind("a JSON object", lambda v: isinstance(v, dict),  # with ParamSpace's tuple ranges
               lambda v: {k: tuple(r) if isinstance(r, list) else r for k, r in v.items()})


class Row(NamedTuple):
    """One setting: its default, and what a value must be. The kind is the
    default's unless ``kind`` is given, a null default also allows null, and
    a number lies above ``above`` and within [``least``, ``most``]."""

    default: object
    least: float = -math.inf
    most: float = math.inf
    above: float = -math.inf
    kind: Optional[Callable] = None

    def checked(self, path: str, value):
        """``value`` as the stages read it; raises ``ConfigError`` naming
        ``path`` when it is not of the row's kind or out of its bounds."""
        if value is None and self.default is None:
            return None
        try:
            value = (self.kind or _KINDS[type(self.default)])(value)
        except ValueError as exc:
            raise ConfigError(f"{path} {exc}") from None
        if type(self.default) in (int, float) and not (self.above < value
                                                        and self.least <= value <= self.most):
            bounds = [f"{word} {bound}" for word, bound in (
                ("above", self.above), ("at least", self.least), ("at most", self.most))
                if math.isfinite(bound)]
            raise ConfigError(f"{path} must be {' and '.join(bounds)}, got {value!r}")
        return value


# caps on counts, so that a typo cannot start a run that never ends
MAX_DAYS = 36_525           # a century of observation days, synth's too: each pickup a valid date
MAX_TRIALS = 10_000         # each trial fits train.folds models, seconds each at default scale
MAX_BACKGROUND = 1_000_000  # hexgrid.MAX_GRID_CELLS: the background is drawn from one row per cell

# Every setting: sections of rows, checked once by load_config. ``synth`` is
# one map, left to ScenarioSpec.validate: cli cannot import synth without
# numpy, and the bench --config brings a synth section to every stage,
# including the four that never load numpy.
SETTINGS: dict = {
    "workspace": Row("runs/default"),
    "days": Row(7, 1, MAX_DAYS),
    "bbox": Row(None, kind=_four_numbers),
    "epoch": Row("2022-09-01", kind=_kind("an ISO date", lambda v: isinstance(v, str),
                                          _dt.date.fromisoformat)),
    "target": Row("FCR", kind=_kind(f"one of {'/'.join(TARGETS)}",
                                    lambda v: isinstance(v, str) and v.upper() in TARGETS,
                                    str.upper)),
    "paths": {key: Row(None, kind=_KINDS[str]) for key in (
        "trips", "stations", "routes", "fares", "poi", "population", "roads", "districts")},
    "classifier": {
        "walk_threshold_m": Row(400.0, above=0),
        "time_gate_min": Row(15.0, above=0),
        "time_ratio": Row(2.0, above=0),
        "max_transfers": Row(2, 0),
        "cost_ratio": Row(0.5, above=0, most=1),
    },
    "planner": {"search_radius_m": Row(800.0, above=0), "transfer_penalty_min": Row(5.0, 0)},
    "ingest": {
        "iqr_k": Row(3.0, above=0),
        "per_day": Row(False),
        "columns": Row(None, kind=_kind(
            "a map from trip field names to header names, no two fields on one name",
            lambda v: isinstance(v, dict) and _trip_fields(v))),
    },
    "grid": {"side_km": Row(0.5, above=0, most=20_000)},  # km: half the Earth's 40,030 km girth
    "features": {"vif_threshold": Row(10.0)},
    "train": {"trials": Row(12, 1, MAX_TRIALS), "folds": Row(5, 2), "space": Row({}, kind=_SPACE)},
    "explain": {"background_size": Row(100, 1, MAX_BACKGROUND), "seed": Row(0, 0)},
    "elasticity": {
        "parameters": Row(["walk_threshold_m", "time_gate_min"], kind=_kind(
            "a list of distinct keys of elasticity.values", lambda v: isinstance(v, list) and all(
                p in DEFAULTS["elasticity"]["values"] for p in v) and len(set(v)) == len(v))),
        "values": {
            "walk_threshold_m": Row([300.0, 400.0, 500.0, 600.0, 700.0, 800.0], kind=_SWEEP),
            "time_gate_min": Row([10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0], kind=_SWEEP),
            "max_transfers": Row([1, 2, 3], kind=_SWEEP),
            "cost_ratio": Row([0.3, 0.5, 0.7], kind=_SWEEP),
        },
    },
    "synth": Row({}),
}


def _defaults(table: dict) -> dict:
    return {key: _defaults(row) if isinstance(row, dict) else row.default
            for key, row in table.items()}


DEFAULTS = _defaults(SETTINGS)


def _check(data: dict, table: dict, prefix: str = "") -> dict:
    """The tree of ``table``'s rows, each value read from ``data`` and become
    the type the stages read; a key that a section replaced with an object
    lacks reads as its default, and keys that the table lacks are dropped."""
    out = {}
    for key, row in table.items():
        path = prefix + key
        if isinstance(row, Row):
            out[key] = row.checked(path, data.get(key, copy.deepcopy(row.default)))
            continue
        value = data.get(key, {})
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be a JSON object, got {value!r}")
        out[key] = _check(value, row, f"{path}.")
    return out


def load_config(args: argparse.Namespace) -> RunConfig:
    data = copy.deepcopy(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ConfigError(f"config file is not valid UTF-8 JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        _deep_merge(data, loaded)
    _deep_merge(data, env_overrides())
    for assignment in getattr(args, "set", None) or []:
        _set_override(data, assignment)
    for dest, path in FLAG_PATHS.items():
        if getattr(args, dest, None) is not None:
            _assign(data, path, getattr(args, dest))
    return RunConfig(_check(data, SETTINGS))


FLAG_PATHS = {
    "workspace": ["workspace"],
    "days": ["days"],
    "bbox_flag": ["bbox"],
    "side_km": ["grid", "side_km"],
    "target": ["target"],
    "trials": ["train", "trials"],
    "folds": ["train", "folds"],
    "iqr_k": ["ingest", "iqr_k"],
    "parameter": ["elasticity", "parameters"],
}


def _numbers(text: str) -> list[float]:
    return [float(part) for part in text.split(",")]


# ---------------------------------------------------------------------------
# shared stage helpers


def _echo(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True))


def _read(cfg: RunConfig, name: str, read: Callable):
    """``read(path)`` of workspace artifact ``name``; an artifact that does not
    parse is an input error naming it and the stage that writes it."""
    path = cfg.need_artifact(name)
    try:
        return read(str(path))
    except MALFORMED as exc:
        raise InputError(f"{name} artifact {path} is corrupt ({type(exc).__name__}: "
                         f"{exc}); re-run '{ARTIFACTS[name][0]}'") from None


def _read_city(path: Path, read: Callable):
    """``read(path)`` of a city input file; one that does not parse is an
    input error naming it."""
    try:
        return read(str(path))
    except MALFORMED as exc:
        raise InputError(f"malformed input file {path} ({type(exc).__name__}: {exc})") from None


def _load_city_network(cfg: RunConfig):
    from .ptnet import load_network
    stations = cfg.input_file("stations")
    routes = cfg.input_file("routes")
    fares = cfg.input_file("fares", required=False)
    try:
        return load_network(str(stations), str(routes),
                            str(fares) if fares else None)
    except MALFORMED as exc:
        files = ", ".join(str(p) for p in (stations, routes, fares) if p)
        raise InputError(f"transit network failed to load: {type(exc).__name__}: {exc} "
                         f"(from {files})") from None


def _read_clean_trips(cfg: RunConfig):
    from .ingest import parse_trips
    trips, rejections = _read(cfg, "trips_clean", lambda p: parse_trips(p, cfg.bbox(), cfg.epoch))
    if rejections:
        first = rejections[0]
        raise InputError(f"trips_clean artifact {cfg.artifact('trips_clean')} has "
                         f"{len(rejections)} unreadable rows, the first on line {first.row}: "
                         f"{first.reason}; re-run 'ingest'")
    return trips


def _uncovered(exc: KeyError) -> InputError:
    """The input error for a trip that ``alternatives.jsonl`` has no journey for."""
    return InputError(f"alternatives cache does not cover the trip set ({exc}); re-run 'plan'")


def _grid(cfg: RunConfig):
    from . import hexgrid
    try:
        return hexgrid.build_grid(cfg.bbox(), cfg.data["grid"]["side_km"])
    except ValueError as exc:
        raise ConfigError(f"invalid grid settings: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(cfg: RunConfig, args) -> None:
    from . import synth
    overrides = dict(cfg.data["synth"])
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        spec = synth.ScenarioSpec(**overrides)
    except TypeError as exc:
        raise ConfigError(f"unknown synth option: {exc}") from None
    try:
        spec.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    city_dir = cfg.workspace / "city"
    try:
        paths = synth.generate(spec, city_dir)
    except RuntimeError as exc:
        raise InputError(str(exc)) from None
    _echo({"command": "synth", "city": str(city_dir),
           "trips": spec.total_trips(), "files": sorted(paths)})


def cmd_ingest(cfg: RunConfig, args) -> None:
    from .ingest import (iqr_filter, parse_trips, write_iqr_reports, write_rejections,
                         write_trips)
    settings = cfg.data["ingest"]
    trips, rejections = _read_city(cfg.input_file("trips"), lambda p: parse_trips(
        p, cfg.bbox(), cfg.epoch, settings["columns"]))
    try:
        kept, reports = iqr_filter(trips, settings["iqr_k"], settings["per_day"])
    except ValueError as exc:
        raise InputError(str(exc)) from None
    cfg.workspace.mkdir(parents=True, exist_ok=True)
    write_trips(kept, str(cfg.artifact("trips_clean")), cfg.epoch)
    write_rejections(rejections, str(cfg.artifact("rejections")))
    write_iqr_reports(reports, str(cfg.artifact("iqr_report")))
    _echo({"command": "ingest", "parsed": len(trips),
           "rejected": len(rejections), "kept": len(kept),
           "dropped_by_iqr": len(trips) - len(kept)})


def cmd_plan(cfg: RunConfig, args) -> None:
    from .ptnet import CachedPlanner, NetworkPlanner
    trips = _read_clean_trips(cfg)
    net = _load_city_network(cfg)
    planner = NetworkPlanner(net, **cfg.data["planner"])
    cache = CachedPlanner.of(planner, zip(trips.olon, trips.olat, trips.dlon, trips.dlat))
    cache.save(str(cfg.artifact("alternatives")))
    _echo({"command": "plan", "trips": len(trips), "cache_entries": len(cache),
           "states_expanded": planner.states_expanded})


def cmd_classify(cfg: RunConfig, args) -> None:
    from .classify import CONDITIONS, classify_all, write_classified, write_summary
    from .ptnet import CachedPlanner, station_lexicon
    trips = _read_clean_trips(cfg)
    net = _load_city_network(cfg)
    cache = _read(cfg, "alternatives", CachedPlanner.load)
    lexicon = station_lexicon(net)
    try:
        verdicts, summary = classify_all(trips, cache, net, lexicon,
                                         cfg.classifier())
    except KeyError as exc:
        raise _uncovered(exc) from None
    write_classified(trips, verdicts, str(cfg.artifact("classified")), cfg.epoch)
    write_summary(summary, str(cfg.artifact("summary")))
    _echo({"command": "classify", "trips": len(trips),
           "shares": summary["shares"],
           "failed_conditions": {c: verdicts.failed_condition.count(c) for c in CONDITIONS}})


def cmd_gridify(cfg: RunConfig, args) -> None:
    from . import hexgrid
    from .classify import read_classified
    trips, verdicts = _read(cfg, "classified", lambda p: read_classified(p, cfg.bbox(), cfg.epoch))
    net = _load_city_network(cfg)
    unknown = sorted(set(verdicts.matched_station) - {None} - set(net.stations))
    if unknown:
        raise InputError(f"classified artifact names {len(unknown)} station(s) the network "
                         f"lacks, such as {unknown[0]!r}; re-run 'classify'")
    grid = _grid(cfg)
    days = cfg.days
    origins, destinations = hexgrid.trip_rows(grid, trips)
    stats = hexgrid.compute_ratios(origins, destinations, verdicts.label, grid, days)
    districts = (_read_city(cfg.input_file("districts"), hexgrid.load_districts)
                 if cfg.data["paths"]["districts"] else None)
    flows = hexgrid.od_flows(origins, destinations, grid, days, districts=districts)
    profile = hexgrid.temporal_profile(trips, verdicts.label)
    stats_by_class = hexgrid.trip_stats(trips, verdicts.label)
    breakdown = hexgrid.complementary_breakdown(trips, verdicts.label, verdicts.matched_station, net)
    hexgrid.write_cell_stats(stats, str(cfg.artifact("cells")))
    hexgrid.write_cell_stats_geojson(grid, stats, str(cfg.artifact("cells_geojson")))
    hexgrid.write_od_flows(flows, str(cfg.artifact("od_flows")))
    hexgrid.write_temporal_profile(profile, str(cfg.artifact("temporal")))
    hexgrid.write_trip_stats(stats_by_class, str(cfg.artifact("trip_stats")))
    hexgrid.write_breakdown(breakdown, str(cfg.artifact("breakdown")))
    # a trip end off the grid is counted in no cell's o_total or a_total
    _echo({"command": "gridify", "cells": len(stats), "flows": len(flows), "trips": len(trips),
           "off_grid_origins": len(trips) - sum(cs.o_total for cs in stats.values()),
           "off_grid_destinations": len(trips) - sum(cs.a_total for cs in stats.values())})


def cmd_features(cfg: RunConfig, args) -> None:
    from . import features, hexgrid
    from .classify import read_classified
    trips, _ = _read(cfg, "classified", lambda p: read_classified(p, cfg.bbox(), cfg.epoch))
    net = _load_city_network(cfg)
    grid = _grid(cfg)
    stats = _read(cfg, "cells", hexgrid.read_cell_stats)
    expected = {hexgrid.cell_id(q, r) for q, r in grid.cells}
    if set(stats) != expected:
        raise InputError("grid settings do not match the cells artifact; "
                         "re-run 'gridify' with the current configuration")
    poi_path = cfg.input_file("poi", required=False)
    pop_path = cfg.input_file("population", required=False)
    roads_path = cfg.input_file("roads", required=False)
    pois = _read_city(poi_path, features.load_points) if poi_path else []
    population = (_read_city(pop_path, lambda p: features.load_points(
        p, value_column="population")) if pop_path else [])
    roads = _read_city(roads_path, features.load_roads) if roads_path else None
    try:
        matrix = features.assemble_features(grid, stats, net, trips,
                                            cfg.days, cfg.target, pois,
                                            population, roads)
    except ValueError as exc:
        raise InputError(f"cannot build features from these inputs: {exc}") from None
    if len(matrix.y) == 0:
        raise InputError(f"no grid cell has a defined {cfg.target}; "
                         f"nothing to model")
    try:
        filtered, report = features.apply_vif(matrix, cfg.data["features"]["vif_threshold"])
    except ValueError as exc:
        raise InputError(str(exc)) from None
    features.write_features(filtered, str(cfg.artifact("features")),
                            str(cfg.artifact("features_schema")))
    features.write_vif_report(report, str(cfg.artifact("vif_report")))
    _echo({"command": "features", "target": cfg.target,
           "cells": len(filtered.cell_ids), "columns": list(filtered.names),
           "dropped_collinear": list(report.dropped)})


def cmd_train(cfg: RunConfig, args) -> None:
    from . import boost, features
    matrix = _read(cfg, "features", features.read_features)
    if matrix.target != cfg.target:
        raise InputError(
            f"features artifact models {matrix.target} but the configured "
            f"target is {cfg.target}; re-run 'features'")
    settings = cfg.data["train"]
    folds, trials = settings["folds"], settings["trials"]
    minimum = max(4, folds)
    if len(matrix.y) < minimum:
        raise InputError(
            f"population too small to train on: {len(matrix.y)} cell(s) with "
            f"a defined {cfg.target}, need at least {minimum}")
    try:
        space = boost.ParamSpace(**settings["space"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid train.space: {exc}") from None
    try:
        best, log = boost.random_search(
            matrix.X, matrix.y, matrix.cell_ids, space, trials=trials,
            seed=args.seed, k=folds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    cv = next(t.cv for t in log if t.params == best)
    model = boost.fit(matrix.X, matrix.y, best, matrix.names, matrix.target)
    fit_eval = boost.evaluate(matrix.y, boost.predict(model, matrix.X))
    boost.save_model(model, str(cfg.artifact("model")))
    boost.write_trial_log(log, str(cfg.artifact("trials")))
    boost.write_cv_report(cv, str(cfg.artifact("cv_report")))
    summary = {
        "target": matrix.target,
        "rows": len(matrix.y),
        "trials": trials,
        "seed": args.seed,
        "best_params": dataclasses.asdict(best),
        "cv_pooled": dataclasses.asdict(cv.pooled),
        "train_fit": dataclasses.asdict(fit_eval),
    }
    with open(cfg.artifact("train_summary"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    _echo({"command": "train", "target": matrix.target, "trials": trials,
           "cv_mse": cv.pooled.mse, "cv_r2": cv.pooled.r2, "trees": len(model.trees),
           "leaves": sum(_leaf_count(tree) for tree in model.trees)})


def _leaf_count(node: dict) -> int:
    return 1 if "value" in node else _leaf_count(node["left"]) + _leaf_count(node["right"])


def cmd_explain(cfg: RunConfig, args) -> None:
    from . import boost, explain, features
    model = _read(cfg, "model", boost.load_model)
    matrix = _read(cfg, "features", features.read_features)
    if len(matrix.y) == 0:
        raise InputError(f"features artifact {cfg.artifact('features')} has no rows; "
                         f"re-run 'features'")
    if list(model.feature_names) != list(matrix.names):
        raise InputError("features artifact no longer matches the trained "
                         "model; re-run 'features' and 'train' together")
    seed = cfg.data["explain"]["seed"]
    background = explain.sample_background(
        matrix.X, cfg.data["explain"]["background_size"], seed)
    shap = explain.shap_values(model, matrix.X, background)
    curves = explain.pdp_curves(model, matrix.X, matrix.names)
    out_dir = cfg.workspace / "explain"
    written = explain.export_plots(out_dir, shap, matrix.X, curves, seed=seed)
    _echo({"command": "explain", "samples": len(matrix.y), "background": shap.n_background,
           "leaf_boxes": shap.leaf_boxes, "pdp_tree_rows": sum(c.tree_rows for c in curves),
           "files": sorted(str(p) for p in written)})


def cmd_elasticity(cfg: RunConfig, args) -> None:
    from . import sensitivity
    from .classify import read_classified
    from .ptnet import CachedPlanner
    settings = cfg.data["elasticity"]
    classifier = cfg.classifier()
    trips, verdicts = _read(cfg, "classified", lambda p: read_classified(p, cfg.bbox(), cfg.epoch))
    cache = _read(cfg, "alternatives", CachedPlanner.load)
    try:
        base = sensitivity.sweep_base(trips, verdicts, cache)
    except KeyError as exc:
        raise _uncovered(exc) from None
    reports = []
    for parameter in settings["parameters"]:
        try:
            reports.append(sensitivity.elasticity_sweep(
                base, classifier, parameter, settings["values"][parameter]))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    sensitivity.write_elasticity_csv(reports, str(cfg.artifact("elasticity")))
    for report in reports:
        svg_path = cfg.workspace / f"elasticity_{report.parameter}.svg"
        svg_path.write_text(sensitivity.elasticity_svg(report),
                            encoding="utf-8")
    _echo({"command": "elasticity",
           "parameters": [r.parameter for r in reports],
           "baseline_shares": {r.parameter: r.ratios[r.values.index(r.baseline)]
                               for r in reports}})


def cmd_report(cfg: RunConfig, args) -> None:
    import hashlib

    from . import svgchart
    from .classify import ALL_LABELS
    from .hexgrid import RATIOS, read_cell_stats

    def read_summary(path):
        summary = json.loads(Path(path).read_text(encoding="utf-8"))
        return summary, [100.0 * summary["shares"][label] for label in ALL_LABELS]

    def read_panels(path):
        """The hourly profile's small multiples."""
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        hours = [float(int(r["hour"])) for r in rows]
        return [(label, hours, [float(r[column]) for r in rows], [True] * len(rows))
                for label, column in (("first mile", "first_mile"),
                                      ("last mile", "last_mile"),
                                      ("substitutive", "substitutive"),
                                      ("independent", "independent"))]

    summary, shares = _read(cfg, "summary", read_summary)
    stats = _read(cfg, "cells", read_cell_stats)
    panels = _read(cfg, "temporal", read_panels)

    report_dir = cfg.workspace / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    share_svg = svgchart.bar_chart(list(ALL_LABELS), shares, "trip class shares", unit="%")
    (report_dir / "shares.svg").write_text(share_svg, encoding="utf-8")
    temporal_svg = svgchart.line_panels(panels, "hourly trips by class")
    (report_dir / "temporal.svg").write_text(temporal_svg, encoding="utf-8")

    defined = {name: sum(1 for s in stats.values() if s.ratio(name) is not None)
               for name in RATIOS}
    inventory = {}
    for name in sorted(ARTIFACTS):
        path = cfg.artifact(name)
        if not path.is_file():
            continue
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        inventory[name] = {
            "path": path.relative_to(cfg.workspace).as_posix(),
            "sha256": digest,
            "bytes": path.stat().st_size,
        }
    doc = {
        "classification": summary,
        "cells": {"total": len(stats), "with_defined_ratio": defined},
        "artifacts": inventory,
        "charts": ["report/shares.svg", "report/temporal.svg"],
    }
    with open(report_dir / "report.json", "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    _echo({"command": "report", "artifacts": len(inventory),
           "report": str(report_dir / "report.json")})


COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "plan": cmd_plan,
    "classify": cmd_classify,
    "gridify": cmd_gridify,
    "features": cmd_features,
    "train": cmd_train,
    "explain": cmd_explain,
    "elasticity": cmd_elasticity,
    "report": cmd_report,
}


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(f"invalid invocation: {message}")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--workspace", help="artifact directory")
    common.add_argument("--set", action="append", metavar="PATH=VALUE",
                        help="override one config key, e.g. grid.side_km=0.5")
    common.add_argument("--days", type=int, help="observation days for ratios")
    common.add_argument("--bbox", dest="bbox_flag", type=_numbers,
                        help="lon_min,lat_min,lon_max,lat_max")

    parser = _Parser(prog="ridelink", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", parents=[common],
                   help="generate a synthetic city with planted ground truth")\
       .add_argument("--seed", type=int, help="scenario seed override")
    p = sub.add_parser("ingest", parents=[common],
                       help="parse raw trips, reject bad rows, filter outliers")
    p.add_argument("--iqr-k", dest="iqr_k", type=float,
                   help="IQR multiplier for the outlier filter")
    sub.add_parser("plan", parents=[common],
                   help="plan transit alternatives for every cleaned trip")
    sub.add_parser("classify", parents=[common],
                   help="label trips against the planned alternatives")
    p = sub.add_parser("gridify", parents=[common],
                       help="aggregate ratios, profiles, flows, and stats")
    p.add_argument("--side-km", dest="side_km", type=float,
                   help="hexagon side length in km")
    p = sub.add_parser("features", parents=[common],
                       help="assemble per-cell features with VIF screening")
    p.add_argument("--target", help=f"ratio to model: {', '.join(TARGETS)}")
    p = sub.add_parser("train", parents=[common],
                       help="cross-validated hyperparameter search + final fit")
    p.add_argument("--seed", type=int, required=True,
                   help="search seed (required for reproducibility)")
    p.add_argument("--target", help=f"ratio to model: {', '.join(TARGETS)}")
    p.add_argument("--trials", type=int, help="random search trial count")
    p.add_argument("--folds", type=int, help="spatial cross-validation folds")
    sub.add_parser("explain", parents=[common],
                   help="attribution values, importance, dependence curves")
    p = sub.add_parser("elasticity", parents=[common],
                       help="threshold sweeps with arc elasticities")
    p.add_argument("--parameter", action="append",
                   help="classifier threshold to sweep (repeatable)")
    sub.add_parser("report", parents=[common],
                   help="bundle charts and a manifest from prior stages")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        cfg = load_config(args)
        COMMANDS[args.command](cfg, args)
        return 0
    except CliError as exc:
        print(json.dumps(exc.payload(), sort_keys=True), file=sys.stderr)
        return exc.exit_code
    except SystemExit:
        raise
    except KeyboardInterrupt:
        raise
    except BaseException as exc:
        payload = {"kind": "internal",
                   "error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
