"""Run the benchmark over several seeds and summarise it.

    python3 bench/collect.py --seeds 1-10 --out results.json
    python3 bench/collect.py --workloads wide-network --seeds 1-5 --no-trace

For each workload, runs ``bench/run.py`` once per seed with tracing off and
reports, per end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median, from ``statistics.quantiles``),
against the metric's bound in ``BENCHMARK.json``, and the same figures for
each stage's scaled time, which carries no bound. It then makes one traced
run at the first seed and takes its per-layer metrics; the tracing overhead
is ``cli.trace_overhead_s`` (traced minus untraced pass, both in one
process), and ``traced_minus_wall_s`` is the traced stages' time minus the
untraced run's sum of stage means for the same seed, before scaling, which
also drops the per-stage interpreter start-up. The traced and untraced runs of that seed must write
byte-identical workspaces; a difference counts as one failed operation, and
the script exits 1 if any operation failed. Run it from the root of a
checkout. The committed ``bench/baseline.json`` is this script's output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    work = Path.cwd() / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        out = Path(tmp) / "run.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(traced)), "--out", str(out)],
            capture_output=True, text=True)
        if not out.exists():
            raise RuntimeError(f"{workload} seed {seed} wrote no record "
                               f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
        return json.loads(out.read_text())


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def summarise(records: list[dict], bounds: dict) -> dict:
    out = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in records]
        out[name] = {**spread(values), "bound": bound,
                     "unit": records[0]["metrics"][name]["unit"],
                     "values": values}
    return out


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    doc = {
        "platform": {"machine": platform.machine(), "cpus": os.cpu_count(),
                     "python": platform.python_version()},
        "seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    worst = 0.0
    for workload in args.workloads.split(","):
        records = [run_once(workload, seed, args.seconds, False) for seed in seeds]
        summary = summarise(records, bounds)
        entry = {
            "end_to_end": summary,
            # scaled like wall_s, as a stage metric would be
            "stage_s": {stage: spread([r["stage_s"][stage] * r["scale"] for r in records])
                        for stage in records[0]["stage_s"]},
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "failures": [f"seed {r['seed']} {name}: {detail}" for r in records
                         for name, ok, detail in r["ops"] if not ok],
            "digests": {str(r["seed"]): r["digest"] for r in records},
        }
        if records[0].get("model_params"):
            entry["model_params"] = {str(r["seed"]): r["model_params"] for r in records}
        for name, s in summary.items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  <-- over bound/3"
            worst = max(worst, s["spread"] / s["bound"])
            print(f"{workload:<13} {name:<12} median {s['median']:10.4f} {s['unit']:<3}"
                  f" spread {s['spread']:.3f} (bound {s['bound']}){flag}")
        for stage, s in entry["stage_s"].items():
            print(f"{workload:<13} {stage + '_s':<12} median {s['median']:10.4f} s  "
                  f" spread {s['spread']:.3f} (stage time, no bound)")
        if not args.no_trace:
            traced = run_once(workload, seeds[0], args.seconds, True)
            layer = {k: v["value"] for k, v in traced["metrics"].items()}
            untraced = records[0]
            entry["traced"] = {
                "seed": seeds[0],
                "correct": traced["correct"],
                "per_layer": layer,
                "tracing_overhead_s": layer["cli.trace_overhead_s"],
                "traced_minus_wall_s": layer["cli.traced_s"]
                - sum(untraced["stage_s"].values()),
                "digest_matches_untraced": traced.get("digest") == untraced["digest"],
                "missing": traced.get("missing", []),
            }
            entry["attempted"] += traced["attempted"] + 1
            entry["failed"] += traced["failed"]
            entry["failures"] += [f"traced seed {seeds[0]} {name}: {detail}"
                                  for name, ok, detail in traced["ops"] if not ok]
            # one more operation: both runs of one seed write the same files
            if not entry["traced"]["digest_matches_untraced"]:
                entry["failed"] += 1
                entry["failures"].append(
                    f"seed {seeds[0]}: traced and untraced workspaces differ")
            print(f"{workload:<13} traced: overhead "
                  f"{entry['traced']['tracing_overhead_s']:+.3f} s, digest match "
                  f"{entry['traced']['digest_matches_untraced']}")
        print(f"{workload:<13} failed {entry['failed']} of {entry['attempted']} operations")
        for failure in entry["failures"]:
            print(f"{workload:<13}   {failure}")
        doc["workloads"][workload] = entry
    print(f"largest spread / bound: {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 1 if any(w["failed"] for w in doc["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
