"""ridelink benchmark runner.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 40 --trace 0

Run from the root of a ridelink checkout; the package is imported from
``src/``, so nothing needs installing. An untraced run makes passes over the
workload. Each pass builds the inputs from ``--seed`` and then runs the
workload's CLI stages in order, each as a ``python -m ridelink <stage>``
process, interpreter start-up included, and each just after one run of the
fixed reference work (``reference.py``). Passes repeat while the next one is
expected to end within ``--seconds``, and at least ``MIN_PASSES`` run. Every
pass rewrites the same files, and the workspace after the first and the
last pass must be byte-identical.

On a shared machine the CPU's speed drifts by a third or more over minutes,
as other tenants come and go: runs switch between a fast and a slow state
that lasts seconds, and every stage slows together. The reference work,
timed before every stage, slows with them. So a stage's time is the mean of
its passes, scaled by ``REF_S`` divided by the reference's mean time:
``wall_s`` is the sum of the scaled stage means, in seconds on a machine
that runs the reference in ``REF_S`` seconds. Means, not medians, because
both estimate the same mix of fast and slow periods, so their ratio cancels
it; a median of a few samples jumps between the two states. The time left
after the last pass goes to more set-ups, and ``setup_s`` is the scaled
median set-up. The unscaled times are printed too.
The outputs are then checked against the workload's oracles, and the
workspace digest is printed.

With ``--trace 1`` the set-up and the stages run in this process through
``ridelink.cli.main``, once plain and once with span-recording wrappers
around each layer's public functions (``bench/spans.py``); the run reports
per-layer metrics from the wrapped pass instead of end-to-end metrics, and
the difference between the passes as the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation is one
stage invocation (set-up and reference work included) or one output check. Working files go
under ``.bench_work/`` in the current directory and are removed at the end;
a traced run leaves its spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS

MIN_PASSES = 2           # passes of set-up and stages in an untraced run
MAX_PASSES = 20
REFERENCE = Path(__file__).resolve().parent / "reference.py"
REF_S = 0.3              # timings are scaled to a machine that runs it in this
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"



def child_env(extra: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("RIDELINK_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    env.update(extra)
    return env


def stage_argv(stage: str, ws: Path, config: Path, extra: list) -> list:
    return [stage, "--workspace", str(ws), "--config", str(config), *extra]


def run_process(argv: list, env: dict, log: Path) -> tuple[float, float, int]:
    """Run ``python -m ridelink <argv>``; returns (wall s, max RSS MB, exit
    code)."""
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "ridelink", *argv],
                                stdout=out, stderr=out, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Run:
    """One benchmark run: its workspace, operations and timings."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.dir = WORK / f"{workload.name}-s{seed}-{os.getpid()}"
        self.ws = self.dir / "ws"
        self.config = self.dir / "config.json"
        self.log = self.dir / "stages.log"
        self.ops: list[tuple[str, bool, str]] = []
        self.settings = workload.config(self.ws, seed)
        self.dir.mkdir(parents=True)
        self.config.write_text(json.dumps(self.settings, indent=2))

    def op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ops.append((name, bool(ok), detail))
        return bool(ok)

    def stage_op(self, name: str, rc: int) -> bool:
        """Record a stage process; a failure keeps the end of its output."""
        detail = f"exit {rc}"
        if rc != 0 and self.log.exists():
            detail += ": " + self.log.read_text(errors="replace")[-400:].strip()
        return self.op(name, rc == 0, detail)

    def run_checks(self) -> None:
        for name, ok, detail in self.workload.checks(self.ws, self.settings):
            self.op(f"check:{name}", ok, detail)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.ops if not ok)


def measure(run: Run, seconds: float) -> dict:
    """Untraced run: passes of the set-up and every stage, each stage as its
    own process after a reference run, repeated while the next pass is
    expected to end within ``seconds`` (at least ``MIN_PASSES``)."""
    wl = run.workload
    env = child_env(wl.env)
    peak_rss = 0.0
    ref_times: list[float] = []
    setup_times: list[float] = []
    stage_times: dict[str, list[float]] = {stage: [] for stage, _ in wl.stages}
    first_digest = last_digest = ""

    def reference() -> bool:
        start = time.perf_counter()
        rc = subprocess.run([sys.executable, str(REFERENCE)], env=env, cwd=ROOT,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
                            ).returncode
        ref_times.append(time.perf_counter() - start)
        return run.op("reference", rc == 0, f"exit {rc}")

    def setup() -> bool:
        start = time.perf_counter()
        if wl.generate is not None:
            wl.generate(run.ws, run.seed)
            rc = 0
        else:
            argv = stage_argv("synth", run.ws, run.config, ["--seed", str(run.seed)])
            rc = run_process(argv, env, run.log)[2]
        setup_times.append(time.perf_counter() - start)
        return run.stage_op("setup", rc)

    def stage_once(stage, extra) -> bool:
        nonlocal peak_rss
        wall, rss, rc = run_process(
            stage_argv(stage, run.ws, run.config, extra), env, run.log)
        peak_rss = max(peak_rss, rss)
        stage_times[stage].append(wall)
        return run.stage_op(f"stage:{stage}", rc)

    start = time.perf_counter()
    passes = 0
    while passes < MAX_PASSES:
        if not (setup()
                and all(reference() and stage_once(s, extra)
                        for s, extra in wl.stages)):
            return {}
        passes += 1
        last_digest = checks.workspace_digest(run.ws)
        first_digest = first_digest or last_digest
        spent = time.perf_counter() - start
        if passes >= MIN_PASSES and spent + spent / passes > seconds:
            break
    stable = first_digest == last_digest
    run.op("check:digest_stable", stable,
           f"first and last of {passes} passes wrote "
           + ("the same workspace" if stable else "different workspaces"))
    # the time the last pass left goes to more set-ups, which rewrite the
    # same inputs, so that setup_s is the median of more than a few samples
    while time.perf_counter() - start + statistics.mean(setup_times) <= seconds:
        if not setup():
            return {}
    run.run_checks()

    stage_s = {stage: statistics.mean(v) for stage, v in stage_times.items()}
    scale = REF_S / statistics.mean(ref_times)
    return {
        "digest": last_digest,
        "model_params": model_params(run.ws),
        "stage_s": stage_s,
        "stage_samples": stage_times,
        "setup_times": setup_times,
        "ref_times": ref_times,
        "scale": scale,
        "metrics": {
            "wall_s": sum(stage_s.values()) * scale,
            "setup_s": statistics.median(setup_times) * scale,
            "peak_rss_mb": peak_rss,
        },
    }


def measure_traced(run: Run) -> dict:
    """Traced run, in this process: set-up and stages once without the layer
    wrappers, then once more with them. Per-layer metrics come from the
    second pass; the difference between the passes is the tracing overhead."""
    wl = run.workload
    start = time.perf_counter()
    import ridelink.cli as cli
    import_s = time.perf_counter() - start

    for key in [k for k in os.environ if k.startswith("RIDELINK_")]:
        del os.environ[key]
    os.environ.update(wl.env)
    echoes = {}

    def run_stage(tracer, stage, extra) -> bool:
        tracer.stage = stage
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = tracer.call(f"cli.{stage}", cli.main,
                             (stage_argv(stage, run.ws, run.config, extra),), {})
        lines = out.getvalue().strip().splitlines()
        if rc == 0 and lines:
            echoes[stage] = json.loads(lines[-1])
        return run.op(f"stage:{stage}", rc == 0, f"exit {rc}")

    def run_pass(tracer) -> tuple[bool, float]:
        """Set-up, then the stages; returns (all ok, CPU s of the stages)."""
        if wl.generate is not None:
            wl.generate(run.ws, run.seed)
            ok = run.op("setup", True)
        else:
            ok = run_stage(tracer, "synth", ["--seed", str(run.seed)])
        cpu0 = time.process_time()
        for stage, extra in wl.stages:
            ok = ok and run_stage(tracer, stage, extra)
        return ok, time.process_time() - cpu0

    plain = spans.Tracer()
    if not run_pass(plain)[0]:
        return {}
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        ok, cpu_s = run_pass(tracer)
    finally:
        spans.unpatch(undo)
        tracer.stage = "-"
    if not ok:
        return {}
    run.run_checks()
    measured = [stage for stage, _ in wl.stages]
    untraced_s = sum(plain.total(f"cli.{stage}") for stage in measured)
    metrics = spans.layer_metrics(tracer, measured, echoes, import_s, cpu_s,
                                  untraced_s)
    spans_path = WORK / f"trace-{wl.name}-s{run.seed}.json"
    spans_path.write_text(json.dumps([vars(s) for s in tracer.spans]))
    return {
        "digest": checks.workspace_digest(run.ws),
        "model_params": model_params(run.ws),
        "metrics": metrics,
        "missing": tracer.missing,
        "hook_errors": dict(tracer.hook_errors),
        "spans": str(spans_path.relative_to(ROOT)),
    }


def model_params(ws: Path) -> dict:
    """The trained model's hyperparameters, which set explain's cost."""
    path = ws / "train_summary.json"
    return json.loads(path.read_text())["best_params"] if path.exists() else {}


def metric_units(key: str) -> dict:
    """Metric name -> unit, for BENCHMARK.json's ``end_to_end`` or
    ``per_layer`` list."""
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def report(run: Run, result: dict, traced: bool) -> dict:
    units = metric_units("per_layer" if traced else "end_to_end")
    values = result.get("metrics", {})
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    attempted = len(run.ops)
    failed = run.failed
    print(f"workload {run.workload.name} seed {run.seed} trace {int(traced)}: "
          f"fail_rate {failed}/{attempted}")
    if not traced and result:
        print(f"  unscaled times; scale {result['scale']:.4f} = {REF_S} s / mean of "
              "reference runs " + " ".join(f"{t:.3f}" for t in result["ref_times"]))
        print("  setup (s): " + " ".join(f"{t:.3f}" for t in result["setup_times"]))
        for stage, value in result["stage_s"].items():
            print(f"  {stage + '_s':<14}{value:8.3f} s mean  passes: "
                  + " ".join(f"{t:.3f}" for t in result["stage_samples"][stage]))
    for name, unit in units.items():
        print(f"  {name:<36}{metrics[name]['value']:14.4f} {unit}")
    for name, ok, detail in run.ops:
        if name.startswith("check:") or not ok:
            print(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    if result.get("missing"):
        print("  missing layer functions (metrics read 0): "
              + ", ".join(result["missing"]))
    if result.get("hook_errors"):
        print(f"  unreadable results (metrics read 0): {result['hook_errors']}")
    if result.get("model_params"):
        print(f"  model params {json.dumps(result['model_params'], sort_keys=True)}")
    if result.get("digest"):
        print(f"  workspace digest {result['digest']}")
    return {"correct": failed == 0 and bool(result), "attempted": max(1, attempted),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full run record here (JSON)")
    args = parser.parse_args(argv)
    if not (SRC / "ridelink" / "cli.py").is_file():
        print(f"bench: no ridelink sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    sys.path.insert(0, str(SRC))

    run = Run(WORKLOADS[args.workload], args.seed)
    try:
        result = (measure_traced(run) if args.trace
                  else measure(run, args.seconds))
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    doc = report(run, result, bool(args.trace))
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, **doc,
                  **{k: v for k, v in result.items() if k != "metrics"},
                  "ops": run.ops}
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(doc, sort_keys=True))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
