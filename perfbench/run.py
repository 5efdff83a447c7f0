#!/usr/bin/env python3
"""Benchmark of `mexp` leave-one-subject-out (LOSO) runs on synthetic data.

    python3 perfbench/run.py --workload desk_iip_cold [--seed 7] [--seconds 18] [--trace 0|1]

Run it from anywhere; it measures the `src/mexp` next to this directory and
keeps its files under `.perfbench/` beside it. The workloads are described in
`workloads.py`. For one workload the benchmark

1. sets up: synthesizes the dataset from `--seed`, writes it as PGM frames
   and, for a warm workload, fills the descriptor cache. It does this three
   times, or up to nine while the set-ups took under 1.5 s in all, and
   reports the median as `setup_s`;
2. runs a closed loop with one client for `--seconds`: each timed run is one
   LOSO evaluation (`dataset.load_dataset`, `pipeline.run_loso`,
   `pipeline.emit_report`) in a fresh process, started when the previous one
   has ended, with library defaults `jobs = 1` and pipeline `seed = 0`;
3. checks every run's report (see `worker.check_report`), requires every run
   of the seed to give the same predictions and per-fold C and P, and, for the
   seeds listed in `reference.json` (the default seed among them), the ones
   recorded there. A run that fails any of these counts in `failed_runs`.

With `--trace 0` it prints `loso_s`, `setup_s`, `peak_rss_mb` and `accuracy`
(medians over runs) and `failed_runs`. With `--trace 1` it alternates
untraced and traced runs instead and prints the per-layer metrics of
`tracing.LAYER_METRICS` (medians over traced runs) and `trace.overhead_ratio`.
Each metric is printed as `name = value unit`; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and `metrics`.

Times are calibrated seconds (see `calibration.py`): wall seconds scaled by the
machine speed measured just before and after each timed step, so that the
numbers do not follow the speed swings of a shared machine. The median wall
seconds are printed beside them and kept in `.perfbench/*/result.json` with
the run environment. Every process runs with one BLAS thread
(OPENBLAS_NUM_THREADS=1): on a 2-core machine a second thread gave no
speed-up.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
from calibration import machine_speed
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_MIN_S = 1.5
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1"}
STEP_TIMEOUT_S = 170


class StepFailed(Exception):
    pass


def worker(job):
    """Run one worker step to completion; its JSON result."""
    env = {k: v for k, v in os.environ.items() if k != "MEXP_CACHE_DIR"}
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(job)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=STEP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as e:
        raise StepFailed(f"{job['mode']} step timed out after {e.timeout} s") from e
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise StepFailed(f"{job['mode']} step exited with code {done.returncode}")
    return json.loads(lines[-1])


def calibrated(job):
    """`worker(job)` with the machine speed measured just before and after
    it, and the step's calibrated seconds."""
    before = machine_speed()
    result = worker(job)
    result["speed"] = (before + machine_speed()) / 2
    result["seconds"] = result["wall_s"] * result["speed"]
    return result


def set_up(workload, args, work):
    """The workload's dataset, set up SETUP_REPEATS times, or more while the
    set-ups took under SETUP_MIN_S seconds in all (once when tracing); the
    last copy is kept. One speed measurement before and one after serve
    every set-up."""
    before = machine_speed()
    setups = []
    while not setups or not args.trace and (
        len(setups) < SETUP_REPEATS
        or len(setups) < SETUP_MAX_REPEATS and sum(r["wall_s"] for r in setups) < SETUP_MIN_S
    ):
        i = len(setups)
        setups.append(worker({
            "mode": "setup", "src": str(SRC), "workdir": str(work / f"setup{i}"),
            "spec": {**workload.synth_spec(args.scale), "seed": args.seed},
            "config": workload.config, "warm": workload.warm,
        }))
        if i:
            shutil.rmtree(work / f"setup{i - 1}")
    speed = (before + machine_speed()) / 2
    for r in setups:
        r["speed"] = speed
        r["seconds"] = r["wall_s"] * speed
    return setups


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest():
    """Identifies the code measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def reference_digest(workload, seed, scale):
    """Digest of the outputs recorded for this workload and seed, if any."""
    if scale != "full":
        return None
    digests = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return digests.get(workload, {}).get(str(seed))


class Runs:
    """Timed runs of one workload and the checks across them."""

    def __init__(self, workload, setup, work, reference):
        self.workload = workload
        self.setup = setup
        self.work = work
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.untraced = []
        self.traced = []

    def one(self, trace):
        n = self.attempted
        self.attempted += 1
        out = self.work / f"out{n}"
        cache = Path(self.setup["cache_dir"]) if self.workload.warm else self.work / f"cache{n}"
        job = {
            "mode": "run", "src": str(SRC), "index": self.setup["index"],
            "cache_dir": str(cache), "config": self.workload.config, "out": str(out),
            "trace": trace, "spans": str(self.work / f"spans{n}.json"),
        }
        try:
            result = calibrated(job)
        except StepFailed as e:
            print(f"run {n}: {e}", file=sys.stderr)
            self.failed += 1
            return
        finally:
            shutil.rmtree(out, ignore_errors=True)
            if not self.workload.warm:
                shutil.rmtree(cache, ignore_errors=True)
        problems = result["problems"]
        self.digest = self.digest or result["digest"]
        if result["digest"] != self.digest:
            problems.append(f"outputs differ from the first run ({result['digest']})")
        if self.reference and result["digest"] != self.reference:
            problems.append(f"outputs differ from reference.json ({result['digest']})")
        for problem in problems:
            print(f"run {n}: {problem}", file=sys.stderr)
        self.failed += bool(problems)
        if trace:
            spans = json.loads(Path(job["spans"]).read_text(encoding="utf-8"))
            layers = tracing.layer_metrics(
                [tracing.Span.from_json(s) for s in spans],
                result["cache_mb_written"], result["smo_cap_hits"],
            )
            result["layers"] = {
                name: value * result["speed"] if tracing.LAYER_METRICS[name] == "s" else value
                for name, value in layers.items()
            }
            self.traced.append(result)
        else:
            self.untraced.append(result)


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: smallest sets, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "mexp" / "__init__.py").is_file():
        print(f"error: no mexp sources at {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"{workload.name}-seed{args.seed}-{args.scale}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    os.environ.update(BLAS_THREADS)
    try:
        setups = set_up(workload, args, work)
    except StepFailed as e:
        print(f"error: set-up failed: {e}", file=sys.stderr)
        return 1
    setup = setups[-1]
    env = {
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": setup["numpy"],
        "openblas": setup["openblas"], "blas_threads": BLAS_THREADS,
        "workload": workload.name, "seed": args.seed, "scale": args.scale,
        "clips": setup["clips"], "run_seconds": args.seconds,
        "commit": git_commit(), "src_sha256": source_digest(),
    }
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env))

    runs = Runs(workload, setup, work,
                reference_digest(workload.name, args.seed, args.scale))
    started = perf_counter()
    while runs.attempted == 0 or perf_counter() - started < args.seconds:
        runs.one(trace=False)
        if args.trace:
            runs.one(trace=True)
    if not runs.untraced or (args.trace and not runs.traced):
        print("error: no timed run completed", file=sys.stderr)
        return 1

    n = len(runs.untraced)
    if args.trace:
        metrics = {
            name: (statistics.median(r["layers"][name] for r in runs.traced), unit)
            for name, unit in tracing.LAYER_METRICS.items()
        }
        metrics["trace.overhead_ratio"] = (
            median_of(runs.traced, "seconds") / median_of(runs.untraced, "seconds"),
            "ratio",
        )
        print(f"# medians of {len(runs.traced)} traced runs; overhead against "
              f"{n} untraced runs")
    else:
        metrics = {
            "loso_s": (median_of(runs.untraced, "seconds"), "s"),
            "setup_s": (median_of(setups, "seconds"), "s"),
            "peak_rss_mb": (median_of(runs.untraced, "peak_rss_mb"), "MB"),
            "accuracy": (median_of(runs.untraced, "accuracy"), "ratio"),
        }
        times = sorted(r["seconds"] for r in runs.untraced)
        print(f"# loso_s over {n} runs: min {times[0]:.4f} max {times[-1]:.4f}; "
              f"setup_s over {len(setups)} set-ups; digest {runs.digest}")
        print(f"# median wall seconds: loso {median_of(runs.untraced, 'wall_s'):.4f}, "
              f"setup {median_of(setups, 'wall_s'):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_runs = {runs.failed} count (of {runs.attempted} attempted)")

    result = {
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps({
        **result, "env": env, "digest": runs.digest,
        "setups": [{k: r[k] for k in ("seconds", "wall_s", "speed")} for r in setups],
        "runs": [{k: r[k] for k in ("seconds", "wall_s", "speed", "peak_rss_mb")}
                 for r in runs.untraced],
        "traced_runs": [{k: r[k] for k in ("seconds", "wall_s", "speed")}
                        for r in runs.traced],
    }, indent=1), encoding="utf-8")
    shutil.rmtree(Path(setup["index"]).parent.parent, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
