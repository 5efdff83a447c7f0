"""One benchmark step in a process of its own: `worker.py '<job json>'`.

`run.py` starts this script for every set-up and every timed run, so that
each timed run's peak memory is that of its own process and nothing from an
earlier run stays warm in it. The job names the `mexp` sources to import,
so the step measures the checkout it was started from. The step prints its
result as one JSON line on standard output.

Modes:

setup
    Synthesize the workload's dataset from its seed into `workdir`, write it
    as PGM frames and, for a warm workload, fill the descriptor cache there.
run
    One LOSO evaluation, timed: `dataset.load_dataset`, `pipeline.run_loso`,
    `pipeline.emit_report`. The report is checked, and with `trace` set every
    call into a layer module is recorded as a span and the spans are written
    to `spans` when the run ends.

Each mode reports the wall seconds of its timed part.
"""

import hashlib
import json
import os
import resource
import sys
import warnings
from pathlib import Path
from time import perf_counter

import tracing

SMO_CAP_WARNING = "SMO stopped at the update cap"


def import_mexp(src):
    sys.path.insert(0, src)
    import mexp

    where = Path(mexp.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise SystemExit(f"imported mexp from {where}, not from {src}")
    return mexp


def dir_bytes(path):
    path = Path(path)
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) if path.is_dir() else 0


def peak_rss_mb():
    """Peak resident memory of this process, in MB. VmHWM covers this program
    alone; `ru_maxrss` would also count the parent's memory at the fork."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / tracing.MB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / tracing.MB


def blas_version(np):
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return "unknown"


def setup(job):
    mexp = import_mexp(job["src"])
    import numpy as np
    from mexp import dataset, pipeline

    root = Path(job["workdir"])
    started = perf_counter()
    index, clips = dataset.synthesize_dataset(dataset.SynthSpec(**job["spec"]))
    index_path = dataset.write_dataset(index, clips, root / "data")
    if job["warm"]:
        cfg = mexp.RunConfig(
            index=str(index_path), cache_dir=str(root / "cache"), **job["config"]
        )
        index, clips = dataset.load_dataset(cfg.index)
        pipeline.compute_descriptors(cfg, index, clips)
    wall = perf_counter() - started
    # Flush what set-up wrote, so that timed runs do not share the machine
    # with its write-back.
    for path in root.rglob("*"):
        if path.is_file():
            with open(path, "rb") as f:
                os.fsync(f.fileno())
    return {
        "wall_s": wall,
        "index": str(index_path),
        "cache_dir": str(root / "cache"),
        "clips": len(index.entries),
        "numpy": np.__version__,
        "openblas": blas_version(np),
    }


def report_digest(report):
    """Digest of what must not change between runs: every prediction and
    each fold's penalty C and group count P."""
    payload = {
        "predictions": sorted(
            [c, p] for f in report.folds for c, p in zip(f.clip_ids, f.predictions)
        ),
        "folds": sorted([f.subject, repr(f.penalty), f.selected_p] for f in report.folds),
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def check_report(report, index, out_dir):
    """Problems with a LOSO report; empty when its outputs are consistent."""
    import numpy as np

    problems = []
    truth = {e.clip_id: e.class_label for e in index.entries}
    predicted = sorted(c for f in report.folds for c in f.clip_ids)
    if predicted != sorted(truth):
        problems.append("the folds do not predict every indexed clip exactly once")
    pos = {c: i for i, c in enumerate(report.classes)}
    confusion = np.zeros((len(pos), len(pos)), dtype=np.int64)
    for f in report.folds:
        for clip_id, t, p in zip(f.clip_ids, f.truths, f.predictions):
            if truth.get(clip_id) != t:
                problems.append(f"clip {clip_id}: reported truth {t} is not its index label")
            elif p not in pos:
                problems.append(f"clip {clip_id}: prediction {p} is not a class")
            else:
                confusion[pos[t], pos[p]] += 1
    if not np.array_equal(confusion, report.confusion):
        problems.append("the confusion matrix does not match the predictions")
    total = int(report.confusion.sum())
    if total == 0 or abs(report.accuracy - np.trace(report.confusion) / total) > 1e-12:
        problems.append("accuracy is not the confusion-matrix trace over its total")
    rows = (Path(out_dir) / "predictions.csv").read_text(encoding="utf-8").splitlines()
    if len(rows) != len(truth) + 1:
        problems.append(f"predictions.csv has {len(rows) - 1} rows for {len(truth)} clips")
    return problems


def run(job):
    mexp = import_mexp(job["src"])
    from mexp import dataset, pipeline

    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    cfg = mexp.RunConfig(index=job["index"], cache_dir=job["cache_dir"], **job["config"])
    cache_before = dir_bytes(cfg.cache_dir)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        started = perf_counter()
        index, clips = dataset.load_dataset(cfg.index)
        report = pipeline.run_loso(cfg, index, clips)
        pipeline.emit_report(report, job["out"])
        wall = perf_counter() - started
    result = {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "accuracy": report.accuracy,
        "digest": report_digest(report),
        "problems": check_report(report, index, job["out"]),
        "cache_mb_written": (dir_bytes(cfg.cache_dir) - cache_before) / tracing.MB,
        "smo_cap_hits": sum(str(w.message).startswith(SMO_CAP_WARNING) for w in caught),
    }
    if tracer is not None:
        Path(job["spans"]).write_text(
            json.dumps([s.to_json() for s in tracer.spans]), encoding="utf-8"
        )
    return result


def main():
    job = json.loads(sys.argv[1])
    result = {"setup": setup, "run": run}[job["mode"]](job)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
