"""Tests of the benchmark's own code: `python3 -m pytest perfbench`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
from tracing import Span

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("pipeline.run_loso", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("c", 8.0, 11.0, 0),  # overlaps b and ends after its parent
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0])


def test_covered_merges_overlaps_and_clips_to_the_interval():
    assert tracing.covered((0.0, 10.0), []) == 0.0
    assert tracing.covered((0.0, 10.0), [(-5.0, 2.0), (1.0, 3.0), (9.0, 20.0)]) == 4.0


def test_smo_solves_are_attributed_by_parent():
    spans = [
        Span("pipeline.run_loso", 0.0, 100.0, -1),
        Span("classify.select_penalty", 1.0, 10.0, 0),
        Span("classify.smo_solve", 2.0, 4.0, 1, {"converged": True}),
        Span("classify.smo_solve", 11.0, 14.0, 0, {"converged": True}),
        Span("classify.train_pairwise", 20.0, 30.0, 0, {"sv": 5}),
        Span("classify.smo_solve", 21.0, 26.0, 4, {"converged": False}),
        Span("classify.smo_solve", 40.0, 47.0, 0, {"converged": True}),
    ]
    stages = [tracing.smo_stage(spans, s) for s in spans if s.name == "classify.smo_solve"]
    assert stages == ["penalty_cv", "p_sweep", "train", "p_sweep"]

    m = tracing.layer_metrics(spans, cache_mb_written=0.0, smo_cap_hits=0)
    assert m["classify.p_sweep_s"] == pytest.approx(3.0 + 7.0)
    assert m["classify.smo_s"] == pytest.approx(2.0 + 3.0 + 5.0 + 7.0)
    assert m["classify.smo_solves"] == 4
    assert m["classify.smo_nonconverged"] == 1
    assert m["classify.penalty_cv_s"] == pytest.approx(9.0)
    assert m["classify.train_s"] == pytest.approx(10.0)
    assert m["classify.support_vectors"] == 5
    assert m["pipeline.loso_self_s"] == pytest.approx(100.0 - 9.0 - 3.0 - 10.0 - 7.0)


def test_layer_metrics_cover_every_declared_per_layer_metric():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == {**tracing.LAYER_METRICS, "trace.overhead_ratio": "ratio"}
    assert set(tracing.layer_metrics([], 0.0, 0)) == set(tracing.LAYER_METRICS)


def run_bench(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    for m in declared:
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    assert any(line.startswith("failed_runs = 0 count") for line in lines)

    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace and workload.endswith("_warm"):
        assert metrics["rpca.clips"] == 0
        assert metrics["pipeline.cache_hit_ratio"] == 1.0
    elif trace:
        assert metrics["rpca.clips"] == metrics["descriptor.clips"] > 0
        assert metrics["projection.calls"] == 2 * metrics["encoding.onedlbp_calls"] > 0


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = run_bench("--workload", "desk_iip_cold", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
