"""Smoke tests of the scripts, run as a user would run them."""

import subprocess
import sys
from pathlib import Path

import pytest

from mexp import SynthSpec, synthesize_dataset
from mexp.dataset import write_dataset

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_casme2_writes_report(tmp_path):
    spec = SynthSpec(
        n_subjects=3, n_classes=2, clips_per_subject_per_class=2,
        width=48, height=60, min_frames=10, max_frames=12,
        noise_amplitude=1.0, motion_amplitude=40.0, seed=21,
    )
    index_path = write_dataset(*synthesize_dataset(spec), tmp_path / "data")
    cache = tmp_path / "cache"
    done = subprocess.run(
        [
            sys.executable, str(SCRIPTS / "run_casme2.py"),
            "--index", str(index_path), "--out", str(tmp_path / "rep"),
            "--cache", str(cache),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = done.stdout.strip().splitlines()[-1]
    assert last.startswith("accuracy=")
    assert 0.0 <= float(last.split("=", 1)[1]) <= 1.0
    for name in ("confusion.csv", "predictions.csv", "summary.txt"):
        assert (tmp_path / "rep" / name).is_file()
    assert len(list((cache / "desc").glob("*.npy"))) == 12
    assert sorted(p.name for p in cache.iterdir()) == ["desc"]


def test_run_synthetic_benchmark_prints_three_variants(tmp_path):
    done = subprocess.run(
        [
            sys.executable, str(SCRIPTS / "run_synthetic_benchmark.py"),
            "--subjects", "3", "--cache", str(tmp_path / "cache"),
        ],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for variant in ("STLBP-IIP", "DiSTLBP-IIP", "STLBP-OIP"):
        row = next(line for line in lines if line.startswith(variant + " "))
        assert 0.0 <= float(row.split()[1]) <= 1.0
    sweep = next(line for line in lines if "selected P per fold:" in line)
    per_fold = sweep.split(":", 1)[1].strip().strip("[]").split(",")
    assert len(per_fold) == 3  # one LOSO fold per subject
    assert all(1 <= int(p) <= 84 for p in per_fold)


@pytest.mark.parametrize(
    "script, args, code, error",
    [
        ("run_casme2.py", ["--index", "{tmp}/index.csv", "--blocks", "6"], 2, "config"),
        ("run_casme2.py", ["--index", "{tmp}/index.csv", "--blocks", "6x1x2"], 2, "config"),
        ("run_casme2.py", ["--index", "{tmp}/index.csv"], 3, "data"),
        ("run_casme2.py", [], 2, "config"),
        ("run_synthetic_benchmark.py", ["--subjects", "1"], 2, "config"),
        ("run_synthetic_benchmark.py", ["--data-seed", "-1"], 2, "config"),
    ],
    ids=["blocks 6", "blocks 6x1x2", "missing index", "no --index", "subjects 1",
         "data seed -1"],
)
def test_bad_input_is_one_error_line(tmp_path, script, args, code, error):
    # --subjects 1 is refused before the dataset is synthesized (no stdout)
    if script == "run_casme2.py":
        args = [*args, "--out", "{tmp}/rep"]
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *(a.format(tmp=tmp_path) for a in args)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == code
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error={error}: "), done.stderr
