"""Smoke tests of the scripts, run as a user would run them."""

import argparse
import contextlib
import importlib.util
import io
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mexp import SynthSpec, cli, synthesize_dataset
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
    assert len(list((cache / "dist").glob("*.npy"))) == 1
    assert sorted(p.name for p in cache.iterdir()) == ["desc", "dist"]


def test_run_synthetic_benchmark_defaults_to_the_built_in_spec(tmp_path):
    done = subprocess.run(
        [
            sys.executable, str(SCRIPTS / "run_synthetic_benchmark.py"),
            "--subjects", "3", "--cache", str(tmp_path / "cache"),
        ],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == (
        "spec: 3 subjects x 3 classes x 4 clips, grid 7x3, pipeline seed 0"
    )
    assert lines[1].split() == ["seed", "IIP", "DiS", "OIP"]
    row = lines[2].split()
    assert row[0] == "7"  # the built-in data seed
    assert len(row) == 4 and all(cell.endswith("/36") for cell in row[1:])
    correct = [int(cell.split("/")[0]) for cell in row[1:]]
    assert lines[3].startswith("  mean")
    assert [float(v) for v in lines[3].split()[1:]] == pytest.approx(
        [k / 36 for k in correct], abs=1e-4
    )
    assert lines[4].startswith("DiS >= IIP >= OIP: ")
    assert lines[5].startswith("DiS > IIP: ") and "sign test p = " in lines[5]
    assert lines[6].startswith("IIP > OIP: ") and "sign test p = " in lines[6]
    assert len(lines) == 7


TINY_SPEC = """\
n_subjects = 2
n_classes = 2
clips_per_subject_per_class = 3
width = 32
height = 64
min_frames = 10
max_frames = 12
noise_amplitude = 8
motion_amplitude = 9
"""


def test_run_synthetic_benchmark_regime_table(tmp_path):
    spec = tmp_path / "tiny.cfg"
    spec.write_text(TINY_SPEC)
    done = subprocess.run(
        [
            sys.executable, str(SCRIPTS / "run_synthetic_benchmark.py"),
            "--spec", str(spec), "--grid", "4x2", "--seeds", "1-2",
        ],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == (
        "spec: 2 subjects x 2 classes x 3 clips, grid 4x2, pipeline seed 0"
    )
    assert lines[1].split() == ["seed", "IIP", "DiS", "OIP"]
    rows = [line.split() for line in lines[2:4]]
    assert [row[0] for row in rows] == ["1", "2"]
    correct = [[int(cell.split("/")[0]) for cell in row[1:]] for row in rows]
    assert all(cell.endswith("/12") for row in rows for cell in row[1:])
    means = [float(v) for v in lines[4].split()[1:]]
    assert lines[4].startswith("  mean")
    assert means == pytest.approx([sum(c) / 24 for c in zip(*correct)], abs=1e-4)
    assert lines[5].startswith("DiS >= IIP >= OIP: ")
    assert lines[6].startswith("DiS > IIP: ") and "sign test p = " in lines[6]
    assert lines[7].startswith("IIP > OIP: ") and "sign test p = " in lines[7]
    assert len(lines) == 8


def _script_module(name):
    path = SCRIPTS / name
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sign_test_is_the_exact_binomial_sum():
    sign_test = _script_module("run_synthetic_benchmark.py").sign_test
    assert sign_test(9, 1) == pytest.approx(22 / 1024)  # p ~ 0.021
    assert sign_test(1, 9) == sign_test(9, 1)
    assert sign_test(10, 0) == pytest.approx(2 / 1024)
    assert sign_test(8, 0) == pytest.approx(2 / 256)
    assert sign_test(5, 5) == 1.0
    assert sign_test(1, 0) == 1.0
    assert sign_test(0, 0) == 1.0


@pytest.mark.parametrize(
    "script, args, code, error",
    [
        ("run_casme2.py", ["--index", "{tmp}/index.csv", "--blocks", "6"], 2, "config"),
        ("run_casme2.py", ["--index", "{tmp}/index.csv", "--blocks", "6x1x2"], 2, "config"),
        ("run_casme2.py", ["--index", "{tmp}/index.csv"], 3, "data"),
        ("run_casme2.py", [], 2, "config"),
        ("run_synthetic_benchmark.py", ["--subjects", "1"], 2, "config"),
        ("run_synthetic_benchmark.py", ["--grid", "7"], 2, "config"),
        ("run_synthetic_benchmark.py", ["--grid", "0x3"], 2, "config"),
        ("run_synthetic_benchmark.py", ["--seeds", "1-x"], 2, "config"),
        ("run_synthetic_benchmark.py", ["--seeds", "5-2"], 2, "config"),
        ("run_synthetic_benchmark.py", ["--spec", "{tmp}/missing.cfg"], 2, "config"),
        ("run_synthetic_benchmark.py", ["--spec", "{tmp}/s.cfg", "--subjects", "3"], 2,
         "config"),
    ],
    ids=["blocks 6", "blocks 6x1x2", "missing index", "no --index", "subjects 1",
         "grid 7", "grid 0x3", "seeds 1-x", "seeds 5-2", "missing spec",
         "spec and subjects"],
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


def _help_options(help_text) -> set:
    """The long options that a `--help` text lists, one per option line."""
    return set(re.findall(r"^ +(?:-\w, )?(--[a-z][\w-]*)", help_text, re.M))


def test_every_flag_the_readme_names_is_an_option():
    parser = cli._build_parser()
    known = _help_options(parser.format_help())
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                known |= _help_options(sub.format_help())
    for script in sorted(SCRIPTS.glob("*.py")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            _script_module(script.name).main(["--help"])
        known |= _help_options(out.getvalue())
    readme = (SCRIPTS.parent / "README.md").read_text().splitlines()
    # pip's own flags (the install line) are not ours to check
    text = "\n".join(line for line in readme if not line.startswith("pip "))
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", text))
    assert named - known == set()
