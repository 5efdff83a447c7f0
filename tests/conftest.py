import dataclasses
import os
import warnings

import numpy as np
import pytest

from mexp import SynthSpec, classify, synthesize_dataset
from mexp.config import RunConfig
from mexp.dataset import DatasetIndex

# filled by tests/test_acceptance.py; echoed after the run so the one-line
# PASS/FAIL verdicts survive output capturing
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process behind, running or not yet
    reaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process was left {'unreaped' if pid else 'running'}")


def use_solver_cpus(monkeypatch, cpus):
    """One BLAS thread per process and `cpus` usable CPUs, so that
    `pipeline._task_results` runs two or more tasks (cache misses, LOSO
    folds) in a fork pool of `cpus` workers, or inline for one."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def count_forks(monkeypatch) -> list:
    """Wrap `os.fork` for one test; returns the list of the children it
    started in this process."""
    children, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return children


TINY_SPEC = SynthSpec(
    n_subjects=3,
    n_classes=2,
    clips_per_subject_per_class=2,
    width=32,
    height=32,
    min_frames=6,
    max_frames=8,
    noise_amplitude=1.0,
    motion_amplitude=40.0,
    seed=13,
)

TINY_KWARGS = dict(
    blocks_m=2,
    blocks_n=2,
    mask_w=5,
    lbp_samples=8,
    lbp_radius=1,
    temporal_length=9,
    c_grid=(0.5, 2.0, 8.0),
)


@pytest.fixture(scope="session")
def tiny_dataset():
    return synthesize_dataset(TINY_SPEC)


@pytest.fixture(scope="session")
def single_subject_class():
    """(index, clips) of 4 subjects x 3 classes x 3 clips, with class 2
    kept for subject s00 alone: fold s00 trains without class 2."""
    spec = dataclasses.replace(
        TINY_SPEC, n_subjects=4, n_classes=3, clips_per_subject_per_class=3
    )
    index, clips = synthesize_dataset(spec)
    entries = [e for e in index.entries if e.class_label != 2 or e.subject_id == "s00"]
    with warnings.catch_warnings():  # the index warns about the thin class
        warnings.simplefilter("ignore")
        return DatasetIndex(entries), {e.clip_id: clips[e.clip_id] for e in entries}


def tiny_config(**overrides) -> RunConfig:
    kwargs = dict(TINY_KWARGS)
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def record_smo_batches(monkeypatch) -> list:
    """Wrap `classify.smo_solve_batch` for one test; returns the list that
    each batch call appends its (kernel stack shape, pair updates) to. One
    usable CPU keeps every fold in this process, where the list is."""
    use_solver_cpus(monkeypatch, 1)
    calls = []
    solve = classify.smo_solve_batch

    def recorded(K, y, c, *args, **kwargs):
        result = solve(K, y, c, *args, **kwargs)
        calls.append((np.shape(K), result[4]))
        return result

    monkeypatch.setattr(classify, "smo_solve_batch", recorded)
    return calls
