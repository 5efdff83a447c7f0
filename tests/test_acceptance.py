"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The end-to-end criteria share one synthetic benchmark (3 classes, 6 subjects,
4 clips per subject per class, fixed seed) and a common on-disk cache so the
per-clip decomposition is computed once; the determinism criterion runs twice
from scratch without any cache.
"""

import time

import numpy as np
import pytest

import conftest
from mexp import (
    RunConfig,
    SynthSpec,
    run_loso,
    synthesize_dataset,
    write_dataset,
)
from mexp import cli, encoding, pipeline, rpca
from mexp.classify import chi_square_distances, mean_distance_gamma
from mexp.config import format_config
from mexp.dataset import loso_splits
from mexp.encoding import LbpParams2D
from mexp.selection import PairFeature, laplacian_scores, weight_matrix

BENCH_SPEC = SynthSpec(
    n_subjects=6,
    n_classes=3,
    clips_per_subject_per_class=4,
    width=64,
    height=64,
    min_frames=12,
    max_frames=20,
    noise_amplitude=2.0,
    motion_amplitude=40.0,
    seed=7,
)
BENCH_SEED = 0


def criterion(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def monotone_remap(values, rng):
    flat = np.asarray(values, dtype=np.float64).ravel()
    levels = np.unique(flat)
    new_levels = np.cumsum(rng.uniform(0.1, 2.0, levels.size))
    lookup = dict(zip(levels.tolist(), new_levels.tolist()))
    return np.array([lookup[v] for v in flat.tolist()]).reshape(np.shape(values))


@pytest.fixture(scope="module")
def bench_dataset():
    return synthesize_dataset(BENCH_SPEC)


@pytest.fixture(scope="module")
def bench_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("bench_cache"))


def bench_config(**overrides):
    settings = dict(selection="off", seed=BENCH_SEED)
    settings.update(overrides)
    return RunConfig(**settings)


@pytest.fixture(scope="module")
def stlbp_run(bench_dataset, bench_cache):
    index, clips = bench_dataset
    started = time.time()
    report = run_loso(bench_config(cache_dir=bench_cache), index, clips)
    return report, time.time() - started


@pytest.fixture(scope="module")
def distlbp_all_groups_run(bench_dataset, bench_cache):
    index, clips = bench_dataset
    cfg = bench_config(
        selection="on", selection_p=RunConfig().n_groups, cache_dir=bench_cache
    )
    return run_loso(cfg, index, clips)


@pytest.fixture(scope="module")
def distlbp_auto_run(bench_dataset, bench_cache):
    index, clips = bench_dataset
    cfg = bench_config(selection="on", selection_p=0, cache_dir=bench_cache)
    return run_loso(cfg, index, clips)


@pytest.fixture(scope="module")
def oip_run(bench_dataset, bench_cache):
    index, clips = bench_dataset
    cfg = bench_config(projection="original", cache_dir=bench_cache)
    return run_loso(cfg, index, clips)


def test_criterion_01_rpca_recovery():
    rng = np.random.default_rng(20240401)
    errors = []
    slowest = 0.0
    decs = []
    for _ in range(20):
        low = rng.standard_normal((60, 2)) @ rng.standard_normal((2, 40))
        sparse = np.zeros((60, 40))
        mask = rng.random((60, 40)) < 0.05
        sparse[mask] = rng.uniform(-1, 1, mask.sum()) * np.abs(low).max()
        started = time.time()
        dec = rpca.rpca_inexact_alm(low + sparse)  # default lambda = 1/sqrt(60)
        slowest = max(slowest, time.time() - started)
        decs.append(dec)
        errors.append(np.linalg.norm(dec.low_rank - low) / np.linalg.norm(low))
    errors = np.array(errors)
    # the work bound is ALM iterations, not wall time, which a busy machine
    # stretches; the slowest solve is still reported
    most = max(dec.iterations for dec in decs)
    ok = (
        np.median(errors) <= 1e-3
        and errors.max() <= 1e-2
        and all(dec.converged for dec in decs)
        and most <= 100
    )
    criterion(
        1, "rpca-planted-recovery", ok,
        f"median={np.median(errors):.2e} max={errors.max():.2e} "
        f"iterations<={most} slowest={slowest*1e3:.0f}ms",
    )


def test_criterion_02_encoder_oracle_equivalence():
    rng = np.random.default_rng(2)
    ok = True
    for i in range(100):
        w = int(encoding.MASK_SIZES[i % 4])
        n = int(rng.integers(12, 61))
        signal = rng.uniform(-5, 5, n)
        half = (w - 1) // 2
        naive = np.zeros(1 << (w - 1))
        for center in range(half, n - half):
            naive[encoding.onedlbp_code(signal, center, w)] += 1
        ok &= np.array_equal(encoding.onedlbp_histogram(signal, w), naive)
    for i in range(50):
        radius = (i % 3) + 1
        params = LbpParams2D(8, radius)
        h = int(rng.integers(8, 41))
        w2 = int(rng.integers(8, 41))
        img = rng.uniform(0, 255, (h, w2))
        naive = np.zeros(params.bin_count)
        for y in range(radius, h - radius):
            for x in range(radius, w2 - radius):
                naive[encoding.lbp2d_code(img, x, y, params)] += 1
        ok &= np.array_equal(encoding.lbp2d_histogram(img, params), naive)
    criterion(2, "encoder-oracle-equivalence", ok, "100 signals + 50 images, exact")


def test_criterion_03_grayscale_invariance():
    rng = np.random.default_rng(3)
    ok = True
    # 1D codes: arbitrary strictly increasing transforms, exact equality
    for _ in range(10):
        w = int(rng.choice(encoding.MASK_SIZES))
        signal = rng.uniform(0, 10, int(rng.integers(12, 40)))
        base = encoding.onedlbp_codes(signal, w)
        for _ in range(20):
            ok &= np.array_equal(
                encoding.onedlbp_codes(monotone_remap(signal, rng), w), base
            )
    # 2D codes, axis-aligned samples (M=4): arbitrary strictly increasing maps
    for radius in (1, 2, 3):
        params = LbpParams2D(4, radius)
        img = rng.uniform(0, 9, (13, 11))
        base = encoding.lbp2d_codes(img, params)
        for _ in range(20):
            ok &= np.array_equal(
                encoding.lbp2d_codes(monotone_remap(img, rng), params), base
            )
    # 2D codes with interpolated samples (M=8): strictly increasing affine maps
    for radius in (1, 2, 3):
        params = LbpParams2D(8, radius)
        img = rng.integers(0, 256, (16, 14)).astype(np.float64)
        base = encoding.lbp2d_codes(img, params)
        for _ in range(20):
            a = float(rng.integers(1, 9))
            b = float(rng.integers(-30, 31))
            ok &= np.array_equal(encoding.lbp2d_codes(a * img + b, params), base)
    criterion(3, "grayscale-invariance", ok, "exact equality, 20 transforms/input")


def test_criterion_04_laplacian_score_correctness():
    rng = np.random.default_rng(4)
    worst_gap = 0.0
    worst_scale_gap = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 13))
        dims = int(rng.integers(2, 11))
        feats = [
            PairFeature(rng.uniform(0, 3, dims), 1 if i % 2 else -1, (f"u{i}", f"v{i}"))
            for i in range(n)
        ]
        graph = weight_matrix(feats)
        scores = laplacian_scores(feats, weights=graph)
        values = np.stack([f.values for f in feats])
        d = graph.sum(axis=1)
        for r in range(dims):
            if np.isinf(scores[r]):
                continue
            g = values[:, r]
            num = sum(
                (g[u] - g[v]) ** 2 * graph[u, v]
                for u in range(n)
                for v in range(u + 1, n)
            )
            mu = (g * d).sum() / d.sum()
            var = (d * (g - mu) ** 2).sum()
            worst_gap = max(worst_gap, abs(scores[r] - num / var))
        scale = rng.uniform(0.1, 20.0, dims)
        rescored = laplacian_scores(
            [PairFeature(f.values * scale, f.label, f.pair) for f in feats],
            weights=graph,
        )
        finite = np.isfinite(scores)
        worst_scale_gap = max(
            worst_scale_gap, np.abs(scores[finite] - rescored[finite]).max()
        )
    ok = worst_gap <= 1e-10 and worst_scale_gap <= 1e-9
    criterion(
        4, "laplacian-score-correctness", ok,
        f"double-sum gap={worst_gap:.1e} scaling gap={worst_scale_gap:.1e}",
    )


def test_criterion_05_selection_identity(stlbp_run, distlbp_all_groups_run):
    base, _ = stlbp_run
    full = distlbp_all_groups_run
    same = all(
        fa.subject == fb.subject
        and fa.clip_ids == fb.clip_ids
        and fa.predictions == fb.predictions
        for fa, fb in zip(base.folds, full.folds)
    )
    criterion(
        5, "selection-identity-at-full-p", same,
        f"P={RunConfig().n_groups}: fold-by-fold predictions identical",
    )


def test_criterion_06_kernel_validity():
    rng = np.random.default_rng(6)
    ok = True
    min_eig = np.inf
    for _ in range(20):
        vectors = rng.uniform(0, 1, (10, 16))
        vectors /= vectors.sum(axis=1, keepdims=True)
        dist = chi_square_distances(vectors, vectors)
        gram = np.exp(-dist / mean_distance_gamma(dist))
        ok &= np.array_equal(gram, gram.T)
        eig = np.linalg.eigvalsh(gram).min()
        min_eig = min(min_eig, eig)
        ok &= eig >= -1e-8
    criterion(6, "kernel-gram-validity", ok, f"min eigenvalue={min_eig:.2e}")


def test_criterion_07_end_to_end_synthetic(bench_dataset, stlbp_run, distlbp_auto_run):
    index, clips = bench_dataset
    # generator precondition: the 1-NN mean-absolute-frame-difference oracle
    feats = {
        cid: np.abs(np.diff(c.frames, axis=0)).mean(axis=0).ravel()
        for cid, c in clips.items()
    }
    labels = {e.clip_id: e.class_label for e in index.entries}
    correct = total = 0
    for train, test in loso_splits(index):
        for t in test:
            nearest = min(train, key=lambda tr: np.linalg.norm(feats[t] - feats[tr]))
            correct += labels[nearest] == labels[t]
            total += 1
    oracle_acc = correct / total
    assert oracle_acc >= 0.8, f"generator separability oracle at {oracle_acc:.2f}"

    report, elapsed = stlbp_run
    auto = distlbp_auto_run
    ok = (
        report.accuracy >= 0.90
        and elapsed < 300.0
        and auto.accuracy >= report.accuracy - 0.02
    )
    criterion(
        7, "end-to-end-synthetic-loso", ok,
        f"1NN-oracle={oracle_acc:.2f} STLBP-IIP={report.accuracy:.4f} "
        f"DiSTLBP-IIP(auto P)={auto.accuracy:.4f} "
        f"P/fold={[f.selected_p for f in auto.folds]} runtime={elapsed:.0f}s",
    )


def test_criterion_08_improved_vs_original(stlbp_run, oip_run):
    iip, _ = stlbp_run
    oip = oip_run
    ok = oip.accuracy <= iip.accuracy
    criterion(
        8, "original-projection-not-better", ok,
        f"STLBP-OIP={oip.accuracy:.4f} <= STLBP-IIP={iip.accuracy:.4f}",
    )


def test_criterion_09_dataset_runner(tmp_path):
    # stand-in dataset in the documented on-disk layout, run at the published
    # CASME2-style settings (6x1 blocks, W=9, R=3, no temporal normalization);
    # the accuracy match to the restricted database is reported, never gated
    spec = SynthSpec(
        n_subjects=3, n_classes=2, clips_per_subject_per_class=2,
        width=48, height=60, min_frames=10, max_frames=12,
        noise_amplitude=1.0, motion_amplitude=40.0, seed=21,
    )
    index, clips = synthesize_dataset(spec)
    index_path = write_dataset(index, clips, tmp_path / "data")
    cfg = RunConfig(
        index=str(index_path), blocks_m=6, blocks_n=1, mask_w=9,
        lbp_samples=8, lbp_radius=3, temporal_length=0, seed=0,
        c_grid=(0.5, 2.0, 8.0),
    )
    (tmp_path / "run.cfg").write_text(format_config(cfg))
    code = cli.main(
        ["loso", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "rep")]
    )
    confusion = (tmp_path / "rep" / "confusion.csv").read_text()
    parsed = pipeline.parse_confusion_csv(confusion)
    ok = code == 0 and parsed.sum() == len(index.entries)
    criterion(
        9, "dataset-runner", ok,
        "LOSO completed and confusion matrix emitted at the published settings",
    )


def test_criterion_10_determinism(bench_dataset, tmp_path):
    index, clips = bench_dataset
    cfg = bench_config()  # no cache: both runs recompute everything
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    pipeline.emit_report(run_loso(cfg, index, clips), out_a)
    pipeline.emit_report(run_loso(cfg, index, clips), out_b)
    same = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("confusion.csv", "predictions.csv", "summary.txt")
    )
    criterion(10, "seeded-determinism", same, "reports byte-identical across reruns")
