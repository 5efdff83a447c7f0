"""End-to-end orchestration: per-clip decomposition and descriptors (cached),
per-fold selection and penalty choice, one-vs-one training,
leave-one-subject-out evaluation, and report emission. Cache misses and
evaluation folds are solved in one fork pool (`_task_results`).

Every entry point, library or command line, gets its dataset from `load`,
and evaluation, training and `mexp select` share the setup of `prepare`.

Group selection and classifier fitting see training clips only; the
decomposition is per-clip and unsupervised, so it is computed once up front.
"""

import contextlib
import functools
import io
import itertools
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import classify, dataset, descriptor, rpca, selection
from .config import RunConfig, config_items
from .errors import ConfigError, DataError

DECISION_NOTES = {
    "pair_enumeration": (
        "unordered distinct clip pairs; same-class pairs from both classes "
        "labeled +1, cross-class pairs labeled -1"
    ),
    "kernel_form": "exp(-chi2(x,y)/gamma); gamma defaults to the mean pairwise "
    "chi2 distance of the training view",
    "threshold_rule": "binary threshold is the unit step: bit = 1 iff neighbor "
    ">= center",
    "histogram_normalization": "every group histogram normalized to unit mass",
    "penalty_selection": f"{classify.CV_FOLDS}-fold stratified cross validation "
    "per evaluation fold",
    "selection_scope": "group selection refit per evaluation fold on training "
    "clips only",
}


@dataclass
class FoldResult:
    subject: str
    clip_ids: list
    truths: list
    predictions: list
    penalty: float
    selected_p: int  # 0 when selection is off


@dataclass
class EvaluationReport:
    classes: list
    class_names: dict
    folds: list
    confusion: np.ndarray
    accuracy: float
    per_class_recall: dict
    metadata: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return int(self.confusion.sum())


# ---------------------------------------------------------------------------
# Cached per-clip computation


def _cache_root(cfg: RunConfig):
    path = os.environ.get("MEXP_CACHE_DIR", "") or cfg.cache_dir
    return Path(path) if path else None


def _read_entry(path, specs):
    """Arrays of a cache entry, or None when it is missing, unreadable or
    holds arrays of other shapes or dtype kinds than `specs` (name ->
    (shape, kind)) asks for, or non-finite or negative floats."""
    try:
        # np.load leaves a file it opened itself open when the archive fails
        with open(path, "rb") as f, np.load(f) as z:
            arrays = {name: z[name] for name in specs}
    except Exception:
        # a damaged archive fails in many ways: a bad CRC, a flipped
        # compression method or encryption flag, a malformed array header
        return None
    for name, (shape, kind) in specs.items():
        a = arrays[name]
        if a.shape != shape or a.dtype.kind != kind:
            return None
        if kind == "f" and not (np.isfinite(a).all() and (a >= 0).all()):
            return None
    return arrays


def _warn_unconverged(clip, cfg: RunConfig, iterations, residual):
    warnings.warn(
        f"clip {clip.clip_id!r}: RPCA did not converge in {iterations} "
        f"iterations (residual {residual:.3e}, tol {cfg.rpca_tol!r})",
        RuntimeWarning,
        stacklevel=3,
    )


def compute_decomposition(clip, cfg: RunConfig) -> rpca.SparseDecomposition:
    """Decomposition of one clip. One that did not converge issues a
    RuntimeWarning naming the clip; it is still returned."""
    dec = rpca.decompose_clip(clip.frames, cfg.descriptor.rpca)
    if not dec.converged:
        _warn_unconverged(clip, cfg, dec.iterations, dec.residual)
    return dec


# decomposition fields (and dtype kinds) in a `desc/` entry of improved projections
_DECOMPOSITION_STATS = {"iterations": "i", "residual": "f", "converged": "b"}


def _solve(clip, dcfg):
    """The per-clip work of a cache miss: the descriptor histogram and, for
    improved projections, the decomposition's stats (not the D x n parts,
    which a pool worker would otherwise send back)."""
    dec = None
    if dcfg.source == "improved":
        dec = rpca.decompose_clip(clip.frames, dcfg.rpca)
    histogram = descriptor.extract_descriptor(clip, dec, dcfg).histogram
    names = _DECOMPOSITION_STATS if dec is not None else ()
    return histogram, {name: getattr(dec, name) for name in names}


def _entry_path(clip, cfg: RunConfig):
    """The clip's `desc/<content hash>-<recipe fingerprint>.npz` entry, or
    None without a cache. The frame shape is checked first, since the
    fingerprint's layout grows with the block count."""
    dcfg = cfg.descriptor
    dcfg.validate_frame_shape(clip.frame_shape)
    root = _cache_root(cfg)
    if root is None:
        return None
    return root / "desc" / f"{clip.content_hash()}-{dcfg.fingerprint()}.npz"


def compute_descriptor(clip, cfg: RunConfig, path=None, solve=None):
    """Descriptor of one clip; (descriptor, cache_hit) pair.

    With a cache configured, the descriptor is read from or written to the
    clip's `desc/` entry (see `_entry_path`). For improved projections the
    entry also holds the decomposition's iterations, residual and
    convergence flag, so a hit on a decomposition that did not converge
    warns as a fresh solve does; an entry without them is a miss.

    `batch_descriptors` passes the entry path it has already computed, and
    as `solve` the batch's result for this clip; by default the path is
    computed here and a miss is solved inline.
    """
    dcfg = cfg.descriptor
    path = path or _entry_path(clip, cfg)
    fingerprint = dcfg.fingerprint()
    improved = dcfg.source == "improved"
    if path is not None:
        specs = {"concat": ((dcfg.layout.offsets[-1],), "f")}
        if improved:
            specs.update({name: ((), kind) for name, kind in _DECOMPOSITION_STATS.items()})
        z = _read_entry(path, specs)
        if z is not None:
            if improved and not z["converged"]:
                _warn_unconverged(clip, cfg, int(z["iterations"]), float(z["residual"]))
            desc = descriptor.ClipDescriptor(
                clip.clip_id, z["concat"], dcfg.layout, fingerprint
            )
            return desc, True
    histogram, stats = solve() if solve is not None else _solve(clip, dcfg)
    if improved and not stats["converged"]:
        _warn_unconverged(clip, cfg, stats["iterations"], stats["residual"])
    if path is not None:
        with dataset.atomic_write(path) as f:
            np.savez(f, concat=histogram, **stats)
    desc = descriptor.ClipDescriptor(clip.clip_id, histogram, dcfg.layout, fingerprint)
    return desc, False


def _worker_count(tasks):
    """Processes to run `tasks` tasks in: the usable CPUs over the BLAS
    threads of each process, at most one per task and at least one. The
    BLAS threads are OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else all
    CPUs (OpenBLAS's own default), so a pool never oversubscribes the cores
    that BLAS already uses."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    threads = cpus
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").split(",")[0].strip()
        if value.isdigit() and int(value) > 0:
            threads = int(value)
            break
    return max(1, min(cpus // threads, tasks))


_pool_state = None  # (fn, shared) in a pool worker, set when the worker starts


def _start_worker(fn, shared):
    global _pool_state
    _pool_state = fn, shared


def _explicit(caught):
    """`warnings.warn_explicit` arguments of recorded warnings."""
    return [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def _pool_task(k):
    """Task `k` in a pool worker: its result and the warnings it emitted (see
    `_explicit`). An exception carries its task's warnings in
    `pool_warnings`."""
    fn, shared = _pool_state
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return fn(shared, k), _explicit(caught)
        except Exception as e:
            e.pool_warnings = _explicit(caught)
            raise


def _warn_again(warned, registry):
    for args in warned:
        warnings.warn_explicit(*args, registry=registry)


def _task_results(fn, shared, n):
    """`fn(shared, k)` for `k` in `range(n)`, in order: in a fork pool of
    `_worker_count(n)` processes, or inline when that is one.

    Workers get `fn` and `shared` through the fork, so a task sends only its
    number and its result. Each task's warnings are emitted again in the
    parent, in task order, before its result; the first task that fails, in
    order, raises its own exception. A worker that dies instead (a signal,
    the out-of-memory killer) raises `BrokenProcessPool`.
    """
    workers = _worker_count(n)
    if workers == 1:
        yield from (fn(shared, k) for k in range(n))
        return
    # imported here: a run that needs no pool never pays for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork: a worker starts with numpy, mexp and `shared` in memory, where
    # spawn and forkserver import them again and pickle `shared`
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker, initargs=(fn, shared),
    )
    # one registry for the run, as a module has one: the default filter
    # shows a warning repeated from the same line once
    registry = {}
    try:
        for result, warned in pool.map(_pool_task, range(n)):
            _warn_again(warned, registry)
            yield result
    except Exception as e:
        _warn_again(getattr(e, "pool_warnings", ()), registry)
        raise
    finally:
        pool.shutdown(cancel_futures=True)


def _solve_miss(shared, k):
    """Task `k` of `batch_descriptors`: `_solve` of its k-th missing clip."""
    dcfg, clips = shared
    return _solve(clips[k], dcfg)


def batch_descriptors(cfg: RunConfig, clips):
    """Descriptors of a list of clips, in order, and the number of them read
    from the cache.

    The cache misses, one task per distinct `desc/` entry, go to
    `_task_results` first. Then each clip goes through `compute_descriptor`
    in order, which reads the cache, warns and writes as it does alone, and
    takes the batch's result on a miss: a later clip with the content of an
    earlier miss reads its entry as a hit.
    """
    paths = [_entry_path(clip, cfg) for clip in clips]
    # without a cache every clip is a task of its own
    keys = [path or k for k, path in enumerate(paths)]
    tasks = {}
    for clip, path, key in zip(clips, paths, keys):
        if key not in tasks and not (path and path.exists()):
            tasks[key] = clip
    solutions = _task_results(
        _solve_miss, (cfg.descriptor, list(tasks.values())), len(tasks)
    )
    solved = {}
    with contextlib.closing(solutions):
        pending = iter(tasks)

        def solve(key):
            while key not in solved:
                solved[next(pending)] = next(solutions)
            return solved[key]

        results = []
        for clip, path, key in zip(clips, paths, keys):
            # an entry that exists but cannot be read is solved inline
            batched = functools.partial(solve, key) if key in tasks else None
            results.append(compute_descriptor(clip, cfg, path, batched))
    return [r[0] for r in results], sum(r[1] for r in results)


def compute_descriptors(cfg: RunConfig, index, clips):
    """Descriptors for every indexed clip, in index order, and the number of
    them read from the cache."""
    return batch_descriptors(cfg, [clips[e.clip_id] for e in index.entries])


# ---------------------------------------------------------------------------
# Per-fold fitting


def _fit_selection_p(cfg, distances, labels, classes, seed):
    """Automatic P sweep over the training clips' distances: the group count
    of the grid that `classify.cross_validate` scores best, C fixed at the
    all-groups choice; ties prefer the smaller P."""
    grid = selection.default_p_grid(cfg.n_groups)
    c_star = classify.select_penalty(
        distances.sum(axis=2, keepdims=True), labels, classes, cfg.c_grid,
        seed=seed, gamma=cfg.gamma,
    )

    def candidates(fit, val):  # one group ranking per fold, one candidate per P
        ranked = selection.fit_selection(distances[np.ix_(fit, fit)], labels[fit])
        for p in grid:
            yield {pair: psel.ranking[:p] for pair, psel in ranked.items()}, [c_star]

    best, _ = classify.cross_validate(
        distances, candidates, labels, classes, seed, cfg.gamma
    )
    return grid[best]


def _fit_fold(cfg, distances, labels, classes, train_idx, seed):
    """Selection and penalty from the training clips' rows of the tensor alone.

    Returns (selected_by_pair, penalty, chosen_p): each class pair's groups
    (None, all groups, when selection is off), the penalty C and the group
    count P (0 when selection is off).
    """
    train_labels = labels[train_idx]
    dist_train = distances[np.ix_(train_idx, train_idx)]
    selected_by_pair = None
    chosen_p = 0
    if cfg.selection == "on":
        chosen_p = cfg.selection_p or _fit_selection_p(
            cfg, dist_train, train_labels, classes, seed
        )
        ranked = selection.fit_selection(dist_train, train_labels)
        selected_by_pair = {
            pair: psel.ranking[:chosen_p] for pair, psel in ranked.items()
        }
    penalty = classify.select_penalty(
        dist_train, train_labels, classes, cfg.c_grid, seed=seed, gamma=cfg.gamma,
        selected=selected_by_pair,
    )
    return selected_by_pair, penalty, chosen_p


def load(cfg: RunConfig, index=None, clips=None):
    """The dataset: the given index and clips, or else the configured
    dataset read from disk."""
    if index is not None and clips is not None:
        return index, clips
    if not cfg.index:
        raise ConfigError("index: no dataset path configured")
    return dataset.load_dataset(cfg.index)


def prepare(cfg: RunConfig, index=None, clips=None):
    """Setup shared by evaluation, training and `mexp select`: the dataset
    (see `load`), its descriptors, their labels and classes, and the
    chi-square distance tensor over all clips."""
    index, clips = load(cfg, index, clips)
    descriptors, _ = compute_descriptors(cfg, index, clips)
    labels = np.array([e.class_label for e in index.entries])
    classes = sorted(set(labels.tolist()))
    if cfg.selection == "on" and len(classes) < 2:
        raise DataError("selection requires at least 2 classes")
    distances = selection.pairwise_group_distances(descriptors)
    return index, descriptors, labels, classes, distances


def _loso_fold(shared, k):
    """Fold `k` of `run_loso`: (penalty, chosen P, votes of the held-out
    clips), fitted on the fold's training rows of the tensor."""
    cfg, distances, labels, classes, splits = shared
    train_idx, test_idx = splits[k]
    selected_by_pair, penalty, chosen_p = _fit_fold(
        cfg, distances, labels, classes, train_idx, cfg.seed * 1000003 + k
    )
    [[votes]] = classify.heldout_votes(
        distances, [([(selected_by_pair, [penalty])], train_idx, test_idx)],
        labels, classes, cfg.gamma,
    )
    return penalty, chosen_p, votes


def run_loso(cfg: RunConfig, index=None, clips=None) -> EvaluationReport:
    """Leave-one-subject-out evaluation of the configured pipeline.

    The chi-square distance tensor over all clips is computed once; each
    fold fits on its training rows and predicts its held-out clips from
    their rows of the same tensor. The folds are tasks of `_task_results`.
    """
    index, descriptors, labels, classes, distances = prepare(cfg, index, clips)
    if cfg.selection == "off":  # every machine sums all groups: once per run
        distances = distances.sum(axis=2, keepdims=True)
    id_to_pos = {e.clip_id: i for i, e in enumerate(index.entries)}
    splits = [
        tuple(np.array([id_to_pos[c] for c in ids]) for ids in split)
        for split in dataset.loso_splits(index)
    ]
    # the folds draw their inner splits from numpy.random, which numpy
    # imports on first use: once here, not in every pool worker
    import numpy.random  # noqa: F401

    shared = (cfg, distances, labels, classes, splits)
    results = list(_task_results(_loso_fold, shared, len(splits)))

    folds = []
    for (_, test_idx), (penalty, chosen_p, votes) in zip(splits, results):
        folds.append(
            FoldResult(
                subject=index.entries[test_idx[0]].subject_id,
                clip_ids=[index.entries[i].clip_id for i in test_idx],
                truths=[int(labels[i]) for i in test_idx],
                predictions=[int(p) for p in votes],
                penalty=penalty,
                selected_p=chosen_p,
            )
        )

    return _build_report(cfg, index, classes, folds)


def _build_report(cfg, index, classes, folds) -> EvaluationReport:
    k = len(classes)
    pos = {c: i for i, c in enumerate(classes)}
    confusion = np.zeros((k, k), dtype=np.int64)
    for fold in folds:
        for truth, pred in zip(fold.truths, fold.predictions):
            confusion[pos[truth], pos[pred]] += 1
    total = int(confusion.sum())
    accuracy = float(np.trace(confusion)) / total if total else 0.0
    recall = {}
    for c in classes:
        row = confusion[pos[c]]
        recall[c] = float(row[pos[c]]) / row.sum() if row.sum() else 0.0

    metadata = {f"config.{key}": value for key, value in config_items(cfg)}
    metadata["fingerprint"] = cfg.fingerprint()
    metadata["n_clips"] = str(len(index.entries))
    metadata["n_subjects"] = str(len(index.subjects))
    metadata["classes"] = ",".join(str(c) for c in classes)
    for key, note in DECISION_NOTES.items():
        metadata[f"decision.{key}"] = note
    for fold in folds:
        metadata[f"fold.{fold.subject}"] = (
            f"C={fold.penalty!r} P={fold.selected_p}"
        )
    return EvaluationReport(
        classes=classes,
        class_names=dict(index.class_names),
        folds=folds,
        confusion=confusion,
        accuracy=accuracy,
        per_class_recall=recall,
        metadata=metadata,
    )


def train_full(cfg: RunConfig, index=None, clips=None):
    """Fit selection and the one-vs-one model on the whole dataset (no folds).

    The model keeps its support vectors, so that it can score clips that
    have no row in the training distance tensor.
    """
    _, descriptors, labels, classes, distances = prepare(cfg, index, clips)
    if cfg.selection == "off":  # every machine sums all groups: once per run
        distances = distances.sum(axis=2, keepdims=True)
    selected_by_pair, penalty, chosen_p = _fit_fold(
        cfg, distances, labels, classes, np.arange(len(descriptors)), cfg.seed
    )
    machines = []
    for a, b in itertools.combinations(classes, 2):
        sub = np.flatnonzero(np.isin(labels, [a, b]))
        sel = selected_by_pair.get((a, b)) if selected_by_pair else None
        gram = classify.machine_distances(distances[np.ix_(sub, sub)], sel)
        machines.append(
            classify.train_pairwise(
                np.stack([descriptors[i].selected(sel) for i in sub]),
                labels[sub],
                (a, b),
                penalty,
                gamma=cfg.gamma,
                selected_groups=sel,
                gram_distances=gram,
            )
        )
    return classify.MulticlassModel(
        machines, list(classes), cfg.fingerprint(),
        {"penalty": repr(penalty), "selected_p": str(chosen_p)},
    )


# ---------------------------------------------------------------------------
# Report emission


def format_confusion_csv(report: EvaluationReport) -> str:
    names = [report.class_names.get(c, str(c)) for c in report.classes]
    buf = io.StringIO()
    buf.write("truth\\prediction," + ",".join(names) + "\n")
    for i, c in enumerate(report.classes):
        row = ",".join(str(int(v)) for v in report.confusion[i])
        buf.write(f"{names[i]},{row}\n")
    return buf.getvalue()


def parse_confusion_csv(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataError("empty confusion matrix file")
    n = len(lines) - 1
    out = np.zeros((n, n), dtype=np.int64)
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != n + 1:
            raise DataError(f"confusion row {i} has {len(cells) - 1} columns, want {n}")
        out[i] = [int(v) for v in cells[1:]]
    return out


def format_summary(report: EvaluationReport) -> str:
    lines = [
        f"accuracy = {report.accuracy!r}",
        f"clips = {report.total}",
        f"classes = {len(report.classes)}",
    ]
    for c in report.classes:
        name = report.class_names.get(c, str(c))
        lines.append(f"recall.{name} = {report.per_class_recall[c]!r}")
    for key in report.metadata:
        lines.append(f"{key} = {report.metadata[key]}")
    return "\n".join(lines) + "\n"


def format_predictions_csv(report: EvaluationReport) -> str:
    buf = io.StringIO()
    buf.write("clip_id,subject,truth,predicted\n")
    for fold in report.folds:
        for clip_id, truth, pred in zip(fold.clip_ids, fold.truths, fold.predictions):
            buf.write(f"{clip_id},{fold.subject},{truth},{pred}\n")
    return buf.getvalue()


def emit_report(report: EvaluationReport, out_dir):
    """Write confusion.csv, predictions.csv, and summary.txt; returns paths."""
    if report.total == 0:
        raise DataError("refusing to emit a report with zero predictions")
    out = Path(out_dir)
    paths = {
        "confusion": out / "confusion.csv",
        "predictions": out / "predictions.csv",
        "summary": out / "summary.txt",
    }
    texts = (format_confusion_csv, format_predictions_csv, format_summary)
    for path, text in zip(paths.values(), texts):
        with dataset.atomic_write(path, "w", encoding="utf-8") as f:
            f.write(text(report))
    return paths
