"""End-to-end orchestration: per-clip decomposition and descriptors (cached),
per-fold selection and penalty choice, one-vs-one training,
leave-one-subject-out evaluation, and report emission.

Two kinds of task run in `_task_results`, a pool of workers forked
directly (`os.fork`), each dealt its tasks by stride and sending their
results back through a pipe of its own: descriptor cache misses and groups
of LOSO folds. The chi-square distance tensor is computed in this process
(`_distance_tensor`), or, with a cache, mapped read-only from its `dist/`
entry, whose pages this process then never reads; the folds read it
through the fork, by clip indices, never copying a block of it.

A group fits its folds in lockstep: each fold is a generator of
`heldout_votes` requests, and `classify.answer` sends the requests of one
round of the group's folds (the C search, the P sweep, the C search at the
chosen P, the held-out fit) to one call, one SMO batch unless its kernel
stack would exceed `classify.BATCH_BYTES`. `train_full` runs its selection
the same way, as a group of one.

Every entry point, library or command line, gets its dataset from `load`,
and evaluation, training and `mexp select` share the setup of `prepare`.

Group selection and classifier fitting see training clips only; the
decomposition is per-clip and unsupervised, so it is computed once up front.
"""

import contextlib
import hashlib
import io
import itertools
import os
import pickle
import select
import signal
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import classify, dataset, descriptor, rpca, selection
from .config import RunConfig, config_items
from .errors import ConfigError, DataError, _explicit, _warn_again

# Names the arithmetic of `selection.chi_square` in the key of every `dist/`
# entry, so that a change to it can retire the entries computed before.
DIST_FORMAT = "mexp-dist v1"

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


def _read_entry(path, dtype):
    """The record of a cache entry, or None when it is missing, unreadable,
    not a 0-d record of exactly `dtype`, or has non-finite or negative
    bins."""
    try:
        with open(path, "rb") as f:
            # an .npy file alone: never a pickle or an archive
            entry = np.lib.format.read_array(f, allow_pickle=False)
    except Exception:
        # a damaged file fails in many ways: a bad magic string, a malformed
        # header, a body cut short
        return None
    if entry.shape != () or entry.dtype != dtype:
        return None
    bins = entry["concat"]
    if not (np.isfinite(bins).all() and (bins >= 0).all()):
        return None
    return entry


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


def _entry_dtype(dcfg):
    """The record of a `desc/` entry: the histogram, `concat`, and for
    improved projections the decomposition's iterations, residual and
    convergence flag."""
    fields = [("concat", float, (dcfg.layout.offsets[-1],))]
    if dcfg.source == "improved":
        fields += [("iterations", np.int64), ("residual", float), ("converged", bool)]
    return np.dtype(fields)


def _solve(clip, dcfg):
    """A cache miss's `desc/` record (see `_entry_dtype`), without the D x n
    parts of the decomposition, which a pool worker would otherwise send
    back."""
    dec = None
    if dcfg.source == "improved":
        dec = rpca.decompose_clip(clip.frames, dcfg.rpca)
    histogram = descriptor.extract_descriptor(clip, dec, dcfg)
    stats = (dec.iterations, dec.residual, dec.converged) if dec is not None else ()
    return np.array((histogram, *stats), dtype=_entry_dtype(dcfg))


def _entry_path(clip, cfg: RunConfig, fingerprint):
    """The clip's `desc/<content hash>-<fingerprint>.npy` entry, or None
    without a cache; `fingerprint` is the recipe's, `cfg.descriptor`'s. The
    frame shape is checked first, since the recipe's layout grows with the
    block count."""
    cfg.descriptor.validate_frame_shape(clip.frame_shape)
    root = _cache_root(cfg)
    if root is None:
        return None
    return root / "desc" / f"{clip.content_hash()}-{fingerprint}.npy"


def _entry_paths(cfg: RunConfig, clips):
    """The `_entry_path` of each clip, for the recipe's fingerprint."""
    fingerprint = cfg.descriptor.fingerprint()
    return [_entry_path(clip, cfg, fingerprint) for clip in clips]


def compute_descriptor(
    clip, cfg: RunConfig, path=None, solution=None, fingerprint=None, dtype=None
):
    """Descriptor of one clip; (histogram, cache_hit) pair.

    With a cache configured, the descriptor is read from or written to the
    clip's `desc/` entry (see `_entry_path`), one record of `_entry_dtype`.
    For improved projections the record also holds the decomposition's
    iterations, residual and convergence flag, so a hit on a decomposition
    that did not converge warns as a fresh solve does; a record without
    them is a miss.

    `batch_descriptors` passes the entry path, the recipe's fingerprint and
    its `_entry_dtype`, computed once per batch, and, for the first clip of
    each of its tasks, the task's `_solve` record as `solution`; a readable
    entry still wins. Otherwise they are computed and a miss solved here.
    """
    dcfg = cfg.descriptor
    fingerprint = fingerprint or dcfg.fingerprint()
    path = path or _entry_path(clip, cfg, fingerprint)
    dtype = _entry_dtype(dcfg) if dtype is None else dtype
    entry = _read_entry(path, dtype) if path is not None else None
    hit = entry is not None
    if not hit:
        entry = _solve(clip, dcfg) if solution is None else solution
    if dcfg.source == "improved" and not entry["converged"]:
        _warn_unconverged(clip, cfg, int(entry["iterations"]), float(entry["residual"]))
    if path is not None and not hit:
        with dataset.atomic_write(path) as f:
            np.save(f, entry)
    return entry["concat"], hit


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


_WORD = struct.Struct("=Q")  # the length of a result frame


def _read(fd, size):
    """The next `size` bytes from `fd`, or None when it closes first."""
    data = bytearray(size)
    view, got = memoryview(data), 0
    while got < size:
        n = os.readv(fd, [view[got:]])
        if n == 0:
            return None
        got += n
    return data


def _write(fd, data):
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _serve(fn, items, results):
    """A pool worker: for each of `items`, in order, write to `results` one
    length-prefixed pickled frame of (ok, result or (exception, its
    traceback text), recorded warnings; see `_explicit`)."""
    for item in items:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                outcome = True, fn(item)
            except Exception as e:
                import traceback

                outcome = False, (e, traceback.format_exc())
        warned = _explicit(caught)
        try:
            frame = pickle.dumps((*outcome, warned), pickle.HIGHEST_PROTOCOL)
        except Exception as e:  # a result or an exception that cannot be pickled
            failed = e, f"{outcome[1]!r} could not be sent from the worker"
            frame = pickle.dumps((False, failed, warned), pickle.HIGHEST_PROTOCOL)
        _write(results, _WORD.pack(len(frame)) + frame)


def _fork_worker(fn, items, inherited):
    """Fork a worker that runs `_serve` over `items`; returns (pid, result
    pipe), the parent's end. The worker closes the `inherited` descriptors,
    the parent's ends of the pipes of workers started before it, so that
    each pipe closes as soon as the parent closes it."""
    from_worker, results = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(from_worker)
        os.close(results)
        raise
    if pid == 0:  # the worker, which never returns from here
        status = 1
        try:
            for fd in (from_worker, *inherited):
                os.close(fd)
            _serve(fn, items, results)
            status = 0
        finally:
            os._exit(status)
    os.close(results)
    return pid, from_worker


def _task_results(fn, items):
    """`map(fn, items)` over a list, in order: in `_worker_count(len(items))`
    forked worker processes, or inline when that is one.

    Worker w of W gets `fn` and its items, `items[w::W]`, through the fork,
    so `fn` may be a closure, and sends their results back in order through
    a pipe of its own; the parent sends it nothing. A stride does as well as
    handing tasks out one by one, since the two callers' tasks cost about
    the same: cache misses of `batch_descriptors`, of near-uniform cost, and
    fold groups of `run_loso`, one per worker. The parent drains every pipe
    as its frames arrive, so that no worker waits on a full pipe for
    another's result to be read.

    Each task's warnings are emitted again in the parent, in item order,
    before its result; the first task that fails, in order, raises its own
    exception, caused by a RuntimeError that holds the worker's traceback.
    A worker that dies before its last task (a signal, the out-of-memory
    killer) raises `concurrent.futures.BrokenExecutor` in that task's turn.
    Every worker is killed and reaped when the results end, fail or are
    closed early.
    """
    workers = _worker_count(len(items))
    if workers == 1:
        yield from map(fn, items)
        return
    pids = {}  # open result pipe -> pid of its worker
    due = {}  # result pipe -> position of the next frame from its worker
    arrived = {}  # position -> (ok, result or (exception, traceback), warnings)
    poller = select.poll()
    # one registry for the run, as a module has one: the default filter
    # shows a warning repeated from the same line once
    registry = {}
    try:
        for w in range(workers):
            pid, pipe = _fork_worker(fn, items[w::workers], list(pids))
            pids[pipe], due[pipe] = pid, w
            poller.register(pipe, select.POLLIN)
        for k in range(len(items)):
            while k not in arrived:
                for pipe, _ in poller.poll():
                    position = due[pipe]
                    head = _read(pipe, _WORD.size)
                    frame = head and _read(pipe, *_WORD.unpack(head))
                    if frame is not None:
                        arrived[position] = pickle.loads(frame)
                        due[pipe] += workers
                        continue
                    # the worker exited: done, or dead before task `position`
                    poller.unregister(pipe)
                    os.close(pipe)
                    status = os.waitpid(pids.pop(pipe), 0)[1]
                    if position < len(items):
                        arrived[position] = _broken(status, position)
            ok, result, warned = arrived.pop(k)
            _warn_again(warned, registry)
            if not ok:
                error, where = result  # a worker that died sent no traceback
                raise error from where and RuntimeError(f"in a pool worker:\n{where}")
            yield result
    finally:
        for pipe, pid in pids.items():
            os.close(pipe)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _broken(status, position):
    """The outcome, as `_task_results` holds it, of task `position`, whose
    worker exited with wait status `status` before sending it: an error
    without a traceback."""
    from concurrent.futures import BrokenExecutor

    code = os.waitstatus_to_exitcode(status)
    how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
    error = BrokenExecutor(
        f"a pool worker terminated abruptly ({how}) while running task {position}"
    )
    return False, (error, None), []


def batch_descriptors(cfg: RunConfig, clips, paths=None):
    """(H, hits): the descriptors of a list of clips as the rows of one
    (clips, bins) matrix H, in clip order, the only copy of them that a run
    holds, and the number of them read from the cache. Their layout and
    fingerprint are the recipe's, `cfg.descriptor`'s; `paths` are the
    clips' `_entry_paths`, when the caller has them already.

    The cache misses go to `_task_results`, one `_solve` per distinct absent
    `desc/` entry (per clip without a cache), in clip order. Each clip then
    goes through `compute_descriptor`, with its task's result if it is the
    task's first clip: a later clip with the same content reads a hit, and
    an entry that exists but cannot be read is solved in this process.
    """
    fingerprint = cfg.descriptor.fingerprint()
    paths = _entry_paths(cfg, clips) if paths is None else paths
    dtype = _entry_dtype(cfg.descriptor)  # its layout, once the frame shapes fit
    first = {}  # absent entry, or clip number without a cache -> its first clip
    for k, path in enumerate(paths):
        if not (path and path.exists()):
            first.setdefault(path or k, k)
    solutions = _task_results(
        lambda clip: _solve(clip, cfg.descriptor), [clips[k] for k in first.values()]
    )
    starts = set(first.values())
    H = np.empty((len(clips), cfg.descriptor.layout.offsets[-1]))
    hits = 0
    with contextlib.closing(solutions):
        for k, (clip, path) in enumerate(zip(clips, paths)):
            solution = next(solutions) if k in starts else None
            H[k], hit = compute_descriptor(clip, cfg, path, solution, fingerprint, dtype)
            hits += hit
    return H, hits


def compute_descriptors(cfg: RunConfig, index, clips, paths=None):
    """`batch_descriptors` of every indexed clip, in index order."""
    return batch_descriptors(cfg, [clips[e.clip_id] for e in index.entries], paths)


def _read_tensor(path, shape):
    """The `dist/` entry `path`, mapped read-only, or None when it is
    missing or is not a whole `.npy` file of a C-ordered float64 tensor of
    `shape`: a damaged entry counts as a miss. Its values are not read here,
    so that the parent touches none of its pages (see `all_groups_sum`)."""
    try:
        # an .npy file alone: never a pickle or an archive
        tensor = np.lib.format.open_memmap(path, mode="r")
        size = path.stat().st_size
    except Exception:
        # a damaged file fails in many ways: a bad magic string, a malformed
        # header, a body cut short
        return None
    if (
        tensor.dtype != np.float64
        or tensor.shape != shape
        or not tensor.flags.c_contiguous
        or size != tensor.offset + tensor.nbytes
    ):
        return None
    return tensor.view(np.ndarray)


def _distance_tensor(cfg: RunConfig, H, paths):
    """The chi-square distance tensor over the rows of H, as
    `selection.pairwise_group_distances` computes it: read-only, and read
    by pool workers through the fork.

    With a cache, it is the entry `dist/<key>.npy`, whose key hashes
    `DIST_FORMAT` and the names of the rows' `desc/` entries, `paths`, in
    order; each name holds its clip's content hash and the recipe's
    fingerprint, which fixes the groups. A hit is mapped read-only
    (`_read_tensor`). A miss, or a run without a cache, computes the tensor
    here; a miss then saves it by `np.save` through `dataset.atomic_write`.
    """
    offsets = cfg.descriptor.layout.offsets[:-1]
    root = _cache_root(cfg)
    if root is None:
        return selection.pairwise_group_distances(H, offsets)
    names = "\n".join([DIST_FORMAT, *(path.name for path in paths)])
    path = root / "dist" / f"{hashlib.sha256(names.encode()).hexdigest()[:16]}.npy"
    tensor = _read_tensor(path, (len(H), len(H), len(offsets)))
    if tensor is None:
        tensor = selection.pairwise_group_distances(H, offsets)
        with dataset.atomic_write(path) as f:
            np.save(f, tensor)
    return tensor


def all_groups_sum(cfg: RunConfig, distances):
    """The tensor's one-group sum, `(n, n, 1)`, which every fit over all
    groups reads, checked: every sum must be finite, nonnegative, exactly
    symmetric and 0 between a clip and itself, as a computed tensor's always
    is. One that is not, from a damaged `dist/` entry, is a DataError.

    A `dist/` hit is mapped unread, so this sum is where its values are
    checked: each fold task, `train_full` and `mexp select` read every page
    of the tensor anyway, while the parent of a pooled LOSO run reads none.
    """
    total = distances.sum(axis=2, keepdims=True)
    sums = total[:, :, 0]
    if not (
        np.isfinite(sums).all()
        and (sums >= 0).all()
        and (sums == sums.T).all()
        and not sums.diagonal().any()
    ):
        root = _cache_root(cfg)
        damaged = f" (a damaged entry in {root / 'dist'}: remove it)" if root else ""
        raise DataError(
            "chi-square distance tensor: its group sums are not all finite, "
            f"nonnegative, symmetric and 0 between a clip and itself{damaged}"
        )
    return total


# ---------------------------------------------------------------------------
# Per-fold fitting

def _selection_steps(cfg, distances, all_groups, labels, fit, seed):
    """Steps (see `classify.answer`) of the group selection of the fit set
    `fit`, an index array into the tensor and `labels`, over the classes
    its labels hold: (selected_by_pair, chosen_p), each class pair's groups
    and the group count P. It is (None, 0), all groups, when selection is
    off or the labels hold one class, which has no class pair to select
    groups for.

    The automatic P sweep picks the group count of the grid that
    `classify.cross_validation` scores best, C fixed at the choice over all
    groups, read from `all_groups`, the tensor's one-group sum; ties prefer
    the smaller P.
    """
    if cfg.selection == "off" or len(set(labels[fit].tolist())) < 2:
        return None, 0
    chosen_p = cfg.selection_p
    if not chosen_p:
        grid = selection.default_p_grid(cfg.n_groups)
        c_star = yield from classify.penalty_search(
            all_groups, labels, cfg.c_grid, seed, fit=fit
        )

        def candidates(inner, _):  # one group ranking per fold, one candidate per P
            ranked = selection.fit_selection(distances, labels, inner)
            for p in grid:
                yield {pair: psel.ranking[:p] for pair, psel in ranked.items()}, [c_star]

        best, _ = yield from classify.cross_validation(
            distances, candidates, labels, seed, fit
        )
        chosen_p = grid[best]
    ranked = selection.fit_selection(distances, labels, fit)
    return {pair: psel.ranking[:chosen_p] for pair, psel in ranked.items()}, chosen_p


def _fold_steps(cfg, index, distances, all_groups, labels, k, train_idx, test_idx):
    """Steps of fold `k` of `run_loso`: its `FoldResult`, fitted on the
    fold's training rows of the tensor, or of `all_groups`, its one-group
    sum, when no groups are selected. Its machines vote over the classes of
    its training clips, so a held-out clip of a class they lack is an
    error."""
    seed = cfg.seed * 1000003 + k
    selected_by_pair, chosen_p = yield from _selection_steps(
        cfg, distances, all_groups, labels, train_idx, seed
    )
    tensor = all_groups if selected_by_pair is None else distances
    penalty = yield from classify.penalty_search(
        tensor, labels, cfg.c_grid, seed, selected_by_pair, train_idx
    )
    [[votes]] = yield [(tensor, [(selected_by_pair, [penalty])], train_idx, test_idx)]
    return FoldResult(
        subject=index.entries[test_idx[0]].subject_id,
        clip_ids=[index.entries[i].clip_id for i in test_idx],
        truths=[int(labels[i]) for i in test_idx],
        predictions=[int(p) for p in votes],
        penalty=penalty,
        selected_p=chosen_p,
    )


def _fold_group(cfg, index, distances, labels, folds):
    """The `FoldResult`s of a contiguous run of `run_loso`'s folds, one pool
    task, fitted in lockstep (`classify.answer`). The task sums and checks
    the tensor's groups itself (`all_groups_sum`), once, for every fit over
    all groups: summed in the parent, the sum would touch every shared page
    of the tensor there."""
    all_groups = all_groups_sum(cfg, distances)
    steps = [
        _fold_steps(cfg, index, distances, all_groups, labels, *fold) for fold in folds
    ]
    return classify.answer(steps, labels, cfg.gamma)


def load(cfg: RunConfig, index=None, clips=None):
    """The dataset: the given index and clips, or else the configured
    dataset read from disk."""
    if index is not None and clips is not None:
        return index, clips
    if not cfg.index:
        raise ConfigError("index: no dataset path configured")
    return dataset.load_dataset(cfg.index)


def prepare(cfg: RunConfig, index=None, clips=None):
    """Setup shared by evaluation, training and `mexp select`: the dataset's
    index (see `load`), the (clips, bins) matrix H of its descriptors, their
    labels, and the chi-square distance tensor over all clips
    (`_distance_tensor`). The dataset's classes are `index.labels`; a set
    that selection cannot run on fails before any descriptor is computed."""
    index, clips = load(cfg, index, clips)
    if cfg.selection == "on" and len(index.labels) < 2:
        raise DataError("selection requires at least 2 classes")
    paths = _entry_paths(cfg, [clips[e.clip_id] for e in index.entries])
    H, _ = compute_descriptors(cfg, index, clips, paths)
    labels = np.array([e.class_label for e in index.entries])
    return index, H, labels, _distance_tensor(cfg, H, paths)


def run_loso(cfg: RunConfig, index=None, clips=None) -> EvaluationReport:
    """Leave-one-subject-out evaluation of the configured pipeline.

    The chi-square distance tensor over all clips is computed once; each
    fold fits on its training rows and predicts its held-out clips from
    their rows of the same tensor, addressed by clip indices. The folds are
    split into `_worker_count(len(folds))` contiguous groups, the tasks of
    `_task_results`, and each group fits its folds in lockstep
    (`_fold_group`). A set of fewer than 2 subjects fails before any
    descriptor is computed.
    """
    index, clips = load(cfg, index, clips)
    splits = dataset.loso_splits(index)
    index, _, labels, distances = prepare(cfg, index, clips)
    id_to_pos = {e.clip_id: i for i, e in enumerate(index.entries)}
    folds = [  # (k, train_idx, test_idx)
        (k, *(np.array([id_to_pos[c] for c in ids]) for ids in split))
        for k, split in enumerate(splits)
    ]
    # the folds draw their inner splits from numpy.random, which numpy
    # imports on first use: once here, not in every pool worker
    import numpy.random  # noqa: F401

    tasks = _worker_count(len(folds))
    bounds = [len(folds) * t // tasks for t in range(tasks + 1)]
    groups = [folds[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    results = _task_results(
        lambda group: _fold_group(cfg, index, distances, labels, group), groups
    )
    return _build_report(cfg, index, [fold for group in results for fold in group])


def _build_report(cfg, index, folds) -> EvaluationReport:
    classes = index.labels
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
    index, H, labels, distances = prepare(cfg, index, clips)
    all_groups = all_groups_sum(cfg, distances)  # every fit over all groups
    fit = np.arange(len(labels))
    [(selected_by_pair, chosen_p)] = classify.answer(
        [_selection_steps(cfg, distances, all_groups, labels, fit, cfg.seed)],
        labels, cfg.gamma,
    )
    if selected_by_pair is None:
        distances = all_groups
    penalty = classify.select_penalty(
        distances, labels, cfg.c_grid, seed=cfg.seed, gamma=cfg.gamma,
        selected=selected_by_pair,
    )
    classes, layout = index.labels, cfg.descriptor.layout
    machines = []
    for a, b in itertools.combinations(classes, 2):
        sub = np.flatnonzero((labels == a) | (labels == b))
        sel = selected_by_pair.get((a, b)) if selected_by_pair else None
        gram = classify.machine_distances(distances[np.ix_(sub, sub)], sel)
        machines.append(
            classify.train_pairwise(
                H[sub] if sel is None else H[np.ix_(sub, layout.columns(sel))],
                labels[sub],
                (a, b),
                penalty,
                gamma=cfg.gamma,
                selected_groups=sel,
                gram_distances=gram,
            )
        )
    return classify.MulticlassModel(
        machines, classes, cfg.fingerprint(),
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
