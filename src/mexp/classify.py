"""Chi-square-kernel SVM with one-vs-one voting.

The kernel is exp(-chi2(x, y) / gamma) over concatenated group histograms,
with gamma either fixed or set to the mean pairwise chi-square distance of
the training set. Binary machines are trained by sequential minimal
optimization on the soft-margin dual (working pair = maximal KKT violation);
the penalty C is picked by stratified 3-fold cross validation over a grid
(`cross_validation`, which also scores the group counts of the P sweep).

Cross validation and evaluation score samples from the distance tensor
over every sample pair (`heldout_votes`): each machine sums its groups over
its own block of it (`machine_distances`). A fit set cross-validates and
votes over the classes its labels hold, so a held-out sample of a class
that its fit set lacks counts as an error; cross validation needs CV_FOLDS
samples of each of those classes. Every machine of every candidate of every
fold given is solved in one padded SMO batch, whatever the number of C
values, unless its kernel stack would exceed `BATCH_BYTES`: then in
several, split by problem (`_batches`).

Cross validation and the penalty search are steps: generators
(`cross_validation`, `penalty_search`) that yield their `heldout_votes`
request, a list of folds that each name their own tensor, are sent its
votes and return their choice. `answer` runs a list of such generators in
lockstep, one `heldout_votes` call per round of all of their requests, so
one round of a task's folds makes one batch; `select_penalty` is a list of
one. A `PairwiseSvm` keeps its support vectors to score a stack of vectors
outside the tensor.
"""

import functools
import itertools
import json
import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .dataset import atomic_write
from .errors import ConfigError, DataError, _explicit, _warn_again
from .selection import chi_square

DEFAULT_C_GRID = (2.0**-5, 2.0**-3, 2.0**-1, 2.0, 2.0**3, 2.0**5, 2.0**7)
MODEL_FORMAT = "mexp-model v1"
CV_FOLDS = 3  # inner cross validation, for the penalty and the group count
# Bytes of the padded kernel stack of one SMO batch of `heldout_votes`. SMO
# reads two rows of each kernel per step, so a stack far beyond the cache
# slows it: at 260 clips of the CASME II config, SMO (then reading columns)
# took about 10% longer at 16 MB than at 8 MB, which still solves each round
# of the benchmark's workloads in one batch.
BATCH_BYTES = 8 << 20


def chi_square_distances(rows_a, rows_b) -> np.ndarray:
    """Pairwise chi-square distances between two stacks of vectors."""
    return chi_square(rows_a, rows_b)[:, :, 0]


@functools.lru_cache(maxsize=16)
def _upper_triangle(n):
    """`np.triu_indices(n, 1)`, built once per size (a run fits its machines
    on a few sizes only) and read-only, since every caller shares it."""
    upper = np.triu_indices(n, 1)
    for a in upper:
        a.flags.writeable = False
    return upper


def mean_distance_gamma(dist: np.ndarray) -> float:
    """Mean of the strictly-upper-triangle distances; 1.0 if degenerate."""
    n = dist.shape[0]
    if n < 2:
        return 1.0
    mean = float(dist[_upper_triangle(n)].mean())
    return mean if mean > 0 else 1.0


def _fit_kernel(dist, gamma=None):
    """exp(-d / gamma) of fit distances, and gamma: the mean fit distance if None."""
    if gamma is None:
        gamma = mean_distance_gamma(dist)
    return np.exp(-dist / gamma), gamma


def _working_sets(pos, neg, alpha, slack, top):
    """Masks of the dual variables that may move up (`up`) and down (`low`),
    for labels split into `pos` (+1) and `neg` (-1); padding is in neither."""
    below, above = alpha < top, alpha > slack
    return (pos & below) | (neg & above), (neg & below) | (pos & above)


def smo_solve_batch(K, y, c, tol: float = 1e-3, max_pair_updates: int = 10**6):
    """Soft-margin dual solves of independent problems, all at once.

    Each problem minimizes 1/2 a'Qa - e'a with Q = yy' * K subject to
    y'a = 0 and 0 <= a <= C, updating its maximal-violating pair per step.
    `K` (P, n, n) and `y` (P, n) stack the kernel matrices and +1/-1 labels;
    a problem with fewer than n samples is padded at the end with y = 0,
    which keeps the padding out of every working pair. `c` holds one penalty
    per problem, or one for all. Each step applies to every problem still
    running the same elementwise arithmetic as a solve of that problem
    alone, so a problem's result does not depend on the batch it is in.
    Each kernel must be exactly symmetric, as every stack of LOSO and
    `train_full` is: the gradient update reads the kernel rows of the
    working pair, contiguous in memory, for its columns.

    Returns (alpha, bias, kkt_gap, converged, pair_updates), one row or
    entry per problem. A problem that stops at `max_pair_updates` issues a
    RuntimeWarning and reports converged = False.
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n_problems, width = y.shape
    c = np.broadcast_to(np.asarray(c, dtype=np.float64), (n_problems,))
    if (c <= 0).any():
        raise ValueError("C must be positive")
    if width == 0:  # one padding column keeps the row-wise argmax defined
        K, y = np.zeros((n_problems, 1, 1)), np.zeros((n_problems, 1))
    slack = 1e-12 * c[:, None]
    top = c[:, None] - slack
    alpha = np.zeros(y.shape)
    grad = -np.ones(y.shape)  # gradient of the dual objective at alpha = 0
    gap = np.full(n_problems, np.inf)
    converged = np.zeros(n_problems, dtype=bool)
    updates = np.full(n_problems, max_pair_updates, dtype=np.int64)

    # the problems still running, compacted whenever some of them stop
    run = np.arange(n_problems)
    yr, cr, sr, tr, ar, gr = y, c, slack, top, alpha.copy(), grad.copy()
    pos, neg = y > 0, y < 0
    g = gap  # KKT gap of the last step, per running problem
    for n_updates in range(max_pair_updates):
        yg = -(yr * gr)
        up, low = _working_sets(pos, neg, ar, sr, tr)
        empty = ~(up.any(axis=1) & low.any(axis=1))
        i = np.argmax(np.where(up, yg, -np.inf), axis=1)
        j = np.argmin(np.where(low, yg, np.inf), axis=1)
        rows = np.arange(run.size)
        g = np.where(empty, 0.0, yg[rows, i] - yg[rows, j])
        stop = empty | (g <= tol)
        if stop.any():
            done = run[stop]
            alpha[done], grad[done], gap[done] = ar[stop], gr[stop], g[stop]
            converged[done] = True
            updates[done] = n_updates
            keep = ~stop
            run, yr, cr, ar, gr, sr, tr, pos, neg, i, j, g = (
                v[keep] for v in (run, yr, cr, ar, gr, sr, tr, pos, neg, i, j, g)
            )
            rows = rows[: run.size]
        if not run.size:
            break
        curvature = K[run, i, i] + K[run, j, j] - 2.0 * K[run, i, j]
        step = g / np.where(curvature < 1e-12, 1e-12, curvature)
        ai, aj = ar[rows, i], ar[rows, j]
        yi, yj = yr[rows, i], yr[rows, j]
        bound = np.where(yi > 0, cr - ai, ai)
        step = np.where(bound < step, bound, step)
        bound = np.where(yj > 0, aj, cr - aj)
        step = np.where(bound < step, bound, step)
        ar[rows, i] += yi * step
        ar[rows, j] -= yj * step
        np.clip(ar, 0.0, cr[:, None], out=ar)
        gr += step[:, None] * yr * (K[run, i, :] - K[run, j, :])
    alpha[run], grad[run], gap[run] = ar, gr, g
    for p in run:
        warnings.warn(
            f"SMO stopped at the update cap with KKT gap {gap[p]:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )

    # bias from free support vectors; midpoint of the violation bounds otherwise
    yg = -(y * grad)
    free = (alpha > slack) & (alpha < top)
    up, low = _working_sets(y > 0, y < 0, alpha, slack, top)
    hi = np.where(up.any(axis=1), np.where(up, yg, -np.inf).max(axis=1), 0.0)
    lo = np.where(low.any(axis=1), np.where(low, yg, np.inf).min(axis=1), 0.0)
    bias = (hi + lo) / 2.0
    for p in np.flatnonzero(free.any(axis=1)):
        bias[p] = yg[p, free[p]].mean()
    return alpha[:, : width], bias, np.where(gap < 0.0, 0.0, gap), converged, updates


def smo_solve(K, y, c: float, tol: float = 1e-3, max_pair_updates: int = 10**6):
    """Soft-margin dual solve on one precomputed kernel matrix: a batch of
    one for `smo_solve_batch`. Returns (alpha, bias, kkt_gap, converged)."""
    alpha, bias, gap, converged, _ = smo_solve_batch(
        np.asarray(K)[None], np.asarray(y)[None], c, tol, max_pair_updates
    )
    return alpha[0], float(bias[0]), float(gap[0]), bool(converged[0])


@dataclass
class PairwiseSvm:
    """One binary machine of the one-vs-one ensemble.

    Decision f(x) = sum_i dual_coef_i * K(sv_i, x) + bias; positive means
    class_a. Support vectors are stored as the concatenated histograms of the
    machine's selected groups.
    """

    class_a: int
    class_b: int
    selected_groups: np.ndarray
    support_vectors: np.ndarray
    dual_coef: np.ndarray  # alpha_i * y_i
    bias: float
    gamma: float
    penalty: float
    kkt_gap: float = 0.0
    converged: bool = True

    def decision(self, X) -> np.ndarray:
        """(n,) decisions of the rows of an (n, d) stack."""
        dist = chi_square_distances(X, self.support_vectors)
        return np.exp(-dist / self.gamma) @ self.dual_coef + self.bias


def train_pairwise(
    vectors,
    labels,
    class_pair,
    c: float,
    gamma: float | None = None,
    selected_groups=None,
    gram_distances=None,
    tol: float = 1e-3,
    max_pair_updates: int = 10**6,
) -> PairwiseSvm:
    """Train one binary machine; labels equal to class_pair[0] map to +1.

    `vectors` are the concatenated selected-group histograms. `gram_distances`
    optionally supplies the precomputed pairwise chi-square matrix.
    """
    a, b = class_pair
    X = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels)
    if not ((labels == a) | (labels == b)).all():
        raise DataError(f"labels outside class pair ({a}, {b})")
    y = np.where(labels == a, 1.0, -1.0)
    if not (y > 0).any() or not (y < 0).any():
        raise DataError(f"class pair ({a}, {b}): one class is empty")
    if gram_distances is None:
        gram_distances = chi_square_distances(X, X)
    K, gamma = _fit_kernel(np.asarray(gram_distances), gamma)
    alpha, bias, gap, converged = smo_solve(K, y, c, tol, max_pair_updates)
    keep = alpha > 1e-12 * c
    if not keep.any():  # all-zero dual: keep one vector so decision() stays defined
        keep[0] = True
    if selected_groups is None:
        sel = np.asarray([], dtype=np.int64)  # empty means "all groups"
    else:
        sel = np.sort(np.asarray(selected_groups, dtype=np.int64))
    return PairwiseSvm(
        class_a=a,
        class_b=b,
        selected_groups=sel,
        support_vectors=X[keep],
        dual_coef=alpha[keep] * y[keep],
        bias=bias,
        gamma=float(gamma),
        penalty=float(c),
        kkt_gap=gap,
        converged=converged,
    )


@dataclass
class MulticlassModel:
    """All K(K-1)/2 pairwise machines plus the config fingerprint they expect."""

    machines: list
    classes: list
    fingerprint: str
    metadata: dict = field(default_factory=dict)

    def predict(self, H, recipe) -> np.ndarray:
        """Labels of the rows of H, a nonempty (clips, bins) matrix of
        descriptors of the `DescriptorConfig` `recipe`, which must have the
        model's fingerprint. Each machine scores all rows at once, and `vote`
        tallies the decisions."""
        if recipe.fingerprint() != self.fingerprint:
            raise DataError(
                f"descriptor fingerprint {recipe.fingerprint()} does not match "
                f"model {self.fingerprint}"
            )
        layout = recipe.layout
        decisions = {}
        for m in self.machines:
            what, sel = f"machine ({m.class_a}, {m.class_b})", m.selected_groups
            if not ((sel >= 0) & (sel < len(layout.planes))).all():
                raise DataError(
                    f"{what} selects groups outside the descriptor's {len(layout.planes)}"
                )
            X = H[:, layout.columns(sel)] if sel.size else H
            if X.shape[1] != m.support_vectors.shape[1]:
                raise DataError(
                    f"{what} has support vectors of length "
                    f"{m.support_vectors.shape[1]}, the descriptor {X.shape[1]}"
                )
            decisions[(m.class_a, m.class_b)] = m.decision(X)
        # a model of one class has no machines, and its one label fills the stack
        return np.full(len(H), vote(decisions, self.classes))


def vote(decisions: dict, classes):
    """One-vs-one vote tally. `decisions` maps each class pair (a, b) to the
    array of its machine's decision values, positive for a, of one shape for
    every pair. Each entry goes to the label with the most votes; ties fall to
    the larger summed absolute decision margin of the tied labels, then to the
    lower label."""
    labels = sorted(classes)
    row = {c: k for k, c in enumerate(labels)}
    shape = np.broadcast_shapes(*(np.shape(f) for f in decisions.values()))
    votes = np.zeros((len(labels), *shape), dtype=np.int64)
    margin = np.zeros((len(labels), *shape))
    for (a, b), f in decisions.items():  # margins add up in machine order
        won = np.asarray(f) > 0
        strength = np.abs(f)
        votes[row[a]] += won
        votes[row[b]] += ~won
        margin[row[a]] += np.where(won, strength, 0.0)
        margin[row[b]] += np.where(won, 0.0, strength)
    best = votes == votes.max(axis=0)
    best &= margin == np.where(best, margin, -np.inf).max(axis=0)
    return np.asarray(labels)[best.argmax(axis=0)]


def cv_folds(labels, seed: int) -> list:
    """(fit, eval) index arrays of stratified CV_FOLDS-fold cross
    validation over the classes in `labels`, each of which needs CV_FOLDS
    samples or more (DataError otherwise). Each label in turn, lowest first,
    has its samples shuffled by one generator seeded with `seed` and dealt
    round-robin, so every fold holds every class."""
    labels = np.asarray(labels)
    counts = {c: int((labels == c).sum()) for c in sorted(set(labels.tolist()))}
    if min(counts.values(), default=0) < CV_FOLDS:
        raise DataError(
            f"cross validation needs >= {CV_FOLDS} samples per class, got {counts}"
        )
    rng = np.random.default_rng(seed)
    dealt = np.empty(labels.size, dtype=np.intp)  # each sample's fold
    for c in counts:
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        dealt[idx] = np.arange(idx.size) % CV_FOLDS
    # masks, not np.setdiff1d, which imports numpy.ma on first use
    return [
        (np.flatnonzero(dealt != f), np.flatnonzero(dealt == f)) for f in range(CV_FOLDS)
    ]


def machine_distances(block, groups=None):
    """A machine's chi-square distances: the `(rows, cols, groups)` block of
    the distance tensor summed over `groups`, or over all of them when None."""
    # Two summation orders: numpy sums the contiguous group axis pairwise, but
    # `block[:, :, groups]` has its group axis outermost in memory and adds one
    # group at a time. So P = all groups matches selection off in predictions,
    # not in the last bits of gamma and dual coefficients.
    if groups is None:
        return block.sum(axis=2)
    return block[:, :, np.sort(np.asarray(groups))].sum(axis=2)


def heldout_votes(folds, labels, gamma=None):
    """One-vs-one votes of each fold's eval samples, from machines trained on
    that fold's fit samples: one array per fold, one row per candidate. A
    fold's machines and votes are over the classes of its fit samples alone.

    `folds` yields (distances, candidates, fit_idx, eval_idx) tuples:
    `distances` is an `(n, n, groups)` chi-square tensor over `labels`, the
    indices point into it, and `candidates` yields (selected, penalties)
    pairs: each C is one candidate, whose machine for the class pair (a, b)
    sums the groups `selected[(a, b)]`, or all groups when `selected` is None
    or lacks the pair. A machine trains on the fit samples of its two
    classes, with gamma from them when None. It gathers its (fit + eval) x
    fit block of its fold's tensor once per fold and its kernels once per
    (selected, penalties) pair. The folds may come from many requests and
    read many tensors, such as one round of `answer`.

    Each machine of each candidate is one SMO problem, solved in batches
    (see `_batches`) whose kernels are built as a batch fills and dropped
    once it is solved, so memory stays bounded by `BATCH_BYTES`.
    """
    labels = np.asarray(labels)
    folds = [(dist, list(candidates), fit, ev) for dist, candidates, fit, ev in folds]

    def problems():  # (fold, pair, fit kernel, eval kernel, y, C) per machine x C
        for fold, (distances, candidates, fit_idx, eval_idx) in enumerate(folds):
            fit_labels = labels[fit_idx]
            for a, b in itertools.combinations(sorted(set(fit_labels.tolist())), 2):
                sub = fit_idx[(fit_labels == a) | (fit_labels == b)]
                block = distances[np.ix_(np.concatenate([sub, eval_idx]), sub)]
                y = np.where(labels[sub] == a, 1.0, -1.0)
                for selected, penalties in candidates:
                    dist = machine_distances(block, (selected or {}).get((a, b)))
                    K_fit, g = _fit_kernel(dist[: sub.size], gamma)
                    K_eval = np.exp(-dist[sub.size :] / g)
                    for c in penalties:
                        yield fold, (a, b), K_fit, K_eval, y, c

    decisions = [{} for _ in folds]  # per fold, class pair -> one row per candidate
    for batch in _batches(problems()):
        width = max(y.size for *_, y, _ in batch)
        K = np.zeros((len(batch), width, width))
        Y = np.zeros((len(batch), width))
        for k, (_, _, K_fit, _, y, _) in enumerate(batch):
            K[k, : y.size, : y.size] = K_fit
            Y[k, : y.size] = y
        alpha, bias, _, _, _ = smo_solve_batch(K, Y, [c for *_, c in batch])
        for k, (fold, pair, _, K_eval, y, _) in enumerate(batch):
            f = K_eval @ (alpha[k, : y.size] * y) + bias[k]
            decisions[fold].setdefault(pair, []).append(f)
        del batch, K  # else they stay held while `_batches` fills the next batch
    return [
        np.broadcast_to(
            vote({p: np.array(f) for p, f in d.items()}, set(labels[fit_idx].tolist())),
            (sum(len(penalties) for _, penalties in candidates), eval_idx.size),
        )
        for d, (_, candidates, fit_idx, eval_idx) in zip(decisions, folds)
    ]


def _batches(problems):
    """The (..., y, C) tuples `problems` in runs of consecutive ones, one SMO
    batch each, whose kernel stack, padded to the run's widest y, fits
    `BATCH_BYTES`; a problem larger than that is a run of its own. Padding
    keeps each problem's result independent of its run."""
    batch, width = [], 0
    for problem in problems:
        wider = max(width, problem[-2].size)
        if batch and 8 * (len(batch) + 1) * wider**2 > BATCH_BYTES:
            yield batch
            batch, wider = [], problem[-2].size
        batch.append(problem)
        width = wider
    if batch:
        yield batch


def answer(steps, labels, gamma=None):
    """The values of the generators `steps`, run in rounds: each round
    advances every live generator to its next request, a list of
    `heldout_votes` folds, and answers all of them in one call. A round in
    which every generator has ended makes no call.

    Each generator's warnings are recorded apart and issued again in
    generator order once all are done, with one registry for the call. A
    generator that raises ends alone, with every generator after it, since
    its error ends the call: the first to fail, in order, raises its error
    after the warnings of those before it and its own.
    """
    n = len(steps)
    warned = [[] for _ in steps]
    outcomes = [None] * n  # (ok, value or exception) of each ended generator
    answers = dict.fromkeys(range(n))  # live generator -> what it is sent next
    while answers:
        asked = {}  # generator -> the folds of its request
        for k, votes in answers.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    asked[k] = steps[k].send(votes)
                except StopIteration as done:
                    outcomes[k] = True, done.value
                except Exception as e:
                    outcomes[k] = False, e
            warned[k] += _explicit(caught)
        answers = _answer_round(asked, labels, gamma, warned, outcomes) if asked else {}
        failed = [k for k, outcome in enumerate(outcomes) if outcome and not outcome[0]]
        stop = min(failed, default=n)
        answers = {k: votes for k, votes in answers.items() if k < stop}
    registry = {}
    for k, (ok, value) in enumerate(outcomes):
        _warn_again(warned[k], registry)
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _answer_round(asked, labels, gamma, warned, outcomes):
    """Generator -> votes of the requests `asked` (generator -> folds), from
    one `heldout_votes` call. A call that warns or fails is made again
    request by request, so that each warning and error goes to its own
    generator; a generator whose request fails ends there."""
    failure = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            votes = heldout_votes(
                [fold for folds in asked.values() for fold in folds], labels, gamma
            )
        except Exception as e:
            failure = e
    if failure is None and not caught:
        answers, start = {}, 0
        for k, folds in asked.items():
            answers[k] = votes[start : start + len(folds)]
            start += len(folds)
        return answers
    if len(asked) > 1:
        answers = {}
        for k, folds in asked.items():
            answers.update(_answer_round({k: folds}, labels, gamma, warned, outcomes))
        return answers
    [k] = asked
    warned[k] += _explicit(caught)
    if failure is not None:
        outcomes[k] = False, failure
        return {}
    return {k: votes}


def cross_validation(distances, fold_candidates, labels, seed: int, fit=None):
    """Steps (see `answer`) of stratified CV_FOLDS-fold cross validation over
    the samples `fit`, an index array into `distances` and `labels` (all of
    them when None): one request of CV_FOLDS `heldout_votes` folds, each
    reading `distances`, then (index, accuracies), the mean one-vs-one
    accuracy of every candidate and the index of the best one (ties go to
    the first).

    `fold_candidates(fit, eval)` is given index arrays into the same tensor
    and labels, is called before the request is yielded, and yields the
    fold's (selected, penalties) pairs of `heldout_votes`, in the same order
    in every fold."""
    labels = np.asarray(labels)
    fit = np.arange(labels.size) if fit is None else np.asarray(fit)
    folds = [
        (distances, list(fold_candidates(fit[f], fit[ev])), fit[f], fit[ev])
        for f, ev in cv_folds(labels[fit], seed)
    ]
    votes = yield folds
    accuracy = np.mean(
        [(v == labels[ev]).mean(axis=1) for v, (*_, ev) in zip(votes, folds)], axis=0
    )
    return int(np.argmax(accuracy)), accuracy


def penalty_search(distances, labels, c_grid, seed: int, selected=None, fit=None):
    """Steps (see `answer`) of the penalty choice over the samples `fit`, as
    in `cross_validation`: the C of the grid that it scores best, ties
    preferring the smaller C. A one-value grid makes no request, any other
    one. `selected` maps class pairs to their machine's groups as in
    `heldout_votes` (None: all groups)."""
    c_grid = sorted(float(c) for c in c_grid)
    if not c_grid:
        raise ConfigError("empty penalty grid")
    if len(c_grid) == 1:
        return c_grid[0]
    best, _ = yield from cross_validation(
        distances, lambda fit, ev: [(selected, c_grid)], labels, seed, fit
    )
    return c_grid[best]


def select_penalty(
    distances,
    labels,
    c_grid=DEFAULT_C_GRID,
    seed: int = 0,
    gamma: float | None = None,
    selected=None,
) -> float:
    """The C of `penalty_search` over all of `distances`, the `(n, n, groups)`
    chi-square tensor, rows and columns aligned with `labels`."""
    steps = penalty_search(distances, labels, c_grid, seed, selected)
    return answer([steps], labels, gamma)[0]


# ---------------------------------------------------------------------------
# Model serialization


def _machine_to_json(m: PairwiseSvm) -> dict:
    """Every field of the machine, arrays as (nested) lists of Python scalars."""
    return {f.name: np.asarray(getattr(m, f.name)).tolist() for f in fields(m)}


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} {value!r} is not an integer")
    return value


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} {value!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"{what} {value!r} is not finite")
    return float(value)


def _array(values, what, integer=False) -> np.ndarray:
    """A JSON list of numbers (integers if `integer`) as an array; any other
    element, a bool or text too, is refused rather than converted."""
    types = {int} if integer else {int, float}
    if not isinstance(values, list) or not set(map(type, values)) <= types:
        raise TypeError(f"{what} is not a list of {'integers' if integer else 'numbers'}")
    return np.asarray(values, dtype=np.int64 if integer else np.float64)


def _machine_from_json(d: dict) -> PairwiseSvm:
    if not isinstance(d["converged"], bool):
        raise TypeError(f"converged {d['converged']!r} is not a boolean")
    m = PairwiseSvm(
        class_a=_integer(d["class_a"], "class_a"),
        class_b=_integer(d["class_b"], "class_b"),
        selected_groups=_array(d["selected_groups"], "selected_groups", integer=True),
        support_vectors=np.asarray(
            [_array(row, "support vector") for row in d["support_vectors"]]
        ),
        dual_coef=_array(d["dual_coef"], "dual_coef"),
        bias=_number(d["bias"], "bias"),
        gamma=_number(d["gamma"], "gamma"),
        penalty=_number(d["penalty"], "penalty"),
        kkt_gap=_number(d["kkt_gap"], "kkt_gap"),
        converged=d["converged"],
    )
    what = f"machine ({m.class_a}, {m.class_b}):"
    if m.support_vectors.ndim != 2 or m.dual_coef.shape != m.support_vectors.shape[:1]:
        raise ValueError(f"{what} support vectors or dual coefficients are misshapen")
    if not (np.isfinite(m.support_vectors).all() and np.isfinite(m.dual_coef).all()):
        raise ValueError(f"{what} support vectors or dual coefficients are not finite")
    if (m.support_vectors < 0).any():
        raise ValueError(f"{what} support vectors have negative bins")
    if m.gamma <= 0:
        raise ValueError(f"{what} gamma {m.gamma!r} is not positive")
    return m


def save_model(model: MulticlassModel, path):
    doc = {
        "format": MODEL_FORMAT,
        "fingerprint": model.fingerprint,
        "classes": [int(c) for c in model.classes],
        "metadata": model.metadata,
        "machines": [_machine_to_json(m) for m in model.machines],
    }
    with atomic_write(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def load_model(path) -> MulticlassModel:
    """Read a model file; DataError when it is not a well-formed model."""
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise DataError(f"{path}: not a JSON model file: {e}") from e
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        found = doc.get("format") if isinstance(doc, dict) else None
        raise DataError(f"{path}: unknown model format {found!r}")
    try:
        if not isinstance(doc["fingerprint"], str):
            raise TypeError("fingerprint is not a string")
        if not isinstance(doc.get("metadata", {}), dict):
            raise TypeError("metadata is not an object")
        if not all(isinstance(doc[key], list) for key in ("machines", "classes")):
            raise TypeError("machines or classes is not a list")
        model = MulticlassModel(
            machines=[_machine_from_json(d) for d in doc["machines"]],
            classes=[_integer(c, "class") for c in doc["classes"]],
            fingerprint=doc["fingerprint"],
            metadata=doc.get("metadata", {}),
        )
    except KeyError as e:
        raise DataError(f"{path}: model file lacks key {e}") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise DataError(f"{path}: malformed model field: {e}") from e
    if not model.classes or len(set(model.classes)) != len(model.classes):
        raise DataError(f"{path}: classes {model.classes} are empty or repeated")
    pairs = sorted(tuple(sorted((m.class_a, m.class_b))) for m in model.machines)
    if pairs != list(itertools.combinations(sorted(model.classes), 2)):
        raise DataError(
            f"{path}: machines {pairs} are not one per pair of the classes "
            f"{model.classes}"
        )
    return model
