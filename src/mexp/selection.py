"""Discriminative group selection from pairwise dissimilarity features.

For a pair of classes, every unordered pair of clips becomes one sample: a
vector of per-group chi-square distances, labeled +1 when the clips share a
class and -1 otherwise: the upper triangle of the class pair's block of the
distance tensor. A label-gated cosine similarity graph over those samples
yields a Laplacian score per group. Each class pair gets one ranking of all
groups by ascending score; its first P groups, the most discriminative, are
kept, for a fixed P and for every P of the automatic sweep alike. Keeping
all groups gives the plain descriptor pipeline's predictions, but not always
its numbers to the last bit: a machine's distances are then summed over the
groups in another order (see `classify.machine_distances`).

The graph has one node per sample, so it is never formed: scores come from
its factors (the unit-norm samples of each label), in memory that grows with
samples x groups. `weight_matrix` builds the dense graph as the reference
that `laplacian_scores(PairFeature list, weights=...)` and the tests use.
"""

import itertools
import math
import mmap
from dataclasses import dataclass

import numpy as np

from .errors import DataError


def chi_square(rows_a, rows_b=None, offsets=(0,)) -> np.ndarray:
    """Chi-square distances between the rows of two stacks of nonnegative
    histograms, summed per group.

    The distance of vectors a and b over a group of bins is the sum of
    (a-b)^2 / (a+b), where empty bins (a+b == 0) contribute 0. Group g spans
    the columns from offsets[g] to the next offset (or the end); offsets[0]
    is 0. Returns (len(rows_a), len(rows_b), len(offsets)); rows_b=None gives
    the symmetric distances among rows_a, and the default single group gives
    flat distances in [..., 0]. A negative bin raises ValueError.

    Only the bins of a's support are visited. A bin where b alone is nonzero
    contributes b, and one where a alone is, a, so with I the bins where both
    are nonzero and S(x) the group mass of x,

        chi2(a, b) = sum_I (a-b)^2/(a+b) + ((S(a) - sum_I a) + (S(b) - sum_I b)).

    Every sum adds its terms one at a time in column order (`np.bincount`),
    so the zeros a row's support contributes change nothing: the result is
    exactly symmetric, exactly 0 for identical rows and nonnegative. It
    differs from the bin-by-bin dense sum by rounding only, within
    1e-12 * (S(a) + S(b)) per group.
    """
    A = np.atleast_2d(np.asarray(rows_a, dtype=np.float64))
    symmetric = rows_b is None
    B = A if symmetric else np.atleast_2d(np.asarray(rows_b, dtype=np.float64))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"vector length mismatch: {A.shape[1]} vs {B.shape[1]}")
    if (A < 0).any() or (B is not A and (B < 0).any()):
        raise ValueError("histograms have negative bins")
    group, mass_a = _group_masses(A, offsets)
    out = np.zeros((A.shape[0], B.shape[0], len(offsets)))
    rows = range(A.shape[0])
    if symmetric:
        _fill_rows(out, rows, A, mass_a, group)
    else:
        _fill_rows(out, rows, A, mass_a, group, B, _group_masses(B, offsets)[1])
    return out


def _group_masses(X, offsets):
    """The group of each column of X (see `chi_square`) and the
    (len(X), groups) group masses of its rows."""
    starts = np.asarray(offsets, dtype=np.intp)
    group = np.searchsorted(starts, np.arange(X.shape[1]), side="right") - 1
    masses = np.array([np.bincount(group, x, starts.size) for x in X])
    return group, masses.reshape(-1, starts.size)


def _fill_rows(out, rows, A, mass_a, group, B=None, mass_b=None):
    """Rows `rows` of `chi_square(A, B)` into `out`, from the group masses
    and column groups of `_group_masses`. Without B (B is A), row i covers
    the columns after i alone, and is mirrored into column i."""
    symmetric = B is None
    if symmetric:
        B, mass_b = A, mass_a
    n_groups = out.shape[2]
    # per-row work buffers, allocated once; row i uses the first
    # len(rows) x len(support) entries of each
    size = B.shape[0] * max((np.count_nonzero(A[i]) for i in rows), default=0)
    vals_buf, work_buf = np.empty(size), np.empty(size)
    pos_buf = np.empty(size, dtype=bool)
    bin_buf = np.empty(size, dtype=np.intp)
    row_base = np.arange(B.shape[0]) * n_groups
    for i in rows:
        lo = i + 1 if symmetric else 0
        m = B.shape[0] - lo
        if m == 0:
            continue
        cols = np.flatnonzero(A[i])
        a = A[i, cols]
        n = m * cols.size
        vals, work, pos = (buf[:n].reshape(m, -1) for buf in (vals_buf, work_buf, pos_buf))
        bins = bin_buf[:n]  # output bin of each entry: its row and group

        def group_sums(weights):
            return np.bincount(bins, weights.reshape(-1), m * n_groups).reshape(m, -1)

        np.add(row_base[:m, None], group[cols], out=bins.reshape(m, -1))
        np.take(B[lo:], cols, axis=1, out=vals, mode="clip")  # "raise" would buffer
        np.greater(vals, 0, out=pos)
        sum_b = group_sums(vals)
        # a > 0 on its support, so a + b never vanishes; the terms of bins
        # where b == 0 are zeroed, as the masses count those bins
        np.add(a, vals, out=work)
        np.subtract(a, vals, out=vals)
        np.square(vals, out=vals)
        np.divide(vals, work, out=vals)
        np.multiply(vals, pos, out=vals)
        terms = group_sums(vals)
        np.multiply(a, pos, out=work)
        sum_a = group_sums(work)
        dist = terms + ((mass_a[i] - sum_a) + (mass_b[lo:] - sum_b))
        if symmetric:
            out[i, lo:] = dist
            out[lo:, i] = dist
        else:
            out[i] = dist


def pairwise_group_distances(H, offsets, task_map=map, tasks=1) -> np.ndarray:
    """(n, n, groups) per-group chi-square distances among the rows of the
    (n, bins) histogram matrix H, whose groups start at `offsets` (see
    `chi_square`): read-only, and equal byte for byte to
    `chi_square(H, None, offsets)`.

    The tensor is one anonymous shared mapping, filled by `tasks` tasks of
    `task_map`, a `map` whose tasks may run in forked processes (such as
    `pipeline._task_results`): task k fills rows k, k + tasks, ... against
    the columns after each row, and mirrors them. Negative bins are
    rejected and the group masses computed before any task starts; a task
    returns nothing, since its rows are already in the shared tensor.
    """
    H = np.asarray(H, dtype=np.float64)
    if (H < 0).any():
        raise ValueError("histograms have negative bins")
    group, masses = _group_masses(H, offsets)
    shape = (len(H), len(H), masses.shape[1])
    out = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=np.float64)
    out = out.reshape(shape)

    def fill(rows):
        _fill_rows(out, rows, H, masses, group)

    for _ in task_map(fill, [range(k, len(H), tasks) for k in range(tasks)]):
        pass
    out.flags.writeable = False
    return out


@dataclass
class PairFeature:
    """Dissimilarity sample: per-group distances of one clip pair."""

    values: np.ndarray
    label: int  # +1 same class, -1 different class
    pair: tuple  # the two clips


def weight_matrix(features) -> np.ndarray:
    """Label-gated cosine similarity graph over dissimilarity samples.

    Same-label entries hold the cosine of the two vectors (1 by convention
    when either norm vanishes); different-label entries are exactly 0. This
    dense N x N form is the reference for `laplacian_scores(weights=...)` and
    the tests; the default scoring path never forms it.
    """
    G = np.stack([f.values for f in features])
    labels = np.array([f.label for f in features])
    norms = np.linalg.norm(G, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = (G @ G.T) / np.outer(norms, norms)
    cos[~np.isfinite(cos)] = 1.0  # zero-norm convention: limit of identical vectors
    np.minimum(cos, 1.0, out=cos)
    W = np.where(labels[:, None] == labels[None, :], cos, 0.0)
    np.fill_diagonal(W, 1.0)
    # mirror the upper triangle so float asymmetries in the matmul cannot leak
    upper = np.triu(W)
    return upper + np.triu(W, 1).T


def _cosine_graph_forms(G, labels):
    """Degrees of the `weight_matrix` graph of the rows of G, and a function
    giving the per-column quadratic forms x_r' W x_r of a stack X, from the
    graph's factors in O(N * R^2) time and O(N * R) memory.

    Within one label the graph is H H' + z 1' + 1 z' - z z': H holds the rows
    scaled to unit norm and z marks the zero-norm rows, which are zero in H
    and which the graph ties to their whole label with weight 1.
    """
    norms = np.linalg.norm(G, axis=1)
    degree = np.empty(len(G))
    factors = []
    for label in sorted(set(labels.tolist())):  # np.unique would import numpy.ma
        block = labels == label
        zb = norms[block] == 0.0
        Hb = G[block]
        Hb /= np.where(zb, 1.0, norms[block])[:, None]
        Hb[zb] = 0.0
        degree[block] = Hb @ Hb.sum(axis=0) + np.where(zb, zb.size, zb.sum())
        factors.append((block, Hb, zb))

    def quadratic(X):
        total = np.zeros(X.shape[1])
        for block, Hb, zb in factors:
            Xb = X[block]
            on_zero = Xb[zb].sum(axis=0)
            total += np.square(Hb.T @ Xb).sum(axis=0)
            total += 2.0 * on_zero * Xb.sum(axis=0) - on_zero**2
        return total

    return degree, quadratic


def laplacian_scores(features, weights=None) -> np.ndarray:
    """`_laplacian_scores` of a list of `PairFeature` samples."""
    if len(features) < 2:
        raise DataError("need at least 2 dissimilarity samples")
    G = np.stack([f.values for f in features], dtype=np.float64)
    return _laplacian_scores(G, np.array([f.label for f in features]), weights)


def _laplacian_scores(G, labels, weights=None) -> np.ndarray:
    """Per-group Laplacian scores of the rows of G (samples x groups) with
    +1/-1 labels; smaller means more discriminative.

    Score of dimension r is gt' L gt / gt' D gt with W the label-gated cosine
    graph of `weight_matrix`, D = diag(W 1), L = D - W, and gt the dimension
    with its D-weighted mean removed. Constant dimensions get +inf (no
    discriminative power, never selected). By default W is used through its
    factors and never formed, so memory grows with samples x groups;
    `weights` supplies a dense graph instead, e.g. for scoring modified
    feature values on a fixed graph.
    """
    if weights is None:
        d, quadratic = _cosine_graph_forms(G, labels)
    else:
        W = np.asarray(weights)
        d = W.sum(axis=1)

        def quadratic(X):
            return np.einsum("ur,ur->r", X, W @ X)

    d_total = d.sum()
    if d_total == 0.0:
        raise DataError("degenerate similarity graph: all weights are zero")
    # centered after shifting by row 0, which is exact for values within a
    # factor 2 of it: a mean of values that differ in their last bits would
    # round by as much as their spread
    Gt = G - G[0]
    Gt -= (d @ Gt) / d_total
    var = np.einsum("ur,u,ur->r", Gt, d, Gt)
    num = var - quadratic(Gt)
    with np.errstate(invalid="ignore", divide="ignore"):
        scores = num / var
    degenerate = (np.ptp(G, axis=0) == 0.0) | (var <= 0.0)
    scores[degenerate] = np.inf
    return scores


@dataclass
class PairSelection:
    """Selection outcome for one class pair: every group ranked by
    ascending score, ties to the lower index, constant groups last."""

    class_a: int
    class_b: int
    scores: np.ndarray
    ranking: np.ndarray
    n_pairs: int


def default_p_grid(n_groups: int) -> list:
    """Candidate group counts for the automatic P sweep."""
    fractions = (0.125, 0.25, 0.5, 0.75, 0.875, 1.0)
    grid = sorted({max(1, round(n_groups * f)) for f in fractions})
    return [p for p in grid if p <= n_groups]


def fit_selection(distances, labels) -> dict:
    """Laplacian-score group ranking for every class pair of a labeled sample
    set, from its (n, n, n_groups) chi-square distance tensor: a dict
    (a, b) -> PairSelection, whose first P ranked groups are the P kept.
    Every class needs at least 2 samples."""
    labels = np.asarray(labels)
    classes, counts = np.unique(labels, return_counts=True)
    if classes.size < 2:
        raise DataError("selection needs at least 2 classes")
    if counts.min() < 2:
        raise DataError(f"class {classes[counts.argmin()]} has fewer than 2 samples")
    pairs = {}
    for a, b in itertools.combinations(classes.tolist(), 2):
        idx = np.flatnonzero((labels == a) | (labels == b))
        u, v = np.triu_indices(idx.size, 1)  # in itertools.combinations order
        i, j = idx[u], idx[v]
        same = labels[i] == labels[j]
        scores = _laplacian_scores(distances[i, j], np.where(same, 1, -1))
        ranking = np.argsort(scores, kind="stable")
        pairs[(a, b)] = PairSelection(a, b, scores, ranking, i.size)
    return pairs
