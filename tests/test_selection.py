import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import count_forks, use_solver_cpus
from mexp.errors import DataError
from mexp.selection import (
    PairFeature,
    chi_square,
    default_p_grid,
    fit_selection,
    laplacian_scores,
    pairwise_group_distances,
    weight_matrix,
)


def brute_force_score(features, r):
    """Independent evaluation: sum over unordered pairs of
    (g_ru - g_rv)^2 W_uv divided by the D-weighted variance."""
    W = weight_matrix(features)
    n = len(features)
    g = np.array([f.values[r] for f in features])
    num = 0.0
    for u in range(n):
        for v in range(u + 1, n):
            num += (g[u] - g[v]) ** 2 * W[u, v]
    d = W.sum(axis=1)
    mu = (g * d).sum() / d.sum()
    var = (d * (g - mu) ** 2).sum()
    return num / var


def random_features(rng, n=6, dims=5, zero_dim=None):
    feats = []
    for i in range(n):
        values = rng.uniform(0, 3, dims)
        if zero_dim is not None:
            values[zero_dim] = 1.5
        feats.append(PairFeature(values, 1 if i % 2 else -1, (f"a{i}", f"b{i}")))
    return feats


OFFSETS = (0, 4, 8)  # three groups of four bins


@st.composite
def labeled_samples(draw):
    """2-40 dissimilarity samples of 1-8 dimensions with values in [0, 3],
    some all zero (duplicate clips), some dimensions constant, one or two
    labels. Nonzero values are at least 1e-3: vectors with norms near 1e-154
    have their norms computed from subnormal squares, too inexact for
    `weight_matrix`'s clip of cosines at 1 to agree with the factored graph,
    and chi-square distances never come that small."""
    n = draw(st.integers(2, 40))
    dims = draw(st.integers(1, 8))
    element = st.one_of(st.just(0.0), st.floats(1e-3, 3.0))
    values = draw(arrays(np.float64, (n, dims), elements=element))
    values[draw(arrays(np.bool_, n))] = 0.0
    values[:, draw(arrays(np.bool_, dims))] = draw(st.sampled_from([0.0, 1.5]))
    if draw(st.booleans()):
        labels = np.ones(n, dtype=int)
    else:
        labels = draw(arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
    return [PairFeature(v, int(label), (i, i + 1))
            for i, (v, label) in enumerate(zip(values, labels))]


def random_stack(rng, n, n_groups=3, bins=4):
    """n flat descriptors of n_groups normalized histograms each."""
    hists = rng.uniform(0, 1, (n, n_groups, bins))
    return (hists / hists.sum(axis=2, keepdims=True)).reshape(n, -1)


def group_distances(rng, n):
    return chi_square(random_stack(rng, n), None, OFFSETS)


def chi_square_oracle(a, b):
    """Scalar loop over bins, skipping the empty ones."""
    return sum((x - y) ** 2 / (x + y) for x, y in zip(a, b) if x + y > 0)


def chi_square_per_row(rows_a, rows_b=None, offsets=(0,)):
    """The dense chi-square: every bin of every pair, with fresh temporaries
    for every row. `chi_square` visits each row's nonzero bins only and adds
    them in another order, so it matches this within `assert_near_dense`."""
    A = np.atleast_2d(np.asarray(rows_a, dtype=np.float64))
    symmetric = rows_b is None
    B = A if symmetric else np.atleast_2d(np.asarray(rows_b, dtype=np.float64))
    starts = np.asarray(offsets, dtype=np.intp)
    out = np.zeros((A.shape[0], B.shape[0], starts.size))
    for i in range(A.shape[0]):
        rows = B[i + 1 :] if symmetric else B
        if rows.shape[0] == 0:
            continue
        num = (A[i] - rows) ** 2
        den = A[i] + rows
        frac = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
        dist = np.add.reduceat(frac, starts, axis=1)
        if symmetric:
            out[i, i + 1 :] = dist
            out[i + 1 :, i] = dist
        else:
            out[i] = dist
    return out


def assert_near_dense(got, rows_a, rows_b, offsets, case=""):
    """`chi_square`'s stated tolerance against the dense sum: 1e-12 times the
    two rows' group masses, entry by entry."""
    def mass(rows):
        return np.add.reduceat(np.atleast_2d(rows), offsets, axis=1)

    dense = chi_square_per_row(rows_a, rows_b, offsets)
    mass_a = mass(rows_a)
    mass_b = mass_a if rows_b is None else mass(rows_b)
    bound = 1e-12 * (mass_a[:, None] + mass_b[None, :])
    assert got.shape == dense.shape, case
    assert (np.abs(got - dense) <= bound).all(), case


@st.composite
def sparse_stacks(draw):
    """1-7 histograms of 1-40 bins in 1-4 groups of uneven width, with bins
    and groups empty in every row, all-empty rows and repeated rows. Nonzero
    bins are at least 1e-3: the dense sum squares them, which underflows
    for bins near 1e-162, and descriptor bins are never that small."""
    n_bins = draw(st.integers(1, 40))
    cuts = draw(st.sets(st.integers(1, n_bins), max_size=3)) - {n_bins}
    offsets = (0, *sorted(cuts))
    n = draw(st.integers(1, 7))
    element = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    X = draw(arrays(np.float64, (n, n_bins), elements=element))
    X[:, draw(arrays(np.bool_, n_bins))] = 0.0
    group = np.searchsorted(offsets, np.arange(n_bins), side="right") - 1
    X[:, draw(arrays(np.bool_, len(offsets)))[group]] = 0.0
    X[draw(arrays(np.bool_, n))] = 0.0
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3)):
        X[i] = X[j]
    return X, offsets


def traced_peak(fn, *args, **kwargs):
    """Result of fn and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# (case, a, b, group offsets, expected distance per group), values by hand
CHI_SQUARE_TABLE = [
    ("disjoint", [1.0, 0.0], [0.0, 1.0], (0,), [2.0]),
    ("identical", [0.2, 0.8], [0.2, 0.8], (0,), [0.0]),
    ("empty bins", [0.0, 1.0], [0.0, 1.0], (0,), [0.0]),
    ("all empty", [0.0, 0.0], [0.0, 0.0], (0,), [0.0]),
    ("partly empty", [0.0, 0.5, 0.5], [0.0, 0.25, 0.75], (0,),
     [0.0625 / 0.75 + 0.0625 / 1.25]),
    ("two groups", [1.0, 0.0, 0.5, 0.5], [0.0, 1.0, 0.5, 0.5], (0, 2), [2.0, 0.0]),
    ("empty group", [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0], (0, 2), [0.0, 2.0]),
    ("uneven groups", [0.5, 0.5, 0.0, 1.0, 0.0], [0.5, 0.0, 0.5, 0.0, 1.0], (0, 1, 3),
     [0.0, 1.0, 2.0]),
]


class TestChiSquare:
    def test_identical(self):
        X = random_stack(np.random.default_rng(12), 3)
        for dist in (chi_square(X, None, OFFSETS), chi_square(X, X, OFFSETS)):
            for i in range(3):
                np.testing.assert_array_equal(dist[i, i], np.zeros(3))

    def test_hand_value(self):
        for case, a, b, offsets, expected in CHI_SQUARE_TABLE:
            cross = chi_square([a], [b], offsets)
            assert cross.shape == (1, 1, len(offsets)), case
            np.testing.assert_allclose(cross[0, 0], expected, atol=1e-15, err_msg=case)
            symmetric = chi_square([a, b], None, offsets)
            np.testing.assert_array_equal(symmetric[0, 1], cross[0, 0], err_msg=case)
            np.testing.assert_array_equal(symmetric[1, 0], cross[0, 0], err_msg=case)

    def test_empty_bins_contribute_zero(self):
        a = np.array([[0.0, 1.0, 0.0, 0.0]])
        b = np.array([[0.0, 1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(chi_square(a, b, (0, 2)), [[[0.0, 0.0]]])
        assert chi_square(a, b)[0, 0, 0] == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            chi_square(np.zeros((1, 3)), np.zeros((1, 4)))

    def test_negative_bins_rejected(self):
        bad = [[0.5, -0.5, 1.0], [0.5, 0.5, 0.0]]
        for rows_a, rows_b in [(bad, None), (bad[:1], bad[1:]), (bad[1:], bad[:1])]:
            with pytest.raises(ValueError, match="negative"):
                chi_square(rows_a, rows_b)

    def test_matches_dense_reference_within_tolerance(self):
        rng = np.random.default_rng(14)
        stack = random_stack(rng, 7)
        sparse = stack.copy()
        sparse[:, ::3] = 0.0  # bins empty in every row
        sparse[2] = 0.0  # an all-empty descriptor
        cases = [
            ("flat", stack, None, (0,)),
            ("grouped", stack, None, OFFSETS),
            ("empty bins", sparse, None, OFFSETS),
            ("asymmetric", stack[:3], sparse[1:], OFFSETS),
            ("one row", stack[:1], None, OFFSETS),
            ("one row against many", sparse[2:3], stack, (0, 5)),
        ]
        for case, a, b, offsets in cases:
            assert_near_dense(chi_square(a, b, offsets), a, b, offsets, case)

    @given(sparse_stacks(), st.integers(0, 7))
    @settings(max_examples=200)
    def test_sparse_stacks_near_dense_and_exactly_symmetric(self, stack, split):
        X, offsets = stack
        got = chi_square(X, None, offsets)
        assert_near_dense(got, X, None, offsets)
        np.testing.assert_array_equal(got, got.transpose(1, 0, 2))
        for i, j in zip(*np.triu_indices(len(X))):
            if np.array_equal(X[i], X[j]):
                assert (got[i, j] == 0.0).all()
        assert np.array_equal(chi_square(X, X, offsets), got)
        a, b = X[:split], X[split:]
        if len(a) and len(b):
            cross = chi_square(a, b, offsets)
            assert_near_dense(cross, a, b, offsets)
            assert np.array_equal(cross, got[:split, split:])
            assert np.array_equal(chi_square(b, a, offsets), cross.transpose(1, 0, 2))

    def test_work_buffers_allocated_once(self):
        # 40 descriptors of the desk length; with fresh temporaries for every
        # row the peak is about 4.8 row stacks
        rng = np.random.default_rng(15)
        stack = rng.uniform(0, 1, (40, 21504))
        stack[:, :512] = 0.0
        dist, peak = traced_peak(chi_square, stack, None, np.arange(0, 21504, 256))
        assert peak < 4 * stack.nbytes + dist.nbytes
        # 80 descriptors with 7.7% of their bins nonzero, as on the selection
        # workload: the buffers follow each row's support, not the stack
        sparse = rng.uniform(0, 1, (80, 21504))
        sparse[rng.uniform(0, 1, sparse.shape) > 0.077] = 0.0
        dist, peak = traced_peak(chi_square, sparse, None, np.arange(0, 21504, 256))
        assert peak < sparse.nbytes + dist.nbytes

    @given(
        arrays(np.float64, 6, elements=st.floats(0, 10)),
        arrays(np.float64, 6, elements=st.floats(0, 10)),
    )
    @settings(max_examples=40)
    def test_symmetry_and_nonnegativity(self, a, b):
        ab = chi_square([a], [b], (0, 2))
        ba = chi_square([b], [a], (0, 2))
        np.testing.assert_array_equal(ab, ba)
        assert (ab >= 0.0).all()


def sparse_descriptors(n, seed):
    """(n, 12) matrix of descriptors of three 4-bin groups, about a third of
    their bins 0."""
    rng = np.random.default_rng(seed)
    X = random_stack(rng, n)
    X[rng.uniform(0, 1, X.shape) < 0.3] = 0.0
    return X


class TestPairwiseGroupDistances:
    def test_matches_chi_square(self):
        rng = np.random.default_rng(5)
        X = random_stack(rng, 4)
        dist = pairwise_group_distances(X, OFFSETS)
        assert dist.shape == (4, 4, 3)
        for i in range(4):
            for j in range(4):
                for r in range(3):
                    cols = slice(4 * r, 4 * r + 4)
                    expected = chi_square_oracle(X[i, cols], X[j, cols])
                    assert abs(dist[i, j, r] - expected) < 1e-12

    def test_cross_lists(self):
        rng = np.random.default_rng(6)
        a = random_stack(rng, 3)
        b = random_stack(rng, 2)
        dist = chi_square(a, b, OFFSETS)
        assert dist.shape == (3, 2, 3)
        assert abs(dist[1, 0, 2] - chi_square_oracle(a[1, 8:], b[0, 8:])) < 1e-12
        both = chi_square(np.concatenate([a, b]), None, OFFSETS)
        np.testing.assert_array_equal(both[:3, 3:], dist)

class TestPooledTensor:
    """The tensor as the pipeline builds it, at any count of usable CPUs:
    filled in this process, with no pool, and the same bytes as
    `chi_square`."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 11])  # 2: row 1 has no column after it
    def test_equals_chi_square(self, monkeypatch, n, cpus):
        H = sparse_descriptors(n, seed=n)
        use_solver_cpus(monkeypatch, cpus)
        children = count_forks(monkeypatch)
        tensor = pairwise_group_distances(H, OFFSETS)
        assert children == []
        expected = chi_square(H, None, OFFSETS)
        assert tensor.dtype == expected.dtype and tensor.shape == expected.shape
        assert tensor.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_read_only_once_filled(self, monkeypatch, cpus):
        use_solver_cpus(monkeypatch, cpus)
        tensor = pairwise_group_distances(sparse_descriptors(4, seed=1), OFFSETS)
        assert not tensor.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            tensor[0, 1, 0] = 1.0

    def test_negative_bin_rejected_before_any_fork(self, monkeypatch):
        H = sparse_descriptors(4, seed=2)
        H[2, 5] = -1e-9
        use_solver_cpus(monkeypatch, 2)
        children = count_forks(monkeypatch)
        with pytest.raises(ValueError, match="negative bins"):
            pairwise_group_distances(H, OFFSETS)
        assert children == []


class TestWeightMatrix:
    def test_identical_same_label(self):
        g = np.array([1.0, 2.0])
        feats = [PairFeature(g, 1, ("a", "b")), PairFeature(g.copy(), 1, ("c", "d"))]
        W = weight_matrix(feats)
        assert W[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert W[0, 0] == 1.0

    def test_different_labels_zero(self):
        feats = [
            PairFeature(np.array([1.0, 0.0]), 1, ("a", "b")),
            PairFeature(np.array([1.0, 0.0]), -1, ("c", "d")),
        ]
        assert weight_matrix(feats)[0, 1] == 0.0

    def test_orthogonal_same_label(self):
        feats = [
            PairFeature(np.array([1.0, 0.0]), 1, ("a", "b")),
            PairFeature(np.array([0.0, 1.0]), 1, ("c", "d")),
        ]
        assert weight_matrix(feats)[0, 1] == 0.0

    def test_zero_norm_convention(self):
        feats = [
            PairFeature(np.zeros(2), 1, ("a", "b")),
            PairFeature(np.array([1.0, 1.0]), 1, ("c", "d")),
        ]
        assert weight_matrix(feats)[0, 1] == 1.0

    def test_symmetric_bounded(self):
        rng = np.random.default_rng(7)
        feats = random_features(rng, n=8)
        W = weight_matrix(feats)
        np.testing.assert_array_equal(W, W.T)
        assert W.max() <= 1.0 and W.min() >= -1.0


class TestLaplacianScores:
    def test_constant_dimension_sentinel(self):
        rng = np.random.default_rng(8)
        feats = random_features(rng, n=6, dims=4, zero_dim=2)
        scores = laplacian_scores(feats)
        assert np.isinf(scores[2])
        assert np.isfinite(scores[[0, 1, 3]]).all()

    def test_two_sample_hand_case(self):
        feats = [
            PairFeature(np.array([1.0, 0.0]), 1, ("a", "b")),
            PairFeature(np.array([1.0, 0.0]), 1, ("c", "d")),
        ]
        scores = laplacian_scores(feats)
        assert np.isinf(scores[0]) and np.isinf(scores[1])

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(4, 13))
            dims = int(rng.integers(2, 11))
            feats = random_features(rng, n=n, dims=dims)
            scores = laplacian_scores(feats)
            for r in range(dims):
                if np.isinf(scores[r]):
                    continue
                assert abs(scores[r] - brute_force_score(feats, r)) < 1e-10

    def test_positive_scaling_invariance(self):
        # scaling a dimension by c > 0 scales the score's numerator and
        # denominator by c^2; the similarity graph is held fixed
        rng = np.random.default_rng(10)
        feats = random_features(rng, n=8, dims=5)
        graph = weight_matrix(feats)
        scores = laplacian_scores(feats, weights=graph)
        scale = rng.uniform(0.1, 50.0, 5)
        scaled = [PairFeature(f.values * scale, f.label, f.pair) for f in feats]
        scores2 = laplacian_scores(scaled, weights=graph)
        np.testing.assert_allclose(scores, scores2, atol=1e-9)

    @given(labeled_samples())
    @example([
        # values that differ in their last bits: a mean taken before
        # shifting by row 0 rounds by as much as their spread
        PairFeature(np.full(2, v), 1, (i, i + 1))
        for i, v in enumerate([0.0009999999999999994] * 2 + [0.0009999999999999998])
    ])
    @settings(max_examples=200, deadline=None)
    def test_factored_graph_matches_dense_graph(self, feats):
        # scores, not argsort orders: exact ties (every dimension of a
        # two-sample graph scores alike) may differ in the last bit
        scores = laplacian_scores(feats)
        dense = laplacian_scores(feats, weights=weight_matrix(feats))
        np.testing.assert_array_equal(np.isinf(scores), np.isinf(dense))
        finite = np.isfinite(dense)
        np.testing.assert_allclose(scores[finite], dense[finite], rtol=0, atol=1e-12)

    def test_default_path_never_forms_the_graph(self):
        # the dense 4,000 x 4,000 graph alone would be 128 MB
        rng = np.random.default_rng(16)
        values = rng.uniform(0, 3, (4000, 84))
        values[:7] = 0.0
        feats = [PairFeature(v, 1 if i % 3 else -1, (i, i + 1))
                 for i, v in enumerate(values)]
        scores, peak = traced_peak(laplacian_scores, feats)
        assert np.isfinite(scores).all()
        assert peak < 16 * 2**20

    def test_too_few_samples(self):
        with pytest.raises(DataError):
            laplacian_scores([PairFeature(np.ones(2), 1, ("a", "b"))])


def pair_ranking(kinds):
    """Selection of the one class pair of six clips, three per class, whose
    group g holds distances of kind kinds[g]: "noise" (random), "class" (0
    within a class, 1 across) or "constant"."""
    rng = np.random.default_rng(0)
    labels = np.repeat([0, 1], 3)
    dist = np.empty((6, 6, len(kinds)))
    for g, kind in enumerate(kinds):
        if kind == "noise":
            m = rng.uniform(0.5, 1.5, (6, 6))
            dist[:, :, g] = m + m.T
        elif kind == "class":
            dist[:, :, g] = labels[:, None] != labels[None, :]
        else:
            dist[:, :, g] = 1.0
    (psel,) = fit_selection(dist, labels).values()
    return psel


class TestSelectGroups:
    def test_identity_when_all_selected(self):
        psel = pair_ranking(["noise", "class", "noise"])
        np.testing.assert_array_equal(sorted(psel.ranking), [0, 1, 2])

    def test_smallest_first(self):
        psel = pair_ranking(["noise", "noise", "class", "noise"])
        assert psel.ranking[0] == 2
        assert (np.diff(psel.scores[psel.ranking]) >= 0).all()

    def test_tie_breaks_to_lower_index(self):
        psel = pair_ranking(["constant", "noise", "constant"])
        assert psel.scores[0] == psel.scores[2] == np.inf
        np.testing.assert_array_equal(psel.ranking, [1, 0, 2])

    def test_infinite_scores_never_beat_finite(self):
        psel = pair_ranking(["constant", "noise", "constant", "class"])
        np.testing.assert_array_equal(psel.ranking, [3, 1, 0, 2])


def pair_features(distances, labels):
    """Oracle samples of a two-class sample set: one `PairFeature` per
    unordered pair of distinct clips, in `itertools.combinations` order."""
    return [
        PairFeature(distances[i, j], 1 if labels[i] == labels[j] else -1, (i, j))
        for i, j in itertools.combinations(range(len(labels)), 2)
    ]


@st.composite
def labeled_tensors(draw):
    """The distance tensor of 2-4 classes of 2-6 clips each, in shuffled
    order, with duplicate clips (zero-distance samples) and groups that are
    equal in every clip (constant, zero distances)."""
    sizes = draw(st.lists(st.integers(2, 6), min_size=2, max_size=4))
    ids = draw(st.lists(st.integers(-3, 9), min_size=len(sizes),
                        max_size=len(sizes), unique=True))
    labels = np.array(draw(st.permutations(np.repeat(ids, sizes).tolist())))
    n = labels.size
    element = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    X = draw(arrays(np.float64, (n, OFFSETS[-1] + 4), elements=element))
    for i in range(n):
        if draw(st.booleans()):
            X[i] = X[draw(st.integers(0, n - 1))]
    for start in OFFSETS:
        if draw(st.booleans()):
            X[:, start : start + 4] = X[0, start : start + 4]
    return chi_square(X, None, OFFSETS), labels


class TestFitSelection:
    def test_pair_count(self):
        rng = np.random.default_rng(0)
        (psel,) = fit_selection(group_distances(rng, 5), [0, 0, 0, 1, 1]).values()
        assert psel.n_pairs == 10  # C(5,2): 3 + 1 same-class, 6 cross
        labels = [0, 0, 0, 1, 1, 2, 2, 2, 2]
        pairs = fit_selection(group_distances(rng, 9), labels)
        assert {k: p.n_pairs for k, p in pairs.items()} == {
            (0, 1): 10, (0, 2): 21, (1, 2): 15,
        }

    def test_small_class_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DataError, match="class 1 has fewer than 2 samples"):
            fit_selection(group_distances(rng, 3), [0, 0, 1])
        with pytest.raises(DataError, match="class 2 has fewer than 2 samples"):
            fit_selection(group_distances(rng, 5), [0, 0, 1, 1, 2])

    def test_requires_two_classes(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DataError, match="at least 2 classes"):
            fit_selection(group_distances(rng, 4), [0, 0, 0, 0])

    @given(labeled_tensors())
    @settings(max_examples=100, deadline=None)
    def test_matches_pair_feature_oracle(self, tensor):
        distances, labels = tensor
        pairs = fit_selection(distances, labels)
        classes = sorted(set(labels.tolist()))
        assert list(pairs) == list(itertools.combinations(classes, 2))
        for (a, b), psel in pairs.items():
            idx = np.flatnonzero(np.isin(labels, [a, b]))
            feats = pair_features(distances[np.ix_(idx, idx)], labels[idx])
            scores = laplacian_scores(feats)
            np.testing.assert_array_equal(psel.scores, scores)
            np.testing.assert_array_equal(
                psel.ranking, np.argsort(scores, kind="stable")
            )
            assert psel.n_pairs == len(feats)

    def test_pairs_cover_all_class_pairs(self):
        rng = np.random.default_rng(11)
        labels = [0, 0, 0, 1, 1, 1, 2, 2, 2]
        pairs = fit_selection(group_distances(rng, 9), labels)
        assert set(pairs) == {(0, 1), (0, 2), (1, 2)}
        for (a, b), psel in pairs.items():
            assert (psel.class_a, psel.class_b) == (a, b)
            np.testing.assert_array_equal(sorted(psel.ranking), [0, 1, 2])
            assert (np.diff(psel.scores[psel.ranking]) >= 0).all()

    def test_p_grid_covers_extremes(self):
        grid = default_p_grid(84)
        assert grid[0] >= 1 and grid[-1] == 84
        assert grid == sorted(set(grid))
