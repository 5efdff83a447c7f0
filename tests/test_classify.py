import dataclasses
import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import record_smo_batches
from mexp.classify import (
    CV_FOLDS,
    DEFAULT_C_GRID,
    MulticlassModel,
    chi_square_distances,
    cross_validate,
    cv_folds,
    heldout_votes,
    load_model,
    mean_distance_gamma,
    save_model,
    select_penalty,
    smo_solve,
    smo_solve_batch,
    train_pairwise,
    vote,
)
from mexp.errors import DataError
from mexp.selection import chi_square, default_p_grid, fit_selection


def histogram_clusters(rng, n_per_class, bins=8, spread=0.02):
    """Two well-separated clusters of normalized histograms."""
    centers = np.zeros((2, bins))
    centers[0, :2] = 0.5
    centers[1, -2:] = 0.5
    X, y = [], []
    for c in (0, 1):
        for _ in range(n_per_class):
            v = np.abs(centers[c] + spread * rng.random(bins))
            X.append(v / v.sum())
            y.append(c)
    return np.array(X), np.array(y)


def chi_square_oracle(a, b):
    """Scalar loop over bins, skipping the empty ones."""
    return sum((x - y) ** 2 / (x + y) for x, y in zip(a, b) if x + y > 0)


class TestKernel:
    def test_self_similarity_is_one(self):
        x = np.array([[0.25, 0.75]])
        assert np.exp(-chi_square_distances(x, x) / 0.7)[0, 0] == 1.0

    def test_monotone_in_distance(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 8)
        Y = np.stack([np.abs(x + shift) for shift in np.linspace(0, 0.5, 6)])
        dist = chi_square_distances(x[None, :], Y)[0]
        kernels = np.exp(-dist / 1.0)[np.argsort(dist)]
        assert all(a >= b - 1e-15 for a, b in zip(kernels, kernels[1:]))

    def test_gram_positive_semidefinite(self):
        # eigendecomposition oracle on random normalized histograms
        rng = np.random.default_rng(1)
        for _ in range(5):
            X = rng.uniform(0, 1, (10, 16))
            X /= X.sum(axis=1, keepdims=True)
            dist = chi_square_distances(X, X)
            gram = np.exp(-dist / mean_distance_gamma(dist))
            gram = (gram + gram.T) / 2
            assert np.linalg.eigvalsh(gram).min() >= -1e-8

    def test_distances_match_scalar_op(self):
        rng = np.random.default_rng(2)
        A = rng.uniform(0, 1, (4, 6))
        B = rng.uniform(0, 1, (3, 6))
        dist = chi_square_distances(A, B)
        for i in range(4):
            for j in range(3):
                assert abs(dist[i, j] - chi_square_oracle(A[i], B[j])) < 1e-12


class TestSmo:
    def test_separated_clusters_fit_exactly(self):
        rng = np.random.default_rng(3)
        X, y = histogram_clusters(rng, 8)
        # nearest-neighbor separability check before trusting the SVM test
        dist = chi_square_distances(X, X)
        for i in range(len(y)):
            order = np.argsort(dist[i])
            assert y[order[1]] == y[i]
        machine = train_pairwise(X, y, (0, 1), c=10.0)
        preds = np.where(machine.decision(X) > 0, 0, 1)
        assert (preds == y).all()
        # the clip's distances to the support vectors in either argument order
        svs = machine.support_vectors
        for x in X:
            assert np.array_equal(
                chi_square_distances(x[None], svs)[0],
                chi_square_distances(svs, x[None])[:, 0],
            )
        assert np.abs(machine.dual_coef).max() <= 10.0 + 1e-9
        assert machine.kkt_gap <= 1e-3
        assert machine.converged

    def test_duplication_leaves_decision_unchanged(self):
        rng = np.random.default_rng(4)
        X, y = histogram_clusters(rng, 6, spread=0.2)
        test_X, _ = histogram_clusters(rng, 4, spread=0.25)
        m1 = train_pairwise(X, y, (0, 1), c=5.0, gamma=1.0, tol=1e-8)
        X2 = np.concatenate([X, X])
        y2 = np.concatenate([y, y])
        m2 = train_pairwise(X2, y2, (0, 1), c=5.0, gamma=1.0, tol=1e-8)
        assert np.abs(m1.decision(test_X) - m2.decision(test_X)).max() < 1e-6

    def test_tiny_penalty_shrinks_decisions(self):
        rng = np.random.default_rng(5)
        X, y = histogram_clusters(rng, 6)
        machine = train_pairwise(X, y, (0, 1), c=1e-6, gamma=1.0)
        decisions = machine.decision(X)
        assert np.abs(decisions - machine.bias).max() <= len(y) * 1e-6 + 1e-9
        preds = np.where(decisions > 0, 0, 1)
        majority = max(np.bincount(y)) / len(y)
        assert (preds == y).mean() >= majority - 1e-12

    def test_smo_respects_box_and_equality(self):
        rng = np.random.default_rng(6)
        X, y01 = histogram_clusters(rng, 5, spread=0.3)
        y = np.where(y01 == 0, 1.0, -1.0)
        K = np.exp(-chi_square_distances(X, X))
        alpha, bias, gap, converged = smo_solve(K, y, c=2.0)
        assert converged and gap <= 1e-3
        assert (alpha >= -1e-12).all() and (alpha <= 2.0 + 1e-12).all()
        assert abs(alpha @ y) < 1e-9

    def test_empty_class_rejected(self):
        X = np.ones((3, 4))
        with pytest.raises(DataError):
            train_pairwise(X, np.array([0, 0, 0]), (0, 1), c=1.0)


def scalar_smo(K, y, c, tol=1e-3, max_pair_updates=10**6):
    """Oracle: SMO on one problem as a plain per-step loop (the solver before
    problems were batched), also counting its pair updates."""
    n = y.size
    alpha = np.zeros(n)
    grad = -np.ones(n)
    gap = np.inf
    converged = False
    updates = 0
    slack = 1e-12 * c
    for _ in range(max_pair_updates):
        yg = -(y * grad)
        up = ((y > 0) & (alpha < c - slack)) | ((y < 0) & (alpha > slack))
        low = ((y < 0) & (alpha < c - slack)) | ((y > 0) & (alpha > slack))
        if not up.any() or not low.any():
            gap = 0.0
            converged = True
            break
        i = int(np.argmax(np.where(up, yg, -np.inf)))
        j = int(np.argmin(np.where(low, yg, np.inf)))
        gap = yg[i] - yg[j]
        if gap <= tol:
            converged = True
            break
        curvature = K[i, i] + K[j, j] - 2.0 * K[i, j]
        step = gap / max(curvature, 1e-12)
        step = min(step, c - alpha[i] if y[i] > 0 else alpha[i])
        step = min(step, alpha[j] if y[j] > 0 else c - alpha[j])
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        np.clip(alpha, 0.0, c, out=alpha)
        grad += step * y * (K[:, i] - K[:, j])
        updates += 1
    yg = -(y * grad)
    free = (alpha > slack) & (alpha < c - slack)
    if free.any():
        bias = float(yg[free].mean())
    else:
        up = ((y > 0) & (alpha < c - slack)) | ((y < 0) & (alpha > slack))
        low = ((y < 0) & (alpha < c - slack)) | ((y > 0) & (alpha > slack))
        hi = yg[up].max() if up.any() else 0.0
        lo = yg[low].min() if low.any() else 0.0
        bias = float((hi + lo) / 2.0)
    return alpha, bias, float(max(gap, 0.0)), converged, updates


def kernel_problem(seed, n, distinct, labeling):
    """Chi-square kernel of n histograms drawn from `distinct` different
    ones (repeats make argmax ties) and +1/-1 labels: random, so repeated
    histograms may disagree, or all +1, which stops before any update."""
    rng = np.random.default_rng(seed)
    pool = rng.random((distinct, 6))
    X = (pool / pool.sum(axis=1, keepdims=True))[rng.integers(0, distinct, n)]
    dist = chi_square_distances(X, X)
    y = rng.choice([-1.0, 1.0], n) if labeling == "random" else np.ones(n)
    return np.exp(-dist / mean_distance_gamma(dist)), y


def pad_batch(problems):
    """Stack (K, y) problems of mixed size, padded at the end with y = 0."""
    width = max(y.size for _, y in problems)
    K = np.zeros((len(problems), width, width))
    Y = np.zeros((len(problems), width))
    for k, (Kp, yp) in enumerate(problems):
        K[k, : yp.size, : yp.size] = Kp
        Y[k, : yp.size] = yp
    return K, Y


problem_specs = st.lists(
    st.tuples(
        st.integers(0, 2**32 - 1),
        st.integers(2, 40),
        st.integers(1, 40),
        st.sampled_from(["random", "random", "random", "one class"]),
        st.sampled_from(DEFAULT_C_GRID),
    ),
    min_size=1,
    max_size=6,
)


class TestSmoBatch:
    @given(problem_specs, st.sampled_from([1e-3, 1e-6]))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_scalar_loop(self, specs, tol):
        problems = [
            kernel_problem(seed, n, min(distinct, n), labeling)
            for seed, n, distinct, labeling, _ in specs
        ]
        cs = [c for *_, c in specs]
        alpha, bias, gap, converged, updates = smo_solve_batch(
            *pad_batch(problems), cs, tol
        )
        for k, ((K, y), c) in enumerate(zip(problems, cs)):
            a, b, g, conv, n_updates = scalar_smo(K, y, c, tol)
            assert np.array_equal(alpha[k, : y.size], a)
            assert (alpha[k, y.size:] == 0).all()
            assert bias[k] == b and gap[k] == g
            assert converged[k] == conv and updates[k] == n_updates

    def test_one_class_stops_before_any_update(self):
        K, y = kernel_problem(1, 5, 5, "one class")
        alpha, bias, gap, converged, updates = smo_solve_batch(K[None], y[None], 1.0)
        assert updates[0] == 0 and converged[0] and gap[0] == 0.0
        assert not alpha.any()

    def test_cap_warns_once_per_capped_problem(self):
        problems = [
            kernel_problem(20, 30, 30, "random"),
            kernel_problem(21, 30, 30, "one class"),
            kernel_problem(22, 12, 12, "random"),
        ]
        batch = pad_batch(problems)
        cap = 100
        _, _, _, converged, updates = smo_solve_batch(*batch, 128.0)
        assert converged.all() and updates[0] > cap > updates[2] > updates[1] == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            alpha, bias, gap, converged, capped = smo_solve_batch(
                *batch, 128.0, max_pair_updates=cap
            )
        assert [w.category for w in caught] == [RuntimeWarning]
        assert str(caught[0].message).startswith("SMO stopped at the update cap")
        assert converged.tolist() == [False, True, True]
        assert capped.tolist() == [cap, 0, updates[2]]
        for k, (K, y) in enumerate(problems):
            a, b, g, conv, n_updates = scalar_smo(K, y, 128.0, max_pair_updates=cap)
            assert np.array_equal(alpha[k, : y.size], a)
            assert (bias[k], gap[k], converged[k], capped[k]) == (b, g, conv, n_updates)

    def test_smo_solve_is_a_batch_of_one(self):
        K, y = kernel_problem(3, 12, 7, "random")
        alpha, bias, gap, converged = smo_solve(K, y, 2.0)
        a, b, g, conv, _ = scalar_smo(K, y, 2.0)
        assert np.array_equal(alpha, a)
        assert (bias, gap, converged) == (b, g, conv)
        assert type(bias) is float and type(converged) is bool

    def test_rejects_nonpositive_penalty(self):
        K, y = kernel_problem(4, 4, 4, "random")
        with pytest.raises(ValueError):
            smo_solve_batch(np.stack([K, K]), np.stack([y, y]), [1.0, 0.0])


class TestSelectPenalty:
    def _tensor(self, X):
        return chi_square(X, None)  # one group

    def test_single_value_grid(self):
        rng = np.random.default_rng(7)
        X, y = histogram_clusters(rng, 5)
        c = select_penalty(self._tensor(X), y, c_grid=[4.0], seed=0)
        assert c == 4.0

    def test_ties_prefer_smallest(self):
        rng = np.random.default_rng(8)
        X, y = histogram_clusters(rng, 6)  # separable: every C reaches 100%
        c = select_penalty(self._tensor(X), y, c_grid=[8.0, 0.5, 2.0], seed=0)
        assert c == 0.5

    def test_deterministic_and_stable_across_seeds(self):
        rng = np.random.default_rng(9)
        X, y = histogram_clusters(rng, 8, spread=0.45)
        dist = self._tensor(X)
        grid = sorted(DEFAULT_C_GRID)
        picks = [
            grid.index(select_penalty(dist, y, grid, seed=s))
            for s in (0, 1, 2)
        ]
        assert picks[0] == grid.index(
            select_penalty(dist, y, grid, seed=0)
        )
        assert max(picks) - min(picks) <= 1

    def test_too_few_samples_per_class(self):
        rng = np.random.default_rng(10)
        X, y = histogram_clusters(rng, 2)
        with pytest.raises(DataError):
            select_penalty(self._tensor(X), y, seed=0)


def grouped_histograms(seed, n_per_class, n_classes=3, n_groups=6, bins=6, signal=0.3):
    """Flat descriptors of `n_groups` histograms each, their labels and group
    offsets. Half the groups carry a weak class signal, so classes overlap."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_classes), n_per_class)
    H = rng.random((labels.size, n_groups, bins))
    for g in range(n_groups // 2):
        H[np.arange(labels.size), g, (labels + g) % bins] += signal
    H /= H.sum(axis=2, keepdims=True)
    return H.reshape(labels.size, -1), labels, np.arange(n_groups) * bins


def tally_oracle(decisions, classes):
    """One sample's one-vs-one tally as a plain loop over its decisions."""
    votes = {c: 0 for c in classes}
    margin = {c: 0.0 for c in classes}
    for (a, b), f in decisions.items():
        w = a if f > 0 else b
        votes[w] += 1
        margin[w] += abs(f)
    return min(classes, key=lambda c: (-votes[c], -margin[c], c))


def looped_group_sum(distances, groups=None):
    """A machine's distances as a loop over its groups in ascending order,
    all groups when None. Below 8 groups numpy's pairwise sum is this loop
    too, so one loop matches both of `machine_distances`' orders."""
    groups = sorted(range(distances.shape[2]) if groups is None else groups)
    total = distances[:, :, groups[0]].copy()
    for g in groups[1:]:
        total += distances[:, :, g]
    return total


def looped_cv_accuracy(distances, fold_candidates, labels, classes, seed):
    """Oracle for the mean accuracies of `cross_validate`: each machine's
    distances summed by `looped_group_sum` from the whole tensor (all groups
    for a pair that `selected` lacks), every machine of every candidate solved
    by its own `smo_solve` call, every sample tallied on its own."""
    accuracy = []
    for fit, ev in cv_folds(labels, seed):
        row = []
        for selected, penalties in fold_candidates(fit, ev):
            for c in penalties:
                decisions = {}
                for a, b in itertools.combinations(classes, 2):
                    groups = None if selected is None else selected.get((a, b))
                    dist = looped_group_sum(distances, groups)
                    sub = fit[np.isin(labels[fit], [a, b])]
                    dist_fit = dist[np.ix_(sub, sub)]
                    g = mean_distance_gamma(dist_fit)
                    y = np.where(labels[sub] == a, 1.0, -1.0)
                    alpha, bias, _, _ = smo_solve(np.exp(-dist_fit / g), y, c)
                    K_eval = np.exp(-dist[np.ix_(ev, sub)] / g)
                    decisions[(a, b)] = K_eval @ (alpha * y) + bias
                votes = [
                    tally_oracle({pair: d[t] for pair, d in decisions.items()}, classes)
                    for t in range(ev.size)
                ]
                row.append(np.mean(np.array(votes) == labels[ev]))
        accuracy.append(row)
    return np.mean(accuracy, axis=0)


class TestCrossValidate:
    classes = [0, 1, 2]

    def outer_folds(self):
        """Group distances and labels of three training sets of one
        non-separable set, each leaving a third of it out."""
        X, labels, offsets = grouped_histograms(5, 9)
        dist = chi_square(X, None, offsets)
        for out in range(3):
            train = np.flatnonzero(np.arange(labels.size) % 3 != out)
            yield dist[np.ix_(train, train)], labels[train]

    def test_penalty_grid_matches_looped_solves(self):
        grid = sorted(DEFAULT_C_GRID)
        picks = []
        for dist, labels in self.outer_folds():
            def candidates(fit, ev):
                return [(None, grid)]

            best, accuracy = cross_validate(dist, candidates, labels, 0)
            expected = looped_cv_accuracy(dist, candidates, labels, self.classes, 0)
            assert np.array_equal(accuracy, expected)
            assert best == int(np.argmax(expected))
            picks.append(best)
        assert len(set(picks)) > 1  # C matters here, and the folds disagree

    def test_p_sweep_matches_looped_solves(self):
        for dist, labels in self.outer_folds():
            n_groups = dist.shape[2]

            def candidates(fit, ev):
                ranked = fit_selection(dist[np.ix_(fit, fit)], labels[fit])
                for p in default_p_grid(n_groups):
                    yield {pair: psel.ranking[:p] for pair, psel in ranked.items()}, [2.0]

            best, accuracy = cross_validate(dist, candidates, labels, 1)
            expected = looped_cv_accuracy(dist, candidates, labels, self.classes, 1)
            assert np.array_equal(accuracy, expected)
            assert best == int(np.argmax(expected))
            assert len(set(accuracy.tolist())) > 1


class TestHeldoutFolds:
    """Several folds in one `heldout_votes` call share one padded SMO batch
    and vote as if each fold were alone."""

    classes = [0, 1, 2]

    def uneven_set(self):
        """Group distances and labels of classes of 4, 5 and 7 samples: none
        a multiple of CV_FOLDS, so the folds fit machines on sets of
        different sizes."""
        X, labels, offsets = grouped_histograms(11, 7)
        keep = np.r_[0:4, 7:12, 14:21]
        return chi_square(X[keep], None, offsets), labels[keep]

    def fold_candidates(self, kind, dist, labels):
        if kind == "penalty grid":
            return lambda fit, ev: [(None, sorted(DEFAULT_C_GRID))]

        def p_sweep(fit, ev):  # one ranking per fold
            ranked = fit_selection(dist[np.ix_(fit, fit)], labels[fit])
            for p in default_p_grid(dist.shape[2]):
                yield {pair: psel.ranking[:p] for pair, psel in ranked.items()}, [2.0]

        return p_sweep

    @pytest.mark.parametrize("kind", ["penalty grid", "p sweep"])
    def test_each_fold_votes_and_updates_as_if_alone(self, kind, monkeypatch):
        dist, labels = self.uneven_set()
        candidates = self.fold_candidates(kind, dist, labels)
        splits = cv_folds(labels, seed=2)
        calls = record_smo_batches(monkeypatch)
        together = heldout_votes(
            dist, [(candidates(fit, ev), fit, ev) for fit, ev in splits], labels
        )
        alone = [
            heldout_votes(dist, [(candidates(fit, ev), fit, ev)], labels)
            for fit, ev in splits
        ]
        assert len(together) == len(alone) == CV_FOLDS
        for votes, (only,) in zip(together, alone):
            assert np.array_equal(votes, only)
        (shape, updates), *single = calls
        assert len(single) == CV_FOLDS
        widths = [s[1] for s, _ in single]
        assert len(set(widths)) > 1 and shape[1] == max(widths)  # padded
        assert np.array_equal(updates, np.concatenate([u for _, u in single]))

    @pytest.mark.parametrize("kind", ["penalty grid", "p sweep"])
    def test_cross_validate_is_one_batch(self, kind, monkeypatch):
        dist, labels = self.uneven_set()
        calls = record_smo_batches(monkeypatch)
        cross_validate(dist, self.fold_candidates(kind, dist, labels), labels, seed=2)
        n_candidates = {
            "penalty grid": len(DEFAULT_C_GRID),
            "p sweep": len(default_p_grid(dist.shape[2])),
        }[kind]
        [(shape, _)] = calls
        assert shape[0] == CV_FOLDS * n_candidates * 3  # three machines


    def test_one_group_tensor_votes_as_the_full_tensor(self):
        """Selection off sums the groups once per run: with `selected=None`, a
        one-group tensor of those sums votes as the tensor of 12 groups."""
        X, labels, offsets = grouped_histograms(13, 7, n_groups=12)
        dist = chi_square(X, None, offsets)
        folds = [
            ([(None, sorted(DEFAULT_C_GRID))], fit, ev)
            for fit, ev in cv_folds(labels, seed=3)
        ]
        full = heldout_votes(dist, folds, labels)
        summed = heldout_votes(dist.sum(axis=2, keepdims=True), folds, labels)
        for a, b in zip(full, summed, strict=True):
            assert np.array_equal(a, b)

    def test_pair_missing_from_selected_uses_all_groups(self):
        dist, labels = self.uneven_set()
        lacking = {(0, 1): [0, 3], (1, 2): [5, 2, 4]}
        explicit = {**lacking, (0, 2): list(range(dist.shape[2]))}
        fit, ev = cv_folds(labels, seed=4)[0]
        [votes] = heldout_votes(
            dist, [([(lacking, [2.0]), (explicit, [2.0])], fit, ev)], labels
        )
        assert np.array_equal(votes[0], votes[1])
        _, accuracy = cross_validate(
            dist, lambda fit, ev: [(lacking, [0.5, 2.0])], labels, 4
        )
        assert np.array_equal(
            accuracy,
            looped_cv_accuracy(
                dist, lambda fit, ev: [(lacking, [0.5, 2.0])], labels, self.classes, 4
            ),
        )


class TestVote:
    def test_two_class_sign(self):
        assert vote({(0, 1): 0.7}, [0, 1]) == 0
        assert vote({(0, 1): -0.7}, [0, 1]) == 1

    def test_unanimous(self):
        decisions = {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 0.5}
        assert vote(decisions, [0, 1, 2]) == 0

    def test_matches_brute_force_tally(self):
        rng = np.random.default_rng(11)
        classes = [0, 1, 2, 3]
        for _ in range(200):
            decisions = {}
            for i in range(4):
                for j in range(i + 1, 4):
                    decisions[(i, j)] = float(rng.standard_normal())
            got = vote(decisions, classes)
            votes = {c: 0 for c in classes}
            margin = {c: 0.0 for c in classes}
            for (a, b), f in decisions.items():
                w = a if f > 0 else b
                votes[w] += 1
                margin[w] += abs(f)
            best = sorted(
                classes, key=lambda c: (-votes[c], -margin[c], c)
            )[0]
            assert got == best

    def test_tie_falls_to_margin_then_label(self):
        assert vote({(0, 1): 0.2, (0, 2): -0.9, (1, 2): 0.3}, [0, 1, 2]) == 2
        assert vote({(0, 1): 0.5, (0, 2): -0.5, (1, 2): 0.5}, [0, 1, 2]) == 0

    def test_array_tally_matches_per_sample_tally(self):
        rng = np.random.default_rng(13)
        classes = [3, 1, 2, 0]
        levels = [-1.0, -0.5, 0.0, 0.5, 1.0]  # few values: ties in votes and margins
        decisions = {
            pair: rng.choice(levels, (4, 50))
            for pair in itertools.combinations(sorted(classes), 2)
        }
        got = vote(decisions, classes)
        assert got.shape == (4, 50)
        for k, t in np.ndindex(got.shape):
            one = {pair: f[k, t] for pair, f in decisions.items()}
            assert got[k, t] == tally_oracle(one, classes)

    def test_no_machines_vote_for_the_lowest_label(self):
        assert vote({}, [2, 1]) == 1


class TestStratifiedFolds:
    def test_deterministic(self):
        labels = np.array([0] * 7 + [1] * 8)

        def evals(seed):
            return [ev.tolist() for _, ev in cv_folds(labels, seed)]

        assert evals(42) == evals(42)
        assert evals(42) != evals(43)

    def test_partition(self):
        labels = np.array([0, 1, 2] * 4)
        folds = cv_folds(labels, 0)
        flat = sorted(i for _, ev in folds for i in ev.tolist())
        assert flat == list(range(12))
        for _, ev in folds:
            assert {int(labels[i]) for i in ev} == {0, 1, 2}

    @pytest.mark.parametrize("n_classes", [2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 1, 7, 1000003])
    def test_cv_fit_sets_are_the_set_differences(self, n_classes, seed):
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.repeat(np.arange(n_classes), rng.integers(3, 9)))
        everyone = np.arange(labels.size)
        for fit, ev in cv_folds(labels, seed):
            expected = np.setdiff1d(everyone, ev)
            assert fit.dtype == expected.dtype
            assert fit.tobytes() == expected.tobytes()


class TestModelSerialization:
    def _tiny_model(self):
        rng = np.random.default_rng(12)
        X, y = histogram_clusters(rng, 5)
        machine = train_pairwise(
            X, y, (0, 1), c=2.0, selected_groups=[0, 1], gram_distances=None
        )
        return MulticlassModel([machine], [0, 1], "fp123", {"note": "test"}), X

    def test_round_trip_bit_stable(self, tmp_path):
        model, X = self._tiny_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        again = load_model(path)
        m0, m1 = model.machines[0], again.machines[0]
        np.testing.assert_array_equal(m0.support_vectors, m1.support_vectors)
        np.testing.assert_array_equal(m0.dual_coef, m1.dual_coef)
        assert m0.bias == m1.bias and m0.gamma == m1.gamma
        np.testing.assert_array_equal(m0.decision(X), m1.decision(X))
        # a second save of the loaded model is byte-identical
        path2 = tmp_path / "model2.json"
        save_model(again, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch):
        model, _ = self._tiny_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        before = path.read_bytes()

        def dump_partway(doc, f, **kwargs):
            f.write('{"format": ')
            raise OSError("no space left on device")

        monkeypatch.setattr(json, "dump", dump_partway)
        with pytest.raises(OSError, match="no space"):
            save_model(dataclasses.replace(model, fingerprint="other"), path)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["model.json"]

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(DataError):
            load_model(path)
