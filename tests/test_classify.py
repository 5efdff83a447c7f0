import numpy as np
import pytest

from mexp.classify import (
    DEFAULT_C_GRID,
    MulticlassModel,
    chi_square_distances,
    load_model,
    mean_distance_gamma,
    save_model,
    select_penalty,
    smo_solve,
    stratified_folds,
    train_pairwise,
    vote,
)
from mexp.errors import DataError


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
        preds = [0 if machine.decision(x) > 0 else 1 for x in X]
        assert (np.array(preds) == y).all()
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
        for x in test_X:
            assert abs(m1.decision(x) - m2.decision(x)) < 1e-6

    def test_tiny_penalty_shrinks_decisions(self):
        rng = np.random.default_rng(5)
        X, y = histogram_clusters(rng, 6)
        machine = train_pairwise(X, y, (0, 1), c=1e-6, gamma=1.0)
        decisions = np.array([machine.decision(x) for x in X])
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


class TestSelectPenalty:
    def _machine_views(self, X, y):
        dist = chi_square_distances(X, X)
        return {(0, 1): dist}

    def test_single_value_grid(self):
        rng = np.random.default_rng(7)
        X, y = histogram_clusters(rng, 5)
        c = select_penalty(self._machine_views(X, y), y, [0, 1], c_grid=[4.0], seed=0)
        assert c == 4.0

    def test_ties_prefer_smallest(self):
        rng = np.random.default_rng(8)
        X, y = histogram_clusters(rng, 6)  # separable: every C reaches 100%
        c = select_penalty(
            self._machine_views(X, y), y, [0, 1], c_grid=[8.0, 0.5, 2.0], seed=0
        )
        assert c == 0.5

    def test_deterministic_and_stable_across_seeds(self):
        rng = np.random.default_rng(9)
        X, y = histogram_clusters(rng, 8, spread=0.45)
        views = self._machine_views(X, y)
        grid = sorted(DEFAULT_C_GRID)
        picks = [
            grid.index(select_penalty(views, y, [0, 1], grid, seed=s))
            for s in (0, 1, 2)
        ]
        assert picks[0] == grid.index(
            select_penalty(views, y, [0, 1], grid, seed=0)
        )
        assert max(picks) - min(picks) <= 1

    def test_too_few_samples_per_class(self):
        rng = np.random.default_rng(10)
        X, y = histogram_clusters(rng, 2)
        with pytest.raises(DataError):
            select_penalty(self._machine_views(X, y), y, [0, 1], seed=0)


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


class TestStratifiedFolds:
    def test_deterministic(self):
        labels = np.array([0] * 7 + [1] * 8)
        assert stratified_folds(labels, 3, 42) == stratified_folds(labels, 3, 42)
        assert stratified_folds(labels, 3, 42) != stratified_folds(labels, 3, 43)

    def test_partition(self):
        labels = np.array([0, 1, 2] * 4)
        folds = stratified_folds(labels, 3, 0)
        flat = sorted(i for f in folds for i in f)
        assert flat == list(range(12))
        for f in folds:
            assert {int(labels[i]) for i in f} == {0, 1, 2}


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
        for x in X:
            assert m0.decision(x) == m1.decision(x)
        # a second save of the loaded model is byte-identical
        path2 = tmp_path / "model2.json"
        save_model(again, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(DataError):
            load_model(path)
