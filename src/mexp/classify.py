"""Chi-square-kernel SVM with one-vs-one voting.

The kernel is exp(-chi2(x, y) / gamma) over concatenated group histograms,
with gamma either fixed or set to the mean pairwise chi-square distance of
the training set. Binary machines are trained by sequential minimal
optimization on the soft-margin dual (working pair = maximal KKT violation);
the penalty C is picked by stratified 3-fold cross validation over a grid
(`cross_validate`, which also scores the group counts of the P sweep).

Cross validation and evaluation score samples from a distance matrix that
already holds every sample pair (`heldout_votes`); a `PairwiseSvm` keeps
its support vectors to score vectors outside that matrix.
"""

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .selection import chi_square

DEFAULT_C_GRID = (2.0**-5, 2.0**-3, 2.0**-1, 2.0, 2.0**3, 2.0**5, 2.0**7)
MODEL_FORMAT = "mexp-model v1"
CV_FOLDS = 3  # inner cross validation, for the penalty and the group count


def chi_square_distances(rows_a, rows_b) -> np.ndarray:
    """Pairwise chi-square distances between two stacks of vectors."""
    return chi_square(rows_a, rows_b)[:, :, 0]


def mean_distance_gamma(dist: np.ndarray) -> float:
    """Mean of the strictly-upper-triangle distances; 1.0 if degenerate."""
    n = dist.shape[0]
    if n < 2:
        return 1.0
    iu = np.triu_indices(n, k=1)
    mean = float(dist[iu].mean())
    return mean if mean > 0 else 1.0


def smo_solve(K, y, c: float, tol: float = 1e-3, max_pair_updates: int = 10**6):
    """Soft-margin dual solve on a precomputed kernel matrix.

    Minimizes 1/2 a'Qa - e'a with Q = yy' * K subject to y'a = 0 and
    0 <= a <= C, updating the maximal-violating pair per step. Returns
    (alpha, bias, kkt_gap, converged).
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    if c <= 0:
        raise ValueError("C must be positive")
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of the dual objective at alpha = 0
    gap = np.inf
    converged = False
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
    else:
        warnings.warn(
            f"SMO stopped at the update cap with KKT gap {gap:.3e}", stacklevel=2
        )

    # bias from free support vectors; midpoint of the violation bounds otherwise
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
    return alpha, bias, float(max(gap, 0.0)), converged


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

    def decision(self, x) -> float:
        dist = chi_square_distances(self.support_vectors, np.asarray(x)[None, :])[:, 0]
        return float(self.dual_coef @ np.exp(-dist / self.gamma) + self.bias)


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
    if gamma is None:
        gamma = mean_distance_gamma(gram_distances)
    K = np.exp(-np.asarray(gram_distances) / gamma)
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

    def predict_descriptor(self, desc) -> int:
        if desc.fingerprint != self.fingerprint:
            raise DataError(
                f"descriptor fingerprint {desc.fingerprint} does not match model "
                f"{self.fingerprint}"
            )
        n_groups = len(desc.layout.planes)
        decisions = {}
        for m in self.machines:
            sel = m.selected_groups if m.selected_groups.size else None
            if sel is not None and not ((sel >= 0) & (sel < n_groups)).all():
                raise DataError(
                    f"machine ({m.class_a}, {m.class_b}) selects groups outside "
                    f"the descriptor's {n_groups}"
                )
            x = desc.selected(sel)
            if x.size != m.support_vectors.shape[1]:
                raise DataError(
                    f"machine ({m.class_a}, {m.class_b}) has support vectors of "
                    f"length {m.support_vectors.shape[1]}, the descriptor {x.size}"
                )
            decisions[(m.class_a, m.class_b)] = m.decision(x)
        return vote(decisions, self.classes)


def vote(decisions: dict, classes) -> int:
    """One-vs-one vote tally; ties fall to the larger summed absolute decision
    margin of the tied label, then to the lower label."""
    votes = {c: 0 for c in classes}
    margin = {c: 0.0 for c in classes}
    for (a, b), f in decisions.items():
        winner = a if f > 0 else b
        votes[winner] += 1
        margin[winner] += abs(f)
    return min(classes, key=lambda c: (-votes[c], -margin[c], c))


def stratified_folds(labels, n_folds: int, seed: int) -> list:
    """Deterministic class-stratified fold assignment; returns index lists.
    Each class is dealt round-robin, so a class with at least n_folds
    samples appears in every fold."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(n_folds)]
    for c in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            folds[pos % n_folds].append(int(i))
    return [sorted(f) for f in folds]


def cv_folds(labels, classes, seed: int) -> list:
    """(fit, eval) index arrays of stratified CV_FOLDS-fold cross
    validation, in which every fold holds every class."""
    labels = np.asarray(labels)
    counts = {c: int((labels == c).sum()) for c in classes}
    if min(counts.values()) < CV_FOLDS:
        raise DataError(
            f"cross validation needs >= {CV_FOLDS} samples per class, got {counts}"
        )
    everyone = np.arange(labels.size)
    return [
        (np.setdiff1d(everyone, fold), np.asarray(fold))
        for fold in stratified_folds(labels, CV_FOLDS, seed)
    ]


def heldout_votes(views, labels, classes, fit_idx, eval_idx, c: float, gamma=None):
    """One-vs-one votes of the eval samples, from machines trained on the
    fit samples.

    `views` maps each class pair (a, b) to the pairwise chi-square distance
    matrix of that machine's groups, rows and columns aligned with `labels`.
    Each machine trains by SMO on the fit samples of its two classes, with
    gamma from those samples when None.
    """
    labels = np.asarray(labels)
    decisions = {}
    for (a, b), dist in views.items():
        sub = fit_idx[np.isin(labels[fit_idx], [a, b])]
        dist_fit = dist[np.ix_(sub, sub)]
        g = gamma if gamma is not None else mean_distance_gamma(dist_fit)
        y = np.where(labels[sub] == a, 1.0, -1.0)
        alpha, bias, _, _ = smo_solve(np.exp(-dist_fit / g), y, c)
        K_eval = np.exp(-dist[np.ix_(eval_idx, sub)] / g)
        decisions[(a, b)] = K_eval @ (alpha * y) + bias
    return np.array([
        vote({pair: d[t] for pair, d in decisions.items()}, classes)
        for t in range(eval_idx.size)
    ])


def cross_validate(fold_candidates, labels, classes, seed: int, gamma=None) -> int:
    """Index of the candidate with the highest mean one-vs-one accuracy over
    stratified CV_FOLDS-fold cross validation; ties go to the first.

    `fold_candidates(fit, eval)` yields, for one fold, every candidate in
    the same order as a (views, C) pair for `heldout_votes`.
    """
    labels = np.asarray(labels)
    accuracy = []
    for fit, ev in cv_folds(labels, classes, seed):
        accuracy.append([
            np.mean(heldout_votes(v, labels, classes, fit, ev, c, gamma) == labels[ev])
            for v, c in fold_candidates(fit, ev)
        ])
    return int(np.argmax(np.mean(accuracy, axis=0)))


def select_penalty(
    distances_by_machine,
    labels,
    classes,
    c_grid=DEFAULT_C_GRID,
    seed: int = 0,
    gamma: float | None = None,
) -> float:
    """Pick the C of the grid that `cross_validate` scores best; ties prefer
    the smaller C.

    `distances_by_machine` maps each class pair to the full pairwise
    chi-square distance matrix of that machine's feature view (rows/columns
    aligned with `labels`).
    """
    c_grid = sorted(float(c) for c in c_grid)
    if not c_grid:
        raise ConfigError("empty penalty grid")
    if len(c_grid) == 1:
        return c_grid[0]
    best = cross_validate(
        lambda fit, ev: ((distances_by_machine, c) for c in c_grid),
        labels, classes, seed, gamma,
    )
    return c_grid[best]


# ---------------------------------------------------------------------------
# Model serialization


def _machine_to_json(m: PairwiseSvm) -> dict:
    return {
        "class_a": m.class_a,
        "class_b": m.class_b,
        "selected_groups": [int(i) for i in m.selected_groups],
        "support_vectors": [[float(v) for v in row] for row in m.support_vectors],
        "dual_coef": [float(v) for v in m.dual_coef],
        "bias": float(m.bias),
        "gamma": float(m.gamma),
        "penalty": float(m.penalty),
        "kkt_gap": float(m.kkt_gap),
        "converged": bool(m.converged),
    }


def _machine_from_json(d: dict) -> PairwiseSvm:
    m = PairwiseSvm(
        class_a=int(d["class_a"]),
        class_b=int(d["class_b"]),
        selected_groups=np.asarray(d["selected_groups"], dtype=np.int64),
        support_vectors=np.asarray(d["support_vectors"], dtype=np.float64),
        dual_coef=np.asarray(d["dual_coef"], dtype=np.float64),
        bias=float(d["bias"]),
        gamma=float(d["gamma"]),
        penalty=float(d["penalty"]),
        kkt_gap=float(d["kkt_gap"]),
        converged=bool(d["converged"]),
    )
    n_sv = m.support_vectors.shape[0] if m.support_vectors.ndim == 2 else -1
    if n_sv < 1 or m.dual_coef.shape != (n_sv,) or m.selected_groups.ndim != 1:
        raise ValueError(
            f"machine ({m.class_a}, {m.class_b}): support vectors, dual "
            "coefficients or selected groups have the wrong shape"
        )
    if not (np.isfinite(m.gamma) and m.gamma > 0):
        raise ValueError(
            f"machine ({m.class_a}, {m.class_b}): gamma {m.gamma!r} is not "
            "finite and positive"
        )
    return m


def save_model(model: MulticlassModel, path):
    doc = {
        "format": MODEL_FORMAT,
        "fingerprint": model.fingerprint,
        "classes": [int(c) for c in model.classes],
        "metadata": model.metadata,
        "machines": [_machine_to_json(m) for m in model.machines],
    }
    with open(path, "w", encoding="utf-8") as f:
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
        model = MulticlassModel(
            machines=[_machine_from_json(d) for d in doc["machines"]],
            classes=[int(c) for c in doc["classes"]],
            fingerprint=doc["fingerprint"],
            metadata=doc.get("metadata", {}),
        )
    except KeyError as e:
        raise DataError(f"{path}: model file lacks key {e}") from e
    except (TypeError, ValueError) as e:
        raise DataError(f"{path}: malformed model field: {e}") from e
    if not model.classes or len(set(model.classes)) != len(model.classes):
        raise DataError(f"{path}: classes {model.classes} are empty or repeated")
    for m in model.machines:
        if m.class_a == m.class_b or not {m.class_a, m.class_b} <= set(model.classes):
            raise DataError(
                f"{path}: machine ({m.class_a}, {m.class_b}) is not a pair of "
                f"distinct classes of {model.classes}"
            )
    return model
