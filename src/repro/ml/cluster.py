"""K-means clustering and the Gap statistic.

Prom's regression support derives pseudo-labels by clustering the
calibration features with K-means, choosing K (2..20) via the Gap
statistic of Tibshirani et al. (2001).
"""

from __future__ import annotations

import numpy as np

from .base import Estimator, check_2d


class KMeans(Estimator):
    """Lloyd's algorithm with k-means++ initialization."""

    def __init__(self, n_clusters: int = 8, max_iter: int = 100, seed: int = 0):
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.seed = seed

    def _init_centers(self, X, rng) -> np.ndarray:
        """k-means++ seeding: spread initial centers by squared distance."""
        n_samples = len(X)
        centers = np.empty((self.n_clusters, X.shape[1]))
        first = rng.integers(n_samples)
        centers[0] = X[first]
        closest_sq = np.sum((X - centers[0]) ** 2, axis=1)
        for i in range(1, self.n_clusters):
            total = closest_sq.sum()
            if total <= 0.0:
                centers[i:] = X[rng.integers(n_samples, size=self.n_clusters - i)]
                break
            probabilities = closest_sq / total
            choice = rng.choice(n_samples, p=probabilities)
            centers[i] = X[choice]
            new_sq = np.sum((X - centers[i]) ** 2, axis=1)
            closest_sq = np.minimum(closest_sq, new_sq)
        return centers

    def fit(self, X) -> "KMeans":
        X = check_2d(X)
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if len(X) < self.n_clusters:
            raise ValueError(
                f"cannot fit {self.n_clusters} clusters to {len(X)} samples"
            )
        rng = np.random.default_rng(self.seed)
        centers = self._init_centers(X, rng)
        labels = np.zeros(len(X), dtype=int)
        for _ in range(self.max_iter):
            distances = _distances_to_centers(X, centers)
            new_labels = np.argmin(distances, axis=1)
            if np.array_equal(new_labels, labels) and _ > 0:
                break
            labels = new_labels
            for k in range(self.n_clusters):
                members = X[labels == k]
                if len(members) > 0:
                    centers[k] = members.mean(axis=0)
                else:
                    # Re-seed empty clusters at the farthest point.
                    farthest = np.argmax(np.min(distances, axis=1))
                    centers[k] = X[farthest]
        self.cluster_centers_ = centers
        self.labels_ = labels
        self.inertia_ = float(
            np.sum((X - centers[labels]) ** 2)
        )
        return self

    def predict(self, X) -> np.ndarray:
        """Assign each sample to its nearest fitted center."""
        self._check_fitted("cluster_centers_")
        return nearest_center(X, self.cluster_centers_)

    def fit_predict(self, X) -> np.ndarray:
        return self.fit(X).labels_


def nearest_center(X, centers: np.ndarray) -> np.ndarray:
    """Index of each sample's nearest center (K-means assignment).

    The rule :meth:`KMeans.predict` applies, for callers that keep only
    fitted centers.
    """
    return np.argmin(_distances_to_centers(check_2d(X), centers), axis=1)


def _distances_to_centers(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    squared = (
        np.sum(X * X, axis=1)[:, None]
        + np.sum(centers * centers, axis=1)[None, :]
        - 2.0 * X @ centers.T
    )
    return np.clip(squared, 0.0, None)


def _log_within_dispersion(X: np.ndarray, k: int, seed: int) -> float:
    model = KMeans(n_clusters=k, seed=seed).fit(X)
    return float(np.log(max(model.inertia_, 1e-12)))


def gap_statistic(
    X,
    k_min: int = 2,
    k_max: int = 20,
    n_references: int = 5,
    seed: int = 0,
) -> tuple:
    """Choose the number of clusters by the Gap statistic.

    Compares log within-cluster dispersion of K-means on ``X`` against
    the expectation under ``n_references`` uniform reference datasets
    drawn over the bounding box of ``X``.  Returns ``(best_k, gaps)``
    where ``gaps`` maps each evaluated k to its gap value.
    """
    X = check_2d(X)
    k_max = min(k_max, len(X) - 1)
    if k_max < k_min:
        return max(1, min(k_min, len(X) - 1)), {}
    rng = np.random.default_rng(seed)
    lower = X.min(axis=0)
    upper = X.max(axis=0)

    gaps = {}
    for k in range(k_min, k_max + 1):
        observed = _log_within_dispersion(X, k, seed)
        reference_logs = []
        for ref_index in range(n_references):
            reference = rng.uniform(lower, upper, size=X.shape)
            reference_logs.append(
                _log_within_dispersion(reference, k, seed + ref_index + 1)
            )
        gaps[k] = float(np.mean(reference_logs) - observed)
    best_k = max(gaps, key=gaps.get)
    return best_k, gaps
