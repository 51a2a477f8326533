"""Hypersphere center lifecycle: k-means init, cardinality counts, pruning.

Centers are tombstoned rather than deleted when pruned so the per-epoch
trajectory (how many centers the model settles on) stays reportable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError, ShapeError, StateError

log = logging.getLogger(__name__)


@dataclass
class CenterSet:
    """The center matrix plus live flags and per-epoch assignment counts."""

    centers: np.ndarray          # (n_s, d)
    live: np.ndarray             # (n_s,) bool
    counts: np.ndarray           # (n_s,) int, refreshed each epoch
    gamma: float = 0.05

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        self.live = np.asarray(self.live, dtype=bool)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.centers.ndim != 2:
            raise ShapeError(f"centers must be 2-d, got {self.centers.shape}")
        n_s = self.centers.shape[0]
        if self.live.shape != (n_s,) or self.counts.shape != (n_s,):
            raise ShapeError("live/counts length must match center count")
        if not self.live.any():
            raise StateError("a CenterSet needs at least one live center")
        if not 0.0 < self.gamma < 1.0:
            raise DomainError(f"gamma must be in (0, 1), got {self.gamma}")

    @property
    def initial_count(self) -> int:
        return self.centers.shape[0]  # pruning tombstones, never deletes

    @property
    def n_live(self) -> int:
        return int(self.live.sum())


def squared_distances(points, refs) -> np.ndarray:
    """(n, k) squared Euclidean distances, clamped at 0 against rounding.

    Both sets are first moved by the refs' mean, so that a large common
    offset does not cancel the expansion |p|^2 + |r|^2 - 2 p.r.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.shape[1] != refs.shape[1]:
        raise ShapeError(f"point dim {points.shape[1]} vs ref dim {refs.shape[1]}")
    mean = refs.mean(axis=0)
    p, r = points - mean, refs - mean
    d2 = p @ (-2.0 * r).T
    d2 += np.einsum("nd,nd->n", p, p)[:, None]
    d2 += np.einsum("kd,kd->k", r, r)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def _kmeans_pp_seed(points: np.ndarray, k: int, rng) -> np.ndarray:
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(points.shape[0])]
    d2 = squared_distances(points, centers[:1]).ravel()
    for j in range(1, k):
        total = d2.sum()
        if not np.isfinite(total):
            raise NumericsError("k-means seeding: squared distances overflow")
        if total == 0.0:
            # all remaining mass sits on chosen centers; any point works
            idx = rng.integers(points.shape[0])
        else:
            idx = rng.choice(points.shape[0], p=d2 / total)
        centers[j] = points[idx]
        d2 = np.minimum(d2, squared_distances(points, centers[j:j + 1]).ravel())
    return centers


def kmeans(points, k: int, seed, max_iters: int = 100,
           gamma: float = 0.05) -> CenterSet:
    """Lloyd's algorithm with k-means++ seeding.

    Stops when assignments are stable or after ``max_iters`` sweeps. An
    empty cluster is re-seeded at the point farthest from its assigned
    center. ``k`` is clamped down to the number of distinct points.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise DomainError("kmeans needs a non-empty 2-d point set")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    n_distinct = np.unique(points, axis=0).shape[0]
    if k > n_distinct:
        log.warning("kmeans: k=%d exceeds %d distinct points; clamping", k, n_distinct)
        k = n_distinct

    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_seed(points, k, rng)
    assign = np.argmin(squared_distances(points, centers), axis=1)

    for _ in range(max_iters):
        for j in range(k):
            mask = assign == j
            if mask.any():
                centers[j] = points[mask].mean(axis=0)
            else:
                own = points - centers[assign]
                far = int(np.argmax(np.einsum("nd,nd->n", own, own)))
                centers[j] = points[far]
                assign[far] = j
        new_assign = np.argmin(squared_distances(points, centers), axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign

    counts = np.bincount(assign, minlength=k)
    return CenterSet(centers=centers, live=np.ones(k, dtype=bool),
                     counts=counts, gamma=gamma)


def nearest_live_center(embeddings, centers: CenterSet) -> np.ndarray:
    """Global index of the nearest live center per row (ties -> lowest)."""
    live_idx = np.flatnonzero(centers.live)
    if live_idx.size == 0:
        raise StateError("no live centers to assign to")
    d2 = squared_distances(embeddings, centers.centers[live_idx])
    return live_idx[np.argmin(d2, axis=1)]


def assign_and_count(embeddings, centers: CenterSet) -> np.ndarray:
    """Refresh per-center cardinalities from one pass over the embeddings.

    Each row goes to its nearest live center (ties -> lowest index); pruned
    centers always count 0. Updates ``centers.counts`` in place and returns
    the new counts.
    """
    assigned = nearest_live_center(embeddings, centers)
    counts = np.bincount(assigned, minlength=centers.centers.shape[0])
    centers.counts = counts.astype(np.int64)
    return centers.counts


def prune(centers: CenterSet) -> CenterSet:
    """Tombstone every live center whose count falls under gamma * max.

    The threshold uses the pre-prune maximum over live centers, evaluated
    simultaneously for all of them. If the rule would empty the set, the
    max-cardinality center survives.
    """
    live_idx = np.flatnonzero(centers.live)
    live_counts = centers.counts[live_idx]
    threshold = centers.gamma * live_counts.max()
    doomed = live_counts < threshold
    if doomed.all():
        log.warning("prune would remove all centers; keeping the largest")
        doomed[int(np.argmax(live_counts))] = False
    centers.live[live_idx[doomed]] = False
    return centers


def anomaly_scores(embeddings, centers: CenterSet) -> np.ndarray:
    """Euclidean distance from each row to its nearest live center."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    delta = embeddings - centers.centers[nearest_live_center(embeddings, centers)]
    return np.sqrt(np.einsum("rd,rd->r", delta, delta))

