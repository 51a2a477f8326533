"""Hypersphere center lifecycle: k-means init, cardinality counts, pruning.

Centers are tombstoned rather than deleted when pruned so the per-epoch
trajectory (how many centers the model settles on) stays reportable. A
``CenterSet``'s arrays are read-only: counting and pruning each return a
new set, so the live index and distance terms a set builds once hold.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError, ShapeError, StateError
from .numcore import block_rows, row_blocks

log = logging.getLogger(__name__)


@dataclass
class CenterSet:
    """The center matrix plus live flags and per-epoch assignment counts,
    with the live centers' index and ``ref_terms``."""

    centers: np.ndarray          # (n_s, d)
    live: np.ndarray             # (n_s,) bool, read-only
    counts: np.ndarray           # (n_s,) int, read-only

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        self.live = np.array(self.live, dtype=bool)  # the caller's stay writable
        self.counts = np.array(self.counts, dtype=np.int64)
        if self.centers.ndim != 2:
            raise ShapeError(f"centers must be 2-d, got {self.centers.shape}")
        n_s = self.centers.shape[0]
        if self.live.shape != (n_s,) or self.counts.shape != (n_s,):
            raise ShapeError("live/counts length must match center count")
        if not self.live.any():
            raise StateError("a CenterSet needs at least one live center")
        # unpickling (a worker's final state) makes the arrays writable again;
        # nothing writes them there, as that state trains no further
        self.live.flags.writeable = self.counts.flags.writeable = False
        self.index = np.flatnonzero(self.live)
        self._terms = ref_terms(self.centers[self.index])

    @property
    def initial_count(self) -> int:
        return self.centers.shape[0]  # pruning tombstones, never deletes

    @property
    def n_live(self) -> int:
        return self.index.size

    def nearest(self, points) -> np.ndarray:
        """Global index of the nearest live center per row (ties -> lowest)."""
        return self.index[nearest_ref(points, *self._terms)]


def ref_terms(refs):
    """Mean, (-2 r)^T and |r|^2 of the refs r shifted by their mean: the
    refs' side of ``distances_to``, which shifts both sets by that mean so
    that a large common offset does not cancel |p|^2 + |r|^2 - 2 p.r."""
    r = refs - (mean := refs.mean(axis=0))
    r2 = np.einsum("kd,kd->k", r, r)
    return mean, np.multiply(r, -2.0, out=r).T, r2


def distances_to(points, mean, r_t, r2, out=None) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.shape[1] != r_t.shape[0]:
        raise ShapeError(f"point dim {points.shape[1]} vs ref dim {r_t.shape[0]}")
    p = points - mean
    d2 = np.matmul(p, r_t, out=out)
    d2 += np.einsum("nd,nd->n", p, p)[:, None]
    d2 += r2[None, :]
    return np.maximum(d2, 0.0, out=d2)


def nearest_ref(points, mean, r_t, r2) -> np.ndarray:
    """Each point's nearest ref (ties -> lowest), one row block at a time."""
    if len(points) <= block_rows(len(r2)) + 1:  # one block: one call, no loop
        return np.argmin(distances_to(points, mean, r_t, r2), axis=1)
    out = np.empty(len(points), dtype=np.intp)
    for rows in row_blocks(len(points), len(r2)):
        out[rows] = np.argmin(distances_to(points[rows], mean, r_t, r2), axis=1)
    return out


def _kmeans_pp_seed(points: np.ndarray, k: int, rng) -> np.ndarray:
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(points.shape[0])]
    d2 = distances_to(points, *ref_terms(centers[:1])).ravel()
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
        d2 = np.minimum(d2, distances_to(
            points, *ref_terms(centers[j:j + 1])).ravel())
    return centers


def kmeans(points, k: int, seed, max_iters: int = 100) -> CenterSet:
    """Lloyd's algorithm with k-means++ seeding.

    Stops when assignments are stable or after ``max_iters`` sweeps. An
    empty cluster is re-seeded at the point farthest from its assigned
    center. ``k`` is clamped down to the number of distinct points. Points
    are assigned one row block at a time (``nearest_ref``).
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
    assign = nearest_ref(points, *ref_terms(centers))

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
        new_assign = nearest_ref(points, *ref_terms(centers))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign

    return CenterSet(centers=centers, live=np.ones(k, dtype=bool),
                     counts=np.bincount(assign, minlength=k))


def nearest_live_center(embeddings, centers: CenterSet) -> np.ndarray:
    return centers.nearest(embeddings)


def assign_and_count(embeddings, centers: CenterSet) -> CenterSet:
    """A new set holding per-center cardinalities from one pass over the
    embeddings; ``centers`` is left as it is.

    Each row goes to its nearest live center (ties -> lowest index); pruned
    centers always count 0.
    """
    counts = np.bincount(nearest_live_center(embeddings, centers),
                         minlength=centers.initial_count)
    return CenterSet(centers.centers, centers.live, counts)


def prune(centers: CenterSet, gamma: float) -> CenterSet:
    """A new set in which every live center whose count falls under
    gamma * max is tombstoned; ``centers`` is left as it is.

    The threshold uses the pre-prune maximum over live centers, evaluated
    simultaneously for all of them. If the rule would empty the set, the
    max-cardinality center survives.
    """
    live_counts = centers.counts[centers.index]
    threshold = gamma * live_counts.max()
    doomed = live_counts < threshold
    if doomed.all():
        log.warning("prune would remove all centers; keeping the largest")
        doomed[int(np.argmax(live_counts))] = False
    live = centers.live.copy()
    live[centers.index[doomed]] = False
    return CenterSet(centers.centers, live, centers.counts)


def anomaly_scores(embeddings, centers: CenterSet) -> np.ndarray:
    """Euclidean distance from each row to its nearest live center."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    out = np.empty(len(embeddings))
    for rows in row_blocks(len(embeddings)):
        delta = embeddings[rows] - centers.centers[centers.nearest(embeddings[rows])]
        np.sqrt(np.einsum("rd,rd->r", delta, delta), out=out[rows])
    return out

