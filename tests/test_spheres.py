import copy
import logging

import numpy as np
import pytest

from madlab.errors import DomainError, NumericsError, ShapeError, StateError
from madlab.evaluation import knn_score
from madlab.losses import UNLABELED, mad_loss
from madlab.spheres import (CenterSet, anomaly_scores, assign_and_count,
                            kmeans, nearest_live_center, prune)

from _oracles import direct_sq_distances


def make_centers(points, counts=None, gamma=0.05):
    points = np.asarray(points, dtype=np.float64)
    counts = np.zeros(len(points)) if counts is None else np.asarray(counts)
    return CenterSet(points, np.ones(len(points), dtype=bool), counts, gamma)


# --- kmeans ----------------------------------------------------------------

def test_kmeans_well_separated_duplicates():
    pts = np.array([[0.0, 0.0]] * 10 + [[10.0, 10.0]] * 10)
    cs = kmeans(pts, 2, seed=0)
    got = sorted(cs.centers.tolist())
    assert got == [[0.0, 0.0], [10.0, 10.0]]
    assert sorted(cs.counts.tolist()) == [10, 10]


def test_kmeans_k1_is_mean():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(40, 3))
    cs = kmeans(pts, 1, seed=0)
    assert np.allclose(cs.centers[0], pts.mean(axis=0))


def test_kmeans_clamps_k_with_warning(caplog):
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    with caplog.at_level(logging.WARNING, logger="madlab.spheres"):
        cs = kmeans(pts, 3, seed=0)
    assert cs.centers.shape[0] == 2
    assert any("clamping" in r.message for r in caplog.records)


def test_kmeans_seeding_overflow_raises_numerics_error():
    pts = np.array([[0.0, 0.0], [1e155, 0.0], [-1e155, 1.0]])
    with pytest.raises(NumericsError, match="k-means seeding"):
        kmeans(pts, 2, seed=0)


def test_kmeans_empty_input_rejected():
    with pytest.raises(DomainError):
        kmeans(np.empty((0, 2)), 2, seed=0)


def test_kmeans_objective_non_increasing_over_iterations():
    rng = np.random.default_rng(2)
    pts = np.concatenate([rng.normal(loc, 0.5, size=(60, 4))
                          for loc in (-3.0, 0.0, 3.0)])

    def inertia(cs):
        d2 = ((pts[:, None, :] - cs.centers[None]) ** 2).sum(axis=2)
        return float(d2.min(axis=1).sum())

    # same seed => identical seeding, so max_iters prefixes one trajectory
    vals = [inertia(kmeans(pts, 5, seed=7, max_iters=i)) for i in range(1, 8)]
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


def test_kmeans_deterministic():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(100, 5))
    a = kmeans(pts, 6, seed=42)
    b = kmeans(pts, 6, seed=42)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.counts, b.counts)


# --- assign / count ---------------------------------------------------------

def test_assign_and_count_basic():
    cs = make_centers([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
    emb = np.array([[0.1, 0.0], [-0.2, 0.1], [0.5, 0.5]])
    counts = assign_and_count(emb, cs)
    assert counts.tolist() == [3, 0, 0]
    assert np.array_equal(cs.counts, counts)


def test_assign_tie_goes_to_lower_index():
    cs = make_centers([[5.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
    # equidistant between centers 1 and 2 -> lower index 1
    counts = assign_and_count(np.array([[0.0, 2.0]]), cs)
    assert counts.tolist() == [0, 1, 0]


def test_assign_empty_embeddings_all_zero():
    cs = make_centers([[0.0], [1.0]])
    counts = assign_and_count(np.empty((0, 1)), cs)
    assert counts.tolist() == [0, 0]


def test_pruned_centers_never_receive_assignments():
    cs = make_centers([[0.0], [10.0]], counts=[1, 5])
    cs.live[0] = False
    counts = assign_and_count(np.array([[0.1], [0.2]]), cs)
    assert counts.tolist() == [0, 2]


def test_nearest_live_center_skips_pruned():
    cs = make_centers([[0.0], [10.0]])
    cs.live[0] = False
    assert nearest_live_center(np.array([[0.5]]), cs).tolist() == [1]


# --- prune -------------------------------------------------------------------

def test_prune_rule_direct_application():
    cs = make_centers([[0.0], [1.0], [2.0]], counts=[100, 4, 50], gamma=0.05)
    prune(cs)  # threshold 5
    assert cs.live.tolist() == [True, False, True]


def test_prune_all_at_max_keeps_everything():
    cs = make_centers([[0.0], [1.0]], counts=[10, 10], gamma=0.05)
    prune(cs)
    assert cs.live.tolist() == [True, True]


def test_prune_zero_count_centers():
    cs = make_centers([[0.0], [1.0], [2.0]], counts=[0, 0, 7], gamma=0.05)
    prune(cs)
    assert cs.live.tolist() == [False, False, True]


def test_prune_all_zero_counts_keeps_all():
    cs = make_centers([[0.0], [1.0]], counts=[0, 0], gamma=0.05)
    prune(cs)
    assert cs.live.tolist() == [True, True]


def test_prune_idempotent_with_unchanged_counts():
    cs = make_centers([[0.0], [1.0], [2.0], [3.0]],
                      counts=[50, 2, 30, 1], gamma=0.1)
    once = copy.deepcopy(prune(cs))
    twice = prune(cs)
    assert np.array_equal(once.live, twice.live)


def test_prune_survivor_guard():
    cs = make_centers([[0.0], [1.0]], counts=[3, 7], gamma=0.5)
    cs.gamma = 1.5  # force the (otherwise unreachable) all-pruned branch
    prune(cs)
    assert cs.live.tolist() == [False, True]


def test_monotone_live_shrinkage():
    rng = np.random.default_rng(4)
    cs = make_centers(rng.normal(size=(8, 2)))
    emb = rng.normal(size=(100, 2)) * 0.3
    live_history = [cs.n_live]
    for _ in range(4):
        assign_and_count(emb, cs)
        prune(cs)
        live_history.append(cs.n_live)
    assert all(a >= b for a, b in zip(live_history, live_history[1:]))
    assert live_history[-1] >= 1


# --- anomaly score -----------------------------------------------------------

def test_score_zero_at_live_center():
    cs = make_centers([[1.0, 2.0], [5.0, 5.0]])
    assert anomaly_scores(np.array([[1.0, 2.0]]), cs)[0] == 0.0


def test_score_hand_euclidean():
    cs = make_centers([[0.0, 0.0], [10.0, 0.0]])
    # min(5, sqrt(65))
    assert anomaly_scores(np.array([[3.0, 4.0]]), cs)[0] == 5.0


def test_score_single_live_center_plain_distance():
    cs = make_centers([[0.0, 0.0]])
    assert np.isclose(anomaly_scores(np.array([[3.0, 4.0]]), cs)[0], 5.0)


def test_score_ignores_pruned_centers():
    cs = make_centers([[0.0, 0.0], [3.0, 4.0]])
    cs.live[1] = False
    assert anomaly_scores(np.array([[3.0, 4.0]]), cs)[0] == 5.0


def test_score_zero_iff_on_live_center_and_lipschitz():
    rng = np.random.default_rng(5)
    cs = make_centers(rng.normal(size=(4, 3)))
    z = rng.normal(size=(20, 3))
    s = anomaly_scores(z, cs)
    assert np.all(s > 0.0)
    for _ in range(20):
        a, b = rng.normal(size=(2, 3))
        sa = anomaly_scores(np.array([a]), cs)[0]
        sb = anomaly_scores(np.array([b]), cs)[0]
        assert abs(sa - sb) <= np.linalg.norm(a - b) + 1e-12


def test_scores_error_when_no_live():
    cs = make_centers([[0.0]])
    cs.live[:] = False
    with pytest.raises(StateError):
        anomaly_scores(np.array([[1.0]]), cs)


# --- one distance kernel at extreme scales ------------------------------------

@pytest.mark.parametrize("offset, spread",
                         [(0.0, 1.0), (1e3, 1.0), (1e5, 1e-3), (1e8, 1.0)])
def test_distances_match_direct_oracle_at_extreme_scale(offset, spread):
    # a large common offset cancels the expansion form's digits unless the
    # kernel re-centers first; the oracle subtracts pair by pair
    rng = np.random.default_rng(17)
    refs = offset + spread * rng.normal(size=(100, 16))
    z = offset + spread * rng.normal(size=(400, 16))
    cs = make_centers(refs)
    cs.live[::3] = False
    live_idx = np.flatnonzero(cs.live)
    d2 = direct_sq_distances(z, refs[live_idx])
    nearest = live_idx[np.argmin(d2, axis=1)]

    assert np.array_equal(nearest_live_center(z, cs), nearest)
    assert np.array_equal(
        mad_loss(z, np.full(len(z), UNLABELED), cs, 1.0, len(z))[2], nearest)
    assert np.allclose(anomaly_scores(z, cs), np.sqrt(d2.min(axis=1)),
                       rtol=1e-12, atol=0.0)
    k = 7
    knn = np.sort(np.sqrt(direct_sq_distances(z, refs)), axis=1)[:, :k]
    assert np.allclose(knn_score(z, refs, k), knn.mean(axis=1),
                       rtol=1e-9, atol=0.0)


# --- structure ---------------------------------------------------------------

def test_centerset_invariants():
    with pytest.raises(StateError):
        CenterSet(np.zeros((2, 2)), np.zeros(2, dtype=bool), np.zeros(2), 0.05)
    with pytest.raises(DomainError):
        make_centers([[0.0]], gamma=1.5)
    with pytest.raises(ShapeError):
        CenterSet(np.zeros((2, 2)), np.ones(3, dtype=bool), np.zeros(2), 0.05)
