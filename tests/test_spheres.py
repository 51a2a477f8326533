import json
import logging
import tracemalloc

import numpy as np
import pytest

import madlab.spheres as spheres_mod
from madlab.errors import DomainError, NumericsError, ShapeError, StateError
from madlab.evaluation import knn_score
from madlab.losses import UNLABELED, mad_loss
from madlab.numcore import block_rows
from madlab.spheres import (CenterSet, anomaly_scores, assign_and_count,
                            distances_to, kmeans, nearest_live_center, prune,
                            ref_terms)

from _oracles import (direct_sq_distances, make_centers,
                      reference_sq_distances, run_at_one_blas_thread)


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


# A product taken block by block keeps the bits of one call at 1 BLAS thread,
# the setting the kNN bit tests in test_evaluation.py also run at: with more,
# OpenBLAS may split a block's columns between its threads, and the edge tiles
# of that split round differently (1 950 live centers against 5 000 rows move
# an argmin at 2 threads, with 240-row blocks as with 120-row ones). So every
# blocked-against-one-pass case below runs in one child process at 1 thread,
# and each test reads its own result.
_NEAREST_ROWS = [1, 23, 24, 25, 239, 240, 241, 481, 5000]
_NEAREST_LIVE = [15, 203, 1950]  # 1 950: 120-row blocks
_KMEANS_K = [200, 2000]
_BLOCKED_SCRIPT = """
import json
import numpy as np
from madlab.spheres import anomaly_scores, kmeans
from _oracles import unblocked_anomaly_scores, unblocked_kmeans, unblocked_nearest
from test_spheres import (_KMEANS_K, _NEAREST_LIVE, _NEAREST_ROWS,
                          _lattice_points, _tied_centers)
same = {}
for n_live in _NEAREST_LIVE:
    for rows in _NEAREST_ROWS:
        cs, points = _tied_centers(np.random.default_rng([16, n_live, rows]),
                                   n_live, rows)
        same[f"nearest {n_live} {rows}"] = [
            np.array_equal(cs.nearest(points),
                           unblocked_nearest(points, cs)),
            np.array_equal(anomaly_scores(points, cs),
                           unblocked_anomaly_scores(points, cs))]
for k in _KMEANS_K:
    pts = _lattice_points(k)
    got = kmeans(pts, k, seed=[5, 3], max_iters=3)
    centers, counts = unblocked_kmeans(pts, k, [5, 3], 3)
    same[f"kmeans {k}"] = [np.array_equal(got.centers, centers),
                           np.array_equal(got.counts, counts)]
print(json.dumps(same))
"""


@pytest.fixture(scope="module")
def same_bits_at_one_blas_thread() -> dict:
    proc = run_at_one_blas_thread(_BLOCKED_SCRIPT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _lattice_points(k):
    return 0.5 * np.random.default_rng([k, 3]).integers(0, 4, size=(4801, 16))


@pytest.mark.parametrize("k", _KMEANS_K)
def test_kmeans_bit_identical_to_whole_matrix_assignment(
        same_bits_at_one_blas_thread, k):
    """Points on a half-integer lattice sit at exact ties between many pairs
    of centers, so an argmin follows the last bits of the distances: 240-row
    assignment blocks at 200 centers, 120-row ones at 2 000. 4 801 rows end
    in a lone row; the seeds are ones under which scoring it on its own (a
    GEMV) moves the centers at both k. Centers, then counts."""
    assert same_bits_at_one_blas_thread[f"kmeans {k}"] == [True, True]


def test_kmeans_working_memory_stays_within_row_blocks():
    """Counted cost, independent of host speed: 20 000 points against 500
    centers. Each whole (points, centers) assignment matrix took 80 MB, a
    traced peak of 80.3 MB."""
    pts = np.random.default_rng(0).normal(size=(20_000, 16))
    tracemalloc.start()
    try:
        kmeans(pts, 500, seed=0, max_iters=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


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
    counted = assign_and_count(emb, cs)
    assert counted.counts.tolist() == [3, 0, 0]
    assert np.array_equal(counted.live, cs.live)


def test_assign_tie_goes_to_lower_index():
    cs = make_centers([[5.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
    # equidistant between centers 1 and 2 -> lower index 1
    counted = assign_and_count(np.array([[0.0, 2.0]]), cs)
    assert counted.counts.tolist() == [0, 1, 0]


def test_assign_empty_embeddings_all_zero():
    cs = make_centers([[0.0], [1.0]])
    counted = assign_and_count(np.empty((0, 1)), cs)
    assert counted.counts.tolist() == [0, 0]


def test_pruned_centers_never_receive_assignments():
    cs = make_centers([[0.0], [10.0]], counts=[1, 5], live=[False, True])
    counted = assign_and_count(np.array([[0.1], [0.2]]), cs)
    assert counted.counts.tolist() == [0, 2]


def test_assign_and_count_returns_a_new_set_and_leaves_its_input_unchanged():
    cs = make_centers([[0.0], [10.0]], counts=[4, 1])
    counted = assign_and_count(np.array([[0.1], [0.2], [9.0]]), cs)
    assert counted is not cs
    assert cs.counts.tolist() == [4, 1]
    assert counted.counts.tolist() == [2, 1]
    for counts in (cs.counts, counted.counts):  # prune reads them as built
        with pytest.raises(ValueError):
            counts[0] = 0


def test_nearest_live_center_skips_pruned():
    cs = make_centers([[0.0], [10.0]], live=[False, True])
    assert nearest_live_center(np.array([[0.5]]), cs).tolist() == [1]


# --- prune -------------------------------------------------------------------

def test_prune_rule_direct_application():
    cs = make_centers([[0.0], [1.0], [2.0]], counts=[100, 4, 50])
    assert prune(cs, 0.05).live.tolist() == [True, False, True]  # threshold 5


def test_prune_all_at_max_keeps_everything():
    cs = make_centers([[0.0], [1.0]], counts=[10, 10])
    assert prune(cs, 0.05).live.tolist() == [True, True]


def test_prune_zero_count_centers():
    cs = make_centers([[0.0], [1.0], [2.0]], counts=[0, 0, 7])
    assert prune(cs, 0.05).live.tolist() == [False, False, True]


def test_prune_all_zero_counts_keeps_all():
    cs = make_centers([[0.0], [1.0]], counts=[0, 0])
    assert prune(cs, 0.05).live.tolist() == [True, True]


def test_prune_idempotent_with_unchanged_counts():
    cs = make_centers([[0.0], [1.0], [2.0], [3.0]],
                      counts=[50, 2, 30, 1])
    once = prune(cs, 0.1)
    twice = prune(once, 0.1)
    assert np.array_equal(once.live, twice.live)


def test_prune_survivor_guard():
    cs = make_centers([[0.0], [1.0]], counts=[3, 7])
    # force the (otherwise unreachable) all-pruned branch
    assert prune(cs, 1.5).live.tolist() == [False, True]


def test_monotone_live_shrinkage():
    rng = np.random.default_rng(4)
    cs = make_centers(rng.normal(size=(8, 2)))
    emb = rng.normal(size=(100, 2)) * 0.3
    live_history = [cs.n_live]
    for _ in range(4):
        cs = prune(assign_and_count(emb, cs), 0.05)
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
    cs = make_centers([[0.0, 0.0], [3.0, 4.0]], live=[True, False])
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
    with pytest.raises(StateError):  # no set without a live center is built
        anomaly_scores(np.array([[1.0]]), make_centers([[0.0]], live=[False]))


# --- one distance kernel at extreme scales ------------------------------------

@pytest.mark.parametrize("offset, spread",
                         [(0.0, 1.0), (1e3, 1.0), (1e5, 1e-3), (1e8, 1.0)])
def test_distances_match_direct_oracle_at_extreme_scale(offset, spread):
    # a large common offset cancels the expansion form's digits unless the
    # kernel re-centers first; the oracle subtracts pair by pair
    rng = np.random.default_rng(17)
    refs = offset + spread * rng.normal(size=(100, 16))
    z = offset + spread * rng.normal(size=(400, 16))
    cs = make_centers(refs, live=np.arange(len(refs)) % 3 != 0)
    live_idx = np.flatnonzero(cs.live)
    d2 = direct_sq_distances(z, refs[live_idx])
    nearest = live_idx[np.argmin(d2, axis=1)]

    assert np.array_equal(nearest_live_center(z, cs), nearest)
    assert np.array_equal(
        mad_loss(z, np.full(len(z), UNLABELED), cs, 1.0,
                 len(z), 1e-6)[2], nearest)
    assert np.allclose(anomaly_scores(z, cs), np.sqrt(d2.min(axis=1)),
                       rtol=1e-12, atol=0.0)
    k = 7
    knn = np.sort(np.sqrt(direct_sq_distances(z, refs)), axis=1)[:, :k]
    assert np.allclose(knn_score(z, refs, k), knn.mean(axis=1),
                       rtol=1e-9, atol=0.0)


# --- the live centers' index and distance terms --------------------------------

def _pruned_sets(rng, cs, points, gamma):
    """The set after each of a random sequence of prunes, ``cs`` first."""
    while True:
        yield cs
        live_idx = np.flatnonzero(cs.live)
        if live_idx.size == 1:
            return
        counted = assign_and_count(
            points[rng.permutation(len(points))[:40]], cs)
        pruned = prune(counted, gamma)
        if pruned.n_live == cs.n_live:  # counts that prune nothing: drop one at random
            live = cs.live.copy()
            live[rng.choice(live_idx)] = False
            pruned = CenterSet(cs.centers, live, counted.counts)
        cs = pruned


@pytest.mark.parametrize("offset, spread",
                         [(0.0, 1.0), (1e3, 1.0), (1e5, 1e-3), (1e8, 1.0)])
def test_snapshot_nearest_is_the_kernel_argmin_bit_for_bit(offset, spread):
    # the extreme-scale inputs above, through a random sequence of prunes
    rng = np.random.default_rng(17)
    refs = offset + spread * rng.normal(size=(100, 16))
    z = offset + spread * rng.normal(size=(400, 16))
    steps = 0
    for cs in _pruned_sets(rng, make_centers(refs), z, 0.3):
        live_idx = np.flatnonzero(cs.live)
        kernel = distances_to(z, *ref_terms(refs[live_idx]))
        assert np.array_equal(kernel, reference_sq_distances(z, refs[live_idx]))
        assert np.array_equal(cs.nearest(z),
                              live_idx[np.argmin(kernel, axis=1)])
        assert np.array_equal(cs.nearest(z), nearest_live_center(z, cs))
        steps += 1
    assert steps > 3


def _tied_centers(rng, n_live, rows):
    """Three pruned centers, then ``n_live`` live ones, most in close pairs,
    and ``rows`` points each at the midpoint of a pair: every row's two
    nearest distances tie in exact arithmetic, so its argmin follows their
    last bits. The seeds below are ones under which a lone last row scored
    on its own (a GEMV) flips the argmin of the row at 481 rows."""
    pairs = n_live // 2
    base = 4.0 * rng.normal(size=(n_live - pairs, 16))
    half = 0.3 * rng.normal(size=(pairs, 16))
    centers = np.concatenate([4.0 * rng.normal(size=(3, 16)), base,
                              base[:pairs] + 2.0 * half])
    live = np.arange(n_live + 3) >= 3
    pick = rng.integers(pairs, size=rows)
    return (CenterSet(centers, live, np.zeros(n_live + 3)),
            base[pick] + half[pick])


@pytest.mark.parametrize("rows", _NEAREST_ROWS)
@pytest.mark.parametrize("n_live", _NEAREST_LIVE)
def test_blocked_nearest_and_scores_bit_identical_to_one_pass(
        same_bits_at_one_blas_thread, n_live, rows):
    """Nearest live center, then center-distance score, blocked against one
    pass over the ``_tied_centers`` points (at 1 BLAS thread)."""
    assert same_bits_at_one_blas_thread[f"nearest {n_live} {rows}"] == [
        True, True]


def test_nearest_keeps_each_distance_block_within_block_bytes(monkeypatch):
    """241 rows fit the one-call batch only while 241 rows of distances fit
    ``BLOCK_BYTES``: against 2 000 live centers every block holds at most
    ``block_rows(2000) + 1`` rows (a whole 241-row matrix is 3.9 MB)."""
    rng = np.random.default_rng(8)
    cs = make_centers(rng.normal(size=(2000, 4)))
    points = rng.normal(size=(241, 4))
    rows, kernel = [], spheres_mod.distances_to

    def spy(block, *terms):
        rows.append(len(block))
        return kernel(block, *terms)

    monkeypatch.setattr(spheres_mod, "distances_to", spy)
    nearest = cs.nearest(points)
    assert sum(rows) == 241 and max(rows) <= block_rows(2000) + 1
    assert np.array_equal(nearest, np.argmin(kernel(points, *ref_terms(
        cs.centers)), axis=1))


def test_prune_returns_a_new_set_and_leaves_its_input_unchanged():
    cs = make_centers([[0.0], [1.0], [2.0]], counts=[5, 5, 0])
    pruned = prune(cs, 0.05)
    assert pruned is not cs
    assert cs.live.tolist() == [True, True, True]
    assert cs.nearest(np.array([[2.1]])).tolist() == [2]
    assert pruned.live.tolist() == [True, True, False]
    assert pruned.nearest(np.array([[2.1]])).tolist() == [1]
    for live in (cs.live, pruned.live):  # a write would leave stale terms
        with pytest.raises(ValueError):
            live[0] = False


def test_snapshot_over_no_live_center_raises_state_error():
    # the set's live index and terms are its snapshot: the flags it was built
    # from cannot be cleared behind it, and a set over no live center is refused
    cs = make_centers([[0.0], [1.0]])
    with pytest.raises(ValueError):
        cs.live[:] = False
    assert cs.live.tolist() == [True, True]
    assert cs.nearest(np.array([[0.9]])).tolist() == [1]
    with pytest.raises(StateError):
        CenterSet(cs.centers, np.zeros(2, dtype=bool), cs.counts)


# --- structure ---------------------------------------------------------------

def test_centerset_invariants():
    with pytest.raises(StateError):  # no live center to assign or score to
        CenterSet(np.zeros((2, 2)), np.zeros(2, dtype=bool), np.zeros(2))
    flags = np.ones(2, dtype=bool)
    CenterSet(np.zeros((2, 2)), flags, np.zeros(2))
    flags[0] = False  # the set froze its own copy
    with pytest.raises(ShapeError):
        CenterSet(np.zeros((2, 2)), np.ones(3, dtype=bool), np.zeros(2))
