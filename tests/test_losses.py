import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from madlab.errors import DomainError, ShapeError, StateError
from madlab.losses import ABNORMAL, NORMAL, UNLABELED, info_nce_loss, mad_loss
from madlab.spheres import CenterSet, LiveCenters

from _oracles import (central_diff, grads_close, info_nce_reference,
                      mad_loss_reference)


def make_centers(points):
    points = np.asarray(points, dtype=np.float64)
    return CenterSet(points, np.ones(len(points), dtype=bool),
                     np.zeros(len(points), dtype=np.int64))


# --- InfoNCE --------------------------------------------------------------

def test_single_pair_loss_is_exactly_zero():
    z = np.random.default_rng(0).normal(size=(2, 5))
    loss, grad = info_nce_loss(z, temperature=0.7)
    assert loss == 0.0
    assert np.allclose(grad, 0.0, atol=1e-12)


def test_two_pair_unit_vector_hand_value():
    # anchors see sim 1 to the positive and 0 to the two negatives:
    # per anchor -log(e / (e + 2)) = log(1 + 2/e); four anchors total
    z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    loss, _ = info_nce_loss(z, temperature=1.0)
    expected = 4.0 * math.log(1.0 + 2.0 * math.exp(-1.0))
    assert abs(loss - expected) < 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_info_nce_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(200 + seed)
    n_pairs = int(rng.integers(2, 5))
    d = int(rng.integers(2, 9))
    z = rng.normal(size=(2 * n_pairs, d))
    tau = float(rng.uniform(0.2, 1.5))

    _, grad = info_nce_loss(z.copy(), tau)
    numeric = central_diff(
        lambda arr: info_nce_loss(arr, tau)[0], z)
    assert grads_close(grad, numeric)


def test_info_nce_non_negative_and_positive_with_negatives():
    rng = np.random.default_rng(5)
    for n_pairs in (2, 3, 4):
        z = rng.normal(size=(2 * n_pairs, 6))
        loss, _ = info_nce_loss(z, 0.5)
        assert loss > 0.0


def test_info_nce_per_row_scale_invariance():
    rng = np.random.default_rng(6)
    z = rng.normal(size=(6, 4))
    base, _ = info_nce_loss(z.copy(), 0.5)
    z2 = z.copy()
    z2[3] *= 17.0  # cosine similarity ignores per-row scale
    scaled, _ = info_nce_loss(z2, 0.5)
    assert math.isclose(base, scaled, rel_tol=1e-10)


def test_info_nce_rejects_zero_row_and_odd_count():
    for z in (np.zeros((4, 3)), np.array([[0.0, 0.0], [1.0, 2.0],
                                          [3.0, -1.0], [0.5, 0.5]])):
        loss, grad = info_nce_loss(z, 0.5)  # a zero row normalizes to zero
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
    with pytest.raises(Exception):
        info_nce_loss(np.ones((3, 2)), 0.5)
    with pytest.raises(DomainError):
        info_nce_loss(np.ones((4, 2)), 0.0)


def test_info_nce_matches_reference_expression_bit_for_bit():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n_rows = 2 * int(rng.integers(1, 33))
        z = 10.0 ** rng.uniform(-2, 2) * rng.normal(
            size=(n_rows, int(rng.integers(2, 17))))
        tau = float(10.0 ** rng.uniform(-2, 2))
        loss, grad = info_nce_loss(z, tau)
        ref_loss, ref_grad = info_nce_reference(z, tau)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)


# --- MAD loss -------------------------------------------------------------

def test_unlabeled_row_at_center_contributes_zero():
    centers = make_centers([[1.0, 2.0], [5.0, 5.0]])
    loss, grad, assign = mad_loss(np.array([[1.0, 2.0]]),
                                  np.array([UNLABELED]), LiveCenters(centers),
                                  eta=1.0, n_rows=1)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros((1, 2)))
    assert assign[0] == 0


def test_known_abnormal_at_distance_one():
    centers = make_centers([[0.0, 0.0]])
    loss, _, _ = mad_loss(np.array([[1.0, 0.0]]), np.array([ABNORMAL]),
                          LiveCenters(centers), eta=1.0, n_rows=1)
    assert loss == 1.0  # (1^2)^(-1)


def test_known_normal_at_distance_two():
    centers = make_centers([[0.0, 0.0]])
    loss, _, _ = mad_loss(np.array([[2.0, 0.0]]), np.array([NORMAL]),
                          LiveCenters(centers), eta=1.0, n_rows=1)
    assert loss == 4.0  # eta * (2^2)^(+1)


def test_denominator_uses_full_counts():
    centers = make_centers([[0.0]])
    loss, _, _ = mad_loss(np.array([[2.0]]), np.array([UNLABELED]),
                          LiveCenters(centers), eta=1.0, n_rows=10)
    assert math.isclose(loss, 4.0 / 10.0, rel_tol=1e-12)


def _random_mad_instance(rng, tie_margin=1e-3):
    """Random rows, 3 centers; rows near an assignment tie are redrawn."""
    d = int(rng.integers(2, 9))
    centers = make_centers(rng.normal(size=(3, d)))
    rows = []
    while len(rows) < 5:
        z = rng.normal(size=d)
        dists = np.sort(np.linalg.norm(centers.centers - z, axis=1))
        if dists[1] - dists[0] > tie_margin and np.min(dists) ** 2 > 1e-2:
            rows.append(z)
    z = np.array(rows)
    labels = rng.choice([UNLABELED, NORMAL, ABNORMAL], size=5)
    return centers, z, labels, float(rng.uniform(0.3, 2.0))


@pytest.mark.parametrize("seed", range(8))
def test_mad_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(300 + seed)
    centers, z0, labels, eta = _random_mad_instance(rng)
    live = LiveCenters(centers)
    _, grad, _ = mad_loss(z0.copy(), labels, live, eta, n_rows=10)

    def loss_at(arr):
        return mad_loss(arr, labels, live, eta, n_rows=10)[0]

    numeric = central_diff(loss_at, z0)
    assert grads_close(grad, numeric)


def test_assignment_minimizes_distance_and_breaks_ties_low():
    centers = make_centers([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    z = np.array([[1.5, 0.0],   # nearest is center 2 (distance .5)
                  [1.0, 5.0]])  # equidistant to 0 and 1 -> index 0... no: 2 is nearer
    _, _, assign = mad_loss(z, np.array([UNLABELED, UNLABELED]),
                            LiveCenters(centers), 1.0, 2)
    live = centers.centers[assign]
    for i in range(len(z)):
        d_assigned = np.linalg.norm(z[i] - live[i])
        d_all = np.linalg.norm(centers.centers - z[i], axis=1)
        assert d_assigned <= d_all.min() + 1e-12


def test_tie_breaks_to_lowest_index():
    centers = make_centers([[-1.0, 0.0], [1.0, 0.0]])
    _, _, assign = mad_loss(np.array([[0.0, 3.0]]), np.array([UNLABELED]),
                            LiveCenters(centers), 1.0, 1)
    assert assign[0] == 0


def test_abnormal_descent_step_pushes_away_from_center():
    rng = np.random.default_rng(9)
    centers = make_centers(rng.normal(size=(2, 4)))
    z = rng.normal(size=(6, 4))
    _, grad, assign = mad_loss(z, np.full(6, ABNORMAL),
                               LiveCenters(centers), eta=1.0, n_rows=6)
    toward = centers.centers[assign] - z
    # descent direction -grad must point away from the assigned center
    assert np.all(np.einsum("ij,ij->i", -grad, toward) < 0.0)


def test_abnormal_loss_decreases_with_distance():
    centers = make_centers([[0.0]])
    losses = []
    for d in (0.5, 1.0, 2.0, 4.0):
        losses.append(mad_loss(np.array([[d]]), np.array([ABNORMAL]),
                               LiveCenters(centers), 1.0, 1)[0])
    assert all(a > b > 0.0 for a, b in zip(losses, losses[1:]))


def test_eps_d_floor_bounds_loss_and_kills_gradient():
    centers = make_centers([[0.0, 0.0]])
    z = np.array([[1e-9, 0.0]])  # d^2 = 1e-18 < eps_d
    loss, grad, _ = mad_loss(z, np.array([ABNORMAL]),
                             LiveCenters(centers), 1.0, 1, eps_d=1e-6)
    assert loss == 1e6
    assert np.array_equal(grad, np.zeros_like(z))


def test_huge_eps_d_squares_no_floored_distance():
    # eps_d ** 2 overflows; a row below the floor has no gradient to scale
    z = np.array([[3.0, 0.0]])
    with np.errstate(over="raise"):
        loss, grad, _ = mad_loss(z, np.array([ABNORMAL]),
                                 LiveCenters(make_centers([[0.0, 0.0]])),
                                 1.0, 1, eps_d=1e300)
    assert loss == 1e-300
    assert np.array_equal(grad, np.zeros_like(z))


def test_unlabeled_and_normal_terms_non_negative():
    rng = np.random.default_rng(10)
    centers = make_centers(rng.normal(size=(3, 3)))
    z = rng.normal(size=(10, 3))
    labels = rng.choice([UNLABELED, NORMAL], size=10)
    loss, _, _ = mad_loss(z, labels, LiveCenters(centers), 1.3, 10)
    assert loss >= 0.0


def test_all_pruned_raises_state_error():
    centers = make_centers([[0.0], [1.0]])
    centers.live[:] = False  # bypasses the constructor guard
    with pytest.raises(StateError):
        mad_loss(np.array([[0.5]]), np.array([UNLABELED]),
                 LiveCenters(centers), 1.0, 1)


@pytest.mark.parametrize("seed", range(6))
def test_mad_loss_matches_reference_through_prunes(seed):
    # loss, gradient and assignments bit for bit, snapshot rebuilt per prune
    rng = np.random.default_rng(500 + seed)
    d = int(rng.integers(2, 17))
    offset = 10.0 ** rng.uniform(-1, 4)
    centers = make_centers(offset + rng.normal(size=(int(rng.integers(1, 60)), d)))
    while True:
        live = LiveCenters(centers)
        for _ in range(5):
            n = int(rng.integers(1, 40))
            z = offset + rng.normal(size=(n, d))
            labels = rng.choice([UNLABELED, NORMAL, ABNORMAL],
                                size=n, p=rng.dirichlet(np.ones(3)))
            eta, n_rows = float(rng.uniform(0.0, 3.0)), int(rng.integers(n, 5000))
            eps_d = float(10.0 ** rng.uniform(-8, 1))
            got = mad_loss(z, labels, live, eta, n_rows, eps_d)
            want = mad_loss_reference(z, labels, centers, eta, n_rows, eps_d)
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1])
            assert np.array_equal(got[2], want[2])
        if centers.n_live == 1:
            return
        centers.live[rng.choice(np.flatnonzero(centers.live))] = False


_ROW = np.array([[1.0, 0.0]])
_UNL = np.array([UNLABELED])


@pytest.mark.parametrize("call, error", [
    (lambda c: info_nce_loss(np.ones(4), 0.5), ShapeError),
    (lambda c: info_nce_loss(np.ones((3, 2)), 0.5), ShapeError),
    (lambda c: info_nce_loss(np.ones((4, 2)), 0.0), DomainError),
    (lambda c: mad_loss(np.ones(2), _UNL, c, 1.0, 1), ShapeError),
    (lambda c: mad_loss(_ROW, np.array([0, 0]), c, 1.0, 1), ShapeError),
    (lambda c: mad_loss(_ROW, np.array([2]), c, 1.0, 1), DomainError),
    (lambda c: mad_loss(_ROW, np.array([0.5]), c, 1.0, 1), DomainError),
    (lambda c: mad_loss(_ROW, np.array([2], dtype=np.int8), c, 1.0, 1),
     DomainError),
    (lambda c: mad_loss(_ROW, _UNL, c, -0.5, 1), DomainError),
    (lambda c: mad_loss(_ROW, _UNL, c, 1.0, 0), DomainError),
], ids=["nce_not_2d", "nce_odd_rows", "nce_temperature", "mad_not_2d",
        "mad_label_shape", "mad_label_value", "mad_label_float",
        "mad_label_int8", "mad_eta", "mad_n_rows"])
def test_loss_argument_guards(call, error):
    with pytest.raises(error):
        call(LiveCenters(make_centers([[0.0, 0.0]])))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_info_nce_loss_non_negative_property(seed):
    rng = np.random.default_rng(seed)
    n_pairs = int(rng.integers(1, 5))
    z = rng.normal(size=(2 * n_pairs, int(rng.integers(2, 7))))
    if np.any(np.linalg.norm(z, axis=1) == 0.0):
        return
    loss, _ = info_nce_loss(z, float(rng.uniform(0.1, 2.0)))
    assert loss >= -1e-12
