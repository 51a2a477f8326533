import math
import os
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.special
import scipy.stats

import madlab.evaluation as evaluation
import madlab.numcore as numcore
from madlab.errors import DomainError
from madlab.evaluation import (auc, knn_score, regularized_incomplete_beta,
                               replicate_ci, significance_code,
                               student_t_two_sided_p, welch_t_test)
from madlab.numcore import Mlp
from madlab.spheres import CenterSet, anomaly_scores

from _oracles import (pair_count_auc, run_at_one_blas_thread,
                      two_block_beta_continued_fraction, unblocked_knn_score)


# --- AUC --------------------------------------------------------------------

def test_auc_spec_example():
    scores = [0.1, 0.4, 0.35, 0.8]
    positives = [False, False, True, True]
    assert auc(scores, positives) == pair_count_auc(scores, positives) == 0.75


def test_auc_perfect_separation():
    assert auc([1, 2, 3, 10, 11], [False] * 3 + [True] * 2) == 1.0


def test_auc_all_ties():
    assert auc([0.5] * 6, [True, False] * 3) == 0.5


def test_auc_single_class_rejected():
    with pytest.raises(DomainError):
        auc([1.0, 2.0], [True, True])


def test_auc_matches_pair_counting_oracle_exactly():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(2, 51))
        # integer scores force plenty of ties
        scores = rng.integers(0, 8, size=n).astype(float)
        positives = rng.random(n) < 0.5
        if positives.all() or not positives.any():
            continue
        assert auc(scores, positives) == pair_count_auc(scores, positives)


def test_auc_invariant_under_strictly_increasing_transforms():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=40)
    scores[::5] = scores[0]  # inject ties
    positives = rng.random(40) < 0.4
    base = auc(scores, positives)
    assert auc(np.exp(scores), positives) == base
    assert auc(3.0 * scores + 11.0, positives) == base


# --- kNN score ----------------------------------------------------------------

def test_knn_query_on_reference_point():
    refs = np.array([[1.0, 1.0], [3.0, 3.0]])
    assert knn_score(np.array([[1.0, 1.0]]), refs, k=1)[0] == 0.0


def test_knn_hand_distances():
    refs = np.array([[0.0, 0.0], [4.0, 0.0], [100.0, 0.0]])
    got = knn_score(np.array([[0.0, 0.0]]), refs, k=2)
    assert np.isclose(got[0], 2.0)  # (0 + 4) / 2


def test_knn_clamps_k_with_warning(caplog):
    import logging
    refs = np.zeros((3, 2))
    with caplog.at_level(logging.WARNING, logger="madlab.evaluation"):
        got = knn_score(np.ones((1, 2)), refs, k=10)
    assert got.shape == (1,)
    assert any("clamping" in r.message for r in caplog.records)


def test_knn_empty_reference_rejected():
    with pytest.raises(DomainError):
        knn_score(np.ones((1, 2)), np.empty((0, 2)), k=1)


def test_knn_permutation_invariance_and_lipschitz():
    rng = np.random.default_rng(2)
    refs = rng.normal(size=(30, 4))
    q = rng.normal(size=(5, 4))
    base = knn_score(q, refs, k=7)
    perm = knn_score(q, refs[rng.permutation(30)], k=7)
    assert np.allclose(base, perm)
    for _ in range(20):
        a, b = rng.normal(size=(2, 4))
        fa = knn_score(a[None], refs, k=7)[0]
        fb = knn_score(b[None], refs, k=7)[0]
        assert abs(fa - fb) <= np.linalg.norm(a - b) + 1e-12


# Block sizes around the 24-row GEMM tile and the block heights of each
# reference count: 240 rows at 203 and 390 references, on both sides of the
# kernel's 256-column edge (neither a multiple of 8), then 120, 48 and 24 rows
# at 1 950, 4 400 and 12 000 (the last with at most 1 000 queries, which keeps
# the oracle's matrix under 100 MB); k at 1, 2, 100, one below the reference
# count, at it and clamped above it: at 2 to m - 1 the mean sums the kept k
# in the order the partition leaves them, which selecting on squared
# distances must share with the oracle's roots of all m; the scoring
# threads are the caller plus one helper per further core the patched
# affinity reports. The last references sit nearest every query, so k=1
# reads the last columns of the distance matrix, where a BLAS GEMM's edge
# tiles round differently from its interior. In the last layout every
# reference appears twice, 975 columns apart, and a third of the queries sit
# on a reference: the copies' squared distances can differ by an ulp and
# share one root, where selecting before the root may keep the other copy,
# so the scores agree to 2 ulps there.
_THREADED_KNN_SCRIPT = """
import logging, os, sys
import numpy as np
from madlab.evaluation import knn_score
from _oracles import unblocked_knn_score
logging.disable(logging.WARNING)
os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))
rng = np.random.default_rng(1)
heights = (1, 23, 24, 25, 47, 48, 49, 119, 120, 121, 239, 240, 241)
for m, most in ((203, 5000), (390, 5000), (1950, 5000), (4400, 5000),
                (12000, 1000)):
    refs = np.concatenate([rng.normal(size=(m - 6, 16)) + 20.0,
                           0.5 * rng.normal(size=(6, 16))])
    for n in (*heights, most):
        queries = rng.normal(size=(n, 16))
        for k in (1, 2, 100, m - 1, m, m + 7):
            got = knn_score(queries, refs, k)
            want = unblocked_knn_score(queries, refs, min(k, m))
            assert np.array_equal(got, want), (m, n, k, np.sum(got != want))
refs = np.tile(rng.normal(size=(975, 16)), (2, 1))
for n in (*heights, 5000):
    queries = rng.normal(size=(n, 16))
    queries[::3] = refs[rng.integers(0, len(refs), size=len(queries[::3]))]
    for k in (1, 2, 100, 1949):
        got = knn_score(queries, refs, k)
        np.testing.assert_array_max_ulp(got, unblocked_knn_score(
            queries, refs, k), maxulp=2)
"""


@pytest.mark.parametrize("cores", [1, 2])
def test_threaded_knn_bit_identical_to_one_call(cores):
    proc = run_at_one_blas_thread(_THREADED_KNN_SCRIPT, str(cores), timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_knn_threads_score_each_block_once(monkeypatch):
    """More scoring threads than cores and a 1 us switch interval: every
    24-row block is scored by exactly one thread, into the one distance
    buffer that thread reuses."""
    real, blocks = evaluation.distances_to, []

    def distances_to(points, *terms, out=None):
        blocks.append((int(points[0, 0]), threading.get_ident(),
                       out.ctypes.data))
        return real(points, *terms, out=out)

    monkeypatch.setattr(evaluation, "distances_to", distances_to)
    monkeypatch.setattr(numcore, "ROW_BLOCK", 24)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    queries = np.arange(4800.0)[:, None]  # row i holds i: its score is i
    got, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=lambda: got.append(knn_score(queries, np.zeros((1, 1)), 1)),
            daemon=True)
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert sorted(first for first, _, _ in blocks) == list(range(0, 4800, 24))
    assert np.array_equal(got[0], queries[:, 0])
    buffers = {(thread, buffer) for _, thread, buffer in blocks}
    assert len(buffers) == len({thread for _, thread, _ in blocks})


@pytest.mark.parametrize("m", [2000, 16_000])
def test_knn_distance_buffers_hold_one_byte_bounded_block(monkeypatch, m):
    """Counted cost, independent of host speed: every buffer the kNN score
    hands the distance kernel is one block of ``row_blocks(n, m)``, at most
    ``BLOCK_BYTES`` (24 rows where one row is wider than 1/24 of it) plus
    one row. A 241-row buffer held 3.9 MB at 2 000 references and 30.8 MB
    at 16 000."""
    real, sizes = evaluation.distances_to, []

    def distances_to(points, *terms, out=None):
        sizes.append((out if out.base is None else out.base).nbytes)
        return real(points, *terms, out=out)

    monkeypatch.setattr(evaluation, "distances_to", distances_to)
    rng = np.random.default_rng(m)
    knn_score(rng.normal(size=(600, 16)), rng.normal(size=(m, 16)), 10)
    assert sizes and max(sizes) <= max(numcore.BLOCK_BYTES, 24 * m * 8) + m * 8


class _RootCountingNumpy:
    """numpy as ``madlab.evaluation`` sees it, recording the size of every
    array ``np.sqrt`` roots."""

    def __init__(self):
        self.rooted = []  # list.append is atomic: the helper threads share it

    def __getattr__(self, name):
        return getattr(np, name)

    def sqrt(self, x, *args, **kwargs):
        self.rooted.append(np.size(x))
        return np.sqrt(x, *args, **kwargs)


def test_knn_roots_only_the_kept_distances(monkeypatch):
    """Counted cost: one kNN score of n queries roots at most n * k
    distances, not all n * m of them, on every scoring thread."""
    counter, n, k = _RootCountingNumpy(), 600, 10
    monkeypatch.setattr(evaluation, "np", counter)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    rng = np.random.default_rng(5)
    knn_score(rng.normal(size=(n, 16)), rng.normal(size=(2000, 16)), k)
    assert 0 < sum(counter.rooted) <= n * k


def _stub_distances(monkeypatch, calls, fail=None, where=None):
    """Replace the kNN score's distance kernel with one that sleeps 5 ms per
    block, records the thread and numpy's error state, and raises ``fail``
    from each block it scores on the calling thread (``where="caller"``) or
    on a helper (``"helper"``); two cores are reported."""
    real = evaluation.distances_to

    def distances_to(points, *terms, out=None):
        thread = threading.current_thread()
        calls.append((thread, np.geterr()["over"]))
        time.sleep(0.005)
        if where == ("caller" if thread is threading.main_thread()
                     else "helper"):
            raise fail
        return real(points, *terms, out=out)

    monkeypatch.setattr(evaluation, "distances_to", distances_to)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_knn_helpers_inherit_the_callers_error_state(monkeypatch):
    calls = []
    _stub_distances(monkeypatch, calls)
    queries, refs = np.ones((10 * numcore.ROW_BLOCK, 2)), np.eye(2)
    with np.errstate(over="raise"):
        knn_score(queries, refs, k=1)
    assert len(calls) == 10
    assert {over for _, over in calls} == {"raise"}
    assert any(thread is not threading.main_thread() for thread, _ in calls)


@pytest.mark.parametrize("where", ["caller", "helper"])
@pytest.mark.parametrize("fail", [FloatingPointError("overflow"),
                                  KeyboardInterrupt()],
                         ids=["floating_point_error", "keyboard_interrupt"])
def test_knn_reraises_block_errors_and_leaves_no_thread(monkeypatch, fail,
                                                        where):
    calls = []
    _stub_distances(monkeypatch, calls, fail, where)
    queries, refs = np.ones((20 * numcore.ROW_BLOCK, 2)), np.eye(2)
    threads = threading.active_count()
    with pytest.raises(type(fail)):
        knn_score(queries, refs, k=1)
    assert threading.active_count() == threads
    if where == "caller":  # the helper stopped after the block it was on
        assert len(calls) < 20


def _scoring_transient_bytes(rows: int) -> int:
    """Peak traced bytes of one untaped forward pass of the default encoder's
    shapes and the anomaly scores of its output, beyond the two outputs."""
    rng = np.random.default_rng(rows)
    model = Mlp((32, 64, 32, 16), rng=rng)
    x = rng.normal(size=(rows, 32))
    centers = CenterSet(rng.normal(size=(100, 16)), np.ones(100, dtype=bool),
                        np.zeros(100))
    tracemalloc.start()
    try:
        emb = model.forward(x)
        scores = anomaly_scores(emb, centers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - emb.nbytes - scores.nbytes


def test_scoring_working_memory_does_not_grow_with_rows():
    """Counted cost, independent of host speed: scoring a split in row blocks
    keeps its temporaries to one block's. Over whole splits, 35 000 more
    rows added 31 MB: each layer's product, bias sum and ReLU and the
    split-by-centers distance matrix."""
    assert _scoring_transient_bytes(40_000) - _scoring_transient_bytes(5_000) \
        < 1 << 20


# --- replicate CI ---------------------------------------------------------------

def test_ci_constant_values():
    stats = replicate_ci([0.78, 0.78, 0.78, 0.78])
    assert stats["mean"] == 0.78 and stats["half_width"] == 0.0


def test_ci_two_values_hand_formula():
    stats = replicate_ci([0.7, 0.8])
    # sample std = sqrt(((0.05)^2 + (0.05)^2) / 1) = 0.0707106...
    assert math.isclose(stats["mean"], 0.75, rel_tol=1e-12)
    assert math.isclose(stats["half_width"], 1.96 * math.sqrt(0.005),
                        rel_tol=1e-12)
    assert math.isclose(stats["half_width"], 0.1386, abs_tol=5e-5)


def test_ci_single_value_flagged():
    stats = replicate_ci([0.9])
    assert stats["half_width"] == 0.0 and stats["flagged"]


def test_ci_mean_within_range():
    rng = np.random.default_rng(3)
    vals = rng.random(6).tolist()
    stats = replicate_ci(vals)
    assert min(vals) <= stats["mean"] <= max(vals)
    assert stats["half_width"] >= 0.0


# --- Welch t-test ----------------------------------------------------------------

def test_welch_identical_samples():
    t, df, p = welch_t_test([0.7, 0.8, 0.9], [0.7, 0.8, 0.9])
    assert t == 0.0 and p == 1.0


def test_welch_large_shift_significant_with_sign():
    a = [1.0, 2.0, 3.0, 4.0]
    b = [11.0, 12.0, 13.0, 14.0]
    t, df, p = welch_t_test(a, b)
    assert t < 0.0 and p < 0.001


def test_welch_matches_scipy_oracle_on_spec_example():
    a = [0.74, 0.76, 0.75, 0.77]
    b = [0.71, 0.72, 0.70, 0.73]
    t, df, p = welch_t_test(a, b)
    ref = scipy.stats.ttest_ind(a, b, equal_var=False)
    assert math.isclose(t, ref.statistic, rel_tol=1e-10)
    assert math.isclose(df, ref.df, rel_tol=1e-10)
    assert abs(p - ref.pvalue) < 1e-6


def test_welch_antisymmetry():
    rng = np.random.default_rng(4)
    a, b = rng.normal(0, 1, 5), rng.normal(0.5, 2, 7)
    ta, dfa, pa = welch_t_test(a, b)
    tb, dfb, pb = welch_t_test(b, a)
    assert math.isclose(ta, -tb, rel_tol=1e-12)
    assert math.isclose(pa, pb, rel_tol=1e-12)
    assert math.isclose(dfa, dfb, rel_tol=1e-12)


def test_welch_is_scale_invariant_at_tiny_scale():
    a, b = [1.0, 2.0, 3.0], [4.0, 5.0, 7.0]
    t1, df1, p1 = welch_t_test(a, b)
    tiny = welch_t_test([v * 1e-90 for v in a], [v * 1e-90 for v in b])
    assert math.isclose(tiny[0], t1, rel_tol=1e-12)
    assert math.isclose(tiny[1], df1, rel_tol=1e-12)
    assert math.isclose(tiny[2], p1, rel_tol=1e-12)


def test_welch_t_and_df_match_scipy():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a = rng.normal(0.0, rng.uniform(0.1, 10.0), int(rng.integers(2, 12)))
        b = rng.normal(1.0, rng.uniform(0.1, 10.0), int(rng.integers(2, 12)))
        t, df, _ = welch_t_test(a, b)
        ref = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert math.isclose(t, ref.statistic, rel_tol=1e-12)
        assert math.isclose(df, ref.df, rel_tol=1e-12)


def test_welch_underflowing_standard_error_rejected():
    # subnormal variances whose shares of the standard error round to 0
    with pytest.raises(DomainError, match="no finite t"):
        welch_t_test([0.0] * 9 + [1e-161], [0.0] * 9 + [9e-162])


def test_welch_degenerate_variance_rejected():
    with pytest.raises(DomainError):
        welch_t_test([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        welch_t_test([1.0], [1.0, 2.0])


def test_incomplete_beta_against_scipy():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = float(rng.uniform(0.3, 30.0))
        b = float(rng.uniform(0.3, 30.0))
        x = float(rng.uniform(0.0, 1.0))
        ours = regularized_incomplete_beta(a, b, x)
        ref = float(scipy.special.betainc(a, b, x))
        assert abs(ours - ref) < 1e-8


def test_student_t_p_against_scipy():
    rng = np.random.default_rng(6)
    for _ in range(100):
        t = float(rng.normal(0, 3))
        df = float(rng.uniform(1.0, 40.0))
        ours = student_t_two_sided_p(t, df)
        ref = 2.0 * float(scipy.stats.t.sf(abs(t), df))
        assert abs(ours - ref) < 1e-8


def _bits_or_error(f, *args):
    try:
        return struct.pack("<d", f(*args))
    except DomainError as exc:
        return str(exc)


def test_continued_fraction_keeps_the_two_block_bits(monkeypatch):
    rng = np.random.default_rng(22)
    a, b = 10.0 ** rng.uniform(-2.0, 4.0, (2, 3000))
    x = rng.uniform(0.0, 1.0, 3000)
    t = rng.normal(0.0, 1.0, 3000) * 10.0 ** rng.uniform(-3.0, 2.0, 3000)
    beta_cases = [*zip(a.tolist(), b.tolist(), x.tolist()),
                  (1e6, 1e6, 0.4999)]  # needs more than 299 terms
    t_cases = list(zip(t.tolist(), (2.0 * a).tolist()))
    # each clamps d or c to tiny: at the start, in an even and an odd
    # half-step, and c in an odd one; no case above reaches a clamp
    clamp_cases = [(0.5, 2.0, 0.6), (1.0, 2.0, 0.75), (1.0, 7.0, 0.5),
                   (5.0, 7.0, 0.8)]

    def outcomes():
        return ([_bits_or_error(regularized_incomplete_beta, *c)
                 for c in beta_cases],
                [_bits_or_error(student_t_two_sided_p, *c) for c in t_cases],
                [_bits_or_error(evaluation._beta_continued_fraction, *c)
                 for c in clamp_cases])

    ours = outcomes()
    monkeypatch.setattr(evaluation, "_beta_continued_fraction",
                        two_block_beta_continued_fraction)
    assert ours == outcomes()
    assert ours[0][-1].startswith("incomplete beta did not converge")


def test_significance_codes():
    assert significance_code(1.0) == "ns"
    assert significance_code(0.2) == "."
    assert significance_code(0.07) == "*"
    assert significance_code(0.03) == "**"
    assert significance_code(0.005) == "***"
    assert significance_code(1e-9) == "***"
    # shared band edges go to the more significant code
    assert significance_code(0.1) == "*"
    assert significance_code(0.05) == "**"
    assert significance_code(0.01) == "***"
    with pytest.raises(DomainError):
        significance_code(1.5)
