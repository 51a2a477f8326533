import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats

import madlab.evaluation as evaluation
from madlab.errors import DomainError
from madlab.evaluation import (auc, knn_score, regularized_incomplete_beta,
                               replicate_ci, significance_code,
                               student_t_two_sided_p, welch_t_test)

from _oracles import (pair_count_auc, two_block_beta_continued_fraction,
                      unblocked_knn_score)


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


# The last references sit nearest every query, so k=1 reads the last columns
# of the distance matrix, where a BLAS GEMM's edge tiles round differently
# from its interior: a block size the kernel does not tile evenly moves bits.
_BLOCKED_KNN_SCRIPT = """
import numpy as np
from madlab.evaluation import _KNN_BLOCK_ROWS, knn_score
from _oracles import unblocked_knn_score
rng = np.random.default_rng(0)
queries = rng.normal(size=(5000, 16))
assert len(range(0, 5000, _KNN_BLOCK_ROWS)) >= 3 and 5000 % _KNN_BLOCK_ROWS
refs = np.concatenate([rng.normal(size=(384, 16)) + 20.0,
                       0.5 * rng.normal(size=(6, 16))])
for k in (1, len(refs)):
    got, want = knn_score(queries, refs, k), unblocked_knn_score(queries, refs, k)
    assert got.shape == want.shape == (5000,)
    assert np.array_equal(got, want), f"k={k}: {np.sum(got != want)} rows differ"
"""


def test_knn_blocks_bit_identical_to_one_call():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(root / "src"), str(root / "tests"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _BLOCKED_KNN_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
