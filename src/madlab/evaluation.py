"""Scoring statistics: exact ROC-AUC, kNN distance score, replicate CI
(``replicate_ci`` returns the object metrics.json stores) and the
two-sided Welch t-test.

AUC is the Mann-Whitney probability (ties credited 1/2) computed from
tied ranks, which agrees bit-for-bit with exhaustive pair counting. The
t-test p-value runs through an in-house regularized incomplete beta
(continued fraction), kept independent of scipy so the test suite can use
scipy as the cross-check oracle.
"""

from __future__ import annotations

import contextvars
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError
from .numcore import row_blocks
from .spheres import distances_to, ref_terms

log = logging.getLogger(__name__)


def auc(scores, positives) -> float:
    """P(random positive outscores random negative), ties counted 1/2.

    ``positives`` flags the positive class (here: ground-truth abnormal).
    Exact rank-based evaluation, not a curve approximation.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    if scores.shape != positives.shape or scores.ndim != 1:
        raise DomainError("scores and positives must be equal-length vectors")
    if not np.all(np.isfinite(scores)):
        raise DomainError("scores must be finite")
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DomainError("AUC needs at least one positive and one negative")

    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # tied run [i, j] of the sorted scores: each gets the average 1-based rank
    i = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    j = np.r_[i[1:], scores.size] - 1
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (i + j) + 1.0, j - i + 1)

    u = ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def usable_cores() -> int:
    """The cores this process may run on (the machine's where unknown)."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


# The queries' row blocks are scored by the calling thread and one pool thread
# per further usable core, thread i in one buffer it reuses, ``buffers[i]``: a
# new array under 4 MB faults in page by page. Pool threads copy the caller's
# context (errstate) and call nothing the tracer patches.
def knn_score(queries, references, k: int, buffers=None) -> np.ndarray:
    """Mean Euclidean distance to the k nearest reference rows, per query.

    Brute force over ``row_blocks(n, references)``, rooting only the k kept
    squared distances: the bits of one unblocked call that roots them all,
    but for an ulp where duplicated references tie after the root. k above
    the reference count is clamped with a warning. Calls made one after
    another may share one dict as ``buffers``.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    references = np.atleast_2d(np.asarray(references, dtype=np.float64))
    if references.shape[0] == 0:
        raise DomainError("empty reference set")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if k > references.shape[0]:
        log.warning("knn_score: k=%d exceeds %d references; clamping",
                    k, references.shape[0])
        k = references.shape[0]

    out, terms = np.empty(n := queries.shape[0]), ref_terms(references)
    blocks = iter(cuts := row_blocks(n, m := len(references)))  # next() is atomic
    size = max((r.stop - r.start for r in cuts), default=0) * m
    buffers = {} if buffers is None else buffers

    def score_blocks(i):
        if (flat := buffers.get(i, np.empty(0))).size < size:
            flat = buffers[i] = np.empty(size)
        buf = flat[:size].reshape(-1, m)
        for rows in blocks:
            d = distances_to(queries[rows], *terms, out=buf[:rows.stop - rows.start])
            if k < references.shape[0]:
                d.partition(k - 1, axis=1)
                d = d[:, :k]
            np.sqrt(d, out=d)
            d.mean(axis=1, out=out[rows])

    with ThreadPoolExecutor() as pool:  # its exit joins the pool threads
        helpers = [pool.submit(contextvars.copy_context().run, score_blocks, i)
                   for i in range(1, min(usable_cores(), len(cuts)))]
        try:
            score_blocks(0)
        finally:
            for _ in blocks:  # the helpers stop after the block they are on
                pass
        for helper in helpers:
            helper.result()
    return out


def replicate_ci(values) -> dict:
    """Mean +- 1.96 * sample std over replicate values, as the object
    metrics.json stores: ``values``, ``mean``, ``half_width``, ``n`` and
    ``flagged`` (a single value: zero width by convention)."""
    vals = [float(v) for v in values]
    if not vals:
        raise DomainError("replicate_ci needs at least one value")
    mean, flagged = float(np.mean(vals)), len(vals) == 1
    if flagged:
        log.warning("replicate_ci over a single value: half-width is 0 "
                    "by convention")
    return {"values": vals, "mean": mean,
            "half_width": 0.0 if flagged else 1.96 * float(np.std(vals, ddof=1)),
            "n": len(vals), "flagged": flagged}


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Modified Lentz evaluation of the incomplete-beta continued fraction."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        # the even then the odd step of term m; converged after the odd one
        for num in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                    -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + num * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + num / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-12:
            return h
    raise DomainError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) to absolute error well under 1e-8."""
    if a <= 0 or b <= 0:
        raise DomainError("incomplete beta needs a, b > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise DomainError(f"degrees of freedom must be > 0, got {df}")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(0.5 * df, 0.5, x)


def welch_t_test(sample_a, sample_b):
    """Two-sample mean comparison with unequal variances.

    Returns ``(t, df, p)`` with the Welch-Satterthwaite degrees of freedom
    and a two-sided p-value. A sample with fewer than two values, with
    zero or non-finite variance, or whose variance leaves no finite t or df
    in float64, raises ``DomainError``.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise DomainError("each sample needs at least two values")
    with np.errstate(over="ignore"):  # an overflowing variance is rejected below
        va, vb = a.var(ddof=1), b.var(ddof=1)
    if not (0.0 < va < math.inf and 0.0 < vb < math.inf):
        raise DomainError("degenerate sample: zero or non-finite variance")
    na, nb = a.size, b.size
    with np.errstate(all="ignore"):  # rejected below
        se2 = va / na + vb / nb
        t = float((a.mean() - b.mean()) / math.sqrt(se2))
        # df from each side's share of se2, so the squares stay in [0, 1]
        ra, rb = va / na / se2, vb / nb / se2
        df = float(1.0 / (ra ** 2 / (na - 1) + rb ** 2 / (nb - 1)))
    if not (math.isfinite(t) and math.isfinite(df)):
        raise DomainError("sample variances out of float64 range: no finite "
                          "t or Welch df")
    return t, df, student_t_two_sided_p(t, df)


def significance_code(p: float) -> str:
    """Band codes for reporting: ns / . / * / ** / ***.

    Bands: *** for p <= 0.01, ** for (0.01, 0.05], * for (0.05, 0.1],
    "." for (0.1, 1), "ns" for p = 1. Shared band edges go to the more
    significant code.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p-value outside [0, 1]: {p}")
    if p <= 0.01:
        return "***"
    if p <= 0.05:
        return "**"
    if p <= 0.1:
        return "*"
    if p < 1.0:
        return "."
    return "ns"
