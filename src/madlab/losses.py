"""The two training objectives and their analytic embedding gradients.

``info_nce_loss(z, temperature)`` is the temperature-scaled contrastive
objective over positive pairs with in-batch negatives;
``mad_loss(z, labels, centers, eta, n_rows, eps_d)`` is the multi-center
semi-supervised detection objective (unlabeled attraction, labeled
attraction/repulsion via the +-1 exponent) to the live centers of a
``spheres.CenterSet``.
Both take plain arrays, check their arguments on every call, and return
exact gradients w.r.t. the embedding rows so the network backward pass can
chain onto them; both are checked against central finite differences.
"""

from __future__ import annotations

import functools
import logging

import numpy as np

from .data import ABNORMAL, NORMAL, UNLABELED
from .errors import DomainError, ShapeError

log = logging.getLogger(__name__)


@functools.lru_cache(maxsize=8)
def _pair_index(n_rows: int):  # flat indices: diagonal, partner i XOR 1
    rows = np.arange(n_rows)
    return rows * (n_rows + 1), rows * n_rows + (rows ^ 1)


def info_nce_loss(z, temperature: float):
    """Contrastive pair loss summed over all 2N anchors.

    ``z`` is 2N x d with rows (2i, 2i+1) the positive pair i. For anchor i
    with positive j: -log softmax over cosine similarities to every other
    row, scaled by 1/temperature, numerator at j. Both orderings of each
    pair contribute. Returns (loss, gradient) with the gradient taken
    w.r.t. the raw (unnormalized) embedding rows. Rows are divided by
    max(norm, 1e-12), as in SimCLR, so an all-zero row (every ReLU dead
    under a zero head bias) normalizes to zero with a finite gradient.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ShapeError(f"embeddings must be 2-d, got {z.shape}")
    n_rows = z.shape[0]
    if n_rows % 2 != 0:
        raise ShapeError(f"row count must be even (pairs), got {n_rows}")
    if not temperature > 0:
        raise DomainError(f"temperature must be > 0, got {temperature}")
    if n_rows < 4:
        log.debug("contrastive batch with %d rows: denominators contain only "
                  "the positive", n_rows)
    norms = np.maximum(np.linalg.norm(z, axis=1), 1e-12)
    diag, pos = _pair_index(n_rows)

    zh = z / norms[:, None]
    logits = zh @ zh.T
    np.clip(logits, -1.0, 1.0, out=logits)
    logits /= temperature
    logits.ravel()[diag] = -np.inf

    row_max = logits.max(axis=1)
    stable = logits - row_max[:, None]
    np.exp(stable, out=stable)
    stable.ravel()[diag] = 0.0
    denom = stable.sum(axis=1)
    lse = row_max + np.log(denom)
    loss = float(np.sum(lse - logits.ravel()[pos]))

    # d(loss)/d(sims): softmax minus the positive indicator, per anchor row.
    a = stable / denom[:, None]
    a.ravel()[pos] -= 1.0
    a /= temperature

    g_hat = (a + a.T) @ zh
    # through the row normalization: project out the radial component
    grad = (g_hat - (np.sum(g_hat * zh, axis=1)[:, None]) * zh) / norms[:, None]
    return loss, grad


def mad_loss(z, labels, centers, eta: float, n_rows: int, eps_d: float):
    """Multi-center detection objective over one batch.

    Each row is assigned to its nearest live center of the ``CenterSet``
    ``centers`` (ties -> lowest index). Unlabeled rows add d^2/(n+m);
    labeled rows add eta * (d^2)^(+-1) / (n+m), where n+m = ``n_rows`` is
    the dataset size, so batch losses are partial sums of the epoch
    objective. The squared distance is floored at ``eps_d`` inside the -1
    branch so known anomalies sitting on a center cannot blow up the loss.
    Returns (loss, embedding_gradients, assignments).
    """
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels)
    if z.ndim != 2:
        raise ShapeError(f"embeddings must be 2-d, got {z.shape}")
    if labels.shape != (z.shape[0],):
        raise ShapeError(
            f"labels shape {labels.shape} does not match {z.shape[0]} rows")
    unl, nrm, abn = (labels == c for c in (UNLABELED, NORMAL, ABNORMAL))
    n_unl, n_nrm, n_abn = (np.count_nonzero(m) for m in (unl, nrm, abn))
    if n_unl + n_nrm + n_abn != labels.size:
        raise DomainError("labels must be in {0, +1, -1}")
    if eta < 0:
        raise DomainError(f"eta must be >= 0, got {eta}")
    if n_rows <= 0:
        raise DomainError(f"n_rows must be positive, got {n_rows}")

    assignments = centers.nearest(z)
    delta = z - centers.centers[assignments]
    d2 = np.einsum("rd,rd->r", delta, delta)

    scale, loss, grad = 1.0 / n_rows, 0.0, np.zeros_like(z)
    if n_unl:
        loss += scale * float(d2[unl].sum())
        grad[unl] = 2.0 * scale * delta[unl]
    if n_nrm:
        loss += eta * scale * float(d2[nrm].sum())
        grad[nrm] = 2.0 * eta * scale * delta[nrm]
    if n_abn:
        d2_abn = d2[abn]
        loss += eta * scale * float((1.0 / np.maximum(d2_abn, eps_d)).sum())
        live_grad = d2_abn > eps_d  # max() is flat below the floor
        coef = np.zeros(n_abn)  # squared only where live: it may overflow
        coef[live_grad] = -2.0 * eta * scale / d2_abn[live_grad] ** 2
        grad[abn] = coef[:, None] * delta[abn]

    return loss, grad, assignments
