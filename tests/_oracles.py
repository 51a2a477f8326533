"""Independent oracles used by the test suite.

Each function re-derives an expected value by a route that shares no code
with the implementation under test: central finite differences for
gradients, exhaustive pair counting for AUC, scipy for the t-distribution,
a per-array loop for the whole-vector optimizer step, ``csv.writer`` for
the split files. The exceptions are the kNN score, whose oracle is one
unblocked call of the same distance kernel: it pins the blocked scores to
the bits of a single call, and its first-written order, every distance
rooted before the k nearest are selected, pins the scorer's selection on
squared distances to the same bits (to 2 ulps where duplicated references
tie after the root); and the first-written expressions of
``info_nce_loss``, the distance kernel, ``mad_loss`` and the reverse
sweep of ``mlp_backward``, which pin their trimmed, precomputing versions
to the same bits; and the two-block Lentz loop of the incomplete-beta
continued fraction, which pins the one-loop version to the same bits; and
the untaped forward pass, the nearest live center, the anomaly score and
k-means' assignment steps, whose oracles run each split in one piece: they
pin the row-blocked versions to the bits of one unblocked pass. Those
bits agree at 1 BLAS thread only, so ``run_at_one_blas_thread`` runs such
comparisons in a child process.

``make_centers`` is no oracle: it is the suites' one way to build a
``CenterSet`` from a list of points.
"""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np


def central_diff(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def grads_close(analytic, numeric, rel=1e-4, floor=1e-7):
    """Relative-error comparison with an absolute floor near zero."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    tol = np.maximum(floor, rel * scale)
    return bool(np.all(np.abs(analytic - numeric) <= tol))


def pair_count_auc(scores, positives):
    """Exhaustive Mann-Whitney AUC: wins + half-ties over all pos/neg pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    pos = scores[positives]
    neg = scores[~positives]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (pos.size * neg.size)


def random_mlp(rng, max_layers=3, max_dim=16, kink_margin=1e-4):
    """A random small net (1 to ``max_layers`` layers, ReLU after all but
    the linear output) plus a random batch, for gradient audits.

    Biases are randomized (zero-init would park pre-activations exactly on
    the ReLU kink, where finite differences are meaningless) and batches
    are redrawn until every pre-activation clears ``kink_margin``.
    """
    from madlab.numcore import Mlp
    n_layers = int(rng.integers(1, max_layers + 1))
    dims = [int(rng.integers(1, max_dim + 1)) for _ in range(n_layers + 1)]
    model = Mlp(dims, rng=rng)
    for p in model.parameters():
        if p.ndim == 1:
            p += rng.normal(0.0, 0.3, size=p.shape)
    for _ in range(50):
        batch = rng.normal(size=(int(rng.integers(1, 9)), dims[0]))
        tape = []
        model.forward(batch, tape)
        params = model.parameters()
        preacts = [h @ params[2 * i] + params[2 * i + 1]
                   for i, h in enumerate(tape)]
        if min(np.abs(z).min() for z in preacts) > kink_margin:
            return model, batch
    raise AssertionError("could not draw a kink-free audit batch")


def two_list_backward(model, batch, output_gradient):
    """Parameter gradients [dW0, db0, dW1, ...] from the first-written
    reverse sweep: a forward pass that keeps every layer's input and
    pre-activation in two lists, a ReLU mask read from the pre-activations
    and an input gradient formed after every layer, layer 0's included."""
    params = model.parameters()
    last = len(params) // 2 - 1
    inputs, preacts = [], []
    h = np.asarray(batch, dtype=np.float64)
    for i in range(last + 1):
        z = h @ params[2 * i] + params[2 * i + 1]
        inputs.append(h)
        preacts.append(z)
        h = z if i == last else np.maximum(z, 0.0)
    g = np.asarray(output_gradient, dtype=np.float64)
    grads = [None] * len(params)
    for i in range(last, -1, -1):
        if i != last:
            g = g * (preacts[i] > 0.0)
        grads[2 * i] = np.matmul(inputs[i].T, g)
        grads[2 * i + 1] = g.sum(axis=0)
        g = g @ params[2 * i].T
    return grads


def two_block_beta_continued_fraction(a: float, b: float, x: float) -> float:
    """The first-written Lentz loop of the incomplete-beta continued
    fraction: the even and the odd half-step of each term written out."""
    from madlab.errors import DomainError
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
        num = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        num = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
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


def direct_sq_distances(points, refs):
    """(n, k) squared distances from explicit per-pair differences."""
    diff = np.asarray(points)[:, None, :] - np.asarray(refs)[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def per_array_step(state, params, grads, rule, lr, weight_decay):
    """The optimizer update one parameter array at a time, with Adam's
    default constants written out: ``state`` carries step_count and
    plain-list moments m/v (None before the first Adam step). Updates
    ``params`` in place."""
    decay = [lr * weight_decay * p for p in params] if weight_decay else None
    if rule == "sgd":
        for p, g in zip(params, grads):
            p -= lr * g
    else:
        if state.m is None:
            state.m = [np.zeros_like(p) for p in params]
            state.v = [np.zeros_like(p) for p in params]
        state.step_count += 1
        t = state.step_count
        bc1 = 1.0 - 0.9 ** t
        bc2 = 1.0 - 0.999 ** t
        for p, g, m, v in zip(params, grads, state.m, state.v):
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * g * g
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
    if decay is not None:
        for p, d in zip(params, decay):
            p -= d


def unblocked_knn_score(queries, references, k):
    """Mean distance to the k nearest references from one (n, m) matrix."""
    from madlab.spheres import distances_to, ref_terms
    d = distances_to(np.asarray(queries), *ref_terms(np.asarray(references)))
    np.sqrt(d, out=d)
    if k < d.shape[1]:
        d.partition(k - 1, axis=1)
        d = d[:, :k]
    return d.mean(axis=1)


def unblocked_forward(model, x, n_layers=None):
    """The first ``n_layers`` layers (default all) over the whole batch at
    once: one product per layer, ReLU after every layer but the last."""
    params = model.parameters()
    last = len(params) // 2 - 1
    h = np.asarray(x, dtype=np.float64)
    for i in range(last + 1 if n_layers is None else n_layers):
        h = h @ params[2 * i] + params[2 * i + 1]
        if i != last:
            h = np.maximum(h, 0.0)
    return h


def unblocked_nearest(points, centers):
    """Global index of each row's nearest live center, from one (n, k)
    distance matrix of the first-written kernel."""
    live_idx = np.flatnonzero(centers.live)
    d2 = reference_sq_distances(points, centers.centers[live_idx])
    return live_idx[np.argmin(d2, axis=1)]


def unblocked_kmeans(points, k, seed, max_iters):
    """``spheres.kmeans`` as it was with whole-matrix assignment steps, one
    (n, k) matrix of the first-written kernel each: (centers, counts). The
    seeding is ``spheres``' own; ``k`` must not exceed the distinct points."""
    from madlab.spheres import _kmeans_pp_seed
    points = np.asarray(points, dtype=np.float64)
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_seed(points, k, rng)
    assign = np.argmin(reference_sq_distances(points, centers), axis=1)
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
        new_assign = np.argmin(reference_sq_distances(points, centers), axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return centers, np.bincount(assign, minlength=k)


def unblocked_anomaly_scores(embeddings, centers):
    """Distance of each row to its nearest live center, the split at once."""
    delta = embeddings - centers.centers[unblocked_nearest(embeddings, centers)]
    return np.sqrt(np.einsum("rd,rd->r", delta, delta))


def csv_writer_split_bytes(ds):
    """A split file written by ``csv.writer``, one formatted value per cell."""
    gt_names = {1: "normal", -1: "abnormal"}
    label_names = {0: "unlabeled", 1: "normal", -1: "abnormal"}
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["group_id", "mode_id", "ground_truth", "label"]
                    + [f"f{i}" for i in range(ds.features.shape[1])])
    for i in range(ds.features.shape[0]):
        writer.writerow([int(ds.group_ids[i]), int(ds.mode_ids[i]),
                         gt_names[int(ds.ground_truth[i])],
                         label_names[int(ds.labels[i])]]
                        + [format(v, ".9g") for v in ds.features[i]])
    return buf.getvalue().encode()


def info_nce_reference(z, temperature):
    """``info_nce_loss`` as first written, one fresh array per step: the
    bits the trimmed version must reproduce."""
    z = np.asarray(z, dtype=np.float64)
    n_rows = z.shape[0]
    norms = np.maximum(np.linalg.norm(z, axis=1), 1e-12)
    zh = z / norms[:, None]
    sims = np.clip(zh @ zh.T, -1.0, 1.0)
    logits = sims / temperature
    np.fill_diagonal(logits, -np.inf)
    pos = np.arange(n_rows) ^ 1
    row_max = logits.max(axis=1)
    stable = np.exp(logits - row_max[:, None])
    np.fill_diagonal(stable, 0.0)
    denom = stable.sum(axis=1)
    lse = row_max + np.log(denom)
    loss = float(np.sum(lse - logits[np.arange(n_rows), pos]))
    probs = stable / denom[:, None]
    a = probs.copy()
    a[np.arange(n_rows), pos] -= 1.0
    a /= temperature
    g_hat = (a + a.T) @ zh
    grad = (g_hat - (np.sum(g_hat * zh, axis=1)[:, None]) * zh) / norms[:, None]
    return loss, grad


def reference_sq_distances(points, refs):
    """The distance kernel as first written, in one piece: the bits that
    ``distances_to`` and ``CenterSet.nearest`` must reproduce."""
    points = np.asarray(points, dtype=np.float64)
    mean = refs.mean(axis=0)
    p, r = points - mean, refs - mean
    d2 = p @ (-2.0 * r).T
    d2 += np.einsum("nd,nd->n", p, p)[:, None]
    d2 += np.einsum("kd,kd->k", r, r)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def mad_loss_reference(z, labels, centers, eta, n_rows, eps_d):
    """``mad_loss`` as first written, over a ``CenterSet`` whose live
    centers it finds on every call: (loss, gradient, assignments)."""
    z = np.asarray(z, dtype=np.float64)
    live_idx = np.flatnonzero(centers.live)
    d2_all = reference_sq_distances(z, centers.centers[live_idx])
    assignments = live_idx[np.argmin(d2_all, axis=1)]
    delta = z - centers.centers[assignments]
    d2 = np.einsum("rd,rd->r", delta, delta)
    scale = 1.0 / n_rows
    loss = 0.0
    grad = np.zeros_like(z)
    unl, nrm, abn = labels == 0, labels == 1, labels == -1
    if np.any(unl):
        loss += scale * float(d2[unl].sum())
        grad[unl] = 2.0 * scale * delta[unl]
    if np.any(nrm):
        loss += eta * scale * float(d2[nrm].sum())
        grad[nrm] = 2.0 * eta * scale * delta[nrm]
    if np.any(abn):
        d2_floor = np.maximum(d2[abn], eps_d)
        loss += eta * scale * float((1.0 / d2_floor).sum())
        live_grad = d2[abn] > eps_d
        coef = np.where(live_grad, -2.0 * eta * scale / d2_floor ** 2, 0.0)
        grad[abn] = coef[:, None] * delta[abn]
    return loss, grad, assignments


def run_at_one_blas_thread(script, *args, timeout):
    """Run ``script`` with ``args`` in a child Python at 1 BLAS thread, with
    ``src`` and ``tests`` importable; returns the finished process, its
    output captured as text."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(root / "src"), str(root / "tests"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def make_centers(points, counts=None, live=None):
    """A ``CenterSet`` over ``points``; every center is live and has count 0
    unless ``live`` or ``counts`` says otherwise."""
    from madlab.spheres import CenterSet
    points = np.asarray(points, dtype=np.float64)
    counts = np.zeros(len(points)) if counts is None else np.asarray(counts)
    live = np.ones(len(points), dtype=bool) if live is None else live
    return CenterSet(points, live, counts)
