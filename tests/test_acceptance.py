"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Criteria 5-8 consume the session-scoped benchmark fixtures (default
configuration, 4 replicates, plus its ablation arms).
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.stats

from madlab.config import apply_overrides, default_config, to_experiment
from madlab.data import generate_synthetic
from madlab.errors import DomainError
from madlab.evaluation import (auc, replicate_ci, significance_code,
                               welch_t_test)
from madlab.losses import ABNORMAL, NORMAL, UNLABELED, info_nce_loss, mad_loss
from madlab.numcore import mlp_backward
from madlab.spheres import CenterSet, LiveCenters, prune
from madlab.trainer import run_replicate, save_checkpoint, load_checkpoint

from _oracles import central_diff, grads_close, pair_count_auc, random_mlp
from conftest import ACCEPTANCE_LINES


def report(criterion: int, desc: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {criterion:02d} {status}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)           # live with -s
    ACCEPTANCE_LINES.append(line)     # terminal summary otherwise
    assert passed, line


def make_centers(points, counts):
    points = np.asarray(points, dtype=np.float64)
    return CenterSet(points, np.ones(len(points), dtype=bool),
                     np.asarray(counts))


# --- 1: gradient suite ------------------------------------------------------

def test_criterion_01_gradient_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(1000)
    checked = 0

    for _ in range(40):  # MLP parameter gradients
        model, batch = random_mlp(rng)
        direction = rng.normal(size=(batch.shape[0], model.widths[-1]))
        tape = []
        model.forward(batch, tape)
        grads = mlp_backward(model, tape, direction)
        for i, p in enumerate(model.parameters()):
            numeric = central_diff(
                lambda _a: float(np.sum(model.forward(batch) * direction)), p)
            assert grads_close(grads[i], numeric), f"mlp param {i}"
        checked += 1

    for _ in range(30):  # InfoNCE embedding gradients
        n_pairs = int(rng.integers(2, 5))
        z = rng.normal(size=(2 * n_pairs, int(rng.integers(2, 9))))
        tau = float(rng.uniform(0.2, 1.5))
        _, grad = info_nce_loss(z.copy(), tau)
        numeric = central_diff(lambda arr: info_nce_loss(arr, tau)[0], z)
        assert grads_close(grad, numeric), "info_nce"
        checked += 1

    for _ in range(30):  # MAD embedding gradients, tie-adjacent rows excluded
        d = int(rng.integers(2, 9))
        centers = make_centers(rng.normal(size=(3, d)), np.zeros(3))
        rows = []
        while len(rows) < 6:
            z = rng.normal(size=d)
            dists = np.sort(np.linalg.norm(centers.centers - z, axis=1))
            if dists[1] - dists[0] > 1e-3 and dists[0] ** 2 > 1e-2:
                rows.append(z)
        z = np.array(rows)
        labels = rng.choice([UNLABELED, NORMAL, ABNORMAL], size=6)
        eta = float(rng.uniform(0.3, 2.0))
        live = LiveCenters(centers)
        _, grad, _ = mad_loss(z, labels, live, eta, 10)
        numeric = central_diff(
            lambda arr: mad_loss(arr, labels, live, eta, 10)[0], z.copy())
        assert grads_close(grad, numeric), "mad"
        checked += 1

    elapsed = time.monotonic() - t0
    report(1, "analytic gradients match finite differences",
           checked >= 100 and elapsed < 10.0,
           f"{checked} instances in {elapsed:.1f}s")


# --- 2: loss oracles ---------------------------------------------------------

def test_criterion_02_loss_oracles():
    z = np.random.default_rng(0).normal(size=(2, 6))
    single, _ = info_nce_loss(z, 0.5)

    units = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    two_pair, _ = info_nce_loss(units, 1.0)
    expected = 4.0 * math.log(1.0 + 2.0 * math.exp(-1.0))

    cs = LiveCenters(make_centers([[0.0, 0.0]], [0]))
    at_center, _, _ = mad_loss(np.zeros((1, 2)), np.array([UNLABELED]), cs,
                               1.0, 1)
    abnormal_one, _, _ = mad_loss(np.array([[1.0, 0.0]]),
                                  np.array([ABNORMAL]), cs, 1.0, 1)

    report(2, "loss oracle values",
           single == 0.0 and abs(two_pair - expected) < 1e-9
           and at_center == 0.0 and abnormal_one == 1.0,
           f"two-pair {two_pair:.10f} vs {expected:.10f}")


# --- 3: AUC oracle equivalence --------------------------------------------------

def test_criterion_03_auc_oracle_equivalence():
    rng = np.random.default_rng(2)
    exact = 0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        if rng.random() < 0.5:
            scores = rng.integers(0, 6, size=n).astype(float)  # many ties
        else:
            scores = rng.normal(size=n)
        positives = rng.random(n) < rng.uniform(0.2, 0.8)
        if positives.all() or not positives.any():
            flip = rng.integers(n)
            positives[flip] = not positives[flip]
        if auc(scores, positives) == pair_count_auc(scores, positives):
            exact += 1
    report(3, "AUC equals exhaustive pair counting on 1000 random sets",
           exact == 1000, f"{exact}/1000 exact")


# --- 4: pruning rule --------------------------------------------------------------

def test_criterion_04_pruning_rule():
    cs = make_centers([[0.0], [1.0], [2.0]], [100, 4, 50])
    prune(cs, 0.05)
    rule_ok = cs.live.tolist() == [True, False, True]

    zeros = make_centers([[0.0], [1.0]], [0, 0])
    prune(zeros, 0.05)
    survivor_ok = zeros.n_live >= 1

    again = make_centers([[0.0], [1.0], [2.0]], [100, 4, 50])
    prune(again, 0.05)
    live_once = again.live.copy()
    prune(again, 0.05)
    idempotent = np.array_equal(live_once, again.live)

    report(4, "gamma pruning rule, survivor guarantee, idempotence",
           rule_ok and survivor_ok and idempotent)


# --- 5: end-to-end desk benchmark ---------------------------------------------------

def test_criterion_05_desk_benchmark(benchmark_default, benchmark_untrained):
    full, _ = benchmark_default
    untrained, _ = benchmark_untrained
    trained_mean = full.aggregate["test_auc"]["mean"]
    untrained_mean = untrained.aggregate["test_auc"]["mean"]
    per_replicate = full.wall_clock_sec / full.replicates_completed
    report(5, "trained test AUC >= 0.90 and untrained <= 0.70",
           trained_mean >= 0.90 and untrained_mean <= 0.70
           and per_replicate < 120.0,
           f"trained {trained_mean:.4f}, untrained {untrained_mean:.4f}, "
           f"{per_replicate:.1f}s/replicate")


# --- 6: pretraining benefit after one epoch --------------------------------------------

def test_criterion_06_pretraining_benefit(benchmark_default,
                                          benchmark_random_one_epoch):
    full, _ = benchmark_default
    rand, _ = benchmark_random_one_epoch
    pre1 = [r["epoch_auc"][1] for r in full.records if r["split"] == "val"]
    rand1 = [r["epoch_auc"][1] for r in rand.records if r["split"] == "val"]
    gap = replicate_ci([a - b for a, b in zip(pre1, rand1)])
    report(6, "1-epoch val AUC: pretrained mean exceeds random-init mean",
           np.mean(pre1) > np.mean(rand1),
           f"pretrained {np.mean(pre1):.4f} vs random {np.mean(rand1):.4f}, "
           f"gap {gap['mean']:.4f} +- {gap['half_width']:.4f}")


# --- 7: multi-mode behavior ---------------------------------------------------------------

def test_criterion_07_multimode_behavior(benchmark_default,
                                         benchmark_unimodal_pair):
    full, _ = benchmark_default
    finals = [r["live_centers"][-1] for r in full.records
              if r["split"] == "test"]
    live_ok = all(2 <= v <= 20 for v in finals)

    uni, multi = benchmark_unimodal_pair
    uni_mean = uni.aggregate["test_auc"]["mean"]
    m = multi.aggregate["test_auc"]
    uni_ok = (uni.replicates_completed == uni.replicates_requested
              and uni_mean >= m["mean"] - m["half_width"])
    report(7, "final live centers in [2,20]; uni-modal within multi CI",
           live_ok and uni_ok,
           f"live {finals}; uni {uni_mean:.4f} vs multi {m['mean']:.4f}"
           f"+-{m['half_width']:.4f}")


# --- 8: labeled-ratio monotonicity -----------------------------------------------------------

def test_criterion_08_labeled_ratio_monotonicity(benchmark_ratio_sweep):
    low, mid, high = benchmark_ratio_sweep
    stats = [r.aggregate["test_auc"] for r in (low, mid, high)]
    means = [s["mean"] for s in stats]
    slack01 = max(stats[0]["half_width"], stats[1]["half_width"])
    slack12 = max(stats[1]["half_width"], stats[2]["half_width"])
    ok = (means[0] <= means[1] + slack01) and (means[1] <= means[2] + slack12)
    report(8, "mean test AUC monotone in labeled ratio (within one CI)",
           ok, "2.5%/5%/10% = " + "/".join(f"{m:.4f}" for m in means))


# --- 9: Welch t-test --------------------------------------------------------------------------

def test_criterion_09_welch_oracle_and_bands():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        na, nb = int(rng.integers(3, 12)), int(rng.integers(3, 12))
        a = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), na)
        b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), nb)
        try:
            t, df, p = welch_t_test(a, b)
        except DomainError:
            continue
        ref = scipy.stats.ttest_ind(a, b, equal_var=False).pvalue
        worst = max(worst, abs(p - float(ref)))
    bands_ok = (significance_code(1.0) == "ns"
                and significance_code(0.2) == "."
                and significance_code(0.07) == "*"
                and significance_code(0.03) == "**"
                and significance_code(0.005) == "***")
    report(9, "p-values match the independent t-CDF oracle; bands exact",
           worst < 1e-6 and bands_ok, f"max |dp| = {worst:.2e}")


# --- 10: determinism and checkpointing ---------------------------------------------------------

SMALL_SETS = [
    "data.dim=8", "data.modes=2", "data.train_size=160", "data.val_size=80",
    "data.test_size=80", "data.normal_rank=6", "data.contamination=0.1",
    "data.labeled_ratio=0.1", "model.body=16,8", "model.proj_dim=4",
    "model.mad_dim=4", "pretrain.epochs=2", "pretrain.batch=16",
    "finetune.epochs=3", "finetune.n_s=6", "eval.knn_k=10",
    "run.replicates=2",
]


def test_criterion_10_determinism_and_checkpointing(tmp_path):
    from madlab.cli import main

    data_dir = tmp_path / "data"
    args = [f"--set={s}" for s in SMALL_SETS]
    assert main(["generate", "--out", str(data_dir)] + args) == 0
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["train", "--data", str(data_dir), "--out", str(out)]
                    + args) == 0
        blobs.append((out / "metrics.json").read_bytes())
    deterministic = blobs[0] == blobs[1]

    cfg = to_experiment(apply_overrides(default_config(), SMALL_SETS))
    datasets = generate_synthetic(cfg.data)
    ref_state, ref_records = run_replicate(cfg, datasets)
    mid, _ = run_replicate(cfg, datasets, stop=("finetune", 1))
    ckpt = tmp_path / "mid.npz"
    save_checkpoint(ckpt, mid)
    resumed, records = run_replicate(cfg, datasets,
                                     state=load_checkpoint(ckpt))
    bit_exact = (
        records == ref_records
        and all(np.array_equal(a, b) for a, b in zip(
            resumed.mad_model.net.parameters(),
            ref_state.mad_model.net.parameters()))
        and np.array_equal(resumed.centers.centers, ref_state.centers.centers)
        and resumed.ft_history == ref_state.ft_history)

    report(10, "byte-identical metrics JSON; bit-exact checkpoint resume",
           deterministic and bit_exact)


# --- trainer-level invariants on the default benchmark -----------------------------------------

def test_invariant_objective_decreases_over_first_ten_epochs(benchmark_default):
    _, states = benchmark_default
    wins = sum(1 for s in states.values()
               if s.ft_history[10]["objective"] < s.ft_history[0]["objective"])
    print(f"objective decrease over first 10 epochs: {wins}/{len(states)} seeds")
    assert wins >= 3


def test_invariant_pretrain_loss_regression(benchmark_default):
    # frozen smoothing: window-10 moving average; a violation is an
    # increase exceeding 1% of the trajectory's range; <= 10% allowed
    # among comparisons ending after epoch 5
    _, states = benchmark_default
    for r, s in states.items():
        losses = np.asarray([rec["loss"] for rec in s.epochs
                             if rec["phase"] == "pretrain"])
        smooth = np.convolve(losses, np.ones(10) / 10.0, mode="valid")
        tol = 0.01 * (losses.max() - losses.min())
        start = max(1, 5 - 10 + 1)
        diffs = smooth[start:] - smooth[start - 1:-1]
        violations = int(np.sum(diffs > tol))
        frac = violations / diffs.size
        print(f"replicate {r}: {violations}/{diffs.size} smoothed up-ticks")
        assert frac <= 0.10


def test_invariant_one_epoch_beats_untrained_baseline(benchmark_default):
    _, states = benchmark_default
    ep0 = [s.ft_history[0]["val_auc"] for s in states.values()]
    ep1 = [s.ft_history[1]["val_auc"] for s in states.values()]
    print(f"val AUC baseline {np.mean(ep0):.4f} -> 1 epoch {np.mean(ep1):.4f}")
    assert np.mean(ep1) > np.mean(ep0)
