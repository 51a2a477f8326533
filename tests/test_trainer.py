import copy
import gc
import hashlib
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import madlab.evaluation as evaluation
import madlab.numcore as numcore
import madlab.trainer as trainer_mod
from madlab.config import apply_overrides, default_config, to_experiment
from madlab.data import Dataset, generate_synthetic
from madlab.errors import ConfigError, DomainError, NumericsError, StateError
from madlab.spheres import CenterSet
from madlab.trainer import (ExperimentConfig, TrainerState,
                            build_pretext_model, evaluate,
                            experiment_from_dict, experiment_hash, finetune,
                            load_checkpoint, pretrain, run_experiment,
                            run_replicate, save_checkpoint, transfer_weights)


SMALL_OVERRIDES = [
    "data.dim=8", "data.modes=2", "data.train_size=160", "data.val_size=80",
    "data.test_size=80", "data.normal_rank=6", "data.contamination=0.1",
    "data.labeled_ratio=0.1", "model.body=16,8", "model.proj_dim=4",
    "model.mad_dim=4", "pretrain.epochs=2", "pretrain.batch=16",
    "finetune.epochs=3", "finetune.batch=32", "finetune.n_s=6",
    "eval.knn_k=10", "run.replicates=2",
]


@pytest.fixture(scope="module")
def small_cfg() -> ExperimentConfig:
    return to_experiment(apply_overrides(default_config(), SMALL_OVERRIDES))


@pytest.fixture(scope="module")
def small_data(small_cfg):
    return generate_synthetic(replace(small_cfg.data, seed=small_cfg.seed))


def random_mad_model(cfg):
    """Detection encoder without pretraining: random body, seeded head."""
    return transfer_weights(build_pretext_model(cfg), cfg)


def pretrained(cfg, view):
    """The state after a full pretraining phase from initialization."""
    state = TrainerState(cfg, "pretrain", 0, build_pretext_model(cfg))
    pretrain(cfg, view, state, cfg.pretrain.epochs)
    return state


def finetune_start(cfg, mad_model):
    """The state at the start of fine-tuning ``mad_model``."""
    return TrainerState(cfg, "finetune", 0, build_pretext_model(cfg),
                        mad_model=mad_model)


def pre_losses(state):
    """Pretraining's mean loss per epoch, from the state's epoch records."""
    return [rec["loss"] for rec in state.epochs if rec["phase"] == "pretrain"]


def parallel_lists(history):
    """The finetune records as the five parallel lists a state once kept,
    the baseline's missing loss left out."""
    names = {"val_auc": "val_auc", "objective": "objective", "live": "live",
             "counts": "counts", "train_loss": "loss"}
    return {name: [rec[key] for rec in history if rec[key] is not None]
            for name, key in names.items()}


def params_equal(a, b):
    pa, pb = a.net.parameters(), b.net.parameters()
    return len(pa) == len(pb) and all(np.array_equal(x, y)
                                      for x, y in zip(pa, pb))


def test_zero_epochs_leaves_initialization(small_cfg, small_data):
    view = small_data[0].training_view()
    cfg = replace(small_cfg, pretrain=replace(small_cfg.pretrain, epochs=0))
    state = pretrained(cfg, view)
    assert pre_losses(state) == []
    assert params_equal(state.pretext_model, build_pretext_model(cfg))


def test_pretrain_deterministic(small_cfg, small_data):
    view = small_data[0].training_view()
    s1, s2 = pretrained(small_cfg, view), pretrained(small_cfg, view)
    assert params_equal(s1.pretext_model, s2.pretext_model)
    assert pre_losses(s1) == pre_losses(s2)


def test_pretrain_empty_dataset_rejected(small_cfg, small_data):
    from madlab.data import TrainingView
    empty = TrainingView(np.empty((0, 8)), np.empty(0, dtype=np.int8))
    with pytest.raises(ConfigError):
        pretrained(small_cfg, empty)


def test_pretext_step_python_calls(small_cfg, small_data):
    """Counted cost, independent of host speed: the Python-level calls of one
    pretext epoch per step, the epoch's augmentation included (10 steps of
    16 rows here). Set on numpy 2.4.6 and Python 3.11: 43.5, where a taped
    pass that built a tape object with pre-activations made 46.5."""
    view = small_data[0].training_view()
    state = TrainerState(small_cfg, "pretrain", 0, build_pretext_model(small_cfg))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        pretrain(small_cfg, view, state, 1)
    finally:
        sys.setprofile(None)
    steps = -(-len(view) // small_cfg.pretrain.batch)
    assert steps == 10
    assert calls / steps < 45


def test_transfer_copies_body_and_freshens_head(small_cfg, small_data):
    view = small_data[0].training_view()
    pre = pretrained(small_cfg, view).pretext_model
    mad = transfer_weights(pre, small_cfg)
    body = 2 * len(small_cfg.dims.body)
    for a, b in zip(pre.net.parameters()[:body], mad.net.parameters()[:body]):
        assert np.array_equal(a, b)
    pre_head_w = pre.net.parameters()[body:][0]
    mad_head_w = mad.net.parameters()[body:][0]
    assert pre_head_w.shape == mad_head_w.shape
    assert not np.array_equal(pre_head_w, mad_head_w)


def test_transfer_idempotent(small_cfg, small_data):
    view = small_data[0].training_view()
    pre = pretrained(small_cfg, view).pretext_model
    assert params_equal(transfer_weights(pre, small_cfg),
                        transfer_weights(pre, small_cfg))


def test_finetune_runs_without_supervision(small_cfg, small_data):
    cfg = replace(small_cfg,
                  finetune=replace(small_cfg.finetune, eta=0.0),
                  data=replace(small_cfg.data, labeled_ratio=0.0))
    ds = generate_synthetic(replace(cfg.data, seed=cfg.seed))
    view = ds[0].training_view()
    assert np.all(view.labels == 0)
    state = finetune_start(cfg, random_mad_model(cfg))
    finetune(cfg, view, ds[1], state, cfg.finetune.epochs)
    centers, hist = state.centers, state.ft_history
    assert centers.n_live >= 1
    assert len(hist) == cfg.finetune.epochs + 1


def test_unimodal_pruning_is_noop(small_cfg, small_data):
    cfg = replace(small_cfg, finetune=replace(small_cfg.finetune, n_s=1))
    view = small_data[0].training_view()
    state = finetune_start(cfg, random_mad_model(cfg))
    finetune(cfg, view, small_data[1], state, cfg.finetune.epochs)
    centers, hist = state.centers, state.ft_history
    assert centers.n_live == 1
    assert [rec["live"] for rec in hist] == [1] * (cfg.finetune.epochs + 1)


def test_epoch_histories_align(small_cfg, small_data):
    view = small_data[0].training_view()
    state = finetune_start(small_cfg, random_mad_model(small_cfg))
    epochs = small_cfg.finetune.epochs
    finetune(small_cfg, view, small_data[1], state, epochs)
    hist = state.ft_history
    assert [rec["epoch"] for rec in hist] == list(range(epochs + 1))
    assert all(rec["val_auc"] is not None and rec["objective"] is not None
               for rec in hist)
    assert [rec["loss"] is None for rec in hist] == [True] + [False] * epochs
    live = [rec["live"] for rec in hist]
    assert all(l1 >= l2 for l1, l2 in zip(live, live[1:]))


def test_run_replicate_produces_records(small_cfg, small_data):
    state, records = run_replicate(small_cfg, small_data)
    assert state.phase == "done"
    splits = sorted(r["split"] for r in records)
    assert splits == ["test", "val"]
    for r in records:
        assert 0.0 <= r["auc"] <= 1.0
        assert len(r["epoch_auc"]) == small_cfg.finetune.epochs + 1
        assert r["live_centers"][0] == small_cfg.finetune.n_s


def test_zero_embedding_row_does_not_abort(small_cfg, small_data):
    # under seed 2 one train row reaches the projection head as exact zeros
    _, records = run_replicate(replace(small_cfg, seed=2), small_data)
    assert len(records) == 2
    for r in records:
        assert all(np.isfinite(r[k]) for k in ("auc", "auc_knn",
                                                 "auc_knn_pretext"))


def test_run_experiment_single_replicate_flagged(small_cfg, small_data):
    cfg = replace(small_cfg, replicates=1)
    res = run_experiment(cfg, small_data)
    assert res.replicates_completed == 1
    assert res.aggregate["test_auc"]["half_width"] == 0.0
    assert res.aggregate["test_auc"]["flagged"] is True


def test_run_experiment_deterministic(small_cfg, small_data):
    r1 = run_experiment(small_cfg, small_data)
    r2 = run_experiment(small_cfg, small_data)
    assert r1.metrics_dict() == r2.metrics_dict()
    assert json.dumps(r1.metrics_dict(), sort_keys=True) == json.dumps(
        r2.metrics_dict(), sort_keys=True)


def test_run_experiment_records_replicate_failures(small_cfg, small_data,
                                                   monkeypatch):
    real = trainer_mod.run_replicate

    def flaky(cfg, datasets=None, **kw):
        if cfg.seed == small_cfg.seed:  # first replicate only
            raise NumericsError("synthetic failure epoch 0 batch 0")
        return real(cfg, datasets, **kw)

    monkeypatch.setattr(trainer_mod, "run_replicate", flaky)
    res = trainer_mod.run_experiment(small_cfg, small_data)
    assert res.replicates_completed == small_cfg.replicates - 1
    assert len(res.errors) == 1 and res.errors[0]["replicate"] == 0
    assert {r["replicate"] for r in res.records} == {1}


def test_run_experiment_worker_count_invariant(small_cfg, small_data):
    cfg = replace(small_cfg, seed=3, replicates=3)  # seeds 3-5 all finish
    results, orders = [], []
    for workers in (1, 2):
        order = []
        res = run_experiment(cfg, small_data, workers=workers,
                             on_replicate=lambda r, s: order.append(r))
        assert res.workers == workers
        assert len(res.replicate_sec) == 3
        results.append(res.metrics_dict())
        orders.append(order)
    assert results[0] == results[1]
    assert orders == [[0, 1, 2], [0, 1, 2]]


def test_resolve_workers():
    assert trainer_mod.resolve_workers(2, 1) == 1
    assert trainer_mod.resolve_workers(2, 8) == 2  # at most one per replicate
    assert trainer_mod.resolve_workers(1) == 1
    with pytest.raises(ConfigError):
        trainer_mod.resolve_workers(2, 0)


@pytest.mark.parametrize("where", ["on_replicate", "worker"])
def test_run_experiment_reraises_and_stops_workers(small_cfg, small_data,
                                                   monkeypatch, where):
    def fail(*args, **kwargs):
        raise KeyError("injected")

    if where == "worker":  # not a MadlabError, so not recorded as one
        monkeypatch.setattr(trainer_mod, "run_replicate", fail)
    with pytest.raises(KeyError, match="injected"):
        run_experiment(small_cfg, small_data,
                       fail if where == "on_replicate" else None, workers=2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fault, message", [("nan", "non-finite loss"),
                                            ("raise", "injected")],
                         ids=["nan", "raise"])
@pytest.mark.parametrize("phase, loss_name", [("pretext", "info_nce_loss"),
                                              ("finetune", "mad_loss")],
                         ids=["pretext", "finetune"])
def test_loss_failure_aborts_with_epoch_and_batch(small_cfg, small_data,
                                                  monkeypatch, phase,
                                                  loss_name, fault, message):
    n = len(small_data[0])
    phase_cfg = (small_cfg.pretrain if phase == "pretext"
                 else small_cfg.finetune)
    target = -(-n // phase_cfg.batch) + 2  # epoch 1, batch 2
    real = getattr(trainer_mod, loss_name)
    steps = itertools.count()

    def faulty(z, *args):
        out = real(z, *args)
        if loss_name == "mad_loss" and len(z) == n:  # the epoch objective
            return out
        if next(steps) != target:
            return out
        if fault == "raise":
            raise DomainError("injected")
        return (float("nan"), *out[1:])

    monkeypatch.setattr(trainer_mod, loss_name, faulty)
    with pytest.raises(NumericsError,
                       match=f"^{phase} epoch 1 batch 2: {message}$"):
        run_replicate(small_cfg, small_data)


def test_experiment_dict_round_trip(small_cfg):
    back = experiment_from_dict(json.loads(json.dumps(asdict(small_cfg))))
    assert back == small_cfg
    assert experiment_hash(back) == experiment_hash(small_cfg)


# every boundary a run of the small config halts at: the reader admits each
@pytest.mark.parametrize("stop", [("pretrain", e) for e in range(3)]
                         + [("finetune", e) for e in range(4)],
                         ids=lambda stop: f"{stop[0]}_{stop[1]}")
def test_checkpoint_round_trip_resumes_bit_exact(small_cfg, small_data,
                                                 tmp_path, stop):
    # uninterrupted reference
    ref_state, ref_records = run_replicate(small_cfg, small_data)

    # stop at the boundary, checkpoint, restore, resume
    mid, _ = run_replicate(small_cfg, small_data, stop=stop)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, mid)
    restored = load_checkpoint(path)
    assert (restored.phase, restored.epoch) == stop
    final, records = run_replicate(small_cfg, small_data, state=restored)

    assert params_equal(final.mad_model, ref_state.mad_model)
    assert params_equal(final.pretext_model, ref_state.pretext_model)
    assert np.array_equal(final.centers.centers, ref_state.centers.centers)
    assert np.array_equal(final.centers.live, ref_state.centers.live)
    assert final.epochs == ref_state.epochs
    assert records == ref_records


# sha256 of json.dumps({"pre_losses": ..., "ft_history": ...}, sort_keys=True)
# for one small replicate, computed when a state kept its pretraining losses
# as a list and its fine-tuning history as five parallel lists: the epoch
# records hold the same values
SMALL_HISTORY_SHA256 = (
    "24293ec814385a3da555ae14126d448b05670eaa2df840c238b485b94cee4d0a")


def test_epoch_records_keep_the_history_pinned(small_cfg, small_data):
    state, _ = run_replicate(small_cfg, small_data)
    blob = json.dumps({"pre_losses": pre_losses(state),
                       "ft_history": parallel_lists(state.ft_history)},
                      sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == SMALL_HISTORY_SHA256
    assert [(rec["phase"], rec["epoch"]) for rec in state.epochs] == [
        ("pretrain", 1), ("pretrain", 2), ("finetune", 0), ("finetune", 1),
        ("finetune", 2), ("finetune", 3)]
    assert state.epochs[2]["loss"] is None  # the baseline trained nothing


@pytest.mark.parametrize("stop, keeps_counts", [(None, False),
                                                (("finetune", 1), True)],
                         ids=["done", "mid_finetune"])
def test_only_a_resumable_checkpoint_keeps_the_counts(small_cfg, small_data,
                                                     tmp_path, stop,
                                                     keeps_counts):
    state, _ = run_replicate(small_cfg, small_data, stop=stop)
    save_checkpoint(tmp_path / "ckpt.npz", state)
    back = load_checkpoint(tmp_path / "ckpt.npz")
    assert back.epochs == [
        {k: v for k, v in rec.items() if keeps_counts or k != "counts"}
        for rec in state.epochs]
    assert any("counts" in rec for rec in back.epochs) == keeps_counts
    assert all(rec["counts"] for rec in state.ft_history)  # the state has them


def test_checkpoint_mid_pretrain_resume(small_cfg, small_data, tmp_path):
    ref_state, _ = run_replicate(small_cfg, small_data)
    mid, _ = run_replicate(small_cfg, small_data, stop=("pretrain", 1))
    path = tmp_path / "pre.npz"
    save_checkpoint(path, mid)
    final, _ = run_replicate(small_cfg, small_data,
                             state=load_checkpoint(path))
    assert params_equal(final.pretext_model, ref_state.pretext_model)
    assert pre_losses(final) == pre_losses(ref_state)


# the first resumed epoch lies past a milestone, so its lr comes from the
# schedule; the lr a checkpoint used to store (the epoch before, undecayed)
# is written back in and must be ignored
@pytest.mark.parametrize("phase", ["pretrain", "finetune"])
def test_resume_across_an_lr_milestone_is_bit_exact(small_data, tmp_path,
                                                    phase):
    cfg = to_experiment(apply_overrides(
        default_config(), SMALL_OVERRIDES + [f"{phase}.milestones=1"]))
    end = (phase, getattr(cfg, phase).epochs)
    ref, _ = run_replicate(cfg, small_data, stop=end)
    mid, _ = run_replicate(cfg, small_data, stop=(phase, 1))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, mid)
    blob = dict(np.load(path, allow_pickle=False))
    meta = json.loads(bytes(blob["meta_json"]).decode())
    meta["opt"]["learning_rate"] = getattr(cfg, phase).lr
    blob["meta_json"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **blob)
    final, _ = run_replicate(cfg, small_data, state=load_checkpoint(path),
                             stop=end)
    assert params_equal(final.pretext_model, ref.pretext_model)
    assert (final.mad_model is None) == (phase == "pretrain")
    if final.mad_model is not None:
        assert params_equal(final.mad_model, ref.mad_model)
        for name in ("centers", "live", "counts"):
            assert np.array_equal(getattr(final.centers, name),
                                  getattr(ref.centers, name))
    assert np.array_equal(final.opt.m.flat, ref.opt.m.flat)
    assert np.array_equal(final.opt.v.flat, ref.opt.v.flat)
    assert final.epochs == ref.epochs


# one stored field of a state that a run writes, rewritten to a value that
# no run writes; the phase alone decides which arrays the reader wants
@pytest.mark.parametrize("stop, field, value, match", [
    pytest.param(stop, field, value, match, id=f"{name}-{field}={value}")
    for name, stop, field, value, match in [
        ("pretrain_1", ("pretrain", 1), "phase", "bogus",
         "no run writes phase 'bogus' at epoch 1$"),
        ("pretrain_1", ("pretrain", 1), "phase", "finetune",
         "KeyError: .*mad is not a file"),
        ("pretrain_1", ("pretrain", 1), "epoch", -1,
         "no run writes phase 'pretrain' at epoch -1$"),
        ("pretrain_1", ("pretrain", 1), "epoch", 3,
         "no run writes phase 'pretrain' at epoch 3$"),
        ("pretrain_1", ("pretrain", 1), "epoch", True,
         "no run writes phase 'pretrain' at epoch True$"),
        ("pretrain_1", ("pretrain", 1), "epochs", 3,
         "pretrain epoch 1 lacks its records or optimizer$"),
        ("pretrain_1", ("pretrain", 1), "opt", None,
         "pretrain epoch 1 lacks its records or optimizer$"),
        ("done", None, "phase", "bogus",
         "no run writes phase 'bogus' at epoch 3$"),
        ("done", None, "epoch", 2, "no run writes phase 'done' at epoch 2$"),
        ("finetune_1", ("finetune", 1), "epoch", 999,
         "no run writes phase 'finetune' at epoch 999$"),
        ("finetune_1", ("finetune", 1), "opt", None,
         "finetune epoch 1 lacks its records or optimizer$")]])
def test_checkpoint_of_a_state_no_run_writes_is_refused(
        small_cfg, small_data, tmp_path, stop, field, value, match):
    state, _ = run_replicate(small_cfg, small_data, stop=stop)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, state)
    _rewrite_meta(path, lambda meta: meta.update({field: value}))
    with pytest.raises(StateError, match=match):
        load_checkpoint(path)


def _rewrite_meta(path, edit):
    """Re-save a checkpoint with ``edit(meta)`` applied to its stored meta."""
    blob = dict(np.load(path, allow_pickle=False))
    meta = json.loads(bytes(blob["meta_json"]).decode())
    edit(meta)
    blob["meta_json"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **blob)


# a run writes epoch * ceil(160 rows / batch) Adam steps: 10 per pretrain
# epoch, 5 per finetune epoch
@pytest.mark.parametrize("stop, step_count", [
    (("pretrain", 1), 0), (("finetune", 1), 0), (("finetune", 1), 6)],
    ids=["pretrain_1-0", "finetune_1-0", "finetune_1-6"])
def test_resume_refuses_an_optimizer_step_count_no_run_writes(
        small_cfg, small_data, tmp_path, stop, step_count):
    state, _ = run_replicate(small_cfg, small_data, stop=stop)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, state)
    _rewrite_meta(path, lambda meta: meta["opt"].update(step_count=step_count))
    resumed = load_checkpoint(path)  # the reader cannot tell the count
    with pytest.raises(StateError, match=f"^{stop[0]} epoch 1 has taken "
                                         f"{step_count} optimizer steps, not"):
        run_replicate(small_cfg, small_data, state=resumed)


def test_resume_under_sgd_expects_no_optimizer_step(small_cfg, small_data,
                                                    tmp_path):
    cfg = replace(small_cfg, finetune=replace(small_cfg.finetune,
                                              optimizer="sgd"))
    state, _ = run_replicate(cfg, small_data, stop=("finetune", 1))
    assert state.opt.step_count == 0
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, state)
    _, records = run_replicate(cfg, small_data, state=load_checkpoint(path))
    assert records == run_replicate(cfg, small_data)[1]


def test_pretrain_state_at_its_last_epoch_resumes_with_any_optimizer(
        small_cfg, small_data):
    """A finished pretraining hands over with a fresh optimizer: fine-tuning
    installs its own, so the pretraining step count is not checked."""
    state, _ = run_replicate(small_cfg, small_data, stop=("pretrain", 2))
    handoff = TrainerState(small_cfg, "pretrain", 2,
                           copy.deepcopy(state.pretext_model),
                           epochs=copy.deepcopy(state.epochs))
    _, records = run_replicate(small_cfg, small_data, state=handoff)
    assert records == run_replicate(small_cfg, small_data)[1]


@pytest.mark.parametrize("stop", [
    ("fine-tune", 1), ("done", 3), ("finetune", -1), ("finetune", 1.0),
    ("pretrain", True), ("pretrain", None), ()], ids=[
        "misspelt_phase", "done", "negative", "float", "bool", "none", "empty"])
def test_run_replicate_refuses_a_stop_no_run_reaches(small_cfg, monkeypatch,
                                                    stop):
    def no_work(*args):
        raise AssertionError("the stop is checked before any work")

    monkeypatch.setattr(trainer_mod, "generate_synthetic", no_work)
    with pytest.raises(ConfigError, match="^stop must be"):
        run_replicate(small_cfg, stop=stop)


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(StateError, match="not found"):
        load_checkpoint(tmp_path / "nope.npz")


def _damage(path, damage):
    """Corrupt a saved checkpoint's bytes, or re-save it with stored arrays
    removed or cut short, or the version changed."""
    if damage.startswith(("truncate", "flip")):
        blob = bytearray(path.read_bytes())
        if damage == "flip_byte":
            blob[len(blob) // 2] ^= 0xFF
        else:
            cut = {"truncate_0": 0, "truncate_10": 10,
                   "truncate_half": len(blob) // 2}[damage]
            blob = blob[:cut]
        path.write_bytes(bytes(blob))
        return
    arrays = dict(np.load(path, allow_pickle=False))
    if damage == "missing_moment_pair":
        del arrays["opt_m"]
    elif damage == "missing_moments":
        del arrays["opt_m"], arrays["opt_v"]
    elif damage == "misshaped_moment":
        arrays["opt_v"] = arrays["opt_v"][:-1]
    else:
        meta = json.loads(bytes(arrays["meta_json"]).decode())
        meta["version"] = int(damage.rsplit("_", 1)[1])
        arrays["meta_json"] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


@pytest.mark.parametrize("damage, match", [
    pytest.param(damage, match, id=damage) for damage, match in [
        ("truncate_0", "ckpt.npz"), ("truncate_10", "ckpt.npz"),
        ("truncate_half", "ckpt.npz"), ("flip_byte", "ckpt.npz"),
        ("missing_moment_pair", "ckpt.npz: KeyError: .*opt_m"),
        # an Adam state that has stepped cannot resume without its moments
        ("missing_moments", "ckpt.npz: KeyError: .*opt_m"),
        ("misshaped_moment", "ckpt.npz: opt_v holds"),
        ("version_1", "ckpt.npz: unsupported checkpoint version 1"),
        ("version_2", "ckpt.npz: unsupported checkpoint version 2"),
        ("version_3", "ckpt.npz: unsupported checkpoint version 3")]])
def test_corrupt_checkpoint_raises_state_error(small_cfg, small_data,
                                               tmp_path, damage, match):
    mid, _ = run_replicate(small_cfg, small_data, stop=("pretrain", 1))
    assert mid.opt.step_count > 0
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, mid)
    _damage(path, damage)
    with pytest.raises(StateError, match=match):
        load_checkpoint(path)


@pytest.mark.parametrize("stop, members", [
    (None, {"meta_json", "pretext", "mad", "centers", "centers_live",
            "centers_counts"}),
    (("pretrain", 1), {"meta_json", "pretext", "opt_m", "opt_v"})],
    ids=["done", "mid_pretrain"])
def test_checkpoint_stores_one_vector_per_arena(small_cfg, small_data,
                                                tmp_path, stop, members):
    state, _ = run_replicate(small_cfg, small_data, stop=stop)
    save_checkpoint(tmp_path / "ckpt.npz", state)
    with np.load(tmp_path / "ckpt.npz", allow_pickle=False) as z:
        assert set(z.files) == members
    assert (state.opt is None) == (stop is None)  # "done" drops its optimizer


def test_sgd_checkpoint_resumes_without_moments(small_cfg, small_data,
                                                tmp_path):
    cfg = replace(small_cfg, pretrain=replace(small_cfg.pretrain,
                                              optimizer="sgd"))
    ref, _ = run_replicate(cfg, small_data, stop=("pretrain", 2))
    mid, _ = run_replicate(cfg, small_data, stop=("pretrain", 1))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, mid)
    with np.load(path, allow_pickle=False) as z:
        assert set(z.files) == {"meta_json", "pretext"}
    final, _ = run_replicate(cfg, small_data, state=load_checkpoint(path),
                             stop=("pretrain", 2))
    assert params_equal(final.pretext_model, ref.pretext_model)


def test_corrupt_zip_checkpoint_closes_its_file(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.npz"
    path.write_bytes(b"PK\x03\x04" + bytes(40))  # zip magic, then nothing
    unraisable = []  # where a ResourceWarning raised in a finalizer lands
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(StateError):
            load_checkpoint(path)
        gc.collect()
    assert unraisable == []


def test_loaded_moments_are_views_of_one_vector(small_cfg, small_data,
                                                tmp_path):
    mid, _ = run_replicate(small_cfg, small_data, stop=("finetune", 1))
    save_checkpoint(tmp_path / "ckpt.npz", mid)
    back = load_checkpoint(tmp_path / "ckpt.npz")
    for saved, loaded in (
            (mid.opt.m, back.opt.m), (mid.opt.v, back.opt.v),
            (mid.pretext_model.net.parameters(),
             back.pretext_model.net.parameters()),
            (mid.mad_model.net.parameters(), back.mad_model.net.parameters())):
        assert all(np.shares_memory(a, loaded.flat) for a in loaded)
        assert np.array_equal(saved.flat, loaded.flat)


def test_failed_save_keeps_previous_checkpoint(small_cfg, small_data,
                                               tmp_path, monkeypatch):
    first, _ = run_replicate(small_cfg, small_data, stop=("pretrain", 1))
    later, _ = run_replicate(small_cfg, small_data, stop=("finetune", 1))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, first)
    real_savez = np.savez

    def failing_savez(fh, **arrays):
        real_savez(fh, **dict(list(arrays.items())[:3]))
        raise OSError("disk full")

    monkeypatch.setattr(trainer_mod.np, "savez", failing_savez)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, later)
    monkeypatch.undo()
    restored = load_checkpoint(path)
    assert (restored.phase, restored.epoch) == ("pretrain", 1)
    assert params_equal(restored.pretext_model, first.pretext_model)
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]


def test_checkpoint_hash_mismatch_refused(small_cfg, small_data, tmp_path):
    mid, _ = run_replicate(small_cfg, small_data, stop=("finetune", 1))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, mid)

    # tamper with the stored config without updating the hash
    blob = dict(np.load(path, allow_pickle=False))
    meta = json.loads(bytes(blob["meta_json"]).decode())
    meta["config"]["seed"] = 999
    blob["meta_json"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **blob)

    with pytest.raises(StateError, match="hash"):
        load_checkpoint(path)


def test_resume_under_different_config_rejected(small_cfg, small_data):
    mid, _ = run_replicate(small_cfg, small_data, stop=("finetune", 1))
    other = replace(small_cfg, seed=small_cfg.seed + 5)
    with pytest.raises(ConfigError):
        run_replicate(other, small_data, state=mid)


def test_evaluate_reports_all_metrics(small_cfg, small_data):
    state, records = run_replicate(small_cfg, small_data)
    again = evaluate(small_cfg, state.pretext_model, state.mad_model,
                     state.centers, small_data, state.ft_history)
    assert [r["auc"] for r in again] == [r["auc"] for r in records]
    for r in again:
        assert {"split", "auc", "auc_knn", "auc_knn_pretext", "epoch_auc",
                "live_centers"} <= set(r)


def _small_chunks(monkeypatch):
    """24-row forward and kNN blocks and one block per chunk, so each 80-row
    split of the small config is scored in four chunks: 24, 24, 24, 8."""
    monkeypatch.setattr(numcore, "ROW_BLOCK", 24)
    monkeypatch.setattr(numcore, "BLOCK_BYTES", 1)


@pytest.mark.parametrize("spaces", [("pretext",), ("mad", "pretext")])
def test_knn_scores_hold_the_detection_embedding_only_for_mad(
        small_cfg, small_data, monkeypatch, spaces):
    """Counted cost: when no "mad" space is asked for, a chunk's detection
    embedding is dropped once its center distances are scored, so the
    pretext-space kNN does not run beside it; with "mad" the probe sees it.
    Each split is embedded once, chunk after chunk, in row order."""
    state, _ = run_replicate(small_cfg, small_data)
    net, splits = state.mad_model.net, small_data[1:]
    real_forward, real_knn, embedded, alive = net.forward, trainer_mod.knn_score, [], []
    inputs = {ds.split: [] for ds in splits}

    def forward(x, *args, **kwargs):
        out = real_forward(x, *args, **kwargs)
        for ds in splits:
            if x.base is ds.features:
                inputs[ds.split].append(x)
                embedded.append(weakref.ref(out))
        return out

    def knn_score(*args, **kwargs):
        alive.append(embedded[-1]() is not None)
        return real_knn(*args, **kwargs)

    _small_chunks(monkeypatch)
    monkeypatch.setattr(net, "forward", forward)
    monkeypatch.setattr(trainer_mod, "knn_score", knn_score)
    trainer_mod.score_splits(small_cfg, state.pretext_model, state.mad_model,
                             state.centers, small_data[0], splits, *spaces)
    assert [len(inputs[ds.split]) for ds in splits] == [4] * len(splits)
    for ds in splits:
        assert np.array_equal(np.concatenate(inputs[ds.split]), ds.features)
    assert len(embedded) == 4 * len(splits)
    assert alive == ["mad" in spaces] * (len(embedded) * len(spaces))


def test_chunked_scores_warn_once_per_score_that_k_is_clamped(
        small_cfg, small_data, monkeypatch, caplog):
    """k above the reference count is clamped with one warning per split and
    space, however many chunks the split is scored in, and the scores are
    those of the unchunked split."""
    state, _ = run_replicate(small_cfg, small_data)
    cfg = replace(small_cfg, knn_k=10 ** 6)
    args = (cfg, state.pretext_model, state.mad_model, state.centers,
            small_data[0], small_data[1:], "mad", "pretext")
    whole = trainer_mod.score_splits(*args)
    _small_chunks(monkeypatch)
    caplog.clear()
    with caplog.at_level("WARNING"):
        chunked = trainer_mod.score_splits(*args)
    assert sum("clamping" in r.message for r in caplog.records) == 2 * 2
    for got, want in zip(chunked, whole):
        assert all(np.allclose(g, w, rtol=1e-12) for g, w in zip(got, want))


def _score_splits_transient_bytes(rows: int) -> int:
    """Peak traced bytes of ``score_splits`` in both spaces on a split of
    ``rows`` rows (default encoder shapes, 1 000 references, 100 centers),
    beyond the score vectors it returns."""
    cfg = to_experiment(default_config())
    rng = np.random.default_rng(rows)
    pretext = build_pretext_model(cfg)
    mad = transfer_weights(pretext, cfg)
    centers = CenterSet(rng.normal(size=(100, cfg.dims.mad_dim)),
                        np.ones(100, dtype=bool), np.zeros(100))
    train, split = (Dataset(rng.normal(size=(n, cfg.dims.input_dim)),
                            np.zeros(n), np.ones(n), np.zeros(n), np.zeros(n),
                            name) for n, name in ((1000, "train"), (rows, "test")))
    tracemalloc.start()
    try:
        [scores] = trainer_mod.score_splits(cfg, pretext, mad, centers, train,
                                            [split], "mad", "pretext")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(s.nbytes for s in scores)


def test_score_splits_working_memory_does_not_grow_with_rows():
    """Counted cost, independent of host speed: a split is embedded and
    scored one chunk at a time. Holding a whole split's detection and
    pretext-body embeddings, 35 000 more rows added 13 MB."""
    assert _score_splits_transient_bytes(40_000) \
        - _score_splits_transient_bytes(5_000) < 1 << 20


# The chunk rule at default dims: a chunk's detection and pretext-body
# embeddings fit BLOCK_BYTES, and its start is a multiple of both the forward
# block (240 rows) and the kNN step: 240 at 300 references, so 5 280-row
# chunks; 216 at 1 100, which does not divide 240, so 2 160-row units and
# 4 320-row chunks. Each case is checked at one chunk less a row, one chunk,
# one more row (which joins the chunk before it) and two chunks and a row,
# against the split run in one piece; at 1 BLAS thread, as the kNN bit tests.
_CHUNKED_SCORES_SCRIPT = """
import numpy as np
import madlab.numcore as numcore
import madlab.trainer as trainer
from madlab.config import default_config, to_experiment
from madlab.data import Dataset
from madlab.spheres import CenterSet
from _oracles import (unblocked_anomaly_scores, unblocked_forward,
                      unblocked_knn_score)
cfg = to_experiment(default_config())
pretext = trainer.build_pretext_model(cfg)
mad = trainer.transfer_weights(pretext, cfg)
rng = np.random.default_rng(9)
for p in (*pretext.net.parameters()[1::2], *mad.net.parameters()[1::2]):
    p += rng.normal(0.0, 0.1, size=p.shape)
centers = CenterSet(rng.normal(size=(100, cfg.dims.mad_dim)),
                    rng.random(100) < 0.7, np.zeros(100))
real, steps = numcore.row_blocks, []  # the chunk calls pass a step
numcore.row_blocks = lambda n, width=1, step=0: (
    step and steps.append(step), real(n, width, step))[1]

def split(x, name):
    n = len(x)
    return Dataset(x, np.zeros(n), np.ones(n), np.zeros(n), np.zeros(n), name)

def body(x):
    return unblocked_forward(pretext.net, x, n_layers=len(cfg.dims.body))

for m, c in ((300, 5280), (1100, 4320)):
    refs = rng.normal(size=(m, cfg.dims.input_dim))
    for n in (c - 1, c, c + 1, 2 * c + 1):
        x = rng.normal(size=(n, cfg.dims.input_dim))
        steps.clear()
        [(scores, knn_mad, knn_pre)] = trainer.score_splits(
            cfg, pretext, mad, centers, split(refs, "train"), [split(x, "test")],
            "mad", "pretext")
        assert steps == [c], (m, n, steps)
        emb = unblocked_forward(mad.net, x)
        assert np.array_equal(scores, unblocked_anomaly_scores(emb, centers)), (m, n)
        assert np.array_equal(knn_mad, unblocked_knn_score(
            emb, unblocked_forward(mad.net, refs), cfg.knn_k)), (m, n)
        assert np.array_equal(knn_pre, unblocked_knn_score(
            body(x), body(refs), cfg.knn_k)), (m, n)
"""


def test_chunked_scores_bit_identical_to_one_pass():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(root / "src"), str(root / "tests"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHUNKED_SCORES_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_knn_scores_of_one_evaluation_share_their_threads_buffers(
        small_cfg, small_data, monkeypatch):
    """Counted cost: the four kNN scores of one evaluation (two splits, two
    spaces) reuse one distance buffer per scoring thread, so a buffer faults
    in once per evaluation, not once per score. 24-row blocks cut each
    80-row split in four, scored by two threads (two cores reported); the
    buffers are kept alive here, so a fresh one per score gets a new id."""
    state, _ = run_replicate(small_cfg, small_data)
    real, bases = evaluation.distances_to, []

    def distances_to(points, *terms, out=None):
        bases.append(out.base)
        return real(points, *terms, out=out)

    monkeypatch.setattr(evaluation, "distances_to", distances_to)
    monkeypatch.setattr(numcore, "ROW_BLOCK", 24)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    evaluate(small_cfg, state.pretext_model, state.mad_model, state.centers,
             small_data, state.ft_history)
    assert len(bases) == 4 * 4 and len({id(base) for base in bases}) <= 2


def test_val_auc_baseline_recorded_before_training(small_cfg, small_data):
    view = small_data[0].training_view()
    model = random_mad_model(small_cfg)
    frozen = copy.deepcopy(model)
    state = finetune_start(small_cfg, model)
    finetune(small_cfg, view, small_data[1], state, 0)
    assert len(state.ft_history) == 1  # baseline only, no epochs run
    assert params_equal(model, frozen)
