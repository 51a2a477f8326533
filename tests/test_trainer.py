import copy
import itertools
import json
import multiprocessing
from dataclasses import asdict, replace

import numpy as np
import pytest

import madlab.trainer as trainer_mod
from madlab.config import apply_overrides, default_config, to_experiment
from madlab.data import generate_synthetic
from madlab.errors import ConfigError, DomainError, NumericsError, StateError
from madlab.trainer import (ExperimentConfig, build_pretext_model, evaluate,
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


def params_equal(a, b):
    pa, pb = a.net.parameters(), b.net.parameters()
    return len(pa) == len(pb) and all(np.array_equal(x, y)
                                      for x, y in zip(pa, pb))


def test_zero_epochs_leaves_initialization(small_cfg, small_data):
    view = small_data[0].training_view()
    cfg = replace(small_cfg, pretrain=replace(small_cfg.pretrain, epochs=0))
    model, _, losses = pretrain(cfg, view)
    assert losses == []
    assert params_equal(model, build_pretext_model(cfg))


def test_pretrain_deterministic(small_cfg, small_data):
    view = small_data[0].training_view()
    m1, _, l1 = pretrain(small_cfg, view)
    m2, _, l2 = pretrain(small_cfg, view)
    assert params_equal(m1, m2)
    assert l1 == l2


def test_pretrain_empty_dataset_rejected(small_cfg, small_data):
    from madlab.data import TrainingView
    empty = TrainingView(np.empty((0, 8)), np.empty(0, dtype=np.int8))
    with pytest.raises(ConfigError):
        pretrain(small_cfg, empty)


def test_transfer_copies_body_and_freshens_head(small_cfg, small_data):
    view = small_data[0].training_view()
    pre, _, _ = pretrain(small_cfg, view)
    mad = transfer_weights(pre, small_cfg)
    for a, b in zip(pre.body_params(), mad.body_params()):
        assert np.array_equal(a, b)
    pre_head_w = pre.net.parameters()[2 * pre.body_layers:][0]
    mad_head_w = mad.net.parameters()[2 * mad.body_layers:][0]
    assert pre_head_w.shape == mad_head_w.shape
    assert not np.array_equal(pre_head_w, mad_head_w)


def test_transfer_idempotent(small_cfg, small_data):
    view = small_data[0].training_view()
    pre, _, _ = pretrain(small_cfg, view)
    assert params_equal(transfer_weights(pre, small_cfg),
                        transfer_weights(pre, small_cfg))


def test_finetune_runs_without_supervision(small_cfg, small_data):
    cfg = replace(small_cfg,
                  finetune=replace(small_cfg.finetune, eta=0.0),
                  data=replace(small_cfg.data, labeled_ratio=0.0))
    ds = generate_synthetic(replace(cfg.data, seed=cfg.seed))
    view = ds[0].training_view()
    assert np.all(view.labels == 0)
    model = random_mad_model(cfg)
    model, centers, _, hist = finetune(cfg, view, ds[1], model)
    assert centers.n_live >= 1
    assert len(hist["val_auc"]) == cfg.finetune.epochs + 1


def test_unimodal_pruning_is_noop(small_cfg, small_data):
    cfg = replace(small_cfg, finetune=replace(small_cfg.finetune, n_s=1))
    view = small_data[0].training_view()
    model = random_mad_model(cfg)
    _, centers, _, hist = finetune(cfg, view, small_data[1], model)
    assert centers.n_live == 1
    assert hist["live"] == [1] * (cfg.finetune.epochs + 1)


def test_epoch_histories_align(small_cfg, small_data):
    view = small_data[0].training_view()
    model = random_mad_model(small_cfg)
    _, centers, _, hist = finetune(small_cfg, view, small_data[1], model)
    epochs = small_cfg.finetune.epochs
    assert len(hist["val_auc"]) == epochs + 1      # index 0 = baseline
    assert len(hist["objective"]) == epochs + 1
    assert len(hist["live"]) == epochs + 1
    assert len(hist["train_loss"]) == epochs
    assert all(l1 >= l2 for l1, l2 in zip(hist["live"], hist["live"][1:]))


def test_run_replicate_produces_records(small_cfg, small_data):
    state, records = run_replicate(small_cfg, small_data)
    assert state.phase == "done"
    splits = sorted(r["split"] for r in records)
    assert splits == ["test", "val"]
    for r in records:
        assert 0.0 <= r["auc"] <= 1.0
        assert len(r["epoch_auc"]) == small_cfg.finetune.epochs + 1
        assert r["live_centers"][0] == small_cfg.finetune.n_s


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


def test_checkpoint_round_trip_resumes_bit_exact(small_cfg, small_data,
                                                 tmp_path):
    # uninterrupted reference
    ref_state, ref_records = run_replicate(small_cfg, small_data)

    # stop after 1 finetune epoch, checkpoint, restore, resume
    mid, _ = run_replicate(small_cfg, small_data, stop=("finetune", 1))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, mid)
    restored = load_checkpoint(path)
    assert restored.phase == "finetune" and restored.epoch == 1
    final, records = run_replicate(small_cfg, small_data, state=restored)

    assert params_equal(final.mad_model, ref_state.mad_model)
    assert params_equal(final.pretext_model, ref_state.pretext_model)
    assert np.array_equal(final.centers.centers, ref_state.centers.centers)
    assert np.array_equal(final.centers.live, ref_state.centers.live)
    assert final.ft_history == ref_state.ft_history
    assert records == ref_records


def test_checkpoint_mid_pretrain_resume(small_cfg, small_data, tmp_path):
    ref_state, _ = run_replicate(small_cfg, small_data)
    mid, _ = run_replicate(small_cfg, small_data, stop=("pretrain", 1))
    path = tmp_path / "pre.npz"
    save_checkpoint(path, mid)
    final, _ = run_replicate(small_cfg, small_data,
                             state=load_checkpoint(path))
    assert params_equal(final.pretext_model, ref_state.pretext_model)
    assert final.pre_losses == ref_state.pre_losses


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(StateError, match="not found"):
        load_checkpoint(tmp_path / "nope.npz")


def _damage(path, damage):
    """Corrupt a saved checkpoint's bytes, or re-save it with one stored
    array or the version changed."""
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
        last = max(int(k.rsplit("_", 1)[1]) for k in arrays
                   if k.startswith("opt_m_"))
        del arrays[f"opt_m_{last}"], arrays[f"opt_v_{last}"]
    elif damage == "misshaped_moment":
        arrays["opt_v_0"] = arrays["opt_v_0"][:-1]
    else:
        meta = json.loads(bytes(arrays["meta_json"]).decode())
        meta["version"] = 1
        arrays["meta_json"] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


@pytest.mark.parametrize("damage, match", [
    pytest.param(damage, match, id=damage) for damage, match in [
        ("truncate_0", "ckpt.npz"), ("truncate_10", "ckpt.npz"),
        ("truncate_half", "ckpt.npz"), ("flip_byte", "ckpt.npz"),
        ("missing_moment_pair", "ckpt.npz: KeyError: .*opt_m_5"),
        ("misshaped_moment", "ckpt.npz: optimizer moments"),
        ("version_1", "ckpt.npz: unsupported checkpoint version 1")]])
def test_corrupt_checkpoint_raises_state_error(small_cfg, small_data,
                                               tmp_path, damage, match):
    mid, _ = run_replicate(small_cfg, small_data, stop=("pretrain", 1))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, mid)
    _damage(path, damage)
    with pytest.raises(StateError, match=match):
        load_checkpoint(path)


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


def test_val_auc_baseline_recorded_before_training(small_cfg, small_data):
    view = small_data[0].training_view()
    model = random_mad_model(small_cfg)
    frozen = copy.deepcopy(model)
    _, centers, _, hist = finetune(small_cfg, view, small_data[1], model,
                                   end_epoch=0)
    assert len(hist["val_auc"]) == 1  # baseline only, no epochs run
    assert params_equal(model, frozen)
