"""Two-phase training: contrastive pretraining, encoder transfer, k-means
center initialization, fine-tuning with per-epoch cardinality pruning.
Both phases run their epochs through one batch loop, ``_run_epoch``; each
supplies only its batch input, its loss and its per-epoch work.

All randomness is derived from (seed, phase tag, epoch) so a run can be
checkpointed at any epoch boundary and resumed bit-exactly: a checkpoint
holds only the state that the config cannot rebuild.
"""

from __future__ import annotations

import json
import logging
import os
import time
from contextlib import closing
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import __version__
from .config import (  # noqa: F401 -- the config classes resolve here too
    AugmentationConfig, ExperimentConfig, FinetuneConfig, GeneratorConfig,
    ModelDims, PretrainConfig, experiment_from_dict, experiment_hash)
from .data import (Dataset, TrainingView, GT_ABNORMAL,
                   atomic_write, augment_pairs, generate_synthetic)
from .errors import ConfigError, MadlabError, NumericsError, StateError
from .evaluation import auc, knn_score, replicate_ci
from .losses import info_nce_loss, mad_loss
from .numcore import (IDENTITY, RELU, LayerSpec, Mlp, GradientTape,
                      OptimizerState, apply_lr_schedule, init_params,
                      mlp_backward, optimizer_step)
from .spheres import (CenterSet, anomaly_scores, assign_and_count, kmeans,
                      nearest_live_center, prune)

log = logging.getLogger(__name__)

CHECKPOINT_VERSION = 2

# rng stream tags
_T_INIT_PRETEXT = 11
_T_INIT_HEAD = 12
_T_SHUF_PRE = 13
_T_AUG = 14
_T_SHUF_FT = 15
_T_KMEANS = 16


@dataclass
class EncoderModel:
    """Body layers shared between the two phases plus one task head."""

    net: Mlp
    body_layers: int

    def embed(self, x) -> np.ndarray:
        return self.net.forward(x)

    def embed_body(self, x) -> np.ndarray:
        return self.net.forward(x, n_layers=self.body_layers)

    def body_params(self) -> list:
        return self.net.parameters()[:2 * self.body_layers]


def _layer_specs(dims: ModelDims, head_dim: int):
    widths = [dims.input_dim, *dims.body]
    body = [LayerSpec(widths[i], widths[i + 1], RELU)
            for i in range(len(widths) - 1)]
    head = [LayerSpec(widths[-1], head_dim, IDENTITY)]
    return body + head, len(body)


def build_pretext_model(cfg: ExperimentConfig) -> EncoderModel:
    specs, n_body = _layer_specs(cfg.dims, cfg.dims.proj_dim)
    rng = np.random.default_rng([cfg.seed, _T_INIT_PRETEXT])
    return EncoderModel(Mlp(specs, rng=rng), n_body)


def transfer_weights(pretext: EncoderModel, cfg: ExperimentConfig) -> EncoderModel:
    """Copy the body into a fresh detection encoder; new seeded head.

    The projection head is discarded. Idempotent: same pretext body and
    seed always produce the same detection encoder.
    """
    specs, n_body = _layer_specs(cfg.dims, cfg.dims.mad_dim)
    if pretext.body_layers != n_body:
        raise ConfigError(
            f"body depth mismatch: pretext has {pretext.body_layers} layers, "
            f"config wants {n_body}")
    head_rng = np.random.default_rng([cfg.seed, _T_INIT_HEAD])
    params = [p.copy() for p in pretext.body_params()]
    params.extend(init_params(specs[n_body:], head_rng))
    return EncoderModel(Mlp(specs, params=params), n_body)


def _make_optimizer(phase_cfg) -> OptimizerState:
    return OptimizerState(rule=phase_cfg.optimizer, learning_rate=phase_cfg.lr,
                          weight_decay=phase_cfg.weight_decay)


def _run_epoch(phase: str, seed_key: list, epoch: int, pc, model, opt,
               n: int, batch_input, loss_fn) -> float:
    """One pass over ``n`` rows in ``seed_key + [epoch]`` order, batches of
    ``pc.batch``; returns the loss sum. ``batch_input(idx)`` is the network
    input and ``loss_fn(z, idx)`` gives (loss, dloss/dz); a loss that raises
    or is not finite aborts with a ``NumericsError`` naming epoch and batch."""
    opt.learning_rate = apply_lr_schedule(epoch, pc.lr, pc.milestones,
                                          pc.decay_factor)
    perm = np.random.default_rng([*seed_key, epoch]).permutation(n)
    loss_sum = 0.0
    for bi, start in enumerate(range(0, n, pc.batch)):
        idx = perm[start:start + pc.batch]
        tape = GradientTape()
        z = model.net.forward(batch_input(idx), tape)
        try:
            loss, gz = loss_fn(z, idx)
            if not np.isfinite(loss):
                raise NumericsError("non-finite loss")
        except MadlabError as exc:
            raise NumericsError(
                f"{phase} epoch {epoch} batch {bi}: {exc}") from exc
        grads, _ = mlp_backward(tape, gz)
        optimizer_step(opt, model.net.parameters(), grads)
        loss_sum += loss
    return loss_sum


def pretrain(cfg: ExperimentConfig, view: TrainingView, *, model=None,
             opt=None, start_epoch: int = 0, end_epoch=None):
    """Contrastive pretraining over ALL train samples, labels ignored.

    Returns (model, optimizer, per-epoch mean anchor losses for the epochs
    run here).
    """
    n = len(view)
    if n == 0:
        raise ConfigError("pretraining needs a non-empty dataset")
    pc = cfg.pretrain
    end_epoch = pc.epochs if end_epoch is None else end_epoch
    model = model if model is not None else build_pretext_model(cfg)
    opt = opt if opt is not None else _make_optimizer(pc)

    def pairs(idx):  # rows (2i, 2i+1): two views of row idx[i] from aug_rng
        out = np.empty((2 * len(idx), view.features.shape[1]))
        out[0::2], out[1::2] = augment_pairs(view.features[idx], cfg.augment,
                                             aug_rng)
        return out

    losses = []
    for epoch in range(start_epoch, end_epoch):
        aug_rng = np.random.default_rng([cfg.seed, _T_AUG, epoch])
        loss_sum = _run_epoch("pretext", [cfg.seed, _T_SHUF_PRE], epoch, pc,
                              model, opt, n, pairs,
                              lambda z, idx: info_nce_loss(z, pc.temperature))
        losses.append(loss_sum / (2 * n))  # mean over the 2n anchors
    return model, opt, losses


def _record_epoch(history, cfg, view, val_ds: Dataset, model, centers):
    """Append one row of the finetune history. The objective is the epoch
    objective on frozen weights: data terms plus the L2 penalty that the
    optimizer realizes as decoupled decay."""
    fc = cfg.finetune
    scores = anomaly_scores(model.embed(val_ds.features), centers)
    history["val_auc"].append(auc(scores, val_ds.ground_truth == GT_ABNORMAL))
    data_term, _, _ = mad_loss(model.embed(view.features), view.labels,
                               centers, fc.eta, len(view), fc.eps_d)
    history["objective"].append(data_term + 0.5 * fc.weight_decay * sum(
        float(np.sum(p * p)) for p in model.net.parameters()))
    history["live"].append(centers.n_live)
    history["counts"].append([int(c) for c in centers.counts])


def finetune(cfg: ExperimentConfig, view: TrainingView, val_ds: Dataset,
             model: EncoderModel, *, centers=None, opt=None,
             start_epoch: int = 0, end_epoch=None, history=None):
    """Fine-tune the detection encoder against the center set.

    Initializes centers by k-means over the embedded presumed-normal
    samples (unlabeled + known-normal) when none are given, then runs
    batched updates with per-epoch cardinality pruning. ``history`` rows
    indexed by epoch; index 0 holds the pre-finetune baseline.
    """
    fc = cfg.finetune
    end_epoch = fc.epochs if end_epoch is None else end_epoch
    presumed = view.labels >= 0

    if centers is None:
        if start_epoch != 0:
            raise StateError("resuming finetune requires the saved centers")
        emb = model.embed(view.features[presumed])
        centers = kmeans(emb, fc.n_s, seed=[cfg.seed, _T_KMEANS],
                         gamma=fc.gamma)
        if fc.n_s > 1 and centers.initial_count < fc.n_s:
            log.info("k-means clamped N_s from %d to %d", fc.n_s,
                     centers.initial_count)
    if history is None:
        history = {"val_auc": [], "objective": [], "live": [], "counts": [],
                   "train_loss": []}
        _record_epoch(history, cfg, view, val_ds, model, centers)

    n = len(view)
    opt = opt if opt is not None else _make_optimizer(fc)
    for epoch in range(start_epoch, end_epoch):
        loss_sum = _run_epoch(
            "finetune", [cfg.seed, _T_SHUF_FT], epoch, fc, model, opt, n,
            lambda idx: view.features[idx],
            lambda z, idx: mad_loss(z, view.labels[idx], centers, fc.eta, n,
                                    fc.eps_d)[:2])
        assign_and_count(model.embed(view.features[presumed]), centers)
        prune(centers)
        history["train_loss"].append(loss_sum)
        _record_epoch(history, cfg, view, val_ds, model, centers)

    return model, centers, opt, history


def evaluate(cfg: ExperimentConfig, pretext_model: EncoderModel,
             mad_model: EncoderModel, centers: CenterSet, datasets,
             history=None):
    """Score val/test: center-distance AUC plus kNN AUCs in the detection
    and pretext-body embedding spaces (reference = presumed-normal train)."""
    train_ds, val_ds, test_ds = datasets
    presumed = train_ds.labels >= 0
    ref_mad = mad_model.embed(train_ds.features[presumed])
    ref_pre = pretext_model.embed_body(train_ds.features[presumed])

    records = []
    for ds in (val_ds, test_ds):
        emb = mad_model.embed(ds.features)
        positives = ds.ground_truth == GT_ABNORMAL
        rec = {
            "split": ds.split,
            "auc": auc(anomaly_scores(emb, centers), positives),
            "auc_knn": auc(knn_score(emb, ref_mad, cfg.knn_k), positives),
            "auc_knn_pretext": auc(
                knn_score(pretext_model.embed_body(ds.features), ref_pre,
                          cfg.knn_k), positives),
            "epoch_auc": list(history["val_auc"]) if history else [],
            "live_centers": list(history["live"]) if history else [],
        }
        records.append(rec)
    return records


@dataclass
class TrainerState:
    """Everything needed to resume a run at an epoch boundary."""

    config: ExperimentConfig
    phase: str                      # "pretrain" | "finetune" | "done"
    epoch: int                      # completed epochs within the phase
    pretext_model: EncoderModel
    mad_model: EncoderModel | None = None
    opt: OptimizerState | None = None
    centers: CenterSet | None = None
    pre_losses: list = field(default_factory=list)
    ft_history: dict | None = None


def run_replicate(cfg: ExperimentConfig, datasets=None, *, state=None,
                  stop=None):
    """Run (or resume) one full replicate: generate/pretrain/transfer/
    finetune/evaluate.

    ``stop`` = (phase, epochs_done) halts at that boundary and returns the
    state without evaluation records. Returns (state, records).
    """
    if datasets is None:
        datasets = generate_synthetic(replace(cfg.data, seed=cfg.seed))
    train_ds, val_ds, _ = datasets
    view = train_ds.training_view()

    if state is None:
        state = TrainerState(config=cfg, phase="pretrain", epoch=0,
                             pretext_model=build_pretext_model(cfg))
    if experiment_hash(state.config) != experiment_hash(cfg):
        raise ConfigError("state was produced under a different config")

    if state.phase == "pretrain":
        halt = stop is not None and stop[0] == "pretrain"
        target = min(cfg.pretrain.epochs, stop[1]) if halt else cfg.pretrain.epochs
        state.pretext_model, state.opt, losses = pretrain(
            cfg, view, model=state.pretext_model, opt=state.opt,
            start_epoch=state.epoch, end_epoch=target)
        state.pre_losses = state.pre_losses + losses
        state.epoch = target
        if halt:
            return state, []
        state.phase, state.epoch, state.opt = "finetune", 0, None
        state.mad_model = transfer_weights(state.pretext_model, cfg)

    if state.phase == "finetune":
        halt = stop is not None and stop[0] == "finetune"
        target = min(cfg.finetune.epochs, stop[1]) if halt else cfg.finetune.epochs
        state.mad_model, state.centers, state.opt, state.ft_history = finetune(
            cfg, view, val_ds, state.mad_model, centers=state.centers,
            opt=state.opt, start_epoch=state.epoch,
            end_epoch=target, history=state.ft_history)
        state.epoch = target
        if halt:
            return state, []
        state.phase = "done"

    records = evaluate(cfg, state.pretext_model, state.mad_model,
                       state.centers, datasets, state.ft_history)
    return state, records


@dataclass
class RunResult:
    """Aggregated outcome of a replicated experiment."""

    config_hash: str
    records: list
    errors: list
    aggregate: dict
    replicates_requested: int
    replicates_completed: int
    wall_clock_sec: float
    versions: dict
    workers: int
    replicate_sec: list             # wall seconds; None where it failed

    def metrics_dict(self) -> dict:
        """The deterministic part, suitable for byte-stable JSON output."""
        return {"format": 1, "config_hash": self.config_hash,
                "replicates_requested": self.replicates_requested,
                "replicates_completed": self.replicates_completed,
                "records": self.records, "errors": self.errors,
                "aggregate": self.aggregate}


_AGG_KEYS = (("val", "auc", "val_auc"),
             ("test", "auc", "test_auc"),
             ("val", "auc_knn", "val_auc_knn"),
             ("test", "auc_knn", "test_auc_knn"),
             ("val", "auc_knn_pretext", "val_auc_knn_pretext"),
             ("test", "auc_knn_pretext", "test_auc_knn_pretext"))


def aggregate_records(records: list) -> dict:
    agg = {}
    for split, metric, name in _AGG_KEYS:
        vals = [r[metric] for r in records if r["split"] == split]
        if vals:
            agg[name] = replicate_ci(vals).as_dict()
    live = [r["live_centers"][-1] for r in records
            if r["split"] == "test" and r["live_centers"]]
    if live:
        agg["final_live_centers"] = replicate_ci(live).as_dict()
    return agg


def resolve_workers(replicates: int, workers=None) -> int:
    """The worker processes that run ``replicates`` replicates: ``workers``,
    or one per usable core when None, at most one per replicate, and 1
    where processes cannot be forked."""
    if workers is None:
        workers = (len(os.sched_getaffinity(0))
                   if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    elif workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return min(workers, replicates) if hasattr(os, "fork") else 1


def _replicate_task(rcfg: ExperimentConfig, datasets):
    """One replicate, in this process or in a worker: (state, records, wall
    seconds), or the text of the MadlabError that stopped it.
    ``run_replicate`` is looked up when called, so a replacement installed
    on this module before the workers fork runs in them too."""
    t0 = time.monotonic()
    try:
        state, records = run_replicate(rcfg, datasets)
    except MadlabError as exc:
        return str(exc)
    return state, records, time.monotonic() - t0


_worker_datasets = None  # set in each worker process by _init_worker


def _init_worker(datasets):
    global _worker_datasets
    _worker_datasets = datasets


def _worker_task(rcfg: ExperimentConfig):
    return _replicate_task(rcfg, _worker_datasets)


def _replicate_outcomes(rcfgs, datasets, workers: int):
    """``_replicate_task`` outcomes in replicate order: run here one after
    another with 1 worker, else in a pool of forked workers. Fork, not
    spawn: workers inherit the loaded modules, any patches on them and the
    datasets, so only configs and results are pickled. A replicate whose
    worker died yields its error text."""
    if workers == 1:
        yield from (_replicate_task(rcfg, datasets) for rcfg in rcfgs)
        return
    # imported here: the pool modules add about 20 ms to every start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    pool = ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_worker, initargs=(datasets,))
    try:
        futures = [pool.submit(_worker_task, rcfg) for rcfg in rcfgs]
        for fut in futures:
            try:
                outcome = fut.result()
            except BrokenProcessPool as exc:
                outcome = f"worker process died: {exc}"
            yield outcome
    finally:  # also when the caller stops early: no worker outlives the run
        pool.shutdown(cancel_futures=True)


def run_experiment(cfg: ExperimentConfig, datasets=None, on_replicate=None,
                   *, workers=None):
    """Run all replicates; replicate r uses seed + r.

    With ``datasets`` given, every replicate trains on them (the on-disk
    protocol); otherwise each replicate generates its own data from its
    seed. ``on_replicate(r, state)`` lets callers persist checkpoints and
    trajectories. Failures are recorded and skipped in the aggregate.
    ``workers`` processes run the replicates (see ``resolve_workers``);
    records, errors and ``on_replicate`` calls come in replicate order in
    this process either way, so the outputs do not depend on it.
    """
    t0 = time.monotonic()
    workers = resolve_workers(cfg.replicates, workers)
    rcfgs = [replace(cfg, seed=cfg.seed + r) for r in range(cfg.replicates)]
    records, errors, seconds = [], [], []
    with closing(_replicate_outcomes(rcfgs, datasets, workers)) as outcomes:
        for r, outcome in enumerate(outcomes):
            if isinstance(outcome, str):
                log.error("replicate %d failed: %s", r, outcome)
                errors.append({"replicate": r, "error": outcome})
                seconds.append(None)
                continue
            state, recs, sec = outcome
            seconds.append(sec)
            for rec in recs:
                records.append({"replicate": r, **rec})
            if on_replicate is not None:
                on_replicate(r, state)

    completed = cfg.replicates - len(errors)
    return RunResult(
        config_hash=experiment_hash(cfg), records=records, errors=errors,
        aggregate=aggregate_records(records),
        replicates_requested=cfg.replicates, replicates_completed=completed,
        wall_clock_sec=time.monotonic() - t0,
        versions={"madlab": __version__, "numpy": np.__version__},
        workers=workers, replicate_sec=seconds)


# --- checkpointing ------------------------------------------------------

def save_checkpoint(path, state: TrainerState):
    """Versioned npz container; restore refuses on config-hash mismatch."""
    opt = state.opt
    meta = {"version": CHECKPOINT_VERSION,
            "config": asdict(state.config),
            "config_hash": experiment_hash(state.config),
            "phase": state.phase, "epoch": state.epoch,
            "pre_losses": state.pre_losses,
            "ft_history": state.ft_history,
            "opt": None if opt is None else {
                "learning_rate": opt.learning_rate, "step_count": opt.step_count}}
    arrays = {"meta_json": np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)}
    for i, p in enumerate(state.pretext_model.net.parameters()):
        arrays[f"pretext_{i}"] = p
    if state.mad_model is not None:
        for i, p in enumerate(state.mad_model.net.parameters()):
            arrays[f"mad_{i}"] = p
    if opt is not None and opt.m is not None:
        for i, (m, v) in enumerate(zip(opt.m, opt.v)):
            arrays[f"opt_m_{i}"] = m
            arrays[f"opt_v_{i}"] = v
    if state.centers is not None:
        arrays["centers"] = state.centers.centers
        arrays["centers_live"] = state.centers.live
        arrays["centers_counts"] = state.centers.counts
    with atomic_write(path, "wb") as fh:  # savez would append .npz to a bare path
        np.savez(fh, **arrays)


def load_checkpoint(path) -> TrainerState:
    if not os.path.exists(path):
        raise StateError(f"checkpoint not found: {path}")
    try:
        return _read_checkpoint(path)
    except StateError as exc:
        raise StateError(f"{path}: {exc}") from exc
    except Exception as exc:  # bad zip/CRC, missing keys, invalid arrays
        raise StateError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _encoder(z, prefix: str, cfg: ExperimentConfig, head_dim: int):
    specs, n_body = _layer_specs(cfg.dims, head_dim)
    params = [z[f"{prefix}_{i}"] for i in range(2 * len(specs))]
    return EncoderModel(Mlp(specs, params=params), n_body)


def _read_checkpoint(path) -> TrainerState:
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(bytes(z["meta_json"]).decode())
        if meta.get("version") != CHECKPOINT_VERSION:
            raise StateError(
                f"unsupported checkpoint version {meta.get('version')}")
        cfg = experiment_from_dict(meta["config"])
        if experiment_hash(cfg) != meta["config_hash"]:
            raise StateError("checkpoint config hash mismatch; refusing restore")

        pretext = _encoder(z, "pretext", cfg, cfg.dims.proj_dim)
        mad = _encoder(z, "mad", cfg, cfg.dims.mad_dim) if "mad_0" in z else None

        opt = None
        if meta["opt"] is not None:  # the phase's config gives rule and decay
            pre = meta["phase"] == "pretrain"
            opt = replace(_make_optimizer(cfg.pretrain if pre else cfg.finetune),
                          learning_rate=meta["opt"]["learning_rate"],
                          step_count=meta["opt"]["step_count"])
            if "opt_m_0" in z:
                params = (pretext if pre else mad).net.parameters()
                opt.m = [z[f"opt_m_{i}"] for i in range(len(params))]
                opt.v = [z[f"opt_v_{i}"] for i in range(len(params))]
                if [a.shape for a in opt.m + opt.v] != [p.shape for p in params * 2]:
                    raise StateError("optimizer moments do not match the parameters")

        centers = (CenterSet(z["centers"], z["centers_live"], z["centers_counts"],
                             cfg.finetune.gamma) if "centers" in z else None)

    return TrainerState(config=cfg, phase=meta["phase"], epoch=meta["epoch"],
                        pretext_model=pretext, mad_model=mad, opt=opt,
                        centers=centers, pre_losses=meta["pre_losses"],
                        ft_history=meta["ft_history"])
