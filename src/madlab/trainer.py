"""Two-phase training: contrastive pretraining, encoder transfer, k-means
center initialization, fine-tuning with per-epoch cardinality pruning.
Both phases run their epochs through one batch loop, ``_run_epoch``; each
supplies only its batch input, its loss and its per-epoch work. A phase
reads and advances one ``TrainerState``: it runs from ``state.epoch`` to a
given end epoch and writes the optimizer, centers and epoch records it
creates or updates back into the state.

All randomness is derived from (seed, phase tag, epoch) so a run can be
checkpointed at any epoch boundary and resumed bit-exactly: a checkpoint
holds only the state that the config cannot rebuild.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from contextlib import closing
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import __version__, numcore
from .config import ExperimentConfig, experiment_from_dict, experiment_hash
from .data import (ABNORMAL, Dataset, TrainingView, atomic_write,
                   augment_pairs, check_layout, generate_synthetic)
from .errors import ConfigError, MadlabError, NumericsError, StateError
from .evaluation import auc, knn_score, replicate_ci, usable_cores
from .losses import info_nce_loss, mad_loss
from .numcore import (ADAM, Arena, Mlp, OptimizerState, apply_lr_schedule,
                      init_params, mlp_backward, optimizer_step)
from .spheres import CenterSet, anomaly_scores, assign_and_count, kmeans, prune
from .spheres import nearest_live_center  # noqa: F401 -- a perfbench/tracer.py patch point

log = logging.getLogger(__name__)

CHECKPOINT_VERSION = 4

# rng stream tags
_T_INIT_PRETEXT = 11
_T_INIT_HEAD = 12
_T_SHUF_PRE = 13
_T_AUG = 14
_T_SHUF_FT = 15
_T_KMEANS = 16


@dataclass
class EncoderModel:
    """One phase's network: the body layers shared between the two phases
    plus that phase's head. A holder only, because ``perfbench`` reads the
    network of a finished state as ``state.pretext_model.net`` and
    ``state.mad_model.net``."""

    net: Mlp


def build_pretext_model(cfg: ExperimentConfig) -> EncoderModel:
    dims = cfg.dims
    rng = np.random.default_rng([cfg.seed, _T_INIT_PRETEXT])
    return EncoderModel(Mlp((dims.input_dim, *dims.body, dims.proj_dim), rng=rng))


def transfer_weights(pretext: EncoderModel, cfg: ExperimentConfig) -> EncoderModel:
    """Copy the body into a fresh detection encoder; new seeded head.

    The projection head is discarded. Idempotent: same pretext body and
    seed always produce the same detection encoder.
    """
    dims = cfg.dims
    head_rng = np.random.default_rng([cfg.seed, _T_INIT_HEAD])
    params = pretext.net.parameters()[:2 * len(dims.body)] + init_params(
        (dims.body[-1], dims.mad_dim), head_rng)
    return EncoderModel(Mlp((dims.input_dim, *dims.body, dims.mad_dim),
                            params=params))  # Mlp copies


@dataclass
class TrainerState:
    """Everything needed to resume a run at an epoch boundary. ``epochs`` has
    one dict per recorded epoch, in order: ``phase``, ``epoch`` (completed
    in the phase), ``loss`` and, for finetune, ``val_auc``, ``objective``,
    ``live`` and ``counts``; the finetune baseline has epoch 0, loss None."""

    config: ExperimentConfig
    phase: str                      # "pretrain" | "finetune" | "done"
    epoch: int                      # completed epochs within the phase
    pretext_model: EncoderModel
    mad_model: EncoderModel | None = None
    opt: OptimizerState | None = field(default_factory=OptimizerState)
    centers: CenterSet | None = None
    epochs: list = field(default_factory=list)

    @property
    def ft_history(self) -> list:
        """The finetune records, the baseline first."""
        return [rec for rec in self.epochs if rec["phase"] == "finetune"]


def _run_epoch(phase: str, seed_key: list, epoch: int, pc, model, opt,
               n: int, batch_input, loss_fn) -> float:
    """One pass over ``n`` rows in ``seed_key + [epoch]`` order, batches of
    ``pc.batch``; returns the loss sum. ``batch_input(idx)`` is the network
    input and ``loss_fn(z, idx)`` gives (loss, dloss/dz). A step that raises
    (a float overflow or invalid operation too, under ``_replicate_task``)
    or whose loss is not finite aborts with a ``NumericsError`` naming
    phase, epoch and batch."""
    lr = apply_lr_schedule(epoch, pc.lr, pc.milestones, pc.decay_factor)
    perm = np.random.default_rng([*seed_key, epoch]).permutation(n)
    loss_sum = 0.0
    for bi, start in enumerate(range(0, n, pc.batch)):
        idx = perm[start:start + pc.batch]
        try:
            tape = []
            z = model.net.forward(batch_input(idx), tape)
            loss, gz = loss_fn(z, idx)
            if not np.isfinite(loss):
                raise NumericsError("non-finite loss")
            grads = mlp_backward(model.net, tape, gz)
            optimizer_step(opt, model.net.parameters(), grads, pc.optimizer,
                           lr, pc.weight_decay)
        except (MadlabError, FloatingPointError) as exc:
            raise NumericsError(
                f"{phase} epoch {epoch} batch {bi}: {exc}") from exc
        loss_sum += loss
    return loss_sum


def pretrain(cfg: ExperimentConfig, view: TrainingView, state: TrainerState,
             end_epoch: int):
    """Contrastive pretraining of ``state.pretext_model`` over ALL train
    samples, labels ignored, from ``state.epoch`` to ``end_epoch``; records
    each epoch's mean anchor loss in ``state.epochs``."""
    n = len(view)
    if n == 0:
        raise ConfigError("pretraining needs a non-empty dataset")
    pc = cfg.pretrain

    def pairs(idx):  # rows (2i, 2i+1): two views of row idx[i] from aug_rng
        out = np.empty((2 * len(idx), view.features.shape[1]))
        out[0::2], out[1::2] = augment_pairs(view.features[idx], cfg.augment,
                                             aug_rng)
        return out

    for epoch in range(state.epoch, end_epoch):
        aug_rng = np.random.default_rng([cfg.seed, _T_AUG, epoch])
        loss_sum = _run_epoch("pretext", [cfg.seed, _T_SHUF_PRE], epoch, pc,
                              state.pretext_model, state.opt, n, pairs,
                              lambda z, idx: info_nce_loss(z, pc.temperature))
        state.epoch = epoch + 1
        state.epochs.append({"phase": "pretrain", "epoch": state.epoch,
                             "loss": loss_sum / (2 * n)})  # mean over 2n anchors


def _record_epoch(state: TrainerState, cfg, view, val_ds, epoch, loss=None):
    """Fine-tuning's bookkeeping after training ``epoch`` to ``loss``, or
    before any step if ``loss`` is None: embed the train view, fit k-means
    centers to its presumed-normal rows or count and prune them, and record
    the objective on frozen weights (data terms plus the L2 penalty that
    the optimizer realizes as decoupled decay)."""
    fc, model = cfg.finetune, state.mad_model
    try:  # a float fault names its epoch, as a step's does
        emb = model.net.forward(view.features)
        if state.centers is None:
            state.centers = kmeans(emb[view.labels >= 0], fc.n_s,
                                   seed=[cfg.seed, _T_KMEANS])
        else:
            assign_and_count(emb[view.labels >= 0], state.centers)
            state.centers = prune(state.centers, fc.gamma)
        centers = state.centers
        scores = anomaly_scores(model.net.forward(val_ds.features), centers)
        data_term, _, _ = mad_loss(emb, view.labels, centers, fc.eta, len(view),
                                   fc.eps_d)
        state.epochs.append({
            "phase": "finetune", "epoch": 0 if loss is None else epoch + 1,
            "loss": loss,
            "val_auc": auc(scores, val_ds.ground_truth == ABNORMAL),
            "objective": data_term + 0.5 * fc.weight_decay * sum(
                float(np.sum(p * p)) for p in model.net.parameters()),
            "live": centers.n_live, "counts": [int(c) for c in centers.counts]})
    except FloatingPointError as exc:
        raise NumericsError(
            f"finetune epoch {epoch} bookkeeping: {exc}") from exc


def finetune(cfg: ExperimentConfig, view: TrainingView, val_ds: Dataset,
             state: TrainerState, end_epoch: int):
    """Fine-tune ``state.mad_model`` from ``state.epoch`` to ``end_epoch``,
    recording the baseline first and then each epoch (``_record_epoch``)."""
    fc, n = cfg.finetune, len(view)
    if state.centers is None:
        _record_epoch(state, cfg, view, val_ds, 0)

    for epoch in range(state.epoch, end_epoch):
        loss_sum = _run_epoch(
            "finetune", [cfg.seed, _T_SHUF_FT], epoch, fc, state.mad_model,
            state.opt, n, lambda idx: view.features[idx],
            lambda z, idx: mad_loss(z, view.labels[idx], state.centers,
                                    fc.eta, n, fc.eps_d)[:2])
        _record_epoch(state, cfg, view, val_ds, epoch, loss_sum)
        state.epoch = epoch + 1


def score_splits(cfg: ExperimentConfig, pretext_model: EncoderModel,
                 mad_model: EncoderModel, centers: CenterSet, train_ds: Dataset,
                 splits, *spaces) -> list:
    """Per split: its center-distance scores, then one kNN score vector per
    space, "mad" (detection embedding) or "pretext" (pretext body, before the
    projection head: a net of its own, given the body's last ReLU in place),
    against the presumed-normal train rows embedded once per space. A split
    is scored in chunks that fit BLOCK_BYTES, cut on forward and kNN blocks."""
    body = Mlp((cfg.dims.input_dim, *cfg.dims.body),
               params=pretext_model.net.parameters()[:2 * len(cfg.dims.body)])
    embed = {"mad": mad_model.net.forward,
             "pretext": lambda x: np.maximum(z := body.forward(x), 0.0, out=z)}
    ref_rows = train_ds.features[train_ds.labels >= 0]
    refs = [embed[space](ref_rows) for space in spaces]
    unit = np.lcm(numcore.ROW_BLOCK, numcore.block_rows(max(1, len(ref_rows))))
    row_bytes = 8 * (mad_model.net.widths[-1] + body.widths[-1])
    chunk = max(1, numcore.BLOCK_BYTES // (row_bytes * unit)) * unit
    out, buffers = [], {}  # every kNN score reuses the same distance buffers
    for ds in splits:
        out.append(scores := np.empty((1 + len(spaces), len(ds))))
        for rows in numcore.row_blocks(len(ds), step=chunk):
            scores[0, rows] = anomaly_scores(
                emb := mad_model.net.forward(x := ds.features[rows]), centers)
            emb = emb if "mad" in spaces else None  # not held while kNN scores
            k = min(cfg.knn_k, len(ref_rows)) if rows.start else cfg.knn_k  # warn once
            for score, space, ref in zip(scores[1:], spaces, refs):
                score[rows] = knn_score(emb if space == "mad" else embed[space](x),
                                        ref, k, buffers)
    return out


def evaluate(cfg: ExperimentConfig, pretext_model: EncoderModel,
             mad_model: EncoderModel, centers: CenterSet, datasets, history):
    """Score val/test: center-distance AUC plus kNN AUCs in the detection
    and pretext-body embedding spaces (``score_splits``), each record with
    the finetune ``history``'s val AUCs and live counts."""
    records = []
    for ds, (scores, knn_mad, knn_pre) in zip(datasets[1:], score_splits(
            cfg, pretext_model, mad_model, centers, datasets[0], datasets[1:],
            "mad", "pretext")):
        positives = ds.ground_truth == ABNORMAL
        records.append({
            "split": ds.split, "auc": auc(scores, positives),
            "auc_knn": auc(knn_mad, positives),
            "auc_knn_pretext": auc(knn_pre, positives),
            "epoch_auc": [rec["val_auc"] for rec in history],
            "live_centers": [rec["live"] for rec in history],
        })
    return records


def run_replicate(cfg: ExperimentConfig, datasets=None, *, state=None,
                  stop=None):
    """Run (or resume) one full replicate: generate/pretrain/transfer/
    finetune/evaluate.

    ``stop`` = ("pretrain" or "finetune", epochs >= 0) halts at that boundary
    and returns the state without evaluation records. Returns (state, records).
    """
    end = {"pretrain": cfg.pretrain.epochs, "finetune": cfg.finetune.epochs}
    halt, at = stop or ("done", 0)
    if stop is not None and not (halt in end and type(at) is int and at >= 0):
        raise ConfigError(f"stop must be (pretrain|finetune, int >= 0), got {stop!r}")
    end[halt] = min(end.get(halt, at), at)  # the epoch each phase runs to
    if datasets is None:
        datasets = generate_synthetic(replace(cfg.data, seed=cfg.seed))
    train_ds, val_ds, _ = datasets
    view = train_ds.training_view()

    if state is None:
        state = TrainerState(config=cfg, phase="pretrain", epoch=0,
                             pretext_model=build_pretext_model(cfg))
    if experiment_hash(state.config) != experiment_hash(cfg):
        raise ConfigError("state was produced under a different config")
    if state.phase in end and state.epoch < end[state.phase]:  # it steps again
        pc = getattr(cfg, state.phase)  # each epoch steps ceil(n / batch) times
        steps = state.epoch * -(-len(view) // pc.batch) if pc.optimizer == ADAM else 0
        if state.opt.step_count != steps:
            raise StateError(f"{state.phase} epoch {state.epoch} has taken "
                             f"{state.opt.step_count} optimizer steps, not {steps}")

    if state.phase == "pretrain":
        pretrain(cfg, view, state, end["pretrain"])
        if halt == "pretrain":
            return state, []
        state.phase, state.epoch, state.opt = "finetune", 0, OptimizerState()
        state.mad_model = transfer_weights(state.pretext_model, cfg)

    if state.phase == "finetune":
        finetune(cfg, view, val_ds, state, end["finetune"])
        if halt == "finetune":
            return state, []
        state.phase, state.opt = "done", None  # nothing resumes from "done"

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


def aggregate_records(records: list) -> dict:
    agg = {}
    for metric in ("auc", "auc_knn", "auc_knn_pretext"):
        for split in ("val", "test"):
            vals = [r[metric] for r in records if r["split"] == split]
            if vals:
                agg[f"{split}_{metric}"] = replicate_ci(vals)
    live = [r["live_centers"][-1] for r in records
            if r["split"] == "test" and r["live_centers"]]
    if live:
        agg["final_live_centers"] = replicate_ci(live)
    return agg


def resolve_workers(replicates: int, workers=None) -> int:
    """The worker processes that run ``replicates`` replicates: ``workers``,
    or one per usable core when None, at most one per replicate, and 1
    where processes cannot be forked."""
    if workers is None:
        workers = usable_cores()
    elif workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return min(workers, replicates) if hasattr(os, "fork") else 1


def _replicate_task(rcfg: ExperimentConfig, datasets):
    """One replicate, in this process or in a worker: (state, records, wall
    seconds), or the text of the MadlabError, float overflow or invalid
    float operation that stopped it. ``run_replicate`` is looked up when
    called, so a replacement installed on this module before the workers
    fork runs in them too."""
    t0 = time.monotonic()
    try:
        with np.errstate(over="raise", invalid="raise"):
            state, records = run_replicate(rcfg, datasets)
    except (MadlabError, FloatingPointError) as exc:
        return str(exc)
    return state, records, time.monotonic() - t0


_worker_datasets = None  # set in each worker process by _init_worker


def _init_worker(datasets, parent: int, stop):
    global _worker_datasets
    _worker_datasets = datasets
    threading.Thread(target=_exit_when_orphaned, args=(parent, stop),
                     daemon=True).start()


def _exit_when_orphaned(parent: int, stop):
    """Exit once ``parent`` is gone, not to wait on its queue for good, or
    once it sets ``stop``, not to finish a replicate nobody will read."""
    while os.getppid() == parent and not stop.value:
        time.sleep(0.5)
    os._exit(1)


def _worker_task(rcfg: ExperimentConfig):
    return _replicate_task(rcfg, _worker_datasets)


def _replicate_outcomes(rcfgs, datasets, workers: int):
    """``_replicate_task`` outcomes in replicate order: run here one after
    another with 1 worker, else in a pool of forked workers. Fork, not
    spawn: workers inherit the loaded modules, any patches on them and the
    datasets, so only configs and results are pickled. A replicate whose
    worker died yields its error text; workers end with the run or parent."""
    if workers == 1:
        yield from (_replicate_task(rcfg, datasets) for rcfg in rcfgs)
        return
    # imported here: the pool modules add about 20 ms to every start-up
    import multiprocessing
    from concurrent.futures import Future, ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    ctx = multiprocessing.get_context("fork")
    stop = ctx.RawValue("b", 0)  # fork shares it; no lock a dead worker holds
    pool = ProcessPoolExecutor(workers, mp_context=ctx,
                               initializer=_init_worker,
                               initargs=(datasets, os.getpid(), stop))
    try:
        futures = []
        for rcfg in rcfgs:
            try:
                futures.append(pool.submit(_worker_task, rcfg))
            except BrokenProcessPool as exc:  # a worker died before this submit
                futures.append(Future())
                futures[-1].set_exception(exc)
        for fut in futures:
            try:
                outcome = fut.result()
            except BrokenProcessPool as exc:
                outcome = f"worker process died: {exc}"
            yield outcome
    finally:  # also when the caller stops early: no worker outlives the run
        stop.value = 1
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
    # lay out every weight matrix of both networks now, so that a size numpy
    # refuses fails before any replicate starts, naming its config keys
    d = cfg.dims
    body = [("model.body width", w) for w in d.body]
    body[-1] = ("model.body's last width", d.body[-1])
    matrices = [(a, b, "an encoder layer")
                for a, b in zip([("data.dim", d.input_dim), *body], body)]
    matrices += [(body[-1], ("model.proj_dim", d.proj_dim), "a projection head"),
                 (body[-1], ("model.mad_dim", d.mad_dim), "a detection head")]
    for matrix in matrices:
        check_layout(*matrix)
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
    """Versioned npz, one vector per arena; restore refuses on hash mismatch."""
    opt = state.opt
    meta = {"version": CHECKPOINT_VERSION,
            "config": asdict(state.config),
            "config_hash": experiment_hash(state.config),
            "phase": state.phase, "epoch": state.epoch,
            "epochs": state.epochs if state.phase != "done" else [
                {k: v for k, v in rec.items() if k != "counts"}
                for rec in state.epochs],  # centers_r*.jsonl keeps the counts
            "opt": None if opt is None else {"step_count": opt.step_count}}
    arrays = {"meta_json": np.frombuffer(json.dumps(
        meta, sort_keys=True, separators=(",", ":")).encode(), dtype=np.uint8),
        "pretext": state.pretext_model.net.parameters().flat}
    if state.mad_model is not None:
        arrays["mad"] = state.mad_model.net.parameters().flat
    if opt is not None and opt.m is not None:
        arrays["opt_m"], arrays["opt_v"] = opt.m.flat, opt.v.flat
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
    except Exception as exc:  # bad zip/CRC, missing keys, invalid arrays
        kind = "" if isinstance(exc, StateError) else f"{type(exc).__name__}: "
        raise StateError(f"{path}: {kind}{exc}") from exc


def _fill(arena: Arena, z, name: str) -> Arena:
    """``arena``, laid out by the config, overwritten by stored ``name``."""
    vec = z[name]
    if vec.shape != arena.flat.shape:
        raise StateError(f"{name} holds {vec.size} values, not {arena.flat.size}")
    if not np.isfinite(vec).all():
        raise StateError(f"{name} holds non-finite values")
    arena.flat[:] = vec
    return arena


def _read_checkpoint(path) -> TrainerState:
    # np.load closes a file it opened itself only when the zip reader succeeds
    with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as z:
        meta = json.loads(bytes(z["meta_json"]).decode())
        if meta.get("version") != CHECKPOINT_VERSION:
            raise StateError(
                f"unsupported checkpoint version {meta.get('version')}")
        cfg = experiment_from_dict(meta["config"])
        if experiment_hash(cfg) != meta["config_hash"]:
            raise StateError("checkpoint config hash mismatch; refusing restore")

        # admit only what run_replicate writes; the phase decides what is read
        phase, epoch, ft = meta["phase"], meta["epoch"], cfg.finetune.epochs
        reached = {"pretrain": range(cfg.pretrain.epochs + 1),
                   "finetune": range(ft + 1), "done": [ft]}.get(phase, ())
        if type(epoch) is not int or epoch not in reached:
            raise StateError(f"no run writes phase {phase!r} at epoch {epoch!r}")
        if type(meta["epochs"]) is not list or phase != "done" and not meta["opt"]:
            raise StateError(f"{phase} epoch {epoch} lacks its records or optimizer")

        pretext = build_pretext_model(cfg)
        _fill(pretext.net.parameters(), z, "pretext")
        mad = centers = opt = None
        if phase != "pretrain":
            mad = transfer_weights(pretext, cfg)
            _fill(mad.net.parameters(), z, "mad")
            stored = z["centers"]  # checked before the set builds its terms
            if (stored.shape[1:] != (cfg.dims.mad_dim,)
                    or not np.isfinite(stored).all()):
                raise StateError(f"centers must be finite and {cfg.dims.mad_dim} "
                                 f"wide, got shape {stored.shape}")
            centers = CenterSet(stored, z["centers_live"], z["centers_counts"])
            if centers.n_live != meta["epochs"][-1]["live"]:
                raise StateError(f"{centers.n_live} centers are flagged live, not "
                                 f"the {meta['epochs'][-1]['live']} last recorded")
        if phase != "done":  # the config gives rule, lr and decay
            opt = OptimizerState(step_count=meta["opt"]["step_count"])
            if opt.step_count > 0:  # Adam made its moments on its first step
                params = (mad or pretext).net.parameters()
                opt.m = _fill(params.zeros_like(), z, "opt_m")
                opt.v = _fill(params.zeros_like(), z, "opt_v")

    return TrainerState(cfg, phase, epoch, pretext, mad, opt, centers, meta["epochs"])
