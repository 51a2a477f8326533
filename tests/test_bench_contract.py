"""The benchmark must still find what it uses of madlab.

``perfbench/tracer.py`` patches madlab's public functions under the names
through which trainer, cli and data call them, and ``perfbench/workloads.py``
checks that every checkpoint round-trips. A refactor that breaks either
fails only when the benchmark runs, so these tests run both here.
"""

import sys
from pathlib import Path

import pytest

from madlab import cli
from madlab.config import apply_overrides, default_config, to_experiment
from madlab.trainer import run_replicate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


TOY_OVERRIDES = [
    "data.dim=8", "data.modes=2", "data.train_size=120", "data.val_size=40",
    "data.test_size=40", "data.normal_rank=6", "model.body=8",
    "model.proj_dim=4", "model.mad_dim=4", "pretrain.epochs=2",
    "finetune.epochs=2", "finetune.n_s=4", "eval.knn_k=5"]


def toy_config():
    return to_experiment(apply_overrides(default_config(), TOY_OVERRIDES))


def test_tracer_patches_and_restores_every_attribute():
    t = tracer.Tracer()
    try:
        tracer.install(t)  # AttributeError if a patch point is gone
        patched = list(t._patched)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        t.unpatch()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner}.{attr}"


@pytest.mark.parametrize("stop", [("pretrain", 1), None],
                         ids=["mid_pretrain", "done"])
def test_checkpoint_round_trip_check_passes(tmp_path, stop):
    state, _ = run_replicate(toy_config(), stop=stop)
    assert workloads._round_trips(state, str(tmp_path / "ckpt.npz"))


def test_step_and_center_spans_are_direct_children_of_the_phase():
    # step_us, bookkeeping_s and center_survival read these parent links
    t = tracer.Tracer()
    tracer.install(t)
    try:
        run_replicate(toy_config())
    finally:
        t.unpatch()
    by_id = {s.id: s for s in t.spans}
    expected = {"numcore.optimizer_step": ("trainer.pretrain",
                                           "trainer.finetune"),
                "losses.info_nce": ("trainer.pretrain",),
                "losses.mad_loss": ("trainer.finetune",),
                "spheres.kmeans": ("trainer.finetune",),
                "spheres.prune": ("trainer.finetune",)}
    for name, parents in expected.items():
        spans = [s for s in t.spans if s.name == name]
        assert spans, name
        for s in spans:
            parent = by_id[s.parent].name if s.parent is not None else None
            assert parent in parents, f"{name} under {parent}"
    steps = [by_id[s.parent].name for s in t.spans
             if s.name == "numcore.optimizer_step"]
    assert {"trainer.pretrain", "trainer.finetune"} <= set(steps)


@pytest.mark.parametrize("embedding", ["mad", "pretext"])
def test_eval_scoring_spans_are_direct_children_of_cli_eval(tmp_path,
                                                            embedding):
    # evaluation.knn_score.s, .matrix_mb and cli.eval.self_s read these links
    data, run = tmp_path / "data", tmp_path / "run"
    sets = [a for o in TOY_OVERRIDES for a in ("--set", o)]
    assert cli.main(["generate", "--out", str(data)] + sets) == 0
    assert cli.main(["train", "--data", str(data), "--out", str(run),
                     "--replicates", "1"] + sets) == 0
    t = tracer.Tracer()
    tracer.install(t)
    try:
        code = cli.main(["eval", "--checkpoint", str(run / "checkpoint_r0.npz"),
                         "--data", str(data), "--out", str(tmp_path / "eval"),
                         "--embedding", embedding])
    finally:
        t.unpatch()
    assert code == 0
    by_id = {s.id: s for s in t.spans}
    for name in ("spheres.anomaly_scores", "evaluation.knn_score",
                 "evaluation.auc"):
        spans = [s for s in t.spans if s.name == name]
        assert spans, name
        for s in spans:
            assert by_id[s.parent].name == "cli.eval", name
            if name == "evaluation.knn_score":
                assert s.amount is not None
