"""``tools/bench_pairs.py``: the score_io CLI round it measures, and the
bound flag of the entry it writes."""

import json
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402

TOY_SETS = [
    "data.dim=8", "data.modes=2", "data.train_size=120", "data.val_size=40",
    "data.test_size=60", "data.normal_rank=6", "model.body=8",
    "model.proj_dim=4", "model.mad_dim=4", "pretrain.epochs=1",
    "finetune.epochs=2", "finetune.n_s=4", "eval.knn_k=5",
    "run.replicates=2"]
ROUND_METRICS = [f"{command}_{unit}"
                 for command in ("generate", "train", "eval_mad",
                                 "eval_pretext")
                 for unit in ("s", "peak_rss_mb")] + ["round_peak_rss_mb"]


def _tree(path: Path, sets) -> str:
    """A tree whose ``src`` is this checkout's and whose score_io workload
    sets ``sets``."""
    (path / "src").symlink_to(ROOT / "src")
    (path / "perfbench").mkdir()
    (path / "perfbench" / "workloads.json").write_text(json.dumps(
        {"workloads": {"score_io": {"set": sets}}}))
    return str(path)


@pytest.fixture(scope="module")
def toy_rounds(tmp_path_factory):
    tree = _tree(tmp_path_factory.mktemp("tree"), TOY_SETS)
    return Path(tree), [bench_pairs.run_round(tree, Namespace(seed=7))
                        for _ in range(2)]


def test_round_measures_every_command_and_repeats_its_fingerprint(
        toy_rounds):
    _, runs = toy_rounds
    for run in runs:
        assert run["exit_code"] == 0
        assert (run["result"]["attempted"], run["result"]["failed"]) == (4, 0)
        metrics = {name: m["value"]
                   for name, m in run["result"]["metrics"].items()}
        assert sorted(metrics) == sorted(ROUND_METRICS)
        assert all(value > 0 for value in metrics.values())
        assert metrics["round_peak_rss_mb"] == max(
            v for name, v in metrics.items() if name.endswith("_mb"))
        assert run["env"]["src_lines"] > 0
    assert runs[0]["fingerprint"] == runs[1]["fingerprint"]
    assert runs[0]["sha256"] == runs[1]["sha256"]


def test_round_hashes_every_output_but_run_info(toy_rounds):
    tree, runs = toy_rounds
    # train writes timings to run_info.json in each round; they differ
    assert len(list(tree.glob(".bench_round_*/run/run_info.json"))) == 2
    assert sorted(runs[0]["sha256"]) == sorted(
        [f"data/{split}.csv" for split in ("train", "val", "test")]
        + [f"run/{name}" for name in (
            "centers_r0.jsonl", "centers_r1.jsonl", "checkpoint_r0.npz",
            "checkpoint_r1.npz", "config.cfg", "metrics.json")]
        + [f"eval_{e}/{name}" for e in ("mad", "pretext")
           for name in ("eval_metrics.json", "scores.csv")])



def test_round_counts_a_failed_command(tmp_path):
    run = bench_pairs.run_round(_tree(tmp_path, ["data.dim=0"]),
                                Namespace(seed=7))
    assert run["exit_code"] != 0
    assert (run["result"]["attempted"], run["result"]["failed"]) == (4, 4)


def _run(**values):
    return {"exit_code": 0, "fingerprint": "f",
            "result": {"attempted": 1, "failed": 0, "metrics": {
                name: {"value": value} for name, value in values.items()}}}


@pytest.mark.parametrize("name, parent, change, beyond", [
    ("setup_s", 0.540, 0.714, True),     # +32 % against a 0.25 bound
    ("setup_s", 0.540, 0.660, False),    # +22 %
    ("setup_s", 0.540, 0.100, False),    # faster
    ("test_auc", 0.90, 0.60, True),      # higher is better: a fall is worse
    ("test_auc", 0.90, 0.75, False),
    ("test_auc", 0.60, 0.90, False),
])
def test_summary_flags_an_end_to_end_metric_worse_beyond_its_bound(
        capsys, name, parent, change, beyond):
    spec = {"setup_s": {"better": "lower", "bound": 0.25},
            "test_auc": {"better": "higher", "bound": 0.24},
            "trainer.steps": {"better": "lower"}}
    runs = [{"parent": _run(**{name: parent, "trainer.steps": 3}),
             "change": _run(**{name: change, "trainer.steps": 9})}] * 3
    entry = bench_pairs.summarise(
        Namespace(seed=1, pairs=3, workload="score_io"), runs, spec)
    assert entry["metrics"][name]["beyond_bound"] is beyond
    assert "beyond_bound" not in entry["metrics"]["trainer.steps"]
    assert (f"{name} median" in capsys.readouterr().err) is beyond


def test_help_exits_zero_and_offers_the_round():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" /
                                               "bench_pairs.py"), "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "score_io_round" in proc.stdout
