import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import madlab.trainer as trainer_mod
from madlab.cli import (EXIT_CHECKPOINT, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK,
                        EXIT_REPLICATES, EXIT_SCHEMA, main)


SMALL_SETS = [
    "--set", "data.dim=8", "--set", "data.modes=2",
    "--set", "data.train_size=160", "--set", "data.val_size=80",
    "--set", "data.test_size=80", "--set", "data.normal_rank=6",
    "--set", "data.contamination=0.1", "--set", "data.labeled_ratio=0.1",
    "--set", "model.body=16,8", "--set", "model.proj_dim=4",
    "--set", "model.mad_dim=4", "--set", "pretrain.epochs=2",
    "--set", "pretrain.batch=16", "--set", "finetune.epochs=3",
    "--set", "finetune.n_s=6", "--set", "eval.knn_k=10",
    "--set", "run.replicates=2",
]


@pytest.fixture()
def data_dir(tmp_path):
    out = tmp_path / "data"
    assert main(["generate", "--out", str(out)] + SMALL_SETS) == EXIT_OK
    return out


@pytest.fixture()
def trained_dir(tmp_path, data_dir):
    out = tmp_path / "run"
    code = main(["train", "--data", str(data_dir), "--out", str(out)]
                + SMALL_SETS)
    assert code == EXIT_OK
    return out


def test_generate_writes_three_csvs(data_dir):
    rows = {}
    for split, expected in (("train", 160), ("val", 80), ("test", 80)):
        path = data_dir / f"{split}.csv"
        assert path.exists()
        rows[split] = sum(1 for _ in open(path)) - 1
        assert rows[split] == expected


def test_generate_default_config_row_counts(tmp_path):
    out = tmp_path / "default"
    assert main(["generate", "--out", str(out)]) == EXIT_OK
    for split, expected in (("train", 2000), ("val", 1000), ("test", 1000)):
        rows = sum(1 for _ in open(out / f"{split}.csv")) - 1
        assert rows == expected


def test_generate_seed_reproducible(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["generate", "--out", str(out), "--seed", "7"]
                    + SMALL_SETS) == EXIT_OK
        outs.append({f: open(out / f, "rb").read()
                     for f in ("train.csv", "val.csv", "test.csv")})
    assert outs[0] == outs[1]


def test_generate_contamination_row_count(data_dir):
    lines = open(data_dir / "train.csv").read().splitlines()[1:]
    n_ab = sum(1 for l in lines if l.split(",")[2] == "abnormal")
    assert abs(n_ab - 16) <= 1  # 10% of 160


def test_generate_invalid_config_exits_1(tmp_path):
    code = main(["generate", "--out", str(tmp_path / "x"),
                 "--set", "data.bogus=1"])
    assert code == EXIT_CONFIG


def test_train_outputs(trained_dir):
    doc = json.loads((trained_dir / "metrics.json").read_text())
    assert doc["replicates_completed"] == 2
    assert {r["replicate"] for r in doc["records"]} == {0, 1}
    assert len(doc["records"]) == 4  # val + test per replicate
    for r in doc["records"]:
        assert {"replicate", "split", "auc", "auc_knn", "epoch_auc",
                "live_centers"} <= set(r)
    assert "test_auc" in doc["aggregate"]
    assert (trained_dir / "config.cfg").exists()
    assert (trained_dir / "run_info.json").exists()
    for r in (0, 1):
        assert (trained_dir / f"checkpoint_r{r}.npz").exists()
        lines = (trained_dir / f"centers_r{r}.jsonl").read_text().splitlines()
        recs = [json.loads(l) for l in lines]
        assert recs[0]["epoch"] == 0 and "live" in recs[0] and "counts" in recs[0]


def test_train_metrics_deterministic(tmp_path, data_dir):
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["train", "--data", str(data_dir), "--out", str(out)]
                    + SMALL_SETS) == EXIT_OK
        blobs.append((out / "metrics.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_train_set_override_changes_hash(tmp_path, data_dir, trained_dir):
    out = tmp_path / "uni"
    assert main(["train", "--data", str(data_dir), "--out", str(out)]
                + SMALL_SETS + ["--set", "finetune.n_s=1"]) == EXIT_OK
    uni = json.loads((out / "metrics.json").read_text())
    base = json.loads((trained_dir / "metrics.json").read_text())
    assert uni["config_hash"] != base["config_hash"]
    assert all(r["live_centers"][-1] == 1 for r in uni["records"])


def test_train_labeled_ratio_sweep(tmp_path, data_dir):
    out = tmp_path / "sweep"
    code = main(["train", "--data", str(data_dir), "--out", str(out),
                 "--labeled-ratio", "0.05", "--labeled-ratio", "0.1"]
                + SMALL_SETS)
    assert code == EXIT_OK
    assert (out / "labeled_0.05" / "metrics.json").exists()
    assert (out / "labeled_0.1" / "metrics.json").exists()


def test_train_schema_violation_exits_2(tmp_path, data_dir):
    (data_dir / "train.csv").write_text("garbage,header\n1,2\n")
    code = main(["train", "--data", str(data_dir),
                 "--out", str(tmp_path / "x")] + SMALL_SETS)
    assert code == EXIT_SCHEMA


@pytest.mark.parametrize("target, expected", [
    ("config", EXIT_CONFIG), ("train_csv", EXIT_SCHEMA)],
    ids=["config", "train_csv"])
def test_undecodable_input_exits_documented_code(tmp_path, data_dir, capsys,
                                                 target, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("run.replicates=2\n")
    bad = cfg if target == "config" else data_dir / "train.csv"
    bad.write_bytes(b"\xff\xfe\x00")
    code = main(["train", "--data", str(data_dir), "--out",
                 str(tmp_path / "x"), "--config", str(cfg)] + SMALL_SETS)
    err = capsys.readouterr().err
    assert code == expected
    assert err.startswith("error:") and "Traceback" not in err
    assert str(bad) in err


def test_eval_replays_recorded_val_auc(tmp_path, trained_dir, data_dir):
    doc = json.loads((trained_dir / "metrics.json").read_text())
    recorded = [r for r in doc["records"]
                if r["replicate"] == 0 and r["split"] == "val"][0]

    out = tmp_path / "eval"
    code = main(["eval", "--checkpoint",
                 str(trained_dir / "checkpoint_r0.npz"),
                 "--data", str(data_dir), "--out", str(out),
                 "--split", "val"])
    assert code == EXIT_OK
    metrics = json.loads((out / "eval_metrics.json").read_text())
    assert metrics["auc"] == recorded["epoch_auc"][-1]  # exact replay
    assert metrics["auc"] == recorded["auc"]

    header = open(out / "scores.csv").readline().strip()
    assert header == "id,score,score_knn,ground_truth"
    rows = open(out / "scores.csv").read().splitlines()[1:]
    assert len(rows) == 80
    for row in rows[:5]:
        _id, score, knn, gt = row.split(",")
        assert float(score) >= 0.0 and float(knn) >= 0.0
        assert gt in ("normal", "abnormal")


def test_eval_embedding_spaces_differ(tmp_path, trained_dir, data_dir):
    cols = {}
    for emb in ("mad", "pretext"):
        out = tmp_path / f"eval_{emb}"
        assert main(["eval", "--checkpoint",
                     str(trained_dir / "checkpoint_r0.npz"),
                     "--data", str(data_dir), "--out", str(out),
                     "--embedding", emb]) == EXIT_OK
        rows = open(out / "scores.csv").read().splitlines()[1:]
        cols[emb] = [(r.split(",")[1], r.split(",")[2]) for r in rows]
    mad_scores = [c[0] for c in cols["mad"]]
    pre_scores = [c[0] for c in cols["pretext"]]
    assert mad_scores == pre_scores  # center-distance column is fixed
    assert [c[1] for c in cols["mad"]] != [c[1] for c in cols["pretext"]]


def test_eval_missing_checkpoint_exits_4(tmp_path, data_dir):
    code = main(["eval", "--checkpoint", str(tmp_path / "none.npz"),
                 "--data", str(data_dir)])
    assert code == EXIT_CHECKPOINT


def test_eval_corrupt_checkpoint_exits_4(tmp_path, trained_dir, data_dir,
                                        capsys):
    path = trained_dir / "checkpoint_r0.npz"
    path.write_bytes(path.read_bytes()[:1000])
    code = main(["eval", "--checkpoint", str(path), "--data", str(data_dir)])
    err = capsys.readouterr().err
    assert code == EXIT_CHECKPOINT
    assert err.startswith("error:") and "Traceback" not in err


def test_compare_file_with_itself(tmp_path, trained_dir, capsys):
    m = str(trained_dir / "metrics.json")
    assert main(["compare", m, m]) == EXIT_OK
    out = capsys.readouterr().out
    assert "p = 1" in out and "code ns" in out


def test_compare_writes_report(tmp_path, trained_dir):
    m = str(trained_dir / "metrics.json")
    out = tmp_path / "cmp"
    assert main(["compare", m, m, "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "compare_report.json").read_text())
    assert doc["p"] == 1.0 and doc["code"] == "ns"


def test_compare_too_few_replicates_exits_5(tmp_path, trained_dir):
    single = {"records": [{"replicate": 0, "split": "test", "auc": 0.9}]}
    p = tmp_path / "one.json"
    p.write_text(json.dumps(single))
    code = main(["compare", str(p), str(trained_dir / "metrics.json")])
    assert code == EXIT_REPLICATES


@pytest.mark.parametrize("text", [
    '{"records": [',
    '[{"split": "test", "auc": 0.9}]',
    '{"records": [{"split": "test", "auc": "x"},'
    ' {"split": "test", "auc": "y"}]}',
    '{"records": [{"split": "test", "auc": NaN},'
    ' {"split": "test", "auc": NaN}]}',
], ids=["invalid_json", "top_level_list", "non_numeric_value", "nan_value"])
def test_compare_malformed_metrics_exits_2(tmp_path, trained_dir, capsys,
                                           text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code = main(["compare", str(bad), str(trained_dir / "metrics.json")])
    err = capsys.readouterr().err
    assert code == EXIT_SCHEMA
    assert err.startswith("error:") and "Traceback" not in err


def test_bad_log_level_env(tmp_path, monkeypatch):
    monkeypatch.setenv("MADLAB_LOG", "loud")
    assert main(["generate", "--out", str(tmp_path / "x")]) == EXIT_CONFIG


@pytest.mark.parametrize("key", ["pretrain.optimizer", "finetune.optimizer"])
def test_train_optimizer_typo_exits_1(tmp_path, data_dir, capsys, key):
    out = tmp_path / "run"
    code = main(["train", "--data", str(data_dir), "--out", str(out)]
                + SMALL_SETS + ["--set", f"{key}=adamw"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("run/checkpoint_r*.npz"))


@pytest.mark.parametrize("loss_name, where", [
    ("info_nce_loss", "pretext epoch 0 batch 0"),
    ("mad_loss", "finetune epoch 0 batch 0"),
], ids=["pretext", "finetune"])
def test_train_numeric_abort_exits_3(tmp_path, data_dir, capsys, monkeypatch,
                                     loss_name, where):
    real = getattr(trainer_mod, loss_name)

    def nan_loss(z, *args):
        out = real(z, *args)
        if loss_name == "mad_loss" and len(z) == args[3]:  # epoch objective
            return out
        return (float("nan"), *out[1:])

    monkeypatch.setattr(trainer_mod, loss_name, nan_loss)
    code = main(["train", "--data", str(data_dir), "--out",
                 str(tmp_path / "run")] + SMALL_SETS)
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC
    assert err.startswith("error:") and "Traceback" not in err
    assert f"replicate 0: {where}: non-finite loss" in err


# sha256 of metrics.json from the two-subprocess run below (SMALL_SETS,
# default seed); any change to the training numerics moves it.
SMALL_METRICS_SHA256 = (
    "6d2e3889c1692d257c06f5a2e273b58836fc21d6d1d5dd3b451755a2d306a493")


def _train_in_subprocess(out: Path, blas_threads: int,
                         train_args=()) -> bytes:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    env.pop("MADLAB_LOG", None)
    for argv in (["generate", "--out", str(out / "data")],
                 ["train", "--data", str(out / "data"), "--out",
                  str(out / "run"), *train_args]):
        subprocess.run([sys.executable, "-m", "madlab.cli", *argv,
                        *SMALL_SETS], env=env, check=True,
                       capture_output=True, timeout=300)
    return (out / "run" / "metrics.json").read_bytes()


def test_train_metrics_pinned_and_blas_thread_invariant(tmp_path):
    one = _train_in_subprocess(tmp_path / "blas1", 1)
    two = _train_in_subprocess(tmp_path / "blas2", 2)
    assert one == two
    assert hashlib.sha256(one).hexdigest() == SMALL_METRICS_SHA256


def test_train_outputs_identical_at_1_and_2_workers(tmp_path):
    outputs = {}
    for workers in (1, 2):
        run = tmp_path / f"w{workers}"
        metrics = _train_in_subprocess(run, 1, ["--workers", str(workers)])
        assert hashlib.sha256(metrics).hexdigest() == SMALL_METRICS_SHA256
        files = sorted((run / "run").glob("*_r*.*"))
        assert [f.name for f in files] == [
            "centers_r0.jsonl", "centers_r1.jsonl",
            "checkpoint_r0.npz", "checkpoint_r1.npz"]
        outputs[workers] = [f.read_bytes() for f in files]
        info = json.loads((run / "run" / "run_info.json").read_text())
        assert info["workers"] == workers
        assert len(info["replicate_sec"]) == 2
        assert all(s > 0 for s in info["replicate_sec"])
    assert outputs[1] == outputs[2]


@pytest.mark.parametrize("value", ["0", "x", "-1"])
def test_train_bad_worker_count_exits_1(tmp_path, data_dir, capsys, value):
    code = main(["train", "--data", str(data_dir), "--out",
                 str(tmp_path / "run"), "--workers", value] + SMALL_SETS)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and "--workers" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_train_dead_worker_exits_3(tmp_path, data_dir, capsys, monkeypatch):
    real = trainer_mod.run_replicate
    first_seed = trainer_mod.ExperimentConfig().seed

    def dies_on_replicate_0(cfg, datasets=None, **kw):
        if cfg.seed == first_seed:
            os._exit(1)  # the forked worker inherits this patch
        return real(cfg, datasets, **kw)

    monkeypatch.setattr(trainer_mod, "run_replicate", dies_on_replicate_0)
    code = main(["train", "--data", str(data_dir), "--out",
                 str(tmp_path / "run"), "--workers", "2"] + SMALL_SETS)
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC
    assert err.startswith("error:") and "Traceback" not in err
    assert "replicate 0: worker process died: " in err
    doc = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert doc["errors"][0]["replicate"] == 0
    assert all(e["error"].startswith("worker process died: ")
               for e in doc["errors"])


@pytest.mark.parametrize("split", ["train", "val"])
def test_huge_feature_value_exits_2(eval_inputs, tmp_path, capsys, split):
    # a finite value whose square overflows float64
    shutil.copytree(eval_inputs / "orig", tmp_path / "data")
    (tmp_path / "data" / "checkpoint.npz").rename(tmp_path / "checkpoint.npz")
    path = tmp_path / "data" / f"{split}.csv"
    header, first, *rows = path.read_text().splitlines(keepends=True)
    fields = first.split(",")
    fields[4] = "1e200"
    path.write_text(header + ",".join(fields) + "".join(rows))
    for argv in (["train", "--data", str(tmp_path / "data"), "--out",
                  str(tmp_path / "run")] + SMALL_SETS,
                 ["eval", "--checkpoint", str(tmp_path / "checkpoint.npz"),
                  "--data", str(tmp_path / "data")]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_SCHEMA, err
        assert err.startswith(f"error: {path}:2: feature values too large")
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    """A one-replicate toy run; ``orig/`` holds its CSVs and checkpoint."""
    root = tmp_path_factory.mktemp("eval_inputs")
    assert main(["generate", "--out", str(root / "orig")]
                + SMALL_SETS) == EXIT_OK
    assert main(["train", "--data", str(root / "orig"), "--out",
                 str(root / "run"), "--replicates", "1"]
                + SMALL_SETS) == EXIT_OK
    (root / "run" / "checkpoint_r0.npz").rename(
        root / "orig" / "checkpoint.npz")
    return root


def _eval_exit(case: Path) -> tuple:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["eval", "--checkpoint", str(case / "checkpoint.npz"),
                     "--data", str(case / "data"), "--out", str(case / "out")])
    return code, err.getvalue()


@pytest.mark.parametrize("target", ["checkpoint.npz", "train.csv", "val.csv",
                                    "test.csv"])
@settings(max_examples=50, deadline=None)
@given(damage=st.sampled_from(["flip", "truncate"]),
       position=st.integers(min_value=0, max_value=2 ** 31),
       mask=st.integers(min_value=1, max_value=255))
# found by this test: val.csv cut after rows that are all normal
@example(damage="truncate", position=403, mask=1)
def test_eval_on_damaged_input_exits_documented_code(eval_inputs, target,
                                                     damage, position, mask):
    root = eval_inputs
    blobs = {f.name: f.read_bytes() for f in (root / "orig").iterdir()}
    blob = bytearray(blobs[target])
    position %= len(blob)
    if damage == "flip":
        blob[position] ^= mask
    else:
        del blob[position:]
    case = root / "case"
    (case / "data").mkdir(parents=True, exist_ok=True)
    for name, original in blobs.items():
        path = case / ("" if name == "checkpoint.npz" else "data") / name
        path.write_bytes(bytes(blob) if name == target else original)

    code, err = _eval_exit(case)
    assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_CHECKPOINT), err
    if code != EXIT_OK:
        assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("split, column, keep", [
    ("train", 3, "abnormal"),   # no presumed-normal kNN reference row
    ("val", 2, "normal"),       # an AUC over one class
    ("test", 2, "abnormal"),
], ids=["train_known_abnormal_only", "val_normal_only", "test_abnormal_only"])
def test_eval_split_unfit_for_scoring_exits_2(eval_inputs, tmp_path, split,
                                              column, keep):
    case = tmp_path
    shutil.copytree(eval_inputs / "orig", case / "data")
    (case / "data" / "checkpoint.npz").rename(case / "checkpoint.npz")
    path = case / "data" / f"{split}.csv"
    header, *rows = path.read_text().splitlines(keepends=True)
    path.write_text(header + "".join(r for r in rows
                                     if r.split(",")[column] == keep))
    code, err = _eval_exit(case)
    assert code == EXIT_SCHEMA
    assert err.startswith("error:") and f"{split} split" in err


def test_usage_error_exits_1():
    assert main(["train"]) == EXIT_CONFIG  # missing required flags


def test_console_script_installed():
    import shutil
    import subprocess
    exe = shutil.which("madlab")
    assert exe, "console script not on PATH"
    out = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert out.returncode == 0
