import contextlib
import errno
import hashlib
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

import madlab.cli as cli_mod
import madlab.config as config_mod
import madlab.data as data_mod
import madlab.trainer as trainer_mod
from madlab.cli import (EXIT_CHECKPOINT, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK,
                        EXIT_REPLICATES, EXIT_SCHEMA, main)
from madlab.config import default_config, serialize_config


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
        rows[split] = len(path.read_text().splitlines()) - 1
        assert rows[split] == expected


def test_generate_default_config_row_counts(tmp_path):
    out = tmp_path / "default"
    assert main(["generate", "--out", str(out)]) == EXIT_OK
    for split, expected in (("train", 2000), ("val", 1000), ("test", 1000)):
        rows = len((out / f"{split}.csv").read_text().splitlines()) - 1
        assert rows == expected


def test_generate_seed_reproducible(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["generate", "--out", str(out), "--seed", "7"]
                    + SMALL_SETS) == EXIT_OK
        outs.append({f: (out / f).read_bytes()
                     for f in ("train.csv", "val.csv", "test.csv")})
    assert outs[0] == outs[1]


def test_generate_contamination_row_count(data_dir):
    lines = (data_dir / "train.csv").read_text().splitlines()[1:]
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


FLOAT_KEYS = [k for k, v in default_config().items() if type(v) is float]


# nan and inf used to pass the parser and end in a traceback
# (shell_outer, scale_jitter), exit 2 (ambient_noise) or exit 3 (lr)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_key_exits_1(tmp_path, capsys, key, value):
    code = main(["generate", "--out", str(tmp_path / "data"),
                 "--set", f"{key}={value}"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and key in err and "finite" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "data").exists()


def test_train_non_finite_float_key_exits_1(tmp_path, data_dir, capsys):
    code = main(["train", "--data", str(data_dir), "--out",
                 str(tmp_path / "run"), *SMALL_SETS,
                 "--set", "augment.scale_jitter=inf"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and "augment.scale_jitter" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "run").exists()


# finite values outside these keys' domains used to pass with exit 0
@pytest.mark.parametrize("key, value", [
    ("finetune.eps_d", "-1"), ("finetune.eps_d", "0"),
    ("pretrain.decay_factor", "-1"), ("finetune.decay_factor", "0"),
    ("pretrain.weight_decay", "-1"), ("finetune.weight_decay", "-0.5")])
def test_out_of_domain_key_exits_1(tmp_path, capsys, key, value):
    code = main(["generate", "--out", str(tmp_path / "data"),
                 "--set", f"{key}={value}"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith(f"error: {key} must be")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("command", ["generate", "train"])
def test_negative_seed_exits_1(tmp_path, data_dir, capsys, command):
    # used to end in a numpy traceback, after train had made its --out dir
    out = tmp_path / "out"
    argv = [command, "--out", str(out), "--seed", "-1", *SMALL_SETS]
    code = main(argv + (["--data", str(data_dir)] if command == "train" else []))
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error: run.seed must be finite and in [0, inf)")
    assert err.count("\n") == 1
    assert not out.exists()


# above 1 a view's scale 1 +- jitter can turn negative; 1e308 used to end
# in an OverflowError traceback from rng.uniform
@pytest.mark.parametrize("value", ["1.5", "1e308"])
def test_train_scale_jitter_above_1_exits_1(tmp_path, data_dir, capsys, value):
    code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "run"),
                 *SMALL_SETS, "--set", f"augment.scale_jitter={value}"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error: augment.scale_jitter must be finite and in "
                          "[0, 1], got")
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


# used to exit 2 (mode_sigma, ambient_noise: "non-finite feature values")
# or 0 with a RuntimeWarning and splits that train refused (center_spacing);
# mode centers whose distances overflow count as too close to place
@pytest.mark.parametrize("key", ["data.mode_sigma", "data.ambient_noise",
                                 "data.center_spacing"])
def test_generator_overflow_exits_1(tmp_path, capsys, key):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["generate", "--out", str(tmp_path / "data"),
                     *SMALL_SETS, "--set", f"{key}=1e308"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    if key == "data.ambient_noise":
        assert err.startswith("error: generated train features overflow")
    else:
        assert err.startswith("error: could not place mode centers")
        assert "data.mode_sigma=" in err and "data.center_spacing=" in err
    assert err.count("\n") == 1 and not caught
    assert not (tmp_path / "data").exists()


# a train value of 1e150 fits float64 squared, so the split loads, but its
# gradients overflow: this used to exit 0 with numpy RuntimeWarnings and
# frozen weights
@pytest.mark.parametrize("every", [False, True], ids=["one-value", "all"])
def test_train_overflow_exits_3(tmp_path, data_dir, capsys, every):
    path = data_dir / "train.csv"
    header, *rows = path.read_text().splitlines()
    for i, row in enumerate(rows if every else rows[:1]):
        fields = row.split(",")
        for j in range(4, len(fields) if every else 5):
            fields[j] = "1e150"
        rows[i] = ",".join(fields)
    path.write_text("\n".join([header, *rows]) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--data", str(data_dir), "--out",
                     str(tmp_path / "run"), "--workers", "1", *SMALL_SETS])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        err.splitlines()[0]]
    assert "overflow" in err and "Traceback" not in err
    assert "replicate 0: finetune epoch 0" in err
    assert every or "replicate 0: finetune epoch 0 batch" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# eps_d ** 2 overflows; it used to abort every replicate (exit 3) although
# no row below the floor has a gradient to scale
def test_train_huge_eps_d_exits_0(tmp_path, data_dir, capsys):
    code = main(["train", "--data", str(data_dir), "--out",
                 str(tmp_path / "run"), "--workers", "1", *SMALL_SETS,
                 "--set", "finetune.eps_d=1e308"])
    assert code == EXIT_OK, capsys.readouterr().err


# the default config's modes cannot be placed apart: distances underflow
# to 0, or the required separation is inf
def test_unplaceable_mode_centers_name_their_keys(tmp_path, capsys):
    for value in ("1e308", "5e-324"):
        code = main(["generate", "--out", str(tmp_path / "data"),
                     "--set", f"data.mode_sigma={value}"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("error: could not place mode centers")
        assert "data.mode_sigma" in err and "data.center_spacing" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "data").exists()


def _child_env(blas_threads: int) -> dict:
    """This process's environment for a child that imports this tree's
    madlab at the given BLAS thread count and the default log level."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    env.pop("MADLAB_LOG", None)
    return env


# sizes whose arrays numpy or Python refuses at once (8 EB and more); the
# child's address space is capped, so no attempt can fill memory
HUGE = str(10 ** 18)


HUGE_SIZES = [
    ("generate", "data.train_size", HUGE), ("generate", "data.val_size", HUGE),
    ("generate", "data.test_size", HUGE), ("generate", "data.dim", HUGE),
    ("generate", "data.modes", HUGE),
    # the centers fit, but their (modes, modes) distance matrix does not
    ("generate", "data.modes", "100000"),
    ("train", "model.body", HUGE), ("train", "model.mad_dim", HUGE),
    ("train", "model.body", f"{HUGE},32"), ("train", "model.proj_dim", HUGE)]


@pytest.mark.parametrize("command, key, value", HUGE_SIZES, ids=[
    f"{c}-{k}" + ("-first_width" if "," in v else "")
    + ("" if v.startswith(HUGE) else f"-{v}") for c, k, v in HUGE_SIZES])
def test_huge_size_exits_1(tmp_path, data_dir, command, key, value):
    argv = ([command, "--out", str(tmp_path / "out"), *TOY_SETS]
            + (["--data", str(data_dir), "--workers", "1"]
               if command == "train" else [])
            + ["--set", f"{key}={value}"])
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS,\n"
            "                   (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "from madlab.cli import main\n"
            f"sys.exit(main({argv!r}))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(1),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and key in line


def test_huge_mad_dim_fails_before_pretraining(tmp_path, data_dir, capsys,
                                               monkeypatch):
    def pretrain(*args):
        raise AssertionError("pretraining started")

    monkeypatch.setattr(trainer_mod, "pretrain", pretrain)
    out = tmp_path / "run"
    code = main(["train", "--data", str(data_dir), "--out", str(out),
                 "--workers", "1", *TOY_SETS, "--set", f"model.mad_dim={HUGE}"])
    [line] = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert line.startswith(f"error: model.body's last width 8 and "
                           f"model.mad_dim {HUGE} give a detection head that "
                           f"cannot be allocated: ")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, target", [
    ("generate", "train.csv"), ("train", "checkpoint_r0.npz"),
    ("eval", "scores.csv")])
def test_write_error_names_the_file(tmp_path, request, data_dir, command,
                                    target):
    out = tmp_path / "out"
    argv = {"generate": ["generate", "--out", str(out), *SMALL_SETS],
            "train": ["train", "--data", str(data_dir), "--out", str(out),
                      "--workers", "1", *TOY_SETS],
            "eval": ["eval", "--data", str(data_dir), "--out", str(out),
                     "--checkpoint", str(tmp_path / "run" / "checkpoint_r0.npz")],
            }[command]
    if command == "eval":
        request.getfixturevalue("trained_dir")
    code = ("import resource, signal, sys\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE,\n"
            "                   (2000, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))\n"
            "from madlab.cli import main\n"
            f"sys.exit(main({argv!r}))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(1),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line == (f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: "
                    f"'{out / target}'")
    assert list(out.iterdir()) == []  # neither the file nor its temp file


def test_main_restores_the_sigterm_handler():
    before = signal.getsignal(signal.SIGTERM)
    assert main(["generate"]) == EXIT_CONFIG  # no --out
    assert signal.getsignal(signal.SIGTERM) is before


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _slow_train(tmp_path, data_dir, sleep=2):
    """Start ``madlab train`` in a child process whose 2 forked workers each
    write their pid into ``tmp_path / "pids"`` and sleep ``sleep`` s before
    their replicate; returns the process, the pid directory and the stderr
    file."""
    pids = tmp_path / "pids"
    pids.mkdir()
    argv = ["train", "--data", str(data_dir), "--out", str(tmp_path / "run"),
            *TOY_SETS, "--replicates", "2", "--workers", "2"]
    code = ("import os, signal, sys, time\n"
            "from madlab import trainer\n"
            "run_replicate = trainer.run_replicate\n"
            "def slow(*args, **kwargs):\n"
            f"    open(os.path.join({str(pids)!r}, str(os.getpid())), 'w').close()\n"
            f"    time.sleep({sleep})\n"
            "    return run_replicate(*args, **kwargs)\n"
            "trainer.run_replicate = slow\n"
            # a job a shell starts in the background ignores SIGINT
            "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
            "from madlab.cli import main\n"
            f"sys.exit(main({argv!r}))\n")
    stderr = tmp_path / "stderr"
    with open(stderr, "w") as err:  # a file: an orphan would hold a pipe open
        proc = subprocess.Popen([sys.executable, "-c", code], env=_child_env(1),
                                stdout=subprocess.DEVNULL, stderr=err)
    return proc, pids, stderr


def _started_workers(pids, stderr) -> list[int]:
    workers = []
    deadline = time.monotonic() + 60
    while len(workers) < 2 and time.monotonic() < deadline:
        time.sleep(0.05)
        workers = [int(p.name) for p in pids.iterdir()]
    assert len(workers) == 2, stderr.read_text()
    return workers


# a signal to the parent alone, while 2 forked workers run a slow replicate:
# one error line, 128 + the signal number, and no worker left behind
@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM],
                         ids=lambda s: s.name)
def test_signal_exits_128_plus_signal_and_stops_the_workers(tmp_path, data_dir,
                                                            sig):
    proc, pids, stderr = _slow_train(tmp_path, data_dir)
    workers = []
    try:
        workers = _started_workers(pids, stderr)
        proc.send_signal(sig)
        assert proc.wait(timeout=60) == 128 + sig, stderr.read_text()
        assert stderr.read_text().splitlines() == ["error: interrupted"]
        deadline = time.monotonic() + 5
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, workers))
    finally:
        for pid in filter(_alive, workers):
            os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.wait()


# the same signal while each worker sleeps 30 s in its replicate: the workers
# stop within one watchdog poll, not after the replicate they are running
@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM],
                         ids=lambda s: s.name)
def test_signal_stops_the_workers_inside_a_long_replicate(tmp_path, data_dir,
                                                          sig):
    proc, pids, stderr = _slow_train(tmp_path, data_dir, sleep=30)
    workers = []
    try:
        workers = _started_workers(pids, stderr)
        proc.send_signal(sig)
        deadline = time.monotonic() + 5
        assert proc.wait(timeout=5) == 128 + sig, stderr.read_text()
        assert stderr.read_text().splitlines() == ["error: interrupted"]
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, workers))
    finally:
        for pid in filter(_alive, workers):
            os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.wait()


# an interrupted run into a used directory would leave its new checkpoints
# beside the old metrics.json: the train is refused before any worker
# starts, and a run that starts anyway is interrupted as a user would
def test_train_into_a_used_dir_starts_no_worker(tmp_path, data_dir,
                                                 trained_dir):
    before = _tree_bytes(trained_dir)
    proc, pids, stderr = _slow_train(tmp_path, data_dir)
    workers = []
    try:
        deadline = time.monotonic() + 60
        while (proc.poll() is None and not workers
               and time.monotonic() < deadline):
            time.sleep(0.05)
            workers = [int(p.name) for p in pids.iterdir()]
        if workers:
            proc.send_signal(signal.SIGINT)
        code = proc.wait(timeout=60)
    finally:
        for pid in filter(_alive, workers):
            os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.wait()
    assert (code, workers) == (EXIT_CONFIG, []), stderr.read_text()
    assert stderr.read_text().splitlines() == [
        f"error: {trained_dir} is not a new or empty directory"]
    assert _tree_bytes(trained_dir) == before


def _running(pid: int) -> bool:
    """Alive and not a zombie: an orphan's new parent may never reap it."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# a SIGKILL runs no handler in the parent; each orphaned worker sees its
# parent change and exits, where it used to wait on the pool's queue for good
@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="reads process states from /proc")
def test_sigkill_to_the_parent_stops_the_workers(tmp_path, data_dir):
    proc, pids, stderr = _slow_train(tmp_path, data_dir)
    workers = []
    try:
        workers = _started_workers(pids, stderr)
        proc.kill()
        assert proc.wait(timeout=60) == -signal.SIGKILL
        deadline = time.monotonic() + 5
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))
    finally:
        for pid in filter(_alive, workers):
            os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.wait()


# every numeric key at extreme values, through generate and then train at
# toy size: a documented exit code, no traceback, no numpy RuntimeWarning,
# and a value outside the key's domain exits 1 naming the key
TOY_SETS = SMALL_SETS + ["--set", "pretrain.epochs=1", "--set",
                         "finetune.epochs=1", "--set", "run.replicates=1"]
EXTREME_CASES = [(key, text) for key, default in default_config().items()
                 if not isinstance(default, str)
                 for text in (("0", "-1", "1e308", "5e-324")
                              if isinstance(default, float) else ("0", "-1"))]


@pytest.mark.parametrize("key, text", EXTREME_CASES)
def test_extreme_value_exits_documented_code(tmp_path, capsys, key, text):
    sets = TOY_SETS + ["--set", f"{key}={text}"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["generate", "--out", str(tmp_path / "data"), *sets])
        if code == EXIT_OK:
            code = main(["train", "--data", str(tmp_path / "data"), "--out",
                         str(tmp_path / "run"), "--workers", "1", *sets])
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SCHEMA, EXIT_NUMERIC)
    assert "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    domain = config_mod._SCHEMA[key][2]["domain"]
    if not config_mod._in_domain(domain, config_mod._parse_value(key, text)):
        assert code == EXIT_CONFIG
        assert err.startswith(f"error: {key} must be")


def test_train_metrics_deterministic(tmp_path, data_dir):
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["train", "--data", str(data_dir), "--out", str(out)]
                    + SMALL_SETS) == EXIT_OK
        blobs.append((out / "metrics.json").read_bytes())
    assert blobs[0] == blobs[1]


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_train_refuses_a_used_out_dir(tmp_path, data_dir, trained_dir, capsys):
    """A second run into a used directory would leave the first run's
    replicate 1 files beside its own metrics: refused, before the data is
    read (a missing data directory is not reached), and nothing changes.
    An ``--out`` that names a file is refused the same way."""
    before = _tree_bytes(trained_dir)
    capsys.readouterr()
    for data, out in ((data_dir, trained_dir),
                      (tmp_path / "missing", trained_dir),
                      (data_dir, trained_dir / "metrics.json")):
        assert main(["train", "--data", str(data), "--out", str(out),
                     "--replicates", "1", "--seed", "2"] + SMALL_SETS
                    ) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out} is not a new or empty directory"]
    assert _tree_bytes(trained_dir) == before


@pytest.mark.parametrize("ratios", [["0.1"], ["0.025", "0.1"]],
                         ids=["one_arm", "sweep"])
def test_train_refuses_an_out_that_is_a_file(tmp_path, capsys, ratios):
    """A sweep's arms would sit under the file: refused as a plain run's
    file is (above), before the data is read and before any arm is
    announced."""
    out = tmp_path / "file"
    out.write_text("kept")
    assert main(["train", "--data", str(tmp_path / "missing"), "--out",
                 str(out)] + [a for r in ratios for a in ("--labeled-ratio", r)]
                ) == EXIT_CONFIG
    assert capsys.readouterr() == (
        "", f"error: {out} is not a new or empty directory\n")
    assert out.read_text() == "kept"


@pytest.mark.parametrize("ratios", [[], ["0.025", "0.1"]],
                         ids=["plain", "sweep"])
def test_train_out_under_a_file_exits_1_before_the_data_is_read(tmp_path,
                                                               capsys, ratios):
    """Every arm's directory is made before the first split is read, so an
    ``--out`` below a plain file exits 1 for the directory, not 2 for the
    missing data, and announces no arm."""
    (tmp_path / "file").write_text("kept")
    out = tmp_path / "file" / "sub"
    assert main(["train", "--data", str(tmp_path / "missing"), "--out",
                 str(out)] + [a for r in ratios for a in ("--labeled-ratio", r)]
                ) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"error: [Errno {errno.ENOTDIR}] "
                                   f"{os.strerror(errno.ENOTDIR)}: '{out}'\n")
    assert (tmp_path / "file").read_text() == "kept"


def test_train_failing_on_its_data_leaves_an_empty_dir_a_rerun_accepts(
        tmp_path, capsys):
    out = tmp_path / "run"
    for _ in range(2):
        assert main(["train", "--data", str(tmp_path / "missing"), "--out",
                     str(out)]) == EXIT_SCHEMA
        assert "missing data file" in capsys.readouterr().err
        assert out.is_dir() and not any(out.iterdir())


@pytest.mark.parametrize("ratios, arm", [([], ""),
                                         (["0.025", "0.1"], "labeled_0.025")],
                         ids=["plain", "sweep_arm"])
def test_config_cfg_reproduces_its_run(tmp_path, data_dir, ratios, arm):
    """A run's config.cfg, given back as ``--config`` (a sweep arm's without
    ``--labeled-ratio``), trains the same bytes in every file but the wall
    times of run_info.json."""
    run = tmp_path / "run"
    assert main(["train", "--data", str(data_dir), "--out", str(run),
                 "--replicates", "1"] + SMALL_SETS
                + [a for r in ratios for a in ("--labeled-ratio", r)]) == EXIT_OK
    again = tmp_path / "again"
    assert main(["train", "--config", str(run / arm / "config.cfg"),
                 "--data", str(data_dir), "--out", str(again)]) == EXIT_OK
    want, got = _tree_bytes(run / arm), _tree_bytes(again)
    assert want.pop("run_info.json") and got.pop("run_info.json")
    assert got == want


def test_plain_train_is_the_one_arm_sweep_at_the_configs_ratio(tmp_path,
                                                               data_dir):
    """Without ``--labeled-ratio`` a run trains the config's own ratio, the
    same bytes as naming that ratio; only the wall times in run_info.json
    differ."""
    trees = []
    for name, extra in (("plain", []), ("arm", ["--labeled-ratio", "0.1"])):
        out = tmp_path / name
        assert main(["train", "--data", str(data_dir), "--out", str(out),
                     "--replicates", "1"] + SMALL_SETS + extra) == EXIT_OK
        trees.append(_tree_bytes(out))
    assert "data.labeled_ratio=0.1  #" in trees[0]["config.cfg"].decode()
    assert trees[0].pop("run_info.json") and trees[1].pop("run_info.json")
    assert trees[0] == trees[1]


def test_sweep_refuses_a_used_arm_dir_before_any_arm_trains(tmp_path, capsys):
    out = tmp_path / "sweep"
    (out / "labeled_0.1").mkdir(parents=True)  # empty: accepted
    (out / "labeled_0.2").mkdir()
    (out / "labeled_0.2" / "metrics.json").write_text("{}")
    assert main(["train", "--data", str(tmp_path / "missing"), "--out",
                 str(out), "--labeled-ratio", "0.1",
                 "--labeled-ratio", "0.2"]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        f"error: {out / 'labeled_0.2'} is not a new or empty directory"]
    assert _tree_bytes(out) == {"labeled_0.2/metrics.json": b"{}"}
    assert not any((out / "labeled_0.1").iterdir())


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


def test_sweep_reads_its_splits_once_and_relabels_each_arm_from_disk(
        tmp_path, data_dir, monkeypatch):
    """A sweep parses each split once. Each arm relabels the on-disk train
    labels, so the arm at the data's own ratio (0.1) trains on them: the
    bytes of a plain run, not a relabel of the arm before it."""
    read, load_csv = [], data_mod.load_csv
    monkeypatch.setattr(data_mod, "load_csv", lambda path, split: (
        read.append(split), load_csv(path, split))[1])
    sweep, plain = tmp_path / "sweep", tmp_path / "plain"
    assert main(["train", "--data", str(data_dir), "--out", str(sweep)]
                + TOY_SETS + [a for r in ("0.025", "0.05", "0.1")
                              for a in ("--labeled-ratio", r)]) == EXIT_OK
    assert sorted(read) == ["test", "train", "val"]  # not once per arm
    assert main(["train", "--data", str(data_dir), "--out", str(plain)]
                + TOY_SETS) == EXIT_OK
    want, got = _tree_bytes(plain), _tree_bytes(sweep / "labeled_0.1")
    assert want.pop("run_info.json") and got.pop("run_info.json")
    assert got == want


def test_train_labeled_ratio_sweep_checks_every_ratio_first(tmp_path, data_dir,
                                                            capsys):
    out = tmp_path / "sweep"
    code = main(["train", "--data", str(data_dir), "--out", str(out),
                 "--labeled-ratio", "0.1", "--labeled-ratio", "2"] + TOY_SETS)
    assert code == EXIT_CONFIG
    assert "data.labeled_ratio" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("second", ["0.1000001", "0.1"])
def test_train_labeled_ratios_sharing_a_directory_exit_1(tmp_path, data_dir,
                                                         capsys, second):
    out = tmp_path / "sweep"
    code = main(["train", "--data", str(data_dir), "--out", str(out),
                 "--labeled-ratio", "0.1", "--labeled-ratio", second]
                + TOY_SETS)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"0.1 and {second} share" in err and "labeled_0.1" in err
    assert not out.exists()


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


@pytest.mark.parametrize("train_args", [[], ["--labeled-ratio", "0.05"]],
                         ids=["on_disk_labels", "relabeled"])
def test_eval_replays_recorded_val_auc(tmp_path, data_dir, train_args):
    run = tmp_path / "run"
    assert main(["train", "--data", str(data_dir), "--out", str(run),
                 "--replicates", "1"] + SMALL_SETS + train_args) == EXIT_OK
    doc = json.loads((run / "metrics.json").read_text())
    recorded = [r for r in doc["records"] if r["split"] == "val"][0]

    for embedding, knn_key in (("mad", "auc_knn"),
                               ("pretext", "auc_knn_pretext")):
        out = tmp_path / f"eval_{embedding}"
        code = main(["eval", "--checkpoint", str(run / "checkpoint_r0.npz"),
                     "--data", str(data_dir), "--out", str(out),
                     "--split", "val", "--embedding", embedding])
        assert code == EXIT_OK
        metrics = json.loads((out / "eval_metrics.json").read_text())
        assert metrics["auc"] == recorded["epoch_auc"][-1]  # exact replay
        assert metrics["auc"] == recorded["auc"]
        assert metrics["auc_knn"] == recorded[knn_key]

    header, *rows = (out / "scores.csv").read_text().splitlines()
    assert header == "id,score,score_knn,ground_truth"
    assert len(rows) == 80
    for row in rows[:5]:
        _id, score, knn, gt = row.split(",")
        assert float(score) >= 0.0 and float(knn) >= 0.0
        assert gt in ("normal", "abnormal")


def test_scores_csv_bytes_match_the_per_value_writer(eval_inputs, tmp_path,
                                                     monkeypatch):
    real = cli_mod.score_splits
    edge = [-0.0, 5e-324, 1e308, 1 / 3, 2.0, 1e16]
    seen = []

    def with_edge_values(*args):
        [(scores, knn)] = real(*args)
        scores[:len(edge)] = edge
        knn[-len(edge):] = edge
        seen.append((scores, knn, args[5][0].ground_truth))
        return [(scores, knn)]

    monkeypatch.setattr(cli_mod, "score_splits", with_edge_values)
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint",
                 str(eval_inputs / "orig" / "checkpoint.npz"), "--data",
                 str(eval_inputs / "orig"), "--out", str(out)]) == EXIT_OK
    [(scores, knn, gt)] = seen
    names = {1: "normal", -1: "abnormal"}
    want = "id,score,score_knn,ground_truth\n" + "".join(
        f"{i},{float(scores[i])!r},{float(knn[i])!r},{names[int(gt[i])]}\n"
        for i in range(len(gt)))
    assert (out / "scores.csv").read_bytes() == want.encode()


def test_eval_embedding_spaces_differ(tmp_path, trained_dir, data_dir):
    cols = {}
    for emb in ("mad", "pretext"):
        out = tmp_path / f"eval_{emb}"
        assert main(["eval", "--checkpoint",
                     str(trained_dir / "checkpoint_r0.npz"),
                     "--data", str(data_dir), "--out", str(out),
                     "--embedding", emb]) == EXIT_OK
        rows = (out / "scores.csv").read_text().splitlines()[1:]
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


# each used to run: exit 5 for no values, a Welch test on replicate indices,
# exit 2 for the lists of live counts
@pytest.mark.parametrize("metric", ["bogus", "replicate", "live_centers"])
def test_compare_unknown_metric_exits_1(tmp_path, capsys, metric):
    records = [{"replicate": r, "split": "test", "auc": 0.9 + r / 100,
                "live_centers": [6, 5 - r]} for r in range(3)]
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps({"records": records}))
    code = main(["compare", str(path), str(path), "--metric", metric,
                 "--out", str(tmp_path / "cmp")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error: argument --metric:") and metric in err
    assert not (tmp_path / "cmp" / "compare_report.json").exists()


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


# a variance that overflows used to exit 0 with df = nan
@pytest.mark.parametrize("huge, huge_first", [
    pytest.param([1e308, -1e308, 5e307], True, id="a"),
    pytest.param([1e308, -1e308, 5e307], False, id="b")])
def test_compare_overflowing_variance_exits_1(tmp_path, capsys, huge,
                                              huge_first):
    paths = []
    for name, vals in (("huge", huge), ("small", [0.1, 0.2, 0.3])):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(
            {"records": [{"split": "test", "auc": v} for v in vals]}))
    if not huge_first:
        paths.reverse()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        code = main(["compare", *map(str, paths),
                     "--out", str(tmp_path / "cmp")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and "variance" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "cmp").exists()


# a variance whose square overflows float64 used to exit 1 (no finite df)
@pytest.mark.parametrize("huge_first", [True, False],
                         ids=["huge-first", "huge-second"])
def test_compare_variance_with_overflowing_square(tmp_path, capsys,
                                                  huge_first):
    huge, small = [1e100, -1e100, 0.0], [0.1, 0.2, 0.3]
    paths = []
    for name, vals in (("huge", huge), ("small", small)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(
            {"records": [{"split": "test", "auc": v} for v in vals]}))
    if not huge_first:
        paths.reverse()
        huge, small = small, huge
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["compare", *map(str, paths),
                     "--out", str(tmp_path / "cmp")])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "cmp" / "compare_report.json").read_text())
    # Welch's t and df are scale free: scipy checks them at scale 1e-100,
    # where its own df formula stays in range
    ref = scipy.stats.ttest_ind([v * 1e-100 for v in huge],
                                [v * 1e-100 for v in small], equal_var=False)
    assert math.isclose(report["t"], ref.statistic, rel_tol=1e-12)
    assert math.isclose(report["df"], ref.df, rel_tol=1e-12)
    assert "Traceback" not in capsys.readouterr().err


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
    env = _child_env(blas_threads)
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


# sha256 of replicate 0's checkpoint and centers trajectory from the same
# run; the checkpoint's epoch records hold every epoch's loss and every
# fine-tuning epoch's objective, and the trajectory every fine-tuning
# epoch's per-center counts.
SMALL_REPLICATE_0_SHA256 = {
    "checkpoint_r0.npz":
        "38f6519ad06e3a65c4222adfccbea64a5a1abef0e61f177ce4e0e6cf3190cc4d",
    "centers_r0.jsonl":
        "b508e01e47780968c023b4869d191ee0c9becdf6472f73191ce309b54b73208c",
}


def test_train_checkpoint_and_centers_bytes_pinned(tmp_path):
    _train_in_subprocess(tmp_path, 1)
    assert {name: hashlib.sha256((tmp_path / "run" / name).read_bytes())
            .hexdigest() for name in SMALL_REPLICATE_0_SHA256} == \
        SMALL_REPLICATE_0_SHA256


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
    first_seed = config_mod.ExperimentConfig().seed

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


def test_train_worker_dead_before_the_last_submit_exits_3(tmp_path, data_dir,
                                                         capsys, monkeypatch):
    real_run, real_submit = trainer_mod.run_replicate, ProcessPoolExecutor.submit
    first_seed = config_mod.ExperimentConfig().seed

    def dies_on_replicate_0(cfg, datasets=None, **kw):
        if cfg.seed == first_seed:
            os._exit(1)
        return real_run(cfg, datasets, **kw)

    submitted = []

    def submit_once_broken(pool, fn, *args):
        if submitted:  # the first submit forks the workers
            deadline = time.monotonic() + 10
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
        submitted.append(args)
        return real_submit(pool, fn, *args)

    monkeypatch.setattr(trainer_mod, "run_replicate", dies_on_replicate_0)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_once_broken)
    code = main(["train", "--data", str(data_dir), "--out",
                 str(tmp_path / "run"), "--workers", "2", "--replicates", "4"]
                + SMALL_SETS)
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC
    assert err.startswith("error:") and "Traceback" not in err
    doc = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert [e["replicate"] for e in doc["errors"]] == [0, 1, 2, 3]
    assert all(e["error"].startswith("worker process died: ")
               for e in doc["errors"])


@pytest.mark.parametrize("command", ["train", "eval"])
def test_data_dim_mismatch_exits_2(eval_inputs, tmp_path, capsys, command):
    data = tmp_path / "data"  # 16 features; the config and checkpoint say 8
    assert main(["generate", "--out", str(data)] + SMALL_SETS
                + ["--set", "data.dim=16"]) == EXIT_OK
    argv = (["train", "--data", str(data), "--out", str(tmp_path / "run")]
            + SMALL_SETS if command == "train" else
            ["eval", "--checkpoint", str(eval_inputs / "orig" / "checkpoint.npz"),
             "--data", str(data), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_SCHEMA
    assert err.startswith("error:") and "data dim 16" in err


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
    """A two-replicate toy run; ``orig/`` holds its CSVs and replicate 0's
    checkpoint, ``run/`` its ``metrics.json``. The fuzz tests write their
    cases under the same root."""
    root = tmp_path_factory.mktemp("eval_inputs")
    assert main(["generate", "--out", str(root / "orig")]
                + SMALL_SETS) == EXIT_OK
    assert main(["train", "--data", str(root / "orig"), "--out",
                 str(root / "run")] + SMALL_SETS) == EXIT_OK
    (root / "run" / "checkpoint_r0.npz").rename(
        root / "orig" / "checkpoint.npz")
    return root


def _main_exit(argv) -> tuple:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _eval_exit(case: Path, *args) -> tuple:
    return _main_exit(["eval", "--checkpoint", str(case / "checkpoint.npz"),
                       "--data", str(case / "data"), "--out", str(case / "out"),
                       *args])


def _assert_documented_exit(code, err, allowed):
    assert code in allowed, err
    if code != EXIT_OK:
        assert err.startswith("error:")
    assert "Traceback" not in err


def _damaged(blob: bytes, damage, position, mask, replacement=b"") -> bytes:
    """``blob`` with the byte at ``position`` flipped by ``mask``, cut at
    ``position``, or replaced by ``replacement``."""
    if damage == "replace":
        return replacement
    blob = bytearray(blob)
    position %= len(blob)
    if damage == "flip":
        blob[position] ^= mask
    else:
        del blob[position:]
    return bytes(blob)


DAMAGE = dict(damage=st.sampled_from(["flip", "truncate", "replace"]),
              position=st.integers(min_value=0, max_value=2 ** 31),
              mask=st.integers(min_value=1, max_value=255),
              replacement=st.binary(max_size=256))


def _npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


@pytest.mark.parametrize("target", ["checkpoint.npz", "train.csv", "val.csv",
                                    "test.csv"])
@settings(max_examples=50, deadline=None, derandomize=True)
@given(**DAMAGE)
# found by this test: val.csv cut after rows that are all normal
@example(damage="truncate", position=403, mask=1, replacement=b"")
# a zip header with nothing behind it, and a lone array instead of an archive
@example(damage="replace", position=0, mask=1,
         replacement=b"PK\x03\x04" + bytes(40))
@example(damage="replace", position=0, mask=1,
         replacement=_npy_bytes(np.zeros(3)))
def test_eval_on_damaged_input_exits_documented_code(
        eval_inputs, target, damage, position, mask, replacement):
    root = eval_inputs
    blobs = {f.name: f.read_bytes() for f in (root / "orig").iterdir()}
    blob = _damaged(blobs[target], damage, position, mask, replacement)
    case = root / "case"
    (case / "data").mkdir(parents=True, exist_ok=True)
    for name, original in blobs.items():
        path = case / ("" if name == "checkpoint.npz" else "data") / name
        path.write_bytes(blob if name == target else original)

    code, err = _eval_exit(case)
    _assert_documented_exit(code, err, (EXIT_OK, EXIT_SCHEMA, EXIT_CHECKPOINT))


@pytest.mark.parametrize("target", ["train.csv", "val.csv", "test.csv"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(**DAMAGE)
# the header alone, and a first feature digit changed from 2 to 3 (trains)
@example(damage="truncate", position=61, mask=1, replacement=b"")
@example(damage="flip", position=86, mask=1, replacement=b"")
def test_train_on_damaged_split_exits_documented_code(
        eval_inputs, target, damage, position, mask, replacement):
    root = eval_inputs
    case = root / "train_case"
    shutil.rmtree(case, ignore_errors=True)
    case.mkdir()
    for name in ("train.csv", "val.csv", "test.csv"):
        blob = (root / "orig" / name).read_bytes()
        (case / name).write_bytes(blob if name != target else _damaged(
            blob, damage, position, mask, replacement))
    code, err = _main_exit(
        ["train", "--data", str(case), "--out", str(case / "run")] + SMALL_SETS
        + ["--set", "pretrain.epochs=1", "--set", "finetune.epochs=1",
           "--set", "run.replicates=1"])
    _assert_documented_exit(code, err, (EXIT_OK, EXIT_SCHEMA, EXIT_NUMERIC))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(**DAMAGE)
def test_generate_on_damaged_config_exits_documented_code(
        eval_inputs, damage, position, mask, replacement):
    path = eval_inputs / "config.cfg"
    path.write_bytes(_damaged(
        serialize_config(config_mod.ExperimentConfig()).encode(),
        damage, position, mask, replacement))
    code, err = _main_exit([
        "generate", "--config", str(path), "--out", str(eval_inputs / "gen"),
        "--set", "data.train_size=40", "--set", "data.val_size=20",
        "--set", "data.test_size=20"])
    _assert_documented_exit(code, err, (EXIT_OK, EXIT_CONFIG))


def _reject_constant(name):
    raise AssertionError(f"compare_report.json holds {name}, not JSON")


@settings(max_examples=50, deadline=None, derandomize=True)
@given(**DAMAGE)
# a variance that overflows: compare used to exit 0 with df = nan, p = 1
@example(damage="replace", position=0, mask=1, replacement=json.dumps(
    {"records": [{"split": "test", "auc": v}
                 for v in (1e308, -1e308, 5e307)]}).encode())
def test_compare_on_damaged_metrics_exits_documented_code(
        eval_inputs, damage, position, mask, replacement):
    good = eval_inputs / "run" / "metrics.json"
    bad = eval_inputs / "damaged_metrics.json"
    bad.write_bytes(_damaged(good.read_bytes(), damage, position, mask,
                             replacement))
    report = eval_inputs / "cmp" / "compare_report.json"
    report.unlink(missing_ok=True)
    code, err = _main_exit(["compare", str(bad), str(good), "--out",
                            str(report.parent)])
    _assert_documented_exit(code, err, (EXIT_OK, EXIT_CONFIG, EXIT_SCHEMA,
                                        EXIT_REPLICATES))
    if code == EXIT_OK:
        json.loads(report.read_text(), parse_constant=_reject_constant)
    else:
        assert not report.exists()


# a checkpoint with a valid CRC but bad values used to exit 3 (nan weight)
# or 1 (inf or misshaped centers, the inf with a RuntimeWarning)
@pytest.mark.parametrize("member, value, message", [
    ("mad", np.nan, "mad holds non-finite values"),
    ("pretext", -np.inf, "pretext holds non-finite values"),
    ("centers", np.inf, "centers must be finite and 4 wide, got shape (6, 4)"),
    ("centers", None, "centers must be finite and 4 wide, got shape (6, 3)")],
    ids=["nan_weight", "inf_weight", "inf_center", "narrow_centers"])
def test_eval_checkpoint_with_bad_values_exits_4(eval_inputs, tmp_path, member,
                                                 value, message):
    case = tmp_path
    shutil.copytree(eval_inputs / "orig", case / "data")
    path = case / "checkpoint.npz"
    (case / "data" / "checkpoint.npz").rename(path)
    arrays = dict(np.load(path, allow_pickle=False))
    if value is None:
        arrays[member] = arrays[member][:, :3]
    else:
        arrays[member].flat[0] = value
    np.savez(path, **arrays)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _eval_exit(case)
    assert code == EXIT_CHECKPOINT, err
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_eval_checkpoint_of_a_phase_no_run_writes_exits_4(eval_inputs,
                                                         tmp_path):
    case = tmp_path
    shutil.copytree(eval_inputs / "orig", case / "data")
    path = case / "checkpoint.npz"
    (case / "data" / "checkpoint.npz").rename(path)
    arrays = dict(np.load(path, allow_pickle=False))
    meta = json.loads(bytes(arrays["meta_json"]).decode())
    meta["phase"] = "bogus"  # a finished checkpoint's arrays are all there
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(),
                                        dtype=np.uint8)
    np.savez(path, **arrays)
    code, err = _eval_exit(case)
    assert code == EXIT_CHECKPOINT, err
    assert err.startswith("error:") and "phase 'bogus' at epoch 3" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (case / "out").exists()


def test_eval_checkpoint_with_a_pruned_center_flagged_live_exits_4(
        eval_inputs, tmp_path):
    case = tmp_path
    shutil.copytree(eval_inputs / "orig", case / "data")
    path = case / "checkpoint.npz"
    (case / "data" / "checkpoint.npz").rename(path)
    arrays = dict(np.load(path, allow_pickle=False))
    assert not arrays["centers_live"].all()  # the run pruned a center
    arrays["centers_live"][:] = True
    np.savez(path, **arrays)
    code, err = _eval_exit(case)
    assert code == EXIT_CHECKPOINT, err
    n_s = arrays["centers_live"].size
    assert err.startswith("error:") and f"{n_s} centers are flagged live" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (case / "out").exists()


@pytest.mark.parametrize("split, column, keep", [
    ("train", 3, "abnormal"),   # no presumed-normal kNN reference row
    ("val", 2, "normal"),       # an AUC over one class
    ("test", 2, "abnormal"),
    ("train", 2, "normal"),     # no abnormal row to label at the trained ratio
], ids=["train_known_abnormal_only", "val_normal_only", "test_abnormal_only",
        "train_unlabelable"])
def test_eval_split_unfit_for_scoring_exits_2(eval_inputs, tmp_path, split,
                                              column, keep):
    case = tmp_path
    shutil.copytree(eval_inputs / "orig", case / "data")
    (case / "data" / "checkpoint.npz").rename(case / "checkpoint.npz")
    path = case / "data" / f"{split}.csv"
    header, *rows = path.read_text().splitlines(keepends=True)
    path.write_text(header + "".join(r for r in rows
                                     if r.split(",")[column] == keep))
    # eval reads train and the split it scores, so it scores the unfit one
    code, err = _eval_exit(case, "--split", "val" if split == "train" else split)
    assert code == EXIT_SCHEMA
    assert err.startswith("error:") and f"{split} split" in err


def test_eval_reads_only_train_and_the_split_it_scores(eval_inputs, tmp_path):
    outputs = []
    for case in (tmp_path / "all", tmp_path / "no_val"):
        shutil.copytree(eval_inputs / "orig", case / "data")
        (case / "data" / "checkpoint.npz").rename(case / "checkpoint.npz")
        if case.name == "no_val":
            (case / "data" / "val.csv").unlink()
        code, err = _eval_exit(case, "--split", "test")
        assert code == EXIT_OK, err
        outputs.append([(case / "out" / name).read_bytes()
                        for name in ("scores.csv", "eval_metrics.json")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("split", ["val", "test"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_header_only_split_exits_2_needing_both_classes(eval_inputs, tmp_path,
                                                        command, split):
    case = tmp_path
    shutil.copytree(eval_inputs / "orig", case / "data")
    (case / "data" / "checkpoint.npz").rename(case / "checkpoint.npz")
    path = case / "data" / f"{split}.csv"
    path.write_text(path.read_text().splitlines(keepends=True)[0])
    if command == "eval":
        code, err = _eval_exit(case, "--split", split)
    else:
        code, err = _main_exit(["train", "--data", str(case / "data"), "--out",
                                str(case / "run")] + TOY_SETS)
    assert code == EXIT_SCHEMA, err
    assert err == f"error: {case / 'data'}: {split} split needs both classes\n"


_LOADED_MODULES_SCRIPT = """
import sys
from madlab.cli import main
code = main(sys.argv[1:])
print(code, *sorted(name for name in ("concurrent.futures", "numpy.ma",
                                      "numpy.random") if name in sys.modules))
"""


@pytest.mark.parametrize("command, loaded", [
    ("generate", ["numpy.random"]),
    ("eval_mad", ["concurrent.futures"]),
    ("eval_pretext", ["concurrent.futures"])],
    ids=["generate", "eval_mad", "eval_pretext"])
def test_a_command_loads_only_the_modules_it_runs(eval_inputs, tmp_path,
                                                  command, loaded):
    """Of three lazily loaded modules, a fresh process loads only those its
    command uses: eval neither ``numpy.random`` (the checkpoint reader draws
    no init) nor ``numpy.ma`` (which ``np.unique`` loads), and generate
    neither ``numpy.ma`` nor ``concurrent.futures`` (it scores no kNN)."""
    if command == "generate":
        argv = ["generate", "--out", str(tmp_path / "gen")] + SMALL_SETS
    else:
        argv = ["eval", "--checkpoint", str(eval_inputs / "orig" /
                                            "checkpoint.npz"),
                "--data", str(eval_inputs / "orig"), "--out",
                str(tmp_path / "out"), "--split", "test", "--embedding",
                command.removeprefix("eval_")]
    proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES_SCRIPT, *argv],
                          env=_child_env(1), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["0", *loaded]


def test_usage_error_exits_1():
    assert main(["train"]) == EXIT_CONFIG  # missing required flags


def test_console_script_installed():
    import shutil
    import subprocess
    exe = shutil.which("madlab")
    assert exe, "console script not on PATH"
    out = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert out.returncode == 0
