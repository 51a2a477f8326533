"""Fast self-test of the benchmark harness at toy sizes.

    python3 perfbench/selftest.py      # from the root of a madlab checkout

Checks that every workload, traced and untraced, reports exactly the
metrics BENCHMARK.json names, with their units, and passes its own
correctness checks; that the fingerprint repeats for the same seed; that
self time is right on a synthetic span tree; and that an injected failure
(``madlab eval`` on a truncated checkpoint, then a train on missing data)
is counted in the ledger without crashing the run. Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import run  # pins the BLAS threads before numpy loads

TOY = ["pretrain.epochs=1", "finetune.epochs=2", "data.train_size=200",
       "data.val_size=100", "data.test_size=120", "finetune.n_s=8",
       "eval.knn_k=10"]
SEED = 3

failures = []


def expect(what: str, ok: bool):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_self_times():
    from tracer import Span, layer_metrics, self_times

    def span(sid, name, start, end, parent, group="run"):
        return Span(sid, name, start, end, parent, group, None)

    # root [0, 10]; children [1, 4] and [3, 6] overlap; [9, 12] overhangs
    spans = [span(0, "trainer.run_experiment", 0.0, 10.0, None),
             span(1, "trainer.pretrain", 1.0, 4.0, 0),
             span(2, "numcore.forward", 2.0, 3.0, 1),
             span(3, "losses.mad_loss", 3.0, 6.0, 0),
             span(4, "evaluation.auc", 9.0, 12.0, 0),
             span(5, "data.generate_synthetic", -5.0, -1.0, None, "setup")]
    got = self_times(spans)
    want = {0: 4.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 3.0, 5: 4.0}
    expect(f"self times on a synthetic tree {got}",
           all(abs(got[k] - v) < 1e-12 for k, v in want.items()))
    # a well-nested tree, as one thread produces: self times add up
    spans = [span(0, "trainer.run_experiment", 0.0, 10.0, None),
             span(1, "trainer.pretrain", 1.0, 4.0, 0),
             span(2, "numcore.forward", 2.0, 3.0, 1),
             span(3, "losses.mad_loss", 4.0, 6.0, 0),
             span(4, "evaluation.auc", 7.0, 9.0, 0),
             span(5, "data.generate_synthetic", -5.0, -1.0, None, "setup")]
    m = layer_metrics(spans, run_s=11.0, untraced_run_s=10.0)
    layers = sum(v for k, (v, _) in m.items()
                 if k.endswith(".self_s") and k.count(".") == 1)
    expect("layer self times plus untraced remainder equal run_s",
           abs(layers + m["tracing.untraced_s"][0] - 11.0) < 1e-12
           and abs(m["tracing.untraced_s"][0] - 1.0) < 1e-12
           and abs(m["trainer.self_s"][0] - 5.0) < 1e-12)
    expect("set-up spans stay out of the run window",
           m["data.self_s"][0] == 0.0
           and m["data.generate_synthetic.s"][0] == 4.0)


def run_quiet(argv, root):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run(run.parse_args(argv), root, extra_sets=TOY)
    lines = out.getvalue().splitlines()
    fingerprint = next(line.split("sha256=")[1] for line in lines
                       if line.startswith("fingerprint "))
    return result, lines, fingerprint


def check_workloads(root, declared):
    for name in ("desk", "centers", "score_io"):
        prints = []
        for trace in (0, 1):
            argv = ["--workload", name, "--seed", str(SEED),
                    "--seconds", "0", "--trace", str(trace)]
            result, lines, fingerprint = run_quiet(argv, root)
            prints.append(fingerprint)
            key = "per_layer" if trace else "end_to_end"
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(f"{name} trace={trace}: metrics and units match "
                   f"BENCHMARK.json {key}", got == want)
            expect(f"{name} trace={trace}: correct, "
                   f"{result['attempted']} attempted, 0 failed",
                   result["correct"] and result["failed"] == 0)
            expect(f"{name} trace={trace}: last line is the result",
                   json.loads(lines[-1]) == result)
        expect(f"{name}: fingerprint repeats for seed {SEED}",
               prints[0] == prints[1] and len(prints[0]) == 64)


def check_injected_failure(root):
    import workloads

    work = os.path.join(root, ".perfbench_work", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = workloads.Workload("score_io", SEED, work, TOY)
    with contextlib.redirect_stderr(io.StringIO()):
        wl.prepare()
        sample = wl.timed_iteration()
        expect("toy score_io iteration passes its checks",
               sample is not None and wl.ledger.failed == 0)
        ckpt = wl.path("run", "checkpoint_r0.npz")
        with open(ckpt, "r+b") as fh:
            fh.truncate(os.path.getsize(ckpt) // 2)
        before = wl.ledger.failed
        ok = wl.cli("eval", "--checkpoint", ckpt, "--data", wl.data_dir,
                    "--split", "test")
        expect("eval on a truncated checkpoint exits non-zero and counts",
               not ok and wl.ledger.failed == before + 1)
        os.remove(os.path.join(wl.data_dir, "train.csv"))
        before = wl.ledger.failed
        sample = wl.timed_iteration()
        expect("an iteration that raises is counted, not fatal",
               sample is None and wl.ledger.failed >= before + 2)
    shutil.rmtree(work)


def main() -> int:
    root = os.getcwd()
    if not run.use_checkout(root):
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    check_self_times()
    check_workloads(root, declared)
    check_injected_failure(root)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
