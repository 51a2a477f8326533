"""Peak resident memory of each command of the score_io CLI round, and the
sha256 of every file the round writes.

    python3 tools/cli_peak_rss.py --seed N --out DIR [--root CHECKOUT]

Runs ``madlab generate`` -> ``train`` -> ``eval --split test --embedding
mad`` -> ``eval ... --embedding pretext`` with the overrides of perfbench's
score_io workload (read from ``CHECKOUT/perfbench/workloads.json``), madlab
imported from ``CHECKOUT/src`` (default: this checkout), at 1 BLAS thread.
``DIR`` must not exist. Each command runs under its own wrapper process,
which reads ``resource.getrusage(RUSAGE_CHILDREN).ru_maxrss`` once the
command has exited. So each figure is that command's own peak, its forked
workers included, and not the running maximum over the round that one
process's children give. ``run_info.json`` holds timings and is not hashed.
Prints one JSON object: ``peak_rss_mb`` per command, ``round_peak`` (the
largest of them and the command that sets it: perfbench's score_io
``peak_rss_mb`` is the running maximum over the round's child processes)
and ``sha256`` per file.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WRAPPER = ("import resource, subprocess, sys; "
           "code = subprocess.run(sys.argv[1:]).returncode; "
           "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss); "
           "sys.exit(code)")


def peak_rss_mb(argv, env) -> float:
    """Run ``argv`` under the wrapper; its peak resident set in MB."""
    proc = subprocess.run([sys.executable, "-c", WRAPPER, *argv], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return int(proc.stdout.split()[-1]) / 1024.0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), metavar="CHECKOUT")
    args = p.parse_args(argv)
    root, out = os.path.abspath(args.root), os.path.abspath(args.out)
    os.makedirs(out)
    with open(os.path.join(root, "perfbench", "workloads.json")) as fh:
        sets = json.load(fh)["workloads"]["score_io"]["set"]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    common = ["--seed", str(args.seed)] + [a for kv in sets
                                           for a in ("--set", kv)]
    data, run = os.path.join(out, "data"), os.path.join(out, "run")
    commands = {"generate": ["generate", "--out", data, *common],
                "train": ["train", "--data", data, "--out", run, *common]}
    for embedding in ("mad", "pretext"):
        commands[f"eval_{embedding}"] = [
            "eval", "--checkpoint", os.path.join(run, "checkpoint_r0.npz"),
            "--data", data, "--out", os.path.join(out, f"eval_{embedding}"),
            "--split", "test", "--embedding", embedding]
    peaks = {name: round(peak_rss_mb(
        [sys.executable, "-m", "madlab.cli", *cmd], env), 2)
        for name, cmd in commands.items()}
    digests = {}
    for folder, _, files in sorted(os.walk(out)):
        for name in sorted(files):
            if name != "run_info.json":
                path = os.path.join(folder, name)
                with open(path, "rb") as fh:
                    digests[os.path.relpath(path, out)] = hashlib.sha256(
                        fh.read()).hexdigest()
    top = max(peaks, key=peaks.get)
    json.dump({"peak_rss_mb": peaks,
               "round_peak": {"command": top, "peak_rss_mb": peaks[top]},
               "sha256": digests}, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
