"""madlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {desk,centers,score_io} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; madlab is imported from ./src and scratch
files go to ./.perfbench_work/<workload>/. With ``--trace 0`` it measures
the end-to-end metrics for about S seconds; with ``--trace 1`` it runs one
untraced and one traced iteration and reports the per-layer metrics (S is
not used). Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import os

# BLAS pools size themselves when numpy loads, so pin them first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402


def _commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config layout differs across numpy versions
        blas_version = "unknown"
    src_lines = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"),
                          recursive=True):
        with open(path, "rb") as fh:
            src_lines += fh.read().count(b"\n")
    return {"blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_version,
            "commit": _commit(root), "src_lines": src_lines}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("desk", "centers", "score_io"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def run(args, root: str, extra_sets=()) -> dict:
    """Measure one workload and print the report; returns the result."""
    import workloads

    work = os.path.join(root, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = workloads.Workload(args.workload, args.seed, work, extra_sets)
    tag = f"seed{args.seed}_trace{args.trace}"
    if args.trace:
        out = workloads.measure_traced(wl, os.path.join(work, f"{tag}.spans"))
    else:
        out = workloads.measure(wl, args.seconds)

    env = environment(root)
    error_rate = out.failed / out.attempted if out.attempted else 1.0
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} iterations={out.iterations}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"fingerprint {args.workload} seed={args.seed} "
          f"sha256={out.fingerprint}")
    for name, (value, unit) in out.metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    if args.trace:
        sums = sum(v for k, (v, _) in out.metrics.items()
                   if k.endswith(".self_s") and k.count(".") == 1)
        print(f"self-time check: layers {sums:.6f} s + untraced "
              f"{out.metrics['tracing.untraced_s'][0]:.6f} s = traced run_s "
              f"{out.metrics['tracing.run_s'][0]:.6f} s")
    print(f"metric error_rate {error_rate:.6g} failed/attempted "
          f"({out.failed}/{out.attempted})")

    result = {"correct": out.failed == 0 and out.attempted > 0,
              "attempted": out.attempted, "failed": out.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in out.metrics.items()}}
    with open(os.path.join(work, f"{tag}.json"), "w") as fh:
        json.dump({**result, "env": env, "fingerprint": out.fingerprint,
                   "iterations": out.iterations, "notes": out.notes},
                  fh, indent=2, sort_keys=True)
    for name in os.listdir(work):     # keep only the report and the spans
        if not name.startswith(tag):
            path = os.path.join(work, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)
    print(json.dumps(result))
    return result


def use_checkout(root: str) -> bool:
    """Make ``root/src`` importable here and in child processes."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "madlab", "__init__.py")):
        print("perfbench: src/madlab not found; run from the root of a "
              "madlab checkout", file=sys.stderr)
        return False
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
        else [src])
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not use_checkout(root):
        return 2
    result = run(args, root)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
