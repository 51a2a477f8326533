"""Alternating parent/change runs of one perfbench workload or of the
score_io CLI round, summarised in the layout of the ``BENCH_*.json`` files.

    python3 tools/bench_pairs.py --workload W --seed N --parent COMMIT \\
        --out FILE [--pairs 10]

The parent is ``git archive COMMIT`` unpacked in a temporary directory; the
change is a copy of this checkout's working tree (every file git tracks or
would not ignore). Each pair runs W in each tree at 1 BLAS thread, one run at
a time, the parent first in even pairs: ``python3 perfbench/run.py --workload
W --seed N --trace 0``, or for ``score_io_round`` madlab's ``generate``,
``train`` and ``eval --split test --embedding {mad,pretext}`` with the tree's
score_io ``set`` overrides, each timed and its peak RSS read by ``os.wait4``
(forked workers count). Before each pair a CPU probe times a 3 000 000-step
Python loop in one process, then in two at once: two as fast as one mean
that a second core was free at that moment.

``FILE`` gets the workload's seed, pair order, fingerprints,
``fingerprints_equal`` (a warning goes to stderr where a pair's two differ),
failed/attempted counts, exit codes, each metric's median, q1, q3 and runs
per side, the pairs the change is better in, ``beyond_bound`` (an end-to-end
metric's change median is worse than the parent's by more than its
``BENCHMARK.json`` bound times the parent's; warned on stderr), the CPU
probes, the host, the commits and the lines under ``src/`` (the round's in
its entry, with each side's sha256 per file but ``run_info.json``). An
existing ``FILE`` is updated in place: its workload's entry and probes are
replaced and every other key is kept, so several workloads and hand-written
fields (``what``, ``claim``, ``notes``) can share one file. Standard library
only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from hashlib import sha256
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE = ("import time; t = time.perf_counter()\n"
         "for i in range(3_000_000): pass\n"
         "print(time.perf_counter() - t)")
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 600  # one run.py call; at run.py's default length, about 40 s
ROUND = "score_io_round"


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def parent_tree(commit: str, dest: str) -> None:
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def change_tree(dest: str) -> None:
    for path in git("ls-files", "-co", "--exclude-standard").splitlines():
        if os.path.isfile(src := os.path.join(ROOT, path)):
            os.makedirs(os.path.dirname(os.path.join(dest, path)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, path))


def cpu_probe() -> dict:
    """Loop time alone, then the slower of two loops run at once."""
    def start():
        return subprocess.Popen([sys.executable, "-c", PROBE],
                                stdout=subprocess.PIPE, text=True)
    solo = float(start().communicate()[0])
    pair = [start(), start()]
    return {"solo_s": round(solo, 3), "two_processes_slowest_s": round(
        max(float(proc.communicate()[0]) for proc in pair), 3)}


def run_once(tree: str, args) -> dict:
    """One ``perfbench/run.py --trace 0`` run: exit code, env, fingerprint
    and the result object of its last line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--trace", "0"], cwd=tree, env=env,
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    run = {"exit_code": proc.returncode, "env": {}, "fingerprint": None,
           "result": {"attempted": 0, "failed": 0, "metrics": {}}}
    for line in lines:
        if line.startswith("env "):
            run["env"] = json.loads(line[4:])
        elif line.startswith("fingerprint "):
            run["fingerprint"] = line.rsplit("sha256=", 1)[1]
    if lines and lines[-1].startswith("{"):
        run["result"] = json.loads(lines[-1])
    else:
        print(f"{tree}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
    return run


def run_round(tree: str, args) -> dict:
    """One score_io CLI round from ``tree``, in ``run_once``'s shape, with
    the sha256 of each file it writes."""
    with open(os.path.join(tree, "perfbench", "workloads.json")) as fh:
        sets = json.load(fh)["workloads"]["score_io"]["set"]
    out = tempfile.mkdtemp(prefix=".bench_round_", dir=tree)
    opts = ["--seed", str(args.seed), *(a for s in sets for a in ["--set", s])]
    ev = ["eval", "--checkpoint", "run/checkpoint_r0.npz", "--data", "data",
          "--split", "test", "--embedding"]
    commands = {"generate": ["generate", "--out", "data", *opts],  # under out
                "train": ["train", "--data", "data", "--out", "run", *opts],
                "eval_mad": [*ev, "mad", "--out", "eval_mad"],
                "eval_pretext": [*ev, "pretext", "--out", "eval_pretext"]}
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    codes, metrics = [], {}
    for name, argv in commands.items():  # their errors reach our stderr
        t = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "madlab.cli", *argv],
                                cwd=out, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)  # reaped children count
        metrics[f"{name}_s"] = {"value": time.perf_counter() - t, "unit": "s"}
        metrics[f"{name}_peak_rss_mb"] = {"value": usage.ru_maxrss / 1024,
                                          "unit": "MB"}
        proc.returncode = os.waitstatus_to_exitcode(status)
        codes.append(proc.returncode)
    metrics["round_peak_rss_mb"] = {"unit": "MB", "value": max(
        m["value"] for m in metrics.values() if m["unit"] == "MB")}
    digests = {str(p.relative_to(out)): sha256(p.read_bytes()).hexdigest()
               for p in sorted(Path(out).rglob("*"))
               if p.is_file() and p.name != "run_info.json"}
    return {"exit_code": next((c for c in codes if c), 0), "sha256": digests,
            "fingerprint": sha256(json.dumps(digests).encode()).hexdigest(),
            "env": {"nproc": len(os.sched_getaffinity(0)), "blas_threads": 1,
                    "python": sys.version.split()[0], "src_lines": sum(
                        p.read_bytes().count(b"\n")
                        for p in Path(tree, "src").rglob("*.py"))},
            "result": {"attempted": len(codes), "failed": sum(map(bool, codes)),
                       "metrics": metrics}}


def quartiles(runs) -> dict:
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else runs * 3)
    return {"median": round(median, 6), "q1": round(q1, 6),
            "q3": round(q3, 6), "runs": [round(v, 6) for v in runs]}


def summarise(args, runs, spec) -> dict:
    """The workload's entry: ``runs`` holds one {side: run} dict per pair;
    ``spec`` names BENCHMARK.json's metrics (unnamed ones are better lower)."""
    entry = {"seed": args.seed, "pairs": args.pairs,
             "pair_order": [f"{SIDES[i % 2]} first" for i in range(args.pairs)],
             "fingerprint": {}, "failed_of_attempted": {}, "exit_codes": {},
             "metrics": {}}
    for side in SIDES:
        mine = [pair[side] for pair in runs]
        entry["fingerprint"][side] = sorted({r["fingerprint"] for r in mine
                                             if r["fingerprint"]})
        entry["failed_of_attempted"][side] = "%d/%d" % (
            sum(r["result"]["failed"] for r in mine),
            sum(r["result"]["attempted"] for r in mine))
        entry["exit_codes"][side] = [r["exit_code"] for r in mine]
    entry["fingerprints_equal"] = all(
        pair["parent"]["fingerprint"] == pair["change"]["fingerprint"]
        is not None for pair in runs)
    if not entry["fingerprints_equal"]:
        print(f"warning: {args.workload}: parent and change fingerprints "
              f"do not all match: {entry['fingerprint']}", file=sys.stderr)
    names = [name for name in runs[0]["parent"]["result"]["metrics"]
             if all(name in pair[side]["result"]["metrics"]
                    for pair in runs for side in SIDES)]
    for name in names:
        values = {side: [pair[side]["result"]["metrics"][name]["value"]
                         for pair in runs] for side in SIDES}
        metric = {side: quartiles(values[side]) for side in SIDES}
        base, now = metric["parent"]["median"], metric["change"]["median"]
        sign = -1 if spec.get(name, {}).get("better") == "higher" else 1
        wins = sum(sign * (c - p) < 0 for p, c in zip(*values.values()))
        metric["change_better_in"] = f"{wins}/{len(runs)} pairs"
        if bound := spec.get(name, {}).get("bound"):
            metric["beyond_bound"] = sign * (now - base) > bound * abs(base)
            if metric["beyond_bound"]:
                print(f"warning: {args.workload}: {name} median {base:g} -> "
                      f"{now:g}, worse by more than {bound:g} of the parent's",
                      file=sys.stderr)
        if base:
            metric["median_change"] = round(now / base - 1.0, 4)
        entry["metrics"][name] = metric
    return entry


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    with open(os.path.join(ROOT, "perfbench", "workloads.json")) as fh:
        workloads = sorted(json.load(fh)["workloads"]) + [ROUND]
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--parent", required=True, metavar="COMMIT")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    spec = json.loads(Path(ROOT, "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent = git("rev-parse", args.parent)
    head, dirty = git("rev-parse", "HEAD"), git("status", "--porcelain")
    measure = run_round if args.workload == ROUND else run_once

    work = tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        trees = {side: os.path.join(work, side) for side in SIDES}
        parent_tree(parent, trees["parent"])
        change_tree(trees["change"])
        runs, probes = [], []
        for i in range(args.pairs):
            probes.append({"workload": args.workload, "pair": i, **cpu_probe()})
            pair = {}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                t = time.perf_counter()
                pair[side] = measure(trees[side], args)
                print(f"pair {i} {side}: exit {pair[side]['exit_code']} in "
                      f"{time.perf_counter() - t:.0f} s", file=sys.stderr)
            runs.append(pair)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = (json.loads(Path(args.out).read_text())
           if os.path.exists(args.out) else {})
    out["commits"] = {"parent": parent, "change": (
        f"the working tree on {head}" if dirty else head)}
    env = runs[0]["change"]["env"]
    meta = {"command": f"python3 perfbench/run.py --workload W --seed "
                       f"{args.seed} --trace 0",
            "host": {k: env[k] for k in ("nproc", "blas_threads", "python",
                                         "numpy", "blas") if k in env},
            "src_lines": {side: runs[0][side]["env"].get("src_lines")
                          for side in SIDES}}
    entry = out.setdefault("workloads", {})[args.workload] = summarise(
        args, runs, spec)
    if args.workload == ROUND:
        entry.update(meta, command=f"python3 tools/bench_pairs.py --workload "
                     f"{ROUND} --seed {args.seed} --pairs {args.pairs}",
                     sha256={side: runs[0][side]["sha256"] for side in SIDES})
    else:
        out.update(meta)
    out["cpu_probe"] = [probe for probe in out.get("cpu_probe", [])
                        if probe["workload"] != args.workload] + probes
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
