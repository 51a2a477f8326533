"""Alternating parent/change runs of one perfbench workload, summarised in
the layout of the ``BENCH_*.json`` files.

    python3 tools/bench_pairs.py --workload W --seed N --parent COMMIT \\
        --out FILE [--pairs 10]

The parent is ``git archive COMMIT`` unpacked in a temporary directory; the
change is a copy of this checkout's working tree (every file git tracks or
would not ignore). Each pair runs ``python3 perfbench/run.py --workload W
--seed N --trace 0`` from the root of each tree, for the run length run.py
sets, one run at a time, at 1 BLAS thread: even pairs run the parent first,
odd pairs the change first. Before each pair a CPU probe times a 3 000 000-step
Python loop in one process, then in two processes at once: two as fast as one
mean that a second core was free at that moment.

``FILE`` gets the workload's seed, pair order, fingerprints,
``fingerprints_equal`` (every pair's parent and change printed one and the
same fingerprint; a warning goes to stderr where not), failed/attempted
counts, exit codes, each metric's median, q1, q3 and runs per side, the
pairs the change is better in (direction from ``BENCHMARK.json``), the CPU
probes, the host, the commits and the lines under ``src/``. An existing
``FILE`` is updated in place: the workload's entry and probes are replaced
and every other key is kept, so several workloads and hand-written fields
(``what``, ``claim``, ``notes``) can share one file. Standard library only.
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE = ("import time; t = time.perf_counter()\n"
         "for i in range(3_000_000): pass\n"
         "print(time.perf_counter() - t)")
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 600  # one run.py call; at run.py's default length, about 40 s


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


def quartiles(runs) -> dict:
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else runs * 3)
    return {"median": round(median, 6), "q1": round(q1, 6),
            "q3": round(q3, 6), "runs": [round(v, 6) for v in runs]}


def summarise(args, runs, better) -> dict:
    """The workload's entry: ``runs`` holds one {side: run} dict per pair."""
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
        if name in better:
            sign = 1 if better[name] == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(*values.values()))
            metric["change_better_in"] = f"{wins}/{len(runs)} pairs"
        base = metric["parent"]["median"]
        if base:
            metric["median_change"] = round(
                metric["change"]["median"] / base - 1.0, 4)
        entry["metrics"][name] = metric
    return entry


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    with open(os.path.join(ROOT, "perfbench", "workloads.json")) as fh:
        workloads = sorted(json.load(fh)["workloads"])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--parent", required=True, metavar="COMMIT")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    parent = git("rev-parse", args.parent)
    head, dirty = git("rev-parse", "HEAD"), git("status", "--porcelain")

    work = tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        trees = {"parent": os.path.join(work, "parent"),
                 "change": os.path.join(work, "change")}
        parent_tree(parent, trees["parent"])
        change_tree(trees["change"])
        runs, probes = [], []
        for i in range(args.pairs):
            probes.append({"workload": args.workload, "pair": i, **cpu_probe()})
            pair = {}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                t = time.perf_counter()
                pair[side] = run_once(trees[side], args)
                print(f"pair {i} {side}: exit {pair[side]['exit_code']} in "
                      f"{time.perf_counter() - t:.0f} s", file=sys.stderr)
            runs.append(pair)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            out = json.load(fh)
    env = runs[0]["change"]["env"]
    out["command"] = (f"python3 perfbench/run.py --workload W --seed "
                      f"{args.seed} --trace 0")
    out["host"] = {k: env.get(k) for k in
                   ("nproc", "blas_threads", "python", "numpy", "blas")}
    out["commits"] = {"parent": parent, "change": (
        f"the working tree on {head}" if dirty else head)}
    out["src_lines"] = {side: runs[0][side]["env"].get("src_lines")
                        for side in SIDES}
    out.setdefault("workloads", {})[args.workload] = summarise(args, runs,
                                                               better)
    out["cpu_probe"] = [probe for probe in out.get("cpu_probe", [])
                        if probe["workload"] != args.workload] + probes
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
