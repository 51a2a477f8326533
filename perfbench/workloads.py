"""The benchmark's workloads, their correctness checks and the timed loop.

``desk`` and ``centers`` call ``trainer.run_experiment`` in this process;
``score_io`` drives the ``madlab`` CLI in child processes. Every call into
madlab goes through a module attribute, so a tracer installed on those
attributes sees it. Each operation (replicate, CLI command) and each
correctness check is one attempt in the ledger; a failed one is counted,
never skipped.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from madlab import config, data, trainer

import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCH = os.path.join(HERE, "launch.py")
SETUP_REPEATS = 5   # at least; short set-ups repeat until SETUP_MIN_S is spent
SETUP_MIN_S = 3.0
EVAL_REPEATS = 3    # in-process evaluate() is short, so take more samples
CHILD_TIMEOUT_S = 170

clock = time.perf_counter


def load_specs() -> dict:
    with open(os.path.join(HERE, "workloads.json")) as fh:
        return json.load(fh)["workloads"]


def config_dict(sets, seed: int) -> dict:
    cfg = config.apply_overrides(config.default_config(), sets)
    cfg["run.seed"] = seed
    return cfg


def build_inputs(sets, seed: int):
    """The in-memory datasets of an in-process workload."""
    return data.generate_synthetic(config.to_experiment(
        config_dict(sets, seed)).data)


class Ledger:
    """Counts attempted and failed operations and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok

    def crashed(self, what: str):
        """An operation raised; count it and keep going."""
        traceback.print_exc(file=sys.stderr)
        self.check(f"{what} raised", False)


@dataclass
class Sample:
    """What one timed iteration of a workload produced."""

    replicate_s: float
    eval_s: list
    test_auc: float
    fingerprint: str
    run_s: float = 0.0


def _aucs_ok(values) -> bool:
    values = list(values)
    return bool(values) and all(
        isinstance(v, float) and math.isfinite(v) and 0.0 <= v <= 1.0
        for v in values)


def _record_aucs(records):
    for rec in records:
        for key in ("auc", "auc_knn", "auc_knn_pretext"):
            yield rec[key]


def _state_arrays(state) -> list:
    arrays = list(state.pretext_model.net.parameters())
    if state.mad_model is not None:
        arrays += state.mad_model.net.parameters()
    if state.opt is not None and state.opt.m is not None:
        arrays += state.opt.m + state.opt.v
    if state.centers is not None:
        c = state.centers
        arrays += [c.centers, c.live, c.counts]
    return arrays


def _round_trips(state, path) -> bool:
    """save_checkpoint then load_checkpoint gives back the same state."""
    trainer.save_checkpoint(path, state)
    back = trainer.load_checkpoint(path)
    a, b = _state_arrays(state), _state_arrays(back)
    return ((state.phase, state.epoch) == (back.phase, back.epoch)
            and trainer.experiment_hash(state.config)
            == trainer.experiment_hash(back.config)
            and len(a) == len(b)
            and all(np.array_equal(x, y) for x, y in zip(a, b)))


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


class Workload:
    """One workload at one seed, with its scratch directory and ledger."""

    def __init__(self, name: str, seed: int, work: str, extra_sets=()):
        # the CLI's default level, so in-process runs log what it would
        logging.getLogger("madlab").setLevel(logging.ERROR)
        spec = load_specs()[name]
        self.name, self.seed, self.work = name, seed, work
        self.kind = spec["kind"]
        self.sets = list(spec["set"]) + list(extra_sets)
        self.cfg = config_dict(self.sets, seed)
        self.replicates = self.cfg["run.replicates"]
        self.ledger = Ledger()
        self.tracer = None
        self.datasets = None
        self.data_dir = self.path("data")

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def _set_args(self) -> list:
        return [arg for kv in self.sets for arg in ("--set", kv)]

    # --- child processes ---------------------------------------------

    def launch(self, what: str, args) -> bool:
        """Run perfbench/launch.py in a child; traced when a tracer is on."""
        argv = [sys.executable, LAUNCH]
        spans_path = None
        if self.tracer is not None:
            spans_path = self.path(f"spans_{what}.jsonl")
            argv += ["--trace", spans_path,
                     "--group", f"{self.tracer.group}/{what}"]
        try:
            proc = subprocess.run(argv + list(args), capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return self.ledger.check(
                f"{what} finished within {CHILD_TIMEOUT_S} s", False)
        ok = self.ledger.check(f"{what} exit code {proc.returncode}",
                               proc.returncode == 0)
        if not ok:
            sys.stderr.write(proc.stdout + proc.stderr)
        if spans_path is not None and os.path.exists(spans_path):
            self.tracer.merge(tracing.load_spans(spans_path))
            os.remove(spans_path)
        return ok

    def cli(self, *args) -> bool:
        return self.launch(args[0], ["cli", *args])

    # --- set-up ------------------------------------------------------

    def setup_once(self) -> float:
        """Wall time of one fresh process that imports madlab and builds
        the inputs."""
        t0 = clock()
        if self.kind == "cli":
            self.cli("generate", "--out", self.data_dir,
                     "--seed", str(self.seed), *self._set_args())
        else:
            self.launch("setup", ["setup", "--seed", str(self.seed),
                                  *self.sets])
        return clock() - t0

    def prepare(self):
        """Build the inputs this process uses (untimed)."""
        if self.kind == "cli":
            if not os.path.exists(os.path.join(self.data_dir, "test.csv")):
                self.setup_once()
        else:
            self.datasets = build_inputs(self.sets, self.seed)

    # --- one iteration -----------------------------------------------

    def iteration(self) -> Sample:
        if self.kind == "cli":
            return self._cli_iteration()
        return self._inprocess_iteration()

    def _inprocess_iteration(self) -> Sample:
        led, exp = self.ledger, config.to_experiment(self.cfg)
        states = {}
        t0 = clock()
        result = trainer.run_experiment(
            exp, self.datasets,
            on_replicate=lambda r, state: states.__setitem__(r, state))
        train_s = clock() - t0
        failed = {e["replicate"] for e in result.errors}
        for r in range(self.replicates):
            led.check(f"replicate {r} completes",
                      r in states and r not in failed)
        led.check("every AUC finite and in [0, 1]",
                  _aucs_ok(_record_aucs(result.records)))
        eval_s = []
        for r, state in sorted(states.items()):
            recorded = [{k: v for k, v in rec.items() if k != "replicate"}
                        for rec in result.records if rec["replicate"] == r]
            for _ in range(EVAL_REPEATS):
                t = clock()
                recs = trainer.evaluate(state.config, state.pretext_model,
                                        state.mad_model, state.centers,
                                        self.datasets, state.ft_history)
                eval_s.append(clock() - t)
                led.check(f"replicate {r} re-evaluates to its recorded AUCs",
                          recs == recorded)
            led.check(f"replicate {r} checkpoint round-trips",
                      _round_trips(state, self.path(f"checkpoint_r{r}.npz")))
        blob = json.dumps(result.metrics_dict(), sort_keys=True).encode()
        return Sample(train_s / self.replicates, eval_s,
                      result.aggregate["test_auc"]["mean"], _sha256(blob))

    def _cli_iteration(self) -> Sample:
        led = self.ledger
        run_dir = self.path("run")
        shutil.rmtree(run_dir, ignore_errors=True)
        t0 = clock()
        self.cli("train", "--data", self.data_dir, "--out", run_dir,
                 "--seed", str(self.seed), "--replicates",
                 str(self.replicates), *self._set_args())
        train_s = clock() - t0
        metrics_path = os.path.join(run_dir, "metrics.json")
        with open(metrics_path, "rb") as fh:
            blob = fh.read()
        doc = json.loads(blob)
        done = {rec["replicate"] for rec in doc["records"]}
        for r in range(self.replicates):
            led.check(f"replicate {r} completes", r in done)
        led.check("every AUC finite and in [0, 1]",
                  _aucs_ok(_record_aucs(doc["records"])))

        eval_s = []
        for embedding in ("mad", "pretext"):
            out = self.path(f"eval_{embedding}")
            t = clock()
            self.cli("eval", "--checkpoint",
                     os.path.join(run_dir, "checkpoint_r0.npz"),
                     "--data", self.data_dir, "--out", out,
                     "--split", "test", "--embedding", embedding)
            eval_s.append(clock() - t)
            with open(os.path.join(out, "scores.csv")) as fh:
                rows = sum(1 for _ in fh) - 1
            led.check(f"eval {embedding}: scores.csv has "
                      f"{self.cfg['data.test_size']} rows (got {rows})",
                      rows == self.cfg["data.test_size"])
            with open(os.path.join(out, "eval_metrics.json")) as fh:
                ev = json.load(fh)
            led.check(f"eval {embedding}: AUCs finite and in [0, 1]",
                      _aucs_ok([ev["auc"], ev["auc_knn"]]))
        self.cli("compare", metrics_path, metrics_path, "--split", "test")
        for r in range(self.replicates):
            state = trainer.load_checkpoint(
                os.path.join(run_dir, f"checkpoint_r{r}.npz"))
            led.check(f"checkpoint_r{r} round-trips",
                      _round_trips(state, self.path("roundtrip.npz")))
        return Sample(train_s / self.replicates, eval_s,
                      doc["aggregate"]["test_auc"]["mean"], _sha256(blob))

    def timed_iteration(self):
        """One iteration with its wall time; None when it raised."""
        t0 = clock()
        try:
            sample = self.iteration()
        except Exception:
            self.ledger.crashed(f"{self.name} iteration")
            return None
        sample.run_s = clock() - t0
        return sample


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


@dataclass
class Outcome:
    """Metrics of one benchmark run plus what the report prints."""

    metrics: dict                  # name -> (value, unit)
    attempted: int
    failed: int
    fingerprint: str = ""
    iterations: int = 0
    notes: dict = field(default_factory=dict)


def _fingerprint(wl: Workload, samples) -> str:
    prints = {s.fingerprint for s in samples}
    wl.ledger.check("metrics fingerprint repeats across iterations",
                    len(prints) <= 1)
    return samples[0].fingerprint if samples else ""


def measure(wl: Workload, seconds: float) -> Outcome:
    """End-to-end metrics, untraced: set-up several times, then whole
    iterations for as long as the next one still fits in ``seconds``."""
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        setups.append(wl.setup_once())
    try:
        wl.prepare()
    except Exception:
        wl.ledger.crashed(f"{wl.name} set-up")
    samples = []
    start = clock()
    while True:
        sample = wl.timed_iteration()
        if sample is None:
            break
        samples.append(sample)
        if clock() - start + sample.run_s > seconds:
            break

    def med(values):
        return statistics.median(values) if values else 0.0

    metrics = {
        "setup_s": (med(setups), "s"),
        "run_s": (med([s.run_s for s in samples]), "s"),
        "replicate_s": (med([s.replicate_s for s in samples]), "s"),
        "eval_s": (med([t for s in samples for t in s.eval_s]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "test_auc": (samples[0].test_auc if samples else 0.0, "1"),
    }
    return Outcome(metrics, wl.ledger.attempted, wl.ledger.failed,
                   _fingerprint(wl, samples), len(samples),
                   {"setup_s": setups,
                    "samples": [vars(s) for s in samples]})


def measure_traced(wl: Workload, spans_path: str) -> Outcome:
    """Per-layer metrics: one untraced iteration, then set-up and one
    iteration under the tracer; spans are written to ``spans_path``."""
    try:
        wl.prepare()
    except Exception:
        wl.ledger.crashed(f"{wl.name} set-up")
    untraced = wl.timed_iteration()
    tracer = tracing.Tracer("setup")
    tracing.install(tracer)
    wl.tracer = tracer
    try:
        if wl.kind == "cli":
            wl.setup_once()
        else:
            wl.datasets = build_inputs(wl.sets, wl.seed)
        tracer.group = "run"
        traced = wl.timed_iteration()
    finally:
        tracer.unpatch()
        wl.tracer = None
    tracer.dump(spans_path)
    samples = [s for s in (untraced, traced) if s is not None]
    metrics = tracing.layer_metrics(
        tracer.spans, traced.run_s if traced else 0.0,
        untraced.run_s if untraced else 0.0)
    return Outcome(metrics, wl.ledger.attempted, wl.ledger.failed,
                   _fingerprint(wl, samples), len(samples),
                   {"untraced_run_s": untraced.run_s if untraced else 0.0})
