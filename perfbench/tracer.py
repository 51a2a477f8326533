"""Span tracer that observes madlab from outside.

The tracer replaces madlab's public functions, under the names through
which ``trainer``, ``cli`` and ``data`` call them, with wrappers that record
one span per call: ``(id, name, start, end, parent, group, amount)``.
``group`` is the window (``setup`` or ``run``) plus the replicate or CLI
command the span belongs to; ``amount`` is an optional size (bytes, rows,
centers) measured at the call. Spans stay in memory until the run ends.

Span names are ``<layer>.<function>``; the layer is the madlab module that
owns the function, so a layer's self time is the sum over its spans of the
span's duration minus the part covered by its child spans.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict, namedtuple

Span = namedtuple("Span", "id name start end parent group amount")

LAYERS = ("data", "numcore", "losses", "spheres", "evaluation", "trainer",
          "cli")


class Tracer:
    """Collects spans from wrapped calls; one instance per process."""

    def __init__(self, group: str = "run"):
        self.group = group
        self.spans: list[Span] = []
        self._stack: list[tuple[int, str]] = []   # open (id, group)
        self._next_id = 0
        self._replicates: dict = defaultdict(int)
        self._patched: list = []

    def wrap(self, name: str, fn, amount=None):
        """Return ``fn`` wrapped so that each call records a span.

        ``amount(args, result)`` runs after a successful call and gives the
        span's size.
        """
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            parent, group = stack[-1] if stack else (None, self.group)
            if name == "trainer.run_replicate":
                group = f"{group}/r{self._replicates[parent]}"
                self._replicates[parent] += 1
            sid = self._next_id
            self._next_id += 1
            stack.append((sid, group))
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                size = amount(args, result) if ok and amount else None
                spans.append(Span(sid, name, start, end, parent, group, size))

        return traced

    def patch(self, owner, attr: str, name: str, amount=None):
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, amount))
        self._patched.append((owner, attr, original))

    def unpatch(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def merge(self, spans):
        """Adopt spans written by a child process, renumbering their ids."""
        offset = self._next_id
        for s in spans:
            parent = None if s.parent is None else s.parent + offset
            self.spans.append(s._replace(id=s.id + offset, parent=parent))
            self._next_id = max(self._next_id, s.id + offset + 1)

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def load_spans(path) -> list[Span]:
    with open(path) as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


def _file_bytes(index):
    return lambda args, result: os.path.getsize(args[index])


def _knn_matrix_bytes(args, result):
    return len(args[0]) * len(args[1]) * 8


def install(tracer: Tracer):
    """Wrap madlab's public functions; ``tracer.unpatch()`` undoes it."""
    from madlab import cli, data, numcore, trainer

    # (namespaces, attribute, span name, amount)
    table = [
        ((data, trainer, cli), "generate_synthetic", "data.generate_synthetic",
         None),
        ((trainer,), "augment_pairs", "data.augment_pairs", None),
        ((cli,), "save_splits", "data.save_splits", None),
        ((cli,), "load_splits", "data.load_splits", None),
        ((data,), "save_csv", "data.save_csv", _file_bytes(1)),
        ((data,), "load_csv", "data.load_csv", lambda a, r: len(r)),
        ((numcore.Mlp,), "forward", "numcore.forward", None),
        ((trainer,), "mlp_backward", "numcore.backward", None),
        ((trainer,), "optimizer_step", "numcore.optimizer_step", None),
        ((trainer,), "info_nce_loss", "losses.info_nce", None),
        ((trainer,), "mad_loss", "losses.mad_loss", None),
        ((trainer,), "kmeans", "spheres.kmeans", lambda a, r: r.initial_count),
        ((trainer,), "assign_and_count", "spheres.assign_and_count", None),
        ((trainer,), "nearest_live_center", "spheres.nearest_live_center",
         None),
        ((trainer,), "prune", "spheres.prune", lambda a, r: r.n_live),
        ((trainer, cli), "anomaly_scores", "spheres.anomaly_scores", None),
        ((trainer, cli), "auc", "evaluation.auc", None),
        ((trainer, cli), "knn_score", "evaluation.knn_score",
         _knn_matrix_bytes),
        ((trainer, cli), "replicate_ci", "evaluation.replicate_ci", None),
        ((cli,), "welch_t_test", "evaluation.welch_t_test", None),
        ((trainer, cli), "run_experiment", "trainer.run_experiment", None),
        ((trainer,), "run_replicate", "trainer.run_replicate", None),
        ((trainer,), "build_pretext_model", "trainer.build_pretext_model",
         None),
        ((trainer,), "pretrain", "trainer.pretrain", None),
        ((trainer,), "transfer_weights", "trainer.transfer_weights", None),
        ((trainer,), "finetune", "trainer.finetune", None),
        ((trainer,), "evaluate", "trainer.evaluate", None),
        ((trainer, cli), "save_checkpoint", "trainer.save_checkpoint",
         _file_bytes(0)),
        ((trainer, cli), "load_checkpoint", "trainer.load_checkpoint",
         _file_bytes(0)),
        ((cli,), "main", "cli.main", None),
        ((cli,), "cmd_generate", "cli.generate", None),
        ((cli,), "cmd_train", "cli.train", None),
        ((cli,), "cmd_eval", "cli.eval", None),
        ((cli,), "cmd_compare", "cli.compare", None),
    ]
    for owners, attr, name, amount in table:
        for owner in owners:
            tracer.patch(owner, attr, name, amount)


# --- analysis -----------------------------------------------------------

def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children[s.id]):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _step_intervals(spans, phase):
    """Gaps between consecutive optimizer_step returns inside each span
    named ``phase``."""
    ends = defaultdict(list)
    phase_ids = {s.id for s in spans if s.name == phase}
    for s in spans:
        if s.name == "numcore.optimizer_step" and s.parent in phase_ids:
            ends[s.parent].append(s.end)
    gaps = []
    for seq in ends.values():
        seq.sort()
        gaps.extend(b - a for a, b in zip(seq, seq[1:]))
    return gaps


def layer_metrics(spans, run_s: float, untraced_run_s: float) -> dict:
    """Every per-layer metric as {name: (value, unit)}.

    Durations, call counts and sizes cover all spans (set-up included, so
    the generator and the CSV writer show); self times cover only the
    ``run`` window, whose traced wall time is ``run_s``.
    """
    calls, total, size = defaultdict(int), defaultdict(float), defaultdict(float)
    biggest = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.end - s.start
        if s.amount is not None:
            size[s.name] += s.amount
            biggest[s.name] = max(biggest[s.name], s.amount)

    def us_per_call(name):
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    selfs = self_times(spans)
    run_spans = [s for s in spans if s.group.split("/")[0] == "run"]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in run_spans:
        layer_self[s.name.split(".")[0]] += selfs[s.id]
    roots = sum(s.end - s.start for s in run_spans if s.parent is None)
    ft_self = sum(selfs[s.id] for s in spans if s.name == "trainer.finetune")
    eval_self = sum(selfs[s.id] for s in spans if s.name == "cli.eval")
    pre_gaps = _step_intervals(spans, "trainer.pretrain")
    ft_gaps = _step_intervals(spans, "trainer.finetune")

    # survival: final live / initial centers, summed over finetune calls
    kids = defaultdict(list)
    for s in spans:
        kids[s.parent].append(s)
    initial, final = 0.0, 0.0
    for s in spans:
        if s.name == "trainer.finetune":
            km = [c.amount for c in kids[s.id] if c.name == "spheres.kmeans"]
            pr = [c for c in kids[s.id] if c.name == "spheres.prune"]
            if km:
                initial += km[0]
                final += max(pr, key=lambda c: c.end).amount if pr else km[0]

    m = {
        "trainer.pretrain.s": (total["trainer.pretrain"], "s"),
        "trainer.finetune.s": (total["trainer.finetune"], "s"),
        "trainer.evaluate.s": (total["trainer.evaluate"], "s"),
        "trainer.finetune.bookkeeping_s": (ft_self, "s"),
        "trainer.pretrain.step_us.p50": (1e6 * percentile(pre_gaps, 50), "us"),
        "trainer.pretrain.step_us.p99": (1e6 * percentile(pre_gaps, 99), "us"),
        "trainer.finetune.step_us.p50": (1e6 * percentile(ft_gaps, 50), "us"),
        "trainer.finetune.step_us.p99": (1e6 * percentile(ft_gaps, 99), "us"),
        "trainer.steps": (calls["numcore.optimizer_step"], "count"),
        "trainer.save_checkpoint.s": (total["trainer.save_checkpoint"], "s"),
        "trainer.save_checkpoint.bytes": (size["trainer.save_checkpoint"], "B"),
        "trainer.load_checkpoint.s": (total["trainer.load_checkpoint"], "s"),
        "trainer.load_checkpoint.bytes": (size["trainer.load_checkpoint"], "B"),
        "data.augment_pairs.us_per_call": (us_per_call("data.augment_pairs"),
                                           "us"),
        "data.generate_synthetic.s": (total["data.generate_synthetic"], "s"),
        "data.save_csv.s": (total["data.save_csv"], "s"),
        "data.save_csv.mb_per_s": (
            rate(size["data.save_csv"] / 1e6, total["data.save_csv"]), "MB/s"),
        "data.load_csv.s": (total["data.load_csv"], "s"),
        "data.load_csv.rows_per_s": (
            rate(size["data.load_csv"], total["data.load_csv"]), "rows/s"),
        "numcore.forward.calls": (calls["numcore.forward"], "count"),
        "numcore.forward.us_per_call": (us_per_call("numcore.forward"), "us"),
        "numcore.backward.us_per_call": (us_per_call("numcore.backward"), "us"),
        "numcore.optimizer_step.us_per_call": (
            us_per_call("numcore.optimizer_step"), "us"),
        "losses.info_nce.us_per_call": (us_per_call("losses.info_nce"), "us"),
        "losses.mad_loss.us_per_call": (us_per_call("losses.mad_loss"), "us"),
        "spheres.kmeans.s": (total["spheres.kmeans"], "s"),
        "spheres.assign_and_count.us_per_call": (
            us_per_call("spheres.assign_and_count"), "us"),
        "spheres.live_center_epochs": (size["spheres.prune"], "count"),
        "spheres.center_survival": (rate(final, initial), "1"),
        "evaluation.knn_score.s": (total["evaluation.knn_score"], "s"),
        "evaluation.knn_score.matrix_mb": (
            biggest["evaluation.knn_score"] / 1e6, "MB"),
        "evaluation.auc.us_per_call": (us_per_call("evaluation.auc"), "us"),
        "cli.eval.self_s": (eval_self, "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["tracing.run_s"] = (run_s, "s")
    m["tracing.untraced_s"] = (run_s - roots, "s")
    m["tracing.spans"] = (len(spans), "count")
    m["tracing.overhead"] = (rate(run_s, untraced_run_s), "1")
    return m
