"""Command-line surface: generate / train / eval / compare.

Exit codes: 0 success, 1 invalid configuration or usage, 2 data-file or
metrics-file schema violation, 3 numeric abort during training, 4
checkpoint missing, corrupt or not restorable, 5 too few replicates to
compare. MADLAB_LOG selects
the log level (error|info|debug).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from . import __version__
from .config import (apply_overrides, default_config, load_config,
                     serialize_config, to_experiment)
from .data import (GT_ABNORMAL, _GT_NAMES, atomic_write, generate_synthetic,
                   load_splits, relabel, save_splits)
from .errors import (ConfigError, DomainError, MadlabError, NumericsError,
                     SchemaError, StateError)
from .evaluation import auc, knn_score, replicate_ci, significance_code, welch_t_test
from .spheres import anomaly_scores
from .trainer import (experiment_hash, load_checkpoint, run_experiment,
                      save_checkpoint)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3
EXIT_CHECKPOINT = 4
EXIT_REPLICATES = 5

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for schema
        raise ConfigError(message)


def _worker_count(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _setup_logging():
    level = os.environ.get("MADLAB_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    if level not in levels:
        raise ConfigError(f"MADLAB_LOG must be error|info|debug, got {level!r}")
    logging.basicConfig(level=levels[level],
                        format="%(levelname)s %(name)s: %(message)s")


def _load_cfg(args) -> dict:
    cfg = load_config(args.config) if args.config else default_config()
    cfg = apply_overrides(cfg, getattr(args, "set", None))
    if getattr(args, "seed", None) is not None:
        cfg["run.seed"] = args.seed
    if getattr(args, "replicates", None) is not None:
        cfg["run.replicates"] = args.replicates
    return cfg


def _write_json(path, obj):
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_generate(args) -> int:
    cfg = _load_cfg(args)
    exp = to_experiment(cfg)
    os.makedirs(args.out, exist_ok=True)
    datasets = generate_synthetic(exp.data)
    paths = save_splits(datasets, args.out)
    for ds, p in zip(datasets, paths):
        log.info("wrote %s (%d rows)", p, len(ds))
    print(f"generated {', '.join(os.path.basename(p) for p in paths)} "
          f"in {args.out}")
    return EXIT_OK


def _train_once(cfg: dict, data_dir: str, out_dir: str, workers) -> int:
    exp = to_experiment(cfg)
    datasets = load_splits(data_dir)
    if datasets[0].dim != exp.data.dim:
        raise SchemaError(
            f"data dim {datasets[0].dim} does not match configured "
            f"{exp.data.dim}")
    os.makedirs(out_dir, exist_ok=True)

    train_ds, val_ds, test_ds = datasets
    if abs(cfg["data.labeled_ratio"] * len(train_ds)
           - int(np.sum(train_ds.labels != 0))) > 1.0:
        log.info("relabeling train split at ratio %g", cfg["data.labeled_ratio"])
        train_ds = relabel(train_ds, cfg["data.labeled_ratio"],
                           cfg["data.labeled_normal_fraction"], exp.seed)
        datasets = (train_ds, val_ds, test_ds)

    def persist(r, state):
        save_checkpoint(os.path.join(out_dir, f"checkpoint_r{r}.npz"), state)
        with atomic_write(os.path.join(out_dir, f"centers_r{r}.jsonl")) as fh:
            hist = state.ft_history or {"live": [], "counts": []}
            for epoch, (live, counts) in enumerate(
                    zip(hist["live"], hist["counts"])):
                fh.write(json.dumps({"epoch": epoch, "live": live,
                                     "counts": counts}) + "\n")

    result = run_experiment(exp, datasets, on_replicate=persist,
                            workers=workers)

    with atomic_write(os.path.join(out_dir, "config.cfg")) as fh:
        fh.write(serialize_config(cfg))
    _write_json(os.path.join(out_dir, "metrics.json"), result.metrics_dict())
    _write_json(os.path.join(out_dir, "run_info.json"),
                {"config_hash": result.config_hash,
                 "wall_clock_sec": result.wall_clock_sec,
                 "versions": result.versions, "workers": result.workers,
                 "replicate_sec": result.replicate_sec})

    for name in ("val_auc", "test_auc"):
        if name in result.aggregate:
            a = result.aggregate[name]
            print(f"{name}: {a['mean']:.4f} +- {a['half_width']:.4f} "
                  f"(n={a['n']})")
    if result.errors:
        first = result.errors[0]
        print(f"error: {len(result.errors)} replicate(s) aborted; first: "
              f"replicate {first['replicate']}: {first['error']}",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    ratios = args.labeled_ratio
    if not ratios:
        return _train_once(cfg, args.data, args.out, args.workers)
    status = EXIT_OK
    for ratio in ratios:
        sub = apply_overrides(cfg, [f"data.labeled_ratio={ratio}"])
        out_dir = (args.out if len(ratios) == 1
                   else os.path.join(args.out, f"labeled_{ratio:g}"))
        print(f"== labeled ratio {ratio:g} -> {out_dir}")
        status = max(status, _train_once(sub, args.data, out_dir,
                                         args.workers))
    return status


def cmd_eval(args) -> int:
    state = load_checkpoint(args.checkpoint)
    if state.mad_model is None or state.centers is None:
        raise StateError(
            "checkpoint has no trained detection model; cannot evaluate")
    exp = state.config
    datasets = load_splits(args.data)
    if datasets[0].dim != exp.data.dim:
        raise SchemaError(
            f"data dim {datasets[0].dim} does not match checkpoint config "
            f"{exp.data.dim}")
    train_ds = datasets[0]
    target = {"val": datasets[1], "test": datasets[2]}[args.split]

    emb = state.mad_model.embed(target.features)
    scores = anomaly_scores(emb, state.centers)
    presumed = train_ds.labels >= 0
    if args.embedding == "mad":
        ref = state.mad_model.embed(train_ds.features[presumed])
        query = emb
    else:
        ref = state.pretext_model.embed_body(train_ds.features[presumed])
        query = state.pretext_model.embed_body(target.features)
    knn = knn_score(query, ref, exp.knn_k)

    out_dir = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    os.makedirs(out_dir, exist_ok=True)
    scores_path = os.path.join(out_dir, "scores.csv")
    with atomic_write(scores_path) as fh:
        fh.write("id,score,score_knn,ground_truth\n")
        for i in range(len(target)):
            fh.write(f"{i},{float(scores[i])!r},{float(knn[i])!r},"
                     f"{_GT_NAMES[int(target.ground_truth[i])]}\n")

    positives = target.ground_truth == GT_ABNORMAL
    metrics = {"split": args.split, "embedding": args.embedding,
               "auc": auc(scores, positives),
               "auc_knn": auc(knn, positives),
               "config_hash": experiment_hash(exp)}
    _write_json(os.path.join(out_dir, "eval_metrics.json"), metrics)
    print(f"{args.split} auc={metrics['auc']:.4f} "
          f"auc_knn[{args.embedding}]={metrics['auc_knn']:.4f}")
    return EXIT_OK


def _replicate_values(path, split, metric):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # invalid JSON or text encoding
        raise SchemaError(f"{path}: {exc}") from exc
    records = doc.get("records", []) if isinstance(doc, dict) else None
    if not (isinstance(records, list)
            and all(isinstance(r, dict) for r in records)):
        raise SchemaError(f"{path}: 'records' must be a list of objects")
    vals = [r[metric] for r in records
            if r.get("split") == split and metric in r]
    if any(isinstance(v, bool) or not isinstance(v, (int, float))
           or not math.isfinite(v) for v in vals):
        raise SchemaError(f"{path}: {metric!r} values must be finite numbers")
    return vals


def cmd_compare(args) -> int:
    vals_a = _replicate_values(args.metrics_a, args.split, args.metric)
    vals_b = _replicate_values(args.metrics_b, args.split, args.metric)
    if len(vals_a) < 2 or len(vals_b) < 2:
        print(f"need >= 2 replicates per side, got {len(vals_a)} and "
              f"{len(vals_b)}", file=sys.stderr)
        return EXIT_REPLICATES
    t, df, p = welch_t_test(vals_a, vals_b)
    code = significance_code(p)
    ca, cb = replicate_ci(vals_a), replicate_ci(vals_b)
    print(f"a: mean {ca.mean:.4f} +- {ca.half_width:.4f} (n={len(vals_a)})")
    print(f"b: mean {cb.mean:.4f} +- {cb.half_width:.4f} (n={len(vals_b)})")
    print(f"t = {t:.4f}, df = {df:.2f}, p = {p:.6g}, code {code}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "compare_report.json"),
                    {"metric": args.metric, "split": args.split,
                     "a": ca.as_dict(), "b": cb.as_dict(),
                     "t": t, "df": df, "p": p, "code": code})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="madlab",
                     description="Self-taught multi-mode anomaly detection "
                                 "on synthetic feature vectors.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="key=value config file (defaults when omitted)")
    common.add_argument("--seed", type=int, metavar="U64",
                        help="override run.seed")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")

    p = sub.add_parser("generate", parents=[common],
                       help="write train/val/test CSVs")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", parents=[common],
                       help="run the replicated experiment on on-disk data")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--replicates", type=int, metavar="N")
    p.add_argument("--labeled-ratio", action="append", type=float,
                   metavar="R", help="relabel train at this ratio; repeat "
                   "for a sweep (subdirectory per ratio)")
    p.add_argument("--workers", type=_worker_count, metavar="N",
                   help="worker processes for the replicates (default: one "
                   "per core, at most one per replicate)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a split from a checkpoint")
    p.add_argument("--checkpoint", required=True, metavar="FILE")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--out", metavar="DIR",
                   help="default: directory of the checkpoint")
    p.add_argument("--split", choices=("val", "test"), default="val")
    p.add_argument("--embedding", choices=("mad", "pretext"), default="mad",
                   help="space for the kNN score column")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="Welch t-test between two runs")
    p.add_argument("metrics_a", metavar="METRICS_A.json")
    p.add_argument("metrics_b", metavar="METRICS_B.json")
    p.add_argument("--split", choices=("val", "test"), default="test")
    p.add_argument("--metric", default="auc")
    p.add_argument("--out", metavar="DIR")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except StateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except (ConfigError, DomainError, MadlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
