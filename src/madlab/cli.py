"""Command-line surface: generate / train / eval / compare.

Exit codes: 0 success, 1 invalid configuration or usage, 2 data-file or
metrics-file schema violation, 3 numeric abort during training, 4
checkpoint missing, corrupt or not restorable, 5 too few replicates to
compare, 128 + signal number on SIGINT or SIGTERM. MADLAB_LOG selects
the log level (error|info|debug).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import signal
import sys

from . import __version__
from .config import (ExperimentConfig, apply_overrides, default_config,
                     load_config, serialize_config, to_experiment)
from .data import (ABNORMAL, LABEL_NAMES, atomic_write, generate_synthetic,
                   load_splits, save_splits)
from .errors import (ConfigError, MadlabError, NumericsError, SchemaError,
                     StateError)
from .evaluation import (  # noqa: F401 -- knn_score: a perfbench/tracer.py patch point
    auc, knn_score, replicate_ci, significance_code, welch_t_test)
from .spheres import anomaly_scores  # noqa: F401 -- perfbench/tracer.py patches it here
from .trainer import (experiment_hash, load_checkpoint, run_experiment,
                      save_checkpoint, score_splits)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3
EXIT_CHECKPOINT = 4
EXIT_REPLICATES = 5

# the exit code of each error kind; any other error exits EXIT_CONFIG
_EXIT_CODES = ((SchemaError, EXIT_SCHEMA), (NumericsError, EXIT_NUMERIC),
               (StateError, EXIT_CHECKPOINT))


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


def _load_cfg(args, ratio=None) -> ExperimentConfig:
    """--config, --set, --seed, --replicates, then an arm's ratio, in order."""
    cfg = load_config(args.config) if args.config else default_config()
    cfg = apply_overrides(cfg, args.set)
    if args.seed is not None:
        cfg["run.seed"] = args.seed
    if getattr(args, "replicates", None) is not None:
        cfg["run.replicates"] = args.replicates
    if ratio is not None:
        cfg["data.labeled_ratio"] = ratio
    return to_experiment(cfg)


def _write_json(path, obj):
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_generate(args) -> int:
    datasets = generate_synthetic(_load_cfg(args).data)
    os.makedirs(args.out, exist_ok=True)
    paths = save_splits(datasets, args.out)
    for ds, p in zip(datasets, paths):
        log.info("wrote %s (%d rows)", p, len(ds))
    print(f"generated {', '.join(os.path.basename(p) for p in paths)} "
          f"in {args.out}")
    return EXIT_OK


def _train_once(exp, data_dir: str, out_dir: str, workers) -> int:
    datasets = load_splits(data_dir, exp.data)

    def persist(r, state):
        save_checkpoint(os.path.join(out_dir, f"checkpoint_r{r}.npz"), state)
        with atomic_write(os.path.join(out_dir, f"centers_r{r}.jsonl")) as fh:
            fh.writelines(json.dumps({key: rec[key] for key in (
                "epoch", "live", "counts")}) + "\n" for rec in state.ft_history)

    result = run_experiment(exp, datasets, on_replicate=persist,
                            workers=workers)

    with atomic_write(os.path.join(out_dir, "config.cfg")) as fh:
        fh.write(serialize_config(exp))
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


def _refuse_used_dir(path: str) -> None:
    if os.path.exists(path) and (not os.path.isdir(path) or os.listdir(path)):
        raise ConfigError(f"{path} is not a new or empty directory")


def cmd_train(args) -> int:
    ratios = args.labeled_ratio or [None]  # None: the config's own ratio
    # every ratio's config is checked before any ratio trains
    exps = [_load_cfg(args, r) for r in ratios]
    dirs = ([args.out] if len(ratios) == 1 else
            [os.path.join(args.out, f"labeled_{r:g}") for r in ratios])
    if not os.path.isdir(args.out):  # a file; a sweep may add arms to a dir
        _refuse_used_dir(args.out)
    for i, out_dir in enumerate(dirs):
        if out_dir in dirs[:i]:
            raise ConfigError(f"labeled ratios {ratios[dirs.index(out_dir)]!r}"
                              f" and {ratios[i]!r} share the directory {out_dir}")
        _refuse_used_dir(out_dir)
    for out_dir in dirs:  # an --out under a plain file fails before any data
        os.makedirs(out_dir, exist_ok=True)
    status = EXIT_OK
    for ratio, exp, out_dir in zip(ratios, exps, dirs):
        if ratio is not None:
            print(f"== labeled ratio {ratio:g} -> {out_dir}")
        status = max(status, _train_once(exp, args.data, out_dir,
                                         args.workers))
    return status


def cmd_eval(args) -> int:
    state = load_checkpoint(args.checkpoint)
    if state.phase == "pretrain":
        raise StateError(
            "checkpoint has no trained detection model; cannot evaluate")
    exp = state.config
    train, target = load_splits(args.data, exp.data, [args.split])
    [(scores, knn)] = score_splits(exp, state.pretext_model, state.mad_model,
                                   state.centers, train, [target],
                                   args.embedding)

    out_dir = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    os.makedirs(out_dir, exist_ok=True)
    scores_path = os.path.join(out_dir, "scores.csv")
    with atomic_write(scores_path) as fh:
        fh.write("id,score,score_knn,ground_truth\n")
        names = [LABEL_NAMES[g] for g in target.ground_truth.tolist()]
        fh.writelines("%d,%r,%r,%s\n" % (i, *row) for i, row in enumerate(
            zip(scores.tolist(), knn.tolist(), names)))

    positives = target.ground_truth == ABNORMAL
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
        print(f"error: need >= 2 replicates per side, got {len(vals_a)} and "
              f"{len(vals_b)}", file=sys.stderr)
        return EXIT_REPLICATES
    t, df, p = welch_t_test(vals_a, vals_b)
    code = significance_code(p)
    ca, cb = replicate_ci(vals_a), replicate_ci(vals_b)
    for name, ci in (("a", ca), ("b", cb)):
        print(f"{name}: mean {ci['mean']:.4f} +- {ci['half_width']:.4f} "
              f"(n={ci['n']})")
    print(f"t = {t:.4f}, df = {df:.2f}, p = {p:.6g}, code {code}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "compare_report.json"),
                    {"metric": args.metric, "split": args.split,
                     "a": ca, "b": cb,
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
    p.add_argument("--metric", default="auc",
                   choices=("auc", "auc_knn", "auc_knn_pretext"))
    p.add_argument("--out", metavar="DIR")
    p.set_defaults(func=cmd_compare)
    return parser


def _interrupt(signum, frame):  # SIGTERM takes SIGINT's path
    raise KeyboardInterrupt(signum)


def main(argv=None) -> int:
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (MadlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kind, code in _EXIT_CODES
                     if isinstance(exc, kind)), EXIT_CONFIG)
    except (MemoryError, ValueError) as exc:  # a size numpy or Python refuses
        log.debug("%r", exc, exc_info=True)
        text = "out of memory" if isinstance(exc, MemoryError) else exc
        print(f"error: {text}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt as exc:  # a worker pool shuts down on the way
        print("error: interrupted", file=sys.stderr)
        return 128 + (exc.args[0] if exc.args else signal.SIGINT)
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
