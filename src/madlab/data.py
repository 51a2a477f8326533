"""Synthetic multi-mode dataset generation, augmentation pairs, splits.

Normal samples come from M well-separated Gaussian modes, each supported
on its own random low-dimensional subspace; anomalies are uniform-radius
shells (full-dimensional directions, hence off the normal manifold)
around a random mode plus inter-mode midpoints. Samples are organized
into groups (the analog of repeated studies of one subject) and a group
never straddles splits. Ground truth is carried on every sample for
evaluation only: training code receives a ``TrainingView`` that simply
does not contain it.
"""

from __future__ import annotations

import contextlib
import csv
import logging
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .config import AugmentationConfig, GeneratorConfig
from .errors import ConfigError, SchemaError

log = logging.getLogger(__name__)

# Three-way training label (the CSV ``label`` column); +-1 match the
# ground-truth convention below.
UNLABELED = 0
KNOWN_NORMAL = 1
KNOWN_ABNORMAL = -1

GT_NORMAL = 1
GT_ABNORMAL = -1

_GT_NAMES = {GT_NORMAL: "normal", GT_ABNORMAL: "abnormal"}
_GT_VALUES = {v: k for k, v in _GT_NAMES.items()}
_LABEL_NAMES = {UNLABELED: "unlabeled", KNOWN_NORMAL: "normal",
                KNOWN_ABNORMAL: "abnormal"}
_LABEL_VALUES = {v: k for k, v in _LABEL_NAMES.items()}

SPLITS = ("train", "val", "test")


@dataclass
class Dataset:
    """Columnar sample store for one split."""

    features: np.ndarray       # (n, dim) float64
    labels: np.ndarray         # (n,) int8: 0 / +1 / -1
    ground_truth: np.ndarray   # (n,) int8: +1 normal / -1 abnormal
    mode_ids: np.ndarray       # (n,) int64
    group_ids: np.ndarray      # (n,) int64
    split: str

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int8)
        self.ground_truth = np.asarray(self.ground_truth, dtype=np.int8)
        self.mode_ids = np.asarray(self.mode_ids, dtype=np.int64)
        self.group_ids = np.asarray(self.group_ids, dtype=np.int64)
        self.validate()

    def validate(self):
        n = self.features.shape[0]
        if self.features.ndim != 2:
            raise SchemaError("features must be a 2-d array")
        for name in ("labels", "ground_truth", "mode_ids", "group_ids"):
            if getattr(self, name).shape != (n,):
                raise SchemaError(f"{name} length does not match {n} samples")
        if self.split not in SPLITS:
            raise SchemaError(f"unknown split {self.split!r}")
        if not np.all(np.isfinite(self.features)):
            raise SchemaError("non-finite feature values")
        if not set(np.unique(self.labels)) <= set(_LABEL_NAMES):
            raise SchemaError("labels must be in {0, +1, -1}")
        if not set(np.unique(self.ground_truth)) <= set(_GT_NAMES):
            raise SchemaError("ground_truth must be in {+1, -1}")
        labeled = self.labels != UNLABELED
        if np.any(self.labels[labeled] != self.ground_truth[labeled]):
            raise SchemaError("a labeled sample disagrees with its ground truth")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def training_view(self) -> "TrainingView":
        """What the trainer is allowed to see: features and labels only."""
        return TrainingView(self.features, self.labels)


@dataclass(frozen=True)
class TrainingView:
    features: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.features.shape[0]


def _huge_rows(features) -> np.ndarray:
    """Rows whose squared norm is not finite: their distances overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return ~np.isfinite(np.square(features).sum(axis=-1))


def _draw_mode_centers(cfg: GeneratorConfig, rng) -> np.ndarray:
    if cfg.modes == 1:
        return rng.normal(0.0, cfg.mode_sigma, size=(1, cfg.dim))
    min_sep = cfg.MIN_CENTER_SEPARATION * cfg.mode_sigma
    scale = cfg.center_spacing * cfg.mode_sigma / math.sqrt(2 * cfg.dim)
    for _ in range(500):
        centers = rng.normal(0.0, scale, size=(cfg.modes, cfg.dim))
        d = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
        if d[np.triu_indices(cfg.modes, 1)].min() >= min_sep:
            return centers
        scale *= 1.05
    raise ConfigError("could not place mode centers at the required separation "
                      f"with data.mode_sigma={cfg.mode_sigma!r} and "
                      f"data.center_spacing={cfg.center_spacing!r}")


def _draw_mode_bases(cfg: GeneratorConfig, rng) -> np.ndarray:
    """Per-mode orthonormal basis of the normal subspace: (M, dim, rank)."""
    bases = np.empty((cfg.modes, cfg.dim, cfg.rank))
    for m in range(cfg.modes):
        q, _ = np.linalg.qr(rng.normal(size=(cfg.dim, cfg.rank)))
        bases[m] = q
    return bases


def _spread_counts(total: int, n_bins: int) -> list[int]:
    base, extra = divmod(total, n_bins)
    return [base + (1 if i < extra else 0) for i in range(n_bins)]


def _normal_groups(cfg, centers, bases, n_samples, rng, next_group):
    """Homogeneous groups of normal samples, modes balanced then shuffled."""
    n_groups = max(1, math.ceil(n_samples / cfg.group_size))
    modes = np.resize(np.arange(cfg.modes), n_groups)
    rng.shuffle(modes)
    feats, mode_col, group_col = [], [], []
    for g, count in enumerate(_spread_counts(n_samples, n_groups)):
        if count == 0:
            continue
        m = int(modes[g])
        in_plane = rng.normal(size=(count, cfg.rank)) @ (
            cfg.plane_sigma * bases[m].T)
        ambient = cfg.ambient_noise * cfg.mode_sigma * rng.normal(
            size=(count, cfg.dim))
        feats.append(centers[m] + in_plane + ambient)
        mode_col.append(np.full(count, m))
        group_col.append(np.full(count, next_group + g))
    return (np.concatenate(feats), np.concatenate(mode_col),
            np.concatenate(group_col), next_group + n_groups)


def _abnormal_groups(cfg, centers, n_samples, rng, next_group):
    """Shell and inter-mode midpoint anomaly groups."""
    n_groups = max(1, math.ceil(n_samples / cfg.group_size))
    n_mid = round(cfg.midpoint_fraction * n_groups) if cfg.modes >= 2 else 0
    kinds = np.array(["mid"] * n_mid + ["shell"] * (n_groups - n_mid))
    rng.shuffle(kinds)
    feats, mode_col, group_col = [], [], []
    for g, count in enumerate(_spread_counts(n_samples, n_groups)):
        if count == 0:
            continue
        if kinds[g] == "mid":
            i, j = rng.choice(cfg.modes, size=2, replace=False)
            base = 0.5 * (centers[i] + centers[j])
            x = base + cfg.plane_sigma * rng.normal(size=(count, cfg.dim))
            mode = int(min(i, j))
        else:
            mode = int(rng.integers(cfg.modes))
            u = rng.normal(size=(count, cfg.dim))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            r = rng.uniform(cfg.shell_inner, cfg.shell_outer, size=(count, 1))
            x = centers[mode] + cfg.mode_sigma * r * u
        feats.append(x)
        mode_col.append(np.full(count, mode))
        group_col.append(np.full(count, next_group + g))
    return (np.concatenate(feats), np.concatenate(mode_col),
            np.concatenate(group_col), next_group + n_groups)


def _draw_labels(ground_truth, ratio: float, normal_fraction: float,
                 rng) -> np.ndarray:
    """Label ``round(n * ratio)`` samples, ``normal_fraction`` of them
    known-normal; the known-normal rows are drawn first."""
    n_labeled = round(len(ground_truth) * ratio)
    n_norm = round(n_labeled * normal_fraction)
    n_ab = n_labeled - n_norm
    norm_idx = np.flatnonzero(ground_truth == GT_NORMAL)
    ab_idx = np.flatnonzero(ground_truth == GT_ABNORMAL)
    if n_norm > norm_idx.size or n_ab > ab_idx.size:
        raise ConfigError(
            f"labeled counts {n_norm}/{n_ab} exceed the available "
            f"{norm_idx.size}/{ab_idx.size} normal/abnormal train samples")
    labels = np.zeros(len(ground_truth), dtype=np.int8)
    labels[rng.choice(norm_idx, n_norm, replace=False)] = KNOWN_NORMAL
    labels[rng.choice(ab_idx, n_ab, replace=False)] = KNOWN_ABNORMAL
    return labels


@np.errstate(over="ignore", invalid="ignore")  # the features are checked
def generate_synthetic(cfg: GeneratorConfig):
    """Produce the (train, val, test) datasets for one seed.

    Train carries the configured contamination and the labeled subset
    (split ``labeled_normal_fraction`` : rest between known-normal and
    known-abnormal); val/test use ``eval_abnormal_ratio`` and stay fully
    unlabeled. Group ids are disjoint across splits by construction.
    Scales so large that a split's features or their squared norms overflow
    raise ``ConfigError``.
    """
    center_rng = np.random.default_rng([cfg.seed, 101])
    centers = _draw_mode_centers(cfg, center_rng)
    bases = _draw_mode_bases(cfg, np.random.default_rng([cfg.seed, 102]))

    datasets = []
    next_group = 0
    plans = [("train", cfg.train_size, cfg.contamination),
             ("val", cfg.val_size, cfg.eval_abnormal_ratio),
             ("test", cfg.test_size, cfg.eval_abnormal_ratio)]
    for split_idx, (split, size, ab_ratio) in enumerate(plans):
        rng = np.random.default_rng([cfg.seed, 200 + split_idx])
        n_ab = round(size * ab_ratio)
        n_norm = size - n_ab

        parts = []
        if n_norm > 0:
            f, m, g, next_group = _normal_groups(cfg, centers, bases, n_norm,
                                                 rng, next_group)
            parts.append((f, m, g, np.full(len(f), GT_NORMAL)))
        if n_ab > 0:
            f, m, g, next_group = _abnormal_groups(cfg, centers, n_ab, rng,
                                                   next_group)
            parts.append((f, m, g, np.full(len(f), GT_ABNORMAL)))

        features = np.concatenate([p[0] for p in parts])
        if _huge_rows(features).any():
            raise ConfigError(
                f"generated {split} features overflow float64 (non-finite "
                "values or squared norms); reduce the generator's scales")
        mode_ids = np.concatenate([p[1] for p in parts])
        group_ids = np.concatenate([p[2] for p in parts])
        gt = np.concatenate([p[3] for p in parts])

        perm = rng.permutation(size)
        features, mode_ids = features[perm], mode_ids[perm]
        group_ids, gt = group_ids[perm], gt[perm]

        labels = np.zeros(size, dtype=np.int8)
        if split == "train":
            labels = _draw_labels(gt, cfg.labeled_ratio,
                                  cfg.labeled_normal_fraction,
                                  np.random.default_rng([cfg.seed, 300]))

        datasets.append(Dataset(features, labels, gt, mode_ids, group_ids, split))

    return tuple(datasets)


def relabel(train_ds: Dataset, labeled_ratio: float,
            labeled_normal_fraction: float, seed) -> Dataset:
    """Re-draw the labeled subset of a train split at a new ratio.

    Generation-side operation (it reads ground truth, like the generator
    does); used for labeled-ratio sweeps over a fixed on-disk dataset.
    """
    labels = _draw_labels(train_ds.ground_truth, labeled_ratio,
                          labeled_normal_fraction,
                          np.random.default_rng([seed, 301]))
    return Dataset(train_ds.features, labels, train_ds.ground_truth,
                   train_ds.mode_ids, train_ds.group_ids, train_ds.split)


def augment_pairs(features: np.ndarray, cfg: AugmentationConfig, rng):
    """Vectorized pair augmentation for a whole batch: returns (A, B)."""
    n, d = features.shape
    out = []
    for _ in range(2):
        scale = 1.0 + rng.uniform(-cfg.scale_jitter, cfg.scale_jitter, size=(n, 1))
        noise = rng.normal(0.0, cfg.noise_sigma, size=(n, d))
        view = features * scale + noise
        view[rng.random((n, d)) < cfg.dropout_prob] = 0.0
        out.append(view)
    return out[0], out[1]


# --- file output and CSV serialization --------------------------------

@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kw):
    """Write through a temp file beside ``path`` that replaces it on success,
    so a failure part way leaves any previous file intact. An ``OSError``
    that names no file is raised again naming ``path``."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, mode, **open_kw)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        os.remove(tmp)
        if isinstance(exc, OSError) and exc.errno and exc.filename is None:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def _header(dim: int) -> list[str]:
    return ["group_id", "mode_id", "ground_truth", "label"] + [
        f"f{i}" for i in range(dim)]


def save_csv(dataset: Dataset, path):
    """Write one split: decimal features at 9 significant digits.

    One ``%``-format per row writes the bytes ``csv.writer`` wrote for the
    same fields; the arrays become Python values 1024 rows at a time.
    """
    row = "%d,%d,%s,%s" + ",%.9g" * dataset.dim + "\r\n"
    with atomic_write(path, newline="") as fh:
        fh.write(",".join(_header(dataset.dim)) + "\r\n")
        for start in range(0, len(dataset), 1024):
            block = slice(start, start + 1024)
            fh.writelines(
                row % (g, m, _GT_NAMES[gt], _LABEL_NAMES[label], *feats)
                for g, m, gt, label, feats in zip(
                    dataset.group_ids[block].tolist(),
                    dataset.mode_ids[block].tolist(),
                    dataset.ground_truth[block].tolist(),
                    dataset.labels[block].tolist(),
                    dataset.features[block].tolist()))


def _codes(column, values: dict, path) -> np.ndarray:
    """Map a column of names to their codes; an unknown name raises
    SchemaError naming the line of its first row."""
    names, inverse = np.unique(column, return_inverse=True)
    unknown = ~np.isin(names, list(values))[inverse]
    if unknown.any():
        row = int(np.argmax(unknown))
        raise SchemaError(f"{path}:{row + 2}: unknown value {str(column[row])!r}")
    return np.array([values[n] for n in names.tolist()], dtype=np.int8)[inverse]


def load_csv(path, split: str) -> Dataset:
    """Read one split back; schema violations raise SchemaError.

    ``csv`` reads the header; numpy's C parser reads the body, unquoted
    fields and ``\\n``, ``\\r\\n`` or ``\\r`` line ends, in one ``np.loadtxt``
    call, skipping blank lines. A line number in an error counts the lines
    up to the row, blank lines excepted.
    """
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise SchemaError(f"{path}: empty file")
            if len(header) < 5 or header[:4] != _header(0)[:4]:
                raise SchemaError(f"{path}: unexpected header {header[:4]}")
            dim = len(header) - 4
            if header != _header(dim):
                raise SchemaError(f"{path}: feature columns must be f0..f{dim - 1}")
            # name fields one char wider than any name: none is cut to fit
            row = [("g", np.int64), ("m", np.int64),
                   ("gt", f"U{max(map(len, _GT_VALUES)) + 1}"),
                   ("label", f"U{max(map(len, _LABEL_VALUES)) + 1}"),
                   ("f", np.float64, (dim,))]
            with warnings.catch_warnings():  # a header-only file has no rows
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, dtype=row, delimiter=",", comments=None,
                                  ndmin=1)
    except SchemaError:
        raise
    except ValueError as exc:  # undecodable bytes, a bad number, a bad row
        raise SchemaError(f"{path}: {exc}") from None

    gts = _codes(rows["gt"], _GT_VALUES, path)
    labels = _codes(rows["label"], _LABEL_VALUES, path)
    features = rows["f"].copy()  # a field is a strided view, maybe unaligned
    if features.size and not np.all(np.isfinite(features)):
        raise SchemaError(f"{path}: non-finite feature values")
    huge = _huge_rows(features)
    if huge.any():
        raise SchemaError(f"{path}:{int(np.argmax(huge)) + 2}: feature values "
                          "too large (squared norm overflows)")
    return Dataset(features, labels, gts, rows["m"].copy(), rows["g"].copy(),
                   split)


def save_splits(datasets, out_dir):
    """Write train.csv / val.csv / test.csv into ``out_dir``."""
    paths = []
    for ds in datasets:
        p = os.path.join(out_dir, f"{ds.split}.csv")
        save_csv(ds, p)
        paths.append(p)
    return paths


def load_splits(data_dir, cfg: GeneratorConfig):
    """Load the three split files from ``data_dir`` as ``cfg`` trains on
    them: ``cfg.dim`` features, a presumed-normal train row, both classes in
    val and test; a train split whose labeled count is more than one row off
    ``cfg.labeled_ratio`` is relabeled at that ratio with ``cfg.seed``."""
    out = []
    for split in SPLITS:
        p = os.path.join(data_dir, f"{split}.csv")
        if not os.path.exists(p):
            raise SchemaError(f"missing data file {p}")
        out.append(load_csv(p, split))
        if out[-1].dim != cfg.dim:
            raise SchemaError(f"{p}: data dim {out[-1].dim} does not match "
                              f"the configured {cfg.dim}")
    train = out[0]
    if not np.any(train.labels >= 0):
        raise SchemaError(f"{data_dir}: train split has no presumed-normal row")
    for ds in out[1:]:
        if np.unique(ds.ground_truth).size < 2:
            raise SchemaError(f"{data_dir}: {ds.split} split needs both classes")
    if abs(cfg.labeled_ratio * len(train)
           - int(np.sum(train.labels != UNLABELED))) > 1.0:
        log.info("relabeling train split at ratio %g", cfg.labeled_ratio)
        try:
            out[0] = relabel(train, cfg.labeled_ratio,
                             cfg.labeled_normal_fraction, cfg.seed)
        except ConfigError as exc:
            raise SchemaError(f"{data_dir}: train split: {exc}") from None
    return tuple(out)
