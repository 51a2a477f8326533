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
import re
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .config import AugmentationConfig, GeneratorConfig
from .errors import ConfigError, SchemaError
from .numcore import BLOCK_BYTES, row_blocks
from .spheres import distances_to, ref_terms

log = logging.getLogger(__name__)

# A sample's ground truth is NORMAL or ABNORMAL; its training label (the
# CSV ``label`` column) is one of the three.
UNLABELED, NORMAL, ABNORMAL = 0, 1, -1
LABEL_NAMES = {UNLABELED: "unlabeled", NORMAL: "normal", ABNORMAL: "abnormal"}
_CODES = {name: code for code, name in LABEL_NAMES.items()}
_GT_CODES = {name: code for name, code in _CODES.items() if code != UNLABELED}

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
        extremes = [self.features.min(initial=0), self.features.max(initial=0)]
        if not np.isfinite(extremes).all():  # no (n, dim) temporary
            raise SchemaError("non-finite feature values")
        # membership, not np.unique: no sort, and numpy.ma stays unimported
        if not np.isin(self.labels, list(LABEL_NAMES)).all():
            raise SchemaError("labels must be in {0, +1, -1}")
        if not np.isin(self.ground_truth, [NORMAL, ABNORMAL]).all():
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
    finite = np.empty(len(features), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in row_blocks(len(features)):  # no (n, dim) temporary
            np.isfinite(np.add.reduce(np.square(features[rows]), -1), out=finite[rows])
    return ~finite


def check_layout(rows, cols, what: str) -> np.ndarray:
    """Lay out and return an array of ``rows`` by ``cols``, each a (config
    key, size) pair; a size numpy refuses raises ConfigError naming both."""
    (r_key, r), (c_key, c) = rows, cols
    try:
        return np.empty((r, c))
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"{r_key} {r} and {c_key} {c} give {what} that "
                          f"cannot be allocated: {exc}") from exc


def _draw_mode_centers(cfg: GeneratorConfig, rng) -> np.ndarray:
    if cfg.modes == 1:
        return rng.normal(0.0, cfg.mode_sigma, size=(1, cfg.dim))
    min_sep = cfg.MIN_CENTER_SEPARATION * cfg.mode_sigma
    scale = cfg.center_spacing * cfg.mode_sigma / math.sqrt(2 * cfg.dim)
    for _ in range(500):
        centers = rng.normal(0.0, scale, size=(cfg.modes, cfg.dim))
        d2 = distances_to(centers, *ref_terms(centers))
        if np.isfinite(d2).all():  # an overflowing draw counts as too close
            np.fill_diagonal(d2, np.inf)  # 0 where tiny differences underflow
            if math.sqrt(d2.min()) >= min_sep:
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


def _draw_groups(out, plan, draw, rng, next_group):
    """The rows ``out`` of one class in ``len(plan)`` groups whose sizes
    differ by at most one. The plan holds one entry per group and is shuffled;
    then ``draw(rng, count, entry)`` gives each group's features and mode id."""
    rng.shuffle(plan)
    counts = np.full(len(plan), len(out) // len(plan))
    counts[:len(out) % len(plan)] += 1
    modes = []
    for c, e, end in zip(counts.tolist(), plan, np.cumsum(counts).tolist()):
        out[end - c:end], mode = draw(rng, c, e)
        modes.append(mode)
    group_ids = np.arange(next_group, next_group + len(plan))
    return (np.repeat(modes, counts), np.repeat(group_ids, counts),
            next_group + len(plan))


def _draw_labels(ground_truth, ratio: float, normal_fraction: float,
                 rng) -> np.ndarray:
    """Label ``round(n * ratio)`` samples, ``normal_fraction`` of them
    known-normal; the known-normal rows are drawn first."""
    n_labeled = round(len(ground_truth) * ratio)
    n_norm = round(n_labeled * normal_fraction)
    n_ab = n_labeled - n_norm
    norm_idx = np.flatnonzero(ground_truth == NORMAL)
    ab_idx = np.flatnonzero(ground_truth == ABNORMAL)
    if n_norm > norm_idx.size or n_ab > ab_idx.size:
        raise ConfigError(
            f"labeled counts {n_norm}/{n_ab} exceed the available "
            f"{norm_idx.size}/{ab_idx.size} normal/abnormal train samples")
    labels = np.zeros(len(ground_truth), dtype=np.int8)
    labels[rng.choice(norm_idx, n_norm, replace=False)] = NORMAL
    labels[rng.choice(ab_idx, n_ab, replace=False)] = ABNORMAL
    return labels


@np.errstate(over="ignore", invalid="ignore")  # the features are checked
def generate_synthetic(cfg: GeneratorConfig):
    """Produce the (train, val, test) datasets for one seed.

    Train carries the configured contamination and the labeled subset
    (split ``labeled_normal_fraction`` : rest between known-normal and
    known-abnormal); val/test use ``eval_abnormal_ratio`` and stay fully
    unlabeled. Group ids are disjoint across splits by construction.
    Scales so large that a split's features or their squared norms overflow
    raise ``ConfigError``, and so do sizes numpy refuses, before any draw.
    """
    splits = [("train", cfg.train_size, cfg.contamination),
              ("val", cfg.val_size, cfg.eval_abnormal_ratio),
              ("test", cfg.test_size, cfg.eval_abnormal_ratio)]
    dim = ("data.dim", cfg.dim)
    check_layout(("data.modes", cfg.modes), dim, "mode centers")
    check_layout(("data.modes", cfg.modes), ("data.modes", cfg.modes),
                 "mode-center distances")
    drawn = [check_layout((f"data.{split}_size", size), dim, f"a {split} split")
             for split, size, _ in splits]  # the split's groups are drawn in it
    center_rng = np.random.default_rng([cfg.seed, 101])
    centers = _draw_mode_centers(cfg, center_rng)
    bases = _draw_mode_bases(cfg, np.random.default_rng([cfg.seed, 102]))

    def normal(rng, count, m):  # a homogeneous group on mode m's subspace
        in_plane = rng.normal(size=(count, cfg.rank)) @ (
            cfg.plane_sigma * bases[m].T)
        ambient = cfg.ambient_noise * cfg.mode_sigma * rng.normal(
            size=(count, cfg.dim))
        return centers[m] + in_plane + ambient, int(m)

    def abnormal(rng, count, midpoint):  # an inter-mode midpoint or a shell
        if midpoint:
            i, j = rng.choice(cfg.modes, size=2, replace=False)
            base = 0.5 * (centers[i] + centers[j])
            return (base + cfg.plane_sigma * rng.normal(size=(count, cfg.dim)),
                    int(min(i, j)))
        mode = int(rng.integers(cfg.modes))
        u = rng.normal(size=(count, cfg.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = rng.uniform(cfg.shell_inner, cfg.shell_outer, size=(count, 1))
        return centers[mode] + cfg.mode_sigma * r * u, mode

    datasets = []
    next_group = 0
    for split_idx, (split, size, ab_ratio) in enumerate(splits):
        features = drawn.pop(0)  # freed once permuted
        rng = np.random.default_rng([cfg.seed, 200 + split_idx])
        n_ab = round(size * ab_ratio)
        n_norm = size - n_ab
        g_norm, g_ab = (math.ceil(n / cfg.group_size) for n in (n_norm, n_ab))
        n_mid = round(cfg.midpoint_fraction * g_ab) if cfg.modes >= 2 else 0
        # normal rows come first; their groups take the modes in turn and
        # n_mid anomaly groups are midpoints; _draw_groups shuffles each plan
        plans = [(features[:n_norm], np.resize(np.arange(cfg.modes), g_norm),
                  normal), (features[n_norm:], np.arange(g_ab) < n_mid, abnormal)]
        parts = []
        for rows, plan, draw in plans:
            if len(rows):
                *ids, next_group = _draw_groups(rows, plan, draw, rng, next_group)
                parts.append(ids)

        mode_ids, group_ids = map(np.concatenate, zip(*parts))
        gt = np.repeat([NORMAL, ABNORMAL], [n_norm, n_ab])
        if _huge_rows(features).any():
            raise ConfigError(
                f"generated {split} features overflow float64 (non-finite "
                "values or squared norms); reduce the generator's scales")

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
    same fields, made Python values one ``row_blocks`` block at a time.
    """
    row = "%d,%d,%s,%s" + ",%.9g" * dataset.dim + "\r\n"
    with atomic_write(path, newline="") as fh:
        fh.write(",".join(_header(dataset.dim)) + "\r\n")
        for block in row_blocks(len(dataset)):
            fh.writelines(
                row % (g, m, LABEL_NAMES[gt], LABEL_NAMES[label], *feats)
                for g, m, gt, label, feats in zip(
                    dataset.group_ids[block].tolist(),
                    dataset.mode_ids[block].tolist(),
                    dataset.ground_truth[block].tolist(),
                    dataset.labels[block].tolist(),
                    dataset.features[block].tolist()))


def _file_line(path, row: int) -> int:
    """The line of body row ``row`` in the file, the header being line 1 and
    every line counted, blank ones too; read again only to name a bad row."""
    with open(path) as fh:  # universal newlines: \n, \r\n and \r end a line
        next(fh)
        for number, line in enumerate(fh, 2):
            if line != "\n":  # numpy skips only empty lines
                if row == 0:
                    return number
                row -= 1


def _codes(column, values: dict, path, first: int) -> np.ndarray:
    """Map a column of names, body rows from ``first`` on, to their codes;
    an unknown name raises SchemaError naming the line of its first row."""
    names, inverse = np.unique(column, return_inverse=True)
    unknown = ~np.isin(names, list(values))[inverse]
    if unknown.any():
        row = int(np.argmax(unknown))
        raise SchemaError(f"{path}:{_file_line(path, first + row)}: unknown "
                          f"value {str(column[row])!r}")
    return np.array([values[n] for n in names.tolist()], dtype=np.int8)[inverse]


def load_csv(path, split: str) -> Dataset:
    """Read one split back; schema violations raise SchemaError.

    ``csv`` reads the header; numpy's C parser reads the body (unquoted
    fields, ``\\n``, ``\\r\\n`` or ``\\r`` line ends, blank lines skipped) into
    columns sized by the line ends, half ``BLOCK_BYTES`` of parsed rows per
    ``np.loadtxt`` call. An error names the file's line, the header line 1.
    A NUL byte is refused first: numpy's strings drop a trailing one.
    """
    ends = n = 0  # line ends, at least the body's rows; rows parsed
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 18):
                if b"\0" in chunk:
                    raise SchemaError(f"{path}: NUL byte in the file")
                lf = (c := np.frombuffer(chunk, np.uint8)) == 10  # \n or a lone \r
                ends += (np.count_nonzero(lf) + chunk.endswith(b"\r")
                         + np.count_nonzero((c[:-1] == 13) > lf[1:]))
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
            row = np.dtype([("g", np.int64), ("m", np.int64),
                            ("gt", f"U{max(map(len, _GT_CODES)) + 1}"),
                            ("label", f"U{max(map(len, _CODES)) + 1}"),
                            ("f", np.float64, (dim,))])
            features = np.empty((ends, dim))
            (groups, modes), (gts, labels) = (np.empty((2, ends), np.int64),
                                              np.empty((2, ends), np.int8))
            step = max(1, BLOCK_BYTES // (2 * row.itemsize))
            with warnings.catch_warnings():  # blank lines; a block of no rows
                warnings.simplefilter("ignore", UserWarning)
                while True:
                    block = np.loadtxt(fh, dtype=row, delimiter=",",
                                       comments=None, ndmin=1, max_rows=step)
                    rows = slice(n, n := n + len(block))
                    gts[rows] = _codes(block["gt"], _GT_CODES, path, rows.start)
                    labels[rows] = _codes(block["label"], _CODES, path, rows.start)
                    features[rows], modes[rows], groups[rows] = (
                        block["f"], block["m"], block["g"])
                    if len(block) < step:
                        break
    except SchemaError:
        raise
    except ValueError as exc:  # undecodable bytes, a bad number, a bad row
        message = re.sub(r"(?<=at row )\d+", lambda m: str(int(m[0]) + n), str(exc))
        raise SchemaError(f"{path}: {message}") from None  # n rows before its block

    huge = _huge_rows(features := features[:n])  # Dataset names a NaN or inf
    if huge.any() and np.isfinite(features[huge]).all():
        raise SchemaError(f"{path}:{_file_line(path, int(np.argmax(huge)))}: "
                          "feature values too large (squared norm overflows)")
    try:  # a non-finite feature; a label that disagrees with its ground truth
        return Dataset(features, labels[:n], gts[:n], modes[:n], groups[:n], split)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def save_splits(datasets, out_dir):
    """Write train.csv / val.csv / test.csv into ``out_dir``."""
    paths = []
    for ds in datasets:
        p = os.path.join(out_dir, f"{ds.split}.csv")
        save_csv(ds, p)
        paths.append(p)
    return paths


def load_splits(data_dir, cfg: GeneratorConfig, splits=SPLITS[1:]):
    """Load the train split and the named ``splits`` from ``data_dir``, fit
    for ``cfg``: ``cfg.dim`` features, a presumed-normal train row, both
    classes in every other split. Train keeps its labels as on disk
    (``as_configured`` relabels it). Returns (train, *splits)."""
    out = []
    for split in (SPLITS[0], *splits):
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
        if not np.isin([NORMAL, ABNORMAL], ds.ground_truth).all():
            raise SchemaError(f"{data_dir}: {ds.split} split needs both classes")
    return tuple(out)


def as_configured(train: Dataset, cfg: GeneratorConfig, data_dir) -> Dataset:
    """The train split of ``data_dir`` as ``cfg`` trains on it: relabeled at
    ``cfg.labeled_ratio`` with ``cfg.seed`` if its labeled count is more
    than one row off that ratio, else ``train`` itself."""
    if abs(cfg.labeled_ratio * len(train)
           - int(np.sum(train.labels != UNLABELED))) <= 1.0:
        return train
    log.info("relabeling train split at ratio %g", cfg.labeled_ratio)
    try:
        return replace(train, labels=_draw_labels(
            train.ground_truth, cfg.labeled_ratio, cfg.labeled_normal_fraction,
            np.random.default_rng([cfg.seed, 301])))
    except ConfigError as exc:
        raise SchemaError(f"{data_dir}: train split: {exc}") from None
