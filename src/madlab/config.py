"""The experiment configuration: typed dataclasses and their flat form.

The frozen dataclasses below are the only config schema. Every field whose
metadata carries a ``doc`` is a user-settable key named
``<section>.<field>``, unless the metadata names the key itself
(``model.*``, ``eval.knn_k``, ``run.*``). The key table, the defaults,
value parsing and formatting (keyed on the default's type),
``to_experiment``, the checkpoint config dict (``dataclasses.asdict`` and
``experiment_from_dict``) and ``experiment_hash`` all follow from the
fields, in declaration order. Fields without a doc (``data.seed``,
``dims.input_dim``) are derived by ``to_experiment``.

Config files hold one dotted ``key=value`` per line with ``#`` comments;
unknown keys are rejected, and ``parse(serialize(c)) == c`` holds for any
config dict c.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from .errors import ConfigError
from .numcore import ADAM, SGD


def _key(default, doc: str, key: str | None = None):
    """A user-settable field; ``key`` overrides the ``section.field`` name."""
    meta = {"doc": doc} if key is None else {"doc": doc, "key": key}
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class GeneratorConfig:
    """Everything the synthetic generator needs.

    Scale conventions: ``mode_sigma`` is the generator's sigma unit. Mode
    centers are kept at pairwise distance >= 8 sigma and shells span
    [shell_inner, shell_outer] sigma around a random mode center. Each
    normal mode is a Gaussian supported on its own random
    ``normal_rank``-dimensional subspace (plus ``ambient_noise`` sigma of
    full-dimensional noise), with expected in-plane radial distance
    ``cloud_radius`` sigma. Shell anomalies draw full-dimensional
    directions, so they sit off the normal manifold even at radii where
    plain distance to the mode center looks ordinary; that is what makes
    them hard for raw geometry but learnable.
    """

    dim: int = _key(32, "feature dimensionality D")
    modes: int = _key(4, "number of normal modes M")
    train_size: int = _key(2000, "train split size")
    val_size: int = _key(1000, "validation split size")
    test_size: int = _key(1000, "test split size")
    contamination: float = _key(0.05, "abnormal fraction hidden in train")
    labeled_ratio: float = _key(0.05,
                                "fraction of train samples carrying labels")
    labeled_normal_fraction: float = _key(
        0.5, "share of the labeled subset that is known-normal")
    eval_abnormal_ratio: float = _key(0.5, "abnormal fraction in val/test")
    mode_sigma: float = _key(1.0, "the generator's sigma unit")
    cloud_radius: float = _key(
        5.0, "expected normal in-plane radial distance, sigma")
    normal_rank: int = _key(26, "normal-subspace rank (clamped to dim)")
    ambient_noise: float = _key(
        0.1, "full-dimension noise std on normals, sigma")
    shell_inner: float = _key(4.0, "anomaly shell inner radius, sigma")
    shell_outer: float = _key(8.0, "anomaly shell outer radius, sigma")
    center_spacing: float = _key(
        9.0, "target mode-center spacing, sigma (min 8)")
    midpoint_fraction: float = _key(
        0.3, "share of anomaly groups placed at inter-mode midpoints")
    group_size: int = _key(4, "samples per group (study analog)")
    seed: int = 0

    MIN_CENTER_SEPARATION = 8.0  # in sigma units, per the generator contract

    def __post_init__(self):
        if self.dim < 1 or self.modes < 1 or self.group_size < 1:
            raise ConfigError("dim, modes and group_size must be >= 1")
        for name in ("train_size", "val_size", "test_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("contamination", "labeled_ratio", "eval_abnormal_ratio"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1)")
        if not 0.0 <= self.labeled_normal_fraction <= 1.0:
            raise ConfigError("labeled_normal_fraction must be in [0, 1]")
        if not 0.0 <= self.midpoint_fraction <= 1.0:
            raise ConfigError("midpoint_fraction must be in [0, 1]")
        if self.mode_sigma <= 0 or self.cloud_radius <= 0:
            raise ConfigError("mode_sigma and cloud_radius must be > 0")
        if self.normal_rank < 1:
            raise ConfigError(f"normal_rank must be >= 1, got {self.normal_rank}")
        if self.ambient_noise < 0:
            raise ConfigError("ambient_noise must be >= 0")
        if not 0 < self.shell_inner < self.shell_outer:
            raise ConfigError("need 0 < shell_inner < shell_outer")
        if self.center_spacing < self.MIN_CENTER_SEPARATION:
            raise ConfigError(
                f"center_spacing must be >= {self.MIN_CENTER_SEPARATION}")

    @property
    def rank(self) -> int:
        """Effective subspace rank; clamped to the ambient dimension."""
        return min(self.normal_rank, self.dim)

    @property
    def plane_sigma(self) -> float:
        """Per-coordinate in-subspace std giving the target cloud radius."""
        return self.mode_sigma * self.cloud_radius / math.sqrt(self.rank)


@dataclass(frozen=True)
class AugmentationConfig:
    """The vector-space augmentation family for contrastive pairs.

    Each view is (features * scale) + Gaussian noise with coordinates
    independently zeroed at ``dropout_prob``; the two views of a pair use
    independent draws.
    """

    noise_sigma: float = _key(1.0, "additive noise std per view")
    scale_jitter: float = _key(0.1, "multiplicative jitter range 1 +- value")
    dropout_prob: float = _key(0.2, "per-coordinate zeroing probability")

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ConfigError(
                f"dropout_prob must be in [0, 1), got {self.dropout_prob}")
        if self.scale_jitter < 0:
            raise ConfigError(f"scale_jitter must be >= 0, got {self.scale_jitter}")


@dataclass(frozen=True)
class ModelDims:
    input_dim: int = 32
    body: tuple = _key((64, 32), "encoder body widths")
    proj_dim: int = _key(16, "projection-head output dim")
    mad_dim: int = _key(16, "detection-head output dim")

    def __post_init__(self):
        if self.input_dim < 1 or self.proj_dim < 1 or self.mad_dim < 1:
            raise ConfigError("model dims must be >= 1")
        if not self.body or any(w < 1 for w in self.body):
            raise ConfigError("body widths must be >= 1 and non-empty")


def _check_update(phase: str, pc):
    """The update rule and the two decays that each phase configures."""
    if pc.optimizer not in (ADAM, SGD):
        raise ConfigError(
            f"{phase}.optimizer must be {ADAM} or {SGD}, got {pc.optimizer!r}")
    if pc.decay_factor <= 0:
        raise ConfigError(
            f"{phase}.decay_factor must be > 0, got {pc.decay_factor}")
    if pc.weight_decay < 0:
        raise ConfigError(
            f"{phase}.weight_decay must be >= 0, got {pc.weight_decay}")


@dataclass(frozen=True)
class PretrainConfig:
    epochs: int = _key(100, "pretraining epochs")
    batch: int = _key(24, "pretraining batch size (pairs)")
    lr: float = _key(1e-3, "pretraining base learning rate")
    milestones: tuple = _key((70, 90), "epochs after which the lr decays")
    decay_factor: float = _key(0.1, "lr multiplier per milestone")
    temperature: float = _key(0.2, "contrastive temperature")
    optimizer: str = _key(ADAM, "update rule: adam or sgd")
    weight_decay: float = _key(1e-6, "decoupled L2 strength")

    def __post_init__(self):
        if self.epochs < 0 or self.batch < 2:
            raise ConfigError("pretrain needs epochs >= 0 and batch >= 2")
        if self.lr <= 0 or self.temperature <= 0:
            raise ConfigError("pretrain lr and temperature must be > 0")
        _check_update("pretrain", self)


@dataclass(frozen=True)
class FinetuneConfig:
    epochs: int = _key(50, "fine-tuning epochs")
    batch: int = _key(32, "fine-tuning batch size")
    lr: float = _key(3e-3, "fine-tuning base learning rate")
    milestones: tuple = _key((), "fine-tune lr decay epochs")
    decay_factor: float = _key(0.1, "lr multiplier per milestone")
    eta: float = _key(1.0, "labeled-term weight")
    gamma: float = _key(0.05, "pruning fraction of max cardinality")
    n_s: int = _key(100, "initial hypersphere center count")
    weight_decay: float = _key(1e-6, "objective L2 term, applied as decay")
    eps_d: float = _key(1e-6, "squared-distance floor in the abnormal branch")
    optimizer: str = _key(ADAM, "update rule: adam or sgd")

    def __post_init__(self):
        if self.epochs < 0 or self.batch < 1 or self.n_s < 1:
            raise ConfigError("finetune needs epochs >= 0, batch >= 1, n_s >= 1")
        if self.lr <= 0:
            raise ConfigError("finetune lr must be > 0")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.eta < 0:
            raise ConfigError(f"eta must be >= 0, got {self.eta}")
        if self.eps_d <= 0:
            raise ConfigError(f"finetune.eps_d must be > 0, got {self.eps_d}")
        _check_update("finetune", self)


@dataclass(frozen=True)
class ExperimentConfig:
    data: GeneratorConfig = field(default_factory=GeneratorConfig)
    augment: AugmentationConfig = field(default_factory=AugmentationConfig)
    dims: ModelDims = field(default_factory=ModelDims,
                            metadata={"key": "model"})
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    knn_k: int = _key(100, "neighbor count for the kNN score", "eval.knn_k")
    seed: int = _key(0, "base seed; replicate r uses seed + r", "run.seed")
    replicates: int = _key(4, "number of replicates", "run.replicates")

    def __post_init__(self):
        if self.replicates < 1 or self.knn_k < 1:
            raise ConfigError("replicates and knn_k must be >= 1")
        if self.dims.input_dim != self.data.dim:
            raise ConfigError(
                f"model input_dim {self.dims.input_dim} must equal data dim "
                f"{self.data.dim}")


def experiment_from_dict(d: dict, cls=ExperimentConfig):
    """Inverse of ``dataclasses.asdict``; JSON lists come back as tuples."""
    kwargs = {}
    for f in fields(cls):
        value = d[f.name]
        if isinstance(value, dict):
            value = experiment_from_dict(value, f.default_factory)
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[f.name] = value
    return cls(**kwargs)


def experiment_hash(cfg: ExperimentConfig) -> str:
    text = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _schema() -> dict:
    """Flat key -> (attribute path, default, doc), in declaration order."""
    table, base = {}, ExperimentConfig()
    for f in fields(ExperimentConfig):
        value = getattr(base, f.name)
        if is_dataclass(value):
            section = f.metadata.get("key", f.name)
            for sub in fields(value):
                if "doc" in sub.metadata:
                    table[f"{section}.{sub.name}"] = (
                        (f.name, sub.name), getattr(value, sub.name),
                        sub.metadata["doc"])
        elif "doc" in f.metadata:
            table[f.metadata["key"]] = ((f.name,), value, f.metadata["doc"])
    return table


_SCHEMA = _schema()


def _parse_value(key: str, text: str):
    kind = type(_SCHEMA[key][1])
    text = text.strip()
    try:
        if kind is tuple:
            return tuple(int(v) for v in text.split(",")) if text else ()
        value = kind(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"bad value for {key}: {text!r} (must be finite)")
    return value


def _format_value(key: str, value) -> str:
    kind = type(_SCHEMA[key][1])
    if kind is tuple:
        return ",".join(str(v) for v in value)
    if kind is float:
        return repr(float(value))
    return str(value)


def default_config() -> dict:
    return {key: default for key, (_, default, _) in _SCHEMA.items()}


def parse_config(text: str) -> dict:
    """Full config dict: documented defaults overridden by the file."""
    cfg = default_config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        cfg[key] = _parse_value(key, value)
    return cfg


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except UnicodeDecodeError as exc:  # not a text file
        raise ConfigError(f"{path}: {exc}") from None


def serialize_config(cfg: dict) -> str:
    """Canonical text form (schema order, doc comments)."""
    unknown = set(cfg) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    lines = []
    for key, (_, default, doc) in _SCHEMA.items():
        value = _format_value(key, cfg.get(key, default))
        lines.append(f"{key}={value}  # {doc}")
    return "\n".join(lines) + "\n"


def apply_overrides(cfg: dict, pairs) -> dict:
    """--set KEY=VALUE overrides; returns a new dict."""
    out = dict(cfg)
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set needs KEY=VALUE, got {pair!r}")
        key, value = (part.strip() for part in pair.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"--set: unknown key {key!r}")
        out[key] = _parse_value(key, value)
    return out


def to_experiment(cfg: dict) -> ExperimentConfig:
    """Build the typed experiment config; run.seed seeds every component."""
    tree = {}
    for key, (path, _, _) in _SCHEMA.items():
        node = tree
        for name in path[:-1]:
            node = node.setdefault(name, {})
        node[path[-1]] = cfg[key]
    tree["data"]["seed"] = cfg["run.seed"]
    tree["dims"]["input_dim"] = cfg["data.dim"]
    return experiment_from_dict(tree)
