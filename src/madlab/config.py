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

Each key declares its domain beside its default and doc: an interval such
as ``"[0, 1)"`` or ``"(0, inf)"`` (for a tuple key, the interval holds for
each element; nan and +-inf lie outside every interval) or choices such as
``"adam|sgd"``. ``_check_domains`` refuses any value outside its domain
whenever a dataclass is built; only the rules that relate two fields are
written out by hand in ``__post_init__``.

Config files hold one dotted ``key=value`` per line with ``#`` comments;
unknown keys are rejected, and ``to_experiment(parse_config(
serialize_config(e))) == e`` holds for any e that ``to_experiment`` returns.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from .errors import ConfigError
from .numcore import ADAM, SGD


def _key(default, doc: str, domain: str, key: str | None = None):
    """A user-settable field with its domain; ``key`` overrides the
    ``section.field`` name."""
    return field(default=default,
                  metadata={"doc": doc, "domain": domain, "key": key})


def _in_domain(domain: str, value) -> bool:
    if "|" in domain:
        return value in domain.split("|")
    lo, hi = (float(bound) for bound in domain[1:-1].split(","))
    return all((lo < v if domain[0] == "(" else lo <= v)
               and (v < hi if domain[-1] == ")" else v <= hi)
               for v in (value if isinstance(value, tuple) else (value,)))


def _check_domains(section: str, obj):
    """Refuse the first field of ``obj`` whose value lies outside its domain."""
    for f in fields(obj):
        domain, value = f.metadata.get("domain"), getattr(obj, f.name)
        if domain is None or _in_domain(domain, value):
            continue
        name = f.metadata.get("key") or f"{section}.{f.name}"
        what = f"one of {domain}" if "|" in domain else f"finite and in {domain}"
        each = " for each element" if isinstance(value, tuple) else ""
        raise ConfigError(f"{name} must be {what}{each}, got {value!r}")


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

    MIN_CENTER_SEPARATION = 8.0  # in sigma units, per the generator contract

    dim: int = _key(32, "feature dimensionality D", "[1, inf)")
    modes: int = _key(4, "number of normal modes M", "[1, inf)")
    train_size: int = _key(2000, "train split size", "[1, inf)")
    val_size: int = _key(1000, "validation split size", "[1, inf)")
    test_size: int = _key(1000, "test split size", "[1, inf)")
    contamination: float = _key(0.05, "abnormal fraction hidden in train", "[0, 1)")
    labeled_ratio: float = _key(
        0.05, "fraction of train samples carrying labels", "[0, 1)")
    labeled_normal_fraction: float = _key(
        0.5, "share of the labeled subset that is known-normal", "[0, 1]")
    eval_abnormal_ratio: float = _key(0.5, "abnormal fraction in val/test", "[0, 1)")
    mode_sigma: float = _key(1.0, "the generator's sigma unit", "(0, inf)")
    cloud_radius: float = _key(
        5.0, "expected normal in-plane radial distance, sigma", "(0, inf)")
    normal_rank: int = _key(26, "normal-subspace rank (clamped to dim)", "[1, inf)")
    ambient_noise: float = _key(
        0.1, "full-dimension noise std on normals, sigma", "[0, inf)")
    shell_inner: float = _key(4.0, "anomaly shell inner radius, sigma", "(0, inf)")
    shell_outer: float = _key(8.0, "anomaly shell outer radius, sigma", "(0, inf)")
    center_spacing: float = _key(9.0, "target mode-center spacing, sigma (min 8)",
                                 f"[{MIN_CENTER_SEPARATION:g}, inf)")
    midpoint_fraction: float = _key(
        0.3, "share of anomaly groups placed at inter-mode midpoints", "[0, 1]")
    group_size: int = _key(4, "samples per group (study analog)", "[1, inf)")
    seed: int = 0

    def __post_init__(self):
        _check_domains("data", self)
        if self.shell_inner >= self.shell_outer:
            raise ConfigError(f"data.shell_inner must be < data.shell_outer, got "
                              f"{self.shell_inner} and {self.shell_outer}")

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
    independent draws. A scale jitter above 1 could flip a view's sign.
    """

    noise_sigma: float = _key(1.0, "additive noise std per view", "[0, inf)")
    scale_jitter: float = _key(0.1, "multiplicative jitter range 1 +- value", "[0, 1]")
    dropout_prob: float = _key(0.2, "per-coordinate zeroing probability", "[0, 1)")

    def __post_init__(self):
        _check_domains("augment", self)


@dataclass(frozen=True)
class ModelDims:
    input_dim: int = field(default=32, metadata={"domain": "[1, inf)"})
    body: tuple = _key((64, 32), "encoder body widths", "[1, inf)")
    proj_dim: int = _key(16, "projection-head output dim", "[1, inf)")
    mad_dim: int = _key(16, "detection-head output dim", "[1, inf)")

    def __post_init__(self):
        _check_domains("model", self)
        if not self.body:
            raise ConfigError("model.body must list at least one width")


@dataclass(frozen=True)
class PretrainConfig:
    epochs: int = _key(100, "pretraining epochs", "[0, inf)")
    batch: int = _key(24, "pretraining batch size (pairs)", "[2, inf)")
    lr: float = _key(1e-3, "pretraining base learning rate", "(0, inf)")
    milestones: tuple = _key(
        (70, 90), "epochs after which the lr decays", "(-inf, inf)")
    decay_factor: float = _key(0.1, "lr multiplier per milestone", "(0, inf)")
    temperature: float = _key(0.2, "contrastive temperature", "(0, inf)")
    optimizer: str = _key(ADAM, "update rule: adam or sgd", f"{ADAM}|{SGD}")
    weight_decay: float = _key(1e-6, "decoupled L2 strength", "[0, inf)")

    def __post_init__(self):
        _check_domains("pretrain", self)


@dataclass(frozen=True)
class FinetuneConfig:
    epochs: int = _key(50, "fine-tuning epochs", "[0, inf)")
    batch: int = _key(32, "fine-tuning batch size", "[1, inf)")
    lr: float = _key(3e-3, "fine-tuning base learning rate", "(0, inf)")
    milestones: tuple = _key((), "fine-tune lr decay epochs", "(-inf, inf)")
    decay_factor: float = _key(0.1, "lr multiplier per milestone", "(0, inf)")
    eta: float = _key(1.0, "labeled-term weight", "[0, inf)")
    gamma: float = _key(0.05, "pruning fraction of max cardinality", "(0, 1)")
    n_s: int = _key(100, "initial hypersphere center count", "[1, inf)")
    weight_decay: float = _key(1e-6, "objective L2 term, applied as decay", "[0, inf)")
    eps_d: float = _key(
        1e-6, "squared-distance floor in the abnormal branch", "(0, inf)")
    optimizer: str = _key(ADAM, "update rule: adam or sgd", f"{ADAM}|{SGD}")

    def __post_init__(self):
        _check_domains("finetune", self)


@dataclass(frozen=True)
class ExperimentConfig:
    data: GeneratorConfig = field(default_factory=GeneratorConfig)
    augment: AugmentationConfig = field(default_factory=AugmentationConfig)
    dims: ModelDims = field(default_factory=ModelDims,
                            metadata={"key": "model"})
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    knn_k: int = _key(100, "neighbor count for the kNN score", "[1, inf)", "eval.knn_k")
    seed: int = _key(0, "base seed; replicate r uses seed + r", "[0, inf)", "run.seed")
    replicates: int = _key(4, "number of replicates", "[1, inf)", "run.replicates")

    def __post_init__(self):
        _check_domains("run", self)
        if self.dims.input_dim != self.data.dim:
            raise ConfigError(f"model input_dim {self.dims.input_dim} must equal "
                              f"data.dim {self.data.dim}")


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
    """Flat key -> (attribute path, default, field metadata), in declaration
    order; the metadata holds the key's doc and domain."""
    table, base = {}, ExperimentConfig()
    for f in fields(ExperimentConfig):
        value = getattr(base, f.name)
        if is_dataclass(value):
            section = f.metadata.get("key", f.name)
            for sub in fields(value):
                if "doc" in sub.metadata:
                    table[f"{section}.{sub.name}"] = (
                        (f.name, sub.name), getattr(value, sub.name),
                        sub.metadata)
        elif "doc" in f.metadata:
            table[f.metadata["key"]] = ((f.name,), value, f.metadata)
    return table


_SCHEMA = _schema()


def _parse_value(key: str, text: str):
    kind = type(_SCHEMA[key][1])
    text = text.strip()
    try:
        if kind is tuple:
            return tuple(int(v) for v in text.split(",")) if text else ()
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from None


def _format_value(key: str, value) -> str:
    kind = type(_SCHEMA[key][1])
    if kind is tuple:
        return ",".join(str(v) for v in value)
    if kind is float:
        return repr(float(value))
    return str(value)


def default_config() -> dict:
    return {key: default for key, (_, default, _) in _SCHEMA.items()}


def _assign(cfg: dict, text: str, where: str) -> None:
    """Parse one ``key=value`` into ``cfg``; errors name ``where`` it came from."""
    if "=" not in text:
        raise ConfigError(f"{where}: expected key=value, got {text!r}")
    key, value = (part.strip() for part in text.split("=", 1))
    if key not in _SCHEMA:
        raise ConfigError(f"{where}: unknown key {key!r}")
    cfg[key] = _parse_value(key, value)


def parse_config(text: str) -> dict:
    """Full config dict: documented defaults overridden by the file."""
    cfg = default_config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if line := raw.split("#", 1)[0].strip():
            _assign(cfg, line, f"line {lineno}")
    return cfg


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except UnicodeDecodeError as exc:  # not a text file
        raise ConfigError(f"{path}: {exc}") from None


def serialize_config(exp: ExperimentConfig) -> str:
    """Canonical text form of every key (schema order, doc comments)."""
    return "".join(
        f"{key}={_format_value(key, functools.reduce(getattr, path, exp))}"
        f"  # {meta['doc']}\n" for key, (path, _, meta) in _SCHEMA.items())


def apply_overrides(cfg: dict, pairs) -> dict:
    """--set KEY=VALUE overrides; returns a new dict."""
    out = dict(cfg)
    for pair in pairs or ():
        _assign(out, pair, "--set")
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
