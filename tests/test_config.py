import hashlib
import math
import re
from dataclasses import fields

import pytest

from madlab import config
from madlab.config import (ExperimentConfig, apply_overrides, default_config,
                           experiment_hash, load_config, parse_config,
                           serialize_config, to_experiment)
from madlab.errors import ConfigError


def test_parse_serialize_round_trip_defaults():
    cfg = default_config()
    assert parse_config(serialize_config(cfg)) == cfg


def test_parse_serialize_round_trip_modified():
    cfg = apply_overrides(default_config(), [
        "finetune.eta=2.5", "pretrain.milestones=10,20,30", "data.dim=16",
        "pretrain.lr=3.25e-05", "finetune.milestones=",
        "pretrain.optimizer=sgd"])
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert again["pretrain.milestones"] == (10, 20, 30)
    assert again["finetune.milestones"] == ()
    assert again["pretrain.lr"] == 3.25e-05


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("data.bogus=1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        apply_overrides(default_config(), ["nope=2"])


@pytest.mark.parametrize("text, message", [
    ("just a line", "expected key=value, got 'just a line'"),
    ("data.bogus=1", "unknown key 'data.bogus'")])
def test_file_lines_and_set_pairs_share_one_parser(text, message):
    """One parser for both sources; each error names where its text came
    from: the line of a config file, or ``--set``."""
    with pytest.raises(ConfigError, match=re.escape(f"line 2: {message}")):
        parse_config(f"data.dim=8\n{text}  # note\n")
    with pytest.raises(ConfigError, match=re.escape(f"--set: {message}")):
        apply_overrides(default_config(), ["data.dim=8", text])


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        parse_config("data.dim=abc\n")
    with pytest.raises(ConfigError):
        parse_config("just a line\n")


def test_comments_and_blanks_ignored():
    cfg = parse_config("# top comment\n\ndata.dim=16  # trailing\n")
    assert cfg["data.dim"] == 16
    assert cfg["data.modes"] == default_config()["data.modes"]


def test_every_key_documented():
    cfg = default_config()
    assert len(cfg) == 46
    for line in serialize_config(cfg).splitlines():
        key, doc = line.split("  # ", 1)
        assert doc.strip(), f"{key} lacks documentation"


def test_docs_live_on_the_dataclass_fields():
    documented = [f.name for f in fields(ExperimentConfig().finetune)
                  if f.metadata.get("doc")]
    keys = [k.split(".", 1)[1] for k in default_config()
            if k.startswith("finetune.")]
    assert documented == keys


def test_defaults_match_typed_config():
    assert to_experiment(default_config()) == ExperimentConfig()


def test_hash_reflects_overrides():
    base = default_config()
    changed = apply_overrides(base, ["finetune.n_s=1"])
    assert experiment_hash(to_experiment(base)) == experiment_hash(
        to_experiment(dict(base)))
    assert experiment_hash(to_experiment(base)) != experiment_hash(
        to_experiment(changed))


def test_default_config_text_pinned():
    # config.cfg of a default run; a schema edit that changes it fails here
    text = serialize_config(default_config())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "cd79362234b8322928cd9530341c60dc5d26998656538f1758477f2bfcedb8ca")


def test_default_experiment_hash_pinned():
    # metrics.json config_hash and checkpoint loadability depend on it
    assert experiment_hash(ExperimentConfig()) == (
        "b875804c7fe72cdf2d33cd6b8085fa35a610c4bdffcc5ebbe2733d49c7b16e68")


def test_seed_propagates_to_components():
    cfg = apply_overrides(default_config(), ["run.seed=17"])
    exp = to_experiment(cfg)
    assert exp.seed == 17 and exp.data.seed == 17


def test_load_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("run.replicates=2\nfinetune.eta=0.5\n")
    cfg = load_config(p)
    assert cfg["run.replicates"] == 2 and cfg["finetune.eta"] == 0.5


def test_dim_mismatch_caught_in_typed_config():
    cfg = apply_overrides(default_config(), ["data.dim=16"])
    exp = to_experiment(cfg)  # model input follows data.dim
    assert exp.dims.input_dim == 16


def test_every_key_declares_a_domain_holding_its_default():
    # a new key cannot skip validation: numeric keys declare an interval
    # whose infinite bounds are open (so nan and +-inf are always refused),
    # str keys their choices
    for key, (_, default, meta) in config._SCHEMA.items():
        domain = meta.get("domain") or ""
        if isinstance(default, str):
            assert default in domain.split("|"), key
            continue
        m = re.fullmatch(r"([\[(])(\S+), (\S+)([\])])", domain)
        assert m, f"{key} declares no interval"
        lo, hi = float(m[2]), float(m[3])
        assert lo < hi, key
        assert m[1] == "(" or math.isfinite(lo), key
        assert m[4] == ")" or math.isfinite(hi), key
        assert config._in_domain(domain, default), key


def _boundary_cases():
    """Per finite bound of each interval domain: the nearest value outside
    it (the bound itself when open) is refused, a closed bound accepted."""
    for key, (_, default, meta) in config._SCHEMA.items():
        domain = meta.get("domain")  # a missing one fails the test above
        if not domain or "|" in domain:
            continue
        whole = not isinstance(default, float)
        wrap = (lambda v: (v,)) if isinstance(default, tuple) else (lambda v: v)
        for text, closed, out in zip(domain[1:-1].split(", "),
                                     (domain[0] == "[", domain[-1] == "]"),
                                     (-1, 1)):
            bound = float(text)
            if math.isinf(bound):
                continue
            if whole:
                bound = int(bound)
            outside = (bound if not closed else bound + out if whole
                       else math.nextafter(bound, out * math.inf))
            yield pytest.param(key, wrap(outside), False,
                               id=f"{key}={outside!r}")
            if closed:
                yield pytest.param(key, wrap(bound), True, id=f"{key}={bound!r}")


@pytest.mark.parametrize("key, value, accepted", list(_boundary_cases()))
def test_domain_bounds(key, value, accepted):
    cfg = default_config()
    cfg[key] = value
    if accepted:
        to_experiment(cfg)
    else:
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be"):
            to_experiment(cfg)


def test_domain_error_names_key_domain_and_value():
    cfg = apply_overrides(default_config(), ["finetune.gamma=1.5"])
    with pytest.raises(ConfigError) as info:
        to_experiment(cfg)
    assert str(info.value) == (
        "finetune.gamma must be finite and in (0, 1), got 1.5")


def test_domains_pinned():
    # the values each key accepts; widening or narrowing a domain fails here
    text = "".join(f"{key} {meta['domain']}\n"
                   for key, (_, _, meta) in config._SCHEMA.items())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2bec80e82180e929de65f166445a751e80f6509b7630409b6b52a49ef65121cd")
