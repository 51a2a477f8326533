import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from madlab.data import (GT_ABNORMAL, GT_NORMAL, KNOWN_ABNORMAL, KNOWN_NORMAL,
                         UNLABELED, AugmentationConfig, GeneratorConfig,
                         augment_pairs, generate_synthetic, load_csv,
                         load_splits, relabel, save_csv, save_splits)
from madlab.errors import ConfigError, SchemaError

from _oracles import csv_writer_split_bytes


SMALL = GeneratorConfig(dim=8, modes=2, train_size=200, val_size=100,
                        test_size=100, normal_rank=6, group_size=4, seed=0)


def test_default_sizes_and_contamination():
    train, val, test = generate_synthetic(GeneratorConfig())
    assert (len(train), len(val), len(test)) == (2000, 1000, 1000)
    n_ab = int(np.sum(train.ground_truth == GT_ABNORMAL))
    assert abs(n_ab - 100) <= 1  # 5% of 2000, +-1 sample


def test_default_labeled_split():
    train, _, _ = generate_synthetic(GeneratorConfig())
    assert int(np.sum(train.labels == KNOWN_NORMAL)) == 50
    assert int(np.sum(train.labels == KNOWN_ABNORMAL)) == 50


def test_unimodal_generation():
    train, val, test = generate_synthetic(replace(SMALL, modes=1))
    assert set(np.unique(train.mode_ids)) == {0}
    assert len(train) == 200


@pytest.mark.parametrize("ratio,expected", [(0.025, 5), (0.05, 10), (0.10, 20)])
def test_labeled_ratio_sweep(ratio, expected):
    cfg = replace(SMALL, labeled_ratio=ratio, contamination=0.25)
    train, _, _ = generate_synthetic(cfg)
    assert int(np.sum(train.labels != UNLABELED)) == expected


def test_labeled_abnormal_exceeding_available_rejected():
    # 200 * 0.5 = 100 labeled, 50 abnormal needed, only ~10 available
    cfg = replace(SMALL, labeled_ratio=0.5, contamination=0.05)
    with pytest.raises(ConfigError):
        generate_synthetic(cfg)


def test_group_leakage_absent():
    train, val, test = generate_synthetic(SMALL)
    g = [set(ds.group_ids.tolist()) for ds in (train, val, test)]
    assert not (g[0] & g[1]) and not (g[0] & g[2]) and not (g[1] & g[2])


def test_label_agrees_with_ground_truth():
    train, _, _ = generate_synthetic(GeneratorConfig())
    labeled = train.labels != UNLABELED
    assert np.all(train.labels[labeled] == train.ground_truth[labeled])


def test_val_test_fully_unlabeled():
    _, val, test = generate_synthetic(SMALL)
    assert np.all(val.labels == UNLABELED)
    assert np.all(test.labels == UNLABELED)


def test_generation_deterministic():
    a = generate_synthetic(SMALL)
    b = generate_synthetic(SMALL)
    for x, y in zip(a, b):
        assert np.array_equal(x.features, y.features)
        assert np.array_equal(x.labels, y.labels)


def test_mode_centers_separated():
    cfg = GeneratorConfig(train_size=2000, seed=3)
    train, _, _ = generate_synthetic(cfg)
    normal = train.ground_truth == GT_NORMAL
    centers = np.array([
        train.features[normal & (train.mode_ids == m)].mean(axis=0)
        for m in range(cfg.modes)])
    d = np.linalg.norm(centers[:, None] - centers[None], axis=2)
    off_diag = d[np.triu_indices(cfg.modes, 1)]
    assert off_diag.min() >= cfg.MIN_CENTER_SEPARATION * cfg.mode_sigma - 0.5


def test_anomalies_sit_off_the_normal_subspaces():
    cfg = GeneratorConfig(seed=1)
    train, _, _ = generate_synthetic(cfg)
    normal = train.ground_truth == GT_NORMAL
    perp_norm, perp_ab = [], []
    for m in range(cfg.modes):
        pts = train.features[normal & (train.mode_ids == m)]
        center = pts.mean(axis=0)
        _, _, vt = np.linalg.svd(pts - center, full_matrices=False)
        basis = vt[:cfg.rank]

        def perp(x):
            d = x - center
            return np.linalg.norm(d - (d @ basis.T) @ basis, axis=1)

        perp_norm.extend(perp(pts))
        ab = train.features[(train.ground_truth == GT_ABNORMAL)
                            & (train.mode_ids == m)]
        if len(ab):
            perp_ab.extend(perp(ab))
    assert np.mean(perp_ab) > 3.0 * np.mean(perp_norm)


# --- augmentation -------------------------------------------------------------

def test_augment_identity_transform():
    cfg = AugmentationConfig(noise_sigma=0.0, scale_jitter=0.0, dropout_prob=0.0)
    x = np.array([[1.0, -2.0, 3.0]])
    a, b = augment_pairs(x, cfg, np.random.default_rng(0))
    assert np.array_equal(a, x) and np.array_equal(b, x)


def test_augment_heavy_dropout_limit():
    cfg = AugmentationConfig(noise_sigma=0.0, scale_jitter=0.0, dropout_prob=0.99)
    a, b = augment_pairs(np.ones((200, 50)), cfg, np.random.default_rng(1))
    assert np.abs(np.concatenate([a, b])).mean() < 0.05


def test_augment_reproducible():
    cfg = AugmentationConfig(noise_sigma=0.3, scale_jitter=0.2, dropout_prob=0.1)
    x = np.arange(6, dtype=float).reshape(1, -1)
    a1, b1 = augment_pairs(x, cfg, np.random.default_rng(9))
    a2, b2 = augment_pairs(x, cfg, np.random.default_rng(9))
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


def test_augment_views_use_independent_draws():
    cfg = AugmentationConfig(noise_sigma=0.5, scale_jitter=0.0, dropout_prob=0.0)
    a, b = augment_pairs(np.zeros((1, 16)), cfg, np.random.default_rng(2))
    assert not np.array_equal(a, b)


def test_augment_unbiased_mean():
    cfg = AugmentationConfig(noise_sigma=0.2, scale_jitter=0.1, dropout_prob=0.0)
    x = np.array([1.5, -0.5, 2.0, 0.0])
    n = 4000
    views = np.concatenate(augment_pairs(np.tile(x, (n // 2, 1)), cfg,
                                         np.random.default_rng(3)))
    tol = 3.0 * cfg.noise_sigma / math.sqrt(n) + 0.01
    assert np.all(np.abs(views.mean(axis=0) - x) < tol)


def test_augment_pairs_batch_shapes_and_determinism():
    cfg = AugmentationConfig(noise_sigma=0.3, scale_jitter=0.1, dropout_prob=0.1)
    feats = np.random.default_rng(4).normal(size=(10, 6))
    a1, b1 = augment_pairs(feats, cfg, np.random.default_rng(5))
    a2, b2 = augment_pairs(feats, cfg, np.random.default_rng(5))
    assert a1.shape == b1.shape == feats.shape
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


def test_augmentation_config_validation():
    with pytest.raises(ConfigError):
        AugmentationConfig(noise_sigma=-0.1)
    with pytest.raises(ConfigError):
        AugmentationConfig(dropout_prob=1.0)


# --- relabel ---------------------------------------------------------------------

def test_relabel_changes_ratio_deterministically():
    train, _, _ = generate_synthetic(replace(SMALL, contamination=0.25))
    re1 = relabel(train, 0.2, 0.5, seed=1)
    re2 = relabel(train, 0.2, 0.5, seed=1)
    assert int(np.sum(re1.labels != UNLABELED)) == 40
    assert np.array_equal(re1.labels, re2.labels)
    assert np.array_equal(re1.features, train.features)


def test_load_splits_relabels_train_as_configured(tmp_path):
    datasets = generate_synthetic(SMALL)
    save_splits(datasets, tmp_path)
    train = load_splits(tmp_path, replace(SMALL, labeled_ratio=0.1, seed=5))[0]
    assert np.array_equal(train.labels,
                          relabel(datasets[0], 0.1, 0.5, seed=5).labels)
    # 100 known-abnormal rows asked of a split that holds 10 abnormal ones
    with pytest.raises(SchemaError, match="train split: labeled counts"):
        load_splits(tmp_path, replace(SMALL, labeled_ratio=0.5,
                                      labeled_normal_fraction=0.0))


# --- CSV schema --------------------------------------------------------------------

def test_csv_round_trip_bit_exact(tmp_path):
    datasets = list(generate_synthetic(SMALL))
    feats = datasets[0].features.copy()
    # the extreme row of the byte test below, with 1e154 for its 1e308, whose
    # square overflows: load_csv refuses that row (see the malformed rows)
    feats[0] = [-0.0, 5e-324, 1e154, 1 / 3, -1e-308, 2.0 / 3, 1e-5, 1e16]
    datasets[0] = replace(datasets[0], features=feats)
    paths = save_splits(datasets, tmp_path)
    first = [open(p, "rb").read() for p in paths]
    loaded = load_splits(tmp_path, SMALL)
    save_splits(loaded, tmp_path)
    second = [open(p, "rb").read() for p in paths]
    assert first == second
    for a, b in zip(datasets, loaded):
        written = np.array([[float("%.9g" % x) for x in row]
                            for row in a.features.tolist()])
        assert b.features.shape == written.shape
        assert b.features.tobytes() == written.tobytes()  # -0.0 included
        for name, dtype in (("features", np.float64), ("labels", np.int8),
                            ("ground_truth", np.int8), ("mode_ids", np.int64),
                            ("group_ids", np.int64)):
            array = getattr(b, name)
            assert array.dtype == dtype
            assert array.flags.c_contiguous and array.flags.aligned
            if name != "features":
                assert np.array_equal(array, getattr(a, name))


def test_csv_header_schema(tmp_path):
    ds = generate_synthetic(SMALL)[0]
    p = tmp_path / "train.csv"
    save_csv(ds, p)
    header = open(p).readline().strip().split(",")
    assert header[:4] == ["group_id", "mode_id", "ground_truth", "label"]
    assert header[4:] == [f"f{i}" for i in range(ds.dim)]


def test_save_csv_bytes_match_csv_writer(tmp_path):
    # 1100 rows: one full 1024-row block and a ragged one
    ds = generate_synthetic(replace(SMALL, train_size=1100))[0]
    feats = ds.features.copy()
    feats[0] = [-0.0, 5e-324, 1e308, 1 / 3, -1e-308, 2.0 / 3, 1e-5, 123456789.0]
    feats[1] = [0.0, 1.0, -2.0, 1e15, 1e16, 4096.0, -3.0, 1e9]  # integral
    ds = replace(ds, features=feats)
    save_csv(ds, tmp_path / "train.csv")
    assert (tmp_path / "train.csv").read_bytes() == csv_writer_split_bytes(ds)


def test_csv_bad_header_rejected(tmp_path):
    p = tmp_path / "train.csv"
    p.write_text("a,b,c,d,f0\n1,0,normal,unlabeled,0.5\n")
    with pytest.raises(SchemaError):
        load_csv(p, "train")


def test_csv_bad_label_rejected(tmp_path):
    p = tmp_path / "train.csv"
    p.write_text("group_id,mode_id,ground_truth,label,f0\n"
                 "1,0,normal,bogus,0.5\n")
    with pytest.raises(SchemaError):
        load_csv(p, "train")


def test_csv_non_finite_rejected(tmp_path):
    p = tmp_path / "train.csv"
    p.write_text("group_id,mode_id,ground_truth,label,f0\n"
                 "1,0,normal,unlabeled,inf\n")
    with pytest.raises(SchemaError):
        load_csv(p, "train")


def test_csv_label_gt_disagreement_rejected(tmp_path):
    p = tmp_path / "train.csv"
    p.write_text("group_id,mode_id,ground_truth,label,f0\n"
                 "1,0,abnormal,normal,0.5\n")
    with pytest.raises(SchemaError):
        load_csv(p, "train")


# one header and enough good rows that a bad row after them is read past the
# first 8 KiB the header read decodes
HEADER = b"group_id,mode_id,ground_truth,label,f0,f1\r\n"
GOOD_ROWS = b"1,0,normal,unlabeled,0.5,-1.5\r\n" * 400
BAD_LINE = len(GOOD_ROWS.splitlines()) + 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row, names_line", [
    (b'1,0,"normal",unlabeled,0.5,-1.5', True),
    (b'1,0,normal,unlabeled,"0.5",-1.5', False),
    (b"1,0,normal,unlabeled,0.5,-1.5,", False),
    (b"1,0,normal,unlabeled,0.5", False),
    (b"1e3,0,normal,unlabeled,0.5,-1.5", False),
    (b"1,99999999999999999999,normal,unlabeled,0.5,-1.5", False),
    (b"1,0,abnormalx,unlabeled,0.5,-1.5", True),
    (b"1,0,normal,unlabeledx,0.5,-1.5", True),
    (b"1,0,normal,unlabeled,0.\x005,-1.5", False),
    (b"1,0,normal\x00,unlabeled,0.5,-1.5", False),
    (b"1,0,normal,unlabeled\x00,0.5,-1.5", False),
    (b"1,0,normal,unlabeled,0.\xff5,-1.5", False),
    (b"1,0,normal,unlabeled,1_0,-1.5", False),
    (b"1,0,normal,unlabeled,1e308,-1.5", True),
], ids=["quoted_name", "quoted_number", "trailing_comma", "short_row",
        "float_in_int_column", "int64_overflow", "abnormalx", "unlabeledx",
        "nul_byte", "nul_after_gt", "nul_after_label", "non_utf8_byte",
        "digit_separator", "squared_norm_overflow"])
def test_csv_malformed_row_rejected(tmp_path, row, names_line):
    p = tmp_path / "train.csv"
    for blanks in (0, 1, 3) if names_line else (0,):
        p.write_bytes(HEADER + GOOD_ROWS + b"\r\n" * blanks + row + b"\r\n")
        where = f"{p}:{BAD_LINE + blanks}:" if names_line else f"{p}: "
        with pytest.raises(SchemaError) as info:
            load_csv(p, "train")
        assert str(info.value).startswith(where)


@pytest.mark.filterwarnings("error")
def test_csv_header_only_loads_zero_rows(tmp_path):
    p = tmp_path / "train.csv"
    p.write_bytes(HEADER)
    ds = load_csv(p, "train")
    assert (len(ds), ds.dim) == (0, 2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_csv_line_ends_and_blank_lines(tmp_path, end):
    # documented: every line end reads alike, and a blank line is skipped
    rows = [b"group_id,mode_id,ground_truth,label,f0,f1",
            b"1,0,normal,unlabeled,0.5,-1.5", b"",
            b"2,1,abnormal,abnormal,-0.0,1e-5", b""]
    p = tmp_path / "train.csv"
    p.write_bytes(end.join(rows))
    ds = load_csv(p, "train")
    assert ds.group_ids.tolist() == [1, 2]
    assert ds.mode_ids.tolist() == [0, 1]
    assert ds.ground_truth.tolist() == [GT_NORMAL, GT_ABNORMAL]
    assert ds.labels.tolist() == [UNLABELED, KNOWN_ABNORMAL]
    assert ds.features.tobytes() == np.array([[0.5, -1.5],
                                              [-0.0, 1e-5]]).tobytes()
    # an error names the line of the file, blank lines counted
    for lines, where in [
            ([*rows[:3], b"", b"1,0,normalx,unlabeled,0.5,-1.5", b""], 5),
            ([*rows[:3], b"1,0,normal,unlabeled,1e200,-1.5"], 4)]:
        p.write_bytes(end.join(lines))
        with pytest.raises(SchemaError, match=f"^{re.escape(str(p))}:{where}: "):
            load_csv(p, "train")


def test_load_csv_python_calls_do_not_grow_with_rows(tmp_path):
    """Counted cost, independent of host speed: the Python-level calls that
    reading a 4 000-row split makes. Parsing row by row made one or more per
    row (4 240); one ``np.loadtxt`` makes about 290, most of them the UTF-8
    decoder, once per 8 KiB chunk."""
    train = generate_synthetic(GeneratorConfig(train_size=4000, val_size=100,
                                               test_size=100, seed=0))[0]
    p = tmp_path / "train.csv"
    save_csv(train, p)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        ds = load_csv(p, "train")
    finally:
        sys.setprofile(None)
    assert (len(ds), ds.dim) == (4000, 32)
    assert calls < 400


def test_load_splits_missing_file(tmp_path):
    with pytest.raises(SchemaError):
        load_splits(tmp_path, SMALL)


def test_training_view_hides_ground_truth():
    train, _, _ = generate_synthetic(SMALL)
    view = train.training_view()
    assert not hasattr(view, "ground_truth")
    assert len(view) == len(train)
