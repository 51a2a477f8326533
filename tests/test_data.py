import math
import re
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import madlab.data as data
from madlab.data import (ABNORMAL, NORMAL, UNLABELED, AugmentationConfig,
                         GeneratorConfig, as_configured, augment_pairs,
                         generate_synthetic, load_csv, load_splits,
                         save_csv, save_splits)
from madlab.errors import ConfigError, SchemaError

from _oracles import csv_writer_split_bytes


SMALL = GeneratorConfig(dim=8, modes=2, train_size=200, val_size=100,
                        test_size=100, normal_rank=6, group_size=4, seed=0)


def test_default_sizes_and_contamination():
    train, val, test = generate_synthetic(GeneratorConfig())
    assert (len(train), len(val), len(test)) == (2000, 1000, 1000)
    n_ab = int(np.sum(train.ground_truth == ABNORMAL))
    assert abs(n_ab - 100) <= 1  # 5% of 2000, +-1 sample


def test_default_labeled_split():
    train, _, _ = generate_synthetic(GeneratorConfig())
    assert int(np.sum(train.labels == NORMAL)) == 50
    assert int(np.sum(train.labels == ABNORMAL)) == 50


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
    normal = train.ground_truth == NORMAL
    centers = np.array([
        train.features[normal & (train.mode_ids == m)].mean(axis=0)
        for m in range(cfg.modes)])
    d = np.linalg.norm(centers[:, None] - centers[None], axis=2)
    off_diag = d[np.triu_indices(cfg.modes, 1)]
    assert off_diag.min() >= cfg.MIN_CENTER_SEPARATION * cfg.mode_sigma - 0.5


def test_anomalies_sit_off_the_normal_subspaces():
    cfg = GeneratorConfig(seed=1)
    train, _, _ = generate_synthetic(cfg)
    normal = train.ground_truth == NORMAL
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
        ab = train.features[(train.ground_truth == ABNORMAL)
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
    cfg = replace(SMALL, contamination=0.25)
    train, _, _ = generate_synthetic(cfg)
    arm = replace(cfg, labeled_ratio=0.2, labeled_normal_fraction=0.5, seed=1)
    re1 = as_configured(train, arm, "data")
    re2 = as_configured(train, arm, "data")
    assert re1 is not train
    assert int(np.sum(re1.labels != UNLABELED)) == 40
    assert np.array_equal(re1.labels, re2.labels)
    assert np.array_equal(re1.features, train.features)


def test_load_splits_relabels_train_as_configured(tmp_path):
    """``load_splits`` keeps the on-disk labels; ``as_configured`` relabels
    a train split that is off the configured ratio, and keeps one that is
    on it."""
    datasets = generate_synthetic(SMALL)
    save_splits(datasets, tmp_path)
    on_disk = load_splits(tmp_path, SMALL)[0]
    assert np.array_equal(on_disk.labels, datasets[0].labels)
    assert as_configured(on_disk, SMALL, tmp_path) is on_disk
    arm = replace(SMALL, labeled_ratio=0.1, seed=5)
    train = as_configured(on_disk, arm, tmp_path)
    assert np.array_equal(train.labels,
                          as_configured(datasets[0], arm, tmp_path).labels)
    assert not np.array_equal(train.labels, on_disk.labels)
    # 100 known-abnormal rows asked of a split that holds 10 abnormal ones
    with pytest.raises(SchemaError, match="train split: labeled counts"):
        as_configured(on_disk, replace(SMALL, labeled_ratio=0.5,
                                       labeled_normal_fraction=0.0), tmp_path)


# --- CSV schema --------------------------------------------------------------------

def test_csv_round_trip_bit_exact(tmp_path):
    datasets = list(generate_synthetic(SMALL))
    feats = datasets[0].features.copy()
    # the extreme row of the byte test below, with 1e154 for its 1e308, whose
    # square overflows: load_csv refuses that row (see the malformed rows)
    feats[0] = [-0.0, 5e-324, 1e154, 1 / 3, -1e-308, 2.0 / 3, 1e-5, 1e16]
    datasets[0] = replace(datasets[0], features=feats)
    paths = save_splits(datasets, tmp_path)
    first = [Path(p).read_bytes() for p in paths]
    loaded = load_splits(tmp_path, SMALL)
    save_splits(loaded, tmp_path)
    second = [Path(p).read_bytes() for p in paths]
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
    header = p.read_text().splitlines()[0].split(",")
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
    (b"1,0,normal,abnormal,0.5,-1.5", False),
    (b"1,0,unlabeled,unlabeled,0.5,-1.5", True),
], ids=["quoted_name", "quoted_number", "trailing_comma", "short_row",
        "float_in_int_column", "int64_overflow", "abnormalx", "unlabeledx",
        "nul_byte", "nul_after_gt", "nul_after_label", "non_utf8_byte",
        "digit_separator", "squared_norm_overflow", "label_disagrees_with_gt",
        "unlabeled_ground_truth"])
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
    assert ds.ground_truth.tolist() == [NORMAL, ABNORMAL]
    assert ds.labels.tolist() == [UNLABELED, ABNORMAL]
    assert ds.features.tobytes() == np.array([[0.5, -1.5],
                                              [-0.0, 1e-5]]).tobytes()
    # an error names the line of the file, blank lines counted
    for lines, where in [
            ([*rows[:3], b"", b"1,0,normalx,unlabeled,0.5,-1.5", b""], 5),
            ([*rows[:3], b"1,0,normal,unlabeled,1e200,-1.5"], 4)]:
        p.write_bytes(end.join(lines))
        with pytest.raises(SchemaError, match=f"^{re.escape(str(p))}:{where}: "):
            load_csv(p, "train")


def _parse_blocks_of(rows: int, dim: int, monkeypatch):
    """Patch ``BLOCK_BYTES`` so that ``load_csv`` parses ``rows`` rows of
    ``dim`` features at a time (a parsed row takes 92 + 8 * dim bytes)."""
    monkeypatch.setattr(data, "BLOCK_BYTES", 2 * rows * (92 + 8 * dim))


def _one_loadtxt_call(path, dim):
    """The split's columns from one ``np.loadtxt`` call over the whole body."""
    row = [("g", np.int64), ("m", np.int64), ("gt", "U9"), ("label", "U10"),
           ("f", np.float64, (dim,))]
    with open(path, newline="") as fh:
        next(fh)
        rows = np.loadtxt(fh, dtype=row, delimiter=",", comments=None, ndmin=1)
    codes = {"unlabeled": UNLABELED, "normal": NORMAL, "abnormal": ABNORMAL}
    return (rows["f"], rows["g"], rows["m"],
            [codes[name] for name in rows["gt"].tolist()],
            [codes[name] for name in rows["label"].tolist()])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_blocked_load_csv_equals_one_loadtxt_call(tmp_path, monkeypatch, end):
    """37-row parse blocks, blank lines among the rows and at the end: the
    columns are those of one ``np.loadtxt`` call over the file."""
    ds = generate_synthetic(replace(SMALL, train_size=1000))[0]
    save_csv(ds, tmp_path / "crlf.csv")
    lines = (tmp_path / "crlf.csv").read_bytes().split(b"\r\n")
    for at in (900, 500, 111, 74, 37, 1):  # from the end: indices stay put
        lines[at:at] = [b""] * (at % 3 + 1)
    p = tmp_path / "train.csv"
    p.write_bytes(end.join(lines) + end)
    _parse_blocks_of(37, ds.dim, monkeypatch)
    got = load_csv(p, "train")
    features, groups, modes, gts, labels = _one_loadtxt_call(p, ds.dim)
    assert got.features.tobytes() == features.tobytes()
    assert np.array_equal(got.group_ids, groups)
    assert np.array_equal(got.mode_ids, modes)
    assert got.ground_truth.tolist() == gts and got.labels.tolist() == labels
    assert np.array_equal(got.labels, ds.labels) and len(got) == 1000


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row, where", [
    (b"1,0,normal,unlabeledx,0.5,-1.5", "{p}:{line}: unknown value 'unlabeledx'"),
    (b"1,0,abnormalx,unlabeled,0.5,-1.5", "{p}:{line}: unknown value 'abnormalx'"),
    (b"1,0,normal,unlabeled,1e308,-1.5", "{p}:{line}: feature values too large"),
    (b"1e3,0,normal,unlabeled,0.5,-1.5", "'1e3' to int64 at row 400, column 1."),
    (b"1,0,normal,unlabeled,0.5", "6 columns but 5 were found at row 401;"),
    (b"1,0,normal,unlabeled,0.5,-1.5,", "6 columns but 7 were found at row 401;"),
    (b"1,0,normal,unlabeled,inf,-1.5", "{p}: non-finite feature values"),
    (b"1,0,normal,abnormal,0.5,-1.5", "{p}: a labeled sample disagrees"),
], ids=["unlabeledx", "abnormalx", "squared_norm_overflow",
        "float_in_int_column", "short_row", "trailing_comma", "non_finite",
        "label_disagrees_with_gt"])
def test_blocked_load_csv_errors_read_as_one_blocks(tmp_path, monkeypatch, row,
                                                   where):
    """A bad row past the first parse blocks, blank lines before it: the
    error is the one the file gives when it is parsed in one block; a
    ``file:LINE`` names the file's line, blank lines counted, and numpy's
    row number counts body rows from the first."""
    p = tmp_path / "train.csv"
    for blanks in (0, 1, 3):
        p.write_bytes(HEADER + GOOD_ROWS[:62] + b"\r\n" * blanks
                      + GOOD_ROWS[62:] + b"\r\n" * blanks + row + b"\r\n")
        messages = []
        for block_rows in (1000, 64, 7):
            _parse_blocks_of(block_rows, 2, monkeypatch)
            with pytest.raises(SchemaError) as info:
                load_csv(p, "train")
            messages.append(str(info.value))
        assert messages[1:] == messages[:1] * 2
        assert where.format(p=p, line=BAD_LINE + 2 * blanks) in messages[0]


def _kept_bytes(ds) -> int:
    return sum(getattr(ds, name).nbytes for name in (
        "features", "labels", "ground_truth", "mode_ids", "group_ids"))


def _load_csv_transient_bytes(tmp_path, rows: int) -> int:
    """Peak traced bytes of ``load_csv`` on a split of ``rows`` rows of 32
    features, beyond the arrays of the dataset it returns."""
    ds = generate_synthetic(GeneratorConfig(train_size=rows, val_size=1,
                                            test_size=1, seed=rows))[0]
    save_csv(ds, p := tmp_path / f"train{rows}.csv")
    tracemalloc.start()
    try:
        got = load_csv(p, "train")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - _kept_bytes(got)


def test_load_csv_working_memory_does_not_grow_with_rows(tmp_path):
    """Counted cost, independent of host speed: the body is parsed in blocks
    into columns sized once. Parsing it in one call, 35 000 more rows added
    12 MB: numpy's parsed rows, about 348 bytes each."""
    _load_csv_transient_bytes(tmp_path, 100)  # numpy's first-call allocations
    assert _load_csv_transient_bytes(tmp_path, 40_000) \
        - _load_csv_transient_bytes(tmp_path, 5_000) < 1 << 20


def test_generate_holds_one_split_beyond_what_it_keeps():
    """Counted cost: each split's groups are drawn into the array its layout
    check allocated, which is freed once permuted. Collecting the groups in a
    list and joining them per class and per split held about three copies of
    a split."""
    cfg = GeneratorConfig(train_size=2000, val_size=2000, test_size=20_000,
                          seed=4)
    tracemalloc.start()
    try:
        datasets = generate_synthetic(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    largest = max(ds.features.nbytes for ds in datasets)
    assert peak - sum(map(_kept_bytes, datasets)) <= largest + (1 << 20)


def test_generator_draws_each_split_into_its_layout_checked_array(monkeypatch):
    """The layout check of a split allocates the array its groups are drawn
    into, so no checked array is freed before the draws."""
    checked, drawn_into = [], []
    real_check, real_draw = data.check_layout, data._draw_groups

    def check_layout(*args):
        checked.append(real_check(*args))
        return checked[-1]

    def draw_groups(out, *args):
        drawn_into.append(out.base)
        return real_draw(out, *args)

    monkeypatch.setattr(data, "check_layout", check_layout)
    monkeypatch.setattr(data, "_draw_groups", draw_groups)
    generate_synthetic(SMALL)
    splits = checked[2:]
    assert [a.shape for a in splits] == [(200, 8), (100, 8), (100, 8)]
    assert len(drawn_into) == 6
    assert all(base is splits[i // 2] for i, base in enumerate(drawn_into))


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
