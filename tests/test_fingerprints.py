"""Fingerprints: the sha256 of each session benchmark's ``metrics.json``
bytes, and of the generator's columns over a grid of small configs.

The runs are the ``conftest.py`` fixtures that the acceptance suite trains
anyway, so these pins add no training time. Any change to the numerics of
the default configuration, or of its untrained, one-epoch, uni-modal and
labeled-ratio variants, moves one of them. The generator pins move with any
change to the draws of ``generate_synthetic`` or their order.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from madlab.config import GeneratorConfig
from madlab.data import generate_synthetic

# (fixture, index of the RunResult in its value, sha256 of metrics.json),
# computed on x86-64 with numpy 2.4.6 and OpenBLAS 0.3.31's Haswell kernel;
# they hold at OPENBLAS_NUM_THREADS 1, 2 and unset
PINS = {
    "default": ("benchmark_default", 0,
                "05ea280d13c3163e162fbdbbe2ea28df9cb271305d36d4424d822f2a22574a6a"),
    "untrained": ("benchmark_untrained", 0,
                  "ad12bc48ab1f2ed7751a09753710ffb5cc2b55c1d29341e2d0dfbab3b663a5f0"),
    "random_one_epoch": (
        "benchmark_random_one_epoch", 0,
        "f5192fc1b7769e1b380dca1569323803b5fe4e5d436de4c300633f57f8016008"),
    "unimodal_uni": (
        "benchmark_unimodal_pair", 0,
        "186ee88f3bcf02fc1c36c0c1129d5ef211293da41ac7ad3dbd120b0ffb3b0ae5"),
    "unimodal_multi": (
        "benchmark_unimodal_pair", 1,
        "3b2715b1b30e2b818cecfb959a7e3c67bb1988b5c70f932708538f95183b2dc1"),
    "ratio_0.025": (
        "benchmark_ratio_sweep", 0,
        "d092f8ff82f858a797b6e034d580a9bf4167a66743e620e8ffb25172b97e08bd"),
    "ratio_0.10": (
        "benchmark_ratio_sweep", 2,
        "3712416e4fe4e216f39550f8aafaf9f954992296bbd6d920e73ec2e7b2a845e0"),
}


@pytest.mark.parametrize("name", PINS)
def test_full_size_metrics_pinned(name, request):
    fixture, index, pin = PINS[name]
    result = request.getfixturevalue(fixture)[index]
    metrics = json.dumps(result.metrics_dict(), indent=2,
                         sort_keys=True) + "\n"  # as `madlab train` writes it
    assert hashlib.sha256(metrics.encode()).hexdigest() == pin, (
        f"{name}: metrics.json moved. The pin is tied to the OpenBLAS kernel "
        f"of the host that computed it; on another BLAS kernel a move may "
        f"be rounding, not a change in the code")


GENERATOR_BASE = GeneratorConfig(dim=8, modes=2, train_size=200, val_size=100,
                                 test_size=100, normal_rank=6, group_size=4)

# (overrides of GENERATOR_BASE, sha256 of every column of every split over
# seeds 0-2); the same host caveat as PINS holds, the normal draw is a GEMM
GENERATOR_PINS = {
    "base": ({}, "2be7bc180e61bd62c82a0eb2afd25d84ae0625aa7fceb9f5afdb8a07f8a81ebe"),
    "unimodal": ({"modes": 1},
                 "341f6f1b5ad46b5da0cf520c4d5a5239d52ff836ce7e84fd42c3d7d828dfbbfe"),
    "group_size_1": (
        {"group_size": 1},
        "a97c3df6a99bc95d34d4e2f34250d6e178e8518751f2a5b97f885c1684ca6fc0"),
    "tiny_splits": (
        {"train_size": 7, "val_size": 3, "test_size": 5, "group_size": 3},
        "dfe32fe1b0cacb17bb4699cbf97d90cbc9d8fca9dc100ea37648287e50d49b24"),
    "all_midpoints": (
        {"midpoint_fraction": 1.0, "contamination": 0.3},
        "8894feebd599d4cdd087f70d9004f79f4c2329560f4417d733cb4f7b07ffbcc5"),
    "no_train_anomalies": (
        {"contamination": 0.0, "labeled_normal_fraction": 1.0},
        "7a832aa4da0a04131bf3a8cc2686a47b48f6da697c1c238cb7a9dde536adbba5"),
    "low_rank": ({"modes": 6, "normal_rank": 3},
                 "114185c5769704ff100b4e32f9a9a49fa0fd696ecd69e4b9b01fe20d6f69d22d"),
}


@pytest.mark.parametrize("name", GENERATOR_PINS)
def test_generator_columns_pinned(name):
    sets, pin = GENERATOR_PINS[name]
    h = hashlib.sha256()
    for seed in range(3):
        for ds in generate_synthetic(replace(GENERATOR_BASE, seed=seed, **sets)):
            for col in (ds.features, ds.labels, ds.ground_truth, ds.mode_ids,
                        ds.group_ids):
                h.update(f"{col.dtype.str}{col.shape}".encode())
                h.update(col.tobytes())
    assert h.hexdigest() == pin, f"{name}: the generated columns moved"
