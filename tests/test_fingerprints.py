"""Full-size fingerprints: the sha256 of each session benchmark's
``metrics.json`` bytes.

The runs are the ``conftest.py`` fixtures that the acceptance suite trains
anyway, so these pins add no training time. Any change to the numerics of
the default configuration, or of its untrained, one-epoch, uni-modal and
labeled-ratio variants, moves one of them.
"""

import hashlib
import json

import pytest

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
