"""The benchmark tracer must still find every function it wraps.

``perfbench/tracer.py`` patches madlab's public functions under the names
through which trainer, cli and data call them. A refactor that drops or
renames one of those names breaks only traced benchmark runs, so this test
installs the tracer and removes it again.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402


def test_tracer_patches_and_restores_every_attribute():
    t = tracer.Tracer()
    try:
        tracer.install(t)  # AttributeError if a patch point is gone
        patched = list(t._patched)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        t.unpatch()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner}.{attr}"
