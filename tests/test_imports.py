"""Every name imported in ``src/madlab/*.py`` is used in its module, unless
the import's first line says why it stays: ``# noqa: F401 -- <reason>``."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "madlab"
_REASONED_NOQA = re.compile(r"#\s*noqa:\s*F401\W+\w")


def unused_imports(text: str) -> list:
    """``"<line>: <name>"`` for each imported name never read in ``text``."""
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or _REASONED_NOQA.search(lines[node.lineno - 1])):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                unused.append(f"{node.lineno}: {name}")
    return unused


def test_checker_flags_unused_names_and_keeps_reasoned_ones():
    text = ("from __future__ import annotations\n"
            "import os\n"
            "import sys  # noqa: F401 -- a patch point\n"
            "from json import (dumps,  # noqa: F401\n"
            "                  loads)\n"
            "import xml.dom\n"
            "from re import compile as re_compile\n"
            "print(re_compile, xml)\n")
    assert unused_imports(text) == ["2: os", "4: dumps", "4: loads"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used_or_annotated(path):
    assert unused_imports(path.read_text()) == []
