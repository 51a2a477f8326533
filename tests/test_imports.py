"""Every name imported in ``src/madlab/*.py`` is used in its module, unless
the import's first line says why it stays: ``# noqa: F401 -- <reason>``;
such a name must be one that ``perfbench/tracer.py`` patches on that module.
No module imports another's underscore name; dunders are public.
Every module ``src/madlab`` imports is numpy, its own or the standard
library's.
Every function, class, method and property that ``src/madlab`` defines is
named by ``src/`` or ``perfbench/`` code outside its own definition."""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "madlab"
_REASONED_NOQA = re.compile(r"#\s*noqa:\s*F401\W+\w")


def unused_imports(text: str, honour_noqa: bool = True) -> list:
    """``"<line>: <name>"`` for each imported name never read in ``text``,
    leaving out those under a reasoned noqa unless ``honour_noqa`` is off."""
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or honour_noqa
                and _REASONED_NOQA.search(lines[node.lineno - 1])):
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
    assert kept_by_noqa(text) == {"sys"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used_or_annotated(path):
    assert unused_imports(path.read_text()) == []


def private_imports(text: str) -> list:
    """``"<line>: <name>"`` for each underscore name, other than a dunder,
    that ``text`` imports from a sibling module."""
    return [f"{node.lineno}: {alias.name}" for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")]


def test_private_import_checker_allows_only_public_and_dunder_names():
    text = ("from . import __version__\n"
            "from .data import (LABEL_NAMES,\n"
            "                   _CODES)\n"
            "from .trainer import _fill as fill\n"
            "from numpy import _core\n")
    assert private_imports(text) == ["2: _CODES", "4: _fill"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    assert private_imports(path.read_text()) == []


def foreign_imports(text: str) -> list:
    """``"<line>: <module>"`` for each import in ``text``, at any level, of a
    module other than numpy, ``__future__``, a relative one or one in the
    standard library."""
    allowed = {"numpy", "__future__", *sys.stdlib_module_names}
    nodes = list(ast.walk(ast.parse(text)))
    modules = [(node.lineno, alias.name) for node in nodes
               if isinstance(node, ast.Import) for alias in node.names]
    modules += [(node.lineno, node.module) for node in nodes
                if isinstance(node, ast.ImportFrom) and node.level == 0]
    return [f"{line}: {name}" for line, name in sorted(modules)
            if name.split(".")[0] not in allowed]


def test_foreign_import_checker_flags_non_stdlib_modules_at_any_level():
    text = ("from __future__ import annotations\n"
            "import os.path, scipy.stats\n"
            "import numpy as np\n"
            "from . import __version__\n"
            "from .data import Dataset\n"
            "def f():\n"
            "    import multiprocessing\n"
            "    from concurrent.futures import Future\n"
            "    from hypothesis import given\n"
            "    import numpyx\n")
    assert foreign_imports(text) == ["2: scipy.stats", "9: hypothesis",
                                     "10: numpyx"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_src_imports_only_numpy_and_the_standard_library(path):
    assert foreign_imports(path.read_text()) == []


def kept_by_noqa(text: str) -> set:
    """The imported names that only a reasoned noqa keeps in ``text``."""
    kept = (set(unused_imports(text, honour_noqa=False))
            - set(unused_imports(text)))
    return {entry.split(": ")[1] for entry in kept}


def _tracer_patches() -> set:
    """(module, attribute) for each patch ``perfbench/tracer.py`` installs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import tracer
    t = tracer.Tracer()
    try:
        tracer.install(t)
        return {(owner.__name__, attr) for owner, attr, _ in t._patched}
    finally:
        t.unpatch()


def test_annotated_imports_are_tracer_patch_points():
    patched = _tracer_patches()
    for path in sorted(SRC.glob("*.py")):
        for name in kept_by_noqa(path.read_text()):
            assert (f"madlab.{path.stem}", name) in patched, (path.name, name)


def _names(node) -> list:
    """Each identifier ``node`` reads: names, attributes and the strings
    that ``perfbench/tracer.py`` patches by."""
    return [n.id if isinstance(n, ast.Name) else
            n.attr if isinstance(n, ast.Attribute) else n.value
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            or isinstance(n, ast.Constant) and isinstance(n.value, str)]


def _definitions(body, owner=""):
    """(qualified name, node) of each def and class at this level and in
    the classes below it; nested functions and dunders are left out."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and not node.name.startswith("__"):
            yield owner + node.name, node
        if isinstance(node, ast.ClassDef):
            yield from _definitions(node.body, f"{owner}{node.name}.")


def unnamed_definitions(src_texts, other_texts=()) -> list:
    """Qualified names of the definitions in ``src_texts`` that no code in
    ``src_texts`` or ``other_texts`` names outside the definition itself."""
    src = [ast.parse(t) for t in src_texts]
    named = Counter(name for tree in src + [ast.parse(t) for t in other_texts]
                    for name in _names(tree))
    return [qualname for tree in src
            for qualname, node in _definitions(tree.body)
            if named[node.name] == _names(node).count(node.name)]


def test_definition_checker_flags_only_self_named_definitions():
    src = ("class A:\n"
           "    def used(self): return self.used()\n"
           "    def __len__(self): return 0\n"
           "    @property\n"
           "    def patched(self): return 1\n"
           "def helper(): return helper()\n"
           "def caller(a):\n"
           "    def inner(): pass\n"
           "    return A, a.used()\n")
    assert unnamed_definitions([src]) == ["A.patched", "helper", "caller"]
    assert unnamed_definitions([src], ['patch(A, "patched")']) == [
        "helper", "caller"]


def test_every_definition_is_named_outside_itself():
    texts = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    others = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unnamed_definitions(texts, others) == []
