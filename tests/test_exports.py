"""Every name the ``agst`` package exports is read through ``agst`` somewhere.

The exports are the names ``src/agst/__init__.py`` imports from its
modules.  A name counts as read when a file under ``tests/``, ``demos/`` or
``bench/`` imports it from ``agst`` or reads it as ``agst.X``; code inside
the package reads its own modules, so it does not count.  Like
``test_imports.py``, the check walks syntax trees with the standard
library's ``ast``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "agst" / "__init__.py"
READERS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py"),
                  *(ROOT / "bench").glob("*.py")])


def exports(source: str) -> set[str]:
    return {alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}


def read_through_package(source: str) -> set[str]:
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "agst" and not node.level:
            read |= {alias.name for alias in node.names}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "agst"):
            read.add(node.attr)
    return read


def test_readers_found():
    names = {path.name for path in READERS}
    assert {"test_mlp.py", "04_full_pipeline.py", "selftest.py"} <= names


def test_every_export_is_read_outside_the_package():
    read = set().union(*(read_through_package(path.read_text()) for path in READERS))
    assert sorted(exports(INIT.read_text()) - read) == []


def test_an_unread_export_is_found():
    init = "from .data import a, b as c\nfrom .mlp import d\nfrom numpy import e\n"
    assert exports(init) == {"a", "c", "d"}
    reader = "from agst import a\nfrom agst.mlp import d\nimport agst\nagst.c\nx.d\n"
    assert exports(init) - read_through_package(reader) == {"d"}
