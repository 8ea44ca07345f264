"""Every name a module imports is read somewhere in that module.

No linter ships with the project, so the check walks each file's syntax
tree with the standard library's ``ast``: a name bound by an import must
appear as a name anywhere in the file.  ``__init__.py`` is left out, since
its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "agst").glob("*.py"), *(ROOT / "tests").glob("*.py"),
                *(ROOT / "demos").glob("*.py")])
FILES = [path for path in FILES if path.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in bound.items() if name not in read]


def test_files_found():
    names = {path.name for path in FILES}
    assert {"mlp.py", "test_mlp.py", "04_full_pipeline.py"} <= names


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import os\nimport numpy as np\nfrom x import a, b\nprint(np, b)\n"
    assert unused_imports(source) == ["1: os", "3: a"]
