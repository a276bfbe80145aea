"""Every name a library module imports is used in it.

A stdlib `ast` check over `src/mucut/*.py`: the package's `__init__.py`
imports names only to export them and is skipped, and an import line
marked `# noqa: F401` is kept on purpose.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).resolve().parent.parent / "src" / "mucut").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("# noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_catches_an_unused_import():
    assert unused_imports("from .graph import Cut, Graph\n\ng: Graph\n") == ["line 1: Cut"]
    assert unused_imports("import numpy as np\n") == ["line 1: np"]
    assert unused_imports("from .graph import Cut  # noqa: F401\n") == []
