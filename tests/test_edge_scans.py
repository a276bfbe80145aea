"""Only `verify.py` iterates over a graph's `.edges`.

A stdlib `ast` check over `src/mucut/*.py`: every other module, `graph.py`
included, selects edges through `graph.vertex_mask` and the graph's
`us`/`vs`/`ws` arrays and CSR adjacency, so membership and the order of
summation are decided in one place.  `verify.py` keeps its own scans so that
the oracles share no code with the algorithms.
"""

import ast
from pathlib import Path

import pytest

MAY_SCAN = {"verify.py"}
MODULES = sorted(p for p in (Path(__file__).resolve().parent.parent / "src" / "mucut").glob("*.py")
                 if p.name not in MAY_SCAN)


def edge_scans(source: str) -> list[int]:
    """Lines of every `for` loop or comprehension whose iterable reads `.edges`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            if any(isinstance(sub, ast.Attribute) and sub.attr == "edges"
                   for sub in ast.walk(node.iter)):
                lines.append(node.iter.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_does_not_scan_edges(path):
    assert edge_scans(path.read_text(encoding="utf-8")) == []


def test_check_catches_an_edge_scan():
    assert edge_scans("for u, v, w in g.edges:\n    pass\n") == [1]
    assert edge_scans("x = 1\ntotal = sum(w for _, _, w in g.edges if w)\n") == [2]
    assert edge_scans("for i, e in enumerate(sub.edges):\n    pass\n") == [1]
    assert edge_scans("for u in g.us[keep].tolist():\n    pass\nm = g.edges[0]\n") == []
