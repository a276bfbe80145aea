"""Only `verify.py` reads a graph's `.edges`.

A stdlib `ast` check over `src/mucut/*.py`.  A graph stores its edges once,
as the `us`/`vs`/`ws` arrays, and `edges` builds its tuples on each read, so
any read of it is an O(m) pass.  Every other module, `graph.py` included,
selects edges through `graph.vertex_mask` and those arrays, so membership
and the order of summation are decided in one place.  `verify.py` keeps its
own scans so that the oracles share no code with the algorithms.
"""

import ast
from pathlib import Path

import pytest

MAY_SCAN = {"verify.py"}
MODULES = sorted(p for p in (Path(__file__).resolve().parent.parent / "src" / "mucut").glob("*.py")
                 if p.name not in MAY_SCAN)


def edge_reads(source: str) -> list[int]:
    """Lines of every read of an `.edges` attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "edges"
                  and isinstance(node.ctx, ast.Load))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_does_not_scan_edges(path):
    assert edge_reads(path.read_text(encoding="utf-8")) == []


def test_check_catches_an_edge_scan():
    assert edge_reads("for u, v, w in g.edges:\n    pass\n") == [1]
    assert edge_reads("x = 1\ntotal = sum(w for _, _, w in g.edges if w)\n") == [2]
    assert edge_reads("for i, e in enumerate(sub.edges):\n    pass\n") == [1]
    assert edge_reads("for u in g.us[keep].tolist():\n    pass\nm = g.edges[0]\n") == [3]
    assert edge_reads("n = len(g.edges)\nm = g.edge_count\n") == [1]
    assert edge_reads('"""Reads no g.edges."""\ndef edges(self):\n    pass\n') == []
