"""Only `verify.py` reads a graph's `.edges`, and only `flow.py` lays out
flow networks.

Stdlib `ast` checks over `src/mucut/*.py`.  A graph stores its edges once,
as the `us`/`vs`/`ws` arrays, and `edges` builds its tuples on each read, so
any read of it is an O(m) pass.  Every other module, `graph.py` included,
selects edges through `graph.vertex_mask` and those arrays, so membership
and the order of summation are decided in one place.  `verify.py` keeps its
own scans so that the oracles share no code with the algorithms.  A flow
network's `to`/`cap`/`adj` lists are filled by the `FlowNetwork`
constructor and `with_terminals` alone, so no other module stores to them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mucut"
MAY_SCAN = {"verify.py"}
MODULES = sorted(p for p in SRC.glob("*.py") if p.name not in MAY_SCAN)


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


MAY_LAY_OUT = {"flow.py"}
NETWORK_USERS = sorted(p for p in SRC.glob("*.py") if p.name not in MAY_LAY_OUT)
LAYOUT = {"to", "cap", "adj"}


def layout_stores(source: str) -> list[int]:
    """Lines of every store to (or delete of) a `.to`, `.cap` or `.adj`
    attribute, or to an item of one."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        target = node.value if isinstance(node, ast.Subscript) else node
        while isinstance(target, ast.Subscript):
            target = target.value
        if (isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(target, ast.Attribute)
                and target.attr in LAYOUT and isinstance(node.ctx, (ast.Store, ast.Del))):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", NETWORK_USERS, ids=lambda p: p.name)
def test_module_does_not_lay_out_networks(path):
    assert layout_stores(path.read_text(encoding="utf-8")) == []


def test_check_catches_a_layout_store():
    assert layout_stores("net.to = [1, 0]\n") == [1]
    assert layout_stores("x = 1\nnet.cap[3] = 0.0\n") == [2]
    assert layout_stores("net.adj[v][0] = a\n") == [1]
    assert layout_stores("out.adj += [[]]\ndel net.to[0]\n") == [1, 2]
    assert layout_stores("net.to, net.cap = to, cap\n") == [1, 1]
    assert layout_stores("n = len(net.to)\nc = net.cap[a]\nnet.adj[v].append(a)\n") == []
    assert layout_stores("to = [1]\nself.top = 2\n") == []
