"""Only `verify.py`'s recount scans edges and only `flow.py` lays out
networks: two rules of `structure.py`, which says why."""

import pytest

from structure import found, lines, outside, span


@pytest.mark.parametrize("name", outside("edges"))
def test_module_does_not_scan_edges(name):
    assert found(name)["edges"] == []


def test_in_verify_only_the_recount_scans_edges():
    recount = span("verify.py", "validate_partition")
    assert [line for line in found("verify.py")["edges"] if line not in recount] == []


def test_check_catches_an_edge_scan():
    assert lines("edges", "for u, v, w in g.edges:\n    pass\n") == [1]
    assert lines("edges", "x = 1\ntotal = sum(w for _, _, w in g.edges if w)\n") == [2]
    assert lines("edges", "for i, e in enumerate(sub.edges):\n    pass\n") == [1]
    assert lines("edges", "for u in g.us[keep].tolist():\n    pass\nm = g.edges[0]\n") == [3]
    assert lines("edges", "n = len(g.edges)\nm = g.edge_count\n") == [1]
    assert lines("edges", '"""Reads no g.edges."""\ndef edges(self):\n    pass\n') == []


@pytest.mark.parametrize("name", outside("layout"))
def test_module_does_not_lay_out_networks(name):
    assert found(name)["layout"] == []


def test_check_catches_a_layout_store():
    assert lines("layout", "net.to = [1, 0]\n") == [1]
    assert lines("layout", "x = 1\nnet.cap[3] = 0.0\n") == [2]
    assert lines("layout", "net.adj[v][0] = a\n") == [1]
    assert lines("layout", "out.adj += [[]]\ndel net.to[0]\n") == [1, 2]
    assert lines("layout", "net.to, net.cap = to, cap\n") == [1, 1]
    assert lines("layout", "n = len(net.to)\nc = net.cap[a]\nnet.adj[v].append(a)\n") == []
    assert lines("layout", "to = [1]\nself.top = 2\n") == []
