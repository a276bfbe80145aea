"""`verify.py` enumerates cuts in one function and runs it on the caller's
ids, with no subgraph built: two rules of `structure.py`, which says why."""

from structure import found, lines, span


def test_verify_has_one_mask_loop():
    assert len(found("verify.py")["enumerator"]) == 1


def test_oracle_callers_build_no_subgraph():
    assert found("verify.py")["relabel"] == []
    certificate = span("decompose.py", "_certificate")
    assert found("decompose.py")["relabel"]  # the games still build theirs
    assert [line for line in found("decompose.py")["relabel"] if line in certificate] == []


def test_check_counts_each_function_that_reads_the_chunk():
    assert lines("enumerator", "def a():\n    return _CHUNK\ndef b(n):\n"
                               "    for s in range(1, n, _CHUNK):\n        pass\n") == [1, 3]
    assert lines("enumerator", "def a():\n    def b():\n        return _CHUNK\n") == [1, 2]
    assert lines("enumerator", '_CHUNK = 1 << 16\ndef a():\n    """_CHUNK"""\n'
                               "    _CHUNK = 2\n    return chunk\n") == []


def test_check_catches_a_relabel():
    assert lines("relabel", "sub, order = induced_subgraph(g, c)\n"
                            "m = mu.restrict(order)\n") == [1, 2]
    assert lines("relabel", "x = 1\nv = f(graph.induced_subgraph(g, c)[0])\n") == [2]
    assert lines("relabel", "from .graph import induced_subgraph\nf = mu.restrict\n"
                            "r = mu.restricted(c)\n") == []
