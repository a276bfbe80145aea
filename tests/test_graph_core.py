import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mucut import (ActiveState, Graph, INFINITE, VertexMeasure, connected_components,
                   cut_weight, edge_network, induced_subgraph, mu_expansion_of_cut, trim)
from mucut.errors import GraphInputError
from mucut.graph import merge_pairs, vertex_sums

from helpers import (adjacency_recount_cut, clique_edges, random_connected_graph,
                     reference_components, reference_edge_id, reference_graph)


def path3():
    return Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])


def test_cut_weight_path_single_vertex():
    assert cut_weight(path3(), {0}) == 1.0


def test_cut_weight_empty_and_full_sides():
    g = path3()
    assert cut_weight(g, []) == 0.0
    assert cut_weight(g, range(3)) == 0.0


def test_weighted_degrees_match_a_sequential_sum():
    # the degrees add each merged edge's weight at u, then at v, in edge
    # order, as a loop over the edges does: the same bits
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(1, 15))
        count = int(rng.integers(0, 3 * n))
        ends = rng.integers(0, n, size=(count, 2))
        ends = ends[ends[:, 0] != ends[:, 1]]
        ws = rng.uniform(0.01, 3.0, size=len(ends))
        g = Graph(n, [(u, v, w) for (u, v), w in zip(ends.tolist(), ws.tolist())])
        want = np.zeros(n)
        for u, v, w in g.edges:
            want[u] += w
            want[v] += w
        assert g.weighted_degrees().tobytes() == want.tobytes()
        assert not g.weighted_degrees().flags.writeable
    assert Graph(0, []).weighted_degrees().tobytes() == b""


def test_edge_arrays_are_the_read_only_columns_of_edges():
    g = Graph(4, [(2, 0, 1.5), (3, 1), (0, 2, 0.25), (1, 2, 2.0)])  # (0, 2) merges
    assert g.edges == ((0, 2, 1.75), (1, 2, 2.0), (1, 3, 1.0))
    empty = Graph(0, [])
    for graph in (g, empty):
        columns = [list(col) for col in zip(*graph.edges)] or [[], [], []]
        for arr, col in zip((graph.us, graph.vs, graph.ws), columns):
            assert arr.tolist() == col
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[:1] = 0
    assert (g.us.dtype.kind, g.vs.dtype.kind, g.ws.dtype.kind) == ("i", "i", "f")


def test_cut_weight_adds_crossing_weights_in_edge_order():
    # left to right, 1.0 absorbs each 1e-16; a pairwise sum gathers them first
    g = Graph(12, [(0, 1, 1.0)] + [(0, v, 1e-16) for v in range(2, 12)])
    assert float(np.sum(g.ws)) != 1.0
    assert cut_weight(g, [0]) == 1.0


def path4():
    return Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])


#: Every query on a vertex set, applied to (g, mu, set) on path4 with mu = degree.
SET_QUERIES = {
    "cut_weight": lambda g, mu, s: cut_weight(g, s),
    "mu_expansion_of_cut": lambda g, mu, s: mu_expansion_of_cut(g, mu, s),
    "mu_expansion_of_cut vertices": lambda g, mu, s: mu_expansion_of_cut(g, mu, [0], s),
    "connected_components": lambda g, mu, s: connected_components(g, s),
    "induced_subgraph": lambda g, mu, s: induced_subgraph(g, s),
    "edge_network": lambda g, mu, s: edge_network(g, s, 1.0),
    "trim": lambda g, mu, s: trim(g, mu, s, 0.5),
    "VertexMeasure.of": lambda g, mu, s: mu.of(s),
    "VertexMeasure.restrict": lambda g, mu, s: mu.restrict(s),
    "ActiveState": lambda g, mu, s: ActiveState(s, mu),
}


@pytest.mark.parametrize("bad", [-1, 4, 1.5])
@pytest.mark.parametrize("query", sorted(SET_QUERIES))
def test_vertex_set_queries_reject_bad_ids(query, bad):
    # -1 used to wrap to vertex 3 in mu.of and ActiveState, and to come back
    # as a component of its own
    g = path4()
    with pytest.raises(GraphInputError):
        SET_QUERIES[query](g, VertexMeasure.from_degrees(g), [0, bad])


def test_measure_of_counts_each_vertex_once():
    mu = VertexMeasure([1.0, 2.0, 4.0])
    assert mu.of([2, 0, 2]) == 5.0
    assert mu.restrict([2, 0, 2]).values.tolist() == [1.0, 4.0]


def test_cut_weight_matches_independent_recount():
    rng = np.random.default_rng(5)
    for _ in range(30):
        g = random_connected_graph(rng, 10, extra=2.0, weighted=True)
        side = {int(v) for v in rng.integers(0, 10, size=4)}
        expected = adjacency_recount_cut(g, side)
        assert cut_weight(g, side) == pytest.approx(expected, abs=1e-12)


def test_cut_weight_symmetric_in_complement():
    rng = np.random.default_rng(6)
    for _ in range(20):
        g = random_connected_graph(rng, 9, extra=1.5, weighted=True)
        side = {int(v) for v in rng.integers(0, 9, size=3)}
        comp = set(range(9)) - side
        assert cut_weight(g, side) == pytest.approx(cut_weight(g, comp), abs=1e-12)


def test_mu_expansion_path_examples():
    g = path3()
    assert mu_expansion_of_cut(g, VertexMeasure([1, 1, 1]), {0}) == 1.0
    assert mu_expansion_of_cut(g, VertexMeasure([0, 1, 1]), {0}) is INFINITE
    # mu(V) - mu(S) would leave 1.1e-16 for a rest that holds no terminal
    path8 = Graph(8, [(v, v + 1, 1.0) for v in range(7)])
    assert mu_expansion_of_cut(path8, VertexMeasure([0.1] * 7 + [0.0]), range(7)) is INFINITE


def test_mu_expansion_k4_pairs():
    g = Graph(4, clique_edges(range(4)))
    mu = VertexMeasure([1, 1, 1, 1])
    for pair in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        assert mu_expansion_of_cut(g, mu, pair) == 2.0


def test_mu_expansion_rejects_improper_cuts():
    g = path3()
    mu = VertexMeasure([1, 1, 1])
    with pytest.raises(GraphInputError):
        mu_expansion_of_cut(g, mu, [])
    with pytest.raises(GraphInputError):
        mu_expansion_of_cut(g, mu, range(3))
    for side in ([2], [0, 2], [0, 1]):  # reaches outside the vertex set, or is all of it
        with pytest.raises(GraphInputError):
            mu_expansion_of_cut(g, mu, side, [0, 1])


def test_graph_rejects_self_loops_and_bad_weights():
    with pytest.raises(GraphInputError):
        Graph(3, [(0, 0, 1.0)])
    for w in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(GraphInputError, match="positive and finite"):
            Graph(3, [(0, 1, w)])
    with pytest.raises(GraphInputError):
        Graph(3, [(0, 5, 1.0)])
    g = Graph(2, [(0, 1, 1.0), (1, 0, 2.5)])  # parallel edges merge
    assert g.edge_count == 1
    assert g.edges[0][2] == pytest.approx(3.5)


def test_induced_subgraph_identity_and_pair():
    g = Graph(4, clique_edges(range(4)))
    whole, order = induced_subgraph(g, range(4))
    assert order == (0, 1, 2, 3)
    assert whole.edge_count == 6
    pair, order = induced_subgraph(g, [2, 0])
    assert order == (0, 2)
    assert pair.edges == ((0, 1, 1.0),)


def test_induced_subgraph_edge_count_matches_filter():
    rng = np.random.default_rng(9)
    for _ in range(25):
        g = random_connected_graph(rng, 12, extra=2.0, weighted=True)
        keep = sorted({int(v) for v in rng.integers(0, 12, size=7)})
        sub, order = induced_subgraph(g, keep)
        kept = set(order)
        expected = sum(1 for u, v, _ in g.edges if u in kept and v in kept)
        assert sub.edge_count == expected
        # mapping round-trips, in either orientation
        for (lu, lv, w) in sub.edges:
            assert g.edge_weight(order[lu], order[lv]) == pytest.approx(w)
            assert g.edge_weight(order[lv], order[lu]) == pytest.approx(w)
        present = {(u, v) for u, v, _ in g.edges}
        for u, v in itertools.combinations(range(12), 2):
            if (u, v) not in present:
                assert g.edge_weight(u, v) is None and g.edge_weight(v, u) is None
        for u, v in ((-1, 0), (0, -1), (12, 0), (0, 12)):
            assert g.edge_weight(u, v) is None


def test_induced_subgraph_rejects_empty():
    with pytest.raises(GraphInputError):
        induced_subgraph(path3(), [])


@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=12),
       st.data())
@settings(max_examples=100, deadline=None)
def test_measure_additivity(values, data):
    mu = VertexMeasure(values)
    n = len(values)
    picks = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=n))
    a = set(picks)
    b = set(range(n)) - a
    assert mu.of(a) + mu.of(b) == pytest.approx(mu.total, abs=1e-9)


def test_measure_support_and_spread():
    mu = VertexMeasure([0.0, 2.0, 0.5, 0.0])
    assert mu.support.tolist() == [1, 2]
    assert mu.support.dtype == np.intp
    assert not (mu.support.flags.writeable or mu.support_mask.flags.writeable)
    assert mu.spread() == pytest.approx(4.0)
    assert VertexMeasure([0.0, 0.0]).spread() is None


def test_measure_rejects_negative():
    with pytest.raises(GraphInputError):
        VertexMeasure([1.0, -0.1])
    with pytest.raises(GraphInputError, match="flat"):
        VertexMeasure([[1.0, 2.0]])


def test_degree_measure_matches_conductance_formula():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = random_connected_graph(rng, 8, extra=1.5, weighted=True)
        mu = VertexMeasure.from_degrees(g)
        side = {int(v) for v in rng.integers(0, 8, size=3)}
        if not side or len(side) >= 8:
            continue
        deg = g.weighted_degrees()
        vol_s = float(deg[sorted(side)].sum())
        denom = min(vol_s, float(deg.sum()) - vol_s)
        got = mu_expansion_of_cut(g, mu, side)
        if denom <= 0:
            assert got is INFINITE
        else:
            assert got == pytest.approx(cut_weight(g, side) / denom, rel=1e-12)


def test_connected_components_ordering():
    g = Graph(5, [(3, 4, 1.0), (0, 2, 1.0)])
    assert connected_components(g) == ((0, 2), (1,), (3, 4))


def test_connected_components_of_subset_match_induced_subgraph():
    rng = np.random.default_rng(13)
    for trial in range(60):
        n = int(rng.integers(2, 30))
        g = random_connected_graph(rng, n, extra=float(rng.uniform(0.0, 1.0)))
        if trial >= 40:  # isolated vertices among the others
            k = int(rng.integers(1, 6))
            perm = rng.permutation(n + k).tolist()
            g = Graph(n + k, [(perm[u], perm[v], w) for u, v, w in g.edges])
            n += k
            assert sum(len(c) == 1 for c in connected_components(g)) == k
        subset = {int(v) for v in rng.integers(0, n, size=int(rng.integers(1, n + 1)))}
        sub, order = induced_subgraph(g, subset)
        expected = tuple(tuple(order[v] for v in comp) for comp in connected_components(sub))
        assert connected_components(g, subset) == expected
        assert connected_components(g, sorted(subset, reverse=True)) == expected
        assert connected_components(g, []) == ()


@pytest.mark.parametrize("edge", [(0, 1, 5.0, "x"), (0,), (0.7, 1.9, 1.0), (0, 1.0),
                                  (np.float64(0), 1, 1.0), ("0", 1), (0, 1, "heavy")])
def test_graph_rejects_malformed_edges(edge):
    # a 4-tuple used to lose its weight and float ids used to be truncated
    with pytest.raises(GraphInputError):
        Graph(3, [edge])


def test_graph_takes_numpy_ids_and_weights():
    g = Graph(3, [(np.int64(0), np.intp(2), np.float64(2.5)), (np.int32(1), 2)])
    assert g.edges == ((0, 2, 2.5), (1, 2, 1.0))
    assert all(type(x) is int for u, v, _ in g.edges for x in (u, v))


def random_edge_input(rng: np.random.Generator) -> tuple[int, list]:
    """Edges as a caller might pass them: unsorted, parallel in both
    orientations, 2- and 3-tuples, Python or numpy ids and weights, and
    weights whose sum depends on the order they are added in."""
    n = int(rng.integers(0, 12))
    if n < 2:
        return n, []
    edges = []
    for _ in range(int(rng.integers(0, 4 * n))):
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        w = float(rng.choice([1.0, 1e-16, 0.1, 0.2, 0.3, 3.0, rng.uniform(0.01, 5.0)]))
        kind = int(rng.integers(0, 4))
        if kind == 0:
            edges.append((u, v))
        elif kind == 1:
            edges.append((np.int64(u), np.intp(v), np.float64(w)))
        else:
            edges.append((u, v, w))
        if rng.random() < 0.3:  # the same pair again, maybe reversed
            edges.append((v, u, w / 3.0) if rng.random() < 0.5 else (u, v, 1e-16))
    return n, edges


def assert_same_graph(g: Graph, ref) -> None:
    assert g.vertex_count == ref.vertex_count
    assert g.edges == ref.edges
    assert [w.hex() for _, _, w in g.edges] == [w.hex() for _, _, w in ref.edges]
    for got, want in ((g.us, ref.us), (g.vs, ref.vs)):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert [w.hex() for w in g.ws.tolist()] == [w.hex() for w in ref.ws.tolist()]
    assert g.weighted_degrees().tobytes() == ref._degrees.tobytes()
    for u in range(-1, g.vertex_count + 1):
        for v in range(-1, g.vertex_count + 1):
            assert g.edge_id(u, v) == reference_edge_id(ref, u, v)
    assert connected_components(g) == reference_components(ref)


def test_graph_matches_the_former_per_edge_build():
    rng = np.random.default_rng(18)
    for _ in range(300):
        n, edges = random_edge_input(rng)
        ref = reference_graph(n, edges)
        assert_same_graph(Graph(n, edges), ref)
        assert_same_graph(Graph(n, iter(edges)), ref)
        rows = [(*e, 1.0)[:3] for e in edges]
        us, vs, ws = (np.array(col) for col in zip(*rows)) if rows else ([], [], [])
        assert_same_graph(Graph.from_columns(n, us, vs, ws), ref)


def test_parallel_weights_add_in_input_order():
    # (1.0 + 1e-16) + 1e-16 rounds to 1.0, 1e-16 + 1e-16 + 1.0 does not
    g = Graph(2, [(0, 1, 1.0), (1, 0, 1e-16), (0, 1, 1e-16)])
    h = Graph(2, [(0, 1, 1e-16), (1, 0, 1e-16), (0, 1, 1.0)])
    assert g.edges[0][2] == 1.0
    assert h.edges[0][2] == 1e-16 + 1e-16 + 1.0 != 1.0


BAD_EDGE_INPUTS = [
    [(0, 1), (0, 1, 5.0, "x")],
    [(0, 1, 1.0), (0,)],
    [(0, 5, 1.0), (0, "x")],
    [(0, "x"), (0, 5)],
    [(0, 1, -1.0), (0, 5)],
    [(0, 1), (2, 2), (0, 9)],
    [(0, 1), (1, 2, float("nan"))],
    [(0, 1), (1, 2, "heavy")],
    [(0, 1), (1, 2, 2.5), (3, 2 ** 70)],
    [(0, 1), (-1, 2)],
    [(0.0, 1)],
    [(True, 2, 1.0), (0, 2 ** 70, 1.0)],
    [(0, 2), (2 ** 64 - 1, 1), (1, 2 ** 64 - 1)],
    [(2 ** 64 - 1, 0)],
]


@pytest.mark.parametrize("edges", BAD_EDGE_INPUTS)
def test_graph_names_the_first_bad_edge_as_before(edges):
    with pytest.raises(GraphInputError) as want:
        reference_graph(3, edges)
    with pytest.raises(GraphInputError) as got:
        Graph(3, edges)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("weight", ["2.5", b"2.5", np.str_("2.5")])
def test_graph_rejects_a_weight_that_only_float_parses(weight):
    # float("2.5") is 2.5, yet a string is not a real weight
    message = f"edge (1, 2, {weight!r}) needs integer ids and a real weight"
    with pytest.raises(GraphInputError) as rows:
        Graph(3, [(0, 1), (1, 2, weight), (3, 2 ** 70)])
    with pytest.raises(GraphInputError) as columns:
        Graph.from_columns(3, [0, 1], [1, 2], [1.0, weight])
    assert str(rows.value) == str(columns.value) == message


def test_graph_takes_bool_ids_and_bool_or_int_weights():
    for edges in ([(True, 2)], [(True, 2, 1.0), (0, 2, 3)], [(0, 1, True), (1, 2, 2 ** 70)],
                  [(0, 1, np.int64(3)), (2, 1, np.float32(0.1))]):
        want = reference_graph(3, edges)
        for g in (Graph(3, edges), Graph.from_columns(3, *zip(*[(*e, 1.0)[:3] for e in edges]))):
            assert [(u, v, w.hex()) for u, v, w in g.edges] == \
                [(u, v, w.hex()) for u, v, w in want.edges]


@pytest.mark.parametrize("values", [["1.0", "2"], np.array(["1.0", "2"]), [b"1", 2.0],
                                    [1 + 0j, 2], [1.0, None], [[1.0], [2.0, 3.0]]])
def test_measure_rejects_values_that_are_not_reals(values):
    with pytest.raises(GraphInputError, match="measure values must be real numbers"):
        VertexMeasure(values)


def test_measure_takes_bool_int_and_float_values():
    for values in ([True, 0, 2.5], [1, 0, 2 ** 70], np.array([1, 0, 3], np.uint8),
                   np.array([0.5, 0.0, 2.0], np.float32)):
        mu = VertexMeasure(values)
        assert mu.values.dtype == np.float64
        assert mu.values.tolist() == [float(x) for x in values]


@pytest.mark.parametrize("n", [2.9, 3.0, "3", None, -1])
def test_graph_vertex_count_must_be_an_integer(n):
    with pytest.raises(GraphInputError, match="vertex_count must be a non-negative integer"):
        Graph(n, [(0, 1)])
    with pytest.raises(GraphInputError, match="vertex_count must be a non-negative integer"):
        Graph.from_columns(n, [0], [1], [1.0])


def test_graph_vertex_count_takes_numpy_integers():
    assert Graph(np.int64(3), [(0, 2)]).vertex_count == 3
    assert type(Graph.from_columns(np.uint8(3), [0], [2], [1.0]).vertex_count) is int


@pytest.mark.parametrize("u, v", [(1.5, 0), (0.0, 1), (0, 1.0), ("0", 1), (np.float64(0), 1)])
def test_edge_lookups_reject_non_integer_ids(u, v):
    g = Graph(3, [(0, 1, 2.0)])
    with pytest.raises(GraphInputError, match="vertex ids must be integers"):
        g.edge_id(u, v)
    with pytest.raises(GraphInputError, match="vertex ids must be integers"):
        g.edge_weight(u, v)


def test_edge_lookups_take_numpy_and_out_of_range_ids():
    g = Graph(3, [(0, 1, 2.0)])
    assert g.edge_id(np.int64(1), np.uint8(0)) == 0
    assert g.edge_weight(np.int32(0), 1) == 2.0
    assert g.edge_id(-1, 0) is None and g.edge_weight(0, 3) is None
    for far in (2**70, np.uint64(2**64 - 1), -1, np.int64(-2**63), 3):
        for u, v in ((far, 1), (1, far), (far, far), (far, 0)):
            assert g.edge_id(u, v) is None and g.edge_weight(u, v) is None


def test_edge_lookups_return_python_numbers():
    g = Graph(5, [(2, 3, 0.5), (0, 1, 2.0), (3, 1, 1.5), (0, 2, 1.0), (0, 4, 0.25)])
    found = set()
    for idx, (u, v, w) in enumerate(g.edges):
        for a, b in ((u, v), (v, u), (np.uint64(u), np.int8(v))):
            got_id, got_w = g.edge_id(a, b), g.edge_weight(a, b)
            assert type(got_id) is int and got_id == idx
            assert type(got_w) is float and got_w == w
        found.add((u, v))
    for u, v in itertools.product(range(5), repeat=2):
        if (min(u, v), max(u, v)) not in found:
            assert g.edge_id(u, v) is None and g.edge_weight(u, v) is None


@pytest.mark.parametrize("build, message", [
    (lambda: Graph(3, [5]), "edge 5 is neither (u, v) nor (u, v, w)"),
    (lambda: Graph(3, [(0, 1), None]), "edge None is neither (u, v) nor (u, v, w)"),
    (lambda: Graph.from_columns(3, 5, [1], [1.0]), "edge columns must be flat"),
    (lambda: Graph.from_columns(3, [0], [1], 2.0), "edge columns must be flat"),
], ids=["int-edge", "none-edge", "int-id-column", "float-weight-column"])
def test_edges_without_a_length_raise_graph_input_error(build, message):
    with pytest.raises(GraphInputError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("edges, message", [
    ([{0: 1, 1: 2}], "edge {0: 1, 1: 2} is neither (u, v) nor (u, v, w)"),
    ([(0, 1), {0, 2}], "edge {0, 2} is neither (u, v) nor (u, v, w)"),
    (5, "edges must be an iterable of rows, not 5"),
], ids=["dict-row", "set-row", "int-edges"])
def test_graph_rejects_unordered_rows_and_edges_that_are_not_iterable(edges, message):
    # a dict or set row used to become the edge of its keys in iteration
    # order, and an int raised a bare TypeError
    with pytest.raises(GraphInputError, match=re.escape(message)):
        Graph(3, edges)


def dict_merge(pairs):
    """Pairs merged by a plain dict in the order given, keyed by (min, max)."""
    merged = {}
    for u, v, w in pairs:
        key = (min(int(u), int(v)), max(int(u), int(v)))
        merged[key] = merged.get(key, 0.0) + float(w)
    return [(u, v, merged[u, v].hex()) for u, v in sorted(merged)]


def loop_sums(n, us, vs, ws):
    """Per-vertex weight sums by a plain loop over the pairs."""
    sums = [0.0] * n
    for u, v, w in zip(us, vs, ws):
        sums[u] += w
        sums[v] += w
    return [x.hex() for x in sums]


def test_merge_pairs_and_vertex_sums_match_plain_loops():
    rng = np.random.default_rng(19)
    seen = set()
    for _ in range(300):
        n = int(rng.integers(1, 12))
        count = int(rng.integers(0, 5 * n)) if rng.random() < 0.9 else 0
        us = rng.integers(0, n, size=count)
        vs = rng.integers(0, n, size=count)
        ws = rng.choice([1.0, 1e-16, 0.1, 0.2, 0.3, 3.0, float(rng.uniform(0.01, 5.0))],
                        size=count)
        kind = int(rng.integers(0, 3))
        if kind == 0:
            cols = us.tolist(), vs.tolist(), ws.tolist()
        else:
            dtype = np.int32 if kind == 1 else np.uint8
            cols = us.astype(dtype), vs.astype(dtype), ws
            seen.add(dtype.__name__)
        got = merge_pairs(n, *cols)
        assert [(u, v, w.hex()) for u, v, w in zip(*(c.tolist() for c in got))] == \
            dict_merge(zip(*cols))
        assert got[0].dtype == got[1].dtype == np.intp and got[2].dtype == np.float64
        assert [x.hex() for x in vertex_sums(n, *got).tolist()] == loop_sums(n, *(
            c.tolist() for c in got))
        raw = us.astype(np.intp), vs.astype(np.intp), ws  # unmerged, in input order
        assert [x.hex() for x in vertex_sums(n, *raw).tolist()] == loop_sums(n, *(
            c.tolist() for c in raw))
        keys = list(zip(us.tolist(), vs.tolist()))
        if not keys:
            seen.add("empty")
        if len({(min(k), max(k)) for k in keys}) < len(keys):
            seen.add("repeated pair")
        if any(u > v for u, v in keys) and any(u < v for u, v in keys):
            seen.add("both orientations")
        if any(u == v for u, v in keys):
            seen.add("self-pair")
    assert seen == {"int32", "uint8", "empty", "repeated pair", "both orientations",
                    "self-pair"}


@pytest.mark.parametrize("columns", [([0, 1], [1], [1.0, 1.0]), ([[0]], [[1]], [[1.0]]),
                                     ([0], [3], [1.0]), ([-1], [1], [1.0]), ([0.0], [1], [1.0]),
                                     ([0], [1], [0.0]), ([0], [1], [np.nan]),
                                     ([0], [1], [np.inf]), ([2 ** 64 - 1], [0], [1.0]),
                                     (np.array([0, 2 ** 64 - 1, 1], np.uint64),
                                      np.array([2, 1, 2 ** 64 - 1], np.uint64), [1.0] * 3),
                                     (np.array([0, 1]), np.array([2, 2 ** 64 - 1], np.uint64),
                                      [1.0, 1.0])])
def test_merge_pairs_rejects_bad_columns(columns):
    with pytest.raises(ValueError, match="pair columns must be flat|pair ids must be in"):
        merge_pairs(3, *columns)


@pytest.mark.parametrize("columns, message", [
    (([0, 1], [1, 3], [1.0, 1.0]), "edge (1,3) out of range for n=3"),
    (([0, 1], [1, 1], [1.0, 1.0]), "self-loop at vertex 1 rejected"),
    (([0], [1], [np.inf]), "edge (0,1) has weight inf; weights must be positive and finite"),
    ((np.array([0.0]), np.array([1.0]), [1.0]), "needs integer ids and a real weight"),
    (([0, 1], [1], [1.0, 1.0]), "edge columns must be flat, of one length, with integer ids"),
    # a uint64 id of 2**63 or more must not wrap to a negative id that
    # lands the last two pairs on the key of (0, 2)
    ((np.array([0, 2 ** 64 - 1, 1], np.uint64), np.array([2, 1, 2 ** 64 - 1], np.uint64),
      [1.0] * 3), "edge (18446744073709551615,1) out of range for n=3"),
    ((np.array([0, 1]), np.array([2, 2 ** 64 - 1], np.uint64), [1.0, 1.0]),
     "edge (1,18446744073709551615) out of range for n=3"),
    # numpy makes a list that mixes np.uint64 and signed ids float64
    (([np.uint64(0), np.int64(1)], [1, 2], [1.0, 1.0]),
     "edge columns must be flat, of one length, with integer ids"),
])
def test_from_columns_rejects_bad_columns(columns, message):
    with pytest.raises(GraphInputError, match=re.escape(message)):
        Graph.from_columns(3, *columns)


def test_from_columns_takes_numpy_and_python_columns():
    want = Graph(4, [(2, 0, 1.5), (3, 1), (0, 2, 0.25)])
    for cols in (([2, 3, 0], [0, 1, 2], [1.5, 1.0, 0.25]),
                 (np.array([2, 3, 0], np.int32), np.array([0, 1, 2], np.uint8),
                  np.array([1.5, 1.0, 0.25]))):
        g = Graph.from_columns(4, *cols)
        assert g.edges == want.edges
        assert g.us.dtype == g.vs.dtype == np.intp
    assert Graph.from_columns(3, [], [], []).edges == ()
