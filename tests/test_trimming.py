import numpy as np
import pytest

from mucut import Graph, VertexMeasure, cut_weight, induced_subgraph, trim, trimming
from mucut.flow import max_flow
from mucut.verify import brute_force_expansion, brute_force_near_expansion
from mucut.graph import Infinite, tolerance

from helpers import (clique_edges, random_connected_graph, random_measure,
                     reference_trim_network)


def test_whole_vertex_set_is_identity():
    g = Graph(4, clique_edges(range(4)))
    mu = VertexMeasure([1.0] * 4)
    assert trim(g, mu, range(4), phi=0.5) == frozenset(range(4))


def test_zero_boundary_subset_is_identity():
    # two components; trimming the isolated triangle has nothing to push in
    edges = clique_edges(range(3)) + clique_edges(range(3, 6))
    g = Graph(6, edges)
    mu = VertexMeasure([1.0] * 6)
    assert trim(g, mu, {0, 1, 2}, phi=0.5) == frozenset({0, 1, 2})


def test_precondition_arithmetic_rejection():
    # dense block inside a 17-vertex graph with one boundary edge and
    # uniform unit measure: 1 > 0.1 * 8 / 9, so the input is rejected
    edges = clique_edges(range(8)) + [(0, 8, 1.0)]
    edges += [(i, i + 1, 1.0) for i in range(8, 16)]
    g = Graph(17, edges)
    mu = VertexMeasure([1.0] * 17)
    with pytest.raises(ValueError, match="phi"):
        trim(g, mu, range(8), phi=0.1)


def test_strong_core_survives_whole():
    # heavy measure inside, one light boundary edge: nothing gets trimmed
    edges = clique_edges(range(8)) + [(0, 8, 1.0)]
    g = Graph(9, edges)
    mu = VertexMeasure([10.0] * 8 + [0.5])
    core = trim(g, mu, range(8), phi=0.2)
    assert core == frozenset(range(8))


def test_weak_appendage_is_trimmed():
    # two boundary edges feed the appendage tip but only one path edge
    # carries flow onward: the tip cannot absorb its share and is cut away
    edges = clique_edges(range(6))
    edges += [(5, 6, 1.0), (6, 7, 1.0), (7, 8, 1.0)]  # path 5-6-7-8
    edges += [(8, 9, 1.0), (8, 10, 1.0)]  # boundary edges into the tip
    g = Graph(11, edges)
    mu = VertexMeasure([4.0] * 6 + [0.05, 0.05, 0.05, 1.0, 1.0])
    a = set(range(9))
    phi = 0.8
    boundary = cut_weight(g, a)
    assert boundary == 2.0
    assert boundary <= phi * mu.of(a) / 9.0
    trimmed = trim(g, mu, a, phi)
    assert set(range(6)) <= trimmed
    assert 8 not in trimmed
    assert cut_weight(g, trimmed) <= 2.0 * boundary + 1e-9


def random_trim_instance(rng):
    """Dense core + a few outside vertices, scaled to satisfy the
    precondition with phi derived from the boundary."""
    k = int(rng.integers(6, 17))
    extra = int(rng.integers(1, 4))
    n = k + extra
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < 0.8:
                edges.append((i, j, 1.0))
    edges.extend((i, i + 1, 1.0) for i in range(k, n - 1) if True)
    boundary_edges = int(rng.integers(1, 3))
    for b in range(boundary_edges):
        edges.append((int(rng.integers(0, k)), int(rng.integers(k, n)), 0.5))
    g = Graph(n, edges)
    vals = np.concatenate([rng.uniform(0.8, 1.5, size=k), rng.uniform(0.05, 0.2, size=extra)])
    mu = VertexMeasure(vals)
    a = tuple(range(k))
    boundary = cut_weight(g, a)
    phi = 9.0 * boundary / mu.of(a) * 1.0001
    return g, mu, a, phi, boundary


@pytest.mark.parametrize("seed", range(5))
def test_random_instances_meet_the_trim_bounds(seed):
    rng = np.random.default_rng(900 + seed)
    done = 0
    while done < 20:
        g, mu, a, phi, boundary = random_trim_instance(rng)
        near = brute_force_near_expansion(g, mu, a)
        if isinstance(near, Infinite) or near < phi:
            continue  # not a near-expander at this level; regenerate
        trimmed = trim(g, mu, a, phi)
        done += 1
        assert trimmed
        assert trimmed <= frozenset(a)
        assert mu.of(trimmed) >= mu.of(a) - 4.0 * boundary / phi - 1e-9
        assert cut_weight(g, trimmed) <= 2.0 * boundary + 1e-9
        sub, order = induced_subgraph(g, trimmed)
        if len(order) >= 2:
            value, _ = brute_force_expansion(sub, mu.restrict(order))
            assert value >= phi / 6.0 - 1e-12


def test_rejects_bad_inputs():
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    mu = VertexMeasure([1.0] * 3)
    with pytest.raises(ValueError):
        trim(g, mu, [], phi=0.5)
    with pytest.raises(ValueError):
        trim(g, mu, [5], phi=0.5)
    with pytest.raises(ValueError):
        trim(g, mu, [0, 1], phi=-1.0)


@pytest.mark.parametrize("phi", [float("nan"), float("inf")])
@pytest.mark.parametrize("a", [[0, 1], [0, 1, 2]], ids=["boundary", "no boundary"])
def test_rejects_non_finite_phi(phi, a):
    # with boundary edges a NaN phi once reached the flow network and was
    # reported as a bad capacity factor; without them the set came back as is
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    mu = VertexMeasure([1.0] * 3)
    with pytest.raises(ValueError, match="phi must be positive and finite"):
        trim(g, mu, a, phi)


def arcs_at_each_vertex(net):
    """Each vertex's (head, capacity bits) arcs, twins included, in sorted order."""
    return [sorted((net.to[i], net.cap[i].hex()) for i in arcs) for arcs in net.adj]


def random_trim_input(rng):
    """A weighted graph, a measure with zeros, a proper subset A with positive
    measure (often all but one vertex) and a phi that meets the precondition."""
    while True:
        n = int(rng.integers(6, 16))
        g = random_connected_graph(rng, n, extra=float(rng.uniform(0.5, 3.0)), weighted=True)
        mu = random_measure(rng, n, zero_frac=0.25)
        if rng.random() < 0.3:
            a = frozenset(range(n)) - {int(rng.integers(n))}
        else:
            a = frozenset(int(v) for v in np.flatnonzero(rng.random(n) < 0.7))
        if a and len(a) < n and mu.of(a) > 0.0:
            phi = 9.0 * cut_weight(g, a) / mu.of(a) * float(rng.uniform(1.0, 4.0))
            return g, mu, a, phi


def test_trim_network_matches_arc_by_arc_reference(monkeypatch):
    solved = []

    def spy(net):
        solved.append((net, max_flow(net)))
        return solved[-1][1]

    monkeypatch.setattr(trimming, "max_flow", spy)
    rng = np.random.default_rng(5100)
    seen = set()
    for _ in range(80):
        g, mu, a, phi = random_trim_input(rng)
        kept = trim(g, mu, a, phi)
        net, sol = solved.pop()
        ref = reference_trim_network(g, mu, a, phi)
        want = max_flow(ref)
        assert (net.node_count, net.source, net.sink) == (ref.node_count, ref.source, ref.sink)
        assert arcs_at_each_vertex(net) == arcs_at_each_vertex(ref)
        assert sol.min_cut_side == want.min_cut_side
        assert abs(sol.value - want.value) <= tolerance(want.value)
        assert kept == a - want.min_cut_side
        inside_ends = [u if u in a else v for u, v, _ in g.edges if (u in a) != (v in a)]
        if len(set(inside_ends)) < len(inside_ends):
            seen.add("boundary edges into one vertex")
        if any(mu.values[v] == 0.0 for v in a):
            seen.add("zero-measure vertex in A")
        if len(a) == g.vertex_count - 1:
            seen.add("all but one vertex")
        seen.add("trimmed" if kept < a else "kept whole")
    assert seen == {"boundary edges into one vertex", "zero-measure vertex in A",
                    "all but one vertex", "trimmed", "kept whole"}
