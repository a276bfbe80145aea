import numpy as np
import pytest

from mucut import Graph, VertexMeasure, induced_subgraph
from mucut.cutplayer import WeightedBipartition, rst_partition
from mucut.flow import _strip_paths as strip_paths, decompose_paths, edge_network, max_flow
from mucut.matching import build_pi_problem, solve_matching_round
from mucut.spectral import ActiveState
from mucut.verify import check_embedding_congestion

from helpers import (arcs_of, clique_edges, matching_row_sums, orthogonalized_projection,
                     paths_hex, random_connected_graph, random_measure,
                     reference_build_pi_problem, reference_decompose_paths, reference_max_flow)


def manual_bip(sources, targets, eta=0.0, case_two=False):
    return WeightedBipartition(sources=tuple(sources), targets=tuple(targets),
                               eta=eta, case_two=case_two, flipped=False,
                               partial_vertex=None)


def solve_round(g, state, bip, c, round_index=0):
    """One round on the edge network the game would build for this active set."""
    return solve_matching_round(g, state, edge_network(g, state.active, c), bip, c, round_index)


def pi_problem(g, state, bip, c):
    return build_pi_problem(edge_network(g, state.active, c), state, bip)


def test_build_pi_arc_arithmetic():
    g = Graph(4, clique_edges(range(4)))
    mu = VertexMeasure([1.0] * 4)
    bip = manual_bip([(0, 0.5)], [(1, 1.0), (2, 1.0), (3, 1.0)])
    net = pi_problem(g, ActiveState(range(4), mu), bip, c=1.0)
    capacity_arcs = [a for a in arcs_of(net) if a[2] > 0]
    assert len(capacity_arcs) == 1 + 3 + 2 * 6
    source_caps = [c for (u, v, c) in arcs_of(net) if u == net.source]
    assert sum(source_caps) == pytest.approx(bip.source_mass)


def test_build_pi_respects_mass_preconditions():
    g = Graph(4, clique_edges(range(4)))
    mu = VertexMeasure([1.0] * 4)
    light_targets = manual_bip([(0, 0.5)], [(1, 1.0)])
    with pytest.raises(ValueError):
        pi_problem(g, ActiveState(range(4), mu), light_targets, c=1.0)
    heavy_sources = manual_bip([(0, 1.0)], [(1, 1.0), (2, 1.0), (3, 1.0)])
    with pytest.raises(ValueError):
        pi_problem(g, ActiveState(range(4), mu), heavy_sources, c=1.0)


def test_build_pi_rejects_bad_capacity_factor():
    g = Graph(4, clique_edges(range(4)))
    for c in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="capacity factor"):
            edge_network(g, range(4), c)


def test_empty_sources_round_is_trivially_feasible(monkeypatch):
    # no source arcs: the one round path runs a zero flow and keeps the diagonal
    calls = []

    def counted(net):
        calls.append(net)
        return max_flow(net)

    monkeypatch.setattr("mucut.matching.max_flow", counted)
    g = Graph(4, clique_edges(range(4)))
    mu = VertexMeasure([1.0] * 4)
    bip = manual_bip([], [(v, 1.0) for v in range(4)])
    res = solve_round(g, ActiveState(range(4), mu), bip, c=2.0)
    assert len(calls) == 1
    assert res.feasible
    assert res.removed == frozenset()
    assert res.paths == ()
    assert res.matched_weight == 0.0 and type(res.matched_weight) is float
    assert res.cut_expansion is None
    assert res.matching.diagonal.tobytes() == mu.values.tobytes()
    assert res.matching.off_diagonal == ()


def test_expander_round_fully_matches():
    g = Graph(8, clique_edges(range(8)))
    mu = VertexMeasure([1.0] * 8)
    bip = manual_bip([(0, 0.5), (1, 0.5)], [(v, 1.0) for v in range(2, 8)])
    res = solve_round(g, ActiveState(range(8), mu), bip, c=8.0)
    assert res.feasible and not res.removed
    assert res.matched_weight == pytest.approx(1.0)
    sent = {}
    for a, b, w, _ in res.paths:
        sent[a] = sent.get(a, 0.0) + w
    assert sent[0] == pytest.approx(0.5)
    assert sent[1] == pytest.approx(0.5)


def test_disconnected_sources_yield_zero_expansion_cut():
    # sources live in a component with no targets: the flow is infeasible
    # and the min cut is the empty-boundary component
    edges = clique_edges(range(3)) + clique_edges(range(3, 6))
    g = Graph(6, edges)
    mu = VertexMeasure([1.0] * 6)
    bip = manual_bip([(0, 0.4)], [(v, 1.0) for v in (3, 4, 5)])
    res = solve_round(g, ActiveState(range(6), mu), bip, c=1.0)
    assert not res.feasible
    assert res.removed
    assert res.cut_expansion == 0.0
    assert res.cut_expansion <= 7.0 / 1.0


def test_removed_source_path_to_a_surviving_target_is_dropped(monkeypatch):
    # sources 0 and 1 hang off target 2 by one 0.25 edge, so the min cut
    # removes them, and the flow they send ends at 2 across the saturated
    # cut; source 10 routes in full inside the survivors' clique
    g = Graph(16, [(0, 1, 10.0), (1, 2, 0.25)] + clique_edges(range(2, 16)))
    mu = VertexMeasure([1.0] * 16)
    bip = manual_bip([(0, 0.75), (1, 0.75), (10, 0.5)], [(v, 1.0) for v in range(2, 10)])
    full = []

    def spied(net, sol):
        full[:] = decompose_paths(net, sol)
        return tuple(full)

    monkeypatch.setattr("mucut.matching.decompose_paths", spied)
    res = solve_round(g, ActiveState(range(16), mu), bip, c=1.0)
    assert res.removed == {0, 1}
    crossing = [(seq[1], seq[-2], w) for _, _, w, seq in full if seq[1] in res.removed]
    assert crossing and all(b not in res.removed and 2 <= b < 10 for _, b, _ in crossing)
    assert sum(w for _, _, w in crossing) == pytest.approx(0.25)
    assert res.paths and all(a == 10 for a, _, _, _ in res.paths)
    assert all(not {u, v} & res.removed for u, v, _ in res.matching.off_diagonal)
    assert res.matched_weight == pytest.approx(0.5)


def test_self_pairs_fold_into_the_diagonal():
    # a vertex that is both source and target may route to itself in place
    g = Graph(2, [(0, 1, 1.0)])
    mu = VertexMeasure([1.0, 1.0])
    bip = manual_bip([(0, 0.25)], [(0, 0.5), (1, 1.0)])
    res = solve_round(g, ActiveState(range(2), mu), bip, c=2.0)
    assert res.feasible
    assert np.allclose(matching_row_sums(res.matching), mu.values, atol=1e-9)


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_tiny_partial_source_is_routed_beside_heavy_edges(scale):
    # edge capacities c*w are 1e4 times the source mass, and source 1 is a
    # partial pick of 8e-9 of that mass: above the round's feasibility
    # rounding, so the flow must route it
    g = Graph(8, [(u, v, scale * w) for u, v, w in clique_edges(range(8))])
    mu = VertexMeasure([scale] * 8)
    bip = manual_bip([(0, 0.5 * scale), (1, 4e-9 * scale)],
                     [(v, scale) for v in range(4, 8)])
    res = solve_round(g, ActiveState(range(8), mu), bip, c=1e4 * bip.source_mass / scale)
    assert res.feasible and not res.removed
    sent = {}
    for a, _, w, _ in res.paths:
        sent[a] = sent.get(a, 0.0) + w
    assert sent[1] == pytest.approx(4e-9 * scale)
    assert res.matched_weight == pytest.approx(bip.source_mass)


@pytest.mark.parametrize("seed", range(6))
def test_random_round_contract(seed):
    rng = np.random.default_rng(300 + seed)
    for _ in range(12):
        n = int(rng.integers(4, 13))
        g = random_connected_graph(rng, n, extra=float(rng.uniform(0.5, 3.0)))
        mu = random_measure(rng, n, zero_frac=0.2)
        state = ActiveState(range(n), mu)
        u = orthogonalized_projection(rng, mu)
        bip = rst_partition(state, u)
        if not bip.sources:
            continue
        c = float(rng.integers(1, 5))
        res = solve_round(g, state, bip, c)

        # feasibility dichotomy
        assert res.feasible == (len(res.removed) == 0)

        # stochastic completion: row sums equal the measure
        assert np.abs(matching_row_sums(res.matching) - mu.values).max() < 1e-9

        # off-diagonal support within surviving sources x targets
        sources = {v for v, _ in bip.sources} - res.removed
        targets = {v for v, _ in bip.targets} - res.removed
        for a, b, w in res.matching.off_diagonal:
            assert (a in sources and b in targets) or (b in sources and a in targets)

        # per-source totals are exact for survivors
        sent = {}
        for a, b, w, _ in res.paths:
            sent[a] = sent.get(a, 0.0) + w
        for v, m in bip.sources:
            if v not in res.removed:
                assert sent.get(v, 0.0) == pytest.approx(m, abs=1e-9)

        # removed side: expansion and survivor-measure bounds
        if res.removed:
            assert res.cut_expansion <= 7.0 / c + 1e-9
            rest = [v for v in range(n) if v not in res.removed]
            assert mu.of(rest) >= mu.total / 3.0 - 1e-9

        # per-round embedding congestion at most c
        congestion = check_embedding_congestion(g, res.paths)
        assert congestion <= c * (1 + 1e-9)


def round_on_induced_subgraph(g, state, bip, c, round_index):
    """The round solved on G[A] with local ids, mapped back to g's ids."""
    sub, order = induced_subgraph(g, state.active)
    local = {v: i for i, v in enumerate(order)}
    sub_mu = VertexMeasure(state.measure.values[list(order)])
    sub_bip = manual_bip([(local[v], w) for v, w in bip.sources],
                         [(local[v], w) for v, w in bip.targets])
    res = solve_round(sub, ActiveState(range(len(order)), sub_mu), sub_bip, c, round_index)
    diagonal = state.measure.values.copy()
    diagonal[list(order)] = res.matching.diagonal
    return {
        "removed": frozenset(order[v] for v in res.removed),
        "paths": tuple((order[a], order[b], w, tuple(order[x] for x in seq))
                       for a, b, w, seq in res.paths),
        "matched_weight": res.matched_weight,
        "off_diagonal": tuple((order[a], order[b], w) for a, b, w in res.matching.off_diagonal),
        "diagonal": diagonal,
        "cut_expansion": res.cut_expansion,
        "feasible": res.feasible,
    }


def test_active_subset_round_equals_induced_subgraph_round():
    # the round on a strict active subset of g, whose vertices have edges to
    # inactive ones, is bit-for-bit the round on G[A] with ids mapped back
    rng = np.random.default_rng(900)
    outcomes = []
    for _ in range(30):
        n = int(rng.integers(8, 16))
        g = random_connected_graph(rng, n, extra=float(rng.uniform(0.5, 3.0)), weighted=True)
        mu = random_measure(rng, n, zero_frac=0.2)
        active = frozenset(int(v) for v in np.flatnonzero(rng.random(n) < 0.7))
        state = ActiveState(active, mu)
        if len(active) == n or np.count_nonzero(state.mask) < 2:
            continue
        assert any((u in active) != (v in active) for u, v, _ in g.edges)
        u = orthogonalized_projection(rng, VertexMeasure(np.where(state.mask, mu.values, 0.0)))
        bip = rst_partition(state, u)
        if not bip.sources:
            continue
        c = float(rng.integers(1, 5))
        res = solve_round(g, state, bip, c, round_index=3)
        assert res.index == 3 and res.active_before == tuple(sorted(active))
        want = round_on_induced_subgraph(g, state, bip, c, 3)
        assert res.removed == want["removed"]
        assert res.paths == want["paths"]
        assert res.matched_weight == want["matched_weight"]
        assert res.matching.off_diagonal == want["off_diagonal"]
        assert np.array_equal(res.matching.diagonal, want["diagonal"])
        assert res.cut_expansion == want["cut_expansion"]
        assert res.feasible == want["feasible"]
        assert res.removed <= active
        outcomes.append(res.feasible)
    # both a fully routed round and one that removes a cut were compared
    assert set(outcomes) == {True, False}


def arcs_by_adjacency(net, values):
    """Per vertex, (head, capacity, twin's head, value) of its arcs in adjacency
    order, floats as hex: what the solver sees, whatever the arc ids."""
    return [[(net.to[a], net.cap[a].hex(), net.to[a ^ 1], values[a].hex()) for a in arcs]
            for arcs in net.adj]


def assert_network_matches_reference(net, ref):
    """Same arcs in every adjacency, and the same value, cut and paths, bit for bit."""
    assert (net.node_count, net.source, net.sink, net.arc_count) == \
        (ref.node_count, ref.source, ref.sink, ref.arc_count)
    assert arcs_by_adjacency(net, net.cap) == arcs_by_adjacency(ref, ref.cap)
    sol, want = max_flow(net), max_flow(ref)
    assert sol.value.hex() == want.value.hex()
    assert sol.min_cut_side == want.min_cut_side
    assert paths_hex(decompose_paths(net, sol)) == paths_hex(decompose_paths(ref, want))
    # and the stripping, forced on the reference solver's flows, strips alike
    flow, ref_flow = reference_max_flow(net), reference_max_flow(ref)
    assert arcs_by_adjacency(net, flow.arc_flows) == arcs_by_adjacency(ref, ref_flow.arc_flows)
    got = strip_paths(net, list(flow.arc_flows), net.zero)
    assert paths_hex(got) == paths_hex(reference_decompose_paths(ref, ref_flow))
    return sol


def random_round_inputs(rng):
    """A weighted graph, a measure, an active set (often strict) and its state."""
    n = int(rng.integers(6, 16))
    g = random_connected_graph(rng, n, extra=float(rng.uniform(0.5, 3.0)), weighted=True)
    mu = random_measure(rng, n, zero_frac=0.2)
    keep = 0.7 if rng.random() < 0.7 else 1.1
    active = frozenset(int(v) for v in np.flatnonzero(rng.random(n) < keep))
    return g, mu, ActiveState(active, mu)


def random_bip(rng, state):
    mu = state.measure
    u = orthogonalized_projection(rng, VertexMeasure(np.where(state.mask, mu.values, 0.0)))
    return rst_partition(state, u)


def with_parallel_terminals(bip):
    """The first source split into two parallel arcs, the first target listed
    twice, and the first source also a target."""
    (v, m), rest = bip.sources[0], bip.sources[1:]
    return manual_bip(((v, m / 2), (v, m / 2)) + rest,
                      bip.targets + (bip.targets[0], (v, 2.0 * m)))


def test_round_network_matches_arc_by_arc_reference():
    rng = np.random.default_rng(4100)
    seen = set()
    for _ in range(60):
        g, mu, state = random_round_inputs(rng)
        if np.count_nonzero(state.mask) < 2:
            continue
        bip = random_bip(rng, state)
        if not bip.sources:
            continue
        c = float(rng.choice([1.0, 2.5, 7.0]))
        edges = edge_network(g, state.active, c)
        for b in (bip, with_parallel_terminals(bip)):
            sol = assert_network_matches_reference(
                build_pi_problem(edges, state, b), reference_build_pi_problem(g, state, b, c))
            seen.add("routed" if sol.value >= b.source_mass - 1e-9 * b.source_mass else "cut")
        if len(state.active) < g.vertex_count:
            seen.add("strict subset")
        if bip.partial_vertex is not None:
            seen.add("partial source")
    assert seen == {"routed", "cut", "strict subset", "partial source"}


def test_one_edge_network_serves_successive_rounds():
    # the game reuses one edge network until a cut shrinks the active set:
    # each round's network and record must not depend on the rounds before it
    rng = np.random.default_rng(4200)
    served = 0
    for _ in range(30):
        g, mu, state = random_round_inputs(rng)
        if np.count_nonzero(state.mask) < 2:
            continue
        bips = [random_bip(rng, state) for _ in range(2)]
        if not all(b.sources for b in bips) or bips[0] == bips[1]:
            continue
        c = float(rng.integers(1, 5))
        edges = edge_network(g, state.active, c)
        before = (list(edges.to), list(edges.cap), [list(arcs) for arcs in edges.adj])
        for index, b in enumerate(bips):
            assert_network_matches_reference(build_pi_problem(edges, state, b),
                                             reference_build_pi_problem(g, state, b, c))
            rec = solve_matching_round(g, state, edges, b, c, index)
            fresh = solve_round(g, state, b, c, index)
            assert (rec.removed, rec.paths, rec.matched_weight, rec.cut_expansion) == \
                (fresh.removed, fresh.paths, fresh.matched_weight, fresh.cut_expansion)
            assert rec.matching.off_diagonal == fresh.matching.off_diagonal
            assert np.array_equal(rec.matching.diagonal, fresh.matching.diagonal)
        assert (edges.to, edges.cap, edges.adj) == before
        served += 1
    assert served >= 10


LIGHT_TAIL = [1.0] + [1e-16] * 10  # 1.0 added ten times 1e-16, one at a time, is 1.0


def test_masses_add_one_at_a_time_in_order():
    # a compensated sum (builtin sum from Python 3.12) would give 1.000000000000001
    bip = manual_bip(list(enumerate(LIGHT_TAIL)), [(11 + i, w) for i, w in enumerate(LIGHT_TAIL)])
    assert bip.source_mass.hex() == bip.target_mass.hex() == (1.0).hex()


def test_matched_weight_adds_paths_one_at_a_time_in_order(monkeypatch):
    # a real flow rounds paths this light away, so the stripper hands over
    # one path per source at exactly its mass
    k = len(LIGHT_TAIL)
    g = Graph(2 * k, [(i, k + i, 1.0) for i in range(k)])
    mu = VertexMeasure([1.0] * (2 * k))
    n = g.vertex_count
    paths = tuple((n, n + 1, w, (n, i, k + i, n + 1)) for i, w in enumerate(LIGHT_TAIL))
    monkeypatch.setattr("mucut.matching.decompose_paths", lambda net, sol: paths)
    bip = manual_bip(list(enumerate(LIGHT_TAIL)), [(k + i, 1.0) for i in range(k)])
    rec = solve_round(g, ActiveState(range(2 * k), mu), bip, c=10.0)
    assert not rec.removed
    assert rec.matched_weight.hex() == (1.0).hex()
