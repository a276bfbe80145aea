import dataclasses

import numpy as np
import pytest

import mucut.flow
import mucut.matching
from mucut import Graph, VertexMeasure, run_cut_matching
from mucut.flow import (FlowNetwork, _strip_paths as strip_paths, decompose_paths, edge_network,
                        max_flow)
from mucut.graph import ordered_sum

from helpers import (arcs_of, assert_fair, conservation_errors, enumerate_min_cut, network,
                     path_flows, paths_hex, pooled_caps, random_connected_graph,
                     reference_decompose_paths, reference_edge_network, reference_max_flow,
                     reference_network, reference_with_arcs_first)


@pytest.fixture
def strips(monkeypatch):
    """Every (per-arc flow, zero) that max_flow strips into paths, as the
    stripping receives them."""
    seen = []

    def spy(net, flow, zero):
        seen.append((list(flow), zero))
        return strip_paths(net, flow, zero)

    monkeypatch.setattr(mucut.flow, "_strip_paths", spy)
    return seen


def solve(net, strips):
    """max_flow's solution, and the (per-arc flow, zero) it stripped, or
    None if no push cancelled flow."""
    before = len(strips)
    sol = max_flow(net)
    assert len(strips) - before <= 1
    return sol, strips[before] if len(strips) > before else None


def undirected(u, v, c):
    """An undirected edge's row: the arc and its twin both at c."""
    return (u, v, c, c)


def random_network(rng, directed_bias=0.5):
    """Random small network with integer capacities in 1..5."""
    n = int(rng.integers(4, 11))
    s, t = 0, n - 1
    directed = rng.random() < directed_bias
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.45:
                c = float(rng.integers(1, 6))
                if directed:
                    if rng.random() < 0.5:
                        arcs.append((u, v, c, 0.0))
                    else:
                        arcs.append((v, u, c, 0.0))
                else:
                    arcs.append(undirected(u, v, c))
    if not arcs:
        arcs.append((s, t, float(rng.integers(1, 6)), 0.0))
    return network(n, s, t, arcs)


def fractional_arcs(rng):
    """Random small network as (n, arcs of (u, v, capacity, undirected)),
    capacities uniform in [0.1, 5)."""
    n = int(rng.integers(4, 11))
    arcs = [(u, v, float(rng.uniform(0.1, 5.0)), bool(rng.random() < 0.5))
            for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
    return n, arcs or [(0, n - 1, 1.0, False)]


def scaled_network(n, arcs, scale):
    return network(n, 0, n - 1, [(u, v, scale * c, scale * c if both_ways else 0.0)
                                 for u, v, c, both_ways in arcs])


def test_single_arc():
    net = network(2, 0, 1, [(0, 1, 2.0, 0.0)])
    sol = max_flow(net)
    assert sol.value == 2.0
    assert sol.min_cut_side == {0}


def test_two_disjoint_paths():
    net = network(4, 0, 3, [(0, 1, 1.0, 0.0), (0, 2, 1.0, 0.0), (1, 3, 1.0, 0.0),
                            (2, 3, 1.0, 0.0)])
    assert max_flow(net).value == 2.0


def test_bottleneck_and_cut_side():
    net = network(4, 0, 3, [(0, 1, 5.0, 0.0), (1, 2, 1.5, 0.0), (2, 3, 5.0, 0.0)])
    sol = max_flow(net)
    assert sol.value == pytest.approx(1.5)
    assert sol.min_cut_side == {0, 1}
    assert_fair(net, sol)


def test_value_matches_enumeration_and_fairness():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        net = random_network(rng)
        sol = max_flow(net)
        assert sol.value == enumerate_min_cut(net)  # integral, so exact
        assert_fair(net, sol)
        assert conservation_errors(net, sol) < 1e-9
        assert net.source in sol.min_cut_side
        assert net.sink not in sol.min_cut_side


def test_flows_respect_capacities():
    rng = np.random.default_rng(77)
    for _ in range(40):
        net = random_network(rng)
        caps = pooled_caps(net)
        for step, f in path_flows(max_flow(net)).items():
            assert 0.0 < f <= caps.get(step, 0.0) + 1e-12


def test_value_invariant_under_arc_permutation():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(4, 9))
        arcs = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.3:
                    arcs.append((u, v, float(rng.integers(1, 6))))
        values = []
        for order in range(3):
            perm = rng.permutation(len(arcs))
            net = network(n, 0, n - 1, [(*arcs[int(k)], 0.0) for k in perm])
            values.append(max_flow(net).value)
        assert len(set(values)) == 1


def test_real_capacities():
    net = network(4, 0, 3, [(0, 1, 1.0 / 3.0, 0.0), (0, 2, 0.25, 0.0), (1, 3, 0.5, 0.0),
                            (2, 3, 0.5, 0.0)])
    sol = max_flow(net)
    assert sol.value == pytest.approx(1.0 / 3.0 + 0.25, abs=1e-12)
    assert_fair(net, sol)


def test_decompose_single_path():
    net = network(3, 0, 2, [(0, 1, 2.0, 0.0), (1, 2, 2.0, 0.0)])
    sol = max_flow(net)
    dec = decompose_paths(net, sol)
    assert len(dec) == 1
    u, v, w, seq = dec[0]
    assert (u, v, w, seq) == (0, 2, 2.0, (0, 1, 2))


def test_decompose_zero_flow():
    net = network(3, 0, 2, [(0, 1, 1.0, 0.0)])  # no arc reaches the sink
    sol = max_flow(net)
    assert sol.value == 0.0
    assert len(decompose_paths(net, sol)) == 0


def test_decompose_conserves_value_and_support():
    rng = np.random.default_rng(99)
    for _ in range(60):
        net = random_network(rng)
        sol = max_flow(net)
        dec = decompose_paths(net, sol)
        assert sum(p[2] for p in dec) == pytest.approx(sol.value, abs=1e-9)
        assert len(dec) <= net.arc_count
        # per-arc usage stays within the flow of the reference solver, which
        # pushes the same paths
        flows = reference_max_flow(net).arc_flows
        used = [0.0] * net.arc_count
        arc_of = {}
        for i, (u, v, _) in enumerate(arcs_of(net)):
            arc_of.setdefault((u, v), []).append(i)
        for _, _, w, seq in dec:
            for a, b in zip(seq, seq[1:]):
                hit = None
                for i in arc_of.get((a, b), []):
                    if flows[i] > 1e-12:
                        hit = i
                        break
                assert hit is not None, f"path step ({a},{b}) has no flow-bearing arc"
                used[hit] += w
        for i in range(net.arc_count):
            assert used[i] <= flows[i] + 1e-9


def test_decompose_cancels_cycles():
    # a flow with a gratuitous cycle: emitted paths must not include it
    net = network(5, 0, 4, [(0, 1, 1.0, 0.0), (1, 2, 1.0, 0.0), (2, 3, 1.0, 0.0),
                            (3, 1, 1.0, 0.0), (1, 4, 1.0, 0.0)])
    ref = reference_max_flow(net)
    # hand-build a flow that pushes the cycle 1->2->3->1 on top
    flows = list(ref.arc_flows)
    for i, (u, v, c) in enumerate(arcs_of(net)):
        if (u, v) in {(1, 2), (2, 3), (3, 1)}:
            flows[i] = 1.0
    doctored = dataclasses.replace(ref, arc_flows=tuple(flows))
    dec = strip_paths(net, flows, net.zero)
    assert paths_hex(dec) == paths_hex(reference_decompose_paths(net, doctored))
    assert sum(p[2] for p in dec) == pytest.approx(1.0)
    for _, _, _, seq in dec:
        assert len(set(seq)) == len(seq)  # simple paths only


def test_source_sink_validation():
    with pytest.raises(ValueError):
        network(3, 1, 1, [])
    with pytest.raises(ValueError):
        network(3, 0, 5, [])
    with pytest.raises(ValueError, match="integers, got float64"):
        network(3, 0, 2, [(0, 1.0, 1.0, 0.0)])
    with pytest.raises(ValueError, match="flat and of one length"):
        FlowNetwork(3, 0, 2, [0, 1], [1], [1.0], [0.0])
    # an infinite arc once made the flow zero everywhere (the cap and the
    # zero threshold became inf), and a NaN arc silently carried nothing
    for bad in (-1.0, float("inf"), float("nan")):
        for arc in ((0, 1, bad, 0.0), (0, 1, bad, bad), (0, 1, 1.0, bad)):
            with pytest.raises(ValueError, match=r"^arc 1 \(0 -> 1\): capacity .* got"):
                network(3, 0, 2, [(1, 2, 1.0, 1.0), arc])
        net = network(4, 0, 3, [(1, 2, 1.0, 1.0)])
        before = (list(net.to), list(net.cap), [list(arcs) for arcs in net.adj])
        with pytest.raises(ValueError, match="capacity"):
            net.with_terminals([(1, 1.0), (2, bad)], [(2, 1.0)])
        with pytest.raises(ValueError, match="capacity"):
            net.with_terminals([(1, 1.0)], [(1, 1.0), (2, bad)])
        assert (net.to, net.cap, net.adj) == before


@pytest.mark.parametrize("arcs, sources, targets, named", [
    ([(0, 1), (1, -1)], None, None, r"arc 1 \(1 -> -1\)"),
    ([(-1, 2)], None, None, r"arc 0 \(-1 -> 2\)"),
    ([(0, 1), (2, 3), (4, 1)], None, None, r"arc 2 \(4 -> 1\)"),
    ([(1, 2)], [(1, 1.0), (-1, 1.0)], [], r"source arc 1 \(0 -> -1\)"),
    ([(1, 2)], [(0, 1.0)], [(2, 1.0)], r"source arc 0 \(0 -> 0\)"),
    ([(1, 2)], [(3, 1.0)], [], r"source arc 0 \(0 -> 3\)"),
    ([(1, 2)], [(1, 1.0)], [(2, 1.0), (3, 1.0)], r"sink arc 1 \(3 -> 3\)"),
    ([(1, 2)], [], [(0, 1.0)], r"sink arc 0 \(0 -> 3\)"),
    ([(1, 2)], [], [(4, 1.0)], r"sink arc 0 \(4 -> 3\)"),
], ids=["negative head", "negative tail", "id past the end", "negative source terminal",
        "source terminal at the source", "source terminal at the sink",
        "sink terminal at the sink", "sink terminal at the source", "sink terminal past the end"])
def test_bad_vertex_ids_are_rejected_at_build_time(arcs, sources, targets, named):
    # a negative id once filed its arc under another vertex through Python's
    # negative indexing, after which max_flow never returned, and an id past
    # the end raised a bare IndexError; a network is never solved here
    rows = [(u, v, 1.0, 0.0) for u, v in arcs]
    message = f"^{named}: vertex ids must be integers in \\[0, 4\\)"
    if sources is None:
        with pytest.raises(ValueError, match=message + "$"):
            network(4, 0, 3, rows)
        return
    net = network(4, 0, 3, rows)
    with pytest.raises(ValueError, match=message + " other than the source 0 and the sink 3$"):
        net.with_terminals(sources, targets)


def random_layout_arcs(rng, n):
    """(tail, head, capacity, back capacity) rows on n vertices: directed
    arcs and undirected edges, self-arcs, parallel arcs, zero capacities,
    and some vertices left isolated."""
    used = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()
    arcs = []
    for _ in range(int(rng.integers(0, 3 * n + 1))):
        u, v = (int(x) for x in rng.choice(used, size=2))
        c = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.1, 5.0))
        arcs.append((u, v, c, c if rng.random() < 0.5 else 0.0))
        if rng.random() < 0.15:
            arcs.append(arcs[-1])
    return arcs


def test_constructor_matches_the_arc_by_arc_build():
    # the columns layout gives the former arc-by-arc build's arc ids, heads,
    # capacities (bit for bit) and every vertex's adjacency order
    rng = np.random.default_rng(22)
    seen = set()
    for _ in range(300):
        n = int(rng.integers(2, 15))
        arcs = random_layout_arcs(rng, n)
        net, ref = network(n, 0, n - 1, arcs), reference_network(n, 0, n - 1, arcs)
        assert (net.node_count, net.source, net.sink) == (ref.node_count, ref.source, ref.sink)
        assert net.to == ref.to and all(type(x) is int for x in net.to)
        assert [x.hex() for x in net.cap] == [x.hex() for x in ref.cap]
        assert all(type(x) is float for x in net.cap)
        assert net.adj == ref.adj
        seen |= {"directed" if back == 0.0 < c else "undirected" if back > 0.0 else "zero"
                 for _, _, c, back in arcs}
        seen |= {"self-arc" for u, v, _, _ in arcs if u == v}
        if len(set(arcs)) < len(arcs):
            seen.add("parallel")
        if not all(net.adj):
            seen.add("isolated")
        if not arcs:
            seen.add("no arcs")
    assert seen == {"directed", "undirected", "zero", "self-arc", "parallel", "isolated", "no arcs"}


def random_terminals(rng, vertices):
    """(vertex, capacity) pairs over `vertices`, possibly none, with repeats
    and zero capacities, the capacities Python or numpy floats."""
    count = int(rng.integers(0, 2 * len(vertices) + 1)) if rng.random() < 0.85 else 0
    picks = rng.choice(vertices, size=count).tolist()
    caps = rng.uniform(0.0, 3.0, size=count)
    caps[rng.random(count) < 0.15] = 0.0
    return list(zip(picks, caps if rng.random() < 0.5 else caps.tolist()))


def test_with_terminals_matches_arcs_first_reference():
    # the same arc ids, heads, capacities and adjacency lists as adding the
    # terminal arcs one by one ahead of the edge arcs, and the edge network
    # is left as it is
    rng = np.random.default_rng(15)
    seen = set()
    for _ in range(200):
        g = random_connected_graph(rng, int(rng.integers(2, 12)), weighted=True)
        n = g.vertex_count
        vertices = sorted(int(v) for v in rng.choice(n, size=int(rng.integers(1, n + 1)),
                                                        replace=False))
        edges = edge_network(g, frozenset(vertices), float(rng.uniform(0.5, 4.0)))
        before = (list(edges.to), list(edges.cap), [list(arcs) for arcs in edges.adj])
        sources = random_terminals(rng, vertices)
        targets = random_terminals(rng, vertices)
        net = edges.with_terminals(sources, targets)
        s, t = edges.source, edges.sink
        ref = reference_with_arcs_first(
            edges, [(s, v, c) for v, c in sources] + [(v, t, c) for v, c in targets])
        assert (net.node_count, net.source, net.sink) == (ref.node_count, s, t)
        assert net.to == ref.to
        assert all(type(c) is float for c in net.cap)
        assert [c.hex() for c in net.cap] == [c.hex() for c in ref.cap]
        assert net.adj == ref.adj
        assert (edges.to, edges.cap, edges.adj) == before
        for side, name in ((sources, "sources"), (targets, "targets")):
            ends = [v for v, _ in side]
            if not side:
                seen.add(f"no {name}")
            if len(set(ends)) < len(ends):
                seen.add(f"repeated {name}")
            if any(c == 0.0 for _, c in side):
                seen.add("zero capacity")
        if {v for v, _ in sources} & {v for v, _ in targets}:
            seen.add("on both sides")
    assert seen == {"no sources", "no targets", "repeated sources", "repeated targets",
                    "zero capacity", "on both sides"}


def test_flows_only_on_pushed_arcs_survive_a_cancellation(strips):
    # phase 1 pushes s->a->b->t; phase 2 pushes s->c->b->a->d->t along the
    # twin of a->b, which cancels a->b's flow back to exactly zero
    s, a, b, c, d, t = range(6)
    arcs = ((s, a), (s, c), (a, b), (b, t), (c, b), (a, d), (d, t))
    net = network(6, s, t, [(*arc, 1.0, 0.0) for arc in arcs])
    ids = {arc: 2 * i for i, arc in enumerate(arcs)}
    sol, stripped = solve(net, strips)
    ref = reference_max_flow(net)
    assert sol.value == 2.0
    assert stripped is not None  # the cancellation sends the flow to the stripping
    flow, zero = stripped
    assert flow[ids[a, b]].hex() == (0.0).hex()
    assert [f.hex() for f in flow] == [f.hex() for f in ref.arc_flows]
    assert zero == net.zero
    assert sol.min_cut_side == ref.min_cut_side
    want = paths_hex(reference_decompose_paths(net, ref))
    assert paths_hex(decompose_paths(net, sol)) == want == [(s, t, (1.0).hex(), (s, a, d, t)),
                                                            (s, t, (1.0).hex(), (s, c, b, t))]
    assert paths_hex(strip_paths(net, list(ref.arc_flows), net.zero)) == want


@pytest.mark.parametrize("scale", [1e-9, 1e9])
def test_scaled_capacities_keep_the_cut_and_the_paths(scale):
    # flow counts as zero relative to the largest capacity, so a change of
    # units changes neither the min cut nor the path decomposition
    rng = np.random.default_rng(31)
    for _ in range(100):
        n, arcs = fractional_arcs(rng)
        base = max_flow(scaled_network(n, arcs, 1.0))
        net = scaled_network(n, arcs, scale)
        sol = max_flow(net)
        assert sol.min_cut_side == base.min_cut_side
        assert sol.value == pytest.approx(scale * base.value, rel=1e-9)
        assert conservation_errors(net, sol) <= 1e-9 * sol.value
        dec = decompose_paths(net, sol)
        assert sum(p[2] for p in dec) == pytest.approx(sol.value, rel=1e-9)


def first_phase_distances(net, root, reverse=False):
    """BFS hop counts from `root` (to it, if `reverse`) over the arcs the
    solver's first phase sees, those above the zero once capped; None where
    there is no path."""
    limit, zero = net.cap_limit, net.zero
    dist = [None] * net.node_count
    dist[root] = 0
    frontier = [root]
    while frontier:
        found = []
        for x in frontier:
            for a in net.adj[x]:
                y = net.to[a]
                if dist[y] is None and min(net.cap[a ^ 1 if reverse else a], limit) > zero:
                    dist[y] = dist[x] + 1
                    found.append(y)
        frontier = found
    return dist


def level_features(net):
    """Features of the first phase's level graph, whose sink level is d: a
    vertex levelled below d with no level-graph path to the sink (its
    distances from the source and to the sink add up to more than d), which
    the backward pass unlevels; another vertex at distance d, which the
    forward BFS may leave unlevelled once it has levelled the sink; and
    d >= 4."""
    ls = first_phase_distances(net, net.source)
    dt = first_phase_distances(net, net.sink, reverse=True)
    d = ls[net.sink]
    if d is None:
        return set()
    features = {"sink level >= 4"} if d >= 4 else set()
    if any(x is not None and x < d and (y is None or x + y > d) for x, y in zip(ls, dt)):
        features.add("dead below sink level")
    if ls.count(d) > 1:
        features.add("sink shares its level")
    return features


def oracle_network(rng):
    """Random network for the solver-against-reference test, with a feature
    log.  Besides random arcs it may have zero-capacity, parallel and
    oversized arcs, chains hanging off the source that end far past the
    sink's BFS level, an unreachable sink, or a grid of real capacities.
    The log also names the first phase's level-graph features."""
    features = set()
    if rng.random() < 0.3:
        side = int(rng.integers(3, 7))
        n = side * side + 2
        s, t = n - 2, n - 1
        arcs = []
        for r in range(side):
            for c in range(side):
                v = r * side + c
                if c + 1 < side:
                    arcs.append(undirected(v, v + 1, float(rng.uniform(0.2, 2.0))))
                if r + 1 < side:
                    arcs.append(undirected(v, v + side, float(rng.uniform(0.2, 2.0))))
        cells = rng.permutation(side * side)
        k = max(1, side // 2)
        arcs += [(s, int(v), float(rng.uniform(1.0, 4.0)), 0.0) for v in cells[:k]]
        arcs += [(int(v), t, float(rng.uniform(1.0, 4.0)), 0.0) for v in cells[k:3 * k]]
        net = network(n, s, t, arcs)
        features.add("grid")
        return net, features | level_features(net)
    core = int(rng.integers(4, 12))
    tail = int(rng.integers(0, 12)) if rng.random() < 0.5 else 0
    n = core + tail
    s, t = 0, core - 1
    arcs = []
    unreachable = rng.random() < 0.15
    pairs = [(u, v) for u in range(core) for v in range(core)
             if u != v and rng.random() < 0.3 and not (unreachable and v == t)]
    for u, v in pairs:
        roll = rng.random()
        if roll < 0.1:
            c = 0.0
            features.add("zero")
        elif roll < 0.15:
            c = 1e6
            features.add("huge")
        elif roll < 0.55:
            c = float(rng.integers(1, 6))
        else:
            c = float(rng.uniform(0.1, 5.0))
        if rng.random() < 0.5 and u < v:
            arcs.append(undirected(u, v, c))
        else:
            arcs.append((u, v, c, 0.0))
        if rng.random() < 0.15:
            arcs.append((u, v, float(rng.uniform(0.1, 3.0)), 0.0))
            features.add("parallel")
    if tail:
        # a chain s -> core+0 -> ... -> core+tail-1, with an arc back into
        # the core from its middle; its far end lies past any sink level
        prev = s
        for v in range(core, n):
            arcs.append((prev, v, float(rng.uniform(0.5, 3.0)), 0.0))
            prev = v
        if tail > 2 and not unreachable:
            arcs.append((core + tail // 2, int(rng.integers(1, core)), 1.0, 0.0))
        features.add("tail")
    if unreachable:
        features.add("unreachable")
    net = network(n, s, t, arcs)
    return net, features | level_features(net)


def with_circulation(net, ref, rng):
    """The reference solver's flow plus a circulation around one directed
    cycle of stored arcs (even slots, so no edge is used both ways) with
    spare capacity; or None if no cycle is found."""
    flows = list(ref.arc_flows)
    ends = (net.source, net.sink)
    for start in (int(i) for i in rng.permutation(net.node_count)):
        if start in ends:
            continue
        # depth-first search for a cycle through `start` on arcs with slack
        stack = [(start, iter(net.adj[start]))]
        on_path = {start}
        arcs = []
        while stack:
            u, it = stack[-1]
            for a in it:
                if net.cap[a] - flows[a] <= 1e-9 or a % 2:
                    continue
                v = net.to[a]
                if v == start and arcs:
                    cycle = arcs + [a]
                    push = min(net.cap[c] - flows[c] for c in cycle) / 2.0
                    for c in cycle:
                        flows[c] += push
                    return dataclasses.replace(ref, arc_flows=tuple(flows))
                if v not in on_path and v not in ends:
                    on_path.add(v)
                    arcs.append(a)
                    stack.append((v, iter(net.adj[v])))
                    break
            else:
                stack.pop()
                if arcs:
                    on_path.discard(u)
                    arcs.pop()
    return None


def assert_augmentations_carry_the_flow(net, sol, ref):
    """The solver's paths, kept when no push cancelled flow, decompose its
    flow: simple source-to-sink paths of positive weight, which add up in
    push order to the value bit for bit, and whose sums on each step
    (parallel arcs pooled) are the reference solver's flow within the zero
    and stay within its capacity, capped at the network's cap_limit."""
    s, t, zero = net.source, net.sink, net.zero
    assert decompose_paths(net, sol) is sol.paths
    pooled_flow, pooled_cap = {}, {}
    for i, (u, v, c) in enumerate(arcs_of(net)):
        pooled_flow[u, v] = pooled_flow.get((u, v), 0.0) + ref.arc_flows[i]
        pooled_cap[u, v] = pooled_cap.get((u, v), 0.0) + min(c, net.cap_limit)
    for source, sink, w, seq in sol.paths:
        assert (source, sink, seq[0], seq[-1]) == (s, t, s, t)
        assert len(set(seq)) == len(seq) and w > zero
    assert ordered_sum(p[2] for p in sol.paths).hex() == sol.value.hex()
    used = path_flows(sol)
    assert used.keys() <= pooled_flow.keys()
    for step, f in pooled_flow.items():
        assert abs(used.get(step, 0.0) - f) <= zero
        assert used.get(step, 0.0) <= pooled_cap[step] + zero


def assert_paths_match_reference(net, sol, ref, stripped):
    """Stripping the reference solver's flow gives the reference stripper's
    paths bit for bit.  Where the solve stripped (`stripped`, the flow and
    zero it stripped, is not None), it stripped the reference's flow and
    zero bit for bit into those paths; else its own paths carry the flow."""
    want = paths_hex(reference_decompose_paths(net, ref))
    assert paths_hex(strip_paths(net, list(ref.arc_flows), net.zero)) == want
    if stripped is None:
        assert_augmentations_carry_the_flow(net, sol, ref)
        return
    flow, zero = stripped
    assert [f.hex() for f in flow] == [f.hex() for f in ref.arc_flows]
    assert zero == ref.zero == net.zero  # the solver's threshold, not a new scan
    assert paths_hex(sol.paths) == want


def test_augmentations_carry_the_flow_on_random_networks(strips):
    # whenever no push cancelled flow, the paths the solver pushed are a path
    # decomposition of its flow, and decompose_paths returns them as they are;
    # otherwise they are the stripped flow's
    rng = np.random.default_rng(41)
    kept = cancelled = 0
    for k in range(300):
        if k % 3 == 0:
            net = random_network(rng)
        elif k % 3 == 1:
            net = scaled_network(*fractional_arcs(rng), float(rng.choice([1e-9, 1.0, 1e9])))
        else:
            net = oracle_network(rng)[0]
        sol, stripped = solve(net, strips)
        assert_paths_match_reference(net, sol, reference_max_flow(net), stripped)
        if stripped is None:
            kept += 1
            assert len(sol.paths) <= net.arc_count // 2  # one per twin pair at most
        else:
            cancelled += 1
    assert kept >= 200 and cancelled >= 5


def test_solver_matches_reference_bit_for_bit(strips):
    # the truncated-phase solver must push the same paths in the same order
    # as the former one: same bits for the value, same min cut, its own paths
    # carrying the reference's flow, or, after a cancellation, the same
    # flow stripped into the same paths, cycles cancelled alike
    rng = np.random.default_rng(8)
    seen = set()
    cycles = 0
    for _ in range(300):
        net, features = oracle_network(rng)
        sol, stripped = solve(net, strips)
        ref = reference_max_flow(net)
        assert sol.value.hex() == ref.value.hex()
        assert sol.min_cut_side == ref.min_cut_side
        assert_paths_match_reference(net, sol, ref, stripped)
        if net.sink not in sol.min_cut_side and sol.value == 0.0:
            seen.add("no flow")
        if max(net.cap, default=0.0) > net.cap_limit:
            seen.add("capped")
        if stripped is not None:
            seen.add("stripped")
        seen |= features
        doctored = with_circulation(net, ref, rng)
        if doctored is not None:
            cycles += 1
            assert paths_hex(strip_paths(net, list(doctored.arc_flows), net.zero)) == \
                paths_hex(reference_decompose_paths(net, doctored))
    assert seen >= {"grid", "zero", "huge", "parallel", "tail", "unreachable",
                    "no flow", "capped", "dead below sink level", "sink level >= 4",
                    "sink shares its level", "stripped"}
    assert cycles >= 100


def regular_expander(rng, n, cycles=4):
    """The union of `cycles` random Hamiltonian cycles on n vertices, a
    2*cycles-regular expander with high probability; repeated pairs merge
    into one edge of summed weight, so every weighted degree is 2*cycles."""
    weights = {}
    for _ in range(cycles):
        order = rng.permutation(n).tolist()
        for u, v in zip(order, order[1:] + order[:1]):
            key = (min(u, v), max(u, v))
            weights[key] = weights.get(key, 0.0) + 1.0
    return Graph(n, [(u, v, w) for (u, v), w in sorted(weights.items())])


def test_round_networks_match_reference_bit_for_bit(monkeypatch, strips):
    # every round network of two games solves to the reference's bits: a
    # terminal grid, where the flow runs long paths through zero-measure
    # vertices and some round's first phase has a dead vertex to prune, and
    # an 8-regular expander with mu = degree, where every active vertex is
    # a terminal and the sink's BFS layer holds other vertices too
    seen = []

    def both(net):
        sol, stripped = solve(net, strips)
        ref = reference_max_flow(net)
        assert sol.value.hex() == ref.value.hex()
        assert sol.min_cut_side == ref.min_cut_side
        assert_paths_match_reference(net, sol, ref, stripped)
        seen.append(level_features(net))
        return sol

    monkeypatch.setattr(mucut.matching, "max_flow", both)
    side = 12
    n = side * side
    edges = [(v, v + 1, 1.0) for v in range(n) if (v + 1) % side]
    edges += [(v, v + side, 1.0) for v in range(n - side)]
    g = Graph(n, edges)
    rng = np.random.default_rng(4)
    values = np.zeros(n)
    terminals = n // 10
    values[rng.choice(n, size=terminals, replace=False)] = rng.uniform(1.0, 4.0, terminals)
    mu = VertexMeasure(values)
    run_cut_matching(g, mu, 0.02, rng)
    assert len(seen) >= 10
    assert any("dead below sink level" in f for f in seen)

    grid_rounds = len(seen)
    g = regular_expander(rng, 64)
    mu = VertexMeasure.from_degrees(g)
    run_cut_matching(g, mu, 0.05, rng)
    assert len(seen) - grid_rounds >= 10
    assert any("sink shares its level" in f for f in seen[grid_rounds:])


def test_edge_network_matches_the_arc_by_arc_build():
    # the sliced build gives the arc-by-arc build's arc ids, heads,
    # capacities (bit for bit) and every vertex's adjacency order
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 25))
        g = random_connected_graph(rng, n, extra=float(rng.uniform(0.0, 2.0)), weighted=True)
        subset = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist()
        c = float(rng.choice([1.0, 3.0, 10.0 / 3.0, rng.uniform(0.1, 50.0)]))
        net, ref = edge_network(g, subset, c), reference_edge_network(g, subset, c)
        assert (net.node_count, net.source, net.sink) == (ref.node_count, ref.source, ref.sink)
        assert net.to == ref.to
        assert [x.hex() for x in net.cap] == [x.hex() for x in ref.cap]
        assert all(type(x) is float for x in net.cap) and all(type(x) is int for x in net.to)
        assert net.adj == ref.adj


def test_edge_network_rejects_an_overflowing_capacity():
    g = Graph(3, [(0, 1, 1e300), (1, 2, 1.0)])
    with pytest.raises(ValueError, match="got inf"):
        edge_network(g, range(3), 1e10)
