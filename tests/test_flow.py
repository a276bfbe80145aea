import numpy as np
import pytest

from mucut.flow import FlowNetwork, decompose_paths, max_flow

from helpers import (assert_fair, conservation_errors, enumerate_min_cut,
                     reference_decompose_paths, reference_max_flow)


def random_network(rng, directed_bias=0.5):
    """Random small network with integer capacities in 1..5."""
    n = int(rng.integers(4, 11))
    s, t = 0, n - 1
    net = FlowNetwork(n, s, t)
    directed = rng.random() < directed_bias
    added = 0
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.45:
                c = float(rng.integers(1, 6))
                if directed:
                    if rng.random() < 0.5:
                        net.add_arc(u, v, c)
                    else:
                        net.add_arc(v, u, c)
                else:
                    net.add_undirected_edge(u, v, c)
                added += 1
    if added == 0:
        net.add_arc(s, t, float(rng.integers(1, 6)))
    return net


def fractional_arcs(rng):
    """Random small network as (n, arcs of (u, v, capacity, undirected)),
    capacities uniform in [0.1, 5)."""
    n = int(rng.integers(4, 11))
    arcs = [(u, v, float(rng.uniform(0.1, 5.0)), bool(rng.random() < 0.5))
            for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
    return n, arcs or [(0, n - 1, 1.0, False)]


def scaled_network(n, arcs, scale):
    net = FlowNetwork(n, 0, n - 1)
    for u, v, c, undirected in arcs:
        (net.add_undirected_edge if undirected else net.add_arc)(u, v, scale * c)
    return net


def test_single_arc():
    net = FlowNetwork(2, 0, 1)
    net.add_arc(0, 1, 2.0)
    sol = max_flow(net)
    assert sol.value == 2.0
    assert sol.min_cut_side == {0}


def test_two_disjoint_paths():
    net = FlowNetwork(4, 0, 3)
    net.add_arc(0, 1, 1.0)
    net.add_arc(0, 2, 1.0)
    net.add_arc(1, 3, 1.0)
    net.add_arc(2, 3, 1.0)
    assert max_flow(net).value == 2.0


def test_bottleneck_and_cut_side():
    net = FlowNetwork(4, 0, 3)
    net.add_arc(0, 1, 5.0)
    net.add_arc(1, 2, 1.5)
    net.add_arc(2, 3, 5.0)
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
        sol = max_flow(net)
        for i, (_, _, c) in enumerate(net.arcs()):
            assert -1e-12 <= sol.arc_flows[i] <= c + 1e-12


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
            net = FlowNetwork(n, 0, n - 1)
            perm = rng.permutation(len(arcs))
            for k in perm:
                u, v, c = arcs[int(k)]
                net.add_arc(u, v, c)
            values.append(max_flow(net).value)
        assert len(set(values)) == 1


def test_real_capacities():
    net = FlowNetwork(4, 0, 3)
    net.add_arc(0, 1, 1.0 / 3.0)
    net.add_arc(0, 2, 0.25)
    net.add_arc(1, 3, 0.5)
    net.add_arc(2, 3, 0.5)
    sol = max_flow(net)
    assert sol.value == pytest.approx(1.0 / 3.0 + 0.25, abs=1e-12)
    assert_fair(net, sol)


def test_decompose_single_path():
    net = FlowNetwork(3, 0, 2)
    net.add_arc(0, 1, 2.0)
    net.add_arc(1, 2, 2.0)
    sol = max_flow(net)
    dec = decompose_paths(net, sol)
    assert len(dec) == 1
    u, v, w, seq = dec[0]
    assert (u, v, w, seq) == (0, 2, 2.0, (0, 1, 2))


def test_decompose_zero_flow():
    net = FlowNetwork(3, 0, 2)
    net.add_arc(0, 1, 1.0)  # no arc reaches the sink
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
        # per-arc usage stays within the solved flow
        used = [0.0] * net.arc_count
        arc_of = {}
        for i, (u, v, _) in enumerate(net.arcs()):
            arc_of.setdefault((u, v), []).append(i)
        for _, _, w, seq in dec:
            for a, b in zip(seq, seq[1:]):
                hit = None
                for i in arc_of.get((a, b), []):
                    if sol.arc_flows[i] > 1e-12:
                        hit = i
                        break
                assert hit is not None, f"path step ({a},{b}) has no flow-bearing arc"
                used[hit] += w
        for i in range(net.arc_count):
            assert used[i] <= sol.arc_flows[i] + 1e-9


def test_decompose_cancels_cycles():
    # a flow with a gratuitous cycle: emitted paths must not include it
    net = FlowNetwork(5, 0, 4)
    a = net.add_arc(0, 1, 1.0)
    net.add_arc(1, 2, 1.0)
    net.add_arc(2, 3, 1.0)
    net.add_arc(3, 1, 1.0)
    net.add_arc(1, 4, 1.0)
    sol = max_flow(net)
    # hand-build a solution that pushes the cycle 1->2->3->1 on top
    flows = list(sol.arc_flows)
    for i, (u, v, c) in enumerate(net.arcs()):
        if (u, v) in {(1, 2), (2, 3), (3, 1)}:
            flows[i] = 1.0
    doctored = type(sol)(value=sol.value, arc_flows=tuple(flows),
                         min_cut_side=sol.min_cut_side)
    dec = decompose_paths(net, doctored)
    assert sum(p[2] for p in dec) == pytest.approx(1.0)
    for _, _, _, seq in dec:
        assert len(set(seq)) == len(seq)  # simple paths only


def test_source_sink_validation():
    with pytest.raises(ValueError):
        FlowNetwork(3, 1, 1)
    with pytest.raises(ValueError):
        FlowNetwork(3, 0, 5)
    # an infinite arc once made the flow zero everywhere (the cap and the
    # zero threshold became inf), and a NaN arc silently carried nothing
    for bad in (-1.0, float("inf"), float("nan")):
        net = FlowNetwork(3, 0, 2)
        with pytest.raises(ValueError, match="capacity"):
            net.add_arc(0, 1, bad)
        with pytest.raises(ValueError, match="capacity"):
            net.add_undirected_edge(0, 1, bad)
        with pytest.raises(ValueError, match="capacity"):
            net.with_arcs_first([(0, 1, 1.0), (1, 2, bad)])
        assert net.arc_count == 0


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


def oracle_network(rng):
    """Random network for the solver-against-reference test, with a feature
    log.  Besides random arcs it may have zero-capacity, parallel and
    oversized arcs, chains hanging off the source that end far past the
    sink's BFS level, an unreachable sink, or a grid of real capacities."""
    features = set()
    if rng.random() < 0.3:
        side = int(rng.integers(3, 7))
        n = side * side + 2
        s, t = n - 2, n - 1
        net = FlowNetwork(n, s, t)
        for r in range(side):
            for c in range(side):
                v = r * side + c
                if c + 1 < side:
                    net.add_undirected_edge(v, v + 1, float(rng.uniform(0.2, 2.0)))
                if r + 1 < side:
                    net.add_undirected_edge(v, v + side, float(rng.uniform(0.2, 2.0)))
        cells = rng.permutation(side * side)
        k = max(1, side // 2)
        for v in cells[:k]:
            net.add_arc(s, int(v), float(rng.uniform(1.0, 4.0)))
        for v in cells[k:3 * k]:
            net.add_arc(int(v), t, float(rng.uniform(1.0, 4.0)))
        features.add("grid")
        return net, features
    core = int(rng.integers(4, 12))
    tail = int(rng.integers(0, 12)) if rng.random() < 0.5 else 0
    n = core + tail
    s, t = 0, core - 1
    net = FlowNetwork(n, s, t)
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
            net.add_undirected_edge(u, v, c)
        else:
            net.add_arc(u, v, c)
        if rng.random() < 0.15:
            net.add_arc(u, v, float(rng.uniform(0.1, 3.0)))
            features.add("parallel")
    if tail:
        # a chain s -> core+0 -> ... -> core+tail-1, with an arc back into
        # the core from its middle; its far end lies past any sink level
        prev = s
        for v in range(core, n):
            net.add_arc(prev, v, float(rng.uniform(0.5, 3.0)))
            prev = v
        if tail > 2 and not unreachable:
            net.add_arc(core + tail // 2, int(rng.integers(1, core)), 1.0)
        features.add("tail")
    if unreachable:
        features.add("unreachable")
    return net, features


def with_circulation(net, sol, rng):
    """The solution plus a circulation around one directed cycle of stored
    arcs (even slots, so no edge is used both ways) with spare capacity,
    or None if none is found."""
    flows = list(sol.arc_flows)
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
                    return type(sol)(value=sol.value, arc_flows=tuple(flows),
                                     min_cut_side=sol.min_cut_side)
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


def test_solver_matches_reference_bit_for_bit():
    # the truncated-phase solver must push the same paths in the same order
    # as the former one: same bits for the value and every arc flow, same
    # min cut, and the same stripped paths, cycles cancelled alike
    rng = np.random.default_rng(8)
    seen = set()
    cycles = 0
    for _ in range(300):
        net, features = oracle_network(rng)
        sol = max_flow(net)
        ref = reference_max_flow(net)
        assert sol.value.hex() == ref.value.hex()
        assert [f.hex() for f in sol.arc_flows] == [f.hex() for f in ref.arc_flows]
        assert sol.min_cut_side == ref.min_cut_side
        assert decompose_paths(net, sol) == reference_decompose_paths(net, ref)
        if net.sink not in sol.min_cut_side and sol.value == 0.0:
            seen.add("no flow")
        if max(net.cap, default=0.0) > net.cap_limit:
            seen.add("capped")
        seen |= features
        doctored = with_circulation(net, sol, rng)
        if doctored is not None:
            cycles += 1
            assert decompose_paths(net, doctored) == reference_decompose_paths(net, doctored)
    assert seen >= {"grid", "zero", "huge", "parallel", "tail", "unreachable",
                    "no flow", "capped"}
    assert cycles >= 100
