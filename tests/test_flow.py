import numpy as np
import pytest

from mucut.flow import FlowNetwork, decompose_paths, max_flow

from helpers import assert_fair, conservation_errors, enumerate_min_cut


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
    net = FlowNetwork(3, 0, 2)
    with pytest.raises(ValueError):
        net.add_arc(0, 1, -1.0)
