"""Acceptance suite: one test per criterion, pass/fail printed per line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is
pinned here; the oracles come from the verify module and from the
independent enumerators in helpers.py.
"""

import json
import time

import numpy as np
import pytest

from mucut import (GameParams, Graph, VertexMeasure, cut_weight, decompose,
                   induced_subgraph, run_cut_matching, trim)
from mucut.cli import main as cli_main
from mucut.cutplayer import check_bipartition, rst_partition
from mucut.flow import FlowNetwork, decompose_paths, max_flow
from mucut.graph import Infinite
from mucut.spectral import ActiveState, WalkOperator, sample_unit_vector
from mucut.verify import (brute_force_expansion, brute_force_near_expansion,
                          check_embedding_congestion)

from helpers import (assert_fair, clique_edges, conductance_enumerator, dense_matching,
                     dense_walk_and_potential, dumbbell_graph, enumerate_min_cut,
                     orthogonalized_projection, psi_sequence, random_connected_graph,
                     random_measure)

from test_flow import random_network


def report(num, name, started, budget):
    elapsed = time.monotonic() - started
    print(f"\n[acceptance] criterion {num:2d} PASS ({elapsed:6.2f}s / {budget:.0f}s budget): {name}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"


def test_criterion_01_flow_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    for _ in range(200):
        net = random_network(rng)
        sol = max_flow(net)
        assert sol.value == enumerate_min_cut(net)
        assert_fair(net, sol, tol=1e-9)
    report(1, "max-flow equals exhaustive min-cut on 200 networks, all 1-fair", started, 10)


def test_criterion_02_source_target_selection_properties():
    started = time.monotonic()
    rng = np.random.default_rng(1002)
    for trial in range(500):
        n = int(rng.integers(2, 201))
        mu = random_measure(rng, n, zero_frac=0.2)
        state = ActiveState(range(n), mu)
        u = orthogonalized_projection(rng, mu, quantize=bool(trial % 7 == 0))
        if trial % 50 == 0:
            u = np.zeros(n)
        bip = rst_partition(state, u)
        check_bipartition(state, u, bip)  # all five properties, incl. 1/80 energy
    report(2, "all five selection properties on 500 random inputs up to n=200", started, 5)


def test_criterion_03_stochastic_blocked_symmetric_flows():
    started = time.monotonic()
    rng = np.random.default_rng(1003)
    for graph_idx in range(20):
        n = int(rng.integers(10, 31))
        g = random_connected_graph(rng, n, extra=float(rng.uniform(0.5, 2.5)))
        mu = random_measure(rng, n, zero_frac=0.2)
        out = run_cut_matching(g, mu, float(rng.uniform(0.05, 0.3)), rng)
        params = out.params
        # replay the flow-matrix recursion densely, checking every round
        big_u = np.diag(mu.values)
        u_inv = np.diag(mu.pseudo_inv)
        f = big_u.copy()
        off_support = ~mu.support_mask
        for rec in out.rounds:
            lazy = (params.delta - 1.0) / params.delta
            n_t = lazy * big_u + dense_matching(rec.matching) / params.delta
            f = n_t @ u_inv @ f @ u_inv @ n_t
            assert np.abs(f.sum(axis=1) - mu.values).max() < 1e-8
            assert np.abs(f - f.T).max() < 1e-9
            hollow = f.copy()
            np.fill_diagonal(hollow, 0.0)
            assert np.abs(hollow[off_support, :]).max(initial=0.0) < 1e-12
            assert np.abs(hollow[:, off_support]).max(initial=0.0) < 1e-12
    report(3, "flow matrices stay measure-stochastic, support-blocked, symmetric", started, 30)


def test_criterion_04_potential_startpoint_and_decrease():
    started = time.monotonic()
    inst_rng = np.random.default_rng(4242)
    g = random_connected_graph(inst_rng, 16, extra=2.0)
    mu = VertexMeasure.from_degrees(g)
    params = GameParams.for_graph(g, mu, phi=0.1)

    state0 = ActiveState(range(16), mu)
    _, psi0 = dense_walk_and_potential(WalkOperator([], params.delta, state0), [])
    assert abs(psi0 - (len(mu.support) - 1)) < 1e-9

    drops: dict[int, list] = {}
    for seed in range(100):
        out = run_cut_matching(g, mu, params.phi, np.random.default_rng(seed))
        psis = psi_sequence(g, mu, out, params.delta)
        for rec, prev, psi in zip(out.rounds, psis, psis[1:]):
            if rec.matching.off_diagonal_weight > 0:
                drops.setdefault(rec.index, []).append(psi - prev)
    assert drops
    for t, deltas in sorted(drops.items()):
        assert float(np.mean(deltas)) <= 1e-9, f"round {t} mean potential change positive"
    report(4, "psi(0) = |terminals|-1 and mean potential change <= 0 per matched round",
           started, 60)


def test_criterion_05_matching_round_contract():
    started = time.monotonic()
    rng = np.random.default_rng(1005)
    cut_rounds = 0
    games = []
    for k in range(8):
        n = int(rng.integers(8, 25))
        games.append((random_connected_graph(rng, n, extra=float(rng.uniform(0.3, 2.0))),
                      float(rng.uniform(0.1, 0.5))))
    games.append((dumbbell_graph(8), 0.3))
    games.append((dumbbell_graph(10, bridges=2), 0.4))
    for g, phi in games:
        mu = VertexMeasure.from_degrees(g)
        for seed in range(3):
            out = run_cut_matching(g, mu, phi, np.random.default_rng(seed))
            params = out.params
            for rec in out.rounds:
                assert check_embedding_congestion(g, rec.paths) \
                    <= params.capacity_c * (1 + 1e-9)
                if not rec.removed:
                    continue
                cut_rounds += 1
                sub, order = induced_subgraph(g, rec.active_before)
                local = {v: i for i, v in enumerate(order)}
                side = {local[v] for v in rec.removed}
                sub_mu = mu.restrict(order)
                crossing = cut_weight(sub, side)
                kept = sub_mu.total - sub_mu.of(side)
                assert crossing / min(sub_mu.of(side), kept) <= 7.0 / params.capacity_c + 1e-9
                assert kept >= sub_mu.total / 3.0 - 1e-9
    assert cut_rounds >= 10  # the contract must actually have been exercised
    report(5, f"7/c expansion, 1/3 survival, congestion <= c on {cut_rounds} cut rounds",
           started, 30)


def test_criterion_06_trimming_bounds_and_certificate():
    started = time.monotonic()
    rng = np.random.default_rng(1006)
    done = 0
    while done < 100:
        k = int(rng.integers(6, 17))
        extra = int(rng.integers(1, 4))
        n = k + extra
        edges = [(i, j, 1.0) for i in range(k) for j in range(i + 1, k)
                 if rng.random() < float(rng.uniform(0.7, 1.0))]
        edges += [(i, i + 1, 1.0) for i in range(k, n - 1)]
        for _ in range(int(rng.integers(1, 3))):
            edges.append((int(rng.integers(0, k)), int(rng.integers(k, n)), 0.5))
        g = Graph(n, edges)
        vals = np.concatenate([rng.uniform(0.8, 1.5, size=k),
                               rng.uniform(0.05, 0.2, size=extra)])
        mu = VertexMeasure(vals)
        a = tuple(range(k))
        boundary = cut_weight(g, a)
        if boundary <= 0:
            continue
        phi = 9.0 * boundary / mu.of(a) * 1.0001
        near = brute_force_near_expansion(g, mu, a)
        if isinstance(near, Infinite) or near < phi:
            continue
        trimmed = trim(g, mu, a, phi)
        done += 1
        assert mu.of(trimmed) >= mu.of(a) - 4.0 * boundary / phi - 1e-9
        assert cut_weight(g, trimmed) <= 2.0 * boundary + 1e-9
        sub, order = induced_subgraph(g, trimmed)
        if len(order) >= 2:
            value, _ = brute_force_expansion(sub, mu.restrict(order))
            assert value >= phi / 6.0 - 1e-12
    report(6, "trim bounds and phi/6 certificate on 100 qualifying instances", started, 60)


def _cluster_family_graph(seed):
    """Alternate dumbbells and chained random clusters, n <= 32."""
    rng = np.random.default_rng(seed)
    if seed % 2 == 0:
        k = int(rng.integers(6, 17))
        return dumbbell_graph(k, bridges=int(rng.integers(1, 3)))
    blocks = int(rng.integers(2, 5))
    sizes = [int(rng.integers(4, 11)) for _ in range(blocks)]
    while sum(sizes) > 32:
        sizes.pop()
    edges = []
    offset = 0
    anchors = []
    for size in sizes:
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < 0.85:
                    edges.append((offset + i, offset + j, 1.0))
        anchors.append(offset)
        offset += size
    for a, b in zip(anchors, anchors[1:]):
        edges.append((a, b, 1.0))
    return Graph(offset, edges)


def test_criterion_07_end_to_end_decomposition():
    started = time.monotonic()
    total_small = 0
    passing_small = 0
    for seed in range(50):
        g = _cluster_family_graph(seed)
        mu = VertexMeasure.from_degrees(g)
        res = decompose(g, mu, 0.05, rng=seed)
        flat = sorted(v for cl in res.clusters for v in cl)
        assert flat == list(range(g.vertex_count))
        owner = {}
        for i, cl in enumerate(res.clusters):
            for v in cl:
                owner[v] = i
        recount = sum(w for u, v, w in g.edges if owner[u] != owner[v])
        assert res.inter_cluster_edge_weight == pytest.approx(recount, abs=1e-9)
        for cl in res.clusters:
            if len(cl) > 16 or len(cl) < 2:
                continue
            sub, order = induced_subgraph(g, cl)
            value, _ = brute_force_expansion(sub, mu.restrict(order))
            total_small += 1
            assert isinstance(value, Infinite) or value > 0
            if isinstance(value, Infinite) or value >= 0.05 / 6.0:
                passing_small += 1
    assert total_small > 0
    ratio = passing_small / total_small
    assert ratio >= 0.95, f"only {ratio:.1%} of small clusters met phi/6"
    report(7, f"50 decompositions exact; {passing_small}/{total_small} small clusters"
              " at phi/6", started, 300)


def test_criterion_08_conductance_specialization():
    started = time.monotonic()
    rng = np.random.default_rng(1008)
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(3, 11)), extra=1.0)
        value, _ = brute_force_expansion(g, VertexMeasure.from_degrees(g))
        assert value == conductance_enumerator(g)
    report(8, "degree-measure expansion equals independent conductance on 100 graphs",
           started, 10)


def test_criterion_09_projection_statistics():
    started = time.monotonic()
    g = dumbbell_graph(16)
    mu = VertexMeasure.from_degrees(g)
    out = run_cut_matching(g, mu, 0.05, np.random.default_rng(5))
    dense_w, _ = dense_walk_and_potential(out.walk, [rec.matching for rec in out.rounds])
    rows = dense_w * mu.inv_sqrt[:, None]  # v_i = W(i) / sqrt(mu_i)

    n = 32
    samples = 100_000
    rng = np.random.default_rng(1009)
    r = rng.standard_normal((samples, n))
    r /= np.linalg.norm(r, axis=1, keepdims=True)
    proj = r @ rows.T
    mean_sq = (proj * proj).mean(axis=0)
    norms = (rows * rows).sum(axis=1)
    for i in range(n):
        expected = norms[i] / n
        if expected < 1e-15:
            assert mean_sq[i] < 1e-12
        else:
            assert abs(mean_sq[i] - expected) <= 0.10 * expected, f"row {i}"

    active = [i for i in range(n) if norms[i] > 1e-12]
    pair_rng = np.random.default_rng(90)
    for _ in range(50):
        i, j = pair_rng.choice(active, size=2, replace=False)
        diff = rows[i] - rows[j]
        expected = float(diff @ diff) / n
        got = float(((proj[:, i] - proj[:, j]) ** 2).mean())
        if expected < 1e-15:
            assert got < 1e-12
        else:
            assert abs(got - expected) <= 0.10 * expected
    report(9, "E[u_i^2] and pairwise differences within 10% over 1e5 samples", started, 60)


def test_criterion_10_cli_determinism(tmp_path):
    started = time.monotonic()
    g = dumbbell_graph(8)
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("\n".join(f"{u} {v}" for u, v, _ in g.edges) + "\n")
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli_main(["decompose", "--graph", str(graph_file), "--phi", "0.05",
                         "--seed", "123", "--json-out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    json.loads(outputs[0])  # sanity: well-formed JSON
    report(10, "identical flags and seed give byte-identical JSON", started, 10)
