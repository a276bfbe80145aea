import importlib
import sys

import numpy as np
import pytest

from mucut import (Cut, GameParams, Graph, VertexMeasure, cut_weight, decompose,
                   induced_subgraph, mu_expansion_of_cut)
from mucut.decompose import BalanceOutcome, DecomposeConfig, OutcomeKind, balanced_or_expander
from mucut.errors import InvariantViolation
from mucut.graph import Infinite
from mucut.verify import brute_force_expansion, validate_partition

from helpers import clique_edges, dumbbell_graph, random_connected_graph


def test_balanced_or_expander_on_expander():
    g = Graph(8, clique_edges(range(8)))
    mu = VertexMeasure.from_degrees(g)
    params = GameParams.for_graph(g, mu, 0.01)
    out = balanced_or_expander(g, mu, params, np.random.default_rng(1))
    assert out.kind is OutcomeKind.CERTIFIED
    assert out.expander_side == frozenset(range(8))


@pytest.mark.parametrize("seed", range(8))
def test_balanced_or_expander_on_dumbbell(seed):
    # phi far above the bridge conductance: the single bridge edge cannot
    # carry any source mass at capacity c = 1, so a cut always appears
    g = dumbbell_graph(8)
    mu = VertexMeasure.from_degrees(g)
    params = GameParams.for_graph(g, mu, 0.3)
    out = balanced_or_expander(g, mu, params, np.random.default_rng(seed))
    assert out.kind in (OutcomeKind.BALANCED_CUT, OutcomeKind.UNBALANCED_EXPANDER_CUT)
    # either way the returned cut is sparse: at most twice the round bound
    value = mu_expansion_of_cut(g, mu, Cut(out.rest))
    assert value <= 2 * 7.0 / params.capacity_c + 1e-9


@pytest.mark.parametrize("phi", [0.0, -0.1, float("inf"), float("nan")])
def test_decompose_rejects_phi_not_positive_and_finite(phi):
    g = Graph(4, clique_edges(range(4)))
    with pytest.raises(ValueError, match="phi"):
        decompose(g, VertexMeasure.from_degrees(g), phi, rng=0)


@pytest.mark.parametrize("log_base", [1.0, 0.5, float("nan"), float("inf")])
def test_balanced_or_expander_rejects_log_base_at_most_one(log_base):
    g = dumbbell_graph(4)
    mu = VertexMeasure.from_degrees(g)
    params = GameParams.for_graph(g, mu, 0.3)
    with pytest.raises(ValueError, match="log_base"):
        balanced_or_expander(g, mu, params, np.random.default_rng(0), log_base=log_base)


def test_single_vertex_certifies():
    g = Graph(1, [])
    mu = VertexMeasure([2.0])
    params = GameParams.for_graph(g, mu, 0.1)
    out = balanced_or_expander(g, mu, params, np.random.default_rng(0))
    assert out.kind is OutcomeKind.CERTIFIED


def test_decompose_expander_single_cluster():
    g = Graph(8, clique_edges(range(8)))
    mu = VertexMeasure.from_degrees(g)
    res = decompose(g, mu, 0.01, rng=3)
    assert res.clusters == (tuple(range(8)),)
    assert res.inter_cluster_edge_weight == 0.0
    assert res.per_cluster[0].kind == "certified-by-game"


def test_decompose_two_triangles():
    edges = clique_edges(range(3)) + clique_edges(range(3, 6))
    g = Graph(6, edges)
    mu = VertexMeasure([1.0] * 6)
    res = decompose(g, mu, 0.05, rng=0)
    assert res.clusters == ((0, 1, 2), (3, 4, 5))
    assert res.inter_cluster_edge_weight == 0.0


def test_decompose_dumbbell_splits_at_bridge():
    g = dumbbell_graph(8)
    mu = VertexMeasure.from_degrees(g)
    res = decompose(g, mu, 0.05, rng=5)
    assert res.clusters == (tuple(range(8)), tuple(range(8, 16)))
    assert res.inter_cluster_edge_weight == 1.0
    assert res.recursion_depth >= 1


def test_zero_measure_component_is_single_cluster():
    edges = clique_edges(range(3)) + clique_edges(range(3, 6))
    g = Graph(6, edges)
    mu = VertexMeasure([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    res = decompose(g, mu, 0.1, rng=2)
    kinds = {cl: cert.kind for cl, cert in zip(res.clusters, res.per_cluster)}
    assert kinds[(3, 4, 5)] == "zero-measure"
    assert res.per_cluster[[c for c in res.clusters].index((3, 4, 5))].expansion is not None


def test_singletons_certificates():
    g = Graph(3, [])
    mu = VertexMeasure([1.0, 0.0, 2.0])
    res = decompose(g, mu, 0.1, rng=0)
    assert res.clusters == ((0,), (1,), (2,))
    assert all(c.kind == "singleton" for c in res.per_cluster)
    assert all(isinstance(c.expansion, Infinite) for c in res.per_cluster)


@pytest.mark.parametrize("seed", range(8))
def test_partition_exactness_and_accounting(seed):
    rng = np.random.default_rng(800 + seed)
    g = random_connected_graph(rng, int(rng.integers(8, 25)), extra=float(rng.uniform(0.5, 2.5)))
    mu = VertexMeasure.from_degrees(g)
    res = decompose(g, mu, 0.05, rng=rng)
    flat = sorted(v for cl in res.clusters for v in cl)
    assert flat == list(range(g.vertex_count))
    owner = {}
    for i, cl in enumerate(res.clusters):
        for v in cl:
            owner[v] = i
    recount = sum(w for u, v, w in g.edges if owner[u] != owner[v])
    assert res.inter_cluster_edge_weight == pytest.approx(recount, abs=1e-9)
    # every small cluster has strictly positive expansion
    for cl in res.clusters:
        if 2 <= len(cl) <= 16:
            sub, order = induced_subgraph(g, cl)
            value, _ = brute_force_expansion(sub, mu.restrict(order))
            assert isinstance(value, Infinite) or value > 0


def test_validate_partition_consumes_result():
    g = dumbbell_graph(6)
    mu = VertexMeasure.from_degrees(g)
    res = decompose(g, mu, 0.05, rng=7)
    report = validate_partition(g, mu, res, phi=0.05)
    assert report.partition_exact
    assert report.weight_matches
    assert report.all_passed


def test_mu_restriction_is_by_vertex_value():
    # a vertex keeps its measure in every recursive call
    g = dumbbell_graph(5)
    vals = np.arange(10, dtype=float) + 1.0
    mu = VertexMeasure(vals)
    res = decompose(g, mu, 0.05, rng=1)
    for cl in res.clusters:
        sub_mu = mu.restrict(cl)
        assert sub_mu.total == pytest.approx(sum(vals[v] for v in cl))


def test_depth_limit_guard():
    g = dumbbell_graph(8)
    mu = VertexMeasure.from_degrees(g)
    cfg = DecomposeConfig(depth_limit=0)
    with pytest.raises(InvariantViolation, match="depth"):
        decompose(g, mu, 0.3, cfg, rng=5)  # the cut always appears at this phi


def test_charge_ratio_reported():
    g = dumbbell_graph(8)
    mu = VertexMeasure.from_degrees(g)
    res = decompose(g, mu, 0.05, rng=5)
    assert res.charge_ratio is not None
    expected = res.inter_cluster_edge_weight / (0.05 * mu.total * np.log2(16) ** 2)
    assert res.charge_ratio == pytest.approx(expected)


def test_params_echo():
    g = dumbbell_graph(4)
    mu = VertexMeasure.from_degrees(g)
    res = decompose(g, mu, 0.1, rng=0)
    for key in ("phi", "t_factor", "c_factor", "log_base", "n", "mu_total", "mu_spread"):
        assert key in res.params


def test_deep_recursion_needs_no_call_stack(monkeypatch):
    # a step that peels only the smallest vertex drives the recursion as deep
    # as the path is long; the driver must not spend a Python frame per level
    driver = importlib.import_module("mucut.decompose")

    def peel_first(g, mu, params, rng, *, log_base=2.0):
        rest = frozenset(range(1, g.vertex_count))
        return BalanceOutcome(OutcomeKind.BALANCED_CUT, frozenset({0}), rest, None, False)

    monkeypatch.setattr(driver, "balanced_or_expander", peel_first)
    g = Graph(400, [(v, v + 1, 1.0) for v in range(399)])
    mu = VertexMeasure.from_degrees(g)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        res = decompose(g, mu, 0.1, DecomposeConfig(depth_limit=400), rng=0)
    finally:
        sys.setrecursionlimit(limit)
    assert res.clusters == tuple((v,) for v in range(400))
    assert all(c.kind == "singleton" for c in res.per_cluster)
    assert res.recursion_depth == 399
    assert res.inter_cluster_edge_weight == 399.0


def test_accounting_drift_is_judged_at_the_recount(monkeypatch):
    # two 4-cliques of weight 1e9 joined by two edges of weight 0.5, split
    # between them: the heavy edges set no scale for a recount of 1.0, so a
    # charge that misses the whole crossing weight is a drift
    driver = importlib.import_module("mucut.decompose")

    def split_blocks(g, mu, params, rng, *, log_base=2.0):
        everything = frozenset(range(g.vertex_count))
        if g.vertex_count == 4:
            return BalanceOutcome(OutcomeKind.CERTIFIED, everything, frozenset(), None, False)
        return BalanceOutcome(OutcomeKind.BALANCED_CUT, frozenset(range(4)),
                              everything - frozenset(range(4)), None, False)

    monkeypatch.setattr(driver, "balanced_or_expander", split_blocks)
    edges = clique_edges(range(4)) + clique_edges(range(4, 8))
    g = Graph(8, [(u, v, 1e9 * w) for u, v, w in edges] + [(0, 4, 0.5), (1, 5, 0.5)])
    mu = VertexMeasure.from_degrees(g)
    assert decompose(g, mu, 0.05, rng=0).inter_cluster_edge_weight == 1.0
    monkeypatch.setattr(driver, "cut_weight", lambda g, cut: 0.0)
    with pytest.raises(InvariantViolation, match="drifted"):
        decompose(g, mu, 0.05, rng=0)


def two_weakly_joined_cliques():
    """Two 4-cliques joined by two edges of weight 0.05, measured by degree:
    the split between the cliques has expansion 0.1/12.1 < 0.05/6."""
    g = Graph(8, clique_edges(range(4)) + clique_edges(range(4, 8))
              + [(0, 4, 0.05), (1, 5, 0.05)])
    return g, VertexMeasure.from_degrees(g)


@pytest.mark.parametrize("seed", [0, 1, 2, 4])
def test_game_certified_cluster_below_phi_over_six_is_a_violation(seed):
    # the game certifies the whole graph at these seeds; the brute-forced
    # certificate must expose it rather than return it as a cluster
    g, mu = two_weakly_joined_cliques()
    value, _ = brute_force_expansion(g, mu)
    assert value < 0.05 / 6
    with pytest.raises(InvariantViolation, match="below phi/6"):
        decompose(g, mu, 0.05, rng=seed)
