import json

import numpy as np
import pytest

from mucut import Graph, VertexMeasure, induced_subgraph, mu_expansion_of_cut
from mucut.cli import main
from mucut.errors import GraphInputError
from mucut.graph import Infinite, INFINITE
from mucut.verify import (brute_force_expansion, brute_force_near_expansion,
                          check_embedding_congestion, validate_partition)

from helpers import (clique_edges, conductance_enumerator, random_connected_graph,
                     random_measure, write_graph)


def test_k4_uniform():
    g = Graph(4, clique_edges(range(4)))
    value, witness = brute_force_expansion(g, VertexMeasure([1.0] * 4))
    assert value == 2.0
    assert len(witness) == 2


def test_path_three():
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    value, witness = brute_force_expansion(g, VertexMeasure([1.0] * 3))
    assert value == 1.0
    assert witness in ((2,), (1, 2))


def test_star_with_degree_measure():
    g = Graph(6, [(0, v, 1.0) for v in range(1, 6)])
    value, witness = brute_force_expansion(g, VertexMeasure.from_degrees(g))
    assert value == 1.0
    assert witness == (1,)  # lexicographically smallest leaf cut


def test_witness_value_reproduces():
    rng = np.random.default_rng(31)
    for _ in range(25):
        g = random_connected_graph(rng, int(rng.integers(2, 11)), extra=1.0, weighted=True)
        mu = random_measure(rng, g.vertex_count, zero_frac=0.3)
        value, witness = brute_force_expansion(g, mu)
        if isinstance(value, Infinite):
            assert witness is None
        else:
            assert mu_expansion_of_cut(g, mu, witness) == value


def test_no_positive_measure_cut_is_infinite():
    g = Graph(2, [(0, 1, 1.0)])
    value, witness = brute_force_expansion(g, VertexMeasure([1.0, 0.0]))
    assert value is INFINITE and witness is None


def test_size_caps():
    g = Graph(1, [])
    with pytest.raises(ValueError):
        brute_force_expansion(g, VertexMeasure([1.0]))
    big = Graph(21, [(i, i + 1, 1.0) for i in range(20)])
    with pytest.raises(ValueError):
        brute_force_expansion(big, VertexMeasure.from_degrees(big))


def test_near_expansion_whole_set_matches_expansion():
    rng = np.random.default_rng(12)
    for _ in range(15):
        g = random_connected_graph(rng, 8, extra=1.0, weighted=True)
        mu = random_measure(rng, 8, zero_frac=0.2)
        whole = brute_force_near_expansion(g, mu, range(8))
        direct, _ = brute_force_expansion(g, mu)
        if isinstance(direct, Infinite):
            assert isinstance(whole, Infinite)
        else:
            assert whole == pytest.approx(direct, rel=1e-12)


def test_near_expansion_singleton_infinite():
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert brute_force_near_expansion(g, VertexMeasure([1.0] * 3), [1]) is INFINITE


def test_near_expansion_rejects_out_of_range_ids():
    g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    mu = VertexMeasure.from_degrees(g)
    for a in ([-1, 0], [4], [0, 1, 4]):
        with pytest.raises(GraphInputError):
            brute_force_near_expansion(g, mu, a)


def test_near_expansion_dominates_induced_expansion():
    # outside edges only add to the numerator, never the denominator
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(5, 13))
        g = random_connected_graph(rng, n, extra=1.5, weighted=True)
        mu = random_measure(rng, n, zero_frac=0.2)
        size = int(rng.integers(2, n))
        a = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
        near = brute_force_near_expansion(g, mu, a)
        sub, order = induced_subgraph(g, a)
        inner, _ = brute_force_expansion(sub, mu.restrict(order)) if len(order) >= 2 \
            else (INFINITE, None)
        assert near >= inner or near == pytest.approx(inner, rel=1e-12)


def test_conductance_specialization_matches_enumerator():
    rng = np.random.default_rng(14)
    for _ in range(40):
        g = random_connected_graph(rng, int(rng.integers(3, 11)), extra=1.0)
        value, _ = brute_force_expansion(g, VertexMeasure.from_degrees(g))
        assert value == conductance_enumerator(g)


class FakeResult:
    def __init__(self, clusters, weight):
        self.clusters = clusters
        self.inter_cluster_edge_weight = weight


def test_validate_partition_passes_good_result():
    edges = clique_edges(range(4)) + clique_edges(range(4, 8)) + [(0, 4, 1.0)]
    g = Graph(8, edges)
    mu = VertexMeasure.from_degrees(g)
    res = FakeResult([(0, 1, 2, 3), (4, 5, 6, 7)], 1.0)
    report = validate_partition(g, mu, res, phi=0.05)
    assert report.partition_exact and report.weight_matches and report.all_passed
    assert all(c.passed for c in report.clusters)


def test_validate_partition_flags_overlap():
    g = Graph(4, clique_edges(range(4)))
    mu = VertexMeasure.from_degrees(g)
    res = FakeResult([(0, 1, 2), (2, 3)], 0.0)
    report = validate_partition(g, mu, res, phi=0.05)
    assert not report.partition_exact
    assert not report.all_passed


def test_validate_partition_survives_garbage_ids():
    g = Graph(4, clique_edges(range(4)))
    mu = VertexMeasure.from_degrees(g)
    res = FakeResult([(0, 1, 99), (2, 3)], 0.0)
    report = validate_partition(g, mu, res, phi=0.05)
    assert not report.partition_exact
    assert not report.all_passed
    assert report.clusters[0].passed is False


def test_validate_partition_flags_bad_weight():
    g = Graph(4, clique_edges(range(4)))
    mu = VertexMeasure.from_degrees(g)
    res = FakeResult([(0, 1), (2, 3)], 0.5)  # true crossing weight is 4
    report = validate_partition(g, mu, res, phi=0.05)
    assert report.partition_exact
    assert not report.weight_matches


@pytest.mark.parametrize("check_level", [0.0, -1.0, float("inf"), float("nan")])
def test_validate_partition_rejects_check_level_not_positive_and_finite(check_level):
    # on K4, -1 would pass every cluster and nan would fail every one
    g = Graph(4, clique_edges(range(4)))
    mu = VertexMeasure.from_degrees(g)
    with pytest.raises(ValueError, match="check_level"):
        validate_partition(g, mu, FakeResult([(0, 1), (2, 3)], 4.0), phi=0.05,
                           check_level=check_level)


def test_validate_partition_weight_check_is_relative():
    # two 4-cliques joined by two edges, every weight 1e-10: the recount is
    # 2e-10, and a reported 0 is wrong in any units
    edges = clique_edges(range(4)) + clique_edges(range(4, 8)) + [(0, 4, 1.0), (1, 5, 1.0)]
    g = Graph(8, [(u, v, 1e-10 * w) for u, v, w in edges])
    mu = VertexMeasure.from_degrees(g)
    clusters = [(0, 1, 2, 3), (4, 5, 6, 7)]
    assert validate_partition(g, mu, FakeResult(clusters, 2e-10), phi=0.05).weight_matches
    report = validate_partition(g, mu, FakeResult(clusters, 0.0), phi=0.05)
    assert not report.weight_matches
    assert not report.all_passed


def test_validate_partition_weight_check_ignores_heavy_cluster_edges():
    # two 4-cliques of weight 1e9 joined by two edges of weight 0.5: the
    # heavy edges inside the clusters set no scale for the recount of 1.0
    edges = clique_edges(range(4)) + clique_edges(range(4, 8))
    g = Graph(8, [(u, v, 1e9 * w) for u, v, w in edges] + [(0, 4, 0.5), (1, 5, 0.5)])
    mu = VertexMeasure.from_degrees(g)
    clusters = [(0, 1, 2, 3), (4, 5, 6, 7)]
    assert validate_partition(g, mu, FakeResult(clusters, 1.0), phi=0.05).weight_matches
    report = validate_partition(g, mu, FakeResult(clusters, 0.0), phi=0.05)
    assert not report.weight_matches
    assert not report.all_passed


@pytest.mark.parametrize("cap", [21, 0])
def test_validate_partition_rejects_a_size_cap_out_of_range(cap):
    g = Graph(22, clique_edges(range(22)))
    res = FakeResult([tuple(range(22))], 0.0)
    with pytest.raises(ValueError, match="max_n"):
        validate_partition(g, VertexMeasure.from_degrees(g), res, phi=0.05, max_n=cap)


def test_validate_partition_serializes(tmp_path, capsys):
    # the report reaches JSON through `verify --partition`
    g = Graph(4, clique_edges(range(4)))
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"clusters": [[0, 1, 2, 3]], "inter_cluster_edge_weight": 0.0}))
    assert main(["verify", "--graph", write_graph(tmp_path / "g.txt", g),
                 "--partition", str(part), "--phi", "0.05"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["partition_exact"] is True
    assert isinstance(d["clusters"], list)


def test_congestion_single_edge():
    g = Graph(2, [(0, 1, 1.0)])
    assert check_embedding_congestion(g, [(0, 1, 0.75, (0, 1))]) == 0.75


def test_congestion_empty():
    g = Graph(2, [(0, 1, 1.0)])
    assert check_embedding_congestion(g, []) == 0.0


def test_congestion_weighted_edges_divide():
    g = Graph(3, [(0, 1, 2.0), (1, 2, 0.5)])
    paths = [(0, 2, 1.0, (0, 1, 2))]
    assert check_embedding_congestion(g, paths) == pytest.approx(2.0)  # 1.0/0.5


def test_congestion_rejects_non_edges():
    g = Graph(3, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        check_embedding_congestion(g, [(0, 2, 1.0, (0, 2))])
    with pytest.raises(ValueError):  # -2 is no alias of vertex 1
        check_embedding_congestion(g, [(0, 0, 1.0, (-2, 0))])
