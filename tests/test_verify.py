import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mucut import Graph, VertexMeasure, induced_subgraph, mu_expansion_of_cut, verify
from mucut.cli import main
from mucut.errors import GraphInputError
from mucut.graph import Infinite, INFINITE
from mucut.verify import (brute_force_expansion, brute_force_near_expansion,
                          check_embedding_congestion, validate_partition)

from helpers import (clique_edges, conductance_enumerator, exact_expansion_of_cut,
                     near_expansion_enumerator, random_connected_graph, random_measure,
                     write_graph, write_measure)

# A path 1-2-3-4-5-6 with a light edge 4-5, and vertex 0 isolated: 0 and 4
# have measure 0.  The cut S = {1, ..., 6} leaves vertex 0 alone, so the
# rest holds no terminal, yet mu(V) - mu(S) rounds to a positive residue
# when mu(S) is a matrix product; such a cut has ratio 0 and must not count.
ZERO_ALONE_MU = [0.0, 1.0424281357482064, 1.2341522804213403, 1.2564322410958773, 0.0,
                 1.5262115441246182, 1.6263834235330643]
ZERO_ALONE_EDGES = [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 0.001), (5, 6, 1.0)]
ZERO_ALONE_VALUE = 0.001 / (ZERO_ALONE_MU[5] + ZERO_ALONE_MU[6])  # the cut {5, 6}: 3.17e-4


def _hex(value):
    return value if isinstance(value, Infinite) else float(value).hex()


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


def test_expansion_is_exact_to_rounding_at_any_measure_spread():
    # each side's measure summed on its own: mu(A) - mu(S) lost up to 2e-4
    # of the value when mu spans 16 orders of magnitude
    rng = np.random.default_rng(33)
    for _ in range(150):
        n = int(rng.integers(3, 9))
        g = random_connected_graph(rng, n, extra=1.0, weighted=True)
        vals = 10.0 ** rng.uniform(-8.0, 8.0, n)
        vals[rng.random(n) < 0.2] = 0.0
        mu = VertexMeasure(vals)
        a = sorted(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False).tolist())
        side = a[:int(rng.integers(1, len(a)))]
        for got, cut in ((mu_expansion_of_cut(g, mu, side, a), side),
                         brute_force_expansion(g, mu, a)):
            want = None if cut is None else exact_expansion_of_cut(g, mu, cut, a)
            if want is None:
                assert got is INFINITE
            else:
                assert abs(Fraction(got) - want) <= Fraction(1e-15) * want


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
    for a, message in (([], "empty"), (range(21), "<= 20")):
        with pytest.raises(ValueError, match=message):
            brute_force_near_expansion(big, VertexMeasure.from_degrees(big), a)


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
    # ids are read as every vertex set is: floats are not truncated, bools not cast
    for a in ([-1, 0], [4], [0, 1, 4], [0.7, 1.2, 2.9], [True, False, True]):
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
        inner, witness = brute_force_expansion(sub, mu.restrict(order))
        assert near >= inner or near == pytest.approx(inner, rel=1e-12)
        # the same enumeration in g's ids, with no subgraph built: the same bits
        direct, side = brute_force_expansion(g, mu, a)
        assert _hex(direct) == _hex(inner)
        assert side == (None if witness is None else tuple(order[i] for i in witness))


def test_near_expansion_matches_plain_loops():
    # sets with edges leaving them (the graph is connected) and a zero-measure member
    rng = np.random.default_rng(15)
    for _ in range(40):
        n = int(rng.integers(4, 12))
        g = random_connected_graph(rng, n, extra=1.0, weighted=True)
        a = sorted(int(v) for v in rng.choice(n, size=int(rng.integers(2, min(n, 10))),
                                               replace=False))
        vals = random_measure(rng, n, zero_frac=0.3).values.copy()
        vals[a[int(rng.integers(len(a)))]] = 0.0
        mu = VertexMeasure(vals)
        want = near_expansion_enumerator(g, mu, a)
        got = brute_force_near_expansion(g, mu, a)
        if want is None:
            assert got is INFINITE
        else:
            assert got == pytest.approx(want, rel=1e-12)


def test_oracle_memory_follows_a_cell_budget():
    # a chunk of masks once held 2^16 rows of every edge counted: 64.5 MiB
    # on a 16-clique, and 37.7 MiB for 12 vertices with 600 edges leaving them
    clique = Graph(16, clique_edges(range(16)))
    fan = Graph(62, clique_edges(range(12)) + [(u, v, 1.0) for u in range(12)
                                                for v in range(12, 62)])
    for g, a in ((clique, range(16)), (fan, range(12))):
        mu = VertexMeasure.uniform(g.vertex_count)
        for oracle in (brute_force_expansion, brute_force_near_expansion):
            tracemalloc.start()
            try:
                oracle(g, mu, a)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2 ** 20


def test_oracle_results_do_not_depend_on_the_chunk(monkeypatch):
    # mu(S) is a matrix product, whose rounding of a row can depend on its
    # place in the product: a chunk of 1 to 3 masks gave other bits
    rng = np.random.default_rng(34)
    cases = []
    for _ in range(40):
        n = int(rng.integers(4, 13))
        g = random_connected_graph(rng, n, extra=2.0, weighted=True)
        mu = VertexMeasure(random_measure(rng, n, zero_frac=0.2).values
                           * 10.0 ** rng.uniform(-4.0, 4.0, n))
        cases.append((g, mu, sorted(rng.choice(n, size=int(rng.integers(2, n + 1)),
                                               replace=False).tolist())))
    results = []
    for cells in (verify._CHUNK, 1 << 12, 1):
        monkeypatch.setattr(verify, "_CHUNK", cells)
        results.append([repr((brute_force_expansion(g, mu, a),
                              brute_force_near_expansion(g, mu, a))) for g, mu, a in cases])
    assert results[0] == results[1] == results[2]


def test_a_side_without_a_terminal_is_no_cut():
    g, mu = Graph(7, ZERO_ALONE_EDGES), VertexMeasure(ZERO_ALONE_MU)
    value, witness = brute_force_expansion(g, mu)
    assert value == pytest.approx(ZERO_ALONE_VALUE, rel=1e-12)
    assert mu_expansion_of_cut(g, mu, witness) == value
    # the same set inside a larger graph, given in its ids
    bigger = Graph(9, [(u + 2, v + 2, w) for u, v, w in ZERO_ALONE_EDGES] + [(0, 8, 1.0)])
    value, witness = brute_force_expansion(bigger, VertexMeasure([1.0, 1.0] + ZERO_ALONE_MU),
                                           range(2, 9))
    assert value == pytest.approx(ZERO_ALONE_VALUE, rel=1e-12)
    assert witness in ((3, 4, 5, 6), (7, 8))


def test_near_expansion_ignores_a_split_that_isolates_a_zero_measure_vertex():
    g, mu = Graph(7, ZERO_ALONE_EDGES), VertexMeasure(ZERO_ALONE_MU)
    assert brute_force_near_expansion(g, mu, range(7)) == pytest.approx(ZERO_ALONE_VALUE,
                                                                        rel=1e-12)
    # an edge leaving the set at 6 adds to the splits whose S holds 6
    out = Graph(8, ZERO_ALONE_EDGES + [(6, 7, 1.0)])
    mu = VertexMeasure(ZERO_ALONE_MU + [1.0])
    assert brute_force_near_expansion(out, mu, range(7)) == pytest.approx(ZERO_ALONE_VALUE,
                                                                          rel=1e-12)


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


def test_validate_partition_fails_a_cluster_whose_zero_measure_vertex_is_alone():
    g, mu = Graph(7, ZERO_ALONE_EDGES), VertexMeasure(ZERO_ALONE_MU)
    report = validate_partition(g, mu, FakeResult([tuple(range(7))], 0.0), phi=None,
                                check_level=1.0)
    assert report.partition_exact and report.weight_matches
    assert report.clusters[0].expansion == pytest.approx(ZERO_ALONE_VALUE, rel=1e-12)
    assert report.clusters[0].passed is False and not report.all_passed


def test_verify_graph_prints_the_finite_expansion(tmp_path, capsys):
    g, mu = Graph(7, ZERO_ALONE_EDGES), VertexMeasure(ZERO_ALONE_MU)
    assert main(["verify", "--graph", write_graph(tmp_path / "g.txt", g),
                 "--mu", write_measure(tmp_path / "mu.txt", mu)]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["expansion"] == pytest.approx(ZERO_ALONE_VALUE, rel=1e-12)
    assert mu_expansion_of_cut(g, mu, d["witness"]) == d["expansion"]


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
