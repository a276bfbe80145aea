"""Tests of the benchmark's own code: generators, output checks, span wrappers.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import calibrate  # noqa: E402
import mucut  # noqa: E402
import run  # noqa: E402
from mucut import Graph, VertexMeasure, cli, is_connected  # noqa: E402
from spans import LAYERS, Tracer, traced  # noqa: E402
from workloads import (GENERATORS, Instance, degrees, hamiltonian_cycle_slots,  # noqa: E402
                       make_instance, merge_edges, write_instance)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_generators_are_deterministic_per_seed(workload):
    a = make_instance(workload, 7, 1)
    assert a == make_instance(workload, 7, 1)
    assert a != make_instance(workload, 8, 1)
    assert a != make_instance(workload, 7, 2)


@pytest.mark.parametrize("seed", range(5))
def test_regular_graph_has_eight_slots_per_vertex_and_is_connected(seed):
    n = 500
    slots = hamiltonian_cycle_slots(n, 4, np.random.default_rng(seed))
    count = np.zeros(n, dtype=int)
    for u, v, _ in slots:
        assert u != v
        count[u] += 1
        count[v] += 1
    assert (count == 8).all()
    g = Graph(n, [(u, v, w) for (u, v), w in merge_edges(slots).items()])
    assert is_connected(g)
    assert g.weighted_degrees().tolist() == [8.0] * n


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_instances_are_connected(workload):
    inst = make_instance(workload, 3)
    g = Graph(inst.vertex_count, [(u, v, w) for (u, v), w in inst.edges.items()])
    assert is_connected(g)


@pytest.mark.parametrize("seed", range(20))
def test_terminal_measure_has_two_positive_vertices(seed):
    inst = make_instance("terminal-grid", seed)
    positive = [x for x in inst.mu if x > 0.0]
    assert len(positive) == 90 >= 2
    assert all(1.0 <= x <= 4.0 for x in positive)


def test_written_files_load_back_to_the_instance(tmp_path):
    inst = make_instance("planted-decompose", 2)
    gpath, mpath = write_instance(inst, tmp_path, "x")
    g = cli.load_graph(str(gpath))
    mu = cli.load_measure(str(mpath), g)
    assert g.vertex_count == inst.vertex_count
    assert {(u, v): w for u, v, w in g.edges} == inst.edges
    assert mu.values.tolist() == list(inst.mu)


def _small_instance():
    # two triangles joined by one edge; degree measure
    edges = merge_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                         (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0), (2, 3, 1.0)])
    return Instance("tiny", 6, edges, degrees(6, edges), 0.5, 1)


def _result(clusters, weight):
    return mucut.DecompositionResult(clusters=clusters, inter_cluster_edge_weight=weight,
                                     per_cluster=(), recursion_depth=0, params={})


def test_output_check_accepts_a_valid_result_and_flags_broken_ones():
    inst = _small_instance()
    problems, recount = run.check_result(inst, _result(((0, 1, 2), (3, 4, 5)), 1.0))
    assert problems == [] and recount == 1.0
    assert run.check_result(inst, _result(((0, 1, 2), (3, 4)), 1.0))[0]
    assert run.check_result(inst, _result(((0, 1, 2), (2, 3, 4, 5)), 1.0))[0]
    assert run.check_result(inst, _result(((0, 1, 2), (3, 4, 5)), 2.0))[0]
    # the whole graph has expansion 1/7: above phi/6 at phi = 0.5, below it at phi = 6
    whole = _result(((0, 1, 2, 3, 4, 5),), 0.0)
    assert run.check_result(inst, whole)[0] == []
    assert run.check_result(replace(inst, phi=6.0), whole)[0]


def test_output_check_allows_rounding_at_phi_over_six():
    # the whole graph has expansion exactly 1/7 = phi/6 at phi = 6/7
    whole = _result(((0, 1, 2, 3, 4, 5),), 0.0)
    assert run.check_result(replace(_small_instance(), phi=6.0 / 7.0), whole)[0] == []


class _FakeLibrary:
    """Stands in for mucut: decompose returns the given results in turn."""

    def __init__(self, *results):
        self.results = list(results)

    def decompose(self, g, mu, phi, rng):
        return self.results.pop(0)


def test_repeated_calls_on_an_instance_must_give_the_same_clusters():
    inst = _small_instance()
    split = _result(((0, 1, 2), (3, 4, 5)), 1.0)
    whole = _result(((0, 1, 2, 3, 4, 5),), 0.0)
    r = run.Run("tiny")
    lib = _FakeLibrary(split, split, whole, whole)
    assert r.call(lib, 0, inst, None, None, "a")[1] is not None
    assert r.call(lib, 0, inst, None, None, "b")[1] is not None
    assert r.call(lib, 0, inst, None, None, "c")[1] is None
    assert r.call(lib, 1, inst, None, None, "d")[1] is not None
    assert (r.attempted, r.failed) == (4, 1)


def test_reference_workload_is_fixed():
    assert calibrate.reference_work() == (266.0, 18980, 124750.0, 1199997)
    assert "mucut" not in calibrate.__dict__


def test_cluster_digest_ignores_order():
    assert run.cluster_digest([(2, 1), (0,)]) == run.cluster_digest([(0,), (1, 2)])
    assert run.cluster_digest([(0, 1), (2,)]) != run.cluster_digest([(0,), (1, 2)])


def test_wrappers_restore_the_original_functions():
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in LAYERS}
    tr = Tracer()
    with pytest.raises(RuntimeError):
        with traced(tr):
            for (m, a), fn in originals.items():
                assert getattr(importlib.import_module(m), a) is not fn
            raise RuntimeError("restore on error too")
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn
    assert tr.missing == []


def test_decompose_module_is_patched_not_the_package_function():
    tr = Tracer()
    package_fn = mucut.decompose
    with traced(tr):
        assert mucut.decompose is package_fn
        module = sys.modules["mucut.decompose"]
        assert module.induced_subgraph is not mucut.graph.induced_subgraph


def test_traced_decompose_records_nested_spans_and_self_time():
    inst = _small_instance()
    g = Graph(6, [(u, v, w) for (u, v), w in inst.edges.items()])
    mu = VertexMeasure(inst.mu)
    tr = Tracer()
    with traced(tr), tr.span("decompose"):
        mucut.decompose(g, mu, inst.phi, rng=1)
    total, self_time, calls = tr.totals()
    assert calls["decompose"] == 1
    assert calls["game.run_cut_matching"] >= 1
    assert tr.counts["game.rounds"] >= 1
    assert 0.0 <= self_time["decompose"] <= total["decompose"]
    assert tr.spans[0][0] == "decompose"
    assert all(parent >= 0 for _, _, _, parent in tr.spans[1:])


def test_missing_layer_name_is_reported_not_raised():
    tr = Tracer()
    with traced(tr, layers=(("mucut.game", "no_such_layer", "x", None),)):
        pass
    assert tr.missing == ["mucut.game.no_such_layer"]
