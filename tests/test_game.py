import gc
import math

import numpy as np
import pytest

from mucut import (ActiveState, Graph, GameParams, Variant, VertexMeasure, WalkOperator,
                   cut_weight, induced_subgraph, mu_expansion_of_cut, potentials,
                   run_cut_matching)
from mucut import game
from mucut.cli import main
from mucut.game import RITZ_MIN_TERMINALS
from mucut.spectral import potential, sample_unit_vector
from mucut.verify import check_embedding_congestion

from helpers import (clique_edges, dense_walk_and_potential, dumbbell_graph, extended_potential,
                     matching_row_sums, psi_sequence, random_connected_graph, random_measure,
                     write_graph)
from test_decompose import two_weakly_joined_cliques
from test_golden import GOLDEN, LARGE_GOLDEN, game_digest, large_whisker


def test_params_defaults():
    g = Graph(8, clique_edges(range(8)))
    mu = VertexMeasure.from_degrees(g)
    p = GameParams.for_graph(g, mu, phi=0.01)
    assert p.rounds_T == 18  # ceil(2 * 3^2)
    assert p.capacity_c == 48  # round(1 / (0.01 * ln 8))
    assert p.delta == 1
    assert p.stop_threshold == pytest.approx(mu.total * 48 * 0.01 / 70.0)


def test_params_validation():
    g = Graph(8, clique_edges(range(8)))
    mu = VertexMeasure.from_degrees(g)
    for phi in (0.0, -0.1, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="phi"):
            GameParams(phi=phi, rounds_T=1, capacity_c=1, delta=1, stop_threshold=0.0)
        with pytest.raises(ValueError, match="phi"):
            GameParams.for_graph(g, mu, phi)
    for bad in (float("inf"), float("-inf"), float("nan"), 0.0, -5.0):
        for name in ("t_factor", "c_factor"):
            with pytest.raises(ValueError, match=name):
                GameParams.for_graph(g, mu, 0.1, **{name: bad})
    with pytest.raises(ValueError):
        GameParams(phi=0.1, rounds_T=1, capacity_c=1, delta=3, stop_threshold=0.0)


def test_single_vertex_certifies():
    g = Graph(1, [])
    mu = VertexMeasure([1.0])
    out = run_cut_matching(g, mu, GameParams.for_graph(g, mu, 0.1), np.random.default_rng(0))
    assert out.variant is Variant.CERTIFIED_EXPANDER
    assert out.note is not None


def test_single_terminal_certifies_with_note():
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    mu = VertexMeasure([0.0, 5.0, 0.0])
    out = run_cut_matching(g, mu, GameParams.for_graph(g, mu, 0.1), np.random.default_rng(0))
    assert out.variant is Variant.CERTIFIED_EXPANDER
    assert "terminal" in out.note


def test_disconnected_graph_rejected():
    g = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    mu = VertexMeasure([1.0] * 4)
    with pytest.raises(ValueError):
        run_cut_matching(g, mu, GameParams.for_graph(g, mu, 0.1), np.random.default_rng(0))


def test_zero_measure_graph_certifies_with_note():
    g = Graph(2, [(0, 1, 1.0)])
    mu = VertexMeasure([0.0, 0.0])
    out = run_cut_matching(g, mu, GameParams.for_graph(g, mu, 0.1), np.random.default_rng(0))
    assert out.variant is Variant.CERTIFIED_EXPANDER
    assert out.note is not None


@pytest.mark.parametrize("seed", range(20))
def test_k8_certifies_across_seeds(seed):
    g = Graph(8, clique_edges(range(8)))
    mu = VertexMeasure.from_degrees(g)
    params = GameParams.for_graph(g, mu, phi=0.01)
    out = run_cut_matching(g, mu, params, np.random.default_rng(seed))
    assert out.variant is Variant.CERTIFIED_EXPANDER
    assert not out.r_side


def test_k8_certificate_confirmed_by_brute_force():
    from mucut.verify import brute_force_expansion
    g = Graph(8, clique_edges(range(8)))
    mu = VertexMeasure.from_degrees(g)
    value, _ = brute_force_expansion(g, mu)
    assert value >= 0.01  # the certified level is genuinely met


def test_walk_and_projections_match_dense_oracle_in_game():
    # after several real rounds, both the matvec and the projection vector
    # agree with the densely materialized walk
    rng = np.random.default_rng(606)
    g = random_connected_graph(rng, 8, extra=1.0)
    mu = random_measure(rng, 8, zero_frac=0.2)
    params = GameParams.for_graph(g, mu, 0.2)
    out = run_cut_matching(g, mu, params, rng)
    w = out.walk
    dense_w, _ = dense_walk_and_potential(w)
    check_rng = np.random.default_rng(1)
    for _ in range(5):
        x = check_rng.standard_normal(8)
        assert np.abs(w.apply(x) - dense_w @ x).max() < 1e-8
    from mucut.spectral import projections
    for _ in range(5):
        r = sample_unit_vector(8, check_rng)
        u = projections(w, r)
        expected = mu.inv_sqrt * (dense_w @ r)
        expected[~w.state.mask] = 0.0
        assert np.abs(u - expected).max() < 1e-8


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_dumbbell_yields_sparse_cut(seed):
    g = dumbbell_graph(8)
    mu = VertexMeasure.from_degrees(g)
    params = GameParams.for_graph(g, mu, phi=0.05)
    out = run_cut_matching(g, mu, params, np.random.default_rng(seed))
    assert out.variant in (Variant.BALANCED_CUT, Variant.NEAR_EXPANDER_CUT)
    value = mu_expansion_of_cut(g, mu, out.r_side)
    assert value <= 7.0 / params.capacity_c + 1e-9
    mu_r, mu_a = mu.of(out.r_side), mu.of(out.a_side)
    if out.variant is Variant.BALANCED_CUT:
        assert min(mu_r, mu_a) >= min(params.stop_threshold, mu.total / 3.0) - 1e-9
    else:
        assert mu_r <= params.stop_threshold + 1e-12


def run_game(seed, n=14, phi=0.1, extra=1.0, zero_frac=0.2):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra=extra)
    mu = random_measure(rng, n, zero_frac=zero_frac)
    params = GameParams.for_graph(g, mu, phi)
    out = run_cut_matching(g, mu, params, rng)
    return g, mu, params, out


def test_matchings_share_the_measure_and_hold_no_dense_array():
    # a round keeps its pairs; its diagonal is derived from them and mu
    g, mu, params, out = run_game(31, n=40, zero_frac=0.5)
    n = g.vertex_count
    assert len(out.rounds) > 1
    for rec in out.rounds:
        m = rec.matching
        assert m.mu_values is mu.values
        held = [a for a in gc.get_referents(m) if isinstance(a, np.ndarray)]
        assert held and all(a is mu.values or len(a) < n for a in held)


@pytest.mark.parametrize("seed", range(10))
def test_evolution_invariants(seed):
    g, mu, params, out = run_game(1000 + seed)
    n = g.vertex_count
    active = set(range(n))
    removed = set()
    prev_mu_r = 0.0
    for rec in out.rounds:
        assert set(rec.active_before) == active
        assert rec.removed <= active
        active -= rec.removed
        removed |= rec.removed
        assert active.isdisjoint(removed)
        assert active | removed == set(range(n))
        assert mu.of(removed) >= prev_mu_r - 1e-12  # monotone removal measure
        prev_mu_r = mu.of(removed)
    assert out.a_side == frozenset(active)
    assert out.r_side == frozenset(removed)


@pytest.mark.parametrize("seed", range(10))
def test_round_records_rederive(seed):
    g, mu, params, out = run_game(2000 + seed, n=12)
    for rec in out.rounds:
        # matching rows always sum to the measure
        assert np.abs(matching_row_sums(rec.matching) - mu.values).max() < 1e-9
        if rec.removed:
            sub, order = induced_subgraph(g, rec.active_before)
            local = {v: i for i, v in enumerate(order)}
            side = {local[v] for v in rec.removed}
            sub_mu = mu.restrict(order)
            crossing = cut_weight(sub, side)
            denom = min(sub_mu.of(side), sub_mu.total - sub_mu.of(side))
            assert denom > 0
            assert crossing / denom <= 7.0 / params.capacity_c + 1e-9
            assert sub_mu.total - sub_mu.of(side) >= sub_mu.total / 3.0 - 1e-9
        # paths live inside the active subgraph and congest at most c
        for _, _, _, seq in rec.paths:
            assert set(seq) <= set(rec.active_before)
        assert check_embedding_congestion(g, rec.paths) <= params.capacity_c * (1 + 1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_cumulative_congestion_and_cut(seed):
    g, mu, params, out = run_game(3000 + seed, n=16, phi=0.05)
    all_paths = [p for rec in out.rounds for p in rec.paths]
    assert check_embedding_congestion(g, all_paths) \
        <= params.capacity_c * len(out.rounds) * (1 + 1e-9)
    if out.r_side:
        assert mu_expansion_of_cut(g, mu, out.r_side) \
            <= 7.0 / params.capacity_c + 1e-9


def test_psi_starts_at_terminal_count_minus_one():
    g, mu, params, out = run_game(4242, n=12)
    seq = psi_sequence(g, mu, out, params.delta)
    assert seq[0] == pytest.approx(len(mu.support) - 1, abs=1e-9)


def test_psi_nonincreasing_within_one_run():
    g, mu, params, out = run_game(515, n=12, phi=0.2)
    seq = psi_sequence(g, mu, out, params.delta)
    for a, b in zip(seq, seq[1:]):
        assert b <= a + 1e-9


def test_trace_psi_matches_offline_recompute(tmp_path):
    # the psi column of `sparse-cut --trace` against psi recomputed from the
    # records of the same game (the CLI's measure is the weighted degrees)
    g = dumbbell_graph(6)
    mu = VertexMeasure.from_degrees(g)
    params = GameParams.for_graph(g, mu, 0.05)
    out = run_cut_matching(g, mu, params, np.random.default_rng(8))
    seq = psi_sequence(g, mu, out, params.delta)
    trace = tmp_path / "trace.csv"
    assert main(["sparse-cut", "--graph", write_graph(tmp_path / "g.txt", g), "--phi", "0.05",
                 "--seed", "8", "--json-out", str(tmp_path / "out.json"),
                 "--trace", str(trace)]) == 0
    psis = [float(line.split(",")[4]) for line in trace.read_text().splitlines()[1:]]
    assert len(psis) == len(out.rounds)
    for psi, expected in zip(psis, seq[1:]):
        assert psi == pytest.approx(expected, abs=1e-9)


def test_same_seed_reproduces_run():
    a = run_game(77)[3]
    b = run_game(77)[3]
    assert a.variant == b.variant
    assert a.a_side == b.a_side and a.r_side == b.r_side
    assert len(a.rounds) == len(b.rounds)
    for ra, rb in zip(a.rounds, b.rounds):
        assert ra.matching.off_diagonal == rb.matching.off_diagonal


def random_early_stop(delta=None):
    # a 30-vertex game that mixes in about 30 of its T = 49 rounds
    rng = np.random.default_rng(4)
    g = random_connected_graph(rng, 30, extra=2.0)
    mu = VertexMeasure.from_degrees(g)
    return g, mu, GameParams.for_graph(g, mu, 0.1, delta=delta), rng


def golden_game(make):
    g, mu, phi, seed = make()
    return g, mu, GameParams.for_graph(g, mu, phi), np.random.default_rng(seed)


STOP_CASES = {f"golden-{make.__name__}": (lambda make=make: golden_game(make)) for make in GOLDEN}
STOP_CASES["random-delta1"] = random_early_stop
STOP_CASES["random-delta2"] = lambda: random_early_stop(delta=2)


@pytest.mark.parametrize("case", list(STOP_CASES))
def test_game_stops_at_the_first_mixed_product_round(case):
    g, mu, params, rng = STOP_CASES[case]()
    out = run_cut_matching(g, mu, params, rng)
    assert len(out.rounds) <= params.rounds_T
    k = len(mu.support)
    tau = 1.0 / (16.0 * k * k)
    psis = potentials(out.rounds, mu, params.delta)
    taken = out.walk.product_round  # rounds in the product when the game formed it
    chain = WalkOperator([], params.delta, ActiveState(range(g.vertex_count), mu))
    for rec in out.rounds:
        chain.extend(rec.matching)
    # the game forms the product no later than the chain-size rule would
    assert chain.product_round is None or (taken is not None and taken <= chain.product_round)
    checked = [] if taken is None else psis[taken - 1:]  # the game's psi after each round
    assert all(psi > tau for psi in checked[:-1])
    stopped = len(out.rounds) < params.rounds_T and out.variant is not Variant.BALANCED_CUT
    if stopped:
        assert 1 <= taken <= len(out.rounds)
        # the product came early enough: no earlier round had mixed
        assert all(psi > tau for psi in psis[:-1])
        psi = potential(out.walk.product, out.walk.state, params.delta)  # the game's last check
        assert psi <= tau
        assert psi == psis[-1] == checked[-1]
    # planted_blocks' game ends at its removal threshold; every other one mixes before T
    assert stopped == (case != "golden-planted_blocks")


@pytest.mark.parametrize("seed", [0, 1, 2, 4, 5])
def test_unmixed_two_cliques_game_plays_every_round(seed):
    # psi stays at 2.9-4.5, far above tau: the game certifies at T, as before
    g, mu = two_weakly_joined_cliques()
    params = GameParams.for_graph(g, mu, 0.05)
    out = run_cut_matching(g, mu, params, np.random.default_rng(seed))
    assert out.variant is Variant.CERTIFIED_EXPANDER
    assert len(out.rounds) == params.rounds_T == 18
    assert out.walk.product is not None
    assert potential(out.walk.product, out.walk.state, params.delta) > 1.0


@pytest.mark.parametrize("case", list(STOP_CASES))
def test_stop_potential_rounding_within_the_stated_bound(case):
    # the game module's bound on ||fl(G^delta) - G^delta||_F, which the factor
    # 16 in tau covers up to 3/(4k), against psi in extended precision
    g, mu, params, rng = STOP_CASES[case]()
    out = run_cut_matching(g, mu, params, rng)
    k, t, delta = len(mu.support), len(out.rounds), params.delta
    d = max(np.bincount(np.ravel([p[:2] for p in rec.matching.off_diagonal]), minlength=1).max()
            for rec in out.rounds if rec.matching.off_diagonal)
    u = 2.0 ** -53
    eta = 2 * ((d + 6) * t + k + 4) * u
    bound = np.sqrt(k) * (2 * delta * eta + 304 * k * u)
    assert bound <= 3 / (4 * k)
    got = potentials(out.rounds, mu, delta)[-1]
    exact = extended_potential(out.rounds, mu, delta)
    assert abs(np.sqrt(got) - np.sqrt(exact)) <= bound


def test_ritz_bound_changes_no_stop(monkeypatch):
    # with the bound proving nothing, every round from the product on runs the
    # exact check, and the game plays the same rounds to the same stop
    want_game, want_rounds, want_product_round = LARGE_GOLDEN[:3]
    g, mu, phi, seed = large_whisker()
    assert len(mu.support) >= RITZ_MIN_TERMINALS
    params = GameParams.for_graph(g, mu, phi)
    monkeypatch.setattr(game, "potential_bound", lambda c, state, delta, v: (-math.inf, v))
    out = run_cut_matching(g, mu, params, np.random.default_rng(seed))
    assert len(out.rounds) == want_rounds < params.rounds_T
    assert out.walk.product_round == want_product_round
    assert out.psi_checks == want_rounds - want_product_round + 1
    assert game_digest(out) == want_game


def test_ritz_bound_draws_nothing_from_the_game_generator():
    # and with it, one or two exact checks, and the game's generator is
    # where one draw per round leaves it
    g, mu, phi, seed = large_whisker()
    rng = np.random.default_rng(seed)
    out = run_cut_matching(g, mu, GameParams.for_graph(g, mu, phi), rng)
    assert 1 <= out.psi_checks <= 2
    fresh = np.random.default_rng(seed)
    for _ in out.rounds:
        sample_unit_vector(g.vertex_count, fresh)
    assert rng.bit_generator.state == fresh.bit_generator.state
