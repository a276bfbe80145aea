"""Exact outputs pinned on small seeded instances.

Each instance pins a SHA-256 of its ``decompose`` clusters and of the full
round records of one ``run_cut_matching`` game: active sets, removed sets,
matching off-diagonals (float bits), diagonal bytes, paths, matched
weights and round cut expansions.  Two more digests pin the whole
``DecompositionResult`` (per-cluster certificate kind and expansion bits,
recursion depth, inter-cluster weight and charge ratio bits, params) and
the per-round rows of the games ``DecomposeConfig.trace_hook`` receives, in
the order they are played: every game draws from one generator, so a
change in the order the driver visits its components shows up here.  A
last set pins the bytes of the CLI's JSON and ``--trace`` CSV, potential
column included.  A refactor that keeps the arithmetic keeps every
digest; a change that moves numerics must say why and pin the new values.
The same instances, with random weighted graphs and a dumbbell, also
check that scaling edge weights and the measure by one factor leaves the
clusters unchanged: the mu-expansion has no units.

The instances cover a planted three-block graph whose game removes a
balanced cut, a grid with zero-measure vertices, a grid with two terminals
whose game has a round without sources, and an expander with a light
whisker: its game removes the whisker and plays on with active vertices
adjacent to removed ones, and its decomposition trims.  A larger expander
with a whisker, on 303 terminals, pins a game whose psi checks the Ritz
bound screens (``game.RITZ_MIN_TERMINALS``).
"""

import hashlib
import json

import numpy as np
import pytest

from mucut import (ActiveState, DecomposeConfig, GameParams, Graph, Infinite, VertexMeasure,
                   WalkOperator, decompose, potentials, run_cut_matching)
from mucut.cli import main
from mucut.game import RITZ_MIN_TERMINALS

from helpers import (dense_walk_and_potential, dumbbell_graph, random_connected_graph,
                     write_graph, write_measure)


def planted_blocks():
    rng = np.random.default_rng(5)
    edges = {}
    for base in (0, 16, 32):
        for i in range(base, base + 16):
            for j in range(i + 1, base + 16):
                if rng.random() < 0.5:
                    edges[(i, j)] = float(rng.uniform(0.5, 2.0))
    for u, v in ((3, 20), (18, 40), (7, 45)):
        edges[(u, v)] = 1.0
    g = Graph(48, [(u, v, w) for (u, v), w in sorted(edges.items())])
    return g, VertexMeasure.from_degrees(g), 0.05, 11


def grid(rows, cols, rng):
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1, float(rng.uniform(0.5, 2.0))))
            if i + 1 < rows:
                edges.append((v, v + cols, float(rng.uniform(0.5, 2.0))))
    return Graph(rows * cols, edges)


def terminal_grid():
    rng = np.random.default_rng(5)
    g = grid(6, 8, rng)
    vals = np.where(rng.random(48) < 0.3, rng.uniform(0.5, 3.0, 48), 0.0)
    return g, VertexMeasure(vals), 0.1, 11


def two_terminal_grid():
    g = Graph(24, [(v, v + 1, 1.0) for v in range(24) if v % 6 < 5]
              + [(v, v + 6, 1.0) for v in range(18)])
    rng = np.random.default_rng(2)
    terminals = rng.choice(24, 2, replace=False)
    vals = np.zeros(24)
    vals[terminals] = rng.uniform(1.0, 3.0, 2)
    return g, VertexMeasure(vals), 0.1, 0


def whiskered_cycles(core, seed):
    # 8-regular multigraph on `core` vertices (four random Hamiltonian
    # cycles), plus a 3-vertex path hung off one vertex by a 0.05 edge; the
    # path vertices carry measure 0.1 each
    rng = np.random.default_rng(seed)
    edges = {}
    for _ in range(4):
        order = rng.permutation(core).tolist()
        for i in range(core):
            u, v = order[i], order[(i + 1) % core]
            key = (min(u, v), max(u, v))
            edges[key] = edges.get(key, 0.0) + 1.0
    anchor = int(rng.integers(core))
    edges[(anchor, core)] = 0.05
    edges[(core, core + 1)] = 1.0
    edges[(core + 1, core + 2)] = 1.0
    g = Graph(core + 3, [(u, v, w) for (u, v), w in sorted(edges.items())])
    vals = np.array(g.weighted_degrees())
    vals[core:] = 0.1
    return g, VertexMeasure(vals), 0.05, seed


def light_whisker():
    return whiskered_cycles(56, 0)


def large_whisker():
    # 303 terminals: the one pinned game at or above game.RITZ_MIN_TERMINALS,
    # whose psi checks the Ritz bound screens
    return whiskered_cycles(300, 0)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def hexf(x):
    return None if x is None else float(x).hex()


def clusters_digest(clusters) -> str:
    return digest(sorted(sorted(int(v) for v in c) for c in clusters))


def game_digest(out) -> str:
    rounds = []
    for rec in out.rounds:
        rounds.append({
            "index": rec.index,
            "active_before": list(rec.active_before),
            "removed": sorted(rec.removed),
            "off_diagonal": [[u, v, hexf(w)] for u, v, w in rec.matching.off_diagonal],
            "diagonal": rec.matching.diagonal.tobytes().hex(),
            "paths": [[a, b, hexf(w), list(seq)] for a, b, w, seq in rec.paths],
            "matched_weight": hexf(rec.matched_weight),
            "cut_expansion": hexf(rec.cut_expansion),
        })
    return digest({"variant": out.variant.value, "a_side": sorted(out.a_side),
                   "r_side": sorted(out.r_side), "rounds": rounds})


def expansion_key(x):
    return "infinite" if isinstance(x, Infinite) else hexf(x)


def result_digest(res) -> str:
    return digest({
        "clusters": [list(c) for c in res.clusters],
        "certificates": [[c.kind, expansion_key(c.expansion)] for c in res.per_cluster],
        "recursion_depth": res.recursion_depth,
        "inter_cluster_edge_weight": hexf(res.inter_cluster_edge_weight),
        "charge_ratio": hexf(res.charge_ratio),
        "params": {k: hexf(v) if isinstance(v, float) else v
                   for k, v in sorted(res.params.items())},
    })


def trace_digest(games) -> str:
    """Per game, one row per round read off its records: index, active size
    after the round, measure removed so far, matched weight, and an empty
    potential (the library computes none)."""
    rows = []
    for game in games:
        removed: frozenset = frozenset()
        game_rows = []
        for rec in game.rounds:
            removed = removed | rec.removed
            game_rows.append([rec.index, len(rec.active_before) - len(rec.removed),
                              hexf(game.walk.measure.of(removed)), hexf(rec.matched_weight),
                              None])
        rows.append(game_rows)
    return digest(rows)


# instance -> (clusters digest, game digest, rounds, rounds that remove a cut,
#              rounds without sources)
GOLDEN = {
    planted_blocks: (
        "895ed137d83fdeb4104649d7579603c30514695f91c8d59c86740d4dff75c4d3",
        "045cb181510d5d0e606712e5cd137f758f995d38ea77e3db19d65d359195bd20", 9, 1, 0),
    terminal_grid: (
        "d26fc37e6fcf876c23fa0db6826bff407cc0c52519985856a36ad551970ab01e",
        "ad7bf3337c04ac520df2feebdf048afe54c368854c428fb308846b74893cfb51", 35, 0, 0),
    two_terminal_grid: (
        "94f3cf6134b64acc1f2129fdcd2d47181bf7d3201ef5c129bfd854b1c3a22d7b",
        "4be821f453c6b69d84200c1b48b7c2c9cb274feb44376bd5907d1bad094edf86", 2, 0, 0),
    light_whisker: (
        "23594f26c1225d1e2f4ec9fc84a7b4c62d13aa946f4c03b2434bfbea3306d63d",
        "c02e5b6b7a3e9b6240e5c72091e24dc207c88c917a1089c97d49d8f1c0d45767", 45, 1, 0),
}


# instance -> whether its game's walk ends as one k x k product: planted_blocks'
# 9 rounds on 48 terminals stay below the k^2 switch, so the pins cover both
# walk paths (its decomposition's 16-vertex games switch).  The other three
# games end at the first round after the switch whose psi is at most
# 1/(16 k^2), before their T rounds.
WALK_PRODUCT = {planted_blocks: False, terminal_grid: True, two_terminal_grid: True,
                light_whisker: True}


@pytest.mark.parametrize("make", list(GOLDEN), ids=lambda f: f.__name__)
def test_pinned_outputs(make):
    g, mu, phi, seed = make()
    want_clusters, want_game, want_rounds, want_cuts, want_idle = GOLDEN[make]
    out = run_cut_matching(g, mu, GameParams.for_graph(g, mu, phi), np.random.default_rng(seed))
    assert (out.walk.product is not None) == WALK_PRODUCT[make]
    assert len(out.rounds) == want_rounds
    assert sum(1 for rec in out.rounds if rec.removed) == want_cuts
    assert sum(1 for rec in out.rounds if not rec.removed and not rec.paths) == want_idle
    assert game_digest(out) == want_game
    assert clusters_digest(decompose(g, mu, phi, rng=seed).clusters) == want_clusters


# (game digest, rounds, rounds in the walk's product when formed, clusters
# digest, result digest), taken with every psi check run exactly
LARGE_GOLDEN = (
    "0eb58de3a2de664bc15a76f82837c2f2f79331e49e9409e66b5f59b433cdfdb9", 58, 47,
    "ff341405f57d4f6c13a5df7650ee7470f451f542bb711367f2a71f2b069506a9",
    "1abe7591724e2b4a6c03f9bfe80636a6e9ab9bbdd9c2183cd20eb6581d57073e")


def test_pinned_large_game():
    # the Ritz bound only decides which rounds run the exact check, so it
    # leaves every bit as the exact check alone left it
    g, mu, phi, seed = large_whisker()
    want_game, want_rounds, want_product_round, want_clusters, want_result = LARGE_GOLDEN
    assert len(mu.support) >= RITZ_MIN_TERMINALS
    out = run_cut_matching(g, mu, GameParams.for_graph(g, mu, phi), np.random.default_rng(seed))
    assert (len(out.rounds), out.walk.product_round) == (want_rounds, want_product_round)
    assert game_digest(out) == want_game
    res = decompose(g, mu, phi, rng=seed)
    assert clusters_digest(res.clusters) == want_clusters
    assert result_digest(res) == want_result


# instance -> (result digest, trace digest, games played by decompose)
DECOMPOSE_GOLDEN = {
    planted_blocks: (
        "928486fdf3b50c20feaa2fc9413885bc4c5bff97fb6a7b0788672c3066188d82",
        "c62cff18d28f12425084fb6c60749233f147a65e88368aeeabe8d05570312e55", 5),
    terminal_grid: (
        "9482c7cdffe7dda65f126f8a2cd204fab246a336eb8e870eb7b69ff04cdbd275",
        "fa5bb44e0ccb66f0ff9007a4cbc3fc9f08dc753f6a2e4bfb8f1d25ce58d0165f", 1),
    two_terminal_grid: (
        "5c3e9a5da03bc70d3f94a0d38e9466ac5510c3941ee5cae4607e62311180e704",
        "1987d760980b92b088fb09f9fbb85a68d6cc4b1a46276bf4c85a280bbf46cb2a", 1),
    light_whisker: (
        "a059e2d6b796ca09634514c1d37b1d58c1a03ac8bded2d1f2032be784100ac42",
        "89f331fe380ef89a159636385d2b6c274117faf2348a36cce59c22005f8444c4", 2),
}


@pytest.mark.parametrize("make", list(DECOMPOSE_GOLDEN), ids=lambda f: f.__name__)
def test_pinned_decomposition(make):
    g, mu, phi, seed = make()
    want_result, want_trace, want_games = DECOMPOSE_GOLDEN[make]
    games = []
    res = decompose(g, mu, phi, DecomposeConfig(trace_hook=games.append), rng=seed)
    assert len(games) == want_games
    assert any(game.walk.product is not None for game in games)
    assert trace_digest(games) == want_trace
    assert result_digest(res) == want_result


# (instance, command, flags) -> (JSON SHA-256, trace CSV SHA-256); light_whisker
# reads its measure file, planted_blocks the default measure (weighted degrees)
CLI_GOLDEN = {
    (light_whisker, "decompose", ("--mu",)): (
        "dc8b3cdcbe18ee0a7eaf909899cffb502e21555b870bb091fc751f263a21246b",
        "c66f29f42c7d2a0b32b3679f438fb5c4c3df951160493f3b56f6be0f14b660b3"),
    (light_whisker, "sparse-cut", ("--mu",)): (
        "2373ea6fbc3003e0ccaaf86e72e67c60b8134b5e83a46a363d8b9f6674bf8416",
        "92a8783fb24066d1f57e9febbfdccf95867141a9b759059424985f801751222a"),
    (planted_blocks, "decompose", ()): (
        "20b3f84c7b20577af1b50db396f1c2b853def5785a2a7c03e5f83b14ee315d1a",
        "5722d64c6fd480ae2baf055d1d9d6ccab638aa1d34a44e976a4cbcd4ecdc8386"),
    (planted_blocks, "sparse-cut", ()): (
        "17077ba34eee6ccff6c89c6f5ea68790a9c69c4f628516e5de0e2883c1f3bbd7",
        "d682bfd8a8a938b628a0dbc9a9660d041ad4fc9e4876bbf040da9f675646345a"),
}


@pytest.mark.parametrize("case", list(CLI_GOLDEN),
                         ids=lambda c: f"{c[0].__name__}-{c[1]}")
def test_pinned_cli_bytes(case, tmp_path):
    make, command, flags = case
    g, mu, phi, seed = make()
    out, trace = tmp_path / "out.json", tmp_path / "trace.csv"
    argv = [command, "--graph", write_graph(tmp_path / "g.txt", g), "--phi", repr(phi),
            "--seed", str(seed), "--json-out", str(out), "--trace", str(trace)]
    if flags == ("--mu",):
        argv += ["--mu", write_measure(tmp_path / "mu.txt", mu)]
    assert main(argv) == 0
    rows = trace.read_text().splitlines()[1:]
    assert rows and all(row.split(",")[4] for row in rows)  # psi on every row
    sha = (hashlib.sha256(out.read_bytes()).hexdigest(),
           hashlib.sha256(trace.read_bytes()).hexdigest())
    assert sha == CLI_GOLDEN[case]


def dumbbell():
    g = dumbbell_graph(8)
    return g, VertexMeasure.from_degrees(g), 0.05, 7


@pytest.mark.parametrize("make", list(GOLDEN) + [dumbbell], ids=lambda f: f.__name__)
def test_potentials_match_dense_oracle(make):
    # the trace's psi column is pinned above by its bytes; this is the
    # independent check of its values, round by round, in every game played
    g, mu, phi, seed = make()
    games = []
    decompose(g, mu, phi, DecomposeConfig(trace_hook=games.append), rng=seed)
    checked = 0
    for game in games:
        if not game.rounds:
            continue
        game_mu, delta = game.walk.measure, game.walk.delta
        want = []
        for t, rec in enumerate(game.rounds):
            state = ActiveState(frozenset(rec.active_before) - rec.removed, game_mu)
            walk = WalkOperator([r.matching for r in game.rounds[:t + 1]], delta, state)
            want.append(dense_walk_and_potential(walk)[1])
        assert potentials(game.rounds, game_mu, delta) == pytest.approx(want, rel=1e-9, abs=1e-12)
        checked += len(want)
    assert checked


def unit_cases():
    """(graph, measure, phi, seed): the golden instances, 30 random weighted
    graphs on 14 vertices and the K8-K8 dumbbell at two levels."""
    cases = [make() for make in GOLDEN]
    rng = np.random.default_rng(2024)
    for seed in range(30):
        g = random_connected_graph(rng, 14, extra=1.0, weighted=True)
        cases.append((g, VertexMeasure.from_degrees(g), 0.05, seed))
    db = dumbbell_graph(8)
    return cases + [(db, VertexMeasure.from_degrees(db), phi, 0) for phi in (0.5, 1.0)]


def same_records(a, b, scale) -> bool:
    """Whether two games played the same rounds, b's weights `scale` times a's
    up to rounding: the same removals and the same matched pairs."""
    for ra, rb in zip(a.rounds, b.rounds):
        pa, pb = ra.matching.off_diagonal, rb.matching.off_diagonal
        if ra.removed != rb.removed or [p[:2] for p in pa] != [p[:2] for p in pb]:
            return False
        if any(abs(wb - scale * wa) > 1e-9 * scale * wa for (_, _, wa), (_, _, wb) in zip(pa, pb)):
            return False
    return True


@pytest.mark.parametrize("scale", [1e-9, 1e9])
def test_clusters_independent_of_units(scale):
    # psi is built from normalized factors, so a game that plays the same
    # rounds in other units stops at the same round.  (Not every game does:
    # a projection tie, exact in real numbers, may fall either way in
    # rounding and send the game elsewhere, as it does in two of these cases.)
    for g, mu, phi, seed in unit_cases():
        games, scaled_games = [], []
        want = decompose(g, mu, phi, DecomposeConfig(trace_hook=games.append), rng=seed).clusters
        scaled = Graph(g.vertex_count, [(u, v, scale * w) for u, v, w in g.edges])
        got = decompose(scaled, VertexMeasure(scale * mu.values), phi,
                        DecomposeConfig(trace_hook=scaled_games.append), rng=seed).clusters
        assert got == want
        assert len(scaled_games) == len(games)
        for a, b in zip(games, scaled_games):
            if same_records(a, b, scale):
                assert len(b.rounds) == len(a.rounds)
