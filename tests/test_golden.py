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
adjacent to removed ones, and its decomposition trims.
"""

import hashlib
import json

import numpy as np
import pytest

from mucut import (DecomposeConfig, GameParams, Graph, Infinite, VertexMeasure, decompose,
                   run_cut_matching)
from mucut.cli import main

from helpers import dumbbell_graph, random_connected_graph, write_graph, write_measure


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


def light_whisker():
    # 8-regular multigraph on 56 vertices, plus a 3-vertex path hung off one
    # vertex by a 0.05 edge; the path vertices carry measure 0.1 each
    rng = np.random.default_rng(0)
    edges = {}
    for _ in range(4):
        order = rng.permutation(56).tolist()
        for i in range(56):
            u, v = order[i], order[(i + 1) % 56]
            key = (min(u, v), max(u, v))
            edges[key] = edges.get(key, 0.0) + 1.0
    anchor = int(rng.integers(56))
    edges[(anchor, 56)] = 0.05
    edges[(56, 57)] = 1.0
    edges[(57, 58)] = 1.0
    g = Graph(59, [(u, v, w) for (u, v), w in sorted(edges.items())])
    vals = np.array(g.weighted_degrees())
    vals[56:] = 0.1
    return g, VertexMeasure(vals), 0.05, 0


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
        "436eff863e6a976f0b813059d183f072382857a46e8627ffc40c655d733fcec9", 63, 0, 0),
    two_terminal_grid: (
        "94f3cf6134b64acc1f2129fdcd2d47181bf7d3201ef5c129bfd854b1c3a22d7b",
        "3654be53b938d8ba4db15c49442c0fef7debc0ca50b789263ce4b4a5e3ceb82d", 43, 0, 1),
    light_whisker: (
        "23594f26c1225d1e2f4ec9fc84a7b4c62d13aa946f4c03b2434bfbea3306d63d",
        "0968759022a0976c1f4c95b6fde2f5b7754d5c33df9a2ee666af6c6806b0db5f", 70, 1, 0),
}


@pytest.mark.parametrize("make", list(GOLDEN), ids=lambda f: f.__name__)
def test_pinned_outputs(make):
    g, mu, phi, seed = make()
    want_clusters, want_game, want_rounds, want_cuts, want_idle = GOLDEN[make]
    out = run_cut_matching(g, mu, GameParams.for_graph(g, mu, phi), np.random.default_rng(seed))
    assert len(out.rounds) == want_rounds
    assert sum(1 for rec in out.rounds if rec.removed) == want_cuts
    assert sum(1 for rec in out.rounds if not rec.removed and not rec.paths) == want_idle
    assert game_digest(out) == want_game
    assert clusters_digest(decompose(g, mu, phi, rng=seed).clusters) == want_clusters


# instance -> (result digest, trace digest, games played by decompose); the result
# params carry no dense_limit, which only the CLI reads
DECOMPOSE_GOLDEN = {
    planted_blocks: (
        "928486fdf3b50c20feaa2fc9413885bc4c5bff97fb6a7b0788672c3066188d82",
        "828c5b2384fef8879fdda0936e51c169e3d8141c76838e2a07ffbc8fe41410de", 5),
    terminal_grid: (
        "9482c7cdffe7dda65f126f8a2cd204fab246a336eb8e870eb7b69ff04cdbd275",
        "f9e4cbde6fa9beb2ade514ec060a6e3b3cf7a9795c3d9d98ac97269cc80b4e3c", 1),
    two_terminal_grid: (
        "5c3e9a5da03bc70d3f94a0d38e9466ac5510c3941ee5cae4607e62311180e704",
        "8314da639804e1f170bcf550861d2db43ee0fb2efb0e2e91c3c4f4f906fbc2c4", 1),
    light_whisker: (
        "a059e2d6b796ca09634514c1d37b1d58c1a03ac8bded2d1f2032be784100ac42",
        "41dc453f03c119b35bb3847b1f4b168955e4c2fedac5f473719bf6cfe5b168d8", 2),
}


@pytest.mark.parametrize("make", list(DECOMPOSE_GOLDEN), ids=lambda f: f.__name__)
def test_pinned_decomposition(make):
    g, mu, phi, seed = make()
    want_result, want_trace, want_games = DECOMPOSE_GOLDEN[make]
    games = []
    res = decompose(g, mu, phi, DecomposeConfig(trace_hook=games.append), rng=seed)
    assert len(games) == want_games
    assert trace_digest(games) == want_trace
    assert result_digest(res) == want_result


# (instance, command, flags) -> (JSON SHA-256, trace CSV SHA-256); light_whisker
# reads its measure file, planted_blocks the default measure (weighted degrees)
CLI_GOLDEN = {
    (light_whisker, "decompose", ("--mu",)): (
        "82ab4761f1f799c4e512106c70e5951ef3cd477fa2027970dae25ad53b7231f8",
        "106066b0ef2eca75ac706daf216907e0564d92e2aaedd63dd9ddd43c3a79c9df"),
    (light_whisker, "sparse-cut", ("--mu",)): (
        "2373ea6fbc3003e0ccaaf86e72e67c60b8134b5e83a46a363d8b9f6674bf8416",
        "96ebbc4f289a1f1c5bc4ebc1055dd336d1c4cb879384ef7a57c4147649a419a1"),
    (planted_blocks, "decompose", ("--dense-limit", "50")): (
        "25ee900dbc6ae128b8c45ff92eb4e99a4f6f91c99c4340548c850a37828e2d3c",
        "afda30f579a2a160896d85c7680001e0acc9fbff6b07b251d406e5f74eecb9a1"),
    (planted_blocks, "sparse-cut", ("--dense-limit", "50")): (
        "17077ba34eee6ccff6c89c6f5ea68790a9c69c4f628516e5de0e2883c1f3bbd7",
        "00605a3a6efcbdae199de7d78bcff567a76186ca6b77b73638244ac954b67407"),
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
    else:
        argv += list(flags)
    assert main(argv) == 0
    rows = trace.read_text().splitlines()[1:]
    assert rows and all(row.split(",")[4] for row in rows)  # every game small enough for psi
    sha = (hashlib.sha256(out.read_bytes()).hexdigest(),
           hashlib.sha256(trace.read_bytes()).hexdigest())
    assert sha == CLI_GOLDEN[case]


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


@pytest.mark.parametrize("scale", [1e-9, 1e9])
def test_clusters_independent_of_units(scale):
    for g, mu, phi, seed in unit_cases():
        want = decompose(g, mu, phi, rng=seed).clusters
        scaled = Graph(g.vertex_count, [(u, v, scale * w) for u, v, w in g.edges])
        assert decompose(scaled, VertexMeasure(scale * mu.values), phi, rng=seed).clusters == want
