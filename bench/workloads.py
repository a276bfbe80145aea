"""Seeded workload generators for the decompose benchmark.

Every input is a pure function of (workload name, seed, instance index):
the graph, the vertex measure, phi and the seed handed to
``mucut.decompose``.  The program under test only sees the generated
files, never the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Instance:
    """One decompose input: merged edges (u < v) -> weight, measure, phi, rng seed."""

    workload: str
    vertex_count: int
    edges: dict
    mu: tuple
    phi: float
    rng_seed: int


def merge_edges(pairs) -> dict:
    """Sum parallel edges by weight under the key (min, max)."""
    merged: dict[tuple[int, int], float] = {}
    for u, v, w in pairs:
        key = (u, v) if u < v else (v, u)
        merged[key] = merged.get(key, 0.0) + w
    return merged


def degrees(n: int, edges: dict) -> tuple:
    deg = [0.0] * n
    for (u, v), w in sorted(edges.items()):
        deg[u] += w
        deg[v] += w
    return tuple(deg)


def hamiltonian_cycle_slots(n: int, cycles: int, rng: np.random.Generator) -> list:
    """Edge slots of the union of `cycles` random Hamiltonian cycles on n vertices.

    Every vertex has exactly 2 * cycles incident slots; parallel slots are
    merged later by weight.
    """
    slots = []
    for _ in range(cycles):
        order = rng.permutation(n).tolist()
        slots.extend((order[i], order[(i + 1) % n], 1.0) for i in range(n))
    return slots


def expander_whisker(rng: np.random.Generator) -> Instance:
    """8-regular multigraph on 500 vertices plus a 3-vertex path hung off one edge."""
    n_core = 500
    pairs = hamiltonian_cycle_slots(n_core, 4, rng)
    anchor = int(rng.integers(n_core))
    a, b, c = n_core, n_core + 1, n_core + 2
    pairs += [(anchor, a, 1.0), (a, b, 1.0), (b, c, 1.0)]
    edges = merge_edges(pairs)
    n = n_core + 3
    return Instance("expander-whisker", n, edges, degrees(n, edges), 0.05,
                    int(rng.integers(2**31)))


def planted_decompose(rng: np.random.Generator) -> Instance:
    """8 blocks of 50 (50-cycle plus G(50, 0.3)), 2 random inter-block edges per block."""
    blocks, size, p = 8, 50, 0.3
    n = blocks * size
    pairs = []
    for b in range(blocks):
        base = b * size
        order = (base + rng.permutation(size)).tolist()
        pairs.extend((order[i], order[(i + 1) % size], 1.0) for i in range(size))
        iu, iv = np.triu_indices(size, k=1)
        keep = rng.random(len(iu)) < p
        pairs.extend((base + int(x), base + int(y), 1.0) for x, y in zip(iu[keep], iv[keep]))
    for b in range(blocks):
        for _ in range(2):
            other = (b + 1 + int(rng.integers(blocks - 1))) % blocks
            u = b * size + int(rng.integers(size))
            v = other * size + int(rng.integers(size))
            pairs.append((u, v, 1.0))
    edges = merge_edges(pairs)
    return Instance("planted-decompose", n, edges, degrees(n, edges), 0.05,
                    int(rng.integers(2**31)))


def terminal_grid(rng: np.random.Generator) -> Instance:
    """30 x 30 unit grid; 90 random terminals (10%) with measure U(1, 4), the rest 0.

    The terminal count is fixed rather than binomial so that the amount of
    flow to route, and so the run time, varies less between seeds.
    """
    side, terminals = 30, 90
    n = side * side
    pairs = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                pairs.append((v, v + 1, 1.0))
            if r + 1 < side:
                pairs.append((v, v + side, 1.0))
    values = np.zeros(n)
    values[rng.choice(n, size=terminals, replace=False)] = rng.uniform(1.0, 4.0, terminals)
    return Instance("terminal-grid", n, merge_edges(pairs), tuple(float(x) for x in values),
                    0.02, int(rng.integers(2**31)))


GENERATORS = {
    "expander-whisker": expander_whisker,
    "planted-decompose": planted_decompose,
    "terminal-grid": terminal_grid,
}


def make_instance(workload: str, seed: int, index: int = 0) -> Instance:
    """Instance `index` of a workload's seeded family."""
    return GENERATORS[workload](np.random.default_rng([seed, index]))


def write_instance(inst: Instance, directory: Path, stem: str) -> tuple[Path, Path]:
    """Write the edge-list and measure files a CLI user would pass to mucut."""
    graph_path = directory / f"{stem}.graph"
    measure_path = directory / f"{stem}.mu"
    lines = [f"p {inst.vertex_count} {len(inst.edges)}"]
    lines += [f"{u} {v} {w!r}" for (u, v), w in sorted(inst.edges.items())]
    graph_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    measure_path.write_text(
        "".join(f"{v} {x!r}\n" for v, x in enumerate(inst.mu) if x > 0.0), encoding="utf-8")
    return graph_path, measure_path
