"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: the cut
recount walks adjacency lists, the min-cut enumerator sums arc capacities
over explicit subsets, and the conductance enumerator is plain Python.
`reference_max_flow` and `reference_decompose_paths` are the flow solver
and path stripper as they were before phases stopped at the sink's level:
the library's must match them bit for bit.  `reference_build_pi_problem`
is the matching round's network built arc by arc, as it was before the
edge arcs were built once per active set: the library's network must list
the same arcs in every vertex's adjacency.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from mucut import Graph, VertexMeasure
from mucut.cutplayer import WeightedBipartition
from mucut.errors import InvariantViolation
from mucut.flow import FlowNetwork, FlowSolution
from mucut.graph import tolerance
from mucut.spectral import ActiveState, WalkOperator, dense_walk_and_potential


def random_connected_graph(rng: np.random.Generator, n: int, extra: float = 1.0,
                           weighted: bool = False) -> Graph:
    """Random spanning tree plus a Binomial number of extra edges."""
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        w = float(rng.uniform(0.5, 2.0)) if weighted else 1.0
        edges[(u, v)] = edges.get((u, v), 0.0) + w
    n_extra = int(rng.binomial(max(1, n * (n - 1) // 2), min(1.0, extra * 2.0 / max(1, n))))
    for _ in range(n_extra):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        w = float(rng.uniform(0.5, 2.0)) if weighted else 1.0
        edges[key] = edges.get(key, 0.0) + w
    return Graph(n, [(u, v, w) for (u, v), w in sorted(edges.items())])


def random_measure(rng: np.random.Generator, n: int, zero_frac: float = 0.2) -> VertexMeasure:
    """Random O(1) values with roughly `zero_frac` zeros, at least two positives."""
    while True:
        vals = rng.uniform(0.2, 2.0, size=n)
        vals[rng.random(n) < zero_frac] = 0.0
        if (vals > 0).sum() >= 2:
            return VertexMeasure(vals)


def clique_edges(vertices) -> list:
    return [(u, v, 1.0) for u, v in itertools.combinations(sorted(vertices), 2)]


def dumbbell_graph(k: int = 8, bridges: int = 1) -> Graph:
    """Two k-cliques joined by `bridges` edges."""
    edges = clique_edges(range(k)) + clique_edges(range(k, 2 * k))
    for b in range(bridges):
        edges.append((b % k, k + (b % k), 1.0))
    return Graph(2 * k, edges)


def write_graph(path, g: Graph) -> str:
    """Edge-list file the CLI reads back to the same graph (weights by repr)."""
    lines = [f"p {g.vertex_count} {g.edge_count}"]
    lines += [f"{u} {v} {w!r}" for u, v, w in g.edges]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_measure(path, mu: VertexMeasure) -> str:
    """Measure file with every vertex's value (by repr)."""
    path.write_text("".join(f"{v} {float(x)!r}\n" for v, x in enumerate(mu.values)))
    return str(path)


def adjacency_recount_cut(g: Graph, side) -> float:
    """Independent cut recount: scan each member's incidence list."""
    side = set(side)
    total = 0.0
    for u in side:
        for v, w, _ in g.adjacency[u]:
            if v not in side:
                total += w
    return total


def enumerate_min_cut(net: FlowNetwork) -> float:
    """Exhaustive min s-t cut capacity over all 2^(n-2) vertex splits."""
    s, t = net.source, net.sink
    others = [v for v in range(net.node_count) if v not in (s, t)]
    arcs = net.arcs()
    best = None
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            side = {s, *combo}
            cap = sum(c for (u, v, c) in arcs if u in side and v not in side)
            if best is None or cap < best:
                best = cap
    return best


def reference_build_pi_problem(g: Graph, state: ActiveState, bip: WeightedBipartition,
                               c: float) -> FlowNetwork:
    """The former `build_pi_problem`, kept verbatim as an oracle: source n and
    sink n + 1, source arcs, then sink arcs, then every edge with both
    endpoints active at c*w, in g.edges order, each added arc by arc."""
    if not 0 < c < math.inf:
        raise ValueError(f"edge capacity factor c must be positive and finite, got {c}")
    total = state.mu_active_total
    if bip.target_mass < total / 2.0 - tolerance(total):
        raise ValueError("target mass below half the active measure")
    if bip.source_mass > total / 8.0 + tolerance(total):
        raise ValueError("source mass above an eighth of the active measure")
    n = g.vertex_count
    active = state.active
    net = FlowNetwork(n + 2, source=n, sink=n + 1)
    for v, m in bip.sources:
        net.add_arc(n, v, m)
    for v, mb in bip.targets:
        net.add_arc(v, n + 1, mb)
    for u, v, w in g.edges:
        if u in active and v in active:
            net.add_undirected_edge(u, v, c * w)
    return net


def reference_max_flow(net: FlowNetwork) -> FlowSolution:
    """The former `max_flow`, kept verbatim as an oracle: full BFS phases, a
    DFS restarted at the source after every augmentation, and a separate
    residual-reachability BFS for the min cut."""
    n = net.node_count
    s, t = net.source, net.sink
    limit = net.cap_limit
    cap = net.cap
    if max(cap, default=0.0) > limit:
        cap = [min(c, limit) for c in cap]
    resid = list(cap)
    to = net.to
    adj = net.adj
    zero = net.zero
    total = 0.0

    while True:
        level = [-1] * n
        level[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for a in adj[x]:
                y = to[a]
                if resid[a] > zero and level[y] < 0:
                    level[y] = level[x] + 1
                    queue.append(y)
        if level[t] < 0:
            break
        it = [0] * n
        while True:
            # one augmenting path in the level graph, via pointer DFS
            path: list[int] = []
            u = s
            reached = False
            while True:
                if u == t:
                    reached = True
                    break
                moved = False
                while it[u] < len(adj[u]):
                    a = adj[u][it[u]]
                    v = to[a]
                    if resid[a] > zero and level[v] == level[u] + 1:
                        path.append(a)
                        u = v
                        moved = True
                        break
                    it[u] += 1
                if moved:
                    continue
                if u == s:
                    break
                level[u] = -1  # dead end in this phase
                last = path.pop()
                u = to[last ^ 1]
                it[u] += 1
            if not reached:
                break
            push = min(resid[a] for a in path)
            for a in path:
                resid[a] -= push
                resid[a ^ 1] += push
            total += push

    reachable = {s}
    queue = deque([s])
    while queue:
        x = queue.popleft()
        for a in adj[x]:
            y = to[a]
            if resid[a] > zero and y not in reachable:
                reachable.add(y)
                queue.append(y)
    flows = tuple(max(0.0, cap[i] - resid[i]) for i in range(len(resid)))
    return FlowSolution(value=total, arc_flows=flows, min_cut_side=frozenset(reachable))


def reference_decompose_paths(net: FlowNetwork, sol: FlowSolution) -> tuple:
    """The former `decompose_paths`, kept verbatim as an oracle: each step
    rescans the vertex's arcs from the first.

    Returns (source, sink, weight, vertex sequence) tuples.

    Walks the positive-flow arcs from the source; whenever the walk revisits
    a vertex the enclosed cycle is cancelled.  Emits at most one path per
    arc and conserves the source-to-sink value.
    """
    s, t = net.source, net.sink
    to = net.to
    adj = net.adj
    zero = net.zero
    flow = list(sol.arc_flows)  # arcs at or below zero are never walked
    paths = []

    def first_out(u: int) -> int | None:
        for a in adj[u]:
            if flow[a] > zero:
                return a
        return None

    while True:
        if first_out(s) is None:
            break
        walk_arcs: list[int] = []
        walk_nodes = [s]
        pos = {s: 0}
        u = s
        while True:
            if u == t:
                push = min(flow[a] for a in walk_arcs)
                for a in walk_arcs:
                    flow[a] -= push
                paths.append((s, t, push, tuple(walk_nodes)))
                break
            a = first_out(u)
            if a is None:
                raise InvariantViolation(f"flow conservation broken at vertex {u}")
            v = to[a]
            if v in pos:
                # cancel the cycle closed by arc a
                k = pos[v]
                cycle = walk_arcs[k:] + [a]
                push = min(flow[c] for c in cycle)
                for c in cycle:
                    flow[c] -= push
                for node in walk_nodes[k + 1:]:
                    del pos[node]
                del walk_arcs[k:]
                del walk_nodes[k + 1:]
                u = v
                continue
            walk_arcs.append(a)
            walk_nodes.append(v)
            pos[v] = len(walk_nodes) - 1
            u = v

    if len(paths) > net.arc_count:
        raise InvariantViolation("path decomposition emitted more paths than arcs")
    total = sum(p[2] for p in paths)
    if abs(total - sol.value) > tolerance(sol.value):
        raise InvariantViolation(
            f"path decomposition total {total} does not match flow value {sol.value}")
    return tuple(paths)


def assert_fair(net: FlowNetwork, sol: FlowSolution, tol: float = 1e-9):
    """Every arc leaving the min-cut source side must be saturated."""
    side = sol.min_cut_side
    arcs = net.arcs()
    for i, (u, v, c) in enumerate(arcs):
        if u in side and v not in side and c > 0:
            assert abs(sol.arc_flows[i] - c) <= tol * max(1.0, c), (
                f"cut arc {u}->{v} carries {sol.arc_flows[i]} of {c}")


def conductance_enumerator(g: Graph):
    """Independent minimum-conductance search: plain loops, volumes from degrees."""
    n = g.vertex_count
    deg = [0.0] * n
    for u, v, w in g.edges:
        deg[u] += w
        deg[v] += w
    vol_total = sum(deg)
    best = None
    for mask in range(1, 1 << (n - 1)):
        side = {v + 1 for v in range(n - 1) if (mask >> v) & 1}
        vol_s = sum(deg[v] for v in side)
        denom = min(vol_s, vol_total - vol_s)
        if denom <= 0:
            continue
        crossing = 0.0
        for u, v, w in g.edges:
            if (u in side) != (v in side):
                crossing += w
        value = crossing / denom
        if best is None or value < best:
            best = value
    return best


def conservation_errors(net: FlowNetwork, sol: FlowSolution) -> float:
    """Largest conservation violation at any interior node."""
    balance = [0.0] * net.node_count
    for i, (u, v, _) in enumerate(net.arcs()):
        f = sol.arc_flows[i]
        balance[u] -= f
        balance[v] += f
    worst = 0.0
    for v in range(net.node_count):
        if v in (net.source, net.sink):
            continue
        worst = max(worst, abs(balance[v]))
    return worst


def psi_sequence(g: Graph, mu: VertexMeasure, out, delta: int) -> list:
    """Recompute psi(0..T) offline from a game's round records."""
    values = []
    active = frozenset(range(g.vertex_count))
    stack = []
    _, psi = dense_walk_and_potential(WalkOperator(stack, delta, ActiveState(active, mu)))
    values.append(psi)
    for rec in out.rounds:
        stack = stack + [rec.matching]
        active = active - rec.removed
        _, psi = dense_walk_and_potential(WalkOperator(stack, delta, ActiveState(active, mu)))
        values.append(psi)
    return values


def orthogonalized_projection(rng: np.random.Generator, mu: VertexMeasure,
                              quantize: bool = False) -> np.ndarray:
    """Random vector on the support with measure-weighted mean zero."""
    n = len(mu.values)
    u = rng.standard_normal(n)
    if quantize:
        u = np.round(u * 2.0) / 2.0
    u = np.where(mu.support_mask, u, 0.0)
    total = float(mu.values[mu.support_mask].sum())
    shift = float((mu.values * u).sum()) / total
    u = np.where(mu.support_mask, u - shift, 0.0)
    return u
