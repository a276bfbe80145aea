"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: the cut
recount walks CSR incidence lists, the min-cut enumerator sums arc capacities
over explicit subsets, and the conductance enumerator is plain Python.
`reference_graph` is `Graph.__init__` as it was before graphs were built
from columns (each edge checked on its own, a dict merge, per-vertex
adjacency tuples), with `reference_edge_id` and `reference_components`
reading its tuples: the library's graph must have the same edges, columns
and degrees bit for bit, the same edge ids and components, and fail with
the same message.  `reference_network` is the former arc-by-arc build of a
`FlowNetwork` (`add_arc` and `add_undirected_edge` over `_push`): the
constructor, which lays a network out from arc columns, must give the same
arc ids, heads, capacities and adjacency lists bit for bit.
`reference_edge_network`, `reference_build_pi_problem` and
`reference_trim_network` build through it, so they share no layout code
with the library.  Test fixtures build through `network`, the constructor
on (tail, head, capacity, back capacity) rows, and `arcs_of` reads any
network's arcs as (tail, head, capacity) rows for the min-cut enumerator
and the fairness and conservation checks, which read a solution's flow off
its paths, pooled per (tail, head) step by `path_flows`.
`reference_edge_network` is `flow.edge_network` as it was before it filled
its arc lists in bulk: the library's must have the same arc ids, heads,
capacities and adjacency lists.
`reference_max_flow` and `reference_decompose_paths` are the flow solver
and path stripper as they were before phases stopped at the sink and were
pruned to the vertices that reach it: the library's solver must match
them bit for bit, and so must its stripping, which `max_flow` runs when a
push cancelled flow.  `reference_max_flow` returns a `ReferenceFlow`, which
holds the per-arc flows the stripping starts from.  `reference_build_pi_problem`
is the matching round's network built arc by arc, as it was before the
edge arcs were built once per active set: the library's network must list
the same arcs in every vertex's adjacency.  `reference_trim_network` is
trimming's network as `trim` built it arc by arc before it shared the
matching player's layout: the library's must have the same arcs at every
vertex, in any order, and the same minimal min cut.
`reference_walk_apply` is the walk applied through its chain of factors
alone, as `WalkOperator.apply` ran before it multiplied long chains out into
one product: the library's must match it bit for bit before that switch,
and within a rounding bound after it.  `reference_rst_partition` and
`reference_check_bipartition` are the cut player and its output check as
they were before both worked on id and weight arrays: the library's
bipartition must match bit for bit, and its check must pass, fail and name
the first failure alike.  `reference_with_arcs_first` is the terminal-arc
builder as it was before it filled its lists in bulk: `with_terminals` must
give the same arc ids, capacities and adjacency lists.
`reference_from_pairs` is `StochasticMatching.from_pairs` as it was before
it merged pairs without converting each one: the matchings must be equal
bit for bit.  The dense oracles (`dense_matching`, `matching_row_sums`,
`apply_projection`, `active_sqrt`, `dense_flow_matrix`,
`dense_projection_matrix` and `dense_walk_and_potential`, limited to
`DENSE_LIMIT` vertices) materialize a matching, the projection and the
walk as n x n arrays, as the library did before its trace replayed the
potential through one k x k product: `spectral.potentials` must agree
with them within rounding.
"""

from __future__ import annotations

import copy
import itertools
import math
from collections import deque
from dataclasses import dataclass
from operator import index
from types import SimpleNamespace

import numpy as np

from mucut import Graph, VertexMeasure
from mucut.cutplayer import WeightedBipartition
from mucut.errors import GraphInputError, InvariantViolation
from mucut.flow import FlowNetwork, FlowSolution
from mucut.graph import EPS, tolerance, vertex_mask
from mucut.spectral import ActiveState, LazyFactor, StochasticMatching, WalkOperator, _project


#: One (u, v, w) edge as a numpy record, as `reference_graph` builds its columns.
_EDGE_DTYPE = np.dtype([("u", np.intp), ("v", np.intp), ("w", float)])


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
    """Independent cut recount: scan each member's incidence list, built
    from `g.edges`."""
    side = set(side)
    incident = [[] for _ in range(g.vertex_count)]
    for u, v, w in g.edges:
        incident[u].append((v, w))
        incident[v].append((u, w))
    total = 0.0
    for u in side:
        for v, w in incident[u]:
            if v not in side:
                total += w
    return total


def reference_graph(vertex_count: int, edges) -> SimpleNamespace:
    """The former `Graph.__init__`, kept verbatim as an oracle: each edge
    checked and converted on its own, parallel edges merged through a dict
    by (min, max) key in input order, and per-vertex (v, w, idx) adjacency
    tuples."""
    self = SimpleNamespace()
    n = int(vertex_count)
    if n < 0:
        raise GraphInputError("vertex_count must be non-negative")
    merged: dict[tuple[int, int], float] = {}
    for e in edges:
        if len(e) not in (2, 3):
            raise GraphInputError(f"edge {e!r} is neither (u, v) nor (u, v, w)")
        try:
            u, v, w = index(e[0]), index(e[1]), float(e[2]) if len(e) == 3 else 1.0
        except (TypeError, ValueError) as exc:
            raise GraphInputError(f"edge {e!r} needs integer ids and a real weight") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphInputError(f"self-loop at vertex {u} rejected")
        if not (w > 0.0 and math.isfinite(w)):
            raise GraphInputError(f"edge ({u},{v}) has weight {w}; weights must be "
                                  "positive and finite")
        key = (u, v) if u <= v else (v, u)
        merged[key] = merged.get(key, 0.0) + w
    edge_list = tuple((u, v, merged[(u, v)]) for (u, v) in sorted(merged))
    adjacency: list[list[tuple[int, float, int]]] = [[] for _ in range(n)]
    for idx, (u, v, w) in enumerate(edge_list):
        adjacency[u].append((v, w, idx))
        adjacency[v].append((u, w, idx))
    arr = np.fromiter(edge_list, _EDGE_DTYPE, len(edge_list))
    self.us, self.vs, self.ws = (np.ascontiguousarray(arr[f]) for f in "uvw")
    # bincount adds in input order: u0, v0, u1, v1, ... as a loop over the edges
    ends = np.column_stack((self.us, self.vs)).ravel()
    degrees = np.bincount(ends, np.repeat(self.ws, 2), minlength=n)
    self.vertex_count = n
    self.edges = edge_list
    self.adjacency = tuple(tuple(a) for a in adjacency)
    self._degrees = degrees
    return self


def reference_edge_id(ref: SimpleNamespace, u: int, v: int) -> int | None:
    """The former `Graph.edge_id` on a :func:`reference_graph`."""
    if 0 <= u < ref.vertex_count:
        for x, _, idx in ref.adjacency[u]:
            if x == v:
                return idx
    return None


def reference_components(ref: SimpleNamespace) -> tuple[tuple[int, ...], ...]:
    """The former `connected_components` of a whole :func:`reference_graph`:
    BFS over its adjacency tuples."""
    unseen = [True] * ref.vertex_count
    comps = []
    for start in range(ref.vertex_count):
        if not unseen[start]:
            continue
        unseen[start] = False
        comp = [start]
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y, _, _ in ref.adjacency[x]:
                if unseen[y]:
                    unseen[y] = False
                    comp.append(y)
                    queue.append(y)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def _check_capacity(capacity: float) -> None:
    if not 0 <= capacity < math.inf:
        raise ValueError(f"capacity must be non-negative and finite, got {capacity}")


def network(node_count: int, source: int, sink: int, arcs) -> FlowNetwork:
    """The `FlowNetwork` of (tail, head, capacity, back capacity) rows: row i
    is arc 2i and its twin 2i + 1 (back capacity 0 for a directed arc, the
    capacity for an undirected edge)."""
    return FlowNetwork(node_count, source, sink, *(tuple(zip(*arcs)) or ((),) * 4))


def reference_network(node_count: int, source: int, sink: int, arcs) -> FlowNetwork:
    """The former arc-by-arc build, kept as an oracle: `FlowNetwork.__init__`
    with empty lists, then per (tail, head, capacity, back capacity) row the
    former `_push` of the arc and then of its twin, each appending to `to`,
    `cap` and the tail's adjacency list (`add_arc` for a back capacity of 0,
    `add_undirected_edge` for one equal to the capacity).  It checks the
    capacities as they did, and no vertex id."""
    if not (0 <= source < node_count and 0 <= sink < node_count):
        raise ValueError("source/sink out of range")
    if source == sink:
        raise ValueError("source and sink must differ")
    net = FlowNetwork.__new__(FlowNetwork)
    net.node_count, net.source, net.sink = int(node_count), int(source), int(sink)
    net.to, net.cap = [], []
    net.adj = [[] for _ in range(node_count)]
    for u, v, c, back in arcs:
        _check_capacity(c)
        _check_capacity(back)
        for tail, head, capacity in ((u, v, c), (v, u, back)):
            net.adj[tail].append(len(net.to))
            net.to.append(head)
            net.cap.append(float(capacity))
    return net


def arcs_of(net: FlowNetwork) -> list:
    """(tail, head, capacity) for every arc slot of `net`, twins included."""
    return [(net.to[i ^ 1], net.to[i], net.cap[i]) for i in range(len(net.to))]


def reference_edge_network(g: Graph, vertices, c: float) -> FlowNetwork:
    """The former `flow.edge_network`, kept verbatim as an oracle: every edge
    with both endpoints in `vertices`, added arc by arc as an undirected
    edge at c*w in g.edges order."""
    if not 0 < c < math.inf:
        raise ValueError(f"edge capacity factor c must be positive and finite, got {c}")
    n = g.vertex_count
    inside = vertex_mask(n, vertices)
    keep = inside[g.us] & inside[g.vs]
    return reference_network(n + 2, n, n + 1, [
        (u, v, c * w, c * w)
        for u, v, w in zip(g.us[keep].tolist(), g.vs[keep].tolist(), g.ws[keep].tolist())])


def enumerate_min_cut(net: FlowNetwork) -> float:
    """Exhaustive min s-t cut capacity over all 2^(n-2) vertex splits."""
    s, t = net.source, net.sink
    others = [v for v in range(net.node_count) if v not in (s, t)]
    arcs = arcs_of(net)
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
    arcs = [(n, v, m, 0.0) for v, m in bip.sources]
    arcs += [(v, n + 1, mb, 0.0) for v, mb in bip.targets]
    arcs += [(u, v, c * w, c * w) for u, v, w in g.edges if u in active and v in active]
    return reference_network(n + 2, n, n + 1, arcs)


def reference_with_arcs_first(net: FlowNetwork, arcs) -> FlowNetwork:
    """The former `FlowNetwork.with_arcs_first`, kept verbatim as an oracle:
    a new network with these directed (tail, head, capacity) arcs, at the
    ids after `net`'s, listed ahead of `net`'s arcs by every vertex they
    touch, in the order given."""
    base = len(net.to)
    to: list[int] = []
    cap: list[float] = []
    first: dict[int, list[int]] = {}
    for u, v, c in arcs:
        _check_capacity(c)
        idx = base + len(to)
        to += (v, u)
        cap += (float(c), 0.0)
        first.setdefault(u, []).append(idx)
        first.setdefault(v, []).append(idx + 1)
    out = copy.copy(net)
    out.to = net.to + to
    out.cap = net.cap + cap
    out.adj = net.adj.copy()
    for x, ids in first.items():
        out.adj[x] = ids + net.adj[x]
    return out


def reference_from_pairs(mu_values, pairs) -> StochasticMatching:
    """The former `StochasticMatching.from_pairs`, kept verbatim as an oracle:
    each pair converted to (int, int, float), self-pairs dropped, the rest
    merged by (min, max) key in the order given."""
    merged: dict[tuple[int, int], float] = {}
    for u, v, w in pairs:
        u, v, w = int(u), int(v), float(w)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        merged[key] = merged.get(key, 0.0) + w
    keys = sorted(merged)
    us = np.array([u for u, _ in keys], dtype=np.intp)
    vs = np.array([v for _, v in keys], dtype=np.intp)
    ws = np.array([merged[k] for k in keys], dtype=float)
    return StochasticMatching(us, vs, ws, mu_values)


def reference_trim_network(g: Graph, mu: VertexMeasure, a, phi: float) -> FlowNetwork:
    """The network `trim` used to build arc by arc, kept as an oracle: source n
    and sink n + 1; in g.edges order, every edge inside `a` at 3w/phi and, for
    every edge leaving `a`, an arc from the source to its inside endpoint;
    then an arc from each vertex of `a` to the sink at its measure, in
    increasing vertex order."""
    a = frozenset(a)
    n = g.vertex_count
    s, t = n, n + 1
    cap_edge = 3.0 / phi
    arcs = []
    for u, v, w in g.edges:
        if u in a and v in a:
            arcs.append((u, v, cap_edge * w, cap_edge * w))
        elif u in a:
            arcs.append((s, u, cap_edge * w, 0.0))
        elif v in a:
            arcs.append((s, v, cap_edge * w, 0.0))
    arcs += [(v, t, mu.values[v], 0.0) for v in sorted(a)]
    return reference_network(n + 2, s, t, arcs)


def reference_walk_apply(walk: WalkOperator, matchings, x) -> np.ndarray:
    """W x through the chain of factors, rebuilt from the `matchings` the walk
    was extended by."""
    state, sup = walk.state, walk.support
    factors = [LazyFactor(m, walk.measure, walk.delta) for m in matchings]
    y = np.asarray(x, dtype=float)[sup]
    for _ in range(walk.delta):
        y = _project(state, y)
        for f in reversed(factors):
            y = f.apply(y)
        for f in factors:
            y = f.apply(y)
        y = _project(state, y)
    out = np.zeros(len(walk.measure.values))
    out[sup] = y
    return out


@dataclass(frozen=True)
class ReferenceFlow:
    """`reference_max_flow`'s result: the value, per-arc flows, the source
    side of a min cut and the zero the solve used."""

    value: float
    arc_flows: tuple[float, ...]
    min_cut_side: frozenset
    zero: float


def reference_max_flow(net: FlowNetwork) -> ReferenceFlow:
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
    return ReferenceFlow(value=total, arc_flows=flows, min_cut_side=frozenset(reachable),
                         zero=zero)


def reference_decompose_paths(net: FlowNetwork, sol: ReferenceFlow) -> tuple:
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


def _reference_mass_prefix(ids, mu, order, target_mass):
    """Scan vertices in `order`, taking full weights until `target_mass` is
    reached; the last vertex may be taken partially.  Returns (picks, partial_id)."""
    picks = []
    partial = None
    acc = 0.0
    for k in order:
        remaining = target_mass - acc
        if remaining <= tolerance(target_mass):
            break
        take = min(float(mu[k]), remaining)
        picks.append((int(ids[k]), take))
        if take < float(mu[k]):
            partial = int(ids[k])
        acc += take
    return picks, partial


def reference_rst_partition(state: ActiveState, u) -> WeightedBipartition:
    """The former `rst_partition`, kept verbatim as an oracle: sources and
    targets built and sorted as (id, weight) tuples one vertex at a time.

    Partition the active set into weighted sources and targets.

    Preconditions: the measure-weighted sum of u over the active set is
    zero (up to tolerance) and u vanishes off the active support.  Runs in
    O(|A| log |A|); ties in the sorted scans break by vertex id.
    """
    u = np.asarray(u, dtype=float)
    if state.mu_active_total <= 0.0:
        raise ValueError("active set carries no measure")
    mu_vals = state.measure.values
    stray = np.where(state.mask, 0.0, u)
    if float(np.abs(stray).max(initial=0.0)) * np.sqrt(state.mu_active_total) > EPS:
        raise ValueError("projection vector has support outside the active terminals")
    scale = float(np.abs(mu_vals * u).sum())
    balance = float((mu_vals * u).sum())
    if abs(balance) > tolerance(max(scale, np.sqrt(state.mu_active_total))):
        raise ValueError(f"projection vector is not measure-balanced: sum mu*u = {balance}")

    ids = np.flatnonzero(state.mask)
    mu_t = mu_vals[ids]
    u_orig = u[ids]

    flipped = float(mu_t[u_orig < 0].sum()) > float(mu_t[u_orig >= 0].sum())
    w = -u_orig if flipped else u_orig

    total = state.mu_active_total
    energy = mu_t * w * w
    p_all = float(energy.sum())
    p_left = float(energy[w < 0].sum())

    case_two = not p_left >= p_all / 20.0  # a NaN energy lands in case two
    if not case_two:
        # negative side carries enough energy: eta = 0, targets = whole
        # non-negative side, sources = most negative first
        eta_w = 0.0
        tgt_idx = np.flatnonzero(w >= 0)
        src_idx = np.flatnonzero(w < 0)
        key = w
    else:
        # energy concentrated far right: separate at 4*Delta/M and source
        # from the tail at 6*Delta/M and beyond, largest first
        delta_sum = float((mu_t * np.abs(w)).sum())
        eta_w = 4.0 * delta_sum / total
        tgt_idx = np.flatnonzero(w <= eta_w)
        src_idx = np.flatnonzero(w >= 6.0 * delta_sum / total)
        key = -w
    targets = [(int(ids[k]), float(mu_t[k])) for k in tgt_idx]
    eighth = total / 8.0
    partial = None
    if float(mu_t[src_idx].sum()) <= eighth:
        sources = [(int(ids[k]), float(mu_t[k])) for k in src_idx]
    else:
        # up to an eighth of the active measure, ties broken by vertex id
        order = src_idx[np.lexsort((ids[src_idx], key[src_idx]))]
        sources, partial = _reference_mass_prefix(ids, mu_t, order, eighth)

    bip = WeightedBipartition(
        sources=tuple(sorted((v, wt) for v, wt in sources if wt > 0.0)),
        targets=tuple(sorted((v, wt) for v, wt in targets if wt > 0.0)),
        eta=-eta_w if flipped else eta_w,
        case_two=case_two,
        flipped=flipped,
        partial_vertex=partial,
    )
    reference_check_bipartition(state, u, bip)
    return bip


def reference_check_bipartition(state: ActiveState, u, bip: WeightedBipartition) -> None:
    """The former `check_bipartition`, kept verbatim as an oracle: one
    Python loop per property.

    Assert the five output properties; raises InvariantViolation naming
    the first one that fails.  Projections scale as mu^(-1/2), so they are
    compared in the unitless forms sqrt(mu) * u and mu * u^2 against the
    absolute EPS (see the graph module); masses use tolerance."""
    u = np.asarray(u, dtype=float)
    mu_vals = state.measure.values
    total = state.mu_active_total

    if bip.sources and bip.targets:
        src_u = [u[v] for v, _ in bip.sources]
        tgt_u = [u[v] for v, _ in bip.targets]
        root = np.sqrt(total)
        below = root * (max(src_u) - bip.eta) <= EPS and root * (bip.eta - min(tgt_u)) <= EPS
        above = root * (bip.eta - min(src_u)) <= EPS and root * (max(tgt_u) - bip.eta) <= EPS
        if not (below or above):
            raise InvariantViolation("separation: eta does not separate sources from targets")

    combined: dict[int, float] = {}
    for v, wt in bip.sources:
        combined[v] = combined.get(v, 0.0) + wt
    for v, wt in bip.targets:
        combined[v] = combined.get(v, 0.0) + wt
    for v, wt in combined.items():
        if wt > mu_vals[v] + tolerance(mu_vals[v]):
            raise InvariantViolation(f"capacity: combined weight at {v} exceeds its measure")

    if bip.target_mass < total / 2.0 - tolerance(total):
        raise InvariantViolation("mass: target weight below half the active measure")
    if bip.source_mass > total / 8.0 + tolerance(total):
        raise InvariantViolation("mass: source weight above an eighth of the active measure")

    for v, _ in bip.sources:
        gap = (u[v] - bip.eta) ** 2
        if mu_vals[v] * gap < mu_vals[v] * u[v] ** 2 / 9.0 - EPS:
            raise InvariantViolation(f"margin: source {v} sits too close to eta")

    ids = np.flatnonzero(state.mask)
    p_all = float((mu_vals[ids] * u[ids] ** 2).sum())
    captured = float(sum(wt * u[v] ** 2 for v, wt in bip.sources))
    if captured < p_all / 80.0 - EPS:
        raise InvariantViolation(
            f"energy: sources capture {captured:g} < {p_all / 80.0:g} of the projection energy")


def path_flows(sol: FlowSolution) -> dict:
    """The flow of a solution's paths pooled per (tail, head) step, over
    all parallel arcs, each step's weights added in path order."""
    used = {}
    for _, _, w, seq in sol.paths:
        for step in zip(seq, seq[1:]):
            used[step] = used.get(step, 0.0) + w
    return used


def paths_hex(paths) -> list:
    """(source, sink, weight, vertex sequence) paths with their weights in
    hex, to compare bit for bit."""
    return [(a, b, w.hex(), seq) for a, b, w, seq in paths]


def pooled_caps(net: FlowNetwork) -> dict:
    """Each (tail, head) step's capacity, over all its parallel arcs."""
    caps = {}
    for u, v, c in arcs_of(net):
        caps[u, v] = caps.get((u, v), 0.0) + c
    return caps


def assert_fair(net: FlowNetwork, sol: FlowSolution, tol: float = 1e-9):
    """Every arc leaving the min-cut source side must be saturated by the
    solution's paths, and no path may cross back into it."""
    side = sol.min_cut_side
    flows = path_flows(sol)
    for (u, v), c in pooled_caps(net).items():
        if u in side and v not in side:
            f = flows.get((u, v), 0.0)
            assert abs(f - c) <= tol * max(1.0, c), f"cut arcs {u}->{v} carry {f} of {c}"
    back = [step for step in flows if step[0] not in side and step[1] in side]
    assert not back, f"paths cross back into the source side at {back}"


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
    """Largest conservation violation of the solution's paths at any
    interior node."""
    balance = [0.0] * net.node_count
    for (u, v), f in path_flows(sol).items():
        balance[u] -= f
        balance[v] += f
    worst = 0.0
    for v in range(net.node_count):
        if v in (net.source, net.sink):
            continue
        worst = max(worst, abs(balance[v]))
    return worst


#: Largest vertex count for which dense materialization is permitted.
DENSE_LIMIT = 64


def matching_row_sums(m: StochasticMatching) -> np.ndarray:
    sums = m.diagonal.copy()
    for u, v, w in m.off_diagonal:
        sums[u] += w
        sums[v] += w
    return sums


def dense_matching(m: StochasticMatching) -> np.ndarray:
    dense = np.diag(m.diagonal)
    for u, v, w in m.off_diagonal:
        dense[u, v] += w
        dense[v, u] += w
    return dense


def apply_projection(state: ActiveState, x) -> np.ndarray:
    """Project onto the orthogonal complement of the active sqrt measure.

    Coordinates outside the active support are zeroed first; the map is
    idempotent.  `x` and the result have all n coordinates.
    """
    sup = state.measure.support
    out = np.zeros(len(state.measure.values))
    out[sup] = _project(state, np.asarray(x, dtype=float)[sup])
    return out


def active_sqrt(state: ActiveState) -> np.ndarray:
    """sqrt(mu) on the active terminals and 0 elsewhere, on all n vertices."""
    return np.where(state.mask, state.measure.sqrt, 0.0)


def dense_flow_matrix(w: WalkOperator, matchings) -> np.ndarray:
    """Materialize the stochastic flow matrix of `w`, extended by `matchings`,
    by its round recursion (oracle)."""
    mu = w.measure
    n = len(mu.values)
    big_u = np.diag(mu.values)
    u_inv = np.diag(mu.pseudo_inv)
    f = big_u.copy()
    for m in matchings:
        lazy = (w.delta - 1.0) / w.delta
        n_t = lazy * big_u + dense_matching(m) / w.delta
        f = n_t @ u_inv @ f @ u_inv @ n_t
    return f


def dense_projection_matrix(state: ActiveState) -> np.ndarray:
    if state.mu_active_total <= 0.0:
        raise ValueError("active set carries no measure")
    i_t = np.diag(state.mask.astype(float))
    s = active_sqrt(state)
    return i_t - np.outer(s, s) / state.mu_active_total


def dense_walk_and_potential(w: WalkOperator, matchings,
                             limit: int = DENSE_LIMIT) -> tuple[np.ndarray, float]:
    """Dense walk matrix and its potential tr(W^2) for `w`, extended by
    `matchings` (test oracle only)."""
    n = len(w.measure.values)
    if n > limit:
        raise ValueError(f"dense oracle limited to {limit} vertices, got {n}")
    f = dense_flow_matrix(w, matchings)
    s = np.diag(w.measure.inv_sqrt)
    p = dense_projection_matrix(w.state)
    x = p @ s @ f @ s @ p
    walk = np.linalg.matrix_power(x, w.delta)
    psi = float(np.sum(walk * walk))
    return walk, psi


def extended_potential(rounds, mu: VertexMeasure, delta: int) -> np.longdouble:
    """psi after the last of a game's rounds in numpy's extended precision,
    from dense factors on the support: each matching's diagonal is mu minus
    its pair sums, taken in that precision, not the stored float one."""
    support = np.flatnonzero(mu.support_mask)
    pos = {int(v): i for i, v in enumerate(support)}
    vals = mu.values[support].astype(np.longdouble)
    inv_sqrt = 1 / np.sqrt(vals)
    lazy = np.longdouble(delta - 1) / delta
    c = np.eye(len(support), dtype=np.longdouble)
    active = set(rounds[0].active_before)
    for rec in rounds:
        m = np.zeros_like(c)
        for u, v, w in rec.matching.off_diagonal:
            if u in pos and v in pos:
                m[pos[u], pos[v]] = m[pos[v], pos[u]] = w
        m[np.diag_indices_from(m)] = vals - m.sum(axis=1)
        c = (lazy * np.eye(len(support)) + inv_sqrt[:, None] * m * inv_sqrt / delta) @ c
        active -= rec.removed
    mask = np.array([int(v) in active for v in support])
    s = np.where(mask, np.sqrt(vals), 0)
    b = mask[:, None] * c - np.outer(s, s @ c) / vals[mask].sum()
    g = np.linalg.matrix_power(b.T @ b, delta)
    return (g * g).sum()


def psi_sequence(g: Graph, mu: VertexMeasure, out, delta: int) -> list:
    """Recompute psi(0..T) offline from a game's round records."""
    values = []
    active = frozenset(range(g.vertex_count))
    stack = []
    _, psi = dense_walk_and_potential(WalkOperator(stack, delta, ActiveState(active, mu)), stack)
    values.append(psi)
    for rec in out.rounds:
        stack = stack + [rec.matching]
        active = active - rec.removed
        _, psi = dense_walk_and_potential(WalkOperator(stack, delta, ActiveState(active, mu)),
                                          stack)
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
