"""Exact max-flow / min-cut over real capacities, with path stripping.

Level-graph augmentation (BFS phases, DFS blocking flow) on an arc list
with residual pairing: arc i and arc i^1 are reverse twins.  Undirected
edges are a twin pair with equal capacities.  The min cut returned is the
source-reachable set of the final residual network, so every outward cut
arc is saturated by construction: the cut is 1-fair.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InvariantViolation

#: Residual capacities at or below this are treated as exhausted.
FLOW_ZERO = 1e-12


class FlowNetwork:
    """Directed arc-list network with residual twins; single use per solve."""

    __slots__ = ("node_count", "source", "sink", "to", "cap", "adj")

    def __init__(self, node_count: int, source: int, sink: int):
        if not (0 <= source < node_count and 0 <= sink < node_count):
            raise ValueError("source/sink out of range")
        if source == sink:
            raise ValueError("source and sink must differ")
        self.node_count = int(node_count)
        self.source = int(source)
        self.sink = int(sink)
        self.to: list[int] = []
        self.cap: list[float] = []
        self.adj: list[list[int]] = [[] for _ in range(node_count)]

    def _push(self, u: int, v: int, c: float) -> int:
        idx = len(self.to)
        self.to.append(v)
        self.cap.append(float(c))
        self.adj[u].append(idx)
        return idx

    def add_arc(self, u: int, v: int, capacity: float) -> int:
        """Directed arc u -> v; its twin carries zero capacity."""
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        idx = self._push(u, v, capacity)
        self._push(v, u, 0.0)
        return idx

    def add_undirected_edge(self, u: int, v: int, capacity: float) -> int:
        """Undirected edge: twin arcs each carrying the full capacity."""
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        idx = self._push(u, v, capacity)
        self._push(v, u, capacity)
        return idx

    @property
    def arc_count(self) -> int:
        return len(self.to)

    def arcs(self):
        """(tail, head, capacity) for every stored arc slot, twins included."""
        return [(self.to[i ^ 1], self.to[i], self.cap[i]) for i in range(len(self.to))]


@dataclass(frozen=True)
class FlowSolution:
    """Max-flow value, per-arc flows, and the source side of a min cut."""

    value: float
    arc_flows: tuple[float, ...]
    min_cut_side: frozenset


def max_flow(net: FlowNetwork) -> FlowSolution:
    """Exact maximum flow; min cut recovered from residual reachability."""
    n = net.node_count
    s, t = net.source, net.sink
    resid = list(net.cap)
    to = net.to
    adj = net.adj
    total = 0.0

    while True:
        level = [-1] * n
        level[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for a in adj[x]:
                y = to[a]
                if resid[a] > FLOW_ZERO and level[y] < 0:
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
                    if resid[a] > FLOW_ZERO and level[v] == level[u] + 1:
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
            if resid[a] > FLOW_ZERO and y not in reachable:
                reachable.add(y)
                queue.append(y)
    flows = tuple(max(0.0, net.cap[i] - resid[i]) for i in range(len(resid)))
    return FlowSolution(value=total, arc_flows=flows, min_cut_side=frozenset(reachable))


def decompose_paths(net: FlowNetwork, sol: FlowSolution) -> tuple:
    """Strip the flow into source-to-sink paths; cycles are cancelled, not emitted.

    Returns (source, sink, weight, vertex sequence) tuples.

    Walks the positive-flow arcs from the source; whenever the walk revisits
    a vertex the enclosed cycle is cancelled.  Emits at most one path per
    arc and conserves the source-to-sink value.
    """
    s, t = net.source, net.sink
    to = net.to
    adj = net.adj
    flow = [f if f > FLOW_ZERO else 0.0 for f in sol.arc_flows]
    paths = []

    def first_out(u: int) -> int | None:
        for a in adj[u]:
            if flow[a] > FLOW_ZERO:
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
                    if flow[a] <= FLOW_ZERO:
                        flow[a] = 0.0
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
                    if flow[c] <= FLOW_ZERO:
                        flow[c] = 0.0
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
    if abs(total - sol.value) > 1e-9 * max(1.0, abs(sol.value)):
        raise InvariantViolation(
            f"path decomposition total {total} does not match flow value {sol.value}")
    return tuple(paths)
