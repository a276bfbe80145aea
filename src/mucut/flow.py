"""Exact max-flow / min-cut over real capacities, with path stripping.

Level-graph augmentation (Dinic: BFS phases, DFS blocking flow) on an arc
list with residual pairing: arc i and arc i^1 are reverse twins.  Undirected
edges are a twin pair with equal capacities.  Each phase's BFS stops at the
sink's level, since no shortest augmenting path goes deeper, and the DFS
walks current-arc pointers.  The min cut returned is the source-reachable
set of the final residual network, read off the last phase's BFS (the one
that cannot reach the sink, so searched everything), so every outward cut
arc is saturated by construction: the cut is 1-fair.  Path stripping keeps
a current-arc pointer per vertex as well.

A network that many solves share (the matching player's edge arcs, built
once per active set) is never changed: :meth:`FlowNetwork.with_arcs_first`
returns a new network with a round's own arcs ahead of the shared ones in
every adjacency list.  Arc ids are therefore not stable between such
networks, while each vertex's adjacency order is, and the solver and the
path stripper read arcs only in adjacency order.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

from .errors import InvariantViolation
from .graph import tolerance

#: Flow at or below FLOW_ZERO times the network's largest capacity, capped at
#: FlowNetwork.cap_limit, is rounding residue.
FLOW_ZERO = 1e-12


def _check_capacity(capacity: float) -> None:
    if not 0 <= capacity < math.inf:
        raise ValueError(f"capacity must be non-negative and finite, got {capacity}")


class FlowNetwork:
    """Directed arc-list network with residual twins; solves never change it."""

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
        _check_capacity(capacity)
        idx = self._push(u, v, capacity)
        self._push(v, u, 0.0)
        return idx

    def add_undirected_edge(self, u: int, v: int, capacity: float) -> int:
        """Undirected edge: twin arcs each carrying the full capacity."""
        _check_capacity(capacity)
        idx = self._push(u, v, capacity)
        self._push(v, u, capacity)
        return idx

    def with_arcs_first(self, arcs) -> "FlowNetwork":
        """A new network: these directed (tail, head, capacity) arcs, then this one's.

        Every vertex's adjacency is the one :meth:`add_arc` would give for
        these arcs followed by this network's arcs in their order: a vertex
        lists its new arcs and twins, in the order given, ahead of its old
        ones.  The new arcs take the ids after this network's, and this
        network is not changed: its lists are copied (``adj`` shallowly,
        with a new list only for the vertices the new arcs touch).
        """
        base = len(self.to)
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
        net = copy.copy(self)
        net.to = self.to + to
        net.cap = self.cap + cap
        net.adj = self.adj.copy()
        for x, ids in first.items():
            net.adj[x] = ids + self.adj[x]
        return net

    @property
    def arc_count(self) -> int:
        return len(self.to)

    @property
    def cap_limit(self) -> float:
        """EPS / FLOW_ZERO times the source's outgoing capacity.  No arc needs
        more than the source can send, so capping arcs here keeps the flow
        value and the min cut, and keeps `zero` within tolerance of it."""
        return tolerance(sum(self.cap[a] for a in self.adj[self.source])) / FLOW_ZERO

    @property
    def zero(self) -> float:
        return FLOW_ZERO * min(max(self.cap, default=0.0), self.cap_limit)

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
    """Exact maximum flow; the min cut is the last phase's BFS tree.

    Each phase levels the residual network by BFS and stops once the sink
    has a level d; vertices found at level d other than the sink are
    unlevelled again, since no path to the sink runs through them.  The
    DFS follows current-arc pointers through the level graph, and after
    each augmentation retreats to the tail of the first saturated arc on
    the path.  The phase that cannot level the sink has searched the whole
    residual network, so its levelled vertices are the min cut's side.
    """
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
        frontier = [s]
        depth = 0
        while frontier and level[t] < 0:
            depth += 1
            found = []
            for x in frontier:
                for a in adj[x]:
                    y = to[a]
                    if level[y] < 0 and resid[a] > zero:
                        level[y] = depth
                        found.append(y)
            frontier = found
        if level[t] < 0:
            break
        for y in frontier:
            level[y] = -1
        level[t] = depth

        it = [0] * n
        path: list[int] = []
        u = s
        while True:
            if u == t:
                push = min(resid[a] for a in path)
                for a in path:
                    resid[a] -= push
                    resid[a ^ 1] += push
                total += push
                # the bottleneck is now at 0, so some arc on the path is spent
                for k, a in enumerate(path):
                    if resid[a] <= zero:
                        break
                del path[k:]
                u = to[a ^ 1]
                continue
            arcs = adj[u]
            i = it[u]
            step = level[u] + 1
            while i < len(arcs):
                a = arcs[i]
                if level[to[a]] == step and resid[a] > zero:
                    break
                i += 1
            it[u] = i
            if i < len(arcs):
                path.append(a)
                u = to[a]
            elif u == s:
                break
            else:
                level[u] = -1  # dead end in this phase
                u = to[path.pop() ^ 1]
                it[u] += 1

    flows = tuple([c - r if c > r else 0.0 for c, r in zip(cap, resid)])
    side = frozenset([v for v, d in enumerate(level) if d >= 0])
    return FlowSolution(value=total, arc_flows=flows, min_cut_side=side)


def decompose_paths(net: FlowNetwork, sol: FlowSolution) -> tuple:
    """Strip the flow into source-to-sink paths; cycles are cancelled, not emitted.

    Returns (source, sink, weight, vertex sequence) tuples.

    Walks the positive-flow arcs from the source; whenever the walk revisits
    a vertex the enclosed cycle is cancelled.  Emits at most one path per
    arc and conserves the source-to-sink value.  Each vertex keeps a pointer
    to its first arc that may still carry flow: flows only fall, so an arc
    at or below zero is passed over once and never scanned again.
    """
    s, t = net.source, net.sink
    to = net.to
    adj = net.adj
    zero = net.zero
    flow = list(sol.arc_flows)  # arcs at or below zero are never walked
    ptr = [0] * net.node_count
    paths = []

    def first_out(u: int) -> int | None:
        arcs = adj[u]
        i = ptr[u]
        while i < len(arcs):
            a = arcs[i]
            if flow[a] > zero:
                ptr[u] = i
                return a
            i += 1
        ptr[u] = i
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
