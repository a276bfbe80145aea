"""Exact max-flow / min-cut over real capacities, and the flow's paths.

Level-graph augmentation (Dinic: BFS phases, DFS blocking flow) on an arc
list with residual pairing: arc i and arc i^1 are reverse twins.  Undirected
edges are a twin pair with equal capacities.  Each phase's BFS stops as
soon as it levels the sink, at level d: no shortest augmenting path goes
deeper, nor through any other vertex at distance d, so the rest of the
sink's layer is never searched.  A backward BFS from the sink, which reads
only levels below d, then unlevels every vertex with no level-graph path to
it.  Such a vertex stays dead for the whole phase, so dropping it only
spares the DFS, which walks current-arc pointers, from backing out of it:
it augments along the same paths in the same order and the result keeps
its bits.  Where nearly every vertex is a terminal, the sink's layer is most
of the graph, and the search ends at the first vertex of the layer below
it with a residual sink arc.  The min cut returned is the source-reachable
set of the final residual network, read off the last phase's BFS (the one
that cannot reach the sink, so searched everything), so every outward cut
arc is saturated by construction: the cut is 1-fair.

The solver keeps each augmenting path with its push, and these are the
flow's paths unless a push cancelled flow, that is, ran on an arc whose
twin carried flow.  Without cancellation they are an exact path
decomposition of the flow.  Each is a simple path, since it climbs one
level per arc.  No push takes back another, so an arc's flow is the sum of
the pushes over it, up to the last bits of the solver's ``cap - resid``,
and each push is at most the arc's residual, so that sum is within the
capacity up to rounding.  The pushes add up, in push order, to the value
bit for bit.  The solver sees every cancellation as a residual above the
(capped) capacity: a push adds more than ``zero``, at least 1e-12 of any
capped capacity and so far above its rounding, to the residual of each of
its arcs' twins, so a twin that carries flow always reads above its
capacity.  After a cancellation the solver strips its final flow
``cap - resid`` instead (an arc on no augmenting path only ever gained
residual, so its flow clamps to 0.0), walking flow-carrying arcs from the
source with a current-arc pointer per vertex and cancelling any cycle it
closes.

Both flow problems the algorithm poses on a vertex subset, the matching
player's and trimming's, share one layout: :func:`edge_network` is the
:class:`FlowNetwork` constructor on the subset's edge columns, on the
graph's ids plus a source and a sink, and the caller adds its terminal
arcs, a :class:`Terminals` from the source and one to the sink, with
:meth:`FlowNetwork.with_terminals`.  That returns a new network with the
terminal arcs ahead of the edge arcs in every adjacency list, so the
matching player shares one edge network between the rounds on an active
set.  It fills the new arcs' slots by slice assignment and rebuilds only
the terminals' adjacency lists: arc ids are not those of one build with
the terminal arcs first, but each vertex's adjacency order is, and the
solver and the path stripper read arcs only in that order.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .graph import Graph, ordered_sum, tolerance, vertex_mask

#: Flow at or below FLOW_ZERO times the network's largest capacity, capped at
#: FlowNetwork.cap_limit, is rounding residue.
FLOW_ZERO = 1e-12


def _check(node_count: int, ids: np.ndarray, caps: np.ndarray, name, barred=()) -> None:
    """ValueError, naming arc `name(i)`, for the first id i not an integer in
    [0, node_count) or in `barred`, else the first capacity that is not
    non-negative and finite."""
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError(f"vertex ids must be integers, got {ids.dtype}")
    bad = (ids < 0) | (ids >= node_count)
    for v in barred:
        bad |= ids == v
    if bad.any():
        other = " other than the source {} and the sink {}".format(*barred) if barred else ""
        raise ValueError(f"{name(int(np.argmax(bad)))}: vertex ids must be integers in "
                         f"[0, {node_count}){other}")
    bad = ~((caps >= 0.0) & (caps < math.inf))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{name(i)}: capacity must be non-negative and finite, got {caps[i]}")


class Terminals:
    """One side's terminal arcs, ``len`` of them: read-only copies of their
    vertex ``ids`` and ``caps``, and ``mass``, the caps added in order from
    0.0.  Empty, it has integer ids, so it combines with the other side's."""

    __slots__ = ("ids", "caps", "mass")

    def __init__(self, ids, caps):
        ids, caps = np.array(ids), np.array(caps, dtype=float)  # the caller's stay writable
        if not (ids.ndim == 1 and ids.shape == caps.shape):
            raise ValueError("terminal ids and capacities must be flat and of one length")
        self.ids, self.caps = ids if len(ids) else ids.astype(np.intp), caps
        self.ids.setflags(write=False)
        caps.setflags(write=False)
        self.mass = float(np.cumsum(caps)[-1]) if len(caps) else 0.0

    def __len__(self) -> int:
        return len(self.ids)


class FlowNetwork:
    """Directed arc-list network with residual twins, laid out once from arc
    columns and never changed after.  Arc 2i runs tails[i] -> heads[i] at
    caps[i], its twin 2i + 1 back at back_caps[i] (0 for a directed arc,
    caps[i] for an undirected edge); each vertex lists its arcs in
    increasing id.  Ids and capacities are checked first, in bulk."""

    __slots__ = ("node_count", "source", "sink", "to", "cap", "adj")

    def __init__(self, node_count: int, source: int, sink: int, tails, heads, caps, back_caps):
        if not (0 <= source < node_count and 0 <= sink < node_count):
            raise ValueError("source/sink out of range")
        if source == sink:
            raise ValueError("source and sink must differ")
        tails, heads = np.asarray(tails), np.asarray(heads)
        caps, back_caps = np.asarray(caps, dtype=float), np.asarray(back_caps, dtype=float)
        if not (tails.ndim == 1 and tails.shape == heads.shape == caps.shape == back_caps.shape):
            raise ValueError("arc columns must be flat and of one length")
        ends = np.column_stack((tails, heads)).ravel()  # arc a leaves ends[a]
        cap = np.column_stack((caps, back_caps)).ravel()
        _check(node_count, ends, cap,
               lambda a: f"arc {a // 2} ({tails[a // 2]} -> {heads[a // 2]})")
        ends = ends.astype(np.intp, copy=False)  # no arcs: an empty list converts to floats
        self.node_count, self.source, self.sink = int(node_count), int(source), int(sink)
        self.to = ends.reshape(-1, 2)[:, ::-1].ravel().tolist()
        self.cap = cap.tolist()
        order = np.argsort(ends, kind="stable").tolist()
        bounds = np.cumsum(np.bincount(ends, minlength=node_count)).tolist()
        self.adj = [order[a:b] for a, b in zip([0] + bounds, bounds)]

    def with_terminals(self, sources: Terminals, targets: Terminals) -> "FlowNetwork":
        """A new network: an arc source -> v for each vertex v of `sources`
        at its capacity, then an arc v -> sink for each of `targets`, at the
        ids after this network's, each with its zero-capacity twin.

        Every vertex lists its new arcs and twins, in the order given, ahead
        of its old ones, as the constructor lists them when they come first.
        A terminal is any vertex but the source and the sink (the check bars
        both), and may repeat, on one side or on both.  This network is not
        changed: its lists are copied (``adj`` shallowly, with a new list
        only for the vertices the new arcs touch).
        """
        s, t, k = self.source, self.sink, len(sources)
        caps = np.concatenate((sources.caps, targets.caps))
        _check(self.node_count, np.concatenate((sources.ids, targets.ids)), caps,
               lambda i: (f"source arc {i} ({s} -> {sources.ids[i]})" if i < k else
                          f"sink arc {i - k} ({targets.ids[i - k]} -> {t})"), barred=(s, t))
        src, tgt, caps = sources.ids.tolist(), targets.ids.tolist(), caps.tolist()
        base = len(self.to)
        mid = base + 2 * len(src)  # the first sink arc
        end = base + 2 * len(caps)
        net = copy.copy(self)
        net.to = to = self.to + [s] * (end - base)  # source twins lead to s
        to[base::2] = src + [t] * len(tgt)
        to[mid + 1::2] = tgt
        net.cap = cap = self.cap + [0.0] * (end - base)
        cap[base::2] = caps
        net.adj = adj = self.adj.copy()
        adj[s] = list(range(base, mid, 2)) + adj[s]
        adj[t] = list(range(mid + 1, end, 2)) + adj[t]
        # back to front, so a vertex lists its arcs in the order given
        for v, a in zip(reversed(tgt), range(end - 2, mid - 1, -2)):
            adj[v] = [a, *adj[v]]
        for v, a in zip(reversed(src), range(mid - 1, base, -2)):
            adj[v] = [a, *adj[v]]
        return net

    @property
    def arc_count(self) -> int:
        return len(self.to)

    @property
    def cap_limit(self) -> float:
        """EPS / FLOW_ZERO times the source's outgoing capacity.  No arc needs
        more than the source can send, so capping arcs here keeps the flow
        value and the min cut, and keeps `zero` within tolerance of it."""
        return tolerance(ordered_sum(self.cap[a] for a in self.adj[self.source])) / FLOW_ZERO

    @property
    def zero(self) -> float:
        return FLOW_ZERO * min(max(self.cap, default=0.0), self.cap_limit)


def edge_network(g: Graph, vertices, c: float) -> FlowNetwork:
    """Every edge of g with both endpoints in the set `vertices`, as an
    undirected edge at c*w in g.edges order, on g's ids plus source n and
    sink n + 1.

    Solves never change it; a caller adds its terminal arcs with
    :meth:`FlowNetwork.with_terminals`.
    """
    if not 0 < c < math.inf:
        raise ValueError(f"edge capacity factor c must be positive and finite, got {c}")
    n = g.vertex_count
    inside = vertex_mask(n, vertices)
    keep = inside[g.us] & inside[g.vs]
    with np.errstate(over="ignore"):
        caps = c * g.ws[keep]  # c * w > 0 may overflow to inf, which the check rejects
    return FlowNetwork(n + 2, n, n + 1, g.us[keep], g.vs[keep], caps, caps)


@dataclass(frozen=True)
class FlowSolution:
    """Max-flow value, the source side of a min cut, and the flow's paths."""

    value: float
    min_cut_side: frozenset
    #: (source, sink, weight, vertex sequence) tuples whose weights add up to
    #: the value: the augmentations in push order, or the stripped flow's
    #: paths if a push cancelled flow
    paths: tuple


def max_flow(net: FlowNetwork) -> FlowSolution:
    """Exact maximum flow; the min cut is the last phase's BFS tree.

    Each phase levels the residual network by BFS and stops once the sink
    is levelled, at level d, even if other vertices at distance d are not
    yet: the search ends with the frontier vertex whose arc levelled the
    sink.  The unfinished layer cannot matter.  A vertex at distance d is
    on no shortest path unless it is the sink, since a path through it
    reaches the sink no sooner than d + 1; and the backward BFS from the
    sink, over the twins of residual arcs, reads only levels below d.  It
    keeps only the vertices on a shortest path to the sink: a levelled
    vertex stays levelled only if a residual arc leads from it to a kept
    vertex one level up.  The DFS follows current-arc pointers through
    that level graph, and after each augmentation retreats to the tail of
    the first saturated arc on the path.  The phase that cannot level the
    sink has searched the whole residual network, so its levelled vertices
    are the min cut's side; the early stop never cuts that search short.

    The pruning changes no bit of the result.  A vertex with no level-graph
    path to the sink at the start of a phase has none for the whole phase:
    an augmentation only shrinks arcs that go one level up and grows their
    twins, which go one level down.  The DFS would only enter such a vertex
    and back out of it, pushing nothing, so it takes the same first
    admissible arc at every step and pushes the same paths in the same
    order as without the pruning.
    """
    n = net.node_count
    s, t = net.source, net.sink
    limit = net.cap_limit
    cap = net.cap
    largest = max(cap, default=0.0)
    if largest > limit:
        cap = [min(c, limit) for c in cap]
    resid = list(cap)
    to = net.to
    adj = net.adj
    zero = FLOW_ZERO * min(largest, limit)  # net.zero, without summing again
    total = 0.0
    paths = []  # every augmentation
    cancelled = False

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
                if level[t] >= 0:
                    break  # the rest of the sink's layer is on no shortest path
            frontier = found
        if level[t] < 0:
            break

        # backward pass: relevel only the vertices with a path to the sink
        live = [-1] * n
        live[s], live[t] = 0, depth
        frontier = [t]
        for k in range(depth - 1, 0, -1):
            found = []
            for y in frontier:
                for b in adj[y]:
                    x = to[b]
                    if level[x] == k and live[x] < 0 and resid[b ^ 1] > zero:
                        live[x] = k
                        found.append(x)
            frontier = found
        level = live

        it = [0] * n
        path: list[int] = []
        u = s
        while True:
            if u == t:
                push = min(map(resid.__getitem__, path))
                if not cancelled:
                    # an arc above its capacity has a twin with flow to cancel
                    cancelled = any(resid[a] > cap[a] for a in path)
                    paths.append((s, t, push, (s, *map(to.__getitem__, path))))
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

    if cancelled:
        paths = _strip_paths(net, [max(c - r, 0.0) for c, r in zip(cap, resid)], zero)
    side = frozenset([v for v, d in enumerate(level) if d >= 0])
    return FlowSolution(value=total, min_cut_side=side, paths=tuple(paths))


def decompose_paths(net: FlowNetwork, sol: FlowSolution) -> tuple:
    """The flow as source-to-sink paths, ``sol.paths``, checked: (source,
    sink, weight, vertex sequence) tuples whose weights add up to the flow
    value.

    There are at most as many paths as arcs: the stripping empties an arc
    with every path, and every augmentation saturates an arc whose residual
    could rise again only by a push on its twin, which would cancel flow, so
    there is at most one augmentation per twin pair.
    """
    paths = sol.paths
    if len(paths) > net.arc_count:
        raise InvariantViolation("path decomposition emitted more paths than arcs")
    total = ordered_sum(p[2] for p in paths)
    if abs(total - sol.value) > tolerance(sol.value):
        raise InvariantViolation(
            f"path decomposition total {total} does not match flow value {sol.value}")
    return paths


def _strip_paths(net: FlowNetwork, flow: list, zero: float) -> list:
    """Strip the per-arc flows into source-to-sink paths; cycles are cancelled, not emitted.

    Walks the arcs above `zero` from the source; whenever the walk revisits
    a vertex the enclosed cycle is cancelled.  Each vertex keeps a pointer
    to its first arc that may still carry flow: flows only fall, so an arc
    at or below zero is passed over once and never scanned again.  `flow`
    is used up.
    """
    s, t = net.source, net.sink
    to = net.to
    adj = net.adj
    ptr = [0] * net.node_count  # each vertex's first arc that may carry flow
    paths = []

    while True:
        arcs = adj[s]
        i = ptr[s]
        while i < len(arcs) and not flow[arcs[i]] > zero:
            i += 1
        ptr[s] = i
        if i == len(arcs):
            break
        walk_arcs: list[int] = []
        walk_nodes = [s]
        pos = {s: 0}
        u = s
        while u != t:
            arcs = adj[u]
            i = ptr[u]
            while i < len(arcs) and not flow[arcs[i]] > zero:
                i += 1
            ptr[u] = i
            if i == len(arcs):
                raise InvariantViolation(f"flow conservation broken at vertex {u}")
            a = arcs[i]
            v = to[a]
            if v in pos:
                # cancel the cycle closed by arc a
                k = pos[v]
                cycle = walk_arcs[k:] + [a]
                push = min(map(flow.__getitem__, cycle))
                for c in cycle:
                    flow[c] -= push
                for node in walk_nodes[k + 1:]:
                    del pos[node]
                del walk_arcs[k:]
                del walk_nodes[k + 1:]
            else:
                walk_arcs.append(a)
                walk_nodes.append(v)
                pos[v] = len(walk_nodes) - 1
            u = v
        push = min(map(flow.__getitem__, walk_arcs))
        for a in walk_arcs:
            flow[a] -= push
        paths.append((s, t, push, tuple(walk_nodes)))
    return paths
