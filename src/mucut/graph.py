"""Weighted undirected graphs, vertex measures, and exact cut arithmetic.

Every routine downstream (the game, trimming, the recursive decomposition)
funnels its cut and expansion queries through this module, so the
conventions live here: edge weights are strictly positive reals, parallel
edges merge by weight summation, and the expansion of a cut whose lighter
side carries no measure is the ``INFINITE`` sentinel rather than a float
infinity.  All types are immutable after construction.

Weights, measures, capacities and masses compare up to :func:`tolerance`,
EPS relative to their scale, and flow at or below ``flow.FLOW_ZERO`` of the
largest (capped) capacity is zero, so scaling weights and mu together keeps
the partition.  Projections are tested in unitless forms (sqrt(mu) * u and
energies mu * u^2 <= 1) against an absolute EPS, which accepts projections
that are rounding noise.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

import numpy as np

from .errors import GraphInputError

#: Relative tolerance for equality comparisons on weights and measures.
EPS = 1e-9


def tolerance(scale: float) -> float:
    """Largest difference that is rounding between quantities of size `scale`."""
    return EPS * abs(scale)


class Infinite:
    """Sentinel for an infinite expansion value.

    Compares greater than every finite number and equal only to itself, so
    minimization loops can mix floats and the sentinel without ever pushing
    a float infinity through arithmetic.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, Infinite)

    def __gt__(self, other):
        return not isinstance(other, Infinite)

    def __ge__(self, other):
        return True

    def __repr__(self):
        return "INFINITE"


INFINITE = Infinite()


class Cut:
    """One side of a vertex cut, with O(1) membership."""

    __slots__ = ("side", "members")

    def __init__(self, side: Iterable[int]):
        self.side = frozenset(int(v) for v in side)
        self.members = tuple(sorted(self.side))

    def __contains__(self, v) -> bool:
        return v in self.side

    def __len__(self) -> int:
        return len(self.side)

    def __eq__(self, other):
        return isinstance(other, Cut) and self.side == other.side

    def __hash__(self):
        return hash(self.side)

    def __repr__(self):
        return f"Cut({list(self.members)})"


class Graph:
    """Undirected weighted graph on dense vertex ids 0..n-1.

    Parallel edges are merged by weight summation at construction;
    self-loops are rejected.
    """

    __slots__ = ("vertex_count", "edges", "adjacency", "_pair_index", "_degrees")

    def __init__(self, vertex_count: int, edges: Iterable[Sequence]):
        n = int(vertex_count)
        if n < 0:
            raise GraphInputError("vertex_count must be non-negative")
        merged: dict[tuple[int, int], float] = {}
        for e in edges:
            u, v, w = (int(e[0]), int(e[1]), float(e[2])) if len(e) == 3 else (int(e[0]), int(e[1]), 1.0)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphInputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphInputError(f"self-loop at vertex {u} rejected")
            if not (w > 0.0) or not np.isfinite(w):
                raise GraphInputError(f"edge ({u},{v}) has non-positive weight {w}")
            key = (u, v) if u <= v else (v, u)
            merged[key] = merged.get(key, 0.0) + w
        edge_list = tuple((u, v, merged[(u, v)]) for (u, v) in sorted(merged))
        adjacency: list[list[tuple[int, float, int]]] = [[] for _ in range(n)]
        degrees = np.zeros(n)
        for idx, (u, v, w) in enumerate(edge_list):
            adjacency[u].append((v, w, idx))
            adjacency[v].append((u, w, idx))
            degrees[u] += w
            degrees[v] += w
        self.vertex_count = n
        self.edges = edge_list
        self.adjacency = tuple(tuple(a) for a in adjacency)
        self._pair_index = {(u, v): i for i, (u, v, _) in enumerate(edge_list)}
        degrees.setflags(write=False)
        self._degrees = degrees

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def weighted_degrees(self) -> np.ndarray:
        """Per-vertex sum of incident edge weights."""
        return self._degrees

    def edge_weight(self, u: int, v: int) -> float | None:
        """Weight of the (merged) edge between u and v, or None if absent."""
        key = (u, v) if u <= v else (v, u)
        idx = self._pair_index.get(key)
        return None if idx is None else self.edges[idx][2]

    def __repr__(self):
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


class VertexMeasure:
    """Non-negative vertex measure with its support (terminal) set.

    Precomputes the masked square roots and pseudo-inverses used by the
    walk operator: coordinates outside the support map to zero rather than
    through a division.
    """

    __slots__ = ("values", "support", "support_mask", "total", "sqrt", "inv_sqrt", "pseudo_inv")

    def __init__(self, values):
        vals = np.array(values, dtype=float)
        if vals.ndim != 1:
            raise GraphInputError("measure must be a flat vector")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise GraphInputError("measure values must be finite and non-negative")
        mask = vals > 0.0
        self.values = vals
        self.support_mask = mask
        self.support = frozenset(int(v) for v in np.flatnonzero(mask))
        self.total = float(vals.sum())
        self.sqrt = np.where(mask, np.sqrt(vals), 0.0)
        with np.errstate(divide="ignore", over="ignore"):
            self.inv_sqrt = np.where(mask, 1.0 / np.sqrt(np.where(mask, vals, 1.0)), 0.0)
            self.pseudo_inv = np.where(mask, 1.0 / np.where(mask, vals, 1.0), 0.0)
        for arr in (self.values, self.sqrt, self.inv_sqrt, self.pseudo_inv):
            arr.setflags(write=False)

    @classmethod
    def from_degrees(cls, g: Graph) -> "VertexMeasure":
        """The conductance measure: mu(v) = weighted degree of v."""
        return cls(g.weighted_degrees())

    @classmethod
    def uniform(cls, n: int, value: float = 1.0) -> "VertexMeasure":
        return cls(np.full(n, float(value)))

    def of(self, subset: Iterable[int]) -> float:
        """Total measure of a vertex subset (summed in sorted id order)."""
        idx = sorted(int(v) for v in subset)
        if not idx:
            return 0.0
        return float(self.values[idx].sum())

    def restrict(self, vertices: Sequence[int]) -> "VertexMeasure":
        """Measure re-indexed to a subgraph's dense ids (vertices[i] -> i)."""
        return VertexMeasure(self.values[list(vertices)])

    def spread(self) -> float | None:
        """max/min over the support; None when the support is empty."""
        if not self.support:
            return None
        on = self.values[self.support_mask]
        return float(on.max() / on.min())

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        return f"VertexMeasure(n={len(self.values)}, total={self.total:g}, terminals={len(self.support)})"


def cut_weight(g: Graph, cut: Cut | Iterable[int]) -> float:
    """Total weight of edges with exactly one endpoint in the cut side."""
    side = cut.side if isinstance(cut, Cut) else frozenset(cut)
    total = 0.0
    for u, v, w in g.edges:
        if (u in side) != (v in side):
            total += w
    return total


def mu_expansion_of_cut(g: Graph, mu: VertexMeasure, cut: Cut | Iterable[int]):
    """Expansion |E(S, S-bar)| / min(mu(S), mu(S-bar)) of a proper cut.

    Returns ``INFINITE`` when the lighter side carries no measure.
    """
    side = cut.side if isinstance(cut, Cut) else frozenset(cut)
    if not side or len(side) >= g.vertex_count:
        raise GraphInputError("cut side must be a nonempty proper subset")
    crossing = cut_weight(g, side)
    inside = mu.of(side)
    denom = min(inside, mu.total - inside)
    if denom <= 0.0:
        return INFINITE
    return crossing / denom


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph on `vertices` with dense relabeling.

    Returns (subgraph, to_global) where to_global[local_id] = original id;
    local ids follow ascending original ids.
    """
    to_global = tuple(sorted(int(v) for v in set(vertices)))
    if not to_global:
        raise GraphInputError("cannot induce a subgraph on an empty vertex set")
    if to_global[0] < 0 or to_global[-1] >= g.vertex_count:
        raise GraphInputError("vertex out of range for induced subgraph")
    local = {v: i for i, v in enumerate(to_global)}
    sub_edges = []
    for u, v, w in g.edges:
        iu = local.get(u)
        iv = local.get(v)
        if iu is not None and iv is not None:
            sub_edges.append((iu, iv, w))
    return Graph(len(to_global), sub_edges), to_global


def connected_components(g: Graph, vertices: Iterable[int] | None = None
                         ) -> tuple[tuple[int, ...], ...]:
    """Components of G[vertices] (default: all of g) as sorted tuples of g's
    ids, ordered by smallest member; no subgraph is built."""
    inside = range(g.vertex_count) if vertices is None else frozenset(int(v) for v in vertices)
    seen = set()
    comps = []
    for start in sorted(inside):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y, _, _ in g.adjacency[x]:
                if y in inside and y not in seen:
                    seen.add(y)
                    comp.append(y)
                    queue.append(y)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def is_connected(g: Graph) -> bool:
    return g.vertex_count <= 1 or len(connected_components(g)) == 1
