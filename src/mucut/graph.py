"""Weighted undirected graphs, vertex measures, and exact cut arithmetic.

Every routine downstream (the game, trimming, the recursive decomposition)
funnels its cut and expansion queries through this module, so the
conventions live here: edge weights are strictly positive reals, parallel
edges merge by weight summation, and the expansion of a cut whose lighter
side carries no measure is the ``INFINITE`` sentinel rather than a float
infinity.  A side's measure is summed, never taken as a total minus a part.
All types are immutable after construction.

A graph is built from columns (``Graph(n, edges)`` pads its tuples and
hands over theirs): :func:`merge_pairs` checks them in bulk and merges
parallel edges with a stable sort and one ``bincount``, and
:func:`vertex_sums` adds the weights at each vertex, as they do for a
round's matching (``spectral.StochasticMatching``); the edges are read one
at a time only to name the first bad one when a check fails.

Every query on a vertex set reads it through :func:`vertex_mask`, the one
place that turns ids into membership and rejects an id that is not an
integer in [0, n).  A graph stores its edges once, as the sorted arrays
``us``/``vs``/``ws`` (``edges`` builds their tuples on each read); the edges
a set selects are a boolean mask over them, and their weight is added one
edge at a time in that order by :func:`selected_weight`: the bits of a loop
over ``edges``, on every interpreter.

Weights, measures, capacities and masses compare up to :func:`tolerance`,
EPS relative to their scale, and flow at or below ``flow.FLOW_ZERO`` of the
largest (capped) capacity is zero, so scaling weights and mu together keeps
the partition.  Projections are tested in unitless forms (sqrt(mu) * u and
energies mu * u^2 <= 1) against an absolute EPS, which accepts projections
that are rounding noise.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable, Sequence
from operator import index

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

class Graph:
    """Undirected weighted graph on dense vertex ids 0..n-1.

    Parallel edges are merged by weight summation at construction;
    self-loops are rejected.  The merged edges (u, v, w), u < v, in
    increasing (u, v) order, are stored once, as the read-only columns
    ``us``, ``vs`` and ``ws``; ``edges`` builds their tuples on each read,
    and :meth:`edge_id` finds a pair by binary search on them.

    ``Graph(n, edges)`` takes (u, v) or (u, v, w) tuples and
    :meth:`from_columns` takes the columns; both run one validate-and-merge
    pass over the columns.
    """

    __slots__ = ("vertex_count", "us", "vs", "ws", "_degrees")

    def __init__(self, vertex_count: int, edges: Iterable[Sequence]):
        n = _vertex_count(vertex_count)
        try:
            edges = edges if isinstance(edges, (list, tuple)) else list(edges)
        except TypeError:
            raise GraphInputError(f"edges must be an iterable of rows, not {edges!r}") from None
        widths = {len(e) if isinstance(e, _ROW_TYPES) else None for e in edges}
        if not widths <= {2, 3}:
            _check_edges(n, edges)  # raises for the first malformed edge
        rows = [(*e, 1.0)[:3] for e in edges] if 2 in widths else edges  # w = 1.0
        self._build(n, *(zip(*rows) if rows else ((), (), ())), edges)

    @classmethod
    def from_columns(cls, vertex_count: int, us, vs, ws) -> "Graph":
        """The graph on the edges (us[i], vs[i], ws[i]): integer id columns
        and real weights, checked and merged as ``Graph(n, edges)`` checks
        and merges their rows, with the same errors."""
        g = cls.__new__(cls)
        rows = zip(*(c if np.iterable(c) else () for c in (us, vs, ws)))  # a scalar column: no rows
        g._build(_vertex_count(vertex_count), us, vs, ws, rows)
        return g

    def _build(self, n: int, us, vs, ws, rows: Iterable[Sequence]) -> None:
        """Check and merge the columns; `rows`, the same edges as tuples, are
        read only to name the first bad one."""
        try:
            us, vs, ws = merge_pairs(n, us, vs, ws)
            valid = not (us == vs).any()
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            _check_edges(n, rows)
            raise GraphInputError("edge columns must be flat, of one length, with integer ids")
        self.vertex_count = n
        self.us, self.vs, self.ws = us, vs, ws
        self._degrees = vertex_sums(n, us, vs, ws)
        for col in (us, vs, ws, self._degrees):
            col.setflags(write=False)

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The merged edges as (u, v, w) tuples, built from the columns on each read."""
        return tuple(zip(self.us.tolist(), self.vs.tolist(), self.ws.tolist()))

    @property
    def edge_count(self) -> int:
        return len(self.ws)

    def weighted_degrees(self) -> np.ndarray:
        """Per-vertex sum of incident edge weights."""
        return self._degrees

    def edge_id(self, u: int, v: int) -> int | None:
        """Index in `edges` of the (merged) edge between u and v, or None if absent."""
        try:
            u, v = sorted((index(u), index(v)))
        except TypeError:
            raise GraphInputError(f"vertex ids must be integers, not ({u!r}, {v!r})") from None
        if 0 <= u and v < self.vertex_count:  # the rows of u, then v among them
            lo, hi = np.searchsorted(self.us, (u, u + 1)).tolist()
            i = lo + int(np.searchsorted(self.vs[lo:hi], v))
            if i < hi and self.vs[i] == v:
                return i
        return None

    def edge_weight(self, u: int, v: int) -> float | None:
        """Weight of the (merged) edge between u and v, or None if absent."""
        idx = self.edge_id(u, v)
        return None if idx is None else float(self.ws[idx])

    def __repr__(self):
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


def _vertex_count(vertex_count) -> int:
    n = index(vertex_count) if hasattr(type(vertex_count), "__index__") else -1
    if n < 0:
        raise GraphInputError(f"vertex_count must be a non-negative integer, not {vertex_count!r}")
    return n


#: What an edge row may be: an ordered sequence, never a dict or a set,
#: whose iteration order is not the order (u, v[, w])
_ROW_TYPES = (tuple, list, np.ndarray, Sequence)


def _check_edges(n: int, edges: Iterable[Sequence]) -> None:
    """Raise GraphInputError for the first edge, in the order given, that is
    not a row (u, v[, w]), has an id that is not an integer in [0, n), is a
    self-loop or has a weight that is not positive and finite."""
    for e in edges:
        if not isinstance(e, _ROW_TYPES) or len(e) not in (2, 3):
            raise GraphInputError(f"edge {e!r} is neither (u, v) nor (u, v, w)")
        try:
            u, v, w = index(e[0]), index(e[1]), _real(e[2]) if len(e) == 3 else 1.0
        except (TypeError, ValueError) as exc:
            raise GraphInputError(f"edge {e!r} needs integer ids and a real weight") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphInputError(f"self-loop at vertex {u} rejected")
        if not (w > 0.0 and math.isfinite(w)):
            raise GraphInputError(f"edge ({u},{v}) has weight {w}; weights must be "
                                  "positive and finite")


def _real(x) -> float:
    """``float(x)``; TypeError unless x is a real number (a str, bytes or
    complex value is not, although ``float`` may parse it)."""
    if np.asarray(x).dtype.kind not in "biufO":
        raise TypeError(f"{x!r} is not a real number")
    return float(x)


def _reals(values) -> np.ndarray:
    """`values` as a new float64 array, each checked as :func:`_real` checks it."""
    arr = np.asarray(values)
    if arr.dtype.kind == "O":  # say, Python ints beyond 64 bits
        return np.array([_real(x) for x in arr.flat]).reshape(arr.shape)
    if arr.dtype.kind not in "biuf":
        raise TypeError(f"values of dtype {arr.dtype} are not real numbers")
    return arr.astype(float)


def merge_pairs(n: int, us, vs, ws) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct pairs (u, v, w), u <= v, sorted by (u, v), of flat columns
    of one length with integer ids in [0, n) and positive, finite real
    weights, else ValueError (TypeError for weights that are not reals).  A
    stable sort puts each pair's entries, either way round, in a run in input
    order, and ``bincount`` adds each run from 0.0: a dict merge's bits."""
    us, vs, ws = np.asarray(us), np.asarray(vs), _reals(ws)
    if not (us.ndim == 1 and us.shape == vs.shape == ws.shape and (
            not us.size or us.dtype.kind in "biu" and vs.dtype.kind in "biu")):
        raise ValueError("pair columns must be flat, of one length, with integer ids")
    if us.size and not (0 <= min(us.min(), vs.min()) and max(us.max(), vs.max()) < n
                        and 0.0 < ws.min() <= ws.max() < math.inf):  # before a cast can wrap
        raise ValueError(f"pair ids must be in [0, {n}) and weights positive and finite")
    lo, hi = np.minimum(us, vs).astype(np.intp), np.maximum(us, vs).astype(np.intp)
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    ws = np.bincount(np.cumsum(first) - 1, ws[order]).astype(float, copy=False)  # no weights: int
    return lo[order][first], hi[order][first], ws


def vertex_sums(n: int, us, vs, ws) -> np.ndarray:
    """Sum of the weights of the pairs (us[i], vs[i], ws[i]) at each of the n
    vertices, added in pair order (u0, v0, u1, v1, ...) as a loop would."""
    ends = np.column_stack((us, vs)).ravel()
    return np.bincount(ends, np.repeat(ws, 2), minlength=n).astype(float, copy=False)


class VertexMeasure:
    """Non-negative vertex measure with its support: the terminals' sorted
    ids ``support``, a read-only ``intp`` array, and ``support_mask``.

    Precomputes the masked square roots and pseudo-inverses used by the
    walk operator: coordinates outside the support map to zero rather than
    through a division.
    """

    __slots__ = ("values", "support", "support_mask", "total", "sqrt", "inv_sqrt", "pseudo_inv")

    def __init__(self, values):
        try:
            vals = _reals(values)
        except (TypeError, ValueError):
            raise GraphInputError("measure values must be real numbers") from None
        if vals.ndim != 1:
            raise GraphInputError("measure must be a flat vector")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise GraphInputError("measure values must be finite and non-negative")
        mask = vals > 0.0
        self.values = vals
        self.support_mask = mask
        self.support = np.flatnonzero(mask)
        self.total = float(vals.sum())
        self.sqrt = np.where(mask, np.sqrt(vals), 0.0)
        with np.errstate(divide="ignore", over="ignore"):
            self.inv_sqrt = np.where(mask, 1.0 / np.sqrt(np.where(mask, vals, 1.0)), 0.0)
            self.pseudo_inv = np.where(mask, 1.0 / np.where(mask, vals, 1.0), 0.0)
        for arr in (self.values, self.support, self.support_mask, self.sqrt, self.inv_sqrt,
                    self.pseudo_inv):
            arr.setflags(write=False)

    @classmethod
    def from_degrees(cls, g: Graph) -> "VertexMeasure":
        """The conductance measure: mu(v) = weighted degree of v."""
        return cls(g.weighted_degrees())

    @classmethod
    def uniform(cls, n: int, value: float = 1.0) -> "VertexMeasure":
        return cls(np.full(n, float(value)))

    def of(self, subset: Iterable[int]) -> float:
        """Total measure of a vertex set (each id once, summed in id order)."""
        return float(self.values[vertex_mask(len(self.values), subset)].sum())

    def restrict(self, vertices: Iterable[int]) -> "VertexMeasure":
        """Measure re-indexed to the dense ids :func:`induced_subgraph` gives
        the same set (the i-th smallest id -> i)."""
        return VertexMeasure(self.values[vertex_mask(len(self.values), vertices)])

    def spread(self) -> float | None:
        """max/min over the support; None when the support is empty."""
        if not self.support.size:
            return None
        on = self.values[self.support_mask]
        return float(on.max() / on.min())

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        return f"VertexMeasure(n={len(self.values)}, total={self.total:g}, terminals={len(self.support)})"


def vertex_mask(n: int, vertices: Iterable[int]) -> np.ndarray:
    """Membership of a vertex set as a length-n boolean array.

    Raises GraphInputError for an id that is not an integer in [0, n).
    """
    ids = np.asarray(vertices if isinstance(vertices, np.ndarray) else list(vertices))
    if ids.size and (ids.ndim != 1 or ids.dtype.kind not in "iu" or ids.min() < 0
                     or ids.max() >= n):
        raise GraphInputError(f"vertex ids must be integers in [0, {n})")
    mask = np.zeros(n, dtype=bool)
    mask[ids.astype(np.intp, copy=False)] = True  # an empty list converts to floats
    return mask


def ordered_sum(values: Iterable[float]) -> float:
    """Sum of floats added one at a time in the order given, from 0.0: the
    bits of a plain loop on every interpreter (builtin ``sum`` compensates
    its rounding from Python 3.12)."""
    total = 0.0
    for x in values:
        total += x
    return total


def selected_weight(g: Graph, selected: np.ndarray) -> float:
    """Total weight of the edges a boolean mask over `g.edges` selects,
    added one at a time in edges order."""
    ws = g.ws[selected]
    return float(np.cumsum(ws)[-1]) if len(ws) else 0.0


def cut_weight(g: Graph, side: Iterable[int]) -> float:
    """Total weight of edges with exactly one endpoint in the cut side."""
    inside = vertex_mask(g.vertex_count, side)
    return selected_weight(g, inside[g.us] != inside[g.vs])


def mu_expansion_of_cut(g: Graph, mu: VertexMeasure, side: Iterable[int],
                        vertices: Iterable[int] | None = None):
    """Expansion w(S, A-S) / min(mu(S), mu(A-S)) of a proper cut side S of
    A = `vertices` (default: all of g) over the edges inside A, each side's
    measure summed on its own; ``INFINITE`` when a side holds no terminal."""
    n = g.vertex_count
    inside = np.ones(n, dtype=bool) if vertices is None else vertex_mask(n, vertices)
    cut = vertex_mask(n, side)
    rest = inside & ~cut
    if not (cut.any() and rest.any()) or (cut & ~inside).any():
        raise GraphInputError("cut side must be a nonempty proper subset of the vertex set")
    crossing = selected_weight(g, inside[g.us] & inside[g.vs] & (cut[g.us] != cut[g.vs]))
    denom = min(float(mu.values[cut].sum()), float(mu.values[rest].sum()))
    return crossing / denom if denom > 0.0 else INFINITE


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph on `vertices` with dense relabeling.

    Returns (subgraph, to_global) where to_global[local_id] = original id;
    local ids follow ascending original ids.
    """
    inside = vertex_mask(g.vertex_count, vertices)
    to_global = np.flatnonzero(inside)
    if not len(to_global):
        raise GraphInputError("cannot induce a subgraph on an empty vertex set")
    local = np.cumsum(inside) - 1
    keep = inside[g.us] & inside[g.vs]
    sub = Graph.from_columns(len(to_global), local[g.us[keep]], local[g.vs[keep]], g.ws[keep])
    return sub, tuple(to_global.tolist())


def connected_components(g: Graph, vertices: Iterable[int] | None = None
                         ) -> tuple[tuple[int, ...], ...]:
    """Components of G[vertices] (default: all of g) as sorted tuples of g's
    ids, ordered by smallest member; no subgraph is built."""
    n = g.vertex_count
    inside = np.ones(n, dtype=bool) if vertices is None else vertex_mask(n, vertices)
    keep = inside[g.us] & inside[g.vs]  # the edges in the set, sorted by (u, v)
    us, vs = g.us[keep], g.vs[keep]
    # x's neighbours are its lower ones (the us of the edges sorted by v), then
    # its upper ones (the vs of its rows: us is sorted already).  The j-th end
    # of either half lands at j plus the other half's ends at smaller ids.
    by_v = np.argsort(vs, kind="stable")
    n_lower, n_upper = np.bincount(vs, minlength=n), np.bincount(us, minlength=n)
    lower_end, upper_end = np.cumsum(n_lower), np.cumsum(n_upper)
    rank = np.arange(len(us))
    nbrs = np.empty(2 * len(us), dtype=np.intp)
    nbrs[rank + (upper_end - n_upper)[vs[by_v]]] = us[by_v]
    nbrs[rank + lower_end[us]] = vs
    nbrs = nbrs.tolist()
    ptr = [0] + (lower_end + upper_end).tolist()
    unseen = [True] * n
    comps = []
    for start in np.flatnonzero(inside).tolist():
        if not unseen[start]:
            continue
        unseen[start] = False
        comp = [start]
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in nbrs[ptr[x]:ptr[x + 1]]:
                if unseen[y]:
                    unseen[y] = False
                    comp.append(y)
                    queue.append(y)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def is_connected(g: Graph) -> bool:
    return g.vertex_count <= 1 or len(connected_components(g)) == 1
