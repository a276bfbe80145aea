"""Brute-force oracles and checkers: the ground truth for everything else.

Cut enumeration is exhaustive and vectorized over bitmask chunks so the
size-20 cap stays under seconds.  One enumerator, :func:`_ratios`, serves
both oracles on a vertex set in the caller's ids: `brute_force_expansion`
pins the set's smallest id to one side to halve the space, and
`brute_force_near_expansion` also counts the edges that leave the set.  A
cut counts only when each side holds a terminal (a vertex of positive
measure).  The enumerator shares no code with the algorithms it
validates; a witness's value is :func:`graph.mu_expansion_of_cut`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .graph import (Graph, Infinite, INFINITE, VertexMeasure, mu_expansion_of_cut, tolerance,
                    vertex_mask)

MAX_ENUM_N = 20
DEFAULT_VERIFY_MAX_N = 16  # the default size cap of brute-forced certificates and checks
_CHUNK = 1 << 19  # cells per chunk of the enumeration: masks x (edges counted + bits)


def _ratios(g: Graph, mu: VertexMeasure, inside: np.ndarray, near: bool):
    """Yield each chunk of the cut masks of the set `inside` with their
    ratios w(S, rest) / min(mu(S), mu(rest)); np.inf where a side holds no
    terminal or the rounded denominator is not positive.

    Bit j of a mask is the set's j-th smallest id, counted from 0, or for
    expansion, which pins the smallest id to the rest, from 1.  The
    numerator adds the edges inside the set that the cut splits, then, for
    near-expansion, the edges that leave the set from S.
    """
    order = np.flatnonzero(inside)
    pinned = 0 if near else 1
    free = len(order) - pinned
    bit = np.zeros(len(inside), dtype=np.int64)
    bit[order] = np.roll(np.arange(len(order)), pinned)  # the pinned id's bit is never set
    terminals = int((1 << bit[order[mu.values[order] > 0.0]]).sum())
    values = mu.values[order[pinned:]]
    total = float(mu.values[order].sum())
    cols = np.arange(free, dtype=np.int64)
    us, vs, ws = g.us, g.vs, g.ws
    inner = inside[us] & inside[vs]
    iu, iv, iw = bit[us[inner]], bit[vs[inner]], ws[inner]
    out = (inside[us] != inside[vs]) & near
    ends, ow = bit[np.where(inside[us], us, vs)[out]], ws[out]
    end = (1 << free) - 1 if near else 1 << free  # the rest is nonempty: not all of `a`, or pinned
    # a power of two, >= 16: a mask keeps its place in the product's row blocks, and its bits
    step = 1 << max(4, (_CHUNK // (len(iw) + len(ow) + free)).bit_length() - 1)
    for start in range(1, end, step):
        masks = np.arange(start, min(start + step, end), dtype=np.int64)
        rows = masks[:, None]
        mu_side = ((rows >> cols) & 1) @ values
        denom = np.minimum(mu_side, total - mu_side)
        crossing = ((((rows >> iu) & 1) != ((rows >> iv) & 1)) * iw).sum(axis=1)
        crossing += (((rows >> ends) & 1) * ow).sum(axis=1)
        valid = (denom > 0.0) & ((masks & terminals) != 0) & ((~masks & terminals) != 0)
        yield masks, np.where(valid, crossing / np.where(valid, denom, 1.0), np.inf)


def _first_side(masks: np.ndarray) -> int:
    """The mask whose bit positions, as an ascending tuple, sort first:
    the lowest first bit wins, then the lowest next, and a prefix wins."""
    rest = masks
    while len(masks) > 1 and rest.all():
        low = rest & -rest
        keep = low == low.min()
        masks, rest = masks[keep], (rest ^ low)[keep]
    return int(masks[np.argmin(rest)])


def brute_force_expansion(g: Graph, mu: VertexMeasure, vertices: Optional[Iterable[int]] = None):
    """Exact minimum expansion over all proper cuts of G[vertices] (default:
    all of g) with a terminal on both sides, and a witness side as a sorted
    tuple of g's ids; (INFINITE, None) when no such cut exists.

    Ties resolve to the lexicographically smallest witness side (the side
    not containing the set's smallest id).  The returned value is
    recomputed directly on the witness so it reproduces exactly.
    """
    n = g.vertex_count
    inside = np.ones(n, dtype=bool) if vertices is None else vertex_mask(n, vertices)
    order = np.flatnonzero(inside)
    if not (2 <= len(order) <= MAX_ENUM_N):
        raise ValueError(f"brute force supports 2 <= n <= {MAX_ENUM_N}, got {len(order)}")
    best, witness = np.inf, 0
    for masks, ratio in _ratios(g, mu, inside, near=False):
        lo = ratio.min()
        if lo == np.inf or lo > best:
            continue
        ties = masks[ratio == lo]
        best, witness = lo, _first_side(np.append(ties, witness) if lo == best else ties)
    if best == np.inf:
        return INFINITE, None
    side = order[1:][(witness >> np.arange(len(order) - 1)) & 1 == 1]
    return mu_expansion_of_cut(g, mu, side, order), tuple(side.tolist())


def brute_force_near_expansion(g: Graph, mu: VertexMeasure, a: Iterable[int]):
    """Exact near-expansion of `a`: minimum over splits S of `a` with a
    terminal on both sides of the weight leaving S in the whole graph over
    min(mu(S), mu(a minus S)).

    The edges from S that leave `a` count in the numerator too.  INFINITE
    when no such split exists.
    """
    inside = vertex_mask(g.vertex_count, a)
    k = int(inside.sum())
    if k == 0:
        raise ValueError("near-expansion of an empty set is undefined")
    if k > MAX_ENUM_N:
        raise ValueError(f"brute force supports |a| <= {MAX_ENUM_N}, got {k}")
    best = min((float(ratio.min()) for _, ratio in _ratios(g, mu, inside, near=True)),
               default=math.inf)
    return INFINITE if best == math.inf else best


@dataclass(frozen=True)
class ClusterCheck:
    index: int
    size: int
    expansion: Optional[object]  # float, INFINITE, or None when too large
    passed: Optional[bool]  # None when not checkable


@dataclass(frozen=True)
class ValidationReport:
    partition_exact: bool
    reported_weight: float
    recounted_weight: float
    weight_matches: bool
    check_level: float
    clusters: tuple[ClusterCheck, ...]
    all_passed: bool


def validate_partition(g: Graph, mu: VertexMeasure, result, phi: Optional[float],
                       check_level: Optional[float] = None,
                       max_n: int = DEFAULT_VERIFY_MAX_N) -> ValidationReport:
    """Re-derive every claim of a decomposition result from scratch.

    Exactness of the partition, the inter-cluster weight recount, and a
    brute-forced expansion for every cluster of at most `max_n` vertices
    (in [1, MAX_ENUM_N]); clusters are held to `check_level` (phi/6 by
    default, the trimming certificate), which must be positive and finite.
    """
    if not 1 <= max_n <= MAX_ENUM_N:
        raise ValueError(f"max_n must be in [1, {MAX_ENUM_N}], got {max_n}")
    level = phi / 6.0 if check_level is None else check_level
    if not 0.0 < level < math.inf:
        raise ValueError(f"check_level must be positive and finite, got {level}")
    clusters = [tuple(c) for c in result.clusters]
    flat = [v for cl in clusters for v in cl]
    exact = len(flat) == g.vertex_count and set(flat) == set(range(g.vertex_count))

    owner = {}
    for i, cl in enumerate(clusters):
        for v in cl:
            owner[v] = i
    recount = 0.0  # one edge at a time, in edges order, as the library adds it
    for u, v, w in g.edges:
        if exact and owner[u] != owner[v]:
            recount += w
    reported = float(result.inter_cluster_edge_weight)
    weight_ok = abs(recount - reported) <= tolerance(recount)

    checks = []
    all_ok = exact and weight_ok
    for i, cl in enumerate(clusters):
        if any(not (0 <= v < g.vertex_count) for v in cl) or len(cl) != len(set(cl)):
            all_ok = False
            checks.append(ClusterCheck(i, len(cl), None, False))
            continue
        if len(cl) == 1:
            checks.append(ClusterCheck(i, 1, INFINITE, True))
            continue
        if len(cl) > max_n:
            checks.append(ClusterCheck(i, len(cl), None, None))
            continue
        value, _ = brute_force_expansion(g, mu, cl)
        passed = bool(value >= level) if not isinstance(value, Infinite) else True
        all_ok = all_ok and passed
        checks.append(ClusterCheck(i, len(cl), value, passed))

    return ValidationReport(
        partition_exact=exact,
        reported_weight=reported,
        recounted_weight=recount,
        weight_matches=weight_ok,
        check_level=level,
        clusters=tuple(checks),
        all_passed=all_ok,
    )


def check_embedding_congestion(host: Graph, paths) -> float:
    """Largest per-edge load-to-weight ratio induced by weighted paths.

    Raises ValueError when a path step uses a pair that is not a host edge.
    """
    loads: dict[int, float] = {}
    for entry in paths:
        _, _, w, seq = entry
        for a, b in zip(seq, seq[1:]):
            idx = host.edge_id(a, b)
            if idx is None:
                raise ValueError(f"path uses non-edge ({a},{b})")
            loads[idx] = loads.get(idx, 0.0) + w
    worst = 0.0
    for idx, load in loads.items():
        worst = max(worst, load / float(host.ws[idx]))
    return worst
