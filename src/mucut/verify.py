"""Brute-force oracles and checkers: the ground truth for everything else.

Cut enumeration is exhaustive (vertex 0 pinned to one side to halve the
space) and vectorized over bitmask chunks so the size-20 cap stays under
seconds.  Nothing here shares code with the algorithms it validates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import GraphInputError
from .graph import (Graph, Infinite, INFINITE, VertexMeasure, induced_subgraph,
                    mu_expansion_of_cut, tolerance)

MAX_ENUM_N = 20
DEFAULT_VERIFY_MAX_N = 16  # the default size cap of brute-forced certificates and checks
_CHUNK = 1 << 16


def _members_from_mask(mask: int, offset: int = 1) -> tuple[int, ...]:
    out = []
    v = offset
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def brute_force_expansion(g: Graph, mu: VertexMeasure):
    """Exact minimum expansion over all proper cuts with positive measure
    on both sides, and a witness side as a sorted tuple; (INFINITE, None)
    when no such cut exists.

    Ties resolve to the lexicographically smallest witness side (the side
    not containing vertex 0).  The returned value is recomputed directly
    on the witness so it reproduces exactly.
    """
    n = g.vertex_count
    if not (2 <= n <= MAX_ENUM_N):
        raise ValueError(f"brute force supports 2 <= n <= {MAX_ENUM_N}, got {n}")
    us, vs, ws = g.us, g.vs, g.ws
    tail = mu.values[1:]
    total_mu = mu.total
    bits = np.arange(n - 1, dtype=np.int64)

    best_ratio = None
    best_mask = None
    for start in range(1, 1 << (n - 1), _CHUNK):
        stop = min(start + _CHUNK, 1 << (n - 1))
        masks = np.arange(start, stop, dtype=np.int64)
        membership = (masks[:, None] >> bits[None, :]) & 1
        mu_side = membership @ tail
        denom = np.minimum(mu_side, total_mu - mu_side)
        if len(us):
            in_u = np.where(us[None, :] == 0, 0, (masks[:, None] >> np.maximum(us - 1, 0)[None, :]) & 1)
            in_v = np.where(vs[None, :] == 0, 0, (masks[:, None] >> np.maximum(vs - 1, 0)[None, :]) & 1)
            crossing = ((in_u != in_v) * ws[None, :]).sum(axis=1)
        else:
            crossing = np.zeros(len(masks))
        valid = denom > 0.0
        if not valid.any():
            continue
        ratio = np.where(valid, crossing / np.where(valid, denom, 1.0), np.inf)
        lo = float(ratio.min())
        if not np.isfinite(lo):
            continue
        if best_ratio is None or lo < best_ratio or lo == best_ratio:
            tie_idx = np.flatnonzero(ratio == lo)
            candidate = None
            for i in tie_idx:
                members = _members_from_mask(int(masks[i]))
                if candidate is None or members < candidate:
                    candidate = members
            if best_ratio is None or lo < best_ratio or (lo == best_ratio and candidate < best_mask):
                best_ratio = lo
                best_mask = candidate

    if best_ratio is None:
        return INFINITE, None
    return mu_expansion_of_cut(g, mu, best_mask), best_mask


def brute_force_near_expansion(g: Graph, mu: VertexMeasure, a: Iterable[int]):
    """Exact near-expansion of `a`: minimum over splits S of `a` of the
    weight leaving S in the whole graph over min(mu(S), mu(a minus S)).

    Edges escaping `a` count toward every numerator.  INFINITE when no
    split has positive measure on both sides.
    """
    order = tuple(sorted(int(v) for v in set(a)))
    k = len(order)
    if k == 0:
        raise ValueError("near-expansion of an empty set is undefined")
    if order[0] < 0 or order[-1] >= g.vertex_count:
        raise GraphInputError(f"vertex id out of range for n={g.vertex_count}")
    if k > MAX_ENUM_N:
        raise ValueError(f"brute force supports |a| <= {MAX_ENUM_N}, got {k}")
    if k == 1:
        return INFINITE
    local = {v: i for i, v in enumerate(order)}
    mu_local = mu.values[list(order)]
    total_local = float(mu_local.sum())

    inner_u, inner_v, inner_w = [], [], []
    escape_vert, escape_w = [], []
    for u, v, w in g.edges:
        iu = local.get(u)
        iv = local.get(v)
        if iu is not None and iv is not None:
            inner_u.append(iu)
            inner_v.append(iv)
            inner_w.append(w)
        elif iu is not None:
            escape_vert.append(iu)
            escape_w.append(w)
        elif iv is not None:
            escape_vert.append(iv)
            escape_w.append(w)
    inner_u = np.array(inner_u, dtype=np.int64)
    inner_v = np.array(inner_v, dtype=np.int64)
    inner_w = np.array(inner_w, dtype=float)
    escape_vert = np.array(escape_vert, dtype=np.int64)
    escape_w = np.array(escape_w, dtype=float)
    bits = np.arange(k, dtype=np.int64)

    best = None
    for start in range(1, (1 << k) - 1, _CHUNK):
        stop = min(start + _CHUNK, (1 << k) - 1)
        masks = np.arange(start, stop, dtype=np.int64)
        membership = (masks[:, None] >> bits[None, :]) & 1
        mu_side = membership @ mu_local
        denom = np.minimum(mu_side, total_local - mu_side)
        crossing = np.zeros(len(masks))
        if len(inner_u):
            in_u = (masks[:, None] >> inner_u[None, :]) & 1
            in_v = (masks[:, None] >> inner_v[None, :]) & 1
            crossing += ((in_u != in_v) * inner_w[None, :]).sum(axis=1)
        if len(escape_vert):
            in_e = (masks[:, None] >> escape_vert[None, :]) & 1
            crossing += (in_e * escape_w[None, :]).sum(axis=1)
        valid = denom > 0.0
        if not valid.any():
            continue
        ratio = np.where(valid, crossing / np.where(valid, denom, 1.0), np.inf)
        lo = float(ratio.min())
        if np.isfinite(lo) and (best is None or lo < best):
            best = lo
    return INFINITE if best is None else best


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
        sub, order = induced_subgraph(g, cl)
        value, _ = brute_force_expansion(sub, mu.restrict(order))
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
