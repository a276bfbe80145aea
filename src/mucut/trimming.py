"""Prune a near-expander down to a certified expander with one flow.

The boundary of the candidate set is contracted into a source, every edge
gets capacity 3/phi times its weight, and each inside vertex drains to a
sink at its measure.  The sink side of an exact min cut is the trimmed
set: boundary mass that cannot be absorbed is cut away, and the survivors
form an expander at a sixth of the target level (provided the input set
was a near-expander at the full level).
"""

from __future__ import annotations

from typing import Iterable

from .errors import InvariantViolation
from .flow import FlowNetwork, max_flow
from .graph import Cut, Graph, VertexMeasure, cut_weight, tolerance


def trim(g: Graph, mu: VertexMeasure, a: Iterable[int], phi: float) -> frozenset:
    """Trimmed subset A' of `a`; identity when `a` has no boundary edges.

    Requires the boundary weight to be at most phi * mu(a) / 9; raises
    ValueError naming the inequality otherwise.  The returned set is
    nonempty and satisfies mu(A') >= mu(A) - 4*boundary/phi and
    boundary(A') <= 2*boundary(A).
    """
    if phi <= 0:
        raise ValueError("phi must be positive")
    a_set = frozenset(int(v) for v in a)
    if not a_set:
        raise ValueError("cannot trim an empty set")
    if any(v < 0 or v >= g.vertex_count for v in a_set):
        raise ValueError("trim set out of range")

    boundary = cut_weight(g, Cut(a_set)) if len(a_set) < g.vertex_count else 0.0
    if boundary <= 0.0:
        # no boundary: nothing can be pushed in, the set stays as is (even
        # when its inner expansion was never established)
        return a_set

    mu_a = mu.of(a_set)
    limit = phi * mu_a / 9.0
    if boundary > limit + tolerance(limit):
        raise ValueError(
            f"trim precondition failed: boundary weight {boundary} > phi*mu(A)/9 = {limit}")

    # the network keeps g's ids: vertices outside A are isolated nodes
    n = g.vertex_count
    s, t = n, n + 1
    net = FlowNetwork(n + 2, source=s, sink=t)
    cap_edge = 3.0 / phi
    for u, v, w in g.edges:
        if u in a_set and v in a_set:
            net.add_undirected_edge(u, v, cap_edge * w)
        elif u in a_set:
            net.add_arc(s, u, cap_edge * w)
        elif v in a_set:
            net.add_arc(s, v, cap_edge * w)
    for v in sorted(a_set):
        net.add_arc(v, t, mu.values[v])

    sol = max_flow(net)
    trimmed = a_set - sol.min_cut_side
    if not trimmed:
        raise InvariantViolation("trimming removed the whole set despite the precondition")

    mu_trimmed = mu.of(trimmed)
    floor = mu_a - 4.0 * boundary / phi
    if mu_trimmed < floor - tolerance(mu_a):
        raise InvariantViolation(
            f"trimmed measure {mu_trimmed} below the floor {floor}")
    new_boundary = cut_weight(g, Cut(trimmed)) if len(trimmed) < g.vertex_count else 0.0
    if new_boundary > 2.0 * boundary + tolerance(boundary):
        raise InvariantViolation(
            f"trimmed boundary {new_boundary} exceeds twice the original {boundary}")
    return trimmed
