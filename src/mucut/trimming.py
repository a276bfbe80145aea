"""Prune a near-expander down to a certified expander with one flow.

The boundary of the candidate set is contracted into a source, every edge
gets capacity 3/phi times its weight, and each inside vertex drains to a
sink at its measure.  The sink side of an exact min cut is the trimmed
set: boundary mass that cannot be absorbed is cut away, and the survivors
form an expander at a sixth of the target level (provided the input set
was a near-expander at the full level).

The network is the matching player's layout (:func:`flow.edge_network` on
the set, at 3/phi) with two :class:`flow.Terminals` added ahead of the edge
arcs by :meth:`flow.FlowNetwork.with_terminals`: a source arc per boundary
edge, to its inside endpoint, and a sink arc per vertex of the set.  One
crossing mask over the graph's edge arrays gives both the boundary weight
and the boundary arcs, in ``g.edges`` order.  The solver's min cut is the
minimal one, which every maximum flow shares, so the trimmed set does not
depend on the arc order.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import InvariantViolation
from .flow import Terminals, edge_network, max_flow
from .graph import Graph, VertexMeasure, cut_weight, selected_weight, tolerance, vertex_mask


def trim(g: Graph, mu: VertexMeasure, a: Iterable[int], phi: float) -> frozenset:
    """Trimmed subset A' of `a`; identity when `a` has no boundary edges.

    Requires the boundary weight to be at most phi * mu(a) / 9; raises
    ValueError naming the inequality otherwise.  The returned set is
    nonempty and satisfies mu(A') >= mu(A) - 4*boundary/phi and
    boundary(A') <= 2*boundary(A).
    """
    if not 0.0 < phi < math.inf:
        raise ValueError(f"phi must be positive and finite, got {phi}")
    inside = vertex_mask(g.vertex_count, a)
    ids = np.flatnonzero(inside)
    if not len(ids):
        raise ValueError("cannot trim an empty set")
    a_set = frozenset(ids.tolist())

    crossing = inside[g.us] != inside[g.vs]
    boundary = selected_weight(g, crossing)
    if boundary <= 0.0:
        # no boundary: no flow can enter, the set stays as is (even
        # when its inner expansion was never established)
        return a_set

    mu_a = mu.of(ids)
    limit = phi * mu_a / 9.0
    if boundary > limit + tolerance(limit):
        raise ValueError(
            f"trim precondition failed: boundary weight {boundary} > phi*mu(A)/9 = {limit}")

    # the network keeps g's ids: vertices outside A are isolated nodes
    cap_edge = 3.0 / phi
    edges = edge_network(g, ids, cap_edge)
    us = g.us[crossing]
    ends = np.where(inside[us], us, g.vs[crossing])  # each boundary edge's inside end
    sources = Terminals(ends, cap_edge * g.ws[crossing])
    sol = max_flow(edges.with_terminals(sources, Terminals(ids, mu.values[ids])))
    trimmed = a_set - sol.min_cut_side
    if not trimmed:
        raise InvariantViolation("trimming removed the whole set despite the precondition")

    mu_trimmed = mu.of(trimmed)
    floor = mu_a - 4.0 * boundary / phi
    if mu_trimmed < floor - tolerance(mu_a):
        raise InvariantViolation(
            f"trimmed measure {mu_trimmed} below the floor {floor}")
    new_boundary = cut_weight(g, trimmed)
    if new_boundary > 2.0 * boundary + tolerance(boundary):
        raise InvariantViolation(
            f"trimmed boundary {new_boundary} exceeds twice the original {boundary}")
    return trimmed
