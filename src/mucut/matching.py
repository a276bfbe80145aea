"""One matching-player round: route source mass or expose a sparse cut.

Poses the auxiliary flow problem on the active set A of the caller's
graph (super-source to sources at their weights, targets to super-sink at
theirs, every edge inside A at capacity c times its weight), solves it
exactly, and either reports full saturation (no cut) or returns the
source side of the min cut together with the surviving flow.  Path
endpoints become the round's matching, completed on the diagonal to be
measure-stochastic.  The round comes back as its one record,
:class:`RoundRecord`, which the game stores as it is.

Only the terminal arcs change from round to round, and the edge arcs only
when a cut shrinks A.  So the game builds the edge arcs once per active
set, with :func:`edge_network`, and each round's :func:`build_pi_problem`
adds just its source and sink arcs, ahead of the edge arcs in every
terminal's adjacency.  The network is then the one an arc-by-arc build
(terminal arcs first, then the edges in g.edges order) gives, up to arc
ids: every vertex lists the same arcs in the same order, so the flow, the
cut and the paths are the same bits.

All ids here are the caller's graph ids: vertices outside A stay in the
network as isolated nodes, so nothing is relabeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cutplayer import WeightedBipartition
from .errors import InvariantViolation
from .flow import FlowNetwork, decompose_paths, max_flow
from .graph import Graph, tolerance
from .spectral import ActiveState, StochasticMatching


@dataclass(frozen=True)
class RoundRecord:
    """Everything needed to re-derive a round offline (the caller's graph ids).

    paths are (source, target, weight, vertex sequence) with the network's
    super-source and super-sink stripped.
    """

    index: int
    active_before: tuple[int, ...]
    removed: frozenset
    matching: StochasticMatching
    paths: tuple[tuple[int, int, float, tuple[int, ...]], ...]
    matched_weight: float
    cut_expansion: float | None

    @property
    def feasible(self) -> bool:
        """Every source arc saturated: a round that fails to route removes a cut."""
        return not self.removed


def edge_network(g: Graph, state: ActiveState, c: float) -> FlowNetwork:
    """The edge arcs of every round on this active set: g's ids plus source n
    and sink n + 1, and every edge of g with both endpoints active at c*w, in
    g.edges order.  Rounds never change it."""
    if not 0 < c < math.inf:
        raise ValueError(f"edge capacity factor c must be positive and finite, got {c}")
    n = g.vertex_count
    active = state.active
    net = FlowNetwork(n + 2, source=n, sink=n + 1)
    for u, v, w in g.edges:
        if u in active and v in active:
            net.add_undirected_edge(u, v, c * w)
    return net


def build_pi_problem(edges: FlowNetwork, state: ActiveState,
                     bip: WeightedBipartition) -> FlowNetwork:
    """The round's network: source arcs at m_v (in bip.sources order), then sink
    arcs at mbar_v (in bip.targets order), then the edge arcs of `edges`.

    `edges` comes from :func:`edge_network` on the same active set and is
    left as it is.  A terminal lists its source twins, then its sink arcs,
    then its edge arcs; arc ids are not those of an arc-by-arc build, but
    every adjacency order is.
    """
    total = state.mu_active_total
    if bip.target_mass < total / 2.0 - tolerance(total):
        raise ValueError("target mass below half the active measure")
    if bip.source_mass > total / 8.0 + tolerance(total):
        raise ValueError("source mass above an eighth of the active measure")
    s, t = edges.source, edges.sink
    return edges.with_arcs_first([(s, v, m) for v, m in bip.sources]
                                 + [(v, t, mb) for v, mb in bip.targets])


def solve_matching_round(g: Graph, state: ActiveState, edges: FlowNetwork,
                         bip: WeightedBipartition, c: float,
                         round_index: int = 0) -> RoundRecord:
    """Solve the round's flow problem and assemble the stochastic matching.

    `edges` is :func:`edge_network` of (g, state, c).

    Exactly one of the two outcomes holds: every source arc is saturated
    (removed empty), or removed is a nonempty subset of the active set
    with expansion at most 7/c inside it and at least a third of the
    active measure surviving.
    """
    mu = state.measure
    active_before = state.order
    if not bip.sources:
        # nothing to route; the matching degenerates to the diagonal
        return RoundRecord(round_index, active_before, frozenset(),
                           StochasticMatching.from_pairs(mu.values, []),
                           (), 0.0, None)

    net = build_pi_problem(edges, state, bip)
    sol = max_flow(net)
    source_total = bip.source_mass
    if sol.value >= source_total - tolerance(source_total):
        removed: frozenset = frozenset()
    else:
        removed = frozenset(v for v in sol.min_cut_side if v != net.source)
        if not removed:
            raise InvariantViolation("infeasible flow but the min cut is trivial")

    full_paths = decompose_paths(net, sol)
    kept = []
    for _, _, w, seq in full_paths:
        interior = seq[1:-1]
        if removed and interior[0] in removed:
            # path rooted in the cut side; with an exact max flow it never
            # leaves it, so the whole path is discarded
            continue
        if removed and any(v in removed for v in interior):
            raise InvariantViolation("a surviving path crosses back into the removed side")
        kept.append((interior[0], interior[-1], w, interior))

    source_weights = dict(bip.sources)
    target_set = {v for v, _ in bip.targets}
    sent: dict[int, float] = {}
    for a, b, w, _ in kept:
        if a not in source_weights:
            raise InvariantViolation(f"path starts at non-source vertex {a}")
        if b not in target_set:
            raise InvariantViolation(f"path ends at non-target vertex {b}")
        sent[a] = sent.get(a, 0.0) + w
    for v, m in bip.sources:
        if v in removed:
            continue
        got = sent.get(v, 0.0)
        # flow rounds at the scale of the round's source mass, even for a light source
        if abs(got - m) > tolerance(source_total):
            raise InvariantViolation(f"source {v} routed {got} instead of {m}")

    matched_weight = float(sum(w for _, _, w, _ in kept))
    matching = StochasticMatching.from_pairs(mu.values, [(a, b, w) for a, b, w, _ in kept])

    cut_expansion = None
    if removed:
        active = state.active
        # edges into vertices removed in earlier rounds are not part of
        # this round's cut, so only active-active edges count
        crossing = 0.0
        for u, v, w in g.edges:
            if u in active and v in active and (u in removed) != (v in removed):
                crossing += w
        total = state.mu_active_total
        mu_rest = mu.of(active - removed)
        mu_removed = mu.of(removed)
        denom = min(mu_removed, mu_rest)
        if denom <= 0.0:
            raise InvariantViolation("cut side with zero measure returned by the flow step")
        cut_expansion = crossing / denom
        if cut_expansion > 7.0 / c + tolerance(7.0 / c):
            raise InvariantViolation(
                f"round cut expansion {cut_expansion} exceeds 7/c = {7.0 / c}")
        if mu_rest < total / 3.0 - tolerance(total):
            raise InvariantViolation(
                f"surviving measure {mu_rest} below a third of {total}")

    return RoundRecord(
        index=round_index,
        active_before=active_before,
        removed=removed,
        matching=matching,
        paths=tuple(kept),
        matched_weight=matched_weight,
        cut_expansion=cut_expansion,
    )
