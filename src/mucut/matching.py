"""One matching-player round: route source mass or expose a sparse cut.

Builds the auxiliary flow problem on the active set A of the caller's
graph (super-source to sources at their weights, targets to super-sink at
theirs, every edge inside A at capacity c times its weight), solves it
exactly, and either reports full saturation (no cut) or returns the
source side of the min cut together with the surviving flow.  Path
endpoints become the round's matching, completed on the diagonal to be
measure-stochastic.  The round comes back as its one record,
:class:`RoundRecord`, which the game stores as it is.

All ids here are the caller's graph ids: vertices outside A stay in the
network as isolated nodes, so nothing is relabeled.
"""

from __future__ import annotations

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


def build_pi_problem(g: Graph, state: ActiveState, bip: WeightedBipartition,
                     c: float) -> FlowNetwork:
    """Auxiliary network on g's ids plus source n and sink n + 1.

    Source arcs at m_v, sink arcs at mbar_v, and every edge of g with both
    endpoints active at c*w, in g.edges order.
    """
    if c <= 0:
        raise ValueError("edge capacity factor c must be positive")
    total = state.mu_active_total
    if bip.target_mass < total / 2.0 - tolerance(total):
        raise ValueError("target mass below half the active measure")
    if bip.source_mass > total / 8.0 + tolerance(total):
        raise ValueError("source mass above an eighth of the active measure")
    n = g.vertex_count
    active = state.active
    net = FlowNetwork(n + 2, source=n, sink=n + 1)
    for v, m in bip.sources:
        net.add_arc(n, v, m)
    for v, mb in bip.targets:
        net.add_arc(v, n + 1, mb)
    for u, v, w in g.edges:
        if u in active and v in active:
            net.add_undirected_edge(u, v, c * w)
    return net


def solve_matching_round(g: Graph, state: ActiveState, bip: WeightedBipartition, c: float,
                         round_index: int = 0) -> RoundRecord:
    """Solve the round's flow problem and assemble the stochastic matching.

    Exactly one of the two outcomes holds: every source arc is saturated
    (removed empty), or removed is a nonempty subset of the active set
    with expansion at most 7/c inside it and at least a third of the
    active measure surviving.
    """
    mu = state.measure
    active_before = tuple(sorted(state.active))
    if not bip.sources:
        # nothing to route; the matching degenerates to the diagonal
        return RoundRecord(round_index, active_before, frozenset(),
                           StochasticMatching.from_pairs(mu.values, []),
                           (), 0.0, None)

    net = build_pi_problem(g, state, bip, c)
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
