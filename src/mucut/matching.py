"""One matching-player round: route source mass or expose a sparse cut.

Poses the auxiliary flow problem on the active set A of the caller's
graph (super-source to sources at their weights, targets to super-sink at
theirs, every edge inside A at capacity c times its weight), solves it
exactly, and either reports full saturation (no cut) or returns the
source side of the min cut together with the surviving flow.  The flow's
paths are those :func:`flow.max_flow` returns, its own augmenting paths or,
where a push cancelled flow, its flow stripped into paths (see :mod:`flow`
for why the augmentations are exact), checked by
:func:`flow.decompose_paths`.  A path from a removed
source leaves with it, even where it crosses the saturated cut to a
surviving target.  The surviving paths' endpoints become the round's
matching, completed on the diagonal to be measure-stochastic.  The round
comes back as its one record, :class:`RoundRecord`, which the game stores
as it is.  Every round takes the same path: a round without sources has no
source arcs, so its flow is zero, nothing is cut and its matching is the
diagonal alone.

Only the terminal arcs change from round to round, and the edge arcs only
when a cut shrinks A.  So the game builds the edge arcs once per active
set, with :func:`flow.edge_network`, and each round's :func:`build_pi_problem`
adds the cut player's two :class:`flow.Terminals`, as they come, with
:meth:`flow.FlowNetwork.with_terminals`, ahead of the edge arcs in every
terminal's adjacency.  Up to arc ids, the network is then the constructor's
build of all the round's arcs at once (terminal arcs first, then the edges
in g.edges order): every vertex lists the same arcs in the same order, so
the flow, the cut and the paths are the same bits.

All ids here are the caller's graph ids: vertices outside A stay in the
network as isolated nodes, so nothing is relabeled.  A round's cut is
:func:`graph.mu_expansion_of_cut` of the removed side inside A: the edges
with both ends in A and one in the removed side, over the lighter side's
measure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cutplayer import WeightedBipartition
from .errors import InvariantViolation
from .flow import FlowNetwork, decompose_paths, max_flow
from .graph import Graph, Infinite, mu_expansion_of_cut, ordered_sum, tolerance
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


def build_pi_problem(edges: FlowNetwork, state: ActiveState,
                     bip: WeightedBipartition) -> FlowNetwork:
    """The round's network: source arcs at m_v (in bip.sources order), then sink
    arcs at mbar_v (in bip.targets order), then the edge arcs of `edges`.

    `edges` comes from :func:`flow.edge_network` on the same active set and
    is left as it is.  A terminal lists its source twins, then its sink arcs,
    then its edge arcs; arc ids are not those of one build of all these
    arcs, but every adjacency order is.
    """
    total = state.mu_active_total
    if bip.targets.mass < total / 2.0 - tolerance(total):
        raise ValueError("target mass below half the active measure")
    if bip.sources.mass > total / 8.0 + tolerance(total):
        raise ValueError("source mass above an eighth of the active measure")
    return edges.with_terminals(bip.sources, bip.targets)


def solve_matching_round(g: Graph, state: ActiveState, edges: FlowNetwork,
                         bip: WeightedBipartition, c: float,
                         round_index: int = 0) -> RoundRecord:
    """Solve the round's flow problem and assemble the stochastic matching.

    `edges` is :func:`flow.edge_network` of (g, state.active, c).

    Exactly one of the two outcomes holds: every source arc is saturated
    (removed empty), or removed is a nonempty subset of the active set
    with expansion at most 7/c inside it and at least a third of the
    active measure surviving.
    """
    mu = state.measure
    net = build_pi_problem(edges, state, bip)
    sol = max_flow(net)
    source_total = bip.sources.mass
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
            # a path from a removed source may cross the saturated cut to a
            # surviving target; it leaves with its source, since the round's
            # matching pairs survivors only
            continue
        if removed and any(v in removed for v in interior):
            # at a max flow no arc into the removed side carries flow
            raise InvariantViolation("a surviving path crosses back into the removed side")
        kept.append((interior[0], interior[-1], w, interior))

    src = bip.sources.ids.tolist()
    sent, need = dict.fromkeys(src, 0.0), dict.fromkeys(src, 0.0)
    for v, m in zip(src, bip.sources.caps.tolist()):
        need[v] += m  # a source listed twice: its arcs' capacities, added in order
    target_set = set(bip.targets.ids.tolist())
    for a, b, w, _ in kept:
        if a not in sent:
            raise InvariantViolation(f"path starts at non-source vertex {a}")
        if b not in target_set:
            raise InvariantViolation(f"path ends at non-target vertex {b}")
        sent[a] += w
    for v, m in need.items():
        # flow rounds at the scale of the round's source mass, even for a light source
        if v not in removed and abs(sent[v] - m) > tolerance(source_total):
            raise InvariantViolation(f"source {v} routed {sent[v]} instead of {m}")

    us, vs, ws, _ = zip(*kept) if kept else ((),) * 4
    matched_weight = ordered_sum(ws)
    matching = StochasticMatching(us, vs, ws, mu.values)

    cut_expansion = None
    if removed:
        # edges into vertices removed in earlier rounds are not part of
        # this round's cut, so only active-active edges count
        if not removed < state.active:
            raise InvariantViolation("flow cut side is not a proper subset of the active set")
        cut_expansion = mu_expansion_of_cut(g, mu, removed, state.order)
        if isinstance(cut_expansion, Infinite):
            raise InvariantViolation("cut side with zero measure returned by the flow step")
        if cut_expansion > 7.0 / c + tolerance(7.0 / c):
            raise InvariantViolation(
                f"round cut expansion {cut_expansion} exceeds 7/c = {7.0 / c}")
        total = state.mu_active_total
        mu_rest = mu.of(state.active - removed)
        if mu_rest < total / 3.0 - tolerance(total):
            raise InvariantViolation(
                f"surviving measure {mu_rest} below a third of {total}")

    return RoundRecord(
        index=round_index,
        active_before=state.order,
        removed=removed,
        matching=matching,
        paths=tuple(kept),
        matched_weight=matched_weight,
        cut_expansion=cut_expansion,
    )
