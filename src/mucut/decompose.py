"""Balanced-cut-or-expander step and the recursive decomposition.

One step runs the game and, when the removed side is small, trims the
large side into a certified expander before reclassifying by balance.
The decomposition works through a depth-first worklist of connected
components: certified components become clusters, balanced cuts push the
pieces of both sides, unbalanced ones keep the trimmed expander as a
cluster and push the pieces of the rest.  Edges are charged to the level
at which their endpoints first separate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvariantViolation
from .game import C_FACTOR, T_FACTOR, CutMatchingOutcome, Variant, run_cut_matching
from .graph import (Graph, INFINITE, VertexMeasure, connected_components, cut_weight,
                    induced_subgraph, selected_weight, tolerance)
from .trimming import trim
from .verify import DEFAULT_VERIFY_MAX_N, MAX_ENUM_N, brute_force_expansion


class OutcomeKind(enum.Enum):
    CERTIFIED = "certified"
    BALANCED_CUT = "balanced-cut"
    UNBALANCED_EXPANDER_CUT = "unbalanced-expander-cut"


@dataclass(frozen=True)
class BalanceOutcome:
    """Result of one game-plus-trimming step on a connected graph."""

    kind: OutcomeKind
    expander_side: frozenset
    rest: frozenset
    game: CutMatchingOutcome
    trimmed: bool


#: A trimmed step is unbalanced while the rest holds at most mu(V) / log_LOG_BASE(n).
LOG_BASE = 2.0


def balanced_or_expander(g: Graph, mu: VertexMeasure, phi: float,
                         rng: np.random.Generator) -> BalanceOutcome:
    """Run the game; trim and reclassify when the removed side is small."""
    out = run_cut_matching(g, mu, phi, rng)
    everything = frozenset(range(g.vertex_count))
    if out.variant is Variant.CERTIFIED_EXPANDER:
        return BalanceOutcome(OutcomeKind.CERTIFIED, everything, frozenset(), out, False)
    if out.variant is Variant.BALANCED_CUT:
        return BalanceOutcome(OutcomeKind.BALANCED_CUT, out.a_side, out.r_side, out, False)

    # small removed side: the surviving side is a near-expander, trim it
    a = out.a_side
    boundary = cut_weight(g, a)
    limit = phi * mu.of(a) / 9.0
    if boundary > limit + tolerance(limit):
        raise InvariantViolation(
            f"trim precondition {boundary} <= {limit} failed after the game; constants bug")
    trimmed = trim(g, mu, a, phi)
    rest = everything - trimmed
    logn = math.log(g.vertex_count, LOG_BASE) if g.vertex_count >= 2 else 1.0
    if mu.of(rest) <= mu.total / logn:
        return BalanceOutcome(OutcomeKind.UNBALANCED_EXPANDER_CUT, trimmed, rest, out, True)
    return BalanceOutcome(OutcomeKind.BALANCED_CUT, trimmed, rest, out, True)


@dataclass(frozen=True)
class ClusterCertificate:
    """How a cluster was certified, plus its brute-forced expansion when small."""

    kind: str  # certified-by-game | certified-by-trim | singleton | zero-measure
    expansion: Optional[object] = None  # float, INFINITE, or None when not brute-forced


@dataclass(frozen=True)
class DecompositionResult:
    clusters: tuple[tuple[int, ...], ...]
    inter_cluster_edge_weight: float
    per_cluster: tuple[ClusterCertificate, ...]
    recursion_depth: int
    params: dict
    charge_ratio: Optional[float] = None


@dataclass(frozen=True)
class DecomposeConfig:
    """The recursion's settings; every game it plays derives its own
    constants from phi (:class:`game.GameParams`)."""

    verify_max_n: int = DEFAULT_VERIFY_MAX_N  # brute-force cap for certificates, in [1, MAX_ENUM_N]
    trace_hook: Optional[object] = None  # callable fed each game's CutMatchingOutcome


#: Below this many vertices the walk power is 1 and n**(-1/delta) <= 1/20
#: fails (see spectral.default_delta), so the game's certificate alone does
#: not hold and a game-certified cluster is always brute-forced.
GAME_CERTIFIES_FROM_N = 20


def _certificate(g: Graph, mu: VertexMeasure, cluster: tuple[int, ...], kind: str,
                 max_n: int, phi: float) -> ClusterCertificate:
    """Brute-force the expansion of a cluster of at most max_n vertices, and
    of a game-certified one below GAME_CERTIFIES_FROM_N vertices.

    A cluster the game certified must expand by at least phi/6; one that
    falls short is a broken guarantee, not an answer.
    """
    if len(cluster) == 1 or kind in ("singleton", "zero-measure"):
        # no proper positive-measure split exists
        return ClusterCertificate(kind, INFINITE)
    if len(cluster) <= max_n or (kind == "certified-by-game"
                                 and len(cluster) < GAME_CERTIFIES_FROM_N):
        sub, order = induced_subgraph(g, cluster)
        value, _ = brute_force_expansion(sub, mu.restrict(order))
        floor = phi / 6.0
        if kind == "certified-by-game" and value < floor - tolerance(floor):
            raise InvariantViolation(
                f"game-certified cluster {cluster} has expansion {value} below phi/6 = {floor}")
        return ClusterCertificate(kind, value)
    return ClusterCertificate(kind, None)


def decompose(g: Graph, mu: VertexMeasure, phi: float,
              config: Optional[DecomposeConfig] = None,
              rng=None) -> DecompositionResult:
    """Partition the vertex set into measure-expander clusters.

    One balanced-or-expander step per component of a depth-first worklist,
    every set kept in g's ids.  All games draw from one generator, so the
    visiting order is part of the output contract: a cut's pieces (the
    expander side's, then the rest's, each by smallest vertex) are visited
    in turn, each with its whole subtree.  `rng` may be a seed or a Generator.
    """
    if not 0.0 < phi < math.inf:
        raise ValueError(f"phi must be positive and finite, got {phi}")
    if len(mu.values) != g.vertex_count:
        raise ValueError("measure length does not match the graph")
    cfg = config or DecomposeConfig()
    if not 1 <= cfg.verify_max_n <= MAX_ENUM_N:
        raise ValueError(f"verify_max_n must be in [1, {MAX_ENUM_N}], got {cfg.verify_max_n}")
    rng = np.random.default_rng(rng)
    n = g.vertex_count
    depth_limit = int(4 * math.log2(max(2, n)) ** 2 + 8)

    found: list[tuple[tuple[int, ...], str]] = []  # (cluster, certificate kind)
    charged = 0.0
    max_depth = 0
    # LIFO worklist of (component, depth); each component is connected in g
    # and sorted.  Children go on in reverse so that they pop in order.
    stack = [(comp, 0) for comp in reversed(connected_components(g))]
    while stack:
        outcome = None  # the last game's records and walk go before the next game plays
        component, depth = stack.pop()
        max_depth = max(max_depth, depth)
        if depth > depth_limit:
            raise InvariantViolation(
                f"recursion depth {depth} exceeded the limit {depth_limit}; no progress")
        if len(component) == 1:
            found.append((component, "singleton"))
            continue
        mu_c = mu.restrict(component)
        if mu_c.total <= 0.0:
            # no positive-measure cuts exist inside: the component is one cluster
            found.append((component, "zero-measure"))
            continue
        sub, to_global = induced_subgraph(g, component)
        outcome = balanced_or_expander(sub, mu_c, phi, rng)
        if cfg.trace_hook is not None:
            cfg.trace_hook(outcome.game)
        if outcome.kind is OutcomeKind.CERTIFIED:
            found.append((component, "certified-by-game"))
            continue
        if min(mu_c.of(outcome.expander_side), mu_c.of(outcome.rest)) <= 0.0:
            # no step cuts off a side without measure: every round removes
            # positive measure and leaves a third of the active measure, and
            # trimming keeps a positive floor
            raise InvariantViolation(
                f"a cut left a side with no measure in a component of {len(component)} vertices")
        charged += cut_weight(sub, outcome.expander_side)
        side_a = [to_global[v] for v in outcome.expander_side]
        side_b = [to_global[v] for v in outcome.rest]
        if outcome.kind is OutcomeKind.UNBALANCED_EXPANDER_CUT:
            # a trimmed set is normally connected; if its certificate ever
            # fails to that extent, its components are only better expanders
            found.extend((comp, "certified-by-trim") for comp in connected_components(g, side_a))
            children = connected_components(g, side_b)
        else:
            children = connected_components(g, side_a) + connected_components(g, side_b)
        stack.extend((comp, depth + 1) for comp in reversed(children))

    found.sort()  # clusters are disjoint, so the order is by cluster alone
    clusters = tuple(cl for cl, _ in found)
    # exactness and accounting checks on the assembled partition
    flat = [v for cl in clusters for v in cl]
    if len(flat) != n or set(flat) != set(range(n)):
        raise InvariantViolation("clusters do not partition the vertex set")
    owner = np.empty(n, dtype=np.intp)
    owner[flat] = np.repeat(np.arange(len(clusters)), [len(cl) for cl in clusters])
    recount = selected_weight(g, owner[g.us] != owner[g.vs])
    if abs(recount - charged) > tolerance(recount):
        raise InvariantViolation(
            f"inter-cluster accounting drifted: charged {charged}, recount {recount}")

    log2n = math.log2(n) if n >= 2 else 1.0
    denom = phi * mu.total * log2n * log2n
    ratio = recount / denom if denom > 0 else None

    return DecompositionResult(
        clusters=clusters,
        inter_cluster_edge_weight=recount,
        per_cluster=tuple(_certificate(g, mu, cl, kind, cfg.verify_max_n, phi)
                          for cl, kind in found),
        recursion_depth=max_depth,
        params={
            "phi": phi,
            # the game constants; delta is None, as each game takes
            # default_delta of its own vertex count
            "t_factor": T_FACTOR,
            "c_factor": C_FACTOR,
            "delta": None,
            "log_base": LOG_BASE,
            "verify_max_n": cfg.verify_max_n,
            "depth_limit": depth_limit,
            "n": n,
            "edge_count": g.edge_count,
            "mu_total": mu.total,
            "mu_spread": mu.spread(),
        },
        charge_ratio=ratio,
    )
