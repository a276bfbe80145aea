"""The cut-matching game: alternate spectral cuts and routed matchings.

Each round samples a random unit vector, projects it through the implicit
walk operator, turns the projections into weighted sources and targets,
and asks the matching player to route the source mass inside the active
set.  Failures to route remove a sparse cut from the active set.  The
outcome keeps each round's :class:`RoundRecord` as the matching player
returned it; every view of a round (the CLI's trace CSV, its potential)
is computed from those records.  Every id, in the rounds and in their
records, is an id of the graph passed in.  The run ends when the removed
measure passes its threshold or the round budget is spent, and is
classified as a certified expander, a balanced cut, or a small cut whose
complement is a near-expander.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cutplayer import rst_partition
from .errors import InvariantViolation
from .graph import Graph, VertexMeasure, is_connected, mu_expansion_of_cut, tolerance
# not called here; bench/spans.py wraps this name and reports it missing if it goes
from .graph import induced_subgraph  # noqa: F401
from .flow import edge_network
from .matching import RoundRecord, solve_matching_round
from .spectral import (ActiveState, WalkOperator, default_delta, is_power_of_two, projections,
                       sample_unit_vector)


@dataclass(frozen=True)
class GameParams:
    """Knobs of one game run; build with :meth:`for_graph` for the defaults.

    stop_threshold is mu(V) * c * phi / 70: the run stops once the removed
    measure exceeds it.  Nothing here concerns tracing: the potential is
    computed from the outcome's round records, outside the game.
    """

    phi: float
    rounds_T: int
    capacity_c: int
    delta: int
    stop_threshold: float

    def __post_init__(self):
        if not 0.0 < self.phi < math.inf:
            raise ValueError(f"phi must be positive and finite, got {self.phi}")
        if self.rounds_T < 1:
            raise ValueError("rounds_T must be at least 1")
        if self.capacity_c < 1:
            raise ValueError("capacity_c must be at least 1")
        if not is_power_of_two(self.delta):
            raise ValueError("delta must be a power of two")

    @staticmethod
    def for_graph(g: Graph, mu: VertexMeasure, phi: float, *, t_factor: float = 2.0,
                  c_factor: float = 1.0, delta: Optional[int] = None) -> "GameParams":
        """T = ceil(t_factor * log2(n)^2), c = max(1, round(c_factor / (phi ln n)))."""
        if not 0.0 < phi < math.inf:
            raise ValueError(f"phi must be positive and finite, got {phi}")
        for name, factor in (("t_factor", t_factor), ("c_factor", c_factor)):
            if not 0.0 < factor < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {factor}")
        n = g.vertex_count
        log2n = math.log2(n) if n >= 2 else 1.0
        lnn = math.log(n) if n >= 2 else 1.0
        rounds = max(1, math.ceil(t_factor * log2n * log2n))
        cap = max(1, round(c_factor / (phi * lnn)))
        return GameParams(
            phi=phi,
            rounds_T=rounds,
            capacity_c=cap,
            delta=default_delta(n) if delta is None else int(delta),
            stop_threshold=mu.total * cap * phi / 70.0,
        )


class Variant(enum.Enum):
    CERTIFIED_EXPANDER = "certified-expander"
    BALANCED_CUT = "balanced-cut"
    NEAR_EXPANDER_CUT = "near-expander-cut"


@dataclass(frozen=True)
class CutMatchingOutcome:
    variant: Variant
    a_side: frozenset
    r_side: frozenset
    rounds: tuple[RoundRecord, ...]
    walk: Optional[WalkOperator]
    note: Optional[str] = None


def run_cut_matching(g: Graph, mu: VertexMeasure, params: GameParams,
                     rng: np.random.Generator) -> CutMatchingOutcome:
    """Play up to T rounds on a connected graph and classify the outcome."""
    n = g.vertex_count
    if len(mu.values) != n:
        raise ValueError("measure length does not match the graph")
    if not is_connected(g):
        raise ValueError("graph must be connected; split components first")
    if n == 1:
        return CutMatchingOutcome(Variant.CERTIFIED_EXPANDER, frozenset({0}), frozenset(),
                                  (), None, note="single vertex: no proper cuts")
    if len(mu.support) <= 1:
        # covers zero-measure graphs too: every proper cut has a
        # zero-measure side, so expansion is vacuously infinite
        return CutMatchingOutcome(Variant.CERTIFIED_EXPANDER, frozenset(range(n)), frozenset(),
                                  (), None,
                                  note="at most one terminal: every proper cut has zero-measure side")

    active = frozenset(range(n))
    removed_all: frozenset = frozenset()
    records: list[RoundRecord] = []
    state = ActiveState(active, mu)
    walk = WalkOperator([], params.delta, state)
    c = float(params.capacity_c)
    edges = None  # the active set's edge arcs, built by the first round that needs them
    t = 0

    while mu.of(removed_all) <= params.stop_threshold and t < params.rounds_T:
        r = sample_unit_vector(n, rng)
        u = projections(walk, r)
        bip = rst_partition(state, u)
        if edges is None:
            edges = edge_network(g, state.active, c)
        rec = solve_matching_round(g, state, edges, bip, c, round_index=t)
        records.append(rec)
        walk.extend(rec.matching)
        if rec.removed:
            active = active - rec.removed
            removed_all = removed_all | rec.removed
            state = walk.state = ActiveState(active, mu)
            edges = None
        t += 1

    mu_removed = mu.of(removed_all)
    if t == params.rounds_T and not removed_all:
        variant = Variant.CERTIFIED_EXPANDER
    elif mu_removed > params.stop_threshold:
        variant = Variant.BALANCED_CUT
    else:
        variant = Variant.NEAR_EXPANDER_CUT

    if removed_all:
        # recompute the cumulative cut quality rather than trusting the rounds
        expansion = mu_expansion_of_cut(g, mu, removed_all)
        bound = 7.0 / params.capacity_c
        if not expansion <= bound + tolerance(bound):
            raise InvariantViolation(
                f"cumulative cut expansion {expansion} exceeds 7/c = {bound}")

    return CutMatchingOutcome(
        variant=variant,
        a_side=active,
        r_side=removed_all,
        rounds=tuple(records),
        walk=walk,
    )
