"""The cut-matching game: alternate spectral cuts and routed matchings.

Each round samples a random unit vector, projects it through the implicit
walk operator, turns the projections into weighted sources and targets,
and asks the matching player to route the source mass inside the active
set.  Failures to route remove a sparse cut from the active set.  Every
id, in the rounds and in their records, is an id of the graph passed in.
The run ends when the removed measure passes its threshold or the round
budget is spent, and is classified as a certified expander, a balanced
cut, or a small cut whose complement is a near-expander.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cutplayer import rst_partition
from .errors import InvariantViolation
from .graph import EPS, Cut, Graph, VertexMeasure, is_connected, mu_expansion_of_cut
# not called here; bench/spans.py wraps this name and reports it missing if it goes
from .graph import induced_subgraph  # noqa: F401
from .matching import solve_matching_round
from .spectral import (DENSE_LIMIT, ActiveState, StochasticMatching, WalkOperator,
                       default_delta, dense_walk_and_potential, is_power_of_two,
                       projections, sample_unit_vector)


@dataclass(frozen=True)
class GameParams:
    """Knobs of one game run; build with :meth:`for_graph` for the defaults.

    stop_threshold is mu(V) * c * phi / 70: the run stops once the removed
    measure exceeds it.
    """

    phi: float
    rounds_T: int
    capacity_c: int
    delta: int
    stop_threshold: float
    trace_psi: bool = False
    dense_limit: int = DENSE_LIMIT

    def __post_init__(self):
        if self.phi <= 0:
            raise ValueError("phi must be positive")
        if self.rounds_T < 1:
            raise ValueError("rounds_T must be at least 1")
        if self.capacity_c < 1:
            raise ValueError("capacity_c must be at least 1")
        if not is_power_of_two(self.delta):
            raise ValueError("delta must be a power of two")

    @staticmethod
    def for_graph(g: Graph, mu: VertexMeasure, phi: float, *, t_factor: float = 2.0,
                  c_factor: float = 1.0, delta: Optional[int] = None, trace_psi: bool = False,
                  dense_limit: int = DENSE_LIMIT) -> "GameParams":
        """T = ceil(t_factor * log2(n)^2), c = max(1, round(c_factor / (phi ln n)))."""
        if phi <= 0:
            raise ValueError("phi must be positive")
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
            trace_psi=trace_psi,
            dense_limit=dense_limit,
        )


class Variant(enum.Enum):
    CERTIFIED_EXPANDER = "certified-expander"
    BALANCED_CUT = "balanced-cut"
    NEAR_EXPANDER_CUT = "near-expander-cut"


@dataclass(frozen=True)
class TraceRow:
    """Post-round snapshot: sizes, removed measure, routed weight, potential."""

    t: int
    active_size: int
    mu_removed: float
    matching_weight: float
    psi: Optional[float] = None


@dataclass(frozen=True)
class RoundRecord:
    """Everything needed to re-derive a round offline (global ids)."""

    index: int
    active_before: tuple[int, ...]
    removed: frozenset
    matching: StochasticMatching
    paths: tuple[tuple[int, int, float, tuple[int, ...]], ...]
    matched_weight: float
    cut_expansion: Optional[float]


@dataclass(frozen=True)
class CutMatchingOutcome:
    variant: Variant
    a_side: frozenset
    r_side: frozenset
    trace: tuple[TraceRow, ...]
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
                                  (), (), None, note="single vertex: no proper cuts")
    if len(mu.support) <= 1:
        # covers zero-measure graphs too: every proper cut has a
        # zero-measure side, so expansion is vacuously infinite
        return CutMatchingOutcome(Variant.CERTIFIED_EXPANDER, frozenset(range(n)), frozenset(),
                                  (), (), None,
                                  note="at most one terminal: every proper cut has zero-measure side")

    active = frozenset(range(n))
    removed_all: frozenset = frozenset()
    matchings: list[StochasticMatching] = []
    trace: list[TraceRow] = []
    records: list[RoundRecord] = []
    t = 0

    while mu.of(removed_all) <= params.stop_threshold and t < params.rounds_T:
        state = ActiveState(active, mu)
        walk = WalkOperator(matchings, params.delta, state)
        r = sample_unit_vector(n, rng)
        u = projections(walk, r)
        bip = rst_partition(state, u)
        result = solve_matching_round(g, state, bip, float(params.capacity_c), round_index=t)

        records.append(RoundRecord(
            index=t,
            active_before=tuple(sorted(active)),
            removed=result.removed,
            matching=result.matching,
            paths=result.paths.paths,
            matched_weight=result.matched_weight,
            cut_expansion=result.cut_expansion,
        ))
        matchings.append(result.matching)
        active = active - result.removed
        removed_all = removed_all | result.removed
        t += 1

        psi = None
        if params.trace_psi and n <= params.dense_limit:
            post = WalkOperator(matchings, params.delta, ActiveState(active, mu))
            _, psi = dense_walk_and_potential(post, limit=params.dense_limit)
        trace.append(TraceRow(t=t - 1, active_size=len(active),
                              mu_removed=mu.of(removed_all),
                              matching_weight=result.matched_weight, psi=psi))

    final_walk = WalkOperator(matchings, params.delta, ActiveState(active, mu))
    mu_removed = mu.of(removed_all)
    if t == params.rounds_T and not removed_all:
        variant = Variant.CERTIFIED_EXPANDER
    elif mu_removed > params.stop_threshold:
        variant = Variant.BALANCED_CUT
    else:
        variant = Variant.NEAR_EXPANDER_CUT

    if removed_all:
        # recompute the cumulative cut quality rather than trusting the rounds
        expansion = mu_expansion_of_cut(g, mu, Cut(removed_all))
        bound = 7.0 / params.capacity_c
        if not expansion <= bound + EPS * max(1.0, bound):
            raise InvariantViolation(
                f"cumulative cut expansion {expansion} exceeds 7/c = {bound}")

    return CutMatchingOutcome(
        variant=variant,
        a_side=active,
        r_side=removed_all,
        trace=tuple(trace),
        rounds=tuple(records),
        walk=final_walk,
    )
