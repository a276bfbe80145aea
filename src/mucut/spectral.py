"""The implicit lazy-walk operator that drives the cut player.

One round's response is a measure-stochastic matching: off-diagonal pair
weights between active terminals plus a diagonal completion so that every
row sums to the vertex measure.  Writing Nbar_i for the normalized lazy
form of matching i and P for the projection away from the active sqrt
measure, the walk after t rounds is

    W = (P . Nbar_{t-1} ... Nbar_0 . I_supp . Nbar_0 ... Nbar_{t-1} . P)^delta

where I_supp restricts to the measure's support.  The operator is only
ever applied to vectors; every factor is a sparse matvec or a rank-one
projection update, so one evaluation costs O(delta * t * (pairs + n)).
Dense materialization of the flow matrix and of the potential trace exist
as oracles for small instances and are never used by the algorithm
itself.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import InvariantViolation
from .graph import VertexMeasure, tolerance

#: Largest vertex count for which dense materialization is permitted.
DENSE_LIMIT = 64


def is_power_of_two(k: int) -> bool:
    return k >= 1 and (k & (k - 1)) == 0


def default_delta(n: int) -> int:
    """Walk power: the largest power of two <= max(1, log2(n)/log2(20)).

    Keeps n**(-1/delta) <= 1/20 whenever that is attainable; for small n
    the bound forces delta = 1 and certification falls back to brute-force
    verification.
    """
    if n < 2:
        return 1
    bound = max(1.0, math.log2(n) / math.log2(20.0))
    return 2 ** int(math.floor(math.log2(bound)))


class StochasticMatching:
    """One round's measure-stochastic response matrix.

    Off-diagonal entries are symmetric pair weights between active
    terminals; the diagonal completion tops every row up to the measure.
    Self-pairs cancel against the completion, so only strict pairs are
    stored explicitly.
    """

    __slots__ = ("off_diagonal", "diagonal", "_us", "_vs", "_ws")

    def __init__(self, off_diagonal: Iterable[Sequence], diagonal):
        pairs = []
        for u, v, w in off_diagonal:
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise ValueError("off-diagonal entries must connect distinct vertices")
            if w <= 0:
                raise ValueError("matching weights must be positive")
            pairs.append((min(u, v), max(u, v), w))
        self.off_diagonal = tuple(sorted(pairs))
        diag = np.array(diagonal, dtype=float)
        if diag.min(initial=0.0) < 0.0:
            raise InvariantViolation(f"negative diagonal completion: {diag.min()}")
        diag.setflags(write=False)
        self.diagonal = diag
        self._us = np.array([p[0] for p in self.off_diagonal], dtype=np.intp)
        self._vs = np.array([p[1] for p in self.off_diagonal], dtype=np.intp)
        self._ws = np.array([p[2] for p in self.off_diagonal], dtype=float)

    @classmethod
    def from_pairs(cls, mu_values, pairs: Iterable[Sequence]) -> "StochasticMatching":
        """Build the completed matrix from raw endpoint pairs.

        Self-pairs are dropped: they add equal amounts to a row sum and to
        the diagonal, so the completion mu - rowsum reproduces them.  Row
        sums accumulate in sorted pair order, the order of the stored
        off-diagonal.  A completion below zero by rounding is clipped to 0.
        """
        mu_values = np.asarray(mu_values, dtype=float)
        merged: dict[tuple[int, int], float] = {}
        for u, v, w in pairs:
            u, v, w = int(u), int(v), float(w)
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            merged[key] = merged.get(key, 0.0) + w
        row = np.zeros(len(mu_values))
        for (u, v), w in sorted(merged.items()):
            row[u] += w
            row[v] += w
        slack = mu_values - row
        if slack.min(initial=0.0) < -tolerance(mu_values.max(initial=0.0)):
            raise InvariantViolation(
                f"matched weight exceeds the measure at some vertex by {-slack.min()}")
        return cls([(u, v, w) for (u, v), w in merged.items()], np.maximum(slack, 0.0))

    @property
    def off_diagonal_weight(self) -> float:
        return float(self._ws.sum())

    def row_sums(self) -> np.ndarray:
        sums = self.diagonal.copy()
        np.add.at(sums, self._us, self._ws)
        np.add.at(sums, self._vs, self._ws)
        return sums

    def dense(self) -> np.ndarray:
        n = len(self.diagonal)
        m = np.diag(self.diagonal)
        for u, v, w in self.off_diagonal:
            m[u, v] += w
            m[v, u] += w
        return m

    def __repr__(self):
        return (f"StochasticMatching(pairs={len(self.off_diagonal)}, "
                f"weight={self.off_diagonal_weight:g})")


class ActiveState:
    """The surviving vertex set of the game plus its measure restriction."""

    __slots__ = ("active", "measure", "mask", "sqrt_mu", "mu_active_total")

    def __init__(self, active: Iterable[int], measure: VertexMeasure):
        self.active = frozenset(int(v) for v in active)
        self.measure = measure
        mask = np.zeros(len(measure.values), dtype=bool)
        for v in self.active:
            mask[v] = True
        mask &= measure.support_mask
        mask.setflags(write=False)
        self.mask = mask
        sq = np.where(mask, measure.sqrt, 0.0)
        sq.setflags(write=False)
        self.sqrt_mu = sq
        self.mu_active_total = float(measure.values[mask].sum())

    def __repr__(self):
        return f"ActiveState(active={len(self.active)}, mu={self.mu_active_total:g})"


def sample_unit_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random unit vector (normalized standard normals)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    while True:
        x = rng.standard_normal(n)
        norm = float(np.linalg.norm(x))
        if norm > 0.0:
            return x / norm


def apply_projection(state: ActiveState, x) -> np.ndarray:
    """Project onto the orthogonal complement of the active sqrt measure.

    Coordinates outside the active support are zeroed first; the map is
    idempotent.
    """
    if state.mu_active_total <= 0.0:
        raise ValueError("active set carries no measure; projection undefined")
    x = np.asarray(x, dtype=float)
    restricted = np.where(state.mask, x, 0.0)
    coeff = float(state.sqrt_mu @ restricted) / state.mu_active_total
    return restricted - coeff * state.sqrt_mu


def apply_normalized_matching(m: StochasticMatching, mu: VertexMeasure, delta: int, x) -> np.ndarray:
    """Apply the normalized lazy matching: ((delta-1)/delta) I_supp + (1/delta) Mbar.

    Mbar is the matching conjugated by the measure's inverse square root
    (pseudo-inverse: zero off the support).
    """
    x = np.asarray(x, dtype=float)
    z = mu.inv_sqrt * x
    mz = m.diagonal * z
    if m._us.size:
        np.add.at(mz, m._us, m._ws * z[m._vs])
        np.add.at(mz, m._vs, m._ws * z[m._us])
    lazy = (delta - 1.0) / delta
    return lazy * np.where(mu.support_mask, x, 0.0) + (mu.inv_sqrt * mz) / delta


class WalkOperator:
    """Implicit delta-powered projected walk over a stack of matchings."""

    __slots__ = ("matchings", "delta", "state", "measure")

    def __init__(self, matchings: Sequence[StochasticMatching], delta: int, state: ActiveState):
        if not is_power_of_two(int(delta)):
            raise ValueError(f"delta must be a power of two, got {delta}")
        self.matchings = tuple(matchings)
        self.delta = int(delta)
        self.state = state
        self.measure = state.measure

    @property
    def rounds(self) -> int:
        return len(self.matchings)

    def apply(self, x) -> np.ndarray:
        y = np.asarray(x, dtype=float)
        for _ in range(self.delta):
            y = apply_projection(self.state, y)
            for m in reversed(self.matchings):
                y = apply_normalized_matching(m, self.measure, self.delta, y)
            y = np.where(self.measure.support_mask, y, 0.0)
            for m in self.matchings:
                y = apply_normalized_matching(m, self.measure, self.delta, y)
            y = apply_projection(self.state, y)
        return y


def projections(w: WalkOperator, r) -> np.ndarray:
    """Per-vertex projections u = inv_sqrt(mu) * (W r), zero off the active support.

    The measure-weighted sum of u vanishes identically; a residual beyond
    rounding at sqrt(mu(A)) * ||r|| (W never expands) signals a broken operator.
    """
    u = w.measure.inv_sqrt * w.apply(r)
    u = np.where(w.state.mask, u, 0.0)
    balance = float((w.measure.values * u).sum())
    if abs(balance) > tolerance(math.sqrt(w.state.mu_active_total) * np.linalg.norm(r)):
        raise InvariantViolation(f"projection balance {balance} exceeds tolerance")
    return u


def dense_flow_matrix(w: WalkOperator) -> np.ndarray:
    """Materialize the stochastic flow matrix by its round recursion (oracle)."""
    mu = w.measure
    n = len(mu.values)
    big_u = np.diag(mu.values)
    u_inv = np.diag(mu.pseudo_inv)
    f = big_u.copy()
    for m in w.matchings:
        lazy = (w.delta - 1.0) / w.delta
        n_t = lazy * big_u + m.dense() / w.delta
        f = n_t @ u_inv @ f @ u_inv @ n_t
    return f


def dense_projection_matrix(state: ActiveState) -> np.ndarray:
    if state.mu_active_total <= 0.0:
        raise ValueError("active set carries no measure")
    i_t = np.diag(state.mask.astype(float))
    return i_t - np.outer(state.sqrt_mu, state.sqrt_mu) / state.mu_active_total


def dense_walk_and_potential(w: WalkOperator, limit: int = DENSE_LIMIT) -> tuple[np.ndarray, float]:
    """Dense walk matrix and its potential tr(W^2) (test oracle only)."""
    n = len(w.measure.values)
    if n > limit:
        raise ValueError(f"dense oracle limited to {limit} vertices, got {n}")
    f = dense_flow_matrix(w)
    s = np.diag(w.measure.inv_sqrt)
    p = dense_projection_matrix(w.state)
    x = p @ s @ f @ s @ p
    walk = np.linalg.matrix_power(x, w.delta)
    psi = float(np.sum(walk * walk))
    return walk, psi
