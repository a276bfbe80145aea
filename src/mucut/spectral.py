"""The implicit lazy-walk operator that drives the cut player.

One round's response is a measure-stochastic matching: off-diagonal pair
weights between active terminals plus a diagonal completion so that every
row sums to the vertex measure.  Writing Nbar_i for the normalized lazy
form of matching i and P for the projection away from the active sqrt
measure, the walk after t rounds is

    W = (P . Nbar_{t-1} ... Nbar_0 . I_supp . Nbar_0 ... Nbar_{t-1} . P)^delta

where I_supp restricts to the measure's support.  The operator is only
ever applied to vectors, and it runs in the support's coordinates: every
factor is zero off the support, so a vector of length k = |supp mu| is
carried through and scattered back to all n vertices once, at the end.
Each matching's normalized lazy factor is fused once, when the matching is
added to the walk, into a diagonal plus symmetric pair triples; applying it
is one product and one ``np.bincount``.  One evaluation therefore costs
O(delta * t * (pairs + |supp mu|)).  Dense materialization of the flow
matrix and of the potential trace exist as oracles for small instances and
are never used by the algorithm itself.
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
    stored explicitly.  The pairs come as arrays (us, vs, ws) with u < v,
    merged and sorted by (u, v).  Only the nonzero entries of the diagonal
    are stored; :attr:`diagonal` rebuilds the dense vector on access.
    """

    __slots__ = ("size", "_us", "_vs", "_ws", "_di", "_dw")

    def __init__(self, us, vs, ws, diagonal):
        us = np.asarray(us, dtype=np.intp)
        vs = np.asarray(vs, dtype=np.intp)
        ws = np.asarray(ws, dtype=float)
        if not (ws.ndim == 1 and us.shape == vs.shape == ws.shape):
            raise ValueError("pair arrays must be flat and of equal length")
        if np.any(us >= vs):
            raise ValueError("off-diagonal entries must connect distinct vertices, u < v")
        if np.any(us[1:] < us[:-1]) or np.any((us[1:] == us[:-1]) & (vs[1:] <= vs[:-1])):
            raise ValueError("pairs must be merged and sorted by (u, v)")
        if np.any(ws <= 0):
            raise ValueError("matching weights must be positive")
        diag = np.asarray(diagonal, dtype=float)
        if diag.min(initial=0.0) < 0.0:
            raise InvariantViolation(f"negative diagonal completion: {diag.min()}")
        self.size = len(diag)
        # indices in the smallest type that holds them, so that a diagonal
        # nonzero on every vertex costs little more than the dense vector
        self._di = np.flatnonzero(diag).astype(np.min_scalar_type(self.size))
        self._dw = diag[self._di]
        self._us, self._vs, self._ws = us, vs, ws
        for arr in (self._us, self._vs, self._ws, self._di, self._dw):
            arr.setflags(write=False)

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
        keys = sorted(merged)
        us = np.array([u for u, _ in keys], dtype=np.intp)
        vs = np.array([v for _, v in keys], dtype=np.intp)
        ws = np.array([merged[k] for k in keys], dtype=float)
        # bincount adds in input order: u0, v0, u1, v1, ... as a loop over the pairs
        ends = np.column_stack((us, vs)).ravel()
        row = np.bincount(ends, np.repeat(ws, 2), minlength=len(mu_values))
        slack = mu_values - row
        if slack.min(initial=0.0) < -tolerance(mu_values.max(initial=0.0)):
            raise InvariantViolation(
                f"matched weight exceeds the measure at some vertex by {-slack.min()}")
        return cls(us, vs, ws, np.maximum(slack, 0.0))

    @property
    def diagonal(self) -> np.ndarray:
        """The dense diagonal completion, rebuilt (read-only) on each access."""
        diag = np.zeros(self.size)
        diag[self._di] = self._dw
        diag.setflags(write=False)
        return diag

    @property
    def off_diagonal(self) -> tuple:
        """The strict pairs as (u, v, w) with u < v, in sorted order."""
        return tuple(zip(self._us.tolist(), self._vs.tolist(), self._ws.tolist()))

    @property
    def off_diagonal_weight(self) -> float:
        return float(self._ws.sum())

    def row_sums(self) -> np.ndarray:
        sums = self.diagonal.copy()
        np.add.at(sums, self._us, self._ws)
        np.add.at(sums, self._vs, self._ws)
        return sums

    def dense(self) -> np.ndarray:
        m = np.diag(self.diagonal)
        for u, v, w in self.off_diagonal:
            m[u, v] += w
            m[v, u] += w
        return m

    def __repr__(self):
        return (f"StochasticMatching(pairs={len(self._ws)}, "
                f"weight={self.off_diagonal_weight:g})")


class ActiveState:
    """The surviving vertex set of the game plus its measure restriction.

    ``order`` lists the active vertices in increasing order; the game builds
    one state per active set, so its round records share that tuple.
    """

    __slots__ = ("active", "order", "measure", "mask", "sqrt_mu", "mu_active_total")

    def __init__(self, active: Iterable[int], measure: VertexMeasure):
        self.active = frozenset(int(v) for v in active)
        self.order = tuple(sorted(self.active))
        self.measure = measure
        mask = np.zeros(len(measure.values), dtype=bool)
        mask[list(self.order)] = True
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
    return _project(state.mask, state.sqrt_mu, state.mu_active_total, np.asarray(x, dtype=float))


def _project(mask, sqrt_mu, total, x) -> np.ndarray:
    if total <= 0.0:
        raise ValueError("active set carries no measure; projection undefined")
    restricted = np.where(mask, x, 0.0)
    coeff = float(sqrt_mu @ restricted) / total
    return restricted - coeff * sqrt_mu


class LazyFactor:
    """One matching's normalized lazy factor, fused in support coordinates.

    Nbar = ((delta-1)/delta) I_supp + D^{-1/2} M D^{-1/2} / delta vanishes
    off the measure's support, so it is stored on the k support vertices
    (in increasing vertex order) as a diagonal ``dg`` plus the pair entries
    ``(rows, cols, vals)``, each pair in both orientations.  Pairs with an
    endpoint off the support meet a zero of the pseudo-inverse and are
    dropped.
    """

    __slots__ = ("dg", "rows", "cols", "vals")

    def __init__(self, m: StochasticMatching, mu: VertexMeasure, delta: int):
        support = np.flatnonzero(mu.support_mask)
        pos = np.full(len(mu.values), -1, dtype=np.intp)
        pos[support] = np.arange(len(support))
        lazy = (delta - 1.0) / delta
        on = mu.support_mask[m._di]
        di = m._di[on]
        self.dg = np.full(len(support), lazy)
        self.dg[pos[di]] = lazy + m._dw[on] * mu.pseudo_inv[di] / delta
        keep = mu.support_mask[m._us] & mu.support_mask[m._vs]
        us, vs = m._us[keep], m._vs[keep]
        vals = m._ws[keep] * mu.inv_sqrt[us] * mu.inv_sqrt[vs] / delta
        self.rows = np.concatenate((pos[us], pos[vs]))
        self.cols = np.concatenate((pos[vs], pos[us]))
        self.vals = np.concatenate((vals, vals))

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Nbar y for a vector y of length k in support coordinates."""
        out = self.dg * y
        if self.rows.size:
            out += np.bincount(self.rows, self.vals * y[self.cols], len(y))
        return out


class WalkOperator:
    """Implicit delta-powered projected walk over a stack of matchings.

    Each matching's :class:`LazyFactor` is built once, by the constructor or
    by :meth:`extend`; the game extends one walk round by round and swaps in
    a new ``state`` when its active set shrinks.
    """

    __slots__ = ("matchings", "factors", "delta", "state", "measure", "support")

    def __init__(self, matchings: Sequence[StochasticMatching], delta: int, state: ActiveState):
        if not is_power_of_two(int(delta)):
            raise ValueError(f"delta must be a power of two, got {delta}")
        self.delta = int(delta)
        self.state = state
        self.measure = state.measure
        self.support = np.flatnonzero(self.measure.support_mask)
        self.matchings: list[StochasticMatching] = []
        self.factors: list[LazyFactor] = []
        for m in matchings:
            self.extend(m)

    @property
    def rounds(self) -> int:
        return len(self.matchings)

    def extend(self, m: StochasticMatching) -> None:
        """Append one round's matching; its factor becomes the outermost, next to P."""
        self.matchings.append(m)
        self.factors.append(LazyFactor(m, self.measure, self.delta))

    def apply(self, x) -> np.ndarray:
        state, sup = self.state, self.support
        mask, sqrt_mu, total = state.mask[sup], state.sqrt_mu[sup], state.mu_active_total
        y = np.asarray(x, dtype=float)[sup]
        for _ in range(self.delta):
            y = _project(mask, sqrt_mu, total, y)
            for f in reversed(self.factors):
                y = f.apply(y)
            for f in self.factors:
                y = f.apply(y)
            y = _project(mask, sqrt_mu, total, y)
        out = np.zeros(len(self.measure.values))
        out[sup] = y
        return out


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
