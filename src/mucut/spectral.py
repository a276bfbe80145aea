"""The implicit lazy-walk operator that drives the cut player.

One round's response is a measure-stochastic matching: off-diagonal pair
weights between active terminals plus a diagonal completion so that every
row sums to the vertex measure.  Its pairs form a weighted graph, and
``graph.merge_pairs``/``vertex_sums`` merge and row-sum them as they do a
graph's edges.  A round keeps only its pairs and a reference to the
measure's values; the completion is derived from them when read, and
checked once, when the matching is built.  Writing Nbar_i
for the normalized lazy form of matching i and P for the projection away
from the active sqrt measure, the walk after t rounds is

    W = (P . Nbar_{t-1} ... Nbar_0 . I_supp . Nbar_0 ... Nbar_{t-1} . P)^delta

where I_supp restricts to the measure's support.  The operator is only
ever applied to vectors, and it runs in the support's coordinates: every
factor is zero off the support, so a vector of length k = |supp mu| is
carried through and scattered back to all n vertices once, at the end.
Each matching's normalized lazy factor is fused once, when the matching is
added to the walk, into a diagonal plus symmetric pair triples; applying it
is one product and one ``np.bincount``.  Once the walk holds the k x k
product C = Nbar_{t-1} ... Nbar_0 it applies that instead.  The walk forms
C by itself once the chain of factors holds k^2 numbers; the game forms it
earlier, at the first round whose projections estimate psi within 64
times the stop threshold (at most ``PSI_MAX_TERMINALS`` terminals).  Once
its walk holds C, the game reads the potential psi = ||W||_F^2 off it
after every round by :func:`potential` and stops at the first
psi <= 1/(16 k^2) (see ``game``); on many terminals it skips the rounds
where the cheaper lower bound :func:`potential_bound` already exceeds that.
One evaluation costs 2 delta t (k + pairs) through the chain or
2 delta k^2 through C, plus k (k + pairs) per added round once C exists.
``potentials`` replays a game's round records into the same k x k
product, through the same functions, to report psi after each round.  The
dense n x n oracles live in the tests.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import InvariantViolation
from .graph import VertexMeasure, merge_pairs, tolerance, vertex_mask, vertex_sums

#: The most terminals for which the walk's k x k product is formed for its
#: potential (at most 8 MB): by the game's stop test and by the trace's psi.
PSI_MAX_TERMINALS = 1024
#: Columns per block of :meth:`LazyFactor.times`, which bounds its temporaries.
TIMES_BLOCK = 64


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
    stored explicitly.  The pairs come as columns (us, vs, ws) in any order
    and orientation and are checked and merged as a graph's edges are
    (:func:`graph.merge_pairs`), self-pairs then dropped; the measure's
    values are kept by reference, a writable array copied.  The diagonal is
    not stored: ``diagonal`` derives it from the pairs and the measure.  The
    one stochasticity check, in the constructor, rejects a row whose pairs
    outweigh its measure beyond rounding.
    """

    __slots__ = ("mu_values", "_us", "_vs", "_ws")

    def __init__(self, us, vs, ws, mu_values):
        mu = np.asarray(mu_values, dtype=float)
        mu = mu.copy() if mu.flags.writeable else mu  # never frozen in a caller's hands
        us, vs, ws = merge_pairs(len(mu), us, vs, ws)
        strict = us != vs
        self._us, self._vs, self._ws = us[strict], vs[strict], ws[strict]
        for arr in (mu, self._us, self._vs, self._ws):
            arr.setflags(write=False)
        self.mu_values = mu
        slack = self._slack()
        if slack.min(initial=0.0) < -tolerance(mu.max(initial=0.0)):
            raise InvariantViolation(
                f"matched weight exceeds the measure at some vertex by {-slack.min()}")

    @classmethod
    def from_pairs(cls, mu_values, pairs: Iterable[Sequence]) -> "StochasticMatching":
        """Build the completed matrix from raw endpoint pairs (u, v, w), as
        the constructor builds it from their columns."""
        return cls(*(tuple(zip(*pairs)) or ((), (), ())), mu_values)

    def _slack(self) -> np.ndarray:
        """mu - row sums of the pairs, the row sums accumulated in sorted pair order."""
        return self.mu_values - vertex_sums(len(self.mu_values), self._us, self._vs, self._ws)

    @property
    def diagonal(self) -> np.ndarray:
        """The completion mu - row sums, read-only; a completion below zero by
        rounding is clipped to 0."""
        diag = np.maximum(self._slack(), 0.0)
        diag.setflags(write=False)
        return diag

    @property
    def off_diagonal(self) -> tuple:
        """The strict pairs as (u, v, w) with u < v, in sorted order."""
        return tuple(zip(self._us.tolist(), self._vs.tolist(), self._ws.tolist()))

    @property
    def off_diagonal_weight(self) -> float:
        return float(self._ws.sum())

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
        mask = vertex_mask(len(measure.values), active)
        self.order = tuple(np.flatnonzero(mask).tolist())
        self.active = frozenset(self.order)
        self.measure = measure
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
        self.dg = (delta - 1.0) / delta + m.diagonal[support] * mu.pseudo_inv[support] / delta
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

    def times(self, c: np.ndarray) -> None:
        """Overwrite the k x k matrix C with Nbar C.  Each block of
        ``TIMES_BLOCK`` columns is its rows scaled by ``dg`` plus one
        scatter of the pair rows, so the temporaries stay at that width;
        column j becomes ``apply(c[:, j])`` bit for bit.  k (k + pairs)
        operations."""
        k = len(c)
        flats = {}  # width -> scatter index: the full blocks share one
        for j in range(0, k, TIMES_BLOCK):
            block = c[:, j:j + TIMES_BLOCK]
            width = block.shape[1]
            res = self.dg[:, None] * block
            if self.rows.size:
                if width not in flats:
                    flats[width] = (self.rows[:, None] * width + np.arange(width)).ravel()
                res += np.bincount(flats[width], (self.vals[:, None] * block[self.cols]).ravel(),
                                   k * width).reshape(k, width)
            c[:, j:j + TIMES_BLOCK] = res


def potential(c: np.ndarray, state: ActiveState, delta: int) -> float:
    """The potential psi = ||W||_F^2 of the walk whose k x k product is c.

    c = Nbar_{t-1} ... Nbar_0 in support coordinates and P the projection
    for ``state``'s active set.  W = (P C C^T P)^delta has the nonzero
    spectrum of G^delta for G = C^T P C, so psi = ||G^delta||_F^2, with
    G^delta taken by log2(delta) squarings.  The game's stop test and
    :func:`potentials` both call this, so their values agree bit for bit.
    """
    b = _project_columns(state, c)
    g = b.T @ b
    del b
    for _ in range(int(delta).bit_length() - 1):
        g = g @ g
    return float(np.vdot(g, g))


def potential_bound(c: np.ndarray, state: ActiveState, delta: int,
                    v: np.ndarray) -> tuple[float, np.ndarray]:
    """A lower bound on :func:`potential` from a k x b block v, and the block
    one power step on.

    For orthonormal v, the Ritz values theta_i of G = C^T P C on span(v)
    are the eigenvalues of H = v^T G v = (P C v)^T (P C v), and Cauchy
    interlacing gives theta_i <= lambda_i(G), the i-th largest of each; so
    ||H^delta||_F^2 = sum theta_i^(2 delta) <= sum lambda_i^(2 delta) = psi.
    Any other v scales the left side by at most ||v||_2^(4 delta): H has
    the nonzero eigenvalues of G^(1/2) v v^T G^(1/2), which lies below
    ||v||_2^2 G.  The bound divides by ||v^T v||_inf^(2 delta), at least
    that, so it holds for every block, orthonormal to rounding or not.

    The next block is G v with orthonormal columns: one block power step,
    which turns span(v) toward G's top eigenvectors, where the bound nears
    psi.  2 k^2 b operations, against 2 k^3 and more for psi, all of them
    matrix products: LAPACK's QR or SVD would page in about 1 MB of
    library code.
    """
    b = _project_columns(state, c @ v)
    h = b.T @ b
    for _ in range(int(delta).bit_length() - 1):
        h = h @ h
    bound = float(np.vdot(h, h))
    if bound > 0.0:  # else v or P C v is zero, and 0 is the bound
        bound /= float(np.abs(v.T @ v).sum(axis=1).max()) ** (2 * int(delta))
    return bound, _orthonormal(c.T @ b)


def _orthonormal(y: np.ndarray) -> np.ndarray:
    """Orthonormal columns for y's, in order, by classical Gram-Schmidt run
    twice per column; a column that vanishes against the earlier ones stays
    zero."""
    q = np.zeros_like(y, order="F")
    for j in range(y.shape[1]):
        x = y[:, j]
        for _ in range(2):
            x = x - q[:, :j] @ (q[:, :j].T @ x)
        norm = math.sqrt(float(x @ x))
        if norm > 0.0:
            q[:, j] = x / norm
    return q


def _project_columns(state: ActiveState, x: np.ndarray) -> np.ndarray:
    """P x for a matrix x of k rows in support coordinates, built in place."""
    if state.mu_active_total <= 0.0:
        raise ValueError("active set carries no measure; projection undefined")
    support = np.flatnonzero(state.measure.support_mask)
    mask, sqrt_mu = state.mask[support], state.sqrt_mu[support]
    b = mask[:, None] * x
    o = np.outer(sqrt_mu, sqrt_mu @ x)
    o /= state.mu_active_total
    b -= o
    return b


def potentials(rounds, measure: VertexMeasure, delta: int) -> list[float]:
    """The potential psi = ||W||_F^2 after each of a game's round records.

    The rounds' factors are multiplied into the k x k product
    C = Nbar_{t-1} ... Nbar_0, one ``LazyFactor.times`` per round, and
    :func:`potential` reads psi off it for the active set after the round.
    """
    if not is_power_of_two(int(delta)):
        raise ValueError(f"delta must be a power of two, got {delta}")
    c = np.eye(len(measure.support))
    state = None
    psis = []
    for rec in rounds:
        LazyFactor(rec.matching, measure, delta).times(c)
        if state is None or rec.removed:
            state = ActiveState(frozenset(rec.active_before) - rec.removed, measure)
        psis.append(potential(c, state, delta))
    return psis


class WalkOperator:
    """Implicit delta-powered projected walk over a stack of matchings.

    Each matching's :class:`LazyFactor` is built once, by the constructor or
    by :meth:`extend`; the game extends one walk round by round and swaps in
    a new ``state`` when its active set shrinks.  Until the walk holds its
    k x k product (k = |supp mu|), ``apply`` runs through the chain of
    factors.  :meth:`multiply_out` multiplies the chain into ``product``,
    the matrix C = Nbar_{t-1} ... Nbar_0, and drops the factors; later
    rounds left-multiply C by their factor in place, and ``apply`` uses
    C C^T.  ``product_round`` is the number of rounds the product held when
    it was formed (None while there is none).  The walk multiplies out by
    itself at the ``extend`` that brings the chain to k^2 numbers
    (``chain_size``: k diagonal entries plus the pair entries per factor),
    so the product never holds more numbers than the chain it replaces;
    the game calls :meth:`multiply_out` earlier, once its round's
    projections estimate that the walk is near mixing (see ``game``).
    """

    __slots__ = ("matchings", "factors", "chain_size", "product", "product_round", "delta",
                 "state", "measure", "support")

    def __init__(self, matchings: Sequence[StochasticMatching], delta: int, state: ActiveState):
        if not is_power_of_two(int(delta)):
            raise ValueError(f"delta must be a power of two, got {delta}")
        self.delta = int(delta)
        self.state = state
        self.measure = state.measure
        self.support = np.flatnonzero(self.measure.support_mask)
        self.matchings: list[StochasticMatching] = []
        self.factors: list[LazyFactor] = []
        self.chain_size = 0
        self.product: np.ndarray | None = None
        self.product_round: int | None = None
        for m in matchings:
            self.extend(m)

    @property
    def rounds(self) -> int:
        return len(self.matchings)

    def extend(self, m: StochasticMatching) -> None:
        """Append one round's matching; its factor becomes the outermost, next to P."""
        self.matchings.append(m)
        f = LazyFactor(m, self.measure, self.delta)
        if self.product is not None:
            f.times(self.product)
            return
        self.factors.append(f)
        k = len(self.support)
        self.chain_size += k + f.rows.size
        if self.chain_size >= k * k:
            self.multiply_out()

    def multiply_out(self) -> None:
        """Form the product from the chain, in place in one k x k array, and
        drop the factors; a walk that holds its product is left as it is."""
        if self.product is not None:
            return
        c = np.eye(len(self.support))
        for factor in self.factors:
            factor.times(c)
        self.product, self.factors, self.product_round = c, [], self.rounds

    def apply(self, x) -> np.ndarray:
        state, sup, c = self.state, self.support, self.product
        mask, sqrt_mu, total = state.mask[sup], state.sqrt_mu[sup], state.mu_active_total
        x = np.asarray(x, dtype=float)
        n = len(self.measure.values)
        if x.shape != (n,):
            raise ValueError(f"walk on {n} vertices given a vector of shape {x.shape}")
        y = x[sup]
        for _ in range(self.delta):
            y = _project(mask, sqrt_mu, total, y)
            if c is not None:
                y = c @ (c.T @ y)
            else:
                for f in reversed(self.factors):
                    y = f.apply(y)
                for f in self.factors:
                    y = f.apply(y)
            y = _project(mask, sqrt_mu, total, y)
        out = np.zeros(n)
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
