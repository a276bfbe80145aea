"""The cut-matching game: alternate spectral cuts and routed matchings.

Each round samples a random unit vector, projects it through the implicit
walk operator, turns the projections into weighted sources and targets,
and asks the matching player to route the source mass inside the active
set.  Failures to route remove a sparse cut from the active set.  The
outcome keeps each round's :class:`RoundRecord` as the matching player
returned it; every view of a round (the CLI's trace CSV, its potential)
is computed from those records.  Every id, in the rounds and in their
records, is an id of the graph passed in.  The run ends at the first of:
the removed measure passes its threshold; the walk holds its k x k product
(see :class:`spectral.WalkOperator`; k = |supp mu|) and the potential
psi = ||W||_F^2 after the round is at most tau = 1/(16 k^2); or T rounds
are played.  It is classified as a balanced cut (removed measure past the
threshold), a small cut whose complement is a near-expander (some
removal), or a certified expander (none).

When the walk takes its product
-------------------------------
A round's projections u = W r, for the round's random unit vector r, are
at hand before its matching, and n ||W r||^2 = n sum_v mu(v) u_v^2 is an
unbiased estimate of psi, whatever the units.  The first round at which
it is at most 64 tau, on at most ``PSI_MAX_TERMINALS`` terminals,
multiplies the walk out after adding its matching; the walk also does so
itself once its chain holds k^2 numbers.  The estimate decides only from
which round psi is checked; a stop needs the exact psi <= tau.  Near
mixing psi about halves each round, so the margin 64 starts the checks a
few rounds before the stop (a median of 5 on the benchmark's whisker
games, seeds 1-3); each check costs O(k^3), and an earlier start only
adds checks.  An estimate too high by the margin, or a round whose
removal drops psi by more, forms the product later, which can only delay
the stop.

Why a mixed walk ends the game
------------------------------
Write s = sqrt(mu) on the k terminals, C = Nbar_{t-1} ... Nbar_0 for the
walk's product after t rounds, P for the projection away from s on the
active set A, and sigma = ||P C||_2.  Then psi = ||(C^T P C)^delta||_F^2
is the sum of the (4 delta)-th powers of the singular values of P C, so
sigma <= psi^(1/(4 delta)).

* Mass view.  Let every terminal u start with mu(u) of its own commodity,
  and let round i move, for each pair (u, v, w) of its matching, the share
  w/(delta mu(u)) of all u holds to v and the share w/(delta mu(v)) of all
  v holds to u: w/delta each way, as u always holds mu(u) in all.  That is
  the lazy factor Nbar_i in mu-coordinates, so after t rounds the
  S-commodity found in a set Y is x_Y^T C x_S, with x_S = s on S and zero
  elsewhere.  The mass moves on the paths the matching player routed the
  pair on, which load an edge e with at most c w_e per round, so at most
  t c w(E(S, V-S)) / delta of any commodity ever leaves S.
* Certified (A = V).  C fixes s on both sides, so for mu(S) <= mu(V)/2
  the S-commodity outside S is at least (1 - sigma) mu(S) mu(V-S) / mu(V),
  and Phi(S) >= (1 - sigma) delta / (2 c t).
* Near-expander (removed set R, A = V - R).  The same count, with the
  commodity that leaks into R, gives w(E(S, V-S)) >= (1 - sqrt(2) sigma)
  delta / (2 c t) mu(S) for S inside A with mu(S) <= mu(A)/2: edges into R
  count, as trimming needs.  The run stops below stop_threshold =
  mu(V) c phi / 70, and the cut is at most 7/c sparse (the game checks
  it), so w(E(A, R)) <= 7 mu(R) / c <= phi mu(V) / 10, within trim's
  phi mu(A) / 9 whenever c phi <= 7.
* The threshold.  The T-round analysis drives psi below 1/k^2 w.h.p.;
  then sigma^2 <= k^(-1/delta), the n^(-1/delta) <= 1/20 that
  ``default_delta`` provides when every vertex is a terminal.  The game
  checks psi itself, against tau = 1/(16 k^2).
* Fewer rounds.  The certificate uses the round count only through the
  congestion c t, and its level falls as 1/t: a game that mixes at t < T
  proves a level T/t times higher than the same mixing proves at T.
* The constants.  With the defaults (c = round(1/(phi ln n)),
  T = ceil(2 log2(n)^2), delta from ``default_delta``) the level reaches
  phi/6 only while t <= 3 (1 - sigma) delta / (c phi).  With sigma at the
  k^(-1/(2 delta)) that tau guarantees, on instance 0 of benchmark seed 1:
  the 30 x 30 terminal grid (k = 90, delta = 2, c = 7) mixes at t = 32
  and proves phi/6.6, where T = 193 proved phi/40; its 50-vertex planted
  blocks (k = 50, delta = 1, c = 5) mix at t = 26-29 and prove phi/15 to
  phi/17, where T = 64 proved phi/37; the whisker game (k = 503,
  delta = 2, c = 3) stops at t = 35 with a near-expander at phi/7.5, where
  T = 162 gave phi/35.  So the chain alone does not reach phi/6 at these
  sizes, with or without the early stop; ``decompose`` brute-forces small
  clusters against phi/6 as before.
* Rounding.  Every factor is nonnegative with spectral norm at most 1, so
  a relative error in its entries is one in its norm.  With u = 2^-53 and
  d the most pairs at one vertex in a round, the computed P C is within
  eta = 2((d + 6) t + k + 4) u of the exact one in spectral norm, and for
  delta <= 4 (n < 20^8) the computed G^delta, G = C^T P C, is within
  sqrt(k) (2 delta eta + 304 k u) of the exact one in Frobenius norm, to
  first order in u.  As tau is 16 times below the 1/k^2 above, an error
  up to 3/(4k) there still leaves the exact psi below 1/k^2: at k = 1024,
  t = 200 and d = k the bound is 1.3e-8, against 7.3e-4.

Ruling out unmixed rounds
-------------------------
The exact psi takes two or more k x k products (about 15 ms at k = 503,
delta = 2, one BLAS thread), and all checks but the last one answer "not
yet".  On at least ``RITZ_MIN_TERMINALS`` terminals the game first takes a
lower bound on psi from a block V of b = ``RITZ_BLOCK`` orthonormal
vectors (:func:`spectral.potential_bound`, O(k^2 b) operations) and runs
the exact check only when the bound is at most (1 + ``BOUND_SLACK``) tau,
with the slack 1/64.

* The bound.  For orthonormal V, the Ritz values theta_i of
  G = C^T P C on span(V) are the eigenvalues of
  H = V^T G V = (P C V)^T (P C V).  Cauchy interlacing gives
  theta_i <= lambda_i(G), the i-th largest of each, so
  ||H^delta||_F^2 = sum theta_i^(2 delta) <= sum lambda_i^(2 delta) = psi.
  Any other V scales the left side by at most
  ||V||_2^(4 delta) <= ||V^T V||_inf^(2 delta), which the bound divides
  by, so it holds for a V orthonormal only to rounding too.
* The block.  It starts at the round the walk takes its product, from a
  fixed Gaussian block drawn from a generator of its own (the game's
  generator gives the same draws as without it), with ``RITZ_WARMUP``
  power steps: V <- G V, its columns made orthonormal by Gram-Schmidt.
  Each later round takes one more step.  At the exact checks of the
  benchmark's whisker games (k = 503, seeds 1-3), G's top eigenvector
  holds 13-27 % of psi and its top 16 hold 87-94 %; the bound reads
  59-66 % of psi at the first round and 80-88 % near the stop, so the
  exact check runs once or twice a game, not 6-8 times.
* Why no stop moves.  A skipped round is one whose computed psi exceeds
  tau, shown next, so the game plays the same rounds to the same stop,
  bit for bit, as with every check run, and every stop comes from the
  exact psi.
* The slack.  With E the bound on ||fl(G^delta) - G^delta||_F of the
  rounding paragraph above, sqrt(fl(psi)) >= sqrt(psi) - E.  The bound
  is computed as psi is, from P C V in place of P C: to first order,
  the computed P C V is within eta + 2 k sqrt(b) u of the exact one for
  a V of norm about 1, so the computed H^delta is within
  E_b = sqrt(b) (2 delta (eta + 2 k sqrt(b) u) + 304 k u) of the exact
  one, and E_b <= E for k >= 2 b.  The computed ||V^T V||_inf
  errs by a relative (k + b) u, which moves the bound's root by a
  relative delta (k + b) u, below 1e-12.  A bound above (1 + 1/64) tau
  thus gives sqrt(fl(psi)) > (sqrt(1 + 1/64) - 8 k E) / (4 k), which is
  at least sqrt(tau) while 8 k E <= sqrt(1 + 1/64) - 1 = 7.8e-3.  At
  k = 1024, t = 200, d = k and delta = 4, 8 k E = 1.1e-4.  E grows
  linearly in t, and 8 k E stays below 7.8e-3 up to t = 15,000; T
  reaches that only past n = 2^86.
* The size rule.  Per game the bound runs on every round from the
  product on, plus the warm-up steps: 13-14 times with delta = 1 and about
  9 with delta = 2, against 6-12 exact checks it replaces by one or two.
  Timed per game over 4 seeds of whiskered four-cycle unions (one BLAS
  thread), psi checks and bounds together took 8.8 ms without the bound
  and 9.8 ms with it at k = 208, 15.3 and 8.9 ms at k = 224, 34 and 18 ms
  at k = 300, and 107 and 33 ms at k = 503.  So the bound runs from 224
  terminals on; the benchmark's planted (k = 50) and grid (k = 90) games
  play without it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cutplayer import rst_partition
from .errors import InvariantViolation
from .graph import Graph, VertexMeasure, is_connected, mu_expansion_of_cut, tolerance
# not called here; bench/spans.py wraps this name and reports it missing if it goes
from .graph import induced_subgraph  # noqa: F401
from .flow import edge_network
from .matching import RoundRecord, solve_matching_round
from .spectral import (PSI_MAX_TERMINALS, ActiveState, WalkOperator, default_delta,
                       is_power_of_two, potential, potential_bound, projections,
                       sample_unit_vector)

#: The fewest terminals at which a lower bound on psi screens the exact
#: checks (see "Ruling out unmixed rounds" in the module docstring); below it the k^3 checks
#: cost less than the bound's steps over a game.
RITZ_MIN_TERMINALS = 224
#: Width b of the bound's block, and the power steps it takes when it starts.
RITZ_BLOCK = 16
RITZ_WARMUP = 2
#: A check is skipped only while the bound exceeds (1 + BOUND_SLACK) tau.
BOUND_SLACK = 1.0 / 64


@dataclass(frozen=True)
class GameParams:
    """Knobs of one game run; build with :meth:`for_graph` for the defaults.

    rounds_T caps the rounds: a game stops earlier once its walk has mixed
    (psi <= 1/(16 k^2), see the module docstring).  stop_threshold is
    mu(V) * c * phi / 70: the run stops once the removed measure exceeds
    it.  Nothing here concerns tracing: the trace's potentials are computed
    from the outcome's round records, outside the game.
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
    #: exact psi evaluations (:func:`spectral.potential`) the game ran
    psi_checks: int = field(default=0, compare=False)


def run_cut_matching(g: Graph, mu: VertexMeasure, params: GameParams,
                     rng: np.random.Generator) -> CutMatchingOutcome:
    """Play until the walk mixes, the removed measure passes its threshold or
    T rounds are played, on a connected graph, and classify the outcome."""
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
    k = len(walk.support)
    tau = 1.0 / (16.0 * k * k)  # the mixing threshold; see the module docstring
    edges = None  # the active set's edge arcs, built by the first round that needs them
    block = None  # the Ritz block, from the round the walk holds its product
    checks = t = 0

    while mu.of(removed_all) <= params.stop_threshold and t < params.rounds_T:
        r = sample_unit_vector(n, rng)
        u = projections(walk, r)
        # n ||W r||^2 estimates psi before this round without bias
        near_mixed = k <= PSI_MAX_TERMINALS and n * float(mu.values @ (u * u)) <= 64 * tau
        bip = rst_partition(state, u)
        if edges is None:
            edges = edge_network(g, state.active, c)
        rec = solve_matching_round(g, state, edges, bip, c, round_index=t)
        records.append(rec)
        walk.extend(rec.matching)
        if near_mixed:
            walk.multiply_out()
        if rec.removed:
            active = active - rec.removed
            removed_all = removed_all | rec.removed
            state = walk.state = ActiveState(active, mu)
            edges = None
        t += 1
        if walk.product is None:
            continue
        if k >= RITZ_MIN_TERMINALS:
            if block is None:  # a fixed start, from a generator of its own
                block = np.random.default_rng(0).standard_normal((k, RITZ_BLOCK))
                for _ in range(RITZ_WARMUP):
                    block = potential_bound(walk.product, state, params.delta, block)[1]
            bound, block = potential_bound(walk.product, state, params.delta, block)
            if bound > (1.0 + BOUND_SLACK) * tau:
                continue  # psi > tau for certain: no check needed
        checks += 1
        if potential(walk.product, state, params.delta) <= tau:
            break  # mixed: the round budget exists only to reach this

    if mu.of(removed_all) > params.stop_threshold:
        variant = Variant.BALANCED_CUT
    elif removed_all:
        variant = Variant.NEAR_EXPANDER_CUT
    else:
        variant = Variant.CERTIFIED_EXPANDER

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
        psi_checks=checks,
    )
