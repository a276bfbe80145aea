"""Weighted source/target selection from a projection vector.

Given projections u over the active set with measure-weighted mean zero,
pick a light set of sources and a heavy set of targets separated by a
threshold eta, such that the sources capture at least 1/80 of the total
projection energy.  The construction splits on where the energy sits:

* If the negative side holds at least a 1/20 energy share, eta = 0, the
  whole non-negative side becomes targets, and sources are the most
  negative vertices up to an eighth of the active measure.
* Otherwise almost all energy sits far on the positive side.  With
  Delta = sum mu|u| and M the active measure, eta = 4*Delta/M, everything
  with u <= eta becomes a target, and sources are the largest-u vertices
  among {u >= 6*Delta/M} up to an eighth of the active measure.

The sign of u is flipped first if needed so the negative side is the
lighter one; reported eta is in the caller's sign convention.  At most one
source carries a partial weight.

Both sides are built from arrays over the active ids: those are in vertex
order, so the (id, weight) tuples come out sorted with no Python loop over
the active set, and only a source side cut short at an eighth of the
measure is scanned in Python and sorted back.  The output check, run on
every bipartition, reads the tuples back into id and weight arrays and
tests each of its five properties with one array expression.  The
bipartition caches its two masses, which the check and the matching player
both read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from .errors import InvariantViolation
from .graph import EPS, ordered_sum, tolerance
from .spectral import ActiveState


@dataclass(frozen=True)
class WeightedBipartition:
    """Sources and targets with weights, plus the separation value eta."""

    sources: tuple[tuple[int, float], ...]
    targets: tuple[tuple[int, float], ...]
    eta: float
    case_two: bool
    flipped: bool
    partial_vertex: int | None

    @cached_property
    def source_mass(self) -> float:
        return ordered_sum(w for _, w in self.sources)

    @cached_property
    def target_mass(self) -> float:
        return ordered_sum(w for _, w in self.targets)


def _mass_prefix(ids, mu, target_mass):
    """Take (id, weight) pairs in the given order at full weight until
    `target_mass` is reached; the last one may be taken partially.
    Returns (picks, partial_id)."""
    remaining = target_mass - np.concatenate(([0.0], np.cumsum(mu)))[:len(mu)]
    stop = int(np.count_nonzero(remaining > tolerance(target_mass)))  # remaining falls
    take = np.minimum(mu[:stop], remaining[:stop])
    partial = int(ids[stop - 1]) if stop and take[-1] < mu[stop - 1] else None
    return list(zip(ids[:stop].tolist(), take.tolist())), partial


def rst_partition(state: ActiveState, u) -> WeightedBipartition:
    """Partition the active set into weighted sources and targets.

    Preconditions: the measure-weighted sum of u over the active set is
    zero (up to tolerance) and u vanishes off the active support.  Runs in
    O(|A| log |A|); ties in the sorted scans break by vertex id.
    """
    u = np.asarray(u, dtype=float)
    if state.mu_active_total <= 0.0:
        raise ValueError("active set carries no measure")
    mu_vals = state.measure.values
    stray = np.where(state.mask, 0.0, u)
    if float(np.abs(stray).max(initial=0.0)) * np.sqrt(state.mu_active_total) > EPS:
        raise ValueError("projection vector has support outside the active terminals")
    scale = float(np.abs(mu_vals * u).sum())
    balance = float((mu_vals * u).sum())
    if abs(balance) > tolerance(max(scale, np.sqrt(state.mu_active_total))):
        raise ValueError(f"projection vector is not measure-balanced: sum mu*u = {balance}")

    ids = np.flatnonzero(state.mask)
    mu_t = mu_vals[ids]
    u_orig = u[ids]

    flipped = float(mu_t[u_orig < 0].sum()) > float(mu_t[u_orig >= 0].sum())
    w = -u_orig if flipped else u_orig

    total = state.mu_active_total
    energy = mu_t * w * w
    p_all = float(energy.sum())
    p_left = float(energy[w < 0].sum())

    case_two = not p_left >= p_all / 20.0  # a NaN energy lands in case two
    if not case_two:
        # negative side carries enough energy: eta = 0, targets = whole
        # non-negative side, sources = most negative first
        eta_w = 0.0
        tgt = w >= 0
        src_idx = np.flatnonzero(w < 0)
        key = w
    else:
        # energy concentrated far right: separate at 4*Delta/M and source
        # from the tail at 6*Delta/M and beyond, largest first
        delta_sum = float((mu_t * np.abs(w)).sum())
        eta_w = 4.0 * delta_sum / total
        tgt = w <= eta_w
        src_idx = np.flatnonzero(w >= 6.0 * delta_sum / total)
        key = -w
    # every active id carries positive measure, so every weight taken is positive
    eighth = total / 8.0
    partial = None
    if float(mu_t[src_idx].sum()) <= eighth:
        sources = tuple(zip(ids[src_idx].tolist(), mu_t[src_idx].tolist()))
    else:
        # up to an eighth of the active measure, ties broken by vertex id
        order = src_idx[np.lexsort((ids[src_idx], key[src_idx]))]
        picks, partial = _mass_prefix(ids[order], mu_t[order], eighth)
        sources = tuple(sorted(picks))

    bip = WeightedBipartition(
        sources=sources,
        targets=tuple(zip(ids[tgt].tolist(), mu_t[tgt].tolist())),
        eta=-eta_w if flipped else eta_w,
        case_two=case_two,
        flipped=flipped,
        partial_vertex=partial,
    )
    check_bipartition(state, u, bip)
    return bip


def _columns(pairs):
    """The ids and the weights of (id, weight) pairs, as two arrays."""
    return (np.fromiter(map(itemgetter(0), pairs), np.intp, len(pairs)),
            np.fromiter(map(itemgetter(1), pairs), float, len(pairs)))


def check_bipartition(state: ActiveState, u, bip: WeightedBipartition) -> None:
    """Assert the five output properties; raises InvariantViolation naming
    the first one that fails.  Projections scale as mu^(-1/2), so they are
    compared in the unitless forms sqrt(mu) * u and mu * u^2 against the
    absolute EPS (see the graph module); masses use tolerance.

    Each property is one array expression over the ids and weights of the
    sources and targets.  Where a property names a vertex, it names the
    first failing one in the order the bipartition lists them, sources
    first; a vertex listed on both sides is judged on its combined weight,
    summed in that order.
    """
    u = np.asarray(u, dtype=float)
    mu_vals = state.measure.values
    total = state.mu_active_total
    src, src_w = _columns(bip.sources)
    tgt, tgt_w = _columns(bip.targets)
    src_u = u[src]

    if len(src) and len(tgt):
        tgt_u = u[tgt]
        root = np.sqrt(total)
        below = root * (src_u.max() - bip.eta) <= EPS and root * (bip.eta - tgt_u.min()) <= EPS
        above = root * (bip.eta - src_u.min()) <= EPS and root * (tgt_u.max() - bip.eta) <= EPS
        if not (below or above):
            raise InvariantViolation("separation: eta does not separate sources from targets")

    listed = np.concatenate((src, tgt))
    combined = np.bincount(listed, np.concatenate((src_w, tgt_w)), minlength=len(mu_vals))
    cap = mu_vals[listed]
    over = np.flatnonzero(combined[listed] > cap + tolerance(cap))
    if len(over):
        raise InvariantViolation(
            f"capacity: combined weight at {listed[over[0]]} exceeds its measure")

    if bip.target_mass < total / 2.0 - tolerance(total):
        raise InvariantViolation("mass: target weight below half the active measure")
    if bip.source_mass > total / 8.0 + tolerance(total):
        raise InvariantViolation("mass: source weight above an eighth of the active measure")

    src_mu = mu_vals[src]
    close = np.flatnonzero(src_mu * (src_u - bip.eta) ** 2 < src_mu * src_u ** 2 / 9.0 - EPS)
    if len(close):
        raise InvariantViolation(f"margin: source {src[close[0]]} sits too close to eta")

    ids = np.flatnonzero(state.mask)
    p_all = float((mu_vals[ids] * u[ids] ** 2).sum())
    # summed source by source, in the listed order
    captured = float(np.cumsum(src_w * src_u ** 2)[-1]) if len(src) else 0.0
    if captured < p_all / 80.0 - EPS:
        raise InvariantViolation(
            f"energy: sources capture {captured:g} < {p_all / 80.0:g} of the projection energy")
