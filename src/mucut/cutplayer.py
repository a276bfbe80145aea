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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
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

    @property
    def source_mass(self) -> float:
        return float(sum(w for _, w in self.sources))

    @property
    def target_mass(self) -> float:
        return float(sum(w for _, w in self.targets))


def _mass_prefix(ids, mu, order, target_mass):
    """Scan vertices in `order`, taking full weights until `target_mass` is
    reached; the last vertex may be taken partially.  Returns (picks, partial_id)."""
    picks = []
    partial = None
    acc = 0.0
    for k in order:
        remaining = target_mass - acc
        if remaining <= 1e-15 * max(1.0, target_mass):
            break
        take = min(float(mu[k]), remaining)
        if take <= 0.0:
            continue
        picks.append((int(ids[k]), take))
        if take < float(mu[k]) - 1e-12 * max(1.0, float(mu[k])):
            partial = int(ids[k])
        acc += take
    return picks, partial


def rst_partition(state: ActiveState, u, *, check: bool = True) -> WeightedBipartition:
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
    if float(np.abs(stray).max(initial=0.0)) > 1e-9:
        raise ValueError("projection vector has support outside the active terminals")
    scale = float(np.abs(mu_vals * u).sum())
    balance = float((mu_vals * u).sum())
    if abs(balance) > 1e-7 * max(1.0, scale):
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
        tgt_idx = np.flatnonzero(w >= 0)
        src_idx = np.flatnonzero(w < 0)
        key = w
    else:
        # energy concentrated far right: separate at 4*Delta/M and source
        # from the tail at 6*Delta/M and beyond, largest first
        delta_sum = float((mu_t * np.abs(w)).sum())
        eta_w = 4.0 * delta_sum / total
        tgt_idx = np.flatnonzero(w <= eta_w)
        src_idx = np.flatnonzero(w >= 6.0 * delta_sum / total)
        key = -w
    targets = [(int(ids[k]), float(mu_t[k])) for k in tgt_idx]
    eighth = total / 8.0
    partial = None
    if float(mu_t[src_idx].sum()) <= eighth:
        sources = [(int(ids[k]), float(mu_t[k])) for k in src_idx]
    else:
        # up to an eighth of the active measure, ties broken by vertex id
        order = src_idx[np.lexsort((ids[src_idx], key[src_idx]))]
        sources, partial = _mass_prefix(ids, mu_t, order, eighth)

    bip = WeightedBipartition(
        sources=tuple(sorted((v, wt) for v, wt in sources if wt > 0.0)),
        targets=tuple(sorted((v, wt) for v, wt in targets if wt > 0.0)),
        eta=-eta_w if flipped else eta_w,
        case_two=case_two,
        flipped=flipped,
        partial_vertex=partial,
    )
    if check:
        check_bipartition(state, u, bip)
    return bip


def check_bipartition(state: ActiveState, u, bip: WeightedBipartition, tol: float = 1e-9) -> None:
    """Assert the five output properties; raises InvariantViolation naming
    the first one that fails."""
    u = np.asarray(u, dtype=float)
    mu_vals = state.measure.values
    total = state.mu_active_total
    slack = tol * max(1.0, total)

    if bip.sources and bip.targets:
        src_u = [u[v] for v, _ in bip.sources]
        tgt_u = [u[v] for v, _ in bip.targets]
        below = max(src_u) <= bip.eta + tol and bip.eta <= min(tgt_u) + tol
        above = min(src_u) >= bip.eta - tol and bip.eta >= max(tgt_u) - tol
        if not (below or above):
            raise InvariantViolation("separation: eta does not separate sources from targets")

    combined: dict[int, float] = {}
    for v, wt in bip.sources:
        combined[v] = combined.get(v, 0.0) + wt
    for v, wt in bip.targets:
        combined[v] = combined.get(v, 0.0) + wt
    for v, wt in combined.items():
        if wt > mu_vals[v] + tol * max(1.0, mu_vals[v]):
            raise InvariantViolation(f"capacity: combined weight at {v} exceeds its measure")

    if bip.target_mass < total / 2.0 - slack:
        raise InvariantViolation("mass: target weight below half the active measure")
    if bip.source_mass > total / 8.0 + slack:
        raise InvariantViolation("mass: source weight above an eighth of the active measure")

    for v, _ in bip.sources:
        gap = (u[v] - bip.eta) ** 2
        if gap < u[v] ** 2 / 9.0 - tol * max(1.0, u[v] ** 2):
            raise InvariantViolation(f"margin: source {v} sits too close to eta")

    ids = np.flatnonzero(state.mask)
    p_all = float((mu_vals[ids] * u[ids] ** 2).sum())
    captured = float(sum(wt * u[v] ** 2 for v, wt in bip.sources))
    if captured < p_all / 80.0 - tol * max(1.0, p_all):
        raise InvariantViolation(
            f"energy: sources capture {captured:g} < {p_all / 80.0:g} of the projection energy")
