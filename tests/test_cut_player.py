import dataclasses

import numpy as np
import pytest

from mucut import VertexMeasure
from mucut.cutplayer import WeightedBipartition, _mass_prefix, check_bipartition, rst_partition
from mucut.errors import InvariantViolation
from mucut.flow import Terminals
from mucut.graph import EPS
from mucut.spectral import ActiveState

from helpers import (_reference_mass_prefix, orthogonalized_projection, pairs_of, random_measure,
                     reference_check_bipartition, reference_rst_partition, terminals)


def make_state(values, active=None):
    mu = VertexMeasure(values)
    return ActiveState(range(len(values)) if active is None else active, mu)


def test_hand_traced_two_vertex_case():
    state = make_state([1.0, 1.0])
    u = np.array([-1.0, 1.0])
    bip = rst_partition(state, u)
    # negative side holds half the energy: eta 0, target side full, source
    # side capped at an eighth of the total measure
    assert bip.eta == 0.0
    assert pairs_of(bip.targets) == ((1, 1.0),)
    assert pairs_of(bip.sources) == ((0, 0.25),)
    assert not bip.case_two
    # energy: 0.25 * 1 >= (1/80) * 2
    assert bip.sources.mass * 1.0 >= 2.0 / 80.0


def test_all_zero_projection_is_legal():
    state = make_state([1.0, 2.0, 3.0])
    bip = rst_partition(state, np.zeros(3))
    assert bip.eta == 0.0
    assert not bip.case_two
    assert not bip.sources
    assert bip.targets.mass == pytest.approx(6.0)


def test_balance_precondition_enforced():
    state = make_state([1.0, 1.0])
    with pytest.raises(ValueError):
        rst_partition(state, np.array([1.0, 1.0]))


def test_support_precondition_enforced():
    state = make_state([1.0, 0.0, 1.0])
    u = np.array([-1.0, 0.5, 1.0])  # weight on a zero-measure vertex
    with pytest.raises(ValueError):
        rst_partition(state, u)


def test_zero_active_measure_rejected():
    state = make_state([0.0, 0.0, 1.0], active={0, 1})
    with pytest.raises(ValueError):
        rst_partition(state, np.zeros(3))


def test_source_mass_exact_when_left_side_heavy():
    # mu(L) > mu(A)/8 forces the prefix scan to stop at exactly an eighth,
    # mid-vertex here since the most negative vertex alone is heavier
    vals = np.array([3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    state = make_state(vals)
    u = np.array([-3.0, -2.0, -1.0, 1.0, 1.0, 1.0, 1.0, 2.0])
    u = u - float((vals * u).sum()) / float(vals.sum())
    bip = rst_partition(state, u)
    assert bip.sources.mass == pytest.approx(10.0 / 8.0, abs=1e-9)
    assert bip.partial_vertex == 0
    assert pairs_of(bip.sources) == ((0, pytest.approx(1.25)),)


def test_determinism_and_id_tiebreaks():
    state = make_state([1.0] * 6)
    u = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
    a = rst_partition(state, u)
    b = rst_partition(state, u)
    assert bits(a) == bits(b)
    # equality is identity, stated rather than generated over identity-equal sides
    assert WeightedBipartition.__eq__ is object.__eq__
    # ties in u resolve toward smaller vertex ids in the prefix scan
    assert a.sources.ids.tolist() == sorted(a.sources.ids.tolist())


def case_two_instance():
    # light negative side with little energy, heavy bulk at zero, and one
    # tiny-measure vertex carrying the energy far on the positive side
    mu_vals = np.array([0.5, 8.0, 8.0, 8.0, 8.0, 0.02])
    u = np.array([-1.0, 0.0, 0.0, 0.0, 0.0, 25.0])
    assert abs(float((mu_vals * u).sum())) < 1e-12
    return mu_vals, u


def test_case_two_triggers_on_heavy_positive_tail():
    mu_vals, u = case_two_instance()
    state = make_state(mu_vals)
    bip = rst_partition(state, u)
    assert bip.case_two
    assert not bip.flipped
    assert bip.eta > 0
    assert pairs_of(bip.sources) == ((5, pytest.approx(0.02)),)
    # case-2 internal inequality: measure above eta within the non-negative
    # side is at most half that side's measure
    above = sum(mu_vals[i] for i in range(6) if u[i] >= 0 and u[i] > bip.eta)
    nonneg = sum(mu_vals[i] for i in range(6) if u[i] >= 0)
    assert above <= nonneg / 2 + 1e-9


def test_flip_reports_eta_in_original_sign():
    # the measure-heavy bulk sits slightly below zero, so the sign flips
    # before the case split; eta comes back in the original sign
    mu_vals = np.array([0.5, 8.0, 8.0, 8.0, 8.0, 0.02])
    u = np.array([1.064, -0.001, -0.001, -0.001, -0.001, -25.0])
    assert abs(float((mu_vals * u).sum())) < 1e-12
    state = make_state(mu_vals)
    bip = rst_partition(state, u)
    assert bip.flipped
    assert bip.case_two
    assert bip.eta < 0
    assert pairs_of(bip.sources) == ((5, pytest.approx(0.02)),)
    check_bipartition(state, u, bip)


@pytest.mark.parametrize("seed", range(8))
def test_random_inputs_satisfy_all_five_properties(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        mu = random_measure(rng, n, zero_frac=0.25)
        state = ActiveState(range(n), mu)
        u = orthogonalized_projection(rng, mu, quantize=bool(rng.random() < 0.3))
        bip = rst_partition(state, u)  # checks all five properties internally
        check_bipartition(state, u, bip)
        # exact eighth when the scanned side was heavy enough
        ids = np.flatnonzero(state.mask)
        w = u[ids] if not bip.flipped else -u[ids]
        mu_left = float(mu.values[ids][w < 0].sum())
        if not bip.case_two and mu_left > state.mu_active_total / 8.0 + 1e-9:
            assert bip.sources.mass == pytest.approx(state.mu_active_total / 8.0, rel=1e-9)


def _one_source_bipartition(scale, source_u, eta):
    # eight vertices of measure `scale`: vertex 0 is the source, the rest
    # are targets at +1; projections scale as scale^(-1/2)
    state = make_state([scale] * 8)
    root = np.sqrt(scale)
    u = np.array([source_u] + [1.0] * 7) / root
    bip = WeightedBipartition(sources=Terminals([0], [scale]),
                              targets=Terminals(range(1, 8), [scale] * 7), eta=eta / root,
                              case_two=False, flipped=False, partial_vertex=None)
    return state, u, bip


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_projection_checks_hold_in_any_units(scale):
    # a projection of 1e-5 off the support, a source 1e-5 on the wrong side
    # of eta, and a source at distance 0.1 from eta where a third of |u| = 1
    # is needed, fail at every scale
    with pytest.raises(ValueError, match="support"):
        rst_partition(make_state([scale, 0.0, scale]), np.array([-1.0, 1e-5, 1.0]) / np.sqrt(scale))
    with pytest.raises(InvariantViolation, match="separation"):
        check_bipartition(*_one_source_bipartition(scale, -1.0, -1.0 - 1e-5))
    with pytest.raises(InvariantViolation, match="margin"):
        check_bipartition(*_one_source_bipartition(scale, -1.0, -0.9))
    check_bipartition(*_one_source_bipartition(scale, -1.0, 0.0))


def test_partial_weight_vertex_is_unique_and_recorded():
    rng = np.random.default_rng(55)
    seen_partial = 0
    for _ in range(60):
        n = int(rng.integers(4, 30))
        mu = random_measure(rng, n, zero_frac=0.1)
        state = ActiveState(range(n), mu)
        u = orthogonalized_projection(rng, mu)
        bip = rst_partition(state, u)
        partials = [v for v, w in pairs_of(bip.sources)
                    if w < mu.values[v] - 1e-12 * max(1.0, mu.values[v])]
        assert len(partials) <= 1
        if partials:
            seen_partial += 1
            assert bip.partial_vertex == partials[0]
    assert seen_partial > 0


def test_subset_active_state():
    rng = np.random.default_rng(77)
    mu = random_measure(rng, 12, zero_frac=0.0)
    active = set(range(12)) - {3, 7}
    state = ActiveState(active, mu)
    u = rng.standard_normal(12)
    u[3] = u[7] = 0.0
    shift = float((mu.values * u)[list(sorted(active))].sum()) / state.mu_active_total
    for v in active:
        u[v] -= shift
    bip = rst_partition(state, u)
    touched = set(bip.sources.ids.tolist()) | set(bip.targets.ids.tolist())
    assert touched <= active


def random_partition_input(rng):
    """A random active state and a balanced projection on it: zero-measure
    vertices and a strict active subset half the time; the projection is
    noise (with a spike on one vertex a third of the time), or, a quarter
    of the time, zero on a heavy bulk with one light vertex far out, which
    is case two."""
    n = int(rng.integers(2, 40))
    values = random_measure(rng, n, zero_frac=0.25).values.copy()
    active = [v for v in range(n) if rng.random() < 0.7] if rng.random() < 0.5 else range(n)
    state = ActiveState(active, VertexMeasure(values))
    terminals = np.flatnonzero(state.mask)
    if len(terminals) >= 3 and rng.random() < 0.25:
        far, *rest = rng.permutation(terminals).tolist()
        values[far] = 1e-3 * values[rest].sum()
        state = ActiveState(active, VertexMeasure(values))
        u = np.zeros(n)
        u[far] = 1.0
        left = rest[:max(1, len(rest) // 3)]
        u[left] = -values[far] / values[left].sum()
        return state, u * float(rng.choice([-1.0, 1.0]))
    u = np.where(state.mask, rng.standard_normal(n), 0.0)
    if rng.random() < 1 / 3 and len(terminals):
        u[rng.choice(terminals)] += float(rng.choice([-30.0, 30.0]))
    if rng.random() < 0.3:
        u = np.round(u * 2.0) / 2.0
    if state.mu_active_total > 0:
        shift = float((values * u)[state.mask].sum()) / state.mu_active_total
        u = np.where(state.mask, u - shift, 0.0)
    return state, u


def bits(bip):
    return (tuple((v, w.hex()) for v, w in pairs_of(bip.sources)),
            tuple((v, w.hex()) for v, w in pairs_of(bip.targets)),
            bip.eta.hex(), bip.case_two, bip.flipped, bip.partial_vertex)


def check_outcome(check, state, u, bip):
    """None if the check passes, else the message it raises."""
    try:
        check(state, u, bip)
    except InvariantViolation as exc:
        return str(exc)
    return None


def corruptions(state, u, bip):
    """The bipartition broken in each of the five properties, one at a time,
    as (property, bipartition) pairs."""
    mu = state.measure.values
    sources, targets = pairs_of(bip.sources), pairs_of(bip.targets)
    out = []
    if sources and targets:
        # eta past every vertex: neither side is below or above it
        out.append(("separation", dataclasses.replace(bip, eta=bip.eta + 1e3 + abs(u).max())))
        # the source nearest eta sits on it, which still separates
        near = max if u[sources[0][0]] <= bip.eta else min
        out.append(("margin", dataclasses.replace(
            bip, eta=float(near(u[v] for v, _ in sources)))))
        # a thousandth of each source weight captures too little energy
        out.append(("energy", dataclasses.replace(
            bip, sources=terminals([(v, w * 1e-3) for v, w in sources]))))
    if targets:
        # targets listed twice hold twice their measure; the first is named
        out.append(("capacity", dataclasses.replace(
            bip, targets=terminals(targets + (targets[0], targets[-1])))))
        # a target weight just past its measure's rounding allowance
        (v, w), *rest = targets
        out.append(("capacity", dataclasses.replace(
            bip, targets=terminals([(v, w * (1.0 + 1.5 * EPS)), *rest]))))
        out.append(("mass", dataclasses.replace(bip, targets=terminals(targets[:1]))))
    if bip.partial_vertex is not None:
        # the partial source at its full measure overshoots the eighth
        out.append(("mass", dataclasses.replace(bip, sources=terminals(
            [(v, float(mu[v]) if v == bip.partial_vertex else w) for v, w in sources]))))
    return out


def test_partition_and_check_match_reference():
    # the array-built partition equals the former tuple-by-tuple one bit for
    # bit, and the array check passes, fails and names the first failure as
    # the former per-property loops did
    rng = np.random.default_rng(41)
    seen = set()
    for _ in range(400):
        state, u = random_partition_input(rng)
        if state.mu_active_total <= 0:
            with pytest.raises(ValueError):
                rst_partition(state, u)
            continue
        bip = rst_partition(state, u)
        assert bits(bip) == bits(reference_rst_partition(state, u))
        seen.add("case two" if bip.case_two else "case one")
        if bip.flipped:
            seen.add("flipped")
        if bip.partial_vertex is not None:
            seen.add("partial source")
        if not state.mask.all():
            seen.add("zero measure" if len(state.active) == len(u) else "subset")
        for prop, bad in corruptions(state, u, bip):
            got = check_outcome(check_bipartition, state, u, bad)
            assert got == check_outcome(reference_check_bipartition, state, u, bad)
            if got is not None and got.startswith(prop):
                seen.add(prop)
    assert seen >= {"case one", "case two", "flipped", "partial source", "zero measure",
                    "subset", "separation", "capacity", "mass", "margin", "energy"}


def test_mass_prefix_matches_the_loop():
    # the array prefix takes the same picks, weights (by hex) and partial
    # vertex as the vertex-by-vertex loop, on targets that fall between
    # running sums, on them, within their rounding, and past the total
    rng = np.random.default_rng(43)
    seen = set()
    for trial in range(3000):
        n = int(rng.integers(0, 10))
        ids = rng.permutation(30)[:n].astype(np.intp)
        mu = rng.uniform(0.01, 3.0, n) * 10.0 ** int(rng.integers(-6, 7))
        if trial % 3 == 0:
            mu = np.round(mu * 4.0) / 4.0 + 0.25  # exact sums
        sums = np.cumsum(mu)
        pick = rng.random()
        if n and pick < 0.4:  # on a running sum, or within half its rounding
            target = float(sums[rng.integers(n)])
            if pick < 0.1:
                target *= 1.0 + float(rng.choice([-1.0, 1.0])) * EPS / 2
        else:
            target = float(rng.uniform(0.0, 1.2) * (sums[-1] if n else 1.0))
        picks, take, partial = _mass_prefix(ids, mu, target)
        want = _reference_mass_prefix(ids, mu, range(n), target)
        assert [(v, w.hex()) for v, w in zip(picks.tolist(), take.tolist())] == \
            [(v, w.hex()) for v, w in want[0]]
        assert partial == want[1]
        seen.add("partial" if partial is not None else
                 "none" if not len(picks) else "all" if len(picks) == n else "whole")
    assert seen == {"partial", "none", "all", "whole"}
