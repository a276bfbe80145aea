import numpy as np
import pytest

from mucut import VertexMeasure
from mucut.cutplayer import WeightedBipartition, check_bipartition, rst_partition
from mucut.errors import InvariantViolation
from mucut.spectral import ActiveState

from helpers import orthogonalized_projection, random_measure


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
    assert bip.targets == ((1, 1.0),)
    assert bip.sources == ((0, 0.25),)
    assert not bip.case_two
    # energy: 0.25 * 1 >= (1/80) * 2
    assert bip.source_mass * 1.0 >= 2.0 / 80.0


def test_all_zero_projection_is_legal():
    state = make_state([1.0, 2.0, 3.0])
    bip = rst_partition(state, np.zeros(3))
    assert bip.eta == 0.0
    assert not bip.case_two
    assert bip.sources == ()
    assert bip.target_mass == pytest.approx(6.0)


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
    assert bip.source_mass == pytest.approx(10.0 / 8.0, abs=1e-9)
    assert bip.partial_vertex == 0
    assert bip.sources == ((0, pytest.approx(1.25)),)


def test_determinism_and_id_tiebreaks():
    state = make_state([1.0] * 6)
    u = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
    a = rst_partition(state, u)
    b = rst_partition(state, u)
    assert a == b
    # ties in u resolve toward smaller vertex ids in the prefix scan
    assert [v for v, _ in a.sources] == sorted(v for v, _ in a.sources)


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
    assert bip.sources == ((5, pytest.approx(0.02)),)
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
    assert bip.sources == ((5, pytest.approx(0.02)),)
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
            assert bip.source_mass == pytest.approx(state.mu_active_total / 8.0, rel=1e-9)


def _one_source_bipartition(scale, source_u, eta):
    # eight vertices of measure `scale`: vertex 0 is the source, the rest
    # are targets at +1; projections scale as scale^(-1/2)
    state = make_state([scale] * 8)
    root = np.sqrt(scale)
    u = np.array([source_u] + [1.0] * 7) / root
    bip = WeightedBipartition(sources=((0, scale),), targets=tuple((v, scale) for v in range(1, 8)),
                              eta=eta / root, case_two=False, flipped=False, partial_vertex=None)
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
        full = {v: w for v, w in bip.sources}
        partials = [v for v, w in bip.sources
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
    touched = {v for v, _ in bip.sources} | {v for v, _ in bip.targets}
    assert touched <= active
