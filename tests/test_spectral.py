import numpy as np
import pytest

from mucut import Graph, VertexMeasure
from mucut.errors import InvariantViolation
from mucut.spectral import (ActiveState, LazyFactor, StochasticMatching, WalkOperator,
                            apply_projection, default_delta,
                            dense_flow_matrix, dense_projection_matrix,
                            dense_walk_and_potential, is_power_of_two, projections,
                            sample_unit_vector)

from helpers import clique_edges, random_connected_graph, random_measure


def uniform_state(n, active=None):
    mu = VertexMeasure([1.0] * n)
    return ActiveState(range(n) if active is None else active, mu), mu


def synthetic_matchings(rng, mu, rounds=3, delta=1):
    """Random feasibly-weighted matchings among the terminals (no game)."""
    support = sorted(mu.support)
    out = []
    for _ in range(rounds):
        pairs = []
        budget = {v: mu.values[v] for v in support}
        perm = rng.permutation(support)
        for i in range(0, len(perm) - 1, 2):
            u, v = int(perm[i]), int(perm[i + 1])
            w = min(budget[u], budget[v]) * rng.uniform(0.2, 0.9)
            if w > 1e-12:
                pairs.append((u, v, w))
                budget[u] -= w
                budget[v] -= w
        out.append(StochasticMatching.from_pairs(mu.values, pairs))
    return out


def test_default_delta_values():
    assert default_delta(1) == 1
    assert default_delta(16) == 1
    assert default_delta(400) == 2
    assert default_delta(20 ** 4) == 4
    assert is_power_of_two(default_delta(10 ** 6))


def test_sample_unit_vector_basics():
    rng = np.random.default_rng(0)
    v = sample_unit_vector(1, rng)
    assert abs(abs(v[0]) - 1.0) < 1e-12
    a = sample_unit_vector(7, np.random.default_rng(3))
    b = sample_unit_vector(7, np.random.default_rng(3))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        sample_unit_vector(0, rng)


def test_sample_unit_vector_sphere_statistics():
    # coordinate means vanish and mean squares sit near 1/n
    rng = np.random.default_rng(42)
    n, samples = 64, 100_000
    x = rng.standard_normal((samples, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    means = x.mean(axis=0)
    sq = (x * x).mean(axis=0)
    assert np.abs(means).max() < 0.01
    assert np.all(np.abs(sq - 1.0 / n) < 0.1 / n)


def test_projection_kills_sqrt_mu_and_fixes_orthogonal():
    state, mu = uniform_state(6)
    z = apply_projection(state, state.sqrt_mu)
    assert np.abs(z).max() < 1e-12
    x = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(apply_projection(state, x), x, atol=1e-12)


def test_projection_idempotent():
    rng = np.random.default_rng(1)
    g = random_connected_graph(rng, 10)
    mu = random_measure(rng, 10)
    state = ActiveState(range(10), mu)
    for _ in range(20):
        x = rng.standard_normal(10)
        once = apply_projection(state, x)
        twice = apply_projection(state, once)
        assert np.abs(once - twice).max() < 1e-9


def test_projection_errors_on_zero_measure():
    mu = VertexMeasure([0.0, 0.0, 1.0])
    state = ActiveState({0, 1}, mu)
    with pytest.raises(ValueError):
        apply_projection(state, np.ones(3))


def dense_nbar(m, mu, delta):
    """The normalized lazy matching on all n vertices, from m.dense()."""
    s = np.diag(mu.inv_sqrt)
    return ((delta - 1.0) / delta * np.diag(mu.support_mask.astype(float))
            + s @ m.dense() @ s / delta)


def apply_factor(m, mu, delta, x):
    """LazyFactor applied to x's support coordinates, scattered back to all n."""
    support = np.flatnonzero(mu.support_mask)
    y = np.zeros(len(x))
    y[support] = LazyFactor(m, mu, delta).apply(np.asarray(x, dtype=float)[support])
    return y


def test_normalized_matching_diagonal_is_support_identity():
    mu = VertexMeasure([1.0, 2.0, 0.0, 0.5])
    m = StochasticMatching.from_pairs(mu.values, [])
    x = np.array([1.0, -2.0, 3.0, 4.0])
    for delta in (1, 2, 4):
        assert LazyFactor(m, mu, delta).rows.size == 0
        y = apply_factor(m, mu, delta, x)
        assert np.allclose(y, np.where(mu.support_mask, x, 0.0), atol=1e-12)
        assert np.allclose(y, dense_nbar(m, mu, delta) @ x, atol=1e-12)


def test_normalized_matching_fixes_sqrt_mu():
    rng = np.random.default_rng(7)
    mu = random_measure(rng, 12, zero_frac=0.25)
    for m in synthetic_matchings(rng, mu, rounds=4):
        for delta in (1, 2, 4):
            assert np.allclose(apply_factor(m, mu, delta, mu.sqrt), mu.sqrt, atol=1e-9)
            assert np.allclose(dense_nbar(m, mu, delta) @ mu.sqrt, mu.sqrt, atol=1e-9)


def test_normalized_matching_agrees_with_dense():
    rng = np.random.default_rng(8)
    mu = random_measure(rng, 9, zero_frac=0.2)
    support = np.flatnonzero(mu.support_mask)
    off = int(np.flatnonzero(~mu.support_mask)[0])
    # a pair with an endpoint off the support meets a zero of the pseudo-inverse
    stray = StochasticMatching([min(off, support[0])], [max(off, support[0])], [0.1], mu.values)
    for delta in (1, 2, 4):
        for m in synthetic_matchings(rng, mu, rounds=3) + [stray]:
            nbar = dense_nbar(m, mu, delta)
            f = LazyFactor(m, mu, delta)
            fused = np.diag(f.dg)
            np.add.at(fused, (f.rows, f.cols), f.vals)
            assert np.abs(fused - nbar[np.ix_(support, support)]).max() < 1e-12
            for _ in range(5):
                x = rng.standard_normal(9)
                assert np.abs(apply_factor(m, mu, delta, x) - nbar @ x).max() < 1e-9


def test_matching_row_sums_equal_measure():
    rng = np.random.default_rng(11)
    mu = random_measure(rng, 14, zero_frac=0.3)
    for m in synthetic_matchings(rng, mu, rounds=5):
        assert np.abs(m.row_sums() - mu.values).max() < 1e-9


def test_matching_diagonal_independent_of_pair_order():
    # 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last bit; the row
    # sums run in sorted pair order, so the diagonal bytes do not
    mu = VertexMeasure([1.0] * 4)
    pairs = [(0, 1, 0.1), (0, 2, 0.2), (0, 3, 0.3)]
    forward = StochasticMatching.from_pairs(mu.values, pairs)
    backward = StochasticMatching.from_pairs(mu.values, pairs[::-1])
    assert forward.diagonal.tobytes() == backward.diagonal.tobytes()


def test_matching_constructor_takes_sorted_pair_arrays():
    diag = [0.5, 0.0, 0.25, 0.0]
    m = StochasticMatching([0, 1], [2, 3], [0.5, 1.0], diag)
    assert m.off_diagonal == ((0, 2, 0.5), (1, 3, 1.0))
    assert m.diagonal.tobytes() == np.array(diag).tobytes()
    assert not m.diagonal.flags.writeable
    for us, vs, ws in (([2], [0], [0.5]),             # u > v
                       ([1], [1], [0.5]),             # self-pair
                       ([1, 0], [3, 2], [1.0, 0.5]),  # unsorted
                       ([0, 0], [2, 2], [0.5, 0.5]),  # not merged
                       ([0], [2], [0.0]),             # zero weight
                       ([0, 1], [2, 3], [0.5])):      # lengths differ
        with pytest.raises(ValueError):
            StochasticMatching(us, vs, ws, diag)
    with pytest.raises(InvariantViolation):
        StochasticMatching([], [], [], [1.0, -0.5])


def test_matching_rejects_overfull_rows():
    mu = VertexMeasure([1.0, 1.0])
    with pytest.raises(InvariantViolation):
        StochasticMatching.from_pairs(mu.values, [(0, 1, 2.0)])


def test_walk_t0_is_projection():
    state, mu = uniform_state(5)
    w = WalkOperator([], 1, state)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.standard_normal(5)
        assert np.allclose(w.apply(x), apply_projection(state, x), atol=1e-12)


def test_walk_kills_sqrt_mu():
    rng = np.random.default_rng(3)
    mu = random_measure(rng, 8, zero_frac=0.0)
    state = ActiveState(range(8), mu)
    w = WalkOperator(synthetic_matchings(rng, mu, rounds=3), 2, state)
    assert np.abs(w.apply(state.sqrt_mu)).max() < 1e-9


def test_walk_agrees_with_dense_materialization():
    # zero-measure vertices, strict active subsets (0, 2 or 4 vertices
    # dropped) and delta 1, 2 and 4; the walk is exactly 0 off the active support
    rng = np.random.default_rng(4)
    checked = 0
    for trial in range(12):
        mu = random_measure(rng, 9, zero_frac=0.3)
        dropped = rng.choice(9, size=2 * (trial % 3), replace=False).tolist()
        state = ActiveState(set(range(9)) - set(dropped), mu)
        if state.mu_active_total <= 0:
            continue
        matchings = synthetic_matchings(rng, mu, rounds=3)
        for delta in (1, 2, 4):
            w = WalkOperator(matchings, delta, state)
            dense_w, _ = dense_walk_and_potential(w)
            for _ in range(4):
                x = rng.standard_normal(9)
                y = w.apply(x)
                assert np.abs(y - dense_w @ x).max() < 1e-8
                assert np.all(y[~state.mask] == 0.0)
                checked += 1
    assert checked >= 100


def test_walk_is_symmetric_operator():
    rng = np.random.default_rng(14)
    mu = random_measure(rng, 10, zero_frac=0.2)
    state = ActiveState(range(10), mu)
    w = WalkOperator(synthetic_matchings(rng, mu, rounds=4), 2, state)
    for _ in range(10):
        x = rng.standard_normal(10)
        y = rng.standard_normal(10)
        assert float(w.apply(x) @ y) == pytest.approx(float(x @ w.apply(y)), abs=1e-9)


def test_walk_spectral_norm_at_most_one():
    rng = np.random.default_rng(15)
    mu = random_measure(rng, 12, zero_frac=0.2)
    state = ActiveState(range(12), mu)
    for delta in (1, 2):
        w = WalkOperator(synthetic_matchings(rng, mu, rounds=4), delta, state)
        for _ in range(10):
            x = rng.standard_normal(12)
            assert np.linalg.norm(w.apply(x)) <= np.linalg.norm(x) * (1 + 1e-9)


def test_normalized_laplacian_range():
    # quadratic form of I_supp - Mbar stays within [0, 2]||v||^2
    rng = np.random.default_rng(16)
    mu = random_measure(rng, 10, zero_frac=0.2)
    s = np.diag(mu.inv_sqrt)
    i_supp = np.diag(mu.support_mask.astype(float))
    for m in synthetic_matchings(rng, mu, rounds=4):
        lap = i_supp - s @ m.dense() @ s
        for _ in range(10):
            v = rng.standard_normal(10)
            q = float(v @ lap @ v)
            assert q >= -1e-9
            assert q <= 2 * float(v @ v) + 1e-9


def test_projections_balance_and_zero_pattern():
    rng = np.random.default_rng(17)
    mu = random_measure(rng, 9, zero_frac=0.25)
    active = sorted(mu.support)[:-1] or sorted(mu.support)
    state = ActiveState(active, mu)
    w = WalkOperator(synthetic_matchings(rng, mu, rounds=2), 1, state)
    for _ in range(10):
        r = sample_unit_vector(9, rng)
        u = projections(w, r)
        assert abs(float((mu.values * u).sum())) <= 1e-7
        assert np.abs(np.where(state.mask, 0.0, u)).max() == 0.0


def test_projections_of_sqrt_mu_direction_vanish():
    state, mu = uniform_state(6)
    w = WalkOperator([], 1, state)
    r = mu.sqrt / np.linalg.norm(mu.sqrt)
    assert np.abs(projections(w, r)).max() < 1e-9


def test_psi_zero_round_identities():
    # all vertices terminal
    state, mu = uniform_state(9)
    _, psi = dense_walk_and_potential(WalkOperator([], 1, state))
    assert psi == pytest.approx(9 - 1, abs=1e-9)
    # restricted support
    vals = [1.0] * 4 + [0.0] * 5
    mu = VertexMeasure(vals)
    state = ActiveState(range(9), mu)
    _, psi = dense_walk_and_potential(WalkOperator([], 2, state))
    assert psi == pytest.approx(4 - 1, abs=1e-9)


def test_psi_drops_after_perfect_matching_round():
    # at delta=1 a perfect matching is an involution (F becomes the identity
    # again) and the potential merely stalls; laziness from delta>=2 makes
    # the drop strict
    mu = VertexMeasure([1.0] * 4)
    state = ActiveState(range(4), mu)
    m = StochasticMatching.from_pairs(mu.values, [(0, 1, 1.0), (2, 3, 1.0)])
    _, psi0_lazy = dense_walk_and_potential(WalkOperator([], 2, state))
    _, psi1_lazy = dense_walk_and_potential(WalkOperator([m], 2, state))
    assert psi1_lazy < psi0_lazy
    _, psi0 = dense_walk_and_potential(WalkOperator([], 1, state))
    _, psi1 = dense_walk_and_potential(WalkOperator([m], 1, state))
    assert psi1 <= psi0 + 1e-12


def test_dense_oracle_rejects_large_instances():
    mu = VertexMeasure([1.0] * 70)
    state = ActiveState(range(70), mu)
    with pytest.raises(ValueError):
        dense_walk_and_potential(WalkOperator([], 1, state))


def test_dense_flow_matrix_properties():
    rng = np.random.default_rng(18)
    mu = random_measure(rng, 10, zero_frac=0.2)
    state = ActiveState(range(10), mu)
    w = WalkOperator(synthetic_matchings(rng, mu, rounds=4), 2, state)
    f = dense_flow_matrix(w)
    assert np.abs(f - f.T).max() < 1e-9
    assert np.abs(f.sum(axis=1) - mu.values).max() < 1e-8
    off_support = ~mu.support_mask
    blocked = f.copy()
    np.fill_diagonal(blocked, 0.0)
    assert np.abs(blocked[off_support, :]).max(initial=0.0) == 0.0
    assert np.abs(blocked[:, off_support]).max(initial=0.0) == 0.0


def test_walk_operator_requires_power_of_two_delta():
    state, _ = uniform_state(4)
    with pytest.raises(ValueError):
        WalkOperator([], 3, state)


def test_laplacian_quadratic_and_trace_identities():
    # for L = diag(row sums) - M: v'Lv sums w*(v_i - v_j)^2 over pairs, and
    # tr(A'LA) sums w*||A_i - A_j||^2 over pairs (diagonal terms cancel)
    rng = np.random.default_rng(21)
    mu = random_measure(rng, 8, zero_frac=0.2)
    for m in synthetic_matchings(rng, mu, rounds=3):
        dense = m.dense()
        lap = np.diag(dense.sum(axis=1)) - dense
        for _ in range(5):
            v = rng.standard_normal(8)
            direct = sum(w * (v[i] - v[j]) ** 2 for i, j, w in m.off_diagonal)
            assert float(v @ lap @ v) == pytest.approx(direct, abs=1e-9)
        a = rng.standard_normal((8, 8))
        direct = sum(w * float(((a[i] - a[j]) ** 2).sum()) for i, j, w in m.off_diagonal)
        assert float(np.trace(a.T @ lap @ a)) == pytest.approx(direct, abs=1e-8)


def test_mean_vector_norm_inequality():
    # k * ||mean||^2 <= sum ||v_i||^2
    rng = np.random.default_rng(22)
    for _ in range(20):
        k = int(rng.integers(1, 10))
        vs = rng.standard_normal((k, 6))
        mean = vs.mean(axis=0)
        assert k * float(mean @ mean) <= float((vs * vs).sum()) + 1e-12
