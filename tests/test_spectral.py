import gc
import math
from types import SimpleNamespace

import numpy as np
import pytest

from mucut import Graph, VertexMeasure, spectral
from mucut.errors import InvariantViolation
from mucut.graph import tolerance
from mucut.spectral import (TIMES_BLOCK, ActiveState, LazyFactor, StochasticMatching,
                            WalkOperator, default_delta, is_power_of_two, potential,
                            potential_bound, potentials, projections, sample_unit_vector)

from helpers import (active_sqrt, apply_projection, clique_edges, dense_flow_matrix,
                     dense_matching, dense_projection_matrix, dense_walk_and_potential,
                     matching_of, matching_row_sums, random_connected_graph, random_measure,
                     reference_from_pairs, reference_walk_apply)


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
        out.append(matching_of(mu.values, pairs))
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
    z = apply_projection(state, active_sqrt(state))
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
    """The normalized lazy matching on all n vertices, from dense_matching(m)."""
    s = np.diag(mu.inv_sqrt)
    return ((delta - 1.0) / delta * np.diag(mu.support_mask.astype(float))
            + s @ dense_matching(m) @ s / delta)


def apply_factor(m, mu, delta, x):
    """LazyFactor applied to x's support coordinates, scattered back to all n."""
    support = np.flatnonzero(mu.support_mask)
    y = np.zeros(len(x))
    y[support] = LazyFactor(m, mu, delta).apply(np.asarray(x, dtype=float)[support])
    return y


def test_normalized_matching_diagonal_is_support_identity():
    mu = VertexMeasure([1.0, 2.0, 0.0, 0.5])
    m = matching_of(mu.values, [])
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
    # a pair with an endpoint off the support can carry only rounding, below
    # tolerance(max mu); it meets a zero of the pseudo-inverse and is dropped
    stray = StochasticMatching([min(off, support[0])], [max(off, support[0])],
                               [tolerance(mu.values.max()) / 2.0], mu.values)
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
        assert np.abs(matching_row_sums(m) - mu.values).max() < 1e-9


def test_matching_diagonal_independent_of_pair_order():
    # 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last bit; the row
    # sums run in sorted pair order, so the diagonal bytes do not
    mu = VertexMeasure([1.0] * 4)
    pairs = [(0, 1, 0.1), (0, 2, 0.2), (0, 3, 0.3)]
    forward = matching_of(mu.values, pairs)
    backward = matching_of(mu.values, pairs[::-1])
    assert forward.diagonal.tobytes() == backward.diagonal.tobytes()


def test_from_pairs_matches_reference():
    # the constructor on the pairs' columns, as the matching round builds it,
    # merges without per-pair conversions and sums each pair's weights in
    # the order given, as the former from_pairs did: the same pairs, the
    # same bits
    rng = np.random.default_rng(13)
    seen = set()
    for _ in range(300):
        n = int(rng.integers(2, 10))
        count = int(rng.integers(0, 4 * n)) if rng.random() < 0.9 else 0
        us = rng.integers(0, n, size=count)
        vs = rng.integers(0, n, size=count)
        ws = rng.uniform(0.01, 1.0, size=count)
        if rng.random() < 0.5:
            pairs = list(zip(us, vs, ws))  # numpy ints and floats
        else:
            pairs = list(zip(us.tolist(), vs.tolist(), ws.tolist()))
            seen.add("python numbers")
        row = np.zeros(n)
        np.add.at(row, us, ws)
        np.add.at(row, vs, ws)
        mu = row + rng.uniform(0.0, 1.0, size=n)  # room for every row
        got = matching_of(mu, pairs)
        want = reference_from_pairs(mu, pairs)
        assert [(u, v, w.hex()) for u, v, w in got.off_diagonal] == \
            [(u, v, w.hex()) for u, v, w in want.off_diagonal]
        assert all(type(x) is int for u, v, _ in got.off_diagonal for x in (u, v))
        assert got.diagonal.tobytes() == want.diagonal.tobytes()
        keys = [(min(u, v), max(u, v)) for u, v in zip(us.tolist(), vs.tolist())]
        if not pairs:
            seen.add("empty")
        if any(u == v for u, v in keys):
            seen.add("self-pair")
        if len(set(keys)) < len(keys):
            seen.add("repeated pair")
        if any(u > v for u, v in zip(us.tolist(), vs.tolist())) and \
                any(u < v for u, v in zip(us.tolist(), vs.tolist())):
            seen.add("both orientations")
    assert seen == {"empty", "self-pair", "repeated pair", "both orientations",
                    "python numbers"}


def test_matching_constructor_takes_sorted_pair_arrays():
    # sorted, merged u < v columns, and any other pair columns, which it
    # merges as the former from_pairs merged their rows
    diag = [0.5, 0.0, 0.25, 0.0]
    mu = [1.0, 1.0, 0.75, 1.0]  # diag plus the row sums of the two pairs
    m = StochasticMatching([0, 1], [2, 3], [0.5, 1.0], mu)
    assert m.off_diagonal == ((0, 2, 0.5), (1, 3, 1.0))
    assert m.diagonal.tobytes() == np.array(diag).tobytes()
    assert not m.diagonal.flags.writeable
    for us, vs, ws in (([2, 3], [0, 1], [0.5, 1.0]),               # u > v
                       ([0, 1, 1], [2, 1, 3], [0.5, 9.0, 1.0]),    # self-pair
                       ([1, 0], [3, 2], [1.0, 0.5]),               # unsorted
                       ([0, 2, 1], [2, 0, 3], [0.25, 0.25, 1.0]),  # repeated, both ways
                       (np.array([1, 0], np.int32), np.array([3, 2], np.uint8),
                        np.array([1.0, 0.5]))):                    # numpy ids
        got = StochasticMatching(us, vs, ws, mu)
        for want in (matching_of(mu, zip(us, vs, ws)),
                     reference_from_pairs(mu, zip(us, vs, ws)), m):
            assert got.off_diagonal == want.off_diagonal
            assert all(type(x) is int for u, v, _ in got.off_diagonal for x in (u, v))
            assert got.diagonal.tobytes() == want.diagonal.tobytes()
    for us, vs, ws in (([0], [2], [0.0]),             # zero weight
                       ([0], [2], [-0.5]),            # negative weight
                       ([0, 1], [2, 3], [0.5]),       # lengths differ
                       ([0, 1], [2], [0.5, 1.0]),
                       ([0], [4], [0.5]),             # id out of range
                       ([-1], [2], [0.5])):
        with pytest.raises(ValueError):
            StochasticMatching(us, vs, ws, mu)
    with pytest.raises(InvariantViolation, match="exceeds the measure"):
        StochasticMatching([], [], [], [1.0, -0.5])


def test_matching_copies_writable_arrays_instead_of_freezing_them():
    # pair arrays of the stored dtypes used to be frozen in the caller's hands
    us, vs, ws = np.array([0]), np.array([1]), np.array([0.5])
    mu = np.array([1.0, 1.0])
    m = StochasticMatching(us, vs, ws, mu)
    assert all(arr.flags.writeable for arr in (us, vs, ws, mu))
    assert not any(arr.flags.writeable for arr in (m._us, m._vs, m._ws, m.mu_values))
    us[0], ws[0], mu[0] = 1, 9.0, 0.0
    assert m.off_diagonal == ((0, 1, 0.5),)
    assert m.diagonal.tolist() == [0.5, 0.5]


def test_matching_diagonal_is_measure_minus_row_sums():
    rng = np.random.default_rng(12)
    for zero_frac in (0.0, 0.3):
        mu = random_measure(rng, 16, zero_frac=zero_frac)
        for m in synthetic_matchings(rng, mu, rounds=6):
            row = np.zeros(16)
            for u, v, w in m.off_diagonal:  # sorted pair order, u then v
                row[u] += w
                row[v] += w
            assert m.diagonal.tobytes() == np.maximum(mu.values - row, 0.0).tobytes()


def test_matching_copies_a_writable_measure():
    values = np.array([1.0, 2.0, 1.5])
    m = matching_of(values, [(0, 1, 0.75)])
    want = m.diagonal.tobytes()
    values[:] = 9.0
    assert m.diagonal.tobytes() == want
    assert m.mu_values is not values
    mu = VertexMeasure([1.0, 2.0, 1.5])
    assert matching_of(mu.values, [(0, 1, 0.75)]).mu_values is mu.values


def test_matching_rejects_overfull_rows():
    mu = VertexMeasure([1.0, 1.0])
    with pytest.raises(InvariantViolation):
        matching_of(mu.values, [(0, 1, 2.0)])


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
    assert np.abs(w.apply(active_sqrt(state))).max() < 1e-9


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
            dense_w, _ = dense_walk_and_potential(w, matchings)
            for _ in range(4):
                x = rng.standard_normal(9)
                y = w.apply(x)
                assert np.abs(y - dense_w @ x).max() < 1e-8
                assert np.all(y[~state.mask] == 0.0)
                checked += 1
    assert checked >= 100


def switch_round(matchings, mu, delta):
    """First round whose chain of factors holds at least k^2 numbers, or None."""
    k = int(mu.support_mask.sum())
    size = 0
    for t, m in enumerate(matchings, 1):
        size += k + LazyFactor(m, mu, delta).rows.size
        if size >= k * k:
            return t
    return None


def holds_lazy_factor(w):
    held = gc.get_referents(w)
    held += [o for h in held for o in gc.get_referents(h)]
    return any(isinstance(o, LazyFactor) for o in held)


def test_walk_product_agrees_with_chain():
    # Every factor is entrywise nonnegative with spectral norm at most 1, and
    # so are the product C and its roundings.  A row update of C and a factor
    # or C matvec sums at most k products per entry, so each errs by at most
    # k*eps relative to the norm of what it is applied to, and earlier errors
    # never grow.  Per power step the product path errs by (t + 1)*k*eps
    # twice (C after t updates, then the matvec, for C^T and for C), the
    # chain by 2t*k*eps, and the two projections on each side by k*eps each:
    # (4t + 6)*k*eps.  The steps contract, so delta of them add up.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(31)
    switched = 0
    for trial in range(6):
        mu = random_measure(rng, 12, zero_frac=0.25)
        dropped = rng.choice(12, size=trial % 3, replace=False).tolist()
        state = ActiveState(set(range(12)) - set(dropped), mu)
        if state.mu_active_total <= 0:
            continue
        k = int(mu.support_mask.sum())
        matchings = synthetic_matchings(rng, mu, rounds=k + 2)
        for delta in (1, 2, 4):
            w = WalkOperator([], delta, state)
            for t, m in enumerate(matchings, 1):
                w.extend(m, math.inf)
                for _ in range(3):
                    x = rng.standard_normal(12)
                    got, want = w.apply(x), reference_walk_apply(w, matchings[:t], x)
                    if w.product is None:
                        assert got.tobytes() == want.tobytes()
                    else:
                        bound = delta * (4 * t + 6) * k * eps * np.linalg.norm(x)
                        assert np.abs(got - want).max() <= bound
                        assert np.all(got[~state.mask] == 0.0)
            assert w.product is not None  # every factor adds at least k: past k^2 by round k
            switched += switch_round(matchings, mu, delta) < len(matchings)
    assert switched >= 12


def test_walk_switches_to_product_at_k_squared():
    # factors without pairs add exactly k = 4 each: the chain reaches 16 at round 4
    state, mu = uniform_state(4)
    idle = matching_of(mu.values, [])
    for t in range(1, 7):
        w = WalkOperator([idle] * t, 2, state)
        assert (w.product is None) == (t < 4)
        assert len(w.factors) == (t if t < 4 else 0)
    assert np.array_equal(WalkOperator([idle] * 4, 2, state).product, np.eye(4))
    rng = np.random.default_rng(32)
    for _ in range(5):
        mu = random_measure(rng, 14, zero_frac=0.3)
        state = ActiveState(range(14), mu)
        matchings = synthetic_matchings(rng, mu, rounds=14)
        for delta in (1, 2, 4):
            at = switch_round(matchings, mu, delta)
            below = WalkOperator(matchings[:at - 1], delta, state)
            assert below.product is None and len(below.factors) == at - 1
            w = WalkOperator([], delta, state)
            for t, m in enumerate(matchings, 1):
                w.extend(m, math.inf)
                assert (w.product is None) == (t < at)
                assert holds_lazy_factor(w) == (t < at)
            built = WalkOperator(matchings, delta, state)
            assert built.product.tobytes() == w.product.tobytes()
            assert built.rounds == w.rounds == len(matchings)


def test_multiply_out_forms_the_chain_product_once():
    # formed early, the product is extended to the same bits the chain-size rule gives
    rng = np.random.default_rng(33)
    mu = random_measure(rng, 14, zero_frac=0.3)
    state = ActiveState(range(14), mu)
    matchings = synthetic_matchings(rng, mu, rounds=14)
    for delta in (1, 2, 4):
        at = switch_round(matchings, mu, delta)
        chain = WalkOperator(matchings, delta, state)
        assert chain.product_round == at
        for early in range(at):
            w = WalkOperator(matchings[:early], delta, state)
            assert w.product is None and w.product_round is None
            w.multiply_out()
            first = w.product
            w.multiply_out()
            assert w.product is first and w.product_round == early
            assert not holds_lazy_factor(w)
            for m in matchings[early:]:
                w.extend(m, math.inf)
            assert w.product is first and w.product_round == early
            assert w.product.tobytes() == chain.product.tobytes()


def test_walk_forms_its_product_at_the_first_low_estimate(monkeypatch):
    # an estimate at most 64 tau multiplies the walk out before the chain-size
    # rule would; past PSI_MAX_TERMINALS only that rule does
    rng = np.random.default_rng(35)
    mu = random_measure(rng, 14, zero_frac=0.3)
    state = ActiveState(range(14), mu)
    k = len(mu.support)
    matchings = synthetic_matchings(rng, mu, rounds=14)
    at = switch_round(matchings, mu, 2)
    assert at > 3
    w = WalkOperator([], 2, state)
    assert w.tau == 1.0 / (16 * k * k)
    w.extend(matchings[0], math.inf)
    w.extend(matchings[1], 64 * w.tau * (1 + 1e-12))
    assert w.product is None
    w.extend(matchings[2], 64 * w.tau)
    assert w.product_round == 3
    monkeypatch.setattr(spectral, "PSI_MAX_TERMINALS", k - 1)
    w = WalkOperator([], 2, state)
    for t, m in enumerate(matchings, 1):
        w.extend(m, 0.0)
        assert (w.product is None) == (t < at)


def test_mixed_checks_psi_only_on_a_product_within_the_limit(monkeypatch):
    # K4 with every pair at weight 1/3 is a perfect mixer at delta 1: psi is
    # 3/81 after one round, above tau = 1/256, and 3/81^2 after two
    state, mu = uniform_state(4)
    m = matching_of(mu.values, [(u, v, 1 / 3) for u in range(4)
                                                   for v in range(u + 1, 4)])
    w = WalkOperator([], 1, state)
    assert w.product is None and not w.mixed() and w.psi_checks == 0
    w.extend(m, math.inf)  # its 4 + 12 entries fill the chain's k^2: the walk multiplies out
    assert w.product_round == 1
    assert not w.mixed() and w.psi_checks == 1
    assert potential(w.product, state, 1) == pytest.approx(3 / 81)
    w.extend(m, math.inf)
    assert w.mixed() and w.psi_checks == 2
    monkeypatch.setattr(spectral, "PSI_MAX_TERMINALS", 3)
    assert not w.mixed() and w.psi_checks == 2


def test_times_matches_apply_per_column_in_blocks_and_in_place():
    # k spans three column blocks, the last one partial; zero-measure
    # vertices drop their pairs, and one round has no pairs at all
    rng = np.random.default_rng(34)
    mu = random_measure(rng, 200, zero_frac=0.25)
    k = int(mu.support_mask.sum())
    assert 2 * TIMES_BLOCK < k < 3 * TIMES_BLOCK
    matchings = synthetic_matchings(rng, mu, rounds=3)
    matchings.append(matching_of(mu.values, []))
    for delta in (1, 2):
        c = np.eye(k)
        for m in matchings:
            f = LazyFactor(m, mu, delta)
            want = np.column_stack([f.apply(c[:, j]) for j in range(k)])
            f.times(c)
            assert c.tobytes() == want.tobytes()


def test_walk_rejects_vectors_of_the_wrong_length():
    rng = np.random.default_rng(33)
    mu = random_measure(rng, 4, zero_frac=0.0)
    state = ActiveState(range(4), mu)
    w = WalkOperator(synthetic_matchings(rng, mu, rounds=2), 1, state)
    for length in (6, 3):
        x = rng.standard_normal(length)
        for call in (w.apply, lambda r: projections(w, r)):
            with pytest.raises(ValueError, match=rf"4 vertices .*\({length},\)"):
                call(x)


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
        lap = i_supp - s @ dense_matching(m) @ s
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
    _, psi = dense_walk_and_potential(WalkOperator([], 1, state), [])
    assert psi == pytest.approx(9 - 1, abs=1e-9)
    # restricted support
    vals = [1.0] * 4 + [0.0] * 5
    mu = VertexMeasure(vals)
    state = ActiveState(range(9), mu)
    _, psi = dense_walk_and_potential(WalkOperator([], 2, state), [])
    assert psi == pytest.approx(4 - 1, abs=1e-9)


def test_psi_drops_after_perfect_matching_round():
    # at delta=1 a perfect matching is an involution (F becomes the identity
    # again) and the potential merely stalls; laziness from delta>=2 makes
    # the drop strict
    mu = VertexMeasure([1.0] * 4)
    state = ActiveState(range(4), mu)
    m = matching_of(mu.values, [(0, 1, 1.0), (2, 3, 1.0)])
    _, psi0_lazy = dense_walk_and_potential(WalkOperator([], 2, state), [])
    _, psi1_lazy = dense_walk_and_potential(WalkOperator([m], 2, state), [m])
    assert psi1_lazy < psi0_lazy
    _, psi0 = dense_walk_and_potential(WalkOperator([], 1, state), [])
    _, psi1 = dense_walk_and_potential(WalkOperator([m], 1, state), [m])
    assert psi1 <= psi0 + 1e-12


def test_dense_oracle_rejects_large_instances():
    mu = VertexMeasure([1.0] * 70)
    state = ActiveState(range(70), mu)
    with pytest.raises(ValueError):
        dense_walk_and_potential(WalkOperator([], 1, state), [])


def test_dense_flow_matrix_properties():
    rng = np.random.default_rng(18)
    mu = random_measure(rng, 10, zero_frac=0.2)
    state = ActiveState(range(10), mu)
    matchings = synthetic_matchings(rng, mu, rounds=4)
    f = dense_flow_matrix(WalkOperator(matchings, 2, state), matchings)
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
        dense = dense_matching(m)
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


@pytest.mark.parametrize("delta", [1, 2, 4])
def test_potentials_match_dense_oracle_as_the_active_set_shrinks(delta):
    # the k x k replay against the n x n oracle, with zero-measure vertices,
    # rounds that remove vertices and walk powers that take squarings
    rng = np.random.default_rng(90 + delta)
    for _ in range(5):
        n = 14
        mu = random_measure(rng, n, zero_frac=0.3)
        matchings = synthetic_matchings(rng, mu, rounds=6, delta=delta)
        active, rounds, want = frozenset(range(n)), [], []
        for t, m in enumerate(matchings):
            keep = sorted(active & set(mu.support.tolist()))
            removed = frozenset(v for v in active if v not in keep[:2] and rng.random() < 0.1)
            rounds.append(SimpleNamespace(matching=m, active_before=tuple(sorted(active)),
                                          removed=removed))
            active = active - removed
            walk = WalkOperator(matchings[:t + 1], delta, ActiveState(active, mu))
            want.append(dense_walk_and_potential(walk, matchings[:t + 1])[1])
        assert potentials(rounds, mu, delta) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_potentials_reject_an_active_set_without_measure():
    mu = VertexMeasure([1.0, 1.0, 0.0])
    m = matching_of(mu.values, [(0, 1, 0.5)])
    rec = SimpleNamespace(matching=m, active_before=(0, 1, 2), removed=frozenset({0, 1}))
    with pytest.raises(ValueError, match="no measure"):
        potentials([rec], mu, 1)
    with pytest.raises(ValueError, match="power of two"):
        potentials([rec], mu, 3)


@pytest.mark.parametrize("delta", [1, 2, 4])
def test_potential_bound_is_below_psi_for_any_block(delta):
    # random, unconverged blocks of every width 1..k, orthonormal or not, on
    # walks with zero-measure vertices and shrunken active sets; the next
    # block has orthonormal columns while G v has full rank
    rng = np.random.default_rng(70 + delta)
    checked = 0
    for trial in range(6):
        mu = random_measure(rng, 12, zero_frac=0.25)
        dropped = rng.choice(12, size=2 * (trial % 3), replace=False).tolist()
        state = ActiveState(set(range(12)) - set(dropped), mu)
        if state.mu_active_total <= 0:
            continue
        matchings = synthetic_matchings(rng, mu, rounds=4)
        walk = WalkOperator(matchings, delta, state)
        walk.multiply_out()
        psi = potential(walk.product, state, delta)
        dense_w, dense = dense_walk_and_potential(walk, matchings)
        rank = np.linalg.matrix_rank(dense_w)
        k = len(walk.support)
        for width in range(1, k + 1):
            raw = rng.standard_normal((k, width)) * rng.uniform(0.1, 10.0)
            for v in (raw, np.linalg.qr(raw)[0]):
                bound, step = potential_bound(walk.product, state, delta, v)
                assert 0.0 <= bound <= min(psi, dense) * (1 + 1e-12)
                assert step.shape == (k, width)
                if width <= rank:
                    assert np.abs(step.T @ step - np.eye(width)).max() < 1e-9
                checked += 1
        # the whole space: the bound is psi, up to rounding, and bit for bit at v = I
        assert bound == pytest.approx(psi, rel=1e-12)
        assert potential_bound(walk.product, state, delta, np.eye(k))[0] == psi
        assert potential_bound(walk.product, state, delta, np.zeros((k, 3)))[0] == 0.0
    assert checked >= 80


def test_potential_bound_power_steps_approach_psi():
    # a block as wide as G's rank captures psi after a few power steps
    rng = np.random.default_rng(75)
    mu = random_measure(rng, 14, zero_frac=0.0)
    state = ActiveState(range(14), mu)
    walk = WalkOperator(synthetic_matchings(rng, mu, rounds=3), 1, state)
    walk.multiply_out()
    psi = potential(walk.product, state, 1)
    v = np.linalg.qr(rng.standard_normal((14, 13)))[0]
    first = potential_bound(walk.product, state, 1, v)[0]
    for _ in range(30):
        bound, v = potential_bound(walk.product, state, 1, v)
    assert first < 0.99 * psi
    assert bound == pytest.approx(psi, rel=1e-9)
