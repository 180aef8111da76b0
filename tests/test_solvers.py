import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camspec.errors import RankDeficiencyError
from camspec.solvers import isotonic_projection, ldp, lsi, nnls, strictly_increasing
from support import isotonic_bruteforce, lsi_bruteforce, nnls_bruteforce


class TestNnls:
    def test_unconstrained_optimum_already_nonnegative(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(12, 4))
        x_true = rng.uniform(0.5, 2.0, size=4)
        b = a @ x_true
        np.testing.assert_allclose(nnls(a, b), x_true, atol=1e-10)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_bruteforce_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        m, n = 9, 5
        a = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        x = nnls(a, b)
        x_ref = nnls_bruteforce(a, b)
        cost = np.sum((a @ x - b) ** 2)
        cost_ref = np.sum((a @ x_ref - b) ** 2)
        assert (x >= 0).all()
        assert cost <= cost_ref + 1e-9
        np.testing.assert_allclose(x, x_ref, atol=1e-7)

    def test_zero_rhs(self):
        a = np.eye(3)
        np.testing.assert_array_equal(nnls(a, np.zeros(3)), np.zeros(3))


class TestLdp:
    def test_simple_box(self):
        # min ||z|| s.t. z >= 1 per coordinate -> all ones
        z = ldp(np.eye(3), np.ones(3))
        np.testing.assert_allclose(z, np.ones(3), atol=1e-10)

    def test_inactive_constraints_give_zero(self):
        z = ldp(np.eye(2), np.array([-1.0, -2.0]))
        np.testing.assert_allclose(z, np.zeros(2), atol=1e-12)


class TestLsi:
    def test_interior_optimum_equals_lstsq(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(20, 4))
        x_true = rng.uniform(1.0, 2.0, size=4)
        y = a @ x_true + 0.01 * rng.normal(size=20)
        g = np.eye(4)  # x >= 0, inactive at the optimum
        res = lsi(a, y, g)
        expected, *_ = np.linalg.lstsq(a, y, rcond=None)
        np.testing.assert_allclose(res.x, expected, atol=1e-8)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_bruteforce_active_sets(self, seed):
        rng = np.random.default_rng(seed + 100)
        m, n, k = 12, 4, 6
        a = rng.normal(size=(m, n))
        y = rng.normal(size=m)
        g = rng.normal(size=(k, n))
        h = rng.normal(size=k) - 1.0
        res = lsi(a, y, g, h)
        x_ref = lsi_bruteforce(a, y, g, h)
        assert x_ref is not None
        assert (g @ res.x - h).min() >= -1e-9
        cost = np.sum((a @ res.x - y) ** 2)
        cost_ref = np.sum((a @ x_ref - y) ** 2)
        assert cost <= cost_ref + 1e-7
        np.testing.assert_allclose(res.x, x_ref, atol=1e-5)

    def test_reports_verified_kkt(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(15, 3))
        y = rng.normal(size=15)
        res = lsi(a, y, np.eye(3))
        assert res.max_violation <= 1e-10
        assert res.kkt_residual <= 1e-8

    def test_rank_deficient_design_raises(self):
        a = np.ones((8, 3))  # rank 1
        with pytest.raises(RankDeficiencyError):
            lsi(a, np.ones(8), np.eye(3))


class TestIsotonic:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_partition_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.normal(size=int(rng.integers(2, 10)))
        np.testing.assert_allclose(isotonic_projection(y), isotonic_bruteforce(y), atol=1e-10)

    def test_preserves_monotone_input(self):
        y = np.array([0.0, 0.5, 0.5, 2.0])
        np.testing.assert_array_equal(isotonic_projection(y), y)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_output_nondecreasing_sum_preserved_idempotent(self, values):
        y = np.asarray(values)
        out = isotonic_projection(y)
        assert (np.diff(out) >= 0).all()
        assert abs(out.sum() - y.sum()) <= 1e-7 * max(1.0, np.abs(y).sum())
        np.testing.assert_allclose(isotonic_projection(out), out, atol=1e-12)

    @pytest.mark.parametrize(
        "y",
        [
            [0.0, 0.25, 0.5, 2.0, 7.0],  # strictly increasing
            [-3.0, -0.5, 0.0, 1e-3, 5.0],
            [-3.0, -1e-3, 0.0, 1e-9, 5.0],  # a step below any absolute cost margin
            [0.0, 1.0, 1.0, 1.0, 2.0],  # flat run
            [0.0, 1e-12, 1.0],  # increasing by less than the gap
            [3.0, 2.0, 1.0, 0.0],  # decreasing
            [2.0, 0.5, 1.0, 4.0, 3.0],
            [0.0, 1.0, np.nan, 0.5, 2.0],  # NaN-containing
            [np.nan, 2.0, 1.0],
            [1.0, 2.0, np.nan],
        ],
    )
    def test_strictly_increasing_is_projection_then_floor_sweep(self, y):
        y = np.asarray(y)
        want = y.copy()
        # Pool adjacent violators never pools across a NaN: project each NaN-free run.
        start = 0
        for stop in [*np.flatnonzero(np.isnan(y)), y.size]:
            if stop > start:
                want[start:stop] = isotonic_bruteforce(y[start:stop])
            start = stop + 1
        for i in range(1, want.size):
            if want[i] < want[i - 1] + 1e-9:
                want[i] = want[i - 1] + 1e-9
        np.testing.assert_allclose(strictly_increasing(y), want, rtol=0, atol=1e-12)

    def test_strictly_increasing_returns_increasing_input_as_a_copy(self):
        y = np.linspace(-1.0, 3.0, 257)
        out = strictly_increasing(y)
        np.testing.assert_array_equal(out, y)
        out[0] = 9.0
        assert y[0] == -1.0

    def test_strictly_increasing_enforces_gap(self):
        out = strictly_increasing(np.array([1.0, 1.0, 1.0, 0.5]))
        assert (np.diff(out) > 0).all()
        np.testing.assert_allclose(out, isotonic_projection([1.0, 1.0, 1.0, 0.5]), atol=1e-6)
