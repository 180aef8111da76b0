import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camspec import (
    DEFAULT_GRID,
    RbfGamutMap,
    apply_gamut_map,
    fit_gamut_map,
    generate_synthetic_dataset,
    partition_gamut,
    radiance_rows,
    rgb_to_xy,
    synthetic_camera,
    synthetic_gamut_warp,
)
from camspec.errors import DegenerateGeometryError
from camspec.gamut import (
    SRGB_TO_XYZ,
    _farthest_point_centers,
    _kernel_matrix,
    apply_gamut_map_batch,
    srgb_primaries_xy,
    white_xy,
)
from support import farthest_point_loop, kernel_matrix_broadcast


class TestRgbToXy:
    def test_equal_rgb_is_d65_white(self):
        x, y = rgb_to_xy((1.0, 1.0, 1.0))
        assert abs(x - 0.3127) < 5e-4
        assert abs(y - 0.3290) < 5e-4

    @pytest.mark.parametrize(
        "s, expected",
        [((1, 0, 0), (0.64, 0.33)), ((0, 1, 0), (0.30, 0.60)), ((0, 0, 1), (0.15, 0.06))],
    )
    def test_primaries(self, s, expected):
        x, y = rgb_to_xy(s)
        assert abs(x - expected[0]) < 5e-4
        assert abs(y - expected[1]) < 5e-4

    def test_all_zero_has_no_chromaticity(self):
        with pytest.raises(ValueError, match="undefined"):
            rgb_to_xy((0.0, 0.0, 0.0))

    @given(
        st.tuples(st.floats(0.001, 10), st.floats(0.001, 10), st.floats(0.001, 10)),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_invariant(self, s, c):
        x1, y1 = rgb_to_xy(s)
        x2, y2 = rgb_to_xy(np.asarray(s) * c)
        assert abs(x1 - x2) < 1e-12
        assert abs(y1 - y2) < 1e-12

    def test_declared_matrix_is_bit_exact(self):
        expected = [
            [0.4124564, 0.3575761, 0.1804375],
            [0.2126729, 0.7151522, 0.0721750],
            [0.0193339, 0.1191920, 0.9503041],
        ]
        assert SRGB_TO_XYZ.tolist() == expected


class TestPartitionGamut:
    def test_white_point_always_inner(self):
        for alpha in (0.01, 0.3, 1.0):
            part = partition_gamut([(1.0, 1.0, 1.0)], alpha)
            assert part.inner_indices.tolist() == [0]

    def test_alpha_one_contains_all_nonnegative_points(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.0, 5.0, size=(200, 3)) + 1e-6
        part = partition_gamut(pts, 1.0)
        assert part.outer_indices.size == 0

    def test_red_primary_outer_at_half_alpha(self):
        # Scaling the triangle halves every vertex's distance from white, so
        # the full red primary chromaticity falls outside.
        part = partition_gamut([(1.0, 0.0, 0.0)], 0.5)
        assert part.outer_indices.tolist() == [0]

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.0, 1.0, size=(300, 3)) + 1e-9
        inner_sets = []
        for alpha in (0.2, 0.5, 0.8, 1.0):
            part = partition_gamut(pts, alpha)
            inner_sets.append(set(part.inner_indices.tolist()))
        for smaller, larger in zip(inner_sets, inner_sets[1:]):
            assert smaller <= larger

    def test_partition_covers_and_is_disjoint(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0.01, 1.0, size=(50, 3))
        part = partition_gamut(pts, 0.6)
        inner = set(part.inner_indices.tolist())
        outer = set(part.outer_indices.tolist())
        assert inner | outer == set(range(50))
        assert inner & outer == set()

    def test_unprojectable_point_errors_with_index(self):
        with pytest.raises(ValueError, match="point 1"):
            partition_gamut([(1.0, 1.0, 1.0), (0.0, 0.0, 0.0)], 0.5)

    @pytest.mark.parametrize("alpha", [0.0, -0.2, 1.5])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            partition_gamut([(1.0, 1.0, 1.0)], alpha)

    def test_scaled_triangle_uses_white_anchor(self):
        w = np.array(white_xy())
        primaries = srgb_primaries_xy()
        assert np.abs(primaries - [[0.64, 0.33], [0.30, 0.60], [0.15, 0.06]]).max() < 5e-4
        assert np.abs(w - [0.3127, 0.3290]).max() < 5e-4


def identity_affine():
    return np.hstack([np.eye(3), np.zeros((3, 1))])


class TestFitGamutMap:
    def test_identity_data_recovers_identity(self):
        rng = np.random.default_rng(3)
        s = rng.uniform(0.05, 1.0, size=(40, 3))
        result = fit_gamut_map(s, s.copy())
        held = rng.uniform(0.05, 1.0, size=(200, 3))
        out = apply_gamut_map_batch(result.map, held)
        assert np.abs((out - held) / held).max() < 1e-6

    def test_translation_recovered_by_affine_term(self):
        rng = np.random.default_rng(4)
        s = rng.uniform(0.0, 1.0, size=(30, 3))
        shift = np.array([0.1, 0.0, 0.0])
        result = fit_gamut_map(s, s + shift)
        # Oracle: direct affine least squares on the same data.
        design = np.column_stack([s, np.ones(30)])
        affine_t, *_ = np.linalg.lstsq(design, s + shift, rcond=None)
        np.testing.assert_allclose(result.map.affine, affine_t.T, atol=1e-9)
        assert np.abs(result.map.weights).max() < 1e-9

    def test_cubic_warp_held_out_error(self):
        axis = np.linspace(0.1, 1.0, 5)
        pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)

        def warp(x):
            return x + 0.15 * (x - 0.55) ** 3

        result = fit_gamut_map(pts, warp(pts))
        rng = np.random.default_rng(5)
        held = rng.uniform(0.15, 0.95, size=(300, 3))
        value_range = warp(pts).max() - warp(pts).min()
        err = np.abs(apply_gamut_map_batch(result.map, held) - warp(held)).max()
        assert err / value_range < 1e-2

    def test_ridge_zero_interpolates_training_data(self):
        rng = np.random.default_rng(6)
        s = rng.uniform(0.0, 1.0, size=(40, 3))
        e = s + 0.2 * np.sin(3.0 * s)
        result = fit_gamut_map(s, e, max_centers=40, ridge=0.0)
        value_range = e.max() - e.min()
        assert result.training_max_abs.max() / value_range < 1e-8

    def test_training_center_reproduced_with_ridge_zero(self):
        rng = np.random.default_rng(7)
        s = rng.uniform(0.0, 1.0, size=(25, 3))
        e = s**2 + 0.1
        result = fit_gamut_map(s, e, max_centers=25, ridge=0.0)
        for idx in (0, 11, 24):
            np.testing.assert_allclose(apply_gamut_map(result.map, s[idx]), e[idx], atol=1e-8)

    def test_collinear_samples_raise(self):
        t = np.linspace(0, 1, 10)
        s = np.column_stack([t, 2 * t, 3 * t])
        with pytest.raises(DegenerateGeometryError):
            fit_gamut_map(s, s)

    def test_coplanar_samples_raise(self):
        rng = np.random.default_rng(9)
        uv = rng.uniform(0, 1, size=(20, 2))
        s = np.column_stack([uv, 0.5 - uv.sum(axis=1)])  # on the plane x + y + z = 0.5
        with pytest.raises(DegenerateGeometryError):
            fit_gamut_map(s, s)

    @pytest.mark.parametrize("factor", [0.9, 1.1])
    def test_degeneracy_verdict_is_matrix_rank_at_its_cutoff(self, factor):
        """The design [S, 1]'s fourth singular value a tenth below or above
        eps * max(N, 4) * the largest one: a fit is refused exactly when
        np.linalg.matrix_rank counts fewer than 4."""
        n = 64
        rng = np.random.default_rng(10)
        xy = rng.uniform(0.1, 1.0, size=(n, 2))
        flat = np.column_stack([xy, np.zeros(n), np.ones(n)])
        # The z column: a unit vector orthogonal to the other three columns,
        # so it alone sets the fourth singular value.
        z = rng.normal(size=n)
        z -= flat[:, [0, 1, 3]] @ np.linalg.lstsq(flat[:, [0, 1, 3]], z, rcond=None)[0]
        z /= np.linalg.norm(z)
        cutoff = np.finfo(float).eps * n * np.linalg.svd(flat, compute_uv=False)[0]
        s = np.column_stack([xy, factor * cutoff * z])
        design = np.column_stack([s, np.ones(n)])
        sv = np.linalg.svd(design, compute_uv=False)
        assert sv[3] / (sv[0] * np.finfo(float).eps * n) == pytest.approx(factor, rel=1e-3)
        full_rank = np.linalg.matrix_rank(design) == 4
        assert full_rank == (factor > 1)
        if full_rank:
            fit_gamut_map(s, s, max_centers=4)
        else:
            with pytest.raises(DegenerateGeometryError):
                fit_gamut_map(s, s, max_centers=4)

    def test_too_few_samples_raise(self):
        s = np.eye(3)
        with pytest.raises(ValueError, match="at least 4"):
            fit_gamut_map(s, s)

    def test_non_finite_targets_raise(self):
        rng = np.random.default_rng(8)
        s = rng.uniform(0, 1, size=(10, 3))
        e = s.copy()
        e[2, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fit_gamut_map(s, e)

    @pytest.mark.parametrize("max_centers", [32, 192])
    def test_weights_match_svd_filter_factor_reference(self, max_centers):
        # Raw tristimulus of a synthetic calibration set through a warped
        # camera: the kernel matrix has cond ~3e6, so a solve through
        # Phi^T Phi (cond ~1e13) loses about six digits of the weights. With
        # one center per sample (192) the ridge still penalizes |w|^2.
        plain = synthetic_camera(DEFAULT_GRID)
        scale = float(0.5 * plain.omega.channels.sum(axis=0).mean())
        truth = synthetic_camera(
            DEFAULT_GRID, gamut=synthetic_gamut_warp(scale=scale, strength=0.05, seed=11)
        )
        data = generate_synthetic_dataset(truth, 8, 24, [1.0], seed=11)
        s = radiance_rows(data.illuminants, data.reflectances) @ truth.omega.channels
        e = apply_gamut_map_batch(truth.gamut, s)
        ridge = 1e-8
        gmap = fit_gamut_map(s, e, max_centers=max_centers, ridge=ridge).map

        # Ridge solution min |Phi w - r|^2 + ridge |w|^2 through the SVD of
        # Phi: w = V diag(sigma / (sigma^2 + ridge)) U^T r.
        r = e - np.column_stack([s, np.ones(len(s))]) @ gmap.affine.T
        d2 = ((s[:, None, :] - gmap.centers[None, :, :]) ** 2).sum(axis=2)
        phi = np.exp(-d2 / (2.0 * gmap.kernel_width**2))
        u, sigma, vt = np.linalg.svd(phi, full_matrices=False)
        expected = vt.T @ ((sigma / (sigma**2 + ridge))[:, None] * (u.T @ r))
        assert gmap.centers.shape[0] == min(max_centers, len(s))
        assert np.abs(gmap.weights - expected).max() <= 1e-8 * np.abs(expected).max()

    @pytest.mark.parametrize("ridge", [-1e-8, np.nan])
    def test_invalid_ridge_raises(self, ridge):
        s = np.random.default_rng(9).uniform(0, 1, size=(12, 3))
        with pytest.raises(ValueError, match="ridge must be nonnegative"):
            fit_gamut_map(s, s + 0.1, ridge=ridge)

    @pytest.mark.parametrize("max_centers", [0, -3])
    def test_invalid_max_centers_raises(self, max_centers):
        s = np.random.default_rng(10).uniform(0.1, 1.0, size=(20, 3))
        with pytest.raises(ValueError, match="max_centers must be at least 1"):
            fit_gamut_map(s, s + 0.1, max_centers=max_centers)

    def test_explicit_kernel_width_is_used(self):
        rng = np.random.default_rng(9)
        s = rng.uniform(0, 1, size=(12, 3))
        result = fit_gamut_map(s, s + 0.1, kernel_width=0.42)
        assert result.map.kernel_width == 0.42


class TestApplyGamutMap:
    def test_single_center_zero_weights_is_pure_affine(self):
        affine = np.array([[2.0, 0.0, 0.0, 0.1], [0.0, 1.0, 0.5, 0.0], [0.0, 0.0, 1.0, -0.2]])
        gmap = RbfGamutMap(
            centers=np.array([[0.5, 0.5, 0.5]]),
            weights=np.zeros((1, 3)),
            kernel_width=1.0,
            ridge=0.0,
            affine=affine,
        )
        s = np.array([0.2, 0.4, 0.6])
        np.testing.assert_allclose(
            apply_gamut_map(gmap, s), affine[:, :3] @ s + affine[:, 3], rtol=1e-15
        )

    def test_finite_difference_matches_analytic_jacobian(self):
        rng = np.random.default_rng(9)
        s = rng.uniform(0.1, 1.0, size=(30, 3))
        e = s + 0.1 * np.tanh(2 * s)
        result = fit_gamut_map(s, e, max_centers=12)
        gmap = result.map
        delta = 1e-6

        def jacobian(x):
            j = gmap.affine[:, :3].copy()
            for c, w in zip(gmap.centers, gmap.weights):
                phi = np.exp(-np.sum((x - c) ** 2) / (2 * gmap.kernel_width**2))
                j += np.outer(w, -(x - c) / gmap.kernel_width**2) * phi
            return j

        for _ in range(10):
            x = rng.uniform(0.2, 0.9, size=3)
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            fd = (apply_gamut_map(gmap, x + delta * u) - apply_gamut_map(gmap, x)) / delta
            analytic = jacobian(x) @ u
            np.testing.assert_allclose(fd, analytic, rtol=1e-4, atol=1e-9)

    def test_lipschitz_bound_holds(self):
        rng = np.random.default_rng(10)
        s = rng.uniform(0.1, 1.0, size=(20, 3))
        result = fit_gamut_map(s, s + 0.05 * np.cos(4 * s), max_centers=10)
        gmap = result.map
        # Gaussian kernel gradient is bounded by exp(-1/2)/width.
        lip = np.linalg.norm(gmap.affine[:, :3], 2) + (
            np.exp(-0.5) / gmap.kernel_width
        ) * np.linalg.norm(gmap.weights, 2)
        delta = 1e-6
        for _ in range(20):
            x = rng.uniform(0.0, 1.2, size=3)
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            step = np.linalg.norm(
                apply_gamut_map(gmap, x + delta * u) - apply_gamut_map(gmap, x)
            )
            assert step <= lip * delta * (1 + 1e-4)


class TestFarthestPointSampling:
    def test_deterministic_and_spread(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 1, size=(60, 3))
        c1 = _farthest_point_centers(pts, 8)
        c2 = _farthest_point_centers(pts, 8)
        np.testing.assert_array_equal(c1, c2)
        centroid_dist = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
        np.testing.assert_array_equal(c1[0], pts[np.argmax(centroid_dist)])


def _point_sets():
    """Random sets, sets with repeated points (distance ties) and one point."""
    rng = np.random.default_rng(23)
    sets = [rng.uniform(0, 1, size=(n, 3)) for n in (5, 60, 700)]
    sets.append(rng.normal(0, 50, size=(200, 3)))
    dup = rng.uniform(0, 1, size=(12, 3))
    sets.append(np.concatenate([dup, dup, dup[:5]]))
    sets.append(np.repeat(rng.uniform(0, 1, size=(4, 3)), 6, axis=0))
    sets.append(rng.uniform(0, 1, size=(1, 3)))
    return sets


class TestSquaredDistanceKernels:
    """The kernels sum squared coordinate differences without the (N, K, 3)
    broadcast, in the order numpy sums a length-3 axis: same bits."""

    @pytest.mark.parametrize("pts", _point_sets(), ids=lambda p: f"n{p.shape[0]}")
    @pytest.mark.parametrize("k", [1, 8, 32])
    def test_farthest_point_centers_equal_the_loop(self, pts, k):
        np.testing.assert_array_equal(_farthest_point_centers(pts, k), farthest_point_loop(pts, k))

    @pytest.mark.parametrize("pts", _point_sets(), ids=lambda p: f"n{p.shape[0]}")
    @pytest.mark.parametrize("width", [0.07, 0.3, 2.5])
    def test_kernel_matrix_equals_the_broadcast_formula(self, pts, width):
        centers = farthest_point_loop(pts, 32)
        for c in (centers, pts[:1], pts):
            got = _kernel_matrix(pts, c, width)
            assert got.shape == (pts.shape[0], c.shape[0])
            np.testing.assert_array_equal(got, kernel_matrix_broadcast(pts, c, width))
