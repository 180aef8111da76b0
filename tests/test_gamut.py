import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camspec import (
    DEFAULT_GRID,
    RbfGamutMap,
    chromaticity,
    fit_gamut_map,
    generate_synthetic_dataset,
    partition_gamut,
    radiance_rows,
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


def per_sample_fit(s, e, max_centers, ridge):
    """The gamut fit with one row per sample in both least-squares systems:
    centers, width, affine (3, 4), weights, training RMS and max error."""
    n = s.shape[0]
    design = np.column_stack([s, np.ones(n)])
    affine = np.ascontiguousarray(np.linalg.lstsq(design, e, rcond=None)[0].T)
    resid = e - design @ affine.T
    centers = farthest_point_loop(s, min(max_centers, n))
    k = centers.shape[0]
    d2 = ((centers[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)[np.triu_indices(k, 1)]
    width = float(np.sqrt(np.median(d2[d2 > 0])))
    phi = kernel_matrix_broadcast(s, centers, width)
    weights = np.linalg.lstsq(
        np.vstack([phi, np.sqrt(ridge) * np.eye(k)]), np.vstack([resid, np.zeros((k, 3))]),
        rcond=None,
    )[0]
    err = s @ affine[:, :3].T + affine[:, 3] + phi @ weights - e
    return centers, width, affine, weights, np.sqrt((err**2).mean(axis=0)), np.abs(err).max(axis=0)


def repeated_samples(seed, n_points=60, max_repeat=5):
    """Distinct points each repeated 1..max_repeat times in a row, with
    noisy targets that differ between the repeats."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.05, 1.0, size=(n_points, 3))
    s = np.repeat(points, rng.integers(1, max_repeat + 1, size=n_points), axis=0)
    e = s + 0.1 * np.sin(4.0 * s) + rng.normal(0.0, 0.01, size=s.shape)
    return s, e


class TestRgbToXy:
    def test_equal_rgb_is_d65_white(self):
        x, y = chromaticity([(1.0, 1.0, 1.0)])[0]
        assert abs(x - 0.3127) < 5e-4
        assert abs(y - 0.3290) < 5e-4

    @pytest.mark.parametrize(
        "s, expected",
        [((1, 0, 0), (0.64, 0.33)), ((0, 1, 0), (0.30, 0.60)), ((0, 0, 1), (0.15, 0.06))],
    )
    def test_primaries(self, s, expected):
        x, y = chromaticity([s])[0]
        assert abs(x - expected[0]) < 5e-4
        assert abs(y - expected[1]) < 5e-4

    def test_all_zero_has_no_chromaticity(self):
        with pytest.raises(ValueError, match="undefined"):
            chromaticity([(0.0, 0.0, 0.0)])

    @given(
        st.tuples(st.floats(0.001, 10), st.floats(0.001, 10), st.floats(0.001, 10)),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_invariant(self, s, c):
        (x1, y1), (x2, y2) = chromaticity([s, np.asarray(s) * c])
        assert abs(x1 - x2) < 1e-12
        assert abs(y1 - y2) < 1e-12

    def test_declared_matrix_is_bit_exact(self):
        expected = [
            [0.4124564, 0.3575761, 0.1804375],
            [0.2126729, 0.7151522, 0.0721750],
            [0.0193339, 0.1191920, 0.9503041],
        ]
        assert SRGB_TO_XYZ.tolist() == expected


def split(mask):
    """(inner indices, outer indices) of a ``partition_gamut`` mask."""
    return np.flatnonzero(mask), np.flatnonzero(~mask)


class TestPartitionGamut:
    def test_returns_one_bool_per_point(self):
        pts = np.random.default_rng(3).uniform(0.01, 1.0, size=(7, 3))
        mask = partition_gamut(pts, 0.6)
        assert mask.dtype == bool and mask.shape == (7,)

    def test_white_point_always_inner(self):
        for alpha in (0.01, 0.3, 1.0):
            inner, _ = split(partition_gamut([(1.0, 1.0, 1.0)], alpha))
            assert inner.tolist() == [0]

    def test_alpha_one_contains_all_nonnegative_points(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.0, 5.0, size=(200, 3)) + 1e-6
        _, outer = split(partition_gamut(pts, 1.0))
        assert outer.size == 0

    def test_red_primary_outer_at_half_alpha(self):
        # Scaling the triangle halves every vertex's distance from white, so
        # the full red primary chromaticity falls outside.
        _, outer = split(partition_gamut([(1.0, 0.0, 0.0)], 0.5))
        assert outer.tolist() == [0]

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.0, 1.0, size=(300, 3)) + 1e-9
        inner_sets = []
        for alpha in (0.2, 0.5, 0.8, 1.0):
            inner, _ = split(partition_gamut(pts, alpha))
            inner_sets.append(set(inner.tolist()))
        for smaller, larger in zip(inner_sets, inner_sets[1:]):
            assert smaller <= larger

    def test_partition_covers_and_is_disjoint(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0.01, 1.0, size=(50, 3))
        inner_indices, outer_indices = split(partition_gamut(pts, 0.6))
        inner = set(inner_indices.tolist())
        outer = set(outer_indices.tolist())
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
        idx = [0, 11, 24]
        np.testing.assert_allclose(apply_gamut_map_batch(result.map, s[idx]), e[idx], atol=1e-8)

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

    @pytest.mark.parametrize("repeat", [1, 3])
    @pytest.mark.parametrize("factor", [0.9, 1.1])
    def test_degeneracy_verdict_is_matrix_rank_at_its_cutoff(self, factor, repeat):
        """The design [S, 1]'s fourth singular value a tenth below or above
        eps * max(N, 4) * the largest one, N counting every sample (64
        points, each written ``repeat`` times in a row): a fit is refused
        exactly when np.linalg.matrix_rank counts fewer than 4."""
        n = 64
        rng = np.random.default_rng(10)
        xy = rng.uniform(0.1, 1.0, size=(n, 2))
        flat = np.column_stack([xy, np.zeros(n), np.ones(n)])
        # The z column: a unit vector orthogonal to the other three columns,
        # so it alone sets the fourth singular value.
        z = rng.normal(size=n)
        z -= flat[:, [0, 1, 3]] @ np.linalg.lstsq(flat[:, [0, 1, 3]], z, rcond=None)[0]
        z /= np.linalg.norm(z)
        n *= repeat
        cutoff = np.finfo(float).eps * n * np.linalg.svd(flat, compute_uv=False)[0]
        s = np.repeat(np.column_stack([xy, factor * cutoff * z]), repeat, axis=0)
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


class TestRepeatedRows:
    """A run of equal consecutive rows is fitted once, weighted by the square
    root of its length, toward its mean target: the per-sample fit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("ridge", [1e-8, 1e-4])
    def test_runs_fit_the_per_sample_system(self, seed, ridge):
        s, e = repeated_samples(seed)
        assert np.unique(s, axis=0).shape[0] < s.shape[0]
        got = fit_gamut_map(s, e, max_centers=32, ridge=ridge)
        centers, width, affine, weights, rms, max_abs = per_sample_fit(s, e, 32, ridge)
        np.testing.assert_array_equal(got.map.centers, centers)
        assert got.map.kernel_width == width
        np.testing.assert_allclose(got.map.affine, affine, rtol=0, atol=1e-12)
        assert np.abs(got.map.weights - weights).max() <= 1e-9 * np.abs(weights).max()
        np.testing.assert_allclose(got.training_rms, rms, rtol=1e-12)
        np.testing.assert_allclose(got.training_max_abs, max_abs, rtol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_order_of_the_rows_does_not_matter(self, seed):
        s, e = repeated_samples(seed)
        order = np.random.default_rng(seed + 100).permutation(s.shape[0])
        assert (s[order][1:] != s[order][:-1]).any(axis=1).sum() > np.unique(s, axis=0).shape[0]
        runs = fit_gamut_map(s, e, max_centers=32).map
        shuffled = fit_gamut_map(s[order], e[order], max_centers=32).map
        np.testing.assert_array_equal(shuffled.centers, runs.centers)
        np.testing.assert_allclose(shuffled.affine, runs.affine, rtol=0, atol=1e-12)
        assert np.abs(shuffled.weights - runs.weights).max() <= 1e-9 * np.abs(runs.weights).max()

    @pytest.mark.parametrize("max_centers", [16, 200])
    def test_distinct_rows_are_the_per_sample_fit_bit_for_bit(self, max_centers):
        rng = np.random.default_rng(7)
        s = rng.uniform(0.05, 1.0, size=(150, 3))
        e = s + 0.1 * np.sin(4.0 * s)
        got = fit_gamut_map(s, e, max_centers=max_centers)
        centers, width, affine, weights, rms, max_abs = per_sample_fit(s, e, max_centers, 1e-8)
        for a, b in [(got.map.centers, centers), (got.map.kernel_width, width),
                     (got.map.affine, affine), (got.map.weights, weights),
                     (got.training_rms, rms), (got.training_max_abs, max_abs)]:
            np.testing.assert_array_equal(a, b)

    def test_each_distinct_point_is_one_center(self):
        # 24 points x 3 samples and room for 32 centers: every point once.
        rng = np.random.default_rng(12)
        s = np.repeat(rng.uniform(0.05, 1.0, size=(24, 3)), 3, axis=0)
        centers = fit_gamut_map(s, s + 0.05 * np.cos(3.0 * s), max_centers=32).map.centers
        assert centers.shape == (24, 3)
        assert np.unique(centers, axis=0).shape[0] == 24

    @pytest.mark.parametrize("max_centers", [32, 125])
    def test_repeats_out_of_order_are_one_center_each(self, max_centers):
        # The same 24 points three times over, as one block each time: the
        # centers are those of three consecutive copies, in the same order.
        points = np.random.default_rng(12).uniform(0.05, 1.0, size=(24, 3))
        centers = [
            fit_gamut_map(s, s + 0.05 * np.cos(3.0 * s), max_centers=max_centers).map.centers
            for s in (np.tile(points, (3, 1)), np.repeat(points, 3, axis=0))
        ]
        np.testing.assert_array_equal(centers[0], centers[1])
        np.testing.assert_array_equal(centers[0], points)

    def test_first_center_is_farthest_from_the_mean_of_every_sample(self):
        # Ten copies of b pull the samples' mean toward it, so a is the
        # first center; from the mean of the distinct points it would be b.
        a, b = [-1.0, 0.0, 0.0], [1.1, 0.0, 0.0]
        near = [[0.0, 0.1, 0.0], [0.0, 0.0, 0.1], [0.05, 0.05, 0.05]]
        s = np.array([a] + [b] * 10 + near)
        centers = fit_gamut_map(s, s + 0.1 * s**2, max_centers=2).map.centers
        np.testing.assert_array_equal(centers, [a, b])
        np.testing.assert_array_equal(centers, farthest_point_loop(s, 2))

    def test_repeats_do_not_hide_degenerate_geometry(self):
        # Three distinct points, ten samples each: never an affine 3-D map.
        s = np.repeat(np.eye(3), 10, axis=0)
        with pytest.raises(DegenerateGeometryError):
            fit_gamut_map(s, s)


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
            apply_gamut_map_batch(gmap, s[None])[0], affine[:, :3] @ s + affine[:, 3], rtol=1e-15
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
            moved, here = apply_gamut_map_batch(gmap, np.array([x + delta * u, x]))
            fd = (moved - here) / delta
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
            moved, here = apply_gamut_map_batch(gmap, np.array([x + delta * u, x]))
            step = np.linalg.norm(moved - here)
            assert step <= lip * delta * (1 + 1e-4)


class TestFarthestPointSampling:
    def test_deterministic_and_spread(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 1, size=(60, 3))
        c1 = _farthest_point_centers(pts, 8, pts.mean(axis=0))
        c2 = _farthest_point_centers(pts, 8, pts.mean(axis=0))
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
        got = _farthest_point_centers(pts, k, pts.mean(axis=0))
        np.testing.assert_array_equal(got, farthest_point_loop(pts, k))

    @pytest.mark.parametrize("pts", _point_sets(), ids=lambda p: f"n{p.shape[0]}")
    @pytest.mark.parametrize("width", [0.07, 0.3, 2.5])
    def test_kernel_matrix_equals_the_broadcast_formula(self, pts, width):
        centers = farthest_point_loop(pts, 32)
        for c in (centers, pts[:1], pts):
            got = _kernel_matrix(pts, c, width)
            assert got.shape == (pts.shape[0], c.shape[0])
            np.testing.assert_array_equal(got, kernel_matrix_broadcast(pts, c, width))
