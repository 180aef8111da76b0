import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camspec import (
    Kind,
    SensitivityMatrix,
    SpectralCurve,
    SpectralGrid,
    resample,
    spectral_product,
)
from camspec.errors import GridMismatchError


def curve(grid, values, kind=Kind.ILLUMINANT):
    return SpectralCurve(grid, values, kind)


class TestSpectralGrid:
    def test_wavelengths(self):
        g = SpectralGrid(400.0, 10.0, 4)
        np.testing.assert_array_equal(g.wavelengths, [400.0, 410.0, 420.0, 430.0])
        assert g.end_nm == 430.0

    @pytest.mark.parametrize("args", [(400, -1, 5), (400, 0, 5), (400, 10, 1), (400, 10, 0)])
    def test_rejects_bad_parameters(self, args):
        with pytest.raises(ValueError):
            SpectralGrid(*args)


class TestSpectralCurve:
    def test_rejects_negative_values(self):
        g = SpectralGrid(400, 10, 3)
        with pytest.raises(ValueError, match="negative"):
            curve(g, [0.0, -0.1, 0.2])

    def test_rejects_reflectance_above_one(self):
        g = SpectralGrid(400, 10, 3)
        with pytest.raises(ValueError, match="reflectance"):
            curve(g, [0.5, 1.2, 0.5], Kind.REFLECTANCE)

    def test_rejects_length_mismatch(self):
        g = SpectralGrid(400, 10, 3)
        with pytest.raises(ValueError):
            curve(g, [1.0, 2.0])

    def test_values_are_read_only(self):
        c = curve(SpectralGrid(400, 10, 3), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            c.values[0] = 5.0


class TestResample:
    def test_identity_on_own_grid(self):
        g = SpectralGrid(400, 10, 5)
        c = curve(g, [0.1, 0.5, 0.3, 0.9, 0.2])
        out = resample(c, g)
        np.testing.assert_array_equal(out.values, c.values)
        assert out.kind is c.kind

    def test_constant_curve_inside_support(self):
        src = curve(SpectralGrid(400, 10, 11), np.full(11, 0.5))
        out = resample(src, SpectralGrid(405, 5, 10))
        np.testing.assert_allclose(out.values, 0.5)

    def test_midpoint_linear_interpolation(self):
        src = curve(SpectralGrid(400, 10, 2), [0.0, 1.0])
        out = resample(src, SpectralGrid(405, 10, 2))
        # 405 nm is halfway between the samples; 415 nm is outside support.
        np.testing.assert_allclose(out.values, [0.5, 0.0])

    def test_zero_outside_support(self):
        src = curve(SpectralGrid(450, 10, 3), [1.0, 1.0, 1.0])
        out = resample(src, SpectralGrid(400, 50, 4))  # 400, 450, 500, 550
        np.testing.assert_allclose(out.values, [0.0, 1.0, 0.0, 0.0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_idempotent_on_own_grid(self, seed):
        rng = np.random.default_rng(seed)
        g = SpectralGrid(400, 10, 8)
        c = curve(g, rng.uniform(0, 2, size=8))
        once = resample(c, g)
        twice = resample(once, g)
        np.testing.assert_array_equal(once.values, twice.values)


class TestSpectralProduct:
    def test_perfect_reflector_returns_illuminant(self, grid):
        light = curve(grid, np.linspace(0.2, 1.0, grid.count))
        unit = curve(grid, np.ones(grid.count), Kind.REFLECTANCE)
        out = spectral_product(light, unit)
        np.testing.assert_array_equal(out.values, light.values)
        assert out.kind is Kind.RADIANCE

    def test_dark_illuminant_gives_zero_radiance(self, grid):
        dark = curve(grid, np.zeros(grid.count))
        surface = curve(grid, np.full(grid.count, 0.7), Kind.REFLECTANCE)
        np.testing.assert_array_equal(spectral_product(dark, surface).values, 0.0)

    def test_elementwise_values(self):
        g = SpectralGrid(400, 10, 2)
        out = spectral_product(
            curve(g, [1.0, 2.0]), curve(g, [0.5, 0.5], Kind.REFLECTANCE)
        )
        np.testing.assert_array_equal(out.values, [0.5, 1.0])

    def test_grid_mismatch_raises(self):
        light = curve(SpectralGrid(400, 10, 3), [1, 1, 1])
        surface = curve(SpectralGrid(400, 5, 3), [1, 1, 1], Kind.REFLECTANCE)
        with pytest.raises(GridMismatchError):
            spectral_product(light, surface)

    def test_kind_mismatch_raises(self, grid):
        light = curve(grid, np.ones(grid.count))
        with pytest.raises(ValueError, match="illuminant, reflectance"):
            spectral_product(light, light)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_commutative_in_values_and_zero_propagation(self, seed):
        rng = np.random.default_rng(seed)
        g = SpectralGrid(400, 10, 12)
        a = rng.uniform(0, 1, size=12) * (rng.uniform(size=12) > 0.3)
        b = rng.uniform(0, 1, size=12) * (rng.uniform(size=12) > 0.3)
        ab = spectral_product(curve(g, a), curve(g, b, Kind.REFLECTANCE))
        ba = spectral_product(curve(g, b), curve(g, a, Kind.REFLECTANCE))
        np.testing.assert_array_equal(ab.values, ba.values)
        np.testing.assert_array_equal(ab.values == 0.0, (a == 0.0) | (b == 0.0))


class TestIntegrateSensitivity:
    """Raw tristimulus is the batch product ``radiance (N, M) @ omega.channels``."""

    def test_zero_radiance_gives_zero_tristimulus(self, grid):
        omega = SensitivityMatrix(grid, np.ones((grid.count, 3)))
        p = np.zeros((1, grid.count))
        np.testing.assert_array_equal((p @ omega.channels)[0], [0.0, 0.0, 0.0])

    def test_impulse_sensitivity_sifts(self, grid):
        channels = np.zeros((grid.count, 3))
        channels[7, 0] = 1.0  # red impulse at index 7
        channels[12, 1] = 1.0
        channels[20, 2] = 1.0
        omega = SensitivityMatrix(grid, channels)
        rng = np.random.default_rng(0)
        p = curve(grid, rng.uniform(0, 1, grid.count), Kind.RADIANCE)
        s = (p.values[None] @ omega.channels)[0]
        np.testing.assert_allclose(s, [p.values[7], p.values[12], p.values[20]])

    def test_matches_bruteforce_summation(self):
        # Independent oracle: explicit python loop over wavelengths/channels.
        g = SpectralGrid(500, 20, 5)
        rng = np.random.default_rng(42)
        p_vals = rng.uniform(0, 2, size=5)
        channels = rng.uniform(0, 1, size=(5, 3))
        expected = np.zeros(3)
        for k in range(3):
            for i in range(5):
                expected[k] += p_vals[i] * channels[i, k]
        got = (p_vals[None] @ SensitivityMatrix(g, channels).channels)[0]
        np.testing.assert_allclose(got, expected, rtol=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        g = SpectralGrid(400, 10, 10)
        omega = SensitivityMatrix(g, rng.uniform(0.01, 1, size=(10, 3)))
        p1 = rng.uniform(0, 1, size=10)
        p2 = rng.uniform(0, 1, size=10)
        a, b = rng.uniform(0.1, 3, size=2)
        combined, s1, s2 = np.array([a * p1 + b * p2, p1, p2]) @ omega.channels
        parts = a * s1 + b * s2
        np.testing.assert_allclose(combined, parts, rtol=1e-12)


class TestSensitivityMatrix:
    def test_rejects_dead_channel(self, grid):
        channels = np.ones((grid.count, 3))
        channels[:, 1] = 0.0
        with pytest.raises(ValueError, match="identically zero"):
            SensitivityMatrix(grid, channels)

    def test_rejects_negative_entries(self, grid):
        channels = np.ones((grid.count, 3))
        channels[3, 2] = -0.5
        with pytest.raises(ValueError, match="nonnegative"):
            SensitivityMatrix(grid, channels)
