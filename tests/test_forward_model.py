import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camspec import (
    CameraModel,
    ExposureStack,
    Kind,
    ResponseCurve,
    Saturation,
    SensitivityMatrix,
    SpectralCurve,
    SpectralGrid,
    apply_response,
    classify_saturation,
    default_thresholds,
    interpolated_code,
    render,
    simulate_pixel,
    synthetic_camera,
    synthetic_gamut_warp,
)
from camspec.errors import GridMismatchError
from camspec.synthetic import camera_in_basis_span, spanning_database
from support import eq1_pixel_oracle, quantize_oracle


class TestResponseCurve:
    def test_rejects_non_monotone_table(self):
        table = np.tile(np.linspace(-3, 0, 256), (3, 1))
        table[1, 100] = table[1, 99] - 0.1
        with pytest.raises(ValueError, match="strictly increasing"):
            ResponseCurve(8, table)

    def test_rejects_non_finite(self):
        table = np.tile(np.linspace(-3, 0, 256), (3, 1))
        table[0, 0] = -np.inf
        with pytest.raises(ValueError, match="finite"):
            ResponseCurve(8, table)

    def test_linear_table_by_construction(self):
        curve = ResponseCurve.linear()
        assert curve.g_inv[0][128] == pytest.approx(128 / 255)
        assert curve.g_inv[2][255] == pytest.approx(1.0)

    def test_gamma_table_ratio(self):
        curve = ResponseCurve.from_gamma(2.2)
        ratio = curve.g_inv[1][200] / curve.g_inv[1][100]
        assert ratio == pytest.approx(2.0**2.2, rel=1e-12)

    def test_apply_inverts_invert_on_every_code(self):
        codes = np.arange(256)
        for curve in (ResponseCurve.linear(), ResponseCurve.from_gamma(2.2)):
            for k in range(3):
                e = curve.g_inv[k][codes]
                np.testing.assert_array_equal(apply_response(e, curve, k), codes)

    def test_invert_strictly_increasing_in_code(self):
        curve = ResponseCurve.from_gamma(1.8)
        values = curve.g_inv[0][np.arange(256)]
        assert (np.diff(values) > 0).all()

    def test_apply_clamps_at_range_ends(self):
        curve = ResponseCurve.from_gamma(2.2)
        assert apply_response(0.0, curve, 0) == 0
        assert apply_response(-1.0, curve, 0) == 0
        assert apply_response(1e9, curve, 0) == 255


class TestClassifySaturation:
    def test_under_in_one_channel_taints_triplet(self):
        flags = classify_saturation((5, 100, 100), 10, 230)
        assert flags.channels == (Saturation.UNDER, Saturation.VALID, Saturation.VALID)
        assert flags.any_saturated

    def test_threshold_codes_are_valid(self):
        flags = classify_saturation((10, 230, 128), 10, 230)
        assert all(f is Saturation.VALID for f in flags)
        assert not flags.any_saturated

    def test_mid_codes_valid(self):
        assert not classify_saturation((128, 128, 128)).any_saturated

    @given(st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)))
    @settings(max_examples=100, deadline=None)
    def test_any_saturated_consistency(self, triplet):
        flags = classify_saturation(triplet, 10, 230)
        assert flags.any_saturated == any(f is not Saturation.VALID for f in flags)
        for z, f in zip(triplet, flags):
            assert f is (
                Saturation.UNDER if z < 10 else Saturation.OVER if z > 230 else Saturation.VALID
            )

    @pytest.mark.parametrize("bits", [8, 10])
    def test_agrees_with_channel_valid_on_every_code(self, bits):
        codes = np.arange(2**bits)
        stack = ExposureStack([1.0], np.repeat(codes, 3).reshape(-1, 1, 3), bit_depth=bits)
        assert (stack.sat_lo, stack.sat_hi) == default_thresholds(bits)
        flags = [
            classify_saturation((z, z, z), stack.sat_lo, stack.sat_hi).channels[0] for z in codes
        ]
        np.testing.assert_array_equal(
            [f is Saturation.VALID for f in flags], stack.channel_valid[:, 0, 0]
        )
        assert all((f is Saturation.UNDER) == (z < stack.sat_lo) for z, f in zip(codes, flags))


def impulse_camera(grid, index=16):
    channels = np.zeros((grid.count, 3))
    channels[index, 0] = 1.0
    channels[index + 1, 1] = 1.0
    channels[index + 2, 2] = 1.0
    return CameraModel(
        grid=grid,
        omega=SensitivityMatrix(grid, channels),
        response=ResponseCurve.linear(),
    )


class TestSimulatePixel:
    def test_dark_scene_gives_darkest_code(self, grid):
        cam = synthetic_camera(grid)
        dark = SpectralCurve(grid, np.zeros(grid.count), Kind.ILLUMINANT)
        surface = SpectralCurve(grid, np.full(grid.count, 0.5), Kind.REFLECTANCE)
        np.testing.assert_array_equal(simulate_pixel(cam, dark, surface, 1.0), [0, 0, 0])

    def test_doubling_exposure_doubles_prequantization_output(self, grid):
        cam = impulse_camera(grid)
        light = SpectralCurve(grid, np.full(grid.count, 0.4), Kind.ILLUMINANT)
        surface = SpectralCurve(grid, np.full(grid.count, 0.5), Kind.REFLECTANCE)
        # S = 0.2 per channel through the impulses; codes stay in (1, 255).
        for k in range(3):
            c1 = interpolated_code(0.2 * 1.0, cam.response, k)
            c2 = interpolated_code(0.2 * 2.0, cam.response, k)
            assert c2 == pytest.approx(2.0 * c1, rel=1e-12)
        np.testing.assert_array_equal(
            simulate_pixel(cam, light, surface, 2.0),
            2 * simulate_pixel(cam, light, surface, 1.0),
        )

    def test_grid_mismatch_raises(self, grid):
        cam = synthetic_camera(grid)
        other = SpectralGrid(grid.start_nm, grid.step_nm / 2, grid.count)
        light = SpectralCurve(other, np.ones(grid.count), Kind.ILLUMINANT)
        surface = SpectralCurve(grid, np.ones(grid.count), Kind.REFLECTANCE)
        with pytest.raises(GridMismatchError):
            simulate_pixel(cam, light, surface, 1.0)

    def test_extreme_spectra_stay_in_range(self, grid):
        cam = synthetic_camera(grid, gamut=synthetic_gamut_warp(scale=1.0, strength=0.2))
        bright = SpectralCurve(grid, np.full(grid.count, 1.0), Kind.ILLUMINANT)
        surface = SpectralCurve(grid, np.ones(grid.count), Kind.REFLECTANCE)
        out = simulate_pixel(cam, bright, surface, 1e6)
        assert (out >= 0).all() and (out <= 255).all()

    def test_overdriven_value_clamps_and_classifies_over(self, grid):
        # A pre-quantization value above the table range always lands at the
        # top code, which the classifier must call Over.
        cam = synthetic_camera(grid)
        bright = SpectralCurve(grid, np.full(grid.count, 1.0), Kind.ILLUMINANT)
        surface = SpectralCurve(grid, np.ones(grid.count), Kind.REFLECTANCE)
        out = simulate_pixel(cam, bright, surface, 1e9)
        np.testing.assert_array_equal(out, [255, 255, 255])
        flags = classify_saturation(out, cam.sat_lo, cam.sat_hi)
        assert all(f is Saturation.OVER for f in flags)
        assert flags.any_saturated

    def test_matches_direct_equation_oracle(self, grid):
        # Gamma-2.2 response, identity gamut, Gaussian-bump sensitivity vs an
        # independently coded single-expression evaluation.
        cam = synthetic_camera(grid, gamma=2.2)
        rng = np.random.default_rng(5)
        for _ in range(50):
            light = SpectralCurve(grid, rng.uniform(0, 1, grid.count), Kind.ILLUMINANT)
            surface = SpectralCurve(grid, rng.uniform(0, 1, grid.count), Kind.REFLECTANCE)
            e = float(rng.uniform(0.1, 4.0))
            expected = eq1_pixel_oracle(
                cam.omega.channels, cam.response.ln_e, None, light.values, surface.values, e
            )
            np.testing.assert_array_equal(simulate_pixel(cam, light, surface, e), expected)

    def test_matches_oracle_with_gamut_warp(self, grid):
        warp = synthetic_gamut_warp(scale=1.2, strength=0.1, seed=4)
        cam = synthetic_camera(grid, gamma=1.8, gamut=warp)
        gamut_dict = {
            "affine": warp.affine,
            "centers": warp.centers,
            "weights": warp.weights,
            "width": warp.kernel_width,
        }
        rng = np.random.default_rng(6)
        for _ in range(50):
            light = SpectralCurve(grid, rng.uniform(0, 1, grid.count), Kind.ILLUMINANT)
            surface = SpectralCurve(grid, rng.uniform(0, 1, grid.count), Kind.REFLECTANCE)
            e = float(rng.uniform(0.1, 4.0))
            expected = eq1_pixel_oracle(
                cam.omega.channels, cam.response.ln_e, gamut_dict, light.values, surface.values, e
            )
            np.testing.assert_array_equal(simulate_pixel(cam, light, surface, e), expected)


class TestRender:
    @pytest.mark.parametrize("bit_depth", [8, 10])
    @pytest.mark.parametrize("warped", [False, True])
    def test_batch_matches_oracle_and_stacked_simulate_pixel(self, grid, bit_depth, warped):
        warp = synthetic_gamut_warp(scale=1.2, strength=0.1, seed=4) if warped else None
        cam = synthetic_camera(grid, gamma=2.2, gamut=warp, bit_depth=bit_depth)
        gamut_dict = None if warp is None else {
            "affine": warp.affine,
            "centers": warp.centers,
            "weights": warp.weights,
            "width": warp.kernel_width,
        }
        rng = np.random.default_rng(11)
        lights = [rng.uniform(0, 1, grid.count) for _ in range(30)] + [np.zeros(grid.count)]
        surfaces = [rng.uniform(0, 1, grid.count) for _ in range(31)]
        # 1e4 s overdrives every lit row to the top code; the dark row stays at 0.
        exposures = np.array([0.3, 1.0, 2.5, 1e4])
        codes = render(cam, np.stack(lights) * np.stack(surfaces), exposures)
        code_max = cam.response.n_codes - 1
        assert codes.shape == (31, exposures.size, 3)
        assert (codes == 0).any() and (codes == code_max).any()
        assert ((codes > 0) & (codes < code_max)).any()
        for n, (light, surface) in enumerate(zip(lights, surfaces)):
            lc = SpectralCurve(grid, light, Kind.ILLUMINANT)
            sc = SpectralCurve(grid, surface, Kind.REFLECTANCE)
            for i, e in enumerate(exposures):
                expected = eq1_pixel_oracle(
                    cam.omega.channels, cam.response.ln_e, gamut_dict, light, surface, e
                )
                np.testing.assert_array_equal(codes[n, i], expected)
                np.testing.assert_array_equal(codes[n, i], simulate_pixel(cam, lc, sc, e))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_nonpositive_exposure(self, grid, bad):
        cam = synthetic_camera(grid)
        with pytest.raises(ValueError, match="exposure must be positive"):
            render(cam, np.ones((2, grid.count)), [1.0, bad])

    @pytest.mark.parametrize("shape", [(2, 34), (2, 32), (33,)])
    def test_rejects_rows_off_the_camera_grid(self, grid, shape):
        cam = synthetic_camera(grid)
        with pytest.raises(GridMismatchError):
            render(cam, np.ones(shape), [1.0])


class TestReciprocity:
    def test_linear_camera_ratio_exact_prequantization(self, grid):
        cam = impulse_camera(grid)
        rng = np.random.default_rng(8)
        for _ in range(100):
            e_small, e_big = sorted(rng.uniform(0.2, 4.0, size=2))
            s = rng.uniform(0.02, 0.4)
            c1 = interpolated_code(s * e_small, cam.response, 0)
            c2 = interpolated_code(s * e_big, cam.response, 0)
            if c1 < 1 or c2 >= 255:
                continue  # proportionality holds on the open code range
            assert c1 / c2 == pytest.approx(e_small / e_big, rel=1e-9)

    def test_quantized_deviation_within_one_code(self, grid):
        cam = impulse_camera(grid)
        rng = np.random.default_rng(9)
        for _ in range(200):
            e_small, e_big = sorted(rng.uniform(0.2, 4.0, size=2))
            ratio = e_small / e_big
            s = rng.uniform(0.02, 0.4)
            z_small = apply_response(s * e_small, cam.response, 0)
            z_big = apply_response(s * e_big, cam.response, 0)
            if z_small < 1 or z_big >= 255:
                continue
            assert abs(z_small - ratio * z_big) <= 1.0

    def test_quantizer_matches_independent_searchsorted_oracle(self):
        curve = ResponseCurve.from_gamma(2.2)
        rng = np.random.default_rng(10)
        for v in rng.uniform(0.0, 1.2, size=500):
            assert apply_response(v, curve, 0) == quantize_oracle(v, curve.ln_e[0])


class TestOtherBitDepths:
    def test_default_thresholds_scale_proportionally(self):
        from camspec import default_thresholds

        # 10 * (2^b - 1) / 255 and 230 * (2^b - 1) / 255, rounded
        assert default_thresholds(8) == (10, 230)
        assert default_thresholds(10) == (40, 923)
        assert default_thresholds(12) == (161, 3694)

    def test_ten_bit_camera_round_trip(self, grid):
        cam = synthetic_camera(grid, gamma=2.2, bit_depth=10)
        assert (cam.sat_lo, cam.sat_hi) == (40, 923)
        assert cam.response.n_codes == 1024
        light = SpectralCurve(grid, np.full(grid.count, 0.8), Kind.ILLUMINANT)
        surface = SpectralCurve(grid, np.full(grid.count, 0.5), Kind.REFLECTANCE)
        out = simulate_pixel(cam, light, surface, 1.0)
        assert (out >= 0).all() and (out <= 1023).all()
        codes = np.array([0, 40, 512, 923, 1023])
        for k in range(3):
            e = cam.response.g_inv[k][codes]
            np.testing.assert_array_equal(apply_response(e, cam.response, k), codes)

    def test_ten_bit_response_estimation(self, grid):
        from camspec import ExposureStack, estimate_response

        cam = synthetic_camera(grid, gamma=2.0, bit_depth=10)
        light = SpectralCurve(grid, np.ones(grid.count), Kind.ILLUMINANT)
        sum_omega = cam.omega.channels.sum(axis=0)
        targets = np.concatenate(
            [np.linspace(36, 160, 8), np.linspace(250, 740, 8), np.linspace(790, 1000, 8)]
        )
        levels = ((targets / 1023.0) ** 2.0 / sum_omega[2]).clip(max=1.0)
        exposures = np.array([0.5, 1.0, 2.0])
        samples = np.empty((levels.size, 3, 3), dtype=int)
        for j, level in enumerate(levels):
            surface = SpectralCurve(grid, np.full(grid.count, float(level)), Kind.REFLECTANCE)
            for i, e in enumerate(exposures):
                samples[j, i] = simulate_pixel(cam, light, surface, float(e))
        stack = ExposureStack(exposures, samples, 10, cam.sat_lo, cam.sat_hi)
        fit = estimate_response(stack)
        z = np.arange(80, 881)
        for k in range(3):
            slope = np.polyfit(np.log(z / 1023.0), fit.ln_e[k, z], 1)[0]
            assert abs(slope - 2.0) < 0.08
        assert (np.diff(fit.ln_e, axis=1) > 0).all()

    def test_ten_bit_defaults_scale_everywhere(self, grid):
        # A mid-range 10-bit code is valid without naming thresholds.
        stack = ExposureStack([0.5, 1.0], np.full((1, 2, 3), 500), bit_depth=10)
        assert (stack.sat_lo, stack.sat_hi) == (40, 923)
        assert stack.triplet_valid.all()
        cam = CameraModel(
            grid=grid,
            omega=SensitivityMatrix(grid, np.ones((grid.count, 3))),
            response=ResponseCurve.linear(10),
        )
        assert (cam.sat_lo, cam.sat_hi) == (40, 923)
        assert not classify_saturation((500, 500, 500), cam.sat_lo, cam.sat_hi).any_saturated
        parents = spanning_database(grid, d=6)[1]
        span = camera_in_basis_span(grid, parents, bit_depth=10)
        assert (span.sat_lo, span.sat_hi) == (40, 923)

    @pytest.mark.parametrize("lo, hi", [(40, 1024), (-1, 923), (923, 40)])
    def test_thresholds_checked_against_the_code_range(self, lo, hi):
        with pytest.raises(ValueError, match=r"need 0 <= sat_lo < sat_hi <= 1023"):
            ExposureStack([1.0], np.full((1, 1, 3), 500), bit_depth=10, sat_lo=lo, sat_hi=hi)


class TestCameraModel:
    def test_bit_depth_is_the_response_tables(self, grid):
        omega = SensitivityMatrix(grid, np.ones((grid.count, 3)))
        cam = CameraModel(grid, omega, ResponseCurve.from_gamma(2.2, 10))
        assert cam.bit_depth == 10
        assert (cam.sat_lo, cam.sat_hi) == (40, 923)
        # No bit depth is settable, and thresholds are keyword-only: an old
        # positional bit depth cannot land in sat_lo.
        with pytest.raises(TypeError):
            CameraModel(grid, omega, ResponseCurve.linear(10), bit_depth=10)
        with pytest.raises(TypeError):
            CameraModel(grid, omega, ResponseCurve.linear(10), None, 10)

    def test_rejects_threshold_disorder(self, grid):
        with pytest.raises(ValueError):
            CameraModel(
                grid=grid,
                omega=SensitivityMatrix(grid, np.ones((grid.count, 3))),
                response=ResponseCurve.linear(),
                sat_lo=230,
                sat_hi=10,
            )

    def test_rejects_grid_mismatch(self, grid):
        other = SpectralGrid(300, 10, grid.count)
        with pytest.raises(GridMismatchError):
            CameraModel(
                grid=other,
                omega=SensitivityMatrix(grid, np.ones((grid.count, 3))),
                response=ResponseCurve.linear(),
            )
