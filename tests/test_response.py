import warnings

import numpy as np
import pytest

from camspec import (
    ExposureStack,
    ResponseCurve,
    check_exposure_reciprocity,
    estimate_response,
    synthetic_camera,
)
from camspec.errors import RankDeficiencyError, UnderdeterminedError
from support import (
    cluster_target_codes,
    flat_patch_stack,
    gauge_aligned_code_error,
    levels_for_codes,
    loglog_exponent,
    reciprocity_oracle,
    response_dense_oracle,
)

EXPOSURES = [0.5, 1.0, 2.0]


@pytest.fixture(scope="module")
def gamma_camera():
    from camspec import DEFAULT_GRID

    return synthetic_camera(DEFAULT_GRID, gamma=2.2)


@pytest.fixture(scope="module")
def gamma_stack(gamma_camera):
    levels = levels_for_codes(gamma_camera, cluster_target_codes(), gamma=2.2)
    return flat_patch_stack(gamma_camera, levels, EXPOSURES)


def synthetic_stack(bit_depth: int, n_illuminants: int, n_patches: int, seed: int = 3):
    """Merged stack of a warped gamma-2.2 camera's synthetic calibration set."""
    from camspec import DEFAULT_GRID, generate_synthetic_dataset, synthetic_gamut_warp

    cam = synthetic_camera(DEFAULT_GRID, 2.2, gamut=synthetic_gamut_warp(0.8, 0.06),
                           bit_depth=bit_depth)
    data = generate_synthetic_dataset(cam, n_illuminants, n_patches, EXPOSURES, seed)
    samples = np.concatenate([s.samples for s in data.stacks], axis=0)
    return ExposureStack(data.stacks[0].exposures, samples, bit_depth, cam.sat_lo, cam.sat_hi)


@pytest.fixture(scope="module")
def synthetic_8bit():
    return synthetic_stack(8, 2, 24)


@pytest.fixture(scope="module")
def synthetic_10bit():
    return synthetic_stack(10, 1, 8)


class TestExposureStack:
    def test_rejects_out_of_range_codes(self):
        with pytest.raises(ValueError, match="codes"):
            ExposureStack(np.array([1.0, 2.0]), np.full((2, 2, 3), 300))

    def test_single_exposure_is_structurally_valid(self):
        stack = ExposureStack(np.array([1.0]), np.full((2, 1, 3), 100))
        assert stack.n_exposures == 1
        assert stack.triplet_valid.all()

    def test_flags_follow_thresholds(self):
        samples = np.array([[[5, 128, 240]], [[100, 100, 100]]])
        stack = ExposureStack(np.array([1.0]), samples)
        assert not stack.triplet_valid[0, 0]
        assert stack.triplet_valid[1, 0]
        np.testing.assert_array_equal(stack.channel_valid[0, 0], [False, True, False])


class TestEstimateResponse:
    def test_rejects_single_distinct_exposure(self):
        stack = ExposureStack(np.array([1.0, 1.0]), np.full((4, 2, 3), 100))
        with pytest.raises(UnderdeterminedError, match="distinct exposures"):
            estimate_response(stack)

    def test_linear_camera_recovery_proportional(self):
        from camspec import DEFAULT_GRID

        cam = synthetic_camera(DEFAULT_GRID, gamma=1.0)
        levels = levels_for_codes(cam, cluster_target_codes(), gamma=1.0)
        stack = flat_patch_stack(cam, levels, EXPOSURES)
        fit = estimate_response(stack)
        z = np.arange(20, 221)
        for k in range(3):
            g = fit.g_inv[k, z]
            # every code pair: recovered exposure ratio vs code ratio
            rel = np.abs((g[:, None] / g[None, :]) / (z[:, None] / z[None, :]) - 1.0)
            assert rel.max() < 0.02

    def test_gamma22_exponent_recovered(self, gamma_stack):
        fit = estimate_response(gamma_stack)
        slopes = loglog_exponent(fit)
        np.testing.assert_allclose(slopes, 2.2, atol=0.05)

    def test_gamma22_curve_within_two_codes(self, gamma_camera, gamma_stack):
        fit = estimate_response(gamma_stack)
        errors = gauge_aligned_code_error(fit, gamma_camera.response)
        assert errors.max() < 2.0

    def test_table_finite_and_strictly_increasing(self, gamma_stack):
        fit = estimate_response(gamma_stack)
        assert np.isfinite(fit.ln_e).all()
        assert (np.diff(fit.ln_e, axis=1) > 0).all()

    def test_all_saturated_channel_errors(self):
        # Every sample is over-saturated in one channel, which taints the
        # triplets; the error must name the deficient channel(s).
        samples = np.full((6, 2, 3), 120)
        samples[:, :, 2] = 250
        stack = ExposureStack(np.array([1.0, 2.0]), samples)
        with pytest.raises(UnderdeterminedError, match="b"):
            estimate_response(stack)

    def test_zero_smoothness_is_underdetermined(self, gamma_stack):
        # Codes 0 and 255 have zero hat weight, so no data row reaches them.
        with pytest.raises(
            UnderdeterminedError,
            match=r"^response system underdetermined for channel\(s\) r, g, b: "
            r"smoothness_lambda = 0 .*raise smoothness_lambda$",
        ):
            estimate_response(gamma_stack, smoothness_lambda=0.0)

    def test_patches_that_never_change_code_leave_the_slope_free(self):
        # Two samples per patch, but each patch shows one code at both
        # exposures: the data equations then hold for any slope.
        samples = np.repeat(np.arange(60, 180, 20)[:, None, None], 2, axis=1).repeat(3, axis=2)
        samples[0, 1, 2] = 70  # blue's first patch reaches two codes
        with pytest.raises(
            UnderdeterminedError,
            match=r"^response system underdetermined for channel\(s\) r, g: no patch reaches "
            r"two codes, so the slope is free; add exposures$",
        ):
            estimate_response(ExposureStack(np.array([1.0, 2.0]), samples))

    def test_exposure_scale_gauge_invariance(self, gamma_camera, gamma_stack):
        fit1 = estimate_response(gamma_stack)
        scaled = ExposureStack(
            gamma_stack.exposures * 7.5,
            gamma_stack.samples,
            gamma_stack.bit_depth,
            gamma_stack.sat_lo,
            gamma_stack.sat_hi,
        )
        fit2 = estimate_response(scaled)
        np.testing.assert_allclose(fit1.ln_e, fit2.ln_e, atol=1e-9)

    def test_fully_saturated_patch_does_not_change_solution(self, gamma_stack):
        fit1 = estimate_response(gamma_stack)
        extra = np.concatenate(
            [gamma_stack.samples, np.full((1, gamma_stack.n_exposures, 3), 255)], axis=0
        )
        fit2 = estimate_response(
            ExposureStack(gamma_stack.exposures, extra, gamma_stack.bit_depth,
                          gamma_stack.sat_lo, gamma_stack.sat_hi)
        )
        np.testing.assert_allclose(fit1.ln_e, fit2.ln_e, atol=1e-9)

    def test_sample_mask_restricts_fit(self, gamma_camera, gamma_stack):
        mask = np.ones((gamma_stack.n_patches, gamma_stack.n_exposures), dtype=bool)
        fit_all = estimate_response(gamma_stack, sample_mask=mask)
        fit_plain = estimate_response(gamma_stack)
        np.testing.assert_array_equal(fit_all.ln_e, fit_plain.ln_e)
        mask[:, 2] = False  # drop one exposure; still two distinct left
        fit_masked = estimate_response(gamma_stack, sample_mask=mask)
        assert not np.allclose(fit_masked.ln_e, fit_plain.ln_e)


class TestAgainstDenseOracle:
    """The patch-eliminated normal-equation solve against the dense system
    with one column per patch (tests/support.py). A large smoothness weight
    is where an anchor kept as a penalty row, or no refinement, fails."""

    # 10-bit stacks stop at lam = 500: at 5e4, lstsq solves of the 10-bit
    # system, the oracle's included, are good only to about 1e-9.
    @pytest.mark.parametrize(
        "case, lam",
        [pytest.param(case, 50.0, id=case) for case in
         ("gamma", "synthetic", "synthetic-masked", "ten-bit", "ten-bit-masked")]
        + [pytest.param(case, lam, id=f"{case}-lam{lam:g}")
           for case in ("gamma", "synthetic", "synthetic-masked") for lam in (5.0, 500.0, 5e4)]
        + [pytest.param("ten-bit-masked", lam, id=f"ten-bit-masked-lam{lam:g}")
           for lam in (5.0, 500.0)],
    )
    def test_matches_dense_system_with_patch_unknowns(self, request, case, lam):
        mask = None
        if case == "gamma":
            stack = request.getfixturevalue("gamma_stack")
        elif case.startswith("ten-bit"):
            stack = request.getfixturevalue("synthetic_10bit")
        else:
            stack = request.getfixturevalue("synthetic_8bit")
        if case.endswith("masked"):
            rng = np.random.default_rng(5)
            mask = rng.random((stack.n_patches, stack.n_exposures)) < 0.7
        fit = estimate_response(stack, sample_mask=mask, smoothness_lambda=lam)
        want = response_dense_oracle(stack, lam, mask)
        assert np.abs(fit.ln_e - want).max() <= 1e-9

    @pytest.mark.parametrize("fixture", ["synthetic_8bit", "synthetic_10bit"])
    def test_refinement_certificate_refuses_an_inaccurate_solve(self, request, fixture):
        # At this weight cond(A^T A) is far beyond 1/eps; the refinement
        # step is 0.07-2 in ln g^-1 on these stacks.
        with pytest.raises(RankDeficiencyError, match=r"failed its certificate: refinement step"):
            estimate_response(request.getfixturevalue(fixture), smoothness_lambda=1e8)


class TestPatchElimination:
    """Patches with too few usable samples carry no information once their
    log-exposure is eliminated; they must drop out without a trace."""

    @pytest.mark.parametrize("kept", [0, 1])
    def test_patch_masked_to_few_samples_equals_dropping_it(self, synthetic_8bit, kept):
        stack = synthetic_8bit
        j = int(np.flatnonzero(stack.triplet_valid.all(axis=1))[0])
        mask = np.ones((stack.n_patches, stack.n_exposures), dtype=bool)
        mask[j, kept:] = False
        fit = estimate_response(stack, sample_mask=mask)
        dropped = estimate_response(ExposureStack(
            stack.exposures, np.delete(stack.samples, j, axis=0),
            stack.bit_depth, stack.sat_lo, stack.sat_hi,
        ))
        assert np.abs(fit.ln_e - dropped.ln_e).max() <= 1e-9

    def test_patch_without_usable_sample_raises_no_warning(self, synthetic_8bit):
        mask = np.ones((synthetic_8bit.n_patches, synthetic_8bit.n_exposures), dtype=bool)
        mask[::3] = False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = estimate_response(synthetic_8bit, sample_mask=mask)
        assert np.isfinite(fit.ln_e).all()

    def test_one_sample_per_patch_is_underdetermined_in_every_channel(self, synthetic_8bit):
        # Each patch alone pins only its own log-exposure, so the data says
        # nothing about g.
        mask = np.zeros((synthetic_8bit.n_patches, synthetic_8bit.n_exposures), dtype=bool)
        mask[:, 1] = True
        with pytest.raises(
            UnderdeterminedError,
            match=r"^response system underdetermined for channel\(s\) r, g, b: "
            r"not enough unsaturated samples$",
        ):
            estimate_response(synthetic_8bit, sample_mask=mask)

    def test_error_messages_unchanged(self):
        # With sat_lo = 0, blue's code 0 is usable but has zero hat weight,
        # so only blue lacks data rows.
        samples = np.full((6, 2, 3), 120)
        samples[:, 1, :2] = 160
        samples[:, :, 2] = 0
        with pytest.raises(
            UnderdeterminedError,
            match=r"^response system underdetermined for channel\(s\) b: "
            r"not enough unsaturated samples$",
        ):
            estimate_response(ExposureStack(np.array([1.0, 2.0]), samples, 8, 0, 230))
        with pytest.raises(
            UnderdeterminedError,
            match=r"^response estimation needs >= 2 distinct exposures, got 1$",
        ):
            estimate_response(ExposureStack(np.array([1.0, 1.0]), np.full((4, 2, 3), 100)))


class TestReciprocity:
    def test_oracle_round_trip_is_quantization_limited(self, gamma_camera, gamma_stack):
        report = check_exposure_reciprocity(gamma_stack, gamma_camera.response)
        assert report.n_pairs.sum() > 100
        # Ratios of exact bin centers differ from exposure ratios only through
        # quantization; half-a-code slack on each factor bounds the deviation.
        assert report.max_abs_deviation.max() < 0.35
        assert report.mean_abs_deviation.max() < 0.06

    def test_duplicated_exposure_gives_zero_deviation(self, gamma_camera):
        levels = levels_for_codes(gamma_camera, np.linspace(40, 200, 6), gamma=2.2)
        stack = flat_patch_stack(gamma_camera, levels, [1.0, 1.0])
        report = check_exposure_reciprocity(stack, gamma_camera.response)
        np.testing.assert_array_equal(report.max_abs_deviation, 0.0)

    def test_wrong_curve_shows_large_deviation(self, gamma_camera, gamma_stack):
        # Identity (linear) curve on gamma-2.2 data is a negative control.
        wrong = ResponseCurve.linear()
        report = check_exposure_reciprocity(gamma_stack, wrong)
        assert report.max_abs_deviation.max() > 0.10

    def test_no_valid_pairs_errors(self, gamma_camera):
        samples = np.full((3, 2, 3), 255)
        stack = ExposureStack(np.array([1.0, 2.0]), samples)
        with pytest.raises(UnderdeterminedError, match="pairs"):
            check_exposure_reciprocity(stack, gamma_camera.response)

    def test_matches_loop_oracle_with_per_channel_saturation(self, gamma_camera):
        # Random codes make validity differ between red and green; blue sits
        # above sat_hi everywhere and has no valid pair.
        rng = np.random.default_rng(12)
        exposures = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
        samples = rng.integers(0, 256, size=(40, exposures.size, 3))
        samples[:, :, 2] = 240
        stack = ExposureStack(exposures, samples)
        report = check_exposure_reciprocity(stack, gamma_camera.response)
        want = reciprocity_oracle(samples, exposures, gamma_camera.response.ln_e, 10, 230)
        for k, (worst, mean, count) in enumerate(want):
            assert report.n_pairs[k] == count
            np.testing.assert_array_equal(report.max_abs_deviation[k], worst)
            np.testing.assert_array_equal(report.mean_abs_deviation[k], mean)
        assert report.n_pairs[0] != report.n_pairs[1] and report.n_pairs[0] > 0
        assert np.isnan(report.max_abs_deviation[2]) and np.isnan(report.mean_abs_deviation[2])
