import tracemalloc
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
from camspec import response
from camspec.errors import RankDeficiencyError, UnderdeterminedError
from support import (
    cluster_target_codes,
    flat_patch_stack,
    gauge_aligned_code_error,
    gram_five_diagonals,
    levels_for_codes,
    loglog_exponent,
    masked_stack,
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


@pytest.fixture(scope="module")
def synthetic_8bit_wide():
    """More active patches than codes, so the patch block is eliminated."""
    stack = synthetic_stack(8, 12, 32)
    assert np.unique(np.nonzero(stack.triplet_valid)[0]).size >= 2**8 - 1
    return stack


class TestExposureStack:
    def test_rejects_out_of_range_codes(self):
        with pytest.raises(ValueError, match="codes"):
            ExposureStack(np.array([1.0, 2.0]), np.full((2, 2, 3), 300))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_times(self, bad):
        with pytest.raises(ValueError, match="exposure times must be finite and positive"):
            ExposureStack([0.5, bad], np.full((1, 2, 3), 100))

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

    def test_twelve_bit_gamma22_recovery(self):
        # Criterion 3's stack and bounds at 12 bits, codes scaled by 4095/255.
        from camspec import DEFAULT_GRID

        scale = (2**12 - 1) / 255
        lo, hi = round(20 * scale), round(220 * scale)
        cam = synthetic_camera(DEFAULT_GRID, gamma=2.2, bit_depth=12)
        levels = levels_for_codes(cam, cluster_target_codes() * scale, gamma=2.2)
        fit = estimate_response(flat_patch_stack(cam, levels, EXPOSURES))
        np.testing.assert_allclose(loglog_exponent(fit, lo, hi), 2.2, atol=0.05)
        assert gauge_aligned_code_error(fit, cam.response, lo, hi).max() < 2.0 * scale

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


class TestAgainstDenseOracle:
    """The patch-eliminated normal-equation solve against the dense system
    with one column per patch (tests/support.py). A large smoothness weight
    is where an anchor kept as a penalty row, or no refinement, fails.
    Every case but "more-patches" has fewer active patches than free codes,
    so it eliminates the code block instead."""

    # 10-bit stacks stop at lam = 500: at 5e4, lstsq solves of the 10-bit
    # system, the oracle's included, are good only to about 1e-9.
    @pytest.mark.parametrize(
        "case, lam",
        [pytest.param(case, 50.0, id=case) for case in
         ("gamma", "synthetic", "synthetic-masked", "ten-bit", "ten-bit-masked", "anchor-code")]
        + [pytest.param(case, lam, id=f"{case}-lam{lam:g}")
           for case in ("gamma", "synthetic", "synthetic-masked") for lam in (5.0, 500.0, 5e4)]
        + [pytest.param("ten-bit-masked", lam, id=f"ten-bit-masked-lam{lam:g}")
           for lam in (5.0, 500.0)]
        + [pytest.param("more-patches", lam, id=f"more-patches-lam{lam:g}") for lam in (50.0, 5e4)],
    )
    def test_matches_dense_system_with_patch_unknowns(self, request, case, lam):
        mask = None
        if case == "gamma":
            stack = request.getfixturevalue("gamma_stack")
        elif case.startswith("ten-bit"):
            stack = request.getfixturevalue("synthetic_10bit")
        elif case == "more-patches":
            stack = request.getfixturevalue("synthetic_8bit_wide")
        else:
            stack = request.getfixturevalue("synthetic_8bit")
        if case == "anchor-code":  # samples at the anchor code still inform their patch
            samples = stack.samples.copy()
            samples[:4, 1] = 2**stack.bit_depth // 2
            stack = ExposureStack(stack.exposures, samples, stack.bit_depth, stack.sat_lo, stack.sat_hi)
        if case.endswith("masked"):
            rng = np.random.default_rng(5)
            mask = rng.random((stack.n_patches, stack.n_exposures)) < 0.7
        # The oracle skips the triplets outside the mask; the library sees
        # them set to a saturated code.
        want = response_dense_oracle(stack, lam, mask)
        if mask is not None:
            stack = masked_stack(stack, mask)
        fit = estimate_response(stack, smoothness_lambda=lam)
        assert np.abs(fit.ln_e - want).max() <= 1e-9

    @pytest.mark.parametrize("fixture", ["synthetic_8bit", "synthetic_10bit"])
    def test_refinement_certificate_refuses_an_inaccurate_solve(self, request, fixture):
        # At this weight cond(A^T A) is far beyond 1/eps; the refinement
        # step is 0.07-2 in ln g^-1 on these stacks.
        with pytest.raises(RankDeficiencyError, match=r"failed its certificate: refinement step"):
            estimate_response(request.getfixturevalue(fixture), smoothness_lambda=1e8)

    @pytest.mark.parametrize("fixture, builder", [("synthetic_8bit_wide", "_dense_solver"),
                                                  ("synthetic_10bit", "_code_block_solver")])
    def test_certificate_refuses_a_perturbed_first_solve(self, request, monkeypatch,
                                                         fixture, builder):
        # The first solve's blue table is off by 1e-3 at code 1. The
        # refinement step takes exactly that back, so the certificate reads 1e-3.
        build = getattr(response, builder)

        def perturbed(systems):
            solve, calls = build(systems), []

            def first_off(rs):
                out = solve(rs)
                if not calls:
                    out[-1][1] += 1e-3
                calls.append(rs)
                return out

            return first_off

        monkeypatch.setattr(response, builder, perturbed)
        with pytest.raises(RankDeficiencyError, match=r"^response solve for channel b failed its "
                           r"certificate: refinement step 0\.001 > 1e-05 in ln g\^-1"):
            estimate_response(request.getfixturevalue(fixture))


def band_stack(lo: int, hi: int, bit_depth: int = 8, n_patches: int = 16) -> ExposureStack:
    """Codes of a gamma-2.2 camera at exposures 0.9, 1 and 1.1, clipped to
    [lo, hi]; the first patch reaches lo and the last reaches hi."""
    zmax = 2**bit_depth - 1
    t = np.array([0.9, 1.0, 1.1])
    level = (np.linspace(lo, hi, n_patches) / zmax) ** 2.2
    lin = level[:, None, None] * t[:, None] * np.array([1.0, 0.96, 1.04])
    codes = np.clip(np.round(zmax * lin ** (1 / 2.2)), lo, hi).astype(int)
    return ExposureStack(t, codes, bit_depth, 1, zmax - 1)


def spy_on(monkeypatch, builder: str) -> list:
    """Record the systems each build of ``builder`` gets and its solve calls."""
    seen = []
    build = getattr(response, builder)

    def spy(systems):
        solve = build(systems)
        calls = []
        seen.append((systems, solve, calls))

        def recorded(rs):
            out = solve(rs)
            calls.append((rs, out))
            return out

        return recorded

    monkeypatch.setattr(response, builder, spy)
    return seen


BANDS = [(20, 60, 8), (60, 127, 8), (128, 200, 8), (129, 200, 8), (200, 240, 8), (300, 700, 10)]


class TestSolvedRange:
    """The solve runs on the codes the data reach, widened to hold the anchor
    and to whole banded blocks; the codes outside are the linear extension
    of its end codes."""

    @pytest.mark.parametrize("bits", [4, 8, 10])
    def test_range_holds_data_and_anchor_and_whole_blocks(self, bits):
        n = 2**bits
        anchor = n // 2
        for lo in range(1, n - 1, 1 if bits < 10 else 7):
            for hi in range(lo, n - 1, 1 if bits < 10 else 5):
                first, m = response._solved_range(lo, hi, anchor, n)
                if (first, m) == (0, n):
                    continue
                assert 1 <= first <= min(lo, anchor - 2)
                assert max(hi, anchor + 2) <= first + m - 1 <= n - 2
                assert m % (1 << (m.bit_length() // 2)) == 0  # whole _sweep blocks

    @pytest.mark.parametrize("lo, hi, bits", BANDS, ids=[f"{a}-{b}-{c}bit" for a, b, c in BANDS])
    def test_band_matches_dense_system(self, monkeypatch, lo, hi, bits):
        seen = spy_on(monkeypatch, "_code_block_solver")
        stack = band_stack(lo, hi, bits)
        fit = estimate_response(stack)
        assert np.abs(fit.ln_e - response_dense_oracle(stack)).max() <= 1e-9
        [(systems, _, _)] = seen
        assert systems[0].code_w2.size < 2**bits  # a solve on part of the code range

    @pytest.mark.parametrize("lo, hi, bits", BANDS, ids=[f"{a}-{b}-{c}bit" for a, b, c in BANDS])
    def test_codes_outside_the_reached_range_are_linear(self, lo, hi, bits):
        n = 2**bits
        ln_e = estimate_response(band_stack(lo, hi, bits)).ln_e
        z = np.arange(1, n - 1)
        outside = (z <= min(lo, n // 2)) | (z >= max(hi, n // 2))
        assert np.abs(np.diff(ln_e, 2, axis=1)[:, outside]).max() <= 1e-12

    def test_more_patches_than_range_codes_solve_densely(self, monkeypatch):
        # 100 patches: at least the range's 71 free codes, fewer than 255.
        dense = spy_on(monkeypatch, "_dense_solver")
        block = spy_on(monkeypatch, "_code_block_solver")
        stack = band_stack(60, 127, n_patches=100)
        fit = estimate_response(stack)
        assert not block and len(dense) == 1
        systems = dense[0][0]
        assert all(72 - 1 <= s.n_patches < 2**8 - 1 for s in systems)
        assert systems[0].code_w2.size == 72
        assert np.abs(fit.ln_e - response_dense_oracle(stack)).max() <= 1e-9

    def test_first_block_solution_equals_a_later_solve(self, monkeypatch, synthetic_10bit):
        seen = spy_on(monkeypatch, "_code_block_solver")
        estimate_response(synthetic_10bit)
        [(_, solve, [(rs, first), _])] = seen
        for got, want in zip(solve(rs), first, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_data_reaching_codes_1_to_n_minus_2_solve_the_full_range(self, monkeypatch):
        seen = spy_on(monkeypatch, "_code_block_solver")
        estimate_response(band_stack(1, 254), smoothness_lambda=20.0)
        [(systems, _, _)] = seen
        for s in systems:
            assert s.code_w2.size == 2**8 and s.anchor == 2**7
            np.testing.assert_array_equal(s.sw, 20.0 * response.hat_weights(2**8)[1:-1])


@pytest.fixture(scope="module")
def fit_s10_stack():
    """The fit-s10 benchmark's calibration set, every unsaturated sample: in
    each channel P = 320 active patches against m = 896 solved codes, so
    P >= m / 3 and the P x P capacitances weigh beside the (m, 3, P + 1) block."""
    return synthetic_stack(10, 10, 32, seed=42)


def arrays_in(obj) -> list:
    """Every ndarray that obj holds through lists, tuples and closures."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in arrays_in(item)]
    cells = getattr(obj, "__closure__", None) or ()
    return [a for cell in cells for a in arrays_in(cell.cell_contents)]


class TestLeanCodeBlock:
    """The code-block path uses Y = B^-1 C once, to build each capacitance,
    and then drops it: later solves apply B^-1 to C K^-1 C^T u instead."""

    def test_all_sample_ten_bit_stack_matches_the_dense_oracle(self, monkeypatch, fit_s10_stack):
        seen = spy_on(monkeypatch, "_code_block_solver")
        fit = estimate_response(fit_s10_stack)
        [(systems, _, _)] = seen
        m = systems[0].code_w2.size
        assert all(m / 3 <= s.n_patches < m - 1 for s in systems)
        assert np.abs(fit.ln_e - response_dense_oracle(fit_s10_stack)).max() <= 1e-9
        monkeypatch.setattr(response, "_code_block_solver", response._dense_solver)
        assert np.abs(fit.ln_e - estimate_response(fit_s10_stack).ln_e).max() <= 1e-12

    def test_no_m_by_p_array_stays_between_solves(self, monkeypatch, fit_s10_stack):
        seen = spy_on(monkeypatch, "_code_block_solver")
        estimate_response(fit_s10_stack)
        [(systems, solve, calls)] = seen
        assert len(calls) == 2
        m, p = systems[0].code_w2.size, min(s.n_patches for s in systems)
        kept = arrays_in(solve)
        assert len(kept) > len(systems)  # the factor's and the capacitances
        assert max(a.size for a in kept) < m * p

    def test_peak_memory_is_the_block_and_the_capacitances(self, monkeypatch, fit_s10_stack):
        # The block of C with a column to spare, the three P x P
        # capacitances and one P x P temporary, plus 1 MiB for the factor,
        # the systems' per-sample arrays and the right-hand sides (about
        # 0.6 MB here). A (P, n_exp, P) gather per capacitance breaks it.
        seen = spy_on(monkeypatch, "_code_block_solver")
        estimate_response(fit_s10_stack)  # so the traced call makes no first-call imports
        [(systems, _, _)] = seen
        m, ps = systems[0].code_w2.size, [s.n_patches for s in systems]
        bound = 8 * (m * len(systems) * (max(ps) + 1) + sum(p * p for p in ps) + max(ps) ** 2)
        tracemalloc.start()
        try:
            estimate_response(fit_s10_stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound + 2**20


class TestDenseGram:
    def test_gram_equals_the_five_diagonal_assembly(self, monkeypatch, synthetic_8bit_wide):
        # Bit for bit, signed zeros included: the dense solve sees the same matrix.
        seen = []
        build = response._dense_solver

        def capture(systems):
            seen.extend(systems)
            return build(systems)

        monkeypatch.setattr(response, "_dense_solver", capture)
        estimate_response(synthetic_8bit_wide)
        assert len(seen) == 3
        for system in seen:
            got, want = system.gram(), gram_five_diagonals(system)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
            assert (got == 0.0).any()


class TestOnePathPerStack:
    """One builder solves all three channels, also when the channels differ
    in active patches."""

    @pytest.mark.parametrize("fixture, builder", [("synthetic_8bit", "_code_block_solver"),
                                                  ("synthetic_8bit_wide", "_dense_solver")])
    def test_channels_with_different_active_patches(self, request, monkeypatch, fixture,
                                                    builder):
        # With sat_lo = 0 a channel at code 0 keeps its triplet valid but has
        # hat weight 0: one active patch leaves red and two more leave blue.
        stack = request.getfixturevalue(fixture)
        j = np.flatnonzero(stack.triplet_valid.all(axis=1))[:3]
        samples = stack.samples.copy()
        samples[j[0], :, 0] = 0
        samples[j[1:], :, 2] = 0
        stack = ExposureStack(stack.exposures, samples, stack.bit_depth, 0, stack.sat_hi)
        seen = spy_on(monkeypatch, builder)
        fit = estimate_response(stack)
        [(systems, _, _)] = seen
        assert len({s.n_patches for s in systems}) == 3
        assert np.abs(fit.ln_e - response_dense_oracle(stack)).max() <= 1e-9


class TestPatchElimination:
    """Patches with too few usable samples carry no information once their
    log-exposure is eliminated; they must drop out without a trace."""

    @pytest.mark.parametrize("kept", [0, 1])
    def test_patch_masked_to_few_samples_equals_dropping_it(self, synthetic_8bit, kept):
        stack = synthetic_8bit
        j = int(np.flatnonzero(stack.triplet_valid.all(axis=1))[0])
        mask = np.ones((stack.n_patches, stack.n_exposures), dtype=bool)
        mask[j, kept:] = False
        fit = estimate_response(masked_stack(stack, mask))
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
            fit = estimate_response(masked_stack(synthetic_8bit, mask))
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
            estimate_response(masked_stack(synthetic_8bit, mask))

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

    def test_stack_masked_to_nothing_lacks_samples_in_every_channel(self, synthetic_8bit):
        mask = np.zeros((synthetic_8bit.n_patches, synthetic_8bit.n_exposures), dtype=bool)
        with pytest.raises(
            UnderdeterminedError,
            match=r"^response system underdetermined for channel\(s\) r, g, b: "
            r"not enough unsaturated samples$",
        ):
            estimate_response(masked_stack(synthetic_8bit, mask))

    def test_refusal_comes_before_any_solver_is_built(self, monkeypatch):
        def no_solver(systems):
            raise AssertionError("a solver was built for an underdetermined stack")

        monkeypatch.setattr(response, "_dense_solver", no_solver)
        monkeypatch.setattr(response, "_code_block_solver", no_solver)
        samples = np.full((6, 2, 3), 120)
        samples[:, 1, :2] = 160
        samples[:, :, 2] = 0  # blue: usable (sat_lo = 0) but zero hat weight
        with pytest.raises(UnderdeterminedError, match=r"channel\(s\) b: not enough"):
            estimate_response(ExposureStack(np.array([1.0, 2.0]), samples, 8, 0, 230))


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
