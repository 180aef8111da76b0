import numpy as np
import pytest

from camspec import (
    CalibrationInput,
    CameraModel,
    DEFAULT_GRID,
    ExposureStack,
    Kind,
    PipelineConfig,
    SensitivityMatrix,
    SpectralCurve,
    build_basis,
    evaluate,
    generate_synthetic_dataset,
    run_two_stage,
    synthetic_camera,
    synthetic_database,
    synthetic_gamut_warp,
)
from camspec.errors import GridMismatchError, PipelineError
from camspec.gamut import apply_gamut_map_batch
from camspec.synthetic import _smooth, camera_in_basis_span, spanning_database
from camspec.spectral import spectral_product
from support import eq1_pixel_oracle, gauge_aligned_code_error, loglog_exponent

GRID = DEFAULT_GRID


@pytest.fixture(scope="module")
def span_basis():
    db, parents = spanning_database(GRID, d=6)
    return parents, build_basis(db, 6)


@pytest.fixture(scope="module")
def identity_setup(span_basis):
    parents, basis = span_basis
    truth = camera_in_basis_span(GRID, parents, gamma=2.2)
    data = generate_synthetic_dataset(truth, 10, 32, [0.5, 1.0, 2.0], seed=42)
    est = run_two_stage(data, PipelineConfig(), basis=basis)
    return truth, data, est, basis


def predicted_tristimulus(camera, dataset):
    rows = []
    for light in dataset.illuminants:
        for surface in dataset.reflectances:
            rows.append(spectral_product(light, surface).values @ camera.omega.channels)
    return np.asarray(rows)


def _smooth_with_np_pad(values, sigma_samples=2.0):
    """The reflectance smoothing as first written: np.pad reflection, kernel built per call."""
    radius = int(np.ceil(3 * sigma_samples))
    x = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-0.5 * (x / sigma_samples) ** 2)
    kernel /= kernel.sum()
    return np.convolve(np.pad(values, radius, mode="reflect"), kernel, mode="valid")


class TestGenerateSyntheticDataset:
    @pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 8, 17, 33, 81])
    def test_smooth_is_bit_identical_to_np_pad_reflection(self, n):
        # Grids shorter than the kernel radius (6) reflect more than once.
        rng = np.random.default_rng(n)
        for _ in range(200):
            values = rng.uniform(0.0, 1.0, size=n)
            assert _smooth(values).tobytes() == _smooth_with_np_pad(values).tobytes()

    def test_same_seed_identical(self):
        truth = synthetic_camera(GRID)
        d1 = generate_synthetic_dataset(truth, 3, 6, [0.5, 1.0], seed=11)
        d2 = generate_synthetic_dataset(truth, 3, 6, [0.5, 1.0], seed=11)
        for a, b in zip(d1.illuminants, d2.illuminants):
            np.testing.assert_array_equal(a.values, b.values)
        for a, b in zip(d1.reflectances, d2.reflectances):
            np.testing.assert_array_equal(a.values, b.values)
        for sa, sb in zip(d1.stacks, d2.stacks):
            np.testing.assert_array_equal(sa.samples, sb.samples)

    def test_different_seed_differs(self):
        truth = synthetic_camera(GRID)
        d1 = generate_synthetic_dataset(truth, 3, 6, [0.5, 1.0], seed=11)
        d2 = generate_synthetic_dataset(truth, 3, 6, [0.5, 1.0], seed=12)
        assert any(
            not np.array_equal(sa.samples, sb.samples)
            for sa, sb in zip(d1.stacks, d2.stacks)
        )

    def test_minimal_single_sample_dataset(self):
        truth = synthetic_camera(GRID)
        data = generate_synthetic_dataset(truth, 1, 1, [1.0], seed=0)
        assert sum(s.n_patches * s.n_exposures for s in data.stacks) == 1
        assert data.stacks[0].samples.shape == (1, 1, 3)

    def test_intensities_match_equation_oracle(self):
        truth = synthetic_camera(GRID, gamma=2.2)
        data = generate_synthetic_dataset(truth, 2, 4, [0.5, 2.0], seed=9)
        for a, light in enumerate(data.illuminants):
            stack = data.stacks[a]
            for j, surface in enumerate(data.reflectances):
                for i, e in enumerate(stack.exposures):
                    expected = eq1_pixel_oracle(
                        truth.omega.channels,
                        truth.response.ln_e,
                        None,
                        light.values,
                        surface.values,
                        float(e),
                    )
                    np.testing.assert_array_equal(stack.samples[j, i], expected)


class TestRunTwoStageIdentityGamut:
    def test_response_recovered_within_two_codes(self, identity_setup):
        truth, _, est, _ = identity_setup
        errors = gauge_aligned_code_error(est.camera.response, truth.response)
        assert errors.max() < 2.0

    def test_sensitivity_recovered_within_five_percent(self, identity_setup):
        truth, _, est, _ = identity_setup
        om_t = truth.omega.channels
        om_e = est.camera.omega.channels
        scale = float((om_e * om_t).sum() / (om_e * om_e).sum())
        rmse = np.sqrt(np.mean((scale * om_e - om_t) ** 2))
        assert rmse < 0.05 * om_t.max()

    def test_stage2_map_near_identity_on_held_out_data(self, identity_setup):
        truth, _, est, _ = identity_setup
        held = generate_synthetic_dataset(truth, 4, 16, [0.7, 1.4], seed=777)
        s_rows = predicted_tristimulus(est.camera, held)
        mapped = apply_gamut_map_batch(est.camera.gamut, s_rows)
        value_range = s_rows.max() - s_rows.min()
        rms_dev = np.sqrt(((mapped - s_rows) ** 2).mean())
        assert rms_dev < 1e-3 * value_range

    def test_deterministic(self, identity_setup, span_basis):
        truth, data, est, basis = identity_setup
        again = run_two_stage(data, PipelineConfig(), basis=basis)
        np.testing.assert_array_equal(est.camera.omega.channels, again.camera.omega.channels)
        np.testing.assert_array_equal(est.camera.response.ln_e, again.camera.response.ln_e)
        np.testing.assert_array_equal(est.camera.gamut.weights, again.camera.gamut.weights)

    def test_diagnostics_counts_consistent(self, identity_setup):
        _, data, est, _ = identity_setup
        n_valid = sum(int(s.triplet_valid.sum()) for s in data.stacks)
        assert est.stage1.inner_count + est.stage1.outer_count == n_valid
        assert est.stage1.inner_count >= PipelineConfig().min_inner

    def test_self_consistency_under_one_code(self, identity_setup):
        _, data, est, _ = identity_setup
        report = evaluate(est, data, disjoint_from_training=False)
        assert report.unsaturated.rmse.max() < 1.0


class TestRunTwoStageSensitivityFit:
    """Stage 1 fits the sensitivity once; cross-validation is not part of the fit."""

    def test_one_constrained_fit_per_channel(self, identity_setup, monkeypatch):
        import camspec.sensitivity

        _, data, _, basis = identity_setup
        calls = []
        lsi = camspec.sensitivity.lsi

        def counted(*args, **kwargs):
            calls.append(args)
            return lsi(*args, **kwargs)

        monkeypatch.setattr(camspec.sensitivity, "lsi", counted)
        run_two_stage(data, PipelineConfig(), basis=basis)
        assert len(calls) == 3

    def test_folds_do_not_change_the_camera(self, identity_setup):
        _, data, est, basis = identity_setup
        one = run_two_stage(data, PipelineConfig(folds=1), basis=basis)
        _assert_same_fit(one, est)

    def test_no_basis_means_the_stand_in_basis(self):
        """``basis=None`` fits on the basis of the stand-in database that the config names."""
        truth = synthetic_camera(GRID, gamut=synthetic_gamut_warp(0.8, 0.06, seed=2))
        data = generate_synthetic_dataset(truth, 6, 24, [0.5, 1.0, 2.0], seed=9)
        cfg = PipelineConfig(seed=3, database_entries=12, basis_dim=5)
        stand_in = synthetic_database(GRID, cfg.database_entries, cfg.seed)
        given = run_two_stage(data, cfg, basis=build_basis(stand_in, cfg.basis_dim))
        _assert_same_fit(given, run_two_stage(data, cfg))


def _assert_same_fit(got, want) -> None:
    """Every table of two fits' cameras and diagnostics is bit-identical."""
    pairs = [
        (got.camera.omega.channels, want.camera.omega.channels),
        (got.camera.response.ln_e, want.camera.response.ln_e),
        (got.camera.gamut.centers, want.camera.gamut.centers),
        (got.camera.gamut.weights, want.camera.gamut.weights),
        (got.camera.gamut.affine, want.camera.gamut.affine),
        (got.camera.gamut.kernel_width, want.camera.gamut.kernel_width),
        (got.stage1.reciprocity.max_abs_deviation, want.stage1.reciprocity.max_abs_deviation),
        (got.stage1.reciprocity.mean_abs_deviation, want.stage1.reciprocity.mean_abs_deviation),
        (got.stage1.reciprocity.n_pairs, want.stage1.reciprocity.n_pairs),
        (got.stage2.gamut_training_rms, want.stage2.gamut_training_rms),
        (got.stage2.gamut_training_max_abs, want.stage2.gamut_training_max_abs),
    ]
    for g, w in pairs:
        np.testing.assert_array_equal(g, w)
    assert (got.stage1.inner_count, got.stage1.outer_count) == (
        want.stage1.inner_count, want.stage1.outer_count)


def warped_data(parents, strength: float):
    warp = synthetic_gamut_warp(scale=0.83, strength=strength, seed=5)
    truth = camera_in_basis_span(GRID, parents, gamma=2.2, gamut=warp)
    return truth, generate_synthetic_dataset(truth, 10, 32, [0.5, 1.0, 2.0], seed=42)


@pytest.fixture(scope="module")
def warped_setup(span_basis):
    parents, basis = span_basis
    truth, data = warped_data(parents, 0.06)
    est = run_two_stage(data, PipelineConfig(), basis=basis)
    return truth, est, data


class TestRunTwoStageNonlinearGamut:
    def test_held_out_prediction_under_three_codes(self, warped_setup):
        truth, est, _ = warped_setup
        held = generate_synthetic_dataset(truth, 5, 16, [0.6, 1.3], seed=999)
        report = evaluate(est, held, disjoint_from_training=True)
        assert report.unsaturated is not None
        assert report.unsaturated.rmse.max() < 3.0

    def test_saturated_split_never_mixes(self, warped_setup):
        truth, est, _ = warped_setup
        held = generate_synthetic_dataset(truth, 5, 16, [0.6, 1.3], seed=999)
        report = evaluate(est, held, disjoint_from_training=True)
        n_rows = report.measured.size
        assert report.saturated is not None
        assert (report.unsaturated.count + report.saturated.count) * 3 == n_rows
        # every scatter row is tagged with its triplet's flag, so recomputing
        # the split from the scatter matches the report
        unsat_rows = ~report.is_saturated
        err = (report.predicted - report.measured).astype(float)
        for k in range(3):
            sel = unsat_rows & (report.channel == k)
            np.testing.assert_allclose(
                np.sqrt((err[sel] ** 2).mean()), report.unsaturated.rmse[k], rtol=1e-12
            )

    def test_fitted_gamut_map_improves_prediction(self, warped_setup):
        truth, est, _ = warped_setup
        held = generate_synthetic_dataset(truth, 5, 16, [0.6, 1.3], seed=999)
        stripped = CameraModel(
            grid=est.camera.grid,
            omega=est.camera.omega,
            response=est.camera.response,
            gamut=None,
            sat_lo=est.camera.sat_lo,
            sat_hi=est.camera.sat_hi,
        )
        with_map = evaluate(est, held).unsaturated.rmse.mean()
        without = evaluate(stripped, held).unsaturated.rmse.mean()
        assert with_map < without

    def test_each_patch_passes_the_gamut_fit_one_input(self, monkeypatch):
        """Every unsaturated sample of a patch gives the gamut fit the same S,
        bit for bit, so the fit sees one run of equal rows per patch. On this
        set, gathering the radiance rows per sample before the product with
        Omega lets BLAS round one patch's rows apart."""
        import camspec.pipeline

        truth = synthetic_camera(GRID, 2.2, gamut=synthetic_gamut_warp(0.8, 0.06, 0))
        data = generate_synthetic_dataset(truth, 10, 32, [0.5, 1.0, 2.0], seed=42)
        seen = []
        fit = camspec.pipeline.fit_gamut_map

        def recorded(s, e, **kwargs):
            seen.append(s)
            return fit(s, e, **kwargs)

        monkeypatch.setattr(camspec.pipeline, "fit_gamut_map", recorded)
        run_two_stage(data, PipelineConfig())
        vq = np.nonzero(np.concatenate([s.triplet_valid for s in data.stacks]))[0]
        (s,) = seen
        assert np.array_equal((s[1:] != s[:-1]).any(axis=1), np.diff(vq) != 0)


class TestRunTwoStageResponse:
    """Exposure scales the gamut map's output (the after-gamut convention),
    so stage 1 fits the response once, on every unsaturated sample: the
    inner-gamut partition, which picks the sensitivity rows, cannot reach it."""

    @pytest.mark.parametrize("alpha, min_inner", [(a, n) for a in (0.5, 0.6, 0.9) for n in (1, 20)])
    def test_response_does_not_depend_on_the_partition(self, span_basis, warped_setup,
                                                       alpha, min_inner):
        _, est, data = warped_setup
        got = run_two_stage(data, PipelineConfig(alpha=alpha, min_inner=min_inner),
                            basis=span_basis[1])
        assert np.array_equal(got.camera.response.ln_e, est.camera.response.ln_e)

    def test_strong_warp_response_with_outer_samples_meets_criterion_3(self, span_basis):
        parents, basis = span_basis
        truth, data = warped_data(parents, 0.12)
        est = run_two_stage(data, PipelineConfig(), basis=basis)
        assert est.stage1.outer_count >= 90  # samples the response fit used, outside the gamut
        response = est.camera.response
        assert gauge_aligned_code_error(response, truth.response, 20, 220).max() < 2.0
        assert np.all(np.abs(loglog_exponent(response) - 2.2) <= 0.05)


class TestRunTwoStageErrors:
    def test_min_inner_above_the_inner_count_is_refused(self, identity_setup):
        _, data, est, basis = identity_setup
        count = est.stage1.inner_count
        with pytest.raises(PipelineError) as info:
            run_two_stage(data, PipelineConfig(min_inner=count + 1), basis=basis)
        assert str(info.value) == (
            f"stage 1: only {count} inner-gamut samples (need >= {count + 1}); "
            "increase alpha (currently 0.6) or add near-neutral patches"
        )

    def test_too_few_inner_gamut_samples(self, span_basis):
        parents, basis = span_basis
        truth = camera_in_basis_span(GRID, parents, gamma=2.2)
        data = generate_synthetic_dataset(truth, 4, 8, [0.5, 1.0, 2.0], seed=1)
        with pytest.raises(PipelineError, match="alpha"):
            run_two_stage(data, PipelineConfig(alpha=0.01), basis=basis)

    def test_mismatched_exposures_across_stacks(self, span_basis):
        parents, basis = span_basis
        truth = camera_in_basis_span(GRID, parents, gamma=2.2)
        data = generate_synthetic_dataset(truth, 2, 8, [0.5, 1.0, 2.0], seed=1)
        other = ExposureStack(
            data.stacks[1].exposures * 3.0, data.stacks[1].samples,
            data.stacks[1].bit_depth, data.stacks[1].sat_lo, data.stacks[1].sat_hi,
        )
        broken = CalibrationInput(
            GRID, data.illuminants, data.reflectances, (data.stacks[0], other)
        )
        with pytest.raises(PipelineError, match="exposure"):
            run_two_stage(broken, PipelineConfig(), basis=basis)


    @pytest.mark.parametrize("field, value, message", [
        ("alpha", "0.6",
         "stage 1 (response): '<' not supported between instances of 'float' and 'str'"),
        ("basis_dim", 100, "stage 1 (sensitivity): basis dimension must be in [1, 24], got 100"),
        ("rbf_ridge", -1.0, "stage 2 (gamut map): ridge must be nonnegative, got -1.0"),
    ])
    def test_failure_inside_a_stage_names_the_stage(self, field, value, message):
        truth = synthetic_camera(GRID)
        data = generate_synthetic_dataset(truth, 6, 16, [0.5, 1.0, 2.0], seed=1)
        with pytest.raises(PipelineError) as info:
            run_two_stage(data, PipelineConfig(**{field: value}))
        assert str(info.value) == message
        assert info.value.__cause__ is not None


class TestEvaluate:
    def test_all_dark_scene_reported_as_saturated_only(self):
        truth = synthetic_camera(GRID)
        dark = SpectralCurve(GRID, np.zeros(GRID.count), Kind.ILLUMINANT)
        surface = SpectralCurve(GRID, np.full(GRID.count, 0.5), Kind.REFLECTANCE)
        stack = ExposureStack(
            np.array([0.5, 1.0]), np.zeros((1, 2, 3), dtype=int),
            truth.bit_depth, truth.sat_lo, truth.sat_hi,
        )
        validation = CalibrationInput(GRID, (dark,), (surface,), (stack,))
        report = evaluate(truth, validation)
        assert report.unsaturated is None
        assert report.saturated is not None
        assert report.saturated.count == 2

    def test_perturbed_channel_has_largest_error(self):
        truth = synthetic_camera(GRID, gamma=2.0)
        data = generate_synthetic_dataset(truth, 4, 12, [0.5, 1.0, 2.0], seed=21)
        for k in range(3):
            channels = truth.omega.channels.copy()
            channels[:, k] *= 1.10
            perturbed = CameraModel(
                grid=GRID,
                omega=SensitivityMatrix(GRID, channels),
                response=truth.response,
                gamut=None,
                sat_lo=truth.sat_lo,
                sat_hi=truth.sat_hi,
            )
            report = evaluate(perturbed, data)
            rmse = report.unsaturated.rmse
            assert rmse[k] == max(rmse)
            assert all(rmse[k] > rmse[j] for j in range(3) if j != k)

    def test_grid_mismatch(self):
        truth = synthetic_camera(GRID)
        other_grid = type(GRID)(380.0, 10.0, GRID.count)
        other_cam = synthetic_camera(other_grid)
        data = generate_synthetic_dataset(truth, 1, 2, [1.0], seed=2)
        with pytest.raises(GridMismatchError):
            evaluate(other_cam, data)

    def test_refuses_data_of_another_bit_depth(self):
        truth = synthetic_camera(GRID)
        ten_bit = synthetic_camera(GRID, bit_depth=10)
        data = generate_synthetic_dataset(ten_bit, 1, 4, [0.5, 1.0], seed=2)
        with pytest.raises(ValueError, match="validation data is 10-bit but the camera is 8-bit"):
            evaluate(truth, data)

    def test_disjoint_flag_recorded(self):
        truth = synthetic_camera(GRID)
        data = generate_synthetic_dataset(truth, 1, 2, [1.0], seed=2)
        assert evaluate(truth, data, disjoint_from_training=True).disjoint_from_training
        assert evaluate(truth, data).disjoint_from_training is None


class TestCalibrationInput:
    def test_rejects_wrong_kinds(self):
        light = SpectralCurve(GRID, np.ones(GRID.count), Kind.ILLUMINANT)
        stack = ExposureStack(np.array([1.0]), np.full((1, 1, 3), 100))
        with pytest.raises(ValueError, match="reflectance"):
            CalibrationInput(GRID, (light,), (light,), (stack,))

    @pytest.mark.parametrize("coding", [(8, 20, 200), (10, None, None)])
    def test_rejects_stacks_that_disagree_on_bit_depth_or_thresholds(self, coding):
        # io.save_dataset writes one bit depth and one pair of thresholds for all stacks.
        light = SpectralCurve(GRID, np.ones(GRID.count), Kind.ILLUMINANT)
        surface = SpectralCurve(GRID, np.full(GRID.count, 0.5), Kind.REFLECTANCE)
        first = ExposureStack(np.array([1.0]), np.full((1, 1, 3), 100))
        other = ExposureStack(np.array([1.0]), np.full((1, 1, 3), 100), *coding)
        with pytest.raises(ValueError, match="stack 1 has"):
            CalibrationInput(GRID, (light, light), (surface,), (first, other))

    def test_rejects_stack_count_mismatch(self):
        light = SpectralCurve(GRID, np.ones(GRID.count), Kind.ILLUMINANT)
        surface = SpectralCurve(GRID, np.full(GRID.count, 0.5), Kind.REFLECTANCE)
        stack = ExposureStack(np.array([1.0]), np.full((1, 1, 3), 100))
        with pytest.raises(ValueError, match="stacks"):
            CalibrationInput(GRID, (light, light), (surface,), (stack,))
