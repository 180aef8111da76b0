import re

import numpy as np
import pytest

from camspec import (
    DEFAULT_GRID,
    MeasurementSet,
    SensitivityBasis,
    SensitivityDatabase,
    SensitivityMatrix,
    SpectralGrid,
    build_basis,
    cross_validate,
    estimate_constrained,
    estimate_pinv,
    synthetic_database,
)
from camspec.errors import (
    ConvergenceError,
    RankDeficiencyError,
    UnderdeterminedError,
)
from camspec.synthetic import spanning_database
from support import smooth_spectra, synthetic_database_loop

GRID = DEFAULT_GRID
M = GRID.count


@pytest.fixture(scope="module")
def span():
    db, parents = spanning_database(GRID, d=6)
    return db, parents, build_basis(db, 6)


def omega_in_span(parents, seed=3, peak=0.25):
    rng = np.random.default_rng(seed)
    cols = np.stack([rng.uniform(0.2, 1.0, size=parents.shape[1]) @ parents[k] for k in range(3)], axis=1)
    return cols * (peak / cols.max())


def measurement_set(omega, n_rows, seed, noise=0.0):
    rng = np.random.default_rng(seed)
    p = smooth_spectra(rng, n_rows, GRID.wavelengths)
    i_lin = p @ omega
    if noise:
        i_lin = i_lin * (1.0 + noise * rng.normal(size=i_lin.shape))
    return MeasurementSet(GRID, p, i_lin, np.ones(n_rows, dtype=bool))


def _cv_outcome(m, basis) -> dict:
    """``cross_validate``'s report arrays, or the type and message of its error."""
    try:
        report = cross_validate(m, basis)
    except ConvergenceError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"mu": report.mu.channels, "sigma": report.sigma, "fold_rmse": report.fold_rmse}


class TestSyntheticDatabase:
    """The stand-in database, built in one pass, against the loop that drew
    and evaluated one curve at a time (tests/support.py)."""

    @pytest.mark.parametrize("grid", [GRID, SpectralGrid(400.0, 20.0, 17)], ids=["default", "coarse"])
    @pytest.mark.parametrize("n_entries", [2, 24])
    @pytest.mark.parametrize("seed", [0, 1, 7, 23, 34])  # seed 34: no side lobe in 2 entries
    def test_synthetic_database_equals_the_loop(self, grid, n_entries, seed):
        db = synthetic_database(grid, n_entries, seed)
        want = synthetic_database_loop(grid, n_entries, seed)
        assert [name for name, _ in db.entries] == [f"synthcam-{i:03d}" for i in range(n_entries)]
        for (_, omega), cols in zip(db.entries, want, strict=True):
            np.testing.assert_array_equal(omega.channels, cols)


class TestBuildBasis:
    def test_rank_one_database(self):
        curve = np.exp(-0.5 * ((GRID.wavelengths - 550) / 40.0) ** 2)
        entry = SensitivityMatrix(GRID, np.tile(curve[:, None], (1, 3)))
        db = SensitivityDatabase(tuple((f"cam{i}", entry) for i in range(5)), GRID)
        basis = build_basis(db, 1)
        for k in range(3):
            unit = curve / np.linalg.norm(curve)
            assert min(
                np.abs(basis.bases[k][0] - unit).max(),
                np.abs(basis.bases[k][0] + unit).max(),
            ) < 1e-10
        np.testing.assert_allclose(basis.captured_variance, 1.0, atol=1e-12)

    def test_full_rank_reconstructs_exactly(self):
        db = synthetic_database(GRID, n_entries=12, seed=2)
        basis = build_basis(db, 12)
        for k in range(3):
            x = db.stacked(k)
            recon = (x @ basis.bases[k].T) @ basis.bases[k]
            assert np.abs(recon - x).max() < 1e-9

    def test_truncated_reconstruction_matches_svd_oracle(self):
        db = synthetic_database(GRID, n_entries=24, seed=5)
        d = 6
        basis = build_basis(db, d)
        for k in range(3):
            x = db.stacked(k)
            # Independent truncated-SVD oracle, straight from numpy.
            u, s, vt = np.linalg.svd(x, full_matrices=False)
            oracle = u[:, :d] @ np.diag(s[:d]) @ vt[:d]
            oracle_rmse = np.sqrt(((x - oracle) ** 2).mean(axis=1))
            recon = (x @ basis.bases[k].T) @ basis.bases[k]
            got_rmse = np.sqrt(((x - recon) ** 2).mean(axis=1))
            np.testing.assert_allclose(got_rmse, oracle_rmse, atol=1e-12)

    def test_rows_orthonormal(self):
        basis = build_basis(synthetic_database(GRID, 24, seed=1), 6)
        for k in range(3):
            gram = basis.bases[k] @ basis.bases[k].T
            assert np.abs(gram - np.eye(6)).max() < 1e-10

    @pytest.mark.parametrize("d", [0, -1, 100])
    def test_dimension_out_of_range(self, d):
        db = synthetic_database(GRID, 8, seed=0)
        with pytest.raises(ValueError):
            build_basis(db, d)

    @pytest.mark.parametrize("bases, captured", [
        (np.zeros((3, 0, M)), np.ones(3)),
        (np.zeros((3, 6, 20)), np.ones(3)),
        (np.zeros((2, 6, M)), np.ones(3)),
        (np.zeros((6, M)), np.ones(3)),
        (np.zeros((3, 6, M)), np.ones(4)),
    ])
    def test_refuses_arrays_of_the_wrong_shape(self, bases, captured):
        shape = bases.shape if captured.shape == (3,) else captured.shape
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            SensitivityBasis(GRID, bases, captured)


class TestEstimatePinv:
    def test_spectral_spike_rows_return_intensities(self):
        omega = omega_in_span(spanning_database(GRID, d=6)[1])
        m = MeasurementSet(GRID, np.eye(M), omega.copy(), np.ones(M, dtype=bool))
        for k in range(3):
            np.testing.assert_allclose(estimate_pinv(m, k), omega[:, k], atol=1e-10)

    def test_noise_free_recovery(self, span):
        _, parents, _ = span
        omega = omega_in_span(parents)
        m = measurement_set(omega, 3 * M, seed=10)
        for k in range(3):
            rmse = np.sqrt(np.mean((estimate_pinv(m, k) - omega[:, k]) ** 2))
            assert rmse < 1e-8

    def test_noise_makes_pinv_lose_to_constrained(self, span):
        _, parents, basis = span
        omega = omega_in_span(parents)
        wins = 0
        trials = 20
        for t in range(trials):
            m = measurement_set(omega, 3 * M, seed=500 + t, noise=0.01)
            pv = np.stack([estimate_pinv(m, k) for k in range(3)], axis=1)
            cf = estimate_constrained(m, basis)
            rmse_p = np.sqrt(np.mean((pv - omega) ** 2))
            rmse_c = np.sqrt(np.mean((cf.omega_hat.channels - omega) ** 2))
            wins += rmse_c < rmse_p
        assert wins >= trials - 1

    def test_rank_deficient_recommends_constrained(self, span):
        _, parents, _ = span
        omega = omega_in_span(parents)
        rng = np.random.default_rng(4)
        shapes = smooth_spectra(rng, 3, GRID.wavelengths, noise_floor=0.0)
        p = shapes[rng.integers(0, 3, size=2 * M)] * rng.uniform(0.5, 1.5, size=(2 * M, 1))
        m = MeasurementSet(GRID, p, p @ omega, np.ones(2 * M, dtype=bool))
        with pytest.raises(RankDeficiencyError, match="constrained"):
            estimate_pinv(m, 0)

    def test_too_few_rows(self, span):
        _, parents, _ = span
        omega = omega_in_span(parents)
        m = measurement_set(omega, M - 1, seed=3)
        with pytest.raises(UnderdeterminedError):
            estimate_pinv(m, 0)


class TestEstimateConstrained:
    def test_in_span_noise_free_recovery(self, span):
        _, parents, basis = span
        omega = omega_in_span(parents)
        m = measurement_set(omega, 24, seed=11)
        fit = estimate_constrained(m, basis)
        assert np.abs(fit.omega_hat.channels - omega).max() < 1e-6 * omega.max()
        assert (fit.omega_hat.channels >= 0).all()

    def test_d1_matches_scalar_projection(self):
        curve = np.exp(-0.5 * ((GRID.wavelengths - 550) / 50.0) ** 2) + 0.05
        entry = SensitivityMatrix(GRID, np.tile(curve[:, None], (1, 3)))
        db = SensitivityDatabase(tuple((f"c{i}", entry) for i in range(3)), GRID)
        basis = build_basis(db, 1)
        rng = np.random.default_rng(12)
        p = smooth_spectra(rng, 10, GRID.wavelengths)
        y = p @ (0.4 * np.tile(curve[:, None], (1, 3)))  # all-positive data
        m = MeasurementSet(GRID, p, y, np.ones(10, dtype=bool))
        fit = estimate_constrained(m, basis)
        for k in range(3):
            a_col = p @ basis.bases[k][0]
            c_closed = float(a_col @ y[:, k] / (a_col @ a_col))
            # solver may return the mirrored sign pair; compare the curve
            np.testing.assert_allclose(
                fit.omega_hat.channels[:, k], c_closed * basis.bases[k][0], atol=1e-8
            )

    def test_negativity_forcing_data_is_clipped_feasibly(self, span):
        _, parents, basis = span
        # Target curve inside the span but with a genuinely negative region.
        mix = np.array([1.0, -0.8, 0.6, 0.2, 0.1, 0.05])
        target = np.stack([mix @ parents[k] for k in range(3)], axis=1)
        assert target.min() < -1e-3
        rng = np.random.default_rng(13)
        p = smooth_spectra(rng, 30, GRID.wavelengths)
        y = p @ target
        m = MeasurementSet(GRID, p, y, np.ones(30, dtype=bool))
        fit = estimate_constrained(m, basis)
        assert fit.omega_hat.channels.min() >= 0.0
        negative_channels = [k for k in range(3) if target[:, k].min() < -1e-3]
        assert negative_channels
        for k in range(3):
            a = p @ basis.bases[k].T
            unconstrained_resid = np.linalg.lstsq(a, y[:, k], rcond=None)[1]
            resid_unc = float(np.sqrt(unconstrained_resid[0])) if unconstrained_resid.size else 0.0
            resid_con = fit.residual_rms[k] * np.sqrt(30)
            assert resid_con >= resid_unc - 1e-12
            if k in negative_channels:
                assert resid_con > 1e-6  # constraint is genuinely active

    def test_interior_optimum_equals_unconstrained(self, span):
        _, parents, basis = span
        omega = omega_in_span(parents)
        assert omega.min() > 0
        m = measurement_set(omega, 40, seed=14)
        fit = estimate_constrained(m, basis)
        for k in range(3):
            a = m.p @ basis.bases[k].T
            c_unc, *_ = np.linalg.lstsq(a, m.i_linear[:, k], rcond=None)
            np.testing.assert_allclose(
                fit.omega_hat.channels[:, k], basis.bases[k].T @ c_unc, atol=1e-8
            )

    def test_masked_rows_do_not_contribute(self, span):
        _, parents, basis = span
        omega = omega_in_span(parents)
        m_full = measurement_set(omega, 30, seed=15, noise=0.02)
        valid = np.ones(30, dtype=bool)
        valid[[3, 7, 20]] = False
        masked = MeasurementSet(GRID, m_full.p, m_full.i_linear, valid)
        removed = MeasurementSet(
            GRID, m_full.p[valid], m_full.i_linear[valid], np.ones(int(valid.sum()), bool)
        )
        fit_masked = estimate_constrained(masked, basis)
        fit_removed = estimate_constrained(removed, basis)
        np.testing.assert_array_equal(
            fit_masked.omega_hat.channels, fit_removed.omega_hat.channels
        )
        # On this set one fold meets the lsi verification fault that the
        # nnls fix (ROADMAP item 1) mends; masked rows must not change
        # that outcome either.
        cv_masked, cv_removed = (_cv_outcome(m, basis) for m in (masked, removed))
        assert re.fullmatch(
            r"ConvergenceError: lsi failed verification: max constraint violation 0\.000e\+00 "
            r"\(tol 1\.0e-10\), KKT residual \d\.\d{3}e-\d\d \(tol 1\.0e-08\)",
            cv_masked["error"],
        )
        assert cv_masked.keys() == cv_removed.keys()
        for key, value in cv_masked.items():
            np.testing.assert_array_equal(value, cv_removed[key])

    def test_residual_monotone_in_basis_dimension(self, span):
        db, parents, _ = span
        omega = omega_in_span(parents)
        m = measurement_set(omega, 40, seed=16, noise=0.05)
        prev = None
        for d in (2, 3, 4, 5, 6):
            fit = estimate_constrained(m, build_basis(db, d))
            total = float(np.linalg.norm(fit.residual_rms))
            if prev is not None:
                assert total <= prev + 1e-10
            prev = total

    def test_too_few_valid_rows(self, span):
        _, parents, basis = span
        omega = omega_in_span(parents)
        m = measurement_set(omega, 4, seed=17)
        with pytest.raises(UnderdeterminedError):
            estimate_constrained(m, basis)


class TestCrossValidate:
    def test_noise_free_folds_agree(self, span):
        _, parents, basis = span
        omega = omega_in_span(parents)
        m = measurement_set(omega, 40, seed=20)
        report = cross_validate(m, basis, folds=10, seed=0)
        assert report.sigma.max() < 1e-9
        single = estimate_constrained(m, basis)
        np.testing.assert_allclose(
            report.mu.channels, single.omega_hat.channels, atol=1e-9
        )

    def test_leave_one_out(self, span):
        _, parents, basis = span
        omega = omega_in_span(parents)
        m = measurement_set(omega, 12, seed=21)
        report = cross_validate(m, basis, folds=12, seed=0)
        assert report.fold_rmse.shape == (12, 3)
        assert np.isfinite(report.fold_rmse).all()

    def test_noise_spreads_folds(self, span):
        _, parents, basis = span
        omega = omega_in_span(parents)
        m = measurement_set(omega, 60, seed=22, noise=0.01)
        report = cross_validate(m, basis, folds=10, seed=0)
        single = estimate_constrained(m, basis)
        assert report.sigma.max() > 0.0
        held_out_median = float(np.median(report.fold_rmse))
        training = float(np.median(single.residual_rms))
        assert held_out_median <= 3.0 * training

    def test_deterministic_given_seed(self, span):
        _, parents, basis = span
        omega = omega_in_span(parents)
        m = measurement_set(omega, 30, seed=23, noise=0.01)
        r1 = cross_validate(m, basis, folds=5, seed=9)
        r2 = cross_validate(m, basis, folds=5, seed=9)
        np.testing.assert_array_equal(r1.sigma, r2.sigma)
        np.testing.assert_array_equal(r1.fold_rmse, r2.fold_rmse)

    def test_fewer_rows_than_folds(self, span):
        _, parents, basis = span
        omega = omega_in_span(parents)
        m = measurement_set(omega, 8, seed=24)
        with pytest.raises(UnderdeterminedError):
            cross_validate(m, basis, folds=10)
