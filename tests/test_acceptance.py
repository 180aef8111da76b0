"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a PASS/FAIL line through the conftest hook so a full run
reads as a checklist.
"""

import csv
import json

import numpy as np
import pytest

from camspec import (
    DEFAULT_GRID,
    MeasurementSet,
    PipelineConfig,
    Saturation,
    build_basis,
    classify_saturation,
    cross_validate,
    estimate_constrained,
    estimate_pinv,
    estimate_response,
    evaluate,
    fit_gamut_map,
    generate_synthetic_dataset,
    interpolated_code,
    run_two_stage,
    simulate_pixel,
    synthetic_camera,
    synthetic_gamut_warp,
)
from camspec import Kind, SpectralCurve, apply_response
from camspec.gamut import apply_gamut_map_batch
from camspec.synthetic import camera_in_basis_span, spanning_database
from support import (
    cluster_target_codes,
    eq1_pixel_oracle,
    flat_patch_stack,
    gauge_aligned_code_error,
    levels_for_codes,
    loglog_exponent,
    run_cli,
    smooth_spectra,
    tree_digest,
)

GRID = DEFAULT_GRID


@pytest.fixture(scope="module")
def span_setup():
    db, parents = spanning_database(GRID, d=6)
    basis = build_basis(db, 6)
    rng = np.random.default_rng(3)
    omega = np.stack(
        [rng.uniform(0.2, 1.0, 6) @ parents[k] for k in range(3)], axis=1
    )
    omega *= 0.25 / omega.max()
    return parents, basis, omega


def probe_spectra(rng, n):
    return smooth_spectra(rng, n, GRID.wavelengths, widths=(8.0, 35.0))


def test_criterion_01_forward_model_oracle_equivalence():
    """criterion 1: simulate_pixel equals a direct forward-equation evaluation
    on 1000 random (camera, spectrum, exposure) cases, exact after quantization."""
    rng = np.random.default_rng(1001)
    cameras = []
    for i in range(20):
        warp = None
        if i % 2:
            warp = synthetic_gamut_warp(
                scale=float(rng.uniform(0.5, 1.2)),
                strength=float(rng.uniform(0.02, 0.12)),
                seed=i,
            )
        cameras.append(
            synthetic_camera(
                GRID,
                gamma=float(rng.uniform(1.0, 2.6)),
                gamut=warp,
                peak=float(rng.uniform(0.15, 0.4)),
            )
        )
    for case in range(1000):
        cam = cameras[case % len(cameras)]
        light = SpectralCurve(GRID, rng.uniform(0, 1, GRID.count), Kind.ILLUMINANT)
        surface = SpectralCurve(GRID, rng.uniform(0, 1, GRID.count), Kind.REFLECTANCE)
        exposure = float(rng.uniform(0.05, 5.0))
        gamut_dict = None
        if cam.gamut is not None:
            gamut_dict = {
                "affine": cam.gamut.affine,
                "centers": cam.gamut.centers,
                "weights": cam.gamut.weights,
                "width": cam.gamut.kernel_width,
            }
        expected = eq1_pixel_oracle(
            cam.omega.channels, cam.response.ln_e, gamut_dict,
            light.values, surface.values, exposure,
        )
        got = simulate_pixel(cam, light, surface, exposure)
        np.testing.assert_array_equal(got, expected)


def test_criterion_02_exposure_reciprocity():
    """criterion 2: linear-response cameras satisfy intensity ratio == exposure
    ratio to 1e-9 before quantization and within 1 code after."""
    rng = np.random.default_rng(2002)
    for peak in (0.1, 0.25, 0.5):
        cam = synthetic_camera(GRID, gamma=1.0, peak=peak)
        checked = 0
        for _ in range(400):
            e_small, e_big = np.sort(rng.uniform(0.1, 4.0, size=2))
            ratio = float(e_small / e_big)
            s = float(rng.uniform(0.005, 1.0))
            pre_small = interpolated_code(s * e_small, cam.response, 0)
            pre_big = interpolated_code(s * e_big, cam.response, 0)
            if pre_small < 1.0 or pre_big >= 255.0:
                continue
            assert abs(pre_small / pre_big - ratio) <= 1e-9 * ratio
            z_small = apply_response(s * e_small, cam.response, 0)
            z_big = apply_response(s * e_big, cam.response, 0)
            assert abs(z_small - ratio * z_big) <= 1.0
            checked += 1
        assert checked > 100


def test_criterion_03_response_recovery():
    """criterion 3: gamma-2.2 recovery from 24 patches x 3 exposures, noise
    free: exponent 2.2 +/- 0.05 and curve within 2 codes over [20, 220]."""
    cam = synthetic_camera(GRID, gamma=2.2)
    levels = levels_for_codes(cam, cluster_target_codes(), gamma=2.2)
    assert levels.size == 24
    stack = flat_patch_stack(cam, levels, [0.5, 1.0, 2.0])
    assert stack.n_exposures == 3
    fit = estimate_response(stack)
    slopes = loglog_exponent(fit)
    assert np.all(np.abs(slopes - 2.2) <= 0.05)
    errors = gauge_aligned_code_error(fit, cam.response, 20, 220)
    assert errors.max() < 2.0


def test_criterion_04_sensitivity_recovery(span_setup):
    """criterion 4: in-span truth with N = 4d rows recovers to 1e-6 of peak
    noise free; at 1% noise RMSE < 5% of peak with a nonnegative estimate."""
    _, basis, omega = span_setup
    n_rows = 4 * basis.d
    rng = np.random.default_rng(404)
    p = probe_spectra(rng, n_rows)
    clean = MeasurementSet(GRID, p, p @ omega, np.ones(n_rows, dtype=bool))
    fit = estimate_constrained(clean, basis)
    assert np.abs(fit.omega_hat.channels - omega).max() < 1e-6 * omega.max()

    for seed in range(5):
        noisy_rng = np.random.default_rng(500 + seed)
        p = probe_spectra(noisy_rng, n_rows)
        y = (p @ omega) * (1.0 + 0.01 * noisy_rng.normal(size=(n_rows, 3)))
        noisy = MeasurementSet(GRID, p, y, np.ones(n_rows, dtype=bool))
        fit = estimate_constrained(noisy, basis)
        rmse = np.sqrt(np.mean((fit.omega_hat.channels - omega) ** 2))
        assert rmse < 0.05 * omega.max()
        assert fit.omega_hat.channels.min() >= 0.0


def test_criterion_05_noise_fragility_of_pseudo_inverse(span_setup):
    """criterion 5: over 100 seeded 1%-noise trials the constrained estimator
    beats the pseudo-inverse in recovery RMSE at least 95 times."""
    _, basis, omega = span_setup
    n_rows = 3 * GRID.count
    wins = 0
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        p = smooth_spectra(rng, n_rows, GRID.wavelengths)
        y = (p @ omega) * (1.0 + 0.01 * rng.normal(size=(n_rows, 3)))
        m = MeasurementSet(GRID, p, y, np.ones(n_rows, dtype=bool))
        pinv = np.stack([estimate_pinv(m, k) for k in range(3)], axis=1)
        constrained = estimate_constrained(m, basis).omega_hat.channels
        rmse_pinv = np.sqrt(np.mean((pinv - omega) ** 2))
        rmse_con = np.sqrt(np.mean((constrained - omega) ** 2))
        wins += rmse_con < rmse_pinv
    assert wins >= 95


def test_criterion_06_cross_validation(span_setup):
    """criterion 6: 10-fold cross-validation: sigma < 1e-9 on noise-free data;
    with 1% noise sigma > 0 and mu within 5% of the single fit."""
    _, basis, omega = span_setup
    rng = np.random.default_rng(606)
    p = probe_spectra(rng, 50)
    clean = MeasurementSet(GRID, p, p @ omega, np.ones(50, dtype=bool))
    report = cross_validate(clean, basis, folds=10, seed=0)
    assert report.sigma.max() < 1e-9

    y = (p @ omega) * (1.0 + 0.01 * rng.normal(size=(50, 3)))
    noisy = MeasurementSet(GRID, p, y, np.ones(50, dtype=bool))
    report = cross_validate(noisy, basis, folds=10, seed=0)
    single = estimate_constrained(noisy, basis)
    assert report.sigma.max() > 0.0
    deviation = np.abs(report.mu.channels - single.omega_hat.channels).max()
    assert deviation < 0.05 * single.omega_hat.channels.max()


def test_criterion_07_gamut_map_quality():
    """criterion 7: ridge-0 RBF interpolates training data to 1e-8 of range;
    cubic-warp held-out error < 1e-2 of range; identity data recovers a
    near-identity map (held-out deviation < 1e-6 relative)."""
    rng = np.random.default_rng(707)
    s = rng.uniform(0.0, 1.0, size=(40, 3))
    e = s + 0.2 * np.sin(3.0 * s)
    result = fit_gamut_map(s, e, max_centers=40, ridge=0.0)
    assert result.training_max_abs.max() / (e.max() - e.min()) < 1e-8

    axis = np.linspace(0.1, 1.0, 5)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)

    def warp(x):
        return x + 0.15 * (x - 0.55) ** 3

    result = fit_gamut_map(pts, warp(pts))
    held = rng.uniform(0.15, 0.95, size=(400, 3))
    value_range = warp(pts).max() - warp(pts).min()
    err = np.abs(apply_gamut_map_batch(result.map, held) - warp(held)).max()
    assert err / value_range < 1e-2

    s_id = rng.uniform(0.05, 1.0, size=(40, 3))
    result = fit_gamut_map(s_id, s_id.copy())
    held = rng.uniform(0.05, 1.0, size=(400, 3))
    out = apply_gamut_map_batch(result.map, held)
    assert np.abs((out - held) / held).max() < 1e-6


def test_criterion_08_two_stage_end_to_end(span_setup):
    """criterion 8: full synthetic round trip with a nonlinear gamut map:
    held-out unsaturated prediction RMSE < 3 codes per channel, saturated
    pixels reported separately and never mixed into unsaturated statistics."""
    parents, basis, _ = span_setup
    warp = synthetic_gamut_warp(scale=0.83, strength=0.06, seed=5)
    truth = camera_in_basis_span(GRID, parents, gamma=2.2, gamut=warp)
    data = generate_synthetic_dataset(truth, 10, 32, [0.5, 1.0, 2.0], seed=42)
    est = run_two_stage(data, PipelineConfig(), basis=basis)
    held = generate_synthetic_dataset(truth, 5, 16, [0.6, 1.3], seed=999)
    report = evaluate(est, held, disjoint_from_training=True)

    assert report.unsaturated is not None
    assert (report.unsaturated.rmse < 3.0).all()
    assert report.saturated is not None and report.saturated.count > 0
    # recompute unsaturated statistics from the scatter rows: no saturated row
    # may contribute
    err = (report.predicted - report.measured).astype(float)
    for k in range(3):
        rows = (~report.is_saturated) & (report.channel == k)
        np.testing.assert_allclose(
            np.sqrt((err[rows] ** 2).mean()), report.unsaturated.rmse[k], rtol=1e-12
        )
    assert (report.unsaturated.count + report.saturated.count) * 3 == report.measured.size


def test_criterion_09_saturation_classification_exhaustive():
    """criterion 9: the 10/230 thresholds reproduce exactly over an exhaustive
    sweep of all 256 codes in each channel position."""
    for position in range(3):
        for code in range(256):
            triplet = [128, 128, 128]
            triplet[position] = code
            flags = classify_saturation(triplet, 10, 230)
            expected = (
                Saturation.UNDER if code < 10
                else Saturation.OVER if code > 230
                else Saturation.VALID
            )
            assert flags.channels[position] is expected
            others = [flags.channels[i] for i in range(3) if i != position]
            assert all(f is Saturation.VALID for f in others)
            assert flags.any_saturated == (expected is not Saturation.VALID)


def test_criterion_10_cli_determinism(tmp_path):
    """criterion 10: every CLI command rerun with identical inputs and seed
    produces identical artifacts (timestamps live only in the manifest)."""
    data_dir = tmp_path / "data"
    assert run_cli("synth", "--out", str(data_dir), "--seed", "11",
                   "--warp-strength", "0.05") == 0

    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "schema": 1,
        "illuminant": str(data_dir / "illuminants.csv"),
        "reflectances": str(data_dir / "reflectances.csv"),
        "exposures": [0.5, 1.0],
    }))

    rng = np.random.default_rng(10)
    s = rng.uniform(0.05, 1.0, size=(30, 3))
    gamut_samples = tmp_path / "gamut_samples.csv"
    with open(gamut_samples, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["S_r", "S_g", "S_b", "E_r", "E_g", "E_b"])
        for row in np.hstack([s, s + 0.05 * np.sin(3 * s)]):
            writer.writerow([repr(float(v)) for v in row])

    from camspec import io
    from camspec.synthetic import spanning_database as _sdb

    db, parents = _sdb(GRID, d=6)
    db_manifest = io.save_database(tmp_path / "db", db)
    rng2 = np.random.default_rng(11)
    p = probe_spectra(rng2, 24)
    omega = np.stack([rng2.uniform(0.2, 1.0, 6) @ parents[k] for k in range(3)], axis=1)
    m = MeasurementSet(GRID, p, p @ omega, np.ones(24, dtype=bool))
    radiance, table = io.save_measurement_set(tmp_path / "mset", m)

    commands = {
        "synth": ["synth", "--seed", "11", "--warp-strength", "0.05"],
        "simulate": ["simulate", "--camera", str(data_dir / "truth_camera.json"),
                     "--scene", str(scene)],
        "fit-response": ["fit-response", "--stack", str(data_dir / "stack_000.csv")],
        "fit-sensitivity": ["fit-sensitivity", "--radiance", str(radiance),
                            "--measurements", str(table), "--database", str(db_manifest),
                            "--seed", "0"],
        "fit-gamut": ["fit-gamut", "--samples", str(gamut_samples)],
        "pipeline": ["pipeline", "--dataset", str(data_dir / "dataset.json"),
                     "--seed", "0"],
        "evaluate": ["evaluate", "--camera", str(data_dir / "truth_camera.json"),
                     "--dataset", str(data_dir / "dataset.json"), "--disjoint", "no"],
        "export-chromaticity": ["export-chromaticity",
                                "--camera", str(data_dir / "truth_camera.json"),
                                "--dataset", str(data_dir / "dataset.json")],
    }
    for name, argv in commands.items():
        out_a = tmp_path / f"{name}-a"
        out_b = tmp_path / f"{name}-b"
        assert run_cli(*argv, "--out", str(out_a)) == 0, name
        assert run_cli(*argv, "--out", str(out_b)) == 0, name
        digest_a = tree_digest(out_a)
        assert digest_a, name
        assert digest_a == tree_digest(out_b), name
