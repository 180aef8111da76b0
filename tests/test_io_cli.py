import csv
import json

import numpy as np
import pytest

from camspec import (
    DEFAULT_GRID,
    ExposureStack,
    Kind,
    MeasurementSet,
    PipelineConfig,
    SpectralCurve,
    check_exposure_reciprocity,
    generate_synthetic_dataset,
    synthetic_camera,
    synthetic_database,
    synthetic_gamut_warp,
)
from camspec import io
from camspec.errors import ParseError, SchemaVersionError

GRID = DEFAULT_GRID


class TestSpectralCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        curves = [
            SpectralCurve(GRID, rng.uniform(0, 1, GRID.count), Kind.ILLUMINANT)
            for _ in range(3)
        ]
        path = tmp_path / "spec.csv"
        io.save_spectral_csv(path, curves)
        loaded = io.load_spectral_csv(path, Kind.ILLUMINANT)
        assert len(loaded) == 3
        for a, b in zip(curves, loaded):
            np.testing.assert_array_equal(a.values, b.values)
            assert b.grid == GRID

    def test_decreasing_wavelengths_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wavelength_nm,value\n400,1.0\n390,1.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="strictly increasing"):
            io.load_spectral_csv(path, Kind.ILLUMINANT)

    def test_non_numeric_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wavelength_nm,value\n400,1.0\n410,oops\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"bad\.csv:3"):
            io.load_spectral_csv(path, Kind.ILLUMINANT)

    def test_nonuniform_needs_target_grid(self, tmp_path):
        path = tmp_path / "irr.csv"
        path.write_text(
            "wavelength_nm,value\n400,0.0\n407,0.7\n430,1.0\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match="uniform"):
            io.load_spectral_csv(path, Kind.ILLUMINANT)
        curves = io.load_spectral_csv(path, Kind.ILLUMINANT, target_grid=GRID)
        assert curves[0].grid == GRID
        assert curves[0].values[0] == 0.0  # 400 nm sample
        assert curves[0].values[-1] == 0.0  # outside support


class TestStackCsv:
    def test_round_trip(self, tmp_path):
        truth = synthetic_camera(GRID)
        data = generate_synthetic_dataset(truth, 1, 5, [0.5, 1.0, 2.0], seed=4)
        stack = data.stacks[0]
        path = tmp_path / "stack.csv"
        io.save_stack_csv(path, stack)
        loaded = io.load_stack_csv(path, stack.bit_depth, stack.sat_lo, stack.sat_hi)
        np.testing.assert_array_equal(loaded.samples, stack.samples)
        np.testing.assert_array_equal(loaded.exposures, stack.exposures)

    def test_inconsistent_exposure_sequence_rejected(self, tmp_path):
        path = tmp_path / "stack.csv"
        path.write_text(
            "patch_id,exposure_s,I_r,I_g,I_b\n"
            "0,1.0,10,10,10\n0,2.0,20,20,20\n"
            "1,1.0,10,10,10\n1,4.0,20,20,20\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="exposure sequence"):
            io.load_stack_csv(path)

    def test_interleaved_rows_group_by_patch(self, tmp_path):
        # Rows grouped by exposure rather than by patch load identically.
        path = tmp_path / "stack.csv"
        path.write_text(
            "patch_id,exposure_s,I_r,I_g,I_b\n"
            "a,1.0,10,11,12\nb,1.0,20,21,22\n"
            "a,2.0,30,31,32\nb,2.0,40,41,42\n",
            encoding="utf-8",
        )
        stack = io.load_stack_csv(path)
        np.testing.assert_array_equal(stack.exposures, [1.0, 2.0])
        np.testing.assert_array_equal(stack.samples[0], [[10, 11, 12], [30, 31, 32]])
        np.testing.assert_array_equal(stack.samples[1], [[20, 21, 22], [40, 41, 42]])

    def test_fractional_code_rejected(self, tmp_path):
        path = tmp_path / "stack.csv"
        path.write_text(
            "patch_id,exposure_s,I_r,I_g,I_b\n0,1.0,10.5,11,12\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match="integer code"):
            io.load_stack_csv(path)


class TestCameraJson:
    @pytest.mark.parametrize("with_warp", [False, True])
    def test_round_trip_exact(self, tmp_path, with_warp):
        gamut = synthetic_gamut_warp(scale=0.9, strength=0.05, seed=2) if with_warp else None
        cam = synthetic_camera(GRID, gamma=2.2, gamut=gamut)
        path = tmp_path / "camera.json"
        io.save_camera(path, cam)
        loaded = io.load_camera(path)
        assert loaded.grid == cam.grid
        assert (loaded.bit_depth, loaded.sat_lo, loaded.sat_hi) == (8, 10, 230)
        np.testing.assert_array_equal(loaded.omega.channels, cam.omega.channels)
        np.testing.assert_array_equal(loaded.response.ln_e, cam.response.ln_e)
        if with_warp:
            np.testing.assert_array_equal(loaded.gamut.centers, cam.gamut.centers)
            np.testing.assert_array_equal(loaded.gamut.weights, cam.gamut.weights)
            np.testing.assert_array_equal(loaded.gamut.affine, cam.gamut.affine)
            assert loaded.gamut.kernel_width == cam.gamut.kernel_width
        else:
            assert loaded.gamut is None

    def test_schema_version_checked(self, tmp_path):
        cam = synthetic_camera(GRID)
        path = tmp_path / "camera.json"
        io.save_camera(path, cam)
        doc = json.loads(path.read_text())
        doc["schema"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaVersionError):
            io.load_camera(path)

    def test_exposure_convention_recorded(self, tmp_path):
        cam = synthetic_camera(GRID)
        doc = io.camera_to_dict(cam)
        assert doc["exposure_applied"] == "after_gamut"


class TestDatabaseIo:
    def test_round_trip(self, tmp_path):
        db = synthetic_database(GRID, n_entries=4, seed=3)
        manifest = io.save_database(tmp_path / "db", db)
        loaded = io.load_database(manifest)
        assert len(loaded) == 4
        for (name_a, om_a), (name_b, om_b) in zip(db.entries, loaded.entries):
            assert name_a == name_b
            np.testing.assert_array_equal(om_a.channels, om_b.channels)

    def test_missing_entry_file_listed(self, tmp_path):
        db = synthetic_database(GRID, n_entries=3, seed=3)
        manifest = io.save_database(tmp_path / "db", db)
        (tmp_path / "db" / "synthcam-001.csv").unlink()
        with pytest.raises(ParseError, match="synthcam-001"):
            io.load_database(manifest)


class TestMeasurementSetIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        m = MeasurementSet(
            GRID,
            rng.uniform(0, 1, size=(8, GRID.count)),
            rng.uniform(0, 1, size=(8, 3)),
            rng.uniform(size=8) > 0.3,
        )
        radiance, table = io.save_measurement_set(tmp_path, m)
        loaded = io.load_measurement_set(radiance, table)
        np.testing.assert_array_equal(loaded.p, m.p)
        np.testing.assert_array_equal(loaded.i_linear, m.i_linear)
        np.testing.assert_array_equal(loaded.valid, m.valid)


class TestConfigIo:
    def test_round_trip(self, tmp_path):
        cfg = PipelineConfig(alpha=0.7, basis_dim=5, folds=8, seed=13)
        path = tmp_path / "config.json"
        io.save_config(path, cfg, GRID)
        loaded, grid = io.load_config(path)
        assert loaded == cfg
        assert grid == GRID


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        truth = synthetic_camera(GRID)
        data = generate_synthetic_dataset(truth, 2, 4, [0.5, 1.0], seed=8)
        manifest = io.save_dataset(tmp_path / "ds", data)
        loaded = io.load_dataset(manifest)
        assert len(loaded.illuminants) == 2
        assert len(loaded.reflectances) == 4
        for a, b in zip(data.illuminants, loaded.illuminants):
            np.testing.assert_allclose(a.values, b.values, rtol=1e-12)
        for sa, sb in zip(data.stacks, loaded.stacks):
            np.testing.assert_array_equal(sa.samples, sb.samples)


from support import run_cli, tree_digest  # noqa: E402


class TestCli:
    def test_synth_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("synth", "--out", str(a), "--seed", "5") == 0
        assert run_cli("synth", "--out", str(b), "--seed", "5") == 0
        assert tree_digest(a) == tree_digest(b)

    def test_simulate_zero_illuminant_gives_darkest_codes(self, tmp_path):
        out = tmp_path / "synth"
        run_cli("synth", "--out", str(out), "--seed", "1")
        dark = tmp_path / "dark.csv"
        with open(dark, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["wavelength_nm", "value"])
            for w in GRID.wavelengths:
                writer.writerow([float(w), 0.0])
        scene = tmp_path / "scene.json"
        scene.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "illuminant": "dark.csv",
                    "reflectances": str(out / "reflectances.csv"),
                    "exposures": [0.5, 1.0],
                }
            )
        )
        sim = tmp_path / "sim"
        assert run_cli(
            "simulate", "--camera", str(out / "truth_camera.json"),
            "--scene", str(scene), "--out", str(sim),
        ) == 0
        rows = (sim / "pixels.csv").read_text().strip().splitlines()[1:]
        assert rows
        for row in rows:
            assert row.split(",")[2:] == ["0", "0", "0"]

    def test_pipeline_end_to_end_and_deterministic(self, tmp_path):
        data_dir = tmp_path / "data"
        run_cli("synth", "--out", str(data_dir), "--seed", "7", "--warp-strength", "0.05")
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        assert run_cli(
            "pipeline", "--dataset", str(data_dir / "dataset.json"), "--out", str(out1)
        ) == 0
        assert run_cli(
            "pipeline", "--dataset", str(data_dir / "dataset.json"), "--out", str(out2)
        ) == 0
        assert (out1 / "estimated_camera.json").exists()
        assert (out1 / "diagnostics.json").exists()
        assert tree_digest(out1) == tree_digest(out2)

    def test_pipeline_does_not_mutate_inputs(self, tmp_path):
        data_dir = tmp_path / "data"
        run_cli("synth", "--out", str(data_dir), "--seed", "7")
        before = tree_digest(data_dir, exclude=())
        run_cli("pipeline", "--dataset", str(data_dir / "dataset.json"),
                "--out", str(tmp_path / "out"))
        assert tree_digest(data_dir, exclude=()) == before

    def test_evaluate_writes_report_and_scatter(self, tmp_path):
        data_dir = tmp_path / "data"
        run_cli("synth", "--out", str(data_dir), "--seed", "9")
        est = tmp_path / "est"
        run_cli("pipeline", "--dataset", str(data_dir / "dataset.json"), "--out", str(est))
        ev = tmp_path / "ev"
        assert run_cli(
            "evaluate", "--camera", str(est / "estimated_camera.json"),
            "--dataset", str(data_dir / "dataset.json"), "--disjoint", "no",
            "--out", str(ev),
        ) == 0
        report = json.loads((ev / "evaluation.json").read_text())
        assert report["disjoint_from_training"] is False
        header = (ev / "scatter.csv").read_text().splitlines()[0]
        assert header == "channel,I,I_hat,saturated"

    def test_fit_response_and_reciprocity_outputs(self, tmp_path):
        data_dir = tmp_path / "data"
        run_cli("synth", "--out", str(data_dir), "--seed", "2")
        out = tmp_path / "fr"
        assert run_cli(
            "fit-response", "--stack", str(data_dir / "stack_000.csv"), "--out", str(out)
        ) == 0
        doc = json.loads((out / "response.json").read_text())
        curve = io.response_from_dict(doc)
        assert curve.bit_depth == 8
        assert json.loads((out / "reciprocity.json").read_text())["n_pairs"]

    def test_ten_bit_fit_response_scales_thresholds(self, tmp_path):
        # Without --sat-lo/--sat-hi the 8-bit 10/230 thresholds scale to
        # 40/923; keeping 10/230 would drop 48 of these 83 valid triplets.
        warp = synthetic_gamut_warp(0.8, 0.06)
        truth = synthetic_camera(GRID, 2.2, gamut=warp, bit_depth=10)
        stack = generate_synthetic_dataset(truth, 1, 32, [0.5, 1.0, 2.0], seed=42).stacks[0]
        path = tmp_path / "stack.csv"
        io.save_stack_csv(path, stack)
        loaded = io.load_stack_csv(path, bit_depth=10)
        assert (loaded.sat_lo, loaded.sat_hi) == (40, 923)
        assert int(loaded.triplet_valid.sum()) == 83
        out = tmp_path / "fr"
        assert run_cli(
            "fit-response", "--stack", str(path), "--bit-depth", "10", "--out", str(out)
        ) == 0
        valid = loaded.channel_valid
        pairs = [
            int(sum((valid[:, a, k] & valid[:, b, k]).sum() for a, b in ((0, 1), (0, 2), (1, 2))))
            for k in range(3)
        ]
        assert json.loads((out / "reciprocity.json").read_text())["n_pairs"] == pairs

    def test_diagnostics_report_reciprocity_mean_per_channel(self, tmp_path):
        data_dir = tmp_path / "data"
        run_cli("synth", "--out", str(data_dir), "--seed", "7", "--warp-strength", "0.05")
        out = tmp_path / "fit"
        assert run_cli("pipeline", "--dataset", str(data_dir / "dataset.json"),
                       "--out", str(out)) == 0
        stage1 = json.loads((out / "diagnostics.json").read_text())["stage1"]
        assert "response_fit_residual" not in stage1
        keys = list(stage1)
        assert keys[keys.index("reciprocity_max_abs") + 1] == "reciprocity_mean_abs"
        data = io.load_dataset(data_dir / "dataset.json")
        first = data.stacks[0]
        merged = ExposureStack(
            first.exposures, np.concatenate([s.samples for s in data.stacks]),
            first.bit_depth, first.sat_lo, first.sat_hi,
        )
        cam = io.load_camera(out / "estimated_camera.json")
        report = check_exposure_reciprocity(merged, cam.response)
        assert stage1["reciprocity_mean_abs"] == report.mean_abs_deviation.tolist()
        assert stage1["reciprocity_max_abs"] == report.max_abs_deviation.tolist()

    def test_fit_sensitivity_underdetermined_is_machine_readable(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        m = MeasurementSet(
            GRID,
            rng.uniform(0, 1, size=(4, GRID.count)),
            rng.uniform(0, 1, size=(4, 3)),
            np.ones(4, dtype=bool),
        )
        radiance, table = io.save_measurement_set(tmp_path, m)
        code = run_cli(
            "fit-sensitivity", "--radiance", str(radiance),
            "--measurements", str(table), "--out", str(tmp_path / "out"),
        )
        assert code == 4
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "UnderdeterminedError"
        assert "valid rows" in err["error"]["message"]

    def test_fit_sensitivity_happy_path(self, tmp_path):
        from camspec.sensitivity import spanning_database
        from support import smooth_spectra

        db, parents = spanning_database(GRID, d=6)
        rng = np.random.default_rng(3)
        mix = np.stack([rng.uniform(0.2, 1, 6) @ parents[k] for k in range(3)], axis=1)
        p = smooth_spectra(rng, 24, GRID.wavelengths)
        m = MeasurementSet(GRID, p, p @ mix, np.ones(24, dtype=bool))
        radiance, table = io.save_measurement_set(tmp_path, m)
        db_manifest = io.save_database(tmp_path / "db", db)
        out = tmp_path / "fit"
        assert run_cli(
            "fit-sensitivity", "--radiance", str(radiance), "--measurements", str(table),
            "--database", str(db_manifest), "--d", "6", "--folds", "8",
            "--out", str(out),
        ) == 0
        fitted = io.load_sensitivity_csv(out / "sensitivity.csv")
        np.testing.assert_allclose(fitted.channels, mix, atol=1e-6 * mix.max())

    def test_fit_gamut_happy_path(self, tmp_path):
        rng = np.random.default_rng(4)
        s = rng.uniform(0.05, 1.0, size=(30, 3))
        e = s + 0.05 * np.sin(3 * s)
        samples = tmp_path / "samples.csv"
        with open(samples, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["S_r", "S_g", "S_b", "E_r", "E_g", "E_b"])
            for row in np.hstack([s, e]):
                writer.writerow([repr(float(v)) for v in row])
        out = tmp_path / "fg"
        assert run_cli("fit-gamut", "--samples", str(samples), "--out", str(out)) == 0
        doc = json.loads((out / "gamut.json").read_text())
        gmap = io.gamut_from_dict(doc["gamut"])
        assert gmap.centers.shape[0] == 30

    def test_export_chromaticity(self, tmp_path):
        data_dir = tmp_path / "data"
        run_cli("synth", "--out", str(data_dir), "--seed", "3", "--warp-strength", "0.05")
        out = tmp_path / "chrom"
        assert run_cli(
            "export-chromaticity", "--camera", str(data_dir / "truth_camera.json"),
            "--dataset", str(data_dir / "dataset.json"), "--out", str(out),
        ) == 0
        lines = (out / "chromaticity.csv").read_text().splitlines()
        assert lines[0] == "x,y,region,magnitude"
        assert all(line.split(",")[2] in ("inner", "outer") for line in lines[1:])

    def test_unknown_flag_exits_2(self):
        assert run_cli("synth", "--does-not-exist", "x", "--out", "y") == 2

    def test_schema_mismatch_exits_5(self, tmp_path, capsys):
        bad = tmp_path / "cam.json"
        bad.write_text(json.dumps({"schema": 99}))
        code = run_cli("evaluate", "--camera", str(bad), "--dataset", str(bad),
                       "--out", str(tmp_path / "o"))
        assert code == 5
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["exit_code"] == 5

    def test_malformed_csv_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "stack.csv"
        bad.write_text("not,a,stack\n1,2,3\n")
        code = run_cli("fit-response", "--stack", str(bad), "--out", str(tmp_path / "o"))
        assert code == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "ParseError"

    def test_missing_input_file_exits_3(self, tmp_path, capsys):
        code = run_cli(
            "evaluate", "--camera", str(tmp_path / "nope.json"),
            "--dataset", str(tmp_path / "nope2.json"), "--out", str(tmp_path / "o"),
        )
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"]["exit_code"] == 3

    def test_manifest_written_with_digests(self, tmp_path):
        data_dir = tmp_path / "data"
        run_cli("synth", "--out", str(data_dir), "--seed", "1")
        out = tmp_path / "p"
        run_cli("pipeline", "--dataset", str(data_dir / "dataset.json"), "--out", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "pipeline"
        assert manifest["version"]
        assert str(data_dir / "dataset.json") in manifest["inputs"]
        digest = manifest["inputs"][str(data_dir / "dataset.json")]
        assert digest == io.sha256_of(data_dir / "dataset.json")

    def test_config_env_override(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        io.save_config(cfg_path, PipelineConfig(alpha=0.9, seed=4))
        monkeypatch.setenv("CAMSPEC_CONFIG", str(cfg_path))
        data_dir = tmp_path / "data"
        run_cli("synth", "--out", str(data_dir), "--seed", "7")
        out = tmp_path / "p"
        assert run_cli(
            "pipeline", "--dataset", str(data_dir / "dataset.json"), "--out", str(out)
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["effective_config"]["alpha"] == 0.9
