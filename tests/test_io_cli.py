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
    ResponseCurve,
    SensitivityMatrix,
    SpectralCurve,
    SpectralGrid,
    check_exposure_reciprocity,
    generate_synthetic_dataset,
    synthetic_camera,
    synthetic_database,
    synthetic_gamut_warp,
)
from camspec import io
from camspec.pipeline import EvaluationReport
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

    def test_shuffled_rows_group_like_a_loop(self, tmp_path):
        # Patches keep their first-appearance order and rows their file order,
        # as in a plain dict-of-lists grouping.
        rng = np.random.default_rng(9)
        ids = ["p9", "p10", "a", "z", "p1", "b"]
        exposures = [0.5, 1.0, 2.0, 4.0]
        rows = [(pid, e, *rng.integers(0, 256, 3)) for pid in ids for e in exposures]
        order = []
        queues = {pid: [r for r in rows if r[0] == pid] for pid in ids}
        while any(queues.values()):
            pid = rng.choice([k for k, q in queues.items() if q])
            order.append(queues[pid].pop(0))
        path = tmp_path / "stack.csv"
        path.write_text(
            "patch_id,exposure_s,I_r,I_g,I_b\n"
            + "".join(f"{pid},{e},{r},{g},{b}\n" for pid, e, r, g, b in order),
            encoding="utf-8",
        )
        grouped = {}
        for pid, e, r, g, b in order:
            grouped.setdefault(pid, []).append([r, g, b])
        stack = io.load_stack_csv(path)
        np.testing.assert_array_equal(stack.exposures, exposures)
        np.testing.assert_array_equal(stack.samples, np.array(list(grouped.values())))

    def test_header_only_stack_rejected(self, tmp_path):
        path = tmp_path / "stack.csv"
        path.write_text("patch_id,exposure_s,I_r,I_g,I_b\n", encoding="utf-8")
        with pytest.raises(ParseError, match="no samples"):
            io.load_stack_csv(path)

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
        path = tmp_path / "camera.json"
        io.save_camera(path, synthetic_camera(GRID))
        assert json.loads(path.read_text())["exposure_applied"] == "after_gamut"


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


TINY_GRID = SpectralGrid(400.0, 10.0, 3)


def _write_spectral(tmp_path):
    curves = [
        SpectralCurve(TINY_GRID, [0.1, 1 / 3, 2.5e20], Kind.ILLUMINANT),
        SpectralCurve(TINY_GRID, [1e-20, 0.0, 7.0], Kind.ILLUMINANT),
    ]
    io.save_spectral_csv(tmp_path / "spectral.csv", curves, names=["a", "b"])
    return tmp_path / "spectral.csv"


def _write_stack(tmp_path):
    samples = [[[10, 20, 30], [40, 50, 60]], [[0, 128, 255], [7, 8, 9]]]
    io.save_stack_csv(tmp_path / "stack.csv", ExposureStack([0.5, 1.0], samples))
    return tmp_path / "stack.csv"


def _write_sensitivity(tmp_path):
    channels = [[0.1, 0.2, 0.3], [1e-5, 0.5, 1 / 3], [0.0, 1e20, 2.0]]
    io.save_sensitivity_csv(tmp_path / "omega.csv", SensitivityMatrix(TINY_GRID, channels))
    return tmp_path / "omega.csv"


def _write_measurements(tmp_path):
    m = MeasurementSet(
        TINY_GRID, np.ones((2, 3)), [[0.1, 2.0, 1 / 3], [1e-7, 0.0, 5.5]], [True, False]
    )
    return io.save_measurement_set(tmp_path, m)[1]


def _write_scatter(tmp_path):
    report = EvaluationReport(
        None, None,
        channel=np.array([0, 1, 2]),
        measured=np.array([12, 200, 255]),
        predicted=np.array([13, 199, 250]),
        is_saturated=np.array([False, False, True]),
    )
    return io.save_evaluation_report(tmp_path, report)[1]


def _write_chromaticity(tmp_path):
    xy = np.array([[0.3127, 0.329], [1 / 3, 0.6]])
    regions = np.array(["inner", "outer"], dtype=object)
    io.save_chromaticity_csv(tmp_path / "chroma.csv", xy, regions, np.array([0.0, 1.25e-3]))
    return tmp_path / "chroma.csv"


class TestTableBytes:
    """Every table writer's exact output: CRLF rows, repr floats, integer codes."""

    @pytest.mark.parametrize(
        "write, expected",
        [
            pytest.param(
                _write_spectral,
                "wavelength_nm,a,b\r\n400.0,0.1,1e-20\r\n"
                "410.0,0.3333333333333333,0.0\r\n420.0,2.5e+20,7.0\r\n",
                id="spectral",
            ),
            pytest.param(
                _write_stack,
                "patch_id,exposure_s,I_r,I_g,I_b\r\n0,0.5,10,20,30\r\n0,1.0,40,50,60\r\n"
                "1,0.5,0,128,255\r\n1,1.0,7,8,9\r\n",
                id="stack",
            ),
            pytest.param(
                _write_sensitivity,
                "wavelength_nm,omega_r,omega_g,omega_b\r\n400.0,0.1,0.2,0.3\r\n"
                "410.0,1e-05,0.5,0.3333333333333333\r\n420.0,0.0,1e+20,2.0\r\n",
                id="sensitivity",
            ),
            pytest.param(
                _write_measurements,
                "sample_id,I_r,I_g,I_b,valid\r\n0,0.1,2.0,0.3333333333333333,1\r\n"
                "1,1e-07,0.0,5.5,0\r\n",
                id="measurements",
            ),
            pytest.param(
                _write_scatter,
                "channel,I,I_hat,saturated\r\n0,12,13,0\r\n1,200,199,0\r\n2,255,250,1\r\n",
                id="scatter",
            ),
            pytest.param(
                _write_chromaticity,
                "x,y,region,magnitude\r\n0.3127,0.329,inner,0.0\r\n"
                "0.3333333333333333,0.6,outer,0.00125\r\n",
                id="chromaticity",
            ),
        ],
    )
    def test_exact_bytes(self, tmp_path, write, expected):
        assert write(tmp_path).read_bytes() == expected.encode("utf-8")

    @staticmethod
    def _wide(rng, shape):
        """Floats spread log-uniformly over 1e-20 .. 1e20."""
        return 10.0 ** rng.uniform(-20, 20, size=shape) * rng.uniform(1, 10, size=shape)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(21)
        curves = [SpectralCurve(GRID, self._wide(rng, GRID.count), Kind.RADIANCE)
                  for _ in range(4)]
        stack = ExposureStack(
            [0.25, 0.5, 2.0], rng.integers(0, 1024, size=(5, 3, 3)), bit_depth=10
        )
        omega = SensitivityMatrix(GRID, self._wide(rng, (GRID.count, 3)))
        m = MeasurementSet(
            GRID, self._wide(rng, (6, GRID.count)), self._wide(rng, (6, 3)),
            rng.uniform(size=6) > 0.5,
        )
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        io.save_spectral_csv(a / "spectral.csv", curves)
        io.save_spectral_csv(b / "spectral.csv", io.load_spectral_csv(a / "spectral.csv",
                                                                        Kind.RADIANCE))
        io.save_stack_csv(a / "stack.csv", stack)
        io.save_stack_csv(b / "stack.csv", io.load_stack_csv(a / "stack.csv", bit_depth=10))
        io.save_sensitivity_csv(a / "omega.csv", omega)
        io.save_sensitivity_csv(b / "omega.csv", io.load_sensitivity_csv(a / "omega.csv"))
        radiance, table = io.save_measurement_set(a / "m", m)
        io.save_measurement_set(b / "m", io.load_measurement_set(radiance, table))
        assert len(tree_digest(a)) == 5
        assert tree_digest(a) == tree_digest(b)




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
        assert doc["schema"] == 1
        curve = ResponseCurve(doc["bit_depth"], np.asarray(doc["ln_e"], dtype=float))
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
        from camspec.synthetic import spanning_database
        from support import smooth_spectra

        db, parents = spanning_database(GRID, d=6)
        rng = np.random.default_rng(3)
        mix = np.stack([rng.uniform(0.2, 1, 6) @ parents[k] for k in range(3)], axis=1)
        p = smooth_spectra(rng, 24, GRID.wavelengths)
        m = MeasurementSet(GRID, p, p @ mix, np.ones(24, dtype=bool))
        radiance, table = io.save_measurement_set(tmp_path, m)
        db_manifest = io.save_database(tmp_path / "db", db)
        cfg = tmp_path / "cfg.json"
        io.save_config(cfg, PipelineConfig(basis_dim=6, folds=8))
        out = tmp_path / "fit"
        assert run_cli(
            "fit-sensitivity", "--radiance", str(radiance), "--measurements", str(table),
            "--database", str(db_manifest), "--config", str(cfg),
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

    def test_config_env_override(self, synth_dir, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        io.save_config(cfg_path, PipelineConfig(alpha=0.9, seed=4))
        monkeypatch.setenv("CAMSPEC_CONFIG", str(cfg_path))
        for command, build in CLI_RUNS.items():
            out = tmp_path / command
            assert run_cli(command, *build(synth_dir, tmp_path), "--out", str(out)) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            if command in ("simulate", "evaluate"):  # these read no config
                assert str(cfg_path) not in manifest["inputs"]
                assert "effective_config" not in manifest["config"]
                continue
            assert manifest["config"]["effective_config"]["alpha"] == 0.9, command
            # The environment's config file is an input like --config's.
            assert manifest["inputs"][str(cfg_path)] == io.sha256_of(cfg_path)

    def test_synth_uses_the_config_grid(self, tmp_path):
        grid = SpectralGrid(400.0, 20.0, 17)
        cfg = tmp_path / "cfg.json"
        io.save_config(cfg, PipelineConfig(), grid)
        out = tmp_path / "s"
        assert run_cli("synth", "--out", str(out), "--config", str(cfg)) == 0
        assert io.load_dataset(out / "dataset.json").grid == grid
        assert io.load_camera(out / "truth_camera.json").grid == grid

    @pytest.mark.parametrize("command", ["pipeline", "fit-sensitivity", "export-chromaticity"])
    def test_config_grid_must_be_the_data_grid(self, synth_dir, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        io.save_config(cfg, PipelineConfig(), SpectralGrid(380.0, 5.0, 81))
        argv = CLI_RUNS[command](synth_dir, tmp_path)
        out = tmp_path / "o"
        assert run_cli(command, *argv, "--config", str(cfg), "--out", str(out)) == 4
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "GridMismatchError"
        assert "only synth builds on the config grid" in err["message"]
        io.save_config(cfg, PipelineConfig(), GRID)  # the data's own grid is accepted
        assert run_cli(command, *argv, "--config", str(cfg), "--out", str(out)) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--camera", "c.json", "--dataset", "d.json", "--seed", "1"],
            ["simulate", "--camera", "c.json", "--scene", "s.json", "--seed", "1"],
            ["fit-gamut", "--samples", "s.csv", "--seed", "1"],
            # Config fields are set in the config file only.
            ["fit-response", "--stack", "s.csv", "--smoothness", "5"],
            ["fit-sensitivity", "--radiance", "r.csv", "--measurements", "m.csv", "--d", "6"],
            ["fit-gamut", "--samples", "s.csv", "--max-centers", "32"],
            ["export-chromaticity", "--camera", "c.json", "--dataset", "d.json",
             "--alpha", "0.6"],
            ["synth", "--grid-count", "17"],
        ],
        ids=["evaluate-seed", "simulate-seed", "fit-gamut-seed", "fit-response-smoothness",
             "fit-sensitivity-d", "fit-gamut-max-centers", "export-chromaticity-alpha",
             "synth-grid-count"],
    )
    def test_seed_and_config_only_where_used(self, tmp_path, capsys, argv):
        assert run_cli(*argv, "--out", str(tmp_path / "o")) == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestMalformedTables:
    """Malformed tables raise ParseError naming the file, the line and the column."""

    def test_short_measurement_row_exits_3(self, tmp_path, capsys):
        m = MeasurementSet(
            GRID, np.ones((8, GRID.count)), np.ones((8, 3)), np.ones(8, dtype=bool)
        )
        radiance, table = io.save_measurement_set(tmp_path, m)
        lines = table.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        table.write_text("\n".join(lines) + "\n")
        code = run_cli(
            "fit-sensitivity", "--radiance", str(radiance),
            "--measurements", str(table), "--out", str(tmp_path / "out"),
        )
        assert code == 3
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ParseError"
        assert "measurements.csv:3:" in err["message"]
        assert "'valid'" in err["message"]

    @pytest.mark.parametrize("flag", ["0.5", "2", "nan"])
    def test_valid_flag_must_be_zero_or_one(self, tmp_path, flag):
        m = MeasurementSet(
            GRID, np.ones((3, GRID.count)), np.ones((3, 3)), np.ones(3, dtype=bool)
        )
        radiance, table = io.save_measurement_set(tmp_path, m)
        lines = table.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + "," + flag
        table.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"measurements\.csv:4: column 'valid'"):
            io.load_measurement_set(radiance, table)

    @pytest.mark.parametrize("code", ["inf", "nan", "-inf"])
    def test_non_finite_stack_code_exits_3(self, tmp_path, capsys, code):
        stack = tmp_path / "stack.csv"
        stack.write_text(
            "patch_id,exposure_s,I_r,I_g,I_b\n"
            "0,1.0,10,11,12\n0,2.0,20," + code + ",22\n", encoding="utf-8"
        )
        assert run_cli("fit-response", "--stack", str(stack), "--out", str(tmp_path / "o")) == 3
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ParseError"
        assert "stack.csv:3: I_g must be an integer code" in err["message"]


class TestBlankLines:
    """Blank rows are skipped, and every error still names the physical line."""

    SPECTRAL = "wavelength_nm,v\n400,1\n\n"
    STACK = "patch_id,exposure_s,I_r,I_g,I_b\n0,1.0,10,11,12\n\n"

    @pytest.mark.parametrize(
        "body, load, message",
        [
            (SPECTRAL + "410,x\n", io.load_spectral_table, ":4: column 'v': not a number: 'x'"),
            (SPECTRAL + "410\n", io.load_spectral_table, ":4: expected 2 fields, got 1"),
            (SPECTRAL + "\r\n390,1\r\n", io.load_spectral_table,
             ":5: wavelengths must be strictly increasing"),
            (STACK + "0,2.0,20,2.5,22\n", io.load_stack_csv, ":4: I_g must be an integer code"),
            ("\nwavelength,v\n400,1\n410,2\n", io.load_spectral_table,
             ":2: header must start with 'wavelength_nm'"),
            ("\nwavelength_nm,r,g,b\n400,1,1,1\n410,1,1,1\n", io.load_sensitivity_csv,
             ":2: header must be wavelength_nm,omega_r,omega_g,omega_b"),
            ("\n\n" + STACK.replace("patch_id", "patch"), io.load_stack_csv,
             ":3: header must be patch_id,exposure_s"),
        ],
        ids=["number", "width", "order", "stack-code", "spectral-header", "sensitivity-header",
             "stack-header"],
    )
    def test_error_names_the_physical_line(self, tmp_path, body, load, message):
        path = tmp_path / "blank.csv"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load(path)
        assert str(info.value).startswith(f"{path}{message}")

    def test_measurement_valid_flag_after_blank_lines(self, tmp_path):
        m = MeasurementSet(
            GRID, np.ones((3, GRID.count)), np.ones((3, 3)), np.ones(3, dtype=bool)
        )
        radiance, table = io.save_measurement_set(tmp_path, m)
        lines = table.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",2"
        table.write_text("\n".join(lines[:2] + ["", ""] + lines[2:]) + "\n")
        with pytest.raises(ParseError, match=r"measurements\.csv:6: column 'valid'"):
            io.load_measurement_set(radiance, table)

    def test_blank_rows_do_not_change_the_values(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("\n" + self.SPECTRAL + "410,2\n\n", encoding="utf-8")
        wl, names, values = io.load_spectral_table(path)
        np.testing.assert_array_equal(wl, [400.0, 410.0])
        assert names == ["v"]
        np.testing.assert_array_equal(values, [[1.0], [2.0]])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert run_cli("synth", "--out", str(out), "--seed", "1") == 0
    return out


def _edited(src, dst, edit):
    """Write JSON document ``src`` to ``dst`` after ``edit`` changes it in place."""
    doc = json.loads(src.read_text())
    edit(doc)
    dst.write_text(json.dumps(doc))
    return dst


def _camera_without_omega(data, tmp):
    cam = _edited(data / "truth_camera.json", tmp / "cam.json", lambda d: d.pop("omega"))
    return cam, "'omega'", ["evaluate", "--camera", str(cam),
                            "--dataset", str(data / "dataset.json")]


def _camera_grid_without_count(data, tmp):
    cam = _edited(data / "truth_camera.json", tmp / "cam.json", lambda d: d["grid"].pop("count"))
    return cam, "'grid.count'", ["evaluate", "--camera", str(cam),
                                 "--dataset", str(data / "dataset.json")]


def _dataset_without_stacks(data, tmp):
    # Next to the original: the dataset's CSV names are relative to it.
    ds = _edited(data / "dataset.json", data / "no_stacks.json", lambda d: d.pop("stacks"))
    return ds, "'stacks'", ["evaluate", "--camera", str(data / "truth_camera.json"),
                            "--dataset", str(ds)]


def _database_entry_without_file(data, tmp):
    manifest = io.save_database(tmp / "db", synthetic_database(GRID, n_entries=3, seed=3))
    _edited(manifest, manifest, lambda d: d["entries"][1].pop("file"))
    return manifest, "'entries[1].file'", ["pipeline", "--dataset", str(data / "dataset.json"),
                                           "--database", str(manifest)]


def _scene_without_reflectances(data, tmp):
    scene = tmp / "scene.json"
    scene.write_text(json.dumps({"schema": 1, "illuminant": str(data / "illuminants.csv"),
                                 "exposures": [1.0]}))
    return scene, "'reflectances'", ["simulate", "--camera", str(data / "truth_camera.json"),
                                     "--scene", str(scene)]


def _list_document(data, tmp):
    cam = tmp / "cam.json"
    cam.write_text("[1, 2]")
    return cam, "must be a JSON object, got list", [
        "evaluate", "--camera", str(cam), "--dataset", str(data / "dataset.json")]


def _unknown_config_key(data, tmp):
    cfg = tmp / "cfg.json"
    io.save_config(cfg, PipelineConfig())
    _edited(cfg, cfg, lambda d: d.update(smoothnes_lambda=5))
    return cfg, "unknown config key(s): smoothnes_lambda", [
        "pipeline", "--config", str(cfg), "--dataset", str(data / "dataset.json")]


def _camera_with(edit, key):
    """A wrongly typed camera value: ``edit`` changes the document, ``key`` is its path."""
    def build(data, tmp):
        cam = _edited(data / "truth_camera.json", tmp / "cam.json", edit)
        return cam, f"key '{key}' must be", ["evaluate", "--camera", str(cam),
                                             "--dataset", str(data / "dataset.json")]
    return build


def _config_with(key, value):
    def build(data, tmp):
        cfg = tmp / "cfg.json"
        io.save_config(cfg, PipelineConfig())
        _edited(cfg, cfg, lambda d: d.update({key: value}))
        return cfg, f"key '{key}' must be", ["pipeline", "--config", str(cfg),
                                             "--dataset", str(data / "dataset.json")]
    return build


def _dataset_stack_name_number(data, tmp):
    ds = _edited(data / "dataset.json", data / "numbered.json", lambda d: d.update(stacks=[0]))
    return ds, "key 'stacks' must be an array of strings, got an array", [
        "evaluate", "--camera", str(data / "truth_camera.json"), "--dataset", str(ds)]


def _scene_exposures_strings(data, tmp):
    scene = tmp / "scene.json"
    scene.write_text(json.dumps({"schema": 1, "illuminant": str(data / "illuminants.csv"),
                                 "reflectances": str(data / "reflectances.csv"),
                                 "exposures": ["0.5"]}))
    return scene, "key 'exposures' must be an array of numbers", [
        "simulate", "--camera", str(data / "truth_camera.json"), "--scene", str(scene)]


def _scene(data, tmp):
    scene = tmp / "scene.json"
    scene.write_text(json.dumps({"schema": 1, "illuminant": str(data / "illuminants.csv"),
                                 "reflectances": str(data / "reflectances.csv"),
                                 "exposures": [0.5, 1.0]}))
    return ["--camera", str(data / "truth_camera.json"), "--scene", str(scene)]


def _fit_sensitivity_inputs(data, tmp):
    rng = np.random.default_rng(3)
    p = rng.uniform(0, 1, size=(24, GRID.count))
    m = MeasurementSet(GRID, p, p @ rng.uniform(0, 0.01, size=(GRID.count, 3)),
                       np.ones(24, dtype=bool))
    radiance, table = io.save_measurement_set(tmp, m)
    return ["--radiance", str(radiance), "--measurements", str(table)]


def _gamut_samples(data, tmp):
    s = np.random.default_rng(4).uniform(0.05, 1.0, size=(30, 3))
    path = tmp / "samples.csv"
    np.savetxt(path, np.hstack([s, s + 0.05 * np.sin(3 * s)]), delimiter=",",
               header="S_r,S_g,S_b,E_r,E_g,E_b", comments="")
    return ["--samples", str(path)]


#: One successful run of each subcommand: command -> f(synth dir, tmp dir) -> arguments.
CLI_RUNS = {
    "synth": lambda data, tmp: ["--seed", "2"],
    "simulate": _scene,
    "fit-response": lambda data, tmp: ["--stack", str(data / "stack_000.csv")],
    "fit-sensitivity": _fit_sensitivity_inputs,
    "fit-gamut": _gamut_samples,
    "pipeline": lambda data, tmp: ["--dataset", str(data / "dataset.json")],
    "evaluate": lambda data, tmp: ["--camera", str(data / "truth_camera.json"),
                                   "--dataset", str(data / "dataset.json")],
    "export-chromaticity": lambda data, tmp: ["--camera", str(data / "truth_camera.json"),
                                              "--dataset", str(data / "dataset.json")],
}


class TestJsonDocuments:
    """Every JSON document is written stamped ``"schema": 1`` and read through one reader."""

    @pytest.mark.parametrize(
        "build",
        [_camera_without_omega, _camera_grid_without_count, _dataset_without_stacks,
         _database_entry_without_file, _scene_without_reflectances, _list_document,
         _unknown_config_key,
         _camera_with(lambda d: d.update(grid=[400, 10, 33]), "grid"),
         _camera_with(lambda d: d.update(bit_depth="eight"), "bit_depth"),
         _camera_with(lambda d: d["grid"].update(count=True), "grid.count"),
         _camera_with(lambda d: d["response"]["ln_e"][1].__setitem__(5, None), "response.ln_e"),
         _camera_with(lambda d: d.update(gamut=[]), "gamut"),
         _camera_with(lambda d: d["omega"][3].pop(), "omega"),
         _camera_with(lambda d: d["response"]["ln_e"][1].pop(), "response.ln_e"),
         _camera_with(lambda d: d.update(exposure_applied="before_gamut"), "exposure_applied"),
         _config_with("alpha", "0.6"), _config_with("basis_dim", 2.5),
         _config_with("folds", True), _config_with("rbf_kernel_width", "wide"),
         _dataset_stack_name_number, _scene_exposures_strings],
        ids=["camera-omega", "camera-grid-count", "dataset-stacks", "database-entry-file",
             "scene-reflectances", "list-document", "config-unknown-key",
             "camera-grid-list", "camera-bit-depth-string", "camera-grid-count-bool",
             "camera-ln-e-null", "camera-gamut-list", "camera-omega-ragged",
             "camera-ln-e-ragged", "camera-exposure-applied", "config-alpha-string",
             "config-basis-dim-float", "config-folds-bool", "config-kernel-width-string",
             "dataset-stack-name-number", "scene-exposures-strings"],
    )
    def test_malformed_document_exits_3_naming_file_and_key(
        self, synth_dir, tmp_path, capsys, build
    ):
        bad, key, argv = build(synth_dir, tmp_path)
        assert run_cli(*argv, "--out", str(tmp_path / "o")) == 3
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ParseError"
        assert err["message"].startswith(f"{bad}: ")
        assert key in err["message"]
        # A failing command writes no manifest.
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("command", list(CLI_RUNS))
    def test_every_written_document_starts_with_the_schema(self, synth_dir, tmp_path, command):
        out = tmp_path / "out"
        argv = CLI_RUNS[command](synth_dir, tmp_path)
        assert run_cli(command, *argv, "--out", str(out)) == 0
        written = sorted(out.rglob("*.json"))
        assert out / "manifest.json" in written
        for path in written:
            assert path.read_text().startswith('{\n  "schema": 1,\n'), path.name

    def test_synth_draws_with_the_config_seed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        io.save_config(cfg, PipelineConfig(seed=4))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("synth", "--out", str(a), "--config", str(cfg),
                       "--warp-strength", "0.05") == 0
        assert run_cli("synth", "--out", str(b), "--seed", "4", "--warp-strength", "0.05") == 0
        assert tree_digest(a) == tree_digest(b)
        assert json.loads((a / "manifest.json").read_text())["seed"] == 4
