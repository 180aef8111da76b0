"""Command-line interface: every estimation stage as a subcommand.

Commands write their artifacts plus a run manifest (config snapshot, input
digests, seed, timestamps) into ``--out``. On failure a machine-readable
error JSON goes to stdout and the exit code identifies the failure class.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, io
from .camera import render
from .errors import (
    ConvergenceError,
    DegenerateGeometryError,
    GridMismatchError,
    ParseError,
    PipelineError,
    RankDeficiencyError,
    SaturatedCodeError,
    SchemaVersionError,
    UnderdeterminedError,
)
from .gamut import (
    GamutFitConfig, apply_gamut_map_batch, chromaticity, fit_gamut_map, partition_gamut,
)
from .pipeline import (
    PipelineConfig,
    evaluate,
    generate_synthetic_dataset,
    run_two_stage,
    synthetic_camera,
    synthetic_gamut_warp,
)
from .response import ExposureStack, ResponseFitConfig, check_exposure_reciprocity, estimate_response
from .sensitivity import build_basis, cross_validate, estimate_constrained, synthetic_database
from .spectral import Kind, SpectralGrid, radiance_rows

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_SCHEMA = 5

_EXIT_CODES_HELP = """\
exit codes:
  0  success
  1  unexpected internal error
  2  usage error (unknown flags or malformed arguments)
  3  file or parse error
  4  validation, precondition, or fit failure
  5  schema version mismatch

The CAMSPEC_CONFIG environment variable supplies --config when the flag
is omitted.
"""


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, SchemaVersionError):
        return EXIT_SCHEMA
    if isinstance(exc, (ParseError, OSError)):
        return EXIT_PARSE
    if isinstance(
        exc,
        (
            ValueError,
            GridMismatchError,
            SaturatedCodeError,
            UnderdeterminedError,
            RankDeficiencyError,
            ConvergenceError,
            DegenerateGeometryError,
            PipelineError,
        ),
    ):
        return EXIT_VALIDATION
    return EXIT_INTERNAL


def _json_safe(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


class _Run:
    """Collects input digests and writes the manifest when the command is done."""

    def __init__(self, args: argparse.Namespace):
        self.command = args.command
        self.args = args
        self.out = Path(args.out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.inputs: dict[str, str] = {}
        self.started = io.utc_now()

    def track(self, path) -> Path:
        path = Path(path)
        self.inputs[str(path)] = io.sha256_of(path)
        return path

    def finish(self, extra_config: dict | None = None) -> None:
        snapshot = {
            k: _json_safe(v) for k, v in vars(self.args).items() if k not in ("func", "command")
        }
        if extra_config:
            snapshot.update(_json_safe(extra_config))
        io.write_manifest(
            self.out,
            io.RunManifest(
                command=self.command,
                config=snapshot,
                inputs=self.inputs,
                version=__version__,
                seed=getattr(self.args, "seed", None),
                started_utc=self.started,
                finished_utc=io.utc_now(),
            ),
        )


def _load_pipeline_config(args) -> PipelineConfig:
    path = args.config or os.environ.get("CAMSPEC_CONFIG")
    if path:
        cfg, _grid = io.load_config(path)
    else:
        cfg = PipelineConfig()
    if getattr(args, "seed", None) is not None:
        cfg = PipelineConfig(**{**cfg.__dict__, "seed": args.seed})
    return cfg


def _cmd_synth(args) -> int:
    run = _Run(args)
    if args.config:
        run.track(args.config)
    cfg = _load_pipeline_config(args)
    grid = SpectralGrid(args.grid_start, args.grid_step, args.grid_count)
    seed = args.seed if args.seed is not None else 0
    gamut = None
    if args.warp_strength > 0:
        plain = synthetic_camera(grid, gamma=args.gamma, peak=args.peak)
        scale = float(0.5 * plain.omega.channels.sum(axis=0).mean())
        gamut = synthetic_gamut_warp(scale=scale, strength=args.warp_strength, seed=seed)
    truth = synthetic_camera(
        grid, gamma=args.gamma, gamut=gamut, peak=args.peak,
        sat_lo=cfg.sat_lo, sat_hi=cfg.sat_hi,
    )
    exposures = [float(tok) for tok in args.exposures.split(",")]
    data = generate_synthetic_dataset(
        truth, args.n_illuminants, args.n_patches, exposures, seed=seed
    )
    io.save_camera(run.out / "truth_camera.json", truth)
    io.save_dataset(run.out, data)
    run.finish()
    return EXIT_OK


def _cmd_simulate(args) -> int:
    run = _Run(args)
    cam = io.load_camera(run.track(args.camera))
    scene_path = run.track(args.scene)
    scene = io._load_json(scene_path)
    io._require_schema(scene, scene_path)
    base = scene_path.parent
    light = io.load_spectral_csv(base / scene["illuminant"], Kind.ILLUMINANT, cam.grid)[0]
    surfaces = io.load_spectral_csv(base / scene["reflectances"], Kind.REFLECTANCE, cam.grid)
    exposures = np.asarray([float(e) for e in scene["exposures"]], dtype=float)
    samples = render(cam, radiance_rows([light], surfaces), exposures)
    stack = ExposureStack(exposures, samples, cam.bit_depth, cam.sat_lo, cam.sat_hi)
    io.save_stack_csv(run.out / "pixels.csv", stack)
    run.finish()
    return EXIT_OK


def _cmd_fit_response(args) -> int:
    run = _Run(args)
    stack = io.load_stack_csv(
        run.track(args.stack), bit_depth=args.bit_depth, sat_lo=args.sat_lo, sat_hi=args.sat_hi
    )
    curve = estimate_response(stack, ResponseFitConfig(smoothness_lambda=args.smoothness))
    reciprocity = check_exposure_reciprocity(stack, curve)
    io._dump_json(run.out / "response.json", io.response_to_dict(curve))
    io._dump_json(
        run.out / "reciprocity.json",
        {
            "schema": io.SCHEMA_VERSION,
            "max_abs_deviation": reciprocity.max_abs_deviation.tolist(),
            "mean_abs_deviation": reciprocity.mean_abs_deviation.tolist(),
            "n_pairs": reciprocity.n_pairs.tolist(),
        },
    )
    run.finish()
    return EXIT_OK


def _cmd_fit_sensitivity(args) -> int:
    run = _Run(args)
    mset = io.load_measurement_set(run.track(args.radiance), run.track(args.measurements))
    seed = args.seed if args.seed is not None else 0
    if args.database:
        db = io.load_database(run.track(args.database), mset.grid)
    else:
        db = synthetic_database(mset.grid, n_entries=args.database_entries, seed=seed)
    basis = build_basis(db, args.d)
    fit = estimate_constrained(mset, basis)
    cv = cross_validate(mset, basis, folds=args.folds, seed=seed)
    io.save_sensitivity_csv(run.out / "sensitivity.csv", fit.omega_hat)
    io._dump_json(
        run.out / "fit.json",
        {
            "schema": io.SCHEMA_VERSION,
            "basis_dim": args.d,
            "captured_variance": basis.captured_variance.tolist(),
            "coefficients": fit.coefficients.tolist(),
            "residual_rms": fit.residual_rms.tolist(),
            "cross_validation": {
                "folds": cv.folds,
                "seed": cv.seed,
                "mu": cv.mu.channels.tolist(),
                "sigma": cv.sigma.tolist(),
                "fold_rmse": cv.fold_rmse.tolist(),
            },
        },
    )
    run.finish()
    return EXIT_OK


def _load_gamut_samples(path) -> tuple[np.ndarray, np.ndarray]:
    rows = io._read_rows(path)
    header = ["S_r", "S_g", "S_b", "E_r", "E_g", "E_b"]
    if not rows or rows[0] != header:
        raise ParseError(f"{path}:1: header must be {','.join(header)}")
    data = np.empty((len(rows) - 1, 6))
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 6:
            raise ParseError(f"{path}:{lineno}: expected 6 fields, got {len(row)}")
        data[lineno - 2] = [io._parse_float(tok, path, lineno, header[c]) for c, tok in enumerate(row)]
    return data[:, :3], data[:, 3:]


def _cmd_fit_gamut(args) -> int:
    run = _Run(args)
    s_samples, e_targets = _load_gamut_samples(run.track(args.samples))
    cfg = GamutFitConfig(
        max_centers=args.max_centers, ridge=args.ridge, kernel_width=args.kernel_width
    )
    result = fit_gamut_map(s_samples, e_targets, cfg)
    io._dump_json(
        run.out / "gamut.json",
        {
            "schema": io.SCHEMA_VERSION,
            "gamut": io.gamut_to_dict(result.map),
            "training_rms": result.training_rms.tolist(),
            "training_max_abs": result.training_max_abs.tolist(),
        },
    )
    run.finish()
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    run = _Run(args)
    if args.config:
        run.track(args.config)
    cfg = _load_pipeline_config(args)
    data = io.load_dataset(run.track(args.dataset))
    database = io.load_database(run.track(args.database), data.grid) if args.database else None
    est = run_two_stage(data, cfg, database=database)
    io.save_camera(run.out / "estimated_camera.json", est.camera)
    cv = est.stage1.sensitivity_cv
    io._dump_json(
        run.out / "diagnostics.json",
        {
            "schema": io.SCHEMA_VERSION,
            "stage1": {
                "inner_count": est.stage1.inner_count,
                "outer_count": est.stage1.outer_count,
                "reciprocity_max_abs": est.stage1.reciprocity.max_abs_deviation.tolist(),
                "reciprocity_mean_abs": est.stage1.reciprocity.mean_abs_deviation.tolist(),
                "reciprocity_n_pairs": est.stage1.reciprocity.n_pairs.tolist(),
                "cv_sigma_max": float(cv.sigma.max()),
                "cv_fold_rmse": cv.fold_rmse.tolist(),
            },
            "stage2": {
                "gamut_training_rms": est.stage2.gamut_training_rms.tolist(),
                "gamut_training_max_abs": est.stage2.gamut_training_max_abs.tolist(),
            },
        },
    )
    run.finish(extra_config={"effective_config": cfg.__dict__})
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    run = _Run(args)
    cam = io.load_camera(run.track(args.camera))
    data = io.load_dataset(run.track(args.dataset))
    disjoint = {"yes": True, "no": False, "unknown": None}[args.disjoint]
    report = evaluate(cam, data, disjoint_from_training=disjoint)
    io.save_evaluation_report(run.out, report)
    run.finish()
    return EXIT_OK


def _cmd_export_chromaticity(args) -> int:
    run = _Run(args)
    cam = io.load_camera(run.track(args.camera))
    data = io.load_dataset(run.track(args.dataset))
    # Row by row: S is written to chromaticity.csv, and a plain (N, M) @ (M, 3)
    # product rounds some values differently in the last bit.
    s = (radiance_rows(data.illuminants, data.reflectances)[:, None, :] @ cam.omega.channels)[:, 0]
    valid_count = np.concatenate([stack.triplet_valid.sum(axis=1) for stack in data.stacks])
    s_all = np.repeat(s, valid_count, axis=0)
    if not s_all.size:
        raise PipelineError("no unsaturated samples to project")
    part = partition_gamut(s_all, args.alpha)
    regions = np.array(["outer"] * len(s_all), dtype=object)
    regions[part.inner_indices] = "inner"
    mapped = apply_gamut_map_batch(cam.gamut, s_all) if cam.gamut is not None else s_all
    magnitudes = np.linalg.norm(mapped - s_all, axis=1)
    xy = chromaticity(s_all)
    io.save_chromaticity_csv(run.out / "chromaticity.csv", xy, regions, magnitudes)
    run.finish()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="camspec",
        description=__doc__,
        epilog=_EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, help="output directory for artifacts")
    common.add_argument("--seed", type=int, default=None, help="seed override")
    common.add_argument("--config", default=None, help="pipeline config JSON")

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic truth camera and dataset")
    p.add_argument("--grid-start", type=float, default=400.0)
    p.add_argument("--grid-step", type=float, default=10.0)
    p.add_argument("--grid-count", type=int, default=33)
    p.add_argument("--n-illuminants", type=int, default=8)
    p.add_argument("--n-patches", type=int, default=24)
    p.add_argument("--exposures", default="0.5,1.0,2.0", help="comma-separated seconds")
    p.add_argument("--gamma", type=float, default=2.2)
    p.add_argument("--warp-strength", type=float, default=0.0, help="0 = identity gamut map")
    p.add_argument("--peak", type=float, default=0.25, help="peak spectral sensitivity")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("simulate", parents=[common], help="forward-simulate a scene file")
    p.add_argument("--camera", required=True)
    p.add_argument("--scene", required=True, help="scene JSON (illuminant, reflectances, exposures)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit-response", parents=[common], help="recover the response from a stack CSV")
    p.add_argument("--stack", required=True)
    p.add_argument("--bit-depth", type=int, default=8)
    p.add_argument("--sat-lo", type=int, default=None, help="default: 10 scaled to the bit depth")
    p.add_argument("--sat-hi", type=int, default=None, help="default: 230 scaled to the bit depth")
    p.add_argument("--smoothness", type=float, default=50.0)
    p.set_defaults(func=_cmd_fit_response)

    p = sub.add_parser("fit-sensitivity", parents=[common], help="constrained sensitivity fit")
    p.add_argument("--radiance", required=True, help="radiance spectra CSV (one column per sample)")
    p.add_argument("--measurements", required=True, help="linearized intensity CSV")
    p.add_argument("--database", default=None, help="database manifest JSON (default: synthetic)")
    p.add_argument("--database-entries", type=int, default=24)
    p.add_argument("--d", type=int, default=6, help="basis dimension")
    p.add_argument("--folds", type=int, default=10)
    p.set_defaults(func=_cmd_fit_sensitivity)

    p = sub.add_parser("fit-gamut", parents=[common], help="fit the RBF gamut map from S/E pairs")
    p.add_argument("--samples", required=True, help="CSV with S_r,S_g,S_b,E_r,E_g,E_b")
    p.add_argument("--max-centers", type=int, default=125)
    p.add_argument("--ridge", type=float, default=1e-8)
    p.add_argument("--kernel-width", type=float, default=None)
    p.set_defaults(func=_cmd_fit_gamut)

    p = sub.add_parser("pipeline", parents=[common], help="two-stage estimation on a dataset")
    p.add_argument("--dataset", required=True, help="dataset manifest JSON")
    p.add_argument("--database", default=None, help="database manifest JSON (default: synthetic)")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("evaluate", parents=[common], help="predicted-vs-measured report")
    p.add_argument("--camera", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--disjoint", choices=("yes", "no", "unknown"), default="unknown",
                   help="whether the dataset is disjoint from training (recorded, not checked)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("export-chromaticity", parents=[common],
                       help="x,y,region,magnitude table for external plotting")
    p.add_argument("--camera", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--alpha", type=float, default=0.6)
    p.set_defaults(func=_cmd_export_chromaticity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - boundary: everything becomes error JSON
        code = _exit_code_for(exc)
        print(
            json.dumps(
                {"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}}
            )
        )
        return code


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
