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
from dataclasses import asdict, replace
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
from .gamut import apply_gamut_map_batch, chromaticity, fit_gamut_map, partition_gamut
from .pipeline import PipelineConfig, evaluate, fit_sensitivity, run_two_stage
from .response import ExposureStack, check_exposure_reciprocity, estimate_response
from .spectral import DEFAULT_GRID, SpectralGrid, radiance_rows
from .synthetic import generate_synthetic_dataset, synthetic_camera, synthetic_gamut_warp

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

The CAMSPEC_CONFIG environment variable supplies --config when the flag is omitted.
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


class _Run:
    """Collects input digests and the effective config, and writes the manifest
    when the command is done."""

    def __init__(self, args: argparse.Namespace):
        self.command = args.command
        self.args = args
        self.out = Path(args.out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.inputs: dict[str, str] = {}
        self.seed: int | None = None
        self.effective_config: dict | None = None
        self.started = io.utc_now()

    def track(self, path) -> Path:
        path = Path(path)
        self.inputs[str(path)] = io.sha256_of(path)
        return path

    def finish(self) -> None:
        snapshot = {k: v for k, v in vars(self.args).items() if k not in ("func", "command")}
        if self.effective_config is not None:
            snapshot["effective_config"] = self.effective_config
        io.write_manifest(
            self.out,
            io.RunManifest(
                command=self.command,
                config=snapshot,
                inputs=self.inputs,
                version=__version__,
                seed=self.seed,
                started_utc=self.started,
                finished_utc=io.utc_now(),
            ),
        )


def _load_pipeline_config(args, run: _Run) -> tuple[PipelineConfig, SpectralGrid | None]:
    """``--config``, else ``$CAMSPEC_CONFIG`` (tracked as an input), else the defaults,
    with ``--seed`` over the config's seed: (config, the config's grid or None).
    The config is recorded in the manifest as ``effective_config``."""
    path = args.config or os.environ.get("CAMSPEC_CONFIG")
    cfg, grid = io.load_config(run.track(path)) if path else (PipelineConfig(), None)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if "seed" in vars(args):  # a command that draws random numbers records its seed
        run.seed = cfg.seed
    run.effective_config = asdict(cfg)
    return cfg, grid


def _require_data_grid(config_grid: SpectralGrid | None, data_grid: SpectralGrid) -> None:
    """Only ``synth`` builds on a config's grid; every other command's data bring theirs."""
    if config_grid is not None and config_grid != data_grid:
        raise GridMismatchError(
            f"config grid {config_grid} differs from the data's grid {data_grid}; "
            "only synth builds on the config grid"
        )


def _cmd_synth(args, run: _Run) -> None:
    cfg, grid = _load_pipeline_config(args, run)
    grid = grid or DEFAULT_GRID
    run.effective_config["grid"] = io.grid_to_dict(grid)
    truth = synthetic_camera(
        grid, gamma=args.gamma, peak=args.peak, sat_lo=cfg.sat_lo, sat_hi=cfg.sat_hi
    )
    if args.warp_strength > 0:
        scale = float(0.5 * truth.omega.channels.sum(axis=0).mean())
        warp = synthetic_gamut_warp(scale=scale, strength=args.warp_strength, seed=cfg.seed)
        truth = replace(truth, gamut=warp)
    exposures = [float(tok) for tok in args.exposures.split(",")]
    data = generate_synthetic_dataset(
        truth, args.n_illuminants, args.n_patches, exposures, seed=cfg.seed
    )
    io.save_camera(run.out / "truth_camera.json", truth)
    io.save_dataset(run.out, data)


def _cmd_simulate(args, run: _Run) -> None:
    cam = io.load_camera(run.track(args.camera))
    light, surfaces, exposures = io.load_scene(run.track(args.scene), cam.grid)
    samples = render(cam, radiance_rows([light], surfaces), exposures)
    stack = ExposureStack(exposures, samples, cam.bit_depth, cam.sat_lo, cam.sat_hi)
    io.save_stack_csv(run.out / "pixels.csv", stack)


def _cmd_fit_response(args, run: _Run) -> None:
    cfg, _ = _load_pipeline_config(args, run)
    stack = io.load_stack_csv(run.track(args.stack), args.bit_depth, cfg.sat_lo, cfg.sat_hi)
    curve = estimate_response(stack, smoothness_lambda=cfg.smoothness_lambda)
    reciprocity = check_exposure_reciprocity(stack, curve)
    io.write_json(
        run.out / "response.json", {"bit_depth": curve.bit_depth, "ln_e": curve.ln_e.tolist()}
    )
    io.write_json(
        run.out / "reciprocity.json",
        {
            "max_abs_deviation": reciprocity.max_abs_deviation.tolist(),
            "mean_abs_deviation": reciprocity.mean_abs_deviation.tolist(),
            "n_pairs": reciprocity.n_pairs.tolist(),
        },
    )


def _cmd_fit_sensitivity(args, run: _Run) -> None:
    cfg, grid = _load_pipeline_config(args, run)
    mset = io.load_measurement_set(run.track(args.radiance), run.track(args.measurements))
    _require_data_grid(grid, mset.grid)
    db = io.load_database(run.track(args.database), mset.grid) if args.database else None
    basis, fit, cv = fit_sensitivity(mset, cfg, database=db)
    io.save_sensitivity_csv(run.out / "sensitivity.csv", fit.omega_hat)
    io.write_json(
        run.out / "fit.json",
        {
            "basis_dim": cfg.basis_dim,
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


def _cmd_fit_gamut(args, run: _Run) -> None:
    cfg, _ = _load_pipeline_config(args, run)
    s_samples, e_targets = io.load_gamut_samples(run.track(args.samples))
    result = fit_gamut_map(
        s_samples,
        e_targets,
        max_centers=cfg.rbf_max_centers,
        ridge=cfg.rbf_ridge,
        kernel_width=cfg.rbf_kernel_width,
    )
    io.write_json(
        run.out / "gamut.json",
        {
            "gamut": io.gamut_to_dict(result.map),
            "training_rms": result.training_rms.tolist(),
            "training_max_abs": result.training_max_abs.tolist(),
        },
    )


def _cmd_pipeline(args, run: _Run) -> None:
    cfg, grid = _load_pipeline_config(args, run)
    data = io.load_dataset(run.track(args.dataset))
    _require_data_grid(grid, data.grid)
    database = io.load_database(run.track(args.database), data.grid) if args.database else None
    est = run_two_stage(data, cfg, database=database)
    io.save_camera(run.out / "estimated_camera.json", est.camera)
    cv = est.stage1.sensitivity_cv
    io.write_json(
        run.out / "diagnostics.json",
        {
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


def _cmd_evaluate(args, run: _Run) -> None:
    cam = io.load_camera(run.track(args.camera))
    data = io.load_dataset(run.track(args.dataset))
    disjoint = {"yes": True, "no": False, "unknown": None}[args.disjoint]
    report = evaluate(cam, data, disjoint_from_training=disjoint)
    io.save_evaluation_report(run.out, report)


def _cmd_export_chromaticity(args, run: _Run) -> None:
    cfg, grid = _load_pipeline_config(args, run)
    cam = io.load_camera(run.track(args.camera))
    data = io.load_dataset(run.track(args.dataset))
    _require_data_grid(grid, data.grid)
    # Row by row: S is written to chromaticity.csv, and a plain (N, M) @ (M, 3)
    # product rounds some values differently in the last bit.
    s = (radiance_rows(data.illuminants, data.reflectances)[:, None, :] @ cam.omega.channels)[:, 0]
    valid_count = np.concatenate([stack.triplet_valid.sum(axis=1) for stack in data.stacks])
    s_all = np.repeat(s, valid_count, axis=0)
    if not s_all.size:
        raise PipelineError("no unsaturated samples to project")
    part = partition_gamut(s_all, cfg.alpha)
    regions = np.array(["outer"] * len(s_all), dtype=object)
    regions[part.inner_indices] = "inner"
    mapped = apply_gamut_map_batch(cam.gamut, s_all) if cam.gamut is not None else s_all
    magnitudes = np.linalg.norm(mapped - s_all, axis=1)
    xy = chromaticity(s_all)
    io.save_chromaticity_csv(run.out / "chromaticity.csv", xy, regions, magnitudes)


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
    configured = argparse.ArgumentParser(add_help=False, parents=[common])
    configured.add_argument("--config", default=None,
                            help="pipeline config JSON (default: $CAMSPEC_CONFIG)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[configured])
    seeded.add_argument("--seed", type=int, default=None, help="overrides the config's seed")

    p = sub.add_parser("synth", parents=[seeded],
                       help="generate a synthetic truth camera and dataset on the config's grid")
    p.add_argument("--n-illuminants", type=int, default=8)
    p.add_argument("--n-patches", type=int, default=24)
    p.add_argument("--exposures", default="0.5,1.0,2.0", help="comma-separated seconds")
    p.add_argument("--gamma", type=float, default=2.2)
    p.add_argument("--warp-strength", type=float, default=0.0, help="0 = identity gamut map")
    p.add_argument("--peak", type=float, default=0.25, help="peak spectral sensitivity")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("simulate", parents=[common], help="forward-simulate a scene file")
    p.add_argument("--camera", required=True)
    p.add_argument("--scene", required=True,
                   help="scene JSON (illuminant, reflectances, exposures); only the first "
                        "column of the illuminant CSV is used")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit-response", parents=[configured],
                       help="recover the response from a stack CSV")
    p.add_argument("--stack", required=True)
    p.add_argument("--bit-depth", type=int, default=8)
    p.set_defaults(func=_cmd_fit_response)

    p = sub.add_parser("fit-sensitivity", parents=[seeded], help="constrained sensitivity fit")
    p.add_argument("--radiance", required=True, help="radiance spectra CSV (one column per sample)")
    p.add_argument("--measurements", required=True, help="linearized intensity CSV")
    p.add_argument("--database", default=None, help="database manifest JSON (default: synthetic)")
    p.set_defaults(func=_cmd_fit_sensitivity)

    p = sub.add_parser("fit-gamut", parents=[configured],
                       help="fit the RBF gamut map from S/E pairs")
    p.add_argument("--samples", required=True, help="CSV with S_r,S_g,S_b,E_r,E_g,E_b")
    p.set_defaults(func=_cmd_fit_gamut)

    p = sub.add_parser("pipeline", parents=[seeded], help="two-stage estimation on a dataset")
    p.add_argument("--dataset", required=True, help="dataset manifest JSON")
    p.add_argument("--database", default=None, help="database manifest JSON (default: synthetic)")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("evaluate", parents=[common], help="predicted-vs-measured report")
    p.add_argument("--camera", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--disjoint", choices=("yes", "no", "unknown"), default="unknown",
                   help="whether the dataset is disjoint from training (recorded, not checked)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("export-chromaticity", parents=[configured],
                       help="x,y,region,magnitude table for external plotting")
    p.add_argument("--camera", required=True)
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=_cmd_export_chromaticity)
    for p in sub.choices.values():  # full flag names only: a removed flag matches no prefix
        p.allow_abbrev = False
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        run = _Run(args)
        args.func(args, run)
        run.finish()
    except Exception as exc:  # noqa: BLE001 - boundary: everything becomes error JSON
        code = _exit_code_for(exc)
        print(
            json.dumps(
                {"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}}
            )
        )
        return code
    return EXIT_OK


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
