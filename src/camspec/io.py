"""File formats: spectral/stack/database CSV, camera and config JSON, run manifests.

JSON carries structured models, CSV carries tables meant for external
plotting. Floats are written with ``repr`` so every documented round trip
is exact; loaders validate eagerly and raise ParseError with the file,
line, and the violated rule.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .camera import CameraModel, ResponseCurve, default_thresholds
from .errors import ParseError, SchemaVersionError
from .gamut import RbfGamutMap
from .pipeline import (
    CalibrationInput,
    EvaluationReport,
    PipelineConfig,
)
from .response import ExposureStack
from .sensitivity import MeasurementSet, SensitivityDatabase
from .spectral import Kind, SensitivityMatrix, SpectralCurve, SpectralGrid

SCHEMA_VERSION = 1

#: Recorded in the camera schema: exposure multiplies the gamut-mapped value
#: at the response input (reciprocity holds for any gamut map).
EXPOSURE_CONVENTION = "after_gamut"


def _require_schema(doc: dict, path) -> None:
    version = doc.get("schema")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"{path}: schema version {version!r} not supported (this library reads "
            f"{SCHEMA_VERSION})"
        )


def _read_rows(path) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _parse_float(token: str, path, line: int, column: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise ParseError(f"{path}:{line}: column {column!r}: not a number: {token!r}") from exc


# ---------------------------------------------------------------------------
# Spectral CSV: header `wavelength_nm,value` or `wavelength_nm,name1,name2,...`
# ---------------------------------------------------------------------------


def load_spectral_table(path) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Read a spectral CSV; returns (wavelengths, column names, values (M, n))."""
    rows = _read_rows(path)
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = rows[0]
    if header[0] != "wavelength_nm" or len(header) < 2:
        raise ParseError(
            f"{path}:1: header must start with 'wavelength_nm' followed by value columns"
        )
    names = header[1:]
    wl = []
    values = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        w = _parse_float(row[0], path, lineno, "wavelength_nm")
        if wl and w <= wl[-1]:
            raise ParseError(
                f"{path}:{lineno}: wavelengths must be strictly increasing "
                f"({w} after {wl[-1]})"
            )
        wl.append(w)
        values.append([_parse_float(tok, path, lineno, names[c]) for c, tok in enumerate(row[1:])])
    if len(wl) < 2:
        raise ParseError(f"{path}: need at least 2 wavelength rows")
    return np.asarray(wl), names, np.asarray(values)


def _grid_of(wl: np.ndarray, path) -> SpectralGrid:
    steps = np.diff(wl)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-9):
        raise ParseError(
            f"{path}: wavelength spacing is not uniform; pass target_grid to resample"
        )
    return SpectralGrid(float(wl[0]), float(steps[0]), int(wl.size))


def _onto_grid(wl: np.ndarray, col: np.ndarray, target: SpectralGrid) -> np.ndarray:
    return np.interp(target.wavelengths, wl, col, left=0.0, right=0.0)


def load_spectral_csv(
    path, kind: Kind, target_grid: SpectralGrid | None = None
) -> list[SpectralCurve]:
    """Load every column of a spectral CSV as a curve of the given kind."""
    wl, _names, values = load_spectral_table(path)
    if target_grid is None:
        grid = _grid_of(wl, path)
        return [SpectralCurve(grid, values[:, c], kind) for c in range(values.shape[1])]
    return [
        SpectralCurve(target_grid, _onto_grid(wl, values[:, c], target_grid), kind)
        for c in range(values.shape[1])
    ]


def save_spectral_csv(path, curves, names=None) -> None:
    curves = list(curves)
    grid = curves[0].grid
    if any(c.grid != grid for c in curves):
        raise ValueError("all curves must share one grid")
    if names is None:
        names = ["value"] if len(curves) == 1 else [f"c{i:03d}" for i in range(len(curves))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["wavelength_nm", *names])
        for i, w in enumerate(grid.wavelengths):
            writer.writerow([repr(float(w)), *(repr(float(c.values[i])) for c in curves)])


# ---------------------------------------------------------------------------
# Exposure-stack CSV: patch_id,exposure_s,I_r,I_g,I_b
# ---------------------------------------------------------------------------

_STACK_HEADER = ["patch_id", "exposure_s", "I_r", "I_g", "I_b"]


def save_stack_csv(path, stack: ExposureStack) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_STACK_HEADER)
        for j in range(stack.n_patches):
            for i, e in enumerate(stack.exposures):
                writer.writerow([j, repr(float(e)), *map(int, stack.samples[j, i])])


def load_stack_csv(
    path, bit_depth: int = 8, sat_lo: int | None = None, sat_hi: int | None = None
) -> ExposureStack:
    """Read an exposure stack; every patch must list the same exposure sequence.

    Saturation flags are not stored in the file; they are recomputed from
    the thresholds supplied here, which default to 10/230 scaled to the bit
    depth.
    """
    rows = _read_rows(path)
    if not rows or rows[0] != _STACK_HEADER:
        raise ParseError(f"{path}:1: header must be {','.join(_STACK_HEADER)}")
    per_patch: dict[str, list[tuple[float, list[int]]]] = {}
    order: list[str] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 5:
            raise ParseError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
        patch = row[0]
        exposure = _parse_float(row[1], path, lineno, "exposure_s")
        codes = []
        for c, name in enumerate(("I_r", "I_g", "I_b")):
            v = _parse_float(row[2 + c], path, lineno, name)
            if v != int(v):
                raise ParseError(f"{path}:{lineno}: {name} must be an integer code, got {v}")
            codes.append(int(v))
        if patch not in per_patch:
            per_patch[patch] = []
            order.append(patch)
        per_patch[patch].append((exposure, codes))
    reference = [e for e, _ in per_patch[order[0]]]
    samples = np.empty((len(order), len(reference), 3), dtype=int)
    for j, patch in enumerate(order):
        entries = per_patch[patch]
        if [e for e, _ in entries] != reference:
            raise ParseError(
                f"{path}: patch {patch!r} does not list the shared exposure sequence "
                f"{reference}"
            )
        for i, (_, codes) in enumerate(entries):
            samples[j, i] = codes
    lo, hi = default_thresholds(bit_depth, sat_lo, sat_hi)
    return ExposureStack(np.asarray(reference), samples, bit_depth, lo, hi)


# ---------------------------------------------------------------------------
# Sensitivity database: manifest JSON + one CSV per camera
# ---------------------------------------------------------------------------


def save_database(directory, db: SensitivityDatabase) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, omega in db.entries:
        filename = f"{name}.csv"
        save_sensitivity_csv(directory / filename, omega)
        entries.append({"name": name, "file": filename})
    manifest = directory / "database.json"
    _dump_json(manifest, {"schema": SCHEMA_VERSION, "entries": entries})
    return manifest


def load_database(manifest_path, target_grid: SpectralGrid | None = None) -> SensitivityDatabase:
    manifest_path = Path(manifest_path)
    doc = _load_json(manifest_path)
    _require_schema(doc, manifest_path)
    entries = doc.get("entries", [])
    missing = [
        e.get("file", "?") for e in entries if not (manifest_path.parent / e["file"]).exists()
    ]
    if missing:
        raise ParseError(
            f"{manifest_path}: manifest references missing file(s): {', '.join(missing)}"
        )
    loaded = []
    grid = target_grid
    for entry in entries:
        omega = load_sensitivity_csv(manifest_path.parent / entry["file"], grid)
        grid = omega.grid
        loaded.append((entry["name"], omega))
    if grid is None:
        raise ParseError(f"{manifest_path}: manifest lists no entries")
    return SensitivityDatabase(tuple(loaded), grid)


# ---------------------------------------------------------------------------
# Measurement set: radiance CSV (one column per sample) + intensity CSV
# ---------------------------------------------------------------------------


def save_measurement_set(directory, m: MeasurementSet) -> tuple[Path, Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    radiance = directory / "radiance.csv"
    curves = [SpectralCurve(m.grid, row, Kind.RADIANCE) for row in m.p]
    save_spectral_csv(radiance, curves, names=[f"s{i:04d}" for i in range(len(curves))])
    table = directory / "measurements.csv"
    with open(table, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "I_r", "I_g", "I_b", "valid"])
        for i in range(m.p.shape[0]):
            writer.writerow(
                [i, *(repr(float(v)) for v in m.i_linear[i]), int(m.valid[i])]
            )
    return radiance, table


def load_measurement_set(
    radiance_path, measurements_path, target_grid: SpectralGrid | None = None
) -> MeasurementSet:
    curves = load_spectral_csv(radiance_path, Kind.RADIANCE, target_grid)
    grid = curves[0].grid
    rows = _read_rows(measurements_path)
    if not rows or rows[0] != ["sample_id", "I_r", "I_g", "I_b", "valid"]:
        raise ParseError(f"{measurements_path}:1: header must be sample_id,I_r,I_g,I_b,valid")
    if len(rows) - 1 != len(curves):
        raise ParseError(
            f"{measurements_path}: {len(rows) - 1} samples but radiance file has "
            f"{len(curves)} columns"
        )
    i_lin = np.empty((len(curves), 3))
    valid = np.empty(len(curves), dtype=bool)
    for lineno, row in enumerate(rows[1:], start=2):
        idx = lineno - 2
        for c, name in enumerate(("I_r", "I_g", "I_b")):
            i_lin[idx, c] = _parse_float(row[1 + c], measurements_path, lineno, name)
        valid[idx] = bool(int(_parse_float(row[4], measurements_path, lineno, "valid")))
    return MeasurementSet(grid, np.stack([c.values for c in curves]), i_lin, valid)


def save_sensitivity_csv(path, omega: SensitivityMatrix) -> None:
    """Write a sensitivity matrix in the database per-camera CSV format."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["wavelength_nm", "omega_r", "omega_g", "omega_b"])
        for i, w in enumerate(omega.grid.wavelengths):
            writer.writerow([repr(float(w)), *(repr(float(v)) for v in omega.channels[i])])


def load_sensitivity_csv(path, target_grid: SpectralGrid | None = None) -> SensitivityMatrix:
    wl, names, values = load_spectral_table(path)
    if names != ["omega_r", "omega_g", "omega_b"]:
        raise ParseError(f"{path}:1: columns must be omega_r,omega_g,omega_b")
    grid = target_grid if target_grid is not None else _grid_of(wl, path)
    channels = np.column_stack([_onto_grid(wl, values[:, k], grid) for k in range(3)])
    return SensitivityMatrix(grid, channels)


# ---------------------------------------------------------------------------
# Camera model JSON (schema 1)
# ---------------------------------------------------------------------------


def response_to_dict(curve: ResponseCurve) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "bit_depth": curve.bit_depth,
        "ln_e": curve.ln_e.tolist(),
    }


def response_from_dict(doc: dict, path="<memory>") -> ResponseCurve:
    _require_schema(doc, path)
    return ResponseCurve(int(doc["bit_depth"]), np.asarray(doc["ln_e"], dtype=float))


def grid_to_dict(grid: SpectralGrid) -> dict:
    return {"start_nm": grid.start_nm, "step_nm": grid.step_nm, "count": grid.count}


def grid_from_dict(doc: dict) -> SpectralGrid:
    return SpectralGrid(float(doc["start_nm"]), float(doc["step_nm"]), int(doc["count"]))


def gamut_to_dict(gmap: RbfGamutMap | None) -> dict | None:
    if gmap is None:
        return None
    return {
        "centers": gmap.centers.tolist(),
        "weights": gmap.weights.tolist(),
        "kernel_width": gmap.kernel_width,
        "ridge": gmap.ridge,
        "affine": gmap.affine.tolist(),
    }


def gamut_from_dict(doc: dict | None) -> RbfGamutMap | None:
    if doc is None:
        return None
    return RbfGamutMap(
        centers=np.asarray(doc["centers"], dtype=float),
        weights=np.asarray(doc["weights"], dtype=float),
        kernel_width=float(doc["kernel_width"]),
        ridge=float(doc["ridge"]),
        affine=np.asarray(doc["affine"], dtype=float),
    )


def camera_to_dict(cam: CameraModel) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "exposure_applied": EXPOSURE_CONVENTION,
        "grid": grid_to_dict(cam.grid),
        "bit_depth": cam.bit_depth,
        "sat_lo": cam.sat_lo,
        "sat_hi": cam.sat_hi,
        "omega": cam.omega.channels.tolist(),
        "response": {"ln_e": cam.response.ln_e.tolist()},
        "gamut": gamut_to_dict(cam.gamut),
    }


def camera_from_dict(doc: dict, path="<memory>") -> CameraModel:
    _require_schema(doc, path)
    grid = grid_from_dict(doc["grid"])
    return CameraModel(
        grid=grid,
        omega=SensitivityMatrix(grid, np.asarray(doc["omega"], dtype=float)),
        response=ResponseCurve(int(doc["bit_depth"]), np.asarray(doc["response"]["ln_e"])),
        gamut=gamut_from_dict(doc.get("gamut")),
        bit_depth=int(doc["bit_depth"]),
        sat_lo=int(doc["sat_lo"]),
        sat_hi=int(doc["sat_hi"]),
    )


def save_camera(path, cam: CameraModel) -> None:
    _dump_json(path, camera_to_dict(cam))


def load_camera(path) -> CameraModel:
    return camera_from_dict(_load_json(path), path)


# ---------------------------------------------------------------------------
# Pipeline config JSON
# ---------------------------------------------------------------------------


def config_to_dict(cfg: PipelineConfig, grid: SpectralGrid | None = None) -> dict:
    doc = {"schema": SCHEMA_VERSION}
    if grid is not None:
        doc["grid"] = grid_to_dict(grid)
    doc.update(asdict(cfg))
    return doc


def config_from_dict(doc: dict, path="<memory>") -> tuple[PipelineConfig, SpectralGrid | None]:
    _require_schema(doc, path)
    grid = grid_from_dict(doc["grid"]) if doc.get("grid") is not None else None
    known = {f for f in PipelineConfig.__dataclass_fields__}
    kwargs = {k: v for k, v in doc.items() if k in known}
    return PipelineConfig(**kwargs), grid


def save_config(path, cfg: PipelineConfig, grid: SpectralGrid | None = None) -> None:
    _dump_json(path, config_to_dict(cfg, grid))


def load_config(path) -> tuple[PipelineConfig, SpectralGrid | None]:
    return config_from_dict(_load_json(path), path)


# ---------------------------------------------------------------------------
# Calibration dataset: manifest JSON + CSV parts
# ---------------------------------------------------------------------------


def save_dataset(directory, inp: CalibrationInput) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_spectral_csv(
        directory / "illuminants.csv",
        inp.illuminants,
        names=[f"l{i:03d}" for i in range(len(inp.illuminants))],
    )
    save_spectral_csv(
        directory / "reflectances.csv",
        inp.reflectances,
        names=[f"r{i:03d}" for i in range(len(inp.reflectances))],
    )
    stack_files = []
    for i, stack in enumerate(inp.stacks):
        name = f"stack_{i:03d}.csv"
        save_stack_csv(directory / name, stack)
        stack_files.append(name)
    first = inp.stacks[0]
    manifest = directory / "dataset.json"
    _dump_json(
        manifest,
        {
            "schema": SCHEMA_VERSION,
            "grid": grid_to_dict(inp.grid),
            "bit_depth": first.bit_depth,
            "sat_lo": first.sat_lo,
            "sat_hi": first.sat_hi,
            "illuminants": "illuminants.csv",
            "reflectances": "reflectances.csv",
            "stacks": stack_files,
        },
    )
    return manifest


def load_dataset(manifest_path) -> CalibrationInput:
    manifest_path = Path(manifest_path)
    doc = _load_json(manifest_path)
    _require_schema(doc, manifest_path)
    grid = grid_from_dict(doc["grid"])
    base = manifest_path.parent
    illuminants = load_spectral_csv(base / doc["illuminants"], Kind.ILLUMINANT, grid)
    reflectances = load_spectral_csv(base / doc["reflectances"], Kind.REFLECTANCE, grid)
    stacks = [
        load_stack_csv(
            base / name,
            bit_depth=int(doc["bit_depth"]),
            sat_lo=int(doc["sat_lo"]),
            sat_hi=int(doc["sat_hi"]),
        )
        for name in doc["stacks"]
    ]
    return CalibrationInput(grid, tuple(illuminants), tuple(reflectances), tuple(stacks))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _split_to_dict(split) -> dict | None:
    if split is None:
        return None
    return {
        "rmse": [float(v) for v in split.rmse],
        "max_abs": [float(v) for v in split.max_abs],
        "count": split.count,
    }


def save_evaluation_report(directory, report: EvaluationReport) -> tuple[Path, Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    report_path = directory / "evaluation.json"
    _dump_json(
        report_path,
        {
            "schema": SCHEMA_VERSION,
            "disjoint_from_training": report.disjoint_from_training,
            "unsaturated": _split_to_dict(report.unsaturated),
            "saturated": _split_to_dict(report.saturated),
        },
    )
    scatter_path = directory / "scatter.csv"
    with open(scatter_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["channel", "I", "I_hat", "saturated"])
        for c, i_meas, i_hat, sat in zip(
            report.channel, report.measured, report.predicted, report.is_saturated
        ):
            writer.writerow([int(c), int(i_meas), int(i_hat), int(sat)])
    return report_path, scatter_path


def save_chromaticity_csv(path, xy: np.ndarray, regions, magnitudes) -> None:
    """Fig-style export: x,y,region,magnitude rows for an external plotter."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "region", "magnitude"])
        for (x, y), region, mag in zip(xy, regions, magnitudes):
            writer.writerow([repr(float(x)), repr(float(y)), region, repr(float(mag))])


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    command: str
    config: dict
    inputs: dict  # path -> sha256 hex digest
    version: str
    seed: int | None
    started_utc: str
    finished_utc: str


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_manifest(directory, manifest: RunManifest) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "manifest.json"
    _dump_json(path, {"schema": SCHEMA_VERSION, **asdict(manifest)})
    return path


# ---------------------------------------------------------------------------
# JSON helpers
# ---------------------------------------------------------------------------


def _dump_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
