"""File formats: spectral/stack/database CSV, camera, config and scene JSON, run manifests.

JSON carries structured models, CSV carries tables meant for external
plotting. A table goes out in one write, in csv.writer's bytes: UTF-8, CRLF
rows, floats by ``repr`` so every documented round trip is exact, and each
distinct integer of a column formatted once. Loaders read each file once,
validate eagerly and raise ParseError with the file, line or key, and the
violated rule.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import typing
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from io import StringIO
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .camera import CameraModel, ResponseCurve
from .errors import ParseError, SchemaVersionError
from .gamut import RbfGamutMap
from .pipeline import CalibrationInput, EvaluationReport, PipelineConfig
from .response import ExposureStack
from .sensitivity import MeasurementSet, SensitivityDatabase
from .spectral import Kind, SensitivityMatrix, SpectralCurve, SpectralGrid

SCHEMA_VERSION = 1

#: Recorded in the camera schema: exposure multiplies the gamut-mapped value
#: at the response input (reciprocity holds for any gamut map).
EXPOSURE_CONVENTION = "after_gamut"

#: While a dict, every file a loader reads is recorded in it: path -> SHA-256 of its bytes.
_read_digests: dict | None = None
_QUOTED = re.compile('[,"\r\n]').search  # a text cell csv.writer quotes


# ---------------------------------------------------------------------------
# JSON documents: every JSON format here writes via write_json and reads via read_json
# ---------------------------------------------------------------------------


class _Object(dict):
    """A JSON object from ``read_json``: its file (``path``) and, once ``_typed`` has
    read it, its key path from the document root (``at``, such as ``grid.``)."""

    def __init__(self, pairs, path):
        super().__init__(pairs)
        self.path, self.at = path, ""


#: What each JSON kind a loader may ask for accepts; exact types, so a bool is not a number.
_ACCEPTS = {float: (int, float), int: (int,), str: (str,), type(None): (type(None),)}
_NAMES = {
    float: ("a number", "numbers"), int: ("an integer", "integers"), str: ("a string", "strings"),
    dict: ("an object", "objects"), type(None): ("null", "nulls"),
}
_MATRIX = list[list[float]]


def _is(value, kind) -> bool:
    """Whether a decoded JSON value is a ``kind``: float (any number), int, str, dict,
    ``list[kind]`` or a union such as ``int | None``. The rows of a ``list[list[...]]``
    must have one length."""
    if kind in _ACCEPTS:
        return type(value) in _ACCEPTS[kind]
    if kind is dict:
        return isinstance(value, dict)
    if typing.get_origin(kind) is list:
        item = typing.get_args(kind)[0]
        return isinstance(value, list) and all(_is(v, item) for v in value) and (
            typing.get_origin(item) is not list or len({len(v) for v in value}) <= 1)
    return any(_is(value, k) for k in typing.get_args(kind))


def _name(kind, plural=False) -> str:
    if typing.get_origin(kind) is list:
        item = typing.get_args(kind)[0]
        rows = "equal-length " if typing.get_origin(item) is list else ""
        return f"{'arrays' if plural else 'an array'} of {rows}{_name(item, True)}"
    if kind in _NAMES:
        return _NAMES[kind][plural]
    return " or ".join(_name(k, plural) for k in typing.get_args(kind))


def _typed(doc: dict, key: str, kind):
    """``doc[key]`` checked to be a JSON ``kind`` (see ``_is``); a kind that admits None
    also admits a missing key. A missing key or any other value raises ParseError naming
    the file and the key's path, such as ``grid.count``, which the objects read here learn."""
    path, at = getattr(doc, "path", "JSON document"), getattr(doc, "at", "")
    if key not in doc and not _is(None, kind):
        raise ParseError(f"{path}: missing key '{at}{key}'")
    value = doc.get(key)
    if not _is(value, kind):
        shown = "an object" if isinstance(value, dict) else (
            "an array" if isinstance(value, list) else json.dumps(value))
        raise ParseError(f"{path}: key '{at}{key}' must be {_name(kind)}, got {shown}")
    if isinstance(value, _Object):
        value.at = f"{at}{key}."
    elif isinstance(value, list):
        for i, item in enumerate(value):
            if isinstance(item, _Object):
                item.at = f"{at}{key}[{i}]."
    return value


def _opened(path, newline=None) -> StringIO:
    """``open(path, newline=newline, encoding="utf-8")`` from one read; ParseError if
    unreadable or not UTF-8."""
    try:
        raw = Path(path).read_bytes()
        text = raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if _read_digests is not None:
        _read_digests[str(Path(path))] = hashlib.sha256(raw).hexdigest()
    return StringIO(text, newline=newline)


def write_json(path, doc: dict) -> None:
    """Write ``doc`` as one JSON object, stamped ``"schema": SCHEMA_VERSION`` first."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": SCHEMA_VERSION, **doc}, fh, indent=2)
        fh.write("\n")


def read_json(path) -> dict:
    """Read a ``write_json`` document and return it without its schema stamp.

    An unreadable file, invalid JSON or a document that is not an object raises
    ParseError; another schema version raises SchemaVersionError. Read its keys,
    at any depth, through ``_typed``, which names the file and the key in its errors.
    """
    try:
        doc = json.load(_opened(path), object_pairs_hook=lambda pairs: _Object(pairs, path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, _Object):
        raise ParseError(f"{path}: document must be a JSON object, got {type(doc).__name__}")
    version = doc.pop("schema", None)
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"{path}: schema version {version!r} not supported (this library reads "
            f"{SCHEMA_VERSION})"
        )
    return doc


# ---------------------------------------------------------------------------
# CSV tables: every format below reads via _read_table and writes via _write_table
# ---------------------------------------------------------------------------


def _read_table(path, header=None, text_columns=0) -> tuple[list, np.ndarray, np.ndarray, list]:
    """Read a CSV table: (header, text cells (N, text_columns), numbers (N, rest), lines).

    ``header``, if given, is the required first row. Every row must have the
    header's width. Blank rows are skipped; ``lines`` are the rows' file
    lines, the header's at ``lines[0]`` and body row i's at ``lines[i + 1]``.
    """
    text = _opened(path, newline="").read()
    if '"' in text:  # quoted cells: csv.reader's parse
        reader = csv.reader(StringIO(text, newline=""))
        numbered = [(reader.line_num, row) for row in reader if row]
        lines, rows = [n for n, _ in numbered], [row for _, row in numbered]
        cells, widths = list(chain.from_iterable(rows)), np.array([len(r) for r in rows], int)
    else:  # one split into lines and one into cells, each line's width from its commas
        split = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        lines, kept = [n for n, line in enumerate(split, 1) if line], list(filter(None, split))
        widths = np.fromiter(map(str.count, kept, repeat(",")), int, len(kept)) + 1
        cells = ",".join(kept).split(",")
    if not lines:
        raise ParseError(f"{path}: empty file")
    if header is not None and cells[:widths[0]] != header:
        raise ParseError(f"{path}:{lines[0]}: header must be {','.join(header)}")
    header, k = cells[:widths[0]], text_columns
    wrong = np.flatnonzero(widths != len(header))  # row 0 is the header itself
    if wrong.size:
        i, got = wrong[0], widths[wrong[0]]
        missing = f" (no column {header[got]!r})" if got < len(header) else ""
        raise ParseError(f"{path}:{lines[i]}: expected {len(header)} fields, got {got}{missing}")
    body = np.array(cells[len(header):], dtype=object).reshape(-1, len(header))
    tokens = body[:, k:].ravel().tolist()
    try:
        numbers = np.fromiter(map(float, tokens), dtype=float, count=len(tokens))
    except ValueError:
        for n, tok in enumerate(tokens):  # only on failure: find the first bad token
            try:
                float(tok)
            except ValueError as exc:
                i, c = divmod(n, len(header) - k)
                raise ParseError(
                    f"{path}:{lines[i + 1]}: column {header[k + c]!r}: not a number: {tok!r}"
                ) from exc
        raise
    return header, body[:, :k].astype(str), numbers.reshape(len(body), len(header) - k), lines


def _cells(col: np.ndarray) -> tuple[list, np.ndarray | None]:
    """(cells, None) as csv.writer writes them, or for a dense integer range (table, index)."""
    kind = col.dtype.kind
    if kind in "biu" and col.size:
        values = col.astype(np.uint64 if kind == "u" else np.int64)  # no overflow below
        lo, hi = int(values.min()), int(values.max())
        if hi - lo < col.size:
            return [str(bool(v) if kind == "b" else v) for v in range(lo, hi + 1)], values - lo
    if kind in "fiu":  # repr is str for ints
        return list(map(repr, col.tolist())), None
    return ['"' + s.replace('"', '""') + '"' if _QUOTED(s) else s for s in map(str, col)], None


def _write_table(path, header, columns) -> None:
    """Write equal-length columns as CSV in one write, in csv.writer's bytes: UTF-8, CRLF rows
    (but csv.writer quotes a lone empty cell; every table here has two columns or more)."""
    cells = [_cells(np.asarray(col)) for col in columns]
    data = (",".join(_cells(np.array(header, dtype=object))[0]) + "\r\n").encode()
    if all(index is not None for _, index in cells):  # no Python per row: NUL-padded bytes
        ends = [","] * (len(cells) - 1) + ["\r\n"]
        parts = [np.array([(s + e).encode() for s in t])[i] for (t, i), e in zip(cells, ends)]
        table = np.concatenate([p.view(np.uint8).reshape(p.size, -1) for p in parts], axis=1)
        data += table[table != 0].tobytes()  # the cells hold no NUL byte
    else:
        rows = zip(*(t if i is None else np.array(t, dtype=object)[i].tolist() for t, i in cells))
        data += "\r\n".join([*map(",".join, rows), ""]).encode()
    Path(path).write_bytes(data)


# ---------------------------------------------------------------------------
# Spectral CSV: header `wavelength_nm,value` or `wavelength_nm,name1,name2,...`
# ---------------------------------------------------------------------------


def load_spectral_table(path) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Read a spectral CSV; returns (wavelengths, column names, values (M, n))."""
    return _spectral_table(path)


def _spectral_table(path, header=None) -> tuple[np.ndarray, list[str], np.ndarray]:
    """``load_spectral_table``, with ``header`` the exact header required, if given."""
    header, _text, values, lines = _read_table(path, header)
    if header[0] != "wavelength_nm" or len(header) < 2:
        raise ParseError(
            f"{path}:{lines[0]}: header must start with 'wavelength_nm' followed by value columns"
        )
    wl = values[:, 0]
    down = np.flatnonzero(np.diff(wl) <= 0)
    if down.size:
        i = down[0]
        raise ParseError(
            f"{path}:{lines[i + 2]}: wavelengths must be strictly increasing "
            f"({wl[i + 1]} after {wl[i]})"
        )
    if wl.size < 2:
        raise ParseError(f"{path}: need at least 2 wavelength rows")
    return wl, header[1:], values[:, 1:]


def _grid_of(wl: np.ndarray, path) -> SpectralGrid:
    steps = np.diff(wl)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-9):
        raise ParseError(
            f"{path}: wavelength spacing is not uniform; pass target_grid to resample"
        )
    return SpectralGrid(float(wl[0]), float(steps[0]), int(wl.size))


def _onto_grid(wl: np.ndarray, values: np.ndarray, target: SpectralGrid) -> np.ndarray:
    if np.array_equal(wl, at := target.wavelengths):  # np.interp would return these as read
        return values
    return np.column_stack([np.interp(at, wl, col, left=0.0, right=0.0) for col in values.T])


def load_spectral_csv(
    path, kind: Kind, target_grid: SpectralGrid | None = None
) -> list[SpectralCurve]:
    """Load every column of a spectral CSV as a curve of the given kind."""
    wl, _names, values = load_spectral_table(path)
    grid = target_grid if target_grid is not None else _grid_of(wl, path)
    values = values if target_grid is None else _onto_grid(wl, values, grid)
    return [SpectralCurve(grid, col, kind) for col in values.T]


def save_spectral_csv(path, curves, names=None) -> None:
    curves = list(curves)
    grid = curves[0].grid
    if any(c.grid != grid for c in curves):
        raise ValueError("all curves must share one grid")
    if names is None:
        names = ["value"] if len(curves) == 1 else [f"c{i:03d}" for i in range(len(curves))]
    columns = [grid.wavelengths, *(c.values for c in curves)]
    _write_table(path, ["wavelength_nm", *names], columns)


# ---------------------------------------------------------------------------
# Exposure-stack CSV: patch_id,exposure_s,I_r,I_g,I_b
# ---------------------------------------------------------------------------

_STACK_HEADER = ["patch_id", "exposure_s", "I_r", "I_g", "I_b"]


def save_stack_csv(path, stack: ExposureStack) -> None:
    patch_ids = np.repeat(np.arange(stack.n_patches), stack.n_exposures)
    exposures = np.tile(stack.exposures, stack.n_patches)
    _write_table(path, _STACK_HEADER, [patch_ids, exposures, *stack.samples.reshape(-1, 3).T])


def load_stack_csv(
    path, bit_depth: int = 8, sat_lo: int | None = None, sat_hi: int | None = None
) -> ExposureStack:
    """Read an exposure stack; every patch must list the same exposure sequence.

    Rows are grouped by patch in order of first appearance and keep their
    file order within a patch. Saturation flags are not stored in the file;
    they are recomputed from the thresholds supplied here, which default to
    10/230 scaled to the bit depth.
    """
    _header, text, values, lines = _read_table(path, _STACK_HEADER, text_columns=1)
    if not len(values):
        raise ParseError(f"{path}: no samples")
    bad = np.flatnonzero(~(np.isfinite(values[:, 0]) & (values[:, 0] > 0)))
    if bad.size:
        raise ParseError(f"{path}:{lines[bad[0] + 1]}: exposure_s must be a finite positive "
                         f"time, got {values[bad[0], 0]}")
    codes = values[:, 1:]
    bad = np.argwhere(~np.isfinite(codes) | (codes != np.trunc(codes)))
    if bad.size:
        i, c = bad[0]
        raise ParseError(
            f"{path}:{lines[i + 1]}: {_STACK_HEADER[2 + c]} must be an integer code, "
            f"got {codes[i, c]}"
        )
    ids, first, inverse = np.unique(text[:, 0], return_index=True, return_inverse=True)
    by_first = np.argsort(first)  # patch number -> index into ids
    patch = np.argsort(by_first)[inverse.ravel()]
    rows = np.argsort(patch, kind="stable")
    counts = np.bincount(patch)
    n_exp = int(counts[0])
    exposures = values[rows, 0]
    shared = counts == n_exp
    if shared.all():
        shared[1:] = (exposures.reshape(-1, n_exp)[1:] == exposures[:n_exp]).all(axis=1)
    if not shared.all():
        patch_id = str(ids[by_first[np.argmin(shared)]])
        raise ParseError(
            f"{path}: patch {patch_id!r} does not list the shared exposure sequence "
            f"{exposures[:n_exp].tolist()}"
        )
    samples = codes[rows].reshape(counts.size, n_exp, 3)
    return ExposureStack(exposures[:n_exp], samples, bit_depth, sat_lo, sat_hi)


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
    write_json(manifest, {"entries": entries})
    return manifest


def load_database(manifest_path, target_grid: SpectralGrid | None = None) -> SensitivityDatabase:
    manifest_path = Path(manifest_path)
    entries = _typed(read_json(manifest_path), "entries", list[dict] | None) or []
    files = [_typed(e, "file", str) for e in entries]
    missing = [f for f in files if not (manifest_path.parent / f).exists()]
    if missing:
        raise ParseError(
            f"{manifest_path}: manifest references missing file(s): {', '.join(missing)}"
        )
    loaded = []
    grid = target_grid
    for entry, file in zip(entries, files):
        omega = load_sensitivity_csv(manifest_path.parent / file, grid)
        grid = omega.grid
        loaded.append((_typed(entry, "name", str), omega))
    if grid is None:
        raise ParseError(f"{manifest_path}: manifest lists no entries")
    return SensitivityDatabase(tuple(loaded), grid)


# ---------------------------------------------------------------------------
# Measurement set: radiance CSV (one column per sample) + intensity CSV
# ---------------------------------------------------------------------------

_MEASUREMENT_HEADER = ["sample_id", "I_r", "I_g", "I_b", "valid"]


def save_measurement_set(directory, m: MeasurementSet) -> tuple[Path, Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    radiance = directory / "radiance.csv"
    curves = [SpectralCurve(m.grid, row, Kind.RADIANCE) for row in m.p]
    save_spectral_csv(radiance, curves, names=[f"s{i:04d}" for i in range(len(curves))])
    table = directory / "measurements.csv"
    columns = [np.arange(len(m.valid)), *m.i_linear.T, m.valid.astype(int)]
    _write_table(table, _MEASUREMENT_HEADER, columns)
    return radiance, table


def load_measurement_set(
    radiance_path, measurements_path, target_grid: SpectralGrid | None = None
) -> MeasurementSet:
    """Read a radiance CSV and its intensity table; ``valid`` must be 0 or 1."""
    curves = load_spectral_csv(radiance_path, Kind.RADIANCE, target_grid)
    _, _, values, lines = _read_table(measurements_path, _MEASUREMENT_HEADER, text_columns=1)
    if len(values) != len(curves):
        raise ParseError(
            f"{measurements_path}: {len(values)} samples but radiance file has "
            f"{len(curves)} columns"
        )
    valid = values[:, 3]
    bad = np.flatnonzero((valid != 0) & (valid != 1))
    if bad.size:
        i = bad[0]
        raise ParseError(
            f"{measurements_path}:{lines[i + 1]}: column 'valid': must be 0 or 1, got {valid[i]}"
        )
    p = np.stack([c.values for c in curves])
    return MeasurementSet(curves[0].grid, p, values[:, :3], valid == 1)


def save_sensitivity_csv(path, omega: SensitivityMatrix) -> None:
    """Write a sensitivity matrix in the database per-camera CSV format."""
    columns = [omega.grid.wavelengths, *omega.channels.T]
    _write_table(path, ["wavelength_nm", "omega_r", "omega_g", "omega_b"], columns)


def load_sensitivity_csv(path, target_grid: SpectralGrid | None = None) -> SensitivityMatrix:
    wl, _names, values = _spectral_table(path, ["wavelength_nm", "omega_r", "omega_g", "omega_b"])
    grid = target_grid if target_grid is not None else _grid_of(wl, path)
    return SensitivityMatrix(grid, _onto_grid(wl, values, grid))


def load_gamut_samples(path) -> tuple[np.ndarray, np.ndarray]:
    """Read the fit-gamut CSV S_r,S_g,S_b,E_r,E_g,E_b: (S (N, 3), E (N, 3))."""
    _header, _text, data, _lines = _read_table(path, ["S_r", "S_g", "S_b", "E_r", "E_g", "E_b"])
    return data[:, :3], data[:, 3:]


# ---------------------------------------------------------------------------
# Camera model JSON (schema 1)
# ---------------------------------------------------------------------------


def grid_to_dict(grid: SpectralGrid) -> dict:
    return {"start_nm": grid.start_nm, "step_nm": grid.step_nm, "count": grid.count}


def grid_from_dict(doc: dict) -> SpectralGrid:
    start, step = (float(_typed(doc, k, float)) for k in ("start_nm", "step_nm"))
    return SpectralGrid(start, step, _typed(doc, "count", int))


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
        centers=np.asarray(_typed(doc, "centers", _MATRIX), dtype=float),
        weights=np.asarray(_typed(doc, "weights", _MATRIX), dtype=float),
        kernel_width=float(_typed(doc, "kernel_width", float)),
        ridge=float(_typed(doc, "ridge", float)),
        affine=np.asarray(_typed(doc, "affine", _MATRIX), dtype=float),
    )


def save_camera(path, cam: CameraModel) -> None:
    write_json(
        path,
        {
            "exposure_applied": EXPOSURE_CONVENTION,
            "grid": grid_to_dict(cam.grid),
            "bit_depth": cam.bit_depth,
            "sat_lo": cam.sat_lo,
            "sat_hi": cam.sat_hi,
            "omega": cam.omega.channels.tolist(),
            "response": {"ln_e": cam.response.ln_e.tolist()},
            "gamut": gamut_to_dict(cam.gamut),
        },
    )


def load_camera(path) -> CameraModel:
    doc = read_json(path)
    if (convention := _typed(doc, "exposure_applied", str)) != EXPOSURE_CONVENTION:
        raise ParseError(f"{path}: key 'exposure_applied' must be "
                         f"{json.dumps(EXPOSURE_CONVENTION)}, got {json.dumps(convention)}")
    grid = grid_from_dict(_typed(doc, "grid", dict))
    bit_depth = _typed(doc, "bit_depth", int)
    ln_e = _typed(_typed(doc, "response", dict), "ln_e", _MATRIX)
    return CameraModel(
        grid=grid,
        omega=SensitivityMatrix(grid, np.asarray(_typed(doc, "omega", _MATRIX), dtype=float)),
        response=ResponseCurve(bit_depth, np.asarray(ln_e)),
        gamut=gamut_from_dict(_typed(doc, "gamut", dict | None)),
        sat_lo=_typed(doc, "sat_lo", int),
        sat_hi=_typed(doc, "sat_hi", int),
    )


# ---------------------------------------------------------------------------
# Pipeline config JSON
# ---------------------------------------------------------------------------


def save_config(path, cfg: PipelineConfig, grid: SpectralGrid | None = None) -> None:
    doc = {} if grid is None else {"grid": grid_to_dict(grid)}
    write_json(path, {**doc, **asdict(cfg)})


def load_config(path) -> tuple[PipelineConfig, SpectralGrid | None]:
    """Read a config; keys other than ``grid`` and the PipelineConfig fields are refused,
    and each field's value must have the field's annotated type."""
    doc = read_json(path)
    grid = _typed(doc, "grid", dict | None)
    types = typing.get_type_hints(PipelineConfig)
    unknown = [k for k in doc if k != "grid" and k not in types]
    if unknown:
        raise ParseError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    fields = {k: _typed(doc, k, types[k]) for k in doc if k != "grid"}
    return PipelineConfig(**fields), grid_from_dict(grid) if grid is not None else None


# ---------------------------------------------------------------------------
# Calibration dataset: manifest JSON + CSV parts
# ---------------------------------------------------------------------------


def save_dataset(directory, inp: CalibrationInput) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, prefix, curves in (("illuminants", "l", inp.illuminants),
                                 ("reflectances", "r", inp.reflectances)):
        names = [f"{prefix}{i:03d}" for i in range(len(curves))]
        save_spectral_csv(directory / f"{name}.csv", curves, names=names)
    stack_files = []
    for i, stack in enumerate(inp.stacks):
        name = f"stack_{i:03d}.csv"
        save_stack_csv(directory / name, stack)
        stack_files.append(name)
    first = inp.stacks[0]
    manifest = directory / "dataset.json"
    write_json(
        manifest,
        {
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
    doc = read_json(manifest_path)
    grid = grid_from_dict(_typed(doc, "grid", dict))
    base = manifest_path.parent
    illuminants = load_spectral_csv(base / _typed(doc, "illuminants", str), Kind.ILLUMINANT, grid)
    reflectances = load_spectral_csv(
        base / _typed(doc, "reflectances", str), Kind.REFLECTANCE, grid
    )
    bit_depth, sat_lo, sat_hi = (_typed(doc, k, int) for k in ("bit_depth", "sat_lo", "sat_hi"))
    stacks = [
        load_stack_csv(base / name, bit_depth, sat_lo, sat_hi)
        for name in _typed(doc, "stacks", list[str])
    ]
    return CalibrationInput(grid, tuple(illuminants), tuple(reflectances), tuple(stacks))


def load_scene(path, grid: SpectralGrid) -> tuple[SpectralCurve, list, np.ndarray]:
    """Read a ``simulate`` scene: (illuminant, reflectances, exposures). Its CSV paths are
    relative to the scene file; only the illuminant CSV's first column is used."""
    doc, base = read_json(path), Path(path).parent
    light = load_spectral_csv(base / _typed(doc, "illuminant", str), Kind.ILLUMINANT, grid)[0]
    surfaces = load_spectral_csv(base / _typed(doc, "reflectances", str), Kind.REFLECTANCE, grid)
    return light, surfaces, np.asarray(_typed(doc, "exposures", list[float]), dtype=float)


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
    write_json(
        report_path,
        {
            "disjoint_from_training": report.disjoint_from_training,
            "unsaturated": _split_to_dict(report.unsaturated),
            "saturated": _split_to_dict(report.saturated),
        },
    )
    scatter_path = directory / "scatter.csv"
    columns = (report.channel, report.measured, report.predicted, report.is_saturated)
    _write_table(
        scatter_path,
        ["channel", "I", "I_hat", "saturated"],
        [np.asarray(col).astype(int, copy=False) for col in columns],
    )
    return report_path, scatter_path


def save_chromaticity_csv(path, xy: np.ndarray, regions, magnitudes) -> None:
    """Fig-style export: x,y,region,magnitude rows for an external plotter."""
    xy = np.asarray(xy, dtype=float)
    columns = [*xy.T, np.asarray(regions, dtype=object), np.asarray(magnitudes, dtype=float)]
    _write_table(path, ["x", "y", "region", "magnitude"], columns)


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


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_manifest(directory, manifest: RunManifest) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "manifest.json"
    write_json(path, asdict(manifest))
    return path

