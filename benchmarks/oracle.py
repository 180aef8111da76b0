"""Output checks for the benchmark, written apart from camspec.

Nothing here imports camspec. The forward model is Eq. 1 evaluated with
explicit loops over plain Python floats: the sum of l * r * Omega per
channel, then the affine-plus-Gaussian gamut map h, then a quantizer that
brackets the value in the linear response table with a binary search and
rounds halves up. Files are read with the stdlib csv and json modules, so
a check compares the program's artifacts with a second coding of the same
contract rather than with a stored copy of earlier output.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
from pathlib import Path

import numpy as np


def read_columns(path) -> list[list[float]]:
    """Value columns of a spectral CSV (the wavelength column dropped)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    return [[float(row[c]) for row in rows[1:]] for c in range(1, len(rows[0]))]


def read_stack(path) -> tuple[list[float], list[list[list[int]]]]:
    """Exposure-stack CSV as (exposures, codes[patch][exposure] -> [r, g, b])."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row][1:]
    patches: dict[str, list] = {}
    exposures: list[float] = []
    for patch, exposure, *codes in rows:
        patches.setdefault(patch, []).append([int(c) for c in codes])
        if len(patches) == 1:
            exposures.append(float(exposure))
    return exposures, list(patches.values())


def read_dataset(manifest) -> dict:
    """Dataset manifest plus its spectra and stacks, read without camspec."""
    manifest = Path(manifest)
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    base = manifest.parent
    stacks = [read_stack(base / name) for name in doc["stacks"]]
    return {
        "illuminants": read_columns(base / doc["illuminants"]),
        "reflectances": read_columns(base / doc["reflectances"]),
        "exposures": stacks[0][0],
        "codes": [codes for _, codes in stacks],
        "sat_lo": int(doc["sat_lo"]),
        "sat_hi": int(doc["sat_hi"]),
    }


def read_scatter(path) -> list[tuple[int, int, int, int]]:
    """scatter.csv rows as (channel, measured, predicted, saturated)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row][1:]
    return [tuple(int(v) for v in row) for row in rows]


class ForwardOracle:
    """Eq. 1 for one camera JSON document, one pixel at a time."""

    def __init__(self, camera: dict):
        omega = camera["omega"]  # rows per wavelength, one column per channel
        self.omega = [[float(row[k]) for row in omega] for k in range(3)]
        self.g_inv = [np.exp(np.asarray(row, dtype=float)).tolist()
                      for row in camera["response"]["ln_e"]]
        gamut = camera.get("gamut")
        self.gamut = None
        if gamut is not None:
            self.gamut = {
                "affine": [[float(v) for v in row] for row in gamut["affine"]],
                "centers": [[float(v) for v in row] for row in gamut["centers"]],
                "weights": [[float(v) for v in row] for row in gamut["weights"]],
                "two_w2": 2.0 * float(gamut["kernel_width"]) ** 2,
            }

    @classmethod
    def from_file(cls, path) -> "ForwardOracle":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))

    def tristimulus(self, light, surface) -> list[float]:
        out = []
        for k in range(3):
            total = 0.0
            for m, om in enumerate(self.omega[k]):
                total += light[m] * surface[m] * om
            out.append(total)
        return out

    def gamut_map(self, s) -> list[float]:
        if self.gamut is None:
            return list(s)
        aff = self.gamut["affine"]
        e = [aff[k][0] * s[0] + aff[k][1] * s[1] + aff[k][2] * s[2] + aff[k][3]
             for k in range(3)]
        for center, weight in zip(self.gamut["centers"], self.gamut["weights"]):
            d2 = 0.0
            for k in range(3):
                d2 += (s[k] - center[k]) ** 2
            phi = math.exp(-d2 / self.gamut["two_w2"])
            for k in range(3):
                e[k] += weight[k] * phi
        return e

    def quantize(self, value: float, k: int) -> int:
        table = self.g_inv[k]
        top = len(table) - 1
        if value <= table[0]:
            return 0
        if value >= table[top]:
            return top
        z = bisect.bisect_right(table, value) - 1
        frac = (value - table[z]) / (table[z + 1] - table[z])
        return z + 1 if frac >= 0.5 else z

    def pixel(self, light, surface, exposure: float) -> list[int]:
        e = self.gamut_map(self.tristimulus(light, surface))
        return [self.quantize(e[k] * exposure, k) for k in range(3)]


def check_scatter(oracle: ForwardOracle, dataset: dict, rows, sample=None) -> list[str]:
    """Compare scatter.csv rows with the oracle and with the stored codes.

    Rows are ordered illuminant, patch, exposure, channel. ``sample`` picks
    the pixels to check (indices into that order); None checks all.
    """
    n_p = len(dataset["reflectances"])
    n_e = len(dataset["exposures"])
    n_px = len(dataset["illuminants"]) * n_p * n_e
    if len(rows) != 3 * n_px:
        return [f"scatter has {len(rows)} rows, expected {3 * n_px}"]
    lo, hi = dataset["sat_lo"], dataset["sat_hi"]
    errors = []
    for q in range(n_px) if sample is None else sample:
        a, rest = divmod(q, n_p * n_e)
        j, i = divmod(rest, n_e)
        want = oracle.pixel(dataset["illuminants"][a], dataset["reflectances"][j],
                            dataset["exposures"][i])
        stored = dataset["codes"][a][j][i]
        saturated = int(any(z < lo or z > hi for z in stored))
        for k in range(3):
            got = rows[3 * q + k]
            if got != (k, stored[k], want[k], saturated):
                errors.append(f"pixel {q} channel {k}: scatter {got}, expected "
                              f"{(k, stored[k], want[k], saturated)}")
                if len(errors) >= 5:
                    return errors
    return errors


def unsaturated_rmse(rows) -> tuple[list[float], list[float]]:
    """Per-channel RMSE and max |error| over unsaturated scatter rows."""
    sq = [0.0, 0.0, 0.0]
    worst = [0.0, 0.0, 0.0]
    count = [0, 0, 0]
    for k, measured, predicted, saturated in rows:
        if saturated:
            continue
        err = predicted - measured
        sq[k] += err * err
        worst[k] = max(worst[k], abs(err))
        count[k] += 1
    return [math.sqrt(sq[k] / count[k]) for k in range(3)], worst


def check_report(report_path, rows, tol: float = 1e-12) -> tuple[list[float], list[str]]:
    """Recompute the unsaturated split of evaluation.json from scatter rows."""
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    rmse, worst = unsaturated_rmse(rows)
    errors = []
    split = report["unsaturated"]
    for k in range(3):
        if abs(split["rmse"][k] - rmse[k]) > tol * max(1.0, rmse[k]):
            errors.append(f"channel {k}: report RMSE {split['rmse'][k]}, rows give {rmse[k]}")
        if split["max_abs"][k] != worst[k]:
            errors.append(f"channel {k}: report max {split['max_abs'][k]}, rows give {worst[k]}")
    return rmse, errors


def gamma_table(gamma: float, bit_depth: int) -> np.ndarray:
    """ln g^-1 of the power-law truth response, code 0 floored at half a code."""
    zmax = 2**bit_depth - 1
    z = np.maximum(np.arange(zmax + 1, dtype=float), 0.5)
    return gamma * np.log(z / zmax)


def loglog_exponent(ln_e_row, lo: int, hi: int, bit_depth: int) -> float:
    """Least-squares slope of ln g^-1 against ln(code / zmax) over [lo, hi]."""
    zmax = 2**bit_depth - 1
    x = [math.log(z / zmax) for z in range(lo, hi + 1)]
    y = [float(ln_e_row[z]) for z in range(lo, hi + 1)]
    mx = sum(x) / len(x)
    my = sum(y) / len(y)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    return sxy / sxx


def gauge_aligned_error(fit_row, truth_row, lo: int, hi: int) -> float:
    """Max |code error| over [lo, hi] after matching the fit's scale to the
    truth at the mid code; codes are read back through the truth response."""
    fit_g = np.exp(np.asarray(fit_row, dtype=float))
    truth_g = np.exp(np.asarray(truth_row, dtype=float)).tolist()
    mid = len(truth_g) // 2
    gauge = truth_g[mid] / fit_g[mid]
    worst = 0.0
    for z in range(lo, hi + 1):
        v = float(fit_g[z]) * gauge
        if v <= truth_g[0]:
            back = 0.0
        elif v >= truth_g[-1]:
            back = float(len(truth_g) - 1)
        else:
            b = bisect.bisect_right(truth_g, v) - 1
            back = b + (v - truth_g[b]) / (truth_g[b + 1] - truth_g[b])
        worst = max(worst, abs(back - z))
    return worst


def reciprocity(samples: np.ndarray, exposures, ln_e: np.ndarray, lo: int, hi: int):
    """Vectorized exposure-reciprocity figures over every valid pair.

    ``samples`` is (patches, exposures, 3). Returns per-channel
    (max |ratio deviation|, mean |ratio deviation|, pair count).
    """
    exposures = np.asarray(exposures, dtype=float)
    i1, i2 = np.triu_indices(exposures.size, k=1)
    g = np.exp(np.asarray(ln_e, dtype=float))
    out = []
    for k in range(3):
        codes = samples[:, :, k]
        valid = (codes >= lo) & (codes <= hi)
        both = valid[:, i1] & valid[:, i2]
        lin = g[k][codes]
        dev = np.abs(lin[:, i1] / lin[:, i2] - exposures[i1] / exposures[i2])[both]
        if dev.size == 0:
            out.append((math.nan, math.nan, 0))
        else:
            out.append((float(dev.max()), float(dev.mean()), int(dev.size)))
    return out
