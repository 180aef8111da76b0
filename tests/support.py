"""Shared independent oracles for the test suite.

Everything here deliberately re-implements library behavior from scratch
(loops, searchsorted, explicit formulas) so tests compare two separate
codings of the same contract.
"""

from __future__ import annotations

import numpy as np


def eq1_pixel_oracle(
    omega: np.ndarray,
    ln_e_table: np.ndarray,
    gamut,
    light: np.ndarray,
    surface: np.ndarray,
    exposure: float,
) -> np.ndarray:
    """Direct evaluation of the forward model I = g(h(r l Omega) * e).

    ``gamut`` is None (identity) or a dict with centers/weights/width/affine.
    Quantization: nearest table code in the linear-exposure domain, halves up.
    """
    s = np.array([float(np.sum(light * surface * omega[:, k])) for k in range(3)])
    if gamut is None:
        e_lin = s
    else:
        e_lin = gamut["affine"][:, :3] @ s + gamut["affine"][:, 3]
        for center, weight in zip(gamut["centers"], gamut["weights"]):
            d2 = float(np.sum((s - center) ** 2))
            e_lin = e_lin + weight * np.exp(-d2 / (2.0 * gamut["width"] ** 2))
    codes = np.empty(3, dtype=int)
    for k in range(3):
        codes[k] = quantize_oracle(e_lin[k] * exposure, ln_e_table[k])
    return codes


def quantize_oracle(value: float, ln_e_row: np.ndarray) -> int:
    """Independent quantizer: bracket with searchsorted, round the fraction."""
    g_inv = np.exp(ln_e_row)
    zmax = g_inv.size - 1
    if value <= g_inv[0]:
        return 0
    if value >= g_inv[zmax]:
        return zmax
    z = int(np.searchsorted(g_inv, value, side="right")) - 1
    frac = (value - g_inv[z]) / (g_inv[z + 1] - g_inv[z])
    return z + 1 if frac >= 0.5 else z


def reciprocity_oracle(samples, exposures, ln_e, sat_lo: int, sat_hi: int) -> list:
    """Per channel (max, mean, count) of |g^-1(z1)/g^-1(z2) - e1/e2| over every
    patch and exposure pair valid in that channel, summed in loop order;
    (nan, nan, 0) for a channel without a valid pair."""
    g_inv = np.exp(np.asarray(ln_e, dtype=float))
    out = []
    for k in range(3):
        worst, total, count = 0.0, 0.0, 0
        for patch in samples:
            for i1 in range(len(exposures)):
                for i2 in range(i1 + 1, len(exposures)):
                    z1, z2 = int(patch[i1][k]), int(patch[i2][k])
                    if not (sat_lo <= z1 <= sat_hi and sat_lo <= z2 <= sat_hi):
                        continue
                    ratio = float(g_inv[k, z1]) / float(g_inv[k, z2])
                    dev = abs(ratio - float(exposures[i1]) / float(exposures[i2]))
                    worst = max(worst, dev)
                    total += dev
                    count += 1
        out.append((worst, total / count, count) if count else (np.nan, np.nan, 0))
    return out


def nnls_bruteforce(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Enumerate every support set; exact for small well-posed problems."""
    m, n = a.shape
    best = np.zeros(n)
    best_cost = float(np.sum(b * b))
    for mask in range(1, 2**n):
        cols = [j for j in range(n) if mask >> j & 1]
        sol, *_ = np.linalg.lstsq(a[:, cols], b, rcond=None)
        if (sol < 0).any():
            continue
        x = np.zeros(n)
        x[cols] = sol
        cost = float(np.sum((a @ x - b) ** 2))
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = x
    return best


def lsi_bruteforce(a: np.ndarray, y: np.ndarray, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Enumerate active sets of the constraints; exact for small problems."""
    n = a.shape[1]
    m = g.shape[0]
    best_x = None
    best_cost = np.inf
    for mask in range(2**m):
        active = [i for i in range(m) if mask >> i & 1]
        if len(active) > n:
            continue
        if active:
            ga = g[active]
            kkt = np.block(
                [[a.T @ a, ga.T], [ga, np.zeros((len(active), len(active)))]]
            )
            rhs = np.concatenate([a.T @ y, h[active]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
        else:
            x, *_ = np.linalg.lstsq(a, y, rcond=None)
        if (g @ x - h).min(initial=0.0) < -1e-9:
            continue
        cost = float(np.sum((a @ x - y) ** 2))
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_x = x
    return best_x


def isotonic_bruteforce(y: np.ndarray) -> np.ndarray:
    """Enumerate contiguous partitions with nondecreasing block means."""
    y = np.asarray(y, dtype=float)
    n = y.size
    best = None
    best_cost = np.inf
    for mask in range(2 ** (n - 1)):
        bounds = [0]
        for i in range(n - 1):
            if mask >> i & 1:
                bounds.append(i + 1)
        bounds.append(n)
        means = [y[bounds[i] : bounds[i + 1]].mean() for i in range(len(bounds) - 1)]
        if any(means[i] > means[i + 1] for i in range(len(means) - 1)):
            continue
        fit = np.concatenate(
            [np.full(bounds[i + 1] - bounds[i], means[i]) for i in range(len(means))]
        )
        cost = float(np.sum((fit - y) ** 2))
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = fit
    return best


def cluster_target_codes() -> np.ndarray:
    """24 patch target codes: dense at both code-range ends, spread mid-range,
    so the response fit has data force everywhere in the check window."""
    return np.concatenate(
        [np.linspace(9, 40, 12), np.linspace(70, 185, 4), np.linspace(198, 250, 8)]
    )


def levels_for_codes(cam, target_codes: np.ndarray, gamma: float, e_mid: float = 1.0) -> np.ndarray:
    """Flat-patch reflectance levels that land the given codes at exposure
    ``e_mid`` under a flat unit illuminant (using the blue channel sum)."""
    sum_omega = cam.omega.channels.sum(axis=0)
    zmax = 2**cam.bit_depth - 1
    return ((np.asarray(target_codes) / zmax) ** gamma / (sum_omega[2] * e_mid)).clip(max=1.0)


def flat_patch_stack(cam, levels, exposures):
    """ExposureStack of flat patches under a flat unit illuminant."""
    from camspec import ExposureStack, Kind, SpectralCurve, simulate_pixel

    grid = cam.grid
    light = SpectralCurve(grid, np.ones(grid.count), Kind.ILLUMINANT)
    exposures = np.asarray(exposures, dtype=float)
    samples = np.empty((len(levels), exposures.size, 3), dtype=int)
    for j, level in enumerate(levels):
        surface = SpectralCurve(grid, np.full(grid.count, float(level)), Kind.REFLECTANCE)
        for i, e in enumerate(exposures):
            samples[j, i] = simulate_pixel(cam, light, surface, float(e))
    return ExposureStack(exposures, samples, cam.bit_depth, cam.sat_lo, cam.sat_hi)


def gauge_aligned_code_error(fit, truth, code_lo: int = 20, code_hi: int = 220) -> np.ndarray:
    """Max |recovered - true| in code units per channel, after aligning the
    arbitrary scale of the recovered curve at the mid code."""
    from camspec.camera import interpolated_code

    z = np.arange(code_lo, code_hi + 1)
    mid = 2 ** (truth.bit_depth - 1)
    out = np.empty(3)
    for k in range(3):
        gauge = truth.g_inv[k, mid] / fit.g_inv[k, mid]
        z_back = np.array([interpolated_code(v * gauge, truth, k) for v in fit.g_inv[k, z]])
        out[k] = np.abs(z_back - z).max()
    return out


def loglog_exponent(curve, code_lo: int = 20, code_hi: int = 220) -> np.ndarray:
    """Per-channel slope of ln g^-1 against ln(code fraction)."""
    z = np.arange(code_lo, code_hi + 1)
    zmax = 2**curve.bit_depth - 1
    return np.array(
        [np.polyfit(np.log(z / zmax), curve.ln_e[k, z], 1)[0] for k in range(3)]
    )


def smooth_spectra(rng: np.random.Generator, n: int, wavelengths: np.ndarray,
                   noise_floor: float = 0.05,
                   widths: tuple = (15.0, 70.0)) -> np.ndarray:
    """Random nonnegative bumpy spectra with a small broadband floor so the
    rows span the grid (keeps normal equations invertible). Narrow ``widths``
    emulate a tunable narrowband light source, which probes the sensitivity
    far better than broadband light."""
    m = wavelengths.size
    rows = np.empty((n, m))
    lo, hi = wavelengths[0], wavelengths[-1]
    for i in range(n):
        row = np.zeros(m)
        for _ in range(int(rng.integers(2, 5))):
            center = rng.uniform(lo, hi)
            width = rng.uniform(*widths)
            row += rng.uniform(0.2, 1.0) * np.exp(-0.5 * ((wavelengths - center) / width) ** 2)
        rows[i] = row + noise_floor * rng.uniform(0.2, 1.0, size=m)
    return rows


def run_cli(*argv) -> int:
    from camspec.cli import main

    return main(list(argv))


def tree_digest(root, exclude=("manifest.json",)) -> dict:
    """Relative path -> file bytes for every artifact under ``root``."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.name in exclude:
            continue
        out[str(path.relative_to(root))] = path.read_bytes()
    return out
