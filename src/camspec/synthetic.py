"""The synthetic oracle: ground-truth cameras, calibration datasets and databases.

This is the one place that builds known truths for the estimators to be
checked against; given its seed, everything here is deterministic.
"""

from __future__ import annotations

import functools

import numpy as np

from .camera import CameraModel, ResponseCurve, render
from .gamut import RbfGamutMap
from .pipeline import CalibrationInput
from .response import ExposureStack
from .sensitivity import SensitivityDatabase
from .spectral import Kind, SensitivityMatrix, SpectralCurve, SpectralGrid, radiance_rows


def _gaussian(wl: np.ndarray, center: float, width: float) -> np.ndarray:
    return np.exp(-0.5 * ((wl - center) / width) ** 2)


# Channel bump families for the synthetic databases: (center_nm, spread_nm).
_CHANNEL_CENTERS = ((605.0, 18.0), (540.0, 15.0), (465.0, 15.0))
# The synthetic camera's r, g, b bumps: (center_nm, width_nm).
_TRUTH_BUMPS = ((605.0, 30.0), (540.0, 33.0), (465.0, 28.0))


def synthetic_database(
    grid: SpectralGrid, n_entries: int = 24, seed: int = 7
) -> SensitivityDatabase:
    """Stand-in for a measured camera database: Gaussian-mixture channel curves.

    Each entry gets a main bump per channel (center and width jittered
    around plausible camera values) plus an occasional side lobe. A real
    database in the documented CSV format drops in via ``io.load_database``.
    """
    if n_entries < 2:
        raise ValueError("need at least 2 entries")
    rng = np.random.default_rng(seed)
    bumps, lobe_at, lobes = [], [], []  # the draws, in order: per curve, then per side lobe
    for curve in range(3 * n_entries):
        center, spread = _CHANNEL_CENTERS[curve % 3]
        c = rng.normal(center, spread)
        width = rng.uniform(22.0, 42.0)
        amp = rng.uniform(0.6, 1.0)
        bumps.append((c, width, amp))
        if rng.uniform() < 0.5:
            side = rng.uniform(0.05, 0.2) * amp
            shift = (-1.0, 1.0)[rng.integers(0, 2)] * rng.uniform(35.0, 70.0)
            lobe_at.append(curve)
            lobes.append((side, c + shift, rng.uniform(15.0, 30.0)))
    c, width, amp = np.array(bumps).T[..., None]
    curves = amp * _gaussian(grid.wavelengths, c, width)  # (3 n_entries, M), channel-minor
    side, c, width = np.array(lobes).reshape(-1, 3).T[..., None]
    curves[lobe_at] += side * _gaussian(grid.wavelengths, c, width)
    return SensitivityDatabase(tuple(
        (f"synthcam-{idx:03d}", SensitivityMatrix(grid, curves[3 * idx : 3 * idx + 3].T))
        for idx in range(n_entries)
    ), grid)


def spanning_database(
    grid: SpectralGrid, d: int = 6, n_entries: int = 24, seed: int = 11
) -> tuple[SensitivityDatabase, np.ndarray]:
    """Database of known rank d per channel, plus its (3, d, M) parent curves.

    Entries are strictly positive combinations of d Gaussian parents, so a
    basis built with dimension d spans the parents exactly. Tests use this
    to place a ground-truth camera inside the basis span.
    """
    if n_entries < max(2, d):
        raise ValueError(f"need at least max(2, d)={max(2, d)} entries")
    rng = np.random.default_rng(seed)
    wl = grid.wavelengths
    span = grid.end_nm - grid.start_nm
    parents = np.empty((3, d, grid.count))
    for k, (center, _) in enumerate(_CHANNEL_CENTERS):
        offsets = np.linspace(-0.22 * span, 0.22 * span, d)
        for j, off in enumerate(offsets):
            parents[k, j] = _gaussian(wl, center + off, rng.uniform(20.0, 34.0))
    entries = []
    for idx in range(n_entries):
        cols = np.empty((grid.count, 3))
        for k in range(3):
            mix = rng.uniform(0.05, 1.0, size=d)
            cols[:, k] = mix @ parents[k]
        entries.append((f"spancam-{idx:03d}", SensitivityMatrix(grid, cols)))
    return SensitivityDatabase(tuple(entries), grid), parents


def _truth_camera(
    grid: SpectralGrid, channels: np.ndarray, gamma, gamut, bit_depth, sat_lo, sat_hi
) -> CameraModel:
    """The one assembly of a ground-truth camera from its (M, 3) sensitivity columns."""
    return CameraModel(
        grid=grid,
        omega=SensitivityMatrix(grid, channels),
        response=ResponseCurve.from_gamma(gamma, bit_depth),
        gamut=gamut,
        sat_lo=sat_lo,
        sat_hi=sat_hi,
    )


def synthetic_camera(
    grid: SpectralGrid,
    gamma=2.2,
    gamut: RbfGamutMap | None = None,
    bit_depth: int = 8,
    sat_lo: int | None = None,
    sat_hi: int | None = None,
    peak: float = 0.25,
) -> CameraModel:
    """Deterministic ground-truth camera: Gaussian-bump sensitivities, power-law
    response, optional gamut warp.

    Channel curves are normalized to a common spectral sum (the camera is
    white balanced under a flat spectrum); ``peak`` sets the red maximum so
    typical scenes land mid-range at exposures around a second. Thresholds
    default to 10/230 scaled proportionally to the bit depth.
    """
    bumps = [_gaussian(grid.wavelengths, c, w) for c, w in _TRUTH_BUMPS]
    channels = np.stack([b / b.sum() for b in bumps], axis=1)
    channels = channels * (peak / channels[:, 0].max())
    return _truth_camera(grid, channels, gamma, gamut, bit_depth, sat_lo, sat_hi)


def camera_in_basis_span(
    grid: SpectralGrid,
    parents: np.ndarray,
    gamma=2.2,
    gamut: RbfGamutMap | None = None,
    peak: float = 0.25,
    seed: int = 3,
    bit_depth: int = 8,
    sat_lo: int | None = None,
    sat_hi: int | None = None,
) -> CameraModel:
    """Ground-truth camera whose sensitivity is a positive parent combination,
    hence exactly inside the basis built from a spanning database."""
    rng = np.random.default_rng(seed)
    d = parents.shape[1]
    cols = np.empty((grid.count, 3))
    for k in range(3):
        mix = rng.uniform(0.2, 1.0, size=d)
        col = mix @ parents[k]
        cols[:, k] = col * (peak / col.max())
    return _truth_camera(grid, cols, gamma, gamut, bit_depth, sat_lo, sat_hi)


def synthetic_gamut_warp(scale: float = 1.0, strength: float = 0.05, seed: int = 0) -> RbfGamutMap:
    """A mild nonlinear warp: identity affine plus RBF bumps anchored near the
    chromatic corners, so the deviation is small near the neutral axis and
    grows toward the gamut edge. ``scale`` is the typical raw-tristimulus
    magnitude of the camera it will be attached to."""
    rng = np.random.default_rng(seed)
    corners = np.array([[1.00, 0.15, 0.15], [0.15, 1.00, 0.15], [0.15, 0.15, 1.00],
                        [1.00, 1.00, 0.20], [1.00, 0.20, 1.00], [0.20, 1.00, 1.00]])
    centers = corners * scale
    directions = rng.uniform(-1.0, 1.0, size=(len(corners), 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    weights = strength * scale * directions
    width = 0.35 * scale
    # Offset chosen so the map fixes the origin: dark scenes stay dark.
    kernels_at_zero = np.exp(-(centers**2).sum(axis=1) / (2.0 * width * width))
    affine = np.hstack([np.eye(3), -(weights.T @ kernels_at_zero)[:, None]])
    return RbfGamutMap(
        centers=centers,
        weights=weights,
        kernel_width=width,
        ridge=0.0,
        affine=affine,
    )


# The reflectance smoothing kernel: a Gaussian of 2 samples' sigma, cut at 3 sigma.
_SMOOTH_RADIUS = 6
_SMOOTH_KERNEL = np.exp(-0.5 * (np.arange(-_SMOOTH_RADIUS, _SMOOTH_RADIUS + 1.0) / 2.0) ** 2)
_SMOOTH_KERNEL /= _SMOOTH_KERNEL.sum()


@functools.cache
def _reflected(n: int) -> np.ndarray:
    """Indices that pad an n-vector by the radius on both sides as ``np.pad(mode="reflect")``
    does: mirrored about the end samples, repeatedly if the radius exceeds n - 1."""
    i = np.arange(-_SMOOTH_RADIUS, n + _SMOOTH_RADIUS) % (2 * n - 2)
    return np.minimum(i, 2 * n - 2 - i)


def _smooth(values: np.ndarray) -> np.ndarray:
    return np.convolve(values[_reflected(values.size)], _SMOOTH_KERNEL, mode="valid")


def generate_synthetic_dataset(
    truth: CameraModel,
    n_illuminants: int,
    n_patches: int,
    exposures,
    seed: int = 0,
) -> CalibrationInput:
    """Deterministic desk-scale calibration data simulated through a truth camera.

    Illuminants are sums of 2-4 positive Gaussian bumps; reflectances are
    smoothed uniform noise scaled over a wide brightness range so the
    exposure stacks cover the code range. The same seed reproduces the
    dataset byte for byte.
    """
    if n_illuminants < 1 or n_patches < 1:
        raise ValueError("need at least one illuminant and one patch")
    exposures = np.asarray(list(exposures), dtype=float)  # checked by render and ExposureStack
    rng = np.random.default_rng(seed)
    grid = truth.grid
    wl = grid.wavelengths

    illuminants = []
    for _ in range(n_illuminants):
        n_bumps = int(rng.integers(2, 5))
        values = np.zeros(grid.count)
        for _ in range(n_bumps):
            center = rng.uniform(grid.start_nm, grid.end_nm)
            width = rng.uniform(25.0, 90.0)
            values += rng.uniform(0.25, 1.0) * _gaussian(wl, center, width)
        values *= rng.uniform(0.6, 1.0) / values.max()
        illuminants.append(SpectralCurve(grid, values, Kind.ILLUMINANT))

    reflectances = []
    for _ in range(n_patches):
        base = _smooth(rng.uniform(0.0, 1.0, size=grid.count))
        span = base.max() - base.min()
        base = (base - base.min()) / span if span > 0 else np.full(grid.count, 0.5)
        # Log-uniform brightness down to very dark patches so the exposure
        # stacks exercise the whole code range.
        level = np.exp(rng.uniform(np.log(0.004), np.log(1.0)))
        reflectances.append(
            SpectralCurve(grid, level * (0.25 + 0.75 * base), Kind.REFLECTANCE)
        )

    codes = render(truth, radiance_rows(illuminants, reflectances), exposures)
    stacks = [
        ExposureStack(exposures, samples, truth.bit_depth, truth.sat_lo, truth.sat_hi)
        for samples in codes.reshape(n_illuminants, n_patches, exposures.size, 3)
    ]
    return CalibrationInput(grid, tuple(illuminants), tuple(reflectances), tuple(stacks))
