"""Discrete wavelength grids and elementwise spectral algebra.

Every spectral quantity in the library (illuminant power, surface
reflectance, scene radiance, channel sensitivity) is a vector sampled on a
uniform wavelength grid. Operations are pure and all containers are
immutable after construction, so values can be shared freely across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GridMismatchError


class Kind(Enum):
    """What a spectral curve physically represents."""

    ILLUMINANT = "illuminant"
    REFLECTANCE = "reflectance"
    RADIANCE = "radiance"
    SENSITIVITY = "sensitivity"


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform wavelength sampling: start_nm + i * step_nm for i in [0, count)."""

    start_nm: float
    step_nm: float
    count: int

    def __post_init__(self) -> None:
        if not self.step_nm > 0:
            raise ValueError(f"grid step must be positive, got {self.step_nm}")
        if self.count < 2:
            raise ValueError(f"grid needs at least 2 samples, got {self.count}")

    @property
    def wavelengths(self) -> np.ndarray:
        return self.start_nm + self.step_nm * np.arange(self.count, dtype=float)

    @property
    def end_nm(self) -> float:
        return self.start_nm + self.step_nm * (self.count - 1)


#: Visible-range default: 400-720 nm in 10 nm steps (33 samples).
DEFAULT_GRID = SpectralGrid(400.0, 10.0, 33)


def _frozen_array(values, shape=None) -> np.ndarray:
    out = np.array(values, dtype=float)
    if shape is not None and out.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {out.shape}")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SpectralCurve:
    """A nonnegative function of wavelength sampled on a grid.

    Reflectance curves are additionally bounded by 1. ``values`` is
    read-only; build a new curve instead of mutating.
    """

    grid: SpectralGrid
    values: np.ndarray
    kind: Kind

    def __post_init__(self) -> None:
        vals = _frozen_array(self.values, shape=(self.grid.count,))
        object.__setattr__(self, "values", vals)
        if not np.isfinite(vals).all():
            raise ValueError("curve values must be finite")
        if (vals < 0).any():
            raise ValueError(f"{self.kind.value} curve has negative values")
        if self.kind is Kind.REFLECTANCE and (vals > 1.0).any():
            raise ValueError("reflectance values must not exceed 1")


@dataclass(frozen=True, eq=False)
class SensitivityMatrix:
    """Per-channel spectral sensitivity, one column each for r, g, b.

    Entries are nonnegative and every channel has at least one strictly
    positive entry (a dead channel is a construction error, not a camera).
    """

    grid: SpectralGrid
    channels: np.ndarray  # (M, 3)

    def __post_init__(self) -> None:
        ch = _frozen_array(self.channels, shape=(self.grid.count, 3))
        object.__setattr__(self, "channels", ch)
        if not np.isfinite(ch).all():
            raise ValueError("sensitivity entries must be finite")
        if (ch < 0).any():
            raise ValueError("sensitivity entries must be nonnegative")
        dead = np.flatnonzero(~(ch > 0).any(axis=0))
        if dead.size:
            raise ValueError(f"sensitivity channel(s) {dead.tolist()} are identically zero")

    def channel(self, k: int) -> np.ndarray:
        return self.channels[:, k]

    @property
    def peak(self) -> float:
        return float(self.channels.max())


def resample(curve: SpectralCurve, target: SpectralGrid) -> SpectralCurve:
    """Linearly interpolate a curve onto another grid.

    Wavelengths outside the source support map to zero: a sensor that was
    never measured there is treated as unresponsive, not as an error.
    """
    if target == curve.grid:
        return curve
    vals = np.interp(
        target.wavelengths, curve.grid.wavelengths, curve.values, left=0.0, right=0.0
    )
    return SpectralCurve(target, vals, curve.kind)


def spectral_product(light: SpectralCurve, surface: SpectralCurve) -> SpectralCurve:
    """Scene radiance: elementwise product of illuminant power and reflectance."""
    if light.kind is not Kind.ILLUMINANT or surface.kind is not Kind.REFLECTANCE:
        raise ValueError(
            f"spectral_product expects (illuminant, reflectance), "
            f"got ({light.kind.value}, {surface.kind.value})"
        )
    if light.grid != surface.grid:
        raise GridMismatchError(
            "illuminant and reflectance are sampled on different grids; resample first"
        )
    return SpectralCurve(light.grid, light.values * surface.values, Kind.RADIANCE)


def radiance_rows(lights, surfaces) -> np.ndarray:
    """Scene radiance of every (illuminant, reflectance) pair as rows,
    illuminant-major: (n_lights * n_surfaces, M)."""
    if len({c.grid for c in (*lights, *surfaces)}) > 1:
        raise GridMismatchError("scene spectra are sampled on different grids; resample first")
    ill = np.stack([c.values for c in lights])
    refl = np.stack([c.values for c in surfaces])
    return (ill[:, None, :] * refl[None, :, :]).reshape(-1, ill.shape[1])


def integrate_sensitivity(radiance: SpectralCurve, omega: SensitivityMatrix) -> np.ndarray:
    """Raw tristimulus: per-channel dot product of radiance with sensitivity.

    Plain dot product, no wavelength-step factor; the sensitivity scale
    absorbs any constant.
    """
    if radiance.grid != omega.grid:
        raise GridMismatchError(
            "radiance and sensitivity are sampled on different grids; resample first"
        )
    return radiance.values @ omega.channels
