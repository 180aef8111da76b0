"""Forward camera model: sensitivity integration, gamut map, response, quantization.

A camera turns scene radiance into a digital triplet in three stages: the
spectral sensitivity reduces the spectrum to a raw tristimulus S, the
gamut map h moves S to the linear value E feeding the response, and the
per-channel response g quantizes E (scaled by exposure time) to a code.
Exposure multiplies E at the response input, matching the reciprocity
identity the response estimator relies on.

The response is stored as a per-channel table of ln g^-1 over all codes;
code lookup interpolates the table in the linear-exposure domain and
rounds half-up, so a linear response is exactly proportional before
quantization.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import GridMismatchError
from .gamut import RbfGamutMap, apply_gamut_map_batch
from .spectral import SensitivityMatrix, SpectralCurve, SpectralGrid, spectral_product

CHANNEL_NAMES = ("r", "g", "b")

#: 8-bit saturation thresholds; codes below/above are unreliable.
DEFAULT_SAT_LO = 10
DEFAULT_SAT_HI = 230


def default_thresholds(
    bit_depth: int, sat_lo: int | None = None, sat_hi: int | None = None
) -> tuple[int, int]:
    """The one place saturation thresholds are resolved and checked: a
    threshold given explicitly is kept, an unset one is the 8-bit 10/230
    scaled to the code range; 0 <= sat_lo < sat_hi <= 2**bit_depth - 1."""
    zmax = 2**bit_depth - 1
    lo = round(DEFAULT_SAT_LO * zmax / 255) if sat_lo is None else sat_lo
    hi = round(DEFAULT_SAT_HI * zmax / 255) if sat_hi is None else sat_hi
    if not 0 <= lo < hi <= zmax:
        raise ValueError(f"need 0 <= sat_lo < sat_hi <= {zmax}, got ({lo}, {hi})")
    return lo, hi


def saturation_class(codes, sat_lo: int, sat_hi: int) -> np.ndarray:
    """Per-code saturation, 0 below sat_lo, 1 valid (thresholds included), 2
    above sat_hi: the comparison behind ``ExposureStack.channel_valid`` and
    ``classify_saturation``."""
    codes = np.asarray(codes)
    return (codes >= sat_lo).astype(np.int8) + (codes > sat_hi)


@dataclass(frozen=True, eq=False)
class ResponseCurve:
    """Per-channel monotone map between linear exposure and digital code.

    ``ln_e[k][z]`` is ln g_k^-1(z): the log of the linear exposure that
    code z represents. Tables are strictly increasing and finite, which
    makes the inverse lookup well defined at every code.
    """

    bit_depth: int
    ln_e: np.ndarray  # (3, 2**bit_depth)

    def __post_init__(self) -> None:
        if self.bit_depth < 1:
            raise ValueError(f"bit depth must be >= 1, got {self.bit_depth}")
        table = np.array(self.ln_e, dtype=float)
        if table.shape != (3, 2**self.bit_depth):
            raise ValueError(
                f"expected ln_e of shape (3, {2**self.bit_depth}), got {table.shape}"
            )
        if not np.isfinite(table).all():
            raise ValueError("response table must be finite everywhere")
        if (np.diff(table, axis=1) <= 0).any():
            raise ValueError("response table must be strictly increasing per channel")
        table.setflags(write=False)
        object.__setattr__(self, "ln_e", table)

    @property
    def n_codes(self) -> int:
        return 2**self.bit_depth

    @cached_property
    def g_inv(self) -> np.ndarray:
        """Linear-domain table exp(ln_e), cached."""
        out = np.exp(self.ln_e)
        out.setflags(write=False)
        return out

    @classmethod
    def from_gamma(cls, gamma, bit_depth: int = 8) -> "ResponseCurve":
        """Power-law response g(E) = zmax * E^(1/gamma); scalar or per-channel gamma."""
        gammas = np.broadcast_to(np.asarray(gamma, dtype=float), (3,))
        zmax = 2**bit_depth - 1
        frac = np.maximum(np.arange(2**bit_depth, dtype=float), 0.5) / zmax
        table = gammas[:, None] * np.log(frac)[None, :]
        return cls(bit_depth, table)

    @classmethod
    def linear(cls, bit_depth: int = 8) -> "ResponseCurve":
        return cls.from_gamma(1.0, bit_depth)


def interpolated_code(e_linear, curve: ResponseCurve, channel: int):
    """Pre-quantization code(s) for linear value(s): piecewise-linear in
    exposure; np.interp clamps to 0 and code_max at the table ends."""
    return np.interp(e_linear, curve.g_inv[channel], np.arange(curve.n_codes, dtype=float))


def apply_response(e_linear, curve: ResponseCurve, channel: int):
    """Digital code(s) for linear value(s): nearest table code, half-codes rounded up."""
    return np.floor(interpolated_code(e_linear, curve, channel) + 0.5).astype(int)


class Saturation(Enum):
    UNDER = "under"
    VALID = "valid"
    OVER = "over"


@dataclass(frozen=True)
class SaturationFlags:
    channels: tuple[Saturation, Saturation, Saturation]

    @property
    def any_saturated(self) -> bool:
        return any(c is not Saturation.VALID for c in self.channels)

    def __iter__(self):
        return iter(self.channels)


def classify_saturation(
    triplet, sat_lo: int | None = None, sat_hi: int | None = None
) -> SaturationFlags:
    """Per-channel flags of one code triplet: one row of ``saturation_class``.
    Thresholds resolve through ``default_thresholds`` at the smallest depth,
    at least 8 bits, that holds ``sat_hi`` (unset: the 8-bit 10/230)."""
    codes = np.asarray(triplet, dtype=int)
    if codes.shape != (3,):
        raise ValueError(f"expected a code triplet, got shape {codes.shape}")
    bits = 8 if sat_hi is None else max(8, int(sat_hi).bit_length())
    lo, hi = default_thresholds(bits, sat_lo, sat_hi)
    levels = tuple(Saturation)  # UNDER, VALID, OVER: saturation_class 0, 1, 2
    return SaturationFlags(tuple(levels[c] for c in saturation_class(codes, lo, hi)))


@dataclass(frozen=True, eq=False)
class CameraModel:
    """Everything needed to simulate a camera, or the output of estimating one.

    ``gamut=None`` means the identity map; stage-1 estimation and the
    simplest synthetic cameras use the same simulation path that way. The
    bit depth is the response table's; unset thresholds resolve through
    ``default_thresholds`` at that depth.
    """

    grid: SpectralGrid
    omega: SensitivityMatrix
    response: ResponseCurve
    gamut: RbfGamutMap | None = None
    _: KW_ONLY
    sat_lo: int | None = None
    sat_hi: int | None = None

    def __post_init__(self) -> None:
        if self.omega.grid != self.grid:
            raise GridMismatchError("sensitivity grid differs from the camera grid")
        lo, hi = default_thresholds(self.bit_depth, self.sat_lo, self.sat_hi)
        object.__setattr__(self, "sat_lo", lo)
        object.__setattr__(self, "sat_hi", hi)

    @property
    def bit_depth(self) -> int:
        return self.response.bit_depth


def render(cam: CameraModel, radiance, exposures) -> np.ndarray:
    """Digital codes of Eq. 1 for (N, M) radiance rows at each exposure: (N, n_exp, 3).

    S = radiance @ Omega goes through the gamut map, is scaled by each
    exposure time and quantized per channel. Output is always within code
    range; spectra that overdrive the response clamp at the end codes.
    """
    exposures = np.asarray(exposures, dtype=float).reshape(-1)
    bad = exposures[~(exposures > 0)]
    if bad.size:
        raise ValueError(f"exposure must be positive, got {bad[0]}")
    p = np.asarray(radiance, dtype=float)
    if p.ndim != 2 or p.shape[1] != cam.grid.count:
        raise GridMismatchError("scene spectra are not on the camera grid; resample first")
    s = p @ cam.omega.channels
    e = s if cam.gamut is None else apply_gamut_map_batch(cam.gamut, s)
    linear = e[:, None, :] * exposures[None, :, None]
    return np.stack([apply_response(linear[..., k], cam.response, k) for k in range(3)], axis=-1)


def simulate_pixel(
    cam: CameraModel, light: SpectralCurve, surface: SpectralCurve, exposure_s: float
) -> np.ndarray:
    """Digital triplet for one patch at one exposure: one row of ``render``."""
    if light.grid != cam.grid or surface.grid != cam.grid:
        raise GridMismatchError("scene spectra are not on the camera grid; resample first")
    return render(cam, spectral_product(light, surface).values[None, :], [exposure_s])[0, 0]
