"""Response recovery from an exposure stack and the reciprocity check.

The estimator solves the log-domain linear system of the classic
high-dynamic-range formulation: unknowns are ln g^-1 at every code plus
one log-exposure per patch, tied together by hat-weighted data equations,
curvature (smoothness) penalties, and a mid-code anchor that fixes the
arbitrary overall scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .camera import (
    DEFAULT_SAT_HI,
    DEFAULT_SAT_LO,
    CHANNEL_NAMES,
    ResponseCurve,
)
from .errors import UnderdeterminedError
from .solvers import strictly_increasing


@dataclass(frozen=True, eq=False)
class ExposureStack:
    """Digital triplets of fixed patches observed at several exposure times.

    ``samples[j, i, k]`` is the code of patch j at exposure i, channel k.
    Saturation flags are derived from the stored thresholds; a triplet with
    any flagged channel is excluded from fitting, since saturation in one
    channel taints the other two.
    """

    exposures: np.ndarray  # (n_exp,) seconds
    samples: np.ndarray  # (n_patch, n_exp, 3) integer codes
    bit_depth: int = 8
    sat_lo: int = DEFAULT_SAT_LO
    sat_hi: int = DEFAULT_SAT_HI

    def __post_init__(self) -> None:
        exposures = np.array(self.exposures, dtype=float)
        samples = np.array(self.samples, dtype=int)
        if exposures.ndim != 1 or exposures.size < 1:
            raise ValueError("need at least one exposure")
        if (exposures <= 0).any():
            raise ValueError("exposure times must be positive")
        if samples.ndim != 3 or samples.shape[1] != exposures.size or samples.shape[2] != 3:
            raise ValueError(
                f"samples must be (n_patch, {exposures.size}, 3), got {samples.shape}"
            )
        if samples.min(initial=0) < 0 or samples.max(initial=0) >= 2**self.bit_depth:
            raise ValueError(f"codes outside [0, {2**self.bit_depth - 1}]")
        if not 0 <= self.sat_lo < self.sat_hi < 2**self.bit_depth:
            raise ValueError(f"bad thresholds ({self.sat_lo}, {self.sat_hi})")
        exposures.setflags(write=False)
        samples.setflags(write=False)
        object.__setattr__(self, "exposures", exposures)
        object.__setattr__(self, "samples", samples)

    @property
    def n_patches(self) -> int:
        return self.samples.shape[0]

    @property
    def n_exposures(self) -> int:
        return self.exposures.size

    @cached_property
    def channel_valid(self) -> np.ndarray:
        """(n_patch, n_exp, 3) bool: code within [sat_lo, sat_hi]."""
        out = (self.samples >= self.sat_lo) & (self.samples <= self.sat_hi)
        out.setflags(write=False)
        return out

    @cached_property
    def triplet_valid(self) -> np.ndarray:
        """(n_patch, n_exp) bool: no channel of the triplet is saturated."""
        out = self.channel_valid.all(axis=2)
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class ResponseFitConfig:
    """Knobs of the log-domain solve.

    ``smoothness_lambda`` scales the curvature penalty; ``anchor_code``
    defaults to the mid code (ln g^-1 := 0 there). The data weighting is
    the hat function min(z, z_max - z) over the full code range; saturated
    samples never enter the system in the first place.
    """

    smoothness_lambda: float = 50.0
    anchor_code: int | None = None

    def __post_init__(self) -> None:
        if self.smoothness_lambda < 0:
            raise ValueError("smoothness_lambda must be nonnegative")


def hat_weights(n_codes: int) -> np.ndarray:
    """Triangular weight over the code range, zero at the extreme codes."""
    z = np.arange(n_codes, dtype=float)
    return np.minimum(z, (n_codes - 1) - z)


def estimate_response(
    stack: ExposureStack,
    cfg: ResponseFitConfig | None = None,
    sample_mask: np.ndarray | None = None,
) -> ResponseCurve:
    """Recover the per-channel response from an exposure stack.

    ``sample_mask`` (n_patch, n_exp) optionally restricts the fit to a
    subset of samples (the pipeline passes inner-gamut membership); it is
    intersected with the stack's own validity flags.

    The smoothness rows tie every code to its neighbors, so codes the data
    never reaches are filled by curvature-minimizing extension; the final
    table is projected to be strictly increasing.
    """
    cfg = cfg or ResponseFitConfig()
    distinct = np.unique(stack.exposures)
    if distinct.size < 2:
        raise UnderdeterminedError(
            f"response estimation needs >= 2 distinct exposures, got {distinct.size}"
        )
    n = 2**stack.bit_depth
    anchor = cfg.anchor_code if cfg.anchor_code is not None else n // 2
    if not 0 <= anchor < n:
        raise ValueError(f"anchor code {anchor} outside [0, {n})")

    usable = stack.triplet_valid
    if sample_mask is not None:
        mask = np.asarray(sample_mask, dtype=bool)
        if mask.shape != usable.shape:
            raise ValueError(f"sample_mask must be {usable.shape}, got {mask.shape}")
        usable = usable & mask

    w_of = hat_weights(n)
    log_e = np.log(stack.exposures)
    n_patches = stack.n_patches

    smooth_z = np.arange(1, n - 1)
    tables = np.empty((3, n))
    deficient: list[str] = []
    for k in range(3):
        pj, ei = np.nonzero(usable)
        codes = stack.samples[pj, ei, k]
        w = w_of[codes]
        keep = w > 0
        pj, ei, codes, w = pj[keep], ei[keep], codes[keep], w[keep]
        # The anchor plus one equation per active patch is the minimum that
        # pins the gauge; anything less is underdetermined.
        if codes.size < np.unique(pj).size + 1:
            deficient.append(CHANNEL_NAMES[k])
            continue

        n_rows = codes.size + smooth_z.size + 1
        a = np.zeros((n_rows, n + n_patches))
        b = np.zeros(n_rows)
        rows = np.arange(codes.size)
        a[rows, codes] = w
        a[rows, n + pj] = -w
        b[rows] = w * log_e[ei]
        r0 = codes.size
        sw = cfg.smoothness_lambda * w_of[smooth_z]
        rows = r0 + np.arange(smooth_z.size)
        a[rows, smooth_z - 1] = sw
        a[rows, smooth_z] = -2.0 * sw
        a[rows, smooth_z + 1] = sw
        a[r0 + smooth_z.size, anchor] = 1.0

        solution, *_ = np.linalg.lstsq(a, b, rcond=None)
        table = solution[:n] - solution[anchor]  # exact re-anchor
        tables[k] = strictly_increasing(table)

    if deficient:
        raise UnderdeterminedError(
            f"response system underdetermined for channel(s) {', '.join(deficient)}: "
            "not enough unsaturated samples"
        )
    return ResponseCurve(stack.bit_depth, tables)


@dataclass(frozen=True)
class ReciprocityReport:
    """Deviation of linearized intensity ratios from exposure ratios, per channel."""

    max_abs_deviation: np.ndarray  # (3,)
    mean_abs_deviation: np.ndarray  # (3,)
    n_pairs: np.ndarray  # (3,) int

    @property
    def worst(self) -> float:
        return float(np.nanmax(self.max_abs_deviation))


def check_exposure_reciprocity(stack: ExposureStack, curve: ResponseCurve) -> ReciprocityReport:
    """Verify g^-1(I_e1)/g^-1(I_e2) against e1/e2 over all valid sample pairs.

    Validity here is per channel: the identity under test concerns one
    channel's response in isolation.
    """
    if curve.bit_depth != stack.bit_depth:
        raise ValueError("curve and stack bit depths differ")
    i1, i2 = np.triu_indices(stack.n_exposures, k=1)
    ratio = stack.exposures[i1] / stack.exposures[i2]
    max_dev = np.full(3, np.nan)
    mean = np.full(3, np.nan)
    counts = np.zeros(3, dtype=int)
    for k in range(3):
        lin = curve.g_inv[k][stack.samples[:, :, k]]
        valid = stack.channel_valid[:, :, k]
        dev = np.abs(lin[:, i1] / lin[:, i2] - ratio)[valid[:, i1] & valid[:, i2]]
        counts[k] = dev.size
        if dev.size:
            max_dev[k] = dev.max()
            # Sequential sum: the mean is written to reciprocity.json and
            # diagnostics.json, and numpy's pairwise sum rounds differently.
            mean[k] = np.add.accumulate(dev)[-1] / dev.size
    if counts.sum() == 0:
        raise UnderdeterminedError("no valid sample pairs; every triplet is saturated")
    return ReciprocityReport(max_dev, mean, counts)
