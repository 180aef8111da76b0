"""Response recovery from an exposure stack and the reciprocity check.

The estimator solves the log-domain least-squares problem of Debevec & Malik
(1997): hat-weighted data equations ln g^-1(z) - ln E_patch = ln t,
curvature (smoothness) penalties, and a mid-code anchor that fixes the
arbitrary overall scale. Each patch's ln E is eliminated in closed form
(variable projection), so only the 2^bits code unknowns are solved for, by
normal equations assembled from the sparse rows with the anchor unknown
eliminated. One refinement step (Bjorck, *Numerical Methods for Least
Squares Problems*, 1996) follows, and its size, bounded by
``CERTIFICATE_BOUND``, certifies the table. A channel costs O((2^bits)^3)
time and O((2^bits)^2) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .camera import CHANNEL_NAMES, ResponseCurve, default_thresholds, saturation_class
from .errors import RankDeficiencyError, UnderdeterminedError
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
    sat_lo: int | None = None  # None: default_thresholds(bit_depth)
    sat_hi: int | None = None

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
        lo, hi = default_thresholds(self.bit_depth, self.sat_lo, self.sat_hi)
        exposures.setflags(write=False)
        samples.setflags(write=False)
        object.__setattr__(self, "exposures", exposures)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sat_lo", lo)
        object.__setattr__(self, "sat_hi", hi)

    @property
    def n_patches(self) -> int:
        return self.samples.shape[0]

    @property
    def n_exposures(self) -> int:
        return self.exposures.size

    @cached_property
    def channel_valid(self) -> np.ndarray:
        """(n_patch, n_exp, 3) bool: code within [sat_lo, sat_hi]."""
        out = saturation_class(self.samples, self.sat_lo, self.sat_hi) == 1
        out.setflags(write=False)
        return out

    @cached_property
    def triplet_valid(self) -> np.ndarray:
        """(n_patch, n_exp) bool: no channel of the triplet is saturated."""
        out = self.channel_valid.all(axis=2)
        out.setflags(write=False)
        return out


def hat_weights(n_codes: int) -> np.ndarray:
    """Triangular weight over the code range, zero at the extreme codes."""
    z = np.arange(n_codes, dtype=float)
    return np.minimum(z, (n_codes - 1) - z)


#: Largest accepted refinement step in ln g^-1. The refined table is off the
#: exact least-squares solution by about 0.3-0.6 times the squared step
#: (measured on the benchmark sets and test stacks up to lambda = 1e6), so
#: this bound keeps that error below about 6e-11.
CERTIFICATE_BOUND = 1e-5


def _smoothness_gram(sw: np.ndarray) -> np.ndarray:
    """Pentadiagonal Gram matrix of the smoothness rows
    ``sw[z - 1] * (x[z - 1] - 2 x[z] + x[z + 1])`` for 0 < z < sw.size + 1."""
    q = np.pad(sw * sw, 1)
    i = np.arange(q.size)
    gram = np.zeros((q.size, q.size))
    gram[i, i] = np.convolve(q, [1.0, 4.0, 1.0], "same")
    gram[i[:-1], i[1:]] = gram[i[1:], i[:-1]] = -2.0 * (q[:-1] + q[1:])
    gram[i[:-2], i[2:]] = gram[i[2:], i[:-2]] = q[1:-1]
    return gram


def estimate_response(
    stack: ExposureStack,
    *,
    sample_mask: np.ndarray | None = None,
    smoothness_lambda: float = 50.0,
) -> ResponseCurve:
    """Recover the per-channel response from an exposure stack.

    ``sample_mask`` (n_patch, n_exp) optionally restricts the fit to a
    subset of samples (the pipeline passes inner-gamut membership); it is
    intersected with the stack's own validity flags.

    ``smoothness_lambda`` (positive) scales the curvature penalty.

    Each patch's ln E, a w^2-weighted mean for fixed g, is eliminated in
    closed form, so the solve has 2^bits unknowns whatever the patch count.
    Their normal equations are assembled from the rows' structure, never
    from a dense design matrix, with the anchor code fixed at exactly 0 by
    dropping its row and column. One refinement step against the
    least-squares rows follows the solve; a step above ``CERTIFICATE_BOUND``
    raises ``RankDeficiencyError``. Each channel costs O((2^bits)^3) time and
    O((2^bits)^2) memory. Smoothness rows fill codes the data never reaches
    by curvature-minimizing extension; the final table is projected to be
    strictly increasing.

    A system without a unique solution raises ``UnderdeterminedError``
    naming the channels: ``smoothness_lambda = 0`` (codes 0 and 2^bits - 1
    carry zero hat weight, so no data reach them), or data in which no
    patch reaches two codes, which leaves the slope free.
    """
    if smoothness_lambda < 0:
        raise ValueError("smoothness_lambda must be nonnegative")
    distinct = np.unique(stack.exposures)
    if distinct.size < 2:
        raise UnderdeterminedError(
            f"response estimation needs >= 2 distinct exposures, got {distinct.size}"
        )
    n = 2**stack.bit_depth
    if smoothness_lambda == 0:
        raise UnderdeterminedError(
            f"response system underdetermined for channel(s) {', '.join(CHANNEL_NAMES)}: "
            f"smoothness_lambda = 0 leaves the codes that no data reach free, 0 and {n - 1} "
            "always among them; raise smoothness_lambda"
        )
    anchor = n // 2

    usable = stack.triplet_valid
    if sample_mask is not None:
        mask = np.asarray(sample_mask, dtype=bool)
        if mask.shape != usable.shape:
            raise ValueError(f"sample_mask must be {usable.shape}, got {mask.shape}")
        usable = usable & mask

    w_of = hat_weights(n)
    sw = smoothness_lambda * w_of[1:-1]
    smooth_gram = _smoothness_gram(sw)
    log_e = np.log(stack.exposures)

    tables = np.empty((3, n))
    deficient: dict[str, list[str]] = {}
    for k in range(3):
        pj, ei = np.nonzero(usable)
        codes = stack.samples[pj, ei, k]
        w = w_of[codes]
        keep = w > 0
        ei, codes, w = ei[keep], codes[keep], w[keep]
        patches, pj = np.unique(pj[keep], return_inverse=True)
        # The anchor plus one equation per active patch is the minimum that
        # pins the gauge; anything less is underdetermined. Only a patch
        # whose samples reach two codes pins the slope.
        if codes.size < patches.size + 1:
            reason = "not enough unsaturated samples"
        elif np.unique(pj * n + codes).size == patches.size:
            reason = "no patch reaches two codes, so the slope is free; add exposures"
        else:
            reason = None
        if reason is not None:
            deficient.setdefault(reason, []).append(CHANNEL_NAMES[k])
            continue

        # A sample's data row is w (e_code - m_p / W_p), where m_p sums
        # w^2 e_code and W_p sums w^2 over the samples of its patch p.
        w2 = w * w
        w2_patch = np.bincount(pj, w2)

        def centered(v):  # v minus its patch's w^2-weighted mean
            return v - (np.bincount(pj, w2 * v) / w2_patch)[pj]

        b = w * centered(log_e[ei])

        def gradient(x):  # A^T (b - A x) without the anchor's entry
            u = w * (b - w * centered(x[codes]))
            out = np.bincount(codes, u - w2 * (np.bincount(pj, u) / w2_patch)[pj], n)
            out -= np.convolve(sw * sw * np.diff(x, 2), [1.0, -2.0, 1.0])
            out[anchor] = 0.0
            return out

        # A^T A = diag(sum of w^2 per code) - sum_p m_p m_p^T / W_p + smoothness,
        # the m_p m_p^T terms summed over every pair of samples in a patch.
        slot_code = np.zeros((patches.size, stack.n_exposures), dtype=int)
        slot_w2 = np.zeros((patches.size, stack.n_exposures))
        slot_code[pj, ei] = codes
        slot_w2[pj, ei] = w2
        pairs = (slot_code[:, :, None] * n + slot_code[:, None, :]).ravel()
        weights = (slot_w2[:, :, None] * slot_w2[:, None, :] / w2_patch[:, None, None]).ravel()
        gram = smooth_gram - np.bincount(pairs, weights, n * n).reshape(n, n)
        gram.flat[:: n + 1] += np.bincount(codes, w2, n)
        # Eliminate the anchor: an identity row and column fix x[anchor] = 0.
        gram[anchor, :] = gram[:, anchor] = 0.0
        gram[anchor, anchor] = 1.0

        x = np.zeros(n)
        for _ in range(2):  # solve, then refine once
            step = np.linalg.solve(gram, gradient(x))
            x += step
        certificate = float(np.abs(step).max())
        if not certificate <= CERTIFICATE_BOUND:  # also refuses NaN
            raise RankDeficiencyError(
                f"response solve for channel {CHANNEL_NAMES[k]} failed its certificate: "
                f"refinement step {certificate:.3g} > {CERTIFICATE_BOUND:g} in ln g^-1; "
                "lower smoothness_lambda"
            )
        tables[k] = strictly_increasing(x)

    if deficient:
        raise UnderdeterminedError("; ".join(
            f"response system underdetermined for channel(s) {', '.join(names)}: {reason}"
            for reason, names in deficient.items()
        ))
    return ResponseCurve(stack.bit_depth, tables)


@dataclass(frozen=True)
class ReciprocityReport:
    """Deviation of linearized intensity ratios from exposure ratios, per channel."""

    max_abs_deviation: np.ndarray  # (3,)
    mean_abs_deviation: np.ndarray  # (3,)
    n_pairs: np.ndarray  # (3,) int


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
