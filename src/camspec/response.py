"""Response recovery from an exposure stack and the reciprocity check.

The estimator solves the log-domain least-squares problem of Debevec & Malik
(1997): hat-weighted data equations ln g^-1(z) - ln E_patch = ln t,
curvature (smoothness) penalties, and a mid-code anchor that fixes the
arbitrary overall scale, on the m codes the data reach (widened to hold the
anchor +- 2 and whole banded blocks; the rest is the exact linear
extension). The normal equations of the code unknowns x and the patch
unknowns ln E have a pentadiagonal code block and a diagonal patch block;
they are assembled from the sparse rows, with the anchor unknown
eliminated, and one block is eliminated in closed form, by one path for
all three channels. With P, the largest channel's active patch count,
fewer than the m - 1 free codes, the code block goes: a banded LDL^T and a
P x P capacitance (Woodbury; Golub & Van Loan, *Matrix Computations*,
4.3), O(m P + P^3) time and O(m P) memory per channel. Otherwise each
patch's ln E goes (variable projection) and the m code unknowns are solved
densely, O(m^3) time and O(m^2) memory. Once every channel is found
solvable, the path builds its systems once, for the solve and one
refinement step over the solved codes (Bjorck, *Numerical Methods for
Least Squares Problems*, 1996), whose size, bounded by
``CERTIFICATE_BOUND``, certifies the table.
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
        if not (np.isfinite(exposures) & (exposures > 0)).all():
            raise ValueError(f"exposure times must be finite and positive, got {exposures}")
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


#: Largest accepted refinement step in ln g^-1 over the solved codes, whose
#: table is off the exact least-squares solution by about 0.3-0.6 times the
#: squared step (measured on the benchmark sets and test stacks up to lambda
#: = 1e6): below about 6e-11, times the distance in codes in the tails.
CERTIFICATE_BOUND = 1e-5


def _smoothness_bands(sw: np.ndarray) -> list[np.ndarray]:
    """Diagonals 0, 1 and 2 of the pentadiagonal Gram matrix of the
    smoothness rows ``sw[z - 1] * (x[z - 1] - 2 x[z] + x[z + 1])`` for
    0 < z < sw.size + 1."""
    q = np.pad(sw * sw, 1)
    return [np.convolve(q, [1.0, 4.0, 1.0], "same"), -2.0 * (q[:-1] + q[1:]), q[1:-1]]


def _band_factor(sw: np.ndarray, code_w2: np.ndarray, anchor: int):
    """L D L^T of B, the smoothness Gram plus diag(w2) with the anchor's row
    and column the identity, for each row w2 of ``code_w2``: the forward
    ``_sweep`` of L's subdiagonals, D's diagonal and the backward sweep, each
    broadcasting against right-hand sides (codes, channels, columns)."""
    diag, sub1, sub2 = _smoothness_bands(sw)
    sub1[anchor - 1 : anchor + 1] = sub2[anchor - 2 : anchor + 1 : 2] = 0.0
    sub1, sub2 = [0.0, *sub1.tolist()], [0.0, 0.0, *sub2.tolist()]  # B[i, i-1], B[i, i-2]
    factor = []
    for w2 in code_w2:
        b_diag = diag + w2
        b_diag[anchor] = 1.0
        a, b, d = [], [], []
        a1, d1, d2 = 0.0, 1.0, 1.0  # a[i - 1], d[i - 1], d[i - 2]
        for di, s1, s2 in zip(b_diag.tolist(), sub1, sub2):
            t = s1 - s2 * a1
            ai, bi = t / d1, s2 / d2
            di -= ai * t + bi * s2
            a.append(ai)
            b.append(bi)
            d.append(di)
            a1, d1, d2 = ai, di, d1
        factor.append((a, b, d))
    a, b, d = np.array(factor).transpose(1, 2, 0)[..., None]
    return _sweep(a, b), d, _sweep(np.roll(a[::-1], 1, axis=0), np.roll(b[::-1], 2, axis=0))


def _solved_range(lo: int, hi: int, anchor: int, n: int) -> tuple[int, int]:
    """(first code, m) of the codes solved when data reach codes lo to hi of n:
    anchor +- 2 too, which ``_band_factor``'s anchor couplings need, and whole
    ``_sweep`` blocks, padded above hi first; (0, n) if that leaves 1 to n - 2."""
    lo, hi = min(lo, anchor - 2), max(hi, anchor + 2)
    k = 1 << ((hi - lo + 1).bit_length() // 2)
    m = -(-(hi - lo + 1) // k) * k  # keeps the bit length of hi - lo + 1 or is a power of two
    return (0, n) if m > n - 2 else (min(lo, n - 1 - m), m)


def _sweep(a: np.ndarray, b: np.ndarray):
    """The recurrence r[i] -= a[i] r[i - 1] + b[i] r[i - 2] for i = 1, 2, ...
    (a[0] = b[0] = b[1] = 0), cut into about sqrt(n) blocks of rows: a and b
    by block, and h, each block's response to unit impulses at the two rows
    before it, one per column."""
    n = a.shape[0]
    k = 1 << (n.bit_length() // 2)  # divides n: see _solved_range
    a, b = (v.reshape(n // k, k, *v.shape[1:]) for v in (a, b))
    h = np.zeros((n // k, k + 2, 2, *a.shape[2:]))
    h[:, 0, 1] = h[:, 1, 0] = 1.0
    for j in range(k):
        h[:, j + 2] -= a[:, j, None] * h[:, j + 1] + b[:, j, None] * h[:, j]
    return a, b, h


def _unit_sweep(r: np.ndarray, sweep) -> None:
    """Run a ``_sweep`` on r in place: every block sweeps from a zero start,
    all blocks at once; then each block, in turn, adds its impulse responses
    times the two rows before it."""
    a, b, h = sweep
    z = r.reshape(*a.shape[:2], *r.shape[1:])
    z[:, 1] -= a[:, 1] * z[:, 0]
    for j in range(2, a.shape[1]):
        z[:, j] -= a[:, j] * z[:, j - 1] + b[:, j] * z[:, j - 2]
    for block in range(1, a.shape[0]):
        z[block] += h[block, 2:, 0] * z[block - 1, -1] + h[block, 2:, 1] * z[block - 1, -2]


def _band_solve(factor, r: np.ndarray) -> None:
    """Overwrite r with (L D L^T)^-1 r for a ``_band_factor``."""
    forward, d, backward = factor
    _unit_sweep(r, forward)
    r /= d
    _unit_sweep(r[::-1], backward)


class _ChannelSystem:
    """One channel's least-squares rows, each patch's ln E eliminated, and
    their normal equations G x = A^T b.

    A sample's data row is w (e_code - m_p / W_p), where m_p sums w^2 e_code
    and W_p sums w^2 over the samples of its patch p. So G = B - C W^-1 C^T:
    B, the smoothness Gram plus diag(sum of w^2 per code), is pentadiagonal,
    C (codes x patches) holds w^2 at each sample's (code, patch), and
    W = diag(W_p). The anchor row and column of B and G are the identity and
    C's anchor row is zero, which fixes x[anchor] = 0.
    """

    def __init__(self, codes, patch, slot, w, log_t, n_slots, sw, anchor):
        self.codes, self.patch, self.w, self.sw, self.anchor = codes, patch, w, sw, anchor
        self.w2 = w * w
        self.w2_patch = np.bincount(patch, self.w2)
        self.code_w2 = np.bincount(codes, self.w2, sw.size + 2)
        self.b = w * self._centered(log_t)
        # Samples by (patch, exposure slot), zero where a slot is empty.
        self.slot_code = np.zeros((self.n_patches, n_slots), dtype=int)
        self.slot_w2 = np.zeros((self.n_patches, n_slots))
        self.slot_code[patch, slot] = codes
        self.slot_w2[patch, slot] = self.w2

    @property
    def n_patches(self) -> int:
        return self.w2_patch.size

    def _centered(self, v):  # v minus its patch's w^2-weighted mean
        return v - (np.bincount(self.patch, self.w2 * v) / self.w2_patch)[self.patch]

    def gradient(self, x):
        """A^T (b - A x) without the anchor's entry."""
        u = self.w * (self.b - self.w * self._centered(x[self.codes]))
        w2_mean = (np.bincount(self.patch, u) / self.w2_patch)[self.patch]
        out = np.bincount(self.codes, u - self.w2 * w2_mean, x.size)
        out -= np.convolve(self.sw * self.sw * np.diff(x, 2), [1.0, -2.0, 1.0])
        out[self.anchor] = 0.0
        return out

    def gram(self):
        """G, dense, in one buffer: 0.0 - pairs + band rounds as band - pairs and keeps +0.0."""
        n = self.code_w2.size
        # The m_p m_p^T / W_p terms, summed over every pair of samples in a patch.
        pairs = (self.slot_code[:, :, None] * n + self.slot_code[:, None, :]).ravel()
        weights = self.slot_w2[:, :, None] * self.slot_w2[:, None, :] / self.w2_patch[:, None, None]
        gram = (0.0 - np.bincount(pairs, weights.ravel(), n * n)).reshape(n, n)
        diag, sub1, sub2 = _smoothness_bands(self.sw)
        gram.flat[:: n + 1] += diag
        for offset, band in ((1, sub1), (2, sub2)):
            gram.flat[offset : n * (n - offset) : n + 1] += band  # above the diagonal
            gram.flat[n * offset :: n + 1] += band  # below it
        gram.flat[:: n + 1] += self.code_w2
        gram[self.anchor, :] = gram[:, self.anchor] = 0.0
        gram[self.anchor, self.anchor] = 1.0
        return gram

    def coupling(self, v):
        """C v for v (patches,): zero in the anchor row."""
        out = np.bincount(self.codes, self.w2 * v[self.patch], self.code_w2.size)
        out[self.anchor] = 0.0
        return out

    def coupling_t(self, v):
        """C^T v for v (codes,) whose anchor entry is zero."""
        return np.einsum("pe,pe->p", self.slot_w2, v[self.slot_code])

    def capacitance(self, y):
        """W - C^T y for y (codes, patches) whose anchor row is zero, summed
        one exposure slot at a time in place: one P x P temporary."""
        cap = np.diag(self.w2_patch)
        for code, w2 in zip(self.slot_code.T, self.slot_w2.T):
            rows = y[code]
            rows *= w2[:, None]
            cap -= rows
            del rows  # before the next slot's rows exist
        return cap


def _dense_solver(systems: list[_ChannelSystem]):
    """A function that solves G x = r for right-hand sides, one per system,
    with every system's G stacked into one ``np.linalg.solve``."""
    grams = np.stack([s.gram() for s in systems])
    return lambda rs: np.linalg.solve(grams, np.stack(rs)[..., None])[..., 0]


def _code_block_solver(systems: list[_ChannelSystem]):
    """Solve G x = r by eliminating the code block instead of the patch
    block: G^-1 r = u + B^-1 C K^-1 C^T u, where u = B^-1 r and
    K = W - C^T B^-1 C is the P x P capacitance (Woodbury). Built once: one
    banded LDL^T of B per system, B^-1 C by one banded pass over every
    system at once, and each K; the (m, systems, P) block of B^-1 C then
    goes, so the peak is the block, the capacitances and one P x P
    temporary. Each system keeps its own P: it differs between channels
    only where a threshold is an end code, whose hat weight is 0.

    Returns a function that solves for right-hand sides, one per system,
    with two banded passes and the P x P solves.
    """
    s0 = systems[0]
    factor = _band_factor(s0.sw, np.array([s.code_w2 for s in systems]), s0.anchor)
    block = np.zeros((s0.code_w2.size, len(systems), max(s.n_patches for s in systems)))
    for j, s in enumerate(systems):
        np.add.at(block[:, j], (s.codes, s.patch), s.w2)  # C, then its anchor row zeroed
        block[s.anchor, j] = 0.0
    _band_solve(factor, block)
    caps = [s.capacitance(block[:, j, : s.n_patches]) for j, s in enumerate(systems)]
    del block

    def solve(rs):
        u = np.stack(rs, axis=1)[:, :, None]
        _band_solve(factor, u)
        cv = np.stack([s.coupling(np.linalg.solve(cap, s.coupling_t(u[:, j, 0])))
                       for j, (s, cap) in enumerate(zip(systems, caps))], axis=1)[:, :, None]
        _band_solve(factor, cv)
        return (u + cv)[:, :, 0].T

    return solve


def estimate_response(
    stack: ExposureStack,
    *,
    smoothness_lambda: float = 50.0,
) -> ResponseCurve:
    """Recover the per-channel response from every unsaturated sample of an
    exposure stack.

    ``smoothness_lambda`` (positive) scales the curvature penalty.

    The unknowns are the m codes that usable samples reach, in any channel,
    widened as ``_solved_range`` says: to hold the anchor +- 2 and whole
    banded blocks. The codes outside are the linear extension of the end
    codes, the exact solution there: it zeroes every smoothness row that
    touches them, and no other row does. The normal equations are assembled
    from the rows' structure, never from a dense design matrix, with the
    anchor code fixed at exactly 0 by dropping its row and column. One path
    solves all three channels. If every channel has fewer active patches P
    than the m - 1 free codes, each eliminates its code block: a banded
    LDL^T of the smoothness-plus-diagonal code block and a P x P
    capacitance, O(m P + P^3) time and O(m P) memory, with each banded pass
    over all three at once. Otherwise each eliminates each patch's ln E, a
    w^2-weighted mean for fixed g, and solves the m code unknowns densely,
    O(m^3) time and O(m^2) memory. The path builds the three G or the
    banded factors once, for the solve and one refinement step over the
    solved codes; a step above ``CERTIFICATE_BOUND`` raises
    ``RankDeficiencyError``. Smoothness rows fill solved codes the data
    never reach by curvature-minimizing extension; the final table is
    projected to be strictly increasing.

    A system without a unique solution raises ``UnderdeterminedError``
    naming the channels, before anything is factored: ``smoothness_lambda
    = 0`` (codes 0 and 2^bits - 1 carry zero hat weight, so no data reach
    them), or data in which no patch reaches two codes, which leaves the
    slope free.
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
    w_of = hat_weights(n)
    sw = smoothness_lambda * w_of[1:-1]
    log_e = np.log(stack.exposures)

    # Solve on the codes [lo, lo + m) that usable samples reach, widened; the
    # initial values serve a stack without one, which the loop below refuses.
    reached = stack.samples[usable]
    reached = reached[w_of[reached] > 0]
    lo, m = _solved_range(int(reached.min(initial=n)), int(reached.max(initial=0)), anchor, n)
    systems: list[_ChannelSystem] = []
    deficient: dict[str, list[str]] = {}
    for k in range(3):
        pj, ei = np.nonzero(usable)  # row-major: each patch's samples are one run
        codes = stack.samples[pj, ei, k]
        w = w_of[codes]
        keep = w > 0
        pj, ei, codes, w = pj[keep], ei[keep], codes[keep], w[keep]
        first = np.diff(pj, prepend=-1) != 0  # each active patch's first sample
        pj = np.cumsum(first) - 1  # the active patches numbered from 0
        # The anchor plus one equation per active patch is the minimum that
        # pins the gauge; anything less is underdetermined. Only a patch
        # whose samples reach two codes pins the slope.
        if codes.size < np.count_nonzero(first) + 1:
            reason = "not enough unsaturated samples"
        elif not ((codes[1:] != codes[:-1]) & ~first[1:]).any():
            reason = "no patch reaches two codes, so the slope is free; add exposures"
        else:
            systems.append(_ChannelSystem(codes - lo, pj, ei, w, log_e[ei], stack.n_exposures,
                                          sw[lo : lo + m - 2], anchor - lo))
            continue
        deficient.setdefault(reason, []).append(CHANNEL_NAMES[k])
    if deficient:
        raise UnderdeterminedError("; ".join(
            f"response system underdetermined for channel(s) {', '.join(names)}: {reason}"
            for reason, names in deficient.items()
        ))

    # Fewer active patches than free codes, in every channel: eliminate the
    # code block; otherwise solve G densely. One path serves all three.
    build = _dense_solver if max(s.n_patches for s in systems) >= m - 1 else _code_block_solver
    solve = build(systems)
    x = np.zeros((3, m))
    for _ in range(2):  # solve, then refine once
        step = solve([s.gradient(v) for s, v in zip(systems, x)])
        x += step

    for k, certificate in enumerate(np.abs(step).max(axis=1)):
        if not certificate <= CERTIFICATE_BOUND:  # also refuses NaN
            raise RankDeficiencyError(
                f"response solve for channel {CHANNEL_NAMES[k]} failed its certificate: "
                f"refinement step {certificate:.3g} > {CERTIFICATE_BOUND:g} in ln g^-1; "
                "lower smoothness_lambda"
            )
    # The codes outside [lo, lo + m): the linear extension of its end codes.
    z = np.arange(n) - lo
    x = (x[:, np.clip(z, 0, m - 1)] + np.minimum(z, 0) * (x[:, 1:2] - x[:, :1])
         + np.maximum(z - (m - 1), 0) * (x[:, -1:] - x[:, -2:-1]))
    return ResponseCurve(stack.bit_depth, np.array([strictly_increasing(v) for v in x]))


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
