"""Spectral sensitivity estimation from measured spectra and linearized intensities.

Sensitivity curves of real cameras occupy a low-dimensional space, so the
estimator projects onto a small basis obtained from the singular value
decomposition of a curve database and solves a least-squares problem
constrained to keep the reconstructed curve nonnegative at every
wavelength. The raw pseudo-inverse is provided as well; it is exact on
clean data and falls apart under noise, which is the whole reason the
constrained route exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficiencyError, UnderdeterminedError
from .solvers import lsi
from .spectral import SensitivityMatrix, SpectralGrid, _frozen_array

#: Condition-number ceiling for the normal equations of the pseudo-inverse.
PINV_CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class SensitivityDatabase:
    """Named sensitivity curves of known cameras, all on one grid."""

    entries: tuple
    grid: SpectralGrid

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        if len(entries) < 2:
            raise ValueError(f"database needs >= 2 entries, got {len(entries)}")
        for name, omega in entries:
            if omega.grid != self.grid:
                raise ValueError(f"database entry {name!r} is not on the shared grid")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def stacked(self, k: int) -> np.ndarray:
        """(n_entries, M) matrix of channel-k curves."""
        return np.stack([omega.channel(k) for _, omega in self.entries])


@dataclass(frozen=True, eq=False)
class SensitivityBasis:
    """Top right-singular vectors of the database, per channel."""

    grid: SpectralGrid
    bases: np.ndarray  # (3, d, M), orthonormal rows per channel
    captured_variance: np.ndarray  # (3,) fraction of squared singular mass

    def __post_init__(self) -> None:
        bases, m = _frozen_array(self.bases), self.grid.count
        if bases.ndim != 3 or bases.shape[::2] != (3, m) or bases.shape[1] < 1:
            raise ValueError(f"bases must be (3, d >= 1, {m}), got {bases.shape}")
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "captured_variance", _frozen_array(self.captured_variance, (3,)))

    @property
    def d(self) -> int:
        return self.bases.shape[1]


def build_basis(db: SensitivityDatabase, d: int) -> SensitivityBasis:
    """SVD the stacked database curves and keep the top-d right singular vectors."""
    m = db.grid.count
    limit = min(len(db), m)
    if not 1 <= d <= limit:
        raise ValueError(f"basis dimension must be in [1, {limit}], got {d}")
    bases = np.empty((3, d, m))
    captured = np.empty(3)
    for k in range(3):
        x = db.stacked(k)
        _, s, vt = np.linalg.svd(x, full_matrices=False)
        bases[k] = vt[:d]
        total = float((s**2).sum())
        captured[k] = float((s[:d] ** 2).sum() / total) if total > 0 else 0.0
    return SensitivityBasis(db.grid, bases, captured)


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Paired radiance spectra and linearized, exposure-normalized intensities.

    ``p[i]`` is the spectrum seen for sample i, ``i_linear[i]`` the
    matching per-channel linear intensity, and ``valid[i]`` is False for
    samples whose triplet was saturated; every fit ignores those rows.
    """

    grid: SpectralGrid
    p: np.ndarray  # (N, M)
    i_linear: np.ndarray  # (N, 3)
    valid: np.ndarray  # (N,) bool

    def __post_init__(self) -> None:
        p = np.array(self.p, dtype=float)
        i_lin = np.array(self.i_linear, dtype=float)
        valid = np.array(self.valid, dtype=bool)
        if p.ndim != 2 or p.shape[1] != self.grid.count:
            raise ValueError(f"p must be (N, {self.grid.count}), got {p.shape}")
        n = p.shape[0]
        if i_lin.shape != (n, 3):
            raise ValueError(f"i_linear must be ({n}, 3), got {i_lin.shape}")
        if valid.shape != (n,):
            raise ValueError(f"valid must be ({n},), got {valid.shape}")
        if (p < 0).any():
            raise ValueError("radiance rows must be nonnegative")
        for name, arr in (("p", p), ("i_linear", i_lin), ("valid", valid)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def valid_rows(self) -> tuple[np.ndarray, np.ndarray]:
        return self.p[self.valid], self.i_linear[self.valid]


def estimate_pinv(m: MeasurementSet, channel: int) -> np.ndarray:
    """Unconstrained normal-equations estimate of one sensitivity column.

    Solves (P^T P)^-1 P^T I directly. Negative entries are possible and
    expected under noise; use the constrained estimator when that matters.
    """
    p, i_lin = m.valid_rows()
    n, width = p.shape
    if n < width:
        raise UnderdeterminedError(
            f"pseudo-inverse needs >= {width} valid rows (one per wavelength), got {n}"
        )
    ptp = p.T @ p
    cond = np.linalg.cond(ptp)
    if not np.isfinite(cond) or cond > PINV_CONDITION_LIMIT:
        raise RankDeficiencyError(
            f"P^T P condition {cond:.3e} exceeds {PINV_CONDITION_LIMIT:.0e}; "
            "the spectra do not span the grid - use the constrained estimator"
        )
    return np.linalg.solve(ptp, p.T @ i_lin[:, channel])


@dataclass(frozen=True, eq=False)
class SensitivityFit:
    coefficients: np.ndarray  # (3, d)
    omega_hat: SensitivityMatrix
    residual_rms: np.ndarray  # (3,)


def _fit_rows(grid: SpectralGrid, p, i_lin, basis: SensitivityBasis) -> SensitivityFit:
    """``estimate_constrained`` on the rows (p, i_lin), every one of them valid."""
    if grid != basis.grid:
        raise ValueError("measurements and basis are on different grids")
    if p.shape[0] < basis.d:
        raise UnderdeterminedError(
            f"constrained fit needs >= {basis.d} valid rows, got {p.shape[0]}"
        )
    coeffs = np.empty((3, basis.d))
    cols = np.empty((grid.count, 3))
    rms = np.empty(3)
    for k in range(3):
        b_t = basis.bases[k].T
        # The constraint rows are B^T: the curve is >= 0 at every grid index.
        result = lsi(p @ b_t, i_lin[:, k], b_t)
        coeffs[k] = result.x
        # The solver certifies violations <= 1e-10; flush that dust to zero.
        omega_col = b_t @ result.x
        cols[:, k] = np.where(omega_col < 0, 0.0, omega_col)
        rms[k] = result.residual_norm / np.sqrt(p.shape[0])
    return SensitivityFit(coeffs, SensitivityMatrix(grid, cols), rms)


def estimate_constrained(m: MeasurementSet, basis: SensitivityBasis) -> SensitivityFit:
    """Basis-restricted least squares with the curve kept nonnegative.

    Per channel: min over c of ||(P B^T) c - I|| subject to (B^T c) >= 0
    elementwise, solved by the active-set machinery in ``solvers``.
    """
    return _fit_rows(m.grid, *m.valid_rows(), basis)


@dataclass(frozen=True, eq=False)
class CrossValidationReport:
    """Fold-to-fold spread of the constrained estimate."""

    mu: SensitivityMatrix
    sigma: np.ndarray  # (M, 3) per-wavelength std across folds
    fold_rmse: np.ndarray  # (folds, 3) held-out intensity RMSE
    folds: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", _frozen_array(self.sigma))
        object.__setattr__(self, "fold_rmse", _frozen_array(self.fold_rmse))


def cross_validate(
    m: MeasurementSet, basis: SensitivityBasis, folds: int = 10, seed: int = 0
) -> CrossValidationReport:
    """K-fold spread of the constrained estimate over the valid measurement rows.

    Fold assignment is a seeded shuffle dealt round-robin, so reruns with
    the same seed reproduce the folds exactly.
    """
    if folds < 2:
        raise ValueError(f"need >= 2 folds, got {folds}")
    p, i_lin = m.valid_rows()
    n = p.shape[0]
    if n < folds:
        raise UnderdeterminedError(f"cross-validation needs >= {folds} valid rows, got {n}")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(n, dtype=int)
    fold_of[rng.permutation(n)] = np.arange(n) % folds

    omegas = np.empty((folds, m.grid.count, 3))
    fold_rmse = np.empty((folds, 3))
    for f in range(folds):
        held = fold_of == f
        fit = _fit_rows(m.grid, p[~held], i_lin[~held], basis)
        omegas[f] = fit.omega_hat.channels
        pred = p[held] @ fit.omega_hat.channels
        fold_rmse[f] = np.sqrt(((pred - i_lin[held]) ** 2).mean(axis=0))
    mu = SensitivityMatrix(m.grid, omegas.mean(axis=0))
    sigma = omegas.std(axis=0)
    return CrossValidationReport(mu, sigma, fold_rmse, folds, seed)

