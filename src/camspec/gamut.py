"""Chromaticity projection, inner/outer gamut partition, and the RBF gamut map.

The map between raw tristimulus values and the linear values feeding the
response is camera-internal and strongly nonlinear toward the gamut edge,
so it is modeled nonparametrically: an affine term fit first, plus
Gaussian radial basis functions on the affine residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, RankDeficiencyError
from .spectral import _frozen_array

# Linear sRGB -> CIE XYZ, D65 reference white (row-major, bit-exact contract).
SRGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
SRGB_TO_XYZ.setflags(write=False)


def chromaticity(points) -> np.ndarray:
    """CIE 1931 (x, y) chromaticities of (N, 3) linear RGB points: (N, 2).

    Scale invariant by construction; a point with X+Y+Z <= 0 has no
    chromaticity and raises, naming the first such row.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (N, 3) tristimulus points, got {pts.shape}")
    # Row by row: a plain (N, 3) @ (3, 3) product rounds some XYZ values
    # differently in the last bit, which would move written chromaticities.
    xyz = (pts[:, None, :] @ SRGB_TO_XYZ.T)[:, 0]
    total = xyz.sum(axis=1)
    undefined = np.flatnonzero(total <= 0.0)
    if undefined.size:
        raise ValueError(
            f"chromaticity undefined at point {undefined[0]}: X+Y+Z is not positive"
        )
    return xyz[:, :2] / total[:, None]


def rgb_to_xy(s) -> tuple[float, float]:
    """(x, y) of one linear RGB triplet: one row of ``chromaticity``."""
    s = np.asarray(s, dtype=float)
    if s.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {s.shape}")
    x, y = chromaticity(s[None, :])[0]
    return float(x), float(y)


def srgb_primaries_xy() -> np.ndarray:
    """(x, y) of the red, green, blue primaries under the declared matrix."""
    return chromaticity(np.eye(3))


def white_xy() -> tuple[float, float]:
    """(x, y) of the D65 white point (equal-RGB input) under the declared matrix."""
    return tuple(chromaticity(np.ones((1, 3)))[0].tolist())


@dataclass(frozen=True)
class GamutPartition:
    """Index split of a point set into inner (near-white) and outer chromaticities."""

    alpha: float
    inner_indices: np.ndarray
    outer_indices: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "inner_indices", np.asarray(self.inner_indices, dtype=int))
        object.__setattr__(self, "outer_indices", np.asarray(self.outer_indices, dtype=int))


def _in_triangle(xy: np.ndarray, tri: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Inclusive point-in-triangle via barycentric coordinates; xy is (N, 2)."""
    a, b, c = tri
    t = np.column_stack([b - a, c - a])  # 2x2
    lam = np.linalg.solve(t, (xy - a).T).T
    l1, l2 = lam[:, 0], lam[:, 1]
    return (l1 >= -tol) & (l2 >= -tol) & (l1 + l2 <= 1.0 + tol)


def partition_gamut(points, alpha: float) -> GamutPartition:
    """Split raw tristimulus points by chromaticity against a shrunken sRGB triangle.

    The inner region is the primary triangle scaled by ``alpha`` about the
    white point, boundary inclusive. Gamut mapping is treated as negligible
    inside it, which is what stage-1 estimation relies on.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    xy = chromaticity(np.atleast_2d(points))
    w = np.array(white_xy())
    tri = w + alpha * (srgb_primaries_xy() - w)
    inner = _in_triangle(xy, tri)
    idx = np.arange(xy.shape[0])
    return GamutPartition(alpha, idx[inner], idx[~inner])


@dataclass(frozen=True, eq=False)
class RbfGamutMap:
    """Affine term plus Gaussian RBF corrections in raw tristimulus space."""

    centers: np.ndarray  # (K, 3)
    weights: np.ndarray  # (K, 3)
    kernel_width: float
    ridge: float
    affine: np.ndarray  # (3, 4): linear part | offset

    def __post_init__(self) -> None:
        centers = np.array(self.centers, dtype=float, ndmin=2)
        if centers.ndim != 2 or centers.shape[1] != 3 or centers.shape[0] < 1:
            raise ValueError(f"centers must be (K>=1, 3), got {centers.shape}")
        object.__setattr__(self, "centers", _frozen_array(centers))
        object.__setattr__(self, "weights", _frozen_array(self.weights, shape=centers.shape))
        object.__setattr__(self, "affine", _frozen_array(self.affine, shape=(3, 4)))
        if not self.kernel_width > 0:
            raise ValueError(f"kernel_width must be positive, got {self.kernel_width}")
        if self.ridge < 0:
            raise ValueError(f"ridge must be nonnegative, got {self.ridge}")


def _kernel_matrix(pts: np.ndarray, centers: np.ndarray, width: float) -> np.ndarray:
    d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-d2 / (2.0 * width * width))


def apply_gamut_map(gmap: RbfGamutMap, s) -> np.ndarray:
    """Evaluate the map at a single tristimulus point."""
    s = np.asarray(s, dtype=float)
    return apply_gamut_map_batch(gmap, s[None, :])[0]


def apply_gamut_map_batch(gmap: RbfGamutMap, pts: np.ndarray) -> np.ndarray:
    """Evaluate the map at (N, 3) points."""
    pts = np.asarray(pts, dtype=float)
    phi = _kernel_matrix(pts, gmap.centers, gmap.kernel_width)
    return pts @ gmap.affine[:, :3].T + gmap.affine[:, 3] + phi @ gmap.weights


@dataclass(frozen=True)
class GamutFitConfig:
    max_centers: int = 125
    ridge: float = 1e-8
    kernel_width: float | None = None  # None: median pairwise center distance


@dataclass(frozen=True)
class GamutFitResult:
    map: RbfGamutMap
    training_rms: np.ndarray  # (3,)
    training_max_abs: np.ndarray  # (3,)


def _farthest_point_centers(pts: np.ndarray, k: int) -> np.ndarray:
    """Deterministic farthest-point sampling; first pick is the point
    farthest from the centroid, ties resolved to the lowest index."""
    n = pts.shape[0]
    if k >= n:
        return pts.copy()
    chosen = [int(np.argmax(((pts - pts.mean(axis=0)) ** 2).sum(axis=1)))]
    dist = ((pts - pts[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, ((pts - pts[nxt]) ** 2).sum(axis=1))
    return pts[chosen]


def _median_pairwise(pts: np.ndarray) -> float:
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    upper = d2[np.triu_indices(pts.shape[0], k=1)]
    upper = upper[upper > 0]
    if upper.size == 0:
        return 1.0
    return float(np.sqrt(np.median(upper)))


def fit_gamut_map(s_samples, e_targets, cfg: GamutFitConfig | None = None) -> GamutFitResult:
    """Fit the gamut map from paired (raw tristimulus, linear target) samples.

    The affine part is solved first so the RBF weights only model what an
    affine map cannot; with ridge 0 and every sample kept as a center the
    solve is an exact interpolation.
    """
    cfg = cfg or GamutFitConfig()
    s = np.asarray(s_samples, dtype=float)
    e = np.asarray(e_targets, dtype=float)
    if s.ndim != 2 or s.shape[1] != 3 or s.shape != e.shape:
        raise ValueError(f"expected matching (N, 3) arrays, got {s.shape} and {e.shape}")
    n = s.shape[0]
    if n < 4:
        raise ValueError(f"need at least 4 samples to determine the affine term, got {n}")
    if not np.isfinite(e).all():
        raise ValueError("targets must be finite")

    design = np.column_stack([s, np.ones(n)])
    if np.linalg.matrix_rank(design) < 4:
        raise DegenerateGeometryError(
            "samples are affinely degenerate (collinear/coplanar); cannot fit a 3-D map"
        )
    affine_t, *_ = np.linalg.lstsq(design, e, rcond=None)  # (4, 3)
    resid = e - design @ affine_t

    k = min(cfg.max_centers, n)
    centers = s.copy() if k == n else _farthest_point_centers(s, k)
    width = cfg.kernel_width if cfg.kernel_width is not None else _median_pairwise(centers)
    if not width > 0:
        raise ValueError(f"kernel width must be positive, got {width}")

    phi = _kernel_matrix(s, centers, width)
    try:
        if k == n:
            # Square kernel system; one refinement step keeps the training
            # residual near machine level even when the kernel matrix is
            # badly conditioned.
            lhs = phi + cfg.ridge * np.eye(n)
            weights = np.linalg.solve(lhs, resid)
            weights += np.linalg.solve(lhs, resid - lhs @ weights)
        else:
            lhs = phi.T @ phi + cfg.ridge * np.eye(k)
            weights = np.linalg.solve(lhs, phi.T @ resid)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(f"gamut-map system is singular after ridge: {exc}") from exc

    gmap = RbfGamutMap(
        centers=centers,
        weights=weights,
        kernel_width=float(width),
        ridge=float(cfg.ridge),
        affine=affine_t.T,
    )
    err = apply_gamut_map_batch(gmap, s) - e
    return GamutFitResult(
        map=gmap,
        training_rms=np.sqrt((err**2).mean(axis=0)),
        training_max_abs=np.abs(err).max(axis=0),
    )
