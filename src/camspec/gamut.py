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
#: How far outside its edges a point still counts as inside the inner triangle.
_TRIANGLE_TOL = 1e-12


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


def srgb_primaries_xy() -> np.ndarray:
    """(x, y) of the red, green, blue primaries under the declared matrix."""
    return chromaticity(np.eye(3))


def white_xy() -> tuple[float, float]:
    """(x, y) of the D65 white point (equal-RGB input) under the declared matrix."""
    return tuple(chromaticity(np.ones((1, 3)))[0].tolist())


def _in_triangle(xy: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Inclusive point-in-triangle via barycentric coordinates; xy is (N, 2)."""
    a, b, c = tri
    t = np.column_stack([b - a, c - a])  # 2x2
    lam = np.linalg.solve(t, (xy - a).T).T
    l1, l2 = lam[:, 0], lam[:, 1]
    return (l1 >= -_TRIANGLE_TOL) & (l2 >= -_TRIANGLE_TOL) & (l1 + l2 <= 1.0 + _TRIANGLE_TOL)


def partition_gamut(points, alpha: float) -> np.ndarray:
    """(N,) bool: which raw tristimulus points are inner, by chromaticity
    against a shrunken sRGB triangle; the rest are outer.

    The inner region is the primary triangle scaled by ``alpha`` about the
    white point, boundary inclusive. Gamut mapping is treated as negligible
    inside it, which is what stage-1 estimation relies on.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    xy = chromaticity(np.atleast_2d(points))
    w = np.array(white_xy())
    tri = w + alpha * (srgb_primaries_xy() - w)
    return _in_triangle(xy, tri)


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


def _sq_dist(pts: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(N, K) squared distances, summed over x, y, z left to right as numpy sums a length-3 axis."""
    out = (pts[:, 0, None] - q[:, 0]) ** 2
    for a in (1, 2):
        out += (pts[:, a, None] - q[:, a]) ** 2
    return out


def _kernel_matrix(pts: np.ndarray, centers: np.ndarray, width: float) -> np.ndarray:
    """exp(-d2 / (2 width^2)) of the ``_sq_dist`` sums d2, in place (d2 / -c rounds as -d2 / c)."""
    d2 = _sq_dist(pts, centers)
    return np.exp(np.divide(d2, -2.0 * width * width, out=d2), out=d2)


def apply_gamut_map_batch(gmap: RbfGamutMap, pts: np.ndarray) -> np.ndarray:
    """Evaluate the map at (N, 3) points."""
    pts = np.asarray(pts, dtype=float)
    return _evaluate(gmap, pts, _kernel_matrix(pts, gmap.centers, gmap.kernel_width))


def _evaluate(gmap: RbfGamutMap, pts: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The map at (N, 3) points whose kernel matrix against its centers is ``phi``."""
    return pts @ gmap.affine[:, :3].T + gmap.affine[:, 3] + phi @ gmap.weights


@dataclass(frozen=True)
class GamutFitResult:
    map: RbfGamutMap
    training_rms: np.ndarray  # (3,)
    training_max_abs: np.ndarray  # (3,)


def _farthest_point_centers(pts: np.ndarray, k: int, centroid: np.ndarray) -> np.ndarray:
    """Deterministic farthest-point sampling; first pick is the point farthest from
    ``centroid``, ties resolved to the lowest index. With room for every distinct
    point, each distinct row is kept once, at its first occurrence, in input order."""
    if k >= pts.shape[0]:
        return pts[np.sort(np.unique(pts, axis=0, return_index=True)[1])]
    chosen = [int(np.argmax(_sq_dist(pts, centroid[None])))]
    dist = _sq_dist(pts, pts[chosen])
    while len(chosen) < k:
        nxt = int(np.argmax(dist))
        if dist[nxt, 0] == 0:  # every distinct point is picked, at its first row
            return pts[np.sort(chosen)]
        chosen.append(nxt)
        np.minimum(dist, _sq_dist(pts, pts[nxt, None]), out=dist)
    return pts[chosen]


def _median_pairwise(pts: np.ndarray) -> float:
    upper = _sq_dist(pts, pts)[np.triu_indices(pts.shape[0], k=1)]
    upper = upper[upper > 0]
    return float(np.sqrt(np.median(upper))) if upper.size else 1.0


def fit_gamut_map(
    s_samples,
    e_targets,
    *,
    max_centers: int = 125,
    ridge: float = 1e-8,
    kernel_width: float | None = None,
) -> GamutFitResult:
    """Fit the gamut map from paired (raw tristimulus, linear target) samples.

    The affine part is solved first so the RBF weights only model what an
    affine map cannot. Up to ``max_centers`` centers are picked by
    farthest-point sampling; ``kernel_width`` None means the median pairwise
    center distance. The weights minimize |Phi w - r|^2 + ridge |w|^2 on
    the affine residuals r at every center count, by least squares on
    [Phi; sqrt(ridge) I] w = [r; 0] (Phi^T Phi would square Phi's condition
    number): the ridge penalizes the weights, not the kernel matrix. With
    ridge 0 and every sample kept as a center the solve is an exact
    interpolation.

    A run of n equal consecutive rows of ``s_samples`` (one patch's
    exposures in ``run_two_stage``) is fitted once, as one row weighted by
    sqrt(n) toward the run's mean target. That is exact: over the run,
    sum |a - e_i|^2 = n |a - mean(e)|^2 + a constant. The rank cutoffs keep
    their per-sample values, farthest-point sampling starts from the mean of
    every sample, and each distinct point is at most one center, in any order
    of its repeats. Rows without repeats run the per-sample arithmetic bit for bit.
    """
    s = np.asarray(s_samples, dtype=float)
    e = np.asarray(e_targets, dtype=float)
    if s.ndim != 2 or s.shape[1] != 3 or s.shape != e.shape:
        raise ValueError(f"expected matching (N, 3) arrays, got {s.shape} and {e.shape}")
    n = s.shape[0]
    if n < 4:
        raise ValueError(f"need at least 4 samples to determine the affine term, got {n}")
    if not np.isfinite(e).all():
        raise ValueError("targets must be finite")

    new_run = np.ones(n, dtype=bool)
    new_run[1:] = (s[1:] != s[:-1]).any(axis=1)
    first = np.flatnonzero(new_run)
    count = np.diff(first, append=n)[:, None]
    pts, root = s[first], np.sqrt(count)
    e_mean = np.add.reduceat(e, first, axis=0) / count
    eps = np.finfo(float).eps

    design = np.column_stack([pts, np.ones(len(pts))])
    # lstsq's rank has matrix_rank's cutoff on the per-sample design [S, 1]:
    # eps * max(N, 4) * the largest singular value.
    affine_t, _, rank, _ = np.linalg.lstsq(root * design, root * e_mean, rcond=eps * max(n, 4))
    if rank < 4:
        raise DegenerateGeometryError(
            "samples are affinely degenerate (collinear/coplanar); cannot fit a 3-D map"
        )
    resid = e_mean - design @ affine_t

    if not max_centers >= 1:
        raise ValueError(f"max_centers must be at least 1, got {max_centers}")
    centers = _farthest_point_centers(pts, max_centers, s.mean(axis=0))
    k = centers.shape[0]
    width = kernel_width if kernel_width is not None else _median_pairwise(centers)
    if not width > 0:
        raise ValueError(f"kernel width must be positive, got {width}")
    if not ridge >= 0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")

    phi = _kernel_matrix(pts, centers, width)
    stacked = np.vstack([root * phi, np.sqrt(ridge) * np.eye(k)])
    rhs = np.vstack([root * resid, np.zeros((k, 3))])
    try:
        weights, *_ = np.linalg.lstsq(stacked, rhs, rcond=eps * (n + k))
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(f"gamut-map system is singular after ridge: {exc}") from exc

    gmap = RbfGamutMap(
        centers=centers,
        weights=weights,
        kernel_width=float(width),
        ridge=float(ridge),
        affine=affine_t.T,
    )
    err = _evaluate(gmap, pts, phi)[np.cumsum(new_run) - 1] - e
    return GamutFitResult(
        map=gmap,
        training_rms=np.sqrt((err**2).mean(axis=0)),
        training_max_abs=np.abs(err).max(axis=0),
    )
