"""Two-stage camera estimation, evaluation, and the synthetic-data oracle.

Estimating the sensitivity, response, and gamut map simultaneously is
ill-posed, so stage 1 restricts itself to inner-gamut samples (where the
gamut map is close to identity) and recovers the response and sensitivity
there; stage 2 then fits the gamut map over every unsaturated sample using
the stage-1 estimates to synthesize its inputs and targets.

Everything here is deterministic given the input data, the config, and
the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import (
    DEFAULT_SAT_HI,
    DEFAULT_SAT_LO,
    CameraModel,
    ResponseCurve,
    default_thresholds,
    render,
)
from .errors import GridMismatchError, PipelineError
from .gamut import GamutFitConfig, RbfGamutMap, fit_gamut_map, partition_gamut
from .response import (
    ExposureStack,
    ReciprocityReport,
    ResponseFitConfig,
    check_exposure_reciprocity,
    estimate_response,
)
from .sensitivity import (
    CrossValidationReport,
    MeasurementSet,
    SensitivityBasis,
    SensitivityDatabase,
    build_basis,
    cross_validate,
    estimate_constrained,
    synthetic_database,
    _gaussian,
)
from .spectral import Kind, SensitivityMatrix, SpectralCurve, SpectralGrid, radiance_rows


@dataclass(frozen=True, eq=False)
class CalibrationInput:
    """Scene knowledge plus observed exposure stacks, one stack per illuminant."""

    grid: SpectralGrid
    illuminants: tuple
    reflectances: tuple
    stacks: tuple

    def __post_init__(self) -> None:
        illuminants = tuple(self.illuminants)
        reflectances = tuple(self.reflectances)
        stacks = tuple(self.stacks)
        if not illuminants or not reflectances:
            raise ValueError("need at least one illuminant and one reflectance")
        if len(stacks) != len(illuminants):
            raise ValueError(
                f"{len(illuminants)} illuminants but {len(stacks)} exposure stacks"
            )
        for curve in (*illuminants, *reflectances):
            if curve.grid != self.grid:
                raise GridMismatchError("calibration curves are not on the declared grid")
        for ill, kind in ((illuminants, Kind.ILLUMINANT), (reflectances, Kind.REFLECTANCE)):
            for curve in ill:
                if curve.kind is not kind:
                    raise ValueError(f"expected {kind.value} curves, got {curve.kind.value}")
        for stack in stacks:
            if stack.n_patches != len(reflectances):
                raise ValueError(
                    f"stack has {stack.n_patches} patches, expected {len(reflectances)}"
                )
        object.__setattr__(self, "illuminants", illuminants)
        object.__setattr__(self, "reflectances", reflectances)
        object.__setattr__(self, "stacks", stacks)

    @property
    def n_samples(self) -> int:
        return sum(s.n_patches * s.n_exposures for s in self.stacks)


@dataclass(frozen=True)
class PipelineConfig:
    """All estimation knobs in one place; serialized as the config JSON.

    The thresholds flag saturation when data is generated or loaded without
    its own; datasets that already carry flags keep them.
    """

    alpha: float = 0.6
    basis_dim: int = 6
    folds: int = 10
    smoothness_lambda: float = 50.0
    rbf_max_centers: int = 32
    rbf_ridge: float = 1e-8
    rbf_kernel_width: float | None = None
    min_inner: int = 20
    database_entries: int = 24
    sat_lo: int = DEFAULT_SAT_LO
    sat_hi: int = DEFAULT_SAT_HI
    seed: int = 0


@dataclass(frozen=True)
class Stage1Diagnostics:
    inner_count: int
    outer_count: int
    reciprocity: ReciprocityReport
    sensitivity_cv: CrossValidationReport


@dataclass(frozen=True)
class Stage2Diagnostics:
    gamut_training_rms: np.ndarray  # (3,)
    gamut_training_max_abs: np.ndarray  # (3,)


@dataclass(frozen=True, eq=False)
class EstimatedCamera:
    camera: CameraModel
    stage1: Stage1Diagnostics
    stage2: Stage2Diagnostics


def _merge_stacks(inp: CalibrationInput) -> tuple[ExposureStack, np.ndarray]:
    """One big stack over (illuminant, patch) pairs plus matching radiance rows."""
    first = inp.stacks[0]
    for stack in inp.stacks[1:]:
        if not np.array_equal(stack.exposures, first.exposures):
            raise PipelineError(
                "stage 1: stacks use different exposure lists; the two-stage "
                "estimator requires a shared exposure schedule"
            )
        if (
            stack.bit_depth != first.bit_depth
            or stack.sat_lo != first.sat_lo
            or stack.sat_hi != first.sat_hi
        ):
            raise PipelineError("stage 1: stacks disagree on bit depth or thresholds")
    samples = np.concatenate([s.samples for s in inp.stacks], axis=0)
    merged = ExposureStack(
        first.exposures, samples, first.bit_depth, first.sat_lo, first.sat_hi
    )
    return merged, radiance_rows(inp.illuminants, inp.reflectances)


def _linearized(stack: ExposureStack, curve: ResponseCurve, q, i) -> np.ndarray:
    """Exposure-normalized linear intensities for the indexed samples, (n, 3)."""
    codes = stack.samples[q, i]
    lin = np.stack([curve.g_inv[k][codes[:, k]] for k in range(3)], axis=1)
    return lin / stack.exposures[i][:, None]


def _inner_mask(
    stack: ExposureStack, curve: ResponseCurve, vq, vi, alpha: float
) -> np.ndarray:
    proxies = _linearized(stack, curve, vq, vi)
    part = partition_gamut(proxies, alpha)
    mask = np.zeros((stack.n_patches, stack.n_exposures), dtype=bool)
    mask[vq[part.inner_indices], vi[part.inner_indices]] = True
    return mask


def run_two_stage(
    inp: CalibrationInput,
    cfg: PipelineConfig | None = None,
    database: SensitivityDatabase | None = None,
    basis: SensitivityBasis | None = None,
) -> EstimatedCamera:
    """Estimate sensitivity, response, and gamut map from calibration data.

    Stage 1 bootstraps the gamut partition with a provisional gamma-2.2
    linearization, fits the response on inner-gamut samples, re-partitions
    once with the fitted response, refits, and estimates the sensitivity
    on the refined inner set. Stage 2 fits the gamut map over all
    unsaturated samples, mapping predicted raw tristimulus values onto the
    response-linearized measurements.
    """
    cfg = cfg or PipelineConfig()
    merged, p_rows = _merge_stacks(inp)
    valid = merged.triplet_valid
    vq, vi = np.nonzero(valid)
    if vq.size == 0:
        raise PipelineError("stage 1: every sample is saturated; nothing to fit")

    provisional = ResponseCurve.from_gamma(2.2, merged.bit_depth)
    resp_cfg = ResponseFitConfig(smoothness_lambda=cfg.smoothness_lambda)

    def require_inner(mask: np.ndarray) -> None:
        count = int(mask.sum())
        if count < cfg.min_inner:
            raise PipelineError(
                f"stage 1: only {count} inner-gamut samples (need >= {cfg.min_inner}); "
                f"increase alpha (currently {cfg.alpha}) or add near-neutral patches"
            )

    try:
        mask0 = _inner_mask(merged, provisional, vq, vi, cfg.alpha)
        require_inner(mask0)
        g0 = estimate_response(merged, resp_cfg, sample_mask=mask0)
        mask1 = _inner_mask(merged, g0, vq, vi, cfg.alpha)
        require_inner(mask1)
        g_hat = estimate_response(merged, resp_cfg, sample_mask=mask1)
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"stage 1 (response): {exc}") from exc

    try:
        iq, ii = np.nonzero(mask1)
        mset = MeasurementSet(
            inp.grid,
            p_rows[iq],
            _linearized(merged, g_hat, iq, ii),
            np.ones(iq.size, dtype=bool),
        )
        if basis is None:
            db = database or synthetic_database(inp.grid, cfg.database_entries, cfg.seed)
            basis = build_basis(db, cfg.basis_dim)
        fit = estimate_constrained(mset, basis)
        cv = cross_validate(mset, basis, folds=cfg.folds, seed=cfg.seed)
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"stage 1 (sensitivity): {exc}") from exc

    try:
        s_pred = p_rows[vq] @ fit.omega_hat.channels
        e_targets = _linearized(merged, g_hat, vq, vi)
        gfit = fit_gamut_map(
            s_pred,
            e_targets,
            GamutFitConfig(cfg.rbf_max_centers, cfg.rbf_ridge, cfg.rbf_kernel_width),
        )
    except Exception as exc:
        raise PipelineError(f"stage 2 (gamut map): {exc}") from exc

    camera = CameraModel(
        grid=inp.grid,
        omega=fit.omega_hat,
        response=g_hat,
        gamut=gfit.map,
        bit_depth=merged.bit_depth,
        sat_lo=merged.sat_lo,
        sat_hi=merged.sat_hi,
    )
    reciprocity = check_exposure_reciprocity(merged, g_hat)
    stage1 = Stage1Diagnostics(
        inner_count=int(mask1.sum()),
        outer_count=int(vq.size - mask1.sum()),
        reciprocity=reciprocity,
        sensitivity_cv=cv,
    )
    stage2 = Stage2Diagnostics(gfit.training_rms, gfit.training_max_abs)
    return EstimatedCamera(camera, stage1, stage2)


@dataclass(frozen=True)
class SplitStats:
    """Per-channel error statistics for one saturation split."""

    rmse: np.ndarray  # (3,)
    max_abs: np.ndarray  # (3,)
    count: int


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """Predicted-vs-measured comparison, split by measured-triplet saturation.

    An empty split is None rather than zeros: saturated and unsaturated
    statistics are never mixed, and absence is reported as absence.
    """

    unsaturated: SplitStats | None
    saturated: SplitStats | None
    channel: np.ndarray  # (n_rows,) 0/1/2
    measured: np.ndarray  # (n_rows,)
    predicted: np.ndarray  # (n_rows,)
    is_saturated: np.ndarray  # (n_rows,) bool, triplet-level flag
    disjoint_from_training: bool | None = None


def _split_stats(measured: np.ndarray, predicted: np.ndarray) -> SplitStats | None:
    if measured.shape[0] == 0:
        return None
    err = predicted - measured
    return SplitStats(
        rmse=np.sqrt((err.astype(float) ** 2).mean(axis=0)),
        max_abs=np.abs(err).max(axis=0).astype(float),
        count=int(measured.shape[0]),
    )


def evaluate(
    est: EstimatedCamera | CameraModel,
    validation: CalibrationInput,
    disjoint_from_training: bool | None = None,
) -> EvaluationReport:
    """Simulate every validation sample through the camera and compare codes.

    The split key is the measured triplet's saturation; whether the
    validation set is disjoint from training is the caller's claim and is
    recorded untouched.
    """
    cam = est.camera if isinstance(est, EstimatedCamera) else est
    if validation.grid != cam.grid:
        raise GridMismatchError("validation data is not on the camera grid")
    stacks = validation.stacks
    predicted = np.concatenate([
        render(cam, radiance_rows([light], validation.reflectances), stack.exposures).reshape(-1, 3)
        for light, stack in zip(validation.illuminants, stacks)
    ])
    measured = np.concatenate([s.samples.reshape(-1, 3) for s in stacks])
    saturated = ~np.concatenate([s.triplet_valid.reshape(-1) for s in stacks])

    n = measured.shape[0]
    return EvaluationReport(
        unsaturated=_split_stats(measured[~saturated], predicted[~saturated]),
        saturated=_split_stats(measured[saturated], predicted[saturated]),
        channel=np.tile(np.arange(3), n),
        measured=measured.reshape(-1),
        predicted=predicted.reshape(-1),
        is_saturated=np.repeat(saturated, 3),
        disjoint_from_training=disjoint_from_training,
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
    lo, hi = default_thresholds(bit_depth, sat_lo, sat_hi)
    wl = grid.wavelengths
    bumps = [
        _gaussian(wl, 605.0, 30.0),
        _gaussian(wl, 540.0, 33.0),
        _gaussian(wl, 465.0, 28.0),
    ]
    channels = np.stack([b / b.sum() for b in bumps], axis=1)
    omega = SensitivityMatrix(grid, channels * (peak / channels[:, 0].max()))
    return CameraModel(
        grid=grid,
        omega=omega,
        response=ResponseCurve.from_gamma(gamma, bit_depth),
        gamut=gamut,
        bit_depth=bit_depth,
        sat_lo=lo,
        sat_hi=hi,
    )


def camera_in_basis_span(
    grid: SpectralGrid,
    parents: np.ndarray,
    gamma=2.2,
    gamut: RbfGamutMap | None = None,
    peak: float = 0.25,
    seed: int = 3,
    bit_depth: int = 8,
    sat_lo: int = DEFAULT_SAT_LO,
    sat_hi: int = DEFAULT_SAT_HI,
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
    return CameraModel(
        grid=grid,
        omega=SensitivityMatrix(grid, cols),
        response=ResponseCurve.from_gamma(gamma, bit_depth),
        gamut=gamut,
        bit_depth=bit_depth,
        sat_lo=sat_lo,
        sat_hi=sat_hi,
    )


def synthetic_gamut_warp(scale: float = 1.0, strength: float = 0.05, seed: int = 0) -> RbfGamutMap:
    """A mild nonlinear warp: identity affine plus RBF bumps anchored near the
    chromatic corners, so the deviation is small near the neutral axis and
    grows toward the gamut edge. ``scale`` is the typical raw-tristimulus
    magnitude of the camera it will be attached to."""
    rng = np.random.default_rng(seed)
    corners = np.array(
        [
            [1.00, 0.15, 0.15],
            [0.15, 1.00, 0.15],
            [0.15, 0.15, 1.00],
            [1.00, 1.00, 0.20],
            [1.00, 0.20, 1.00],
            [0.20, 1.00, 1.00],
        ]
    )
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


def _smooth(values: np.ndarray, sigma_samples: float = 2.0) -> np.ndarray:
    radius = int(np.ceil(3 * sigma_samples))
    x = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-0.5 * (x / sigma_samples) ** 2)
    kernel /= kernel.sum()
    padded = np.pad(values, radius, mode="reflect")
    return np.convolve(padded, kernel, mode="valid")


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
    exposures = np.asarray(list(exposures), dtype=float)
    if exposures.size < 1 or (exposures <= 0).any():
        raise ValueError("exposures must be a nonempty list of positive seconds")
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
