"""Two-stage camera estimation and evaluation.

Estimating the sensitivity, response, and gamut map simultaneously is
ill-posed. Exposure scales the gamut map's output (``io.EXPOSURE_CONVENTION
= "after_gamut"``), so every unsaturated sample of a patch obeys
z = g(h(S) t) with one unknown h(S) per patch: stage 1 recovers the
response from every unsaturated sample, then restricts itself to
inner-gamut samples (where the gamut map is close to identity) to recover
the sensitivity; stage 2 then fits the gamut map over every unsaturated
sample using the stage-1 estimates to synthesize its inputs and targets.
The camera is built from those fits alone; nothing here cross-validates
them.

Everything here is deterministic given the input data, the config, and
the seed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .camera import CameraModel, ResponseCurve, render
from .errors import GridMismatchError, PipelineError
from .gamut import fit_gamut_map, partition_gamut
from .response import ExposureStack, ReciprocityReport, check_exposure_reciprocity, estimate_response
from .sensitivity import (
    MeasurementSet,
    SensitivityBasis,
    SensitivityFit,
    build_basis,
    estimate_constrained,
)
from .spectral import Kind, SpectralGrid, radiance_rows


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
        coding = [(s.bit_depth, s.sat_lo, s.sat_hi) for s in stacks]
        for i, stack in enumerate(stacks):
            if stack.n_patches != len(reflectances):
                raise ValueError(
                    f"stack has {stack.n_patches} patches, expected {len(reflectances)}"
                )
            if coding[i] != coding[0]:
                raise ValueError(
                    f"stack {i} has (bit_depth, sat_lo, sat_hi) = {coding[i]} but stack 0 "
                    f"has {coding[0]}; every stack must share them"
                )
        object.__setattr__(self, "illuminants", illuminants)
        object.__setattr__(self, "reflectances", reflectances)
        object.__setattr__(self, "stacks", stacks)


@dataclass(frozen=True)
class PipelineConfig:
    """All estimation knobs in one place; serialized as the config JSON.

    The thresholds flag saturation when data is generated or loaded without
    its own; datasets that already carry flags keep them. None means
    ``default_thresholds`` at the data's bit depth. ``folds`` serves only the
    cross-validation of ``fit-sensitivity``; ``run_two_stage`` ignores it.
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
    sat_lo: int | None = None
    sat_hi: int | None = None
    seed: int = 0


@dataclass(frozen=True)
class Stage1Diagnostics:
    inner_count: int
    outer_count: int
    reciprocity: ReciprocityReport


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
    # CalibrationInput guarantees every stack has stack 0's bit depth and thresholds.
    merged = replace(first, samples=np.concatenate([s.samples for s in inp.stacks], axis=0))
    return merged, radiance_rows(inp.illuminants, inp.reflectances)


def _linearized(stack: ExposureStack, curve: ResponseCurve, q, i) -> np.ndarray:
    """Exposure-normalized linear intensities for the indexed samples, (n, 3)."""
    codes = stack.samples[q, i]
    lin = np.stack([curve.g_inv[k][codes[:, k]] for k in range(3)], axis=1)
    return lin / stack.exposures[i][:, None]


def _inner_samples(lin: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """Indices of the inner-gamut rows of the linear intensities ``lin``;
    fewer than ``cfg.min_inner`` is a PipelineError."""
    inner = np.flatnonzero(partition_gamut(lin, cfg.alpha))
    if inner.size < cfg.min_inner:
        raise PipelineError(
            f"stage 1: only {inner.size} inner-gamut samples (need >= {cfg.min_inner}); "
            f"increase alpha (currently {cfg.alpha}) or add near-neutral patches"
        )
    return inner


def fit_sensitivity(
    mset: MeasurementSet, cfg: PipelineConfig, basis: SensitivityBasis | None = None
) -> tuple[SensitivityBasis, SensitivityFit]:
    """The sensitivity step: a basis (``basis``, else built from the stand-in
    synthetic database) and the constrained fit on it."""
    if basis is None:
        from .synthetic import synthetic_database  # late: synthetic imports this module
        db = synthetic_database(mset.grid, cfg.database_entries, cfg.seed)
        basis = build_basis(db, cfg.basis_dim)
    return basis, estimate_constrained(mset, basis)


@contextmanager
def _stage(label: str):
    """Re-raise a failure inside one estimation stage as PipelineError naming the stage."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"stage {label}: {exc}") from exc


def run_two_stage(
    inp: CalibrationInput,
    cfg: PipelineConfig | None = None,
    basis: SensitivityBasis | None = None,
) -> EstimatedCamera:
    """Estimate sensitivity, response, and gamut map from calibration data.

    Stage 1 fits the response once, on every unsaturated sample: exposure
    scales the gamut map's output (the after-gamut convention), so inner and
    outer samples alike fit the exposure-stack equations with one unknown
    per patch. It then partitions the samples under that response and
    estimates the sensitivity on the inner set with one constrained fit on
    ``basis`` (None: the stand-in basis, see ``fit_sensitivity``), not
    cross-validated.
    Stage 2 fits the gamut map over all unsaturated samples, mapping
    predicted raw tristimulus values onto the response-linearized measurements;
    a patch's samples share one input, so each patch is fitted once.
    """
    cfg = cfg or PipelineConfig()
    merged, p_rows = _merge_stacks(inp)
    valid = merged.triplet_valid
    vq, vi = np.nonzero(valid)
    if vq.size == 0:
        raise PipelineError("stage 1: every sample is saturated; nothing to fit")

    with _stage("1 (response)"):
        g_hat = estimate_response(merged, smoothness_lambda=cfg.smoothness_lambda)
        e_lin = _linearized(merged, g_hat, vq, vi)
        inner = _inner_samples(e_lin, cfg)

    with _stage("1 (sensitivity)"):
        mset = MeasurementSet(inp.grid, p_rows[vq[inner]], e_lin[inner],
                              np.ones(inner.size, dtype=bool))
        _, fit = fit_sensitivity(mset, cfg, basis)

    with _stage("2 (gamut map)"):
        # S per patch: each patch's samples are equal rows, fitted once.
        gfit = fit_gamut_map(
            (p_rows @ fit.omega_hat.channels)[vq],
            e_lin,
            max_centers=cfg.rbf_max_centers,
            ridge=cfg.rbf_ridge,
            kernel_width=cfg.rbf_kernel_width,
        )

    camera = CameraModel(
        grid=inp.grid,
        omega=fit.omega_hat,
        response=g_hat,
        gamut=gfit.map,
        sat_lo=merged.sat_lo,
        sat_hi=merged.sat_hi,
    )
    reciprocity = check_exposure_reciprocity(merged, g_hat)
    stage1 = Stage1Diagnostics(inner.size, vq.size - inner.size, reciprocity)
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
    stacks = validation.stacks  # CalibrationInput: every stack has one bit depth
    if stacks[0].bit_depth != cam.bit_depth:
        raise ValueError(f"validation data is {stacks[0].bit_depth}-bit but the camera is "
                         f"{cam.bit_depth}-bit")
    rows = radiance_rows(validation.illuminants, validation.reflectances)
    predicted = np.concatenate([
        render(cam, p, stack.exposures).reshape(-1, 3)
        for p, stack in zip(rows.reshape(len(stacks), -1, cam.grid.count), stacks)
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

