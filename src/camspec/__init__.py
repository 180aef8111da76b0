"""End-to-end RGB camera model: simulate pixel formation and estimate the
spectral sensitivity, response function, and gamut mapping of an unknown
camera from images of known reflectances under known illuminants."""

__version__ = "0.1.0"

from .camera import (
    CameraModel,
    ResponseCurve,
    Saturation,
    SaturationFlags,
    apply_response,
    classify_saturation,
    default_thresholds,
    interpolated_code,
    render,
    simulate_pixel,
)
from .gamut import (
    GamutFitResult,
    RbfGamutMap,
    chromaticity,
    fit_gamut_map,
    partition_gamut,
)
from .pipeline import (
    CalibrationInput,
    EstimatedCamera,
    EvaluationReport,
    PipelineConfig,
    evaluate,
    fit_sensitivity,
    run_two_stage,
)
from .response import (
    ExposureStack,
    ReciprocityReport,
    check_exposure_reciprocity,
    estimate_response,
)
from .sensitivity import (
    CrossValidationReport,
    MeasurementSet,
    SensitivityBasis,
    SensitivityDatabase,
    SensitivityFit,
    build_basis,
    cross_validate,
    estimate_constrained,
    estimate_pinv,
)
from .spectral import (
    DEFAULT_GRID,
    Kind,
    SensitivityMatrix,
    SpectralCurve,
    SpectralGrid,
    radiance_rows,
    resample,
    spectral_product,
)
from .synthetic import (
    generate_synthetic_dataset,
    synthetic_camera,
    synthetic_database,
    synthetic_gamut_warp,
)

__all__ = [
    "__version__",
    "CameraModel",
    "ResponseCurve",
    "Saturation",
    "SaturationFlags",
    "apply_response",
    "classify_saturation",
    "default_thresholds",
    "interpolated_code",
    "render",
    "simulate_pixel",
    "GamutFitResult",
    "RbfGamutMap",
    "chromaticity",
    "fit_gamut_map",
    "partition_gamut",
    "CalibrationInput",
    "EstimatedCamera",
    "EvaluationReport",
    "PipelineConfig",
    "evaluate",
    "fit_sensitivity",
    "run_two_stage",
    "ExposureStack",
    "ReciprocityReport",
    "check_exposure_reciprocity",
    "estimate_response",
    "CrossValidationReport",
    "MeasurementSet",
    "SensitivityBasis",
    "SensitivityDatabase",
    "SensitivityFit",
    "build_basis",
    "cross_validate",
    "estimate_constrained",
    "estimate_pinv",
    "DEFAULT_GRID",
    "Kind",
    "SensitivityMatrix",
    "SpectralCurve",
    "SpectralGrid",
    "radiance_rows",
    "resample",
    "spectral_product",
    "generate_synthetic_dataset",
    "synthetic_camera",
    "synthetic_database",
    "synthetic_gamut_warp",
]
