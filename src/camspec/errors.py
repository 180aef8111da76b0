"""Exception types raised across the library.

The CLI maps these onto distinct exit codes, so estimators raise the most
specific class that applies rather than bare ValueError/RuntimeError.
"""


class GridMismatchError(ValueError):
    """Operands live on different wavelength grids; resample first."""


class FitError(RuntimeError):
    """A fit or pipeline stage could not produce a result; the CLI exits 4."""


class UnderdeterminedError(FitError):
    """A fit has fewer usable equations than unknowns."""


class RankDeficiencyError(FitError):
    """A linear system is rank deficient or numerically non-invertible."""


class ConvergenceError(FitError):
    """An iterative solver hit its iteration cap or failed its KKT checks."""


class DegenerateGeometryError(FitError):
    """Sample geometry is degenerate (e.g. all points collinear)."""


class PipelineError(FitError):
    """A pipeline stage could not run; message carries the stage label."""


class ParseError(ValueError):
    """A file failed to parse; message carries location and the violated rule."""


class SchemaVersionError(ValueError):
    """A JSON document declares a schema version this library does not read."""
