"""Exception hierarchy.

Every documented failure mode raises a typed error so callers (and the CLI
exit-code mapping) can distinguish usage mistakes, data problems, and
numeric/capacity limits without parsing messages.
"""


class BoxprobeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(BoxprobeError, ValueError):
    """A parameter is outside its documented bounds (m > n, h <= 0, ...)."""


class UnsupportedKindError(BoxprobeError, TypeError):
    """Operation requires a different feature kind (e.g. shift on categorical)."""


class InvalidLevelError(BoxprobeError, ValueError):
    """A categorical value is not among the registered levels."""


class ShapeError(BoxprobeError, ValueError):
    """Matrix dimensions do not match the predictor's expected feature count."""


class MissingTargetError(BoxprobeError):
    """Operation needs a target vector but the dataset has none."""


class CapacityError(BoxprobeError):
    """Exact coalition enumeration would exceed the feature cap."""


class DegenerateBinningError(BoxprobeError):
    """Interval construction collapsed (no usable bins for the feature)."""


class SingularFitError(BoxprobeError):
    """Least-squares design is rank deficient; no unique fit exists."""


class UndefinedVarianceError(BoxprobeError):
    """Sample standard deviation is undefined (fewer than two values)."""


class DataFormatError(BoxprobeError, ValueError):
    """Input file (CSV or model file) violates the expected format."""
