"""Exception hierarchy.

Every documented failure mode raises a typed error so callers can
distinguish usage mistakes, data problems, and numeric/capacity limits
without parsing messages.  Each type carries its CLI exit status in
``exit_code``: 1 for usage errors, 2 for data errors, and 3 for numeric or
capacity errors, which a new type inherits from :class:`BoxprobeError`.
"""


class BoxprobeError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


class InvalidArgumentError(BoxprobeError, ValueError):
    """A parameter is outside its documented bounds (m > n, h <= 0, ...)."""

    exit_code = 1


class UnsupportedKindError(BoxprobeError, TypeError):
    """Operation requires a different feature kind (e.g. shift on categorical)."""

    exit_code = 1


class InvalidLevelError(BoxprobeError, ValueError):
    """A categorical value is not among the registered levels."""

    exit_code = 1


class ShapeError(BoxprobeError, ValueError):
    """Matrix dimensions do not match the predictor's expected feature count."""

    exit_code = 2


class MissingTargetError(BoxprobeError):
    """Operation needs a target vector but the dataset has none."""

    exit_code = 2


class CapacityError(BoxprobeError):
    """Exact coalition enumeration would exceed the feature cap."""


class DegenerateBinningError(BoxprobeError):
    """Interval construction collapsed (no usable bins for the feature)."""


class SingularFitError(BoxprobeError):
    """Least-squares design is rank deficient; no unique fit exists."""


class NumericRangeError(BoxprobeError):
    """A computation on valid inputs leaves the float64 range (a knn distance)."""


class UndefinedVarianceError(BoxprobeError):
    """Sample standard deviation is undefined (fewer than two values)."""


class DataFormatError(BoxprobeError, ValueError):
    """Input file (CSV or model file) violates the expected format."""

    exit_code = 2
