"""Exception types shared across the package."""


class OctAlignError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(OctAlignError):
    """A value violates a documented invariant."""


class DimensionError(OctAlignError):
    """Array shapes or vector lengths do not match."""


class SurfaceOrderError(OctAlignError):
    """Surfaces are not in anatomical (top to bottom) order."""


class LabelMonotoneError(OctAlignError):
    """A label column is not non-decreasing along the row axis."""


class FormatError(OctAlignError):
    """A file does not conform to the documented on-disk format."""


class ConfigError(OctAlignError):
    """Invalid configuration or command-line usage."""
