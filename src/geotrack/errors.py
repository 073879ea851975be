"""Exception hierarchy shared by all geotrack modules."""


class GeotrackError(Exception):
    """Base class for every error raised by this package."""


class ZeroVectorError(GeotrackError):
    """A direction vector with (near-)zero norm cannot be normalized."""


class NonPositiveDepthError(GeotrackError):
    """Depth along the optical axis must be strictly positive."""


class ShapeMismatchError(GeotrackError):
    """Array shapes do not chain or agree."""


class ParseError(GeotrackError):
    """A file could not be parsed at all (bad JSON / CSV)."""


class SchemaError(GeotrackError):
    """Parsed data does not follow the documented schema."""


class InvariantViolationError(GeotrackError):
    """Structurally valid data breaks a model invariant."""


class CapacityExceededError(GeotrackError):
    """More objects than the fixed per-frame capacity allows."""


class SceneTooShortError(GeotrackError):
    """Operation needs more frames than the scene has."""


class FormatError(GeotrackError):
    """A tracking CSV line is malformed (carries the line number)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FrameMismatchError(GeotrackError):
    """A pose was supplied in the wrong coordinate frame."""


class DegenerateMatchError(GeotrackError):
    """A ground-truth match matrix leaves a real object unassigned."""


class NonFiniteLossError(GeotrackError):
    """Training produced NaN/Inf; aborted with diagnostics."""


class OutOfOrderFrameError(GeotrackError):
    """Frames must be presented in strictly increasing index order."""


class EmptyTrackError(GeotrackError):
    """A track without observations cannot be aggregated."""


class ConfigError(GeotrackError):
    """Invalid configuration value; the message names the field."""


class InfeasibleAssignmentError(GeotrackError):
    """No complete assignment exists that avoids forbidden entries."""
