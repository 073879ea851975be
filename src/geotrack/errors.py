"""Exception hierarchy shared by all geotrack modules.

One family per CLI exit code: ``ConfigError`` is bad usage or configuration
(exit 2), ``DataError`` is bad input data (exit 3), and any other
``GeotrackError`` is an internal fault (exit 4). Library callers catch the
same three. A class beyond those three exists only where code catches it by
class; the message says what went wrong.
"""


class GeotrackError(Exception):
    """Base class for every error raised by this package; the CLI exits 4 on
    one outside the two families below."""


class ConfigError(GeotrackError):
    """Invalid configuration value; the message names the field. The CLI
    exits 2 on this family."""


class DataError(GeotrackError):
    """Bad input data: unparseable, off the schema or breaking a model
    invariant. The CLI exits 3 on this family."""


class ZeroVectorError(GeotrackError):
    """A direction vector with (near-)zero norm cannot be normalized."""


class NonPositiveDepthError(GeotrackError):
    """Depth along the optical axis must be strictly positive."""


class NonFiniteLossError(GeotrackError):
    """Training produced NaN/Inf; aborted with diagnostics."""
