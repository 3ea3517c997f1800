"""Shared exception types."""


class ConfigurationError(ValueError):
    """Invalid simulation or run configuration."""


class GridCoverageError(ValueError):
    """A recursion lookup fell off the evaluation grid."""


class InconsistencyError(RuntimeError):
    """A numerical identity was violated beyond tolerance."""
