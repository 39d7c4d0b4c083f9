"""Exception hierarchy shared across the package.

The command-line tool maps these onto process exit codes: parameter and
configuration problems exit 2, data problems exit 3, capacity guards exit 4.
"""

__all__ = ["InterdagError", "ParameterError", "DataError", "DegenerateFitError", "CapacityError"]


class InterdagError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(InterdagError):
    """Invalid argument, configuration value, or violated precondition."""


class DataError(InterdagError):
    """Malformed or statistically unusable input data."""


class DegenerateFitError(DataError):
    """A vertex has too few usable rows, or a singular moment block, to fit."""


class CapacityError(InterdagError):
    """Input exceeds a hard guard on problem size."""
