"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: ConfigError, UsageError, ShapeError -> 2,
DataError -> 3, NumericalError -> 4. Everything else is a plain bug.
"""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration (unknown key, bad value, ...)."""


class ShapeError(ValueError):
    """Tensor shapes incompatible with the requested operation."""


class DataError(ValueError):
    """Malformed input data (bad labels, corrupt tensor file, ...)."""


class NumericalError(ArithmeticError):
    """NaN/Inf encountered, or a numerical verification failed."""


class UsageError(RuntimeError):
    """API misuse (e.g. backward through an eval-mode batch norm)."""
