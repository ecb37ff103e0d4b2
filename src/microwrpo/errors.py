"""Exception types shared across the package, and the JSON type test behind them.

The CLI maps these onto exit codes: ConfigError -> 2, InputError and
DataError -> 3, NumericError -> 4.
"""

import math


class InputError(ValueError):
    """An operation received arguments that violate its preconditions."""


class UsageError(RuntimeError):
    """An operation was invoked on an object in the wrong state (e.g. a frozen model)."""


class ConfigError(ValueError):
    """A run configuration is malformed or internally inconsistent."""


class DataError(ValueError):
    """A data artifact (dataset, telemetry, checkpoint) is missing or malformed."""


class NumericError(ArithmeticError):
    """Training produced a non-finite quantity."""


def is_number(value, integer: bool = False) -> bool:
    """JSON numbers only: bool is an int subclass in Python but not a number here,
    and where a float is wanted, neither is an int with no finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if integer:
        return isinstance(value, int)
    try:
        return math.isfinite(value)
    except OverflowError:  # an int such as 10**400
        return False
