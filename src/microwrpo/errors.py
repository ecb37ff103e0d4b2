"""Exception types shared across the package, and the one input policy behind them:
how a file is opened, decoded and parsed, and what each JSON value must be.

The CLI maps these onto exit codes: ConfigError -> 2, InputError and
DataError -> 3, NumericError -> 4.
"""

import json
import math
from contextlib import contextmanager

__all__ = [
    "InputError", "UsageError", "ConfigError", "DataError", "NumericError",
    "is_number", "JSON_TYPES", "require_json", "reading", "read_json",
]


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


def _is_int(value) -> bool:
    return is_number(value, integer=True)


# A JSON value's kind, written as its Python annotation -> (its test, what the value must be).
JSON_TYPES = {
    "int": (_is_int, "an int"),
    "float": (is_number, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
    "int | None": (lambda v: v is None or _is_int(v), "an int or null"),
    "float | None": (lambda v: v is None or is_number(v), "a finite number or null"),
    "list[int]": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of ints"),
    "list[float]": (
        lambda v: isinstance(v, list) and all(map(is_number, v)), "a list of finite numbers"
    ),
    "dict[str, float]": (
        lambda v: isinstance(v, dict) and all(map(is_number, v.values())),
        "an object of finite numbers",
    ),
}


def require_json(value, kind: str, name: str, error: type[Exception]) -> None:
    """``error("<name> must be <phrase>")`` unless ``value`` passes the test of ``kind``."""
    test, phrase = JSON_TYPES[kind]
    if not test(value):
        raise error(f"{name} must be {phrase}")


@contextmanager
def reading(path, error: type[Exception]):
    """A block that reads ``path``: a path the OS refuses (missing, a directory, a
    name too long) or bytes that do not decode as text raise ``error``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(f"{path}: undecodable bytes ({exc})") from exc
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror})") from exc


def read_json(path, error: type[Exception]):
    """The JSON value in ``path``, read as ``reading`` does; text that is not JSON
    (an int literal too long to convert included) raises ``error`` too."""
    with reading(path, error), open(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except ValueError as exc:
        raise error(f"{path}: invalid JSON ({exc})") from exc
