"""Exception and warning types, the integer and real argument checks, the input-file reader."""

import numbers
import operator

__all__ = ["AxibeamError", "DomainError", "InvalidFlatness", "ZeroPressure", "ParseError",
           "NormError", "RangeWarning"]


class AxibeamError(Exception):
    """Base class for all axibeam errors."""


class DomainError(AxibeamError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InvalidFlatness(AxibeamError, ValueError):
    """Max-flat design with a flatness split outside 0 <= L <= N-1."""


class ZeroPressure(AxibeamError, ValueError):
    """A weight vector with a_0 = 0 cannot be scaled to a_0 = 1.

    Raised by `WeightVector.normalized("a0")`; `compute_metrics` reports the
    undefined r_V of such a vector as None instead.
    """


class ParseError(AxibeamError, ValueError):
    """A node or weights file could not be parsed."""


class NormError(AxibeamError, ValueError):
    """A direction read from a file is too far from unit length."""


class RangeWarning(UserWarning):
    """An empirical fit is being evaluated outside its fitted range."""


def _integer(value, name: str, low: int, high: int | None = None) -> int:
    """value as an int when it is integral and low <= value <= high (high None: no cap).

    Ints, numpy integers and integral floats (2.0) count; any other value, NaN,
    a string or None included, raises DomainError.  The package's one such check.
    """
    try:
        number = operator.index(value)
    except TypeError:
        # NaN and +-inf are not integral either
        real = isinstance(value, numbers.Real) and float(value).is_integer()
        number = int(value) if real else None
    if number is None or number < low or (high is not None and number > high):
        bound = "" if high is None else f" and <= {high}"
        raise DomainError(f"{name} must be an integer >= {low}{bound}, got {value!r}")
    return number


def _real(value, name: str) -> float:
    """float(value); a value that float() cannot read (None, "abc", [0.5], 1j) raises DomainError.

    The package's one check of a scalar real parameter (an x, which may be an
    array, is read by `ultraspherical._clamp_argument`); each caller checks
    the range on the float it returns.
    """
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real number, got {value!r}") from exc


def _file_lines(path):
    """Yield (line number, text) for each non-blank line of a UTF-8 file, `#` comments cut."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if body:
            yield lineno, body
