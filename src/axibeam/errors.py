"""Exception and warning types, the record base, the integer check, the input-file reader.

Imports no numpy: the package loads this module eagerly, and `python -m
axibeam` reaches its entry point before numpy loads.  So real arguments are
read in `ultraspherical` (`_real`, `_reals`), which imports numpy.
"""

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


class _Record:
    """Base of the package's immutable records (`Dimension`, `WeightVector`, ...).

    A record names its fields in `_fields`, in order, and its own `__init__`
    writes them into the instance `__dict__`.  This base gives the repr
    `Name(field=value, ...)`; equality between two records of one class,
    field by field, with the fields in `_arrays` (numpy arrays) compared by
    value; and a hash of the field values.  A record that holds an array,
    itself or through another record, sets `__hash__ = None`.  Assigning or
    deleting an attribute raises AttributeError.
    """

    _fields: tuple = ()
    _arrays: frozenset = frozenset()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        for name in self._fields:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine is theirs:
                continue
            if name in self._arrays:
                import numpy  # loaded already: it built the array

                if not numpy.array_equal(mine, theirs):
                    return False
            elif not mine == theirs:
                return False
        return True

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, name) for name in self._fields]))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
