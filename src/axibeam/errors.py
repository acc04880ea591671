"""Exception and warning types shared across the package, and the input-file line reader."""


class AxibeamError(Exception):
    """Base class for all axibeam errors."""


class DomainError(AxibeamError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InvalidFlatness(AxibeamError, ValueError):
    """Max-flat design with a flatness split outside 0 <= L <= N-1."""


class ZeroPressure(AxibeamError, ValueError):
    """The velocity-vector length r_V is undefined because a_0 = 0."""


class ParseError(AxibeamError, ValueError):
    """A node or weights file could not be parsed."""


class NormError(AxibeamError, ValueError):
    """A direction read from a file is too far from unit length."""


class RangeWarning(UserWarning):
    """An empirical fit is being evaluated outside its fitted range."""


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
