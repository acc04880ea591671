"""Exception and warning types shared across the package."""


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
