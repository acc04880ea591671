"""Ultraspherical polynomials standardized to P_n(1) = 1 for any real dimension 2 <= D <= 64.

The polynomials P_n solve the Gegenbauer differential equation

    (1 - x^2) P_n'' - (D - 1) x P_n' + n (n + D - 2) P_n = 0

on [-1, 1] and are orthogonal there under the weight w(x) = (1 - x^2)^((D-3)/2).
They specialize to Chebyshev polynomials T_n for D = 2 and Legendre polynomials
for D = 3.  Everything in this module is a pure function of its arguments; the
alpha -> 0 degeneracies of the D = 2 case are handled through explicit limits
rather than branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = [
    "MAX_DIMENSION",
    "Dimension",
    "surface_area",
    "eval_sequence",
    "power_series_coeffs",
    "beta_coeff",
    "norm_squared",
    "norms_squared",
    "norm_squared_gamma",
    "derivative",
    "value_at_zero",
    "cd_kernel",
]

# math.gamma in the sphere surfaces overflows from D ~ 343; at D = 64 the
# quadrature oracle still matches the closed-form metrics to about 1e-8.
MAX_DIMENSION = 64.0

# |x| may overshoot 1 by at most this much before it is an error.
_X_CLAMP = 1e-12

# Crossover to the endpoint formula in `derivative`.
_EDGE = 1e-8


def _sphere_surface(d: float) -> float:
    """Surface of the unit sphere S^(d-1) embedded in d dimensions, d >= 1."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class Dimension:
    """Space dimension 2 <= D <= MAX_DIMENSION (64) with alpha = (D-2)/2.

    alpha is always computed from d, never stored, so the two cannot drift
    apart.  Non-integer dimensions are allowed; they interpolate between the
    Chebyshev (D=2) and Legendre (D=3) families.  Other D raise DomainError.
    """

    d: float

    def __post_init__(self) -> None:
        d = float(self.d)
        if not 2.0 <= d <= MAX_DIMENSION:
            raise DomainError(f"dimension must lie in [2, {MAX_DIMENSION:g}], got {self.d!r}")
        object.__setattr__(self, "d", d)

    @property
    def alpha(self) -> float:
        return (self.d - 2.0) / 2.0

    @property
    def surface(self) -> float:
        """S_{D-1}, surface of the unit sphere in D dimensions."""
        return _sphere_surface(self.d)

    @property
    def subsurface(self) -> float:
        """S_{D-2}, surface of the unit sphere in D-1 dimensions."""
        return _sphere_surface(self.d - 1.0)

    @property
    def n0_squared(self) -> float:
        """Norm of the constant polynomial, N_0^2 = S_{D-1}/S_{D-2}."""
        return self.surface / self.subsurface


def surface_area(dim: Dimension) -> float:
    """Surface S_{D-1} = 2 pi^(D/2) / Gamma(D/2) of the unit sphere in D dimensions."""
    return dim.surface


def _clamp_argument(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    # written as a negated <= so that NaN fails the test as well
    if not np.all(np.abs(x) <= 1.0 + _X_CLAMP):
        bad = np.max(np.abs(x))
        raise DomainError(f"x must be finite with |x| <= 1 (got max |x| = {bad!r})")
    return np.clip(x, -1.0, 1.0)


def eval_sequence(x, max_degree: int, dim: Dimension) -> np.ndarray:
    """Evaluate P_0(x) .. P_N(x) by the three-term recurrence.

    Uses P_0 = 1, P_1 = x and

        P_{n+1}(x) = (2n + D - 2)/(n + D - 2) x P_n(x) - n/(n + D - 2) P_{n-1}(x),

    which keeps the standardization P_n(1) = 1 for every degree.

    Parameters
    ----------
    x : float or array_like
        Evaluation point(s) in [-1, 1] (an overshoot below 1e-12 is clamped);
        NaN or an infinite value raises DomainError.
    max_degree : int
        Highest degree N >= 0.
    dim : Dimension

    Returns
    -------
    numpy.ndarray
        Shape (N+1,) for scalar x, or (N+1,) + x.shape for arrays; entry n
        holds P_n(x).
    """
    if max_degree < 0:
        raise DomainError("max_degree must be >= 0")
    x = _clamp_argument(x)
    d = dim.d
    out = np.empty((max_degree + 1,) + x.shape, dtype=float)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = x
    for n in range(1, max_degree):
        out[n + 1] = ((2.0 * n + d - 2.0) * x * out[n] - n * out[n - 1]) / (n + d - 2.0)
    return out


def power_series_coeffs(n: int, dim: Dimension) -> np.ndarray:
    """Power-series coefficients c_0 .. c_n of P_n, so P_n(x) = sum c_k x^k.

    The coefficients follow the termination recurrence

        c_{k+2} = -(n - k)(n + k + 2 alpha) / ((k + 1)(k + 2)) c_k

    seeded at the parity of n; coefficients of the opposite parity are exactly
    zero.  Standardization divides by the value at x = 1, so sum(c) == 1 and
    the result is bit-consistent with `eval_sequence` at x = 1.
    """
    if n < 0:
        raise DomainError("degree must be >= 0")
    two_alpha = dim.d - 2.0
    c = np.zeros(n + 1, dtype=float)
    c[n % 2] = 1.0
    for k in range(n % 2, n - 1, 2):
        c[k + 2] = -((n - k) * (n + k + two_alpha)) / ((k + 1.0) * (k + 2.0)) * c[k]
    return c / c.sum()


def beta_coeff(n: int, dim: Dimension) -> float:
    """Recurrence coefficient beta_n in x P_{n-1} = beta_n P_n + (1 - beta_n) P_{n-2}.

    beta_n = (n - 1 + 2 alpha) / (2 (n - 1 + alpha)) for n >= 2; beta_1 = 1 is
    the alpha -> 0 limit of the 0/0 expression and holds for every D.
    """
    if n < 1:
        raise DomainError("beta_coeff requires n >= 1")
    return float(_betas(n - 1, dim)[n - 1])


@lru_cache(maxsize=128)
def _betas(max_degree: int, dim: Dimension) -> np.ndarray:
    """beta_1 .. beta_{N+1} (see `beta_coeff`) as one read-only array."""
    n = np.arange(2.0, max_degree + 2.0)
    a = dim.alpha
    out = np.concatenate(([1.0], (n - 1.0 + 2.0 * a) / (2.0 * (n - 1.0 + a))))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=128)
def _norms_squared(max_degree: int, dim: Dimension) -> np.ndarray:
    beta = _betas(max_degree, dim)
    out = np.empty(max_degree + 1, dtype=float)
    out[0] = dim.n0_squared
    for n in range(1, max_degree + 1):
        out[n] = out[n - 1] * (1.0 - beta[n]) / beta[n - 1]
    out.setflags(write=False)
    return out


def norms_squared(max_degree: int, dim: Dimension) -> np.ndarray:
    """Squared norms N_0^2 .. N_N^2 of the polynomials under the axisymmetric weight.

    Computed by the product recurrence N_n^2 = (1 - beta_{n+1}) / beta_n * N_{n-1}^2
    seeded with N_0^2 = S_{D-1}/S_{D-2}.  The recurrence is the ground truth;
    `norm_squared_gamma` provides the closed form for cross-checking.  The
    result is cached per (N, D) and read-only.
    """
    if max_degree < 0:
        raise DomainError("max_degree must be >= 0")
    return _norms_squared(max_degree, dim)


def norm_squared(n: int, dim: Dimension) -> float:
    """Squared norm N_n^2 = integral of P_n^2 w over [-1, 1], including S_{D-1}/S_{D-2}."""
    return float(norms_squared(n, dim)[n])


def norm_squared_gamma(n: int, dim: Dimension) -> float:
    """Closed form for N_n^2 via log-Gamma, n! Gamma(D-1) / ((2n+D-2) Gamma(n+D-2)) * N_0^2.

    The Gamma(D-1) numerator reconciles the closed form with the recurrence
    for every real D (the two already agree for D = 2, 3 without it).
    """
    if n < 0:
        raise DomainError("degree must be >= 0")
    if n == 0:
        return dim.n0_squared
    d = dim.d
    log_ratio = (
        math.lgamma(n + 1.0)
        + math.lgamma(d - 1.0)
        - math.log(2.0 * n + d - 2.0)
        - math.lgamma(n + d - 2.0)
    )
    return math.exp(log_ratio) * dim.n0_squared


def derivative(x, n: int, dim: Dimension):
    """First derivative P_n'(x).

    For |x| < 1 - 1e-8 uses the recurrence

        2 (n + alpha) (1 - x^2) P_n'(x) = n (n + 2 alpha) [P_{n-1}(x) - P_{n+1}(x)]

    and otherwise the endpoint value P_n'(1) = n (n + D - 2)/(D - 1) with the
    parity sign (-1)^(n+1) at x = -1.
    """
    x = _clamp_argument(x)
    scalar = x.ndim == 0
    if n == 0:
        res = np.zeros_like(x)
        return float(res) if scalar else res
    a = dim.alpha
    edge_val = n * (n + 2.0 * a) / (dim.d - 1.0)
    xs = np.atleast_1d(x)
    out = np.empty_like(xs)
    interior = np.abs(xs) < 1.0 - _EDGE
    if np.any(interior):
        xi = xs[interior]
        seq = eval_sequence(xi, n + 1, dim)
        out[interior] = (
            n * (n + 2.0 * a) * (seq[n - 1] - seq[n + 1])
            / (2.0 * (n + a) * (1.0 - xi * xi))
        )
    edge = ~interior
    if np.any(edge):
        sign = np.where(xs[edge] > 0.0, 1.0, (-1.0) ** (n + 1))
        out[edge] = sign * edge_val
    return float(out[0]) if scalar else out.reshape(x.shape)


def value_at_zero(n: int, dim: Dimension) -> float:
    """P_n(0); zero for odd n, alternating-sign Gamma ratio for even n.

    For n = 2m the value is (-1)^m (2m)! (alpha)^(rising m) / (m! (2 alpha)^(rising 2m)).
    The 2 alpha rising factorial is rewritten with the duplication formula
    Gamma(2a)/Gamma(a) = 2^(2a-1) Gamma(a + 1/2)/sqrt(pi), which is finite and
    continuous down to alpha = 0, so no D = 2 branch is needed.
    """
    if n < 0:
        raise DomainError("degree must be >= 0")
    if n % 2 == 1:
        return 0.0
    if n == 0:
        return 1.0
    m = n // 2
    a = dim.alpha
    log_mag = (
        math.lgamma(2.0 * m + 1.0)
        - math.lgamma(m + 1.0)
        + math.lgamma(a + m)
        - math.lgamma(2.0 * a + 2.0 * m)
        + (2.0 * a - 1.0) * math.log(2.0)
        + math.lgamma(a + 0.5)
        - 0.5 * math.log(math.pi)
    )
    return (-1.0) ** m * math.exp(log_mag)


def cd_kernel(x, x0: float, max_degree: int, dim: Dimension):
    """Christoffel-Darboux kernel K_N(x, x0) = sum_{n<=N} P_n(x) P_n(x0) / N_n^2.

    Evaluated through the closed-form quotient

        beta_{N+1} [P_{N+1}(x) P_N(x0) - P_N(x) P_{N+1}(x0)] / ((x - x0) N_N^2)

    when |x - x0| > 1e-6 and by the direct sum otherwise; the singularity at
    x = x0 is removable and both branches agree near the crossover.
    """
    x = _clamp_argument(x)
    scalar = x.ndim == 0
    xs = np.atleast_1d(x)
    x0 = float(_clamp_argument(x0))
    N = max_degree
    seq_x = eval_sequence(xs, N + 1, dim)
    seq_0 = eval_sequence(x0, N + 1, dim)
    n2 = norms_squared(N, dim)
    near = np.abs(xs - x0) <= 1e-6
    direct = np.tensordot(1.0 / n2, seq_x[: N + 1] * seq_0[: N + 1, None], axes=(0, 0))
    denom = np.where(near, 1.0, xs - x0)
    closed = (
        _betas(N, dim)[N]
        * (seq_x[N + 1] * seq_0[N] - seq_x[N] * seq_0[N + 1])
        / (denom * n2[N])
    )
    out = np.where(near, direct, closed)
    return float(out[0]) if scalar else out.reshape(x.shape)
