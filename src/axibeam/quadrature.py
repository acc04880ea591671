"""Numerical integration oracle for the axisymmetric measure w(x) = (1-x^2)^((D-3)/2).

For integer D the substitution x = cos(phi) turns int f(x) w(x) dx into
int f(cos phi) sin(phi)^(D-2) dphi, a smooth integrand that one Gauss-Legendre
rule integrates spectrally for every bound pair, including the D = 2 endpoint
singularity of w itself.  For non-integer D the substituted integrand keeps
algebraic endpoint singularities in its derivatives and Gauss-Legendre decays
only polynomially, so those dimensions use Gauss-Jacobi rules on x instead,
which absorb the fractional weight exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as sps

from .errors import DomainError
from .ultraspherical import Dimension, eval_sequence, norms_squared

__all__ = ["integrate_axisym", "transform_coeffs", "GramMatrix", "gram_front", "gram_closed_form"]


@lru_cache(maxsize=128)
def _legendre_rule(count: int):
    return np.polynomial.legendre.leggauss(count)


@lru_cache(maxsize=128)
def _jacobi_rule(count: int, a: float, b: float):
    return sps.roots_jacobi(count, a, b)


def _node_count(degree_hint: int, dim: Dimension) -> int:
    return max(64, degree_hint + math.ceil(dim.d) + 16)


def _rule(dim: Dimension, count: int, lower: float, upper: float):
    """Nodes x_i and weights q_i with sum q_i f(x_i) ~= int_lower^upper f w dx."""
    d = dim.d
    if d == math.floor(d):
        phi_lo = math.acos(upper)
        phi_hi = math.acos(lower)
        t, w = _legendre_rule(count)
        half = 0.5 * (phi_hi - phi_lo)
        phi = phi_lo + half * (t + 1.0)
        return np.cos(phi), half * w * np.sin(phi) ** (d - 2.0)
    a = dim.alpha - 0.5
    if lower == -1.0 and upper == 1.0:
        return _jacobi_rule(count, a, a)
    if upper == 1.0:
        # map [-1,1] -> [lower,1]; (1-x)^a becomes the Jacobi factor (1-u)^a
        u, w = _jacobi_rule(count, a, 0.0)
        scale = 0.5 * (1.0 - lower)
        x = lower + scale * (u + 1.0)
        return x, w * scale ** (a + 1.0) * (1.0 + x) ** a
    if lower == -1.0:
        u, w = _jacobi_rule(count, 0.0, a)
        scale = 0.5 * (upper + 1.0)
        x = -1.0 + scale * (u + 1.0)
        return x, w * scale ** (a + 1.0) * (1.0 - x) ** a
    # interior range: w is smooth there, plain Gauss-Legendre on x
    t, w = _legendre_rule(count)
    half = 0.5 * (upper - lower)
    x = lower + half * (t + 1.0)
    return x, half * w * (1.0 - x * x) ** a


def integrate_axisym(f, dim: Dimension, degree_hint: int = 0,
                     lower: float = -1.0, upper: float = 1.0) -> float:
    """Integral of f(x) (1-x^2)^((D-3)/2) dx over [lower, upper] within [-1, 1].

    Parameters
    ----------
    f : callable
        Accepts a numpy array of points in [-1, 1] and returns values of the
        same shape.  Must be finite on the open interval.
    dim : Dimension
    degree_hint : int
        Polynomial degree of f if f is polynomial; sizes the rule as
        max(64, degree_hint + ceil(D) + 16) nodes.
    lower, upper : float
        Integration bounds, -1 <= lower < upper <= 1.
    """
    if degree_hint < 0:
        raise DomainError("degree_hint must be >= 0")
    if not (-1.0 <= lower < upper <= 1.0):
        raise DomainError(f"invalid integration bounds [{lower}, {upper}]")
    x, q = _rule(dim, _node_count(degree_hint, dim), lower, upper)
    return float(np.dot(q, np.asarray(f(x), dtype=float)))


def transform_coeffs(f, max_degree: int, dim: Dimension, degree_hint: int = 0) -> np.ndarray:
    """Expansion coefficients gamma_n = (1/N_n^2) int f(x) P_n(x) w(x) dx for n <= N.

    Inverts the orthogonal expansion f = sum gamma_n P_n; `degree_hint` is the
    polynomial degree of f if known (the rule is sized for f times P_N).
    """
    if max_degree < 0:
        raise DomainError("max_degree must be >= 0")
    x, q = _rule(dim, _node_count(degree_hint + max_degree, dim), -1.0, 1.0)
    common = np.asarray(f(x), dtype=float) * q
    seq = eval_sequence(x, max_degree, dim)
    return (seq @ common) / norms_squared(max_degree, dim)


@dataclass(frozen=True)
class GramMatrix:
    """Half-interval Gram matrix g_nm = int_0^1 P_n P_m / (N_n^2 N_m^2) w dx.

    factor is the square-root factor F = diag(sqrt(q)) V^T diag(1/N_n^2) of the
    front-half quadrature rule (nodes x_i, weights q_i, V_ni = P_n(x_i)), and
    entries = F^T F with the same-parity off-diagonal entries set to exactly
    zero (those integrands are even, so the half-interval integral inherits
    full orthogonality); entries is exactly symmetric.  back_entries and
    back_factor flip the sign pattern to integrate over [-1, 0] instead.

    The smallest eigenvalue of entries is the hemisphere concentration
    eigenvalue, roughly 1/FBR of the supercardioid, and falls exponentially
    with the order: past N ~ 10 it lies below the eigensolver backward error
    eps * ||G||, so an eigensolver cannot show the double-precision entries
    definite.  Definiteness is decided through the factor instead: G is
    positive definite iff F has full column rank, and F's singular values are
    the square roots of G's eigenvalues, so its condition number is only the
    square root of G's.  Under numpy's default rank tolerance
    (sigma_max * rows * eps, 1.4e-14 relative for the 64-node rule) F stays
    full rank up to N = 18 for D in [2, 4] and loses rank from N = 19, where
    sigma_min / sigma_max is 5e-15 to 8e-15.
    """

    order: int
    dim: Dimension
    factor: np.ndarray
    entries: np.ndarray

    @property
    def back_factor(self) -> np.ndarray:
        """Square-root factor of back_entries: factor with odd-degree columns negated."""
        return self.factor * (-1.0) ** np.arange(self.order + 1)

    @property
    def back_entries(self) -> np.ndarray:
        """Gram matrix of the back half-interval, b_nm = (-1)^(n+m) g_nm."""
        sign = (-1.0) ** np.arange(self.order + 1)
        return self.entries * np.outer(sign, sign)


@lru_cache(maxsize=128)
def _gram_front(max_degree: int, dim: Dimension) -> GramMatrix:
    x, q = _rule(dim, _node_count(2 * max_degree, dim), 0.0, 1.0)
    seq = eval_sequence(x, max_degree, dim) / norms_squared(max_degree, dim)[:, None]
    factor = seq.T * np.sqrt(q)[:, None]
    g = factor.T @ factor
    g = 0.5 * (g + g.T)
    degree = np.arange(max_degree + 1)
    diff = degree[:, None] - degree[None, :]
    g[(diff != 0) & (diff % 2 == 0)] = 0.0
    factor.setflags(write=False)
    g.setflags(write=False)
    return GramMatrix(order=max_degree, dim=dim, factor=factor, entries=g)


def gram_front(max_degree: int, dim: Dimension) -> GramMatrix:
    """Numeric front-half Gram matrix of the normalized polynomials.

    The scaling 1/(N_n^2 N_m^2) matches the pattern convention
    g(x) = sum a_n / (S_{D-2} N_n^2) P_n(x), which makes a^T G a proportional
    to the front-half energy of the pattern.  The square-root factor F of the
    front-half rule is formed once and entries = F^T F is one matrix product;
    see `GramMatrix` for why definiteness past N ~ 10 is judged from F.  The
    result is cached per (N, D); its factor and entries are read-only.
    """
    if max_degree < 0:
        raise DomainError("max_degree must be >= 0")
    return _gram_front(max_degree, dim)


def gram_closed_form(max_degree: int, dim: Dimension) -> np.ndarray:
    """Closed-form cross-check of `gram_front`.

    Diagonal entries are 1/(2 N_n^2); opposite-parity entries follow from the
    boundary term of the Sturm-Liouville identity evaluated at x = 0,

        int_0^1 P_n P_m w dx = [P_n'(0) P_m(0) - P_m'(0) P_n(0)] / (lambda_n - lambda_m)

    with lambda_n = n (n + D - 2).  Same-parity off-diagonal entries vanish.
    """
    from .ultraspherical import derivative, value_at_zero

    n2 = norms_squared(max_degree, dim)
    d = dim.d
    lam = np.array([n * (n + d - 2.0) for n in range(max_degree + 1)])
    p0 = np.array([value_at_zero(n, dim) for n in range(max_degree + 1)])
    dp0 = np.array([derivative(0.0, n, dim) for n in range(max_degree + 1)])
    g = np.zeros((max_degree + 1, max_degree + 1), dtype=float)
    for n in range(max_degree + 1):
        g[n, n] = 1.0 / (2.0 * n2[n])
        for m in range(n + 1, max_degree + 1):
            if (m - n) % 2 == 0:
                continue
            raw = (dp0[n] * p0[m] - dp0[m] * p0[n]) / (lam[n] - lam[m])
            g[n, m] = g[m, n] = raw / (n2[n] * n2[m])
    return g
