"""Numerical integration oracle for the axisymmetric measure w(x) = (1-x^2)^((D-3)/2).

The substitution x = cos(phi) turns int f(x) w(x) dx into
int f(cos phi) sin(phi)^(D-2) dphi, smooth for integer D on every bound pair
(including the D = 2 endpoint singularity of w itself) and for any D inside
(-1, 1), where one Gauss-Legendre rule in phi integrates it spectrally; from
D = 6 on its endpoint behaviour phi^(D-2) is smooth enough for every bound
pair too.  A bound at +-1 with non-integer 2 < D < 6 leaves algebraic
singularities in low derivatives that slow Gauss-Legendre to polynomial
decay, so those ranges use Gauss-Jacobi rules on x instead, which absorb the
fractional weight exactly.  The Gauss-Jacobi rules are built here in numpy,
by Newton's method on the three-term recurrence; numpy is the only
dependency.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, _integer
from .ultraspherical import MAX_ORDER, Dimension, eval_sequence, norms_squared

__all__ = ["integrate_axisym", "transform_coeffs"]


def _read_only(*arrays) -> tuple:
    # cached rules reach user callbacks unchanged, so they must not be writable
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=128)
def _legendre_rule(count: int):
    return _read_only(*np.polynomial.legendre.leggauss(count))


def _jacobi_roots(n: int, a: np.ndarray, b: np.ndarray, x: np.ndarray):
    """Roots of the Jacobi polynomials P_n^(a,b) in [0, 1) by Newton from the starts x.

    a and b are columns of shape (rows, 1) and x holds one row of starts per
    (a, b) pair, so that a single pass over the degrees serves every row.
    Returns the roots, descending like x, and weights proportional to
    1/((1 - x^2) P_n'(x)^2) at the roots.  P_n runs as r_k = P_k(x)/P_k(1)
    in Reinsch's difference form,

        d_{k+1} = f_k d_k - g_k (1 - x) r_k,    r_{k+1} = r_k + d_{k+1},

    with f_k = C_k h_{k-1}/h_{k+1} and g_k = A_k h_k/h_{k+1} from
    P_{k+1} = (A_k x + B_k) P_k - C_k P_{k-1} and h_k = P_k(1) (the
    coefficients are precomputed, Python floats for a single row; a degree
    is five in-place ufuncs).  Near x = 1, where the plain recurrence loses
    about eps/(1 - x^2) relative, 1 - x is exact for x >= 1/2 and no digits
    cancel, so the Newton step P_n/P_n' is accurate even at the root.  P_n'
    comes from
    (2n+a+b)(1-x^2) P_n' = n((a-b) - (2n+a+b)x) P_n + 2(n+a)(n+b) P_{n-1}.
    After three Newton steps one more pass evaluates P_n' at the converged
    nodes.  Its Newton step, now at rounding level, still moves each node and
    its weight to the root to first order (1/((1-x^2) P_n'^2) has
    logarithmic slope -2(a - b + (a+b+1)x)/(1 - x^2) at a root): evaluated
    at the rounded node instead, a weight at the end of a 1048-node rule is
    off by up to about 1e-10 relative.
    """
    s = a + b
    k = np.arange(1.0, n + 1.0)
    h = np.cumprod(np.concatenate((np.ones_like(a), (k + a) / k), axis=1), axis=1)
    k = k[:-1]
    c = 2.0 * k + s
    den = 2.0 * (k + 1.0) * (k + s + 1.0) * c
    f = 2.0 * (k + a) * (k + b) * (c + 2.0) / den * h[:, :-2] / h[:, 2:]
    g = (c + 1.0) * (c + 2.0) * c / den * h[:, 1:-1] / h[:, 2:]
    f = np.concatenate((np.zeros_like(a), f), axis=1)
    g = np.concatenate((0.5 * (s + 2.0) / (1.0 + a), g), axis=1)
    # one entry per degree, zipped in the loop rather than paired in a list:
    # zip reuses its tuple, so a pass allocates no object per degree
    f, g = (v[0].tolist() if len(v) == 1 else list(v.T[:, :, None]) for v in (f, g))
    h_n = h[:, n:]
    degree = 2.0 * n + s
    head = n * h_n
    tail = 2.0 * (n + a) * (n + b) * h[:, n - 1:n]
    head_0, head_1 = head * (a - b), head * degree

    def newton_step(x):
        u = 1.0 - x
        r = np.ones_like(x)
        d = np.zeros_like(x)
        tmp = np.empty_like(x)
        for fk, gk in zip(f, g):
            np.multiply(r, u, out=tmp)
            tmp *= gk
            d *= fk
            d -= tmp
            r += d
        # q = (2n+a+b)(1-x^2) P_n', with P_n = h_n r_n and P_{n-1} = h_{n-1}(r_n - d_n)
        q = (head_0 - head_1 * x) * r + tail * (r - d)
        one_minus = u * (2.0 - u)
        return degree * one_minus * (h_n * r) / q, one_minus, q

    for _ in range(3):
        x = x - newton_step(x)[0]
    step, one_minus, q = newton_step(x)
    w = one_minus / (q * q) * (1.0 + 2.0 * (a - b + (s + 1.0) * x) / one_minus * step)
    return x - step, w


@lru_cache(maxsize=128)
def _jacobi_rule(count: int, a: float, b: float):
    """Gauss-Jacobi nodes (ascending) and weights for (1-x)^a (1+x)^b on [-1, 1].

    Newton's method from the interior start of Hale & Townsend (SISC 35(2),
    2013): phi_k = pi (4k - 1 + 2a) / (4n + 2a + 2b + 2) plus the
    Gatteschi-Pittaluga term ((1/4 - a^2) cot(phi_k/2) - (1/4 - b^2)
    tan(phi_k/2)) / (4 rho^2), rho = n + (a + b + 1)/2, gives x_k =
    cos(theta_k).  For -1/2 < a, b < 3/2 (2 < D < 6) the third Newton step
    is below 1e-10, so three steps reach rounding level (`_jacobi_roots`).
    The nodes in [0, 1) are solved as roots of P_n^(a,b), the others as
    negated roots of P_n^(b,a), so that every node is solved where 1 - x
    keeps full relative precision; both halves run as two rows of one
    recurrence pass, and when a = b the positive half is solved once and
    mirrored.  The weights are scaled to the exact mass
    2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2).
    """
    n = count
    rho = n + 0.5 * (a + b + 1.0)
    phi = (np.arange(1.0, n + 1.0) + 0.5 * a - 0.25) * (math.pi / rho)
    half_tan = np.tan(0.5 * phi)
    x = np.cos(phi + ((0.25 - a * a) / half_tan - (0.25 - b * b) * half_tan) / (4.0 * rho * rho))
    if a == b:
        (upper,), (w_upper,) = _jacobi_roots(n, np.array([[a]]), np.array([[a]]),
                                             x[None, :(n + 1) // 2])
        if n % 2:
            upper[-1] = 0.0  # P_n is odd
        lower, w_lower = upper[:n // 2], w_upper[:n // 2]
    else:
        # rows of equal length: each row's surplus starts lie past x = 0 and
        # converge to nodes the other row solves, and are dropped
        m = int(np.count_nonzero(x >= 0.0))
        width = max(m, n - m)
        roots, weights = _jacobi_roots(n, np.array([[a], [b]]), np.array([[b], [a]]),
                                       np.stack((x[:width], -x[n - width:][::-1])))
        upper, lower = roots[0, :m], roots[1, :n - m]
        w_upper, w_lower = weights[0, :m], weights[1, :n - m]
    x = np.concatenate((-lower, upper[::-1]))
    w = np.concatenate((w_lower, w_upper[::-1]))
    mass = math.exp((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0)
                    + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))
    w *= mass / math.fsum(w)
    return _read_only(x, w)


# Non-integer D from here on takes the phi rule up to the endpoints.  With 64
# nodes, for e^(kx) w (k = 0, 3, 6) on [-1, 1] and on [x0, 1], it is within
# 5e-15 of mpmath for 5.9 <= D <= 10 (1.4e-13 at D = 5.5, 2e-11 at D = 4.5)
# and as close as a Gauss-Jacobi rule up to D = 64, while the third Newton
# step of `_jacobi_rule` grows from 5e-11 at D = 6 to 1e-8 at D = 7.3.
_PHI_RULE_FROM = 6.0


def _node_count(degree_hint: int, dim: Dimension) -> int:
    return max(64, degree_hint + math.ceil(dim.d) + 16)


def _rule(dim: Dimension, count: int, lower: float, upper: float):
    """Nodes x_i and weights q_i with sum q_i f(x_i) ~= int_lower^upper f w dx."""
    d = dim.d
    if d == math.floor(d) or d >= _PHI_RULE_FROM or (-1.0 < lower and upper < 1.0):
        # phi = arccos x; sin(phi)^(D-2) is smooth unless non-integer D meets
        # phi = 0 or pi, and from D = 6 its first four derivatives are continuous
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
    # lower == -1: w is even, so mirror the rule on [-upper, 1]
    x, w = _rule(dim, count, -upper, 1.0)
    return -x, w


def integrate_axisym(f, dim: Dimension, degree_hint: int = 0,
                     lower: float = -1.0, upper: float = 1.0) -> float | np.ndarray:
    """Integral of f(x) (1-x^2)^((D-3)/2) dx over [lower, upper] within [-1, 1].

    Parameters
    ----------
    f : callable
        Maps a 1-d array x of nodes in [-1, 1] to values whose last axis runs
        over x: one integrand of x's shape (the result is a float), or a stack
        of shape (..., len(x)) (the result is an array of shape (...); its rows
        share one rule, so size degree_hint for the highest degree).  Must be
        finite on the open interval: a NaN or +-inf value at a node raises
        DomainError, as does any other shape.
    dim : Dimension
    degree_hint : int
        Polynomial degree of f if f is polynomial; sizes the rule as
        max(64, degree_hint + ceil(D) + 16) nodes.
    lower, upper : float
        Integration bounds, -1 <= lower < upper <= 1.

    Each integrand row is scaled by the exact power of two 2^-k that brings
    its largest magnitude into [0.5, 1) before the rule is applied, and the
    sum is scaled back by 2^k, so the result is inf or 0 only where the true
    integral lies outside the double range.  Values in range are unchanged
    bit for bit, unless a product of an integrand value and a rule weight is
    subnormal.
    """
    out, k = _scaled_integral(f, dim, degree_hint, lower, upper)
    with np.errstate(over="ignore"):
        out = np.ldexp(out, k)
    return float(out) if out.ndim == 0 else out


def _scaled_integral(f, dim: Dimension, degree_hint: int, lower: float, upper: float):
    """(sum_i q_i f(x_i) 2^-k, k): `integrate_axisym` before its rows are scaled back.

    k holds one exponent per integrand row, frexp of the row's largest
    magnitude (0 for a row of zeros).  A row whose largest magnitude is not
    finite holds a NaN or +-inf value and raises DomainError.
    """
    degree_hint = _integer(degree_hint, "degree_hint", 0)
    if not (-1.0 <= lower < upper <= 1.0):
        raise DomainError(f"invalid integration bounds [{lower}, {upper}]")
    x, q = _rule(dim, _node_count(degree_hint, dim), lower, upper)
    values = np.asarray(f(x), dtype=float)
    if values.shape[-1:] != x.shape:
        raise DomainError(
            f"f(x) must have shape (..., len(x)) = (..., {x.size}), got {values.shape}"
        )
    peak = np.abs(values).max(axis=-1)
    if not np.isfinite(peak).all():
        raise DomainError("f(x) must be finite at every node of the rule")
    k = np.frexp(peak)[1]
    return np.ldexp(values, -k[..., None]) @ q, k


def transform_coeffs(f, max_degree: int, dim: Dimension, degree_hint: int = 0) -> np.ndarray:
    """Expansion coefficients gamma_n = (1/N_n^2) int f(x) P_n(x) w(x) dx for n <= N.

    Inverts the orthogonal expansion f = sum gamma_n P_n; `degree_hint` is the
    polynomial degree of f if known (the rule is sized for f times P_N).  As
    in `integrate_axisym`, each integral is formed on its row scaled by a
    power of two and divided by N_n^2 before it is scaled back, so gamma_n
    is inf or 0 only where it lies outside the double range.  An f that is
    NaN or +-inf at a node raises DomainError, and so do an N past
    MAX_ORDER and a degree_hint below -N, before anything is integrated.
    """
    max_degree = _integer(max_degree, "max_degree", 0, MAX_ORDER)
    degree_hint = _integer(degree_hint, "degree_hint", -max_degree)

    def integrand(x):
        # an infinite f(x) times P_n(x) = 0 is NaN: no warning, the NaN raises DomainError
        with np.errstate(invalid="ignore"):
            return eval_sequence(x, max_degree, dim) * f(x)

    out, k = _scaled_integral(integrand, dim, degree_hint + max_degree, -1.0, 1.0)
    with np.errstate(over="ignore"):
        return np.ldexp(out / norms_squared(max_degree, dim), k)
