"""Numerical integration oracle for the axisymmetric measure w(x) = (1-x^2)^((D-3)/2).

The substitution x = cos(phi) turns int f(x) w(x) dx into
int f(cos phi) sin(phi)^(D-2) dphi, smooth for integer D on every bound pair
(including the D = 2 endpoint singularity of w itself) and for any D inside
(-1, 1), where one Gauss-Legendre rule in phi integrates it spectrally; from
D = 6 on its endpoint behaviour phi^(D-2) is smooth enough for every bound
pair too.  A bound at +-1 with non-integer 2 < D < 6 leaves algebraic
singularities in low derivatives that slow Gauss-Legendre to polynomial
decay, so those ranges use Gauss-Jacobi rules on x instead, which absorb the
fractional weight exactly.  The Gauss-Jacobi rules are built here in numpy:
one pass of the three-term recurrence evaluates P_n and P_n' at
asymptotic starts, and a Taylor series of the Jacobi differential equation
about each start carries it to the root and its weight.  The symmetric
rule for (1-x^2)^a, the one every full range takes, is built from a rule
of half as many nodes in t = 2x^2 - 1, so its pass runs over half as many
degrees.  numpy is the only dependency.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import _LAZY
from .errors import DomainError, _integer
from .ultraspherical import (MAX_ORDER, Dimension, _cached_basis, _dimension, _real, _reals,
                             _sequence, _unscale)

__all__ = list(_LAZY["quadrature"])


def _read_only(*arrays) -> tuple:
    # cached rules reach user callbacks unchanged, so they must not be writable
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=128)
def _legendre_rule(count: int):
    return _read_only(*np.polynomial.legendre.leggauss(count))


# Taylor terms of P_n about each start, and Newton steps on their sum
# (`_jacobi_roots` says why these suffice)
_TAYLOR_TERMS = 8
_SERIES_STEPS = 3
# degrees of recurrence coefficients spread to the state's shape at a time
# (`_jacobi_roots` says why this length)
_BLOCK = 64


def _series(coefficients: list, t: np.ndarray) -> np.ndarray:
    """sum_k coefficients[k] t^k by Horner's rule."""
    acc = coefficients[-1] * t
    for c in coefficients[-2:0:-1]:
        acc += c
        acc *= t
    return acc + coefficients[0]


def _jacobi_roots(n: int, a: np.ndarray, b: np.ndarray, x: np.ndarray):
    """Roots of the Jacobi polynomials P_n^(a,b) next to the starts x, from one recurrence pass.

    a and b are columns of shape (rows, 1) and x holds one row of starts per
    (a, b) pair, so that a single pass over the degrees serves every row.
    Returns the roots, descending like x, their distances u = 1 - x to
    x = 1, solved to full relative precision, and weights proportional to
    1/((1 - x^2) P_n'(x)^2) at the roots.

    The pass evaluates P_n and P_n' at the starts only.  P_n runs as
    r_k = P_k(x)/P_k(1) in Reinsch's difference form,

        d_{k+1} = f_k d_k - g_k (1 - x) r_k,    r_{k+1} = r_k + d_{k+1},

    with f_k = C_k h_{k-1}/h_{k+1} and g_k = A_k h_k/h_{k+1} from
    P_{k+1} = (A_k x + B_k) P_k - C_k P_{k-1} and h_k = P_k(1) (the
    coefficients are precomputed for every row and degree; a degree is five
    in-place ufuncs).  Near x = 1, where the plain recurrence loses
    about eps/(1 - x^2) relative, u = 1 - x is exact for x >= 1/2 and no
    digits cancel; x is reset to 1 - u, also exact, so that the series below
    is taken about the very point the pass evaluated.  P_n' comes from
    (2n+a+b)(1-x^2) P_n' = n((a-b) - (2n+a+b)x) P_n + 2(n+a)(n+b) P_{n-1}.

    The rest follows from the Jacobi equation
    (1-x^2) y'' = (a - b + (a+b+2)x) y' - n(n+a+b+1) y, as in Glaser, Liu
    & Rokhlin (SISC 29(4), 2007).  Its Taylor coefficients c_k of
    P_n(x + t) about a start obey the two-term recursion

        (1-x^2)(k+1)(k+2) c_{k+2}
            = (a - b + (a+b+2)x + 2kx)(k+1) c_{k+1} + (k-n)(k+n+a+b+1) c_k

    from c_0 = P_n and c_1 = P_n'.  `_TAYLOR_TERMS` = 8 of them are summed,
    and `_SERIES_STEPS` = 3 Newton steps from t = 0 on that sum give the
    offset t to the root, which lies at u - t.  P_n' at the root is the
    derivative of the same sum at t, and 1 - x^2 there is (u - t)(2 - u + t),
    so the weight belongs to the exact root, not to the rounded node.

    Why these constants.  The series converges geometrically, its terms
    falling by about the larger of pi |t|/gap, from the oscillation of P_n
    between neighbouring nodes a gap apart, and |t|/(u - t), from the
    singular point of the equation at x = 1.  The rules built are those
    for (a, 0) and, as halves of the symmetric rules, for (a, -1/2) and
    (a, 1/2), with -1/2 < a < 3/2.  Measured over n = 8 .. 64, 100, 128,
    166, 200, 256, 333, 512, 524, 1048 and 1500 at D = 2.0001, 2.2, 2.5,
    3.5, 4.5, 5.5, 5.9 and 5.9999, for all three kinds and both rows, the
    start lies within 1.7e-3 of the gap to its nearest node (the worst is
    n = 8 at D = 5.9999) and within 4.9e-3 of its root's distance u to
    x = 1 (the end node at D = 2.5).  Below n = 8 the eight terms hold all
    of P_n (c_k = 0 for k > n), and the starts lie within 3.0e-3 of the gap
    and 8.7e-3 of u.  Over the symmetric rules of n = 1 .. 129, 200, 333,
    512, 1048, 2001 and 3001 nodes at the same D, against 16 terms and 6
    steps, 6 terms leave the weights 1.1e-14 apart and 7 terms 4.4e-16;
    8 terms give every node bit for bit and every weight but one, whose
    last bit a fourth Newton step flips.  The Newton steps on the series
    measure at most 4.9e-3, 1.1e-5 and 1.6e-10 of u from n = 2 on, and a
    fourth 1.8e-18 of u, under rounding.

    Why every operand takes the state's shape.  numpy runs a ufunc whose
    operands share one contiguous shape by a fast path, and one that
    broadcasts a (rows, 1) column against the (rows, width) state by its
    general iterator, which costs more per call; at the widths built here a
    call's fixed cost is a large share of its time.  So a, b, a + b, h_n and
    h_{n-1} are copied to the state's shape once, and f_k and g_k are spread
    to it `_BLOCK` degrees at a time, by one assignment into a
    (block, rows, width) buffer each.  Each ufunc sees the values it would
    see broadcast, so the rules are the same bit for bit, and they are built
    in 0.71-0.91 of the time (n = 64 .. 1048, both kinds, D = 2.5 and 3.5,
    best of 15 interleaved rounds on a 2-vCPU Xeon, three runs).  Over that
    grid, blocks of 48 to 96 degrees read within about 3 % of 64 in every
    cell, and 16 degrees up to 6 % longer.  At the (a, 0) rule of n = 1048
    blocks of 128 degrees took up to 7 % longer and 256 degrees 12-35 %
    longer (its two buffers then hold 4.3 MB, against 1.1 MB at 64), and
    one block for all degrees 1.6 times as long.
    """
    s = a + b
    k = np.arange(1.0, n + 1.0)
    h = np.cumprod(np.concatenate((np.ones_like(a), (k + a) / k), axis=1), axis=1)
    k = k[:-1]
    c = 2.0 * k + s
    den = 2.0 * (k + 1.0) * (k + s + 1.0) * c
    f = 2.0 * (k + a) * (k + b) * (c + 2.0) / den * h[:, :-2] / h[:, 2:]
    g = (c + 1.0) * (c + 2.0) * c / den * h[:, 1:-1] / h[:, 2:]
    f = np.concatenate((np.zeros_like(a), f), axis=1).T[:, :, None]
    g = np.concatenate((0.5 * (s + 2.0) / (1.0 + a), g), axis=1).T[:, :, None]
    u = 1.0 - x
    x = 1.0 - u
    r = np.ones_like(x)
    d = np.zeros_like(x)
    tmp = np.empty_like(x)
    # every operand of the pass and of the series takes the state's shape
    f_block = np.empty((_BLOCK,) + x.shape)
    g_block = np.empty_like(f_block)
    for start in range(0, n, _BLOCK):
        size = min(_BLOCK, n - start)
        f_block[:size] = f[start:start + size]
        g_block[:size] = g[start:start + size]
        for fk, gk in zip(f_block[:size], g_block[:size]):
            np.multiply(r, u, out=tmp)
            tmp *= gk
            d *= fk
            d -= tmp
            r += d
    a, b, s, h_n, h_prev = (np.broadcast_to(v, x.shape).copy()
                            for v in (a, b, s, h[:, n:], h[:, n - 1:n]))
    # P_n = h_n r_n and P_{n-1} = h_{n-1} (r_n - d_n)
    one_minus = u * (2.0 - u)
    degree = 2.0 * n + s
    value = h_n * r
    slope = (n * ((a - b) - degree * x) * value
             + 2.0 * (n + a) * (n + b) * h_prev * (r - d)) / (degree * one_minus)
    # the Taylor coefficients by the two-term recursion, then the offset t by
    # Newton's method on their sum; its first step, from t = 0, is -c_0/c_1
    terms = [value, slope]
    lin = (a - b) + (s + 2.0) * x
    for j in range(_TAYLOR_TERMS - 2):
        term = (lin + 2.0 * j * x) * terms[j + 1] * (1.0 / (j + 2.0))
        term += (j - n) * (j + n + s + 1.0) / ((j + 1.0) * (j + 2.0)) * terms[j]
        term /= one_minus
        terms.append(term)
    slopes = [j * terms[j] for j in range(1, _TAYLOR_TERMS)]
    t = -value / slope
    for _ in range(_SERIES_STEPS - 1):
        t -= _series(terms, t) / _series(slopes, t)
    slope = _series(slopes, t)
    u -= t
    return x + t, u, 1.0 / (u * (2.0 - u) * slope * slope)


def _mass(a: float, b: float) -> float:
    """int_{-1}^{1} (1-x)^a (1+x)^b dx = 2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2)."""
    return math.exp((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0)
                    + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))


def _gauss_jacobi(n: int, a: float, b: float):
    """Gauss-Jacobi nodes x (ascending), 1 + x and weights for (1-x)^a (1+x)^b on [-1, 1].

    The starts are the interior approximation of Hale & Townsend (SISC
    35(2), 2013): phi_k = pi (4k - 1 + 2a) / (4n + 2a + 2b + 2) plus the
    Gatteschi-Pittaluga term ((1/4 - a^2) cot(phi_k/2) - (1/4 - b^2)
    tan(phi_k/2)) / (4 rho^2), rho = n + (a + b + 1)/2, gives x_k =
    cos(theta_k).  For -1/2 < a < 3/2 and b = 0 or +-1/2 (the rules that
    2 < D < 6 builds) a start lies within 1.7e-3 of the gap to the
    neighbouring node, close enough that one recurrence pass at the starts
    and a short Taylor series of the Jacobi equation about each of them
    reach the root and its weight at rounding level (`_jacobi_roots`).  The
    nodes in [0, 1) are solved as roots of P_n^(a,b), the others as negated
    roots of P_n^(b,a), so that every node is solved where its distance to
    the nearer end keeps full relative precision; 1 + x is returned from
    that distance, not from the rounded node.  Both halves run as two rows
    of that one pass.  Each weight is 1/((1 - x^2) P_n'^2) at the exact
    root, from the same series, scaled to the exact mass `_mass(a, b)`.
    """
    rho = n + 0.5 * (a + b + 1.0)
    phi = (np.arange(1.0, n + 1.0) + 0.5 * a - 0.25) * (math.pi / rho)
    half_tan = np.tan(0.5 * phi)
    x = np.cos(phi + ((0.25 - a * a) / half_tan - (0.25 - b * b) * half_tan) / (4.0 * rho * rho))
    # rows of equal length: each row's surplus starts lie past x = 0, solve
    # to nodes the other row solves, and are dropped
    m = int(np.count_nonzero(x >= 0.0))
    width = max(m, n - m)
    roots, dist, weights = _jacobi_roots(n, np.array([[a], [b]]), np.array([[b], [a]]),
                                         np.stack((x[:width], -x[n - width:][::-1])))
    x = np.concatenate((-roots[1, :n - m], roots[0, :m][::-1]))
    one_plus = np.concatenate((dist[1, :n - m], 2.0 - dist[0, :m][::-1]))
    w = np.concatenate((weights[1, :n - m], weights[0, :m][::-1]))
    w *= _mass(a, b) / math.fsum(w.tolist())
    return x, one_plus, w


@lru_cache(maxsize=128)
def _jacobi_rule(count: int, a: float, b: float):
    """Gauss-Jacobi nodes (ascending) and weights for (1-x)^a (1+x)^b on [-1, 1].

    A rule with a != b is `_gauss_jacobi`'s.  A symmetric rule comes from a
    rule of m = count // 2 nodes, so its recurrence pass runs over half as
    many degrees, by the quadratic transformations (DLMF 18.7.13-14)

        P_2m^(a,a)(x) ~ P_m^(a,-1/2)(2x^2 - 1),
        P_2m+1^(a,a)(x) ~ x P_m^(a,1/2)(2x^2 - 1).

    With (t_k, omega_k) the m-node rule for (1-t)^a (1+t)^(-1/2) at even
    count and (1-t)^a (1+t)^(1/2) at odd count, and s_k = (1 + t_k)/2, the
    nodes are +-sqrt(s_k) with weight 2^(-a-3/2) omega_k at even count and
    2^(-a-5/2) omega_k / s_k at odd count, where x = 0 is a node too.  s_k
    is taken from the distance 1 + t_k that `_gauss_jacobi` solves to full
    relative precision, so the nodes next to x = 0, where t_k lies next to
    -1, keep theirs.  The weight at x = 0 is the Christoffel number
    2^(2a+1) Gamma(n+a+1)^2 / (Gamma(n+2a+1) n! P_n'(0)^2) with
    P_n'(0) = (n+a) P_(n-1)(0) and P_2m(0) from the transformation above:
    the mass times prod_{j<=m} j (j+a) / ((j+1/2) (j+a+1/2)), formed as
    that product, never as the mass less the other weights.  Over n <= 3001
    and 2 < D < 6 it is within 3.1e-15 of a 30-digit value.  The weights are
    scaled to the exact mass `_mass(a, b)`.
    """
    if a != b:
        x, _, w = _gauss_jacobi(count, a, b)
        return _read_only(x, w)
    half, odd = divmod(count, 2)
    if half:
        _, one_plus, w = _gauss_jacobi(half, a, odd - 0.5)
    else:
        one_plus, w = np.zeros(0), np.zeros(0)
    x = np.sqrt(0.5 * one_plus)
    w *= 2.0 ** (-a - 1.5)
    mass = _mass(a, a)
    centre = []
    if odd:
        w /= one_plus
        j = np.arange(1.0, half + 1.0)
        centre = [mass * np.prod(j * (j + a) / ((j + 0.5) * (j + a + 0.5)))]
    x = np.concatenate((-x[::-1], [0.0] * odd, x))
    w = np.concatenate((w[::-1], centre, w))
    w *= mass / math.fsum(w.tolist())
    return _read_only(x, w)


# Non-integer D from here on takes the phi rule up to the endpoints.  With 64
# nodes, for e^(kx) w (k = 0, 3, 6) on [-1, 1] and on [x0, 1], it is within
# 5e-15 of mpmath for 5.9 <= D <= 10 (1.4e-13 at D = 5.5, 2e-11 at D = 4.5)
# and as close as a Gauss-Jacobi rule up to D = 64, while the starts of
# `_jacobi_rule` move away from its roots once a, b pass 3/2: over the
# 64-node (a, 0) rule and the 32-node halves of the 64- and 65-node symmetric
# rules, its third Newton step on the Taylor series grows from 1.6e-10 of a
# root's distance u to x = 1 at D = 6 to 4.2e-8 at D = 7.3, and the error
# that step leaves (the size of a fourth) from at most 6e-19 of u, under
# rounding, to 2.8e-15 of u, above it.
_PHI_RULE_FROM = 6.0


# Highest degree_hint: a Legendre rule of more nodes is solved from a companion
# matrix of more than 2^48 doubles (2 PiB), which no machine holds.
_MAX_HINT = 2**24


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
        DomainError, as do values that are not real numbers (complex ones
        included) and any other shape.
    dim : Dimension
    degree_hint : int
        Polynomial degree of f if f is polynomial, 0 <= degree_hint <= 2^24;
        sizes the rule as max(64, degree_hint + ceil(D) + 16) nodes.
    lower, upper : float
        Integration bounds, -1 <= lower < upper <= 1; other bounds, and
        values that are not real numbers, complex ones included, raise
        DomainError.

    Each integrand row is scaled by the exact power of two 2^-k that brings
    its largest magnitude into [0.5, 1) before the rule is applied, and the
    sum is scaled back by 2^k, so the result is inf or 0 only where the true
    integral lies outside the double range.  Values in range are unchanged
    bit for bit, unless a product of an integrand value and a rule weight is
    subnormal.
    """
    return _unscale(*_scaled_integral(f, dim, degree_hint, _real(lower, "lower bound"),
                                      _real(upper, "upper bound")))


def _scaled_integral(f, dim: Dimension, degree_hint: int, lower: float, upper: float):
    """(sum_i q_i f(x_i) 2^-k, k): `integrate_axisym` before its rows are scaled back.

    k holds one exponent per integrand row, frexp of the row's largest
    magnitude (0 for a row of zeros).  A row whose largest magnitude is not
    finite holds a NaN or +-inf value and raises DomainError, and so do
    values that are not real numbers, complex ones included.
    """
    degree_hint = _integer(degree_hint, "degree_hint", 0, _MAX_HINT)
    if not (-1.0 <= lower < upper <= 1.0):
        raise DomainError(f"invalid integration bounds [{lower}, {upper}]")
    dim = _dimension(dim)
    x, q = _rule(dim, _node_count(degree_hint, dim), lower, upper)
    values = _reals(f(x), "f(x)")
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
    NaN or +-inf at a node, complex, not a number, or of a shape that does not
    broadcast against the nodes raises DomainError, and so do an N past
    MAX_ORDER and a degree_hint outside -N .. 2^24 - N, before anything is
    integrated.
    """
    max_degree = _integer(max_degree, "max_degree", 0, MAX_ORDER)
    degree_hint = _integer(degree_hint, "degree_hint", -max_degree, _MAX_HINT - max_degree)

    def integrand(x):
        seq = _sequence(x, max_degree, dim)
        values = _reals(f(x), "f(x)")
        # an infinite f(x) times P_n(x) = 0 is NaN: no warning, the NaN raises DomainError
        try:
            with np.errstate(invalid="ignore"):
                return seq * values
        except ValueError as exc:
            raise DomainError(f"f(x) must broadcast against the nodes: {exc}") from exc

    # _scaled_integral checks dim before it calls the integrand
    out, k = _scaled_integral(integrand, dim, degree_hint + max_degree, -1.0, 1.0)
    return _unscale(out / _cached_basis(max_degree, dim).n2, k)
