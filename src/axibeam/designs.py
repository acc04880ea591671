"""Order-weight generators for axisymmetric directivity designs.

Every generator returns a WeightVector holding the per-degree gains a_0..a_N
that shape the truncated Dirac expansion

    g(x) = 1/S_{D-2} sum_n a_n / N_n^2 P_n(x)

into a particular beam: the plain truncation (basic / max-DI), the largest
energy-vector design (max-rE), the front-to-back-ratio optimum (supercardioid)
and its power-law approximation, the sidelobe-free higher-order cardioid
(inphase), max-flat designs with a prescribed split of flatness degrees, and
spherical-cap windows.  Every generator checks its order 0 <= N <= MAX_ORDER
(128) before any work (`errors._integer`: 3.0 counts, 2.5 raises DomainError),
and reads a real argument (cap's x0, cap_trapezoid's spacing) by float()
(`ultraspherical._real`: "0.5" counts, None and complex values raise
DomainError).  A dim must be a `Dimension`; any other value, a float
included, raises DomainError.
"""

from __future__ import annotations

import math
import warnings
from enum import Enum
from functools import cached_property

import numpy as np

from . import _LAZY
from .errors import DomainError, InvalidFlatness, RangeWarning, ZeroPressure, _integer, _Record
from .ultraspherical import (MAX_ORDER, Dimension, _basis, _cached_basis, _dimension, _real,
                             _reals, _sequence, _unscale, _with_derivatives)

__all__ = list(_LAZY["designs"])


class Normalization(str, Enum):
    """Scaling conventions for a weight vector.

    A0_UNITY pins a_0 = 1, G1_UNITY pins the on-axis pattern value g(1) = 1,
    RAW keeps whatever scale the generator produced.  Any other value raises
    DomainError.
    """

    A0_UNITY = "a0"
    G1_UNITY = "g1"
    RAW = "raw"

    @classmethod
    def _missing_(cls, value):
        # Enum re-raises this in place of its bare ValueError
        raise DomainError(f"normalization must be one of {', '.join(m.value for m in cls)}, "
                          f"got {value!r}")


class WeightVector(_Record):
    """Design weights a_0..a_N for one dimension, tagged with their scaling.

    The weights must be finite reals; NaN, an infinite or complex weight or
    one that is not a number raises DomainError, and so does a dim that is
    not a `Dimension`.  a is stored as a read-only float array; two vectors
    are equal when their dims, weights and tags are, and a vector is
    unhashable.
    The tag is taken on trust: `normalized(kind)` rescales only weights whose
    tag differs from kind, so `WeightVector(Dimension(3), [2, 1],
    "a0").normalized("a0").a` stays [2, 1].
    """

    _fields = ("dim", "a", "normalization")
    _arrays = frozenset({"a"})
    __hash__ = None

    def __init__(self, dim: Dimension, a, normalization: Normalization) -> None:
        _dimension(dim)
        # a copy: the caller's array is never made read-only
        arr = np.array(_reals(a, "weights"), ndmin=1)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("weights must be a non-empty 1-d sequence")
        # max |a_n|, not finite exactly when a weight is not (NaN and +-inf
        # propagate through the max); `_scaled` reads its exponent
        peak = float(np.maximum.reduce(np.abs(arr)))
        if not math.isfinite(peak):
            raise DomainError("weights must be finite")
        arr.setflags(write=False)
        if not isinstance(normalization, Normalization):
            normalization = Normalization(normalization)
        fields = self.__dict__
        fields["dim"] = dim
        fields["a"] = arr
        fields["normalization"] = normalization
        fields["_peak"] = peak

    @property
    def order(self) -> int:
        return self.a.size - 1

    @cached_property
    def _scaled(self) -> tuple:
        """(k, a 2^-k, c, basis) with max |a_n| 2^-k in [0.5, 1) (k = 0 for zero weights).

        c_n = a_n 2^-k / (S_{D-2} N_n^2) are the coefficients of g(x) 2^-k,
        and basis is the cached per-(N, D) record `ultraspherical._basis`
        that supplied 1/(S_{D-2} N_n^2).  The scaling is exact, so sums of
        a 2^-k and c stay in range for any non-zero finite weights, and their
        ratios equal the unscaled ones bit for bit wherever those stay in
        range.  Every pattern reader shares these read-only arrays and this
        record; none scales the weights or looks the record up itself.
        """
        # the dim was tested when the vector was built
        basis = _cached_basis(_integer(self.order, "order", 0, MAX_ORDER), self.dim)
        k = math.frexp(self._peak)[1]
        a = np.ldexp(self.a, -k)
        c = a * basis.inv_sub
        a.setflags(write=False)
        c.setflags(write=False)
        return k, a, c, basis

    def front_value(self) -> float:
        """Pattern value on axis, g(1) = sum a_n / (S_{D-2} N_n^2).

        Summed on the scaled coefficients of `_scaled` and scaled back, so
        it is inf or 0 only where the true g(1) lies outside the double
        range.
        """
        k, _, c, _ = self._scaled
        return _unscale(float(c.sum()), k)

    def normalized(self, kind: Normalization | str) -> "WeightVector":
        """Return a copy rescaled to the requested convention.

        G1_UNITY divides the scaled weights a 2^-k by the scaled g(1), so
        the result is the same for any non-zero finite scale of the weights
        (bit for bit for a power of two).  g(1) = 0 raises DomainError, and
        so does a g(1) so small that the normalized weights overflow.
        """
        kind = Normalization(kind)
        if kind is Normalization.RAW or kind is self.normalization:
            return WeightVector(self.dim, self.a, kind)
        if kind is Normalization.A0_UNITY:
            if self.a[0] == 0.0:
                raise ZeroPressure("cannot normalize to a_0 = 1 when a_0 = 0")
            return WeightVector(self.dim, self.a / self.a[0], kind)
        _, a, c, _ = self._scaled
        g1 = float(c.sum())
        if g1 == 0.0:
            raise DomainError("cannot normalize to g(1) = 1 when g(1) = 0")
        with np.errstate(over="ignore"):
            return WeightVector(self.dim, a / g1, kind)


class MaxReSolution(_Record):
    """Max-rE weights together with the root that generated them.

    r_e_max is the largest root of P_{N+1}; it equals the rE metric of the
    weights.  It lies in (0, 1) for every N >= 1 (for N = 0 the only root of
    P_1 is 0 and the weights degenerate to the omnidirectional pattern).
    iterations counts the Newton steps that polish the eigenvalue estimate of
    r; it is always 1.  Unhashable, as its weights are.
    """

    _fields = ("weights", "r_e_max", "iterations")
    __hash__ = None

    def __init__(self, weights: WeightVector, r_e_max: float, iterations: int) -> None:
        fields = self.__dict__
        fields["weights"] = weights
        fields["r_e_max"] = r_e_max
        fields["iterations"] = iterations


def basic(order: int, dim: Dimension) -> WeightVector:
    """Unweighted truncation a_n = 1: narrowest main lobe, maximum directivity."""
    order = _integer(order, "order", 0, MAX_ORDER)
    return WeightVector(dim, np.ones(order + 1), Normalization.A0_UNITY)


def max_re(order: int, dim: Dimension) -> MaxReSolution:
    """Weights a_n = P_n(r) at the largest root r of P_{N+1}, maximizing rE.

    The roots of P_{N+1} are the eigenvalues of its (N+1) x (N+1) symmetric
    tridiagonal Jacobi matrix (Golub-Welsch): zero diagonal and off-diagonal
    `_Basis.off`.  r is the largest eigenvalue, polished by one Newton step
    on P_{N+1}, whose value and slope come from one recurrence run at r.
    """
    basis = _basis(order, dim)
    r = float(np.linalg.eigvalsh(np.diag(basis.off, -1))[-1])
    seq, der = _with_derivatives(r, basis.order + 1, dim)
    r -= float(seq[-1] / der[-1])
    weights = _sequence(r, basis.order, dim)
    return MaxReSolution(WeightVector(dim, weights, Normalization.A0_UNITY), r, 1)


def supercardioid(order: int, dim: Dimension) -> WeightVector:
    """Weights maximizing the front-to-back energy ratio FBR = a^T G_f a / a^T G_b a.

    Maximizing FBR is Slepian concentration onto [0, 1].  In orthonormal
    coordinates u_n = a_n / N_n it commutes with the symmetric tridiagonal
    matrix with zero diagonal and sub-diagonal off_n (N (N + D - 1) -
    n (n + D - 1)), n = 0..N-1, off = `_Basis.off` (Grünbaum, Longhi &
    Perlstadt 1982), and u is its top eigenvector.  That sub-diagonal
    is positive, so by Perron-Frobenius the eigenvalue is simple and every
    exact weight has the sign of a_0: a = diag(N_n) u divided by a_0 is
    positive whatever sign the eigensolver returns.  Well conditioned for
    N <= 128, 2 <= D <= 64; trailing weights below 1e-15 max|a| (from N ~ 48)
    are only absolutely accurate.  N = 0 gives the 1 x 1 zero matrix, whose
    eigenvector is the omni pattern [1] with FBR 1.
    """
    basis = _basis(order, dim)
    n = np.arange(order)
    spread = order * (order + dim.d - 1.0) - n * (n + dim.d - 1.0)
    _, vecs = np.linalg.eigh(np.diag(basis.off * spread, -1))
    a = np.sqrt(basis.n2) * vecs[:, -1]
    return WeightVector(dim, a / a[0], Normalization.A0_UNITY)


def supercardioid_approx(order: int, dim: Dimension) -> WeightVector:
    """Power-law shortcut a_n = (a_n,inphase)^beta to the supercardioid weights.

    beta = (0.73 N + 0.67 D - 1.11) / (N + 1.11 D - 1.5), an empirical fit for
    1 <= N <= 10 and D in [2, 3]; outside that range a RangeWarning is issued
    and the formula extrapolates.
    """
    order = _integer(order, "order", 0, MAX_ORDER)
    d = _dimension(dim).d
    if not (1 <= order <= 10) or not (2.0 <= d <= 3.0):
        warnings.warn(
            f"supercardioid_approx fitted for 1 <= N <= 10, 2 <= D <= 3; "
            f"got N={order}, D={d}",
            RangeWarning,
            stacklevel=2,
        )
    exponent = (0.73 * order + 0.67 * d - 1.11) / (order + 1.11 * d - 1.5)
    a = np.array(_inphase(order, d)) ** exponent
    return WeightVector(dim, a, Normalization.A0_UNITY)


def inphase(order: int, dim: Dimension) -> WeightVector:
    """Sidelobe-free weights a_n = N! (N+D-2)! / ((N-n)! (N+n+D-2)!).

    The pattern is proportional to (1+x)^N, an N-fold zero at the anti-axis
    point.  The weights are the cumulative product a_{n+1} = a_n (N - n) /
    (N + n + D - 1) from a_0 = 1, so real D is allowed and the relative error
    grows only linearly in n (within 2e-14 of mpmath for N <= 128).
    """
    order = _integer(order, "order", 0, MAX_ORDER)
    d = _dimension(dim).d
    return WeightVector(dim, _inphase(order, d), Normalization.A0_UNITY)


def _inphase(order: int, d: float) -> list:
    """The `inphase` weights of a checked order at D = d."""
    a = [1.0]
    for n in range(order):
        a.append(a[n] * (order - n) / (order + n + d - 1.0))
    return a


def maxflat(order: int, flat_l: int, dim: Dimension) -> WeightVector:
    """Max-flat (Butterworth) design with L flatness degrees at x = 1.

    The pattern is the integral of (1-x)^L (1+x)^M with N = L + M + 1, so it
    rises from g(-1) = 0 with M-degree flatness to g(1) = 1 with L-degree
    flatness.  Weights follow the forward iteration

        a_{n+1} = -[(N-n+1)(n-1) a_{n-1} + 2 dN (n+alpha) a_n]
                  / ((N+n+2 alpha+1)(n+2 alpha+1)),   dN = L - M,

    from a_1 = 1; a_0 is fixed by g(-1) = 0.  The weights go straight to the
    scale-safe `WeightVector.normalized` (G1_UNITY), whatever size the
    recurrence gives them.  L = 0 reproduces the inphase weights.  An L
    that is not an integer 0 <= L <= N-1 raises InvalidFlatness.
    """
    order = _integer(order, "order", 0, MAX_ORDER)
    # `in range` compares by value: 1.0 is in it, 1.5, "1" and NaN are not
    if flat_l not in range(order):
        raise InvalidFlatness(
            f"flat_l must be an integer 0 <= L <= N-1, got L={flat_l!r}, N={order}"
        )
    basis = _basis(order, dim)
    m_deg = order - flat_l - 1
    delta = float(flat_l - m_deg)
    alpha = dim.alpha
    a = [0.0, 1.0]
    for n in range(1, order):
        a.append(-(
            (order - n + 1.0) * (n - 1.0) * a[n - 1]
            + 2.0 * delta * (n + alpha) * a[n]
        ) / ((order + n + 2.0 * alpha + 1.0) * (n + 2.0 * alpha + 1.0)))
    a = np.array(a)
    ratio = basis.n2[0] / basis.n2
    a[0] = -float(np.sum(basis.sign[1:] * ratio[1:] * a[1:]))
    return WeightVector(dim, a, Normalization.RAW).normalized(Normalization.G1_UNITY)


def _beta_fraction(p: float, q: float, x: float) -> float:
    """Continued fraction of I_x(p, q) by modified Lentz, for x < (p+1)/(p+q+2).

    There it converges within 50 steps for p, q <= 32, and no partial
    denominator falls below 0.05, so Lentz's guard against zero is not needed.
    """
    c = 1.0
    d = 1.0 / (1.0 - (p + q) * x / (p + 1.0))
    h = d
    for m in range(1, 200):
        for aa in (m * (q - m) * x / ((p + 2 * m - 1.0) * (p + 2 * m)),
                   -(p + m) * (p + q + m) * x / ((p + 2 * m) * (p + 2 * m + 1.0))):
            d = 1.0 / (1.0 + aa * d)
            c = 1.0 + aa / c
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return h


def _cap_mass(x0: float, dim: Dimension) -> float:
    """Cap mass int_x0^1 (1 - x^2)^c dx, c = (D-3)/2, as an incomplete beta.

    With p = c + 1 and q = 1/2 the mass over [|x0|, 1] is (1/2) B_z(p, q),
    z = (1 - x0)(1 + x0), 1 - z = x0^2.  For z >= (p+1)/(p+q+2), where the
    continued fraction converges slowly, the symmetric form
    B_z(p, q) = B(p, q) - B_{1-z}(q, p) is used, and x0 < 0 takes the
    complement B(p, q) - tail, so no branch subtracts nearly equal numbers.
    """
    p, q = dim.alpha + 0.5, 0.5
    z, zc = (1.0 - x0) * (1.0 + x0), x0 * x0
    beta = math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q))
    if zc == 0.0:
        tail = 0.5 * beta
    else:
        # z^p (1 - z)^q, the common factor of both incomplete-beta forms
        power = math.exp(p * math.log(z) + q * math.log(zc))
        if z < (p + 1.0) / (p + q + 2.0):
            tail = 0.5 * power * _beta_fraction(p, q, z) / p
        else:
            tail = 0.5 * (beta - power * _beta_fraction(q, p, zc) / q)
    return tail if x0 >= 0.0 else beta - tail


def cap(order: int, x0: float, dim: Dimension) -> WeightVector:
    """Expansion weights of the spherical-cap indicator of the region x >= x0.

    a_n = w(x0)/(2n + 2 alpha) [P_{n-1}(x0) - P_{n+1}(x0)] for n >= 1 (no
    such n at N = 0, where the one weight is a_0).  The zeroth weight is the
    cap mass, the integral of w over [x0, 1]: arccos(x0)
    for D = 2, 1 - x0 for D = 3, and for any other dimension the incomplete
    beta function (1/2) B_{1-x0^2}((D-1)/2, 1/2) (or its complement for
    x0 < 0), summed as a continued fraction.
    """
    order = _integer(order, "order", 0, MAX_ORDER)
    x0 = _real(x0, "cap boundary x0")
    if not (-1.0 < x0 < 1.0):
        raise DomainError(f"cap boundary must satisfy -1 < x0 < 1, got {x0}")
    dim = _dimension(dim)
    return WeightVector(dim, _cap(order, x0, dim), Normalization.RAW)


def _cap(order: int, x0: float, dim: Dimension) -> np.ndarray:
    """The `cap` weights of a checked order, boundary -1 < x0 < 1 and dim."""
    a = np.empty(order + 1)
    if dim.d == 2.0:
        a[0] = math.acos(x0)
    elif dim.d == 3.0:
        a[0] = 1.0 - x0
    else:
        a[0] = _cap_mass(x0, dim)
    seq = _sequence(x0, order + 1, dim)
    w0 = (1.0 - x0 * x0) ** (dim.alpha - 0.5)
    n = np.arange(1, order + 1)
    a[1:] = w0 / (2.0 * n + 2.0 * dim.alpha) * (seq[n - 1] - seq[n + 1])
    return a


def cap_trapezoid(order: int, spacing_deg: float, dim: Dimension) -> WeightVector:
    """Trapezoidal window from the product of two differently sized caps.

    The caps have boundaries x0 = cos(1.375 s / 2) and cos(0.75 s / 2) for the
    spacing angle s; multiplying their weight sequences realizes the angular
    convolution of the two indicator functions.
    """
    spacing_deg = _real(spacing_deg, "spacing")
    if not (0.0 < spacing_deg < 180.0 / 1.375):
        raise DomainError(
            f"spacing must satisfy 0 < s < {180.0 / 1.375:.3f} deg, got {spacing_deg}"
        )
    s = math.radians(spacing_deg)
    order = _integer(order, "order", 0, MAX_ORDER)
    dim = _dimension(dim)
    wide = _cap(order, math.cos(1.375 * s / 2.0), dim)
    narrow = _cap(order, math.cos(0.75 * s / 2.0), dim)
    return WeightVector(dim, wide * narrow, Normalization.RAW)
