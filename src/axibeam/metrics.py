"""Pattern evaluation and the P / E / Q / rV / rE / FBR metric suite.

`compute_metrics` and `eval_pattern` read the weights and the cached per-(N, D)
record `ultraspherical._basis`; `compute_metrics_numeric` recomputes every
quantity by quadrature of the pattern itself and exists purely as an
independent oracle, so the two paths must agree for any valid weight vector.
"""

from __future__ import annotations

import numpy as np

from . import _LAZY
from .designs import WeightVector
from .errors import DomainError, _Record
from .ultraspherical import _clamp_argument, _series_sum, _unscale

__all__ = list(_LAZY["metrics"])


class PatternMetrics(_Record):
    """Scalar metrics of one axisymmetric pattern.

    p is the linear loudness (equals a_0), e the energy, q the directivity
    factor, r_v and r_e the velocity- and energy-vector lengths, fbr the
    front-to-back energy ratio.  r_v is None when a_0 = 0, where the ratio
    a_1/a_0 is undefined.  The vectors themselves always point along the
    symmetry axis, so only magnitudes are reported.
    """

    _fields = ("p", "e", "q", "r_v", "r_e", "fbr")

    def __init__(self, p: float, e: float, q: float, r_v: float | None, r_e: float,
                 fbr: float) -> None:
        fields = self.__dict__
        fields["p"] = p
        fields["e"] = e
        fields["q"] = q
        fields["r_v"] = r_v
        fields["r_e"] = r_e
        fields["fbr"] = fbr


def eval_pattern(weights: WeightVector, x):
    """Continuous pattern g(x) = 1/S_{D-2} sum_n a_n / N_n^2 P_n(x).

    The series is summed by `ultraspherical._series_sum`: for D <= 3 in the
    Chebyshev basis (d = C c through the cached connection matrix, a table
    of T_m(x) built by doubling in log2 N steps, x taken 1024 points at a
    time, one code path for a float and an array alike), above D = 3 by
    Clenshaw's backward recurrence (a Python-float loop for a float x).  It
    reads only the cached scale c_n = a_n/(S_{D-2} N_n^2) and C or the
    Clenshaw factors, never the Gram matrix.  Against a 40-digit sum of
    c_n P_n(x) it is within 2.3e-13 sum_n |c_n| for N <= 128 (5e-13 in the
    tests; 1.6e-14 for normally distributed weights).  x may be a float (the
    result is a float) or an array of any shape (the result has its shape);
    x outside [-1, 1] raises DomainError.  That check runs once, here: the
    series sum takes the checked x.

    The sum is formed on the coefficients of the weights scaled by the
    exact power of two 2^-k of `WeightVector._scaled` and scaled back by 2^k
    at the end, so g is finite wherever |g(x)| fits in a double, 0 where it
    vanishes, and +-inf (with no warning) only where |g(x)| lies past the
    double range; values that stay in range are unchanged bit for bit.
    """
    k, _, c, basis = weights._scaled
    return _unscale(_series_sum(c, _clamp_argument(x), basis), k)


def compute_metrics(weights: WeightVector) -> PatternMetrics:
    """Metrics from the weights alone.

    P = a_0; E = sum a_n^2/(S_{D-2} N_n^2); Q = S_{D-1} g(1)^2 / E with g(1)
    taken from the weight sum to avoid cancellation; rV = a_1/a_0;
    rE = sum_{n<N} 2 beta_{n+1} a_n a_{n+1} / N_n^2 over sum a_n^2 / N_n^2,
    with the factor 2 applied after the sum (a doubling is exact, so this
    changes no bit);
    FBR is the ratio of the closed-form half-interval Gram quadratic forms
    a^T G a and b^T G b of a and of its mirror b_n = (-1)^n a_n.  Both forms
    are evaluated in full: their difference, rewritten from the even-odd
    block alone, can round to zero for a strongly directive pattern.

    FBR has a floor: b^T G b cancels O(1) terms down to about 1/FBR, so the
    closed form loses about eps FBR relative, and every digit (even the
    sign) once FBR passes about 1e16; for a back-dominant pattern a^T G a
    cancels alike, so an FBR below about eps reads about eps.  The FBR of
    `supercardioid(12, Dimension(2))` reads -3.05e16 where
    `compute_metrics_numeric` gives 3.37e17, and the mirrored D = 3
    supercardioid at N = 12 .. 18 reads +1.4e-16 to +1.6e-16 where the true
    FBR runs from 1e-17 down to 1e-26.  ROADMAP item 2 (FBR as the ratio of
    two positive half-range sums) is the fix.

    Everything that depends only on (N, D) (1/(S_{D-2} N_n^2), N_n^2,
    beta_{n+1}, the Gram matrix, the signs (-1)^n and S_{D-1}) is read from
    the cached record `ultraspherical._basis`, which `WeightVector._scaled`
    hands over with the scaled weights, so a call costs about fifteen small
    array operations (about 15-19 us at N <= 32 and 24 us at N = 128, best
    of three timeit runs, 2-vCPU Xeon), bit-identical to the same formulas
    with those arrays rebuilt.  The four sums call `np.add.reduce`, the
    reduction that `ndarray.sum` wraps, in the same order.  No x is read
    here; the pattern readers check theirs once, at their public entry.

    The sums are formed on the weights scaled by the power of two 2^-k that
    brings max |a_n| into [0.5, 1) (`WeightVector._scaled`).  That scaling
    is exact, so Q, rV, rE and FBR are unchanged bit for bit, yet they stay
    finite for any non-zero weights, however large or small.  P and E are
    reported in the caller's scale; E is inf or 0 only where the true energy
    lies outside the double range.

    r_v is None when a_0 = 0.  Raises DomainError when every weight is zero.
    """
    order = weights.order
    k, a, c, basis = weights._scaled
    aa = a * a
    e = float(np.add.reduce(aa * basis.inv_sub))
    if e == 0.0:
        raise DomainError("metrics are undefined for a pattern of zero energy")
    g1 = float(np.add.reduce(c))
    q = basis.surface * g1 * g1 / e
    r_v: float | None = None
    if weights.a[0] != 0.0:
        # Python floats: a quotient past the double range is +-inf, with no numpy warning
        r_v = float(weights.a[1]) / float(weights.a[0]) if order >= 1 else 0.0
    n2 = basis.n2
    r_e = 2.0 * float(np.add.reduce(basis.beta[:-1] * a[:-1] * a[1:] / n2[:-1]))
    r_e /= float(np.add.reduce(aa / n2))
    back = a * basis.sign
    fbr = float(a @ basis.gram @ a) / float(back @ basis.gram @ back)
    return PatternMetrics(p=float(weights.a[0]), e=_unscale(e, 2 * k), q=q, r_v=r_v,
                          r_e=r_e, fbr=fbr)


def compute_metrics_numeric(weights: WeightVector) -> PatternMetrics:
    """Metrics by direct quadrature of the pattern; the verification oracle.

    Two `integrate_axisym` calls: the stack [g, g^2, g x, g^2 x] over [-1, 1]
    gives P = S_{D-2} int g w dx, E = S_{D-2} int g^2 w dx and the first
    moments over P and E that are rV and rE; [g(x)^2, g(-x)^2] over [0, 1]
    gives the front and back energies of FBR, since w is even.  Shares
    nothing with `compute_metrics` beyond the pattern evaluation and its
    scaling: the pattern is summed from the same scaled coefficients of
    `WeightVector._scaled`, so Q, rV, rE and FBR stay finite for any
    non-zero weights at any D, and P and E come back in the caller's scale,
    inf or 0 only where the true value lies outside the double range.
    Raises DomainError when the quadrature energy is zero.  `quadrature` is
    imported on the first call: only this oracle needs it.  The pattern is
    read only at rule nodes and at 1.0, all inside [-1, 1], so no x is
    checked.
    """
    from .quadrature import integrate_axisym

    dim = weights.dim
    order = weights.order
    k, _, coeffs, basis = weights._scaled

    def pattern(x):
        return _series_sum(coeffs, x, basis)

    def moments(x):
        g = pattern(x)
        g2 = g * g
        return np.stack([g, g2, g * x, g2 * x])

    p, e, p1, e1 = (dim.subsurface * integrate_axisym(moments, dim, 2 * order + 1)).tolist()
    if e == 0.0:
        raise DomainError("metrics are undefined for a pattern of zero energy")
    g1 = float(pattern(np.asarray(1.0)))
    q = dim.surface * g1 * g1 / e
    r_v = None if weights.a[0] == 0.0 else p1 / p
    front, back = integrate_axisym(
        lambda x: pattern(np.stack([x, -x])) ** 2, dim, 2 * order, lower=0.0
    )
    return PatternMetrics(p=_unscale(p, k), e=_unscale(e, 2 * k), q=q, r_v=r_v,
                          r_e=e1 / e, fbr=float(front / back))
