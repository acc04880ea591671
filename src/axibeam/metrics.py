"""Pattern evaluation and the P / E / Q / rV / rE / FBR metric suite.

`compute_metrics` evaluates the closed forms that depend only on the weights;
`compute_metrics_numeric` recomputes every quantity by quadrature of the
pattern itself and exists purely as an independent oracle, so the two paths
must agree for any valid weight vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import WeightVector
from .errors import DomainError, ZeroPressure
from .quadrature import gram_front, integrate_axisym
from .ultraspherical import _betas, eval_sequence, norms_squared

__all__ = ["PatternMetrics", "eval_pattern", "compute_metrics", "compute_metrics_numeric"]


@dataclass(frozen=True)
class PatternMetrics:
    """Scalar metrics of one axisymmetric pattern.

    p is the linear loudness (equals a_0), e the energy, q the directivity
    factor, r_v and r_e the velocity- and energy-vector lengths, fbr the
    front-to-back energy ratio.  r_v is None when a_0 = 0, where the ratio
    a_1/a_0 is undefined.  The vectors themselves always point along the
    symmetry axis, so only magnitudes are reported.
    """

    p: float
    e: float
    q: float
    r_v: float | None
    r_e: float
    fbr: float


def eval_pattern(weights: WeightVector, x):
    """Continuous pattern g(x) = 1/S_{D-2} sum_n a_n / N_n^2 P_n(x)."""
    dim = weights.dim
    order = weights.order
    seq = eval_sequence(x, order, dim)
    coeffs = weights.a / (dim.subsurface * norms_squared(order, dim))
    out = np.tensordot(coeffs, seq, axes=(0, 0))
    return float(out) if np.ndim(x) == 0 else out


def compute_metrics(weights: WeightVector, require_rv: bool = False) -> PatternMetrics:
    """Metrics from the weights alone.

    P = a_0; E = sum a_n^2/(S_{D-2} N_n^2); Q = S_{D-1} g(1)^2 / E with g(1)
    taken from the weight sum to avoid cancellation; rV = a_1/a_0;
    rE = sum_{n<N} 2 beta_{n+1} a_n a_{n+1} / N_n^2 over sum a_n^2 / N_n^2;
    FBR is the Gram-matrix quadratic-form ratio.

    The sums are formed on the weights scaled by the power of two 2^-k that
    brings max |a_n| into [0.5, 1).  That scaling is exact, so Q, rV, rE and
    FBR are unchanged bit for bit, yet they stay finite for any non-zero
    weights, however large or small.  P and E are reported in the caller's
    scale; E is inf or 0 only where the true energy lies outside the double
    range.

    Parameters
    ----------
    weights : WeightVector
    require_rv : bool
        When True, raise ZeroPressure if a_0 = 0; otherwise r_v is reported
        as None in that case.

    Raises DomainError when every weight is zero.
    """
    dim = weights.dim
    order = weights.order
    _, k = np.frexp(np.max(np.abs(weights.a)))
    a = np.ldexp(weights.a, -k)
    n2 = norms_squared(order, dim)
    inv = 1.0 / (dim.subsurface * n2)
    e = float(np.sum(a * a * inv))
    if e == 0.0:
        raise DomainError("metrics are undefined for a pattern of zero energy")
    g1 = float(np.sum(a * inv))
    q = dim.surface * g1 * g1 / e
    if weights.a[0] == 0.0:
        if require_rv:
            raise ZeroPressure("r_V is undefined for a_0 = 0")
        r_v: float | None = None
    else:
        r_v = float(weights.a[1] / weights.a[0]) if order >= 1 else 0.0
    num = float(np.sum(2.0 * _betas(order, dim)[:-1] * a[:-1] * a[1:] / n2[:-1]))
    r_e = num / float(np.sum(a * a / n2))
    gram = gram_front(order, dim)
    fbr = float(a @ gram.entries @ a) / float(a @ gram.back_entries @ a)
    with np.errstate(over="ignore"):
        e = float(np.ldexp(e, 2 * k))
    return PatternMetrics(p=float(weights.a[0]), e=e, q=q, r_v=r_v, r_e=r_e, fbr=fbr)


def compute_metrics_numeric(weights: WeightVector) -> PatternMetrics:
    """Metrics by direct quadrature of the pattern; the verification oracle.

    P = S_{D-2} int g w dx, E = S_{D-2} int g^2 w dx, the vector lengths from
    the first-moment integrals, and FBR from the two half-interval energies.
    Shares nothing with `compute_metrics` beyond the pattern evaluation.
    """
    dim = weights.dim
    order = weights.order
    sub = dim.subsurface

    def g(x):
        return eval_pattern(weights, x)

    def g2(x):
        val = eval_pattern(weights, x)
        return val * val

    p = sub * integrate_axisym(g, dim, order)
    e = sub * integrate_axisym(g2, dim, 2 * order)
    if e == 0.0:
        raise DomainError("metrics are undefined for a pattern of zero energy")
    g1 = eval_pattern(weights, 1.0)
    q = dim.surface * g1 * g1 / e
    if weights.a[0] == 0.0:
        r_v: float | None = None
    else:
        r_v = sub * integrate_axisym(lambda x: g(x) * x, dim, order + 1) / p
    r_e = sub * integrate_axisym(lambda x: g2(x) * x, dim, 2 * order + 1) / e
    fbr = integrate_axisym(g2, dim, 2 * order, lower=0.0) / integrate_axisym(
        g2, dim, 2 * order, upper=0.0
    )
    return PatternMetrics(p=p, e=e, q=q, r_v=r_v, r_e=r_e, fbr=fbr)
