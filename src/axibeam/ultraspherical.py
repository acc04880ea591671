"""Ultraspherical polynomials standardized to P_n(1) = 1 for any real dimension 2 <= D <= 64.

The polynomials P_n solve the Gegenbauer differential equation

    (1 - x^2) P_n'' - (D - 1) x P_n' + n (n + D - 2) P_n = 0

on [-1, 1] and are orthogonal there under the weight w(x) = (1 - x^2)^((D-3)/2).
They specialize to Chebyshev polynomials T_n for D = 2 and Legendre polynomials
for D = 3.  Everything in this module is a pure function of its arguments; the
alpha -> 0 degeneracies of the D = 2 case are handled through explicit limits
rather than branches.  Series sum_n c_n P_n(x) are summed in the Chebyshev
basis for D <= 3, through the connection P_n = sum_m C[m, n] T_m, and by
Clenshaw's recurrence above (see `_series_sum`).  A degree N or n is an
integer >= 0 (`errors._integer`: an integral float such as 3.0 counts, any
other value raises DomainError); `eval_sequence` and `derivative` take
N <= 2^48 and hold at most (N + 1) x.size <= MAX_CELLS (2^27) values,
every other function N <= MAX_ORDER, `gram_front` (the Gram matrix of the
front-to-back ratio) included.  A dim must be a `Dimension`: any other
value, a float included, raises DomainError (`_dimension`).  It is tested
once per public call, where a record is looked up or the function first
reads D, and so is N; the private helpers (`_sequence`,
`_with_derivatives`) take both checked.  An x is checked against [-1, 1]
once per public call (`_clamp_argument`, which `_sequence` runs for the
callers of the recurrence); the other private helpers take it checked.  A
real argument of the package becomes a float here and nowhere else: a
scalar by `_real`, an array by `_reals`, and either refuses a complex
value.

The per-degree constants of one D come from one record: `_basis(N, D)` is
an LRU of 128 entries, and an order it misses is cut from the largest live
record at the same D (`_Cut`, read-only views of that record's arrays) when
that record reaches N, or else built as a full record at up to twice the
order of the last one, so an ascending scan of orders builds about log2 N
records.
"""

from __future__ import annotations

import math
import weakref
from functools import cached_property, lru_cache

import numpy as np

from . import _LAZY
from .errors import DomainError, _integer, _Record

__all__ = list(_LAZY["ultraspherical"])

# math.gamma in the sphere surfaces overflows from D ~ 343; at D = 64 the
# quadrature oracle still matches the closed-form metrics to about 1e-8.
MAX_DIMENSION = 64.0

# Highest degree of a per-(N, D) record; its Gram matrix is O(N^2).
MAX_ORDER = 128

# Highest degree of the recurrences themselves: N + 1 values of P_n, even at
# one x, then take more than 2^48 doubles (2 PiB), which no machine holds.
_MAX_DEGREE = 2**48

# Most values (2^27 doubles, 1 GiB) that one call holds at once, checked
# before anything is allocated: (N + 1) x.size for the recurrences,
# (t + 4) L for `sampling.tdesign_check`, (t + 1) L^2 for the CLI's `tdesign`.
MAX_CELLS = 1 << 27

# |x| may overshoot 1 by at most this much before it is an error.
_X_CLAMP = 1e-12

# Points per block of `_chebyshev_sum`: its (N+1) x _BLOCK table of 2 T_m(x)
# is 1.06 MB at N = 128, within a 2 MB L2 cache.  Smaller blocks pay numpy's
# per-call cost more often on long x (100000 points at N = 128 took 1.3x as
# long with 256), and 2048 or more gained nothing.
_BLOCK = 1024

# Most (N, width) plans that `_chebyshev_sum` keeps between calls.  perfbench's
# `batch` reads at 33 keys (12 in its timed reads, 21 more in its oracle checks).
_PLANS = 48
_plans: dict = {}


def _sphere_surface(d: float) -> float:
    """Surface of the unit sphere S^(d-1) embedded in d dimensions, d >= 1."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


class Dimension(_Record):
    """Space dimension 2 <= D <= MAX_DIMENSION (64) with alpha = (D-2)/2.

    alpha is always computed from d, never stored, so the two cannot drift
    apart.  Non-integer dimensions are allowed; they interpolate between the
    Chebyshev (D=2) and Legendre (D=3) families.  Other D, and a d that is
    not a real number (`_real`), raise DomainError.  Two dimensions with one
    d are equal and hash alike, so a Dimension keys the record caches.
    """

    _fields = ("d",)

    def __init__(self, d: float) -> None:
        value = _real(d, "dimension")
        if not 2.0 <= value <= MAX_DIMENSION:
            raise DomainError(f"dimension must lie in [2, {MAX_DIMENSION:g}], got {d!r}")
        self.__dict__["d"] = value

    def __eq__(self, other):
        # `_Record`'s, for one float field: the record caches hash and compare keys
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.d == other.d

    def __hash__(self) -> int:
        return hash((self.d,))

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


def _dimension(dim) -> Dimension:
    """dim itself when it is a `Dimension`; any other value raises DomainError.

    A float is not converted: `Dimension(d)` is the one way to state a D.
    """
    if isinstance(dim, Dimension):
        return dim
    raise DomainError(f"dim must be a Dimension, got {dim!r}")


def surface_area(dim: Dimension) -> float:
    """Surface S_{D-1} = 2 pi^(D/2) / Gamma(D/2) of the unit sphere in D dimensions."""
    return _dimension(dim).surface


def _real(value, name: str) -> float:
    """float(value) for a real scalar; any other value (None, "abc", [0.5], 1j) raises DomainError.

    The package's one reader of a scalar real parameter; each caller checks
    the range on the float it returns.  A string that float() reads counts.
    A complex value, numpy's included, is refused, where float() would drop
    the imaginary part of a numpy one with a ComplexWarning only; a float
    or an int skips that test.
    """
    if type(value) is float or type(value) is int:
        return float(value)
    try:
        if np.iscomplexobj(value):
            raise TypeError("complex value")
        return float(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real number, got {value!r}") from exc


def _reals(values, name: str) -> np.ndarray:
    """values as a float array; a complex value or one that is not a number raises DomainError.

    The package's one reader of a real array argument (an x, the weights,
    the nodes, an aim, an integrand's values).  A float array comes back
    as it is, never copied; any other real array is converted as
    np.asarray(values, dtype=float) would convert it.  A complex array is
    refused, where that conversion would drop its imaginary parts with a
    ComplexWarning only.
    """
    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "c":
            raise TypeError("got complex values")
        return arr.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be finite real numbers: {exc}") from exc


def _clamp_argument(x, name: str = "x") -> np.ndarray:
    """x as a float array in [-1, 1]: the one check of x, run once per public call.

    An overshoot of at most 1e-12 is clipped into a new array; a larger one,
    NaN, +-inf, a complex value or a non-number raises DomainError.  The
    private helpers that receive x (`_series_sum`, `_chebyshev_sum`) take it
    checked.  Errors name the argument as `name`.
    """
    x = _reals(x, name)
    # inside [-1, 1] already (NaN fails both tests): x as it is, never written
    if x.size and -1.0 <= np.minimum.reduce(x, None) and np.maximum.reduce(x, None) <= 1.0:
        return x
    # written as a negated <= so that NaN fails the test as well
    if not (np.abs(x) <= 1.0 + _X_CLAMP).all():
        bad = np.max(np.abs(x))
        raise DomainError(f"{name} must be finite with |{name}| <= 1 "
                          f"(got max |{name}| = {bad!r})")
    return x.clip(-1.0, 1.0)


def _unscale(value, k):
    """value 2^k for a scaled float or array: the one way back from a power-of-two scaling.

    A Python float and an int k take math.ldexp (an infinity of value's sign
    where the result lies past the double range); anything else, an array
    or a numpy scalar with k an exponent per entry that broadcasts, takes
    np.ldexp with its overflow to +-inf silenced, and a 0-d result comes
    back as a float.  Both round alike, so either gives the same bits.
    """
    if type(value) is float:
        try:
            return math.ldexp(value, k)
        except OverflowError:
            return math.copysign(math.inf, value)
    with np.errstate(over="ignore"):
        out = np.ldexp(value, k)
    return float(out) if out.ndim == 0 else out


class _Basis:
    """The per-degree constants of P_0 .. P_N at one D.

    The O(N) rows are read-only rows of one table, built eagerly in one pass
    on Python floats: numpy calls on a few entries cost far more than their
    arithmetic, and every fresh D builds a record.  They are beta_1 ..
    beta_{N+1} (`beta_coeff`), N_n^2 (`norms_squared`), inv_sub = 1/(S_{D-2}
    N_n^2) (weights a_n to coefficients of g), P_n(0) (`value_at_zero`),
    P_n'(0) = n P_{n-1}(0) for odd n (as (1 - x^2) P_n' = n (P_{n-1} - x P_n)),
    sign = (-1)^n and lam = n (n + D - 2).  The O(N^2) `gram` and `chebyshev`,
    the Clenshaw factors `clenshaw` and the Jacobi off-diagonal `off` are
    `functools.cached_property` fields, built on first use; each array builder
    sets its result read-only.  `_series_sum` reads `chebyshev` for D <= 3 and
    `clenshaw` above.  A record of lower order at the same D is a `_Cut` of
    this one: views of its leading entries, equal bit for bit to a build.
    """

    def __init__(self, order: int, dim: Dimension) -> None:
        self.order = order
        self.dim = dim
        self.surface = dim.surface  # S_{D-1}
        d, a, sub = dim.d, dim.alpha, dim.subsurface
        v = self.surface / sub  # N_n^2
        beta, n2, inv_sub = [1.0], [v], [1.0 / (sub * v)]
        p0, dp0, sign, lam = [1.0], [0.0], [1.0], [0.0]
        b = even = 1.0  # beta_{n-1}, and P_{n'}(0) for the last even n' < n
        for n in range(1, order + 1):
            m = float(n)
            b, prev = (m + 2.0 * a) / (2.0 * (m + a)), b
            v = v * (1.0 - b) / prev
            beta.append(b)
            n2.append(v)
            inv_sub.append(1.0 / (sub * v))
            if n % 2:
                p0.append(0.0)
                dp0.append(m * even)
                sign.append(-1.0)
            else:
                even *= -(m - 1.0) / (m + d - 3.0)
                p0.append(even)
                dp0.append(0.0)
                sign.append(1.0)
            lam.append(m * (m + d - 2.0))
        # one flat list converts faster than a nested one
        rows = np.array(beta + n2 + inv_sub + p0 + dp0 + sign + lam).reshape(7, order + 1)
        rows.setflags(write=False)
        self._rows = rows
        self.beta, self.n2, self.inv_sub, self.p0, self.dp0, self.sign, self.lam = rows

    @cached_property
    def gram(self) -> np.ndarray:
        """Front-half Gram entries in closed form (see `gram_front`)."""
        p0, dp0, n2, lam = self.p0, self.dp0, self.n2, self.lam
        g = np.zeros((self.order + 1, self.order + 1))
        g.ravel()[::self.order + 2] = 1.0 / (2.0 * n2)  # the diagonal
        # row n even, column m odd: P_n(0) P_m'(0) / ((lambda_m - lambda_n) N_n^2 N_m^2)
        block = np.multiply.outer(p0[0::2] / n2[0::2], dp0[1::2] / n2[1::2])
        block /= lam[1::2] - lam[0::2, None]
        g[0::2, 1::2] = block
        g[1::2, 0::2] = block.T
        g.setflags(write=False)
        return g

    @cached_property
    def clenshaw(self) -> tuple:
        """Python floats ((alpha_k, 1/sigma_k) for k = N .. 0, sigma_0) of `_series_sum`."""
        d = self.dim.d
        n = self.order
        sigma = [1.0] * (n + 3)
        for k in range(n, -1, -1):
            sigma[k] = (k + 1.0) / (k + d - 1.0) * sigma[k + 2]
        steps = tuple(
            (((2.0 * k + d - 2.0) / (k + d - 2.0) if k else 1.0) * sigma[k + 1] / sigma[k],
             1.0 / sigma[k])
            for k in range(n, -1, -1)
        )
        return steps, sigma[0]

    @cached_property
    def chebyshev(self) -> np.ndarray:
        """Connection matrix C with P_n = sum_m C[m, n] T_m (DLMF 18.5.11).

        C[n - 2l, n] = w_nl (2 if n - 2l > 0 else 1), l <= n/2, where
        w_nl = (alpha)_l (alpha)_{n-l} n! / (l! (n-l)! (2 alpha)_n); every
        other entry is 0.  Each column is a convex combination of T_n,
        T_{n-2}, ..: C >= 0 and its columns sum to 1.  With
        r_k = (alpha+1)_{k-1} / k!, a cumulative product from r_0 = r_1 = 1,
        w_nl is proportional within column n to r_n at l = 0 and to
        alpha r_l r_{n-l} for 0 < l < n, so the column is formed from these
        and divided by its sum: that needs no (2 alpha)_n, takes the
        alpha -> 0 limit in closed form (C is exactly the identity at D = 2)
        and puts the exact sum of every column within 6 eps of 1 (N <= 128).
        """
        n, a = self.order, self.dim.alpha
        k = np.arange(2.0, n + 1.0)
        r = np.cumprod(np.concatenate(([1.0, 1.0], (a + k - 1.0) / k)))
        col, l = np.indices((n + 1, n // 2 + 1)).reshape(2, -1)
        keep = 2 * l <= col
        col, l = col[keep], l[keep]
        w = np.where(l == 0, r[col], a * r[l] * r[col - l])
        w[col - 2 * l > 0] *= 2.0
        c = np.zeros((n + 1, n + 1))
        c[col - 2 * l, col] = w
        c /= c.sum(axis=0)
        c.setflags(write=False)
        return c

    @cached_property
    def off(self) -> np.ndarray:
        """Orthonormal Jacobi matrix off-diagonal sqrt(beta_n (1 - beta_{n+1})), n = 1..N."""
        off = np.sqrt(self.beta[:-1] * (1.0 - self.beta[1:]))
        off.setflags(write=False)
        return off


class _Cut(_Basis):
    """The record of order N cut from a full record of order M >= N at the same D.

    Every field but `clenshaw` is prefix-stable: entry n depends on n and D
    alone (the column sums of `chebyshev` add only zeros past row n), so the
    rows and `gram`, `chebyshev` and `off` are read-only views of the
    parent's arrays, the leading N + 1 entries, equal bit for bit to a
    direct `_Basis(N, D)`.  The views of the parent's lazy fields are cut on
    first use, and `clenshaw`, whose sigma_k are seeded at the top degree,
    is built for order N itself.  The cut holds its parent, so a parent
    stays alive while it or one of its cuts is cached.
    """

    def __init__(self, parent: _Basis, order: int) -> None:
        self.order = order
        self.dim = parent.dim
        self.surface = parent.surface
        self.parent = parent
        rows = parent._rows[:, :order + 1]
        self.beta, self.n2, self.inv_sub, self.p0, self.dp0, self.sign, self.lam = rows

    @cached_property
    def gram(self) -> np.ndarray:
        """The parent's `gram`, rows and columns 0 .. N: a row-strided view."""
        return self.parent.gram[:self.order + 1, :self.order + 1]

    @cached_property
    def chebyshev(self) -> np.ndarray:
        """The parent's `chebyshev`, rows and columns 0 .. N: a row-strided view."""
        return self.parent.chebyshev[:self.order + 1, :self.order + 1]

    @cached_property
    def off(self) -> np.ndarray:
        """The parent's `off`, entries 1 .. N."""
        return self.parent.off[:self.order]


# The largest live full record of each D, the one a missing order is cut
# from.  Its values are weak: the LRU below is the only strong owner of a
# record, and every live full record is cached itself or is the parent of a
# cached cut, so at most 128 of them, each of order <= MAX_ORDER, are alive
# (besides those a caller holds).
_live: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@lru_cache(maxsize=128)
def _cached_basis(order: int, dim: Dimension) -> _Basis:
    """The record of (N, D): a cut of the live record at D if that reaches N, else a new build.

    A new build takes order max(N, min(MAX_ORDER, 2 M)), M the order of the
    live record at D (0 if there is none), so an ascending scan of orders
    builds about log2 N records and cuts the rest.
    """
    parent = _live.get(dim)
    if parent is None or parent.order < order:
        top = order if parent is None else max(order, min(MAX_ORDER, 2 * parent.order))
        parent = _live[dim] = _Basis(top, dim)
    return parent if parent.order == order else _Cut(parent, order)


def _basis(order: int, dim: Dimension, name: str = "order") -> _Basis:
    """The cached `_Basis` of (N, D), N checked under `name` before the cache is read.

    The check also makes 2.0 hash like 2, and a dim that is not a
    `Dimension` never reaches the cache.
    """
    return _cached_basis(_integer(order, name, 0, MAX_ORDER), _dimension(dim))


def gram_front(max_degree: int, dim: Dimension) -> np.ndarray:
    """Front-half Gram matrix g_nm = int_0^1 P_n P_m / (N_n^2 N_m^2) w dx in closed form.

    The scaling matches the pattern convention g(x) = sum a_n / (S_{D-2}
    N_n^2) P_n(x), so a^T G a is proportional to the front-half energy; with
    s = (-1)^n, a^T (G * outer(s, s)) a is the back-half energy.  Diagonal
    entries are 1/(2 N_n^2); the others follow from the boundary term of the
    Sturm-Liouville identity at x = 0,

        int_0^1 P_n P_m w dx = [P_n'(0) P_m(0) - P_m'(0) P_n(0)] / (lambda_n - lambda_m)

    with lambda_n = n (n + D - 2).  Same-parity entries vanish (P_n(0) = 0
    for odd n, P_n'(0) = 0 for even n), so only the even-odd block is formed
    and the matrix is exactly symmetric.  Returns the read-only array cached
    in the per-(N, D) record itself; where that record is a cut of a larger
    one at the same D, the array is a row-strided read-only view of the
    larger record's matrix, with the same values.
    """
    return _basis(max_degree, dim, "max_degree").gram


def eval_sequence(x, max_degree: int, dim: Dimension) -> np.ndarray:
    """Evaluate P_0(x) .. P_N(x) by the three-term recurrence.

    Uses P_0 = 1, P_1 = x and

        P_{n+1}(x) = (2n + D - 2)/(n + D - 2) x P_n(x) - n/(n + D - 2) P_{n-1}(x),

    which keeps the standardization P_n(1) = 1 for every degree.  One loop
    fills Python floats for a 0-d x (a ufunc on a 0-d array costs several
    times its arithmetic) and an (N+1,) + x.shape array otherwise, so every
    shape of x takes the same steps and gets the same bits.

    Parameters
    ----------
    x : float or array_like
        Evaluation point(s) in [-1, 1] (an overshoot below 1e-12 is clamped);
        a non-numeric, complex, NaN or infinite value raises DomainError.
    max_degree : int
        Highest degree 0 <= N <= 2^48, with (N + 1) x.size <= MAX_CELLS (2^27).
    dim : Dimension

    Returns
    -------
    numpy.ndarray
        Shape (N+1,) for scalar x, or (N+1,) + x.shape for arrays; entry n
        holds P_n(x).
    """
    return _sequence(x, _integer(max_degree, "max_degree", 0, _MAX_DEGREE), _dimension(dim))


def _sequence(x, max_degree: int, dim: Dimension, name: str = "x") -> np.ndarray:
    """`eval_sequence` for an N and a dim its caller has checked; x is checked here, as `name`.

    The N + 1 values at each point, or N + 1 steps for an empty x, must fit
    the budget MAX_CELLS: past it DomainError is raised before anything is
    allocated.
    """
    x = _clamp_argument(x, name)
    _integer((max_degree + 1) * max(1, x.size), "(N+1)*x.size", 1, MAX_CELLS)
    d = dim.d
    if x.ndim == 0:
        x, out = float(x), [0.0] * (max_degree + 1)
    else:
        out = np.empty((max_degree + 1,) + x.shape)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = x
    for n in range(1, max_degree):
        out[n + 1] = ((2.0 * n + d - 2.0) * x * out[n] - n * out[n - 1]) / (n + d - 2.0)
    return np.asarray(out)


def power_series_coeffs(n: int, dim: Dimension) -> np.ndarray:
    """Power-series coefficients c_0 .. c_n of P_n, so P_n(x) = sum c_k x^k.

    The leading coefficient is the closed form c_n = 2^n (alpha)_n / (2 alpha)_n,
    formed as the product of (2 alpha + 2i) / (2 alpha + i), i = 1 .. n-1 (the
    i = 0 factor is 1 for every D, and c_n = 2^(n-1) at D = 2).  The others
    follow downward by the termination recurrence

        c_k = -(k + 1)(k + 2) / ((n - k)(n + k + 2 alpha)) c_{k+2},

    so each coefficient is a product of O(n) well-conditioned factors and
    keeps its relative accuracy for every n <= MAX_ORDER (c_0 and c_1 agree
    with P_n(0) and P_n'(0) within 0.4 (n + 1) eps relative for D in {2, 2.5,
    3, 4, 7.3, 64}); coefficients of the opposite parity are
    exactly zero.  sum(c) = P_n(1) = 1 holds only as far as the alternating
    sum can be formed: sum |c_k| grows exponentially with n.
    """
    n = _integer(n, "n", 0, MAX_ORDER)
    two_alpha = _dimension(dim).d - 2.0
    c = np.zeros(n + 1, dtype=float)
    c[n] = math.prod((two_alpha + 2.0 * i) / (two_alpha + i) for i in range(1, n))
    for k in range(n - 2, -1, -2):
        c[k] = -((k + 1.0) * (k + 2.0)) / ((n - k) * (n + k + two_alpha)) * c[k + 2]
    return c


def beta_coeff(n: int, dim: Dimension) -> float:
    """Recurrence coefficient beta_n in x P_{n-1} = beta_n P_n + (1 - beta_n) P_{n-2}.

    beta_n = (n - 1 + 2 alpha) / (2 (n - 1 + alpha)) for n >= 2; beta_1 = 1 is
    the alpha -> 0 limit of the 0/0 expression and holds for every D.
    """
    # beta_n is the last entry of the order n - 1 record
    return float(_cached_basis(_integer(n, "n", 1, MAX_ORDER + 1) - 1, _dimension(dim)).beta[-1])


def norms_squared(max_degree: int, dim: Dimension) -> np.ndarray:
    """Squared norms N_0^2 .. N_N^2 of the polynomials under the axisymmetric weight.

    Computed by the product recurrence N_n^2 = (1 - beta_{n+1}) / beta_n * N_{n-1}^2
    started from N_0^2 = S_{D-1}/S_{D-2}.  The recurrence is the ground truth;
    `norm_squared_gamma` provides the closed form for cross-checking.  The
    result is cached per (N, D) and read-only.
    """
    return _basis(max_degree, dim, "max_degree").n2


def norm_squared(n: int, dim: Dimension) -> float:
    """Squared norm N_n^2 = integral of P_n^2 w over [-1, 1], including S_{D-1}/S_{D-2}."""
    return float(_basis(n, dim, "n").n2[-1])


def norm_squared_gamma(n: int, dim: Dimension) -> float:
    """Closed form for N_n^2 via log-Gamma, n! Gamma(D-1) / ((2n+D-2) Gamma(n+D-2)) * N_0^2.

    The Gamma(D-1) numerator reconciles the closed form with the recurrence
    for every real D (the two already agree for D = 2, 3 without it).  n is
    capped at MAX_ORDER: for large n the log-Gamma difference loses every digit.
    """
    n = _integer(n, "n", 0, MAX_ORDER)
    dim = _dimension(dim)
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


def _with_derivatives(x, max_degree: int, dim: Dimension):
    """P_0 .. P_N and P_0' .. P_N' at x, each shaped as `eval_sequence` returns.

    The derivatives follow the x-derivative of the three-term recurrence,

        P'_{n+1}(x) = [(2n + D - 2)(P_n(x) + x P'_n(x)) - n P'_{n-1}(x)] / (n + D - 2),

    from P'_0 = 0 and P'_1 = 1; it holds on all of [-1, 1], endpoints included.
    As in `eval_sequence`, one loop fills Python floats for a 0-d x and an
    array otherwise.  N and dim are checked by the caller, x by `_sequence`,
    and the checked x is read back as P_1 = x.
    """
    seq = _sequence(x, max_degree, dim)
    max_degree = len(seq) - 1
    d = dim.d
    if seq.ndim == 1:
        p, der = seq.tolist(), [0.0] * (max_degree + 1)
    else:
        p, der = seq, np.zeros_like(seq)
    if max_degree >= 1:
        x = p[1]
        der[1] = 1.0
    for n in range(1, max_degree):
        der[n + 1] = ((2.0 * n + d - 2.0) * (p[n] + x * der[n]) - n * der[n - 1]) / (n + d - 2.0)
    return seq, np.asarray(der)


def _series_sum(coeffs, x, basis: _Basis):
    """sum_n coeffs[n] P_n(x) for an array coeffs c_0 .. c_N and basis = `_basis(N, dim)`.

    For D <= 3 the sum is formed in the Chebyshev basis (`_chebyshev_sum` of
    `basis.chebyshev` @ coeffs), above by Clenshaw's backward recurrence.
    The change of basis trades the size of P_n for that of T_m: in the
    interior P_n(cos t) is of size (n sin t)^-alpha while T_m is not small,
    so against sum_n |c_n P_n(x)| the Chebyshev sum can lose a factor of up
    to about N^alpha.  For alpha <= 1/2 that is at most 11 at N = 128, and on
    the scale sum_n |c_n| the Chebyshev sum is the more accurate one (2.3e-13
    against Clenshaw's 9.1e-13 at N = 128, D = 2, 40-digit reference); at
    D = 16 it already loses 6e-7 of sum_n |c_n P_n(x)|, and at D = 64 every
    digit of the quadrature FBR that `compute_metrics_numeric` forms from it.

    Clenshaw: with P_{k+1} = A_k x P_k - B_k P_{k-1}, A_k = (2k+D-2)/(k+D-2),
    A_0 = 1 (the D = 2 limit) and B_k = k/(k+D-2), the recurrence b_k = c_k +
    A_k x b_{k+1} - B_{k+1} b_{k+2} (k = N, .., 0, from b_{N+1} = b_{N+2} = 0;
    the sum is b_0) is run on y_k = b_k / sigma_k, where sigma_{N+1} =
    sigma_{N+2} = 1 and sigma_k = B_{k+1} sigma_{k+2} <= 1 (so it cannot
    overflow) put a unit coefficient on y_{k+2} and alpha_k = A_k
    sigma_{k+1}/sigma_k,

        y_k = alpha_k x y_{k+1} - y_{k+2} + c_k / sigma_k,

    and the sum is sigma_0 y_0: four in-place ufuncs per degree on arrays of
    x's shape, or the same steps in the same order on Python floats for a
    0-d x, where those four calls would cost several times the arithmetic.
    Unlike `eval_sequence`, the two loops are not one body: written once
    for both, the array loop makes a new array per operation and took
    1.13-1.24x as long at N = 128, D = 5 on 181 to 100000 points; a P_n
    table folded as in `_chebyshev_sum` took 4.4x as long on 100000.
    The Chebyshev sum has one path for every shape: its numpy calls number
    O(log N), not O(N).  Either way a 0-d x gives a float, an array x an
    array of its shape, and every shape agrees bit for bit.  x is a float
    array already in [-1, 1]: the public caller checked it once
    (`_clamp_argument`, or a clip of its own), and no second check runs here.
    """
    if basis.dim.d <= 3.0:
        return _chebyshev_sum(basis.chebyshev @ coeffs, x)
    steps, sigma0 = basis.clenshaw
    pairs = zip(reversed(coeffs.tolist()), steps)
    if x.ndim == 0:
        t = float(x)
        s1 = s2 = 0.0
        for c, (a, inv) in pairs:
            s1, s2 = t * s1 * a - s2 + c * inv, s1
        return s1 * sigma0
    y1 = np.zeros(x.shape)
    y2 = np.zeros(x.shape)
    tmp = np.empty(x.shape)
    for c, (a, inv) in pairs:
        np.multiply(x, y1, out=tmp)
        tmp *= a
        np.subtract(tmp, y2, out=y2)
        y2 += c * inv
        y1, y2 = y2, y1
    y1 *= sigma0
    return y1


def _chebyshev_plan(n: int, width: int) -> tuple:
    """A new (n+1) x width table V of `_chebyshev_sum` and its row views: (V, steps, folds).

    A doubling step (new, low, V_k, mirror) forms rows k+1 .. k+j of V from
    rows 1 .. j, row k and rows k-1 .. k-j (reversed), j = min(k, n - k);
    a fold (lower, upper) adds rows m-h .. m-1 onto rows 0 .. h-1, h = m // 2.
    """
    v = np.empty((n + 1, width))
    steps, k = [], 1
    while k < n:
        j = min(k, n - k)
        steps.append((v[k + 1:k + j + 1], v[1:j + 1], v[k],
                      v[k - 1:k - j - 1 if k > j else None:-1]))
        k += j
    folds, m = [], n + 1
    while m > 1:
        h = m // 2
        folds.append((v[:h], v[m - h:m]))
        m -= h
    return v, tuple(steps), tuple(folds)


def _chebyshev_sum(d: np.ndarray, x: np.ndarray):
    """sum_m d_m T_m(x) for Chebyshev coefficients d_0 .. d_N and a checked x.

    A table of V_m = 2 T_m(x) is built by doubling, V_{k+j} = V_k V_j -
    V_{k-j} for j = 1 .. min(k, N - k), one block of rows per step (log2 N
    steps from V_0 = 2 and V_1 = 2x; the factor 2 is exact and saves a
    multiply per step).  The products d_m V_m are summed by folding the upper
    half of the rows onto the lower half until one row is left, which is then
    halved.  x of any shape, a 0-d one included, is flattened and taken
    `_BLOCK` points at a time, so the table stays in cache and memory is
    O(N _BLOCK).  Each point's column sees the same operations in the same
    order whatever the block width, so every shape agrees bit for bit
    (numpy's own row sums could not promise that: they sum one column
    pairwise and many columns row by row).  The result has x's shape; a 0-d
    x gives a float.

    The table of one block width and its row views (`_chebyshev_plan`) are
    kept between calls in the pool `_plans`, keyed by (N, width): at N = 32
    a call would otherwise rebuild about 36 views, most of a short read's
    cost.  A block checks its plan out of the pool (`dict.pop`) and puts it
    back when its column of sums is copied out, so no two calls ever write
    one table, whether they run on two threads or one call re-enters the
    sum; a call that finds its key checked out builds a plan of its own.
    The result is a new array, never pool memory.  The pool is cleared
    whole when it holds `_PLANS` plans, an eviction that needs no iteration
    over a dict that other threads change.  A plan holds at most 129 x 1024
    doubles (1.06 MB at N = MAX_ORDER), so the pool retains at most
    `_PLANS` x 1.06 MB = 51 MB, and far less for short reads: the 33 plans
    of perfbench's `batch` hold 0.36 MB.
    """
    n = d.size - 1
    flat = x.ravel()
    out = np.empty(flat.size)
    scale = d[:, None]
    for start in range(0, flat.size, _BLOCK):
        xb = flat[start:start + _BLOCK]
        key = (n, xb.size)
        plan = _plans.pop(key, None) or _chebyshev_plan(*key)
        v, steps, folds = plan
        v[0] = 2.0
        if n:
            np.multiply(xb, 2.0, out=v[1])
        for rows, low, vk, mirror in steps:
            np.multiply(low, vk, out=rows)
            rows -= mirror
        v *= scale
        for lower, upper in folds:
            lower += upper
        np.multiply(v[0], 0.5, out=out[start:start + xb.size])
        if len(_plans) >= _PLANS:
            _plans.clear()
        _plans[key] = plan
    return out.reshape(x.shape) if x.ndim else float(out[0])


def derivative(x, n: int, dim: Dimension):
    """First derivative P_n'(x), from the differentiated three-term recurrence.

    The recurrence holds at every x in [-1, 1], so the endpoint values
    P_n'(+-1) = (+-1)^(n+1) n (n + D - 2)/(D - 1) need no separate formula.
    """
    der = _with_derivatives(x, _integer(n, "n", 0, _MAX_DEGREE), _dimension(dim))[1][-1]
    return float(der) if der.ndim == 0 else der


def value_at_zero(n: int, dim: Dimension) -> float:
    """P_n(0): zero for odd n, a cumulative product for even n.

    For n = 2m the value is prod_{i<=m} -(2i-1)/(2i+D-3), which equals
    (-1)^m (2m)! (alpha)^(rising m) / (m! (2 alpha)^(rising 2m)) and is exact
    at D = 2, where every factor is -1.  Each factor adds a few roundings,
    so the relative error grows only linearly in m (within 1.1e-15 of a
    40-digit product for n <= 128).
    """
    return float(_basis(n, dim, "n").p0[-1])


def cd_kernel(x, x0: float, max_degree: int, dim: Dimension):
    """Christoffel-Darboux kernel K_N(x, x0) = sum_{n<=N} P_n(x) P_n(x0) / N_n^2, x0 one value.

    One series sum (`_series_sum`, x checked as in `eval_pattern`): error <= 1e-12
    sum_n |terms| for N <= 128, any x.  x0 is checked by `_sequence`.
    """
    basis = _basis(max_degree, dim, "max_degree")
    seq = _sequence(x0, basis.order, dim, "x0")
    if seq.ndim != 1:
        raise DomainError(f"x0 must be one value, got shape {seq.shape[1:]}")
    return _series_sum(seq / basis.n2, _clamp_argument(x), basis)
