import inspect
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from axibeam import (
    Dimension,
    DomainError,
    Normalization,
    WeightVector,
    basic,
    beta_coeff,
    cd_kernel,
    compute_metrics,
    compute_metrics_numeric,
    eval_pattern,
    eval_sequence,
    gram_front,
    inphase,
    max_re,
    norms_squared,
)
from axibeam.ultraspherical import _basis

D2 = Dimension(2.0)
D3 = Dimension(3.0)
D4 = Dimension(4.0)


def raw(dim, a):
    return WeightVector(dim, np.asarray(a, dtype=float), Normalization.RAW)


class TestEvalPattern:
    def test_basic_on_axis(self):
        for order in range(6):
            expected = (order + 1) ** 2 / (4.0 * math.pi)
            assert eval_pattern(basic(order, D3), 1.0) == pytest.approx(
                expected, rel=1e-12
            )

    def test_cardioid_null(self):
        assert eval_pattern(inphase(1, D3), -1.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "d, order, scale, x, want",
        [(64.0, 1, 1e300, [-1.0, 0.0, 1.0], [0.0, math.inf, math.inf]),
         (2.0, 7, 1.7e308, [1.0], [1.291640675684715e308]),
         (3.0, 7, 1.7e308, [1.0], [1.082253613024888e308])],
        ids=["D64-null-and-overflow", "D2-near-max", "D3-near-max"],
    )
    def test_extreme_scales(self, d, order, scale, x, want):
        # the sum runs on the weights scaled by 2^-k and is scaled back by 2^k:
        # the exact null of (1+x)^N stays 0, a value past the double range is
        # inf, and one just inside it stays finite, with no warning either way
        dim = Dimension(d)
        vec = raw(dim, scale * inphase(order, dim).a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = eval_pattern(vec, np.array(x))
            scalar = [eval_pattern(vec, xi) for xi in x]
        assert got.tolist() == scalar == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_basic_equals_dirac_kernel(self):
        rng = np.random.default_rng(13)
        for d in (2.0, 3.0, 4.0):
            dim = Dimension(d)
            vec = basic(5, dim)
            for x in rng.uniform(-1.0, 1.0, size=8):
                expected = cd_kernel(float(x), 1.0, 5, dim) / dim.subsurface
                assert eval_pattern(vec, float(x)) == pytest.approx(expected, rel=1e-11)

    def test_closed_form_difference_quotient(self):
        # (D-1)/(2N+D-1) (P_{N+1} - P_N)/(x - 1), normalized to g(1) = 1
        from axibeam import eval_sequence

        order = 5
        vec = basic(order, D3)
        g1 = eval_pattern(vec, 1.0)
        for x in (-0.8, -0.2, 0.4, 0.9):
            seq = eval_sequence(x, order + 1, D3)
            closed = (
                (D3.d - 1.0)
                / (2 * order + D3.d - 1.0)
                * (seq[order + 1] - seq[order])
                / (x - 1.0)
            )
            assert eval_pattern(vec, x) / g1 == pytest.approx(closed, rel=1e-11)


class TestClenshawSum:
    """eval_pattern's series sum (Chebyshev basis for D <= 3, Clenshaw above) against references."""

    @staticmethod
    def table_sum(vec, x):
        c = vec.a / (vec.dim.subsurface * norms_squared(vec.order, vec.dim))
        return np.tensordot(c, eval_sequence(x, vec.order, vec.dim), axes=(0, 0)), np.sum(np.abs(c))

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 7.3, 64.0])
    @pytest.mark.parametrize("order", [0, 1, 2, 17, 64, 128])
    def test_matches_table_sum(self, order, d):
        rng = np.random.default_rng(order)
        vec = raw(Dimension(d), rng.standard_normal(order + 1))
        x = np.concatenate(([-1.0, 1.0, 0.0], rng.uniform(-1.0, 1.0, 61)))
        ref, scale = self.table_sum(vec, x)
        bound = 2e-13 * scale
        g = eval_pattern(vec, x)
        assert g.shape == x.shape
        assert np.max(np.abs(g - ref)) <= bound
        # the (2, n) stack that compute_metrics_numeric passes
        stack = eval_pattern(vec, np.stack([x, -x]))
        assert stack.shape == (2, x.size)
        assert np.array_equal(stack[0], g)
        assert np.max(np.abs(stack[1] - self.table_sum(vec, -x)[0])) <= bound
        # a float x gives a float with the same bits: the Chebyshev sum
        # (D <= 3) runs its one block path, Clenshaw the same steps on floats
        for i in range(4):
            val = eval_pattern(vec, float(x[i]))
            assert type(val) is float
            assert val == g[i]
        assert type(eval_pattern(vec, np.array(0.5))) is float

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 7.3, 64.0])
    @pytest.mark.parametrize("order", [32, 128])
    def test_matches_mpmath(self, order, d):
        # the coefficients c_n = a_n/(S_{D-2} N_n^2) that eval_pattern sums,
        # summed against P_n(x) at 40 digits, at random x and within
        # 1e-16 .. 1e-1 of +-1; worst errors seen, over sum|c_n|: 2.2e-13
        # for one top-degree weight (N = 128, D = 2, x = 1 - 1e-6) and
        # 1.6e-14 for random weights (the Clenshaw sum it replaced: 9.0e-13
        # and 5.3e-14)
        mp = pytest.importorskip("mpmath", exc_type=ImportError)
        dim = Dimension(d)
        rng = np.random.default_rng(order)
        near = 10.0 ** -np.arange(16.0, 0.0, -1.0)
        x = np.concatenate((rng.uniform(-1.0, 1.0, 20), [1.0, -1.0], 1.0 - near, near - 1.0))
        top = np.zeros(order + 1)
        top[order] = 1.0
        for a, bound in ((top, 5e-13), (rng.standard_normal(order + 1), 4e-14)):
            c = a * _basis(order, dim).inv_sub
            g = eval_pattern(raw(dim, a), x)
            with mp.workdps(40):
                for xi, gi in zip(x.tolist(), g.tolist()):
                    t, p0, p1 = mp.mpf(xi), mp.mpf(1), mp.mpf(xi)
                    total = c[0] + c[1] * p1
                    for n in range(1, order):
                        p0, p1 = p1, ((2 * n + d - 2) * t * p1 - n * p0) / (n + d - 2)
                        total += c[n + 1] * p1
                    assert abs(gi - total) <= bound * np.abs(c).sum(), xi

    @pytest.mark.parametrize("bad", [1.001, -1.001, float("nan"), float("inf")])
    def test_rejects_out_of_range(self, bad):
        vec = max_re(4, D3).weights
        with pytest.raises(DomainError):
            eval_pattern(vec, bad)
        with pytest.raises(DomainError):
            eval_pattern(vec, np.array([0.5, bad]))

    def test_builds_no_gram(self):
        # D = 5.25 is used by no other test, so its record starts empty
        eval_pattern(raw(Dimension(5.25), np.ones(23)), np.linspace(-1.0, 1.0, 5))
        assert "inv_sub" in vars(_basis(22, Dimension(5.25)))
        assert "gram" not in vars(_basis(22, Dimension(5.25)))


def record_fields(*names):
    return lambda: tuple(getattr(_basis(9, D3), name) for name in names)


class TestMetricKernel:
    """compute_metrics reads its per-(N, D) arrays from the cached record `_basis`."""

    @pytest.mark.parametrize(
        "fn, cached",
        [
            (compute_metrics, record_fields("inv_sub", "n2", "beta", "gram", "sign")),
            (eval_pattern, record_fields("inv_sub", "chebyshev")),
            (gram_front, lambda: (gram_front(9, D3),)),
            (norms_squared, lambda: (norms_squared(9, D3),)),
        ],
        ids=["compute_metrics", "eval_pattern", "gram_front", "norms_squared"],
    )
    def test_cached_read_only(self, fn, cached):
        # a plain function in front of the cache: perfbench/spans.py traces only
        # objects that pass inspect.isfunction, which an lru_cache wrapper does not
        assert inspect.isfunction(fn)
        arrays = cached()
        assert all(a is b for a, b in zip(arrays, cached()))
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0

    def test_kernel_cached_per_order_and_dimension(self):
        assert _basis(9, Dimension(3)) is _basis(9, D3)
        assert _basis(9, D3) is not _basis(10, D3)
        assert gram_front(9, D3) is _basis(9, D3).gram
        assert norms_squared(9, D3) is _basis(9, D3).n2

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 7.3, 64.0])
    def test_matches_direct_formulas(self, d):
        # the formulas without the record, each (N, D) array rebuilt in place;
        # the arithmetic is the same, so every field agrees bit for bit
        dim = Dimension(d)
        rng = np.random.default_rng(17)
        for order in (0, 1, 5, 32, 128):
            weights = raw(dim, rng.standard_normal(order + 1) * 1e5)
            _, k = np.frexp(np.max(np.abs(weights.a)))
            a = np.ldexp(weights.a, -k)
            n2 = norms_squared(order, dim)
            inv = 1.0 / (dim.subsurface * n2)
            e = float(np.sum(a * a * inv))
            g1 = float(np.sum(a * inv))
            beta = np.array([beta_coeff(n, dim) for n in range(1, order + 2)])
            num = float(np.sum(2.0 * beta[:-1] * a[:-1] * a[1:] / n2[:-1]))
            gram = gram_front(order, dim)
            back = a * (-1.0) ** np.arange(order + 1)
            met = compute_metrics(weights)
            assert met.p == weights.a[0]
            assert met.e == float(np.ldexp(e, 2 * k))
            assert met.q == dim.surface * g1 * g1 / e
            assert met.r_v == (float(weights.a[1] / weights.a[0]) if order else 0.0)
            assert met.r_e == num / float(np.sum(a * a / n2))
            assert met.fbr == float(a @ gram @ a) / float(back @ gram @ back)


class TestComputeMetrics:
    def test_basic_sphere(self):
        for order in range(1, 8):
            met = compute_metrics(basic(order, D3))
            assert met.q == pytest.approx((order + 1) ** 2, rel=1e-12)
            assert met.r_v == pytest.approx(1.0, abs=1e-14)

    def test_max_re_circle_third_order(self):
        met = compute_metrics(max_re(3, D2).weights)
        assert met.r_e == pytest.approx(math.cos(math.pi / 8.0), abs=1e-13)

    def test_omnidirectional(self):
        vec = raw(D3, [1.0, 0.0, 0.0])
        met = compute_metrics(vec)
        assert met.p == 1.0
        assert met.e == pytest.approx(1.0 / (D3.subsurface * 2.0), rel=1e-13)
        assert met.r_v == 0.0
        assert met.r_e == 0.0
        assert met.q == pytest.approx(1.0, rel=1e-12)
        assert met.fbr == pytest.approx(1.0, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1.0, 1.0, size=6)
        base = compute_metrics(raw(D3, a))
        for c in (2.0, -0.5, 1e-3):
            scaled = compute_metrics(raw(D3, c * a))
            assert scaled.q == pytest.approx(base.q, rel=1e-12)
            assert scaled.r_v == pytest.approx(base.r_v, rel=1e-12)
            assert scaled.r_e == pytest.approx(base.r_e, rel=1e-12)
            assert scaled.fbr == pytest.approx(base.fbr, rel=1e-12)
            assert scaled.p == pytest.approx(c * base.p, rel=1e-12)
            assert scaled.e == pytest.approx(c * c * base.e, rel=1e-12)

    @pytest.mark.parametrize("d", [2.0, 3.0, 4.0])
    def test_energy_vector_bound(self, d):
        # no real weight vector beats the max-rE root
        dim = Dimension(d)
        rng = np.random.default_rng(29)
        for order in range(1, 7):
            bound = max_re(order, dim).r_e_max
            for _ in range(1000):
                a = rng.normal(size=order + 1)
                met = compute_metrics(raw(dim, a))
                assert met.r_e <= bound + 1e-12

    def test_circle_closed_forms(self):
        # Fourier-series reading: factors (2 - delta_n) weight every n >= 1 twice
        rng = np.random.default_rng(5)
        a = rng.uniform(-1.0, 1.0, size=5)
        met = compute_metrics(raw(D2, a))
        two = 2.0 - (np.arange(5) == 0)
        assert met.e == pytest.approx(np.sum(two * a * a) / (2 * math.pi), rel=1e-12)
        assert met.q == pytest.approx(
            np.sum(two * a) ** 2 / np.sum(two * a * a), rel=1e-12
        )
        assert met.r_e == pytest.approx(
            2.0 * np.sum(a[:-1] * a[1:]) / np.sum(two * a * a), rel=1e-12
        )
        assert met.r_v == pytest.approx(a[1] / a[0], rel=1e-14)

    def test_sphere_closed_forms(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(-1.0, 1.0, size=6)
        met = compute_metrics(raw(D3, a))
        n = np.arange(6)
        assert met.e == pytest.approx(
            np.sum((2 * n + 1) * a * a) / (4 * math.pi), rel=1e-12
        )
        assert met.q == pytest.approx(
            np.sum((2 * n + 1) * a) ** 2 / np.sum((2 * n + 1) * a * a), rel=1e-12
        )
        assert met.r_e == pytest.approx(
            np.sum(2 * (n[:-1] + 1) * a[:-1] * a[1:]) / np.sum((2 * n + 1) * a * a),
            rel=1e-12,
        )

    def test_zero_pressure_policy(self):
        vec = raw(D3, [0.0, 1.0])
        met = compute_metrics(vec)
        assert met.r_v is None
        assert met.e > 0.0
        assert compute_metrics_numeric(vec).r_v is None

    @pytest.mark.parametrize(
        "a, shift", [([1e200, 5e199, 1e199], 664), ([1e-200, 5e-201, 1e-201], -664)],
        ids=["1e200", "1e-200"],
    )
    def test_extreme_scales_match_unscaled(self, a, shift):
        base = compute_metrics(raw(D3, [1.0, 0.5, 0.1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            met = compute_metrics(raw(D3, a))
            exact = compute_metrics(raw(D3, np.ldexp([1.0, 0.5, 0.1], shift)))
        for field in ("q", "r_v", "r_e", "fbr"):
            assert getattr(met, field) == pytest.approx(getattr(base, field), rel=1e-14)
            # a power-of-two scale leaves every ratio bit-identical
            assert getattr(exact, field) == getattr(base, field)
        assert met.p == a[0]
        # the true energy, about 0.14 * a_0^2, lies outside the double range
        assert met.e == (math.inf if shift > 0 else 0.0)

    @pytest.mark.parametrize("a", [[1e-300, 1e300], [5e-324, 1e308]], ids=["1e-300", "5e-324"])
    def test_rv_past_double_range_is_inf(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            met = compute_metrics(raw(D3, a))
        assert met.r_v == math.inf

    def test_zero_energy_is_domain_error(self):
        vec = raw(D3, [0.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            compute_metrics(vec)
        with pytest.raises(DomainError):
            compute_metrics_numeric(vec)

    def test_analytic_path_does_not_load_scipy(self):
        # axibeam depends on numpy alone; see also test_quadrature's check of
        # the quadrature paths
        code = (
            "import sys, axibeam\n"
            "from axibeam import Dimension, cap, cap_trapezoid, compute_metrics, max_re\n"
            "compute_metrics(max_re(8, Dimension(2.5)).weights)\n"
            "cap(8, -0.99999, Dimension(2.5))\n"
            "cap_trapezoid(8, 40.0, Dimension(3.5))\n"
            "print('scipy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestNumericOracle:
    def test_inphase_fbr_closed_integral(self):
        # FBR of (1+x)^2 patterns: int_0^1 (1+x)^4 dx / int_-1^0 (1+x)^4 dx = 31
        met = compute_metrics_numeric(inphase(2, D3))
        assert met.fbr == pytest.approx(31.0, rel=1e-11)
        assert compute_metrics(inphase(2, D3)).fbr == pytest.approx(31.0, rel=1e-11)

    def test_constant_pattern_fbr(self):
        met = compute_metrics_numeric(basic(0, D3))
        assert met.fbr == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "scale", [2.0**-600, 2.0**600, 5e-324, 1e-300, 1e-170, 1e170, 1e300]
    )
    @pytest.mark.parametrize(
        "d, a", [(3.0, [1.0, 1.0]), (64.0, [1.0])], ids=["D3-cardioid", "D64-omni"]
    )
    def test_extreme_scales_match_unscaled(self, d, a, scale):
        # the weights are scaled by an exact power of two before the pattern
        # is summed, as in compute_metrics (Q = 4, rE = 1/2, FBR = 7 for the
        # cardioid); at D = 64, 1/S_62 is about 5e17, so unscaled samples of
        # 1e300 weights would overflow even though the weights do not
        dim = Dimension(d)
        base = compute_metrics_numeric(raw(dim, a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            met = compute_metrics_numeric(raw(dim, np.multiply(scale, a)))
        exact = math.frexp(scale)[0] == 0.5
        for field in ("q", "r_v", "r_e", "fbr"):
            got, want = getattr(met, field), getattr(base, field)
            assert got == (want if exact else pytest.approx(want, rel=1e-14))
        assert met.p == pytest.approx(scale * base.p, rel=1e-14)
        # s^2 E is inf or 0 outside the double range; at D = 64 and s = 1e-170
        # it is about 5e-323, a subnormal that keeps one digit
        assert met.e == pytest.approx(scale * base.e * scale, rel=1e-14, abs=1e-322)

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0])
    def test_agreement_spot_checks(self, d):
        dim = Dimension(d)
        rng = np.random.default_rng(8)
        for order in (1, 3, 6):
            a = rng.uniform(-1.0, 1.0, size=order + 1)
            a[0] += 2.0  # keep a_0 well away from zero
            analytic = compute_metrics(raw(dim, a))
            numeric = compute_metrics_numeric(raw(dim, a))
            for field in ("p", "e", "q", "r_v", "r_e", "fbr"):
                assert getattr(numeric, field) == pytest.approx(
                    getattr(analytic, field), rel=1e-9, abs=1e-10
                )
