import gc
import inspect
import math
import sys
import threading
import weakref

import numpy as np
import pytest

from axibeam import (
    Dimension,
    DomainError,
    WeightVector,
    beta_coeff,
    cd_kernel,
    derivative,
    eval_pattern,
    eval_sequence,
    norm_squared,
    norm_squared_gamma,
    norms_squared,
    power_series_coeffs,
    surface_area,
    value_at_zero,
)
from axibeam import ultraspherical
from axibeam.quadrature import integrate_axisym
from axibeam.ultraspherical import (MAX_DIMENSION, MAX_ORDER, _Basis, _basis, _with_derivatives,
                                    gram_front)

D2 = Dimension(2.0)
D3 = Dimension(3.0)
D4 = Dimension(4.0)


def chebyshev_recurrence(x, max_degree):
    """Independent oracle: T_{m+1} = (2 - delta_m0) x T_m - T_{m-1}."""
    vals = [1.0, x]
    for m in range(1, max_degree):
        vals.append((2.0 if m else 1.0) * x * vals[m] - vals[m - 1])
    return np.array(vals[: max_degree + 1])


def legendre_recurrence(x, max_degree):
    """Independent oracle: (n+1) P_{n+1} = (2n+1) x P_n - n P_{n-1}."""
    vals = [1.0, x]
    for n in range(1, max_degree):
        vals.append(((2 * n + 1) * x * vals[n] - n * vals[n - 1]) / (n + 1))
    return np.array(vals[: max_degree + 1])


class TestDimension:
    def test_alpha_derived(self):
        assert Dimension(2.0).alpha == 0.0
        assert Dimension(3.0).alpha == 0.5
        assert Dimension(5.5).alpha == 1.75

    @pytest.mark.parametrize("bad", [1.0, 1.999999, -3.0, float("nan"), float("inf")])
    def test_rejects_dim_below_two(self, bad):
        with pytest.raises(DomainError):
            Dimension(bad)

    @pytest.mark.parametrize("bad", [MAX_DIMENSION + 0.5, 400.0])
    def test_rejects_dim_above_max(self, bad):
        # D = 400 used to overflow math.gamma in the sphere surfaces
        with pytest.raises(DomainError):
            norms_squared(3, Dimension(bad))

    def test_max_dimension_in_range(self):
        n2 = norms_squared(3, Dimension(MAX_DIMENSION))
        assert np.all(np.isfinite(n2)) and np.all(n2 > 0.0)


class TestSurfaceArea:
    def test_circle(self):
        assert surface_area(D2) == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_sphere(self):
        assert surface_area(D3) == pytest.approx(4.0 * math.pi, abs=1e-12)

    def test_glome_against_gamma(self):
        # independent evaluation of 2 pi^(D/2) / Gamma(D/2)
        expected = 2.0 * math.pi ** 2.0 / math.gamma(2.0)
        assert surface_area(D4) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(2.0 * math.pi**2, rel=1e-14)


class TestEvalSequence:
    def test_standardization_at_one(self):
        assert eval_sequence(1.0, 5, D3) == pytest.approx([1.0] * 6, abs=0.0)

    def test_legendre_table_value(self):
        assert eval_sequence(0.5, 2, D3)[2] == pytest.approx(-0.125, abs=1e-15)

    def test_chebyshev_is_cosine(self):
        rng = np.random.default_rng(42)
        for phi in rng.uniform(0.0, math.pi, size=12):
            seq = eval_sequence(math.cos(phi), 8, D2)
            for m in range(9):
                assert seq[m] == pytest.approx(math.cos(m * phi), abs=1e-12)

    def test_matches_power_series_d4(self):
        x = 0.3
        seq = eval_sequence(x, 6, D4)
        for n in range(7):
            brute = float(np.polynomial.polynomial.polyval(x, power_series_coeffs(n, D4)))
            assert seq[n] == pytest.approx(brute, abs=1e-12)

    def test_clamps_tiny_overshoot(self):
        seq = eval_sequence(1.0 + 1e-13, 3, D3)
        assert seq[3] == pytest.approx(1.0, abs=1e-13)

    def test_rejects_large_x(self):
        with pytest.raises(DomainError):
            eval_sequence(1.001, 3, D3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), "a"])
    def test_rejects_non_finite_x(self, bad):
        with pytest.raises(DomainError):
            eval_sequence(bad, 3, D3)
        with pytest.raises(DomainError):
            eval_sequence(np.array([0.5, bad]), 3, D3)
        with pytest.raises(DomainError):
            cd_kernel(0.5, bad, 3, D3)

    def test_array_shape(self):
        xs = np.linspace(-1.0, 1.0, 7)
        seq = eval_sequence(xs, 4, D3)
        assert seq.shape == (5, 7)
        assert seq[0] == pytest.approx(np.ones(7), abs=0.0)

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0, 40.0, 64.0])
    def test_standardization_exact(self, d):
        # (2n + D - 2) - n and n + D - 2 round alike for these D, so the
        # recurrence keeps P_n(+-1) = (+-1)^n with no rounding at all
        dim = Dimension(d)
        assert np.array_equal(eval_sequence(1.0, 128, dim), np.ones(129))
        assert np.array_equal(eval_sequence(-1.0, 128, dim), (-1.0) ** np.arange(129))

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0, 5.0])
    def test_standardization_invariant(self, d):
        seq = eval_sequence(1.0, 30, Dimension(d))
        assert np.max(np.abs(seq - 1.0)) < 1e-12

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0])
    def test_parity(self, d):
        rng = np.random.default_rng(7)
        dim = Dimension(d)
        for x in rng.uniform(-1.0, 1.0, size=8):
            plus = eval_sequence(x, 20, dim)
            minus = eval_sequence(-x, 20, dim)
            signs = (-1.0) ** np.arange(21)
            assert minus == pytest.approx(plus * signs, abs=1e-12)

    def test_specializations(self):
        rng = np.random.default_rng(3)
        for x in rng.uniform(-1.0, 1.0, size=10):
            assert eval_sequence(x, 12, D2) == pytest.approx(
                chebyshev_recurrence(x, 12), abs=1e-12
            )
            assert eval_sequence(x, 12, D3) == pytest.approx(
                legendre_recurrence(x, 12), abs=1e-12
            )


class TestPowerSeriesCoeffs:
    def test_legendre_row_four(self):
        assert power_series_coeffs(4, D3) == pytest.approx(
            [3 / 8, 0.0, -30 / 8, 0.0, 35 / 8], abs=1e-12
        )

    def test_chebyshev_leading_degree_nine(self):
        assert power_series_coeffs(9, D2)[9] == pytest.approx(256.0, rel=1e-13)

    def test_degree_zero(self):
        assert power_series_coeffs(0, D4) == pytest.approx([1.0], abs=0.0)

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0])
    def test_opposite_parity_exactly_zero(self, d):
        dim = Dimension(d)
        for n in range(1, 12):
            c = power_series_coeffs(n, dim)
            assert np.all(c[(n % 2) ^ 1 :: 2] == 0.0)

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0])
    def test_sums_to_one(self, d):
        # sum(|c_k|) grows exponentially with n, so the re-summation of the
        # normalized coefficients is only conditioned to ~1e-12 for n <= 12
        dim = Dimension(d)
        for n in range(13):
            assert float(np.sum(power_series_coeffs(n, dim))) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_leading_coefficient_positive(self):
        for d in (2.0, 3.0, 4.5):
            for n in range(1, 14):
                assert power_series_coeffs(n, Dimension(d))[n] > 0.0


class TestBetaCoeff:
    def test_beta_one_is_one(self):
        for d in (2.0, 2.5, 3.0, 6.0):
            assert beta_coeff(1, Dimension(d)) == 1.0

    def test_legendre_value(self):
        assert beta_coeff(3, D3) == pytest.approx(0.6, abs=1e-15)

    def test_chebyshev_limit(self):
        # T_2 = 2 x T_1 - T_0 gives x T_1 = (T_2 + T_0)/2, so beta_2 = 1/2
        assert beta_coeff(2, D2) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("d", [2.5, 3.0, 4.0])
    def test_matches_leading_coefficient_ratio(self, d):
        dim = Dimension(d)
        for n in range(2, 10):
            ratio = power_series_coeffs(n - 1, dim)[n - 1] / power_series_coeffs(n, dim)[n]
            assert beta_coeff(n, dim) == pytest.approx(ratio, rel=1e-11)

    def test_recurrence_identity(self):
        # x P_{n-1} = beta_n P_n + (1 - beta_n) P_{n-2} pointwise
        rng = np.random.default_rng(11)
        for d in (2.0, 2.7, 3.0, 4.0):
            dim = Dimension(d)
            for x in rng.uniform(-1.0, 1.0, size=5):
                seq = eval_sequence(x, 10, dim)
                for n in range(2, 10):
                    b = beta_coeff(n, dim)
                    assert x * seq[n - 1] == pytest.approx(
                        b * seq[n] + (1 - b) * seq[n - 2], abs=1e-13
                    )


def scalar_beta(n, dim):
    """Reference: beta_n by its scalar formula, with the beta_1 = 1 limit."""
    a = dim.alpha
    return 1.0 if n == 1 else (n - 1.0 + 2.0 * a) / (2.0 * (n - 1.0 + a))


def scalar_norms(max_degree, dim):
    """Reference: the per-n product recurrence over `scalar_beta`."""
    out = [dim.n0_squared]
    for n in range(1, max_degree + 1):
        out.append(out[-1] * (1.0 - scalar_beta(n + 1, dim)) / scalar_beta(n, dim))
    return np.array(out)


class TestNormSquared:
    def test_chebyshev_values(self):
        assert norm_squared(0, D2) == pytest.approx(math.pi, rel=1e-14)
        for n in range(1, 8):
            assert norm_squared(n, D2) == pytest.approx(math.pi / 2.0, rel=1e-14)

    def test_legendre_values(self):
        for n in range(12):
            assert norm_squared(n, D3) == pytest.approx(2.0 / (2 * n + 1), rel=1e-13)

    def test_d4_against_quadrature(self):
        oracle = integrate_axisym(
            lambda x: eval_sequence(x, 2, D4)[2] ** 2, D4, degree_hint=4
        )
        assert norm_squared(2, D4) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0, 5.0])
    def test_gamma_closed_form_matches_recurrence(self, d):
        dim = Dimension(d)
        n2 = norms_squared(20, dim)
        for n in range(21):
            assert norm_squared_gamma(n, dim) == pytest.approx(n2[n], rel=1e-12)

    def test_gamma_closed_form_matches_mpmath(self):
        # the log-Gamma difference loses digits as n grows (1.9e-13 worst
        # seen, at D = 30, n = 123); past MAX_ORDER it is refused
        mp = pytest.importorskip("mpmath", exc_type=ImportError)
        worst = 0.0
        with mp.workdps(40):
            for d in (2.0, 2.5, 3.0, 7.3, 30.0, 64.0):
                dim, big_d = Dimension(d), mp.mpf(d)
                n0 = mp.sqrt(mp.pi) * mp.gamma((big_d - 1) / 2) / mp.gamma(big_d / 2)
                for n in range(MAX_ORDER + 1):
                    ref = n0 if n == 0 else (
                        n0 * mp.factorial(n) * mp.gamma(big_d - 1)
                        / ((2 * n + big_d - 2) * mp.gamma(n + big_d - 2)))
                    worst = max(worst, float(abs(mp.mpf(norm_squared_gamma(n, dim)) / ref - 1)))
        assert worst <= 5e-13
        for n in (MAX_ORDER + 1, 10**4, 10**18, 10**30):
            with pytest.raises(DomainError, match=f"<= {MAX_ORDER}"):
                norm_squared_gamma(n, D3)

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0, 64.0])
    def test_vectorised_betas_and_norms_match_scalar_loop(self, d):
        # same operations in the same order, so equality is exact
        dim = Dimension(d)
        betas = [scalar_beta(n, dim) for n in range(1, 130)]
        assert np.array_equal(_Basis(128, dim).beta, betas)
        assert [beta_coeff(n, dim) for n in range(1, 130)] == betas
        ref = scalar_norms(128, dim)
        for n in (0, 1, 2, 17, 127, 128):
            assert np.array_equal(norms_squared(n, dim), ref[: n + 1])

    def test_cached_read_only(self):
        # a plain function in front of the cache: perfbench/spans.py traces only
        # objects that pass inspect.isfunction, which an lru_cache wrapper does not
        assert inspect.isfunction(norms_squared)
        first = norms_squared(12, D3)
        assert norms_squared(12, Dimension(3)) is first
        assert first is _basis(12, D3).n2
        with pytest.raises(ValueError):
            first[0] = 1.0
        assert np.array_equal(first, _Basis(12, D3).n2)

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0])
    def test_orthogonality_against_quadrature(self, d):
        dim = Dimension(d)
        n2 = norms_squared(10, dim)
        for n in range(11):
            for m in range(n, 11):
                val = integrate_axisym(
                    lambda x: eval_sequence(x, 10, dim)[n] * eval_sequence(x, 10, dim)[m],
                    dim,
                    degree_hint=n + m,
                )
                expected = n2[n] if n == m else 0.0
                assert val == pytest.approx(expected, abs=1e-9)


class TestDerivative:
    def test_endpoint_formula(self):
        assert derivative(1.0, 3, D3) == pytest.approx(6.0, abs=1e-13)
        for d in (2.0, 2.5, 4.0):
            dim = Dimension(d)
            for n in range(1, 10):
                assert derivative(1.0, n, dim) == pytest.approx(
                    n * (n + d - 2.0) / (d - 1.0), rel=1e-13
                )

    def test_negative_endpoint_parity(self):
        for n in range(1, 8):
            assert derivative(-1.0, n, D3) == pytest.approx(
                (-1.0) ** (n + 1) * derivative(1.0, n, D3), rel=1e-13
            )

    @pytest.mark.parametrize("n", [8, 32, 64, 128])
    def test_chebyshev_near_endpoints(self, n):
        # T_n'(cos t) = n sin(n t) / sin t, with t from 1 - |x| (exact for these
        # x) and the parity T_n'(-x) = (-1)^(n+1) T_n'(x)
        for x in (1 - 5e-9, 1 - 1e-10, 1 - 2e-8, -(1 - 2e-8), 1 - 1e-6):
            t = 2.0 * math.asin(math.sqrt((1.0 - abs(x)) / 2.0))
            exact = n * math.sin(n * t) / math.sin(t) * math.copysign(1.0, x) ** (n + 1)
            assert abs(derivative(x, n, D2) - exact) <= 1e-12 * n * n

    @pytest.mark.parametrize("x", [0.5, 1.0])
    def test_negative_degree_rejected(self, x):
        # at an interior point and at the endpoint alike
        with pytest.raises(DomainError):
            derivative(x, -1, D3)

    def test_linear_term(self):
        assert derivative(0.0, 1, D2) == pytest.approx(1.0, abs=1e-14)
        assert derivative(0.0, 1, Dimension(4.5)) == pytest.approx(1.0, abs=1e-14)

    def test_against_finite_difference(self):
        h = 1e-6
        x = 0.4
        fd = (eval_sequence(x + h, 5, D2)[5] - eval_sequence(x - h, 5, D2)[5]) / (2 * h)
        assert derivative(x, 5, D2) == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0])
    def test_finite_difference_sweep(self, d):
        dim = Dimension(d)
        rng = np.random.default_rng(5)
        h = 1e-6
        for n in range(1, 9):
            for x in rng.uniform(-0.95, 0.95, size=4):
                fd = (
                    eval_sequence(x + h, n, dim)[n] - eval_sequence(x - h, n, dim)[n]
                ) / (2 * h)
                assert derivative(x, n, dim) == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0])
    def test_ode_residual(self, d):
        # second derivative by central differences of `derivative`
        dim = Dimension(d)
        rng = np.random.default_rng(17)
        h = 1e-6
        for n in range(1, 9):
            lam = n * (n + d - 2.0)
            for x in rng.uniform(-0.8, 0.8, size=20):
                d2p = (derivative(x + h, n, dim) - derivative(x - h, n, dim)) / (2 * h)
                p = float(eval_sequence(x, n, dim)[n])
                dp = derivative(x, n, dim)
                residual = (1 - x * x) * d2p - (d - 1.0) * x * dp + lam * p
                assert abs(residual) < 1e-8


class TestValueAtZero:
    def test_odd_degrees_vanish(self):
        for d in (2.0, 2.5, 3.0):
            for n in (1, 3, 5, 9):
                assert value_at_zero(n, Dimension(d)) == 0.0

    def test_legendre_degree_two(self):
        assert value_at_zero(2, D3) == pytest.approx(-0.5, abs=1e-14)

    def test_chebyshev_degree_four(self):
        assert value_at_zero(4, D2) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0, 5.0])
    def test_matches_recurrence_evaluation(self, d):
        dim = Dimension(d)
        seq = eval_sequence(0.0, 20, dim)
        for n in range(21):
            assert value_at_zero(n, dim) == pytest.approx(float(seq[n]), abs=1e-13)


    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0, 7.3, 40.0, 64.0])
    def test_closed_form_products(self, d):
        # the record's cumulative products, which value_at_zero returns,
        # against the recurrence and a 40-digit product
        mp = pytest.importorskip("mpmath", exc_type=ImportError)
        dim = Dimension(d)
        rec = _Basis(128, dim)
        p, dp = rec.p0, rec.dp0
        assert np.all(p[1::2] == 0.0) and np.all(dp[0::2] == 0.0)
        seq = eval_sequence(0.0, 128, dim)
        for n in range(0, 129, 2):
            assert abs(p[n] / seq[n] - 1.0) <= 1e-14
        for n in range(1, 129, 2):
            assert abs(dp[n] / derivative(0.0, n, dim) - 1.0) <= 1e-14
        if d + 2.0 <= MAX_DIMENSION:
            # P_m'(0) = m (m + D - 2)/(D - 1) P_{m-1}(0) two dimensions up
            up = eval_sequence(0.0, 127, Dimension(d + 2.0))
            m = np.arange(1.0, 129.0, 2.0)
            assert np.max(np.abs(dp[1::2] / (m * (m + d - 2.0) / (d - 1.0) * up[0::2]) - 1.0)) <= 1e-14
        with mp.workdps(40):
            exact = mp.mpf(1)
            for j in range(65):
                if j:
                    exact *= -mp.mpf(2 * j - 1) / (2 * j + mp.mpf(d) - 3)
                assert abs(mp.mpf(p[2 * j]) / exact - 1) <= 1e-14
                assert abs(mp.mpf(value_at_zero(2 * j, dim)) / exact - 1) <= 1e-14


def mp_cd_kernel(mp, x, x0, order, d):
    """K_N(x, x0) and sum_n |P_n(x) P_n(x0)| / N_n^2 at mpmath's working precision.

    P_n from the three-term recurrence, N_n^2 from the Gamma closed form
    n! Gamma(D-1) / ((2n+D-2) Gamma(n+D-2)) N_0^2 with N_0^2 = sqrt(pi)
    Gamma((D-1)/2) / Gamma(D/2); nothing is shared with the library.
    """
    d, x, x0 = mp.mpf(d), mp.mpf(x), mp.mpf(x0)
    n0 = mp.sqrt(mp.pi) * mp.gamma((d - 1) / 2) / mp.gamma(d / 2)
    p, q = [mp.mpf(1), x], [mp.mpf(1), x0]
    for n in range(1, order):
        p.append(((2 * n + d - 2) * x * p[n] - n * p[n - 1]) / (n + d - 2))
        q.append(((2 * n + d - 2) * x0 * q[n] - n * q[n - 1]) / (n + d - 2))
    total = scale = mp.mpf(0)
    for n in range(order + 1):
        norm = n0 if n == 0 else (
            n0 * mp.factorial(n) * mp.gamma(d - 1) / ((2 * n + d - 2) * mp.gamma(n + d - 2))
        )
        term = p[n] * q[n] / norm
        total += term
        scale += abs(term)
    return total, scale


class TestChristoffelDarboux:
    def test_confluent_point_legendre(self):
        for big_n in (0, 1, 3, 6):
            expected = sum((2 * n + 1) / 2.0 for n in range(big_n + 1))
            assert cd_kernel(1.0, 1.0, big_n, D3) == pytest.approx(expected, rel=1e-12)
            assert expected == pytest.approx((big_n + 1) ** 2 / 2.0, rel=1e-14)

    def test_closed_form_equals_direct_sum(self):
        x, x0 = 0.2, 0.7
        n2 = norms_squared(4, D2)
        sx = eval_sequence(x, 5, D2)
        s0 = eval_sequence(x0, 5, D2)
        direct = float(np.sum(sx[:5] * s0[:5] / n2))
        assert cd_kernel(x, x0, 4, D2) == pytest.approx(direct, abs=1e-10)
        # the Christoffel-Darboux identity, well conditioned at |x - x0| >= 0.1
        quotient = beta_coeff(5, D2) * (sx[5] * s0[4] - sx[4] * s0[5]) / ((x - x0) * n2[4])
        assert cd_kernel(x, x0, 4, D2) == pytest.approx(quotient, abs=1e-10)

    def test_crossover_boundary_consistency(self):
        # next to x0 the Christoffel-Darboux quotient loses eps/|x - x0|
        # relative (1.1e-11 sum|terms| at h = 1.1e-6, N = 6, D = 2); the
        # series sum must hold 1e-12 sum|terms| there and at x0 itself
        mp = pytest.importorskip("mpmath", exc_type=ImportError)
        x0 = 0.3
        with mp.workdps(40):
            for d in (2.0, 3.0, 7.3):
                dim = Dimension(d)
                for order in (6, 64, 128):
                    for h in (0.0, 1e-7, 1.1e-6, 2e-6, 1e-5):
                        x = x0 + h
                        exact, scale = mp_cd_kernel(mp, x, x0, order, d)
                        err = abs(mp.mpf(cd_kernel(x, x0, order, dim)) - exact)
                        assert err <= 1e-12 * scale, (d, order, h)
                        arr = cd_kernel(np.array([[x]]), x0, order, dim)
                        assert arr.shape == (1, 1) and arr[0, 0] == cd_kernel(x, x0, order, dim)

    def test_rejects_non_scalar_x0(self):
        with pytest.raises(DomainError):
            cd_kernel(0.5, [0.1, 0.2], 3, D3)

    def test_max_re_closed_form_shape(self):
        # with P_{N+1}(x0) = 0 the kernel collapses to c * P_{N+1}(x)/(x - x0)
        from axibeam import max_re

        order = 4
        sol = max_re(order, D3)
        x0 = sol.r_e_max
        # even-count grid keeps clear of the odd-degree root of P_5 at x = 0
        xs = np.linspace(-0.9, 0.9, 10)
        kernel = np.array([cd_kernel(float(x), x0, order, D3) for x in xs])
        top = np.array([float(eval_sequence(float(x), order + 1, D3)[order + 1]) for x in xs])
        ratio = kernel * (xs - x0) / top
        assert np.max(np.abs(ratio - ratio[0])) < 1e-9

    def test_integral_recurrence_against_quadrature(self):
        # int_{x0}^{1} P_n w dx = w(x0)/(2n+2a) [P_{n-1}(x0) - P_{n+1}(x0)]
        for d in (2.0, 3.0, 4.0):
            dim = Dimension(d)
            for x0 in (-0.4, 0.1, 0.6):
                seq = eval_sequence(x0, 9, dim)
                w0 = (1 - x0 * x0) ** (dim.alpha - 0.5)
                for n in range(1, 9):
                    closed = w0 / (2 * n + 2 * dim.alpha) * (seq[n - 1] - seq[n + 1])
                    quad = integrate_axisym(
                        lambda x: eval_sequence(x, n, dim)[n], dim, n, lower=x0
                    )
                    assert closed == pytest.approx(quad, abs=1e-12)


class TestBasis:
    """The cached per-(N, D) record against the formulas it replaced, written out."""

    ARRAYS = ("beta", "n2", "inv_sub", "sign", "p0", "dp0", "lam", "gram", "chebyshev", "off")

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0, 7.3, 64.0])
    def test_fields_match_direct_formulas(self, d):
        # the whole-array numpy formulas the record's rows were once built
        # from; the one-pass float loop takes the same operations in the same
        # order, so every row and field agrees bit for bit
        dim = Dimension(d)
        for order in (0, 1, 2, 5, 16, 32, 33, 64, 128):
            rec = _basis(order, dim)
            a = dim.alpha
            n = np.arange(2.0, order + 2.0)
            beta = np.concatenate(([1.0], (n - 1.0 + 2.0 * a) / (2.0 * (n - 1.0 + a))))
            n2 = np.empty(order + 1)
            n2[0] = dim.n0_squared
            for k in range(1, order + 1):
                n2[k] = n2[k - 1] * (1.0 - beta[k]) / beta[k - 1]
            i = np.arange(1.0, order // 2 + 1.0)
            p0 = np.zeros(order + 1)
            dp0 = np.zeros(order + 1)
            p0[0::2] = np.cumprod(np.concatenate(([1.0], -(2.0 * i - 1.0) / (2.0 * i + d - 3.0))))
            dp0[1::2] = np.arange(1.0, order + 1.0, 2.0) * p0[0:order:2]
            m = np.arange(order + 1.0)
            lam = m * (m + d - 2.0)
            gram = np.diag(1.0 / (2.0 * n2))
            block = np.outer(p0[0::2] / n2[0::2], dp0[1::2] / n2[1::2])
            block /= lam[1::2] - lam[0::2, None]
            gram[0::2, 1::2] = block
            gram[1::2, 0::2] = block.T
            sigma = [1.0] * (order + 3)
            for k in range(order, -1, -1):
                sigma[k] = (k + 1.0) / (k + d - 1.0) * sigma[k + 2]
            steps = tuple(
                (((2.0 * k + d - 2.0) / (k + d - 2.0) if k else 1.0) * sigma[k + 1] / sigma[k],
                 1.0 / sigma[k])
                for k in range(order, -1, -1)
            )
            r = [1.0, 1.0]
            for k in range(2, order + 1):
                r.append(r[-1] * ((a + k - 1.0) / k))
            chebyshev = np.zeros((order + 1, order + 1))
            for col in range(order + 1):
                for l in range(col // 2 + 1):
                    w = r[col] if l == 0 else a * r[l] * r[col - l]
                    chebyshev[col - 2 * l, col] = w * 2.0 if col - 2 * l > 0 else w
            chebyshev /= chebyshev.sum(axis=0)
            expected = {
                "beta": beta,
                "n2": n2,
                "inv_sub": 1.0 / (dim.subsurface * n2),
                "sign": (-1.0) ** np.arange(order + 1),
                "p0": p0,
                "dp0": dp0,
                "lam": lam,
                "gram": gram,
                "chebyshev": chebyshev,
                "off": np.sqrt(beta[:-1] * (1.0 - beta[1:])),
            }
            for name, value in expected.items():
                field = getattr(rec, name)
                assert field.shape == value.shape and np.array_equal(field, value), (name, order)
            assert rec.clenshaw == (steps, sigma[0])
            assert rec.surface == dim.surface

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0, 7.3, 64.0])
    def test_rows_match_closed_forms(self, d):
        dim = Dimension(d)
        rec = _Basis(128, dim)
        eps = np.finfo(float).eps
        for n in range(129):
            # both sides take O(n) roundings; 1.7e-13 worst seen
            assert rec.n2[n] == pytest.approx(norm_squared_gamma(n, dim), rel=5e-13)
        for n in range(129):
            # both are products of O(n) well-conditioned factors (0.4 of
            # this relative bound seen); odd-n P_n(0) and even-n P_n'(0) are 0
            c = power_series_coeffs(n, dim)
            assert abs(rec.p0[n] - c[0]) <= (n + 1) * eps * abs(rec.p0[n]), n
            assert abs(rec.dp0[n] - (c[1] if n else 0.0)) <= (n + 1) * eps * abs(rec.dp0[n]), n

    @pytest.mark.parametrize("d", [2.0, 2.2, 2.5, 3.0])
    def test_chebyshev_is_a_convex_connection(self, d):
        # P_n = sum_m C[m, n] T_m with C >= 0 and unit column sums (DLMF
        # 18.5.11), at the D where `_series_sum` reads C; the exact sums of
        # the stored columns read up to 2 eps and the entries up to 22 eps
        # relative against 40 digits (D = 2.2)
        mp = pytest.importorskip("mpmath", exc_type=ImportError)
        dim = Dimension(d)
        c = _Basis(128, dim).chebyshev
        eps = np.finfo(float).eps
        assert np.all(c >= 0.0)
        assert max(abs(math.fsum(c[:, n]) - 1.0) for n in range(129)) <= 4 * eps
        if d == 2.0:
            assert np.array_equal(c, np.eye(129))
            return
        with mp.workdps(40):
            a = mp.mpf(d - 2) / 2
            # C[n - 2l, n] is r_l r_{n-l} s_n (doubled off m = 0), with the
            # cumulative products r_k = (a)_k / k! and s_n = n! / (2a)_n
            r, s = [mp.mpf(1)], [mp.mpf(1)]
            for k in range(1, 129):
                r.append(r[-1] * (a + k - 1) / k)
                s.append(s[-1] * k / (2 * a + k - 1))
            for n in range(129):
                for l in range(n // 2 + 1):
                    w = r[l] * r[n - l] * s[n]
                    exact = 2 * w if n - 2 * l > 0 else w
                    assert abs(c[n - 2 * l, n] - exact) <= 32 * eps * exact, (n, l)
            assert np.count_nonzero(c) == sum(n // 2 + 1 for n in range(129))

    def test_order_limit(self):
        from axibeam import WeightVector, basic, compute_metrics, eval_pattern, transform_coeffs

        dim = Dimension(3.3)
        compute_metrics(basic(MAX_ORDER, dim))
        eval_pattern(basic(MAX_ORDER, dim), 0.5)
        norms_squared(MAX_ORDER, dim)
        over = WeightVector(dim, np.ones(MAX_ORDER + 2), "raw")
        for call in (lambda: compute_metrics(over), lambda: eval_pattern(over, 0.5),
                     lambda: norms_squared(MAX_ORDER + 1, dim),
                     lambda: power_series_coeffs(MAX_ORDER + 1, dim),
                     lambda: transform_coeffs(np.cos, MAX_ORDER + 1, dim)):
            with pytest.raises(DomainError, match=f"<= {MAX_ORDER}"):
                call()
        # the recurrences themselves are not held to it
        assert eval_sequence(0.5, 2 * MAX_ORDER, dim).shape == (2 * MAX_ORDER + 1,)

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 7.3, 64.0])
    def test_scalar_recurrences_match_array(self, d):
        # a 0-d x runs on Python floats, an array x on ufuncs; same bits
        dim = Dimension(d)
        xs = [-1.0, -0.7, 0.0, 1e-9, 0.3, 0.999, 1.0]
        for order in (0, 1, 2, 5, 33, 128):
            for x in xs:
                one = np.array([x])
                seq = eval_sequence(x, order, dim)
                assert seq.shape == (order + 1,)
                assert np.array_equal(seq, eval_sequence(one, order, dim)[:, 0])
                p, dp = _with_derivatives(x, order, dim)
                pa, dpa = _with_derivatives(one, order, dim)
                assert np.array_equal(p, pa[:, 0]) and np.array_equal(dp, dpa[:, 0])
                assert np.array_equal(p, seq)

    def test_cached_read_only(self):
        rec = _basis(9, D3)
        assert _basis(9, Dimension(3)) is rec
        for name in self.ARRAYS:
            arr = getattr(rec, name)
            assert getattr(rec, name) is arr
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
        assert isinstance(rec.clenshaw, tuple) and isinstance(rec.surface, float)

    def test_concurrent_first_use(self):
        # threads racing on the lazy fields of fresh records, and on building
        # and cutting the records of one D in different orders, all read the
        # uncached build's values
        names = self.ARRAYS
        dims = [Dimension(2.0 + k / 64.0 + 1e-9) for k in range(16)]
        orders = (20, 7, 13)
        expected = [[getattr(_Basis(order, dim), name) for name in names]
                    for dim in dims for order in orders]
        seen = []

        def read_all(turn):
            # each thread requests the orders of a D in its own rotation
            rotated = orders[turn:] + orders[:turn]
            got = {(dim, order): [getattr(_basis(order, dim), name) for name in names]
                   for dim in dims for order in rotated}
            seen.append([got[dim, order] for dim in dims for order in orders])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read_all, args=(k % 3,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 8
        for got in seen:
            for row, ref in zip(got, expected):
                assert all(np.array_equal(a, b) for a, b in zip(row, ref))

    def test_pattern_and_norms_build_no_gram(self):
        # D = 5.75 and 6.25 are used by no other test, so their records start
        # empty; above D = 3 the pattern is a Clenshaw sum, and at or below it
        # a Chebyshev one; TestClenshawSum covers eval_pattern on an array
        from axibeam import WeightVector, eval_pattern

        dim = Dimension(5.75)
        eval_pattern(WeightVector(dim, np.ones(12), "raw"), 0.5)
        assert {"inv_sub", "clenshaw"} <= set(vars(_basis(11, dim)))
        assert "gram" not in vars(_basis(11, dim)) and "chebyshev" not in vars(_basis(11, dim))
        low = Dimension(2.75)
        eval_pattern(WeightVector(low, np.ones(12), "raw"), 0.5)
        assert {"inv_sub", "chebyshev"} <= set(vars(_basis(11, low)))
        assert "gram" not in vars(_basis(11, low)) and "clenshaw" not in vars(_basis(11, low))
        norms_squared(11, Dimension(6.25))
        assert "gram" not in vars(_basis(11, Dimension(6.25)))

    # records per D: an order the LRU misses is cut from the largest live
    # record at its D; each test starts from an empty cache and weak map

    @pytest.fixture
    def live(self, monkeypatch):
        fresh = weakref.WeakValueDictionary()
        monkeypatch.setattr(ultraspherical, "_live", fresh)
        ultraspherical._cached_basis.cache_clear()
        yield fresh
        ultraspherical._cached_basis.cache_clear()

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 7.3, 64.0])
    def test_shuffled_orders_match_direct_builds(self, d, live):
        dim = Dimension(d)
        names = self.ARRAYS + ("surface", "clenshaw")

        def scan(seed):
            """Request the orders 0..128 in a seeded order; the number of cuts."""
            cuts = 0
            for order in np.random.default_rng(seed).permutation(MAX_ORDER + 1).tolist():
                rec, ref = _basis(order, dim), _Basis(order, dim)
                for name in names:
                    got, want = getattr(rec, name), getattr(ref, name)
                    if isinstance(want, np.ndarray):
                        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
                    else:
                        assert got == want, name
                gram = gram_front(order, dim)
                assert gram is rec.gram and not gram.flags.writeable
                if type(rec) is _Basis:
                    continue
                cuts += 1
                parent = rec.parent
                assert type(parent) is _Basis and parent.order > order
                for name in self.ARRAYS:
                    arr = getattr(rec, name)
                    # off is empty at N = 0, and an empty view shares nothing
                    assert np.shares_memory(arr, getattr(parent, name)) or not arr.size, name
                    assert not arr.flags.writeable, name
            return cuts

        assert scan(int(10 * d)) > MAX_ORDER // 2
        ultraspherical._cached_basis.cache_clear()
        gc.collect()
        assert len(live) == 0

    @pytest.mark.parametrize("d", [2.5, 3.0, 7.3])
    def test_orders_below_a_live_record_share_its_arrays(self, d):
        dim = Dimension(d)
        ultraspherical._cached_basis.cache_clear()
        top = _basis(MAX_ORDER, dim)
        for order in range(MAX_ORDER):
            rec = _basis(order, dim)
            for name in self.ARRAYS:
                arr, full = getattr(rec, name), getattr(top, name)
                assert np.shares_memory(arr, full) or not arr.size, (order, name)
                assert arr.tobytes() == full[(slice(0, arr.shape[0]),) * arr.ndim].tobytes()
                assert not arr.flags.writeable
        # gram_front keeps its values: a row-strided view, equal to a direct build
        assert gram_front(17, dim).strides[0] == (MAX_ORDER + 1) * 8
        assert gram_front(17, dim).tobytes() == _Basis(17, dim).gram.tobytes()

    def test_ascending_scan_builds_log2_records(self, live):
        dim = Dimension(4.5)
        built = set()
        for order in range(MAX_ORDER + 1):
            rec = _basis(order, dim)
            built.add(id(getattr(rec, "parent", rec)))
        assert len(built) == 9  # orders 0, 1, 2, 4, 8, .., 128
        # the LRU is the only strong owner: nothing outlives the cache
        ultraspherical._cached_basis.cache_clear()
        del rec
        gc.collect()
        assert len(live) == 0

    @pytest.mark.parametrize("d", [2.0, 3.0, 7.3])
    def test_readers_agree_on_cut_and_built_records(self, d, live):
        # every reader of the record returns the same bytes whether its order
        # was cut from a larger live record or built directly; D = 2 and 3 sum
        # patterns in the Chebyshev basis, D = 7.3 by Clenshaw
        from axibeam import (circle_nodes, compute_metrics, discrete_metrics, max_re, platonic,
                             supercardioid)

        dim = Dimension(d)
        xs = np.cos(np.radians(np.linspace(0.0, 180.0, 37)))
        nodes = {2.0: circle_nodes(40), 3.0: platonic("dodecahedron")}.get(d)
        aim = np.eye(nodes.dim)[0] if nodes is not None else None

        def readings(order):
            rng = np.random.default_rng(order)
            w = WeightVector(dim, rng.standard_normal(order + 1) + 2.0, "raw")
            sol = max_re(order, dim)
            out = [repr(compute_metrics(w)), eval_pattern(w, xs), repr(eval_pattern(w, 0.3)),
                   sol.weights.a, repr(sol.r_e_max), supercardioid(order, dim).a,
                   cd_kernel(xs, 0.3, order, dim), repr(cd_kernel(0.7, 0.3, order, dim))]
            if nodes is not None:
                out.append(repr(discrete_metrics(w, nodes, aim)))
            return [v.tobytes() if isinstance(v, np.ndarray) else v for v in out]

        for order in (1, 6, 13, 40):
            live.clear()
            ultraspherical._cached_basis.cache_clear()
            top = _basis(2 * order + 3, dim)
            cut = readings(order)
            assert _basis(order, dim).parent is top
            del top
            live.clear()
            ultraspherical._cached_basis.cache_clear()
            built = readings(order)
            assert type(_basis(order, dim)) is _Basis
            assert cut == built


@pytest.mark.parametrize(
    "call",
    [
        lambda: eval_sequence(0.5, -1, D3),
        lambda: power_series_coeffs(-1, D3),
        lambda: beta_coeff(0, D3),
        lambda: norms_squared(-1, D3),
        lambda: norm_squared_gamma(-1, D3),
        lambda: value_at_zero(-1, D3),
        lambda: _basis(-1, D3),
    ],
    ids=["eval_sequence", "power_series_coeffs", "beta_coeff", "norms_squared",
         "norm_squared_gamma", "value_at_zero", "_basis"],
)
def test_negative_degree_rejected(call):
    with pytest.raises(DomainError, match=">= "):
        call()


@pytest.mark.parametrize(
    "call, name, low, high, value",
    [
        (beta_coeff, "n", 1, MAX_ORDER + 1, MAX_ORDER + 2),
        (beta_coeff, "n", 1, MAX_ORDER + 1, 200),
        (beta_coeff, "n", 1, MAX_ORDER + 1, 0),
        (norm_squared, "n", 0, MAX_ORDER, MAX_ORDER + 1),
        (value_at_zero, "n", 0, MAX_ORDER, MAX_ORDER + 1),
        (norms_squared, "max_degree", 0, MAX_ORDER, MAX_ORDER + 1),
        (gram_front, "max_degree", 0, MAX_ORDER, MAX_ORDER + 1),
        (lambda n, dim: cd_kernel(0.5, 0.5, n, dim), "max_degree", 0, MAX_ORDER, MAX_ORDER + 1),
    ],
    ids=["beta_coeff-130", "beta_coeff-200", "beta_coeff-0", "norm_squared", "value_at_zero",
         "norms_squared", "gram_front", "cd_kernel"],
)
def test_degree_error_names_the_argument(call, name, low, high, value):
    # each function checks its own argument: beta_n lives in the order n - 1
    # record, so beta_coeff takes n up to MAX_ORDER + 1, and says n, not order
    message = f"^{name} must be an integer >= {low} and <= {high}, got {value}$"
    with pytest.raises(DomainError, match=message):
        call(value, D3)


# Every public reader of x checks it the same way: |x| <= 1 + 1e-12, clamped
# to [-1, 1].  D = 3 sums patterns in the Chebyshev basis, D = 7.3 by Clenshaw.
CLAMP_READERS = {
    "eval_sequence": lambda x, dim: eval_sequence(x, 5, dim),
    "derivative": lambda x, dim: derivative(x, 5, dim),
    "cd_kernel": lambda x, dim: cd_kernel(x, 0.3, 5, dim),
    "eval_pattern": lambda x, dim: eval_pattern(
        WeightVector(dim, [1.0, -0.5, 0.25, 2.0, 0.125, -1.0], "raw"), x),
}


@pytest.mark.parametrize("d", [3.0, 7.3])
@pytest.mark.parametrize("name", list(CLAMP_READERS))
class TestClampContract:
    def test_end_points_and_small_overshoot(self, name, d):
        read, dim = CLAMP_READERS[name], Dimension(d)
        ends = np.asarray(read(np.array([1.0, -1.0]), dim))
        for i, end in enumerate((1.0, -1.0)):
            for x in (end, end * (1.0 + 5e-13)):
                assert np.asarray(read(x, dim)).tobytes() == ends[..., i].tobytes(), x
        over = np.asarray(read(np.array([1.0 + 5e-13, -1.0 - 5e-13]), dim))
        assert over.tobytes() == ends.tobytes()

    @pytest.mark.parametrize("bad", [1.0 + 2e-12, -1.0 - 2e-12, math.nan, math.inf, -math.inf])
    def test_rejects_past_the_overshoot(self, name, d, bad):
        read, dim = CLAMP_READERS[name], Dimension(d)
        for x in (bad, np.array([0.5, bad]), np.array([[bad, 0.0]])):
            with pytest.raises(DomainError, match=r"\|x\| <= 1"):
                read(x, dim)

    def test_empty_array(self, name, d):
        got = CLAMP_READERS[name](np.array([]), Dimension(d))
        assert isinstance(got, np.ndarray) and got.size == 0 and got.shape[-1:] == (0,)

    def test_zero_d_gives_a_float(self, name, d):
        # eval_sequence gives its (N+1,) sequence for one x, the others a float
        read, dim = CLAMP_READERS[name], Dimension(d)
        for x in (0.25, np.float64(0.25), np.array(0.25)):
            got = read(x, dim)
            assert got.shape == (6,) if name == "eval_sequence" else type(got) is float

    @pytest.mark.parametrize("overshoot", [0.0, 5e-13])
    def test_caller_array_is_never_written(self, name, d, overshoot):
        read, dim = CLAMP_READERS[name], Dimension(d)
        x = np.linspace(-1.0, 1.0, 2050).reshape(2, 1025)  # two blocks of the Chebyshev table
        x[0, 0] -= overshoot
        x[-1, -1] += overshoot
        before = x.copy()
        x.setflags(write=False)
        got = read(x, dim)
        assert x.tobytes() == before.tobytes()
        assert not np.shares_memory(got, x)
        writable = before.copy()
        got = read(writable, dim)
        assert writable.tobytes() == before.tobytes()
        assert not np.shares_memory(got, writable)


@pytest.mark.parametrize("k", [-1100, -1074, -3, 0, 5, 1023, 1100])
def test_unscale_float_and_array_agree(k):
    # the one way back from a power-of-two scaling: a float, an array and a
    # numpy scalar give the same bits, infinities past the double range
    values = [0.75, -0.75, 0.5000000000000001, 0.0, -0.0, 5e-324]
    arr = ultraspherical._unscale(np.array(values), k)
    assert arr.shape == (len(values),)
    for v, a in zip(values, arr):
        f = ultraspherical._unscale(v, k)
        assert type(f) is float and np.float64(f).tobytes() == a.tobytes()
        scalar = ultraspherical._unscale(np.float64(v), np.int32(k))
        assert type(scalar) is float and np.float64(scalar).tobytes() == a.tobytes()


class TestChebyshevPool:
    # `_chebyshev_sum` keeps one table per (N, width) between calls, checked
    # out of the pool for the length of a block; each test starts from an
    # empty pool
    ORDER = 32

    @pytest.fixture(autouse=True)
    def pool(self, monkeypatch):
        plans = {}
        monkeypatch.setattr(ultraspherical, "_plans", plans)
        return plans

    def test_threads_read_their_own_table(self):
        x = np.cos(np.radians(np.linspace(0.0, 180.0, 181)))
        rng = np.random.default_rng(35)
        coeffs = [rng.standard_normal(self.ORDER + 1) for _ in range(2)]
        expected = [ultraspherical._chebyshev_sum(d, x) for d in coeffs]
        seen = [[], []]

        def read(k):
            seen[k].extend(ultraspherical._chebyshev_sum(coeffs[k], x) for _ in range(200))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(seen, expected):
            assert len(got) == 200
            assert all(g.tobytes() == want.tobytes() for g in got)

    @pytest.mark.parametrize("shape", [(), (181,), (3, 7), (2050,)])
    def test_result_owns_its_memory(self, pool, shape):
        rng = np.random.default_rng(36)
        x = rng.uniform(-1.0, 1.0, shape)
        first = ultraspherical._chebyshev_sum(rng.standard_normal(self.ORDER + 1), x)
        kept = np.array(first)
        ultraspherical._chebyshev_sum(rng.standard_normal(self.ORDER + 1), x)
        assert np.asarray(first).tobytes() == kept.tobytes()
        assert pool and all((self.ORDER, v.shape[1]) == key for key, (v, _, _) in pool.items())
        assert not any(np.shares_memory(first, v) for v, _, _ in pool.values())

    def test_pool_is_bounded(self, pool):
        bound = ultraspherical._PLANS
        d = np.arange(1.0, 5.0)
        for width in range(1, bound + 10):
            ultraspherical._chebyshev_sum(d, np.linspace(-1.0, 1.0, width))
            assert 0 < len(pool) <= bound and (3, width) in pool
