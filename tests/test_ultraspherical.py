import inspect
import math

import numpy as np
import pytest

from axibeam import (
    Dimension,
    DomainError,
    beta_coeff,
    cd_kernel,
    derivative,
    eval_sequence,
    norm_squared,
    norm_squared_gamma,
    norms_squared,
    power_series_coeffs,
    surface_area,
    value_at_zero,
)
from axibeam.quadrature import integrate_axisym
from axibeam.ultraspherical import MAX_DIMENSION, _betas, _norms_squared

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_x(self, bad):
        with pytest.raises(DomainError):
            eval_sequence(bad, 3, D3)
        with pytest.raises(DomainError):
            eval_sequence(np.array([0.5, bad]), 3, D3)

    def test_array_shape(self):
        xs = np.linspace(-1.0, 1.0, 7)
        seq = eval_sequence(xs, 4, D3)
        assert seq.shape == (5, 7)
        assert seq[0] == pytest.approx(np.ones(7), abs=0.0)

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

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0, 64.0])
    def test_vectorised_betas_and_norms_match_scalar_loop(self, d):
        # same operations in the same order, so equality is exact
        dim = Dimension(d)
        betas = [scalar_beta(n, dim) for n in range(1, 130)]
        assert np.array_equal(_betas(128, dim), betas)
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
        with pytest.raises(ValueError):
            first[0] = 1.0
        assert np.array_equal(first, _norms_squared.__wrapped__(12, D3))

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


class TestChristoffelDarboux:
    def test_confluent_point_legendre(self):
        for big_n in (0, 1, 3, 6):
            expected = sum((2 * n + 1) / 2.0 for n in range(big_n + 1))
            assert cd_kernel(1.0, 1.0, big_n, D3) == pytest.approx(expected, rel=1e-12)
            assert expected == pytest.approx((big_n + 1) ** 2 / 2.0, rel=1e-14)

    def test_closed_form_equals_direct_sum(self):
        x, x0 = 0.2, 0.7
        n2 = norms_squared(4, D2)
        sx = eval_sequence(x, 4, D2)
        s0 = eval_sequence(x0, 4, D2)
        direct = float(np.sum(sx * s0 / n2))
        assert cd_kernel(x, x0, 4, D2) == pytest.approx(direct, abs=1e-10)

    def test_crossover_boundary_consistency(self):
        # both branches must agree where the |x - x0| = 1e-6 switch happens
        x0 = 0.37
        for d in (2.0, 3.0, 4.0):
            dim = Dimension(d)
            for eps in (0.9e-6, 1.1e-6):
                lhs = cd_kernel(x0 + eps, x0, 6, dim)
                n2 = norms_squared(6, dim)
                sx = eval_sequence(x0 + eps, 6, dim)
                s0 = eval_sequence(x0, 6, dim)
                direct = float(np.sum(sx * s0 / n2))
                assert lhs == pytest.approx(direct, rel=1e-9)

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
