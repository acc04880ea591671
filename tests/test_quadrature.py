import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

from axibeam import Dimension, eval_sequence, norms_squared
from axibeam.quadrature import (
    _gram_front,
    _node_count,
    gram_closed_form,
    gram_front,
    integrate_axisym,
    transform_coeffs,
)

D2 = Dimension(2.0)
D3 = Dimension(3.0)
D4 = Dimension(4.0)


class TestIntegrateAxisym:
    def test_weight_mass_sphere(self):
        assert integrate_axisym(np.ones_like, D3) == pytest.approx(2.0, rel=1e-13)

    def test_weight_mass_circle(self):
        assert integrate_axisym(np.ones_like, D2) == pytest.approx(math.pi, rel=1e-13)

    def test_orthogonality_distinct_degrees(self):
        val = integrate_axisym(
            lambda x: eval_sequence(x, 5, D4)[3] * eval_sequence(x, 5, D4)[5],
            D4,
            degree_hint=8,
        )
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_half_intervals_sum_to_whole(self):
        f = lambda x: (1.0 + x) ** 3
        whole = integrate_axisym(f, D3, 3)
        front = integrate_axisym(f, D3, 3, lower=0.0)
        back = integrate_axisym(f, D3, 3, upper=0.0)
        assert front + back == pytest.approx(whole, rel=1e-13)
        assert front == pytest.approx((2.0**4 - 1.0) / 4.0, rel=1e-13)

    @pytest.mark.parametrize("d", [2.0, 3.0, 4.0])
    def test_doubling_nodes_is_converged(self, d):
        dim = Dimension(d)
        rng = np.random.default_rng(23)
        for deg in (3, 8, 12):
            coeffs = rng.uniform(-1.0, 1.0, size=deg + 1)
            f = lambda x: np.polynomial.polynomial.polyval(x, coeffs)
            base = integrate_axisym(f, dim, degree_hint=deg)
            # degree hint sized so the rule has twice as many nodes
            doubled_hint = 2 * _node_count(deg, dim) - math.ceil(d) - 16
            refined = integrate_axisym(f, dim, degree_hint=doubled_hint)
            assert abs(refined - base) < 1e-12

    def test_invalid_bounds(self):
        from axibeam import DomainError

        with pytest.raises(DomainError):
            integrate_axisym(np.ones_like, D3, 0, lower=0.5, upper=0.5)
        with pytest.raises(DomainError):
            integrate_axisym(np.ones_like, D3, 0, lower=-2.0)


class TestTransformCoeffs:
    def test_reproduces_single_polynomial(self):
        f = lambda x: eval_sequence(x, 2, D3)[2]
        gamma = transform_coeffs(f, 2, D3, degree_hint=2)
        assert gamma == pytest.approx([0.0, 0.0, 1.0], abs=1e-13)

    def test_cardioid_matches_inphase_weights(self):
        from axibeam import inphase

        gamma = transform_coeffs(lambda x: (1.0 + x) / 2.0, 1, D3, degree_hint=1)
        a = gamma * norms_squared(1, D3)
        a = a / a[0]
        assert a == pytest.approx(inphase(1, D3).a, abs=1e-12)

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0])
    def test_round_trip(self, d):
        dim = Dimension(d)
        rng = np.random.default_rng(31)
        for order in (1, 4, 10):
            gamma = rng.uniform(-1.0, 1.0, size=order + 1)
            f = lambda x: np.tensordot(gamma, eval_sequence(x, order, dim), axes=(0, 0))
            recovered = transform_coeffs(f, order, dim, degree_hint=order)
            assert recovered == pytest.approx(gamma, abs=1e-10)

    def test_cap_indicator_matches_cap_weights(self):
        # jump integrand: Gauss-Legendre converges only algebraically, so the
        # literal indicator route is checked loosely and the equivalent
        # sharp route integrates P_n over [x0, 1] directly
        from axibeam import cap

        x0 = math.cos(math.radians(40.0))
        weights = cap(8, x0, D3).a
        indicator = lambda x: (x >= x0).astype(float)
        gamma = transform_coeffs(indicator, 8, D3, degree_hint=4000)
        assert gamma * norms_squared(8, D3) == pytest.approx(weights, abs=2e-3)
        for n in range(9):
            sharp = integrate_axisym(
                lambda x: eval_sequence(x, 8, D3)[n], D3, 8, lower=x0
            )
            assert sharp == pytest.approx(weights[n], abs=1e-13)


class TestGramMatrix:
    def test_cached_read_only(self):
        # a plain function in front of the cache: perfbench/spans.py traces only
        # objects that pass inspect.isfunction, which an lru_cache wrapper does not
        assert inspect.isfunction(gram_front)
        first = gram_front(9, D3)
        assert gram_front(9, Dimension(3)) is first
        for arr in (first.entries, first.factor):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        fresh = _gram_front.__wrapped__(9, D3)
        assert np.array_equal(first.entries, fresh.entries)
        assert np.array_equal(first.factor, fresh.factor)

    def test_symmetry_exact(self):
        g = gram_front(6, D3).entries
        assert np.array_equal(g, g.T)

    def test_same_parity_offdiagonal_zero(self):
        g = gram_front(5, D4).entries
        for n in range(6):
            for m in range(6):
                if n != m and (n - m) % 2 == 0:
                    assert g[n, m] == 0.0

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0])
    def test_diagonal_rule(self, d):
        dim = Dimension(d)
        g = gram_front(8, dim).entries
        n2 = norms_squared(8, dim)
        assert np.diag(g) == pytest.approx(1.0 / (2.0 * n2), abs=1e-10)

    def test_first_order_legendre_values(self):
        g = gram_front(1, D3).entries
        assert g[0, 0] == pytest.approx(0.25, abs=1e-12)
        assert g[0, 1] == pytest.approx(3.0 / 8.0, abs=1e-12)

    def test_parity_zeros_third_order(self):
        g = gram_front(3, D2).entries
        assert g[0, 2] == 0.0
        assert g[1, 3] == 0.0

    @pytest.mark.parametrize("d", [2.0, 3.0])
    def test_closed_form_cross_check(self, d):
        dim = Dimension(d)
        numeric = gram_front(8, dim).entries
        closed = gram_closed_form(8, dim)
        assert numeric == pytest.approx(closed, abs=1e-9)

    @pytest.mark.parametrize("d", [2.0, 3.0, 4.0])
    def test_front_and_back_positive_definite(self, d):
        # At N = 12 the smallest eigenvalue (1e-18 to 1e-16) lies below the
        # eigensolver backward error eps * ||G|| (1e-15 to 2e-14), so the sign
        # eigvalsh reports for it is rounding noise.  G = F^T F is positive
        # definite iff F has full column rank, and F's condition number is
        # only the square root of G's, so the rank decides it in double.
        dim = Dimension(d)
        gram = gram_front(12, dim)
        scale = np.linalg.norm(gram.entries, 2)
        pairs = ((gram.factor, gram.entries), (gram.back_factor, gram.back_entries))
        for factor, entries in pairs:
            rows = factor.shape[0]
            assert np.linalg.matrix_rank(factor) == 13
            # inner-product rounding bound: rows * eps * ||G||
            err = np.max(np.abs(factor.T @ factor - entries))
            assert err < rows * np.finfo(float).eps * scale

    def test_factor_min_singular_value_matches_exact_eigenvalue(self):
        # sigma_min(F)^2 against the smallest eigenvalue of the exact Legendre
        # half-interval Gram, built from rationals and solved at 40 digits
        mp = pytest.importorskip("mpmath")
        order = 12

        def p0(n):
            if n % 2:
                return Fraction(0)
            return Fraction((-1) ** (n // 2) * math.comb(n, n // 2), 2**n)

        # Legendre: N_n^2 = 2/(2n+1), int_0^1 P_n^2 dx = 1/(2n+1),
        # P_n'(0) = n P_{n-1}(0), lambda_n = n(n+1)
        inv_n2 = [Fraction(2 * n + 1, 2) for n in range(order + 1)]
        dp0 = [n * p0(n - 1) if n else Fraction(0) for n in range(order + 1)]
        with mp.workdps(40):
            exact = mp.matrix(order + 1, order + 1)
            for n in range(order + 1):
                for m in range(order + 1):
                    if n == m:
                        raw = Fraction(1, 2 * n + 1)
                    elif (n - m) % 2:
                        raw = (dp0[n] * p0(m) - dp0[m] * p0(n)) / (n * (n + 1) - m * (m + 1))
                    else:
                        raw = Fraction(0)
                    val = raw * inv_n2[n] * inv_n2[m]
                    exact[n, m] = mp.mpf(val.numerator) / val.denominator
            lam_min = float(min(mp.eigsy(exact, eigvals_only=True)))
        sigma_min = np.linalg.svd(gram_front(order, D3).factor, compute_uv=False)[-1]
        assert sigma_min**2 == pytest.approx(lam_min, rel=1e-3, abs=0.0)

    def test_back_entries_sign_pattern(self):
        gram = gram_front(4, D3)
        sign = (-1.0) ** np.arange(5)
        assert np.array_equal(gram.back_entries, gram.entries * np.outer(sign, sign))

    def test_quadratic_forms_match_half_energies(self):
        # a^T G_f a must equal the front-half energy integral of the pattern
        from axibeam import WeightVector, eval_pattern
        from axibeam.designs import Normalization

        rng = np.random.default_rng(41)
        a = rng.uniform(-1.0, 1.0, size=5)
        vec = WeightVector(D3, a, Normalization.RAW)
        gram = gram_front(4, D3)
        sub = D3.subsurface
        front = integrate_axisym(
            lambda x: np.asarray(eval_pattern(vec, x)) ** 2, D3, 8, lower=0.0
        )
        assert float(a @ gram.entries @ a) == pytest.approx(front * sub * sub, rel=1e-11)
