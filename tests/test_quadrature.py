import inspect
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from axibeam import Dimension, DomainError, compute_metrics, eval_sequence, max_re, norms_squared
from axibeam.quadrature import (
    _jacobi_rule,
    _legendre_rule,
    _node_count,
    integrate_axisym,
    transform_coeffs,
)
from axibeam.ultraspherical import _Basis, _basis, _with_derivatives, gram_front

from _gram_reference import quadrature_gram

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

    @pytest.mark.parametrize("d", [2.5, 3.7, 7.3])
    def test_interior_bounds_non_integer_dim(self, d):
        # the phi rule on an interior range against the difference of two
        # upper tails, which run through the Gauss-Jacobi (a, 0) branch below
        # D = 6 and through the phi rule from D = 6
        dim = Dimension(d)
        interior = integrate_axisym(np.exp, dim, lower=-0.4, upper=0.7)
        tails = (integrate_axisym(np.exp, dim, lower=-0.4)
                 - integrate_axisym(np.exp, dim, lower=0.7))
        assert interior == pytest.approx(tails, rel=5e-14)

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0])
    @pytest.mark.parametrize("bounds", [(-1.0, 1.0), (0.0, 1.0), (-1.0, 0.0)],
                             ids=["whole", "front", "back"])
    def test_stacked_integrands_match_row_by_row(self, d, bounds):
        dim = Dimension(d)
        lower, upper = bounds
        rows = (np.ones_like, np.exp, lambda x: x**7 - x, np.cos)
        stacked = integrate_axisym(lambda x: np.stack([f(x) for f in rows]), dim, 9,
                                   lower=lower, upper=upper)
        single = [integrate_axisym(f, dim, 9, lower=lower, upper=upper) for f in rows]
        assert stacked.shape == (4,)
        assert stacked == pytest.approx(single, rel=1e-14, abs=1e-15)
        grid = integrate_axisym(lambda x: np.stack([x, x * x]) * np.ones((3, 1, 1)), dim, 2,
                                lower=lower, upper=upper)
        assert grid.shape == (3, 2)

    @pytest.mark.parametrize("d", [2.2, 2.5, 3.7])
    @pytest.mark.parametrize("b", [0.9999, 0.999999])
    def test_interior_bounds_near_endpoints_match_mpmath(self, d, b):
        # int_-b^b (1-x^2)^c dx with c = (D-3)/2 is an incomplete beta function
        # in t = (1+x)/2; at non-integer D the weight's derivatives grow without
        # bound towards +-1, while in phi = arccos x the integrand stays smooth
        mp = pytest.importorskip("mpmath", exc_type=ImportError)
        c = (d - 3.0) / 2.0
        with mp.workdps(30):
            exact = float(2 ** (2 * c + 1) * mp.betainc(c + 1, c + 1, (1 - b) / 2, (1 + b) / 2))
        got = integrate_axisym(np.ones_like, Dimension(d), lower=-b, upper=b)
        assert got == pytest.approx(exact, rel=1e-5)

    def test_cached_rules_are_read_only(self):
        dim = Dimension(2.5)
        before = transform_coeffs(np.cos, 3, dim)

        def clobber(x):
            x *= 0.0
            return x

        with pytest.raises(ValueError, match="read-only"):
            integrate_axisym(clobber, dim)
        # int x^2 (1-x^2)^(-1/4) dx over [-1, 1] = B(3/2, 3/4)
        exact = math.gamma(1.5) * math.gamma(0.75) / math.gamma(2.25)
        assert integrate_axisym(lambda x: x * x, dim) == pytest.approx(exact, rel=1e-13)
        assert np.array_equal(transform_coeffs(np.cos, 3, dim), before)
        for arr in (*_legendre_rule(64), *_jacobi_rule(64, -0.25, -0.25)):
            assert not arr.flags.writeable


    @pytest.mark.parametrize("d, lower", [(2.0, -1.0), (2.5, -1.0), (2.5, 0.0), (3.0, 0.0)])
    def test_extreme_scales(self, d, lower):
        # each row is summed scaled by a power of two, so only a true integral
        # past the double range is inf, and without a warning; a power-of-two
        # scale of a row changes no bit of its integral
        dim = Dimension(d)
        scales = np.array([1e308, -1.7e308, 2.0**-1000, 2.0**1000, 1e-310])[:, None]
        units = np.array([1.0, 1.0, 0.0, 0.0, 1.0])[:, None]

        def rows(x):  # the same stack shape, so that each row is summed alike
            return np.where(units, 1.0, np.cos(x))

        unit = integrate_axisym(rows, dim, lower=lower).tolist()
        got = integrate_axisym(lambda x: scales * rows(x), dim, lower=lower).tolist()
        assert got[0] == pytest.approx(1e308 * unit[0], rel=1e-14)
        big = -1.7e308 * unit[1]  # a Python float: -inf past the range, no warning
        assert got[1] == (big if math.isinf(big) else pytest.approx(big, rel=1e-14))
        assert got[2] == 2.0**-1000 * unit[2]
        assert got[3] == 2.0**1000 * unit[3]
        assert got[4] == pytest.approx(1e-310 * unit[4], rel=1e-4)  # 1e-310 is subnormal

    @pytest.mark.parametrize(
        "f",
        [lambda x: 1.0, lambda x: np.ones(3), lambda x: np.ones((len(x), 2))],
        ids=["scalar", "wrong-length", "trailing-axis"],
    )
    def test_callback_shape_mismatch_is_domain_error(self, f):
        with pytest.raises(DomainError, match=r"\(\.\.\., len\(x\)\)"):
            integrate_axisym(f, Dimension(2.5))

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 7.3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_nonfinite_integrand_is_domain_error(self, bad, d):
        # one non-finite node in one row of a stack is enough; the pytest
        # configuration turns any warning on the way into a failure
        def one_bad_node(x):
            return np.where(x == x.max(), bad, np.cos(x))

        def stack(x):
            return np.stack([np.cos(x), one_bad_node(x)])

        for f in (one_bad_node, stack, lambda x: np.where(x > 0, np.inf, -np.inf)):
            with pytest.raises(DomainError, match="finite"):
                integrate_axisym(f, Dimension(d), lower=0.0)
            with pytest.raises(DomainError, match="finite"):
                integrate_axisym(f, Dimension(d))


class TestJacobiRule:
    @pytest.mark.parametrize("d", [2.2, 2.5, 3.5, 5.5])
    @pytest.mark.parametrize("count", [64, 1048])
    @pytest.mark.parametrize("kind", ["symmetric", "upper"])
    def test_matches_mpmath_nodes_and_weights(self, d, count, kind):
        # The reference node is one 20-digit Newton step on mpmath's
        # hypergeometric P_n^(a,b), which shares nothing with the recurrence
        # the rule runs; the weight is the closed-form Christoffel number
        #   2^(a+b+1) G(n+a+1) G(n+b+1) / (G(n+a+b+1) n! (1 - x^2) P_n'(x)^2).
        mp = pytest.importorskip("mpmath", exc_type=ImportError)
        a = (d - 3.0) / 2.0
        b = a if kind == "symmetric" else 0.0
        x, w = _jacobi_rule(count, a, b)
        assert x.shape == w.shape == (count,)
        assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
        if kind == "symmetric":
            assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        # every node at n = 64; six at each end and every 149th at n = 1048
        picks = sorted({*range(6), *range(0, count, 149), *range(count - 6, count)})
        eps = np.finfo(float).eps
        with mp.workdps(20):
            ma, mb, n = mp.mpf(a), mp.mpf(b), count
            const = (2 ** (ma + mb + 1) * mp.gamma(n + ma + 1) * mp.gamma(n + mb + 1)
                     / (mp.gamma(n + ma + mb + 1) * mp.factorial(n)))

            def jacobi(k, p, q, t):
                # mpmath's series in (1 - t)/2 converges slowly near t = -1
                return mp.jacobi(k, p, q, t) if t >= 0 else (-1) ** k * mp.jacobi(k, q, p, -t)

            def slope(t):
                return (n + ma + mb + 1) / 2 * jacobi(n - 1, ma + 1, mb + 1, t)

            for i in picks:
                t = mp.mpf(x[i])
                t -= jacobi(n, ma, mb, t) / slope(t)
                assert abs(x[i] - t) <= eps
                # the weight of the exact root: the weight formula at the rounded
                # node is off by up to about 1e-10 at the ends of the 1048-node rule
                assert abs(w[i] / (const / ((1 - t * t) * slope(t) ** 2)) - 1) <= 1e-13

    def test_no_library_path_imports_scipy(self):
        # each call below builds a Gauss-Jacobi rule except the last (D >= 6
        # takes the phi rule); axibeam's only runtime dependency is numpy
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from axibeam import (Dimension, basic, compute_metrics_numeric, integrate_axisym,\n"
            "                     transform_coeffs)\n"
            "from axibeam.quadrature import _jacobi_rule\n"
            "transform_coeffs(np.cos, 8, Dimension(2.5))\n"
            "compute_metrics_numeric(basic(4, Dimension(3.5)))\n"
            "integrate_axisym(np.exp, Dimension(2.2), lower=0.0)\n"
            "integrate_axisym(np.exp, Dimension(5.5), lower=0.3)\n"
            "built = _jacobi_rule.cache_info().currsize\n"
            "integrate_axisym(np.exp, Dimension(7.3), lower=0.3)\n"
            "print(built > 0, _jacobi_rule.cache_info().currsize == built, 'scipy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "True", "False"]


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

    def test_near_the_double_maximum(self):
        # int 1e308 w dx = 2e308 lies past the double range, but gamma_0 =
        # 2e308 / N_0^2 = 1e308 does not: the division comes before the scale
        gamma = transform_coeffs(lambda x: 1e308 * np.ones_like(x), 2, D3)
        assert gamma[0] == pytest.approx(1e308, rel=1e-14)
        assert np.all(np.abs(gamma[1:]) <= 1e-14 * 1e308)

    @pytest.mark.parametrize("d", [2.0, 3.0, 7.3, 64.0])
    @pytest.mark.parametrize("scale", [2.0**-900, 2.0**900, 1e-300, 1e300])
    def test_extreme_scales_match_unscaled(self, d, scale):
        # bit for bit for a power of two while every gamma_n stays a normal
        # double (gamma_12 of cos is about 1e-10 gamma_0 at D = 64)
        dim = Dimension(d)
        unit = transform_coeffs(np.cos, 12, dim)
        got = transform_coeffs(lambda x: scale * np.cos(x), 12, dim)
        if math.frexp(scale)[0] == 0.5:
            assert np.array_equal(got, scale * unit)
        else:
            # scale * cos(x) rounds apart from cos(x) by eps; gamma_n carries
            # that as eps N_0^2 / N_n^2 relative to gamma_0
            n2 = norms_squared(12, dim)
            assert np.all(np.abs(got - scale * unit) <= 1e-14 * scale * unit[0] * n2[0] / n2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_nonfinite_target_is_domain_error(self, bad):
        # at D = 2.5 with 71 nodes the Jacobi rule has a node at x = 0, where
        # P_1(0) * inf is NaN; that raises the same typed error, with no warning
        dim = Dimension(2.5)
        assert _node_count(50 + 2, dim) == 71
        for hint in (0, 50):
            with pytest.raises(DomainError, match="finite"):
                transform_coeffs(lambda x: bad, 2, dim, degree_hint=hint)
            with pytest.raises(DomainError, match="finite"):
                transform_coeffs(lambda x: np.where(x > 0.5, bad, 1.0), 2, dim, degree_hint=hint)

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
        assert first is _basis(9, D3).gram
        assert first.shape == (10, 10)
        with pytest.raises(ValueError):
            first[0, 0] = 1.0
        assert np.array_equal(first, _Basis(9, D3).gram)

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0, 7.3, 40.0, 64.0])
    def test_closed_form_matches_recurrence_construction(self, d):
        # the construction from P_n(0) and P_n'(0) of the three-term recurrence,
        # kept as the reference for the closed-form values at zero
        def reference(max_degree, dim):
            p0, dp0 = _with_derivatives(0.0, max_degree, dim)
            n = np.arange(max_degree + 1)
            lam = n * (n + dim.d - 2.0)
            n2 = norms_squared(max_degree, dim)
            with np.errstate(invalid="ignore"):
                raw = (np.outer(dp0, p0) - np.outer(p0, dp0)) / (lam[:, None] - lam[None, :])
            g = raw / np.outer(n2, n2)
            np.fill_diagonal(g, 1.0 / (2.0 * n2))
            return g

        dim = Dimension(d)
        for order in (0, 1, 17, 128):
            closed = _Basis(order, dim).gram
            ref = reference(order, dim)
            assert np.array_equal(closed != 0.0, ref != 0.0)
            assert np.array_equal(closed, closed.T)
            nonzero = ref != 0.0
            assert np.max(np.abs(closed[nonzero] / ref[nonzero] - 1.0)) <= 1e-14

    def test_symmetry_exact(self):
        g = gram_front(6, D3)
        assert np.array_equal(g, g.T)

    def test_same_parity_offdiagonal_zero(self):
        g = gram_front(5, D4)
        for n in range(6):
            for m in range(6):
                if n != m and (n - m) % 2 == 0:
                    assert g[n, m] == 0.0

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0])
    def test_diagonal_rule(self, d):
        dim = Dimension(d)
        g = gram_front(8, dim)
        n2 = norms_squared(8, dim)
        assert np.diag(g) == pytest.approx(1.0 / (2.0 * n2), abs=1e-10)

    def test_first_order_legendre_values(self):
        g = gram_front(1, D3)
        assert g[0, 0] == pytest.approx(0.25, abs=1e-12)
        assert g[0, 1] == pytest.approx(3.0 / 8.0, abs=1e-12)

    def test_parity_zeros_third_order(self):
        g = gram_front(3, D2)
        assert g[0, 2] == 0.0
        assert g[1, 3] == 0.0

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0, 5.5, 7.3, 40.0, 64.0])
    def test_closed_form_cross_check(self, d):
        # the quadrature Gram against the closed form; at D >= 40 the entries
        # reach 1e22, so the bound is relative to the largest entry
        dim = Dimension(d)
        for order in (8, 32, 64):
            numeric = quadrature_gram(order, dim)[1]
            closed = gram_front(order, dim)
            if order == 8 and d <= 3.0:
                assert numeric == pytest.approx(closed, abs=1e-9)
            assert np.max(np.abs(numeric - closed)) <= 1e-13 * np.max(np.abs(closed))

    @pytest.mark.parametrize("d", [2.0, 3.0, 4.0])
    def test_front_and_back_positive_definite(self, d):
        # At N = 12 the smallest eigenvalue (1e-18 to 1e-16) lies below the
        # eigensolver backward error eps * ||G|| (1e-15 to 2e-14), so the sign
        # eigvalsh reports for it is rounding noise.  G = F^T F is positive
        # definite iff F has full column rank, and F's condition number is
        # only the square root of G's, so the rank decides it in double.
        dim = Dimension(d)
        pairs = (quadrature_gram(12, dim), quadrature_gram(12, dim, back=True))
        scale = np.linalg.norm(pairs[0][1], 2)
        for factor, entries in pairs:
            rows = factor.shape[0]
            assert np.linalg.matrix_rank(factor) == 13
            # inner-product rounding bound: rows * eps * ||G||
            err = np.max(np.abs(factor.T @ factor - entries))
            assert err < rows * np.finfo(float).eps * scale

    def test_factor_min_singular_value_matches_exact_eigenvalue(self):
        # sigma_min(F)^2 against the smallest eigenvalue of the exact Legendre
        # half-interval Gram, built from rationals and solved at 40 digits
        mp = pytest.importorskip("mpmath", exc_type=ImportError)
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
        sigma_min = np.linalg.svd(quadrature_gram(order, D3)[0], compute_uv=False)[-1]
        assert sigma_min**2 == pytest.approx(lam_min, rel=1e-3, abs=0.0)

    def test_closed_form_matches_mpmath(self):
        # 60-digit Sturm-Liouville Gram from the Gegenbauer values
        # C_n^a(1) = (2a)_n / n!, C_2k^a(0) = (-1)^k (a)_k / k!, the derivative
        # rule C_n^a' = 2a C_(n-1)^(a+1) and the Gamma-function norms
        mp = pytest.importorskip("mpmath", exc_type=ImportError)

        def at_zero(n, a):
            if n % 2:
                return mp.mpf(0)
            return (-1) ** (n // 2) * mp.rf(a, n // 2) / mp.factorial(n // 2)

        def reference(order, d):
            a = (mp.mpf(d) - 2) / 2
            n0 = mp.sqrt(mp.pi) * mp.gamma((mp.mpf(d) - 1) / 2) / mp.gamma(mp.mpf(d) / 2)
            n2, p0, dp0, lam = [], [], [], []
            for n in range(order + 1):
                c1 = mp.rf(2 * a, n) / mp.factorial(n)
                p0.append(at_zero(n, a) / c1)
                dp0.append(2 * a * at_zero(n - 1, a + 1) / c1 if n else mp.mpf(0))
                lam.append(n * (n + mp.mpf(d) - 2))
                n2.append(
                    n0 if n == 0 else mp.factorial(n) * mp.gamma(mp.mpf(d) - 1)
                    / ((2 * n + mp.mpf(d) - 2) * mp.gamma(n + mp.mpf(d) - 2)) * n0
                )
            g = mp.matrix(order + 1, order + 1)
            for n in range(order + 1):
                for m in range(order + 1):
                    if n == m:
                        g[n, m] = 1 / (2 * n2[n])
                    else:
                        raw = (dp0[n] * p0[m] - dp0[m] * p0[n]) / (lam[n] - lam[m])
                        g[n, m] = raw / (n2[n] * n2[m])
            return g

        with mp.workdps(60):
            exact = reference(16, 2.5)
            closed = gram_front(16, Dimension(2.5))
            err = max(abs(mp.mpf(closed[n, m]) - exact[n, m]) for n in range(17) for m in range(17))
            assert err <= 1e-14 * np.max(np.abs(closed))

            # the analytic FBR of a max-rE design against the 60-digit quadratic forms
            order = 32
            weights = max_re(order, Dimension(2.2)).weights
            a = weights.a
            exact = reference(order, 2.2)
            front = back = mp.mpf(0)
            for n in range(order + 1):
                for m in range(order + 1):
                    front += mp.mpf(a[n]) * exact[n, m] * mp.mpf(a[m])
                    back += (-1) ** (n + m) * mp.mpf(a[n]) * exact[n, m] * mp.mpf(a[m])
            fbr = compute_metrics(weights).fbr
            assert abs(fbr - front / back) <= 1e-9 * front / back

    def test_quadratic_forms_match_half_energies(self):
        # a^T G a must equal the front-half energy integral of the pattern, and
        # a^T (G o s s^T) a with s = (-1)^n the back-half one (w is even)
        from axibeam import WeightVector, eval_pattern
        from axibeam.designs import Normalization

        rng = np.random.default_rng(41)
        a = rng.uniform(-1.0, 1.0, size=5)
        vec = WeightVector(D3, a, Normalization.RAW)
        gram = gram_front(4, D3)
        sign = (-1.0) ** np.arange(5)
        sub = D3.subsurface
        energy = lambda x: np.asarray(eval_pattern(vec, x)) ** 2
        front = integrate_axisym(energy, D3, 8, lower=0.0)
        back = integrate_axisym(energy, D3, 8, upper=0.0)
        assert float(a @ gram @ a) == pytest.approx(front * sub * sub, rel=1e-11)
        back_gram = gram * np.outer(sign, sign)
        assert float(a @ back_gram @ a) == pytest.approx(back * sub * sub, rel=1e-11)


@pytest.mark.parametrize(
    "call",
    [
        lambda: transform_coeffs(np.cos, -1, D3),
        lambda: gram_front(-1, D3),
        lambda: integrate_axisym(np.ones_like, D3, degree_hint=-1),
    ],
    ids=["transform_coeffs", "gram_front", "integrate_axisym"],
)
def test_negative_degree_rejected(call):
    with pytest.raises(DomainError, match=">= 0"):
        call()
