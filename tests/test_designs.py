import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from axibeam import (
    Dimension,
    DomainError,
    InvalidFlatness,
    Normalization,
    RangeWarning,
    WeightVector,
    ZeroPressure,
    basic,
    cap,
    cap_trapezoid,
    compute_metrics,
    compute_metrics_numeric,
    derivative,
    eval_pattern,
    eval_sequence,
    inphase,
    max_re,
    maxflat,
    norms_squared,
    supercardioid,
    supercardioid_approx,
)
from axibeam.quadrature import integrate_axisym

from _gram_reference import quadrature_gram

D2 = Dimension(2.0)
D3 = Dimension(3.0)
D4 = Dimension(4.0)


def fbr_of(a, dim):
    front = quadrature_gram(len(a) - 1, dim)[1]
    back = quadrature_gram(len(a) - 1, dim, back=True)[1]
    return float(a @ front @ a) / float(a @ back @ a)


class TestWeightVector:
    def test_order(self):
        assert basic(4, D3).order == 4

    def test_a0_normalization_exact(self):
        vec = WeightVector(D3, [2.0, 1.0, 0.5], Normalization.RAW)
        out = vec.normalized("a0")
        assert out.a[0] == 1.0

    def test_g1_normalization(self):
        vec = inphase(3, D3).normalized(Normalization.G1_UNITY)
        assert vec.front_value() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "d, a, want",
        [(64.0, [1e300, 5e299], [5.97434e-20, 2.98717e-20]),
         (3.0, [1e-320, 1e-320], [math.pi, math.pi])],
        ids=["D64-1e300", "D3-subnormal"],
    )
    def test_g1_normalization_at_extreme_scales(self, d, a, want):
        # g(1) is summed on the weights scaled by 2^-k, so it neither
        # overflows (1/S_62 is about 5e17) nor rounds subnormal weights
        dim = Dimension(d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vec = WeightVector(dim, a, Normalization.RAW).normalized("g1")
        unit = WeightVector(dim, np.divide(a, a[0]), Normalization.RAW).normalized("g1")
        assert vec.a == pytest.approx(unit.a, rel=1e-15, abs=0.0)
        assert vec.a == pytest.approx(want, rel=1e-5, abs=0.0)
        assert vec.front_value() == pytest.approx(1.0, rel=4 * np.finfo(float).eps, abs=0.0)

    def test_zero_pressure(self):
        vec = WeightVector(D3, [0.0, 1.0], Normalization.RAW)
        with pytest.raises(ZeroPressure):
            vec.normalized("a0")

    def test_round_trip(self):
        vec = cap(4, 0.2, D3)
        back = vec.normalized("g1").normalized("a0")
        assert back.a == pytest.approx(vec.normalized("a0").a, rel=1e-14)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(DomainError):
            WeightVector(D3, [1.0, bad], Normalization.RAW)

    @pytest.mark.parametrize("a", [[[1.0, 0.5]], []], ids=["2-d", "empty"])
    def test_rejects_non_1d_or_empty(self, a):
        with pytest.raises(DomainError, match="non-empty 1-d"):
            WeightVector(D3, a, Normalization.RAW)

    @pytest.mark.parametrize("kind", ["g1", "raw"])
    def test_unscaled_normalization_is_a_copy(self, kind):
        # to its own convention, or to raw, the weights are kept as they are
        vec = inphase(3, D3).normalized("g1")
        out = vec.normalized(kind)
        assert out is not vec and out.a is not vec.a
        assert np.array_equal(out.a, vec.a) and out.normalization.value == kind

    def test_g1_normalization_of_zero_front_value(self):
        # D = 2: g(1) = (a_0 / pi + 2 a_1 / pi) / 2, exactly 0 for a = [2, -1]
        vec = WeightVector(D2, [2.0, -1.0], Normalization.RAW)
        assert vec.front_value() == 0.0
        with pytest.raises(DomainError, match="g\\(1\\) = 0"):
            vec.normalized("g1")

    def test_g1_normalization_past_the_double_range(self):
        # g(1) = 1e-310 / pi against a_0 = 2: the weights would reach 6e310
        vec = WeightVector(D2, [2.0, -1.0, 1e-310], Normalization.RAW)
        with pytest.raises(DomainError, match="finite"):
            vec.normalized("g1")


class TestBasic:
    def test_all_ones(self):
        assert basic(2, D3).a == pytest.approx([1.0, 1.0, 1.0], abs=0.0)

    def test_directivity_circle(self):
        for order in range(6):
            assert compute_metrics(basic(order, D2)).q == pytest.approx(
                2 * order + 1, rel=1e-12
            )

    def test_directivity_sphere(self):
        from axibeam import compute_metrics

        for order in range(6):
            assert compute_metrics(basic(order, D3)).q == pytest.approx(
                (order + 1) ** 2, rel=1e-12
            )


class TestMaxRe:
    def test_chebyshev_root(self):
        for order in range(1, 10):
            sol = max_re(order, D2)
            assert sol.r_e_max == pytest.approx(
                math.cos(math.pi / (2.0 * (order + 1))), abs=1e-13
            )

    def test_legendre_first_order(self):
        assert max_re(1, D3).r_e_max == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-14)

    def test_sphere_approximation_window(self):
        sol = max_re(4, D3)
        assert abs(sol.r_e_max - math.cos(math.radians(137.9) / 5.51)) < 0.01

    def test_root_property(self):
        for d in (2.0, 2.5, 3.0, 4.0):
            dim = Dimension(d)
            for order in (1, 3, 7, 15):
                sol = max_re(order, dim)
                top = float(eval_sequence(sol.r_e_max, order + 1, dim)[order + 1])
                assert abs(top) < 1e-13

    def test_largest_root(self):
        # no sign change of P_{N+1} on (r, 1]
        for d in (2.0, 2.5, 3.0, 4.0, 8.0):
            dim = Dimension(d)
            for order in (1, 4, 9):
                sol = max_re(order, dim)
                xs = np.linspace(sol.r_e_max + 1e-9, 1.0, 200)
                vals = eval_sequence(xs, order + 1, dim)[order + 1]
                assert np.all(vals > 0.0)

    def test_weights_are_polynomial_values(self):
        sol = max_re(5, D3)
        assert sol.weights.a == pytest.approx(
            np.asarray(eval_sequence(sol.r_e_max, 5, D3)), rel=1e-14
        )

    def test_order_zero_degenerates(self):
        sol = max_re(0, D3)
        assert sol.r_e_max == 0.0
        assert sol.weights.a == pytest.approx([1.0], abs=0.0)

    def test_converges_across_orders_and_dims(self):
        for d in (2.0, 2.2, 2.5, 3.0, 5.0, 8.0):
            dim = Dimension(d)
            for order in (1, 2, 8, 16, 32, 64):
                sol = max_re(order, dim)
                assert 0.0 < sol.r_e_max < 1.0
                assert sol.iterations <= 100

    def test_cosine_window_circle(self):
        # D=2 max-rE weights are the cosine half-wave window
        order = 6
        sol = max_re(order, D2)
        window = np.cos(np.pi * np.arange(order + 1) / (2.0 * (order + 1)))
        assert sol.weights.a == pytest.approx(window, abs=1e-13)

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0, 7.3, 64.0])
    def test_matches_gauss_jacobi_nodes(self, d):
        # P_{N+1} is a multiple of the Jacobi polynomial P^(a, a)_{N+1}, a = (D - 3)/2;
        # scipy is an optional test oracle, not a dependency of axibeam
        pytest.importorskip("scipy", exc_type=ImportError)
        from scipy.special import roots_jacobi

        dim = Dimension(d)
        a = (d - 3.0) / 2.0
        for order in range(129):
            ref = roots_jacobi(order + 1, a, a)[0][-1]
            assert abs(max_re(order, dim).r_e_max - ref) <= 1e-15

    @pytest.mark.parametrize("d", [2.5, 7.3])
    def test_matches_mpmath_root(self, d):
        mp = pytest.importorskip("mpmath", exc_type=ImportError)
        dim = Dimension(d)
        with mp.workdps(50):
            alpha = mp.mpf(dim.alpha)
            for order in (8, 64, 128):
                deg = order + 1
                r = max_re(order, dim).r_e_max

                def top(x):
                    return mp.gegenbauer(deg, alpha, x) / mp.gegenbauer(deg, alpha, 1)

                ref = mp.findroot(top, mp.mpf(r), tol=mp.mpf(10) ** -40)
                assert abs(r - float(ref)) <= 4.5e-16

    def test_single_newton_step(self):
        for d in (2.0, 3.0, 64.0):
            for order in (0, 1, 128):
                assert max_re(order, Dimension(d)).iterations == 1


class TestSupercardioid:
    def test_first_order_sphere(self):
        assert supercardioid(1, D3).a == pytest.approx(
            [1.0, 1.0 / math.sqrt(3.0)], abs=1e-11
        )

    def test_first_order_circle(self):
        assert supercardioid(1, D2).a == pytest.approx(
            [1.0, math.sqrt(2.0) / 2.0], abs=1e-11
        )

    def test_optimality_against_random_vectors(self):
        rng = np.random.default_rng(77)
        order = 2
        best = fbr_of(supercardioid(order, D3).a, D3)
        for _ in range(1000):
            trial = rng.normal(size=order + 1)
            assert fbr_of(trial, D3) <= best * (1.0 + 1e-9)

    def test_regression_sphere(self):
        db = [
            10.0 * math.log10(fbr_of(supercardioid(n, D3).a, D3)) for n in range(1, 6)
        ]
        slope, intercept = np.polyfit(np.arange(1, 6), db, 1)
        assert abs(slope - 13.75) < 0.5
        assert abs(intercept - (-3.0)) < 0.5

    @pytest.mark.xfail(
        strict=True,
        reason="the 2-D target line 13.75 N - 3.6 dB lies below the computed "
        "optimum (already at N = 1 the true maximum is 12.8 dB versus 10.15 dB "
        "on the line), so no correct maximizer can fit it within 0.5 dB",
    )
    def test_regression_circle(self):
        ns = np.arange(1, 6)
        db = [10.0 * math.log10(fbr_of(supercardioid(n, D2).a, D2)) for n in ns]
        assert np.max(np.abs(np.asarray(db) - (13.75 * ns - 3.6))) < 0.5

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 64.0])
    def test_order_zero_is_omni(self, d):
        # the eigenvector of the 1 x 1 zero matrix: the omni pattern, FBR 1
        dim = Dimension(d)
        vec = supercardioid(0, dim)
        assert vec.a.tolist() == [1.0]
        assert compute_metrics(vec).fbr == 1.0

    @pytest.mark.parametrize("order", [8, 12, 16, 24, 32])
    def test_matches_exact_legendre_reference(self, order):
        # D = 3: the back-half Gram in orthonormal coordinates, built from the
        # exact rational Legendre half-interval integrals, solved at 80 digits
        # (5 per degree past N = 16)
        mp = pytest.importorskip("mpmath", exc_type=ImportError)

        def p0(n):
            if n % 2:
                return Fraction(0)
            return Fraction((-1) ** (n // 2) * math.comb(n, n // 2), 2**n)

        dp0 = [n * p0(n - 1) if n else Fraction(0) for n in range(order + 1)]
        with mp.workdps(max(80, 5 * order)):
            norm = [mp.sqrt(mp.mpf(2) / (2 * n + 1)) for n in range(order + 1)]
            back = mp.matrix(order + 1, order + 1)
            for n in range(order + 1):
                for m in range(order + 1):
                    if n == m:
                        raw = Fraction(1, 2 * n + 1)
                    elif (n - m) % 2:
                        raw = (dp0[n] * p0(m) - dp0[m] * p0(n)) / (n * (n + 1) - m * (m + 1))
                    else:
                        raw = Fraction(0)
                    value = mp.mpf(raw.numerator) / raw.denominator
                    back[n, m] = (-1) ** (n + m) * value / (norm[n] * norm[m])
            vals, vecs = mp.eigsy(back)
            k = min(range(order + 1), key=lambda i: vals[i])
            a = [norm[n] * vecs[n, k] for n in range(order + 1)]
            exact = np.array([float(x / a[0]) for x in a])
        assert np.max(np.abs(supercardioid(order, D3).a - exact)) <= 1e-13

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0])
    def test_resolved_through_order_eighteen(self, d):
        # quadrature FBR, which stays accurate past the analytic form's floor
        dim = Dimension(d)
        previous = 0.0
        for order in range(1, 19):
            best = compute_metrics_numeric(supercardioid(order, dim)).fbr
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RangeWarning)
                approx = compute_metrics_numeric(supercardioid_approx(order, dim)).fbr
            assert best >= approx
            assert best > previous
            previous = best

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0, 64.0])
    @pytest.mark.parametrize("order", [20, 24, 32, 64, 128])
    def test_resolved_past_order_eighteen(self, order, d):
        vec = supercardioid(order, Dimension(d))
        assert np.all(np.isfinite(vec.a))
        assert vec.a[0] == 1.0
        assert vec.front_value() > 0.0
        # Perron-Frobenius: every exact weight is positive, so a negative one
        # is rounding noise in a trailing weight far below the largest
        assert np.all(vec.a > -1e-15 * np.max(np.abs(vec.a)))

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 5.0, 16.0, 64.0])
    def test_matches_back_factor_svd(self, d):
        # independent oracle: the last right singular vector of the quadrature
        # back-half factor scaled to orthonormal coordinates
        dim = Dimension(d)
        for order in range(1, 13):
            norms = np.sqrt(norms_squared(order, dim))
            vt = np.linalg.svd(quadrature_gram(order, dim, back=True)[0] * norms)[2]
            a = norms * vt[-1]
            a = a / a[0]
            assert np.max(np.abs(supercardioid(order, dim).a - a)) <= 1e-9


class TestSupercardioidApprox:
    def test_exponent_value(self):
        # beta(N=1, D=3) = 1.63/2.83
        vec = supercardioid_approx(1, D3)
        expected = inphase(1, D3).a ** (1.63 / 2.83)
        assert vec.a == pytest.approx(expected, rel=1e-12)

    def test_leading_weight_is_one(self):
        assert supercardioid_approx(1, D2).a[0] == 1.0

    def test_approximation_bound_above_order_two(self):
        for dim in (D2, D3):
            for order in range(3, 11):
                err = np.max(
                    np.abs(supercardioid_approx(order, dim).a - supercardioid(order, dim).a)
                )
                assert err < 10.0 ** (-44.0 / 20.0)

    @pytest.mark.xfail(
        strict=True,
        reason="at N <= 2 the fitted exponent misses the optimum by up to "
        "4.6e-2 (the exact first-order weight is inphase^0.5, the fit gives "
        "0.56..0.58), so the -44 dB bound cannot hold there",
    )
    def test_approximation_bound_low_orders(self):
        for dim in (D2, D3):
            for order in (1, 2):
                err = np.max(
                    np.abs(supercardioid_approx(order, dim).a - supercardioid(order, dim).a)
                )
                assert err < 10.0 ** (-44.0 / 20.0)

    def test_warns_outside_fitted_range(self):
        with pytest.warns(RangeWarning):
            supercardioid_approx(11, D3)
        with pytest.warns(RangeWarning):
            supercardioid_approx(4, Dimension(4.0))

    def test_silent_inside_fitted_range(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            supercardioid_approx(5, Dimension(2.5))


class TestInphase:
    def test_first_order_sphere(self):
        assert inphase(1, D3).a == pytest.approx([1.0, 1.0 / 3.0], rel=1e-14)

    def test_order_zero(self):
        assert inphase(0, D4).a == pytest.approx([1.0], abs=0.0)

    def test_circle_pattern_is_squared_cardioid(self):
        # g for N=2, D=2 must be proportional to (1+x)^2
        vec = inphase(2, D2).normalized("g1")
        xs = np.linspace(-1.0, 1.0, 17)
        assert eval_pattern(vec, xs) == pytest.approx((1.0 + xs) ** 2 / 4.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2.0, 3.0, 4.0])
    def test_pattern_identity(self, d):
        dim = Dimension(d)
        xs = np.linspace(-1.0, 1.0, 50)
        for order in range(9):
            vec = inphase(order, dim).normalized("g1")
            expected = (1.0 + xs) ** order / 2.0**order
            assert np.max(np.abs(eval_pattern(vec, xs) - expected)) < 1e-10

    def test_matches_mpmath(self):
        # the cumulative product rounds a few times per factor, so the
        # relative error grows only linearly in n (8.7e-15 worst seen; one
        # log-Gamma exponent per weight gave 4.6e-13)
        mp = pytest.importorskip("mpmath", exc_type=ImportError)
        worst = 0.0
        with mp.workdps(50):
            for d in (2.0, 2.5, 3.0, 7.3, 30.0, 64.0):
                dim, big_d = Dimension(d), mp.mpf(d)
                for order in range(129):
                    a = inphase(order, dim).a
                    ref = mp.mpf(1)
                    for n in range(order + 1):
                        if n:
                            ref *= (order - n + 1) / (order + n + big_d - 2)
                        worst = max(worst, float(abs(mp.mpf(a[n]) / ref - 1)))
        assert worst < 2e-14


class TestMaxflat:
    def test_reduces_to_inphase(self):
        for d in (2.0, 2.5, 3.0):
            dim = Dimension(d)
            for order in range(1, 9):
                flat = maxflat(order, 0, dim).normalized("a0")
                assert flat.a == pytest.approx(inphase(order, dim).a, abs=1e-10)

    def test_first_order_cardioid(self):
        vec = maxflat(1, 0, D3)
        xs = np.linspace(-1.0, 1.0, 9)
        assert eval_pattern(vec, xs) == pytest.approx((1.0 + xs) / 2.0, abs=1e-13)

    def test_boundary_values_and_derivative_shape(self):
        order, flat_l = 5, 2
        m_deg = order - flat_l - 1
        vec = maxflat(order, flat_l, D3)
        assert eval_pattern(vec, -1.0) == pytest.approx(0.0, abs=1e-12)
        assert eval_pattern(vec, 1.0) == pytest.approx(1.0, abs=1e-12)
        # g' proportional to (1-x)^L (1+x)^M
        xs = np.linspace(-0.9, 0.9, 20)
        n2 = norms_squared(order, D3)
        slopes = np.array(
            [
                sum(
                    vec.a[n] * derivative(float(x), n, D3) / (D3.subsurface * n2[n])
                    for n in range(order + 1)
                )
                for x in xs
            ]
        )
        shape = (1.0 - xs) ** flat_l * (1.0 + xs) ** m_deg
        ratio = slopes / shape
        assert np.max(np.abs(ratio - ratio[0])) < 1e-8

    def test_flatness_split_sweep(self):
        # every admissible L yields g(-1) = 0, g(1) = 1
        for d in (2.0, 3.0):
            dim = Dimension(d)
            for order in (2, 5, 7):
                for flat_l in range(order):
                    vec = maxflat(order, flat_l, dim)
                    assert eval_pattern(vec, -1.0) == pytest.approx(0.0, abs=1e-11)
                    assert eval_pattern(vec, 1.0) == pytest.approx(1.0, abs=1e-11)

    def test_matches_array_recurrence(self):
        # the forward recurrence as numpy element assignments; the Python-float
        # loop takes the same steps, so the weights agree bit for bit
        for d in (2.0, 2.5, 3.0, 7.3, 64.0):
            dim = Dimension(d)
            for order in (1, 2, 5, 16, 33, 64, 128):
                for flat_l in sorted({0, order // 3, order // 2, order - 1}):
                    m_deg = order - flat_l - 1
                    delta = float(flat_l - m_deg)
                    alpha = dim.alpha
                    a = np.zeros(order + 1)
                    a[1] = 1.0
                    for n in range(1, order):
                        a[n + 1] = -(
                            (order - n + 1.0) * (n - 1.0) * a[n - 1]
                            + 2.0 * delta * (n + alpha) * a[n]
                        ) / ((order + n + 2.0 * alpha + 1.0) * (n + 2.0 * alpha + 1.0))
                    n2 = norms_squared(order, dim)
                    ratio = n2[0] / n2
                    signs = (-1.0) ** np.arange(order + 1)
                    a[0] = -float(np.sum(signs[1:] * ratio[1:] * a[1:]))
                    ref = WeightVector(dim, a, Normalization.RAW).normalized("g1")
                    assert np.array_equal(maxflat(order, flat_l, dim).a, ref.a), (d, order, flat_l)

    def test_invalid_flatness(self):
        with pytest.raises(InvalidFlatness):
            maxflat(4, 4, D3)
        with pytest.raises(InvalidFlatness):
            maxflat(4, -1, D3)
        with pytest.raises(InvalidFlatness):
            maxflat(3, 1.5, D3)


class TestCap:
    def test_hemisphere_weight(self):
        assert cap(3, 0.0, D3).a[0] == pytest.approx(1.0, abs=0.0)

    def test_circle_cap_is_arc_length(self):
        x0 = math.cos(math.radians(40.0))
        assert cap(3, x0, D2).a[0] == pytest.approx(math.radians(40.0), rel=1e-13)

    def test_general_dimension_weight_matches_quadrature(self):
        dim = Dimension(2.5)
        x0 = 0.3
        direct = integrate_axisym(np.ones_like, dim, 0, lower=x0)
        assert cap(2, x0, dim).a[0] == pytest.approx(direct, rel=1e-13)

    def test_zeroth_weight_matches_mpmath_incomplete_beta(self):
        # a_0 = int_x0^1 (1 - x^2)^((D-3)/2) dx = B_{1-x0^2}(p, 1/2) / 2, p = (D-1)/2,
        # or its complement B(p, 1/2) - B_{1-x0^2}(p, 1/2) / 2 for x0 < 0
        mp = pytest.importorskip("mpmath", exc_type=ImportError)
        worst = 0.0
        with mp.workdps(50):
            for d in (2.0001, 2.5, 3.5, 7.3, 33.3, 64.0):
                p = (mp.mpf(d) - 1) / 2
                for x0 in (0.99999, -0.99999, 0.5, -0.5, 1e-9, -1e-9, 0.0, 0.3):
                    x = mp.mpf(x0)
                    ref = mp.betainc(p, mp.mpf(1) / 2, 0, 1 - x * x) / 2
                    if x0 < 0:
                        ref = mp.beta(p, mp.mpf(1) / 2) - ref
                    err = abs(cap(0, x0, Dimension(d)).a[0] - ref) / ref
                    worst = max(worst, float(err))
        assert worst <= 1e-12

    @pytest.mark.parametrize("d", [2.0, 2.5, 3.0, 4.0])
    def test_weights_equal_segment_integrals(self, d):
        dim = Dimension(d)
        x0 = math.cos(math.radians(40.0))
        vec = cap(8, x0, dim)
        for n in range(9):
            oracle = integrate_axisym(
                lambda x: eval_sequence(x, 8, dim)[n], dim, 8, lower=x0
            )
            assert vec.a[n] == pytest.approx(oracle, abs=1e-13)

    def test_partial_sum_approximates_indicator(self):
        x0 = math.cos(math.radians(40.0))
        vec = cap(30, x0, D3)
        n2 = norms_squared(30, D3)

        def partial(x):
            return float(np.sum(vec.a / n2 * np.asarray(eval_sequence(x, 30, D3))))

        assert abs(partial(math.cos(math.radians(20.0))) - 1.0) < 0.1
        assert abs(partial(math.cos(math.radians(60.0))) - 0.0) < 0.1

    def test_rejects_degenerate_boundary(self):
        with pytest.raises(DomainError):
            cap(3, 1.0, D3)
        with pytest.raises(DomainError):
            cap(3, -1.0, D3)


class TestCapTrapezoid:
    def test_zeroth_weight_is_product(self):
        spacing = 60.0
        s = math.radians(spacing)
        vec = cap_trapezoid(0, spacing, D3)
        expected = (1.0 - math.cos(1.375 * s / 2.0)) * (1.0 - math.cos(0.75 * s / 2.0))
        assert vec.a[0] == pytest.approx(expected, rel=1e-13)

    def test_compositional_product(self):
        spacing = 60.0
        s = math.radians(spacing)
        vec = cap_trapezoid(7, spacing, D3)
        wide = cap(7, math.cos(1.375 * s / 2.0), D3)
        narrow = cap(7, math.cos(0.75 * s / 2.0), D3)
        assert vec.a == pytest.approx(wide.a * narrow.a, rel=1e-14)

    def test_degenerate_spacing_vanishes(self):
        vec = cap_trapezoid(4, 1e-3, D3)
        assert np.max(np.abs(vec.a)) < 1e-8

    def test_spacing_domain(self):
        with pytest.raises(DomainError):
            cap_trapezoid(3, 0.0, D3)
        with pytest.raises(DomainError):
            cap_trapezoid(3, 135.0, D3)


class TestOrderingChains:
    @pytest.mark.parametrize("d", [2.0, 3.0])
    def test_metric_orderings(self, d):
        from axibeam import compute_metrics

        dim = Dimension(d)
        slack = 1e-12  # ties (max-rE and supercardioid coincide at N=1, D=3) break on rounding
        for order in range(1, 6):
            designs = {
                "basic": compute_metrics(basic(order, dim)),
                "maxre": compute_metrics(max_re(order, dim).weights),
                "supercard": compute_metrics(supercardioid(order, dim)),
                "inphase": compute_metrics(inphase(order, dim)),
            }

            def chain(values):
                return all(
                    values[i] >= values[i + 1] * (1.0 - slack)
                    for i in range(len(values) - 1)
                )

            names = ("basic", "maxre", "supercard", "inphase")
            assert chain([designs[k].q for k in names])
            assert chain([designs[k].r_v for k in names])
            others = ("basic", "supercard", "inphase")
            assert all(
                designs["maxre"].r_e >= designs[k].r_e * (1 - slack) for k in others
            )
            others = ("basic", "maxre", "inphase")
            assert all(
                designs["supercard"].fbr >= designs[k].fbr * (1 - slack) for k in others
            )


@pytest.mark.parametrize(
    "design",
    [basic, max_re, supercardioid, inphase, supercardioid_approx,
     lambda n, dim: cap(n, 0.3, dim)],
    ids=["basic", "max_re", "supercardioid", "inphase", "supercardioid_approx", "cap"],
)
def test_negative_order_rejected(design):
    with pytest.raises(DomainError, match="order must be an integer >= 0"):
        design(-1, D3)


# mpmath gate over the declared range N <= 128, 2 <= D <= 64 (maxflat is left
# out: its a_0 from g(-1) = 0 cancels, 2e-8 off at D = 16, N = 128)
GATE_DIMS = (2.0, 2.5, 3.0, 7.3, 30.0, 64.0)
GATE_ORDERS = (8, 32, 64, 128)


def mp_sequence(x, order, d):
    """P_0..P_N and P'_0..P'_N at an mpf x by the recurrences, at mpmath's precision."""
    p, der = [1, x], [0, 1]
    for n in range(1, order):
        p.append(((2 * n + d - 2) * x * p[n] - n * p[n - 1]) / (n + d - 2))
        der.append(((2 * n + d - 2) * (p[n] + x * der[n]) - n * der[n - 1]) / (n + d - 2))
    return p[:order + 1], der[:order + 1]


def max_scaled_error(a, ref):
    return float(max(abs(v - r) for v, r in zip(a, ref)) / max(abs(r) for r in ref))


@pytest.mark.parametrize("d", GATE_DIMS)
def test_max_re_matches_mpmath_over_declared_range(d):
    # the root by 40-digit Newton on P_{N+1} from the double root, the
    # weights P_n(root); 2.75e-13 max-scaled worst seen (D = 2, N = 128)
    mp = pytest.importorskip("mpmath", exc_type=ImportError)
    dim = Dimension(d)
    with mp.workdps(40):
        big_d = mp.mpf(d)
        for order in GATE_ORDERS:
            sol = max_re(order, dim)
            root = mp.mpf(sol.r_e_max)
            for _ in range(4):
                p, der = mp_sequence(root, order + 1, big_d)
                root -= p[-1] / der[-1]
            assert abs(sol.r_e_max - float(root)) <= 2.2e-16
            ref = mp_sequence(root, order, big_d)[0]
            assert max_scaled_error(sol.weights.a, ref) <= 4e-13


@pytest.mark.parametrize("d", GATE_DIMS)
def test_cap_matches_mpmath_over_declared_range(d):
    # a_n = int_x0^1 P_n w = (1 - x0^2) w(x0) P_n'(x0) / (n (n + D - 2)) for
    # n >= 1, from the differential equation; a_0 the incomplete beta.
    # 1.7e-14 max-scaled worst seen (D = 64, N = 8, x0 = 0.95).  Closer to
    # x0 = 1 the weights inherit the condition of (1 - x0^2)^(alpha - 1/2):
    # 5.7e-13 at x0 = 0.999, D = 64.
    mp = pytest.importorskip("mpmath", exc_type=ImportError)
    dim = Dimension(d)
    with mp.workdps(40):
        big_d, half = mp.mpf(d), mp.mpf(1) / 2
        for x0 in (-0.5, 0.3, math.cos(math.radians(40.0)), 0.95):
            x = mp.mpf(x0)
            mass = mp.betainc((big_d - 1) / 2, half, 0, 1 - x * x) / 2
            if x0 < 0:
                mass = mp.beta((big_d - 1) / 2, half) - mass
            boundary = (1 - x * x) ** ((big_d - 1) / 2)
            for order in GATE_ORDERS:
                der = mp_sequence(x, order, big_d)[1]
                ref = [mass] + [boundary * der[n] / (n * (n + big_d - 2))
                                for n in range(1, order + 1)]
                assert max_scaled_error(cap(order, x0, dim).a, ref) <= 5e-14
