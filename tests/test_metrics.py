import math
import warnings

import numpy as np
import pytest

from axibeam import (
    Dimension,
    DomainError,
    Normalization,
    WeightVector,
    ZeroPressure,
    basic,
    cd_kernel,
    compute_metrics,
    compute_metrics_numeric,
    eval_pattern,
    inphase,
    max_re,
)

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
        with pytest.raises(ZeroPressure):
            compute_metrics(vec, require_rv=True)
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

    def test_zero_energy_is_domain_error(self):
        vec = raw(D3, [0.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            compute_metrics(vec)
        with pytest.raises(DomainError):
            compute_metrics_numeric(vec)


class TestNumericOracle:
    def test_inphase_fbr_closed_integral(self):
        # FBR of (1+x)^2 patterns: int_0^1 (1+x)^4 dx / int_-1^0 (1+x)^4 dx = 31
        met = compute_metrics_numeric(inphase(2, D3))
        assert met.fbr == pytest.approx(31.0, rel=1e-11)
        assert compute_metrics(inphase(2, D3)).fbr == pytest.approx(31.0, rel=1e-11)

    def test_constant_pattern_fbr(self):
        met = compute_metrics_numeric(basic(0, D3))
        assert met.fbr == pytest.approx(1.0, rel=1e-12)

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
