"""Contract of the public API: a finite result or a typed error, and no warning.

Every callable in `axibeam.__all__` and every CLI subcommand is called on a
seeded draw from a table of edge inputs: orders N in {0, 1, 7, 64, 128} (and
129, one past `MAX_ORDER`), dimensions D in {2, 2 + 1e-12, 3, 7.3, 63.9999,
64}, weight scales from the smallest subnormal 5e-324 to 1.7e308, and x at the
end points -1 and 1.  Each call must return finite values or raise an
`AxibeamError`; the CLI must exit 2 or 3 with a one-line message and no
traceback.  No call may issue a warning, except the `RangeWarning` that
`supercardioid_approx` documents outside its fitted range.

A value may be +-inf only where scale equivariance predicts it: the same call
on the weights scaled by the exact power of two 2^-m that brings their
largest magnitude into [0.5, 1), taken back by 2^(p m) for a value
homogeneous of degree p in the weights, lies outside the double range.

The quadrature entry points take a callable, not weights: their integrands
are a pattern with g(1) = 1, times a scale from the same table, and their
+-inf must be predicted in the same way from the integrand scaled by 2^-m.

Every integer argument (an order, degree, L, t or node count) takes an int,
a numpy integer or an integral float alike, bit for bit, and rejects any
other value with a typed error, whatever the state of the per-(N, D) cache.
"""

from __future__ import annotations

import inspect
import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, is_dataclass

import numpy as np

import axibeam as ab
from axibeam.cli import main
from axibeam.sampling import MAX_NODES
from axibeam.ultraspherical import MAX_ORDER, _cached_basis

SEED = 20240
ORDERS = (0, 1, 7, 64, 128, 129)
DIMS = (2.0, 2.0 + 1e-12, 3.0, 7.3, 63.9999, 64.0)
SCALES = (5e-324, 1e-300, 2.0**-600, 1e-150, 1.0, 1e150, 2.0**600, 1e300, 1.7e308)
ENDS = (-1.0, 1.0)

# exception and warning types, and the result records the library returns
NOT_CALLED = {
    "AxibeamError", "DomainError", "InvalidFlatness", "NormError", "ParseError",
    "RangeWarning", "ZeroPressure", "DiscreteMetrics", "MaxReSolution", "PatternMetrics",
    "TDesignReport",
}


def _leaves(value):
    """The floats of a result: numbers, arrays, tuples and dataclass fields, in order."""
    if value is None or isinstance(value, (str, bool)):
        return []
    if is_dataclass(value):
        return [x for f in fields(value) for x in _leaves(getattr(value, f.name))]
    if isinstance(value, (tuple, list)):
        return [x for v in value for x in _leaves(v)]
    return np.asarray(value, dtype=float).ravel().tolist()


def _outcome(call, allow_range_warning=False):
    """call()'s result, or None for a typed error; asserts that no warning was issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except ab.AxibeamError:
            result = None
    allowed = (ab.RangeWarning,) if allow_range_warning else ()
    unexpected = [w for w in caught if not issubclass(w.category, allowed)]
    assert not unexpected, [str(w.message) for w in unexpected]
    return result


def _assert_finite(label, value):
    bad = [v for v in _leaves(value) if not math.isfinite(v)]
    assert not bad, f"{label}: non-finite {bad[:3]}"


def _out_of_range(value: float, exponent: int) -> bool:
    """True when value 2^exponent lies past the double range."""
    try:
        return math.isinf(math.ldexp(value, exponent))
    except OverflowError:
        return True


def _designs(rng, order, dim):
    """Thunks building every design at (N, D), their parameters drawn from rng."""
    flat_l = int(rng.integers(-1, order + 1))  # -1 and N are invalid
    x0 = float(rng.choice([-1.0, 1.0, rng.uniform(-1.0, 1.0)]))
    spacing = float(rng.uniform(1.0, 140.0))  # above 180/1.375 is invalid
    return {
        "basic": lambda: ab.basic(order, dim),
        "max_re": lambda: ab.max_re(order, dim).weights,
        "supercardioid": lambda: ab.supercardioid(order, dim),
        "supercardioid_approx": lambda: ab.supercardioid_approx(order, dim),
        "inphase": lambda: ab.inphase(order, dim),
        "maxflat": lambda: ab.maxflat(order, flat_l, dim),
        "cap": lambda: ab.cap(order, x0, dim),
        "cap_trapezoid": lambda: ab.cap_trapezoid(order, spacing, dim),
    }


def _metric_values(met):
    return [(met.p, 1), (met.e, 2), ((met.q, met.r_v, met.r_e, met.fbr), 0)]


def _nodes(rng, dim):
    if dim.d == 3.0:
        return ab.platonic(str(rng.choice(ab.sampling.PLATONIC_NAMES)))
    return ab.circle_nodes(int(rng.choice([1, 7, 64])))


def _readers(rng, x):
    """Weight readers: each maps a WeightVector to [(values, degree p in the weights)]."""
    kind = ab.Normalization(str(rng.choice([k.value for k in ab.Normalization])))
    ends = np.array(ENDS)
    ring, solid = _nodes(rng, ab.Dimension(2.0)), _nodes(rng, ab.Dimension(3.0))
    return {
        "WeightVector": lambda v: [(ab.WeightVector(v.dim, v.a, "raw").a, 1),
                                   (v.front_value(), 1)],
        "Normalization": lambda v: [(v.normalized(kind).a, 0)],
        "eval_pattern": lambda v: [(ab.eval_pattern(v, ends), 1), (ab.eval_pattern(v, x), 1)],
        "compute_metrics": lambda v: _metric_values(ab.compute_metrics(v)),
        "compute_metrics_numeric": lambda v: _metric_values(ab.compute_metrics_numeric(v)),
        "discrete_metrics": lambda v: _discrete_values(v, solid if v.dim.d == 3.0 else ring, x),
    }


def _discrete_values(vec, nodes, x):
    aim = np.zeros(nodes.dim)
    aim[-1] = x
    met = ab.discrete_metrics(vec, nodes, aim)
    return [(met.p, 1), (met.e, 2),
            ((met.r_v, met.r_e, met.r_v_misaim_rad, met.r_e_misaim_rad), 0)]


def _check_reader(label, reader, vec):
    """Run a weight reader on vec; +-inf must be predicted by scale equivariance."""
    m = math.frexp(float(np.abs(vec.a).max()))[1]
    _check_equivariant(
        label, lambda: reader(vec),
        lambda: reader(ab.WeightVector(vec.dim, np.ldexp(vec.a, -m), "raw")), m)


def _check_equivariant(label, call, reference, m):
    """call() -> [(values, degree p)]; reference() is the same at 2^-m the scale.

    A typed error passes; so does a finite result.  Otherwise each +-inf value
    must be the reference value, taken back by 2^(p m), past the double range.
    """
    result = _outcome(call)
    if result is None:
        return
    if all(math.isfinite(v) for value, _ in result for v in _leaves(value)):
        return
    ref = _outcome(reference)
    assert ref is not None, f"{label}: typed error only at the unit scale"
    for (value, p), (ref_value, _) in zip(result, ref):
        for got, want in zip(_leaves(value), _leaves(ref_value)):
            assert math.isfinite(got) or (
                got == math.copysign(math.inf, want) and _out_of_range(want, p * m)
            ), f"{label}: {got} where 2^{p * m} * {want} is in range"


def _integrals(rng, order, dim):
    """Quadrature calls at (N, D): each maps an integrand scale s to [(values, 1)]."""
    pattern = ab.inphase(min(order, 7), dim).normalized("g1")  # 0 <= g <= g(1) = 1
    lower = float(rng.choice([-1.0, 0.0]))

    def integrand(scale):
        return lambda t: scale * ab.eval_pattern(pattern, t)

    return {
        "integrate_axisym": lambda s: [(ab.integrate_axisym(
            integrand(s), dim, pattern.order, lower=lower), 1)],
        "transform_coeffs": lambda s: [(ab.transform_coeffs(
            integrand(s), order, dim, pattern.order), 1)],
    }


def _plain_calls(rng, order, dim, x, tmp_path):
    """Calls of the basis and sampling functions at (N, D, x)."""
    count = int(rng.choice([0, 1, 7, 64]))  # 0 is invalid
    path = tmp_path / "nodes.csv"
    path.write_text("".join(f"{t}\n" for t in rng.uniform(0.0, 360.0, max(count, 1))))
    ring = np.column_stack([np.cos(np.arange(3) * 2.1), np.sin(np.arange(3) * 2.1)])
    return {
        "Dimension": lambda: ab.Dimension(dim.d),
        "surface_area": lambda: ab.surface_area(dim),
        "eval_sequence": lambda: ab.eval_sequence(x, order, dim),
        "derivative": lambda: ab.derivative(x, order, dim),
        "cd_kernel": lambda: ab.cd_kernel(x, float(rng.choice(ENDS)), order, dim),
        "value_at_zero": lambda: ab.value_at_zero(order, dim),
        "norm_squared": lambda: ab.norm_squared(order, dim),
        "norm_squared_gamma": lambda: ab.norm_squared_gamma(order, dim),
        "norms_squared": lambda: ab.norms_squared(order, dim),
        "beta_coeff": lambda: ab.beta_coeff(order, dim),
        "power_series_coeffs": lambda: ab.power_series_coeffs(order, dim),
        "gram_front": lambda: ab.gram_front(order, dim),
        "circle_nodes": lambda: ab.circle_nodes(count, float(rng.uniform(0.0, 6.3))),
        "platonic": lambda: ab.platonic(str(rng.choice(ab.sampling.PLATONIC_NAMES))),
        "NodeSet": lambda: ab.NodeSet(2, ring),
        "load_nodes": lambda: ab.load_nodes(path),
        "tdesign_check": lambda: ab.tdesign_check(_nodes(rng, ab.Dimension(3.0)), order),
    }


def test_every_public_callable_is_walked(tmp_path):
    public = {name for name in ab.__all__ if callable(getattr(ab, name))}
    rng = np.random.default_rng(SEED)
    dim = ab.Dimension(3.0)
    walked = set(_designs(rng, 1, dim)) | set(_readers(rng, 1.0))
    walked |= set(_plain_calls(rng, 1, dim, 1.0, tmp_path)) | set(_integrals(rng, 1, dim))
    assert walked == public - NOT_CALLED


def test_library_contract(tmp_path):
    rng = np.random.default_rng(SEED)
    for d in DIMS:
        dim = ab.Dimension(d)
        for order in ORDERS:
            x = float(rng.choice(ENDS))
            for name, call in _plain_calls(rng, order, dim, x, tmp_path).items():
                _assert_finite(f"{name} N={order} D={d}", _outcome(call))
            for name, integral in _integrals(rng, order, dim).items():
                scale = float(rng.choice(SCALES))
                m = math.frexp(scale)[1]
                _check_equivariant(f"{name}(N={order} D={d} x{scale:g})",
                                   lambda: integral(scale),
                                   lambda: integral(math.ldexp(scale, -m)), m)
            readers = _readers(rng, x)
            designs = _designs(rng, order, dim)
            # the quadrature oracle builds fresh Gauss rules: one design per (N, D)
            numeric_for = rng.choice(list(designs))
            for design, build in designs.items():
                weights = _outcome(build, allow_range_warning=design == "supercardioid_approx")
                if weights is None:
                    continue
                _assert_finite(f"{design} N={order} D={d}", weights.a)
                unit = weights.a / np.abs(weights.a).max()
                for name, reader in readers.items():
                    if name == "compute_metrics_numeric" and design != numeric_for:
                        continue
                    scale = float(rng.choice(SCALES))
                    vec = ab.WeightVector(dim, unit * scale, "raw")
                    _check_reader(f"{name}({design} N={order} D={d} x{scale:g})", reader, vec)


# integrands that are NaN or +-inf at a node; a typed error is the only valid outcome
NON_FINITE = {
    "nan": lambda t: np.full_like(t, np.nan),
    "+inf": lambda t: np.inf,
    "-inf": lambda t: np.where(t > 0.5, -np.inf, 1.0),
    "+-inf": lambda t: np.where(t > 0.0, np.inf, -np.inf),
}


def test_non_finite_integrands_raise():
    for d in DIMS:
        dim = ab.Dimension(d)
        for name, f in NON_FINITE.items():
            calls = {
                "integrate_axisym": lambda: ab.integrate_axisym(f, dim),
                "integrate_axisym(0, 1)": lambda: ab.integrate_axisym(f, dim, lower=0.0),
                "transform_coeffs": lambda: ab.transform_coeffs(f, 7, dim),
            }
            for label, call in calls.items():
                got = _outcome(call)
                assert got is None, f"{label}({name}, D={d}): {got}"


D37 = ab.Dimension(3.7)
CUBE = ab.platonic("cube")


def _square(t):
    return t * t


# (callable, integer parameter) -> (call of one value, a valid value k, the
# largest value accepted, the error of an invalid value).  Every parameter has
# an upper bound that is checked before any work, so one past it and 10**30 are
# rejected without a recurrence or a rule of that many terms being started:
# MAX_ORDER for a per-(N, D) record, 2^48 for the recurrences themselves (their
# N + 1 values would take more than 2^48 doubles) and 2^24 for a quadrature
# rule's degree_hint (its Legendre companion matrix would).
N_MAX, DEGREE_MAX, HINT_MAX = MAX_ORDER, 2**48, 2**24
INTEGER_ARGS = {
    ("eval_sequence", "max_degree"): (lambda k: ab.eval_sequence(0.3, k, D37), 3, DEGREE_MAX),
    ("derivative", "n"): (lambda k: ab.derivative(0.3, k, D37), 3, DEGREE_MAX),
    ("norm_squared_gamma", "n"): (lambda k: ab.norm_squared_gamma(k, D37), 3, N_MAX),
    ("power_series_coeffs", "n"): (lambda k: ab.power_series_coeffs(k, D37), 3, N_MAX),
    ("beta_coeff", "n"): (lambda k: ab.beta_coeff(k, D37), 3, N_MAX + 1),
    ("norm_squared", "n"): (lambda k: ab.norm_squared(k, D37), 3, N_MAX),
    ("norms_squared", "max_degree"): (lambda k: ab.norms_squared(k, D37), 3, N_MAX),
    ("value_at_zero", "n"): (lambda k: ab.value_at_zero(k, D37), 4, N_MAX),
    ("cd_kernel", "max_degree"): (lambda k: ab.cd_kernel(0.3, 0.5, k, D37), 3, N_MAX),
    ("basic", "order"): (lambda k: ab.basic(k, D37), 3, N_MAX),
    ("max_re", "order"): (lambda k: ab.max_re(k, D37), 3, N_MAX),
    ("supercardioid", "order"): (lambda k: ab.supercardioid(k, D37), 3, N_MAX),
    ("supercardioid_approx", "order"): (lambda k: ab.supercardioid_approx(k, D37), 3, N_MAX),
    ("inphase", "order"): (lambda k: ab.inphase(k, D37), 3, N_MAX),
    ("maxflat", "order"): (lambda k: ab.maxflat(k, 1, D37), 3, N_MAX),
    ("maxflat", "flat_l"): (lambda k: ab.maxflat(3, k, D37), 1, 2, ab.InvalidFlatness),
    ("cap", "order"): (lambda k: ab.cap(k, 0.3, D37), 3, N_MAX),
    ("cap_trapezoid", "order"): (lambda k: ab.cap_trapezoid(k, 20.0, D37), 3, N_MAX),
    ("integrate_axisym", "degree_hint"): (lambda k: ab.integrate_axisym(_square, D37, k), 2,
                                          HINT_MAX),
    ("transform_coeffs", "max_degree"): (lambda k: ab.transform_coeffs(_square, k, D37), 3,
                                         N_MAX),
    ("transform_coeffs", "degree_hint"): (lambda k: ab.transform_coeffs(_square, 3, D37, k), 2,
                                          HINT_MAX - 3),
    ("gram_front", "max_degree"): (lambda k: ab.gram_front(k, D37), 3, N_MAX),
    ("circle_nodes", "count"): (lambda k: ab.circle_nodes(k), 3, MAX_NODES),
    ("NodeSet", "dim"): (lambda k: ab.NodeSet(k, CUBE.nodes), 3, 64),
    ("tdesign_check", "t"): (lambda k: ab.tdesign_check(CUBE, k), 3, DEGREE_MAX),
}
NOT_INTEGERS = (2.5, "2", None, math.nan)


def _verdict(call):
    """The type of a typed error, or the result's repr and float bits; a warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", ab.RangeWarning)
        try:
            value = call()
        except ab.AxibeamError as exc:
            return type(exc)
    return repr(value), np.array(_leaves(value)).tobytes()


def _cold_and_warm(call, k, value):
    """The verdicts on value after the per-(N, D) cache is cleared and after k has filled it."""
    _cached_basis.cache_clear()
    cold = _verdict(lambda: call(value))
    _verdict(lambda: call(k))
    return cold, _verdict(lambda: call(value))


def test_every_integer_parameter_is_walked():
    annotated = {(name, p.name) for name in set(ab.__all__) - NOT_CALLED
                 if callable(getattr(ab, name))
                 for p in inspect.signature(getattr(ab, name)).parameters.values()
                 if p.annotation == "int"}
    assert set(INTEGER_ARGS) == annotated


def test_integer_arguments():
    for (name, param), (call, k, high, *error) in INTEGER_ARGS.items():
        error = error[0] if error else ab.DomainError
        _cached_basis.cache_clear()
        want = _verdict(lambda: call(k))
        assert isinstance(want, tuple), (name, param, want)
        for value in (np.int64(k), float(k), np.float64(k)):
            assert _cold_and_warm(call, k, value) == (want, want), (name, param, value)
        for value in NOT_INTEGERS + (high + 1, 10**30):
            assert _cold_and_warm(call, k, value) == (error, error), (name, param, value)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# CLI columns that print nan by design: no r_v when a_0 = 0, FBR <= 0 from rounding
NAN_COLUMNS = {"rv_spread_deg", "fbr_db"}


def _cli_argv(rng, tmp_path):
    command = str(rng.choice(["weights", "metrics", "pattern", "tdesign", "metrics-file"]))
    if command == "tdesign":
        source = (["--builtin", str(rng.choice(ab.sampling.PLATONIC_NAMES))]
                  if rng.random() < 0.5 else ["--circle", str(rng.choice([0, 1, 7, 64]))])
        return ["tdesign", *source, "--t", str(rng.choice(ORDERS))]
    dim = ["--dim", repr(float(rng.choice(DIMS)))]
    if command == "metrics-file":
        a = rng.uniform(-1.0, 1.0, int(rng.choice(ORDERS[:-1])) + 1) * rng.choice(SCALES)
        path = tmp_path / "weights.csv"
        path.write_text("n,a_n\n" + "".join(f"{n},{v!r}\n" for n, v in enumerate(a)))
        return ["metrics", "--weights-file", str(path), *dim]
    design = str(rng.choice(["basic", "maxre", "supercard", "supercard-approx", "inphase",
                             "maxflat", "cap", "cap-trapezoid"]))
    order = int(rng.choice(ORDERS))
    argv = [command, "--design", design, "--order", str(order), *dim]
    argv += {"maxflat": ["--flat-l", str(rng.integers(-1, order + 1))],
             "cap": ["--cap-x0", repr(float(rng.choice([-1.0, 1.0, rng.uniform(-1, 1)])))],
             "cap-trapezoid": ["--spacing-deg", repr(float(rng.uniform(1.0, 140.0)))],
             }.get(design, [])
    norm = rng.choice(["none", "a0", "g1", "raw"])
    if norm != "none":
        argv += ["--norm", str(norm)]
    if command == "pattern":
        argv += ["--samples", str(rng.choice([2, 19, 181]))]
    return argv


def test_cli_contract(tmp_path):
    rng = np.random.default_rng(SEED)
    for _ in range(60):
        argv = _cli_argv(rng, tmp_path)
        code, out, err = _outcome(lambda: _run_cli(argv),
                                  allow_range_warning="supercard-approx" in argv)
        if code in (2, 3):
            assert err.startswith("axibeam: ") and err.count("\n") == 1, (argv, err)
            continue
        assert code in ((0, 1) if argv[0] == "tdesign" else (0,)), (argv, err)
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        columns = lines[0].split(",")
        for line in lines[1:]:
            for column, cell in zip(columns, line.split(",")):
                if column == "design":
                    continue
                value = float(cell)
                assert math.isfinite(value) or (math.isnan(value) and column in NAN_COLUMNS), (
                    argv, column, cell)
