"""The four benchmark workloads: seeded inputs, the timed operation, output checks.

Every workload object offers the same small interface to `run.py`:

* `prepare()` writes or builds benchmark-side inputs (untimed);
* `warm_up()` runs the program over the workload's shared inputs, so caches
  are filled before timing; a fresh process running it is the set-up probe;
* `next_op()` draws the next operation from the seeded stream;
* `run(op)` is the timed call into axibeam;
* `check(op, result)` returns a `Check` for the output.

All library calls go through the `axibeam` package namespace at call time, so
the traced run sees them once `spans.Tracer.install` has rebound them.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import axibeam as ab
from checkout import OUT, ROOT, SRC

EPS = float(np.finfo(float).eps)
# FBR above which the analytic quadratic form loses every digit (README known-red 3)
FBR_FLOOR = 1.0 / (1e4 * EPS)
DIGITS_CAP = 16.0

DESIGNS = ("basic", "max_re", "supercardioid", "supercardioid_approx",
           "inphase", "maxflat", "cap", "cap_trapezoid")


@dataclass
class Check:
    """Outcome of one output check: a problem string, or None when it passed."""

    problem: str | None = None
    digits: float | None = None       # fewest correct digits of the values checked
    fbr_digits: float | None = None   # correct digits of the FBR quadratic form
    recorded: tuple = ()              # known-floor findings counted instead of failed


def correct_digits(err: float) -> float:
    if not math.isfinite(err):
        return 0.0
    if err <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, max(0.0, -math.log10(err)))


def rel_err(value: float, ref: float, floor: float = 1e-6) -> float:
    return abs(value - ref) / max(abs(ref), floor)


def blocks(rng: np.random.Generator, items):
    """Yield `items` forever, each pass in a fresh seeded order.

    Every block holds each item once, so the operation mix of a run barely
    depends on the seed and run-to-run spread comes from the program.
    """
    items = list(items)
    while True:
        for i in rng.permutation(len(items)):
            yield items[i]


def stratified(rng: np.random.Generator, lo: float, hi: float, strata: int):
    """Uniform draws on [lo, hi), one per stratum in each block of `strata`."""
    while True:
        yield from lo + (hi - lo) * (rng.permutation(strata) + rng.random(strata)) / strata


def quiet(fn, *args):
    """Call fn with warnings suppressed (for reference computations in checks)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args)


# ---------------------------------------------------------------------------
# designs and their defining properties

def build_design(name: str, order: int, dim, param):
    """Run one generator; returns (WeightVector, MaxReSolution or None)."""
    fn = getattr(ab, name)
    if name == "max_re":
        sol = fn(order, dim)
        return sol.weights, sol
    if name == "maxflat":
        return fn(order, int(param), dim), None
    if name in ("cap", "cap_trapezoid"):
        return fn(order, param, dim), None
    return fn(order, dim), None


def metrics_problem(weights, met) -> str | None:
    vals = (met.p, met.e, met.q, met.r_e, met.fbr) + ((met.r_v,) if met.r_v is not None else ())
    if not all(math.isfinite(v) for v in vals):
        return "non-finite metric"
    if met.p != weights.a[0]:
        return "P differs from a_0"
    if met.e <= 0.0 or met.q <= 0.0:
        return "E or Q not positive"
    if abs(met.r_e) > 1.0 + 1e-12:
        return "|rE| > 1"
    return None


def design_check(name: str, order: int, dim, param, weights, sol, met) -> Check:
    """Check the property that defines each design."""
    problem = _design_problem(name, order, dim, param, weights, sol, met)
    if problem == "supercardioid_suboptimal":
        return Check(recorded=(problem,))
    return Check(problem)


def _design_problem(name: str, order: int, dim, param, weights, sol, met) -> str | None:
    a = weights.a
    if name == "basic":
        if not np.all(a == 1.0):
            return "basic weights are not all 1"
        q_ref = dim.n0_squared * sum(1.0 / ab.norm_squared_gamma(n, dim) for n in range(order + 1))
        if rel_err(met.q, q_ref) > 1e-10:
            return f"basic Q {met.q!r} != {q_ref!r}"
    elif name == "max_re":
        if abs(met.r_e - sol.r_e_max) > 1e-10:
            return f"max_re rE {met.r_e!r} != r_e_max {sol.r_e_max!r}"
    elif name == "supercardioid":
        # FBR by quadrature: the analytic form cannot resolve FBR past FBR_FLOOR
        fbr = ab.compute_metrics_numeric(weights).fbr
        fbr_a = ab.compute_metrics_numeric(quiet(ab.supercardioid_approx, order, dim)).fbr
        if fbr < fbr_a * (1.0 - 1e-6):
            if fbr_a >= FBR_FLOOR:
                # the optimum lies past the floor the Cholesky-reduced
                # eigenproblem can resolve in double precision: recorded
                return "supercardioid_suboptimal"
            return f"supercardioid FBR {fbr!r} below its approximation's {fbr_a!r}"
    elif name == "supercardioid_approx":
        d = dim.d
        beta = (0.73 * order + 0.67 * d - 1.11) / (order + 1.11 * d - 1.5)
        ref = ab.inphase(order, dim).a ** beta
        if np.max(np.abs(a - ref) / np.abs(ref)) > 1e-12:
            return "supercardioid_approx weights are not inphase**beta"
    elif name == "inphase":
        xs = np.linspace(-1.0, 1.0, 9)
        g = ab.eval_pattern(weights, xs) / ab.eval_pattern(weights, 1.0)
        if np.max(np.abs(g - ((1.0 + xs) / 2.0) ** order)) > 1e-10:
            return "inphase pattern is not proportional to (1+x)^N"
    elif name == "maxflat":
        if (abs(ab.eval_pattern(weights, -1.0)) > 1e-9
                or abs(ab.eval_pattern(weights, 1.0) - 1.0) > 1e-9):
            return "maxflat pattern misses g(-1) = 0 or g(1) = 1"
    elif name == "cap":
        for n in range(order + 1):
            seg = ab.integrate_axisym(lambda x, n=n: ab.eval_sequence(x, order, dim)[n],
                                      dim, order, lower=param)
            if abs(a[n] - seg) > 1e-11 * max(1.0, abs(seg)):
                return f"cap a_{n} differs from the segment integral"
    elif name == "cap_trapezoid":
        s = math.radians(param)
        wide = ab.cap(order, math.cos(1.375 * s / 2.0), dim).a
        narrow = ab.cap(order, math.cos(0.75 * s / 2.0), dim).a
        if np.max(np.abs(a - wide * narrow)) > 1e-14 * np.max(np.abs(wide * narrow)):
            return "cap_trapezoid weights are not the product of its caps"
    return None


def oracle_check(weights, met, sampled: bool) -> Check:
    """Analytic metrics against the quadrature oracle `compute_metrics_numeric`.

    P, E, Q, rV and rE are compared on the seeded sample.  FBR is compared
    there too, and on every output whose analytic FBR is not positive or lies
    beyond FBR_FLOOR: past that floor the quadratic form a^T G_b a cannot
    resolve the back energy in double precision, so its digits are recorded
    (`fbr_digits`, and "fbr_nonpositive" for a sign flip) instead of failed.
    """
    out = Check(recorded=("fbr_nonpositive",) if met.fbr <= 0.0 else ())
    if not sampled and 0.0 < met.fbr < FBR_FLOOR:
        return out
    num = ab.compute_metrics_numeric(weights)
    if sampled:
        errs = [rel_err(getattr(met, k), getattr(num, k)) for k in ("p", "e", "q", "r_v", "r_e")
                if getattr(num, k) is not None]
        out.digits = correct_digits(max(errs))
        if max(errs) > 1e-9:
            out.problem = f"analytic metrics off the oracle by {max(errs):.2e}"
            return out
    fbr_err = rel_err(met.fbr, num.fbr)
    out.fbr_digits = correct_digits(fbr_err)
    if num.fbr < FBR_FLOOR and fbr_err > 1e-8 + 1e4 * EPS * num.fbr:
        out.problem = f"FBR off the oracle by {fbr_err:.2e}"
    return out


# ---------------------------------------------------------------------------

class Sweep:
    """Each operation builds one design at N in 1..16 and runs compute_metrics."""

    name = "sweep"
    trace_ops = 2048   # operations on each side of the traced run
    # The Cholesky-reduced supercardioid refuses orders from N = 9..16
    # (depending on D) with its typed DegenerateProblem.  Those operations
    # stay in the draw and are counted as declined: they lower ok_ratio and
    # ops_per_s, but not `failed`, which is kept for wrong outputs and for
    # errors no workload declares.
    declined = frozenset({("supercardioid", "DegenerateProblem")})
    tail_pct = 99.0
    SHARED_D = (2.0, 2.5, 3.0, 4.0)
    ORACLE_SHARE = 0.25

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        combos = [(d, n, fresh) for d in DESIGNS for n in range(1, 17) for fresh in (False, True)]
        self._combos = blocks(self.rng, combos)
        self._shared = blocks(self.rng, self.SHARED_D)
        self._fresh = stratified(self.rng, 2.0, 4.0, 64)
        self._seen = set(self.SHARED_D)
        self.iterations: list[int] = []

    def prepare(self) -> None:
        pass

    def warm_up(self) -> None:
        for d in self.SHARED_D:
            dim = ab.Dimension(d)
            for n in range(1, 17):
                ab.compute_metrics(ab.basic(n, dim))
            for name in DESIGNS:
                param = {"maxflat": 1, "cap": 0.5, "cap_trapezoid": 30.0}.get(name)
                ab.compute_metrics(quiet(build_design, name, 2, dim, param)[0])

    def _fresh_d(self) -> float:
        while True:
            d = float(next(self._fresh))
            if d not in self._seen and d != math.floor(d):
                self._seen.add(d)
                return d

    def next_op(self):
        name, order, fresh = next(self._combos)
        d = self._fresh_d() if fresh else next(self._shared)
        if name == "maxflat":
            param = int(self.rng.integers(0, order))
        elif name == "cap":
            param = math.cos(math.radians(self.rng.uniform(20.0, 160.0)) / 2.0)
        elif name == "cap_trapezoid":
            param = float(self.rng.uniform(10.0, 90.0))
        else:
            param = None
        return (name, order, ab.Dimension(d), param, self.rng.random() < self.ORACLE_SHARE)

    def label(self, op) -> str:
        return op[0]

    def run(self, op):
        name, order, dim, param, _ = op
        weights, sol = build_design(name, order, dim, param)
        return weights, sol, ab.compute_metrics(weights)

    def check(self, op, result) -> Check:
        name, order, dim, param, oracle = op
        weights, sol, met = result
        if sol is not None:
            self.iterations.append(sol.iterations)
        problem = metrics_problem(weights, met)
        if problem is not None:
            return Check(problem)
        design = design_check(name, order, dim, param, weights, sol, met)
        if design.problem is not None:
            return design
        out = oracle_check(weights, met, oracle)
        out.recorded += design.recorded
        return out


# ---------------------------------------------------------------------------

def legendre_like(order: int, dim, x: np.ndarray) -> np.ndarray:
    """P_0..P_N at x with P_n(1) = 1, from formulas independent of axibeam."""
    if dim.d == 2.0:
        return np.cos(np.outer(np.arange(order + 1), np.arccos(x)))
    if dim.d == 3.0:
        return np.polynomial.legendre.legvander(x, order).T
    from scipy.special import eval_gegenbauer

    n = np.arange(order + 1)[:, None]
    return eval_gegenbauer(n, dim.alpha, x[None, :]) / eval_gegenbauer(n, dim.alpha, 1.0)


class Batch:
    """Each operation evaluates one random perturbation of a design at a fixed (N, D)."""

    name = "batch"
    trace_ops = 4096   # operations on each side of the traced run
    tail_pct = 90.0
    PAIRS = ((4, 3.0), (6, 2.0), (8, 2.5), (12, 3.0), (16, 2.0), (24, 2.5), (32, 3.0))
    BASES = ("basic", "max_re", "inphase")
    PLATONIC = "dodecahedron"
    PLATONIC_T = 5
    ORACLE_SHARE = 0.25
    ANGLES = np.cos(np.radians(np.linspace(0.0, 180.0, 181)))

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self._cases = blocks(self.rng, [(i, b) for i in range(len(self.PAIRS)) for b in self.BASES])
        self.iterations: list[int] = []
        self._inputs: list = []
        self._refs: list = []

    def prepare(self) -> None:
        for order, d in self.PAIRS:
            dim = ab.Dimension(d)
            n2 = np.array([ab.norm_squared_gamma(n, dim) for n in range(order + 1)])
            self._refs.append((legendre_like(order, dim, self.ANGLES), dim.subsurface * n2))

    def warm_up(self) -> None:
        self._inputs = []
        for order, d in self.PAIRS:
            dim = ab.Dimension(d)
            bases = {b: build_design(b, order, dim, None)[0] for b in self.BASES}
            if d == 2.0:
                nodes, t = ab.circle_nodes(2 * order + 2), 2 * order + 1
            elif d == 3.0:
                nodes, t = ab.platonic(self.PLATONIC), self.PLATONIC_T
            else:
                nodes, t = None, 0
            self._inputs.append((dim, bases, nodes, t))
            w = bases["basic"]
            ab.compute_metrics(w)
            ab.eval_pattern(w, self.ANGLES)
            if nodes is not None:
                ab.discrete_metrics(w, nodes, np.eye(nodes.dim)[0])

    def next_op(self):
        i, base = next(self._cases)
        dim, bases, nodes, _ = self._inputs[i]
        a = bases[base].a * (1.0 + 0.05 * self.rng.standard_normal(bases[base].a.size))
        aim = None
        if nodes is not None:
            v = self.rng.standard_normal(nodes.dim)
            aim = v / np.linalg.norm(v)
        return (i, base, a, aim, self.rng.random() < self.ORACLE_SHARE)

    def label(self, op) -> str:
        order, d = self.PAIRS[op[0]]
        return f"N={order},D={d:g}"

    def run(self, op):
        i, _, a, aim, _ = op
        dim, _, nodes, _ = self._inputs[i]
        weights = ab.WeightVector(dim, a, "raw")
        met = ab.compute_metrics(weights)
        g = ab.eval_pattern(weights, self.ANGLES)
        disc = ab.discrete_metrics(weights, nodes, aim) if nodes is not None else None
        return weights, met, g, disc

    def check(self, op, result) -> Check:
        i, _, a, _, oracle = op
        order, _ = self.PAIRS[i]
        _, _, nodes, t = self._inputs[i]
        weights, met, g, disc = result
        problem = metrics_problem(weights, met)
        if problem is not None:
            return Check(problem)
        pmat, scale = self._refs[i]
        coeffs = a / scale
        if np.max(np.abs(g - coeffs @ pmat)) > 1e-12 * (order + 1) * np.sum(np.abs(coeffs)):
            return Check("eval_pattern differs from the independent evaluation")
        if disc is not None:
            vals = (disc.p, disc.e, disc.r_v, disc.r_e, disc.r_v_misaim_rad, disc.r_e_misaim_rad)
            if not all(math.isfinite(v) for v in vals):
                return Check("non-finite discrete metric")
            # a t-design sums a polynomial of degree <= t exactly
            exact = [("p", order), ("r_v", order + 1), ("e", 2 * order), ("r_e", 2 * order + 1)]
            for key, degree in exact:
                if degree <= t and rel_err(getattr(disc, key), getattr(met, key)) > 1e-10:
                    return Check(f"discrete {key} differs on a {t}-design")
        return oracle_check(weights, met, oracle)


# ---------------------------------------------------------------------------

def beam_coeffs(k: float, order: int, dim) -> np.ndarray:
    """Expansion coefficients of exp(k (x - 1)) in P_0..P_N, from modified Bessel functions.

    e^{kx} = Gamma(a) (k/2)^{-a} sum_n (n + a) I_{n+a}(k) C_n^a(x) with
    C_n^a(1) = Gamma(n + 2a) / (Gamma(2a) n!), and the a = 0 limit
    e^{kx} = I_0(k) + 2 sum_n I_n(k) T_n(x).
    """
    from scipy.special import ive

    alpha = dim.alpha
    n = np.arange(order + 1)
    if alpha == 0.0:
        c = 2.0 * ive(n, k)
        c[0] = ive(0, k)
        return c
    lg = math.lgamma
    log_front = np.array([lg(alpha) - alpha * math.log(k / 2.0) + lg(m + 2.0 * alpha)
                          - lg(2.0 * alpha) - lg(m + 1.0) for m in n])
    return np.exp(log_front) * (n + alpha) * ive(n + alpha, k)


class Transform:
    """Each operation runs transform_coeffs or integrate_axisym on a non-polynomial target."""

    name = "transform"
    trace_ops = 192   # operations on each side of the traced run
    tail_pct = 90.0
    DIMS = (2.0, 3.0, 4.0, 2.5, 3.5)
    KINDS = ("transform_cap", "transform_beam", "integrate_cap", "integrate_beam")
    SHARED_NODES = (128, 256, 384, 512)
    # Of every 8 operations of one kind and D, 3 reuse a shared rule size and
    # 5 get a size that never repeats, one from each fifth of the size range.
    # The median then sits inside the cold-rule cluster instead of on the
    # edge between the warm and cold clusters, and every block holds the same
    # spread of rule sizes for every D.
    SHARED_SLOTS = 3
    FRESH_SLOTS = 5
    NODES_MAX = 1048    # degree_hint = nodes - max_degree - ceil(D) - 16 <= 1024
    CAP_TOL = 10.0      # indicator error bound times node count (jump integrand)

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        slots = [None] * self.SHARED_SLOTS + list(range(self.FRESH_SLOTS))
        self._combos = blocks(self.rng, [(kind, d, fifth) for kind in self.KINDS
                                         for d in self.DIMS for fifth in slots])
        self._shared_nodes = blocks(self.rng, self.SHARED_NODES)
        self._seen = set(self.SHARED_NODES)
        self.iterations: list[int] = []

    def prepare(self) -> None:
        pass

    def warm_up(self) -> None:
        for d in self.DIMS:
            dim = ab.Dimension(d)
            for nodes in self.SHARED_NODES:
                ab.transform_coeffs(np.cos, 4, dim, degree_hint=nodes - 4 - math.ceil(d) - 16)

    def _fresh_nodes(self, fifth: int) -> int:
        lo = self.SHARED_NODES[0]
        width = (self.NODES_MAX + 1 - lo) / self.FRESH_SLOTS
        while True:
            nodes = int(lo + width * (fifth + self.rng.random()))
            if nodes not in self._seen:
                self._seen.add(nodes)
                return nodes

    def next_op(self):
        kind, d, fifth = next(self._combos)
        dim = ab.Dimension(d)
        nodes = next(self._shared_nodes) if fifth is None else self._fresh_nodes(fifth)
        order = int(self.rng.integers(4, 33)) if kind.startswith("transform") else 0
        hint = nodes - order - math.ceil(dim.d) - 16
        if kind.endswith("cap"):
            x0 = math.cos(math.radians(self.rng.uniform(20.0, 160.0)) / 2.0)
            return (kind, dim, nodes, order, hint, x0, lambda x: (x >= x0).astype(float))
        k = float(self.rng.uniform(1.0, 12.0))
        return (kind, dim, nodes, order, hint, k, lambda x: np.exp(k * (x - 1.0)))

    def label(self, op) -> str:
        return op[0]

    def run(self, op):
        kind, dim, _, order, hint, _, f = op
        if kind.startswith("transform"):
            return ab.transform_coeffs(f, order, dim, degree_hint=hint)
        return ab.integrate_axisym(f, dim, degree_hint=hint)

    def check(self, op, result) -> Check:
        kind, dim, nodes, order, _, param, _ = op
        n2 = np.array([ab.norm_squared_gamma(n, dim) for n in range(order + 1)])
        if kind.endswith("cap"):
            ref = ab.cap(order, param, dim).a
            got = result * n2 if kind.startswith("transform") else np.array([result])
            err = float(np.max(np.abs(got - ref)))
            if not err <= self.CAP_TOL / nodes:
                return Check(f"{kind} off cap() by {err:.2e} with {nodes} nodes")
            return Check()
        ref = beam_coeffs(param, order, dim)
        if kind.startswith("integrate"):
            ref = ref[:1] * n2[0]
        got = np.atleast_1d(result)
        err = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
        out = Check(digits=correct_digits(err))
        # Gauss-Jacobi rules from scipy lose digits as they grow (1e-10 at
        # 1000 nodes, D = 2.5): the bound leaves room for that and still
        # catches a wrong coefficient
        if not err <= 1e-8:
            out.problem = f"{kind} off the Bessel closed form by {err:.2e}"
        return out


# ---------------------------------------------------------------------------
# CLI

CLI_TO_LIB = {"basic": "basic", "maxre": "max_re", "supercard": "supercardioid",
              "supercard-approx": "supercardioid_approx", "inphase": "inphase",
              "maxflat": "maxflat", "cap": "cap", "cap-trapezoid": "cap_trapezoid"}
PLATONIC_T = {"tetrahedron": 2, "octahedron": 3, "cube": 3, "icosahedron": 5, "dodecahedron": 5}


def parse_output(text: str):
    """Provenance, columns and rows of one CSV or JSON payload."""
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        rows = [[float(c) if isinstance(c, (int, float)) else c for c in r] for r in obj["rows"]]
        return obj["provenance"], obj["columns"], rows
    prov, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(": ")
            prov[key] = val
        elif columns is None:
            columns = line.split(",")
        else:
            cells = []
            for c in line.split(","):
                try:
                    cells.append(float(c))
                except ValueError:
                    cells.append(c)
            rows.append(cells)
    return prov, columns, rows


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


class Cli:
    """A seeded mix of valid axibeam commands, each run as its own process."""

    name = "cli"
    trace_ops = 512   # operations on each side of the traced run
    tail_pct = 50.0
    DIMS = (2.0, 2.5, 3.0)
    KINDS = ("weights", "metrics", "metrics-file", "pattern",
             "tdesign-builtin", "tdesign-circle", "tdesign-file", "weights")

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self._kinds = blocks(self.rng, self.KINDS)
        self._designs = blocks(self.rng, tuple(CLI_TO_LIB))
        self._dims = blocks(self.rng, self.DIMS)
        self.inprocess = False
        self.iterations: list[int] = []
        self.weight_files: list = []
        self.node_files: list = []
        self.env = None

    def prepare(self) -> None:
        """Write the weights and node files the commands read."""
        folder = OUT / "cli-inputs"
        folder.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        for i in range(8):
            d = self.DIMS[i % 3]
            lib = DESIGNS[i % len(DESIGNS)]
            order = 1 + i
            param = {"maxflat": 0, "cap": 0.6, "cap_trapezoid": 40.0}.get(lib)
            base = build_design(lib, order, ab.Dimension(d), param)[0].a
            a = base * (1.0 + 0.05 * self.rng.standard_normal(base.size))
            path = folder / f"weights-{i}.csv"
            path.write_text("# perturbed weights\nn,a_n\n" + "".join(
                f"{n},{float(v)!r}\n" for n, v in enumerate(a)), encoding="utf-8")
            self.weight_files.append((str(path), d, a))
        for i, name in enumerate(PLATONIC_T):
            pts = ab.platonic(name).nodes @ random_rotation(self.rng).T
            path = folder / f"nodes-{name}.csv"
            if i % 2:
                zen = np.degrees(np.arccos(np.clip(pts[:, 2], -1.0, 1.0)))
                az = np.degrees(np.arctan2(pts[:, 1], pts[:, 0]))
                rows = zip(az, zen)
            else:
                rows = pts
            path.write_text("".join(",".join(repr(float(v)) for v in r) + "\n" for r in rows),
                            encoding="utf-8")
            self.node_files.append((str(path), PLATONIC_T[name]))
        for count in (5, 8, 12, 16):
            ang = float(self.rng.uniform(0.0, 360.0)) + 360.0 * np.arange(count) / count
            path = folder / f"nodes-ring-{count}.csv"
            if count % 2:
                text = "".join(f"{float(v)!r}\n" for v in ang)
            else:
                rad = np.radians(ang)
                text = "".join(f"{math.cos(v)!r},{math.sin(v)!r}\n" for v in rad.tolist())
            path.write_text("# ring\n" + text, encoding="utf-8")
            self.node_files.append((str(path), count - 1))

    def warm_up(self) -> None:
        import axibeam.cli  # noqa: F401  (import cost is the CLI's set-up)

    def _design_args(self, design: str, order: int):
        lib = CLI_TO_LIB[design]
        if lib == "maxflat":
            param = int(self.rng.integers(0, order))
            return ["--flat-l", str(param)], param
        if lib == "cap":
            angle = float(self.rng.uniform(20.0, 160.0))
            return ["--cap-angle-deg", repr(angle)], math.cos(math.radians(angle) / 2.0)
        if lib == "cap_trapezoid":
            spacing = float(self.rng.uniform(10.0, 90.0))
            return ["--spacing-deg", repr(spacing)], spacing
        return [], None

    def next_op(self):
        kind = next(self._kinds)
        fmt = ["--format", str(self.rng.choice(["csv", "json"]))]
        if kind in ("weights", "pattern", "metrics"):
            design, d = next(self._designs), next(self._dims)
            order = int(self.rng.integers(1, 9))
            extra, param = self._design_args(design, order)
            spec = {"kind": kind, "design": design, "dim": d, "param": param}
            argv = [kind, "--design", design, "--dim", repr(d)] + extra + fmt
            if kind == "metrics":
                lo = param + 1 if design == "maxflat" else 1
                hi = max(lo, order)
                spec["orders"] = list(range(lo, hi + 1))
                argv += ["--orders", f"{lo}..{hi}"]
            else:
                spec["order"] = order
                argv += ["--order", str(order)]
            if kind == "weights":
                norm = str(self.rng.choice(["", "", "a0", "g1"]))
                if norm:
                    argv += ["--norm", norm]
                spec["norm"] = norm or None
            elif kind == "pattern":
                spec["samples"] = int(self.rng.choice([19, 37, 91, 181]))
                argv += ["--samples", str(spec["samples"])]
            return spec, argv
        if kind == "metrics-file":
            path, d, a = self.weight_files[int(self.rng.integers(len(self.weight_files)))]
            return ({"kind": kind, "dim": d, "a": a},
                    ["metrics", "--weights-file", path, "--dim", repr(d)] + fmt)
        if kind == "tdesign-builtin":
            name = str(self.rng.choice(list(PLATONIC_T)))
            t = int(self.rng.integers(1, 8))
            return ({"kind": kind, "expect": t <= PLATONIC_T[name],
                     "count": len(ab.platonic(name).nodes)},
                    ["tdesign", "--builtin", name, "--t", str(t)] + fmt)
        if kind == "tdesign-circle":
            count = int(self.rng.integers(3, 25))
            t = int(self.rng.integers(1, count + 2))
            offset = float(self.rng.uniform(0.0, 90.0))
            return ({"kind": kind, "expect": t <= count - 1, "count": count},
                    ["tdesign", "--circle", str(count), "--offset-deg", repr(offset),
                     "--t", str(t)] + fmt)
        path, t_true = self.node_files[int(self.rng.integers(len(self.node_files)))]
        t = int(self.rng.integers(1, t_true + 3))
        return ({"kind": kind, "expect": t <= t_true, "count": None},
                ["tdesign", "--nodes-file", path, "--t", str(t)] + fmt)

    def label(self, op) -> str:
        return op[0]["kind"]

    def run(self, op):
        argv = op[1]
        if self.inprocess:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = sys.modules["axibeam.cli"].main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run([sys.executable, "-m", "axibeam", *argv], capture_output=True,
                              text=True, env=self.env, cwd=ROOT, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def _reference(self, spec, order):
        dim = ab.Dimension(spec["dim"])
        weights, sol = build_design(CLI_TO_LIB[spec["design"]], order, dim, spec["param"])
        return dim, weights, sol

    def check(self, op, result) -> Check:
        spec, _ = op
        code, out, err = result
        kind = spec["kind"]
        if kind.startswith("tdesign"):
            if code != (0 if spec["expect"] else 1):
                return Check(f"tdesign exit code {code} ({err.strip()[:80]})")
            prov, _, rows = parse_output(out)
            passed = prov["passed"] in (True, "true")
            if passed != spec["expect"] or (float(prov["max_abs_error"]) < 1e-9) != passed:
                return Check("tdesign verdict contradicts the node set")
            if spec["count"] is not None and int(prov["node_count"]) != spec["count"]:
                return Check("tdesign node count differs")
            return Check()
        if code != 0:
            return Check(f"exit code {code} ({err.strip()[:80]})")
        prov, columns, rows = parse_output(out)
        if kind == "weights":
            dim, ref, sol = self._reference(spec, spec["order"])
            if sol is not None:
                self.iterations.append(int(float(prov["newton_iterations"])))
            design = design_check(CLI_TO_LIB[spec["design"]], spec["order"], dim, spec["param"],
                                  ref, sol, ab.compute_metrics(ref))
            if design.problem is not None:
                return design
            if spec["norm"]:
                ref = ref.normalized(spec["norm"])
            got = np.array([r[1] for r in rows])
            if got.shape != ref.a.shape or np.any(
                    np.abs(got - ref.a) > 1e-11 * np.abs(ref.a) + 1e-300):
                return Check("printed weights differ from the design")
            return design
        if kind == "pattern":
            _, ref, _ = self._reference(spec, spec["order"])
            x, g = (np.array([r[j] for r in rows]) for j in (1, 2))
            # the CLI samples 0..180 degrees evenly; compare at the unrounded x
            x_ref = np.cos(np.radians(np.linspace(0.0, 180.0, spec["samples"])))
            if x.shape != x_ref.shape or np.max(np.abs(x - x_ref)) > 1e-11:
                return Check("pattern x differs from the sampled angles")
            g_ref = ab.eval_pattern(ref, x_ref)
            if np.max(np.abs(g - g_ref)) > 1e-11 * np.max(np.abs(g_ref)):
                return Check("pattern values differ from eval_pattern")
            return Check()
        # metrics: q, rV and rE spreads and FBR against the quadrature oracle
        digits, fbr_digits = [], []
        for row in rows:
            order = int(row[1])
            if kind == "metrics-file":
                ref = ab.WeightVector(ab.Dimension(spec["dim"]), spec["a"], "raw")
            else:
                ref = self._reference(spec, order)[1]
            num = ab.compute_metrics_numeric(ref)
            q, rv, re_, fbr_db = row[2], row[3], row[4], row[5]
            errs = [rel_err(q, num.q),
                    abs(math.cos(math.radians(rv)) - min(1.0, max(-1.0, num.r_v))),
                    abs(math.cos(math.radians(re_)) - min(1.0, max(-1.0, num.r_e)))]
            if max(errs) > 1e-9:
                return Check(f"metrics row for N={order} off the oracle by {max(errs):.2e}")
            fbr_err = abs(fbr_db - 10.0 * math.log10(num.fbr)) * math.log(10.0) / 10.0
            if fbr_err > 1e-8 + 1e4 * EPS * num.fbr:
                return Check(f"fbr_db for N={order} off the oracle")
            digits.append(correct_digits(max(errs)))
            fbr_digits.append(correct_digits(fbr_err))
        if not rows:
            return Check("metrics printed no rows")
        return Check(digits=min(digits), fbr_digits=min(fbr_digits))


WORKLOADS = {cls.name: cls for cls in (Cli, Sweep, Batch, Transform)}
