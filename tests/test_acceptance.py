"""Acceptance suite: one test per shipping criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Three cases are expected to stay red and are asserted anyway rather
than weakened; each failure message states the computed values:

* criterion 4, D = 2: the target regression line for the circular
  supercardioid lies below the true optimum (12.80 dB already at N = 1
  versus 10.15 dB on the line), so a correct maximizer cannot fit it;
* criterion 5 at N <= 2: the fitted power-law exponent misses the exact
  first-order supercardioid (whose weights are exactly inphase^0.5) by far
  more than the -44 dB budget;
* criterion 6 for the supercardioid FBR field: at 80+ dB front-to-back
  ratios the Gram-matrix quadratic form a^T G_b a is conditioned like
  eps * FBR, so double precision cannot reach 1e-8 agreement at N >= ~6.
"""

import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from axibeam import (
    Dimension,
    basic,
    cap,
    compute_metrics,
    compute_metrics_numeric,
    circle_nodes,
    discrete_metrics,
    eval_pattern,
    eval_sequence,
    inphase,
    max_re,
    maxflat,
    platonic,
    power_series_coeffs,
    supercardioid,
    supercardioid_approx,
    tdesign_check,
)

from _polytopes import cell_600

D2 = Dimension(2.0)
D3 = Dimension(3.0)


def report(number: str, ok: bool, detail: str) -> bool:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


F = Fraction

# Chebyshev polynomial coefficients, ascending powers, degrees 0..9.
CHEBYSHEV_TABLE = [
    [1],
    [0, 1],
    [-1, 0, 2],
    [0, -3, 0, 4],
    [1, 0, -8, 0, 8],
    [0, 5, 0, -20, 0, 16],
    [-1, 0, 18, 0, -48, 0, 32],
    [0, -7, 0, 56, 0, -112, 0, 64],
    [1, 0, -32, 0, 160, 0, -256, 0, 128],
    [0, 9, 0, -120, 0, 432, 0, -576, 0, 256],
]

# Legendre polynomial coefficients, ascending powers, degrees 0..9.
LEGENDRE_TABLE = [
    [F(1)],
    [0, F(1)],
    [F(-1, 2), 0, F(3, 2)],
    [0, F(-3, 2), 0, F(5, 2)],
    [F(3, 8), 0, F(-30, 8), 0, F(35, 8)],
    [0, F(15, 8), 0, F(-70, 8), 0, F(63, 8)],
    [F(-5, 16), 0, F(105, 16), 0, F(-315, 16), 0, F(231, 16)],
    [0, F(-35, 16), 0, F(315, 16), 0, F(-693, 16), 0, F(429, 16)],
    [F(35, 128), 0, F(-1260, 128), 0, F(6930, 128), 0, F(-12012, 128), 0, F(6435, 128)],
    [0, F(315, 128), 0, F(-4620, 128), 0, F(18018, 128), 0, F(-25740, 128), 0, F(12155, 128)],
]


def test_criterion_1_table_fidelity():
    worst = 0.0
    for dim, table in ((D2, CHEBYSHEV_TABLE), (D3, LEGENDRE_TABLE)):
        for degree, row in enumerate(table):
            got = power_series_coeffs(degree, dim)
            for k, entry in enumerate(row):
                ref = float(entry)
                err = abs(got[k] - ref) / max(1.0, abs(ref))
                worst = max(worst, err)
    ok = worst < 1e-12
    assert report("1 (table fidelity)", ok, f"worst relative error {worst:.2e}")


def test_criterion_2_basic_directivity():
    worst = 0.0
    for order in range(21):
        worst = max(worst, abs(compute_metrics(basic(order, D2)).q - (2 * order + 1)))
        worst = max(worst, abs(compute_metrics(basic(order, D3)).q - (order + 1) ** 2))
    ok = worst < 1e-10
    assert report("2 (max-DI directivity)", ok, f"worst |Q - target| {worst:.2e}")


def test_criterion_3_max_re_roots():
    worst_circle = 0.0
    worst_root = 0.0
    worst_window = 0.0
    for order in range(21):
        sol = max_re(order, D2)
        worst_circle = max(
            worst_circle, abs(sol.r_e_max - math.cos(math.pi / (2 * (order + 1))))
        )
    for order in range(1, 21):
        sol = max_re(order, D3)
        residual = abs(float(eval_sequence(sol.r_e_max, order + 1, D3)[order + 1]))
        worst_root = max(worst_root, residual)
        worst_window = max(
            worst_window,
            abs(sol.r_e_max - math.cos(math.radians(137.9) / (order + 1.51))),
        )
    ok = worst_circle < 1e-12 and worst_root < 1e-13 and worst_window < 0.01
    assert report(
        "3 (max-rE roots)",
        ok,
        f"circle {worst_circle:.2e}, root residual {worst_root:.2e}, "
        f"window {worst_window:.3f}",
    )


def _fbr_db(order, dim):
    return 10.0 * math.log10(compute_metrics(supercardioid(order, dim)).fbr)


@pytest.mark.parametrize(
    "d,intercept_target",
    [(2.0, -3.6), (3.0, -3.0)],
    ids=["D2", "D3"],
)
def test_criterion_4_fbr_regression(d, intercept_target):
    dim = Dimension(d)
    orders = np.arange(1, 6)
    db = np.array([_fbr_db(int(n), dim) for n in orders])
    slope, intercept = np.polyfit(orders, db, 1)
    ok = abs(slope - 13.75) < 0.5 and abs(intercept - intercept_target) < 0.5
    report(
        f"4 (FBR regression, D={d:g})",
        ok,
        f"slope {slope:.3f} (target 13.75+-0.5), "
        f"intercept {intercept:.3f} (target {intercept_target}+-0.5)",
    )
    assert ok, (
        f"fit ({slope:.3f}, {intercept:.3f}) misses "
        f"(13.75, {intercept_target}) by more than 0.5"
    )


def test_criterion_5_supercardioid_approximation_bound():
    bound = 10.0 ** (-44.0 / 20.0)
    worst = 0.0
    worst_case = None
    for dim in (D2, D3):
        for order in range(1, 11):
            err = float(
                np.max(
                    np.abs(
                        supercardioid_approx(order, dim).a - supercardioid(order, dim).a
                    )
                )
            )
            if err > worst:
                worst, worst_case = err, (dim.d, order)
    ok = worst < bound
    report(
        "5 (approximation bound)",
        ok,
        f"worst |approx - exact| {worst:.2e} at D={worst_case[0]:g}, "
        f"N={worst_case[1]} (bound {bound:.2e})",
    )
    assert ok, f"worst error {worst:.3e} exceeds the -44 dB bound {bound:.3e}"


def _criterion6_designs(order, dim):
    out = {
        "basic": basic(order, dim),
        "maxre": max_re(order, dim).weights,
        "inphase": inphase(order, dim),
        "cap": cap(order, math.cos(math.radians(40.0)), dim),
    }
    if order >= 1:
        out["maxflat"] = maxflat(order, order // 2, dim)
        out["supercard"] = supercardioid(order, dim)
    return out


@pytest.mark.parametrize(
    "design", ["basic", "maxre", "supercard", "inphase", "maxflat", "cap"]
)
def test_criterion_6_oracle_equivalence(design):
    worst = 0.0
    worst_case = None
    for d in (2.0, 2.5, 3.0, 4.0):
        dim = Dimension(d)
        for order in range(9):
            vec = _criterion6_designs(order, dim).get(design)
            if vec is None:
                continue
            analytic = compute_metrics(vec)
            numeric = compute_metrics_numeric(vec)
            for field in ("p", "e", "q", "r_v", "r_e", "fbr"):
                va = getattr(analytic, field)
                vn = getattr(numeric, field)
                err = abs(va - vn) / max(1.0, abs(va), abs(vn))
                if err > worst:
                    worst, worst_case = err, (d, order, field)
    ok = worst < 1e-8
    report(
        f"6 (oracle equivalence, {design})",
        ok,
        f"worst per-field disagreement {worst:.2e} at "
        f"D={worst_case[0]:g}, N={worst_case[1]}, field {worst_case[2]}",
    )
    assert ok, f"{design}: disagreement {worst:.3e} at {worst_case} exceeds 1e-8"


def test_criterion_7_pattern_identities():
    xs = np.linspace(-1.0, 1.0, 50)
    worst_inphase = 0.0
    for d in (2.0, 3.0, 4.0):
        dim = Dimension(d)
        for order in range(9):
            vec = inphase(order, dim).normalized("g1")
            target = (1.0 + xs) ** order / 2.0**order
            worst_inphase = max(
                worst_inphase, float(np.max(np.abs(eval_pattern(vec, xs) - target)))
            )
    worst_basic = 0.0
    interior = xs[xs < 0.999]
    for d in (2.0, 3.0, 4.0):
        dim = Dimension(d)
        for order in (1, 3, 5, 8):
            vec = basic(order, dim)
            g1 = eval_pattern(vec, 1.0)
            seq = eval_sequence(interior, order + 1, dim)
            closed = (
                (dim.d - 1.0)
                / (2 * order + dim.d - 1.0)
                * (seq[order + 1] - seq[order])
                / (interior - 1.0)
            )
            worst_basic = max(
                worst_basic,
                float(np.max(np.abs(eval_pattern(vec, interior) / g1 - closed))),
            )
    worst_flat = 0.0
    for d in (2.0, 3.0):
        dim = Dimension(d)
        for order in range(1, 9):
            flat = maxflat(order, 0, dim).normalized("a0")
            worst_flat = max(
                worst_flat,
                float(np.max(np.abs(flat.a - inphase(order, dim).a))),
            )
    ok = worst_inphase < 1e-10 and worst_basic < 1e-10 and worst_flat < 1e-10
    assert report(
        "7 (pattern identities)",
        ok,
        f"inphase {worst_inphase:.2e}, dirac closed form {worst_basic:.2e}, "
        f"maxflat-vs-inphase {worst_flat:.2e}",
    )


def test_criterion_8_tdesign_thresholds():
    checks = []
    checks.append(tdesign_check(platonic("icosahedron"), 5).passed)
    checks.append(not tdesign_check(platonic("icosahedron"), 6).passed)
    checks.append(tdesign_check(platonic("cube"), 3).passed)
    checks.append(not tdesign_check(platonic("cube"), 4).passed)
    for count in range(3, 13):
        ring = circle_nodes(count)
        checks.append(tdesign_check(ring, count - 1).passed)
        checks.append(not tdesign_check(ring, count).passed)

    worst_disc = 0.0
    worst_misaim = 0.0
    # icosahedron is a 5-design: exact for order 2 (2N+1 = 5)
    vec = max_re(2, D3).weights
    cont = compute_metrics(vec)
    aim = np.array([1.0, 2.0, -0.5])
    aim /= np.linalg.norm(aim)
    disc = discrete_metrics(vec, platonic("icosahedron"), aim)
    for got, want in (
        (disc.p, cont.p),
        (disc.e, cont.e),
        (disc.r_v, cont.r_v),
        (disc.r_e, cont.r_e),
    ):
        worst_disc = max(worst_disc, abs(got - want))
    worst_misaim = max(disc.r_v_misaim_rad, disc.r_e_misaim_rad)
    # ring with L = 2N+2 nodes is a (2N+1)-design
    for order in (1, 3):
        vec = max_re(order, D2).weights
        cont = compute_metrics(vec)
        ang = 0.63
        disc = discrete_metrics(
            vec, circle_nodes(2 * order + 2), np.array([math.cos(ang), math.sin(ang)])
        )
        for got, want in (
            (disc.p, cont.p),
            (disc.e, cont.e),
            (disc.r_v, cont.r_v),
            (disc.r_e, cont.r_e),
        ):
            worst_disc = max(worst_disc, abs(got - want))
        worst_misaim = max(worst_misaim, disc.r_v_misaim_rad, disc.r_e_misaim_rad)
    # the 600-cell is an 11-design: exact for order 5 at D = 4 (2N+1 = 11)
    vec = max_re(5, Dimension(4.0)).weights
    cont = compute_metrics(vec)
    aim = np.array([0.3, -1.0, 0.2, 0.7])
    disc = discrete_metrics(vec, cell_600(), aim / np.linalg.norm(aim))
    for got, want in ((disc.p, cont.p), (disc.e, cont.e), (disc.r_v, cont.r_v),
                      (disc.r_e, cont.r_e)):
        worst_disc = max(worst_disc, abs(got - want))
    worst_misaim = max(worst_misaim, disc.r_v_misaim_rad, disc.r_e_misaim_rad)
    ok = all(checks) and worst_disc < 1e-9 and worst_misaim < 1e-9
    assert report(
        "8 (t-design thresholds)",
        ok,
        f"classification checks {sum(checks)}/{len(checks)}, discrete-vs-continuous "
        f"{worst_disc:.2e}, misaim {worst_misaim:.2e} rad",
    )


def test_criterion_9_metric_ordering():
    slack = 1e-12
    ok = True
    for d in (2.0, 3.0):
        dim = Dimension(d)
        for order in range(1, 6):
            mets = {
                "basic": compute_metrics(basic(order, dim)),
                "maxre": compute_metrics(max_re(order, dim).weights),
                "supercard": compute_metrics(supercardioid(order, dim)),
                "inphase": compute_metrics(inphase(order, dim)),
            }
            chain = ("basic", "maxre", "supercard", "inphase")
            q = [mets[k].q for k in chain]
            rv = [mets[k].r_v for k in chain]
            ok &= all(q[i] >= q[i + 1] * (1 - slack) for i in range(3))
            ok &= all(rv[i] >= rv[i + 1] * (1 - slack) for i in range(3))
            ok &= all(
                mets["maxre"].r_e >= mets[k].r_e * (1 - slack)
                for k in ("basic", "supercard", "inphase")
            )
            ok &= all(
                mets["supercard"].fbr >= mets[k].fbr * (1 - slack)
                for k in ("basic", "maxre", "inphase")
            )
    assert report(
        "9 (metric ordering)", ok, "Q, rV, rE, FBR chains over N = 1..5, D in {2, 3}"
    )


DOCUMENTED_COMMANDS = [
    ("weights", "--design", "basic", "--order", "2", "--dim", "3"),
    ("weights", "--design", "maxre", "--order", "3", "--dim", "2"),
    ("weights", "--design", "inphase", "--order", "1", "--dim", "3"),
    ("weights", "--design", "cap", "--order", "7", "--cap-angle-deg", "80", "--dim", "3"),
    ("metrics", "--design", "basic", "--orders", "1..5", "--dim", "3"),
    ("metrics", "--design", "supercard", "--orders", "1..5", "--dim", "2"),
    ("pattern", "--design", "inphase", "--order", "1", "--dim", "3", "--samples", "19"),
    ("tdesign", "--builtin", "icosahedron", "--t", "5"),
    ("tdesign", "--circle", "8", "--t", "7"),
]


def test_criterion_10_cli_determinism():
    import io
    from contextlib import redirect_stdout

    from axibeam.cli import main

    def run(args):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(list(args))
        return code, buf.getvalue()

    ok = True
    for args in DOCUMENTED_COMMANDS:
        for fmt in ((), ("--format", "json")):
            first = run(args + fmt)
            second = run(args + fmt)
            ok &= first == second and first[0] == 0
    # one interpreter-level pair as well
    cmd = [sys.executable, "-m", "axibeam", *DOCUMENTED_COMMANDS[0]]
    out_a = subprocess.run(cmd, capture_output=True, text=True)
    out_b = subprocess.run(cmd, capture_output=True, text=True)
    ok &= out_a.stdout == out_b.stdout and out_a.returncode == 0
    assert report(
        "10 (CLI determinism)",
        ok,
        f"{len(DOCUMENTED_COMMANDS)} documented commands byte-identical on re-run",
    )


def test_cli_payloads_round_trip_between_formats():
    # companion to criterion 10: CSV and JSON carry identical values
    import io
    from contextlib import redirect_stdout

    from axibeam.cli import main

    def run(args):
        buf = io.StringIO()
        with redirect_stdout(buf):
            main(list(args))
        return buf.getvalue()

    for args in DOCUMENTED_COMMANDS[:4]:
        csv_text = run(args)
        payload = json.loads(run(args + ("--format", "json")))
        rows = [
            line.split(",")
            for line in csv_text.splitlines()
            if line and not line.startswith("#")
        ][1:]
        assert len(rows) == len(payload["rows"])
        for crow, jrow in zip(rows, payload["rows"]):
            for ccell, jcell in zip(crow, jrow):
                if isinstance(jcell, (int, float)) and not isinstance(jcell, bool):
                    assert float(ccell) == jcell
                else:
                    assert ccell == str(jcell)
