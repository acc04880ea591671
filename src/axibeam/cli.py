"""Command-line front end: weights, metric tables, pattern samples, t-design reports.

Output goes to stdout or a file as CSV (default) or JSON.  Both formats carry
the same payload: a provenance block, a column list, and rows.  Floats are
printed with 12 significant digits so repeated runs are byte-identical and the
two formats round-trip through each other.

Exit codes: 0 ok / t-design passed, 1 t-design failed, 2 argument validation,
3 file or parse errors.  A command returns 0 or 1; `main` maps any error to 2
or 3 by its type alone (`_EXIT_CODES`).  Arguments that size arrays are capped
(orders, pattern samples, t-design degree and node count, and the product
(t+1) * nodes^2); a value past its cap exits 2.

A short command costs mostly its imports, so each command imports only what
it calls: `sampling` is imported by `tdesign`, `json` by `--format json`, and
no command imports `quadrature`.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .designs import (
    Normalization,
    WeightVector,
    basic,
    cap,
    cap_trapezoid,
    inphase,
    max_re,
    maxflat,
    supercardioid,
    supercardioid_approx,
)
from .errors import AxibeamError, DomainError, NormError, ParseError, _file_lines, _integer
from .metrics import compute_metrics, eval_pattern
from .ultraspherical import MAX_DIMENSION, MAX_ORDER, Dimension

_DB_FLOOR = -120.0

# Caps on the arguments that size arrays (a largest pattern holds 1.3e7 values).
_MAX_SAMPLES = 100_000
_MAX_T = 256
# (t+1) * nodes^2 polynomial values, which `tdesign_check` takes in blocks of 2^22
_MAX_TDESIGN_CELLS = 1 << 27

# `sampling.PLATONIC_NAMES`, spelt out so that building the parser does not import `sampling`
_POLYHEDRA = ("tetrahedron", "octahedron", "cube", "icosahedron", "dodecahedron")

# exit code of an error, by the first type it matches; file and parse errors are 3
_EXIT_CODES = ((ParseError, 3), (NormError, 3), (OSError, 3), (AxibeamError, 2))


def _fmt(value) -> str:
    """Shortest decimal form within 12 significant digits; ints stay ints."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def _json_cell(value):
    if isinstance(value, bool) or isinstance(value, (int, np.integer)):
        return value if isinstance(value, bool) else int(value)
    if isinstance(value, (float, np.floating)):
        return float(format(float(value), ".12g"))
    return value


def _render_csv(provenance: dict, columns: list, rows: list) -> str:
    lines = [f"# {key}: {_fmt(val)}" for key, val in provenance.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _render_json(provenance: dict, columns: list, rows: list) -> str:
    import json

    obj = {
        "provenance": {k: _json_cell(v) for k, v in provenance.items()},
        "columns": list(columns),
        "rows": [[_json_cell(cell) for cell in row] for row in rows],
    }
    return json.dumps(obj, indent=2) + "\n"


def _emit(ns, provenance: dict, columns: list, rows: list) -> None:
    text = (_render_json if ns.format == "json" else _render_csv)(provenance, columns, rows)
    if ns.out == "stdout":
        sys.stdout.write(text)
    else:
        with open(ns.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _provenance(command: str, **extra) -> dict:
    prov = {"tool": "axibeam", "version": __version__, "command": command}
    prov.update(extra)
    return prov


def _maxre(order: int, dim: Dimension, ns):
    sol = max_re(order, dim)
    return sol.weights, {"r_e_max": sol.r_e_max, "newton_iterations": sol.iterations}


def _maxflat(order: int, dim: Dimension, ns):
    if ns.flat_l is None:
        raise DomainError("maxflat design needs --flat-l")
    return maxflat(order, ns.flat_l, dim), {"flat_l": ns.flat_l}


def _cap(order: int, dim: Dimension, ns):
    if (ns.cap_x0 is None) == (ns.cap_angle_deg is None):
        raise DomainError("cap design needs exactly one of --cap-x0 / --cap-angle-deg")
    if ns.cap_x0 is not None:
        x0 = ns.cap_x0
    elif 0.0 < ns.cap_angle_deg < 360.0:
        x0 = math.cos(math.radians(ns.cap_angle_deg) / 2.0)
    else:
        raise DomainError(f"--cap-angle-deg must satisfy 0 < angle < 360, got {ns.cap_angle_deg}")
    return cap(order, x0, dim), {"cap_x0": x0}


def _cap_trapezoid(order: int, dim: Dimension, ns):
    if ns.spacing_deg is None:
        raise DomainError("cap-trapezoid design needs --spacing-deg")
    return cap_trapezoid(order, ns.spacing_deg, dim), {"spacing_deg": ns.spacing_deg}


# The --design choices, in order; each maps (order, dim, ns) to (WeightVector, provenance extras)
_DESIGNS = {
    "basic": lambda order, dim, ns: (basic(order, dim), {}),
    "maxre": _maxre,
    "supercard": lambda order, dim, ns: (supercardioid(order, dim), {}),
    "supercard-approx": lambda order, dim, ns: (supercardioid_approx(order, dim), {}),
    "inphase": lambda order, dim, ns: (inphase(order, dim), {}),
    "maxflat": _maxflat,
    "cap": _cap,
    "cap-trapezoid": _cap_trapezoid,
}


def _design_weights(ns, order: int, dim: Dimension):
    """Build the requested design; returns (WeightVector, extras for provenance)."""
    if ns.design is None:
        raise DomainError(f"{ns.command} needs --design")
    vec, extras = _DESIGNS[ns.design](order, dim, ns)
    if ns.norm is not None:
        vec = vec.normalized(Normalization(ns.norm))
    return vec, extras


def _cmd_weights(ns) -> int:
    dim = Dimension(ns.dim)
    vec, extras = _design_weights(ns, ns.order, dim)
    prov = _provenance(
        "weights",
        design=ns.design,
        order=ns.order,
        dim=dim.d,
        normalization=vec.normalization.value,
        **extras,
    )
    rows = [(n, float(a)) for n, a in enumerate(vec.a)]
    _emit(ns, prov, ["n", "a_n"], rows)
    return 0


def _parse_orders(ns) -> list:
    if ns.orders is None:
        if ns.order is None:
            raise DomainError("metrics needs --order or --orders")
        return [ns.order]
    text = ns.orders
    is_range = ".." in text
    try:
        orders = [int(p) for p in (text.split("..", 1) if is_range else text.split(","))]
    except ValueError as exc:
        raise DomainError(f"cannot parse --orders {text!r}") from exc
    # DomainError is a ValueError, so the caps are checked outside the try
    if is_range:
        lo, hi = (_integer(o, "--orders", 0, MAX_ORDER) for o in orders)
        orders = list(range(lo, hi + 1))
    if not orders:
        raise DomainError(f"invalid order range {text!r}")
    return orders


def _read_weights_file(path, dim: Dimension) -> WeightVector:
    lines = list(_file_lines(path))
    if lines and [c.strip() for c in lines[0][1].split(",")] != ["n", "a_n"]:
        raise ParseError(f"{path}: line {lines[0][0]}: expected header n,a_n")
    a = []
    for lineno, body in lines[1:]:
        # exactly n,a_n, with the degrees 0, 1, ..., N in order
        try:
            degree, text = body.split(",")
            value = float(text)
            if int(degree) != len(a) or not math.isfinite(value):
                raise ValueError(body)
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: expected row {len(a)},a_{len(a)}, "
                             f"got {body!r}") from exc
        a.append(value)
    if not a:
        raise ParseError(f"{path}: no weight rows")
    return WeightVector(dim, np.array(a), Normalization.RAW)


def _spread_deg(value) -> float:
    if value is None:
        return float("nan")
    return math.degrees(math.acos(min(1.0, max(-1.0, value))))


def _fbr_db(fbr: float) -> float:
    # FBR <= 0 is rounding noise: the back energy exceeds the front by > 1/eps
    return 10.0 * math.log10(fbr) if fbr > 0.0 else float("nan")


def _metric_row(label: str, order: int, vec: WeightVector) -> tuple:
    met = compute_metrics(vec)
    return (
        label,
        order,
        met.q,
        _spread_deg(met.r_v),
        _spread_deg(met.r_e),
        _fbr_db(met.fbr),
    )


def _cmd_metrics(ns) -> int:
    dim = Dimension(ns.dim)
    columns = ["design", "order", "q", "rv_spread_deg", "re_spread_deg", "fbr_db"]
    rows = []
    if ns.weights_file is not None:
        vec = _read_weights_file(ns.weights_file, dim)
        rows.append(_metric_row(ns.weights_file, vec.order, vec))
        prov = _provenance("metrics", source=ns.weights_file, dim=dim.d)
    else:
        if ns.design is None:
            raise DomainError("metrics needs --design or --weights-file")
        orders = _parse_orders(ns)
        for order in orders:
            vec, _ = _design_weights(ns, order, dim)
            rows.append(_metric_row(ns.design, order, vec))
        prov = _provenance("metrics", design=ns.design, dim=dim.d)
    _emit(ns, prov, columns, rows)
    return 0


def _cmd_pattern(ns) -> int:
    dim = Dimension(ns.dim)
    _integer(ns.samples, "--samples", 2, _MAX_SAMPLES)
    vec, extras = _design_weights(ns, ns.order, dim)
    phi = np.linspace(0.0, 180.0, ns.samples)
    x = np.cos(np.radians(phi))
    g = np.atleast_1d(eval_pattern(vec, x))
    g_axis = g[0]  # x[0] = cos 0 is exactly 1
    rows = []
    for p, xi, gi in zip(phi, x, g):
        ratio = abs(gi / g_axis)
        db = _DB_FLOOR if ratio == 0.0 else max(20.0 * math.log10(ratio), _DB_FLOOR)
        rows.append((float(p), float(xi), float(gi), float(db)))
    prov = _provenance(
        "pattern",
        design=ns.design,
        order=ns.order,
        dim=dim.d,
        normalization=vec.normalization.value,
        samples=ns.samples,
        **extras,
    )
    _emit(ns, prov, ["phi_deg", "x", "g", "db"], rows)
    return 0


def _cmd_tdesign(ns) -> int:
    from . import sampling

    _integer(ns.t, "--t", 0, _MAX_T)
    sources = [ns.builtin is not None, ns.circle is not None, ns.nodes_file is not None]
    if sum(sources) != 1:
        raise DomainError("tdesign needs exactly one of --builtin / --circle / --nodes-file")
    if ns.builtin is not None:
        nodes = sampling.platonic(ns.builtin)
    elif ns.circle is not None:
        nodes = sampling.circle_nodes(ns.circle, math.radians(ns.offset_deg))
    else:
        nodes = sampling.load_nodes(ns.nodes_file, dim=ns.node_dim)
    _integer((ns.t + 1) * nodes.count**2, "(t+1)*nodes^2", 1, _MAX_TDESIGN_CELLS)
    report = sampling.tdesign_check(nodes, ns.t)
    prov = _provenance(
        "tdesign",
        source=nodes.label,
        node_count=nodes.count,
        node_dim=nodes.dim,
        t=report.t_claimed,
        max_abs_error=report.max_abs_error,
        passed=report.passed,
    )
    rows = [(n + 1, err) for n, err in enumerate(report.per_degree_errors)]
    _emit(ns, prov, ["degree", "max_abs_error"], rows)
    return 0 if report.passed else 1


def _add_common(sub, with_design: bool = True) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default="stdout", help="output path or 'stdout'")
    if with_design:
        sub.add_argument("--dim", type=float, default=3.0,
                         help=f"space dimension, a real 2 <= D <= {MAX_DIMENSION:g}")
        sub.add_argument("--design", choices=_DESIGNS)
        sub.add_argument("--norm", choices=[n.value for n in Normalization], default=None,
                         help="re-normalize the weights (default: design natural)")
        sub.add_argument("--flat-l", type=int, default=None,
                         help="maxflat: flatness degrees L at x = 1 (0 <= L <= N-1)")
        sub.add_argument("--cap-x0", type=float, default=None,
                         help="cap: boundary x0 in (-1, 1)")
        sub.add_argument("--cap-angle-deg", type=float, default=None,
                         help="cap: full opening angle; x0 = cos(angle/2)")
        sub.add_argument("--spacing-deg", type=float, default=None,
                         help="cap-trapezoid: average node spacing angle")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axibeam",
        description="Axisymmetric directivity design: weights, metrics, patterns, t-designs.",
    )
    parser.add_argument("--version", action="version", version=f"axibeam {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_w = subs.add_parser("weights", help="emit design weights a_0..a_N")
    _add_common(p_w)
    p_w.add_argument("--order", type=int, required=True, help=f"design order 0..{MAX_ORDER}")
    p_w.set_defaults(func=_cmd_weights)

    p_m = subs.add_parser("metrics", help="emit Q / rV / rE / FBR per design order")
    _add_common(p_m)
    p_m.add_argument("--order", type=int, default=None)
    p_m.add_argument("--orders", default=None, help="order range, e.g. 1..5 or 1,3,5")
    p_m.add_argument("--weights-file", default=None,
                     help="CSV with header n,a_n instead of --design")
    p_m.set_defaults(func=_cmd_metrics)

    p_p = subs.add_parser("pattern", help="sample the pattern over 0..180 degrees")
    _add_common(p_p)
    p_p.add_argument("--order", type=int, required=True)
    p_p.add_argument("--samples", type=int, default=181, help=f"2..{_MAX_SAMPLES}")
    p_p.set_defaults(func=_cmd_pattern)

    p_t = subs.add_parser("tdesign", help="verify a node set as a spherical/circular t-design")
    _add_common(p_t, with_design=False)
    p_t.add_argument("--builtin", choices=_POLYHEDRA, default=None)
    p_t.add_argument("--circle", type=int, default=None, help="equiangular ring with L nodes")
    p_t.add_argument("--offset-deg", type=float, default=0.0, help="ring rotation offset")
    p_t.add_argument("--nodes-file", default=None)
    p_t.add_argument("--node-dim", type=int, choices=(2, 3), default=None,
                     help="force the ambient dimension of a 2-column nodes file")
    p_t.add_argument("--t", type=int, required=True, help=f"0..{_MAX_T}")
    p_t.set_defaults(func=_cmd_tdesign)
    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except (AxibeamError, OSError) as exc:
        print(f"axibeam: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
