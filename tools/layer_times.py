"""Per-layer times of the single-vector read path of two source trees, in alternating child runs.

    python tools/layer_times.py --parent REV_OR_DIR [--change DIR] [--pairs N] [--json PATH]
                                [--layers LAYER[,LAYER...]]

The first layers are those of one operation of perfbench's `batch`
workload, each timed alone at its 7 (N, D) pairs on a 5 % perturbation of
`basic(N, D)`:

    weights   WeightVector(dim, a, "raw")._scaled, fresh weights each call
    metrics   compute_metrics, `_scaled` already cached
    pattern   eval_pattern on 181 angles, cos 0 .. 180 degrees
    discrete  discrete_metrics on the dodecahedron (D = 3) or on a ring of
              2N + 2 nodes (D = 2), one fixed unit aim; none at D = 2.5
    series    ultraspherical._series_sum alone on the same 181 angles

The record layer times, at the same pairs (the orders of `batch`, and those
up to 16 of `sweep`), how the per-(N, D) record is provided:

    build     a cold ultraspherical._Basis(N, D) with its Gram
    miss      an order the record LRU misses while a record of order 128 at
              the same D is live: the cache's own miss path (the function
              the LRU wraps) with its Gram, a cut of that record where the
              tree cuts and a build where it does not

the rule layer times one cold Gauss-Jacobi rule build,
`quadrature._jacobi_rule.__wrapped__(n, a, b)` at n = 64, 128, 333, 512 and
1048, for the symmetric (a, a) and the one-sided (a, 0) rule at D = 2.5 and
3.5 (a = (D - 3)/2), the legendre layer times one cold Gauss-Legendre rule
build, `quadrature._legendre_rule.__wrapped__(n)` at the same n, and the scan
layer times one pass of `compute_metrics(max_re(N, D).weights)` over
N = 1 .. 128 at D = 2.5, 3 and 7.3 (microseconds per pass), each pass from an empty record LRU, in rounds
of their own before the other cells.  Each pair's calls are made in a
function of their own, so every cell times its own pair.  `--layers` times
only the layers it names (default: all of them).

A rule cell also reads its digits: -log10 of the relative error of
int e^(3x) (1-x)^a (1+x)^b dx by the rule against mpmath's closed form
2^(a+b+1) B(a+1, b+1) e^-3 1F1(b+1; a+b+2; 6), computed once per cell
outside the timed loop (none where mpmath is missing; 17 for an exact sum).
A legendre cell reads the same digits at a = b = 0, where the closed form
is (e^3 - e^-3)/3.

Each side is a tree holding `src/`; a `--parent` that is not a directory is
taken as a git revision of this repository and extracted with `git archive`
(`tools/tier1_wall.py`).  A run is a child process with the tree's `src`
first on PYTHONPATH that times every (layer, pair) cell as `REPEATS` repeats
of `NUMBER` calls (`RULE_NUMBER` for a rule build), the cells taking turns,
and prints each repeat's time per call.  The sides alternate which one runs
first in each pair of runs, so slow spells of a shared machine fall on both.
Printed per cell: the median and quartiles in microseconds of each side's
repeats pooled over its runs, the ratio of the medians, change over parent,
and each side's digits where the cell reads them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tier1_wall import ROOT, alternate, tree_env  # noqa: E402

PAIRS = ((4, 3.0), (6, 2.0), (8, 2.5), (12, 3.0), (16, 2.0), (24, 2.5), (32, 3.0))
SCAN_D = (2.5, 3.0, 7.3)
RULE_COUNTS = (64, 128, 333, 512, 1048)
RULE_D = (2.5, 3.5)
LAYERS = ("weights", "metrics", "pattern", "discrete", "series", "record", "rule", "legendre",
          "scan")
NUMBER = 200
RULE_NUMBER = 5
REPEATS = 7


def rule_digits(x, w, a: float, b: float) -> float | None:
    """-log10 |rule / exact - 1| for int e^(3x) (1-x)^a (1+x)^b dx; None without mpmath."""
    import math

    import numpy as np
    try:
        import mpmath as mp
    except ImportError:
        return None
    with mp.workdps(30):
        ma, mb = mp.mpf(a), mp.mpf(b)
        exact = (2 ** (ma + mb + 1) * mp.beta(ma + 1, mb + 1) * mp.exp(-3)
                 * mp.hyp1f1(mb + 1, ma + mb + 2, 6))
        err = abs(mp.mpf(float(w @ np.exp(3.0 * x))) / exact - 1)
    return 17.0 if err == 0 else round(-math.log10(float(err)), 3)


def measure(layers: tuple) -> dict:
    """{layer: {"N=..,D=..": [us per call, one per repeat]}, "digits": {layer: {cell: digits}}}.

    For the axibeam on sys.path, over the named layers only.
    """
    import time
    import timeit

    import numpy as np

    import axibeam as ab
    from axibeam.quadrature import _jacobi_rule, _legendre_rule
    from axibeam.ultraspherical import MAX_ORDER, _Basis, _basis, _cached_basis, _series_sum

    rng = np.random.default_rng(1)
    angles = np.cos(np.radians(np.linspace(0.0, 180.0, 181)))
    out: dict = {layer: {} for layer in layers}
    out["digits"] = {"rule": {}, "legendre": {}}
    # the scans come first, while no record is live, each from an empty LRU
    clock = time.perf_counter
    for _ in range(REPEATS if "scan" in layers else 0):
        for d in SCAN_D:
            dim = ab.Dimension(d)
            _cached_basis.cache_clear()
            start = clock()
            for order in range(1, MAX_ORDER + 1):
                ab.compute_metrics(ab.max_re(order, dim).weights)
            out["scan"].setdefault(f"D={d:g}", []).append(1e6 * (clock() - start))
    _cached_basis.cache_clear()
    miss = _cached_basis.__wrapped__
    keep = []

    def pair_calls(order: int, d: float) -> dict:
        """{(layer, kind): call} of one (N, D) pair, each call bound to this pair's objects."""
        dim = ab.Dimension(d)
        base = ab.basic(order, dim).a
        a = base * (1.0 + 0.05 * rng.standard_normal(base.size))
        weights = ab.WeightVector(dim, a, "raw")
        _, _, c, basis = weights._scaled
        calls = {
            ("weights", ""): lambda: ab.WeightVector(dim, a, "raw")._scaled,
            ("metrics", ""): lambda: ab.compute_metrics(weights),
            ("pattern", ""): lambda: ab.eval_pattern(weights, angles),
            ("series", ""): lambda: _series_sum(c, angles, basis),
        }
        if d in (2.0, 3.0):
            nodes = ab.circle_nodes(2 * order + 2) if d == 2.0 else ab.platonic("dodecahedron")
            aim = rng.standard_normal(nodes.dim)
            aim /= np.linalg.norm(aim)
            calls["discrete", ""] = lambda: ab.discrete_metrics(weights, nodes, aim)
        # the record of order 128 stays live through `keep` while the miss
        # path, which leaves the LRU as it is, is timed
        keep.append(_basis(MAX_ORDER, dim))
        calls["record", "build "] = lambda: _Basis(order, dim).gram
        calls["record", "miss "] = lambda: miss(order, dim).gram
        return calls

    cells = []
    for order, d in PAIRS:
        for (layer, kind), call in pair_calls(order, d).items():
            if layer not in layers:
                continue
            label = f"{kind}N={order},D={d:g}"
            call()
            cells.append((layer, label, timeit.Timer(call), NUMBER))
            out[layer][label] = []
    for d in RULE_D if "rule" in layers else ():
        a = (d - 3.0) / 2.0
        for count in RULE_COUNTS:
            for kind, b in (("aa ", a), ("a0 ", 0.0)):
                label = f"{kind}n={count},D={d:g}"
                build = partial(_jacobi_rule.__wrapped__, count, a, b)
                out["digits"]["rule"][label] = rule_digits(*build(), a, b)
                cells.append(("rule", label, timeit.Timer(build), RULE_NUMBER))
                out["rule"][label] = []
    for count in RULE_COUNTS if "legendre" in layers else ():
        label = f"n={count}"
        build = partial(_legendre_rule.__wrapped__, count)
        out["digits"]["legendre"][label] = rule_digits(*build(), 0.0, 0.0)
        cells.append(("legendre", label, timeit.Timer(build), RULE_NUMBER))
        out["legendre"][label] = []
    # the repeats of every cell go round in turn, so a slow spell of the
    # machine falls on all cells alike rather than on a few whole cells
    for _ in range(REPEATS):
        for layer, label, timer, number in cells:
            out[layer][label].append(1e6 * timer.timeit(number) / number)
    return out


def run_child(tree: Path, layers: tuple) -> dict:
    # one BLAS thread, as in perfbench: the scan's eigensolver would otherwise
    # take a second thread and time the contention of a shared machine
    env = tree_env(tree)
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    proc = subprocess.run([sys.executable, __file__, "--child", "--layers", ",".join(layers)],
                          cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(runs: dict) -> dict:
    """{layer: {cell: {side: [q1, median, q3]} | ratio | digits}} over the pooled repeats.

    digits, {side: digits}, is there only for cells that read them; they do
    not vary between runs, so the first run's are taken.
    """
    summary: dict = {}
    for layer in LAYERS:
        for label in runs["parent"][0].get(layer, ()):
            cell = {side: [round(v, 3) for v in
                           quartiles([t for run in side_runs for t in run[layer][label]])]
                    for side, side_runs in runs.items()}
            cell["ratio"] = round(cell["change"][1] / cell["parent"][1], 4)
            if label in runs["parent"][0]["digits"].get(layer, {}):
                cell["digits"] = {side: side_runs[0]["digits"][layer][label]
                                  for side, side_runs in runs.items()}
            summary.setdefault(layer, {})[label] = cell
    return summary


def layer_list(text: str) -> tuple:
    layers = tuple(text.split(","))
    if unknown := set(layers) - set(LAYERS):
        raise argparse.ArgumentTypeError(f"unknown layers {sorted(unknown)}; "
                                         f"choose from {', '.join(LAYERS)}")
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="source tree, or a git revision")
    parser.add_argument("--change", default=str(ROOT), help="source tree (default: this one)")
    parser.add_argument("--pairs", type=int, default=3, help="alternating pairs of runs")
    parser.add_argument("--json", help="also write the summary to this file")
    parser.add_argument("--layers", type=layer_list, default=LAYERS,
                        help=f"comma-separated layers to time (default: {','.join(LAYERS)})")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(measure(args.layers)))
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    runs = alternate(args.parent, args.change, args.pairs,
                     partial(run_child, layers=args.layers), lambda _: "done")
    summary = summarize(runs)
    print(f"us per call, median [q1, q3] of {args.pairs} runs x {REPEATS} repeats of "
          f"{NUMBER} calls ({RULE_NUMBER} per rule build) per side")
    for layer, cells in summary.items():
        for label, cell in cells.items():
            (p1, pm, p3), (c1, cm, c3) = cell["parent"], cell["change"]
            digits = cell.get("digits")
            print(f"{layer:9s} {label:17s} parent {pm:8.2f} [{p1:.2f}, {p3:.2f}]  "
                  f"change {cm:8.2f} [{c1:.2f}, {c3:.2f}]  ratio {cell['ratio']:.3f}"
                  + (f"  digits {digits['parent']} -> {digits['change']}" if digits else ""))
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
