"""axibeam benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload {cli,sweep,batch,transform} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: it imports axibeam from that checkout's
src/ (and fails when there is none) and writes only under .perfbench-out/.
Operations run one after another from this one process, a closed loop with
one caller; `cli` operations are `python -m axibeam ...` child processes.

--trace 0 reports the end-to-end metrics.  --trace 1 is the separate traced
run: an untraced pass, then as many operations again with axibeam's public
functions wrapped; it reports per-layer counts and self times and the tracing
overhead (traced minus untraced operation time).  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

import checkout

for _var in checkout.THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 20241017
SETUP_REPEATS = 5
PROBE_REPEATS = 3
TRACE_CHUNK = 16
SLICE_S = 0.25         # seconds of operations between two timings of the reference kernel
REFERENCE_S = 0.00087  # reference kernel time at the nominal machine speed
NUMPY_REFERENCE_S = 0.00037  # its numpy-only part at the same speed
PROCESS_REFERENCE_S = 0.24  # `python -c "import numpy"` wall time at the same speed
TAIL_LEVELS = (99.0, 95.0, 90.0, 75.0, 50.0)
PROBE = checkout.ROOT / "perfbench" / "setup_probe.py"


@dataclass
class Tally:
    """What one pass over the operation stream saw.

    Operations are grouped in slices (SLICE_S seconds, or one `cli` command).
    The reference is timed at both ends of every slice; `scale` turns the
    slice's wall times into times at the reference machine speed.
    """

    slices: list = field(default_factory=list)       # [slowdown at start, at end, op seconds]
    ok: list = field(default_factory=list)           # (seconds, slice) of ops that passed
    attempted: int = 0
    raised: Counter = field(default_factory=Counter)  # (label, exception) -> count
    declined: Counter = field(default_factory=Counter)  # (label, exception) -> count
    wrong: Counter = field(default_factory=Counter)   # label -> failed output checks
    problems: list = field(default_factory=list)
    unexpected: int = 0                               # exceptions that are not AxibeamError
    digits: list = field(default_factory=list)
    fbr_digits: list = field(default_factory=list)
    warned: Counter = field(default_factory=Counter)  # warning category -> count
    recorded: Counter = field(default_factory=Counter)  # known-floor findings, not failed

    def scale(self, i: int, scaled: bool) -> float:
        slow_start, slow_end, _ = self.slices[i]
        return 2.0 / (slow_start + slow_end) if scaled else 1.0

    def times(self, scaled: bool = True) -> list:
        """Seconds of every operation that passed its check."""
        factors = [self.scale(i, scaled) for i in range(len(self.slices))]
        return [dt * factors[i] for dt, i in self.ok]

    def op_seconds(self, scaled: bool = True) -> float:
        """Seconds inside every attempted operation."""
        return sum(sl[2] * self.scale(i, scaled) for i, sl in enumerate(self.slices))

    @property
    def failed(self) -> int:
        """Operations that raised an error the workload does not declare, or failed a check."""
        return sum(self.raised.values()) + sum(self.wrong.values())

    @property
    def solved(self) -> int:
        """Operations that returned an output which passed its check."""
        return len(self.ok)

    @property
    def correct(self) -> bool:
        """No output failed its check and every exception was a typed AxibeamError."""
        return not self.wrong and self.unexpected == 0


_REF_X = np.linspace(-1.0, 1.0, 181)
_REF_M = (lambda m: m @ m.T)(np.random.default_rng(0).standard_normal((64, 64)))


def kernel_seconds(numpy_only: bool = False) -> float:
    """Fastest of three passes of a fixed kernel that uses no axibeam code.

    Small numpy calls, interpreted arithmetic and a small LAPACK solve, the
    same kinds of work as the operations; `numpy_only` keeps the small numpy
    calls alone.
    """
    passes = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(40):
            y = np.cos(k * _REF_X) * _REF_X
            acc += float(y @ _REF_X)
            if not numpy_only:
                for j in range(40):
                    acc += j * 0.5
        if not numpy_only:
            acc += float(np.linalg.eigvalsh(_REF_M)[-1])
        passes.append(time.perf_counter() - t0)
    return min(passes)   # a slow spell shows in all three; a momentary stall in one


def slowdown() -> float:
    """How much slower than nominal the machine runs the reference kernel now.

    On a shared machine neighbours slow the cores by up to 4x for seconds at
    a time.  The kernel is timed next to the work it stands for, and times
    are divided by its slowdown against REFERENCE_S, its typical time on a
    2-vCPU Intel Xeon (Sapphire Rapids class) KVM guest.
    """
    return kernel_seconds() / REFERENCE_S


def numpy_slowdown() -> float:
    """`slowdown` from the numpy part of the kernel alone."""
    return kernel_seconds(numpy_only=True) / NUMPY_REFERENCE_S


def process_slowdown() -> float:
    """How much slower than nominal a fresh interpreter now starts and imports numpy.

    The reference for work that is mostly process start and imports (`cli`
    commands and set-up probes), which the in-process kernel tracks poorly:
    reading and unmarshalling modules and loading shared libraries.  Nominal
    is PROCESS_REFERENCE_S on the machine that set REFERENCE_S.
    """
    dt, proc = wall([sys.executable, "-c", "import numpy"])
    if proc.returncode != 0:
        raise RuntimeError(f"reference process failed: {proc.stderr.strip()[-300:]}")
    return dt / PROCESS_REFERENCE_S


def reference_for(wl):
    """(slowdown function, seconds of operations between two of its timings)."""
    # Between runs on a shared machine, `batch` (small numpy calls on short
    # arrays) tracks the numpy part of the kernel more closely than the whole
    # kernel, and `cli` tracks neither.
    if wl.name == "cli":
        return process_slowdown, 0.0   # timed around every command
    if wl.name == "batch":
        return numpy_slowdown, SLICE_S
    return slowdown, SLICE_S


def measure(wl, ab, seconds: float | None = None, max_ops: int | None = None,
            tracer=None, tally: Tally | None = None, reference=(slowdown, SLICE_S)) -> Tally:
    """Closed loop: draw, time and check one operation after another.

    Only the call into axibeam is timed; drawing the inputs, checking the
    output and timing the reference happen between timed calls.  Pass
    `tally` to add to an earlier one.
    """
    from spans import CHECK_PHASE, OP_PHASE

    tally = Tally() if tally is None else tally
    machine_slowdown, slice_s = reference
    declined = getattr(wl, "declined", frozenset())
    start = tally.attempted
    clock = time.perf_counter
    deadline = clock() + seconds if seconds is not None else math.inf
    limit = max_ops if max_ops is not None else math.inf
    tally.slices.append([machine_slowdown(), 0.0, 0.0])
    slice_end = clock() + slice_s
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        while clock() < deadline and tally.attempted - start < limit:
            if clock() >= slice_end:
                slow = machine_slowdown()
                tally.slices[-1][1] = slow
                tally.slices.append([slow, 0.0, 0.0])
                slice_end = clock() + slice_s
            op = wl.next_op()
            label = wl.label(op)
            if tracer is not None:
                tracer.op_index, tracer.phase_now = tally.attempted, OP_PHASE
            tally.attempted += 1
            error = None
            t0 = clock()
            try:
                result = wl.run(op)
            except Exception as exc:
                error = exc
            dt = clock() - t0
            tally.slices[-1][2] += dt
            for w in caught:
                tally.warned[w.category.__name__] += 1
            caught.clear()
            if error is not None:
                key = (label, type(error).__name__)
                if key in declined and isinstance(error, ab.AxibeamError):
                    tally.declined[key] += 1
                    continue
                tally.raised[key] += 1
                if not isinstance(error, ab.AxibeamError):
                    tally.unexpected += 1
                    tally.problems.append(f"{label}: {type(error).__name__}: {error}")
                continue
            if tracer is not None:
                tracer.phase_now = CHECK_PHASE
            try:
                outcome = wl.check(op, result)
                problem = outcome.problem
            except Exception as exc:
                outcome, problem = None, f"check raised {type(exc).__name__}: {exc}"
            caught.clear()
            if problem is not None:
                tally.wrong[label] += 1
                if len(tally.problems) < 20:
                    tally.problems.append(f"{label}: {problem}")
                continue
            tally.ok.append((dt, len(tally.slices) - 1))
            tally.recorded.update(outcome.recorded)
            if outcome.digits is not None:
                tally.digits.append(outcome.digits)
            if outcome.fbr_digits is not None:
                tally.fbr_digits.append(outcome.fbr_digits)
    tally.slices[-1][1] = machine_slowdown()
    return tally


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_level(n: int, target: float) -> float:
    """The workload's tail percentile, lowered until ten samples lie beyond it."""
    for pct in TAIL_LEVELS:
        if pct <= target and n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return TAIL_LEVELS[-1]


def wall(argv, env=None) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          cwd=checkout.ROOT, timeout=170)
    return time.perf_counter() - t0, proc


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall, reference-scaled) seconds of fresh processes that import axibeam and warm up."""
    out = []
    slow_start = process_slowdown()
    for _ in range(SETUP_REPEATS):
        dt, proc = wall([sys.executable, str(PROBE), "--workload", workload, "--seed", str(seed)])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        slow_end = process_slowdown()
        out.append((dt, 2.0 * dt / (slow_start + slow_end)))
        slow_start = slow_end
    return out


def import_probes() -> dict:
    """Interpreter start, `import axibeam.cli` and its scipy share, in ms."""
    env = dict(os.environ, PYTHONPATH=str(checkout.SRC))
    interp = [wall([sys.executable, "-c", "pass"])[0] * 1e3 for _ in range(PROBE_REPEATS)]
    imports, scipy_part = [], []
    for _ in range(PROBE_REPEATS):
        _, proc = wall([sys.executable, "-X", "importtime", "-c", "import axibeam.cli"], env=env)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-300:]}")
        total, scipy_ms = importtime_ms(proc.stderr)
        imports.append(total)
        scipy_part.append(scipy_ms)
    return {"cli.interp_ms": statistics.median(interp),
            "cli.import_ms": statistics.median(imports),
            "cli.import_scipy_ms": statistics.median(scipy_part)}


def importtime_ms(text: str) -> tuple[float, float]:
    """Cumulative ms of the axibeam imports, and of the scipy imports made inside them.

    `-X importtime` lists each module after the modules it imported, indented
    two spaces per nesting level.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line.split("|")
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        raw = parts[2].rstrip()
        name = raw.lstrip()
        entries.append(((len(raw) - len(name)) // 2, name, cumulative / 1e3))
    total = sum(ms for level, name, ms in entries
                if level == 0 and name.split(".")[0] == "axibeam")
    scipy_ms, stack = 0.0, []
    for level, name, ms in reversed(entries):   # parents now come before children
        while stack and stack[-1][0] >= level:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_ms += ms
        stack.append((level, name))
    return total, scipy_ms


def machine() -> dict:
    import numpy
    import scipy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in checkout.THREAD_VARS}}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # ru_maxrss is in KiB on Linux


def timing_metrics(setups: list, tally: Tally, tail_pct: float, scaled: bool) -> dict:
    times_ms = [t * 1e3 for t in tally.times(scaled)]
    level = tail_level(len(times_ms), tail_pct)
    return {
        "setup_s": (statistics.median(s[scaled] for s in setups), "s"),
        "ops_per_s": (tally.solved / tally.op_seconds(scaled), "1/s"),
        "op_ms_p50": (percentile(times_ms, 50.0), "ms"),
        "op_ms_tail": (percentile(times_ms, level), "ms"),
    }


def end_to_end(wl, ab, args) -> tuple[dict, Tally, dict]:
    wl.warm_up()
    setups = setup_seconds(wl.name, args.seed)
    tally = measure(wl, ab, seconds=args.seconds, reference=reference_for(wl))
    rss = peak_rss_mb(children=wl.name == "cli")
    if not tally.ok:
        raise RuntimeError("no operation passed its check: " + "; ".join(tally.problems[:3]))
    metrics = timing_metrics(setups, tally, wl.tail_pct, scaled=True)
    metrics.update({
        "ok_ratio": (tally.solved / tally.attempted, "ratio"),
        "digits_min": (min(tally.digits) if tally.digits else 0.0, "digits"),
        "peak_rss_mb": (rss, "MB"),
    })
    raw = timing_metrics(setups, tally, wl.tail_pct, scaled=False)
    n = len(tally.ok)
    level = tail_level(n, wl.tail_pct)
    slows = [r for sl in tally.slices for r in sl[:2]]
    notes = {"wall_clock": {k: v for k, (v, _) in raw.items()},
             "setup_runs_s": setups, "tail_percentile": level, "samples": n,
             "samples_beyond_tail": n * (1.0 - level / 100.0),
             "checked_digit_samples": len(tally.digits),
             "slowdown_median": statistics.median(slows)}
    print(f"op_ms_tail is p{level:g} of {n} timed operations, "
          f"{n * (1.0 - level / 100.0):.0f} samples beyond it")
    print(f"machine slowdown against the nominal reference: median "
          f"{notes['slowdown_median']:.4f} over {len(slows)} timings")
    print("wall clock, before scaling to the reference speed: " + ", ".join(
        f"{k} {v:.6g} {u}" for k, (v, u) in raw.items()))
    return metrics, tally, notes


def per_layer(wl, ab, args) -> tuple[dict, Tally, dict]:
    from spans import CHECK_PHASE, OP_PHASE, Tracer

    probes = import_probes()
    wl.warm_up()
    if wl.name == "cli":
        wl.inprocess = True    # child processes cannot be traced from here
    # A fixed number of operations, so per-layer counts repeat exactly for a
    # seed.  Untraced and traced chunks alternate, so slow spells of a shared
    # machine fall on both sides of the overhead estimate alike.
    untraced, traced, tracer = Tally(), Tally(), Tracer()
    while traced.attempted < wl.trace_ops:
        measure(wl, ab, max_ops=TRACE_CHUNK, tally=untraced)
        tracer.install()
        try:
            measure(wl, ab, max_ops=TRACE_CHUNK, tracer=tracer, tally=traced)
        finally:
            tracer.uninstall()
    main_ms = (statistics.median(t * 1e3 for t in untraced.times(scaled=False))
               if wl.name == "cli" else 0.0)
    checkout.OUT.mkdir(parents=True, exist_ok=True)
    span_file = checkout.OUT / f"spans-{wl.name}.npz"
    tracer.save(span_file)
    summary = tracer.summary()
    ops, checks = summary[OP_PHASE], summary[CHECK_PHASE]

    def layer(name, source=ops):
        return source.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "fail": 0})

    metrics = {}
    for gen in ("basic", "max_re", "supercardioid", "supercardioid_approx",
                "inphase", "maxflat", "cap", "cap_trapezoid"):
        row = layer(f"designs.{gen}")
        metrics[f"designs.{gen}.calls"] = (row["calls"], "count")
        metrics[f"designs.{gen}.self_ms"] = (row["self_s"] * 1e3, "ms")
        metrics[f"designs.{gen}.fail"] = (row["fail"], "count")
    its = wl.iterations
    metrics["designs.max_re.iterations_mean"] = (sum(its) / len(its) if its else 0.0, "count")
    metrics["designs.range_warnings"] = (traced.warned.get("RangeWarning", 0), "count")
    metrics["designs.supercardioid.suboptimal"] = (traced.recorded["supercardioid_suboptimal"],
                                                   "count")
    for name in ("quadrature.gram_front", "quadrature.integrate_axisym",
                 "quadrature.transform_coeffs", "ultraspherical.eval_sequence",
                 "ultraspherical.norms_squared", "ultraspherical.derivative",
                 "metrics.compute_metrics", "metrics.eval_pattern",
                 "sampling.discrete_metrics", "sampling.tdesign_check", "sampling.load_nodes"):
        row = layer(name)
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_ms"] = (row["self_s"] * 1e3, "ms")
    # the oracle is called by the output checks, not by the operations
    row = layer("metrics.compute_metrics_numeric", checks)
    metrics["metrics.compute_metrics_numeric.calls"] = (row["calls"], "count")
    metrics["metrics.compute_metrics_numeric.self_ms"] = (row["self_s"] * 1e3, "ms")
    cm_calls = layer("metrics.compute_metrics")["calls"]
    grams = tracer.calls_under("quadrature.gram_front", "metrics.compute_metrics")
    metrics["quadrature.gram_per_metrics_call"] = (grams / cm_calls if cm_calls else 0.0, "ratio")
    metrics["metrics.fbr_digits_min"] = (min(traced.fbr_digits) if traced.fbr_digits else 0.0,
                                         "digits")
    metrics["metrics.fbr_nonpositive"] = (traced.recorded["fbr_nonpositive"], "count")
    for key, value in probes.items():
        metrics[key] = (value, "ms")
    metrics["cli.main_ms"] = (main_ms, "ms")
    traced_s, untraced_s = traced.op_seconds(scaled=False), untraced.op_seconds(scaled=False)
    overhead = traced_s - untraced_s
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_pct"] = (100.0 * overhead / untraced_s, "%")
    metrics["trace.spans"] = (len(tracer.start), "count")

    print(f"per-layer numbers below come from the traced run ({traced.attempted} operations, "
          f"spans in {span_file.relative_to(checkout.ROOT)}); counts are counts, not speed-ups")
    print(f"tracing overhead: traced {traced_s:.4f} s - untraced "
          f"{untraced_s:.4f} s = {overhead:.4f} s, {traced.attempted} operations each "
          f"in alternating chunks of {TRACE_CHUNK}")
    print(f"{'function (op phase)':40s} {'calls':>9s} {'total_ms':>11s} "
          f"{'self_ms':>11s} {'raised':>7s}")
    for name, row in sorted(ops.items(), key=lambda kv: -kv[1]["self_s"]):
        if row["calls"]:
            print(f"{name:40s} {row['calls']:9d} {row['total_s'] * 1e3:11.3f} "
                  f"{row['self_s'] * 1e3:11.3f} {row['fail']:7d}")
    combined = Tally(ok=untraced.ok + traced.ok, attempted=untraced.attempted + traced.attempted,
                     recorded=untraced.recorded + traced.recorded,
                     raised=untraced.raised + traced.raised, wrong=untraced.wrong + traced.wrong,
                     declined=untraced.declined + traced.declined,
                     problems=untraced.problems + traced.problems,
                     unexpected=untraced.unexpected + traced.unexpected)
    return metrics, combined, {"ops_per_side": traced.attempted}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli", "sweep", "batch", "transform"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not checkout.use_source_tree():
        print(f"perfbench: no axibeam source under {checkout.SRC}", file=sys.stderr)
        return 2
    import axibeam as ab
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.prepare()
    env = machine()
    print(f"workload {wl.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("machine: " + json.dumps(env))
    metrics, tally, notes = (per_layer if args.trace else end_to_end)(wl, ab, args)
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:16.6f} {unit}")
    breakdown = {f"{label}:{exc}": n for (label, exc), n in sorted(tally.raised.items())}
    breakdown.update({f"{label}:check": n for label, n in sorted(tally.wrong.items())})
    declined = {f"{label}:{exc}": n for (label, exc), n in sorted(tally.declined.items())}
    unsolved = tally.attempted - tally.solved
    print(f"attempted {tally.attempted}, failed {tally.failed}, declined {sum(declined.values())} "
          f"(unsolved ratio {unsolved / tally.attempted:.6f}), failed by cause: "
          f"{json.dumps(breakdown)}, declined by cause: {json.dumps(declined)}")
    if tally.recorded:
        print(f"recorded past the FBR floor, not failed: {json.dumps(dict(tally.recorded))}")
    for problem in tally.problems[:10]:
        print(f"problem: {problem}")
    result = {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    checkout.OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=wl.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=env, failures=breakdown, declined=declined,
                  problems=tally.problems, notes=notes)
    (checkout.OUT / f"result-{wl.name}-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
