"""Wall time of `python -m axibeam` commands from two source trees, in alternating child processes.

    python tools/cli_wall.py --parent REV_OR_DIR [--change DIR] [--pairs N] [--into FILE]

Standard library only.  Each side is a tree holding `src/`; a `--parent`
that is not a directory is a git revision of this repository, extracted with
`git archive`.  Each side's `src` is copied into a temporary directory
without any `__pycache__`, and every child runs with
PYTHONDONTWRITEBYTECODE=1, so both sides compile their modules on every
run, as a fresh checkout does.  BLAS and OpenMP are pinned to one thread.

A run is one pass over a fixed command list: the README's CLI commands and
one `tdesign --nodes-file`.  Each command is a child process that runs the
CLI as `python -m axibeam` does (`runpy`), after registering a collector
callback that counts the collections the whole process runs; the count
is read from the last line of stderr.  Its wall time is taken around the
child.  The sides take turns to go first (`tier1_wall.alternate`), and
the pair count is even.

Printed: per command and side, the median wall time with its quartiles
and the collections per child, then the change/parent ratio of the
medians.  `--into FILE` stores the same rows under the key `cli_wall` of
the JSON object in FILE, creating the file if needed and keeping its
other keys.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tier1_wall import alternate, extract, merge_into  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
NODES_FILE = "octahedron.csv"
COMMANDS = [
    "weights --design basic --order 2 --dim 3",
    "weights --design maxre --order 3 --dim 2",
    "weights --design inphase --order 1 --dim 3",
    "weights --design cap --order 7 --cap-angle-deg 80 --dim 3",
    "metrics --design basic --orders 1..5 --dim 3",
    "metrics --design supercard --orders 1..5 --dim 2",
    "pattern --design inphase --order 1 --dim 3 --samples 19",
    "tdesign --builtin icosahedron --t 5",
    "tdesign --circle 8 --t 7",
    f"tdesign --nodes-file {NODES_FILE} --t 3",
]
MARK = "cli_wall collections: "
# a child that counts every collection of the process, then runs the CLI as `-m` does
CHILD = f"""
import atexit
import gc
import runpy
import sys

starts = []
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(1))
atexit.register(lambda: sys.stderr.write("\\n{MARK}" + str(len(starts)) + "\\n"))
sys.argv[0] = "axibeam"
runpy.run_module("axibeam", run_name="__main__", alter_sys=True)
"""
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
           "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(src: Path) -> dict:
    """This process's environment with src alone on PYTHONPATH, one BLAS thread, no bytecode."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.update({name: "1" for name in THREADS})
    return env


def run_commands(tree: Path, workdir: Path) -> dict:
    """{command: (wall ms, collections)} of one pass over COMMANDS with tree's `src`."""
    env = child_env(tree / "src")
    out = {}
    for command in COMMANDS:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CHILD, *command.split()], cwd=workdir,
                              env=env, capture_output=True, text=True)
        wall = (time.perf_counter() - start) * 1e3
        if proc.returncode not in (0, 1) or MARK not in proc.stderr:
            raise RuntimeError(f"{tree}: {command!r} exited {proc.returncode}: {proc.stderr}")
        out[command] = (wall, int(proc.stderr.rpartition(MARK)[2].split()[0]))
    return out


def copy_src(tree: Path, into: Path) -> Path:
    """into/src, a copy of tree/src without `__pycache__`."""
    shutil.copytree(tree / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return into


def quartiles(values: list) -> list:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 2), round(q2, 2), round(q3, 2)]


def rows(runs: dict) -> dict:
    """Per command: each side's wall quartiles (ms), collections per child, and the ratio."""
    table = {}
    for command in COMMANDS:
        row = {}
        for side, side_runs in runs.items():
            walls = [run[command][0] for run in side_runs]
            counts = sorted({run[command][1] for run in side_runs})
            row[side] = {"wall_ms_q1_median_q3": quartiles(walls), "collections": counts,
                         "wall_ms": [round(w, 2) for w in walls]}
        row["change_over_parent"] = round(statistics.median(row["change"]["wall_ms"])
                                          / statistics.median(row["parent"]["wall_ms"]), 3)
        table[command] = row
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="source tree, or a git revision")
    parser.add_argument("--change", default=str(ROOT), help="source tree (default: this one)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating pairs of passes, rounded up to an even count")
    parser.add_argument("--into", type=Path, help="JSON file to store the rows in (key cli_wall)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        parent = Path(args.parent)
        if not parent.is_dir():
            parent = extract(args.parent, tmp / "archive")
        sides = {name: copy_src(tree, tmp / name)
                 for name, tree in (("parent", parent), ("change", Path(args.change)))}
        workdir = tmp / "work"
        workdir.mkdir()
        (workdir / NODES_FILE).write_text(
            "1,0,0\n-1,0,0\n0,1,0\n0,-1,0\n0,0,1\n0,0,-1\n", encoding="utf-8")
        runs = alternate(str(sides["parent"]), str(sides["change"]), args.pairs,
                         lambda tree: run_commands(tree, workdir),
                         lambda run: f"{sum(wall for wall, _ in run.values()):.0f} ms in all")
    table = rows(runs)
    for command, row in table.items():
        print(command)
        for side in runs:
            q1, median, q3 = row[side]["wall_ms_q1_median_q3"]
            print(f"  {side:6s} {median:7.1f} ms (q1 {q1:.1f}, q3 {q3:.1f}), "
                  f"collections {row[side]['collections']}")
        print(f"  change/parent {row['change_over_parent']:.3f}")
    if args.into:
        merge_into(args.into, "cli_wall", {
            "note": __doc__.split("\n\n", 2)[2].replace("\n", " ").strip(),
            "parent": args.parent, "pairs": len(runs["parent"]), "rows": table})
    return 0


if __name__ == "__main__":
    sys.exit(main())
