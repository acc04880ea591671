"""Tier-1 suite wall time of two source trees, run in alternating child processes.

    python tools/tier1_wall.py --parent REV_OR_DIR [--change DIR] [--pairs N]

Each side is a tree holding `src/` and `tests/`; a `--parent` that is not a
directory is taken as a git revision of this repository and extracted with
`git archive` into a temporary directory.  Each run is the Tier-1 command of
ROADMAP.md, `python -m pytest -q --continue-on-collection-errors`, with the
tree's `src` first on PYTHONPATH and `--durations=0 --durations-min=0` added,
in a child process whose wall time is taken around it.  The sides alternate
which one runs first in each pair, so slow spells of a shared machine fall on
both, and the pair count is even (an odd request is rounded up), so each side
runs first, and second, equally often.  Printed: each run's wall time and
pytest summary line, then per side the median wall time and the median
per-file sum of the setup, call and teardown durations.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DURATION = re.compile(r"^\s*([0-9.]+)s\s+(?:setup|call|teardown)\s+([^:\s]+)::")
SUMMARY = re.compile(r"^=* ?(.*\b(?:passed|failed)\b.* in [0-9.]+s.*?) ?=*$")


def tree_env(tree: Path) -> dict:
    """This process's environment with the tree's `src` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_suite(tree: Path) -> tuple[float, str, dict]:
    """(wall seconds, pytest summary line, {test file: seconds}) of one Tier-1 run."""
    env = tree_env(tree)
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider", "--durations=0", "--durations-min=0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    per_file: dict = defaultdict(float)
    summary = "no summary line"
    for line in proc.stdout.splitlines():
        if hit := DURATION.match(line):
            per_file[hit[2]] += float(hit[1])
        elif hit := SUMMARY.match(line):
            summary = hit[1]
    return wall, summary, dict(per_file)


def extract(rev: str, into: Path) -> Path:
    """A `git archive` of rev unpacked under into."""
    data = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(data.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into


def alternate(parent: str, change: str, pairs: int, run, describe) -> dict:
    """{"parent": [run(tree), ...], "change": [...]}, the sides taking turns to go first.

    A parent that is not a directory is a git revision, extracted for the
    runs.  An odd pair count is rounded up, so that each side goes first in
    half the pairs: a side that runs second more often than the other reads
    a slower or faster machine.  Each run is printed as `pair P side:
    describe(result)`.
    """
    if pairs % 2:
        pairs += 1
        print(f"running {pairs} pairs, not {pairs - 1}, so that each side goes first "
              "equally often", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(parent)
        if not tree.is_dir():
            tree = extract(parent, Path(tmp))
        sides = {"parent": tree.resolve(), "change": Path(change).resolve()}
        runs: dict = {name: [] for name in sides}
        for pair in range(pairs):
            order = list(sides) if pair % 2 == 0 else list(reversed(sides))
            for name in order:
                result = run(sides[name])
                runs[name].append(result)
                print(f"pair {pair + 1} {name}: {describe(result)}", flush=True)
    return runs


def merge_into(path: Path, key: str, block: dict) -> None:
    """Store block, with the machine it was measured on, under key in the JSON object in path.

    The file is created if needed, and its other keys are kept.
    """
    data = json.loads(path.read_text()) if path.exists() else {}
    data[key] = {**block, "machine": {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "processor": platform.processor() or platform.machine()}}
    path.write_text(json.dumps(data, indent=1) + "\n")


def report(name: str, runs: list) -> None:
    walls = [wall for wall, _, _ in runs]
    print(f"{name}: median wall {statistics.median(walls):.2f} s over {len(runs)} runs "
          f"({', '.join(f'{w:.2f}' for w in walls)})")
    files = sorted({f for _, _, per_file in runs for f in per_file})
    for f in files:
        secs = statistics.median(per_file.get(f, 0.0) for _, _, per_file in runs)
        print(f"  {f:36s} {secs:6.2f} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="source tree, or a git revision")
    parser.add_argument("--change", default=str(ROOT), help="source tree (default: this one)")
    parser.add_argument("--pairs", type=int, default=4,
                        help="alternating pairs of runs, rounded up to an even count")
    args = parser.parse_args()
    runs = alternate(args.parent, args.change, args.pairs, run_suite,
                     lambda run: f"{run[0]:.2f} s, {run[1]}")
    for name, side_runs in runs.items():
        report(name, side_runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
