"""Ledger of every BENCH_*.json: op_ms_p50 per file and workload, and the trajectory.

    python tools/ledger.py

Standard library only.  Each BENCH_<n>.json at the repository root holds a
`summary` with `<workload>.op_ms_p50.{parent,change}_median` and
`change_wins` for the seed-1 pairs.  Held-out seed-20241017 pairs are
keyed `<workload>@20241017` in the early files and `<workload>_held_out`
from BENCH_22 on; both keys are read.  Printed per workload, in file order:
the parent and change medians, their ratio, the change's wins out of the
pairs (held-out beside them), and the file's claim with its verdict.

The verdict is what the file records: `met` of a structured claim, or a
`claim_note` that opens with "Met." or "Not met".  A claim on another
workload is shown as such, and a file that states a claim but no verdict
reads "verdict not recorded".

The trajectory of each workload is printed two ways: from the endpoints
(the first file's parent median against the last file's change median) and
as the product of every file's change/parent ratio.  They differ because
files were taken on different days and each parent is re-measured, so
neither is a controlled measurement.  Files or entries that cannot be read
are named at the end.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("cli", "sweep", "batch", "transform")
HELD_OUT = ("{}_held_out", "{}@20241017")


def bench_files(root: Path) -> list:
    """BENCH_<n>.json under root, in the order of n."""
    found = [(int(m[1]), p) for p in root.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return [p for _, p in sorted(found)]


def medians(entry) -> tuple | None:
    """(parent median, change median, change wins, pairs) of a summary entry's op_ms_p50."""
    try:
        cell = entry["op_ms_p50"]
        parent, change = float(cell["parent_median"]), float(cell["change_median"])
        wins, pairs = int(cell["change_wins"]), int(entry["pairs"])
    except (KeyError, TypeError, ValueError):
        return None
    if not (math.isfinite(parent) and math.isfinite(change) and parent > 0.0):
        return None
    return parent, change, wins, pairs


def claim_of(data: dict) -> tuple:
    """(claimed workload or None, claim text, verdict) as the file records them."""
    claim, note = data.get("claim"), data.get("claim_note")
    if isinstance(claim, dict):
        if "seed_1" in claim:
            met = all(part.get("met") for key, part in claim.items() if key.startswith("seed_"))
            return claim["seed_1"].get("workload"), claim.get("text", ""), \
                "met" if met else "not met"
        if "workload" in claim:
            return claim["workload"], f"{claim.get('metric', '?')} on {claim['workload']}", \
                "verdict not recorded"
    if isinstance(claim, str):
        text = claim
        workload = next((w for w in WORKLOADS if text.startswith(w)), None)
        if isinstance(note, str) and note.startswith("Met."):
            return workload, text, "met"
        if isinstance(note, str) and note.lower().startswith("not met"):
            return workload, text, "not met"
        return workload, text, "verdict not recorded"
    return None, "no gain claimed", "-"


def read(files: list) -> tuple:
    """({file: (summary, claim)}, [(file, reason)]) for the files that parse."""
    table, unread = {}, []
    for path in files:
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            unread.append((path.name, f"not readable JSON: {exc}"))
            continue
        summary = data.get("summary") if isinstance(data, dict) else None
        if not isinstance(summary, dict):
            unread.append((path.name, "no summary"))
            continue
        table[path.name] = (summary, claim_of(data))
    return table, unread


def held_out(summary: dict, workload: str) -> tuple | None:
    for key in HELD_OUT:
        if key.format(workload) in summary:
            return medians(summary[key.format(workload)])
    return None


def ledger(table: dict, unread: list) -> list:
    """Printed lines: one block per workload, then the trajectories."""
    lines, trajectory = [], {}
    for workload in WORKLOADS:
        lines.append(f"{workload}: op_ms_p50 medians, parent -> change (ms)")
        rows = []
        for name, (summary, (claimed, text, verdict)) in table.items():
            if workload not in summary:
                continue
            got = medians(summary[workload])
            if got is None:
                unread.append((name, f"{workload}: no op_ms_p50 medians"))
                continue
            parent, change, wins, pairs = got
            rows.append((parent, change))
            extra = ""
            if (held := held_out(summary, workload)) is not None:
                extra = f"  held-out {held[0]:.4g} -> {held[1]:.4g}, wins {held[2]}/{held[3]}"
            if claimed == workload:
                claim = f"claim {verdict}: {text[:60]}"
            elif claimed is None:
                claim = text if verdict == "-" else f"claim {verdict}: {text[:60]}"
            else:
                claim = f"claim on {claimed}"
            lines.append(f"  {name:14s} {parent:10.4f} -> {change:10.4f}  "
                         f"{change / parent:6.3f}x  wins {wins:2d}/{pairs:<2d}{extra}  [{claim}]")
        trajectory[workload] = rows
        lines.append("")
    lines.append("trajectory: endpoints (first parent -> last change) and product of ratios")
    for workload, rows in trajectory.items():
        if not rows:
            lines.append(f"  {workload:10s} no readable file")
            continue
        first, last = rows[0][0], rows[-1][1]
        product = math.prod(change / parent for parent, change in rows)
        lines.append(f"  {workload:10s} endpoints {first:.4g} -> {last:.4g} ms "
                     f"({last / first:.3f}x)   product of {len(rows)} ratios {product:.3f}x")
    lines.append("")
    lines.append("not read: " + ("none" if not unread else
                                 "; ".join(f"{name} ({why})" for name, why in unread)))
    return lines


def main() -> int:
    files = bench_files(ROOT)
    if not files:
        print(f"ledger: no BENCH_*.json under {ROOT}")
        return 1
    table, unread = read(files)
    print("\n".join(ledger(table, unread)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
