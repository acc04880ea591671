"""Locations inside the checkout the benchmark runs from."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# Pinned in the benchmark's own environment (and inherited by its child
# processes) so numpy's BLAS and any OpenMP runtime use one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def use_source_tree() -> bool:
    """Put the checkout's src/ first on sys.path; False when it holds no axibeam."""
    if not (SRC / "axibeam" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True
