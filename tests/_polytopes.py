"""Vertex sets of the 24-cell and the 600-cell on S^3, for the tests only.

The coordinates are Coxeter's (*Regular Polytopes*, 1973).  The 24-cell is a
spherical 5-design and the 600-cell an 11-design, and neither is a design of
the next degree (Goethals & Seidel, "Cubature formulae, polytopes and
spherical designs", in *The Geometric Vein*, 1981), so they test the t-design
check and the discrete sums at D = 4 from formulas outside the library.
"""

import math
from itertools import permutations, product

import numpy as np

from axibeam.sampling import NodeSet

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _even(perm) -> bool:
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
    return inversions % 2 == 0


def cell_24() -> NodeSet:
    """All permutations of (+-1, +-1, 0, 0) / sqrt 2: 24 vertices."""
    pts = {p for a, b in product((1.0, -1.0), repeat=2) for p in permutations((a, b, 0.0, 0.0))}
    assert len(pts) == 24
    return NodeSet(4, np.array(sorted(pts)) / math.sqrt(2.0), label="24-cell")


def cell_600() -> NodeSet:
    """The 120 vertices of the 600-cell.

    8 permutations of (+-1, 0, 0, 0), the 16 points (+-1/2, +-1/2, +-1/2,
    +-1/2), and the 96 even permutations of (+-phi, +-1, +-1/phi, 0) / 2.
    """
    pts = {p for s in (1.0, -1.0) for p in permutations((s, 0.0, 0.0, 0.0))}
    pts |= set(product((0.5, -0.5), repeat=4))
    for signs in product((1.0, -1.0), repeat=3):
        values = [s * v / 2.0 for s, v in zip(signs, (PHI, 1.0, 1.0 / PHI))] + [0.0]
        for perm in filter(_even, permutations(range(4))):
            pts.add(tuple(values[i] for i in perm))
    assert len(pts) == 120
    return NodeSet(4, np.array(sorted(pts)), label="600-cell")
