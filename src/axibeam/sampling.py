"""Direction node sets, t-design verification, and discrete metric sums.

A node set is a t-design when averaging any polynomial of degree <= t over the
nodes equals its integral over the whole circle or sphere for every
orientation of the polynomial axis.  `tdesign_check` tests exactly that
identity degree by degree with randomized orientations; `discrete_metrics`
forms the loudspeaker-style discrete sums whose agreement with the continuous
metrics the t-design property guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .designs import WeightVector
from .errors import DomainError, NormError, ParseError
from .metrics import eval_pattern
from .ultraspherical import Dimension, eval_sequence

__all__ = [
    "NodeSet",
    "TDesignReport",
    "DiscreteMetrics",
    "circle_nodes",
    "platonic",
    "load_nodes",
    "tdesign_check",
    "discrete_metrics",
    "PASS_TOLERANCE",
    "MAX_NODES",
    "DEFAULT_SEED",
    "DEFAULT_TRIALS",
]

# Degree sums of an exact design land at 1e-12..1e-14, near-misses at 1e-3 or
# worse, so the pass threshold is insensitive over many orders of magnitude.
PASS_TOLERANCE = 1e-9

DEFAULT_SEED = 20240
DEFAULT_TRIALS = 64

# NodeSet's duplicate check forms L x L matrices; 2048 nodes keep each at 34 MB.
MAX_NODES = 2048

_UNIT_TOL = 1e-12
_FILE_NORM_TOL = 1e-6
_DUPLICATE_TOL = 1e-9  # radians


def _check_node_count(count: int) -> None:
    if not 1 <= count <= MAX_NODES:
        raise DomainError(f"node count must lie in 1..{MAX_NODES}, got {count}")


@dataclass(frozen=True)
class NodeSet:
    """1 <= L <= MAX_NODES (2048) unit direction vectors in 2 or 3 ambient dimensions."""

    dim: int
    nodes: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise DomainError(f"ambient dimension must be 2 or 3, got {self.dim}")
        pts = np.atleast_2d(np.asarray(self.nodes, dtype=float)).copy()
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DomainError(f"nodes must be an (L, {self.dim}) array")
        _check_node_count(pts.shape[0])
        norms = np.linalg.norm(pts, axis=1)
        if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
            raise NormError("every node must have unit norm within 1e-12")
        dots = np.clip(pts @ pts.T, -1.0, 1.0)
        np.fill_diagonal(dots, -1.0)
        if np.any(np.arccos(dots) <= _DUPLICATE_TOL):
            raise DomainError("node set contains duplicate directions")
        pts.setflags(write=False)
        object.__setattr__(self, "nodes", pts)

    @property
    def count(self) -> int:
        return self.nodes.shape[0]


@dataclass(frozen=True)
class TDesignReport:
    """Outcome of a t-design check.

    per_degree_errors[i] is the worst deviation of the degree-(i+1) node sum
    from its exact integral over all random orientations; passed means every
    degree up to t_claimed stayed below the pass tolerance.
    """

    t_claimed: int
    max_abs_error: float
    per_degree_errors: tuple
    passed: bool


@dataclass(frozen=True)
class DiscreteMetrics:
    """P, E, rV, rE formed from node sums, with the aiming error of each vector."""

    p: float
    e: float
    r_v: float
    r_e: float
    r_v_misaim_rad: float
    r_e_misaim_rad: float


def circle_nodes(count: int, offset_rad: float = 0.0) -> NodeSet:
    """Equiangular ring of `count` unit vectors at angles offset + 2 pi (l-1)/L."""
    _check_node_count(count)
    ang = offset_rad + 2.0 * math.pi * np.arange(count) / count
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    return NodeSet(2, pts, label=f"circle-{count}")


_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _cyclic_signed(a: float, b: float) -> list:
    """All cyclic permutations of (0, +-a, +-b); 12 distinct vertices."""
    pts = set()
    for sa in (1.0, -1.0):
        for sb in (1.0, -1.0):
            x, y, z = 0.0, sa * a, sb * b
            pts.update([(x, y, z), (y, z, x), (z, x, y)])
    return sorted(pts)


def _signed(coords) -> list:
    out = set()
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for sz in (1.0, -1.0):
                out.add((sx * coords[0], sy * coords[1], sz * coords[2]))
    return sorted(out)


def _platonic_vertices(name: str) -> np.ndarray:
    if name == "tetrahedron":
        pts = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    elif name == "octahedron":
        pts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    elif name == "cube":
        pts = _signed((1.0, 1.0, 1.0))
    elif name == "icosahedron":
        pts = _cyclic_signed(1.0, _GOLDEN)
    elif name == "dodecahedron":
        pts = sorted(set(_signed((1.0, 1.0, 1.0))) | set(_cyclic_signed(1.0 / _GOLDEN, _GOLDEN)))
    else:
        raise DomainError(f"unknown polyhedron {name!r}")
    return np.asarray(pts, dtype=float)


PLATONIC_NAMES = ("tetrahedron", "octahedron", "cube", "icosahedron", "dodecahedron")


def platonic(name: str) -> NodeSet:
    """Vertices of one of the five regular polyhedra, normalized to unit length."""
    pts = _platonic_vertices(name)
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    return NodeSet(3, pts, label=name)


def _rows_from_file(path) -> list:
    rows = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = [p for p in body.replace(",", " ").split() if p]
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError(f"{path}: rows have inconsistent column counts")
    return rows


def load_nodes(path, dim: int | None = None) -> NodeSet:
    """Read a node set from a CSV file.

    Accepted layouts: 3 columns x,y,z (3-d unit vectors); 2 columns
    azimuth_deg,zenith_deg (3-d); 2 columns x,y (2-d unit vectors); 1 column
    azimuth_deg (2-d).  `#` starts a comment.  A two-column file is ambiguous,
    so pass `dim` to force a reading; otherwise rows that are all unit-norm
    are taken as 2-d Cartesian and anything else as azimuth/zenith.  Rows
    whose norm deviates from 1 by less than 1e-6 are renormalized; worse rows
    raise NormError.
    """
    data = np.asarray(_rows_from_file(path), dtype=float)
    width = data.shape[1]
    if width == 3:
        if dim not in (None, 3):
            raise ParseError(f"{path}: 3-column file cannot be a {dim}-d node set")
        return _cartesian_nodes(data, 3, str(path))
    if width == 1:
        if dim not in (None, 2):
            raise ParseError(f"{path}: 1-column file cannot be a {dim}-d node set")
        az = np.radians(data[:, 0])
        pts = np.column_stack([np.cos(az), np.sin(az)])
        return NodeSet(2, pts, label=str(path))
    if width == 2:
        norms = np.linalg.norm(data, axis=1)
        looks_cartesian = bool(np.all(np.abs(norms - 1.0) < _FILE_NORM_TOL))
        use_dim = dim if dim is not None else (2 if looks_cartesian else 3)
        if use_dim == 2:
            return _cartesian_nodes(data, 2, str(path))
        az = np.radians(data[:, 0])
        zen = np.radians(data[:, 1])
        pts = np.column_stack(
            [np.sin(zen) * np.cos(az), np.sin(zen) * np.sin(az), np.cos(zen)]
        )
        return NodeSet(3, pts, label=str(path))
    raise ParseError(f"{path}: expected 1, 2, or 3 columns, got {width}")


def _cartesian_nodes(data: np.ndarray, dim: int, label: str) -> NodeSet:
    norms = np.linalg.norm(data, axis=1)
    if np.any(np.abs(norms - 1.0) >= _FILE_NORM_TOL):
        worst = float(np.max(np.abs(norms - 1.0)))
        raise NormError(f"{label}: node norm deviates from 1 by {worst:.3e}")
    return NodeSet(dim, data / norms[:, None], label=label)


def _random_directions(rng: np.random.Generator, trials: int, dim: int) -> np.ndarray:
    if dim == 2:
        ang = rng.uniform(0.0, 2.0 * math.pi, size=trials)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    vec = rng.normal(size=(trials, 3))
    return vec / np.linalg.norm(vec, axis=1, keepdims=True)


def tdesign_check(
    nodes: NodeSet,
    t: int,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> TDesignReport:
    """Check the t-design identity degree by degree.

    For each degree 1 <= n <= t and `trials` random orientations s, the node
    sum (S_{D-1}/L) sum_l P_n(s . theta_l) is compared with the exact integral
    of P_n over the sphere, which vanishes for n >= 1 by orthogonality.  The
    degree-0 sum is exact by construction, so t = 0 always passes.
    """
    if t < 0:
        raise DomainError("t must be >= 0")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if t == 0:
        return TDesignReport(0, 0.0, (), True)
    dim = Dimension(float(nodes.dim))
    rng = np.random.default_rng(seed)
    dirs = _random_directions(rng, trials, nodes.dim)
    dots = np.clip(dirs @ nodes.nodes.T, -1.0, 1.0)
    seq = eval_sequence(dots.reshape(-1), t, dim).reshape(t + 1, trials, nodes.count)
    sums = (dim.surface / nodes.count) * seq.sum(axis=2)
    errors = tuple(float(np.max(np.abs(sums[n]))) for n in range(1, t + 1))
    worst = max(errors)
    return TDesignReport(t, worst, errors, worst < PASS_TOLERANCE)


def _misaim(vector: np.ndarray, aim: np.ndarray) -> float:
    length = np.linalg.norm(vector)
    if length < 1e-300:
        return 0.0
    # atan2 of the perpendicular component stays accurate for tiny angles,
    # where arccos of the normalized dot product bottoms out at sqrt(eps)
    along = float(vector @ aim)
    perp = float(np.linalg.norm(vector - along * aim))
    return math.atan2(perp, along)


def discrete_metrics(weights: WeightVector, nodes: NodeSet, aim) -> DiscreteMetrics:
    """P, E, rV, rE from node sums of the sampled pattern.

    Samples g at the projections aim . theta_l and forms the discrete
    counterparts of the metric integrals with the surface element
    S_{D-1}/L.  FBR is deliberately not offered here: the front half-space
    boundary cuts through a node set differently for every orientation, so
    discrete FBR does not stabilize the way the other sums do.
    """
    if weights.dim.d != float(nodes.dim):
        raise DomainError(
            f"weights dimension D={weights.dim.d} does not match {nodes.dim}-d nodes"
        )
    aim = np.asarray(aim, dtype=float)
    if aim.shape != (nodes.dim,):
        raise DomainError(f"aim must be a {nodes.dim}-vector")
    norm = np.linalg.norm(aim)
    if abs(norm - 1.0) > _FILE_NORM_TOL:
        raise DomainError("aim must be a unit vector")
    aim = aim / norm
    x = np.clip(nodes.nodes @ aim, -1.0, 1.0)
    g = eval_pattern(weights, x)
    d_omega = weights.dim.surface / nodes.count
    p = d_omega * float(np.sum(g))
    e = d_omega * float(np.sum(g * g))
    rv_vec = d_omega * (g @ nodes.nodes) / p
    re_vec = d_omega * ((g * g) @ nodes.nodes) / e
    return DiscreteMetrics(
        p=p,
        e=e,
        r_v=float(np.linalg.norm(rv_vec)),
        r_e=float(np.linalg.norm(re_vec)),
        r_v_misaim_rad=_misaim(rv_vec, aim),
        r_e_misaim_rad=_misaim(re_vec, aim),
    )
