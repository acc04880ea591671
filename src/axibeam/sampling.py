"""Direction node sets, t-design verification, and discrete metric sums.

A node set on the unit sphere S^{D-1}, for any integer 2 <= D <= 64, is a
t-design when the node average of every polynomial of degree <= t equals its
mean over the sphere.  By the addition theorem, sum_l P_n(theta_k . theta_l)
is c_n sum_m Y_nm(theta_k) sum_l Y_nm(theta_l) with c_n > 0, so its sum over
the nodes theta_k is c_n sum_m |sum_l Y_nm(theta_l)|^2.  `tdesign_check`
therefore takes the nodes themselves as the axes of P_n: the set is a
t-design exactly when every such node sum vanishes for 1 <= n <= t, a
deterministic verdict in every D.  `discrete_metrics` forms the
loudspeaker-style discrete sums whose agreement with the continuous metrics
the t-design property guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .designs import WeightVector
from .errors import DomainError, NormError, ParseError, _file_lines, _integer
from .ultraspherical import (_MAX_DEGREE, MAX_DIMENSION, Dimension, _series_sum, _unscale,
                             eval_sequence)

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
]

# Degree sums of an exact design land below 1e-13, near-misses at 1e-3 or
# worse, so the pass threshold is insensitive over many orders of magnitude.
PASS_TOLERANCE = 1e-9

# NodeSet compares all L (L - 1) / 2 pairs for duplicates, one row at a time in
# O(L) memory; at 2048 nodes that takes about 0.1 s.
MAX_NODES = 2048

_UNIT_TOL = 1e-12
_FILE_NORM_TOL = 1e-6
_DUPLICATE_CHORD = 2.0 * math.sin(0.5e-9)  # chord of 1e-9 rad
_EPS = float(np.finfo(float).eps)
_MAX_DIM = int(MAX_DIMENSION)
_BLOCK_VALUES = 1 << 22  # floats that `tdesign_check` holds at once


@dataclass(frozen=True)
class NodeSet:
    """1 <= L <= MAX_NODES (2048) unit direction vectors in D ambient dimensions.

    D is an integer 2 <= D <= 64; an integral float such as 3.0 is stored as
    the int 3.  Coordinates that are not finite numbers, and two directions
    closer than 1e-9 rad (duplicates), raise DomainError.
    """

    dim: int
    nodes: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", _integer(self.dim, "ambient dimension", 2, _MAX_DIM))
        try:
            pts = np.atleast_2d(np.asarray(self.nodes, dtype=float)).copy()
        except (TypeError, ValueError) as exc:
            raise DomainError("node coordinates must be finite real numbers") from exc
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DomainError(f"nodes must be an (L, {self.dim}) array")
        _integer(pts.shape[0], "node count", 1, MAX_NODES)
        if not np.all(np.isfinite(pts)):
            raise DomainError("node coordinates must be finite")
        norms = np.linalg.norm(pts, axis=1)
        if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
            raise NormError("every node must have unit norm within 1e-12")
        # chords from coordinate differences resolve angles far below the
        # 1.5e-8 rad that arccos of a rounded dot product can
        for i in range(pts.shape[0] - 1):
            if np.any(np.linalg.norm(pts[i + 1 :] - pts[i], axis=1) <= _DUPLICATE_CHORD):
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
    (S_{D-1}/L) sum_l P_{i+1}(theta_k . theta_l) from its exact integral 0,
    over the axes theta_k of all L nodes; passed means every degree up to
    t_claimed stayed below the pass tolerance.
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
    r_v: float | None
    r_e: float
    r_v_misaim_rad: float | None
    r_e_misaim_rad: float | None


def circle_nodes(count: int, offset_rad: float = 0.0) -> NodeSet:
    """Equiangular ring of `count` unit vectors at angles offset + 2 pi (l-1)/L."""
    count = _integer(count, "node count", 1, MAX_NODES)
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


# vertex sets of the five regular polyhedra, in the order the CLI lists them
_PLATONIC_VERTICES = {
    "tetrahedron": [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)],
    "octahedron": [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    "cube": _signed((1.0, 1.0, 1.0)),
    "icosahedron": _cyclic_signed(1.0, _GOLDEN),
    "dodecahedron": sorted(
        set(_signed((1.0, 1.0, 1.0))) | set(_cyclic_signed(1.0 / _GOLDEN, _GOLDEN))
    ),
}

PLATONIC_NAMES = tuple(_PLATONIC_VERTICES)


def platonic(name: str) -> NodeSet:
    """Vertices of one of the five regular polyhedra, normalized to unit length."""
    if name not in PLATONIC_NAMES:
        raise DomainError(f"unknown polyhedron {name!r}")
    pts = np.asarray(_PLATONIC_VERTICES[name], dtype=float)
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    return NodeSet(3, pts, label=name)


def _rows_from_file(path) -> list:
    rows = []
    for lineno, body in _file_lines(path):
        try:
            row = [float(p) for p in body.replace(",", " ").split()]
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, row)):
            raise ParseError(f"{path}: line {lineno}: non-finite value")
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError(f"{path}: rows have inconsistent column counts")
    return rows


def load_nodes(path, dim: int | None = None) -> NodeSet:
    """Read a node set from a CSV file.

    Accepted layouts: k columns x_1,...,x_k for 3 <= k <= 64 (k-d unit
    vectors); 2 columns azimuth_deg,zenith_deg (3-d); 2 columns x,y (2-d unit
    vectors); 1 column azimuth_deg (2-d).  The file is UTF-8 text and `#`
    starts a comment; undecodable bytes or a non-finite value raise
    ParseError.  A two-column file is ambiguous, so pass `dim` to force a
    reading; otherwise rows that are all unit-norm are taken as 2-d Cartesian
    and anything else as azimuth/zenith.  Rows whose norm deviates from 1 by
    less than 1e-6 are renormalized; worse rows raise NormError.  A `dim`
    other than None, 2 or 3 raises DomainError, and one the columns cannot
    give raises ParseError.
    """
    if dim not in (None, 2, 3):
        raise DomainError(f"dim must be None, 2 or 3, got {dim!r}")
    data = np.asarray(_rows_from_file(path), dtype=float)
    width = data.shape[1]
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
    if width > _MAX_DIM:
        raise ParseError(f"{path}: expected 1 to {_MAX_DIM} columns, got {width}")
    if dim not in (None, width):
        raise ParseError(f"{path}: {width}-column file cannot be a {dim}-d node set")
    return _cartesian_nodes(data, width, str(path))


def _cartesian_nodes(data: np.ndarray, dim: int, label: str) -> NodeSet:
    norms = np.linalg.norm(data, axis=1)
    if np.any(np.abs(norms - 1.0) >= _FILE_NORM_TOL):
        worst = float(np.max(np.abs(norms - 1.0)))
        raise NormError(f"{label}: node norm deviates from 1 by {worst:.3e}")
    return NodeSet(dim, data / norms[:, None], label=label)


def tdesign_check(nodes: NodeSet, t: int) -> TDesignReport:
    """Check the t-design identity degree by degree, with the nodes as the axes.

    For each degree 1 <= n <= t and node theta_k, the node sum
    (S_{D-1}/L) sum_l P_n(theta_k . theta_l) is compared with the exact
    integral of P_n, which vanishes for n >= 1; by the addition theorem (see
    the module docstring) the verdict is exact.  The cost is O(t L^2) time,
    taken in blocks of node rows that hold at most 2^22 floats at once while
    (t + 4) L <= 2^22.  t = 0 has no degree to check, so its report is
    (0, 0.0, (), True).  The P_n come from `eval_sequence`, not the per-(N, D)
    record, so t is held to its ceiling 2^48, not to `MAX_ORDER`; the CLI
    caps it at 256.
    """
    t = _integer(t, "t", 0, _MAX_DEGREE)
    dim = Dimension(nodes.dim)
    pts = nodes.nodes
    # a block of rows holds t + 4 arrays of rows x L floats: the dot
    # products, their t + 1 values P_n and two temporaries of the recurrence
    rows = max(1, _BLOCK_VALUES // ((t + 4) * nodes.count))
    worst = np.zeros(t + 1)
    for start in range(0, nodes.count, rows):
        dots = np.clip(pts[start : start + rows] @ pts.T, -1.0, 1.0)
        sums = eval_sequence(dots, t, dim).sum(axis=2)
        np.maximum(worst, np.abs(sums).max(axis=1), out=worst)
    errors = tuple((dim.surface / nodes.count * worst[1:]).tolist())
    max_error = max(errors, default=0.0)
    return TDesignReport(t, max_error, errors, max_error < PASS_TOLERANCE)


def _norm(vector: np.ndarray) -> float:
    # what np.linalg.norm forms for a 1-d real vector, bit for bit, without its dispatch
    return math.sqrt(float(vector @ vector))


def _misaim(vector: np.ndarray, aim: np.ndarray) -> float:
    # atan2 of the perpendicular component stays accurate for tiny angles,
    # where arccos of the normalized dot product bottoms out at sqrt(eps)
    along = float(vector @ aim)
    return math.atan2(_norm(vector - along * aim), along)


def discrete_metrics(weights: WeightVector, nodes: NodeSet, aim) -> DiscreteMetrics:
    """P, E, rV, rE from node sums of the sampled pattern.

    Samples g at the projections aim . theta_l and forms the discrete
    counterparts of the metric integrals with the surface element
    S_{D-1}/L.  FBR is deliberately not offered here: the front half-space
    boundary cuts through a node set differently for every orientation, so
    discrete FBR does not stabilize the way the other sums do.  r_v and its
    misaim are None when a_0 = 0, and also when |P| <= L eps dOmega sum_l |g_l|,
    a bound on the rounding error of the node sum P, below which P and the
    direction of rV are rounding noise.  The same bound limits the error of
    each component of the node sum P rV of g theta, so the rV misaim alone is
    None when rV <= L eps dOmega sum_l |g_l| / |P|: r_v is still reported,
    but its direction is noise.  Likewise the rE misaim is None when
    rE <= L eps, the rounding floor of the node sum of g^2 theta relative
    to E, below which the direction of rE is noise.  As in `compute_metrics`,
    the weights are scaled by the exact power of two 2^-k that brings
    max |a_n| 2^-k into [0.5, 1) before the pattern is summed, so rV, rE and
    their misaims stay finite for any non-zero weights, bit-identical to
    unscaled sums wherever those do not overflow or underflow; P and E are
    reported in the caller's scale, inf or 0 only where the true value lies
    outside the double range.  Raises DomainError when the node energy E is
    zero: g vanishes at every node.  The projections, which can round just
    past +-1, are clipped in place and are the only x the series sum sees.
    """
    if weights.dim.d != float(nodes.dim):
        raise DomainError(
            f"weights dimension D={weights.dim.d} does not match {nodes.dim}-d nodes"
        )
    try:
        aim = np.ascontiguousarray(aim, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"aim must be a {nodes.dim}-vector of numbers") from exc
    if aim.shape != (nodes.dim,):
        raise DomainError(f"aim must be a {nodes.dim}-vector")
    norm = _norm(aim)
    # negated, so that a NaN norm fails the test too
    if not abs(norm - 1.0) <= _FILE_NORM_TOL:
        raise DomainError("aim must be a unit vector")
    aim = aim / norm
    x = nodes.nodes @ aim
    np.minimum(x, 1.0, out=x)
    np.maximum(x, -1.0, out=x)
    k, _, c, basis = weights._scaled
    g = _series_sum(c, x, basis)
    d_omega = basis.surface / nodes.count
    # rows g and g^2: their sums are P and E, their first moments rV P and rE E
    samples = np.array([g, g * g])
    p, e = (d_omega * np.add.reduce(samples, axis=1)).tolist()
    if e == 0.0:
        raise DomainError("discrete metrics are undefined when the node energy is zero")
    sums, squares = d_omega * (samples @ nodes.nodes)
    re_vec = squares / e
    r_e = _norm(re_vec)
    r_v = rv_misaim = None
    floor = nodes.count * _EPS * d_omega * float(np.add.reduce(np.abs(g)))
    if weights.a[0] != 0.0 and abs(p) > floor:
        rv_vec = sums / p
        r_v = _norm(rv_vec)
        if r_v > floor / abs(p):
            rv_misaim = _misaim(rv_vec, aim)
    return DiscreteMetrics(
        p=_unscale(p, k),
        e=_unscale(e, 2 * k),
        r_v=r_v,
        r_e=r_e,
        r_v_misaim_rad=rv_misaim,
        r_e_misaim_rad=_misaim(re_vec, aim) if r_e > nodes.count * _EPS else None,
    )
