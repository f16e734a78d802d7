"""Meshes on the unit interval, piecewise-linear vector paths, and path geometry.

A transition path is represented as a vector-valued, continuous, piecewise-linear
function of the scaled time s = t/T on [0, 1], pinned to its two endpoints.  This
module owns the mesh/path containers plus the purely geometric operations on them
(interpolation, resampling onto another mesh, discrete Frechet distance,
node-clustering diagnostics) and the path CSV format.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "Mesh",
    "FePath",
    "Polyline",
    "uniform_mesh",
    "linear_interpolant_path",
    "resample_path",
    "discrete_frechet",
    "clustering_fraction",
    "path_polyline",
    "write_path_csv",
    "read_path_csv",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _is_real(value) -> bool:
    """Whether ``value`` is a real number and not a bool, as every numeric input must be."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite_float(value) -> Optional[float]:
    """``value`` as a float if it is a real number, not a bool, whose float is finite; else None.

    An int beyond the float range, such as a 400-digit JSON integer, has no
    float and gives None, as inf and NaN do.
    """
    if not _is_real(value):
        return None
    try:
        out = float(value)
    except OverflowError:
        return None
    return out if math.isfinite(out) else None


def _finite_positive(value, name: str) -> float:
    """``value`` as a float; it must be a real number, not a bool, with 0 < value < inf."""
    out = _finite_float(value)
    if out is None or not out > 0.0:
        raise ValueError(f"{name} must be a finite positive number")
    return out


def _int_at_least(value, name: str, low: int) -> int:
    """``value`` as an int; it must be an int or numpy integer, not a bool, with value >= low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}")
    return int(value)


def _count_at_least(value, name: str, low: int, high: int = int(np.iinfo(np.intp).max)) -> int:
    """``_int_at_least`` for a count that sizes an array or a buffer: also at most ``high``.

    ``high`` defaults to intp's maximum, the largest count numpy can index.
    """
    count = _int_at_least(value, name, low)
    if count > high:
        raise ValueError(f"{name} must be an integer from {low} to {high}")
    return count


@contextmanager
def _opened(target, mode: str):
    """``target`` itself if it is an open text stream, else the file it names.

    Files are opened in ``mode`` as UTF-8 with no newline translation, so
    what is written is what lands on disk.
    """
    if isinstance(target, (str, os.PathLike)):
        with open(target, mode, encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield target


@dataclass(frozen=True)
class Mesh:
    """Partition of [0, 1] stored as its ordered node array.

    Nodes must start at exactly 0.0, end at exactly 1.0, and be strictly
    increasing.  Nonuniform meshes are allowed; only the uniform constructor
    is used by the built-in studies.  ``widths`` holds the element sizes
    ``np.diff(nodes)``, read-only like the nodes.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("mesh needs at least two nodes")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ValueError("mesh must span [0, 1] exactly")
        widths = np.diff(nodes)
        if not np.all(widths > 0.0):
            raise ValueError("mesh nodes must be strictly increasing")
        object.__setattr__(self, "nodes", _readonly(nodes))
        object.__setattr__(self, "widths", _readonly(widths))
        # per-rule quadrature geometry, filled on first use by ``action``;
        # it depends on the nodes alone, which never change
        object.__setattr__(self, "_per_rule", {})

    @property
    def num_elements(self) -> int:
        return self.nodes.size - 1

    @property
    def h(self) -> float:
        """Largest element size."""
        return float(np.max(self.widths))


def _uniform_mesh(num_elements, name: str) -> Mesh:
    """``uniform_mesh`` whose argument errors name ``name``, the caller's key for N."""
    num_elements = _int_at_least(num_elements, name, 1)
    try:
        nodes = np.linspace(0.0, 1.0, num_elements + 1)
    except (ValueError, IndexError, MemoryError) as err:  # N + 1 nodes numpy cannot hold
        raise ValueError(f"{name} is too large for a node array: {err}") from err
    return Mesh(nodes)


def uniform_mesh(num_elements: int) -> Mesh:
    """Equispaced mesh with the given number of elements (h = 1/N)."""
    return _uniform_mesh(num_elements, "num_elements")


@dataclass(frozen=True)
class FePath:
    """Continuous piecewise-linear path: nodal values on a mesh.

    ``values`` has one row per mesh node; row 0 and row N are the pinned
    endpoints.  Immutable after construction.
    """

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != self.mesh.nodes.size:
            raise ValueError("one value row per mesh node required")
        if values.shape[1] < 1:
            raise ValueError("state dimension must be >= 1")
        if not np.all(np.isfinite(values)):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "values", _readonly(values))

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def left(self) -> np.ndarray:
        return self.values[0]

    @property
    def right(self) -> np.ndarray:
        return self.values[-1]

    def replace_interior(self, interior: np.ndarray) -> "FePath":
        """New path with the same mesh/endpoints and the given interior rows.

        The rows are copied once, into a new read-only array; the endpoints
        were checked when this path was made, so only the interior is
        checked here and the constructor's copy and check are skipped.
        """
        interior = np.asarray(interior, dtype=float).reshape(-1, self.dim)
        if interior.shape[0] != self.mesh.nodes.size - 2:
            raise ValueError("interior rows must match interior node count")
        if not np.isfinite(interior).all():
            raise ValueError("path values must be finite")
        vals = self.values.copy()
        vals[1:-1] = interior
        vals.flags.writeable = False
        path = object.__new__(FePath)
        object.__setattr__(path, "mesh", self.mesh)
        object.__setattr__(path, "values", vals)
        return path

    def __call__(self, s):
        """Evaluate the piecewise-linear interpolant at scalar or array s."""
        s = np.asarray(s, dtype=float)
        out = np.empty(s.shape + (self.dim,))
        for j in range(self.dim):
            out[..., j] = np.interp(s, self.mesh.nodes, self.values[:, j])
        return out


@dataclass(frozen=True)
class Polyline:
    """Ordered point sequence used for geometric curve comparison."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[0] < 2:
            raise ValueError("polyline needs at least two points")
        if pts.shape[1] < 1:
            raise ValueError("state dimension must be >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("polyline points must be finite")
        object.__setattr__(self, "points", _readonly(pts))

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def linear_interpolant_path(x1, x2, mesh: Mesh) -> FePath:
    """Straight-line path from x1 to x2 sampled on the mesh nodes.

    The default starting guess for the optimizers.  Endpoint rows reproduce
    x1 and x2 bit-exactly.
    """
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    if x1.shape != x2.shape or x1.ndim != 1:
        raise ValueError("endpoints must be vectors of equal dimension")
    s = mesh.nodes[:, None]
    values = (1.0 - s) * x1[None, :] + s * x2[None, :]
    return FePath(mesh, values)


def resample_path(path: FePath, mesh: Mesh) -> FePath:
    """Sample the path's interpolant on another mesh (exact on nested meshes)."""
    values = path(mesh.nodes)
    values[0] = path.values[0]
    values[-1] = path.values[-1]
    return FePath(mesh, values)


_BLOCK_CELLS = 1 << 14  # lattice cells per vectorized block of the nearest-partner check


def _sq_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between points stored component-major.

    ``x`` and ``y`` hold one component per row (axis 0) and broadcast against
    each other over the remaining axes.  The squares are added one component
    at a time, in order; for fewer than 8 components that is the order of
    ``np.sum(diff * diff, axis=-1)``, so the bits agree with it.
    """
    out = x[0] - y[0]
    out *= out
    for xk, yk in zip(x[1:], y[1:]):
        d = xk - yk
        d *= d
        out += d
    return out


_WINDOW = 4  # rows of the shorter polyline searched on each side of a point's arc length


def _arc_positions(pts: np.ndarray) -> np.ndarray:
    """Normalized cumulative arc length at each point of a component-major polyline.

    A polyline of zero (or overflowing) length gets the index ratio
    k / (K - 1) instead.
    """
    arc = np.zeros(pts.shape[1])
    np.cumsum(np.sqrt(_sq_dist(pts[:, 1:], pts[:, :-1])), out=arc[1:])
    if 0.0 < arc[-1] < math.inf:
        return arc / arc[-1]
    return np.arange(arc.size) / max(arc.size - 1, 1)


def _window_partner(short: np.ndarray, tall: np.ndarray) -> np.ndarray:
    """Each tall point's nearest short row among those about its arc-length position.

    A tall point at normalized arc length u is compared with the
    2 * ``_WINDOW`` + 1 rows of ``short`` about ``searchsorted`` of u in the
    short polyline's normalized arc lengths, clipped to the polyline; a tie
    goes to the lower row.  That is O(Q) costs, one numpy step per offset.
    """
    center = np.searchsorted(_arc_positions(short), _arc_positions(tall))
    best = np.full(tall.shape[1], np.inf)
    partner = np.zeros(tall.shape[1], dtype=np.intp)
    for offset in range(-_WINDOW, _WINDOW + 1):
        rows = np.clip(center + offset, 0, short.shape[1] - 1)
        cost = _sq_dist(short[:, rows], tall)
        closer = cost < best
        best[closer] = cost[closer]
        partner[closer] = rows[closer]
    return partner


def _coupling(short: np.ndarray, tall: np.ndarray, partner: np.ndarray):
    """Rows, columns and squared costs of the cells of one monotone coupling.

    ``partner[j]`` is a row of ``short`` for each point j of ``tall``; it is
    made nondecreasing in place and forced to end at the last row.  Column j
    then covers rows first[j]..partner[j], entered from column j - 1 by a
    diagonal step when the row rises and by a right step when it stays, and
    column 0 starts at row 0: at most P + Q cells from (0, 0) to (P-1, Q-1),
    in that order.
    """
    np.maximum.accumulate(partner, out=partner)
    partner[-1] = short.shape[1] - 1
    first = np.zeros_like(partner)
    np.minimum(partner[:-1] + 1, partner[1:], out=first[1:])
    counts = partner - first + 1
    cols = np.repeat(np.arange(partner.size), counts)
    rows = np.arange(cols.size) - np.repeat(np.cumsum(counts) - counts - first, counts)
    return rows, cols, _sq_dist(short[:, rows], tall[:, cols])


def _nearest_reaches(points: np.ndarray, other: np.ndarray, cost: float) -> bool:
    """Whether some point's squared cost to its nearest point of ``other`` equals ``cost``.

    Both are component-major.  The costs are visited in blocks of about
    ``_BLOCK_CELLS`` cells, a few points against all of ``other``, so memory
    stays O(P + Q); the scan stops at the first block that reaches ``cost``.
    """
    step = max(1, _BLOCK_CELLS // other.shape[1])
    for k0 in range(0, points.shape[1], step):
        block = _sq_dist(points[:, k0:k0 + step, None], other[:, None, :])  # (points, other)
        if (block.min(axis=1) == cost).any():
            return True
    return False


def _frechet_sweep(short: np.ndarray, tall: np.ndarray) -> float:
    """Squared discrete Frechet distance by the Eiter-Mannila recursion.

    ``short`` (P points) and ``tall`` (Q >= P points) are component-major.
    The coupling lattice is swept one anti-diagonal i + j = d at a time, each
    a numpy step along ``short``, keeping only the last two diagonals.
    """
    p, q = short.shape[1], tall.shape[1]
    rev = np.ascontiguousarray(tall[:, ::-1])  # a diagonal's partners j = d - i, forward
    # Diagonal buffers: cell i sits at slot i + 1, and the slots just outside
    # each diagonal's range hold +inf, so edge cells see no neighbour there.
    prev2, prev1, cur = (np.full(p + 2, np.inf) for _ in range(3))  # d-2, d-1, d
    prev2[0] = 0.0  # a free cell (-1, -1) starts every coupling at (0, 0)
    for d in range(p + q - 1):
        lo, hi = max(0, d - q + 1), min(d, p - 1)
        reach = np.minimum(prev1[lo:hi + 1], prev1[lo + 1:hi + 2])
        np.minimum(reach, prev2[lo:hi + 1], out=reach)
        cost = _sq_dist(short[:, lo:hi + 1], rev[:, q - 1 - d + lo:q - d + hi])
        np.maximum(reach, cost, out=cur[lo + 1:hi + 2])
        cur[lo] = cur[hi + 2] = np.inf
        prev2, prev1, cur = prev1, cur, prev2
    return prev1[p]


def _squared_frechet(short: np.ndarray, tall: np.ndarray) -> float:
    """Squared discrete Frechet distance of component-major ``short`` and ``tall``.

    ``short`` has P >= 1 points and ``tall`` Q >= P.  The largest cost on the
    arc-length coupling is the answer when an end pair or the nearest partner
    of a point on a max-cost pair reaches it (see ``discrete_frechet``);
    otherwise the anti-diagonal sweep gives it.
    """
    rows, cols, cost = _coupling(short, tall, _window_partner(short, tall))
    upper = cost.max()
    on_max = cost == upper
    if (
        max(cost[0], cost[-1]) == upper
        or _nearest_reaches(tall[:, np.unique(cols[on_max])], short, upper)
        or _nearest_reaches(short[:, np.unique(rows[on_max])], tall, upper)
    ):
        return upper
    return _frechet_sweep(short, tall)


def discrete_frechet(a: Polyline, b: Polyline) -> float:
    """Discrete Frechet distance between two polylines.

    The minimum over monotone couplings of the largest Euclidean
    point-to-point cost (Eiter-Mannila).  Symmetric, nonnegative, and zero
    only when the point sequences admit a perfect coupling.

    One explicit coupling comes first.  Each point of the longer polyline
    is paired with its nearest point among the 9 points of the shorter one
    about its position in normalized arc length (the index ratio on a
    polyline of zero length); the pairing is made nondecreasing and forced
    to end at the last point.  The largest squared cost on it, ``upper``,
    bounds the distance from above.  Every coupling holds both end pairs and
    gives each point some partner, so the distance is at least the end
    costs and every point's cost to its nearest partner on the other
    polyline.  ``upper`` is therefore the distance when an end cost equals
    it, or when the nearest-partner cost of some point on a max-cost pair
    does.  Only those points need checking: a point whose nearest cost is
    ``upper`` pays at least that on each of its pairs, so it lies on a
    max-cost pair.  Otherwise the exact dynamic program sweeps the lattice
    one anti-diagonal at a time.  Both paths take min and max over the same
    squared costs and one square root at the end (monotone and correctly
    rounded), so the value is the same float either way.  Two samplings of
    nearly the same curve, such as a minimizer and a fine sampling of the
    exact trajectory, are usually certified; about half of all pairs of
    random walks are not.

    A certified call costs O(P+Q) time for P and Q points: 9 costs per point
    of the longer polyline, the coupling's at most P+Q cells, and P or Q
    costs per point checked on a max-cost pair.  Otherwise the sweep costs
    O(PQ) time.  Memory is O(P+Q) either way: the check visits the costs in
    blocks of a fixed cell count, and the sweep keeps two diagonals.
    """
    if a.dim != b.dim:
        raise ValueError("polylines must share the state dimension")
    # (x - y)**2 == (y - x)**2 bit for bit, so which side is which is free
    short, tall = (np.ascontiguousarray(pts.T) for pts in sorted((a.points, b.points), key=len))
    return float(np.sqrt(_squared_frechet(short, tall)))


def clustering_fraction(path: FePath, center, radius: float) -> float:
    """Fraction of mesh nodes whose value lies in the closed ball about center.

    Diagnoses node clustering near slow dynamics: fixed-time discretizations
    with an overlarge horizon park most nodes next to a stable equilibrium.
    """
    _finite_positive(radius, "radius")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape != (path.dim,) or not np.all(np.isfinite(center)):
        raise ValueError(f"center must be a finite vector of {path.dim} components")
    dist = np.linalg.norm(path.values - center[None, :], axis=1)
    return float(np.count_nonzero(dist <= radius) / path.values.shape[0])


def path_polyline(path: FePath) -> Polyline:
    """View the path's nodal values as a polyline."""
    return Polyline(path.values)


def _cell(v) -> str:
    """One CSV cell: empty for None, an integer as itself, any other number as a round-trip float."""
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_table(target, header, rows) -> None:
    """Write a CSV of the column names ``header`` and the cells of ``rows``.

    Every cell goes through ``_cell``, so floats round-trip bit-exactly and
    integers stay integers; each line ends in a bare newline.  ``target`` is a
    file path or an open text stream.
    """
    with _opened(target, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def _write_samples_csv(s, values, target) -> None:
    """Write rows ``s, x1, ..., xn`` under that header (see ``_write_table``).

    ``s`` need not be a mesh: trajectory times run past 1 and may end in inf.
    ``target`` is a file path or an open text stream.
    """
    header = ["s"] + [f"x{j + 1}" for j in range(values.shape[1])]
    _write_table(target, header, ((t, *row) for t, row in zip(s, values)))


def write_path_csv(path: FePath, target) -> None:
    """Write a path as CSV with header ``s,x1,...,xn`` (round-trip precision)."""
    _write_samples_csv(path.mesh.nodes, path.values, target)


def read_path_csv(source) -> FePath:
    """Read a path written by :func:`write_path_csv`."""
    with _opened(source, "r") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "s":
            raise ValueError("path CSV must start with an 's' column")
        data = np.asarray([[float(c) for c in row] for row in reader if row], dtype=float)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValueError("path CSV must have an s column and at least one component")
    return FePath(Mesh(data[:, 0]), data[:, 1:])
