"""Finite metric point clouds: distances, balls, diameters, Hausdorff metric.

A cloud is an immutable finite metric space given either by coordinate
points under a named metric (``euclidean`` or ``l1``) or by an explicit
distance matrix.

Every distance the package computes comes from one kernel,
:func:`_distance_blocks`, and every closed ball comes from one rule,
:func:`_ball` (the ball-count kernel, ``covering._ball_counts``, makes the
same comparison in its bitset relation rows).  Every 1-D path reads the
coordinate order (``_order``, and ``_line``, the coordinates in it),
computed once whatever the storage order, and finds where a run ends with
:func:`_run_end`, which compares the kernel's distances, as the validators
and the verifier do.  No coordinate cloud holds its n x n distance matrix:
every read computes only what was asked, one block of rows at a time, and a
matrix cloud slices its own matrix.

Coordinates, the stored matrix and every returned row are read-only, so no
caller can corrupt the cloud through a view.  The one cache, the diameter,
gives the same value however often it is computed, so concurrent use is safe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .config import DEFAULT_TOL

COORDINATE_METRICS = ("euclidean", "l1")
METRICS = COORDINATE_METRICS + ("matrix",)

# Explicit matrices are triangle-checked exhaustively up to this size,
# by deterministic sampling (10*n triples) above it.
_TRIANGLE_EXHAUSTIVE_LIMIT = 1000

# n^2 for an n x n float64 matrix of 64 MB: the certificate search holds bitset
# rows within 8 * _DENSE_CAP bytes.  Chosen from memory, not measured.
_DENSE_CAP = 2 ** 23

# The distance kernel's budget per block, in float64: a block's (rows, columns, d)
# coordinate-difference temporary holds at most about this many (0.5 MB), and its
# (rows, columns) block of distances a d-th of that.  A matrix cloud's sliced
# blocks hold this many distances.
_BLOCK_ELEMENTS = 2 ** 16


class PointCloud:
    """Immutable finite metric space.

    Coordinate mode stores an (n, d) float array.  Matrix mode validates a
    nonnegative matrix m with zero diagonal, symmetric within ``tol``, and
    stores max(m, m.T) as ``matrix``, not m: every distance reads the same
    either way round.  Duplicate points (zero off-diagonal distance) are
    rejected at construction: separation checks downstream presuppose
    distinct points, and silently merging would hide generator bugs.
    ``tol`` is the absolute tolerance of a matrix's checks; the cloud does not keep it.
    """

    def __init__(self, points=None, metric: str = "euclidean",
                 matrix=None, meta: Optional[dict] = None, tol: float = DEFAULT_TOL):
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
        self.metric = metric
        self.meta = dict(meta) if meta else {}
        self._diam: Optional[float] = None
        if metric == "matrix":
            if matrix is None:
                raise ValueError("matrix mode requires a distance matrix")
            self.coords = None
            self.matrix = _validated_matrix(np.array(matrix, dtype=float), tol)
            self.matrix.setflags(write=False)
            self.n = self.matrix.shape[0]
        else:
            if points is None:
                raise ValueError("coordinate mode requires points")
            if matrix is not None:
                raise ValueError("matrix only allowed with metric='matrix'")
            self.coords = _validated_coords(points, metric)
            self.coords.setflags(write=False)
            self.matrix = None
            self.n = self.coords.shape[0]
        self._order = self._line = None
        if self.dim == 1:
            self._order = np.argsort(self.coords[:, 0], kind="stable").astype(np.int64)
            self._line = self.coords[self._order, 0]
            self._order.setflags(write=False)
            self._line.setflags(write=False)

    @classmethod
    def from_matrix(cls, matrix, meta: Optional[dict] = None) -> "PointCloud":
        return cls(metric="matrix", matrix=matrix, meta=meta)

    @property
    def dim(self) -> Optional[int]:
        return None if self.coords is None else self.coords.shape[1]

    @property
    def sorted_1d(self) -> bool:
        """True when points are one coordinate, strictly increasing by index.

        It selects no path: 1-D paths run in coordinate order however points are stored.
        """
        return self.dim == 1 and bool(np.all(np.diff(self.coords[:, 0]) > 0))

    def distances_from(self, i: int) -> np.ndarray:
        """Read-only vector of distances from point ``i`` to every point."""
        self._check_index(i)
        if self.matrix is not None:
            return self.matrix[i]
        _, block = next(_distance_blocks(self.coords[i:i + 1], self.coords, self.metric))
        block.setflags(write=False)
        return block[0]

    def pairwise(self, idx, cols=None) -> np.ndarray:
        """Distances from the points ``idx`` to the points ``cols`` (default
        ``idx``), rows and columns in the given orders."""
        idx = np.asarray(idx, dtype=np.int64)
        cols = idx if cols is None else np.asarray(cols, dtype=np.int64)
        out = np.empty((idx.size, cols.size))
        for start, block in self._blocks(idx, cols):
            out[start:start + len(block)] = block
        return out

    def distance(self, i: int, j: int) -> float:
        self._check_index(i)
        self._check_index(j)
        return float(next(self._blocks([i], [j]))[1][0, 0])

    def _blocks(self, idx=None, cols=None):
        """Distances from the points ``idx`` (default all) to the points
        ``cols`` (default ``idx``) as (first row, block of rows) pairs.

        Blocks are sliced from a matrix cloud's matrix or computed; either
        way one block holds about ``_BLOCK_ELEMENTS`` entries.
        """
        idx = np.arange(self.n) if idx is None else np.asarray(idx, dtype=np.int64)
        cols = idx if cols is None else np.asarray(cols, dtype=np.int64)
        if self.matrix is None:
            yield from _distance_blocks(self.coords[idx], self.coords[cols], self.metric)
            return
        rows = max(1, _BLOCK_ELEMENTS // max(1, cols.size))
        for start in range(0, idx.size, rows):
            yield start, self.matrix[idx[start:start + rows, None], cols]

    def diam(self) -> float:
        if self._diam is None:
            self._diam = diameter(self, self.all_indices())
        return self._diam

    def all_indices(self) -> "Subset":
        return Subset(self, np.arange(self.n, dtype=np.int64))

    def subset(self, indices: Iterable[int]) -> "Subset":
        return Subset(self, np.asarray(sorted(set(int(i) for i in indices)), dtype=np.int64))

    def min_positive_gap(self) -> float:
        """Smallest nonzero pairwise distance (the cloud's point resolution)."""
        if self.n <= 1:
            return 0.0
        if self.dim == 1:
            return float(np.diff(self._line).min())
        return min(float(block.min(initial=np.inf, where=_upper(start, block)))
                   for start, block in self._blocks())

    def _check_index(self, i: int) -> None:
        if not 0 <= int(i) < self.n:
            raise IndexError(f"point index {i} out of range for cloud of size {self.n}")

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"PointCloud(n={self.n}, metric={self.metric!r})"


@dataclass(frozen=True)
class Subset:
    """Sorted duplicate-free list of point indices into one cloud."""

    cloud: PointCloud
    indices: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indices", idx)
        if idx.ndim != 1:
            raise ValueError("indices must be one-dimensional")
        if idx.size:
            if idx[0] < 0 or idx[-1] >= self.cloud.n:
                raise IndexError("subset index out of range")
            if np.any(np.diff(idx) <= 0):
                raise ValueError("subset indices must be sorted and unique")

    def __len__(self) -> int:
        return int(self.indices.size)

    def __repr__(self) -> str:
        return f"Subset({len(self)} of {self.cloud.n})"


def _distance_blocks(a: np.ndarray, b: np.ndarray, metric: str):
    """Distances from every row of ``a`` to every row of ``b`` under a
    coordinate metric, as (first row, block of rows) pairs.

    The one distance kernel of the package.  Each block's (rows, len(b), d)
    difference temporary holds about ``_BLOCK_ELEMENTS`` entries (one row at
    least), and it is released before the block is yielded, so the next
    block's temporary never coexists with this one's.  Each
    entry is computed on its own coordinate differences, so it does not
    depend on the blocking or on which other points are in ``a`` and ``b``,
    and the result is symmetric bit for bit when ``a`` is ``b``.
    """
    d = a.shape[1]
    rows = max(1, _BLOCK_ELEMENTS // max(1, len(b) * d))
    for start in range(0, len(a), rows):
        diff = a[start:start + rows, None, :] - b[None, :, :]
        if metric == "euclidean" and d == 1:
            block = np.abs(diff[..., 0])
        elif metric == "euclidean":
            block = np.einsum("ijk,ijk->ij", diff, diff)
            np.sqrt(block, out=block)
        else:
            block = np.abs(diff, out=diff).sum(axis=2)
        del diff
        yield start, block


def _upper(start: int, block: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``block`` (rows from ``start`` on) above the diagonal."""
    return np.arange(block.shape[1]) > np.arange(start, start + len(block))[:, None]


def _validated_coords(points, metric: str) -> np.ndarray:
    arr = np.array(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("points must form a non-empty 2-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("points must be finite")
    ordered = arr[np.lexsort(arr.T)]   # equal rows, 0.0 and -0.0 alike, end up adjacent
    if np.any(np.all(ordered[1:] == ordered[:-1], axis=1)):
        raise ValueError("duplicate points rejected (zero pairwise distance)")
    # the kernel's sum over the per-axis spans bounds every distance it computes
    with np.errstate(over="ignore"):
        span = arr.max(axis=0) - arr.min(axis=0)
        spread = np.sum(span ** 2 if metric == "euclidean" and arr.shape[1] > 1 else span)
    if not np.isfinite(spread):
        raise ValueError("points too far apart: their distances overflow a float")
    return arr


def _validated_matrix(m: np.ndarray, tol: float) -> np.ndarray:
    """max(m, m.T), once ``m`` passes every check.  Entries only grow, so it keeps what
    was checked: max(m[i, k], m[k, i]) <= m'[i, j] + m'[j, k] + tol for all i, j, k."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError("distance matrix must be square and non-empty")
    if not np.all(np.isfinite(m)):
        raise ValueError("distance matrix must be finite")
    if np.any(m < 0):
        raise ValueError("distances must be nonnegative")
    if np.any(np.abs(m - m.T) > tol):
        raise ValueError("distance matrix must be symmetric")
    n = m.shape[0]
    if np.any(np.diag(m) != 0):
        raise ValueError("diagonal must be zero")
    off = m + np.diag(np.full(n, np.inf))
    if n > 1 and off.min() <= 0:
        raise ValueError("duplicate points rejected (zero off-diagonal distance)")
    if n <= _TRIANGLE_EXHAUSTIVE_LIMIT:
        for j in range(n):
            if np.any(m > m[:, j, None] + m[None, j, :] + tol):
                raise ValueError("triangle inequality violated")
    else:
        # O(n^3) would dominate; a fixed-seed sample keeps runs reproducible.
        rng = np.random.default_rng(1234)
        trip = rng.integers(0, n, size=(10 * n, 3))
        i, j, k = trip[:, 0], trip[:, 1], trip[:, 2]
        if np.any(m[i, k] > m[i, j] + m[j, k] + tol):
            raise ValueError("triangle inequality violated (sampled)")
    return np.maximum(m, m.T)


def diameter(cloud: PointCloud, subset: Optional[Subset] = None) -> float:
    """Max pairwise distance within ``subset`` (whole cloud if omitted).

    Empty and singleton subsets have diameter 0.
    """
    if subset is None:
        return cloud.diam()
    idx = subset.indices
    if idx.size <= 1:
        return 0.0
    if cloud.dim == 1:
        return float(np.ptp(cloud.coords[idx, 0]))
    return max(float(block.max()) for _, block in cloud._blocks(idx))


def closed_ball(cloud: PointCloud, center: int, radius: float,
                tol: float = DEFAULT_TOL) -> Subset:
    """Indices within ``radius`` (inclusive, + tol) of ``center``; always contains it."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    cloud._check_index(center)
    return Subset(cloud, np.sort(_ball(cloud, center, radius, tol)))


def _ball(cloud: PointCloud, center: int, radius: float, tol: float) -> np.ndarray:
    """Indices within ``radius + tol`` of ``center``: the one ball rule, unchecked.
    On 1-D clouds a read-only slice of ``_order`` (coordinate order), else index order."""
    if cloud.dim == 1:
        line = cloud._line
        lo, hi = _ball_bounds(line, line.searchsorted(cloud.coords[center, 0]), radius + tol)
        return cloud._order[lo:hi]
    return np.flatnonzero(cloud.distances_from(center) <= radius + tol).astype(np.int64)


def _ball_bounds(x: np.ndarray, center, bound: float):
    """(lo, hi): ``x[lo:hi]`` is the closed ball of radius ``bound`` around ``x[center]``."""
    return _run_end(x, center, math.nextafter(-bound, -math.inf)), _run_end(x, center, bound)


def _run_end(x: np.ndarray, start, bound: float):
    """The 1-D rule: how many positions j of strictly increasing ``x`` have
    ``x[j] - x[start] <= bound``, rounded as :func:`_distance_blocks` rounds it
    (pass the float below a bound for ``<``).  Rounding is monotone, so these are
    a prefix, whose end a search for ``x[start] + bound`` misses by a few positions
    at most.  ``start`` is one position (float compares) or an array (vectorized)."""
    n, xs = x.size, x[start]
    end = x.searchsorted(xs + bound, side="right")
    if not isinstance(start, np.ndarray):
        end = int(end)
        while end < n and x[end] - xs <= bound:
            end += 1
        while end > 0 and x[end - 1] - xs > bound:
            end -= 1
        return end
    while (up := (end < n) & (x[np.minimum(end, n - 1)] - xs <= bound)).any():
        end += up
    while (down := (end > 0) & (x[np.maximum(end - 1, 0)] - xs > bound)).any():
        end -= down
    return end


def _directed_hausdorff(a: PointCloud, b: PointCloud) -> float:
    """sup over points of ``a`` of the distance to the nearest point of ``b``."""
    if a.dim == 1:
        xs = a.coords[:, 0]
        ys = b._line
        pos = np.searchsorted(ys, xs)
        left = np.abs(xs - ys[np.maximum(pos - 1, 0)])
        right = np.abs(xs - ys[np.minimum(pos, ys.size - 1)])
        return float(np.minimum(left, right).max())
    return max(float(block.min(axis=1).max())
               for _, block in _distance_blocks(a.coords, b.coords, a.metric))


def hausdorff_distance(a: PointCloud, b: PointCloud) -> float:
    """Smallest r with each cloud inside the closed r-neighborhood of the other."""
    if a.metric == "matrix" or b.metric == "matrix":
        raise ValueError("incompatible metric modes: explicit-matrix clouds share no ambient space")
    if a.metric != b.metric or a.dim != b.dim:
        raise ValueError("incompatible metric modes")
    return max(_directed_hausdorff(a, b), _directed_hausdorff(b, a))
