"""Covering numbers and packings on subsets of a finite metric cloud.

Exact covering is minimum clique cover on the graph whose edges join points
at distance <= r (equivalently, coloring its complement); exact packing is
maximum independent set at separation >= sep.  Both run branch-and-bound on
generic metrics up to a size cutoff.  Sorted 1-D clouds take a sweep fast
path that is provably optimal at any size: the leftmost uncovered point must
start some part, and widening that part to everything within r never hurts.

Callers that need only 1-D counts, not witnesses, use a doubling table
instead: the sweep's jump ``i -> next_r[i]`` is composed with itself
2^j times, so the counts of any number of contiguous ranges (for instance
every center's ball) come out in one vectorized pass of O(log n) steps,
O(n log n) per scale, with no parts built.

The greedy cover works on the compatibility relation ``distance <= r + tol``:
each part starts at the lowest uncovered index and takes, in index order,
every uncovered point compatible with all members so far.  Subsets of up
to 2,896 points hold the relation as one bitset per row (at most 1 MB);
larger ones compute each new member's distances to the part's remaining
candidates only.  Callers that need only a count take ``len`` of its index
arrays and build no ``Subset``.  Greedy modes always pick the lowest-index
candidate first, so witnesses are reproducible across runs and platforms.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import cloud as _cloud
from .cloud import PointCloud, Subset, _upper
from .config import DEFAULT_EXACT_CUTOFF, DEFAULT_TOL


@dataclass
class CoverResult:
    count: int
    parts: List[Subset]
    exact: bool


@dataclass
class PackResult:
    count: int
    witnesses: Subset
    exact: bool


def _sweep_cover_parts(subset: Subset, r: float, tol: float) -> List[np.ndarray]:
    """Greedy sweep on a sorted-1-D subset; optimal (see module docstring)."""
    coords = subset.coords_1d()
    idx = subset.indices
    parts = []
    start = 0
    while start < idx.size:
        stop = int(np.searchsorted(coords, coords[start] + r + tol, side="right"))
        parts.append(idx[start:stop])
        start = stop
    return parts


def _sweep_cover_counts(x: np.ndarray, r: float, lo: np.ndarray, hi: np.ndarray,
                        tol: float) -> np.ndarray:
    """Sweep cover count at ``r`` of every range ``x[lo[i]:hi[i]]``, with no parts built.

    ``x`` is strictly increasing.  ``next_r[i]`` is where the sweep's part
    starting at ``i`` ends, computed as ``(x[i] + r) + tol`` exactly like
    :func:`_sweep_cover_parts`, so every count equals the length of its
    parts list.  A count is 1 plus the number of jumps from ``lo`` that stay
    below ``hi``, taken greedily from the largest power of two down.  Empty
    ranges count 0.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    n = x.size
    # Sentinel n: a jump out of the last part stays at n, never below hi.
    jump = np.full(n + 1, n, dtype=np.int64)
    jump[:n] = np.searchsorted(x, x + r + tol, side="right")
    # jumps[j] = next_r composed 2^j times; n - 1 jumps is the most a range needs.
    jumps = [jump]
    for _ in range((n - 1).bit_length() - 1):
        jump = jump[jump]
        jumps.append(jump)
    pos = lo.copy()
    count = np.ones(lo.shape, dtype=np.int64)
    for j in range(len(jumps) - 1, -1, -1):
        step = jumps[j][pos]
        below = step < hi
        pos = np.where(below, step, pos)
        count += below.astype(np.int64) << j
    return np.where(hi > lo, count, 0)


def _ball_cover_counts_1d(x: np.ndarray, R: float, r: float, tol: float) -> np.ndarray:
    """Sweep cover count at ``r`` of the closed ball B(x[i], R) within ``x``, for every i.

    ``x`` is strictly increasing; the ball bounds ``(x[i] - R) - tol`` and
    ``(x[i] + R) + tol`` are those of :func:`fracdim.cloud.closed_ball`.
    """
    lo = np.searchsorted(x, x - R - tol, side="left")
    hi = np.searchsorted(x, x + R + tol, side="right")
    return _sweep_cover_counts(x, r, lo, hi, tol)


def _sweep_pack(coords: np.ndarray, sep: float, tol: float) -> np.ndarray:
    """Positions of the leftmost-first sep-separated family in non-empty, strictly
    increasing ``coords``; the family is maximum (no larger one exists)."""
    chosen = [0]
    pos = 0
    while True:
        pos = int(np.searchsorted(coords, coords[pos] + sep - tol, side="left"))
        if pos >= coords.size:
            return np.asarray(chosen, dtype=np.int64)
        chosen.append(pos)


def _bit_rows(mask: np.ndarray) -> List[int]:
    """Each row of a boolean matrix as a Python integer whose bit u is column u."""
    packed = np.packbits(mask, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return [int.from_bytes(data[t * width:(t + 1) * width], "little")
            for t in range(len(packed))]


def _greedy_cover_parts(cloud: PointCloud, idx: np.ndarray, r: float,
                        tol: float) -> List[np.ndarray]:
    """Maximal diameter-<=r parts of the sorted points ``idx``, each seeded at
    the lowest uncovered index and grown by the lowest compatible ones.

    A part's candidates are the uncovered points after its last member that
    are within ``r + tol`` of every member; the lowest one joins next.
    While m^2 <= ``_DENSE_CAP`` (m <= 2,896 points) the whole compatibility
    matrix is built up front, one Python-integer bitset per row (at most
    1 MB), so each step is a few integer operations.  A larger subset
    instead computes, for each new member, its distances to the remaining
    candidates only: O(m) memory and no distance matrix.
    """
    if idx.size * idx.size > _cloud._DENSE_CAP:
        return _greedy_parts_by_candidates(cloud, idx, r + tol)
    rows = [row for _, block in cloud._blocks(idx) for row in _bit_rows(block <= r + tol)]
    uncovered = (1 << idx.size) - 1
    members = []    # positions of every part's members, part after part
    ends = [0]
    while uncovered:
        allowed = uncovered     # the part's candidates, as bits
        while allowed:
            low = allowed & -allowed
            t = low.bit_length() - 1
            members.append(t)
            uncovered ^= low
            allowed = (allowed ^ low) & rows[t]
        ends.append(len(members))
    flat = idx[members]
    return [flat[a:b] for a, b in zip(ends, ends[1:])]


def _greedy_parts_by_candidates(cloud: PointCloud, idx: np.ndarray,
                                 reach: float) -> List[np.ndarray]:
    """:func:`_greedy_cover_parts` with the candidates as a position array."""
    uncovered = np.ones(idx.size, dtype=bool)
    parts = []
    while uncovered.any():
        cand = np.flatnonzero(uncovered)
        members = []
        while cand.size:
            t, cand = cand[0], cand[1:]
            members.append(t)
            cand = cand[cloud.pairwise(idx[t:t + 1], idx[cand])[0] <= reach]
        uncovered[members] = False
        parts.append(idx[members])
    return parts


def _greedy_pack_indices(subset: Subset, sep: float, tol: float,
                         seed: Optional[int] = None) -> np.ndarray:
    """Maximal separated family by lowest-index scan, optionally pinned to ``seed``."""
    cloud = subset.cloud
    idx = subset.indices
    chosen: List[int] = []
    if seed is not None:
        chosen.append(int(seed))
    for i in idx:
        i = int(i)
        if seed is not None and i == seed:
            continue
        row = cloud.distances_from(i)
        if all(row[c] >= sep - tol for c in chosen):
            chosen.append(i)
    return np.asarray(sorted(chosen), dtype=np.int64)


def _separated_lower_bound(subset: Subset, r: float, tol: float) -> np.ndarray:
    """A family pairwise > r + tol apart: a valid lower-bound witness for N_r."""
    cloud = subset.cloud
    chosen: List[int] = []
    for i in subset.indices:
        i = int(i)
        row = cloud.distances_from(i)
        if all(row[c] > r + tol for c in chosen):
            chosen.append(i)
    return np.asarray(chosen, dtype=np.int64)


def _bb_min_clique_cover(subset: Subset, r: float, tol: float) -> List[np.ndarray]:
    """Exact minimum partition into diameter-<=r parts, branch-and-bound.

    Vertices are assigned in index order to an existing compatible part or a
    fresh one; a fixed exploration order keeps the witness deterministic.
    """
    idx = subset.indices
    m = idx.size
    if m == 0:
        return []
    cloud = subset.cloud
    compat = cloud.pairwise(idx) <= r + tol

    best_parts = [[int(v) for v in np.searchsorted(idx, part)]
                  for part in _greedy_cover_parts(cloud, idx, r, tol)]
    best = len(best_parts)
    lb = len(_separated_lower_bound(subset, r, tol))
    if best == lb:
        return [idx[np.asarray(sorted(p))] for p in best_parts]

    parts: List[List[int]] = []
    out: List[List[List[int]]] = [best_parts]
    best_box = [best]

    def dfs(v: int) -> None:
        if len(parts) >= best_box[0]:
            return
        if v == m:
            if len(parts) < best_box[0]:
                best_box[0] = len(parts)
                out[0] = [list(p) for p in parts]
            return
        for p in parts:
            if all(compat[v, u] for u in p):
                p.append(v)
                dfs(v + 1)
                p.pop()
        if len(parts) + 1 < best_box[0]:
            parts.append([v])
            dfs(v + 1)
            parts.pop()

    dfs(0)
    return [idx[np.asarray(sorted(p))] for p in out[0]]


def _bb_max_separated(subset: Subset, sep: float, tol: float) -> np.ndarray:
    """Exact maximum family with pairwise distance >= sep, branch-and-bound."""
    idx = subset.indices
    m = idx.size
    if m == 0:
        return idx.copy()
    ok = subset.cloud.pairwise(idx) >= sep - tol
    np.fill_diagonal(ok, False)

    best_set: List[int] = []

    def dfs(v: int, chosen: List[int]) -> None:
        if len(chosen) + (m - v) <= len(best_set):
            return
        if v == m:
            if len(chosen) > len(best_set):
                best_set[:] = chosen
            return
        if all(ok[v, u] for u in chosen):
            chosen.append(v)
            dfs(v + 1, chosen)
            chosen.pop()
        dfs(v + 1, chosen)

    dfs(0, [])
    return idx[np.asarray(sorted(best_set), dtype=np.int64)]


def covering_number(subset: Subset, r: float, mode: str = "auto",
                    tol: float = DEFAULT_TOL,
                    exact_cutoff: int = DEFAULT_EXACT_CUTOFF) -> CoverResult:
    """Minimal (exact) or bounding (greedy) count of diameter-<=r parts covering ``subset``.

    ``auto`` solves exactly whenever it can (sorted-1-D sweep at any size,
    branch-and-bound within the cutoff) and falls back to greedy above it.
    Greedy counts are upper bounds on the true covering number.
    """
    if mode not in ("exact", "greedy", "auto"):
        raise ValueError(f"unknown mode {mode!r}")
    if not r > 0:
        raise ValueError("r must be positive")
    cloud = subset.cloud
    if len(subset) == 0:
        return CoverResult(0, [], True)
    if cloud.sorted_1d:
        parts = _sweep_cover_parts(subset, r, tol)
        return CoverResult(len(parts), [Subset(cloud, p) for p in parts], True)
    if mode == "exact" or (mode == "auto" and len(subset) <= exact_cutoff):
        if len(subset) > exact_cutoff:
            raise ValueError(
                f"exact covering requested on {len(subset)} points, cutoff {exact_cutoff}")
        parts = _bb_min_clique_cover(subset, r, tol)
        return CoverResult(len(parts), [Subset(cloud, p) for p in parts], True)
    parts = _greedy_cover_parts(cloud, subset.indices, r, tol)
    return CoverResult(len(parts), [Subset(cloud, p) for p in parts], False)


def packing_number(subset: Subset, sep: float, mode: str = "greedy",
                   tol: float = DEFAULT_TOL,
                   exact_cutoff: int = DEFAULT_EXACT_CUTOFF) -> PackResult:
    """Maximum (exact) or maximal (greedy) family with pairwise distance >= sep.

    A greedy family is maximal, hence a valid witness and lower bound on the
    exact packing number.
    """
    if mode not in ("exact", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    if not sep > 0:
        raise ValueError("sep must be positive")
    cloud = subset.cloud
    if len(subset) == 0:
        return PackResult(0, Subset(cloud, np.empty(0, dtype=np.int64)), True)
    if cloud.sorted_1d:
        wit = subset.indices[_sweep_pack(subset.coords_1d(), sep, tol)]
        return PackResult(len(wit), Subset(cloud, wit), True)
    if mode == "exact":
        if len(subset) > exact_cutoff:
            raise ValueError(
                f"exact packing requested on {len(subset)} points, cutoff {exact_cutoff}")
        wit = _bb_max_separated(subset, sep, tol)
        return PackResult(len(wit), Subset(cloud, wit), True)
    wit = _greedy_pack_indices(subset, sep, tol)
    return PackResult(len(wit), Subset(cloud, wit), False)


def maximal_separated_family(subset: Subset, sep: float, seed: int,
                             tol: float = DEFAULT_TOL) -> Subset:
    """Greedy maximal sep-separated family containing ``seed``, lowest index first."""
    if not sep > 0:
        raise ValueError("sep must be positive")
    seed = int(seed)
    if seed not in subset.indices:
        raise ValueError("seed must belong to the subset")
    return Subset(subset.cloud, _greedy_pack_indices(subset, sep, tol, seed=seed))


def validate_cover(subset: Subset, result: CoverResult, r: float,
                   tol: float = DEFAULT_TOL) -> bool:
    """Independent witness check: parts jointly cover and each has diameter <= r."""
    from .cloud import diameter

    covered = np.unique(np.concatenate([p.indices for p in result.parts])) \
        if result.parts else np.empty(0, dtype=np.int64)
    if not np.array_equal(covered, subset.indices):
        return False
    if result.count != len(result.parts):
        return False
    return all(diameter(subset.cloud, p) <= r + tol for p in result.parts)


def validate_packing(result: PackResult, sep: float, tol: float = DEFAULT_TOL) -> bool:
    """Independent witness check: all pairwise distances >= sep (within tol)."""
    idx = result.witnesses.indices
    if result.count != idx.size:
        return False
    return not any(np.any((block < sep - tol) & _upper(start, block))
                   for start, block in result.witnesses.cloud._blocks(idx))
