"""Covering numbers and packings on subsets of a finite metric cloud.

Exact covering is minimum clique cover on the graph whose edges join points
at distance <= r (equivalently, coloring its complement); exact packing is
maximum independent set at separation >= sep.  Both run branch-and-bound on
generic metrics up to a size cutoff.  1-D coordinate clouds take a sweep
fast path that is provably optimal at any size: the leftmost uncovered point
must start some part, and widening that part to everything within r never
hurts.  The sweeps run in coordinate order whatever the storage order,
return sorted index arrays, and compare distances as the validators do
(``cloud._run_end``).

Callers that need only 1-D counts, not witnesses, use the sweep's
doubling table (:func:`_sweep_cover_counts`), with no parts built.

One greedy rule serves two jobs: each part starts at the first uncovered
point and takes, in scan order, every uncovered point related to all
members so far.  Under ``d <= r + tol`` the parts are the greedy cover;
the first part under ``d >= sep - tol`` is the greedy packing.  On a
subset, :func:`_greedy_parts` runs the rule on distance rows, each new
member reading its distances to the part's remaining candidates only, so
no relation is built up front and a packing stops after its first part.
On bitset rows (bit u = position u, as :func:`_relation_rows` packs them),
:func:`_scan` runs it within a mask: the certificate search scans its pools
on whole-cloud rows (:func:`_greedy_cover_parts`), and exact cover search,
on given rows within a mask, takes the scan as its upper bound and
:func:`_separated_lower_bound` as its lower.

:func:`_ball_counts` is the one ball-count kernel: N_r(B(x, R)) for every x
in a point set and every (R, r), for the estimate and the scaling check.
Private helpers take index arrays, and witnesses are reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from . import cloud as _cloud
from .cloud import PointCloud, Subset, _upper, diameter
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


def _by_coordinate(cloud: PointCloud, idx: np.ndarray) -> np.ndarray:
    """``idx`` of a 1-D coordinate cloud in increasing coordinate order."""
    return cloud._order[np.isin(cloud._order, idx)]


def _sweep_cover_parts(cloud: PointCloud, idx: np.ndarray, r: float,
                       tol: float) -> List[np.ndarray]:
    """Greedy sweep over the points ``idx`` of a 1-D coordinate cloud in coordinate
    order; optimal (see module docstring).  Parts are sorted index arrays."""
    idx = _by_coordinate(cloud, idx)
    coords = cloud.coords[idx, 0]
    ends = [0]
    while ends[-1] < idx.size:
        ends.append(_cloud._run_end(coords, ends[-1], r + tol))
    return [np.sort(idx[a:b]) for a, b in zip(ends, ends[1:])]


def _sweep_cover_counts(x: np.ndarray, r: float, lo: np.ndarray, hi: np.ndarray,
                        tol: float) -> np.ndarray:
    """Sweep cover count at ``r`` of every range ``x[lo[i]:hi[i]]``, with no parts built.

    ``x`` is strictly increasing.  ``next_r[i]`` is where the sweep's part
    starting at ``i`` ends, by :func:`fracdim.cloud._run_end` as in
    :func:`_sweep_cover_parts`, so every count equals the length of its
    parts list.  A count is 1 plus the number of jumps from ``lo`` that stay
    below ``hi``, taken greedily from the largest power of two down.  Empty
    ranges count 0.
    """
    lo, hi = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
    n = x.size
    # Sentinel n: a jump out of the last part stays at n, never below hi.
    jump = np.full(n + 1, n, dtype=np.int64)
    jump[:n] = _cloud._run_end(x, np.arange(n), r + tol)
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


def _sweep_pack(coords: np.ndarray, sep: float, tol: float) -> np.ndarray:
    """Positions of the leftmost-first sep-separated family, which is maximum, in non-empty,
    strictly increasing ``coords``; each is at least one past the last, even if sep <= tol."""
    below = math.nextafter(sep - tol, -math.inf)    # d < sep - tol is d <= below
    chosen = [0]
    while (pos := max(_cloud._run_end(coords, chosen[-1], below), chosen[-1] + 1)) < coords.size:
        chosen.append(pos)
    return np.asarray(chosen, dtype=np.int64)


def _relation_rows(cloud: PointCloud, idx: np.ndarray, *related) -> List[List[int]]:
    """The rows of relations on the points ``idx``, one row list per function in
    ``related``, which maps a block of distances to a boolean block: row t is a
    Python integer whose bit u is set when ``idx[t]`` and ``idx[u]`` are related.
    Every relation is packed from one pass over the blocks, so each distance
    is computed once, no m x m matrix is held, and no bit at or above m is set."""
    relations = [[] for _ in related]
    for _, block in cloud._blocks(idx):
        for rows, relate in zip(relations, related):
            rows.extend(_packed_ints(relate(block)))
    return relations


def _packed_ints(bits) -> List[int]:
    """Each row of the 2-D boolean array ``bits`` as one Python integer, bit u = column u."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return [int.from_bytes(data[t * width:(t + 1) * width], "little") for t in range(len(packed))]


def _unpacked_bits(ints: List[int], size: int) -> np.ndarray:
    """Bits 0 .. size - 1 of each integer in ``ints``, as the rows of a 0/1 uint8 array:
    the inverse of :func:`_packed_ints`."""
    width = (size + 7) // 8
    data = b"".join(v.to_bytes(width, "little") for v in ints)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(ints), width)
    return np.unpackbits(packed, axis=1, count=size, bitorder="little")


def _transposed(rows: List[int]) -> List[int]:
    """The columns of the square bitset relation ``rows``, as rows."""
    return _packed_ints(_unpacked_bits(rows, len(rows)).T)


def _scan(rows: List[int], uncovered: int) -> Tuple[List[int], List[int]]:
    """The greedy scan (see the module docstring) over bitset ``rows``, as
    (members, ends): part i holds the positions ``members[ends[i]:ends[i + 1]]``.

    The scan covers the positions set in ``uncovered``, so rows of a whole
    cloud scan any subset given as a mask, in index order."""
    members = []
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
    return members, ends


def _greedy_counts(rows: List[int], columns: List[List[int]]) -> np.ndarray:
    """Entry (c, j) is the number of greedy parts (:func:`_scan`) under bitset
    ``rows`` of the j-th ball of center c: the positions u whose column
    ``columns[j][u]`` has bit c set.  Equal to scanning the balls one by one.

    All balls go through one pass over the positions t in increasing order.
    A slot is one (j, c); ``slots[u]`` holds the slots whose ball holds u
    where u is not yet covered.  Every slot holding t opens a part at t,
    because t is then the lowest uncovered point of its ball.  t's later
    neighbours u under ``rows`` follow in increasing order, and each joins
    the part, and is covered, in the opening slots where it is uncovered and
    related to every member that joined before it.  The work grows with the
    sum over t of (later neighbours of t)^2, not with the balls' sizes.
    """
    m = len(rows)
    slots = [sum(col[u] << j * m for j, col in enumerate(columns)) for u in range(m)]
    planes: List[int] = []      # the counts in binary: bit s of planes[i] is bit i of slot s's count
    for t in range(m):
        opening = carry = slots[t]
        for i, plane in enumerate(planes):
            if not carry:
                break
            planes[i], carry = plane ^ carry, plane & carry
        if carry:
            planes.append(carry)
        joined = []     # (row, slots) of each member after t, in order
        later = rows[t] >> t + 1 << t + 1 if opening else 0
        while later:
            low = later & -later
            later ^= low
            u = low.bit_length() - 1
            here = opening & slots[u]
            for row, there in joined:
                if not here:
                    break
                if not row >> u & 1:
                    here &= ~there
            if here:
                slots[u] ^= here
                joined.append((rows[u], here))
    weights = np.int64(1) << np.arange(len(planes), dtype=np.int64)[:, None]
    counts = (_unpacked_bits(planes, len(columns) * m) * weights).sum(axis=0, dtype=np.int64)
    return counts.reshape(len(columns), m).T


def _greedy_parts(cloud: PointCloud, idx: np.ndarray, related) -> Iterator[np.ndarray]:
    """Greedy parts (see the module docstring) of the points ``idx``, in their
    order, under ``related`` (see :func:`_relation_rows`), one part at a time.

    Each new member reads its distances to the part's remaining candidates
    only, one :meth:`PointCloud.pairwise` row, so memory is O(m) and a
    first part reads one row per member."""
    uncovered = np.ones(idx.size, dtype=bool)
    while uncovered.any():
        cand = np.flatnonzero(uncovered)
        members = []
        while cand.size:
            t, cand = cand[0], cand[1:]
            members.append(t)
            cand = cand[related(cloud.pairwise(idx[t:t + 1], idx[cand])[0])]
        uncovered[members] = False
        yield idx[members]


def _greedy_cover_parts(rows, mask: int) -> List[List[int]]:
    """The greedy parts (:func:`_scan`) of ``mask``'s positions under ``rows``, a list or map."""
    members, ends = _scan(rows, mask)
    return [members[a:b] for a, b in zip(ends, ends[1:])]


def _greedy_pack_indices(cloud: PointCloud, idx: np.ndarray, sep: float,
                         tol: float) -> np.ndarray:
    """Sorted maximal sep-separated family, taking points in the order of ``idx``."""
    # There are no parts only when there are no points.
    return np.sort(next(_greedy_parts(cloud, idx, lambda d: d >= sep - tol), idx))


def _separated_lower_bound(rows: List[int], mask: int) -> int:
    """The first greedy part of ``mask`` under the complement of bitset ``rows``,
    as a bitset: positions pairwise unrelated, which no part related pairwise
    under ``rows`` holds two of, so its size bounds the cover count below."""
    family = 0
    while mask:
        low = mask & -mask
        family |= low
        mask = (mask ^ low) & ~rows[low.bit_length() - 1]
    return family


def _min_clique_cover(rows: List[int], mask: int) -> List[int]:
    """Exact minimum partition of the positions in ``mask`` into parts related
    pairwise under bitset ``rows``, branch-and-bound, as bitsets.

    Vertices, the positions in increasing order, are assigned to an existing
    compatible part or a fresh one; a fixed exploration order keeps the
    witness deterministic.  The greedy scan of ``mask`` is the first upper
    bound; :func:`_separated_lower_bound` is the lower bound."""
    if not mask:
        return []
    members, ends = _scan(rows, mask)
    verts = sorted(members)     # the scan covers every position in mask
    best = [sum(1 << t for t in members[a:b]) for a, b in zip(ends, ends[1:])]

    parts: List[int] = []

    def dfs(i: int) -> None:
        nonlocal best
        if len(parts) >= len(best):
            return
        if i == len(verts):
            best = list(parts)
            return
        v = verts[i]
        bit = 1 << v
        for j in range(len(parts)):
            part = parts[j]
            if rows[v] & part == part:
                parts[j] = part | bit
                dfs(i + 1)
                parts[j] = part
        if len(parts) + 1 < len(best):
            parts.append(bit)
            dfs(i + 1)
            parts.pop()

    if len(best) > _separated_lower_bound(rows, mask).bit_count():   # else greedy meets it
        dfs(0)
    return best


def _ball_counts(cloud: PointCloud, idx: np.ndarray, pairs: List[Tuple[float, float]],
                 tol: float, count=None) -> np.ndarray:
    """Entry (t, p) counts at r the points of ``idx`` within R + tol of ``idx[t]``,
    for ``pairs[p] = (R, r)``.

    1-D clouds take the doubling table over ``idx`` in coordinate order, so
    every count is exact and ``count`` is not called.  Elsewhere each
    distinct scale s gets one relation ``d <= s + tol`` on ``idx`` (the
    comparison of :func:`fracdim.cloud._ball`).  With ``count`` given, an
    entry is ``count(relation[r], relation[R][t])``, the ball a position
    mask, computed center by center, then pair by pair.  With ``count``
    None, an entry is the greedy scan's count of that ball, and the pairs
    sharing an r are counted together by :func:`_greedy_counts`, which
    reads each ball through the columns of the relation at R.
    """
    counts = np.empty((idx.size, len(pairs)), dtype=np.int64)
    if not pairs:
        return counts
    if cloud.dim == 1:
        line = _by_coordinate(cloud, idx)
        x, at = cloud.coords[line, 0], np.arange(line.size)
        rank = np.empty(cloud.n, dtype=np.int64)
        rank[line] = at
        for p, (R, r) in enumerate(pairs):
            counts[:, p] = _sweep_cover_counts(
                x, r, *_cloud._ball_bounds(x, at, R + tol), tol)[rank[idx]]
        return counts
    scales = sorted({s for pair in pairs for s in pair})
    relation = dict(zip(scales, _relation_rows(
        cloud, idx, *[lambda d, s=s: d <= s + tol for s in scales])))
    if count is not None:
        for t in range(idx.size):
            counts[t] = [count(relation[r], relation[R][t]) for R, r in pairs]
        return counts
    # Coordinate relations are symmetric bit for bit (cloud._distance_blocks),
    # so their rows are their columns; a matrix is symmetric only within tol.
    column = relation if cloud.coords is not None else \
        {R: _transposed(relation[R]) for R, _ in pairs}
    for r in {r for _, r in pairs}:
        at = [p for p, (_, s) in enumerate(pairs) if s == r]
        counts[:, at] = _greedy_counts(relation[r], [column[pairs[p][0]] for p in at])
    return counts


def _bb_min_clique_cover(cloud: PointCloud, idx: np.ndarray, r: float,
                         tol: float) -> List[np.ndarray]:
    """Exact minimum partition of ``idx`` into diameter-<=r parts: :func:`_min_clique_cover`."""
    [rows] = _relation_rows(cloud, idx, lambda d: d <= r + tol)
    return [idx[[u for u in range(idx.size) if part >> u & 1]]
            for part in _min_clique_cover(rows, (1 << idx.size) - 1)]


def _bb_max_separated(cloud: PointCloud, idx: np.ndarray, sep: float,
                      tol: float) -> np.ndarray:
    """Exact maximum family in ``idx`` with pairwise distance >= sep, branch-and-bound."""
    m = idx.size
    [rows] = _relation_rows(cloud, idx, lambda d: d >= sep - tol)
    best, best_size = 0, 0      # the largest family so far, as a bitset

    def dfs(v: int, chosen: int, size: int) -> None:
        nonlocal best, best_size
        if size + (m - v) <= best_size:
            return
        if v == m:
            best, best_size = chosen, size
            return
        if rows[v] & chosen == chosen:  # v itself is never in chosen
            dfs(v + 1, chosen | 1 << v, size + 1)
        dfs(v + 1, chosen, size)

    dfs(0, 0, 0)
    return idx[np.asarray([u for u in range(m) if best >> u & 1], dtype=np.int64)]


def _refuse_above_cutoff(what: str, size: int, exact_cutoff: int) -> None:
    """Refuse an exact ``what`` (covering or packing) on more than ``exact_cutoff`` points."""
    if size > exact_cutoff:
        raise ValueError(f"exact {what} requested on {size} points, cutoff {exact_cutoff}")


def covering_number(subset: Subset, r: float, mode: str = "auto",
                    tol: float = DEFAULT_TOL,
                    exact_cutoff: int = DEFAULT_EXACT_CUTOFF) -> CoverResult:
    """Minimal (exact) or bounding (greedy) count of diameter-<=r parts covering ``subset``.

    ``auto`` solves exactly whenever it can (1-D sweep at any size,
    branch-and-bound within the cutoff) and falls back to greedy above it.
    Greedy counts are upper bounds on the true covering number.
    """
    if mode not in ("exact", "greedy", "auto"):
        raise ValueError(f"unknown mode {mode!r}")
    if not r > 0:
        raise ValueError("r must be positive")
    cloud, idx = subset.cloud, subset.indices
    exact = True
    if idx.size == 0:
        parts = []
    elif cloud.dim == 1:
        parts = _sweep_cover_parts(cloud, idx, r, tol)
    elif mode == "exact" or (mode == "auto" and idx.size <= exact_cutoff):
        _refuse_above_cutoff("covering", idx.size, exact_cutoff)
        parts = _bb_min_clique_cover(cloud, idx, r, tol)
    else:
        parts, exact = list(_greedy_parts(cloud, idx, lambda d: d <= r + tol)), False
    return CoverResult(len(parts), [Subset(cloud, p) for p in parts], exact)


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
    cloud, idx = subset.cloud, subset.indices
    exact = True
    if idx.size == 0:
        wit = idx
    elif cloud.dim == 1:
        idx = _by_coordinate(cloud, idx)
        wit = np.sort(idx[_sweep_pack(cloud.coords[idx, 0], sep, tol)])
    elif mode == "exact":
        _refuse_above_cutoff("packing", idx.size, exact_cutoff)
        wit = _bb_max_separated(cloud, idx, sep, tol)
    else:
        wit, exact = _greedy_pack_indices(cloud, idx, sep, tol), False
    return PackResult(len(wit), Subset(cloud, wit), exact)


def maximal_separated_family(subset: Subset, sep: float, seed: int,
                             tol: float = DEFAULT_TOL) -> Subset:
    """Greedy maximal sep-separated family containing ``seed``, lowest index first."""
    if not sep > 0:
        raise ValueError("sep must be positive")
    seed = int(seed)
    idx = subset.indices
    if seed not in idx:
        raise ValueError("seed must belong to the subset")
    order = np.concatenate([[seed], idx[idx != seed]])
    return Subset(subset.cloud, _greedy_pack_indices(subset.cloud, order, sep, tol))


def validate_cover(subset: Subset, result: CoverResult, r: float,
                   tol: float = DEFAULT_TOL) -> bool:
    """Independent witness check: parts jointly cover and each has diameter <= r."""
    covered = np.sort(np.concatenate([p.indices for p in result.parts])) \
        if result.parts else np.empty(0, dtype=np.int64)
    # The union of the parts: each index once.  (np.unique would load numpy.ma.)
    if not np.array_equal(covered[np.diff(covered, prepend=-1) != 0], subset.indices):
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
