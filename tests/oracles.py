"""Independent brute-force oracles.

These deliberately share no code with the library: covering is solved by
dynamic programming over vertex subsets, packing by scanning all subsets,
and 1-D counts are certified by a matching separated family.  Tests freeze
expected values computed here.
"""
from __future__ import annotations

import numpy as np


def exact_cover_oracle(dmat: np.ndarray, r: float, tol: float = 1e-12) -> int:
    """Minimum number of diameter-<=r parts, by subset DP (n <= 14)."""
    n = dmat.shape[0]
    if n == 0:
        return 0
    if n > 14:
        raise ValueError("oracle limited to n <= 14")
    full = 1 << n
    bad = np.zeros(n, dtype=np.int64)
    for v in range(n):
        mask = 0
        for u in range(n):
            if u != v and dmat[v, u] > r + tol:
                mask |= 1 << u
        bad[v] = mask
    masks = np.arange(full, dtype=np.int64)
    feasible = np.ones(full, dtype=bool)
    for v in range(n):
        has_v = (masks >> v) & 1 == 1
        conflict = (masks & bad[v]) != 0
        feasible &= ~(has_v & conflict)
    parts_by_lowbit = []
    for v in range(n):
        sel = feasible & ((masks >> v) & 1 == 1) & (masks & ((1 << v) - 1) == 0)
        parts_by_lowbit.append(masks[sel])
    dp = np.full(full, n + 1, dtype=np.int64)
    dp[0] = 0
    for s in range(1, full):
        v = (s & -s).bit_length() - 1
        parts = parts_by_lowbit[v]
        usable = parts[(parts & ~s) == 0]
        dp[s] = 1 + dp[s ^ usable].min()
    return int(dp[full - 1])


def exact_pack_oracle(dmat: np.ndarray, sep: float, tol: float = 1e-12) -> int:
    """Maximum size of a family with pairwise distance >= sep, by subset scan."""
    n = dmat.shape[0]
    if n == 0:
        return 0
    if n > 14:
        raise ValueError("oracle limited to n <= 14")
    full = 1 << n
    close = np.zeros(n, dtype=np.int64)
    for v in range(n):
        mask = 0
        for u in range(n):
            if u != v and dmat[v, u] < sep - tol:
                mask |= 1 << u
        close[v] = mask
    masks = np.arange(full, dtype=np.int64)
    ok = np.ones(full, dtype=bool)
    for v in range(n):
        has_v = (masks >> v) & 1 == 1
        conflict = (masks & close[v]) != 0
        ok &= ~(has_v & conflict)
    return int(np.bitwise_count(masks[ok].astype(np.uint64)).max())


def certified_cover_count_1d(coords: np.ndarray, r: float, tol: float = 1e-12) -> int:
    """Exact 1-D covering count, certified by an equal-size separated family.

    Raises if the sweep count and the forced lower bound disagree, so a
    returned value is always provably optimal.
    """
    xs = np.sort(np.asarray(coords, dtype=float))
    count = 0
    i = 0
    while i < xs.size:
        j = i
        while j < xs.size and xs[j] <= xs[i] + r + tol:
            j += 1
        count += 1
        i = j
    forced = 0
    last = -np.inf
    for x in xs:
        if x - last > r + tol:
            forced += 1
            last = x
    if forced != count:
        raise AssertionError(f"1-D certificate failed: cover {count} vs forced {forced}")
    return count


def brute_hausdorff(a: np.ndarray, b: np.ndarray, metric: str = "euclidean") -> float:
    """Double-loop Hausdorff distance between coordinate arrays."""
    a = np.atleast_2d(np.asarray(a, dtype=float).T).T
    b = np.atleast_2d(np.asarray(b, dtype=float).T).T

    def dist(p, q):
        if metric == "euclidean":
            return float(np.sqrt(((p - q) ** 2).sum()))
        return float(np.abs(p - q).sum())

    d_ab = max(min(dist(p, q) for q in b) for p in a)
    d_ba = max(min(dist(p, q) for q in a) for p in b)
    return max(d_ab, d_ba)


def polarized_value(label) -> float:
    """Direct evaluation of the polarized coordinate formula."""
    return sum((2 * c - 1) * 2.0 ** (-2 * i - 1) for i, c in enumerate(label))


def random_metric_cloud(rng: np.random.Generator, n: int, dim: int):
    """Random euclidean points returned as an explicit distance matrix."""
    pts = rng.uniform(0.0, 1.0, size=(n, dim))
    diff = pts[:, None, :] - pts[None, :, :]
    dmat = np.sqrt((diff ** 2).sum(axis=2))
    np.fill_diagonal(dmat, 0.0)
    dmat = np.minimum(dmat, dmat.T)
    return dmat


def distance_row_oracle(coords: np.ndarray, i: int, metric: str) -> np.ndarray:
    """Distances from point ``i`` to every point, one difference row at a time.

    This is the per-row arithmetic the cloud's block kernel must reproduce
    bit for bit: ``abs`` for 1-D euclidean, ``sqrt(einsum("ij,ij->i"))`` for
    euclidean, ``abs().sum(axis=1)`` for l1.
    """
    coords = np.asarray(coords, dtype=float)
    diff = coords - coords[i]
    if metric == "euclidean":
        if coords.shape[1] == 1:
            return np.abs(diff[:, 0])
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return np.abs(diff).sum(axis=1)


def greedy_cover_oracle(dmat: np.ndarray, r: float, tol: float = 1e-12) -> list:
    """Lowest-index greedy cover by a row-by-row scan, parts as position arrays.

    Each part starts at the first remaining position; a later remaining
    position joins when its largest distance to the part so far is at most
    ``r + tol``.
    """
    remaining = np.arange(dmat.shape[0])
    parts = []
    while remaining.size:
        maxd = dmat[remaining[0], remaining]
        member = np.zeros(remaining.size, dtype=bool)
        member[0] = True
        for t in range(1, remaining.size):
            if maxd[t] <= r + tol:
                member[t] = True
                maxd = np.maximum(maxd, dmat[remaining[t], remaining])
        parts.append(remaining[member])
        remaining = remaining[~member]
    return parts
