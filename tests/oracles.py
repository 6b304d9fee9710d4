"""Independent brute-force oracles.

These deliberately share no code with the library: covering is solved by
dynamic programming over vertex subsets, packing by scanning all subsets,
and 1-D counts are certified by a matching separated family.  Tests freeze
expected values computed here.
"""
from __future__ import annotations

import json
import math

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
    size = np.zeros(full, dtype=np.int64)   # set bits of each mask (numpy 1.x has no bitwise_count)
    for v in range(n):
        has_v = (masks >> v) & 1 == 1
        conflict = (masks & close[v]) != 0
        ok &= ~(has_v & conflict)
        size += has_v
    return int(size[ok].max())


def certified_cover_count_1d(coords: np.ndarray, r: float, tol: float = 1e-12) -> int:
    """Exact 1-D covering count, certified by an equal-size separated family.

    Raises if the sweep count and the forced lower bound disagree, so a
    returned value is always provably optimal.  Both compare distances with
    ``r + tol``, as the validators do.
    """
    xs = np.sort(np.asarray(coords, dtype=float))
    count = 0
    i = 0
    while i < xs.size:
        j = i
        while j < xs.size and xs[j] - xs[i] <= r + tol:
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


def greedy_estimate_counts_oracle(dmat: np.ndarray, pairs, tol: float = 1e-12) -> list:
    """Greedy N_r(B(c, R)) per center c and pair (R, r), one row at a time: the
    ball is every position within ``R + tol`` of c, and the count is the
    number of parts of :func:`greedy_cover_oracle` on the ball's distances."""
    counts = []
    for c in range(dmat.shape[0]):
        row = []
        for R, r in pairs:
            ball = np.flatnonzero(dmat[c] <= R + tol)
            row.append(len(greedy_cover_oracle(dmat[np.ix_(ball, ball)], r, tol)))
        counts.append(row)
    return counts


def estimate_table_oracle(pairs, counts) -> tuple:
    """The estimate table as the row loop built it before the columnar one:
    one tuple and one ``math.log`` quotient per row, then the first minimum by
    ``min``.  ``counts[c][p]`` is center c's count at ``pairs[p]``; returns
    (table, alpha_hat, argmin), with ``([], 0.0, None)`` for no rows."""
    table = []
    for center, row in enumerate(counts):
        for (R, r), count in zip(pairs, row):
            table.append((center, R, r, count, math.log(count) / math.log(R / r)))
    if not table:
        return [], 0.0, None
    center, R, r, _, exponent = min(table, key=lambda entry: entry[4])
    return table, exponent, (center, R, r)


def greedy_pack_oracle(dmat: np.ndarray, sep: float, tol: float = 1e-12,
                       seed=None) -> list:
    """Maximal sep-separated family by a row-by-row scan, as sorted positions.

    ``seed`` (if given) is chosen first; every other position, in order,
    joins when ``dmat[position, chosen]`` is at least ``sep - tol`` for
    everything chosen so far.
    """
    chosen = [] if seed is None else [seed]
    for i in range(dmat.shape[0]):
        if i != seed and all(dmat[i, c] >= sep - tol for c in chosen):
            chosen.append(i)
    return sorted(chosen)


def separated_family_oracle(dmat: np.ndarray, r: float, tol: float = 1e-12) -> list:
    """Positions pairwise more than ``r + tol`` apart, by a row-by-row scan: a
    position joins when ``dmat[position, chosen]`` exceeds ``r + tol`` for
    everything chosen so far."""
    chosen = []
    for i in range(dmat.shape[0]):
        if all(dmat[i, c] > r + tol for c in chosen):
            chosen.append(i)
    return chosen



def bb_min_clique_cover_oracle(dmat: np.ndarray, r: float, tol: float = 1e-12) -> list:
    """The index-order branch-and-bound exact cover that the bitset solver
    replaced, on a distance matrix, as parts of sorted positions.

    The body is the replaced solver's, except that it takes the distance
    matrix itself and its greedy upper bound and separated lower bound come
    from :func:`greedy_cover_oracle` and :func:`separated_family_oracle`.
    """
    m = dmat.shape[0]
    if m == 0:
        return []
    compat = dmat <= r + tol

    best_parts = [[int(v) for v in part] for part in greedy_cover_oracle(dmat, r, tol)]
    best = len(best_parts)
    lb = len(separated_family_oracle(dmat, r, tol))
    if best == lb:
        return [np.asarray(sorted(p)) for p in best_parts]

    parts = []
    out = [best_parts]
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
    return [np.asarray(sorted(p)) for p in out[0]]


def bb_max_separated_oracle(dmat: np.ndarray, sep: float, tol: float = 1e-12) -> np.ndarray:
    """The index-order branch-and-bound maximum separated family that the
    bitset solver replaced, as sorted positions; it takes the distance matrix
    itself."""
    m = dmat.shape[0]
    if m == 0:
        return np.empty(0, dtype=np.int64)
    ok = dmat >= sep - tol
    np.fill_diagonal(ok, False)

    best_set = []

    def dfs(v: int, chosen: list) -> None:
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
    return np.asarray(sorted(best_set), dtype=np.int64)

def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError("cannot serialize non-finite float")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def canonical_json_oracle(obj, indent: int = 0, _level: int = 0) -> str:
    """The canonical JSON encoder as it was before the fast one: one
    recursive call per value, no caching and no special cases."""
    pad = " " * (indent * (_level + 1)) if indent else ""
    closing = " " * (indent * _level) if indent else ""
    nl = "\n" if indent else ""
    sep = "," + nl + pad if indent else ", "
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [canonical_json_oracle(x, indent, _level + 1) for x in obj]
        if not items:
            return "[]"
        return "[" + nl + pad + sep.join(items) + nl + closing + "]"
    if isinstance(obj, dict):
        items = [json.dumps(str(k)) + ": " + canonical_json_oracle(v, indent, _level + 1)
                 for k, v in obj.items()]
        if not items:
            return "{}"
        return "{" + nl + pad + sep.join(items) + nl + closing + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def embed_tree_oracle(tree):
    """The tree embedding as it was built before the direct one: one sparse
    {column: value} vector per point, densified at the end.

    Returns the coordinate rows and the ``meta`` of ``embed_tree(tree)``.
    """
    nodes = sorted(set(tree.nodes), key=lambda u: (len(u), u))
    order = {u: i for i, u in enumerate(nodes)}
    vectors = {(): [{}]}
    for u in nodes[1:]:
        scale = 2.0 ** (-2 * (len(u) - 1) - 1)
        vectors[u] = [{**x, 2 * order[u] + bit: scale}
                      for x in vectors[u[:-1]] for bit in (0, 1)]
    vecs = [v for u in nodes for v in vectors[u]]
    dim = max((i for v in vecs for i in v), default=-1) + 1
    rows = np.zeros((len(vecs), max(dim, 1)))
    for r, v in enumerate(vecs):
        for i, x in v.items():
            rows[r, i] = x
    meta = {"kind": "tree-embedding",
            "point_node": [".".join(map(str, u)) for u in nodes for _ in vectors[u]],
            "tree_nodes": [list(u) for u in nodes]}
    return rows, meta
