"""(k, l)-regular families: the machine-checkable certificate objects.

A family assigns a cloud point to every label sequence s over {0..l-1} up
to a finite depth, subject to
  (child) parent at level n and its child differ by at most 2^(-k*n-1),
  (sep)   distinct labels at level n are at least 2^(-k*n+2) apart,
  (strong) optionally, the 0-child reuses the parent point exactly.

Verification checks the definition directly and reports every violation.
Search builds families recursively: the candidate children of a node at
level n are the points of the closed ball of radius 2^(-k*n-1), and an
assigned child set must be pairwise 2^(-k*(n+1)+2)-separated.  Because the
child and sep constraints at earlier levels already force separation across
branches (for k >= 2 the cross-branch gap is at least (8/3)*2^(-k*(j+1)) at
the split level j, which dominates every deeper requirement), subtrees are
feasible or not independently of their siblings; the search memoizes each
node's decision per (point, level, remaining-depth), None or its chosen
children, and is exhaustive whenever the node-expansion budget is not hit.
A found family is read off the memo from its root and then re-verified.  Off
1-D clouds the search reads each point's distances once, into bitset rows.
A found (k, l) family certifies the bound log2(l) / k (:func:`dimension_bound`).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import cloud as _cloud
from .cloud import PointCloud, Subset, _ball, _upper
from .config import (_JSON_CHECKS, DEFAULT_BUDGET, DEFAULT_EXACT_CUTOFF, DEFAULT_TOL, Label,
                     _checked_object, label_str, parse_label)
from .covering import (_ball_counts, _greedy_cover_parts, _min_clique_cover, _packed_ints,
                       _separated_lower_bound, _sweep_pack, _unpacked_bits)


def child_radius(k: int, level: int) -> float:
    """Max distance from a level-``level`` parent to its children."""
    return 2.0 ** (-k * level - 1)


def level_separation(k: int, level: int) -> float:
    """Min distance between distinct labels at ``level``."""
    return 2.0 ** (-k * level + 2)


@dataclass
class RegularFamily:
    """Labeled tree of point indices: s in l^{<=depth} -> point index."""

    k: int
    l: int
    depth: int
    strong: bool
    assign: Dict[Label, int]

    def __post_init__(self) -> None:
        if self.k < 2 or self.l < 2:
            raise ValueError("need k >= 2 and l >= 2")
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        labels, width = 0, 1   # the labels up to the level reached, and one level below it
        for _ in range(self.depth + 1):   # stops within log_l(len(assign)) + 2 levels
            labels, width = labels + width, width * self.l
            if labels > len(self.assign):
                break
        if labels != len(self.assign):
            raise ValueError(f"assignment must cover every label up to depth {self.depth};"
                             f" {len(self.assign)} given")
        for lab in self.assign:
            if len(lab) > self.depth or any(not 0 <= c < self.l for c in lab):
                raise ValueError(f"invalid label {lab!r}")

    def labels_at(self, n: int) -> List[Label]:
        if not 0 <= n <= self.depth:
            raise ValueError(f"level {n} outside 0..{self.depth}")
        return sorted(lab for lab in self.assign if len(lab) == n)

    def truncated(self, new_depth: int) -> "RegularFamily":
        """Restriction to labels of length <= new_depth (closes the class)."""
        if not 0 <= new_depth <= self.depth:
            raise ValueError("new_depth outside family depth")
        assign = {lab: i for lab, i in self.assign.items() if len(lab) <= new_depth}
        return RegularFamily(self.k, self.l, new_depth, self.strong, assign)

    def to_dict(self) -> dict:
        labels = sorted(self.assign, key=lambda u: (len(u), u))
        return {
            "k": self.k, "l": self.l, "depth": self.depth, "strong": self.strong,
            "assign": {label_str(lab): int(self.assign[lab]) for lab in labels},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RegularFamily":
        """The family a JSON object describes; malformed input raises ValueError."""
        fields = {"k": "an integer", "l": "an integer", "depth": "an integer",
                  "strong": "a boolean", "assign": "an object"}
        data = _checked_object(data, "certificate", fields, required=fields)
        if not all(_JSON_CHECKS["an integer"](i) for i in data["assign"].values()):
            raise ValueError("certificate labels must map to integer point indices")
        assign = {parse_label(s): i for s, i in data["assign"].items()}
        return cls(data["k"], data["l"], data["depth"], data["strong"], assign)


@dataclass(frozen=True)
class Violation:
    kind: str          # "child" | "sep" | "strong"
    s: Label
    t: Label
    measured: float
    required: float

    def to_dict(self) -> dict:
        return {"kind": self.kind, "s": label_str(self.s), "t": label_str(self.t),
                "measured": self.measured, "required": self.required}


@dataclass
class RegularityReport:
    ok: bool
    violations: List[Violation]

    def to_dict(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_dict() for v in self.violations]}


def verify_regular(cloud: PointCloud, family: RegularFamily,
                   tol: float = DEFAULT_TOL) -> RegularityReport:
    """Check the regularity definition directly; report every violation.

    Inequalities are evaluated on the permissive side of ``tol``.  The strong
    condition is point identity, which on a duplicate-free cloud is index
    identity.  Separation is scanned one block of a level's rows at a time,
    pairs in row-major label order; no level's whole submatrix is held.
    """
    for lab, idx in family.assign.items():
        if not 0 <= idx < cloud.n:
            raise IndexError(f"label {label_str(lab)!r} assigned out-of-range index {idx}")
    violations: List[Violation] = []
    for n in range(family.depth):
        req = child_radius(family.k, n)
        for s in family.labels_at(n):
            row = cloud.distances_from(family.assign[s])
            for c in range(family.l):
                t = s + (c,)
                d = float(row[family.assign[t]])
                if d > req + tol:
                    violations.append(Violation("child", s, t, d, req))
    for n in range(1, family.depth + 1):
        labs = family.labels_at(n)
        idx = np.asarray([family.assign[s] for s in labs], dtype=np.int64)
        req = level_separation(family.k, n)
        for start, block in cloud._blocks(idx):
            for a, b in np.argwhere((block < req - tol) & _upper(start, block)):
                d = float(block[a, b])
                violations.append(Violation("sep", labs[start + a], labs[b], d, req))
    if family.strong:
        for n in range(family.depth):
            for s in family.labels_at(n):
                t = s + (0,)
                if family.assign[t] != family.assign[s]:
                    d = cloud.distance(family.assign[s], family.assign[t])
                    violations.append(Violation("strong", s, t, d, 0.0))
    return RegularityReport(not violations, violations)


@dataclass
class SearchResult:
    """Outcome of one certificate search.

    ``family is None`` with ``exhausted`` means "not found within budget";
    with the budget intact it means "absent" (the search is exhaustive).
    """

    family: Optional[RegularFamily]
    exhausted: bool
    expansions: int


class _BudgetExhausted(Exception):
    pass


class _Search:
    """A search session on one cloud, k, l, strong and tol, for depths up to
    ``levels``.  Each search has its own budget and choice memo; the rows and
    the lookahead and pack memos do not depend on the depth and serve them all.
    Off 1-D clouds, the first touch of a point q reads its distances once into
    two bitset rows (bit u = point u) per level n: the child ball
    ``d <= child_radius(n) + tol`` and separation ``d >= sep - tol``, sep being
    level n + 1's.  Points keep their rows while all fit in 8 * ``_DENSE_CAP``
    bytes (64 MB).
    """

    def __init__(self, cloud: PointCloud, k: int, l: int, strong: bool, tol: float,
                 levels: int):
        if k < 2 or l < 2:
            raise ValueError("need k >= 2 and l >= 2")
        self.cloud, self.k, self.l, self.strong, self.tol = self.key = (cloud, k, l, strong, tol)
        self.levels = levels
        # (point, level) -> lookahead, (level, candidates) -> pack bound, point -> rows
        self._plausible, self._packs, self._held = {}, {}, {}
        self._bounds: List[Tuple[float, float]] = []
        for n in range(levels):
            self._bounds.append((child_radius(k, n) + tol, level_separation(k, n + 1) - tol))
            if self._bounds[-1] == (0.0 + tol, 0.0 - tol):
                break   # every deeper level compares alike and reads these rows
        row_bytes = 2 * len(self._bounds) * sys.getsizeof((1 << cloud.n) - 1)
        self._hold = 8 * _cloud._DENSE_CAP // max(1, row_bytes)

    def _tick(self) -> None:
        self.expansions += 1
        if self.expansions > self.budget:
            raise _BudgetExhausted

    def _row(self, q: int, level: int, kind: int) -> int:
        """q's bitset row ``kind`` (0 child ball, 1 separation)."""
        rows = self._held.get(q)
        if rows is None:
            d = self.cloud.distances_from(q)
            rows = _packed_ints([rel for ball, sep in self._bounds for rel in (d <= ball, d >= sep)])
            if len(self._held) < self._hold:
                self._held[q] = rows
        return rows[2 * min(level, len(self._bounds) - 1) + kind]

    def _pool(self, point: int, level: int):
        """Candidate children of ``point`` at ``level``, in search order."""
        if self.cloud.dim == 1:
            return _ball(self.cloud, point, child_radius(self.k, level), self.tol)
        [row] = _unpacked_bits([self._row(point, level, 0)], self.cloud.n)
        return np.flatnonzero(row).tolist()

    def _pack_upper_bound(self, level: int, cands) -> int:
        """Upper bound on the size of a separated subset of the pool ``cands``."""
        m, sep = len(cands), level_separation(self.k, level + 1)
        if m <= 1:
            return m
        if self.cloud.dim == 1:
            return len(_sweep_pack(self.cloud.coords[cands, 0], sep, self.tol))
        # A greedy part under "not separated" (d < sep - tol, rows being symmetric)
        # holds at most one point of a separated subset.
        key = (level, tuple(cands))
        if key not in self._packs:
            rows = {q: ~self._row(q, level, 1) for q in cands}
            self._packs[key] = len(_greedy_cover_parts(rows, sum(1 << q for q in cands)))
        return self._packs[key]

    def _is_plausible(self, point: int, level: int, rest: int) -> bool:
        """One-step lookahead: necessary condition for a feasible subtree."""
        if rest <= 0:
            return True
        key = (point, level)
        if key not in self._plausible:
            self._plausible[key] = self._pack_upper_bound(level, self._pool(point, level)) >= self.l
        return self._plausible[key]

    def subtree(self, point: int, level: int, rest: int) -> Optional[List[int]]:
        """Children of ``point`` in a feasible depth-``rest`` subtree, or None: ``[]``
        at rest 0, and for a strong family ``point`` itself first."""
        key = (point, level, rest)
        if key in self._choice:
            return self._choice[key]
        self._tick()
        choice = self._choice[key] = self._expand(point, level, rest)
        return choice

    def _expand(self, point: int, level: int, rest: int) -> Optional[List[int]]:
        if rest == 0:
            return []
        # cheapest rejection first: even the unfiltered pool cannot hold l
        # children at the required separation
        if not self._is_plausible(point, level, rest):
            return None
        pinned = [point] if self.strong else []    # a strong 0-child reuses the point
        if any(self.subtree(q, level + 1, rest - 1) is None for q in pinned):
            return None
        cands = [q for q in map(int, self._pool(point, level))
                 if q not in pinned and self._is_plausible(q, level + 1, rest - 1)]
        need = self.l - len(pinned)    # >= 1: search_regular needs l >= 2
        if self._pack_upper_bound(level, cands) < need:
            return None
        children = self._find_children(cands, pinned, level, rest, need)
        return None if children is None else pinned + children

    def assignment(self, root: int, depth: int) -> Dict[Label, int]:
        """The found family's label -> point map, read from the memo level by level."""
        assign, nodes = {(): root}, [((), root)]
        for level in range(depth):
            nodes = [(lab + (c,), q) for lab, p in nodes
                     for c, q in enumerate(self._choice[(p, level, depth - level)])]
            assign.update(nodes)
        return assign

    def _find_children(self, cands: List[int], pinned: List[int], level: int, rest: int,
                       need: int) -> Optional[List[int]]:
        """First feasible separated child set in ``cands`` order: leftmost-first
        by coordinate on 1-D clouds, lexicographic index order otherwise."""
        if self.cloud.dim == 1:
            # Greedy leftmost is maximizing in 1-D even with a pinned seed:
            # replacing an optimal pick by an earlier compatible one only
            # grows every later gap.
            sep, picks = level_separation(self.k, level + 1), []
            for q in cands:
                chosen = pinned + picks
                if chosen and self.cloud.distances_from(q)[chosen].min() < sep - self.tol:
                    continue
                if self.subtree(q, level + 1, rest - 1) is not None:
                    picks.append(q)
                    if len(picks) == need:
                        return picks
            return None
        return self._dfs_children(cands, 0, sum(1 << q for q in pinned), [], level, rest, need)

    def _dfs_children(self, cands: List[int], pos: int, chosen: int, picks: List[int],
                      level: int, rest: int, need: int) -> Optional[List[int]]:
        """:meth:`_find_children` off 1-D clouds; ``chosen`` masks the pinned point and picks."""
        if len(picks) == need:
            return list(picks)
        if len(picks) + (len(cands) - pos) < need:
            return None
        for i in range(pos, len(cands)):
            q = cands[i]
            if (chosen and self._row(q, level, 1) & chosen != chosen
                    or self.subtree(q, level + 1, rest - 1) is None):
                continue
            self._tick()
            picks.append(q)
            found = self._dfs_children(cands, i + 1, chosen | 1 << q, picks, level, rest, need)
            picks.pop()
            if found is not None:
                return found
            # exclude q and keep scanning: q may block too many later picks
        return None


def search_regular(cloud: PointCloud, k: int, l: int, depth: int,
                   strong: bool = False, budget: int = DEFAULT_BUDGET,
                   tol: float = DEFAULT_TOL, session: Optional[_Search] = None) -> SearchResult:
    """Search for a (k, l)-regular family of the given depth.

    Roots are tried in index order, child sets in lexicographic index order,
    and both leftmost-first by coordinate on 1-D clouds, so the first
    success is deterministic.  The found family is re-verified against the
    definition before being returned.  ``session``, a ``_Search`` of this
    cloud, k, l, strong and tol for at least ``depth`` levels, lends the search
    its rows and memos (:func:`fracdim.trees.max_regular_depth`).
    """
    searcher = _Search(cloud, k, l, strong, tol, depth) if session is None else session
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if searcher.key != (cloud, k, l, strong, tol) or depth > searcher.levels:
        raise ValueError("the search session is for another cloud, parameters or depth")
    searcher.budget, searcher.expansions, searcher._choice = budget, 0, {}
    try:
        for root in cloud._order.tolist() if cloud.dim == 1 else range(cloud.n):
            if searcher.subtree(root, 0, depth) is not None:
                family = RegularFamily(k, l, depth, strong, searcher.assignment(root, depth))
                if not verify_regular(cloud, family, tol).ok:
                    raise RuntimeError(
                        "internal error: search produced a family failing verification")
                return SearchResult(family, False, searcher.expansions)
    except _BudgetExhausted:
        return SearchResult(None, True, searcher.expansions)
    return SearchResult(None, False, searcher.expansions)


def choose_parameters(C: float, beta: float, alpha: float) -> Tuple[int, int]:
    """Smallest k >= 5 whose l = floor(C * 2^((k-4)*beta)) certifies more than alpha."""
    if not C > 0:
        raise ValueError("C must be positive")
    if not beta > alpha >= 0:
        raise ValueError("need beta > alpha >= 0")
    k = 5
    while True:
        l = math.floor(C * 2.0 ** ((k - 4) * beta))
        if l >= 2 and math.log2(l) / k > alpha:
            return k, l
        k += 1


def dimension_bound(k: int, l: int) -> float:
    """The certified dimension lower bound log(l) / (k log 2) for a (k, l) family."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if l < 2:
        raise ValueError("l must be at least 2")
    return math.log2(l) / k


@dataclass
class BoundResult:
    """Certified lower bound from regular-family search over parameter choices.

    ``bound`` is a finite-depth certificate value, not an estimate of the
    true supremum; ``outcomes`` records every (k, l) search so budget
    exhaustion is visible in the result rather than raised as an error.
    """

    bound: float
    family: Optional[RegularFamily]
    outcomes: List[Tuple[int, int, SearchResult]] = field(default_factory=list)

    @property
    def exhausted(self) -> bool:
        return any(res.exhausted for (_, _, res) in self.outcomes)


def mod_lower_dim_bound(cloud: PointCloud, params: Sequence[Tuple[int, int]],
                        depth: int, budget: int = DEFAULT_BUDGET,
                        strong: bool = False,
                        tol: float = DEFAULT_TOL) -> BoundResult:
    """Best certified bound among (k, l) searches at the given depth.

    Finite clouds are complete, so plain (non-strong) families certify the
    bound; pass ``strong=True`` to insist on the stronger certificate shape.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    best_bound = 0.0
    best_family = None
    outcomes = []
    for (k, l) in params:
        res = search_regular(cloud, k, l, depth, strong=strong, budget=budget, tol=tol)
        outcomes.append((k, l, res))
        if res.family is not None:
            b = dimension_bound(k, l)
            if b > best_bound:
                best_bound = b
                best_family = res.family
    return BoundResult(best_bound, best_family, outcomes)


def level_points(family: RegularFamily, n: int, cloud: PointCloud) -> Subset:
    """Distinct assigned points at level ``n`` (strong families collapse reuse)."""
    if n > family.depth:
        raise ValueError(f"level {n} exceeds family depth {family.depth}")
    idx = np.array(sorted({family.assign[s] for s in family.labels_at(n)}), dtype=np.int64)
    return Subset(cloud, idx)


def certificate_scaling_check(cloud: PointCloud, family: RegularFamily,
                              tol: float = DEFAULT_TOL,
                              exact_cutoff: int = DEFAULT_EXACT_CUTOFF,
                              report: Optional[RegularityReport] = None) -> bool:
    """Machine-check the covering-count chain behind the certified bound.

    For every deepest-level point x and every scale-bracket index pair
    (n >= 1, m >= 0) with n + m + 1 <= depth, the ball B(x, R) must need at
    least l^m parts of diameter r to cover its deepest-level points.  Each
    bracket is probed at its two representable extremes; counts are
    lower-bounded by certified quantities only, never by greedy covers:
    the exact count within ``exact_cutoff`` points, a separated family's
    size above it.  Every count comes from the ball-count kernel,
    :func:`fracdim.covering._ball_counts`, over the deepest level: on 1-D
    clouds the covering sweep's doubling table (exact), on other clouds one
    relation per probe scale over the deepest level.  A ``report`` of
    :func:`verify_regular` on this cloud, family and tol spares verifying again.
    """
    if not (report or verify_regular(cloud, family, tol)).ok:
        raise ValueError("certificate_scaling_check requires a verified family")
    k, l, depth = family.k, family.l, family.depth
    deepest = level_points(family, depth, cloud).indices
    probes = [(R, r, l ** m) for n in range(1, depth) for m in range(depth - n)
              for R, r in ((2.0 ** (-k * n + 2), 2.0 ** (-k * (n + m))),     # hard corner
                           (2.0 ** (-k * (n - 1) + 1),                       # outer corner
                            2.0 ** (-k * (n + m + 1) + 1)))]

    def certified(rows: List[int], ball: int) -> int:
        if ball.bit_count() <= exact_cutoff:
            return len(_min_clique_cover(rows, ball))
        # Points pairwise farther than r + tol must land in distinct parts.
        return _separated_lower_bound(rows, ball).bit_count()

    counts = _ball_counts(cloud, deepest, [(R, r) for R, r, _ in probes], tol, certified)
    return all(counts[:, p].min() >= needed for p, (_, _, needed) in enumerate(probes))
