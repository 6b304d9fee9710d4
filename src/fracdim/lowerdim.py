"""Scale-window estimates of the lower dimension and certified lower bounds.

The estimator replaces the supremum over the constant C by fixing C = 1 and
requiring a minimum scale gap R/r; the reported value is then a plain
minimum of per-scale exponents rather than a regression fit, matching the
"for all scales" quantifier shape of the definition.  A finite cloud has
true lower dimension 0, so every report carries its window explicitly and
must be read as a scale-window quantity.

On 1-D coordinate clouds (both metrics are |x - y| there) the points are
sorted once, whatever their storage order, and every center's count at one
scale pair comes from the covering sweep's doubling table in O(n log n),
with no witness parts built.  Other clouds solve one covering per row on
balls cut from the cloud's distance rows; greedy rows only count the greedy
cover's parts and build no witness objects.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cloud import PointCloud, Subset, _ball
from .config import DEFAULT_BUDGET, DEFAULT_EXACT_CUTOFF, DEFAULT_TOL
from .covering import _ball_cover_counts_1d, _greedy_cover_parts, covering_number
from .regular import RegularFamily, SearchResult, search_regular

SEMANTICS_NOTE = "scale-window estimate on a finite sample, not a limit quantity"


@dataclass(frozen=True)
class ScaleWindow:
    """Geometric grid of scales in [r_min, r_max] with a minimum pair gap."""

    r_min: float
    r_max: float
    ratio: float = 2.0
    min_gap: float = 4.0

    def __post_init__(self) -> None:
        if not (0 < self.r_min < self.r_max):
            raise ValueError("need 0 < r_min < r_max")
        if not self.ratio > 1:
            raise ValueError("ratio must exceed 1")
        if self.min_gap < self.ratio:
            raise ValueError("min_gap must be at least the grid ratio")

    def scales(self) -> List[float]:
        """Ascending geometric grid r_min, r_min*ratio, ... up to r_max."""
        out = []
        s = self.r_min
        while s <= self.r_max * (1 + 1e-9):
            out.append(s)
            s *= self.ratio
        return out

    def pairs(self, diam_cap: Optional[float] = None,
              tol: float = DEFAULT_TOL) -> List[Tuple[float, float]]:
        """(R, r) grid pairs with R/r >= min_gap, R descending then r ascending."""
        sc = self.scales()
        out = []
        for R in reversed(sc):
            if diam_cap is not None and R > diam_cap + tol:
                continue
            for r in sc:
                if r >= R:
                    break
                if R / r >= self.min_gap * (1 - 1e-9):
                    out.append((R, r))
        return out

    def to_dict(self) -> dict:
        return {"r_min": self.r_min, "r_max": self.r_max,
                "ratio": self.ratio, "min_gap": self.min_gap}


@dataclass
class EstimateReport:
    """Empirical scale-window surrogate for the lower-dimension exponent.

    ``alpha_hat`` is the minimum of ``log N_r(B(x, R)) / log(R / r)`` over all
    centers x and admissible grid pairs; ``argmin`` names the minimizing
    triple and ``table`` lists every evaluated row in iteration order.
    """

    alpha_hat: float
    argmin: Optional[Tuple[int, float, float]]
    table: List[Tuple[int, float, float, int, float]]
    window: ScaleWindow
    mode: str

    def to_dict(self) -> dict:
        return {
            "alpha_hat": self.alpha_hat,
            "argmin": None if self.argmin is None else
            {"center": self.argmin[0], "R": self.argmin[1], "r": self.argmin[2]},
            "window": self.window.to_dict(),
            "mode": self.mode,
            "semantics": SEMANTICS_NOTE,
            "table": [
                {"center": c, "R": R, "r": r, "count": n, "exponent": e}
                for (c, R, r, n, e) in self.table
            ],
        }


def lower_dim_estimate(cloud: PointCloud, window: ScaleWindow, mode: str = "exact",
                       tol: float = DEFAULT_TOL,
                       exact_cutoff: int = DEFAULT_EXACT_CUTOFF) -> EstimateReport:
    """Minimum covering exponent over all centers and admissible scale pairs.

    Returns 0 with an empty table when no grid pair fits below the cloud
    diameter (the empty-set convention).  Greedy covering counts are upper
    bounds on N_r, so greedy mode can only raise the estimate.
    """
    if mode not in ("exact", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    pairs = window.pairs(diam_cap=cloud.diam(), tol=tol)
    if cloud.dim == 1:
        counts = _counts_1d(cloud, pairs, tol)
    else:
        counts = _counts_generic(cloud, pairs, mode, tol, exact_cutoff)
    table: List[Tuple[int, float, float, int, float]] = []
    for center, row in enumerate(counts):
        for (R, r), count in zip(pairs, row):
            table.append((center, R, r, count, math.log(count) / math.log(R / r)))
    if not table:
        return EstimateReport(0.0, None, [], window, mode)
    center, R, r, _, exponent = min(table, key=lambda entry: entry[4])   # the first minimum
    return EstimateReport(exponent, (center, R, r), table, window, mode)


def _counts_1d(cloud: PointCloud, pairs: List[Tuple[float, float]],
               tol: float) -> List[List[int]]:
    """Exact N_r(B(x, R)) per center (in cloud order) and pair, on a 1-D cloud.

    The 1-D sweep is optimal at any size, so both modes get exact counts.
    """
    order = np.argsort(cloud.coords[:, 0], kind="stable")
    x = cloud.coords[order, 0]
    counts = np.empty((cloud.n, len(pairs)), dtype=np.int64)
    for p, (R, r) in enumerate(pairs):
        counts[order, p] = _ball_cover_counts_1d(x, R, r, tol)
    return counts.tolist()


def _counts_generic(cloud: PointCloud, pairs: List[Tuple[float, float]], mode: str,
                    tol: float, exact_cutoff: int) -> List[List[int]]:
    """N_r(B(x, R)) per center and pair, one covering solve per row.

    Balls come from the one ball rule, :func:`fracdim.cloud._ball`.
    """
    counts = []
    for center in range(cloud.n):
        balls: dict = {}
        row = []
        for R, r in pairs:
            if R not in balls:
                balls[R] = _ball(cloud, center, R, tol)
            if mode == "greedy":
                row.append(len(_greedy_cover_parts(cloud, balls[R], r, tol)))
            else:
                row.append(covering_number(Subset(cloud, balls[R]), r, mode=mode, tol=tol,
                                           exact_cutoff=exact_cutoff).count)
        counts.append(row)
    return counts


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
