"""Scale-window estimates of the lower dimension and certified lower bounds.

The estimator replaces the supremum over the constant C by fixing C = 1 and
requiring a minimum scale gap R/r; the reported value is then a plain
minimum of per-scale exponents rather than a regression fit, matching the
"for all scales" quantifier shape of the definition.  A finite cloud has
true lower dimension 0, so every report carries its window explicitly and
must be read as a scale-window quantity.

Every count N_r(B(x, R)) comes from the one ball-count kernel,
:func:`fracdim.covering._ball_counts`, over the whole cloud.  On 1-D
coordinate clouds (both metrics are |x - y| there) it takes the covering
sweep's doubling table, so both modes get exact counts with no witness parts
built.  On other clouds it builds one bitset relation per grid scale, and
no distance matrix.  Greedy mode takes the kernel's own greedy counts: the
scans of all balls that share an r run together in one pass over the
points.  Exact mode hands this module's ``count`` the relation at r and
the ball B(x, R) as a mask, one ball at a time in table order, and
``count`` is the exact cover solver within that mask.  The table stays in
columns, as (centers x pairs) arrays, up to the output text.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cloud import PointCloud
from .config import DEFAULT_BUDGET, DEFAULT_EXACT_CUTOFF, DEFAULT_TOL, Records
from .covering import _ball_counts, _min_clique_cover, _refuse_above_cutoff
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
        for name, value in self.to_dict().items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
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

    ``counts[x, p]`` is N_r(B(x, R)) at center x and pair ``pairs[p] = (R, r)``, and
    ``exponents[x, p]`` is ``log N / log(R / r)``.  ``alpha_hat`` is the least exponent
    and ``argmin`` the first (center, R, r) attaining it, centers then pairs ascending.
    """

    alpha_hat: float
    argmin: Optional[Tuple[int, float, float]]
    pairs: List[Tuple[float, float]]
    counts: np.ndarray
    exponents: np.ndarray
    window: ScaleWindow
    mode: str

    @property
    def table(self) -> List[Tuple[int, float, float, int, float]]:
        """Every row (center, R, r, count, exponent), in table order."""
        rows = zip(self.counts.tolist(), self.exponents.tolist())
        return [(center, R, r, count, exponent) for center, (counts, exponents) in enumerate(rows)
                for (R, r), count, exponent in zip(self.pairs, counts, exponents)]

    def __eq__(self, other) -> bool:
        fields = lambda rep: (rep.alpha_hat, rep.argmin, rep.table, rep.window, rep.mode)
        return type(other) is EstimateReport and fields(self) == fields(other)

    def to_dict(self) -> dict:
        n, p = self.counts.shape
        big, small = np.array(self.pairs, dtype=float).reshape(p, 2).T
        return {
            "alpha_hat": self.alpha_hat,
            "argmin": None if self.argmin is None else
            {"center": self.argmin[0], "R": self.argmin[1], "r": self.argmin[2]},
            "window": self.window.to_dict(),
            "mode": self.mode,
            "semantics": SEMANTICS_NOTE,
            "table": Records(("center", "R", "r", "count", "exponent"),
                             (np.repeat(np.arange(n), p), np.tile(big, n), np.tile(small, n),
                              self.counts.ravel(), self.exponents.ravel())),
        }


def lower_dim_estimate(cloud: PointCloud, window: ScaleWindow, mode: str = "exact",
                       tol: float = DEFAULT_TOL,
                       exact_cutoff: int = DEFAULT_EXACT_CUTOFF) -> EstimateReport:
    """Minimum covering exponent over all centers and admissible scale pairs.

    Returns 0 with an empty table when no grid pair fits below the cloud
    diameter (the empty-set convention).  Greedy covering counts are upper
    bounds on N_r, so greedy mode can only raise the estimate.  1-D counts
    are exact in both modes.  Exact mode refuses the first ball, in table
    order, above the cutoff.
    """
    if mode not in ("exact", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    # an entry of the diameter's own kernel: when no scale exceeds it, capping at
    # it keeps what capping at the diameter keeps, without a pass over every pair
    reach = float(cloud.distances_from(0).max())
    cap = reach if not window.scales()[-1] > reach + tol else cloud.diam()
    pairs = window.pairs(diam_cap=cap, tol=tol)

    def exact_count(rows: List[int], ball: int) -> int:
        _refuse_above_cutoff("covering", ball.bit_count(), exact_cutoff)
        return len(_min_clique_cover(rows, ball))

    counts = _ball_counts(cloud, np.arange(cloud.n), pairs, tol,
                          exact_count if mode == "exact" else None)
    exponents = np.empty(counts.shape)
    for p, (R, r) in enumerate(pairs):   # one log per distinct count at each pair
        distinct, at = np.unique(counts[:, p], return_inverse=True)
        exponents[:, p] = np.array([math.log(c) / math.log(R / r) for c in distinct.tolist()])[at]
    if not counts.size:
        return EstimateReport(0.0, None, pairs, counts, exponents, window, mode)
    center, p = divmod(int(np.argmin(exponents)), len(pairs))   # row-major: the first minimum
    return EstimateReport(float(exponents[center, p]), (center, *pairs[p]), pairs, counts,
                          exponents, window, mode)


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
