"""Output checks that do not use the fracdim library.

Each check takes a job's stdout and returns None when the output is right,
or a one-line reason when it is not.  Stdout is never compared by digest,
because it echoes the `--out` paths.  Counts are recomputed by the small
oracles below, and certificates are re-checked against the (k, l)
definition in plain numpy.
"""
from __future__ import annotations

import bisect
import functools
import json
import math
from pathlib import Path
from typing import List, Optional

import numpy as np

TOL = 1e-12          # the program's default absolute tolerance
SAMPLE_ROWS = 160    # estimate rows recomputed per job, evenly spaced in the table


def _load(text: str):
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


# ------------------------------------------------------------- estimates

def window_pairs(window: dict, diam: float) -> List[tuple]:
    """(R, r) grid pairs, R descending then r ascending, R/r >= min_gap, R <= diam."""
    scales = []
    s = window["r_min"]
    while s <= window["r_max"] * (1 + 1e-9):
        scales.append(s)
        s *= window["ratio"]
    return [(R, r) for R in reversed(scales) if R <= diam + TOL
            for r in scales if r < R and R / r >= window["min_gap"] * (1 - 1e-9)]


class SweepOracle:
    """Covering count of a ball in a sorted 1-D cloud by the left-to-right sweep."""

    def __init__(self, points: List[float]):
        self.x = list(points)
        self.n = len(self.x)
        self.diam = self.x[-1] - self.x[0]

    def count(self, center: int, R: float, r: float) -> int:
        x = self.x
        lo = bisect.bisect_left(x, x[center] - R - TOL)
        hi = bisect.bisect_right(x, x[center] + R + TOL)
        parts = 0
        while lo < hi:
            parts += 1
            lo = bisect.bisect_right(x, x[lo] + r + TOL, lo, hi)
        return parts


class GreedyOracle:
    """Greedy cover of a ball: each part starts at the lowest uncovered index
    and takes, in index order, every point within r of all its members."""

    def __init__(self, points: List[List[float]]):
        self.p = np.asarray(points, dtype=float)
        self.n = self.p.shape[0]

    @functools.cached_property
    def d(self) -> np.ndarray:
        dx = self.p[:, None, 0] - self.p[None, :, 0]
        dy = self.p[:, None, 1] - self.p[None, :, 1]
        return np.sqrt(dx * dx + dy * dy)

    @property
    def diam(self) -> float:
        return float(self.d.max())

    def count(self, center: int, R: float, r: float) -> int:
        remaining = [int(i) for i in np.flatnonzero(self.d[center] <= R + TOL)]
        parts = 0
        while remaining:
            part = [remaining[0]]
            for t in remaining[1:]:
                if all(self.d[t, u] <= r + TOL for u in part):
                    part.append(t)
            taken = set(part)
            remaining = [i for i in remaining if i not in taken]
            parts += 1
        return parts


def check_estimate(text: str, oracle, mode: str) -> Optional[str]:
    rep, err = _load(text)
    if err:
        return err
    if rep.get("mode") != mode:
        return f"mode {rep.get('mode')!r}, expected {mode!r}"
    pairs = window_pairs(rep["window"], oracle.diam)
    table = rep["table"]
    if len(table) != oracle.n * len(pairs):
        return f"{len(table)} table rows, expected {oracle.n} centers x {len(pairs)} pairs"
    best = None
    for pos, row in enumerate(table):
        R, r = pairs[pos % len(pairs)]
        if (row["center"], row["R"], row["r"]) != (pos // len(pairs), R, r):
            return f"row {pos} is {row['center']},{row['R']},{row['r']}, out of order"
        if not math.isclose(row["exponent"], math.log(row["count"]) / math.log(R / r),
                            rel_tol=1e-12, abs_tol=1e-15):
            return f"row {pos}: exponent does not match its count"
        if best is None or row["exponent"] < best[0]:
            best = (row["exponent"], row)
    if rep["alpha_hat"] != best[0]:
        return f"alpha_hat {rep['alpha_hat']} is not the table minimum {best[0]}"
    arg = best[1]
    if rep["argmin"] != {"center": arg["center"], "R": arg["R"], "r": arg["r"]}:
        return "argmin is not the first minimal row"
    step = max(1, len(table) // SAMPLE_ROWS)
    for pos in list(range(0, len(table), step)) + [table.index(arg)]:
        row = table[pos]
        want = oracle.count(row["center"], row["R"], row["r"])
        if row["count"] != want:
            return f"row {pos}: count {row['count']}, oracle {want}"
    return None


# ----------------------------------------------------------- certificates

def _cloud(path: Path):
    data = json.loads(Path(path).read_text())
    return np.asarray(data["points"], dtype=float), data["metric"]


def _dist(p: np.ndarray, metric: str, i: int, idx: np.ndarray) -> np.ndarray:
    diff = p[idx] - p[i]
    if metric == "l1":
        return np.abs(diff).sum(axis=1)
    return np.sqrt((diff * diff).sum(axis=1))


def certificate_error(cloud_path: Path, cert_path: Path) -> Optional[str]:
    """Check a certificate file against the (k, l)-regular definition."""
    p, metric = _cloud(cloud_path)
    cert = json.loads(Path(cert_path).read_text())
    k, l, depth, strong = cert["k"], cert["l"], cert["depth"], cert["strong"]
    assign = {tuple(int(c) for c in s.split(".")) if s else (): int(i)
              for s, i in cert["assign"].items()}
    levels = [[()]]
    for _ in range(depth):
        levels.append([s + (c,) for s in levels[-1] for c in range(l)])
    if set(assign) != {s for level in levels for s in level}:
        return "certificate labels are not l^{<=depth}"
    if any(not 0 <= i < len(p) for i in assign.values()):
        return "certificate index out of range"
    for n in range(depth):
        for s in levels[n]:
            kids = np.asarray([assign[s + (c,)] for c in range(l)])
            if np.any(_dist(p, metric, assign[s], kids) > 2.0 ** (-k * n - 1) + TOL):
                return f"child of {s} too far at level {n}"
            if strong and assign[s + (0,)] != assign[s]:
                return f"strong family moves the 0-child of {s}"
    for n in range(1, depth + 1):
        idx = np.asarray([assign[s] for s in levels[n]])
        for a in range(len(idx) - 1):
            if np.any(_dist(p, metric, idx[a], idx[a + 1:]) < 2.0 ** (-k * n + 2) - TOL):
                return f"level {n} labels closer than the separation"
    return None


def check_found(text: str, cloud_path: Path, cert_path: Path, k: int, l: int,
                depth: int, strong: bool) -> Optional[str]:
    out, err = _load(text)
    if err:
        return err
    if out.get("found") is not True:
        return f"certificate not found: {out.get('reason')}"
    if (out["k"], out["l"], out["depth"], out["strong"]) != (k, l, depth, strong):
        return "certify echoed other parameters"
    if not math.isclose(out["bound"], math.log2(l) / k, rel_tol=1e-15):
        return f"bound {out['bound']} is not log2(l)/k"
    return certificate_error(cloud_path, cert_path)


def check_absent(text: str) -> Optional[str]:
    out, err = _load(text)
    if err:
        return err
    if out.get("found") is not False or out.get("reason") != "absent":
        return f"expected a proven absence, got {out.get('found')} / {out.get('reason')}"
    return None


def check_verified(text: str, k: int, l: int) -> Optional[str]:
    out, err = _load(text)
    if err:
        return err
    if out.get("ok") is not True or out.get("violations") != []:
        return "verify reported violations"
    if not math.isclose(out["bound"], math.log2(l) / k, rel_tol=1e-15):
        return f"bound {out['bound']} is not log2(l)/k"
    if out.get("scaling_check") is not True:
        return "scaling check failed"
    return None


def check_embed(text: str, nodes: List[List[int]], depth: int,
                cloud_path: Path) -> Optional[str]:
    out, err = _load(text)
    if err:
        return err
    points = sum(2 ** len(u) for u in nodes)
    if (out.get("nodes"), out.get("points")) != (len(nodes), points):
        return f"embed reports {out.get('nodes')} nodes / {out.get('points')} points"
    if out.get("scan_exhausted") is not False:
        return "depth scan exhausted its budget"
    if out.get("max_regular_depth") != depth or out.get("scan_cap") != depth + 2:
        return f"depth scan found {out.get('max_regular_depth')}, longest branch {depth}"
    p, metric = _cloud(cloud_path)
    if metric != "l1" or len(p) != points:
        return "embedded cloud has the wrong metric or size"
    return None
