"""Seeded inputs and the job list of each workload.

Every generator is a pure function of the seed and writes only the input
files the program reads; the program never sees the seed.  Sizes are fixed
for every seed, and the random choices only move structure around (which
side of a split is dense, where a ladder sits, how a tree branches), so the
amount of work barely depends on the seed and timings compare across seeds.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import checks

# estimate-1d: a random Cantor-type ladder of 4097 dyadic points in [0, 1)
# plus one isolated far point, the size and shape of the ipp12 baseline
# (4098 points, 40,980 table rows, about 5 MB of JSON on stdout).
LADDER_LOG_SLOTS = 16          # coordinates are multiples of 2^-16: exact in binary
LADDER_POINTS = 4097
LADDER_GAP_LOGS = (15, 12, 9, 6)   # block sizes (log2 slots) that lose their middle half
FAR_POINT = 2.0

# estimate-2d: distinct points of the 1024 x 1024 dyadic grid in the unit
# square.  Squared distances are exact, so the oracle's distances match the
# program's bit for bit.
PLANE_POINTS = 400
PLANE_GRID = 1024

# certify-verify: the polarized ladder and a random tree.  Depth 10 of the
# ladder took 126 s in `verify --scaling`, full_tree(5, 2) (1,365 embedded
# points) 215 s in `embed --depth-scan`; both sizes stay well below that.
POLARIZED_DEPTH = 8
POLARIZED_OFFSET_STEPS = 256   # offsets are multiples of 2^-8
TREE_LEVEL_SIZES = (3, 5, 6, 6, 4)  # nodes per depth; 299 embedded points for every seed
TREE_LABELS = 3
TREE_POINT_CAP = 341           # the embedded size of full_tree(4, 2)

ESTIMATE_1D_WINDOW = ("0.015625", "0.5")    # 2^-6 .. 2^-1
ESTIMATE_2D_WINDOW = ("0.03125", "0.5")     # 2^-5 .. 2^-1


@dataclass
class Job:
    """One `fracdim` invocation and the check its output must pass."""

    argv: List[str]
    expect_exit: int
    check: Callable[[str], Optional[str]]   # stdout -> error message or None

    @property
    def command(self) -> str:
        return self.argv[0]


# ------------------------------------------------------------ generators

def ladder_points(rng: random.Random) -> List[float]:
    """Sorted ladder: budgeted dyadic splits with fixed middle gaps and random orientation."""
    out: List[int] = []

    def split(lo: int, log_c: int, budget: int) -> None:
        if budget == 0:
            return
        if log_c == 0:
            out.append(lo)
            return
        size = 1 << log_c
        if log_c in LADDER_GAP_LOGS and budget <= size // 4:
            first = budget // 2 + (budget % 2) * rng.randrange(2)
            split(lo, log_c - 2, first)
            split(lo + 3 * size // 4, log_c - 2, budget - first)
            return
        half = size // 2
        # elsewhere the denser half takes 3/5 of the block's points
        major = min(half, max(budget - half, -(-3 * budget // 5)))
        minor = budget - major
        left, right = (major, minor) if rng.random() < 0.5 else (minor, major)
        split(lo, log_c - 1, left)
        split(lo + half, log_c - 1, right)

    split(0, LADDER_LOG_SLOTS, LADDER_POINTS)
    if len(out) != LADDER_POINTS:
        raise AssertionError("ladder generator lost points")
    return [i / 2.0 ** LADDER_LOG_SLOTS for i in out] + [FAR_POINT]


def plane_points(rng: random.Random) -> List[List[float]]:
    cells = rng.sample(range(PLANE_GRID * PLANE_GRID), PLANE_POINTS)
    return [[(c // PLANE_GRID) / PLANE_GRID, (c % PLANE_GRID) / PLANE_GRID] for c in cells]


def polarized_points(rng: random.Random) -> List[float]:
    """The polarized ladder (label digit c at position i adds (2c-1) 2^(-2i-1)),
    reflected or not, shifted by a dyadic offset, sorted ascending."""
    values = [0.0]
    frontier = [0.0]
    for n in range(POLARIZED_DEPTH):
        step = 2.0 ** (-2 * n - 1)
        frontier = [v + (2 * c - 1) * step for v in frontier for c in (0, 1)]
        values.extend(frontier)
    sign = rng.choice((-1.0, 1.0))
    offset = rng.randrange(POLARIZED_OFFSET_STEPS) / POLARIZED_OFFSET_STEPS
    coords = sorted(offset + sign * v for v in values)
    if len(set(coords)) != len(coords):
        raise AssertionError("polarized values collided")
    return coords


def tree_nodes(rng: random.Random) -> List[List[int]]:
    """Random prefix-closed tree with TREE_LEVEL_SIZES nodes per depth."""
    levels = [[()]]
    for size in TREE_LEVEL_SIZES:
        slots = [p + (c,) for p in levels[-1] for c in range(TREE_LABELS)]
        levels.append(sorted(rng.sample(slots, size)))
    nodes = [list(u) for level in levels for u in level]
    if embedded_points(nodes) > TREE_POINT_CAP:
        raise AssertionError("tree exceeds the embedded point cap")
    return nodes


def embedded_points(nodes: List[List[int]]) -> int:
    """Points of the l1 embedding: a node of length n carries 2^n vectors."""
    return sum(2 ** len(u) for u in nodes)


# ------------------------------------------------------------- workloads

def _write(path: Path, obj) -> None:
    path.write_text(json.dumps(obj))


def _estimate_1d(rng: random.Random, work: Path) -> List[Job]:
    points = ladder_points(rng)
    cloud = work / "ladder.json"
    _write(cloud, {"metric": "euclidean", "points": [[x] for x in points]})
    r_min, r_max = ESTIMATE_1D_WINDOW
    oracle = checks.SweepOracle(points)
    return [Job(["estimate", str(cloud), "--r-min", r_min, "--r-max", r_max], 0,
                lambda out: checks.check_estimate(out, oracle, "exact"))]


def _estimate_2d(rng: random.Random, work: Path) -> List[Job]:
    points = plane_points(rng)
    cloud = work / "plane.json"
    _write(cloud, {"metric": "euclidean", "points": points})
    r_min, r_max = ESTIMATE_2D_WINDOW
    oracle = checks.GreedyOracle(points)
    # --mode is pinned: the default exact mode exits 2 on generic clouds.
    return [Job(["estimate", str(cloud), "--r-min", r_min, "--r-max", r_max,
                 "--mode", "greedy"], 0,
                lambda out: checks.check_estimate(out, oracle, "greedy"))]


def _certify_verify(rng: random.Random, work: Path) -> List[Job]:
    pol = work / "polarized.json"
    pol_points = [[x] for x in polarized_points(rng)]
    _write(pol, {"metric": "euclidean", "points": pol_points})
    nodes = tree_nodes(rng)
    tree = work / "tree.json"
    _write(tree, nodes)
    depth = max(len(u) for u in nodes)   # the longest branch carries the deepest family
    tree_cloud = work / "tree_cloud.json"
    pol_cert, strong_cert, tree_cert = (work / "polarized_cert.json",
                                        work / "polarized_strong.json",
                                        work / "tree_cert.json")
    d = str(POLARIZED_DEPTH)
    return [
        Job(["certify", str(pol), "--k", "2", "--l", "2", "--depth", d, "--out", str(pol_cert)], 0,
            lambda out: checks.check_found(out, pol, pol_cert, 2, 2, POLARIZED_DEPTH, False)),
        Job(["certify", str(pol), "--k", "2", "--l", "2", "--depth", d, "--strong",
             "--out", str(strong_cert)], 3, checks.check_absent),
        Job(["verify", str(pol), str(pol_cert), "--scaling"], 0,
            lambda out: checks.check_verified(out, 2, 2)),
        Job(["embed", str(tree), "--out", str(tree_cloud), "--depth-scan"], 0,
            lambda out: checks.check_embed(out, nodes, depth, tree_cloud)),
        Job(["certify", str(tree_cloud), "--k", "2", "--l", "2", "--depth", str(depth),
             "--out", str(tree_cert)], 0,
            lambda out: checks.check_found(out, tree_cloud, tree_cert, 2, 2, depth, False)),
        Job(["verify", str(tree_cloud), str(tree_cert), "--scaling"], 0,
            lambda out: checks.check_verified(out, 2, 2)),
    ]


WORKLOADS = {
    "estimate-1d": _estimate_1d,
    "estimate-2d": _estimate_2d,
    "certify-verify": _certify_verify,
}


def build(name: str, seed: int, work: Path) -> List[Job]:
    """Write the workload's input files for ``seed`` under ``work``; return its jobs."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work)
