"""Deterministic example constructions used as ground truth in tests.

Every generator is a pure function of its parameters: identical inputs
produce bit-identical clouds.  Coordinates are dyadic rationals wherever
possible (exact in binary floating point); the triadic Cantor endpoints are
the documented exception and rely on the global tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .cloud import PointCloud, Subset
from .config import DEFAULT_TOL, _checked_object
from .regular import RegularFamily, label_str, parse_label


def cantor_cloud(level: int) -> PointCloud:
    """Left endpoints of the level-th triadic Cantor construction (2^level points)."""
    if not 1 <= level <= 14:
        raise ValueError("level must be in 1..14")
    nums = np.zeros(1, dtype=np.int64)
    for _ in range(level):
        nums = np.concatenate([nums * 3, nums * 3 + 2])
    nums.sort()
    return PointCloud(nums / 3.0 ** level, metric="euclidean",
                      meta={"kind": "cantor", "level": level})


def dyadic_interval_cloud(resolution: int) -> PointCloud:
    """The grid {i * 2^-resolution : 0 <= i <= 2^resolution} on [0, 1]."""
    if not 1 <= resolution <= 16:
        raise ValueError("resolution must be in 1..16")
    pts = np.arange(2 ** resolution + 1, dtype=float) / 2.0 ** resolution
    return PointCloud(pts, metric="euclidean",
                      meta={"kind": "dyadic-grid", "resolution": resolution})


def interval_plus_point_cloud(resolution: int) -> PointCloud:
    """Dyadic grid on [0, 1] together with the isolated point 2."""
    if not 1 <= resolution <= 16:
        raise ValueError("resolution must be in 1..16")
    grid = np.arange(2 ** resolution + 1, dtype=float) / 2.0 ** resolution
    pts = np.concatenate([grid, [2.0]])
    return PointCloud(pts, metric="euclidean",
                      meta={"kind": "interval-plus-point", "resolution": resolution})


def polarized_example_cloud(depth: int) -> PointCloud:
    """The discrete cloud of all binary-label partial sums up to ``depth``.

    Carries the label-to-index map in ``meta`` so the natural family
    labeling can be reconstructed; see :func:`polarized_natural_family`.
    """
    if not 1 <= depth <= 12:
        raise ValueError("depth must be in 1..12")
    # label to coordinate: each digit c at position i adds (2c-1) * 2^(-2i-1)
    values = {(): 0.0}
    frontier = [()]
    for n in range(depth):
        step = 2.0 ** (-2 * n - 1)
        nxt = []
        for s in frontier:
            for c in (0, 1):
                values[s + (c,)] = values[s] + (2 * c - 1) * step
                nxt.append(s + (c,))
        frontier = nxt
    coords = sorted(set(values.values()))
    if len(coords) != len(values):
        raise AssertionError("polarized values collided; generator bug")
    index_of_value = {v: i for i, v in enumerate(coords)}
    labels = {label_str(lab): index_of_value[v] for lab, v in values.items()}
    return PointCloud(np.asarray(coords), metric="euclidean",
                      meta={"kind": "polarized", "depth": depth, "labels": labels})


def polarized_natural_family(depth: int) -> Tuple[PointCloud, RegularFamily]:
    """The cloud together with its natural (2, 2) labeling as a family."""
    cloud = polarized_example_cloud(depth)
    assign = {parse_label(text): idx for text, idx in cloud.meta["labels"].items()}
    return cloud, RegularFamily(2, 2, depth, False, assign)


def union_cloud(a: PointCloud, b: PointCloud, offset: float) -> PointCloud:
    """Disjoint union: ``a`` plus ``b`` translated by ``offset`` in coordinate 0.

    Point order is the points of ``a`` followed by translated ``b``; each
    point's origin is recorded in ``meta['origin']``.
    """
    if a.metric == "matrix" or b.metric == "matrix":
        raise ValueError("union requires coordinate clouds")
    if a.metric != b.metric or a.dim != b.dim:
        raise ValueError("clouds must share a metric mode")
    shifted = b.coords.copy()
    shifted[:, 0] += offset
    pts = np.concatenate([a.coords, shifted])
    try:
        return PointCloud(pts, metric=a.metric,
                          meta={"kind": "union", "offset": offset,
                                "origin": [0] * a.n + [1] * b.n})
    except ValueError as exc:
        raise ValueError(f"collision after translation by {offset}: {exc}") from exc


def neighborhood_cascade(cloud: PointCloud, center: int, epsilon: float,
                         depth: int, tol: float = DEFAULT_TOL) -> Subset:
    """Iterated open-ball neighborhood of a point, a discrete cascade.

    V_1 is the open epsilon-ball at the center; V_{n+1} adds everything
    within (open) epsilon^{n+1} of V_n.  Open balls are realized as strict
    inequalities shifted by tol.  The result always contains the center and
    is contained in the closed 2*epsilon-ball (the radii sum below 2*eps).
    """
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must lie strictly between 0 and 1/2")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    cloud._check_index(center)
    inside = cloud.distances_from(center) < epsilon - tol
    inside[center] = True
    for n in range(2, depth + 1):
        radius = epsilon ** n
        for v in np.flatnonzero(inside):
            inside |= cloud.distances_from(v) < radius - tol
    return Subset(cloud, np.flatnonzero(inside))


# The one-parameter kinds: each one's generator and the spec field it reads.
_ONE_PARAMETER = {
    "cantor": (cantor_cloud, "level"),
    "dyadic-grid": (dyadic_interval_cloud, "resolution"),
    "interval-plus-point": (interval_plus_point_cloud, "resolution"),
    "polarized": (polarized_example_cloud, "depth"),
}

# Every key of a spec's JSON form, with the value it must hold.
_SPEC_FIELDS = {"kind": "a string", "level": "an integer", "resolution": "an integer",
                "depth": "an integer", "center": "an integer", "offset": "a number",
                "epsilon": "a number", "components": "a list of two", "base": "an object"}


@dataclass(frozen=True)
class GeneratorSpec:
    """Serializable description of one generated cloud.

    ``union`` composes two nested specs at an offset; ``cascade`` grows an
    iterated neighborhood inside a nested base spec and keeps its points.
    """

    kind: str
    level: Optional[int] = None
    resolution: Optional[int] = None
    depth: Optional[int] = None
    offset: Optional[float] = None
    epsilon: Optional[float] = None
    center: Optional[int] = None
    components: Optional[Tuple["GeneratorSpec", "GeneratorSpec"]] = None
    base: Optional["GeneratorSpec"] = None

    KINDS = (*_ONE_PARAMETER, "union", "cascade")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")

    def build(self) -> PointCloud:
        if self.kind in _ONE_PARAMETER:
            make, name = _ONE_PARAMETER[self.kind]
            if getattr(self, name) is None:
                raise ValueError(f"{self.kind} requires {name}")
            return make(getattr(self, name))
        if self.kind == "union":
            if self.components is None or self.offset is None:
                raise ValueError("union requires components and offset")
            a, b = self.components
            return union_cloud(a.build(), b.build(), self.offset)
        if self.base is None or self.center is None or self.epsilon is None \
                or self.depth is None:
            raise ValueError("cascade requires base, center, epsilon, and depth")
        cloud = self.base.build()
        sub = neighborhood_cascade(cloud, self.center, self.epsilon, self.depth)
        return PointCloud(cloud.coords[sub.indices], metric=cloud.metric,
                          meta={"kind": "cascade", "center": self.center,
                                "epsilon": self.epsilon, "depth": self.depth})

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for name in ("level", "resolution", "depth", "offset", "epsilon", "center"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.components is not None:
            out["components"] = [c.to_dict() for c in self.components]
        if self.base is not None:
            out["base"] = self.base.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorSpec":
        """The spec a JSON object describes; malformed input raises ValueError."""
        data = _checked_object(data, "generator spec", _SPEC_FIELDS, required=("kind",))
        if "components" in data:
            a, b = data["components"]
            data["components"] = (cls.from_dict(a), cls.from_dict(b))
        if "base" in data:
            data["base"] = cls.from_dict(data["base"])
        return cls(**data)
