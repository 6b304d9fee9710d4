"""Finite trees of integer sequences and their embedding into l1 clouds.

Each tree node u gets two fresh coordinate indices (2*ord(u) and
2*ord(u)+1, with ord taken from the breadth-first, label-sorted node
enumeration).  A node at depth n+1 doubles every vector of its parent by
adding 2^(-2n-1) on one of its two coordinates, so distinct recursion
levels touch distinct coordinates and l1 distances inside the construction
are exact sums of the injected magnitudes.  Long branches of the tree then
carry deep (2, 2)-regular certificates.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .cloud import PointCloud
from .config import DEFAULT_BUDGET, DEFAULT_TOL
from .regular import RegularFamily, SearchResult, label_str, search_regular

Node = Tuple[int, ...]


@dataclass(frozen=True)
class SparseVec:
    """Finitely supported vector: sorted (index, value) pairs, no stored zeros."""

    entries: Tuple[Tuple[int, float], ...]

    @classmethod
    def zero(cls) -> "SparseVec":
        return cls(())

    @classmethod
    def from_dict(cls, data: Dict[int, float]) -> "SparseVec":
        items = tuple(sorted((int(i), float(v)) for i, v in data.items() if v != 0.0))
        if any(i < 0 for i, _ in items):
            raise ValueError("indices must be nonnegative")
        return cls(items)

    def with_unit(self, index: int, scale: float) -> "SparseVec":
        """This vector plus ``scale`` times the unit vector at a fresh index."""
        if any(i == index for i, _ in self.entries):
            raise ValueError(f"coordinate {index} already used")
        return SparseVec(tuple(sorted(self.entries + ((index, scale),))))

    def l1_norm(self) -> float:
        return sum(abs(v) for _, v in self.entries)

    def l1_distance(self, other: "SparseVec") -> float:
        a = dict(self.entries)
        b = dict(other.entries)
        return sum(abs(a.get(i, 0.0) - b.get(i, 0.0)) for i in set(a) | set(b))

    def to_dense(self, dim: int) -> np.ndarray:
        out = np.zeros(dim)
        for i, v in self.entries:
            out[i] = v
        return out


class FiniteTree:
    """Prefix-closed finite set of finite natural-number sequences."""

    def __init__(self, nodes: Iterable[Sequence[int]]):
        seen = set()
        for node in nodes:
            entries = tuple(node)
            if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool)
                       for x in entries):
                raise ValueError(f"tree node {node!r} must hold integers")
            tup = tuple(int(x) for x in entries)
            if any(x < 0 for x in tup):
                raise ValueError("node labels must be nonnegative integers")
            seen.add(tup)
        if () not in seen:
            raise ValueError("tree must contain the empty sequence")
        for node in seen:
            for cut in range(1, len(node)):
                if node[:cut] not in seen:
                    raise ValueError(f"tree is not prefix-closed: missing {node[:cut]}")
        self.nodes: Tuple[Node, ...] = tuple(sorted(seen, key=lambda u: (len(u), u)))
        self._ord = {u: i for i, u in enumerate(self.nodes)}
        self._vectors: Dict[Node, Tuple[SparseVec, ...]] = {}

    @classmethod
    def single_branch(cls, length: int, label: int = 0) -> "FiniteTree":
        return cls([(label,) * i for i in range(length + 1)])

    @classmethod
    def full_tree(cls, depth: int, arity: int) -> "FiniteTree":
        nodes: List[Node] = [()]
        frontier: List[Node] = [()]
        for _ in range(depth):
            frontier = [u + (c,) for u in frontier for c in range(arity)]
            nodes.extend(frontier)
        return cls(nodes)

    def __contains__(self, node) -> bool:
        return tuple(node) in self._ord

    def __len__(self) -> int:
        return len(self.nodes)

    def max_node_length(self) -> int:
        return max(len(u) for u in self.nodes)

    def order(self, node: Node) -> int:
        """Position in the breadth-first, label-sorted enumeration."""
        try:
            return self._ord[tuple(node)]
        except KeyError:
            raise ValueError(f"node {node!r} not in tree") from None


def coordinate_index(tree: FiniteTree, node: Node, bit: int) -> int:
    """The fresh l1 coordinate reserved for (node, bit); injective per tree."""
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    return 2 * tree.order(node) + bit


def node_vectors(tree: FiniteTree, node: Node) -> Tuple[SparseVec, ...]:
    """The 2^len(node) vectors attached to ``node``, in recursion order."""
    node = tuple(node)
    if node not in tree:
        raise ValueError(f"node {node!r} not in tree")
    cached = tree._vectors.get(node)
    if cached is not None:
        return cached
    if node == ():
        vecs: Tuple[SparseVec, ...] = (SparseVec.zero(),)
    else:
        parent_vecs = node_vectors(tree, node[:-1])
        scale = 2.0 ** (-2 * (len(node) - 1) - 1)
        vecs = tuple(x.with_unit(coordinate_index(tree, node, i), scale)
                     for x in parent_vecs for i in (0, 1))
    tree._vectors[node] = vecs
    return vecs


def sparse_cloud(vecs: Sequence[SparseVec], meta: Optional[dict] = None) -> PointCloud:
    """An l1 cloud from finitely supported vectors (densified internally)."""
    vecs = list(vecs)
    if not vecs:
        raise ValueError("need at least one vector")
    dim = max((i for v in vecs for i, _ in v.entries), default=-1) + 1
    rows = np.asarray([v.to_dense(max(dim, 1)) for v in vecs])
    return PointCloud(rows, metric="l1", meta=meta)


def embed_tree(tree: FiniteTree) -> PointCloud:
    """The l1 cloud of all vectors attached to all nodes (no collisions occur)."""
    vecs = []
    owners = []
    for node in tree.nodes:
        for vec in node_vectors(tree, node):
            vecs.append(vec)
            owners.append(label_str(node))
    cloud = sparse_cloud(vecs, meta={"kind": "tree-embedding", "point_node": owners,
                                     "tree_nodes": [list(u) for u in tree.nodes]})
    return cloud


def branch_family(tree: FiniteTree, branch: Node, depth: int,
                  cloud: Optional[PointCloud] = None) -> RegularFamily:
    """The explicit (2, 2) certificate carried by a branch of the tree.

    Point indices refer to ``embed_tree(tree)``; a ``cloud``, if given, must
    have its point count.  Distances along the construction are exact: the
    two children of a level-n label sit 2^(-2n-1) from their parent on
    disjoint coordinates.  The embedding lists the 2^len(u) vectors of each
    node u in node order, and the binary digits of a vector's position
    among them are its coordinate choices along u's path, first step
    first.  So label s of length n is point ``start(branch[:n]) + int(s,
    base 2)``, where ``start(u)`` counts the vectors of the nodes before u.
    """
    branch = tuple(branch)
    if branch not in tree:
        raise ValueError(f"branch {branch!r} not in tree")
    if len(branch) < depth:
        raise ValueError(f"branch of length {len(branch)} too short for depth {depth}")
    start = {}
    total = 0
    for node in tree.nodes:
        start[node] = total
        total += 2 ** len(node)
    if cloud is not None and cloud.n != total:
        raise ValueError("cloud does not match the embedding of this tree")
    assign = {s: start[branch[:n]] + int("0" + "".join(map(str, s)), 2)
              for n in range(depth + 1) for s in itertools.product((0, 1), repeat=n)}
    return RegularFamily(2, 2, depth, False, assign)


def max_regular_depth(cloud: PointCloud, k: int, l: int, cap: int,
                      budget: int = DEFAULT_BUDGET, strong: bool = False,
                      tol: float = DEFAULT_TOL) -> Tuple[int, bool]:
    """Largest depth <= cap at which a certificate exists, plus a budget flag.

    Truncation closes the family class, so depths are tried in increasing
    order and the first failure is conclusive unless some search exhausted
    its budget (then the value is only a lower bound and the flag is True).
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    exhausted = False
    best = -1
    for depth in range(cap + 1):
        res: SearchResult = search_regular(cloud, k, l, depth, strong=strong,
                                           budget=budget, tol=tol)
        exhausted = exhausted or res.exhausted
        if res.family is None:
            break
        best = depth
    return best, exhausted
