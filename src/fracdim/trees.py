"""Finite trees of integer sequences and their embedding into l1 clouds.

Each tree node u gets two fresh coordinate indices (2*ord(u) and
2*ord(u)+1, with ord(u) its position in the breadth-first, label-sorted
node enumeration ``tree.nodes``).  A node at depth n+1 doubles every
vector of its parent by adding 2^(-2n-1) on one of its two coordinates, so
distinct recursion levels touch distinct coordinates and l1 distances
inside the construction are exact sums of the injected magnitudes.  Long branches of the tree then
carry deep (2, 2)-regular certificates.
"""
from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .cloud import PointCloud
from .config import DEFAULT_BUDGET, DEFAULT_TOL, label_str
from .regular import RegularFamily, SearchResult, _Search, search_regular

Node = Tuple[int, ...]

# float64 values an embedding may hold (1 GiB), as a branch doubles the points at each
# level.  Chosen from memory, not measured; full_tree(8, 2), 87,381 x 1,022, fits.
_EMBED_CAP = 2 ** 27


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
        self._members = frozenset(seen)

    @classmethod
    def from_json(cls, data) -> "FiniteTree":
        """The tree a tree file's JSON value describes: a list of integer arrays."""
        if not (isinstance(data, list) and all(isinstance(node, list) for node in data)):
            raise ValueError("tree file must hold a JSON list of integer arrays")
        return cls(data)

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
        return tuple(node) in self._members

    def __len__(self) -> int:
        return len(self.nodes)

    def max_node_length(self) -> int:
        return max(len(u) for u in self.nodes)


def embed_tree(tree: FiniteTree) -> PointCloud:
    """The l1 cloud of all vectors attached to all nodes (no collisions occur).

    Node ``tree.nodes[i]`` owns columns 2i and 2i + 1.  The root's block is
    one zero row; every later node's block repeats each row of its parent's
    block twice and writes 2^(1 - 2 len(u)) at column 2i on the even rows
    and at column 2i + 1 on the odd rows.  The blocks are stacked in node
    order.  A one-node tree gets a single column.  An embedding of more than
    ``_EMBED_CAP`` values is refused before it is built.
    """
    dim = 2 * len(tree) if len(tree) > 1 else 1
    points = sum(2 ** len(node) for node in tree.nodes)
    if points * dim > _EMBED_CAP:
        raise ValueError(f"the embedding would hold {points} points x {dim} columns,"
                         f" above the budget of {_EMBED_CAP} values")
    blocks = {(): np.zeros((1, dim))}
    for i, node in enumerate(tree.nodes[1:], start=1):
        rows = np.repeat(blocks[node[:-1]], 2, axis=0)
        scale = 2.0 ** (1 - 2 * len(node))
        rows[0::2, 2 * i] = scale
        rows[1::2, 2 * i + 1] = scale
        blocks[node] = rows
    owners = [label_str(node) for node in tree.nodes for _ in range(2 ** len(node))]
    return PointCloud(np.concatenate([blocks[u] for u in tree.nodes]), metric="l1",
                      meta={"kind": "tree-embedding", "point_node": owners,
                            "tree_nodes": [list(u) for u in tree.nodes]})


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
    All depths share one search session, which changes no search's expansions.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    session = _Search(cloud, k, l, strong, tol, cap)
    exhausted, best = False, -1
    for depth in range(cap + 1):
        res: SearchResult = search_regular(cloud, k, l, depth, strong=strong,
                                           budget=budget, tol=tol, session=session)
        exhausted = exhausted or res.exhausted
        if res.family is None:
            break
        best = depth
    return best, exhausted
