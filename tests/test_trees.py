import itertools
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracdim.cloud as cloud_module
import fracdim.trees as trees_module
from fracdim import (FiniteTree, PointCloud, branch_family, embed_tree,
                     max_regular_depth, search_regular, verify_regular)
from fracdim.io import cloud_to_dict, dumps_canonical
from oracles import embed_tree_oracle

TOL = 1e-12


def node_rows(tree, cloud, node):
    """The rows the embedding attaches to ``node``, in construction order."""
    start = sum(2 ** len(u) for u in tree.nodes[:tree.nodes.index(node)])
    return cloud.coords[start:start + 2 ** len(node)]


def support(row):
    """A row as {column: value} over its nonzero columns."""
    return {int(c): float(row[c]) for c in np.flatnonzero(row)}


@st.composite
def prefix_closed_trees(draw, depth=5, children=4, labels=5, max_nodes=30):
    """Random prefix-closed trees, grown level by level up to ``max_nodes``."""
    nodes = [()]
    frontier = [()]
    for _ in range(depth):
        grown = []
        for u in frontier:
            room = max_nodes - len(nodes) - len(grown)
            kids = draw(st.lists(st.integers(0, labels), unique=True,
                                 max_size=min(children, room)))
            grown.extend(u + (c,) for c in kids)
        nodes.extend(grown)
        frontier = grown
    return FiniteTree(nodes)


class TestFiniteTree:
    def test_prefix_closure_enforced(self):
        with pytest.raises(ValueError, match="prefix-closed"):
            FiniteTree([(), (0, 1)])
        with pytest.raises(ValueError, match="empty sequence"):
            FiniteTree([(0,)])

    def test_bfs_label_sorted_order(self):
        tree = FiniteTree([(), (2,), (0,), (0, 5), (0, 1)])
        assert tree.nodes == ((), (0,), (2,), (0, 1), (0, 5))

    @pytest.mark.parametrize("node", [(0.7,), (True,), ("0",), (np.bool_(True),)])
    def test_non_integer_entries_rejected(self, node):
        with pytest.raises(ValueError, match="must hold integers"):
            FiniteTree([(), node])

    def test_numpy_integer_entries_accepted(self):
        tree = FiniteTree([(), (np.int64(1),)])
        assert tree.nodes == ((), (1,))
        assert all(type(x) is int for x in tree.nodes[1])

    def test_helpers(self):
        assert len(FiniteTree.single_branch(4)) == 5
        assert len(FiniteTree.full_tree(2, 3)) == 13


class TestCoordinateIndex:
    """Node ``tree.nodes[i]`` owns columns 2i and 2i + 1 of the embedding."""

    def test_root_indices(self):
        # no node writes the root's columns; a one-node tree has one column
        cloud = embed_tree(FiniteTree.full_tree(2, 2))
        assert not cloud.coords[:, :2].any()
        root_only = embed_tree(FiniteTree([()]))
        assert root_only.dim == 1 and not root_only.coords.any()

    def test_bfs_enumeration(self):
        tree = FiniteTree([(), (0,), (1,)])
        cloud = embed_tree(tree)
        assert cloud.dim == 6
        assert [list(np.flatnonzero(row)) for row in cloud.coords] == [[], [2], [3], [4], [5]]

    def test_injective_over_node_bit_pairs(self):
        # the j-th row of node i is its parent's row j // 2 plus one fresh
        # column, 2i + j % 2, that no other (node, bit) pair uses
        tree = FiniteTree.full_tree(2, 2)
        cloud = embed_tree(tree)
        seen = set()
        for i, node in enumerate(tree.nodes[1:], start=1):
            parent = node_rows(tree, cloud, node[:-1])
            for j, row in enumerate(node_rows(tree, cloud, node)):
                fresh = support(row).keys() - support(parent[j // 2]).keys()
                assert fresh == {2 * i + j % 2}
                seen.add((i, j % 2))
        assert len(seen) == 2 * (len(tree) - 1)

    def test_unknown_node(self):
        tree = FiniteTree([()])
        assert (3,) not in tree and () in tree
        with pytest.raises(ValueError, match="not in tree"):
            branch_family(tree, (3,), 0)


class TestNodeVectors:
    """The 2^len(u) rows the embedding attaches to each node u."""

    def test_root_is_zero(self):
        tree = FiniteTree.single_branch(2)
        cloud = embed_tree(tree)
        assert not node_rows(tree, cloud, ()).any()
        assert cloud.meta["point_node"][0] == ""

    def test_counts_double_per_level(self):
        tree = FiniteTree.full_tree(2, 2)
        owners = Counter(embed_tree(tree).meta["point_node"])
        for node in tree.nodes:
            assert owners[".".join(map(str, node))] == 2 ** len(node)

    def test_single_step_distance_one(self):
        cloud = embed_tree(FiniteTree.single_branch(1))
        assert cloud.distance(1, 2) == 1.0
        assert np.abs(cloud.coords[1]).sum() == 0.5
        assert np.abs(cloud.coords[2]).sum() == 0.5

    def test_support_disjointness_makes_distances_exact(self):
        # a shared column holds the same magnitude in both rows, so the l1
        # distance is the sum of the injected magnitudes off the shared support
        tree = FiniteTree.full_tree(2, 2)
        cloud = embed_tree(tree)
        rows = [support(row) for row in cloud.coords]
        for i, j in itertools.combinations(range(cloud.n), 2):
            a, b = rows[i], rows[j]
            assert all(a[c] == b[c] for c in a.keys() & b.keys())
            hand = sum(a[c] for c in a.keys() - b.keys()) + sum(b[c] for c in b.keys() - a.keys())
            assert cloud.distance(i, j) == pytest.approx(hand, abs=TOL)


class TestEmbedTree:
    def test_root_only(self):
        cloud = embed_tree(FiniteTree([()]))
        assert cloud.n == 1 and cloud.metric == "l1"

    @settings(max_examples=60, deadline=None)
    @given(tree=prefix_closed_trees())
    @example(tree=FiniteTree([()]))
    @example(tree=FiniteTree.single_branch(1))
    def test_matches_the_sparse_oracle(self, tree):
        cloud = embed_tree(tree)
        rows, meta = embed_tree_oracle(tree)
        assert cloud.coords.dtype == rows.dtype and cloud.coords.shape == rows.shape
        assert cloud.coords.tobytes() == rows.tobytes()
        assert cloud.dim == rows.shape[1]
        assert cloud.meta == meta
        expected = PointCloud(rows, metric="l1", meta=meta)
        assert dumps_canonical(cloud_to_dict(cloud)) == dumps_canonical(cloud_to_dict(expected))

    def test_branch_sizes(self):
        for b in range(5):
            cloud = embed_tree(FiniteTree.single_branch(b))
            assert cloud.n == 2 ** (b + 1) - 1

    def test_no_collisions_and_discrete(self):
        cloud = embed_tree(FiniteTree.full_tree(2, 3))
        assert cloud.n == 1 + 3 * 2 + 9 * 4
        assert cloud.min_positive_gap() > 0

    def test_separation_law_exhaustive(self):
        # points from nodes first disagreeing at position k sit >= 2^-2k apart
        tree = FiniteTree([(), (0,), (1,), (0, 0), (0, 1), (1, 0), (0, 0, 0)])
        cloud = embed_tree(tree)
        owners = [tuple(int(p) for p in s.split(".")) if s else ()
                  for s in cloud.meta["point_node"]]
        for i, j in itertools.combinations(range(cloud.n), 2):
            u, v = owners[i], owners[j]
            shared = min(len(u), len(v))
            disagree = next((k for k in range(shared) if u[k] != v[k]), None)
            if disagree is not None:
                assert cloud.distance(i, j) >= 2.0 ** (-2 * disagree) - TOL


class TestBranchFamily:
    def test_depth_zero(self):
        tree = FiniteTree.single_branch(1)
        fam = branch_family(tree, (0,), 0)
        assert fam.depth == 0 and fam.assign[()] is not None

    def test_child_distances_exact(self):
        tree = FiniteTree.single_branch(3)
        cloud = embed_tree(tree)
        fam = branch_family(tree, (0, 0, 0), 3, cloud=cloud)
        for n in range(3):
            for s in fam.labels_at(n):
                for c in (0, 1):
                    d = cloud.distance(fam.assign[s], fam.assign[s + (c,)])
                    assert d == pytest.approx(2.0 ** (-2 * n - 1), abs=TOL)

    def test_verifies_at_every_depth(self):
        tree = FiniteTree.single_branch(4)
        cloud = embed_tree(tree)
        for depth in range(5):
            fam = branch_family(tree, (0, 0, 0, 0), depth, cloud=cloud)
            assert verify_regular(cloud, fam).ok

    def test_level_separation_via_first_disagreement(self):
        tree = FiniteTree.single_branch(3)
        cloud = embed_tree(tree)
        fam = branch_family(tree, (0, 0, 0), 3, cloud=cloud)
        for n in (1, 2, 3):
            labs = fam.labels_at(n)
            for a, b in itertools.combinations(labs, 2):
                k = next(i for i in range(n) if a[i] != b[i])
                d = cloud.distance(fam.assign[a], fam.assign[b])
                assert d >= 2.0 ** (-2 * k) - TOL
                assert d >= 2.0 ** (-2 * n + 2) - TOL

    def test_indices_follow_the_embedding_order(self):
        # each label's point is the vector the construction builds along the branch
        tree = FiniteTree([(), (0,), (1,), (1, 0), (1, 2), (1, 2, 0)])
        cloud = embed_tree(tree)
        for branch in tree.nodes:
            fam = branch_family(tree, branch, len(branch), cloud=cloud)
            for s, i in fam.assign.items():
                vec = np.zeros(cloud.dim)
                for n, c in enumerate(s):
                    vec[2 * tree.nodes.index(branch[:n + 1]) + c] = 2.0 ** (-2 * n - 1)
                assert np.array_equal(cloud.coords[i], vec)
        with pytest.raises(ValueError, match="does not match"):
            branch_family(tree, (1, 2), 2, cloud=embed_tree(FiniteTree.single_branch(2)))

    def test_branch_too_short(self):
        tree = FiniteTree.single_branch(2)
        with pytest.raises(ValueError, match="too short"):
            branch_family(tree, (0, 0), 3)


class TestMaxRegularDepth:
    def test_single_point(self):
        depth, exhausted = max_regular_depth(PointCloud([[0.0]]), 2, 2, cap=3)
        assert (depth, exhausted) == (0, False)

    def test_branch_depths(self):
        for b in (0, 1, 2, 3):
            cloud = embed_tree(FiniteTree.single_branch(b))
            depth, exhausted = max_regular_depth(cloud, 2, 2, cap=b + 2)
            assert (depth, exhausted) == (b, False)

    def test_polarized5(self):
        from fracdim import polarized_example_cloud
        cloud = polarized_example_cloud(5)
        depth, exhausted = max_regular_depth(cloud, 2, 2, cap=6)
        assert (depth, exhausted) == (5, False)

    def test_monotone_under_node_addition(self):
        base = FiniteTree.single_branch(2)
        bigger = FiniteTree([(), (0,), (0, 0), (1,), (0, 0, 0)])
        d_base, _ = max_regular_depth(embed_tree(base), 2, 2, cap=4)
        d_big, _ = max_regular_depth(embed_tree(bigger), 2, 2, cap=4)
        assert d_big >= d_base

    def test_searched_matches_constructed(self):
        # constructed witness and searched certificate agree on attainable depth
        tree = FiniteTree.single_branch(3)
        cloud = embed_tree(tree)
        fam = branch_family(tree, (0, 0, 0), 3, cloud=cloud)
        assert verify_regular(cloud, fam).ok
        depth, _ = max_regular_depth(cloud, 2, 2, cap=5)
        assert depth == 3


def _dyadic_plane(cells):
    """The points ``cells`` of the 16 x 16 grid of spacing 1/16."""
    return PointCloud([[c // 16 / 16, c % 16 / 16] for c in cells])


class TestDepthScanSession:
    """``max_regular_depth`` runs every depth in one search session: its answer
    and each of its searches are those of independent ``search_regular``
    calls, whether the session holds rows or packs each on use."""

    @staticmethod
    def _scan(cloud, kl, cap, budget, strong):
        """The depth scan's answer and its searches' (expansions, exhausted, family)."""
        searches = []

        def recording(*args, **kwargs):
            searches.append(search_regular(*args, **kwargs))
            return searches[-1]

        with mock.patch.object(trees_module, "search_regular", recording):
            answer = max_regular_depth(cloud, *kl, cap, budget=budget, strong=strong)
        return answer, [(r.expansions, r.exhausted, r.family and r.family.to_dict())
                        for r in searches]

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(prefix_closed_trees(depth=4, children=3, labels=3, max_nodes=14).map(embed_tree),
                     st.lists(st.integers(0, 255), min_size=20, max_size=120,
                              unique=True).map(_dyadic_plane)),
           st.sampled_from([(2, 2), (3, 2), (3, 3)]), st.integers(0, 5), st.integers(1, 400),
           st.booleans())
    @example(embed_tree(FiniteTree.full_tree(3, 2)), (2, 2), 5, 400, False)     # depth 3
    @example(embed_tree(FiniteTree.full_tree(4, 2)), (2, 2), 6, 300, False)     # depth 5 runs out
    @example(_dyadic_plane(range(256)), (3, 2), 3, 400, True)                  # strong, depth 2
    def test_matches_independent_searches(self, cloud, kl, cap, budget, strong):
        alone = []
        for depth in range(cap + 1):
            res = search_regular(cloud, *kl, depth, strong=strong, budget=budget)
            alone.append((res.expansions, res.exhausted, res.family and res.family.to_dict()))
            if res.family is None:
                break
        best = sum(family is not None for _, _, family in alone) - 1
        expected = ((best, any(exhausted for _, exhausted, _ in alone)), alone)
        assert self._scan(cloud, kl, cap, budget, strong) == expected
        with mock.patch.object(cloud_module, "_DENSE_CAP", 0):    # no rows held
            assert self._scan(cloud, kl, cap, budget, strong) == expected
