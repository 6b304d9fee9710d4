import itertools

import numpy as np
import pytest

from fracdim import (FiniteTree, SparseVec, branch_family, coordinate_index,
                     embed_tree, max_regular_depth, node_vectors,
                     verify_regular)

TOL = 1e-12


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
    def test_root_indices(self):
        tree = FiniteTree([()])
        assert coordinate_index(tree, (), 0) == 0
        assert coordinate_index(tree, (), 1) == 1

    def test_bfs_enumeration(self):
        tree = FiniteTree([(), (0,), (1,)])
        assert coordinate_index(tree, (0,), 1) == 3

    def test_injective_over_node_bit_pairs(self):
        tree = FiniteTree.full_tree(2, 2)
        seen = set()
        for node in tree.nodes:
            for bit in (0, 1):
                idx = coordinate_index(tree, node, bit)
                assert idx not in seen
                seen.add(idx)

    def test_unknown_node(self):
        tree = FiniteTree([()])
        with pytest.raises(ValueError):
            coordinate_index(tree, (3,), 0)


class TestNodeVectors:
    def test_root_is_zero(self):
        tree = FiniteTree.single_branch(2)
        vecs = node_vectors(tree, ())
        assert vecs == (SparseVec.zero(),)

    def test_counts_double_per_level(self):
        tree = FiniteTree.full_tree(2, 2)
        for node in tree.nodes:
            assert len(node_vectors(tree, node)) == 2 ** len(node)

    def test_single_step_distance_one(self):
        tree = FiniteTree.single_branch(1)
        a, b = node_vectors(tree, (0,))
        assert a.l1_distance(b) == 1.0
        assert a.l1_norm() == 0.5

    def test_support_disjointness_makes_distances_exact(self):
        # l1 distance equals the sum of injected magnitudes on the union
        # of supports; cross-check against the dense computation
        tree = FiniteTree.full_tree(2, 2)
        cloud = embed_tree(tree)
        vecs = [v for node in tree.nodes for v in node_vectors(tree, node)]
        dim = cloud.dim
        for i, j in itertools.combinations(range(len(vecs)), 2):
            sparse = vecs[i].l1_distance(vecs[j])
            dense = float(np.abs(vecs[i].to_dense(dim) - vecs[j].to_dense(dim)).sum())
            assert sparse == pytest.approx(dense, abs=TOL)


class TestEmbedTree:
    def test_root_only(self):
        cloud = embed_tree(FiniteTree([()]))
        assert cloud.n == 1 and cloud.metric == "l1"

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
                vec = SparseVec.zero()
                for n, c in enumerate(s):
                    vec = vec.with_unit(coordinate_index(tree, branch[:n + 1], c),
                                        2.0 ** (-2 * n - 1))
                assert np.array_equal(cloud.coords[i], vec.to_dense(cloud.dim))
        with pytest.raises(ValueError, match="does not match"):
            branch_family(tree, (1, 2), 2, cloud=embed_tree(FiniteTree.single_branch(2)))

    def test_branch_too_short(self):
        tree = FiniteTree.single_branch(2)
        with pytest.raises(ValueError, match="too short"):
            branch_family(tree, (0, 0), 3)


class TestMaxRegularDepth:
    def test_single_point(self):
        from fracdim import PointCloud
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
