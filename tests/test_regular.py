import itertools
import math
import sys
from collections import Counter

import numpy as np
import pytest

import fracdim.cloud as cloud_module
import fracdim.regular as regular_module
from fracdim import (FiniteTree, PointCloud, RegularFamily, ScaleWindow, cantor_cloud,
                     certificate_scaling_check, choose_parameters, closed_ball, diameter,
                     dimension_bound, dyadic_interval_cloud, embed_tree,
                     hausdorff_distance, level_points, lower_dim_estimate,
                     max_regular_depth, packing_number, polarized_example_cloud,
                     polarized_natural_family, search_regular, validate_packing,
                     verify_regular)
from fracdim.covering import PackResult
from oracles import distance_row_oracle, separation_violations_oracle

TOL = 1e-12


class TestVerify:
    def test_depth_zero_ok(self, grid11):
        fam = RegularFamily(2, 2, 0, False, {(): 3})
        assert verify_regular(grid11, fam).ok

    def test_polarized_natural_labeling(self):
        cloud, fam = polarized_natural_family(2)
        assert verify_regular(cloud, fam).ok
        strong = RegularFamily(2, 2, 2, True, dict(fam.assign))
        report = verify_regular(cloud, strong)
        assert not report.ok
        root_violations = [v for v in report.violations
                           if v.kind == "strong" and v.s == ()]
        assert len(root_violations) == 1
        # y_(0) = -1/2 sits half a unit from y_empty = 0
        assert root_violations[0].measured == pytest.approx(0.5, abs=TOL)

    def test_same_point_two_labels_is_sep_violation(self, grid11):
        fam = RegularFamily(2, 2, 1, False, {(): 5, (0,): 5, (1,): 5})
        report = verify_regular(grid11, fam)
        seps = [v for v in report.violations if v.kind == "sep"]
        assert seps and seps[0].measured == 0.0
        assert seps[0].required == pytest.approx(1.0, abs=TOL)

    def test_child_violation_reported(self, grid11):
        # children 0.0 and 1.0 around root 0.0: child distance 1.0 > 2^-1
        fam = RegularFamily(2, 2, 1, False, {(): 0, (0,): 0, (1,): 10})
        report = verify_regular(grid11, fam)
        kinds = {v.kind for v in report.violations}
        assert "child" in kinds
        assert all(v.kind != "sep" for v in report.violations)

    def test_all_violations_listed(self, grid11):
        fam = RegularFamily(2, 2, 1, True, {(): 0, (0,): 1, (1,): 2})
        report = verify_regular(grid11, fam)
        assert len(report.violations) >= 2  # sep (0.1 apart) and strong

    def test_out_of_range_index(self, grid11):
        fam = RegularFamily(2, 2, 0, False, {(): 42})
        with pytest.raises(IndexError):
            verify_regular(grid11, fam)

    def test_totality_enforced(self):
        with pytest.raises(ValueError):
            RegularFamily(2, 2, 1, False, {(): 0, (0,): 1})

    @pytest.mark.parametrize("k, l, depth, assign, message", [
        (1, 2, 0, {(): 0}, "need k >= 2 and l >= 2"),
        (2, 1, 0, {(): 0}, "need k >= 2 and l >= 2"),
        (2, 2, -1, {(): 0}, "depth must be nonnegative"),
        (2, 2, 1, {(): 0, (0,): 1, (2,): 2}, "invalid label"),
        (2, 2, 1, {(): 0, (0,): 1, (0, 1): 2}, "invalid label"),
        (2, 2, 0, {(): 0, (0,): 1}, "every label up to depth 0; 2 given"),
        # the full count has 30,104 digits: counting stops once it passes the labels given
        (2, 2, 100_000, {(): 0}, "every label up to depth 100000; 1 given"),
    ])
    def test_shape_refusals(self, k, l, depth, assign, message):
        with pytest.raises(ValueError, match=message):
            RegularFamily(k, l, depth, False, assign)

    @pytest.mark.parametrize("held", [False, True])
    def test_separation_scan_holds_one_block(self, monkeypatch, held):
        # level 2 sits on the 4 x 4 lattice of spacing 1/4, exactly separated,
        # with three plants: label 1 one step toward label 0, label 9 on
        # label 3's point, label 14 one step toward label 15.  At one row per
        # computed block (two per block sliced from a matrix cloud's matrix)
        # each plant lies in its own block; the level-1 corners are all closer than 1.
        cloud = _grid_2d()
        coords = cloud.coords
        if held:
            cloud = _matrix_twin(coords, "euclidean")
        lattice = [64 * a + 4 * b for a in range(4) for b in range(4)]
        lattice[1], lattice[9], lattice[14] = lattice[1] - 1, lattice[3], lattice[14] + 1
        labels = [lab for n in range(3) for lab in itertools.product(range(4), repeat=n)]
        fam = RegularFamily(2, 4, 2, False, dict(zip(labels, [0, 0, 15, 240, 255] + lattice)))
        monkeypatch.setattr(cloud_module, "_BLOCK_ELEMENTS", 32)
        scan, shapes = PointCloud._blocks, []

        def recording_scan(self, *args):
            for start, block in scan(self, *args):
                shapes.append(block.shape)
                yield start, block

        def no_pairwise(*args):
            raise AssertionError("verify_regular asked for a whole submatrix")

        monkeypatch.setattr(PointCloud, "_blocks", recording_scan)
        monkeypatch.setattr(PointCloud, "pairwise", no_pairwise)
        report = verify_regular(cloud, fam)
        expected = {n: separation_violations_oracle(
            coords, "euclidean", [fam.assign[s] for s in fam.labels_at(n)],
            regular_module.level_separation(2, n)) for n in (1, 2)}
        assert [(a, b) for a, b, _ in expected[2]] == [(0, 1), (3, 9), (14, 15)]
        assert [(v.s, v.t, v.measured) for v in report.violations if v.kind == "sep"] == [
            (fam.labels_at(n)[a], fam.labels_at(n)[b], d)
            for n in (1, 2) for a, b, d in expected[n]]
        assert max(rows * cols for rows, cols in shapes) <= 32
        assert sum(cols == 16 for _, cols in shapes) >= 8     # level 2 spans 8 or 16 blocks


@pytest.fixture
def sessions(monkeypatch):
    """Every search session (``_Search``) built while the test runs."""
    made, init = [], regular_module._Search.__init__

    def recording(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(regular_module._Search, "__init__", recording)
    return made


class TestSearch:
    def test_two_point_absent(self, two_points):
        res = search_regular(two_points, 2, 2, 2)
        assert res.family is None and not res.exhausted

    def test_absurd_depth_packs_few_levels(self, sessions):
        # from about level 47 on, k = 2 thresholds round to the same floats,
        # so those levels share one set of rows instead of a million
        res = search_regular(_grid_2d(), 2, 2, 10 ** 6)
        assert res.family is None and not res.exhausted
        assert len(sessions[-1]._bounds) < 50

    def test_grid_6_16(self):
        cloud = dyadic_interval_cloud(10)
        res = search_regular(cloud, 6, 16, 2, strong=True)
        assert res.family is not None and not res.exhausted
        assert verify_regular(cloud, res.family).ok
        assert dimension_bound(6, 16) == pytest.approx(2 / 3, abs=0)

    def test_cantor_4_2(self):
        cloud = cantor_cloud(8)
        res = search_regular(cloud, 4, 2, 2, strong=True)
        fam = res.family
        assert fam is not None
        assert verify_regular(cloud, fam).ok
        root = cloud.coords[fam.assign[()], 0]
        child1 = cloud.coords[fam.assign[(1,)], 0]
        assert 0.25 - TOL <= abs(child1 - root) <= 0.5 + TOL
        gap = abs(cloud.coords[fam.assign[(0, 1)], 0] - cloud.coords[fam.assign[(0, 0)], 0])
        assert 2.0 ** -6 - TOL <= gap <= 2.0 ** -5 + TOL

    def test_cantor_hand_family_verifies(self):
        # hand-built witness: root 0, level-1 partner 8/27, children two
        # triadic steps below each; distances are 8/27 and 2/81
        cloud = cantor_cloud(8)
        coords = cloud.coords[:, 0]

        def idx(value):
            return int(np.flatnonzero(np.abs(coords - value) < 1e-9)[0])

        fam = RegularFamily(4, 2, 2, True, {
            (): idx(0.0), (0,): idx(0.0), (1,): idx(8 / 27),
            (0, 0): idx(0.0), (0, 1): idx(2 / 81),
            (1, 0): idx(8 / 27), (1, 1): idx(8 / 27 + 2 / 81),
        })
        assert verify_regular(cloud, fam).ok

    def test_strong_family_passes_plain_check(self):
        cloud = dyadic_interval_cloud(10)
        fam = search_regular(cloud, 6, 16, 2, strong=True).family
        plain = RegularFamily(fam.k, fam.l, fam.depth, False, dict(fam.assign))
        assert verify_regular(cloud, plain).ok

    def test_truncation_closes_class(self):
        cloud = dyadic_interval_cloud(10)
        fam = search_regular(cloud, 6, 16, 2, strong=True).family
        assert verify_regular(cloud, fam.truncated(1)).ok
        assert verify_regular(cloud, fam.truncated(0)).ok

    def test_level_separation_packing_consistency(self):
        cloud = dyadic_interval_cloud(10)
        fam = search_regular(cloud, 6, 16, 2, strong=True).family
        for n in (1, 2):
            pts = level_points(fam, n, cloud)
            sep = 2.0 ** (-fam.k * n + 2)
            pack = packing_number(pts, sep, mode="exact", exact_cutoff=300)
            assert pack.count == len(pts)

    def test_budget_exhaustion(self):
        cloud = dyadic_interval_cloud(10)
        res = search_regular(cloud, 6, 16, 2, strong=True, budget=5)
        assert res.family is None and res.exhausted
        assert res.expansions >= 5

    def test_determinism(self):
        cloud = dyadic_interval_cloud(9)
        a = search_regular(cloud, 4, 2, 2)
        b = search_regular(cloud, 4, 2, 2)
        assert a.family is not None
        assert a.family.assign == b.family.assign

    def test_nonstrong_finds_polarized_shape(self):
        # the natural family here pins no child to its parent, so the
        # search must consider child sets avoiding the seed point
        cloud, _ = polarized_natural_family(3)
        res = search_regular(cloud, 2, 2, 3)
        assert res.family is not None
        assert verify_regular(cloud, res.family).ok

    def test_generic_metric_needs_exclusion(self):
        # scan-order candidate a conflicts with both b and c; only skipping
        # it leaves the separated pair {b, c}, so greedy alone would fail
        y, a, b, c = 0, 1, 2, 3
        m = np.zeros((4, 4))
        m[y, a] = m[y, b] = m[y, c] = 0.5
        m[a, b] = m[a, c] = 0.9
        m[b, c] = 1.0
        m = m + m.T
        cloud = PointCloud.from_matrix(m)
        res = search_regular(cloud, 2, 2, 1)
        assert res.family is not None
        assert set(res.family.assign.values()) == {y, b, c}
        assert verify_regular(cloud, res.family).ok

    def test_parameter_validation(self, grid11):
        with pytest.raises(ValueError):
            search_regular(grid11, 1, 2, 1)
        with pytest.raises(ValueError):
            search_regular(grid11, 2, 2, 1, budget=0)

    def test_matrix_symmetric_within_tol(self):
        # d(1, 2) is below level 1's sep - tol = 1 - tol and d(2, 1) is not: the
        # cloud stores the larger, so the search and the verifier, which read
        # the pair from opposite ends, both find 1 and 2 separated
        m = np.array([[0, 0.5, 0.5], [0.5, 0, 0.9999999999985], [0.5, 0.999999999999, 0]])
        cloud = PointCloud.from_matrix(m)
        assert m[1, 2] < 1 - TOL <= m[2, 1] and cloud.distance(1, 2) == m[2, 1]
        res = search_regular(cloud, 2, 2, 1)
        assert _outcome(res)[1:] == ("found", _family_dict(2, 2, 1, False, [0, 1, 2]))
        assert verify_regular(cloud, res.family).ok

    def test_session_must_match_the_search(self):
        # a session lends its rows and memos only to a search of its own cloud,
        # k, l, strong and tol, and to at most its number of levels
        cloud = embed_tree(FiniteTree.full_tree(3, 2))
        expected = _outcome(search_regular(cloud, 2, 2, 3))
        twin = embed_tree(FiniteTree.full_tree(3, 2))     # equal points, another cloud
        for args in ((twin, 2, 2, False, TOL, 3), (cloud, 3, 2, False, TOL, 3),
                     (cloud, 2, 3, False, TOL, 3), (cloud, 2, 2, True, TOL, 3),
                     (cloud, 2, 2, False, 2 * TOL, 3), (cloud, 2, 2, False, TOL, 2)):
            with pytest.raises(ValueError, match="search session"):
                search_regular(cloud, 2, 2, 3, session=regular_module._Search(*args))
        session = regular_module._Search(cloud, 2, 2, False, TOL, 4)
        for _ in range(2):      # a second search reuses the rows and memos of the first
            assert _outcome(search_regular(cloud, 2, 2, 3, session=session)) == expected


class TestChooseParameters:
    def test_hand_enumerated_examples(self):
        assert choose_parameters(1.0, 1.0, 1 / 3) == (7, 8)
        assert choose_parameters(1.0, 0.9, 0.5) == (10, 42)
        assert choose_parameters(16.0, 1.0, 0.5) == (5, 32)

    def test_law_on_random_inputs(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            alpha = float(rng.uniform(0.0, 1.2))
            beta = alpha + float(rng.uniform(0.05, 1.0))
            C = float(rng.uniform(0.1, 20.0))
            k, l = choose_parameters(C, beta, alpha)
            assert k >= 5
            assert l == math.floor(C * 2.0 ** ((k - 4) * beta))
            assert l >= 2
            assert math.log2(l) / k > alpha
            for smaller in range(5, k):
                l2 = math.floor(C * 2.0 ** ((smaller - 4) * beta))
                assert l2 < 2 or math.log2(l2) / smaller <= alpha

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_parameters(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            choose_parameters(1.0, 0.5, 0.5)


class TestLevelPoints:
    def test_root(self, grid11):
        fam = RegularFamily(2, 2, 0, False, {(): 7})
        assert list(level_points(fam, 0, grid11).indices) == [7]

    def test_polarized_depth2_four_distinct(self):
        cloud, fam = polarized_natural_family(2)
        assert len(level_points(fam, 2, cloud)) == 4

    def test_strong_collapse(self):
        cloud = dyadic_interval_cloud(10)
        fam = search_regular(cloud, 6, 16, 2, strong=True).family
        lvl1 = level_points(fam, 1, cloud)
        assert len(lvl1) == 16
        assert fam.assign[()] in lvl1.indices

    def test_level_out_of_range(self, grid11):
        fam = RegularFamily(2, 2, 0, False, {(): 0})
        with pytest.raises(ValueError):
            level_points(fam, 1, grid11)


def _matrix_scaling_check(cloud, fam, tol):
    """The scaling check on the same points as an explicit matrix (branch-and-bound path)."""
    x = cloud.coords[:, 0]
    matrix = PointCloud.from_matrix(np.abs(x[:, None] - x[None, :]))
    deepest = len(level_points(fam, fam.depth, cloud))
    return certificate_scaling_check(matrix, fam, tol=tol, exact_cutoff=deepest)


class TestScalingCheck:
    def test_depth_one_vacuous(self, grid11):
        fam = RegularFamily(2, 2, 1, False, {(): 5, (0,): 0, (1,): 10})
        assert verify_regular(grid11, fam).ok
        assert certificate_scaling_check(grid11, fam) is True

    def test_grid_family(self):
        cloud = dyadic_interval_cloud(10)
        fam = search_regular(cloud, 6, 16, 2, strong=True).family
        assert certificate_scaling_check(cloud, fam) is True

    def test_deep_polarized_family(self):
        cloud, fam = polarized_natural_family(4)
        assert certificate_scaling_check(cloud, fam) is True

    # A coarse tol widens every cover part until the chain breaks, so both
    # verdicts are compared; at depth 3 with tol 1/4 some probe's count
    # equals l^m exactly.
    @pytest.mark.parametrize("depth,tol,verdict", [
        (2, TOL, True), (3, TOL, True), (4, TOL, True), (5, TOL, True),
        (3, 0.25, True), (4, 0.1, False), (5, 0.03, False)])
    def test_sorted_1d_matches_matrix_polarized(self, depth, tol, verdict):
        cloud, fam = polarized_natural_family(depth)
        assert certificate_scaling_check(cloud, fam, tol=tol) is verdict
        assert _matrix_scaling_check(cloud, fam, tol) is verdict

    @pytest.mark.parametrize("k,l,depth", [(4, 4, 2), (3, 2, 3)])
    def test_sorted_1d_matches_matrix_grid(self, k, l, depth):
        cloud = dyadic_interval_cloud(8)
        fam = search_regular(cloud, k, l, depth, strong=True).family
        assert certificate_scaling_check(cloud, fam) is True
        assert _matrix_scaling_check(cloud, fam, TOL) is True

    @pytest.mark.parametrize("block", [None, 2 * 16 * 62])
    def test_counts_every_ball(self, monkeypatch, block):
        # every deepest-level point's ball at every probe is counted exactly
        # once, on the deepest level's relation at the probe's r (its rows
        # packed from one or several blocks); the 16-point level keeps every
        # ball within the cutoff, so each count is an exact solve
        cloud = embed_tree(FiniteTree.full_tree(4, 2))
        fam = search_regular(cloud, 2, 2, 4).family
        if block is not None:
            monkeypatch.setattr(cloud_module, "_BLOCK_ELEMENTS", block)
        deepest = level_points(fam, 4, cloud).indices
        dmat = np.stack([distance_row_oracle(cloud.coords, x, "l1")[deepest] for x in deepest])

        def relation(r):
            """The oracle relation d <= r + tol on the deepest level, as bitset rows."""
            return tuple(sum(1 << int(u) for u in np.flatnonzero(row <= r + TOL))
                         for row in dmat)

        counted = []
        solve = regular_module._min_clique_cover

        def spy(rows, ball):
            counted.append((deepest[[u for u in range(deepest.size) if ball >> u & 1]].tolist(),
                            tuple(rows)))
            return solve(rows, ball)

        monkeypatch.setattr(regular_module, "_min_clique_cover", spy)
        assert certificate_scaling_check(cloud, fam) is True
        # a probe's r is known by its relation (two radii may share one)
        expected = []
        for t in range(deepest.size):
            for n in range(1, 4):
                for m in range(4 - n):
                    for R, r in ((2.0 ** (-2 * n + 2), 2.0 ** (-2 * (n + m))),
                                 (2.0 ** (-2 * (n - 1) + 1), 2.0 ** (-2 * (n + m + 1) + 1))):
                        expected.append((deepest[dmat[t] <= R + TOL].tolist(), relation(r)))
        assert sorted(counted) == sorted(expected)

    def test_unverified_family_refused(self, grid11):
        fam = RegularFamily(2, 2, 1, False, {(): 5, (0,): 5, (1,): 5})
        with pytest.raises(ValueError):
            certificate_scaling_check(grid11, fam)


def _permuted_polarized(seed=0):
    """The polarized depth-8 cloud and natural family, sorted and in a seeded
    storage order, as ((cloud, family), (cloud, family))."""
    cloud, fam = polarized_natural_family(8)
    perm = np.random.default_rng(seed).permutation(cloud.n)
    back = np.argsort(perm)
    permuted = RegularFamily(2, 2, 8, False, {lab: int(back[i]) for lab, i in fam.assign.items()})
    return (cloud, fam), (PointCloud(cloud.coords[perm, 0]), permuted)


class TestUnsorted1DSearch:
    """A 1-D cloud stored out of coordinate order takes the same 1-D search
    and scaling-check paths as its sorted copy."""

    def test_found_within_budget(self):
        _, (cloud, _) = _permuted_polarized()
        res = search_regular(cloud, 2, 2, 8, budget=1000)
        assert res.family is not None and not res.exhausted
        assert verify_regular(cloud, res.family).ok

    @pytest.mark.parametrize("seed", range(16))
    def test_roots_in_coordinate_order(self, seed):
        """Every storage order takes the sorted copy's expansion count and finds
        the sorted copy's family: the same points under every label."""
        (cloud, _), (permuted, _) = _permuted_polarized(seed)
        sorted_res = search_regular(cloud, 2, 2, 8, budget=1000)
        res = search_regular(permuted, 2, 2, 8, budget=1000)
        assert res.expansions == sorted_res.expansions == 766 and not res.exhausted
        assert verify_regular(permuted, res.family).ok
        assert {lab: permuted.coords[i, 0] for lab, i in res.family.assign.items()} \
            == {lab: cloud.coords[i, 0] for lab, i in sorted_res.family.assign.items()}

    def test_max_depth_matches_sorted(self):
        (cloud, _), (permuted, _) = _permuted_polarized()
        assert max_regular_depth(permuted, 2, 2, 9, budget=1000) == \
            max_regular_depth(cloud, 2, 2, 9, budget=1000) == (8, False)

    def test_scaling_check_takes_the_sweep(self, monkeypatch):
        (cloud, fam), (permuted, permuted_fam) = _permuted_polarized()
        expected = certificate_scaling_check(cloud, fam)

        def spy(*args):
            raise AssertionError("generic cover count called on a 1-D cloud")

        monkeypatch.setattr(regular_module, "_min_clique_cover", spy)
        monkeypatch.setattr(regular_module, "_separated_lower_bound", spy)
        assert certificate_scaling_check(permuted, permuted_fam) is expected is True


class TestClosednessAnalogue:
    def test_translated_family_survives_limit(self):
        base = dyadic_interval_cloud(8)
        fam = search_regular(base, 4, 2, 2, strong=True).family
        assert fam is not None
        previous = np.inf
        for i in range(5, 21):
            shifted = PointCloud(base.coords + 2.0 ** -i)
            d = hausdorff_distance(base, shifted)
            assert d == pytest.approx(2.0 ** -i, abs=TOL)
            assert d < previous
            previous = d
            assert verify_regular(shifted, fam).ok
        # pointwise limit of the assignments is the original indices
        assert verify_regular(base, fam).ok


def _grid_2d():
    """The 16 x 16 dyadic grid of spacing 1/16 in the plane."""
    return PointCloud([[i / 16, j / 16] for i in range(16) for j in range(16)])


def _outcome(res):
    """(expansions, state, family as a dict) of a search result."""
    state = "found" if res.family is not None else "exhausted" if res.exhausted else "absent"
    return res.expansions, state, None if res.family is None else res.family.to_dict()


def _family_dict(k, l, depth, strong, indices):
    """``RegularFamily.to_dict()`` of the family assigning ``indices`` to the
    labels in its order: by length, then lexicographically."""
    labels = [lab for n in range(depth + 1) for lab in itertools.product(range(l), repeat=n)]
    return {"k": k, "l": l, "depth": depth, "strong": strong,
            "assign": {".".join(map(str, lab)): i for lab, i in zip(labels, indices)}}


# The polarized depth-6 family found by the 1-D search path.
_POLARIZED_6 = [
    63, 31, 95, 15, 47, 79, 111, 7, 23, 39, 55, 71, 87, 103, 119, 3, 11, 19, 27, 35, 43, 51,
    59, 67, 75, 83, 91, 99, 107, 115, 123, 1, 5, 9, 13, 17, 21, 25, 29, 33, 37, 41, 45, 49, 53,
    57, 61, 65, 69, 73, 77, 81, 85, 89, 93, 97, 101, 105, 109, 113, 117, 121, 125,
    *range(0, 127, 2)]


class TestFrozenSearch:
    """Expansion counts, outcomes and families recorded from an earlier
    implementation; a refactor of the search must leave all of them alone."""

    @pytest.mark.parametrize("strong,expected", [
        (False, (190, "found", _family_dict(2, 2, 6, False, _POLARIZED_6))),
        (True, (128, "absent", None)),
    ])
    def test_polarized_depth_6(self, strong, expected):
        cloud = polarized_example_cloud(6)
        assert _outcome(search_regular(cloud, 2, 2, 6, strong=strong)) == expected

    @pytest.mark.parametrize("strong,budget,expected", [
        (False, 100_000, (5045, "found", _family_dict(
            3, 4, 2, False,
            [21, 4, 12, 112, 120, 3, 4, 5, 20, 11, 12, 13, 28, 96, 112, 113, 128,
             104, 119, 120, 121]))),
        (True, 100_000, (2109, "absent", None)),
        (False, 1000, (1001, "exhausted", None)),
        (True, 1000, (1001, "exhausted", None)),
    ])
    def test_grid_2d_generic_path(self, strong, budget, expected):
        # a 2-D cloud takes the generic depth-first child search
        res = search_regular(_grid_2d(), 3, 4, 2, strong=strong, budget=budget)
        assert _outcome(res) == expected

    @pytest.mark.parametrize("l,expected", [
        (2, (10, "found", _family_dict(3, 2, 2, True, [0, 0, 8, 0, 1, 8, 7]))),
        (3, (21, "found", _family_dict(
            3, 3, 2, True, [0, 0, 8, 128, 0, 1, 16, 8, 7, 9, 128, 112, 129]))),
    ])
    def test_grid_2d_strong_found(self, l, expected):
        assert _outcome(search_regular(_grid_2d(), 3, l, 2, strong=True)) == expected

    def test_dyadic_strong_found(self):
        res = search_regular(dyadic_interval_cloud(10), 3, 2, 3, strong=True)
        assert _outcome(res) == (15, "found", _family_dict(
            3, 2, 3, True, [0, 0, 512, 0, 64, 512, 448, 0, 8, 64, 56, 512, 504, 448, 440]))

    @pytest.mark.parametrize("depth,expected", [
        (4, (77, "found", _family_dict(2, 2, 4, False, [
            0, 1, 2, 5, 6, 7, 8, 21, 22, 23, 24, 25, 26, 27, 28, *range(85, 101)]))),
        (5, (425, "absent", None)),
    ])
    def test_tree_embedding(self, depth, expected):
        cloud = embed_tree(FiniteTree.full_tree(4, 2))
        assert _outcome(search_regular(cloud, 2, 2, depth)) == expected

    @pytest.mark.parametrize("cloud,k,l,depth,strong", [
        ("polarized", 2, 2, 6, False), ("polarized", 2, 2, 6, True),
        ("grid", 3, 2, 2, True), ("grid", 3, 3, 2, True), ("grid", 3, 4, 2, False),
        ("dyadic", 3, 2, 3, True), ("tree", 2, 2, 5, False),
    ])
    def test_memo_holds_child_choices(self, sessions, cloud, k, l, depth, strong):
        # each memo value is a node's decision, None or its chosen children,
        # never a copy of the subtree's labels
        make = {"polarized": lambda: polarized_example_cloud(6), "grid": _grid_2d,
                "dyadic": lambda: dyadic_interval_cloud(10),
                "tree": lambda: embed_tree(FiniteTree.full_tree(4, 2))}[cloud]
        search_regular(make(), k, l, depth, strong=strong)
        (memo,) = [s._choice for s in sessions]
        assert memo
        for (point, level, rest), choice in memo.items():
            if choice is None:
                continue
            assert type(choice) is list and all(type(q) is int for q in choice)
            assert len(choice) == (l if rest else 0)
            if strong and rest:
                assert choice[0] == point

    def test_tree_depth_scan(self):
        cloud = embed_tree(FiniteTree.full_tree(3, 2))
        assert max_regular_depth(cloud, 2, 2, 5) == (3, False)

    TREE_VERDICTS = pytest.mark.parametrize("tol,cutoff,verdict", [
        (TOL, 20, True), (TOL, 4, True), (0.2, 20, False), (0.26, 20, True),
        (0.26, 4, False), (0.5, 20, False)])

    @TREE_VERDICTS
    def test_tree_scaling_verdicts(self, tol, cutoff, verdict):
        # at cutoff 4 the probes fall back on the separated-family bound
        cloud = embed_tree(FiniteTree.full_tree(4, 2))
        fam = search_regular(cloud, 2, 2, 4).family
        assert certificate_scaling_check(cloud, fam, tol=tol, exact_cutoff=cutoff) is verdict

    @TREE_VERDICTS
    def test_tree_scaling_verdicts_streamed(self, monkeypatch, tol, cutoff, verdict):
        # no distance matrix, the deepest level's 16 rows come two at a time,
        # with the cap below the deepest level's 16^2
        cloud = embed_tree(FiniteTree.full_tree(4, 2))
        fam = search_regular(cloud, 2, 2, 4).family
        monkeypatch.setattr(cloud_module, "_DENSE_CAP", 15)
        monkeypatch.setattr(cloud_module, "_BLOCK_ELEMENTS", 2 * 16 * cloud.dim)
        cloud = PointCloud(cloud.coords, metric=cloud.metric)
        assert certificate_scaling_check(cloud, fam, tol=tol, exact_cutoff=cutoff) is verdict


@pytest.fixture
def subset_count(monkeypatch):
    """Counts every ``Subset`` constructed while the test runs."""
    count = [0]
    post_init = cloud_module.Subset.__post_init__

    def counting(self):
        count[0] += 1
        post_init(self)

    monkeypatch.setattr(cloud_module.Subset, "__post_init__", counting)
    return count


class TestIndexArraysInside:
    """Search, the scaling check and the estimate pass index arrays
    around; a ``Subset`` is built only where a public function returns one."""

    @pytest.mark.parametrize("cloud,k,l,depth", [
        (polarized_example_cloud(6), 2, 2, 6), (_grid_2d(), 3, 4, 2)])
    @pytest.mark.parametrize("strong", [False, True])
    def test_search_builds_no_subset(self, subset_count, cloud, k, l, depth, strong):
        search_regular(cloud, k, l, depth, strong=strong)
        assert subset_count[0] == 0

    def test_scaling_check_builds_only_the_level(self, subset_count):
        cloud = embed_tree(FiniteTree.full_tree(4, 2))
        fam = search_regular(cloud, 2, 2, 4).family
        assert certificate_scaling_check(cloud, fam) is True
        assert subset_count[0] == 1     # level_points' deepest level

    @pytest.mark.parametrize("mode", ["greedy", "exact"])
    def test_estimate_builds_no_subset(self, subset_count, mode):
        # both modes read the whole-cloud relations; no row builds a Subset
        # or the distance matrix
        cells = np.random.default_rng(5).choice(64 * 64, size=60, replace=False)
        cloud = PointCloud(np.stack([cells // 64, cells % 64], axis=1) / 64.0)
        cloud.diam()     # the cached diameter builds one Subset of the whole cloud
        subset_count[0] = 0
        lower_dim_estimate(cloud, ScaleWindow(1 / 32, 1 / 2), mode=mode, exact_cutoff=60)
        assert subset_count[0] == 0
        assert _holds_no_matrix(cloud)


def _holds_no_matrix(cloud):
    """True when no attribute of ``cloud`` is an n x n array."""
    return not any(getattr(v, "shape", None) == (cloud.n, cloud.n) for v in vars(cloud).values())


def _matrix_twin(coords, metric):
    """The matrix cloud of the oracle's distance rows of ``coords``."""
    return PointCloud.from_matrix(
        np.stack([distance_row_oracle(coords, i, metric) for i in range(len(coords))]))


def _read_cloud(kind):
    """(coords, metric, depth of a (2, 2)-regular family) of a cloud below the
    dense cap: a tree embedding (l1, 341 points) or the 17 x 17 dyadic grid
    of spacing 1/16 (euclidean, 289 points)."""
    if kind == "tree":
        return embed_tree(FiniteTree.full_tree(4, 2)).coords, "l1", 4
    return np.array([[i / 16, j / 16] for i in range(17) for j in range(17)]), "euclidean", 2


class TestMatrixOwner:
    """No coordinate cloud holds its distance matrix: every read computes what
    it was asked for, the certificate search included, and gives the values
    that a matrix cloud of the same distances slices from its matrix."""

    @staticmethod
    def _reads(cloud, fam, radius, sep):
        idx = np.arange(0, cloud.n, 3)
        pack = PackResult(idx.size, cloud.subset(idx), False)
        return {
            "ball": closed_ball(cloud, 5, radius).indices.tolist(),
            "row": cloud.distances_from(7).tolist(),
            "pairwise": cloud.pairwise(idx, idx[::-1]).tolist(),
            "distance": cloud.distance(3, 11),
            "diameter": diameter(cloud, cloud.subset(idx)),
            "diam": cloud.diam(),
            "gap": cloud.min_positive_gap(),
            "packing": [validate_packing(pack, sep, tol=0.0),
                        validate_packing(pack, np.nextafter(sep, np.inf), tol=0.0)],
            "verify": verify_regular(cloud, fam).to_dict(),
            "scaling": certificate_scaling_check(cloud, fam),
        }

    @pytest.mark.parametrize("kind", ["tree", "plane"])
    def test_reads_build_no_matrix(self, kind):
        coords, metric, depth = _read_cloud(kind)
        fam = search_regular(PointCloud(coords, metric=metric), 2, 2, depth).family
        dmat = np.stack([distance_row_oracle(coords, i, metric) for i in range(len(coords))])
        idx = np.arange(0, len(coords), 3)
        sub = dmat[np.ix_(idx, idx)]
        radius, sep = float(np.median(dmat[5])), sub[np.triu_indices(idx.size, 1)].min()
        fresh = PointCloud(coords, metric=metric)
        got = self._reads(fresh, fam, radius, sep)
        assert _holds_no_matrix(fresh)
        assert got == {
            "ball": np.flatnonzero(dmat[5] <= radius + TOL).tolist(),
            "row": dmat[7].tolist(),
            "pairwise": dmat[np.ix_(idx, idx[::-1])].tolist(),
            "distance": dmat[3, 11],
            "diameter": sub.max(),
            "diam": dmat.max(),
            "gap": dmat[np.triu_indices(len(coords), 1)].min(),
            "packing": [True, False],
            "verify": {"ok": True, "violations": []},
            "scaling": True,
        }
        assert self._reads(_matrix_twin(coords, metric), fam, radius, sep) == got

    @pytest.mark.parametrize("kind", ["tree", "plane", "line"])
    def test_search_holds_no_matrix(self, monkeypatch, kind):
        # no n x n array on the cloud or from the distance kernel, and each
        # point's distances read at most once per session outside the verifier
        if kind == "line":    # 1-D balls are slices of the coordinate order
            cloud, depth = polarized_example_cloud(6), 6
        else:
            coords, metric, depth = _read_cloud(kind)
            cloud = PointCloud(coords, metric=metric)
        kernel, row_of = cloud_module._distance_blocks, PointCloud.distances_from
        shapes, reads = [], []

        def recording_kernel(a, b, metric):
            shapes.append((len(a), len(b)))
            return kernel(a, b, metric)

        def counting_row(self, i):
            if sys._getframe(1).f_code.co_name != "verify_regular":
                reads.append(int(i))
            return row_of(self, i)

        monkeypatch.setattr(cloud_module, "_distance_blocks", recording_kernel)
        monkeypatch.setattr(PointCloud, "distances_from", counting_row)
        assert search_regular(cloud, 2, 2, depth).family is not None
        search_reads = list(reads)
        assert max_regular_depth(cloud, 2, 2, depth + 1) == (depth, False)
        assert _holds_no_matrix(cloud)
        assert (cloud.n, cloud.n) not in shapes
        if kind != "line":   # 1-D separation checks read rows, as they always have
            assert search_reads and max(Counter(search_reads).values()) == 1
            assert max(Counter(reads[len(search_reads):]).values()) == 1

    def test_rows_held_within_the_budget(self, monkeypatch, sessions):
        # a budget of 40 points' rows: later points pack theirs again on each
        # use, and the search expands and finds what it does with every row held
        coords, metric, depth = _read_cloud("tree")
        cloud = PointCloud(coords, metric=metric)
        expected = _outcome(search_regular(cloud, 2, 2, depth))
        monkeypatch.setattr(cloud_module, "_DENSE_CAP",
                            40 * 2 * depth * sys.getsizeof((1 << cloud.n) - 1) // 8)
        assert _outcome(search_regular(cloud, 2, 2, depth)) == expected
        session = sessions[-1]
        assert len(session._held) == 40
        held = sum(sys.getsizeof(row) for rows in session._held.values() for row in rows)
        assert held <= 8 * cloud_module._DENSE_CAP
