from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracdim.cloud as cloud_module
from fracdim import (PointCloud, Subset, cantor_cloud, covering_number,
                     maximal_separated_family, packing_number, validate_cover,
                     validate_packing)
from fracdim.covering import (CoverResult, PackResult, _bb_max_separated,
                              _bb_min_clique_cover, _greedy_cover_parts, _greedy_pack_indices,
                              _separated_lower_bound, _sweep_cover_counts, _sweep_cover_parts)
from oracles import (bb_max_separated_oracle, bb_min_clique_cover_oracle,
                     certified_cover_count_1d, distance_row_oracle, exact_cover_oracle,
                     exact_pack_oracle, greedy_cover_oracle, greedy_pack_oracle,
                     random_metric_cloud, separated_family_oracle)

TOL = 1e-12


class TestCoveringExamples:
    def test_single_point(self, grid11):
        for r in (0.01, 1.0, 5.0):
            res = covering_number(grid11.subset([3]), r)
            assert res.count == 1 and res.exact

    def test_two_points_no_joint_part(self, two_points):
        res = covering_number(two_points.all_indices(), 0.5, mode="exact")
        assert res.count == 2

    def test_grid_r035(self, grid11):
        # frozen from the subset-DP oracle: three parts suffice and are needed
        sub = grid11.all_indices()
        dmat = np.abs(grid11.coords - grid11.coords.T)
        assert exact_cover_oracle(dmat, 0.35) == 3
        res = covering_number(sub, 0.35, mode="exact")
        assert res.count == 3 and res.exact
        assert validate_cover(sub, res, 0.35)

    def test_invalid_inputs(self, grid11):
        with pytest.raises(ValueError):
            covering_number(grid11.all_indices(), 0.0)
        with pytest.raises(ValueError):
            covering_number(grid11.all_indices(), 0.1, mode="nope")

    def test_exact_above_cutoff_rejected(self):
        rng = np.random.default_rng(0)
        cloud = PointCloud.from_matrix(random_metric_cloud(rng, 25, 2))
        with pytest.raises(ValueError, match="cutoff"):
            covering_number(cloud.all_indices(), 0.3, mode="exact", exact_cutoff=20)
        # auto mode falls back to greedy instead
        res = covering_number(cloud.all_indices(), 0.3, mode="auto", exact_cutoff=20)
        assert not res.exact

    @pytest.mark.parametrize("mode", ["exact", "greedy"])
    def test_empty_subset_counts_zero(self, grid11, mode):
        empty = Subset(grid11, [])
        cover = covering_number(empty, 0.5, mode=mode)
        assert cover.count == 0 and cover.parts == [] and validate_cover(empty, cover, 0.5)
        pack = packing_number(empty, 0.5, mode=mode)
        assert pack.count == 0 and len(pack.witnesses) == 0 and validate_packing(pack, 0.5)


class TestWitnessCheckers:
    """The independent checkers refuse witnesses that do not match their claim."""

    def test_cover_missing_a_point(self, grid11):
        sub = grid11.all_indices()
        res = covering_number(sub, 0.35, mode="exact")
        assert validate_cover(sub, res, 0.35)
        short = CoverResult(res.count, [res.parts[0], res.parts[1], grid11.subset([7, 8, 9])],
                            res.exact)
        assert not validate_cover(sub, short, 0.35)

    def test_cover_count_disagrees_with_parts(self, grid11):
        sub = grid11.all_indices()
        res = covering_number(sub, 0.35, mode="exact")
        assert not validate_cover(sub, CoverResult(res.count - 1, res.parts, res.exact), 0.35)

    def test_packing_count_disagrees_with_witnesses(self, grid11):
        res = packing_number(grid11.all_indices(), 0.25, mode="exact")
        assert validate_packing(res, 0.25)
        assert not validate_packing(PackResult(res.count + 1, res.witnesses, res.exact), 0.25)


class TestPackingExamples:
    def test_singleton(self, grid11):
        res = packing_number(grid11.subset([0]), 0.7)
        assert res.count == 1

    def test_grid_sep025(self, grid11):
        dmat = np.abs(grid11.coords - grid11.coords.T)
        assert exact_pack_oracle(dmat, 0.25) == 4
        res = packing_number(grid11.all_indices(), 0.25, mode="exact")
        assert res.count == 4
        assert validate_packing(res, 0.25)

    def test_two_far_points(self, two_points):
        res = packing_number(two_points.all_indices(), 2.0)
        assert res.count == 1

    def test_sep_nonpositive(self, grid11):
        with pytest.raises(ValueError):
            packing_number(grid11.all_indices(), 0.0)

    def test_exact_above_cutoff_rejected(self):
        rng = np.random.default_rng(1)
        cloud = PointCloud.from_matrix(random_metric_cloud(rng, 25, 2))
        with pytest.raises(ValueError, match="cutoff"):
            packing_number(cloud.all_indices(), 0.3, mode="exact", exact_cutoff=20)


class TestMaximalSeparatedFamily:
    def test_singleton_subset(self, grid11):
        fam = maximal_separated_family(grid11.subset([4]), 0.5, seed=4)
        assert list(fam.indices) == [4]

    def test_grid_fixed_scan(self, grid11):
        fam = maximal_separated_family(grid11.all_indices(), 0.25, seed=0)
        assert [round(grid11.coords[i, 0], 1) for i in fam.indices] == [0.0, 0.3, 0.6, 0.9]

    def test_two_points(self, two_points):
        fam = maximal_separated_family(two_points.all_indices(), 0.4, seed=0)
        assert list(fam.indices) == [0, 1]

    def test_seed_not_in_subset(self, grid11):
        with pytest.raises(ValueError):
            maximal_separated_family(grid11.subset([0, 1]), 0.5, seed=7)

    def test_maximality(self, grid11):
        fam = maximal_separated_family(grid11.all_indices(), 0.25, seed=5)
        chosen = set(fam.indices)
        for i in range(grid11.n):
            if i in chosen:
                continue
            dists = [grid11.distance(i, j) for j in chosen]
            assert min(dists) < 0.25 - TOL


class TestOracleAgreement:
    """Exact solvers against the independent subset-DP / subset-scan oracles."""

    def test_random_matrix_clouds(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(4, 11))
            dmat = random_metric_cloud(rng, n, int(rng.integers(1, 4)))
            cloud = PointCloud.from_matrix(dmat)
            sub = cloud.all_indices()
            finite = dmat[dmat > 0]
            for q in (0.25, 0.5, 0.75):
                r = float(np.quantile(finite, q))
                res = covering_number(sub, r, mode="exact")
                assert res.count == exact_cover_oracle(dmat, r)
                assert validate_cover(sub, res, r)
                greedy = covering_number(sub, r, mode="greedy")
                assert greedy.count >= res.count
                assert validate_cover(sub, greedy, r)
                pk = packing_number(sub, r, mode="exact")
                assert pk.count == exact_pack_oracle(dmat, r)
                gpk = packing_number(sub, r, mode="greedy")
                assert gpk.count <= pk.count
                assert validate_packing(gpk, r)

    def test_sweep_matches_bb_and_oracle_on_1d(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(4, 13))
            coords = np.sort(rng.choice(200, size=n, replace=False)) / 37.0
            sorted_cloud = PointCloud(coords)  # sweep path
            shuffled = coords.copy()
            rng.shuffle(shuffled)
            dmat = np.abs(shuffled[:, None] - shuffled[None, :])
            generic_cloud = PointCloud.from_matrix(dmat)  # branch-and-bound path
            r = float(np.quantile(dmat[dmat > 0], 0.4))
            a = covering_number(sorted_cloud.all_indices(), r, mode="exact").count
            b = covering_number(generic_cloud.all_indices(), r, mode="exact").count
            assert a == b == exact_cover_oracle(dmat, r)
            assert a == certified_cover_count_1d(coords, r)


class TestSweepCoverCounts:
    """Doubling-table counts against the sweep's parts and the certified 1-D oracle."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=24, unique=True),
           st.integers(1, 64))
    @example([7], 1)                      # n = 1
    @example([0, 4, 8, 12, 20, 21], 4)    # gaps exactly equal to r
    @example(list(range(0, 64, 2)), 2)    # every gap equal to r: the longest jump chain
    def test_every_contiguous_range(self, slots, r_slots):
        # multiples of 2^-6 keep every sum exact, so gaps can equal r exactly
        x = np.sort(np.asarray(slots, dtype=float)) / 64.0
        r = r_slots / 64.0
        cloud = PointCloud(x)
        lo, hi = np.triu_indices(x.size + 1)   # every lo <= hi, empty and single-point ranges too
        counts = _sweep_cover_counts(x, r, lo, hi, TOL)
        assert counts.shape == lo.shape
        for a, b, count in zip(lo, hi, counts):
            parts = _sweep_cover_parts(cloud, np.arange(a, b), r, TOL)
            assert count == len(parts) == certified_cover_count_1d(x[a:b], r)

    def test_gap_within_tol_joins_one_part(self):
        x = np.array([0.0, 0.1 + 0.2])   # 0.30000000000000004, within tol of r
        counts = _sweep_cover_counts(x, 0.3, [0], [2], TOL)
        assert counts.tolist() == [1] == [certified_cover_count_1d(x, 0.3)]


class TestGreedyCoverParts:
    """The bitset scan of the compatibility matrix against the row-by-row greedy scan."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 15 * 16 + 15), min_size=1, max_size=90, unique=True),
           st.sampled_from(["euclidean", "l1"]), st.integers(1, 12), st.data())
    @example([0, 3, 4, 64, 67], "euclidean", 5, None)   # 3-4-5 triangles: distances exactly r
    def test_parts_match_oracle(self, cells, metric, r_steps, data):
        # a 16 x 16 grid of spacing 1/8: l1 distances and 3-4-5 euclidean
        # distances are exact, so many land exactly on r
        coords = np.array([[c // 16, c % 16] for c in cells], dtype=float) / 8.0
        cloud = PointCloud(coords, metric=metric)
        r = r_steps / 8.0
        if data is None:
            keep = list(range(len(cells)))
        else:
            keep = data.draw(st.lists(st.sampled_from(range(len(cells))), min_size=1,
                                      unique=True))
        idx = np.asarray(sorted(keep), dtype=np.int64)
        dmat = np.stack([distance_row_oracle(coords, i, metric) for i in range(len(cells))])
        expected = [idx[p].tolist() for p in greedy_cover_oracle(dmat[np.ix_(idx, idx)], r, TOL)]
        assert [p.tolist() for p in _greedy_cover_parts(cloud, idx, r, TOL)] == expected
        with mock.patch.object(cloud_module, "_DENSE_CAP", 0):   # the candidate scan
            assert [p.tolist() for p in _greedy_cover_parts(cloud, idx, r, TOL)] == expected

    @pytest.mark.parametrize("block, cap", [(None, None), (100, None), (1000, None),
                                            (None, 69 * 69)])
    def test_matrix_cloud_and_empty_subset(self, monkeypatch, block, cap):
        if block is not None:   # compatibility rows built 1 and 14 at a time
            monkeypatch.setattr(cloud_module, "_BLOCK_ELEMENTS", block)
        if cap is not None:     # 70 points: each row built when its point joins a part
            monkeypatch.setattr(cloud_module, "_DENSE_CAP", cap)
        dmat = random_metric_cloud(np.random.default_rng(21), 70, 3)
        cloud = PointCloud.from_matrix(dmat)
        for r in (0.1, 0.3, 0.6):
            expected = [p.tolist() for p in greedy_cover_oracle(dmat, r, TOL)]
            got = _greedy_cover_parts(cloud, np.arange(70), r, TOL)
            assert [p.tolist() for p in got] == expected
        assert _greedy_cover_parts(cloud, np.empty(0, dtype=np.int64), 0.1, TOL) == []

    @pytest.mark.parametrize("metric", ["euclidean", "l1"])
    def test_coordinate_cloud_above_cap(self, monkeypatch, metric):
        # the whole dyadic 16 x 16 grid, with the cap just below its 256 points
        monkeypatch.setattr(cloud_module, "_DENSE_CAP", 255 * 255)
        coords = np.array([[c // 16, c % 16] for c in range(256)], dtype=float) / 8.0
        cloud = PointCloud(coords, metric=metric)
        dmat = np.stack([distance_row_oracle(coords, i, metric) for i in range(256)])
        sub = cloud.all_indices()
        for r in (0.125, 0.5, 0.625):
            expected = [p.tolist() for p in greedy_cover_oracle(dmat, r, TOL)]
            res = covering_number(sub, r, mode="greedy")
            assert [p.indices.tolist() for p in res.parts] == expected
            assert validate_cover(sub, res, r)
        assert cloud.dense() is None


def _separated_scans(cloud, idx, radius, seed_pos):
    """Every family the greedy scan gives at ``radius``, as index lists."""
    out = {"separated": _separated_lower_bound(cloud, idx, radius, TOL).tolist(),
           "pack": _greedy_pack_indices(cloud, idx, radius, TOL).tolist(),
           "packing_number": packing_number(Subset(cloud, idx), radius).witnesses.indices.tolist()}
    if seed_pos is not None:
        fam = maximal_separated_family(Subset(cloud, idx), radius, seed=idx[seed_pos])
        out["seeded"] = fam.indices.tolist()
    return out


def _separated_oracles(dmat, idx, radius, seed_pos):
    out = {"separated": idx[separated_family_oracle(dmat, radius, TOL)].tolist(),
           "pack": idx[greedy_pack_oracle(dmat, radius, TOL)].tolist()}
    out["packing_number"] = out["pack"]
    if seed_pos is not None:
        out["seeded"] = idx[greedy_pack_oracle(dmat, radius, TOL, seed=seed_pos)].tolist()
    return out


class TestGreedySeparatedFamilies:
    """The separated family and the greedy packing, both first parts of the greedy
    scan, against the row-by-row scans they replaced."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 15 * 16 + 15), min_size=1, max_size=90, unique=True),
           st.sampled_from(["euclidean", "l1"]), st.integers(1, 12), st.data())
    @example([0, 3, 4, 64, 67], "euclidean", 5, None)   # 3-4-5 triangles: distances exactly 5/8
    def test_families_match_oracles(self, cells, metric, steps, data):
        # the dyadic 16 x 16 grid of TestGreedyCoverParts: many distances equal the radius
        coords = np.array([[c // 16, c % 16] for c in cells], dtype=float) / 8.0
        cloud = PointCloud(coords, metric=metric)
        radius = steps / 8.0
        if data is None:
            keep, seed_pos = list(range(len(cells))), 0
        else:
            keep = data.draw(st.lists(st.sampled_from(range(len(cells))), min_size=1,
                                      unique=True))
            seed_pos = data.draw(st.one_of(st.none(), st.integers(0, len(keep) - 1)))
        idx = np.asarray(sorted(keep), dtype=np.int64)
        dmat = np.stack([distance_row_oracle(coords, i, metric) for i in idx])[:, idx]
        expected = _separated_oracles(dmat, idx, radius, seed_pos)
        assert _separated_scans(cloud, idx, radius, seed_pos) == expected
        with mock.patch.object(cloud_module, "_DENSE_CAP", 0):   # the candidate scan
            assert _separated_scans(cloud, idx, radius, seed_pos) == expected

    @pytest.mark.parametrize("cap", [None, 0])
    def test_matrix_cloud(self, monkeypatch, cap):
        if cap is not None:
            monkeypatch.setattr(cloud_module, "_DENSE_CAP", cap)
        dmat = random_metric_cloud(np.random.default_rng(22), 70, 3)
        cloud = PointCloud.from_matrix(dmat)
        idx = np.arange(70)
        for radius in (0.1, 0.3, 0.6):
            for seed_pos in (None, 0, 41):
                assert (_separated_scans(cloud, idx, radius, seed_pos)
                        == _separated_oracles(dmat, idx, radius, seed_pos))

    @pytest.mark.parametrize("cap", [None, 0])
    def test_distances_within_tol_of_the_radius(self, monkeypatch, cap):
        if cap is not None:
            monkeypatch.setattr(cloud_module, "_DENSE_CAP", cap)
        half = TOL / 2
        dmat = np.array([[0.0, 1 + half, 1 + 4 * half],
                         [1 + half, 0.0, 1 - half],
                         [1 + 4 * half, 1 - half, 0.0]])
        cloud = PointCloud.from_matrix(dmat)
        idx = np.arange(3)
        # separated: only 1 + 2 tol exceeds 1 + tol; packing: every distance is >= 1 - tol
        expected = {"separated": [0, 2], "pack": [0, 1, 2], "packing_number": [0, 1, 2],
                    "seeded": [0, 1, 2]}
        assert _separated_oracles(dmat, idx, 1.0, 1) == expected
        assert _separated_scans(cloud, idx, 1.0, 1) == expected

    @pytest.mark.parametrize("cap", [None, 0])
    def test_empty_and_one_point(self, monkeypatch, cap):
        if cap is not None:
            monkeypatch.setattr(cloud_module, "_DENSE_CAP", cap)
        cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        empty = np.empty(0, dtype=np.int64)
        assert _separated_lower_bound(cloud, empty, 0.5, TOL).tolist() == []
        assert _greedy_pack_indices(cloud, empty, 0.5, TOL).tolist() == []
        one = np.array([2])
        assert _separated_scans(cloud, one, 0.5, 0) == {
            "separated": [2], "pack": [2], "packing_number": [2], "seeded": [2]}


def _exact_solves(cloud, idx, r):
    """The exact cover's parts and the exact packing's family at ``r``, as index lists."""
    return ([p.tolist() for p in _bb_min_clique_cover(cloud, idx, r, TOL)],
            _bb_max_separated(cloud, idx, r, TOL).tolist())


def _exact_oracles(dmat, idx, r):
    return ([idx[p].tolist() for p in bb_min_clique_cover_oracle(dmat, r, TOL)],
            idx[bb_max_separated_oracle(dmat, r, TOL)].tolist())


def _grid_instance(cells, metric, keep):
    """A cloud on the dyadic 16 x 16 grid of spacing 1/8, the sorted points
    ``keep`` of it and their distance matrix."""
    coords = np.array([[c // 16, c % 16] for c in cells], dtype=float) / 8.0
    idx = np.asarray(sorted(keep), dtype=np.int64)
    dmat = np.stack([distance_row_oracle(coords, i, metric) for i in range(len(cells))])
    return PointCloud(coords, metric=metric), idx, dmat[np.ix_(idx, idx)]


class TestBitsetExactSolvers:
    """The exact solvers on bitset rows against the index-order solvers they
    replaced: the same parts and the same family, not only the same counts."""

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.integers(0, 15 * 16 + 15), min_size=1, max_size=16, unique=True),
           st.sampled_from(["euclidean", "l1"]), st.integers(1, 12), st.data())
    @example([0, 3, 4, 64, 67], "euclidean", 5, None)   # 3-4-5 triangles: distances exactly r
    @example([1, 2, 0, 3], "euclidean", 1, None)        # greedy 3 parts, optimum 2
    def test_dyadic_grid(self, cells, metric, steps, data):
        if data is None:
            keep = range(len(cells))
        else:
            keep = data.draw(st.lists(st.sampled_from(range(len(cells))), unique=True))
        cloud, idx, dmat = _grid_instance(cells, metric, keep)
        expected = _exact_oracles(dmat, idx, steps / 8.0)
        assert _exact_solves(cloud, idx, steps / 8.0) == expected
        with mock.patch.object(cloud_module, "_BLOCK_ELEMENTS", 8):   # one row per block
            assert _exact_solves(cloud, idx, steps / 8.0) == expected

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 16), st.sampled_from([1.0, 1.25, 1.5, 1.75, 2.0]), st.data())
    def test_matrix_cloud(self, n, r, data):
        # distances in [1, 2] always obey the triangle inequality; many equal r
        steps = data.draw(st.lists(st.integers(0, 4), min_size=n * (n - 1) // 2,
                                   max_size=n * (n - 1) // 2))
        dmat = np.zeros((n, n))
        dmat[np.triu_indices(n, 1)] = 1 + np.asarray(steps, dtype=float) / 4
        dmat += dmat.T
        keep = data.draw(st.lists(st.sampled_from(range(n)), unique=True))
        idx = np.asarray(sorted(keep), dtype=np.int64)
        cloud = PointCloud.from_matrix(dmat)
        expected = _exact_oracles(dmat[np.ix_(idx, idx)], idx, r)
        assert _exact_solves(cloud, idx, r) == expected
        with mock.patch.object(cloud_module, "_BLOCK_ELEMENTS", 8):
            assert _exact_solves(cloud, idx, r) == expected

    @pytest.mark.parametrize("cells, keep, steps, greedy, bound, exact", [
        ([5, 9], [], 1, 0, 0, 0),                       # no points
        ([5, 9], [1], 1, 1, 1, 1),                      # one point
        ([0, 15, 255], range(3), 1, 3, 3, 3),           # greedy meets the separated bound
        ([0, 3, 4, 64, 67], range(5), 5, 2, 1, 2),      # the search confirms greedy
        ([1, 2, 0, 3], range(4), 1, 3, 2, 2),           # the search improves on greedy
    ])
    def test_paths(self, cells, keep, steps, greedy, bound, exact):
        cloud, idx, dmat = _grid_instance(cells, "euclidean", keep)
        r = steps / 8.0
        assert len(_greedy_cover_parts(cloud, idx, r, TOL)) == greedy
        assert len(_separated_lower_bound(cloud, idx, r, TOL)) == bound
        assert len(_bb_min_clique_cover(cloud, idx, r, TOL)) == exact
        assert _exact_solves(cloud, idx, r) == _exact_oracles(dmat, idx, r)


class TestProperties:
    def test_sandwich(self, grid11):
        sub = grid11.all_indices()
        for r in (0.15, 0.25, 0.35, 0.5):
            cover = covering_number(sub, r, mode="exact")
            pack = packing_number(sub, r * (1 + 1e-9) + 4 * TOL, mode="exact")
            assert pack.count <= cover.count

    def test_sandwich_random_metric(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            dmat = random_metric_cloud(rng, 9, 2)
            cloud = PointCloud.from_matrix(dmat)
            r = float(np.quantile(dmat[dmat > 0], 0.5))
            cover = covering_number(cloud.all_indices(), r, mode="exact")
            pack = packing_number(cloud.all_indices(), r * (1 + 1e-9) + 4 * TOL,
                                  mode="exact")
            assert pack.count <= cover.count

    def test_monotone_in_r(self, grid11):
        sub = grid11.all_indices()
        counts = [covering_number(sub, r, mode="exact").count
                  for r in (0.1, 0.2, 0.3, 0.5, 1.0)]
        assert counts == sorted(counts, reverse=True)

    def test_cantor_ball_cover_is_exact(self):
        cloud = cantor_cloud(5)
        sub = cloud.all_indices()
        for r in (3.0 ** -2, 3.0 ** -3):
            res = covering_number(sub, r, mode="exact")
            assert res.exact
            assert res.count == certified_cover_count_1d(cloud.coords[:, 0], r)

    def test_determinism(self, grid11):
        sub = grid11.all_indices()
        a = covering_number(sub, 0.35, mode="exact")
        b = covering_number(sub, 0.35, mode="exact")
        assert [list(p.indices) for p in a.parts] == [list(p.indices) for p in b.parts]
        pa = packing_number(sub, 0.25, mode="greedy")
        pb = packing_number(sub, 0.25, mode="greedy")
        assert list(pa.witnesses.indices) == list(pb.witnesses.indices)
