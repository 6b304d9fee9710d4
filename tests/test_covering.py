import itertools
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracdim.cloud as cloud_module
import fracdim.covering as covering_module
import fracdim.regular as regular_module
from fracdim import (PointCloud, RegularFamily, ScaleWindow, Subset, cantor_cloud,
                     certificate_scaling_check, closed_ball, covering_number, diameter,
                     hausdorff_distance, lower_dim_estimate, maximal_separated_family,
                     packing_number, search_regular, validate_cover, validate_packing,
                     verify_regular)
from fracdim.covering import (CoverResult, PackResult, _ball_counts, _bb_max_separated,
                              _bb_min_clique_cover, _greedy_cover_parts, _greedy_pack_indices,
                              _greedy_parts, _min_clique_cover, _relation_rows, _scan, _separated_lower_bound,
                              _sweep_cover_counts, _sweep_cover_parts, _unpacked_bits)
from oracles import (bb_max_separated_oracle, bb_min_clique_cover_oracle,
                     certified_cover_count_1d, distance_row_oracle, exact_cover_oracle,
                     exact_pack_oracle, greedy_cover_oracle, greedy_estimate_counts_oracle,
                     greedy_pack_oracle, random_metric_cloud, separated_family_oracle)

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

    def test_cover_parts_may_overlap_but_not_leave_the_subset(self, grid11):
        # the parts' union, each index once, must be the subset itself
        sub = grid11.subset(range(8))
        overlapping = [grid11.subset(range(5)), grid11.subset(range(3, 8)), grid11.subset([4])]
        assert validate_cover(sub, CoverResult(3, overlapping, False), 0.5)
        beyond = [grid11.subset(range(5)), grid11.subset(range(4, 9))]   # 8 is not in sub
        assert not validate_cover(sub, CoverResult(2, beyond, False), 0.5)
        short = [grid11.subset(range(1, 8))]   # 0 is in no part
        assert not validate_cover(sub, CoverResult(1, short, False), 0.7)

    def test_cover_check_loads_no_numpy_ma(self):
        # numpy.ma costs about 15 ms and 0.5 MB the first time it is imported
        script = ("import sys\n"
                  "from fracdim import PointCloud, covering_number, validate_cover\n"
                  "s = PointCloud([[0, 0], [1, 0], [0, 1], [3, 3]]).all_indices()\n"
                  "before = 'numpy.ma' in sys.modules\n"
                  "assert validate_cover(s, covering_number(s, 1.0), 1.0)\n"
                  "print(before, 'numpy.ma' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]

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

    @pytest.mark.parametrize("mode", ["greedy", "exact"])
    def test_sep_within_tol_takes_every_point(self, mode):
        # sep - tol < 0: every pair is far enough, and the sweep still advances
        res = packing_number(PointCloud([0, .5, 1]).all_indices(), 1e-13, mode=mode)
        assert res.count == 3 and validate_packing(res, 1e-13)

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


def _cover_parts(cloud, idx, r):
    """The greedy parts of ``idx`` under d <= r + tol, as index arrays: the scan
    of ``covering_number``, after checking that the bitset form the certificate
    search calls, on ``idx``'s relation rows, gives the same parts."""
    parts = list(_greedy_parts(cloud, idx, lambda d: d <= r + TOL))
    [rows] = _relation_rows(cloud, idx, lambda d: d <= r + TOL)
    assert [idx[p].tolist() for p in _greedy_cover_parts(rows, (1 << idx.size) - 1)] == \
        [p.tolist() for p in parts]
    return parts


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
        assert [p.tolist() for p in _cover_parts(cloud, idx, r)] == expected
        with mock.patch.object(cloud_module, "_DENSE_CAP", 0):   # the cap bounds no greedy scan
            assert [p.tolist() for p in _cover_parts(cloud, idx, r)] == expected

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
            got = _cover_parts(cloud, np.arange(70), r)
            assert [p.tolist() for p in got] == expected
        assert _cover_parts(cloud, np.empty(0, dtype=np.int64), 0.1) == []

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


def _separated_family(cloud, idx, radius):
    """:func:`_separated_lower_bound` of all of ``idx`` on its relation at ``radius``,
    as an index list."""
    [rows] = _relation_rows(cloud, idx, lambda d: d <= radius + TOL)
    family = _separated_lower_bound(rows, (1 << idx.size) - 1)
    return [int(i) for u, i in enumerate(idx) if family >> u & 1]


def _separated_scans(cloud, idx, radius, seed_pos):
    """Every family the greedy scan gives at ``radius``, as index lists."""
    out = {"separated": _separated_family(cloud, idx, radius),
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
        with mock.patch.object(cloud_module, "_DENSE_CAP", 0):   # the cap bounds no greedy scan
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
        assert _separated_family(cloud, empty, 0.5) == []
        assert _greedy_pack_indices(cloud, empty, 0.5, TOL).tolist() == []
        one = np.array([2])
        assert _separated_scans(cloud, one, 0.5, 0) == {
            "separated": [2], "pack": [2], "packing_number": [2], "seeded": [2]}


class TestGreedyReadsOneRowPerMember:
    """Greedy covers and packings pack no relation up front: each member they
    take reads one distance row, to the candidates that remain."""

    @pytest.mark.parametrize("cap", [None, 0])
    @pytest.mark.parametrize("kind", ["coordinates", "matrix"])
    def test_rows_read(self, monkeypatch, kind, cap):
        if cap is not None:
            monkeypatch.setattr(cloud_module, "_DENSE_CAP", cap)
        rng = np.random.default_rng(31)
        if kind == "matrix":
            dmat = random_metric_cloud(rng, 120, 2)
            cloud = PointCloud.from_matrix(dmat)
        else:
            coords = rng.uniform(0.0, 1.0, size=(120, 2))
            cloud = PointCloud(coords)
            dmat = np.stack([distance_row_oracle(coords, i, "euclidean") for i in range(120)])
        sub, r = cloud.all_indices(), 0.15
        rows, pairwise = [], PointCloud.pairwise

        def recording_pairwise(self, idx, cols=None):
            block = pairwise(self, idx, cols)
            rows.append(len(block))
            return block

        monkeypatch.setattr(PointCloud, "pairwise", recording_pairwise)
        monkeypatch.setattr(covering_module, "_relation_rows", mock.Mock(side_effect=AssertionError))
        want = [p.tolist() for p in greedy_cover_oracle(dmat, r, TOL)]
        for mode, cutoff in (("greedy", 20), ("auto", 5)):   # auto above the cutoff
            rows.clear()
            res = covering_number(sub, r, mode=mode, exact_cutoff=cutoff)
            assert [p.indices.tolist() for p in res.parts] == want and not res.exact
            assert rows and set(rows) == {1}
        rows.clear()
        pack = packing_number(sub, r)
        assert pack.witnesses.indices.tolist() == greedy_pack_oracle(dmat, r, TOL)
        assert set(rows) == {1} and len(rows) <= pack.count
        rows.clear()
        fam = maximal_separated_family(sub, r, seed=41)
        assert fam.indices.tolist() == greedy_pack_oracle(dmat, r, TOL, seed=41)
        assert set(rows) == {1} and len(rows) <= len(fam)


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

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 15 * 16 + 15), min_size=1, max_size=16, unique=True),
           st.sampled_from(["euclidean", "l1"]), st.integers(1, 12), st.data())
    @example([1, 2, 0, 3], "euclidean", 1, None)        # greedy 3 parts, optimum 2
    def test_whole_cloud_rows_within_a_mask(self, cells, metric, steps, data):
        # the estimate's exact rows: the relation of every point, restricted
        # to a mask, gives the parts of the solve on the masked points alone
        if data is None:
            keep = range(len(cells))
        else:
            keep = data.draw(st.lists(st.sampled_from(range(len(cells))), unique=True))
        cloud, idx, _ = _grid_instance(cells, metric, keep)
        r = steps / 8.0
        [rows] = _relation_rows(cloud, np.arange(cloud.n), lambda d: d <= r + TOL)
        parts = _min_clique_cover(rows, sum(1 << int(i) for i in idx))
        assert [[u for u in range(cloud.n) if part >> u & 1] for part in parts] \
            == [p.tolist() for p in _bb_min_clique_cover(cloud, idx, r, TOL)]

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
        assert len(_cover_parts(cloud, idx, r)) == greedy
        assert len(_separated_family(cloud, idx, r)) == bound
        assert len(_bb_min_clique_cover(cloud, idx, r, TOL)) == exact
        assert _exact_solves(cloud, idx, r) == _exact_oracles(dmat, idx, r)


def _no_count(rows, ball):
    raise AssertionError("count called on a 1-D cloud")


def _exact_count(rows, ball):
    return len(_min_clique_cover(rows, ball))


def _separated_count(rows, ball):
    return _separated_lower_bound(rows, ball).bit_count()


def _scan_count(rows, ball):
    return len(_scan(rows, ball)[1]) - 1


_PAIRS = st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), max_size=3)


class TestBallCounts:
    """The ball-count kernel on a subset ``idx`` of the cloud, in any order,
    against oracles on each ball B(idx[t], R) within ``idx``."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=24, unique=True), _PAIRS,
           st.data())
    @example(list(range(20, 0, -2)), [(2, 1), (4, 2)], None)   # descending, gaps equal to r
    def test_1d_permuted_storage(self, slots, steps, data):
        # storage order is the drawn order; multiples of 2^-6 keep every sum exact
        coords = np.asarray(slots, dtype=float)[:, None] / 64.0
        cloud = PointCloud(coords)
        keep = (range(len(slots)) if data is None else
                data.draw(st.lists(st.sampled_from(range(len(slots))), min_size=1, unique=True)))
        idx = np.asarray(keep, dtype=np.int64)
        pairs = [(R / 64.0, r / 64.0) for R, r in steps]
        counts = _ball_counts(cloud, idx, pairs, TOL, _no_count)
        assert counts.shape == (idx.size, len(pairs)) and counts.dtype == np.int64
        for t, i in enumerate(idx):
            row = distance_row_oracle(coords, i, "euclidean")[idx]
            for p, (R, r) in enumerate(pairs):
                ball = coords[idx[row <= R + TOL], 0]
                assert counts[t, p] == certified_cover_count_1d(ball, r)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 15 * 16 + 15), min_size=1, max_size=14, unique=True),
           st.sampled_from(["euclidean", "l1", "matrix"]), _PAIRS, st.data())
    @example([0, 3, 4, 64, 67], "euclidean", [(5, 5), (10, 1)], None)   # distances exactly r
    def test_generic(self, cells, metric, steps, data):
        # the dyadic 16 x 16 grid of spacing 1/8; a matrix cloud holds its euclidean distances
        coords = np.array([[c // 16, c % 16] for c in cells], dtype=float) / 8.0
        dmat = np.stack([distance_row_oracle(coords, i, metric if metric == "l1" else "euclidean")
                         for i in range(len(cells))])

        def fresh():
            return (PointCloud.from_matrix(dmat) if metric == "matrix"
                    else PointCloud(coords, metric=metric))

        keep = (range(len(cells)) if data is None else
                data.draw(st.lists(st.sampled_from(range(len(cells))), min_size=1, unique=True)))
        idx = np.asarray(keep, dtype=np.int64)
        pairs = [(R / 8.0, r / 8.0) for R, r in steps]
        expected = {_exact_count: np.zeros((idx.size, len(pairs)), dtype=np.int64),
                    _separated_count: np.zeros((idx.size, len(pairs)), dtype=np.int64)}
        for t, i in enumerate(idx):
            for p, (R, r) in enumerate(pairs):
                ball = idx[dmat[i, idx] <= R + TOL]   # positions in idx order
                sub = dmat[np.ix_(ball, ball)]
                expected[_exact_count][t, p] = exact_cover_oracle(sub, r)
                expected[_separated_count][t, p] = len(separated_family_oracle(sub, r, TOL))
        # the greedy count, by the one-pass kernel (None) and by scanning ball by ball
        greedy = np.array(greedy_estimate_counts_oracle(dmat[np.ix_(idx, idx)], pairs, TOL),
                          dtype=np.int64).reshape(idx.size, len(pairs))
        expected.update({None: greedy, _scan_count: greedy})
        for count, want in expected.items():
            held = PointCloud.from_matrix(dmat)     # blocks are sliced from its matrix
            assert _ball_counts(held, idx, pairs, TOL, count).tolist() == want.tolist()
            with mock.patch.object(cloud_module, "_BLOCK_ELEMENTS", 8):   # one row per block
                assert _ball_counts(fresh(), idx, pairs, TOL, count).tolist() == want.tolist()
            with mock.patch.object(cloud_module, "_DENSE_CAP", 0):   # the cap bounds no read
                assert _ball_counts(fresh(), idx, pairs, TOL, count).tolist() == want.tolist()

    def test_greedy_reads_balls_by_column(self):
        # symmetric only within tol: d(0, 1) = 1 + tol would put 1 in B(0, 1), but
        # d(1, 0) = 1 + 1.5 tol would not put 0 in B(1, 1).  The cloud stores the
        # larger both ways round, so rows and columns agree: neither ball holds both.
        dmat = np.array([[0.0, 1 + TOL, 0.5], [1 + 1.5 * TOL, 0.0, 0.6], [0.5, 0.6, 0.0]])
        cloud = PointCloud.from_matrix(dmat)
        stored = np.maximum(dmat, dmat.T)
        assert dmat[0, 1] <= 1 + TOL < dmat[1, 0] and np.array_equal(cloud.matrix, stored)
        want = [[2], [2], [3]]
        assert greedy_estimate_counts_oracle(stored, [(1.0, 0.25)], TOL) == want
        for count in (None, _scan_count):
            assert _ball_counts(cloud, np.arange(3), [(1.0, 0.25)], TOL, count).tolist() == want

    def test_distances_within_tol_of_the_scale(self):
        # 0.1 + 0.2 is an ulp above 0.3, and 1 + tol/2 above 1: both are in the
        # ball at R and in one part at r
        line = PointCloud([[0.1 + 0.2], [0.0], [1.0]])
        assert _ball_counts(line, np.arange(3), [(0.3, 0.1), (0.3, 0.3)], TOL,
                            _no_count).tolist() == [[2, 1], [2, 1], [1, 1]]
        dmat = np.array([[0.0, 1 + TOL / 2, 3.0], [1 + TOL / 2, 0.0, 3.0], [3.0, 3.0, 0.0]])
        matrix = PointCloud.from_matrix(dmat)
        assert _ball_counts(matrix, np.arange(3), [(1.0, 0.5), (1.0, 1.0)], TOL,
                            _exact_count).tolist() == [[2, 1], [2, 1], [1, 1]]


# A dyadic tol: a distance plus tol or tol / 2 is exact, so is the asymmetry it makes.
_DYADIC_TOL = 2.0 ** -40


@st.composite
def _asymmetric_matrices(draw):
    """A metric on at most 8 points with its upper or lower triangle raised by 0,
    tol / 2 or tol: random euclidean distances, or point 0 at 1/2 from points
    pairwise within 2.5 tol of 1, level 1's separation at k = 2."""
    n = draw(st.integers(2, 8))
    if draw(st.booleans()):
        dmat = random_metric_cloud(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), n, 2)
    else:
        steps = draw(st.lists(st.integers(-5, 0), min_size=n * n, max_size=n * n))
        dmat = 1 + np.reshape(steps, (n, n)) * (_DYADIC_TOL / 2)
        dmat = np.minimum(dmat, dmat.T)
        dmat[0, :] = dmat[:, 0] = 0.5
        np.fill_diagonal(dmat, 0.0)
    lift = draw(st.lists(st.sampled_from([0.0, _DYADIC_TOL / 2, _DYADIC_TOL]),
                         min_size=n * n, max_size=n * n))
    lifted = dmat + np.triu(np.reshape(lift, (n, n)), 1)
    return lifted.T if draw(st.booleans()) else lifted


class TestSymmetricStorage:
    """A matrix symmetric only within tol is stored as max(m, m.T), and every
    layer, from relation rows to the certificate search, reads that."""

    @settings(max_examples=80, deadline=None)
    @given(_asymmetric_matrices(), st.integers(1, 2), st.booleans(), st.data())
    # d(1, 2) < 1 - tol <= d(2, 1): separated read from 2, as the search read it, not from 1
    @example(np.array([[0, .5, .5], [.5, 0, 1 - 1.5 * _DYADIC_TOL],
                       [.5, 1 - .5 * _DYADIC_TOL, 0]]), 1, False, None)
    # d(1, 2) = 1 - 2 tol: one part with 1 under "within 1 - 2 tol" read from 1, yet
    # separated from 1 read from 2, so 1, 2 and 3 would pack in two parts
    @example(np.array([[0, .5, .5, .5], [.5, 0, 1 - 2 * _DYADIC_TOL, 1],
                       [.5, 1 - _DYADIC_TOL, 0, 1], [.5, 1, 1, 0]]), 1, False, None)
    def test_every_layer_reads_the_stored_matrix(self, dmat, depth, strong, data):
        tol, n = _DYADIC_TOL, len(dmat)
        cloud = PointCloud(metric="matrix", matrix=dmat, tol=tol)
        stored = np.maximum(dmat, dmat.T)
        assert np.array_equal(cloud.matrix, stored)
        scales = sorted({float(d) for d in stored[np.triu_indices(n, 1)]})
        relations = _relation_rows(cloud, np.arange(n), *[lambda d, s=s: d <= s + tol for s in scales],
                                   *[lambda d, s=s: d >= s - tol for s in scales])
        for rows in relations:
            bits = _unpacked_bits(rows, n)
            assert np.array_equal(bits, bits.T)

        if data is None:    # every point, in index order
            idx, pairs, cands = np.arange(n), [(1.0, 0.5)], list(range(n))
        else:
            idx = np.asarray(data.draw(st.permutations(range(n))), dtype=np.int64)
            pairs = data.draw(st.lists(st.tuples(st.sampled_from(scales), st.sampled_from(scales)),
                                       min_size=1, max_size=3))
            cands = sorted(data.draw(st.sets(st.sampled_from(range(n)), min_size=1)))
        sub = stored[np.ix_(idx, idx)]
        greedy = greedy_estimate_counts_oracle(sub, pairs, tol)
        balls = [[np.flatnonzero(row <= R + tol) for R, _ in pairs] for row in sub]
        exact = [[exact_cover_oracle(sub[np.ix_(ball, ball)], r, tol)
                  for ball, (_, r) in zip(row, pairs)] for row in balls]
        assert _ball_counts(cloud, idx, pairs, tol).tolist() == greedy
        assert _ball_counts(cloud, idx, pairs, tol, _exact_count).tolist() == exact

        res = search_regular(cloud, 2, 2, depth, strong=strong, tol=tol)   # raises if unverified
        assert res.family is None or verify_regular(cloud, res.family, tol).ok
        session = regular_module._Search(cloud, 2, 2, strong, tol, depth)
        for level in range(depth):
            sep = regular_module.level_separation(2, level + 1)
            largest = exact_pack_oracle(stored[np.ix_(cands, cands)], sep, tol)
            assert session._pack_upper_bound(level, cands) >= largest


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


FOUND_1D = [0.22, 1.153, 2.495, 3.274, 3.387, 4.095, 4.397, 6.622, 7.589, 7.604]


def _floats_around(v):
    return np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)


class TestOneComparisonRule:
    """A sorted 1-D cloud decides by kernel distances, like the same distances
    as a matrix and the same points in another order: balls, exact covers and
    packings, estimate tables, searches and scaling-check verdicts agree at
    radii within an ulp of a gap minus (or plus) tol, and diameters, the
    smallest gap and Hausdorff distances agree bit for bit."""

    def test_found_example(self):
        cloud = PointCloud(FOUND_1D)
        r = 0.9669999999990004
        res = covering_number(cloud.all_indices(), r, mode="exact")
        assert res.count == 5 and validate_cover(cloud.all_indices(), res, r)

    @staticmethod
    def _points(seed):
        """(sorted points, permutation) of one seeded case."""
        rng = np.random.default_rng(seed)
        # 3-decimal coordinates in [0, 8): their gaps are not dyadic
        x = (np.asarray(FOUND_1D) if seed == 0
             else np.sort(rng.choice(8000, size=8, replace=False)) / 1000)
        return x, rng.permutation(x.size)

    @staticmethod
    def _copies(x, perm):
        """(cloud, map from its positions to sorted positions) for the three copies."""
        n = x.size
        return ((PointCloud(x), np.arange(n)),
                (PointCloud.from_matrix(np.abs(x[:, None] - x[None, :])), np.arange(n)),
                (PointCloud(x[perm]), perm))

    @pytest.mark.parametrize("seed", range(6))
    def test_three_copies_agree(self, seed):
        x, perm = self._points(seed)
        copies = self._copies(x, perm)
        gaps = np.unique(np.abs(x[:, None] - x[None, :])[np.triu_indices(x.size, 1)])
        for g in gaps:
            for r in _floats_around(g - TOL):
                for c in range(x.size):
                    balls = [set(to_sorted[closed_ball(cloud, int(np.flatnonzero(to_sorted == c)[0]),
                                                       r).indices].tolist())
                             for cloud, to_sorted in copies]
                    assert balls[0] == balls[1] == balls[2]
                covers = [covering_number(cloud.all_indices(), r, mode="exact")
                          for cloud, _ in copies]
                assert covers[0].count == covers[1].count == covers[2].count
                assert all(validate_cover(cloud.all_indices(), cover, r)
                           for (cloud, _), cover in zip(copies, covers))
                tables = [sorted((int(to_sorted[c]), R, rr, n) for c, R, rr, n, _ in
                                 lower_dim_estimate(cloud, ScaleWindow(r / 2, 2 * r, 2.0, 2.0)).table)
                          for cloud, to_sorted in copies]
                assert tables[0] == tables[1] == tables[2]
            for sep in _floats_around(g + TOL):
                packs = [packing_number(cloud.all_indices(), sep, mode="exact")
                         for cloud, _ in copies]
                assert packs[0].count == packs[1].count == packs[2].count
                assert all(validate_packing(pack, sep) for pack in packs)
        # tolerances that put R + tol or r + tol of a needed-l^m probe on a gap
        back = np.argsort(perm)
        for g in gaps:
            for rho in (1.0, 2.0, 1 / 16, 1 / 32):
                if not 0.15 <= g - rho <= 0.6:
                    continue
                for tol in _floats_around(g - rho):
                    family = self._assert_same_search(copies, 2, 2, 3, False, tol)
                    if family is not None:
                        self._assert_same_verdicts(copies, back, family, tol)

    @pytest.mark.parametrize("seed", range(6))
    def test_permuted_copy_agrees(self, seed):
        x, perm = self._points(seed)
        for scale in (1.0, 0.5, 0.25):
            scaled = self._copies(x * scale, perm)
            for k, l, depth, strong in itertools.product((2, 3), (2, 3), (1, 2), (False, True)):
                self._assert_same_search(scaled, k, l, depth, strong, TOL)
        copies = self._copies(x, perm)
        rng = np.random.default_rng(100 + seed)
        for size in range(1, x.size + 1):
            chosen = rng.choice(x.size, size=size, replace=False)     # sorted positions
            diameters = [diameter(cloud, Subset(cloud, np.flatnonzero(np.isin(to_sorted, chosen))))
                         for cloud, to_sorted in copies]
            assert diameters[0] == diameters[1] == diameters[2]
        gaps = [cloud.min_positive_gap() for cloud, _ in copies]
        assert gaps[0] == gaps[1] == gaps[2]
        (line, _), _, (permuted, _) = copies
        other = PointCloud(rng.choice(8000, size=5, replace=False) / 1000)
        assert hausdorff_distance(line, permuted) == hausdorff_distance(permuted, line) == 0.0
        assert hausdorff_distance(line, other) == hausdorff_distance(permuted, other) \
            == hausdorff_distance(other, permuted)

    @staticmethod
    def _assert_same_search(copies, k, l, depth, strong, tol):
        """Search every copy: the same outcome, and every family found verifies;
        returns the sorted copy's family."""
        results = [search_regular(cloud, k, l, depth, strong=strong, tol=tol)
                   for cloud, _ in copies]
        assert len({(res.family is None, res.exhausted) for res in results}) == 1
        assert all(verify_regular(cloud, res.family, tol).ok
                   for (cloud, _), res in zip(copies, results) if res.family is not None)
        return results[0].family

    @staticmethod
    def _assert_same_verdicts(copies, back, family, tol):
        permuted = RegularFamily(family.k, family.l, family.depth, family.strong,
                                 {lab: int(back[i]) for lab, i in family.assign.items()})
        verdicts = [certificate_scaling_check(cloud, fam, tol=tol)
                    for (cloud, _), fam in zip(copies, (family, family, permuted))]
        assert verdicts[0] == verdicts[1] == verdicts[2]
        return verdicts[0]

    def test_scaling_check_ball_at_a_gap(self):
        # the probe at r = 1/16 has r + tol an ulp below the distance from
        # 4.846 to 5.226, so those two points need two parts and the chain holds
        x = np.asarray([0.286, 0.909, 0.96, 1.028, 2.106, 3.375, 4.846, 5.127, 5.226, 5.545])
        perm = np.asarray([8, 0, 9, 7, 1, 5, 6, 2, 3, 4])
        labels = ["", "0", "1", "0.0", "0.1", "1.0", "1.1", "0.0.0", "0.0.1", "0.1.0",
                  "0.1.1", "1.0.0", "1.0.1", "1.1.0", "1.1.1"]
        points = [6, 6, 9, 6, 7, 7, 8, 6, 7, 6, 7, 6, 7, 7, 8]
        family = RegularFamily.from_dict({"k": 2, "l": 2, "depth": 3, "strong": False,
                                          "assign": dict(zip(labels, points))})
        assert self._assert_same_verdicts(self._copies(x, perm), np.argsort(perm), family,
                                          0.31749999999999984) is True


class TestUnsorted1D:
    """The 1-D sweeps on clouds stored out of coordinate order: exact at any
    size and in every mode, with parts and witnesses as sorted indices."""

    X = np.random.default_rng(0).permutation(30) / 8     # i/8 in a seeded order

    @pytest.mark.parametrize("mode", ["exact", "greedy", "auto"])
    def test_cover(self, mode):
        sub = PointCloud(self.X).all_indices()
        res = covering_number(sub, 0.5, mode=mode)
        assert res.count == 6 == certified_cover_count_1d(np.sort(self.X), 0.5)
        assert res.exact and validate_cover(sub, res, 0.5)
        # the sorted cloud's parts, mapped to storage indices
        ref = covering_number(PointCloud(np.sort(self.X)).all_indices(), 0.5, mode=mode)
        order = np.argsort(self.X)
        assert [p.indices.tolist() for p in res.parts] == [
            sorted(order[q.indices].tolist()) for q in ref.parts]

    @pytest.mark.parametrize("mode", ["exact", "greedy"])
    def test_pack(self, mode):
        res = packing_number(PointCloud(self.X).all_indices(), 0.5, mode=mode)
        assert res.count == 8 and res.exact and validate_packing(res, 0.5)
        ref = packing_number(PointCloud(np.sort(self.X)).all_indices(), 0.5, mode=mode)
        order = np.argsort(self.X)
        assert res.witnesses.indices.tolist() == sorted(order[ref.witnesses.indices].tolist())

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 127), min_size=1, max_size=16, unique=True),
           st.integers(1, 16), st.data())
    def test_matches_matrix_solvers(self, slots, steps, data):
        # dyadic points in storage order as drawn; at most 16 keeps the
        # matrix copy within the branch-and-bound cutoff
        x = np.asarray(slots, dtype=float) / 32
        keep = sorted(data.draw(st.lists(st.sampled_from(range(x.size)), min_size=1,
                                          unique=True)))
        line = Subset(PointCloud(x), keep)
        matrix = Subset(PointCloud.from_matrix(np.abs(x[:, None] - x[None, :])), keep)
        r = steps / 32
        cover = covering_number(line, r, mode="exact")
        assert cover.count == covering_number(matrix, r, mode="exact").count
        assert validate_cover(line, cover, r)
        pack = packing_number(line, r, mode="exact")
        assert pack.count == packing_number(matrix, r, mode="exact").count
        assert validate_packing(pack, r)
