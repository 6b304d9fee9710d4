import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracdim.cloud as cloud_module
from fracdim import (PointCloud, ScaleWindow, cantor_cloud, closed_ball, covering_number,
                     dimension_bound, dyadic_interval_cloud, interval_plus_point_cloud, io,
                     lower_dim_estimate, mod_lower_dim_bound, verify_regular)
from oracles import (certified_cover_count_1d, distance_row_oracle, estimate_table_oracle,
                     exact_cover_oracle, greedy_estimate_counts_oracle)


def uniform_grid_min_exponent(resolution, window):
    """Independent oracle for grids: closed-form ball sizes + certified 1-D covers."""
    h = 2.0 ** -resolution
    coords = np.arange(2 ** resolution + 1) * h
    best = None
    for center in coords:
        for (R, r) in window.pairs(diam_cap=coords[-1] - coords[0]):
            ball = coords[np.abs(coords - center) <= R + 1e-12]
            count = certified_cover_count_1d(ball, r)
            e = math.log(count) / math.log(R / r)
            best = e if best is None else min(best, e)
    return best


class TestScaleWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScaleWindow(0.5, 0.25)
        with pytest.raises(ValueError):
            ScaleWindow(0.1, 0.5, ratio=1.0)
        with pytest.raises(ValueError):
            ScaleWindow(0.1, 0.5, ratio=2.0, min_gap=1.5)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["r_min", "r_max", "ratio", "min_gap"])
    def test_non_finite_refused(self, field, value):
        # an infinite r_max used to make scales() run forever, a nan min_gap
        # to pass validation; only the constructor is called here
        fields = {"r_min": 0.1, "r_max": 0.5, "ratio": 2.0, "min_gap": 4.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            ScaleWindow(**fields)

    def test_scales_and_pairs(self):
        w = ScaleWindow(2.0 ** -6, 2.0 ** -1, ratio=2.0, min_gap=4.0)
        assert w.scales() == [2.0 ** -6, 2.0 ** -5, 2.0 ** -4, 2.0 ** -3,
                              2.0 ** -2, 2.0 ** -1]
        pairs = w.pairs()
        assert all(R / r >= 4.0 - 1e-9 for R, r in pairs)
        assert (0.5, 2.0 ** -6) in pairs and (0.5, 2.0 ** -3) in pairs
        assert (0.5, 0.25) not in pairs


class TestEstimator:
    def test_singleton(self):
        cloud = PointCloud([[0.3]])
        rep = lower_dim_estimate(cloud, ScaleWindow(0.01, 0.5))
        assert rep.alpha_hat == 0.0
        assert rep.argmin is None and rep.table == []

    def test_interval_plus_point_attains_zero(self):
        cloud = interval_plus_point_cloud(8)
        rep = lower_dim_estimate(cloud, ScaleWindow(2.0 ** -6, 2.0 ** -1))
        assert rep.alpha_hat == 0.0
        assert rep.alpha_hat <= 0.05
        center, R, r = rep.argmin
        assert cloud.coords[center, 0] == 2.0  # the isolated point wins

    def test_grid_scaling_matches_oracle(self):
        w = ScaleWindow(2.0 ** -6, 2.0 ** -1)
        rep = lower_dim_estimate(dyadic_interval_cloud(8), w)
        expected = uniform_grid_min_exponent(8, w)
        assert rep.alpha_hat == pytest.approx(expected, abs=1e-12)
        assert 0.9 <= rep.alpha_hat <= 1.0

    def test_cantor_window(self):
        cloud = cantor_cloud(5)
        w = ScaleWindow(3.0 ** -4, 3.0 ** -1, ratio=3.0, min_gap=3.0)
        rep = lower_dim_estimate(cloud, w)
        assert rep.alpha_hat == pytest.approx(math.log(2) / math.log(3), abs=1e-9)

    def test_min_consistency(self):
        cloud = dyadic_interval_cloud(5)
        rep = lower_dim_estimate(cloud, ScaleWindow(2.0 ** -4, 2.0 ** -1))
        assert rep.alpha_hat == min(row[4] for row in rep.table)
        assert rep.alpha_hat >= 0.0

    def test_greedy_never_below_exact(self):
        rng = np.random.default_rng(9)
        coords = np.sort(rng.choice(512, size=40, replace=False)) / 512.0
        # 2-D embedding forces the generic covering paths
        pts = np.stack([coords, np.zeros_like(coords)], axis=1)
        cloud = PointCloud(pts)
        w = ScaleWindow(2.0 ** -4, 2.0 ** -1)
        exact = lower_dim_estimate(cloud, w, mode="exact", exact_cutoff=50)
        greedy = lower_dim_estimate(cloud, w, mode="greedy")
        assert exact.alpha_hat <= greedy.alpha_hat + 1e-12

    def test_greedy_table_frozen(self):
        # 24 points of the 32 x 32 dyadic grid; counts frozen from the
        # row-by-row greedy scan that preceded the bitset kernel
        rng = np.random.default_rng(9)
        cells = rng.choice(32 * 32, size=24, replace=False)
        pts = np.stack([cells // 32, cells % 32], axis=1) / 32.0
        rep = lower_dim_estimate(PointCloud(pts), ScaleWindow(1 / 32, 1 / 2), mode="greedy")
        pairs = [(0.5, 0.03125), (0.5, 0.0625), (0.5, 0.125),
                 (0.25, 0.03125), (0.25, 0.0625), (0.125, 0.03125)]
        frozen = [
            [11, 10, 8, 4, 4, 1], [8, 8, 6, 3, 3, 2], [10, 9, 7, 6, 5, 2],
            [10, 10, 8, 5, 5, 1], [7, 7, 6, 3, 3, 2], [8, 7, 5, 4, 3, 2],
            [11, 10, 8, 6, 5, 3], [14, 13, 10, 5, 5, 2], [10, 10, 8, 4, 4, 1],
            [10, 10, 9, 3, 3, 1], [13, 13, 11, 1, 1, 1], [7, 7, 6, 3, 3, 2],
            [12, 12, 9, 4, 4, 1], [3, 3, 3, 1, 1, 1], [6, 6, 6, 2, 2, 1],
            [8, 7, 5, 4, 3, 3], [11, 10, 8, 7, 6, 2], [9, 8, 6, 1, 1, 1],
            [13, 12, 10, 6, 6, 2], [8, 8, 7, 3, 3, 1], [5, 5, 5, 1, 1, 1],
            [6, 6, 6, 2, 2, 1], [9, 9, 8, 2, 2, 1], [6, 6, 6, 2, 2, 1],
        ]
        assert [(c, R, r, n) for c, R, r, n, _ in rep.table] == [
            (c, R, r, n) for c, row in enumerate(frozen) for (R, r), n in zip(pairs, row)]
        assert rep.alpha_hat == 0.0 and rep.argmin == (0, 0.125, 0.03125)

    def test_shrinking_window_raises_estimate(self):
        cloud = dyadic_interval_cloud(6)
        wide = lower_dim_estimate(cloud, ScaleWindow(2.0 ** -5, 2.0 ** -1))
        narrow = lower_dim_estimate(cloud, ScaleWindow(2.0 ** -5, 2.0 ** -3))
        assert narrow.alpha_hat >= wide.alpha_hat - 1e-12

    def test_argmin_tiebreak_lowest_center(self):
        cloud = dyadic_interval_cloud(4)
        rep = lower_dim_estimate(cloud, ScaleWindow(2.0 ** -3, 2.0 ** -1))
        same = [row for row in rep.table if row[4] == rep.alpha_hat]
        assert rep.argmin[0] == min(row[0] for row in same)


def _dyadic_grid_cloud(cells, metric):
    """A cloud on the 16 x 16 grid of spacing 1/8 and its distance matrix;
    ``matrix`` is the grid's l1 distances given as an explicit matrix."""
    coords = np.array([[c // 16, c % 16] for c in cells], dtype=float) / 8.0
    kernel = "l1" if metric == "matrix" else metric
    dmat = np.stack([distance_row_oracle(coords, i, kernel) for i in range(len(cells))])
    if metric == "matrix":
        return PointCloud.from_matrix(dmat), dmat
    return PointCloud(coords, metric=metric), dmat


class TestGreedyRelationRows:
    """Greedy rows read from one whole-cloud relation per scale against a
    row-by-row oracle that cuts each ball and scans its distances."""

    WINDOW = ScaleWindow(1 / 8, 2)

    # Scales 1/8 .. 2 and a tol of 1/8 are multiples of the grid spacing, so
    # grid distances fall exactly at R + tol and r + tol; at tol = 1e-12
    # they fall at R and r.
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=24, unique=True),
           st.sampled_from(["euclidean", "l1", "matrix"]), st.sampled_from([1e-12, 1 / 8]))
    @example([0, 3, 4, 64, 67, 8, 136], "euclidean", 1 / 8)   # 3-4-5 triangles, axis ties
    def test_matches_row_oracle(self, cells, metric, tol):
        cloud, dmat = _dyadic_grid_cloud(cells, metric)
        pairs = self.WINDOW.pairs(diam_cap=cloud.diam(), tol=tol)
        expected = [(c, R, r, n) for c, row in
                    enumerate(greedy_estimate_counts_oracle(dmat, pairs, tol))
                    for (R, r), n in zip(pairs, row)]
        rep = lower_dim_estimate(cloud, self.WINDOW, mode="greedy", tol=tol)
        assert [(c, R, r, n) for c, R, r, n, _ in rep.table] == expected
        with mock.patch.object(cloud_module, "_BLOCK_ELEMENTS", 8):   # one row per block
            rep = lower_dim_estimate(cloud, self.WINDOW, mode="greedy", tol=tol)
        assert [(c, R, r, n) for c, R, r, n, _ in rep.table] == expected

    def test_matrix_symmetric_within_tol(self):
        # d(0, 1) = 1 + tol puts 1 in B(0, 1), and d(1, 0) = 1 + 1.5 tol keeps 0
        # out of B(1, 1); at r = 1/4 no two points share a part, so each count
        # is the size of a ball read along its center's row
        tol = 1e-12
        dmat = np.array([[0.0, 1 + tol, 0.5], [1 + 1.5 * tol, 0.0, 0.6], [0.5, 0.6, 0.0]])
        rep = lower_dim_estimate(PointCloud.from_matrix(dmat), ScaleWindow(1 / 4, 1), mode="greedy")
        assert rep.pairs == [(1.0, 0.25)]
        assert rep.counts.tolist() == greedy_estimate_counts_oracle(dmat, rep.pairs) == [[3], [2], [3]]

    def test_above_dense_cap(self, monkeypatch):
        # 3,600 distances exceed a cap of 2^10: the coordinate cloud computes
        # every relation's blocks, which the matrix cloud of its distances slices
        rng = np.random.default_rng(18)
        cells = rng.choice(64 * 64, size=60, replace=False)
        pts = np.stack([cells // 64, cells % 64], axis=1) / 64.0
        w = ScaleWindow(1 / 32, 1 / 2)
        held = PointCloud.from_matrix(
            np.stack([distance_row_oracle(pts, i, "euclidean") for i in range(60)]))
        expected = lower_dim_estimate(held, w, mode="greedy")
        monkeypatch.setattr(cloud_module, "_DENSE_CAP", 2 ** 10)
        capped = PointCloud(pts)
        got = lower_dim_estimate(capped, w, mode="greedy")
        assert len(got.table) == 60 * len(w.pairs()) and got.table == expected.table
        assert (got.alpha_hat, got.argmin) == (expected.alpha_hat, expected.argmin)


class TestExactRelationRows:
    """Exact rows read from the whole-cloud relations against the subset
    dynamic program of each ball's distances."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=12, unique=True),
           st.sampled_from(["euclidean", "l1", "matrix"]), st.sampled_from([1e-12, 1 / 8]))
    @example([0, 3, 4, 64, 67, 8, 136], "euclidean", 1 / 8)   # 3-4-5 triangles, axis ties
    @example([1, 2, 0, 3], "euclidean", 1e-12)   # at r = 1/8 greedy takes 3 parts, exact 2
    def test_matches_cover_oracle(self, cells, metric, tol):
        cloud, dmat = _dyadic_grid_cloud(cells, metric)
        pairs = TestGreedyRelationRows.WINDOW.pairs(diam_cap=cloud.diam(), tol=tol)
        oracle = {}
        expected = []
        for c in range(len(cells)):
            for R, r in pairs:
                ball = tuple(np.flatnonzero(dmat[c] <= R + tol))
                if (ball, r) not in oracle:
                    oracle[ball, r] = exact_cover_oracle(dmat[np.ix_(ball, ball)], r, tol)
                expected.append((c, R, r, oracle[ball, r]))
        rep = lower_dim_estimate(cloud, TestGreedyRelationRows.WINDOW, tol=tol)
        assert [(c, R, r, n) for c, R, r, n, _ in rep.table] == expected
        # one row per block, and a dense cap below n^2: no matrix to slice
        with mock.patch.object(cloud_module, "_BLOCK_ELEMENTS", 8), \
                mock.patch.object(cloud_module, "_DENSE_CAP", len(cells) ** 2 - 1):
            cloud, _ = _dyadic_grid_cloud(cells, metric)
            rep = lower_dim_estimate(cloud, TestGreedyRelationRows.WINDOW, tol=tol)
        assert [(c, R, r, n) for c, R, r, n, _ in rep.table] == expected

    @pytest.mark.parametrize("cutoff, center, size", [(20, 1, 21), (25, 7, 32)])
    def test_refusal_pinned(self, cutoff, center, size):
        # pairs (1/2, 1/16), (1/2, 1/8), (1/4, 1/16); center 4's first ball
        # holds 24 points, so at cutoff 20 the refusal names center 1's
        cloud = PointCloud(np.random.default_rng(7).random((40, 2)))
        w = ScaleWindow(1 / 16, 1 / 2)
        message = f"exact covering requested on {size} points, cutoff {cutoff}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            lower_dim_estimate(cloud, w, exact_cutoff=cutoff)
        with pytest.raises(ValueError, match=f"^{message}$"):
            covering_number(closed_ball(cloud, center, 0.5), 1 / 16, mode="exact",
                            exact_cutoff=cutoff)
        sizes = [len(closed_ball(cloud, c, 0.5)) for c in range(center + 1)]
        assert max(sizes[:center]) <= cutoff < sizes[center] == size


class TestOneDimensionalPath:
    """The 1-D doubling-table path against branch-and-bound and storage order."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 127), min_size=2, max_size=16, unique=True))
    def test_matches_matrix_branch_and_bound(self, slots):
        # dyadic coordinates in storage order as drawn; at most 16 points
        # keeps every ball within the branch-and-bound cutoff
        x = np.asarray(slots, dtype=float) / 128.0
        w = ScaleWindow(2.0 ** -5, 2.0 ** -1)
        line = lower_dim_estimate(PointCloud(x), w)
        matrix = lower_dim_estimate(PointCloud.from_matrix(np.abs(x[:, None] - x[None, :])), w)
        assert line.table == matrix.table
        assert line.alpha_hat == matrix.alpha_hat
        assert line.argmin == matrix.argmin
        order = np.argsort(x)
        ascending = lower_dim_estimate(PointCloud(x[order]), w)
        assert ascending.alpha_hat == line.alpha_hat
        relabeled = sorted((int(order[row[0]]),) + row[1:] for row in ascending.table)
        assert relabeled == sorted(line.table)

    def test_reversed_ladder_matches_ascending(self):
        # balls of radius 2^-1 hold up to 40 points, above the 20-point
        # branch-and-bound cutoff that unsorted 1-D clouds used to hit
        w = ScaleWindow(2.0 ** -6, 2.0 ** -1)
        ascending = lower_dim_estimate(PointCloud(np.arange(40)[:, None] / 40), w)
        reversed_ = lower_dim_estimate(PointCloud(np.arange(40)[::-1, None] / 40), w)
        assert reversed_.alpha_hat == ascending.alpha_hat
        assert len(reversed_.table) == len(ascending.table) > 0
        assert sorted((39 - c, R, r, n, e) for (c, R, r, n, e) in reversed_.table) \
            == sorted(ascending.table)


def _assert_table(rep, pairs, counts):
    """``rep`` holds the oracle's table, minimum and argmin for ``counts``,
    every row as plain Python numbers."""
    table, alpha_hat, argmin = estimate_table_oracle(pairs, counts)
    assert rep.table == table
    assert (rep.alpha_hat, rep.argmin) == (alpha_hat, argmin) and type(rep.alpha_hat) is float
    assert all(tuple(map(type, row)) == (int, float, float, int, float) for row in rep.table)


class TestTableOracle:
    """The columnar table against the row loop it replaced, on counts from
    the independent oracles."""

    # dyadic points give many equal exponents, so the first minimum counts
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=30, unique=True),
           st.sampled_from(["exact", "greedy"]))
    def test_dyadic_line(self, slots, mode):
        x = np.asarray(slots, dtype=float) / 64.0
        cloud, w = PointCloud(x), ScaleWindow(2.0 ** -5, 2.0 ** -1)
        pairs = w.pairs(diam_cap=cloud.diam())
        counts = [[certified_cover_count_1d(x[np.abs(x - c) <= R + 1e-12], r) for R, r in pairs]
                  for c in x]
        _assert_table(lower_dim_estimate(cloud, w, mode=mode), pairs, counts)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=24, unique=True),
           st.sampled_from(["euclidean", "l1"]))
    def test_greedy_plane(self, cells, metric):
        cloud, dmat = _dyadic_grid_cloud(cells, metric)
        w = TestGreedyRelationRows.WINDOW
        pairs = w.pairs(diam_cap=cloud.diam())
        _assert_table(lower_dim_estimate(cloud, w, mode="greedy"), pairs,
                      greedy_estimate_counts_oracle(dmat, pairs))

    def test_reports_compare_by_value(self):
        w = ScaleWindow(2.0 ** -3, 2.0 ** -1)
        rep = lower_dim_estimate(dyadic_interval_cloud(4), w)
        assert rep == lower_dim_estimate(dyadic_interval_cloud(4), w) != rep.table
        assert rep != lower_dim_estimate(dyadic_interval_cloud(3), w)
        assert rep != lower_dim_estimate(dyadic_interval_cloud(4), w, mode="greedy")

    def test_empty_window(self):
        rep = lower_dim_estimate(dyadic_interval_cloud(3), ScaleWindow(4.0, 16.0))
        assert rep.table == [] and (rep.alpha_hat, rep.argmin) == (0.0, None)
        assert '\n  "table": []\n}' in io.dumps_canonical(rep.to_dict(), indent=2)


class TestDimensionBound:
    def test_examples(self):
        assert dimension_bound(2, 2) == 0.5
        assert dimension_bound(6, 16) == pytest.approx(2 / 3, abs=0)
        assert dimension_bound(10, 42) == pytest.approx(math.log2(42) / 10, abs=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            dimension_bound(2, 1)
        with pytest.raises(ValueError):
            dimension_bound(0, 2)


class TestModLowerDimBound:
    def test_two_point_cloud(self, two_points):
        res = mod_lower_dim_bound(two_points, [(2, 2)], depth=2)
        assert res.bound == 0.0 and res.family is None
        assert not res.exhausted

    def test_grid_certificate(self):
        cloud = dyadic_interval_cloud(10)
        res = mod_lower_dim_bound(cloud, [(6, 16)], depth=2)
        assert res.bound == pytest.approx(2 / 3, abs=0)
        assert verify_regular(cloud, res.family).ok
        assert res.bound == dimension_bound(res.family.k, res.family.l)

    def test_interval_plus_point_stays_inside(self):
        cloud = interval_plus_point_cloud(10)
        res = mod_lower_dim_bound(cloud, [(6, 16)], depth=2)
        assert res.bound == pytest.approx(2 / 3, abs=0)
        coords = [cloud.coords[i, 0] for i in res.family.assign.values()]
        assert max(coords) <= 1.0

    def test_exhaustion_reported_not_raised(self):
        cloud = dyadic_interval_cloud(10)
        res = mod_lower_dim_bound(cloud, [(6, 16)], depth=2, budget=3)
        assert res.family is None and res.exhausted
