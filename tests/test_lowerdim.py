import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdim import (PointCloud, ScaleWindow, cantor_cloud, dimension_bound,
                     dyadic_interval_cloud, interval_plus_point_cloud,
                     lower_dim_estimate, mod_lower_dim_bound, verify_regular)
from oracles import certified_cover_count_1d


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
