import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracdim.cloud as cloud_module
from fracdim import (PointCloud, closed_ball, diameter, hausdorff_distance,
                     interval_plus_point_cloud, validate_packing)
from fracdim.config import DEFAULT_TOL
from fracdim.covering import PackResult
from oracles import brute_hausdorff, distance_row_oracle

TOL = 1e-12


class TestDistance:
    def test_identity(self, grid11):
        for i in range(grid11.n):
            assert grid11.distance(i, i) == 0.0

    def test_interval_plus_point_endpoints(self):
        # the endpoints 1 and 2 of the motivating set [0,1] u {2}
        cloud = interval_plus_point_cloud(4)
        i_one = int(np.flatnonzero(cloud.coords[:, 0] == 1.0)[0])
        i_two = int(np.flatnonzero(cloud.coords[:, 0] == 2.0)[0])
        assert cloud.distance(i_one, i_two) == 1.0

    def test_l1_disjoint_supports(self):
        # x = 0.5 e_0, y = 0.25 e_3: hand sum over the union of supports
        cloud = PointCloud([[0.5, 0, 0, 0], [0, 0, 0, 0.25]], metric="l1")
        assert cloud.metric == "l1"
        assert cloud.distance(0, 1) == pytest.approx(0.75, abs=TOL)

    def test_symmetry(self, grid11):
        assert grid11.distance(2, 7) == grid11.distance(7, 2)

    def test_index_out_of_range(self, grid11):
        with pytest.raises(IndexError):
            grid11.distance(0, 99)


class TestDiameter:
    def test_singleton_and_empty(self, grid11):
        assert diameter(grid11, grid11.subset([4])) == 0.0
        assert diameter(grid11, grid11.subset([])) == 0.0

    def test_grid_extremes(self, grid11):
        assert diameter(grid11) == pytest.approx(1.0, abs=TOL)

    def test_cantor_level2_both_endpoints(self):
        pts = [0, 1 / 9, 2 / 9, 1 / 3, 2 / 3, 7 / 9, 8 / 9, 1.0]
        cloud = PointCloud(pts)
        assert diameter(cloud) == pytest.approx(1.0, abs=TOL)


class TestClosedBall:
    def test_radius_zero(self, grid11):
        assert list(closed_ball(grid11, 5, 0.0).indices) == [5]

    def test_boundary_included(self, grid11):
        ball = closed_ball(grid11, 5, 0.25)
        assert [round(grid11.coords[i, 0], 1) for i in ball.indices] == [0.3, 0.4, 0.5, 0.6, 0.7]

    def test_isolated_point(self):
        cloud = interval_plus_point_cloud(4)
        i_two = cloud.n - 1
        assert list(closed_ball(cloud, i_two, 0.9).indices) == [i_two]

    def test_monotone_in_radius(self, grid11):
        small = set(closed_ball(grid11, 3, 0.15).indices)
        large = set(closed_ball(grid11, 3, 0.35).indices)
        assert small <= large

    def test_diameter_at_most_2r(self, grid11):
        for radius in (0.1, 0.25, 0.4):
            for center in range(grid11.n):
                ball = closed_ball(grid11, center, radius)
                assert diameter(grid11, ball) <= 2 * radius + TOL

    def test_negative_radius(self, grid11):
        # NaN compares false both ways: it is refused, not an empty ball
        for cloud in (grid11, PointCloud([[0.0, 0.0], [1.0, 0.5]])):
            for radius in (-0.1, float("nan")):
                with pytest.raises(ValueError, match="radius must be nonnegative"):
                    closed_ball(cloud, 0, radius)


def _ball_clouds():
    """Dyadic clouds (every distance exact) of each kind the ball rule serves."""
    rng = np.random.default_rng(11)
    line = rng.choice(64, size=20, replace=False) / 16.0
    plane = np.array([[c // 8, c % 8] for c in rng.choice(64, size=20, replace=False)]) / 8.0
    l1 = np.abs(plane[:, None, :] - plane[None, :, :]).sum(axis=2)
    return {
        "sorted-1d": PointCloud(np.sort(line)),
        "unsorted-1d": PointCloud(line),
        "2d": PointCloud(plane),
        "l1": PointCloud(plane, metric="l1"),
        "matrix": PointCloud.from_matrix(l1),
    }


class TestBallRule:
    @pytest.mark.parametrize("kind", sorted(_ball_clouds()))
    @pytest.mark.parametrize("tol", [TOL, 0.0])
    def test_ball_is_closed_ball(self, kind, tol):
        # radii exactly at every pairwise distance, where <= and < differ;
        # a 1-D ball comes in coordinate order, any other in index order
        cloud = _ball_clouds()[kind]
        for center in range(cloud.n):
            row = cloud.distances_from(center)
            for radius in np.unique(row):
                ball = cloud_module._ball(cloud, center, radius, tol)
                assert ball.dtype == np.int64
                assert np.array_equal(np.sort(ball),
                                      closed_ball(cloud, center, radius, tol).indices)
                assert np.array_equal(np.sort(ball), np.flatnonzero(row <= radius + tol))
                key = ball if cloud.dim != 1 else cloud.coords[ball, 0]
                assert np.all(np.diff(key) > 0)

    def test_default_tol_against_coordinate_rounding(self):
        # the absolute tol exceeds half an ulp, the rounding of an input
        # coordinate, below magnitude 2^14 and falls short of it from there on
        # (README, Tolerance): adding it to a coordinate then changes nothing
        assert np.spacing(2.0 ** 13) / 2 < DEFAULT_TOL < np.spacing(2.0 ** 14) / 2
        assert (2.0 ** 13 + 1.0) + DEFAULT_TOL > 2.0 ** 13 + 1.0
        assert (2.0 ** 14 + 1.0) + DEFAULT_TOL == 2.0 ** 14 + 1.0


class TestHausdorff:
    def test_identical(self, grid11):
        other = PointCloud(np.arange(11) * 0.1)
        assert hausdorff_distance(grid11, other) == 0.0

    def test_directed_asymmetry(self):
        a = PointCloud([[0.0]])
        b = PointCloud([[0.0], [1.0]])
        assert hausdorff_distance(a, b) == pytest.approx(1.0, abs=TOL)
        assert hausdorff_distance(a, b) == brute_hausdorff(a.coords, b.coords)

    def test_shifted_grid(self, grid11):
        shifted = PointCloud(np.arange(11) * 0.1 + 0.03)
        expected = brute_hausdorff(grid11.coords, shifted.coords)
        got = hausdorff_distance(grid11, shifted)
        assert got == pytest.approx(expected, abs=TOL)
        assert got == pytest.approx(0.03, abs=TOL)

    def test_incompatible_modes(self, grid11):
        l1_cloud = PointCloud([[0.0, 0], [1.0, 1]], metric="l1")
        with pytest.raises(ValueError):
            hausdorff_distance(grid11, l1_cloud)
        m = PointCloud.from_matrix([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            hausdorff_distance(m, m)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_metric_axioms(self, data):
        def cloud(tag):
            pts = data.draw(st.lists(
                st.integers(min_value=0, max_value=60), min_size=1, max_size=8,
                unique=True), label=tag)
            return PointCloud(np.asarray(pts, dtype=float) / 7.0)

        a, b, c = cloud("a"), cloud("b"), cloud("c")
        ab, ba = hausdorff_distance(a, b), hausdorff_distance(b, a)
        assert ab == ba
        ac, cb = hausdorff_distance(a, c), hausdorff_distance(c, b)
        assert ab <= ac + cb + TOL

    def test_matches_bruteforce_2d(self):
        rng = np.random.default_rng(7)
        a = PointCloud(rng.uniform(size=(9, 2)))
        b = PointCloud(rng.uniform(size=(6, 2)))
        assert hausdorff_distance(a, b) == pytest.approx(
            brute_hausdorff(a.coords, b.coords), abs=1e-10)


class TestConstruction:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PointCloud([[0.0], [0.0], [1.0]])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e300]), min_size=d, max_size=d),
        min_size=1, max_size=8)))
    def test_duplicates_refused_as_np_unique_finds_them(self, points):
        # the oracle: rows that np.unique(axis=0) merges, 0.0 and -0.0 alike
        duplicated = len(np.unique(np.array(points), axis=0)) < len(points)
        # and the distances the kernel's arithmetic cannot hold
        with np.errstate(over="ignore"):
            overflows = any(np.isinf(distance_row_oracle(points, i, "euclidean")).any()
                            for i in range(len(points)))
        if duplicated or overflows:
            with pytest.raises(ValueError, match="duplicate" if duplicated else "overflow"):
                PointCloud(points)
        else:
            assert np.array_equal(PointCloud(points).coords, points)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("points, metric", [
        ([[0, 0], [1e150, 0], [0, 1e150]], "euclidean"),
        ([[-1e300], [1e300]], "euclidean"),
        ([[-4e307, 0], [4e307, 0]], "l1"),
    ])
    def test_large_finite_distances_kept(self, points, metric):
        cloud = PointCloud(points, metric=metric)
        assert np.isfinite([cloud.distances_from(i) for i in range(cloud.n)]).all()

    @pytest.mark.parametrize("points", [[], [[]], [[], []]])
    def test_points_without_coordinates_rejected(self, points):
        with pytest.raises(ValueError, match="non-empty 2-D array"):
            PointCloud(points)

    @pytest.mark.parametrize("kwargs, message", [
        ({"points": [[0.0]], "metric": "chebyshev"}, "unknown metric"),
        ({"metric": "matrix"}, "matrix mode requires a distance matrix"),
        ({"metric": "euclidean"}, "coordinate mode requires points"),
        ({"points": [[0.0]], "matrix": [[0.0]]}, "matrix only allowed"),
        ({"points": [[0.0], [np.nan]]}, "points must be finite"),
        ({"points": [[0.0], [np.inf]], "metric": "l1"}, "points must be finite"),
        ({"metric": "matrix", "matrix": [[0.0, 1.0]]}, "square and non-empty"),
        ({"metric": "matrix", "matrix": [[0.0, np.inf], [np.inf, 0.0]]}, "must be finite"),
        ({"metric": "matrix", "matrix": [[0.5, 1.0], [1.0, 0.0]]}, "diagonal must be zero"),
        ({"points": [[0, 0], [1e200, 0], [1, 1]]}, "distances overflow a float"),
        ({"points": [[-1e308], [1e308], [0]]}, "distances overflow a float"),
        ({"points": [[-1e308], [1e308], [0]], "metric": "l1"}, "distances overflow a float"),
        ({"points": [[1e308, 0], [0, 1e308], [0, 0]], "metric": "l1"}, "distances overflow"),
    ])
    @pytest.mark.filterwarnings("error")   # and no overflow warning on the way
    def test_constructor_refusals(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            PointCloud(**kwargs)

    def test_one_point_cloud_has_no_gap(self):
        assert PointCloud([[0.5, 1.0]]).min_positive_gap() == 0.0
        assert PointCloud.from_matrix([[0.0]]).min_positive_gap() == 0.0

    def test_matrix_validation(self):
        PointCloud.from_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        with pytest.raises(ValueError, match="symmetric"):
            PointCloud.from_matrix([[0, 1], [2, 0]])
        with pytest.raises(ValueError, match="nonnegative"):
            PointCloud.from_matrix([[0, -1], [-1, 0]])
        with pytest.raises(ValueError, match="triangle"):
            PointCloud.from_matrix([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        with pytest.raises(ValueError, match="duplicate"):
            PointCloud.from_matrix([[0, 0], [0, 0]])

    def test_matrix_triangle_exhaustive_midsize(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(size=(150, 2))
        diff = pts[:, None] - pts[None, :]
        dmat = np.sqrt((diff ** 2).sum(axis=2))
        np.fill_diagonal(dmat, 0.0)
        dmat = np.minimum(dmat, dmat.T)
        cloud = PointCloud.from_matrix(dmat)
        assert cloud.n == 150
        bad = dmat.copy()
        bad[10, 20] = bad[20, 10] = 3.5  # breaks triangle via any third point
        with pytest.raises(ValueError, match="triangle"):
            PointCloud.from_matrix(bad)

    def test_matrix_triangle_exhaustive_300(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(size=(300, 2))
        diff = pts[:, None] - pts[None, :]
        dmat = np.sqrt((diff ** 2).sum(axis=2))
        np.fill_diagonal(dmat, 0.0)
        dmat = np.minimum(dmat, dmat.T)
        assert PointCloud.from_matrix(dmat).n == 300
        dmat[0, 1] += 5.0
        dmat[1, 0] += 5.0
        with pytest.raises(ValueError, match="triangle"):
            PointCloud.from_matrix(dmat)

    def test_matrix_triangle_exhaustive_600(self):
        # one broken pair among 600 points: sampled triples almost never meet it
        rng = np.random.default_rng(5)
        pts = rng.uniform(size=(600, 2))
        diff = pts[:, None] - pts[None, :]
        dmat = np.sqrt((diff ** 2).sum(axis=2))
        np.fill_diagonal(dmat, 0.0)
        dmat = np.minimum(dmat, dmat.T)
        dmat[0, 1] += 5.0
        dmat[1, 0] += 5.0
        with pytest.raises(ValueError, match=r"^triangle inequality violated$"):
            PointCloud.from_matrix(dmat)

    def test_matrix_sampled_above_limit(self, monkeypatch):
        monkeypatch.setattr(cloud_module, "_TRIANGLE_EXHAUSTIVE_LIMIT", 599)
        rng = np.random.default_rng(4)
        pts = rng.uniform(size=(600, 1))
        dmat = np.abs(pts - pts.T)
        np.fill_diagonal(dmat, 0.0)
        dmat = np.minimum(dmat, dmat.T)
        assert PointCloud.from_matrix(dmat).n == 600

    def test_matrix_sampled_check_refuses(self, monkeypatch):
        monkeypatch.setattr(cloud_module, "_TRIANGLE_EXHAUSTIVE_LIMIT", 599)
        # point 0 sits within 0.001 of every other point of a line of 600
        x = np.arange(600.0)
        dmat = np.abs(x[:, None] - x[None, :])
        dmat[0, 1:] = dmat[1:, 0] = 0.001
        with pytest.raises(ValueError, match=r"triangle inequality violated \(sampled\)"):
            PointCloud.from_matrix(dmat)

    def test_subset_validation(self, grid11):
        with pytest.raises(IndexError):
            grid11.subset([0, 99])
        sub = grid11.subset([5, 2, 2, 9])
        assert list(sub.indices) == [2, 5, 9]


def _holds_no_matrix(cloud):
    """True when no attribute of ``cloud`` is an n x n array."""
    return not any(getattr(v, "shape", None) == (cloud.n, cloud.n) for v in vars(cloud).values())


class TestDistanceLayer:
    """Computed rows, a matrix cloud's sliced rows and submatrices against
    per-row arithmetic."""

    @pytest.mark.parametrize("metric", ["euclidean", "l1"])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 9, 50])
    def test_dense_and_rows_match_per_row_arithmetic(self, d, metric):
        rng = np.random.default_rng(d)
        # 302 points: not a multiple of the kernel's block rows for any d here, computed
        # or sliced from a matrix, at 2 ** 16 and 2 ** 17 alike, so a last block is partial
        n = 302
        for width in (d, 1):
            assert n % max(1, cloud_module._BLOCK_ELEMENTS // (n * width)) != 0
        coords = rng.normal(size=(n, d)) * rng.uniform(0.1, 100.0)
        expected = np.stack([distance_row_oracle(coords, i, metric) for i in range(n)])
        idx = np.array([299, 3, 3, 77])
        # a matrix cloud of the same distances slices what the coordinate cloud computes
        for cloud in (PointCloud(coords, metric=metric), PointCloud.from_matrix(expected)):
            for i in (0, 150, n - 1):
                assert np.array_equal(cloud.distances_from(i), expected[i])
            assert np.array_equal(cloud.pairwise(idx), expected[np.ix_(idx, idx)])
            assert cloud.diam() == expected.max()
            assert cloud.min_positive_gap() == expected[np.triu_indices(n, 1)].min()

    @pytest.mark.parametrize("lowered_cap", [False, True])
    def test_scans_hold_one_block(self, monkeypatch, lowered_cap):
        rng = np.random.default_rng(8)
        coords = rng.normal(size=(301, 3))
        expected = np.stack([distance_row_oracle(coords, i, "euclidean") for i in range(301)])
        cloud = PointCloud(coords)
        if lowered_cap:     # the cap bounds no coordinate cloud's reads
            monkeypatch.setattr(cloud_module, "_DENSE_CAP", cloud.n * cloud.n - 1)
        monkeypatch.setattr(cloud_module, "_BLOCK_ELEMENTS", 7 * 301 * 3)  # 7 full rows
        kernel, sizes = cloud_module._distance_blocks, []

        def recording_kernel(a, b, metric):
            for start, block in kernel(a, b, metric):
                sizes.append(block.size)
                yield start, block

        def no_pairwise(*args):
            raise AssertionError("a scan asked for a whole submatrix")

        monkeypatch.setattr(cloud_module, "_distance_blocks", recording_kernel)
        monkeypatch.setattr(PointCloud, "pairwise", no_pairwise)
        idx = np.arange(0, 301, 2)
        sub = cloud.subset(idx)
        assert diameter(cloud, sub) == expected[np.ix_(idx, idx)].max()
        assert cloud.diam() == expected.max()
        assert cloud.min_positive_gap() == expected[np.triu_indices(301, 1)].min()
        assert cloud.distance(3, 7) == expected[3, 7]
        sep = expected[np.ix_(idx, idx)][np.triu_indices(idx.size, 1)].min()
        pack = PackResult(idx.size, sub, False)
        assert validate_packing(pack, sep, tol=0.0)
        assert not validate_packing(pack, np.nextafter(sep, np.inf), tol=0.0)
        assert _holds_no_matrix(cloud)       # no scan built the matrix
        assert sizes and max(sizes) <= 7 * 301

    def test_rows_are_read_only(self):
        dmat = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        held = PointCloud.from_matrix(dmat)
        small = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        for cloud in (held, small):
            row = cloud.distances_from(0)
            with pytest.raises(ValueError):
                row[1] = 99.0
            assert cloud.distance(0, 1) == 1.0
        with pytest.raises(ValueError):
            held.matrix[0, 1] = 99.0
        with pytest.raises(ValueError):
            small.coords[0, 0] = 99.0

    def test_inputs_are_copied(self):
        dmat = np.array([[0.0, 1.0], [1.0, 0.0]])
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        matrix_cloud, coord_cloud = PointCloud.from_matrix(dmat), PointCloud(pts)
        dmat[0, 1] = pts[1, 0] = 7.0      # the caller's arrays stay writable
        assert matrix_cloud.distance(0, 1) == 1.0
        assert coord_cloud.distance(0, 1) == 5.0
