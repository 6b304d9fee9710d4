import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdim import (GeneratorSpec, PointCloud, cantor_cloud, closed_ball,
                     dyadic_interval_cloud, interval_plus_point_cloud,
                     neighborhood_cascade, polarized_example_cloud,
                     polarized_natural_family, union_cloud)
from oracles import polarized_value

TOL = 1e-12


class TestCantor:
    def test_level1(self):
        assert list(cantor_cloud(1).coords[:, 0]) == [0.0, 2 / 3]

    def test_level2(self):
        got = cantor_cloud(2).coords[:, 0]
        assert np.allclose(got, [0.0, 2 / 9, 2 / 3, 8 / 9], atol=TOL)

    def test_level7_size_and_gap(self):
        cloud = cantor_cloud(7)
        assert cloud.n == 128
        # pairwise-distance scan: the closest pair differs in the last
        # triadic digit only, so the gap is 2 * 3^-7
        gaps = np.diff(cloud.coords[:, 0])
        assert gaps.min() == pytest.approx(2 * 3.0 ** -7, abs=TOL)
        assert gaps.min() >= 3.0 ** -7

    def test_nested_levels(self):
        small = set(np.round(cantor_cloud(4).coords[:, 0], 12))
        large = set(np.round(cantor_cloud(5).coords[:, 0], 12))
        assert small <= large

    def test_digits_in_02(self):
        for x in cantor_cloud(5).coords[:, 0]:
            digits = []
            y = x
            for _ in range(5):
                y *= 3
                digits.append(int(round(y) if abs(y - round(y)) < 1e-9 else int(y)))
                y -= digits[-1]
            assert all(d in (0, 2) for d in digits)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            cantor_cloud(0)
        with pytest.raises(ValueError):
            cantor_cloud(15)


class TestGrids:
    def test_dyadic_count_and_diameter(self):
        cloud = dyadic_interval_cloud(6)
        assert cloud.n == 2 ** 6 + 1
        assert cloud.diam() == 1.0

    def test_interval_plus_point(self):
        cloud = interval_plus_point_cloud(6)
        assert cloud.coords[-1, 0] == 2.0
        ball = closed_ball(cloud, cloud.n - 1, 0.99)
        assert len(ball) == 1

    def test_range_validation(self):
        with pytest.raises(ValueError):
            dyadic_interval_cloud(0)
        with pytest.raises(ValueError):
            interval_plus_point_cloud(17)


class TestPolarized:
    def test_depth1_values(self):
        assert list(polarized_example_cloud(1).coords[:, 0]) == [-0.5, 0.0, 0.5]

    def test_depth2_values(self):
        got = set(polarized_example_cloud(2).coords[:, 0])
        expected = {polarized_value(lab) for lab in
                    [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]}
        assert got == expected
        assert expected == {0.0, -0.5, 0.5, -0.625, -0.375, 0.375, 0.625}

    def test_level1_separation_tight(self):
        cloud, fam = polarized_natural_family(2)
        y0 = cloud.coords[fam.assign[(0,)], 0]
        y1 = cloud.coords[fam.assign[(1,)], 0]
        assert abs(y0 - y1) == 1.0  # exactly the required 2^(-2*1+2)

    def test_labels_match_formula(self):
        cloud, fam = polarized_natural_family(3)
        for lab, idx in fam.assign.items():
            assert cloud.coords[idx, 0] == pytest.approx(polarized_value(lab), abs=TOL)

    def test_discreteness_min_gap(self):
        for depth in range(1, 7):
            cloud = polarized_example_cloud(depth)
            gap = float(np.diff(cloud.coords[:, 0]).min())
            assert gap >= 2.0 ** (-2 * depth - 1)

    def test_size(self):
        for depth in (1, 3, 5):
            assert polarized_example_cloud(depth).n == 2 ** (depth + 1) - 1


class TestUnion:
    def test_counts_and_diameter(self):
        a = dyadic_interval_cloud(4)
        b = PointCloud([[0.0]])
        u = union_cloud(a, b, offset=2.0)
        assert u.n == a.n + b.n
        assert u.diam() >= 2.0
        assert u.meta["origin"] == [0] * a.n + [1] * b.n

    def test_collision_rejected(self):
        a = dyadic_interval_cloud(2)
        b = dyadic_interval_cloud(2)
        with pytest.raises(ValueError, match="collision"):
            union_cloud(a, b, offset=0.25)

    def test_metric_mode_mismatch(self):
        a = dyadic_interval_cloud(2)
        b = PointCloud([[0.0, 0.0]], metric="l1")
        with pytest.raises(ValueError):
            union_cloud(a, b, offset=5.0)


class TestCascade:
    def test_isolated_center(self):
        cloud = interval_plus_point_cloud(4)
        sub = neighborhood_cascade(cloud, cloud.n - 1, epsilon=0.25, depth=3)
        assert list(sub.indices) == [cloud.n - 1]

    def test_contained_in_double_ball(self, grid11):
        for center in (0, 5, 10):
            for eps in (0.15, 0.3, 0.45):
                sub = neighborhood_cascade(grid11, center, eps, depth=4)
                assert center in sub.indices
                outer = set(closed_ball(grid11, center, 2 * eps).indices)
                assert set(sub.indices) <= outer

    def test_grid_hand_simulation(self, grid11):
        # eps^2 = 0.0625 is below the grid step, so nothing beyond V_1 joins
        sub = neighborhood_cascade(grid11, 5, 0.25, depth=3)
        assert [round(grid11.coords[i, 0], 1) for i in sub.indices] == [0.3, 0.4, 0.5, 0.6, 0.7]

    def test_cascade_actually_grows(self):
        # step 0.2 grid with eps = 0.45: V_2 radius 0.2025 reaches one more point
        cloud = PointCloud(np.arange(11) * 0.2)
        v1 = neighborhood_cascade(cloud, 5, 0.45, depth=1)
        v2 = neighborhood_cascade(cloud, 5, 0.45, depth=2)
        assert set(v1.indices) < set(v2.indices)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 64), min_size=1, max_size=12, unique=True),
           st.integers(0, 11), st.sampled_from([0.1, 0.2, 0.25, 0.3, 0.4, 0.45, 0.49]),
           st.integers(1, 8))
    def test_matches_every_round(self, ticks, center, epsilon, depth):
        cloud = PointCloud(np.array(ticks) / 64.0)
        center %= cloud.n
        # the definition: all depth rounds, each one from the set the last one left
        inside = cloud.distances_from(center) < epsilon - TOL
        inside[center] = True
        for n in range(2, depth + 1):
            inside = inside | np.any([cloud.distances_from(v) < epsilon ** n - TOL
                                      for v in np.flatnonzero(inside)], axis=0)
        sub = neighborhood_cascade(cloud, center, epsilon, depth)
        assert sub.indices.tolist() == np.flatnonzero(inside).tolist()

    def test_stops_after_a_round_that_adds_nothing(self, monkeypatch):
        cloud = cantor_cloud(3)
        v2 = neighborhood_cascade(cloud, 0, 0.25, depth=2).indices.tolist()
        calls = []
        distances_from = PointCloud.distances_from
        monkeypatch.setattr(PointCloud, "distances_from",
                            lambda self, i: calls.append(i) or distances_from(self, i))
        sub = neighborhood_cascade(cloud, 0, 0.25, depth=10 ** 4)
        assert sub.indices.tolist() == v2
        # V_1 from the center, then round 2 from each of its points, which adds nothing
        assert len(calls) == 1 + len(sub)

    def test_validation(self, grid11):
        with pytest.raises(ValueError):
            neighborhood_cascade(grid11, 0, 0.5, 2)
        with pytest.raises(ValueError):
            neighborhood_cascade(grid11, 0, 0.25, 0)


class TestDeterminismAndSpec:
    def test_generators_bit_identical(self):
        for build in (lambda: cantor_cloud(6), lambda: dyadic_interval_cloud(7),
                      lambda: polarized_example_cloud(4)):
            a, b = build(), build()
            assert np.array_equal(a.coords, b.coords)

    def test_generator_spec_roundtrip(self):
        spec = GeneratorSpec(kind="cantor", level=5)
        again = GeneratorSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.build().n == 32
        with pytest.raises(ValueError):
            GeneratorSpec(kind="mystery")
        with pytest.raises(ValueError):
            GeneratorSpec(kind="cantor").build()

    def test_generator_spec_union(self):
        spec = GeneratorSpec(kind="union", offset=2.0, components=(
            GeneratorSpec(kind="dyadic-grid", resolution=4),
            GeneratorSpec(kind="polarized", depth=1)))
        cloud = spec.build()
        assert cloud.n == 17 + 3
        again = GeneratorSpec.from_dict(spec.to_dict())
        assert np.array_equal(again.build().coords, cloud.coords)

    def test_generator_spec_cascade(self):
        spec = GeneratorSpec(kind="cascade", center=5, epsilon=0.25, depth=3,
                             base=GeneratorSpec(kind="dyadic-grid", resolution=4))
        cloud = spec.build()
        base = dyadic_interval_cloud(4)
        expected = neighborhood_cascade(base, 5, 0.25, 3)
        assert np.array_equal(cloud.coords[:, 0], base.coords[expected.indices, 0])
        assert GeneratorSpec.from_dict(spec.to_dict()) == spec
