"""Point clouds, balls, diameters, and the Hausdorff metric.

A cloud is a finite metric space: coordinate points under euclidean or l1
distance, or an explicit distance matrix.  This walk-through builds the
classic "interval plus an isolated point" example and measures it.
"""
import numpy as np

from fracdim import (PointCloud, closed_ball, diameter, hausdorff_distance,
                     interval_plus_point_cloud)

cloud = interval_plus_point_cloud(6)
print(f"cloud: {cloud.n} points, metric={cloud.metric}, diameter={cloud.diam()}")

# the isolated point sits one unit away from the grid
i_one = int(np.flatnonzero(cloud.coords[:, 0] == 1.0)[0])
i_two = cloud.n - 1
print(f"d(1.0, 2.0) = {cloud.distance(i_one, i_two)}")

# closed balls include their boundary
ball = closed_ball(cloud, i_two, 0.99)
print(f"B(2.0, 0.99) holds {len(ball)} point(s): the point 2 is isolated below radius 1")

ball = closed_ball(cloud, i_two, 1.0)
print(f"B(2.0, 1.00) holds {len(ball)} point(s): the boundary point 1.0 joins at radius 1")

mid = int(np.flatnonzero(cloud.coords[:, 0] == 0.5)[0])
b = closed_ball(cloud, mid, 0.25)
print(f"B(0.5, 0.25) spans [{cloud.coords[b.indices[0], 0]}, "
      f"{cloud.coords[b.indices[-1], 0]}], diameter {diameter(cloud, b)} <= 2R")

# Hausdorff distance between a grid and its translate is the shift
grid = PointCloud(np.arange(11) * 0.1)
shifted = PointCloud(np.arange(11) * 0.1 + 0.03)
print(f"hausdorff(grid, grid + 0.03) = {hausdorff_distance(grid, shifted):.6f}")
