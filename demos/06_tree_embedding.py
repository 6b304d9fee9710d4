"""Embedding finite trees into l1 and reading depth off certificates.

Each tree node doubles its parent's vectors by adding 2^-2n-1 on one of
two private coordinates.  Distinct levels use distinct coordinates, so the
l1 geometry encodes the tree: points from nodes first disagreeing at level
k sit at least 2^-2k apart, and a branch of length b carries a depth-b
(2, 2)-regular certificate.  The deepest certificate found equals the
longest node, turning branch length into a metric invariant.
"""
import numpy as np

from fracdim import (FiniteTree, branch_family, embed_tree, max_regular_depth,
                     verify_regular)

for b in range(5):
    tree = FiniteTree.single_branch(b)
    cloud = embed_tree(tree)
    depth, exhausted = max_regular_depth(cloud, 2, 2, cap=b + 2)
    print(f"branch length {b}: {cloud.n:3d} points, deepest (2,2) certificate = {depth}"
          f" (exhausted={exhausted})")

tree = FiniteTree.single_branch(4)
cloud = embed_tree(tree)
fam = branch_family(tree, (0, 0, 0, 0), depth=4, cloud=cloud)
print(f"\nexplicit branch certificate verifies: {verify_regular(cloud, fam).ok}")

# rows 1 and 2 are the two vectors of node (0,), as {column: value}
phi = [{int(c): float(row[c]) for c in np.flatnonzero(row)} for row in cloud.coords[1:3]]
print(f"phi of the first branch node: {phi}")
print(f"their l1 distance: {cloud.distance(1, 2)}")

bushy = FiniteTree.full_tree(2, 3)
bc = embed_tree(bushy)
depth, _ = max_regular_depth(bc, 2, 2, cap=4)
print(f"\nbushy tree (depth 2, arity 3): {bc.n} points, deepest certificate = {depth}")
print("a well-founded tree of bounded depth cannot fake a long branch")
