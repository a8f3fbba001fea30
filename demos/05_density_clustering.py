"""Hierarchical density clustering on a constructed 2-D geometry.

Runs the clustering stack step by step (one distance matrix, core distances
from it, mutual reachability written over it, minimum spanning tree, single
linkage, condensation, extraction) and shows
how the hybrid epsilon rule merges micro-clusters that plain excess-of-mass
keeps apart.
"""

import numpy as np

from termforge.recluster import (HdbscanParams, build_hierarchy, condense,
                                 core_distances, distance_matrix, extract,
                                 hdbscan, mst, mutual_reachability)

rng = np.random.Generator(np.random.Philox(key=5))

# two micro-blobs 0.1 apart plus one far blob and two stragglers
points = np.vstack([
    0.01 * rng.standard_normal((12, 2)),
    [0.1, 0.0] + 0.01 * rng.standard_normal((12, 2)),
    [8.0, 0.0] + 0.01 * rng.standard_normal((12, 2)),
    [[4.0, 6.0], [-3.0, 5.0]],
])

dist = distance_matrix(points)
core = core_distances(dist, k=3)
print("core distance range:", round(core.min(), 4), "..", round(core.max(), 4))

reach = mutual_reachability(dist, core)
edges = mst(reach)
print("MST total weight:", round(sum(w for _, _, w in edges), 3))

tree = condense(build_hierarchy(edges), min_cluster_size=5)
print("condensed clusters:", len(tree.clusters()),
      "(sizes:", sorted(tree.cluster_size.values(), reverse=True), ")")

eom_labels = extract(tree)
hybrid_labels = extract(tree, epsilon=0.2)


def describe(labels):
    sizes = np.bincount(labels[labels >= 0]).tolist()
    return f"{labels.max() + 1} clusters, sizes {sorted(sizes, reverse=True)}, " \
           f"{(labels == -1).sum()} noise points"


print("excess-of-mass :", describe(eom_labels))
print("hybrid eps=0.2 :", describe(hybrid_labels),
      "(the two micro-blobs merge)")

result = hdbscan(points, HdbscanParams(min_cluster_size=5, min_samples=3,
                                       cluster_selection_epsilon=0.2))
print("one-call pipeline:", describe(result.labels),
      "stabilities", [round(s, 2) for s in result.stabilities])
