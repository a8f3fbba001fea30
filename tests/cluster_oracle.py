"""Reference HDBSCAN kernels and cluster selection that termforge.recluster
replaced, which tests require the package to reproduce exactly:

- the three-matrix distance matrix, core distances and mutual
  reachability, each allocating a fresh n x n result; the package's
  in-place, row-block kernels give the same floats, except that its
  distance matrix sets identical rows exactly 0 apart;
- the separate excess-of-mass and hybrid selection passes, the label
  builder and the leaf counter that the single `extract` path replaced."""

import numpy as np

from termforge.recluster import (_cluster_children, _descendants, build_hierarchy,
                                 condense, mst)


def distance_matrix(embeddings):
    """Pairwise Euclidean distances in float64 by the Gram form, with a zero
    diagonal; identical rows may come out a rounding error apart."""
    x = np.asarray(embeddings, dtype=np.float64)
    sq = np.einsum("ij,ij->i", x, x)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(d2)


def identical_rows(embeddings):
    """(n, n) mask of the pairs of rows equal in every column."""
    x = np.asarray(embeddings, dtype=np.float64)
    return (x[:, None] == x[None]).all(axis=-1)


def core_distances(dist, k):
    return np.partition(dist, k, axis=1)[:, k].copy()


def mutual_reachability(dist, core):
    out = np.maximum(dist, np.maximum(core[:, None], core[None, :]))
    np.fill_diagonal(out, 0.0)
    return out


def leaf_counts(dendrogram, n):
    """Points under each dendrogram node, summed bottom-up from the merges."""
    counts = np.ones(2 * n - 1, dtype=np.int64)
    for k in range(n - 1):
        left, right = int(dendrogram[k, 0]), int(dendrogram[k, 1])
        counts[n + k] = counts[left] + counts[right]
    return counts


def select_eom(tree):
    children = _cluster_children(tree)
    propagated = {}
    selected = set()
    for cluster in sorted(tree.cluster_size, reverse=True):
        subtree = sum(propagated[c] for c in children[cluster])
        selectable = tree.cluster_size[cluster] >= tree.min_cluster_size
        if cluster == tree.root and len(tree.cluster_size) > 1:
            selectable = False
        if selectable and tree.stability[cluster] > subtree:
            for d in _descendants(tree, cluster, children):
                selected.discard(d)
            selected.add(cluster)
            propagated[cluster] = tree.stability[cluster]
        else:
            propagated[cluster] = subtree
    return selected


def birth_distance(tree, cluster):
    birth = tree.cluster_birth[cluster]
    return np.inf if birth == 0.0 else 1.0 / birth


def select_hybrid(tree, epsilon):
    selected = select_eom(tree)
    if epsilon <= 0:
        return selected
    lifted = set()
    for cluster in selected:
        while birth_distance(tree, cluster) < epsilon:
            cluster = tree.cluster_parent[cluster]
        lifted.add(cluster)
    children = _cluster_children(tree)
    final = set(lifted)
    for cluster in lifted:
        final.difference_update(_descendants(tree, cluster, children))
    return final


def labels_from_selection(tree, selected):
    """Canonical labels plus the selected cluster backing each label."""
    nearest = {}
    for cluster in sorted(tree.cluster_size):
        if cluster in selected:
            nearest[cluster] = cluster
        else:
            parent = tree.cluster_parent.get(cluster)
            nearest[cluster] = nearest[parent] if parent is not None else None

    members = {c: [] for c in selected}
    point_owner = np.full(tree.n_points, -1, dtype=np.int64)
    for parent, child in zip(tree.parent, tree.child):
        if child < tree.n_points:
            owner = nearest[int(parent)]
            if owner is not None:
                members[owner].append(int(child))
                point_owner[int(child)] = owner

    order = sorted((c for c in selected if members[c]),
                   key=lambda c: (-len(members[c]), min(members[c])))
    rank = {c: i for i, c in enumerate(order)}
    labels = np.full(tree.n_points, -1, dtype=np.int64)
    for point in range(tree.n_points):
        owner = point_owner[point]
        if owner >= 0:
            labels[point] = rank[int(owner)]
    return labels, order


def extract_eom(tree):
    labels, _ = labels_from_selection(tree, select_eom(tree))
    return labels


def extract_hybrid(tree, epsilon):
    labels, _ = labels_from_selection(tree, select_hybrid(tree, epsilon))
    return labels


def hdbscan(embeddings, params):
    """(labels, clusters, stabilities, noise) as the package's hdbscan
    returned them, after its input checks have passed."""
    dist = distance_matrix(embeddings)
    dist[identical_rows(embeddings)] = 0.0
    reach = mutual_reachability(dist, core_distances(dist, params.min_samples))
    tree = condense(build_hierarchy(mst(reach)), params.min_cluster_size)
    labels, order = labels_from_selection(
        tree, select_hybrid(tree, params.cluster_selection_epsilon))
    members = {}
    for point, label in enumerate(labels):
        if label >= 0:
            members.setdefault(int(label), []).append(point)
    clusters = [members[label] for label in range(len(members))]
    noise = [int(p) for p in np.flatnonzero(labels < 0)]
    stabilities = [float(tree.stability[c]) for c in order]
    return labels, clusters, stabilities, noise
