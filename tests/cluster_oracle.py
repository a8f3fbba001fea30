"""Reference HDBSCAN kernels and cluster selection that termforge.recluster
replaced, which tests require the package to reproduce exactly:

- the three-matrix distance matrix, core distances and mutual
  reachability, each allocating a fresh n x n result; the package's
  in-place, row-block kernels give the same floats, except that its
  distance matrix sets identical rows exactly 0 apart;
- the condensed tree as fall-out rows (parent, child, lambda, child size)
  plus per-cluster dicts, built by a breadth-first queue over dendrogram
  nodes, which the package's arrays of one record per cluster and one per
  point replaced; its clusters are numbered from n, the root;
- the separate excess-of-mass and hybrid selection passes, the label
  builder and the leaf counter that the single `extract` path replaced."""

from dataclasses import dataclass

import numpy as np

from termforge.recluster import build_hierarchy, mst


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


@dataclass
class Tree:
    n_points: int
    min_cluster_size: int
    parent: np.ndarray
    child: np.ndarray
    lambda_val: np.ndarray
    child_size: np.ndarray
    cluster_parent: dict
    cluster_birth: dict
    cluster_size: dict
    stability: dict

    @property
    def root(self):
        return self.n_points


def _leaves_under(dendrogram, node, n):
    stack = [node]
    leaves = []
    while stack:
        current = stack.pop()
        if current < n:
            leaves.append(current)
        else:
            row = dendrogram[current - n]
            stack.append(int(row[0]))
            stack.append(int(row[1]))
    return sorted(leaves)


def condense(dendrogram, min_cluster_size):
    n = dendrogram.shape[0] + 1
    counts = np.ones(2 * n - 1, dtype=np.int64)
    counts[n:] = dendrogram[:, 3]
    root = 2 * n - 2

    rows = []
    cluster_parent = {}
    cluster_birth = {n: 0.0}
    cluster_size = {n: n}
    next_label = n + 1
    queue = [(root, n)]
    while queue:
        node, label = queue.pop(0)
        row = dendrogram[node - n]
        left, right = int(row[0]), int(row[1])
        distance = float(row[2])
        lam = np.inf if distance == 0.0 else 1.0 / distance
        left_big = counts[left] >= min_cluster_size
        right_big = counts[right] >= min_cluster_size
        if left_big and right_big:
            for side in (left, right):
                child = next_label
                next_label += 1
                rows.append((label, child, lam, int(counts[side])))
                cluster_parent[child] = label
                cluster_birth[child] = lam
                cluster_size[child] = int(counts[side])
                queue.append((side, child))
        elif not left_big and not right_big:
            for side in (left, right):
                for point in _leaves_under(dendrogram, side, n):
                    rows.append((label, point, lam, 1))
        else:
            keep, drop = (left, right) if left_big else (right, left)
            for point in _leaves_under(dendrogram, drop, n):
                rows.append((label, point, lam, 1))
            queue.append((keep, label))

    parent = np.array([r[0] for r in rows], dtype=np.int64)
    child = np.array([r[1] for r in rows], dtype=np.int64)
    lambda_val = np.array([r[2] for r in rows])
    child_size = np.array([r[3] for r in rows], dtype=np.int64)

    stability = {c: 0.0 for c in cluster_size}
    for p, lam, sz in zip(parent, lambda_val, child_size):
        birth = cluster_birth[int(p)]
        if np.isinf(birth):
            continue
        stability[int(p)] += (lam - birth) * int(sz)
    return Tree(n, min_cluster_size, parent, child, lambda_val, child_size,
                cluster_parent, cluster_birth, cluster_size, stability)


def _cluster_children(tree):
    children = {c: [] for c in tree.cluster_size}
    for child, parent in tree.cluster_parent.items():
        children[parent].append(child)
    return children


def _descendants(tree, cluster, children):
    out = []
    stack = list(children[cluster])
    while stack:
        c = stack.pop()
        out.append(c)
        stack.extend(children[c])
    return out


def members_under(tree):
    """The sorted tuple of points under each cluster."""
    children = _cluster_children(tree)
    fallen = {c: [] for c in tree.cluster_size}
    for parent, child in zip(tree.parent, tree.child):
        if child < tree.n_points:
            fallen[int(parent)].append(int(child))
    return {c: tuple(sorted(fallen[c] + [p for d in _descendants(tree, c, children)
                                         for p in fallen[d]]))
            for c in tree.cluster_size}


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
    return result(tree, params.cluster_selection_epsilon)


def result(tree, epsilon):
    """(labels, clusters, stabilities, noise) of one selection on a tree."""
    labels, order = labels_from_selection(tree, select_hybrid(tree, epsilon))
    members = {}
    for point, label in enumerate(labels):
        if label >= 0:
            members.setdefault(int(label), []).append(point)
    clusters = [members[label] for label in range(len(members))]
    noise = [int(p) for p in np.flatnonzero(labels < 0)]
    stabilities = [float(tree.stability[c]) for c in order]
    return labels, clusters, stabilities, noise
