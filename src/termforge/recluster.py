"""Hierarchical density clustering of segment embeddings.

From-scratch HDBSCAN on a dense Euclidean distance matrix, built once per
call: core distances and mutual reachability both read it, then Prim's
minimum spanning tree, single-linkage dendrogram, condensation by minimum
cluster size, then one cluster selection,
`extract(tree, epsilon)`: excess-of-mass, followed for epsilon > 0 by the
hybrid cluster-selection-epsilon rule that merges clusters born below that
distance (epsilon = 0 is plain excess-of-mass).

Conventions: lambda = 1/distance (distance 0 -> +inf, exact duplicates merge
immediately); the root competes in excess-of-mass selection like any other
cluster but is disqualified when the corpus itself is smaller than
min_cluster_size. Cluster ids are canonical: decreasing size, ties broken by
smallest member index. A call refuses more points than one n x n float64
matrix of DENSE_MATRIX_BYTES holds (n > 20,000).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .util import ScaleError

# Bytes one n x n float64 matrix may take: n = 20,000 points, 3.2 GB. A
# call's peak is three such matrices, inside mutual_reachability.
DENSE_MATRIX_BYTES = 8 * 20_000**2
# Largest squared row norm a call takes: every term of a squared distance
# is at most 4 * max |x|^2, so below this none overflows float64.
MAX_SQUARED_NORM = np.finfo(np.float64).max / 4


@dataclass
class HdbscanParams:
    """Settings of one HDBSCAN call; its size guard is DENSE_MATRIX_BYTES."""
    min_cluster_size: int = 5
    min_samples: int = 5                     # core-distance neighbor count k
    cluster_selection_epsilon: float = 0.0   # 0 disables the hybrid rule

    def validate(self) -> None:
        if self.min_cluster_size < 2:
            raise ValueError("min_cluster_size must be >= 2")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.cluster_selection_epsilon < 0:
            raise ValueError("cluster_selection_epsilon must be >= 0")


@dataclass
class CondensedTree:
    n_points: int
    min_cluster_size: int
    parent: np.ndarray
    child: np.ndarray
    lambda_val: np.ndarray
    child_size: np.ndarray
    cluster_parent: dict[int, int] = field(default_factory=dict)
    cluster_birth: dict[int, float] = field(default_factory=dict)
    cluster_size: dict[int, int] = field(default_factory=dict)
    stability: dict[int, float] = field(default_factory=dict)

    @property
    def root(self) -> int:
        return self.n_points

    def clusters(self) -> list[int]:
        return sorted(self.cluster_size)


@dataclass
class HdbscanResult:
    labels: np.ndarray                 # cluster id per point, -1 = noise
    clusters: list[list[int]]          # member point indices per cluster id
    stabilities: list[float]
    noise: list[int]


def distance_matrix(embeddings: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances in float64, with a zero diagonal."""
    x = np.asarray(embeddings, dtype=np.float64)
    sq = np.einsum("ij,ij->i", x, x)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(d2)


def core_distances(dist: np.ndarray, k: int) -> np.ndarray:
    """Distance to each point's k-th nearest neighbor (self excluded), read
    from the distance matrix."""
    n = len(dist)
    if n <= k:
        raise ValueError(f"need more than k={k} points, got {n}")
    # row-sorted position k skips the self distance at position 0; the copy
    # frees the n x n partition, which a column view would keep alive
    return np.partition(dist, k, axis=1)[:, k].copy()


def mutual_reachability(dist: np.ndarray, core: np.ndarray) -> np.ndarray:
    """max(core_i, core_j, d(i, j)) with a zero diagonal, from the distance
    matrix d."""
    if len(core) != len(dist):
        raise ValueError("core distances and distance matrix disagree in length")
    out = np.maximum(dist, np.maximum(core[:, None], core[None, :]))
    np.fill_diagonal(out, 0.0)
    return out


def mst(matrix: np.ndarray) -> list[tuple[int, int, float]]:
    """Prim's algorithm on a dense symmetric matrix; ties pick the smaller index."""
    n = matrix.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points for a spanning tree")
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best_dist = matrix[0].copy()
    best_from = np.zeros(n, dtype=np.int64)
    edges: list[tuple[int, int, float]] = []
    for _ in range(n - 1):
        candidate = np.where(in_tree, np.inf, best_dist)
        j = int(np.argmin(candidate))
        edges.append((int(best_from[j]), j, float(candidate[j])))
        in_tree[j] = True
        closer = matrix[j] < best_dist
        best_dist[closer] = matrix[j][closer]
        best_from[closer] = j
    return edges


def build_hierarchy(mst_edges: list[tuple[int, int, float]]) -> np.ndarray:
    """Single-linkage dendrogram: rows (left, right, distance, size), merge
    order (weight, smaller endpoint, larger endpoint); new node k gets id n+k."""
    n = len(mst_edges) + 1
    ordered = sorted((w, min(u, v), max(u, v)) for u, v, w in mst_edges)
    parent = list(range(2 * n - 1))
    size = [1] * n + [0] * (n - 1)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rows = np.zeros((n - 1, 4))
    for k, (w, u, v) in enumerate(ordered):
        ru, rv = find(u), find(v)
        if ru == rv:
            raise ValueError("mst edges do not form a tree")
        a, b = (ru, rv) if ru < rv else (rv, ru)
        new = n + k
        rows[k] = (a, b, w, size[a] + size[b])
        parent[a] = parent[b] = new
        size[new] = size[a] + size[b]
    return rows


def _leaves_under(dendrogram: np.ndarray, node: int, n: int) -> list[int]:
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


def condense(dendrogram: np.ndarray, min_cluster_size: int) -> CondensedTree:
    """Drop splits whose smaller side is below min_cluster_size; record each
    point's fall-out lambda and per-cluster stability."""
    if min_cluster_size < 2:
        raise ValueError("min_cluster_size must be >= 2")
    n = dendrogram.shape[0] + 1
    counts = np.ones(2 * n - 1, dtype=np.int64)   # points under each node
    counts[n:] = dendrogram[:, 3]
    root = 2 * n - 2

    rows: list[tuple[int, int, float, int]] = []
    cluster_parent: dict[int, int] = {}
    cluster_birth: dict[int, float] = {n: 0.0}
    cluster_size: dict[int, int] = {n: n}
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

    stability: dict[int, float] = {c: 0.0 for c in cluster_size}
    for p, lam, sz in zip(parent, lambda_val, child_size):
        birth = cluster_birth[int(p)]
        if np.isinf(birth):
            continue  # born and dissolved at the same (infinite) density
        stability[int(p)] += (lam - birth) * int(sz)

    return CondensedTree(
        n_points=n,
        min_cluster_size=min_cluster_size,
        parent=parent,
        child=child,
        lambda_val=lambda_val,
        child_size=child_size,
        cluster_parent=cluster_parent,
        cluster_birth=cluster_birth,
        cluster_size=cluster_size,
        stability=stability,
    )


def _cluster_children(tree: CondensedTree) -> dict[int, list[int]]:
    children: dict[int, list[int]] = {c: [] for c in tree.cluster_size}
    for child, parent in tree.cluster_parent.items():
        children[parent].append(child)
    return children


def _descendants(tree: CondensedTree, cluster: int,
                 children: dict[int, list[int]]) -> list[int]:
    out = []
    stack = list(children[cluster])
    while stack:
        c = stack.pop()
        out.append(c)
        stack.extend(children[c])
    return out


def _birth_distance(tree: CondensedTree, cluster: int) -> float:
    birth = tree.cluster_birth[cluster]
    return np.inf if birth == 0.0 else 1.0 / birth


def _select(tree: CondensedTree, epsilon: float) -> set[int]:
    # Excess of mass first. The root's stability integrates from lambda 0 and
    # would dominate any child structure, so it only competes when it is the
    # sole cluster (the single-blob case); it is also disqualified when the
    # whole corpus is smaller than min_cluster_size.
    children = _cluster_children(tree)
    propagated: dict[int, float] = {}
    selected: set[int] = set()
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
    if epsilon <= 0:
        return selected
    # Hybrid rule: lift each cluster born closer than epsilon to its nearest
    # ancestor born at distance >= epsilon, then drop lifted descendants.
    lifted: set[int] = set()
    for cluster in selected:
        while _birth_distance(tree, cluster) < epsilon:
            cluster = tree.cluster_parent[cluster]
        lifted.add(cluster)
    return lifted.difference(*(_descendants(tree, c, children) for c in lifted))


def _partition(tree: CondensedTree, selected: set[int]):
    """The label of each point (-1 for noise), the sorted member points of
    each selected cluster in canonical order (decreasing size, then smallest
    member) and the cluster behind each label."""
    nearest: dict[int, int | None] = {}
    for cluster in sorted(tree.cluster_size):
        if cluster in selected:
            nearest[cluster] = cluster
        else:
            parent = tree.cluster_parent.get(cluster)
            nearest[cluster] = nearest[parent] if parent is not None else None

    members: dict[int, list[int]] = {c: [] for c in selected}
    for parent, child in zip(tree.parent, tree.child):
        if child < tree.n_points:
            owner = nearest[int(parent)]
            if owner is not None:
                members[owner].append(int(child))
    order = sorted((c for c in selected if members[c]),
                   key=lambda c: (-len(members[c]), min(members[c])))
    clusters = [sorted(members[c]) for c in order]
    labels = np.full(tree.n_points, -1, dtype=np.int64)
    for label, points in enumerate(clusters):
        labels[points] = label
    return labels, clusters, order


def extract(tree: CondensedTree, epsilon: float = 0.0) -> np.ndarray:
    """Cluster label per point, -1 marking noise: excess-of-mass selection in
    which clusters born closer than epsilon are replaced by their nearest
    ancestor born at distance >= epsilon; epsilon = 0 is plain EOM."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    labels, _, _ = _partition(tree, _select(tree, epsilon))
    return labels


def hdbscan(embeddings: np.ndarray, params: HdbscanParams) -> HdbscanResult:
    """Full pipeline: distance matrix -> core distances -> mutual
    reachability -> MST -> single linkage -> condense -> cluster selection.
    A NaN or infinite entry, or a row whose squared norm exceeds
    MAX_SQUARED_NORM, raises a ValueError naming its row before any
    distance is computed."""
    params.validate()
    embeddings = np.asarray(embeddings, dtype=np.float64)
    finite = np.isfinite(embeddings)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"embedding row {row} is not finite: column {col} is "
                         f"{embeddings[row, col]}")
    with np.errstate(over="ignore"):
        too_large = np.einsum("ij,ij->i", embeddings, embeddings) > MAX_SQUARED_NORM
    if too_large.any():
        raise ValueError(f"embedding row {too_large.argmax()} is too large: its squared "
                         f"norm exceeds {MAX_SQUARED_NORM:.4g}, where float64 distances "
                         "overflow")
    n = len(embeddings)
    if n <= max(params.min_samples, params.min_cluster_size):
        raise ValueError(
            f"need more than {max(params.min_samples, params.min_cluster_size)} "
            f"points, got {n}"
        )
    if 8 * n * n > DENSE_MATRIX_BYTES:
        raise ScaleError(
            f"{n} points need a {8 * n * n}-byte distance matrix, over the "
            f"dense-matrix guard of {DENSE_MATRIX_BYTES} bytes; subsample the segments"
        )
    dist = distance_matrix(embeddings)
    core = core_distances(dist, params.min_samples)
    reach = mutual_reachability(dist, core)
    del dist
    edges = mst(reach)
    tree = condense(build_hierarchy(edges), params.min_cluster_size)
    labels, clusters, order = _partition(tree, _select(tree, params.cluster_selection_epsilon))
    noise = [int(p) for p in np.flatnonzero(labels < 0)]
    stabilities = [float(tree.stability[c]) for c in order]
    return HdbscanResult(labels=labels, clusters=clusters,
                         stabilities=stabilities, noise=noise)
