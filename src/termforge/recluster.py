"""Hierarchical density clustering of segment embeddings.

From-scratch HDBSCAN on a dense Euclidean distance matrix, built once per
call: core distances read it, mutual reachability overwrites it, then Prim's
minimum spanning tree, single-linkage dendrogram, condensation by minimum
cluster size, then one cluster selection,
`extract(tree, epsilon)`: excess-of-mass, followed for epsilon > 0 by the
hybrid cluster-selection-epsilon rule that merges clusters born below that
distance (epsilon = 0 is plain excess-of-mass).

Conventions: lambda = 1/distance (distance 0 -> +inf, exact duplicates merge
immediately); the root competes in excess-of-mass selection only when it is
the sole cluster and the corpus is not smaller than min_cluster_size. The
condensed tree holds one record per cluster (parent, birth lambda, size,
stability), numbered in birth order with the root as 0, and one per point
(the cluster it falls out of, and the lambda at which it does). Output
cluster ids are canonical: decreasing size, ties broken by
smallest member index. A call refuses more points than one n x n float64
matrix of DENSE_MATRIX_BYTES holds (n > 20,000).

Memory: a call holds one n x n float64 matrix. The distance matrix is
built in the Gram matrix's storage, core distances are read from it a
row block at a time, and mutual reachability overwrites it; the scratch of
a row block is BLOCK_SHARE of one matrix. Each step computes the same
floats as a fresh-matrix form, in the same order, since max does not
round, except that identical rows are set exactly 0 apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import ScaleError

# Bytes one n x n float64 matrix may take: n = 20,000 points, 3.2 GB. A
# call's peak is one such matrix, plus row-block scratch.
DENSE_MATRIX_BYTES = 8 * 20_000**2
# Share of one n x n matrix that the scratch of a row block takes: a block
# is n * BLOCK_SHARE rows, and at least one.
BLOCK_SHARE = 1 / 32
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
        if not self.cluster_selection_epsilon >= 0:
            raise ValueError("cluster_selection_epsilon must be >= 0")


@dataclass
class CondensedTree:
    """One record per cluster and one per point. Clusters are numbered in
    birth order with the root as 0, so a child comes after its parent."""
    parent: np.ndarray          # per cluster: parent cluster, -1 for the root
    birth: np.ndarray           # per cluster: lambda of its birth, 0 for the root
    size: np.ndarray            # per cluster: points at its birth
    stability: np.ndarray       # per cluster
    point_cluster: np.ndarray   # per point: the cluster it falls out of
    point_lambda: np.ndarray    # per point: the lambda at which it falls out
    min_cluster_size: int


@dataclass
class HdbscanResult:
    labels: np.ndarray                 # cluster id per point, -1 = noise
    clusters: list[list[int]]          # member point indices per cluster id
    stabilities: list[float]
    noise: list[int]


def _row_blocks(n: int):
    """Slices of consecutive rows that cover range(n), n * BLOCK_SHARE rows
    each (at least one)."""
    step = max(1, int(n * BLOCK_SHARE))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def distance_matrix(embeddings: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances in float64, with a zero diagonal and
    exactly 0 between identical rows. The Gram matrix is formed once and
    overwritten, a row block at a time, with (|x_i|^2 + |x_j|^2) - 2 x_i.x_j;
    the clip at 0 and the square root run in place."""
    x = np.asarray(embeddings, dtype=np.float64)
    # rounding leaves identical rows up to ~3e-8 |x| apart in the Gram form;
    # they are found before the n x n matrix exists and set to 0 at the end
    group, counts = np.unique(x, axis=0, return_inverse=True, return_counts=True)[1:]
    twins = [np.flatnonzero(group == g) for g in np.flatnonzero(counts > 1)]
    sq = np.einsum("ij,ij->i", x, x)
    d2 = x @ x.T
    for rows in _row_blocks(len(x)):
        block = d2[rows]
        np.multiply(block, 2.0, out=block)
        np.subtract(sq[rows, None] + sq[None, :], block, out=block)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    for members in twins:
        d2[np.ix_(members, members)] = 0.0
    return np.sqrt(d2, out=d2)


def core_distances(dist: np.ndarray, k: int) -> np.ndarray:
    """Distance to each point's k-th nearest neighbor (self excluded), read
    from the distance matrix a row block at a time."""
    n = len(dist)
    if n <= k:
        raise ValueError(f"need more than k={k} points, got {n}")
    # row-sorted position k skips the self distance at position 0; each
    # block's partition is a copy, and only its k-th column is kept
    core = np.empty(n, dtype=dist.dtype)
    for rows in _row_blocks(n):
        core[rows] = np.partition(dist[rows], k, axis=1)[:, k]
    return core


def mutual_reachability(dist: np.ndarray, core: np.ndarray) -> np.ndarray:
    """max(core_i, core_j, d(i, j)) with a zero diagonal, from the distance
    matrix d. Overwrites d and returns it."""
    if len(core) != len(dist):
        raise ValueError("core distances and distance matrix disagree in length")
    np.maximum(dist, core[:, None], out=dist)
    np.maximum(dist, core[None, :], out=dist)
    np.fill_diagonal(dist, 0.0)
    return dist


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


def condense(dendrogram: np.ndarray, min_cluster_size: int) -> CondensedTree:
    """Walk each cluster down its dendrogram nodes until it splits into two
    sides of at least min_cluster_size points or dissolves; the points of
    each smaller side fall out of it along the way. Stability adds, in the
    cluster's chain order, lambda - birth once per fallen point (not
    count * (lambda - birth), which rounds differently) and
    size * (lambda - birth) per child."""
    if min_cluster_size < 2:
        raise ValueError("min_cluster_size must be >= 2")
    n = dendrogram.shape[0] + 1
    if n < 2:
        raise ValueError("need at least 2 points to condense a dendrogram")
    left, right, merged = dendrogram[:, [0, 1, 3]].astype(np.int64).T.tolist()
    height = dendrogram[:, 2].tolist()
    counts = [1] * n + merged               # points under each node
    parent, birth, size, stability = [-1], [0.0], [n], []
    start = [2 * n - 2]                     # first dendrogram node of each cluster
    point_cluster, point_lambda = [0] * n, [0.0] * n
    for cluster, node in enumerate(start):  # grows as clusters are born
        born, total = birth[cluster], 0.0
        while True:
            a, b, h = left[node - n], right[node - n], height[node - n]
            lam = np.inf if h == 0.0 else 1.0 / h
            # born and dissolved at the same (infinite) density: stability 0
            gain = 0.0 if born == np.inf else lam - born
            big = [side for side in (a, b) if counts[side] >= min_cluster_size]
            if len(big) == 2:
                for side in big:
                    parent.append(cluster)
                    birth.append(lam)
                    size.append(counts[side])
                    start.append(side)
                    total += gain * counts[side]
                break
            stack = [side for side in (a, b) if side not in big]
            while stack:                    # the points of the smaller sides fall out
                x = stack.pop()
                if x >= n:
                    stack += (left[x - n], right[x - n])
                else:
                    point_cluster[x], point_lambda[x] = cluster, lam
                    total += gain
            if not big:
                break
            node = big[0]
        stability.append(total)

    arrays = (parent, birth, size, stability, point_cluster, point_lambda)
    return CondensedTree(*map(np.array, arrays), min_cluster_size)


def _outermost(parent: list[int], marked: list[bool]) -> list[int]:
    """The marked clusters with no marked ancestor (parents precede children)."""
    under = [False] * len(parent)           # a proper ancestor is marked
    for c in range(1, len(parent)):
        under[c] = under[parent[c]] or marked[parent[c]]
    return [c for c, m in enumerate(marked) if m and not under[c]]


def _select(tree: CondensedTree, epsilon: float) -> list[int]:
    # Excess of mass first. The root's stability integrates from lambda 0 and
    # would dominate any child structure, so it only competes when it is the
    # sole cluster (the single-blob case); it is also disqualified when the
    # whole corpus is smaller than min_cluster_size.
    parent = tree.parent.tolist()
    stability = tree.stability.tolist()
    selectable = (tree.size >= tree.min_cluster_size).tolist()
    if len(parent) > 1:
        selectable[0] = False
    subtree = [0.0] * len(parent)           # what the children propagate
    wins = [False] * len(parent)
    for c in range(len(parent) - 1, -1, -1):
        wins[c] = selectable[c] and stability[c] > subtree[c]
        if c:
            subtree[parent[c]] += stability[c] if wins[c] else subtree[c]
    selected = _outermost(parent, wins)
    if epsilon <= 0:
        return selected
    # Hybrid rule: lift each cluster born closer than epsilon to its nearest
    # ancestor born at distance >= epsilon, then keep the outermost.
    birth = tree.birth.tolist()
    lifted = [False] * len(parent)
    for c in selected:
        while birth[c] != 0.0 and 1.0 / birth[c] < epsilon:
            c = parent[c]
        lifted[c] = True
    return _outermost(parent, lifted)


def _partition(tree: CondensedTree, selected: list[int]):
    """The label of each point (-1 for noise), the sorted member points of
    each selected cluster in canonical order (decreasing size, then smallest
    member) and the cluster behind each label."""
    nearest = [-1] * len(tree.parent)       # nearest selected cluster at or above
    chosen = set(selected)
    for c, p in enumerate(tree.parent.tolist()):
        nearest[c] = c if c in chosen else nearest[p] if p >= 0 else -1
    members: dict[int, list[int]] = {c: [] for c in selected}
    for point, owner in enumerate(np.array(nearest)[tree.point_cluster].tolist()):
        if owner >= 0:
            members[owner].append(point)
    order = sorted(selected, key=lambda c: (-len(members[c]), members[c][0]))
    clusters = [members[c] for c in order]
    labels = np.full(len(tree.point_cluster), -1, dtype=np.int64)
    for label, points in enumerate(clusters):
        labels[points] = label
    return labels, clusters, order


def extract(tree: CondensedTree, epsilon: float = 0.0) -> np.ndarray:
    """Cluster label per point, -1 marking noise: excess-of-mass selection in
    which clusters born closer than epsilon are replaced by their nearest
    ancestor born at distance >= epsilon; epsilon = 0 is plain EOM."""
    if not epsilon >= 0:
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
    reach = mutual_reachability(dist, core_distances(dist, params.min_samples))
    edges = mst(reach)
    tree = condense(build_hierarchy(edges), params.min_cluster_size)
    labels, clusters, order = _partition(tree, _select(tree, params.cluster_selection_epsilon))
    noise = [int(p) for p in np.flatnonzero(labels < 0)]
    stabilities = [float(tree.stability[c]) for c in order]
    return HdbscanResult(labels=labels, clusters=clusters,
                         stabilities=stabilities, noise=noise)
