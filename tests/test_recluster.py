import tracemalloc
import warnings
from itertools import chain, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cluster_oracle
from termforge import recluster
from termforge.recluster import (CondensedTree, HdbscanParams, ScaleError,
                                 build_hierarchy, condense, core_distances,
                                 distance_matrix, extract, hdbscan,
                                 mutual_reachability, mst)
from termforge.util import rng_from


def brute_core_distances(points, k):
    out = []
    for i in range(len(points)):
        dists = sorted(np.linalg.norm(points[i] - points[j])
                       for j in range(len(points)) if j != i)
        out.append(dists[k - 1])
    return np.array(out)


def prufer_trees(n):
    """All labelled spanning trees of K_n via Prufer sequences."""
    if n == 2:
        yield [(0, 1)]
        return
    for seq in product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        seq_list = list(seq)
        leaves = sorted(v for v in range(n) if degree[v] == 1)
        for v in seq_list:
            leaf = leaves.pop(0)
            edges.append((leaf, v))
            degree[v] -= 1
            if degree[v] == 1:
                import bisect
                bisect.insort(leaves, v)
        edges.append((leaves[0], leaves[1]))
        yield edges


def naive_single_linkage_partitions(matrix, thresholds):
    """Flat partition at each threshold via transitive closure of edges <= t."""
    n = matrix.shape[0]
    partitions = []
    for t in thresholds:
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(n):
            for j in range(i + 1, n):
                if matrix[i, j] <= t:
                    parent[find(i)] = find(j)
        groups = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        partitions.append(sorted(sorted(g) for g in groups.values()))
    return partitions


def dendrogram_partitions(dendrogram, n, thresholds):
    partitions = []
    for t in thresholds:
        parent = list(range(2 * n - 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for k in range(n - 1):
            left, right, dist, _ = dendrogram[k]
            if dist <= t:
                node = n + k
                parent[find(int(left))] = node
                parent[find(int(right))] = node
        groups = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        partitions.append(sorted(sorted(g) for g in groups.values()))
    return partitions


# --- core distances ----------------------------------------------------------


def test_core_identical_points_zero():
    points = np.ones((6, 3))
    assert (core_distances(distance_matrix(points), 2) == 0).all()


def test_core_collinear_hand_case():
    points = np.array([[0.0], [1.0], [3.0]])
    assert core_distances(distance_matrix(points), 1).tolist() == [1.0, 1.0, 2.0]


def test_core_matches_brute_force(rng):
    for _ in range(20):
        points = rng.standard_normal((int(rng.integers(6, 20)), 3))
        k = int(rng.integers(1, 5))
        assert np.allclose(core_distances(distance_matrix(points), k),
                           brute_core_distances(points, k))


def test_core_requires_enough_points():
    with pytest.raises(ValueError):
        core_distances(distance_matrix(np.zeros((3, 2))), 3)


# --- mutual reachability -----------------------------------------------------


def test_mutual_reachability_zero_core_is_euclidean(rng):
    points = rng.standard_normal((8, 3))
    reach = mutual_reachability(distance_matrix(points), np.zeros(8))
    direct = np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1))
    assert np.allclose(reach, direct)


def test_mutual_reachability_symmetric_zero_diagonal(rng):
    points = rng.standard_normal((10, 4))
    dist = distance_matrix(points)
    reach = mutual_reachability(dist, core_distances(dist, 3))
    assert (reach == reach.T).all()
    assert (np.diag(reach) == 0).all()


def test_mutual_reachability_overwrites_its_argument(rng):
    points = rng.standard_normal((12, 3))
    dist = distance_matrix(points)
    core = core_distances(dist, 3)
    expected = cluster_oracle.mutual_reachability(dist, core)
    reach = mutual_reachability(dist, core)
    assert reach is dist
    assert np.array_equal(reach, expected)


def test_mutual_reachability_hand_case():
    points = np.array([[0.0], [1.0], [2.0], [10.0]])
    dist = distance_matrix(points)
    core = core_distances(dist, 1)            # (1, 1, 1, 8)
    reach = mutual_reachability(dist, core)
    assert reach[0, 1] == 1.0                  # max(1, 1, 1)
    assert reach[0, 2] == 2.0                  # max(1, 1, 2)
    assert reach[0, 3] == 10.0                 # max(1, 8, 10)
    assert reach[1, 2] == 1.0


# --- in-place kernels against the three-matrix oracle --------------------------


def planted_twins(rng, n, width, scale):
    """n float rows scaled by `scale`, with some rows copied onto others."""
    points = scale * rng.standard_normal((n, width))
    sources = rng.integers(0, n, size=n // 4)
    targets = rng.integers(0, n, size=n // 4)
    points[targets] = points[sources]
    return points


def test_distance_matrix_puts_identical_rows_at_zero(rng):
    """The Gram form leaves some planted duplicates a rounding error apart;
    the package sets every such pair to exactly 0."""
    nonzero = 0
    for _ in range(40):
        points = planted_twins(rng, 30, 8, rng.uniform(0.01, 100.0))
        same = cluster_oracle.identical_rows(points)
        assert (distance_matrix(points)[same] == 0.0).all()
        nonzero += int((cluster_oracle.distance_matrix(points)[same] > 0.0).sum())
    assert nonzero > 0


def test_identical_rows_cluster_alike_at_any_scale():
    """A table of one repeated row is all at distance 0, whatever the row."""
    params = HdbscanParams(min_cluster_size=4, min_samples=3)
    base = hdbscan(np.zeros((20, 40)), params)
    row = rng_from(4).standard_normal(40)     # the Gram form puts copies apart
    for scale in (1e-3, 0.37, 1.0, 12_345.678, 3e120):
        result = hdbscan(np.tile(scale * row, (20, 1)), params)
        assert result.labels.tolist() == base.labels.tolist()
        assert result.clusters == base.clusters
        assert result.stabilities == base.stabilities
        assert result.noise == base.noise


@given(st.integers(6, 60), st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.floats(0.01, 100.0), st.booleans(), st.integers(1, 5),
       st.sampled_from(("default", "one row", "all but one row")))
@settings(max_examples=150)
def test_in_place_kernels_match_three_matrix_oracle(n, width, seed, scale, as_float32, k,
                                                    blocks):
    """Distance matrix, core distances and mutual reachability, a row block
    at a time in one matrix, equal the oracle's fresh-matrix kernels float for
    float, except that identical rows are exactly 0 apart."""
    points = planted_twins(rng_from(seed), n, width, scale)
    if as_float32:
        points = points.astype(np.float32)
    share = {"default": recluster.BLOCK_SHARE, "one row": 0.0,
             "all but one row": (n - 0.5) / n}[blocks]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recluster, "BLOCK_SHARE", share)
        if blocks != "default":
            rows = {"one row": 1, "all but one row": n - 1}[blocks]
            assert recluster._row_blocks(n)[0] == slice(0, rows)
        dist = distance_matrix(points)
        same = cluster_oracle.identical_rows(points)
        assert np.array_equal(dist[~same], cluster_oracle.distance_matrix(points)[~same])
        assert (dist[same] == 0.0).all()
        core = core_distances(dist, k)
        assert np.array_equal(core, cluster_oracle.core_distances(dist, k))
        expected = cluster_oracle.mutual_reachability(dist, core)
        assert np.array_equal(mutual_reachability(dist, core), expected)


# --- minimum spanning tree ---------------------------------------------------


def test_mst_two_points():
    matrix = np.array([[0.0, 3.0], [3.0, 0.0]])
    assert mst(matrix) == [(0, 1, 3.0)]


def test_mst_chain_geometry():
    points = np.array([[0.0], [1.0], [2.5], [4.5]])
    matrix = np.abs(points - points.T)
    edges = {tuple(sorted((u, v))) for u, v, _ in mst(matrix)}
    assert edges == {(0, 1), (1, 2), (2, 3)}


def test_mst_weight_matches_exhaustive_enumeration(rng):
    for _ in range(50):
        n = int(rng.integers(3, 8))
        points = rng.standard_normal((n, 2))
        matrix = np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1))
        prim_weight = sum(w for _, _, w in mst(matrix))
        best = min(sum(matrix[u, v] for u, v in tree) for tree in prufer_trees(n))
        assert prim_weight == pytest.approx(best, rel=1e-12)


# --- dendrogram ---------------------------------------------------------------


def test_hierarchy_merge_count_and_top_height():
    matrix = np.array([[0.0, 1.0, 5.0],
                       [1.0, 0.0, 4.0],
                       [5.0, 4.0, 0.0]])
    dendrogram = build_hierarchy(mst(matrix))
    assert dendrogram.shape == (2, 4)
    assert dendrogram[-1, 2] == 4.0
    assert dendrogram[-1, 3] == 3


def test_hierarchy_tie_merge_order_deterministic():
    edges = [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 1.0)]
    dendrogram = build_hierarchy(edges)
    # ties resolve by (weight, smaller endpoint, larger endpoint):
    # (0,1) then (1,2) which joins {0,1} (node 4) with {2}, then (2,3)
    assert (dendrogram[0] == [0, 1, 1.0, 2]).all()
    assert (dendrogram[1] == [2, 4, 1.0, 3]).all()
    assert (dendrogram[2] == [3, 5, 1.0, 4]).all()


def test_hierarchy_rejects_non_tree():
    with pytest.raises(ValueError, match="tree"):
        build_hierarchy([(0, 1, 1.0), (1, 0, 2.0)])


def test_hierarchy_matches_naive_single_linkage(rng):
    for _ in range(10):
        n = int(rng.integers(5, 30))
        points = rng.standard_normal((n, 3))
        matrix = np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1))
        dendrogram = build_hierarchy(mst(matrix))
        heights = sorted(dendrogram[:, 2])
        thresholds = [0.0] + [(heights[i] + heights[i + 1]) / 2
                              for i in range(len(heights) - 1)] + [heights[-1] + 1]
        assert (dendrogram_partitions(dendrogram, n, thresholds)
                == naive_single_linkage_partitions(matrix, thresholds))


# --- condense -----------------------------------------------------------------


def blob_matrix(rng, centers, size, spread=0.05):
    points = np.vstack([
        center + spread * rng.standard_normal((size, len(center)))
        for center in centers
    ])
    return points


def build_tree(points, k, mcs):
    dist = distance_matrix(points)
    reach = mutual_reachability(dist, core_distances(dist, k))
    return condense(build_hierarchy(mst(reach)), mcs)


def test_condense_mcs_above_n_gives_root_only(rng):
    points = rng.standard_normal((8, 2))
    tree = build_tree(points, 2, 16)
    assert tree.clusters() == [tree.root]
    # every point falls out of the root at its own lambda
    point_rows = tree.child[tree.child < tree.n_points]
    assert sorted(point_rows.tolist()) == list(range(8))


def test_condense_two_blobs_two_children(rng):
    points = blob_matrix(rng, [np.zeros(2), np.array([10.0, 0])], 10)
    tree = build_tree(points, 3, 5)
    children = [c for c, p in tree.cluster_parent.items() if p == tree.root]
    assert len(children) == 2
    assert sorted(tree.cluster_size[c] for c in children) == [10, 10]


def oracle_stability(tree: CondensedTree) -> dict:
    """Direct per-point summation: each point contributes its capped fall-out
    lambda minus the cluster's birth lambda, for every cluster it crosses."""
    stability = {c: 0.0 for c in tree.cluster_size}
    point_lambda = {}
    point_parent = {}
    for parent, child, lam in zip(tree.parent, tree.child, tree.lambda_val):
        if child < tree.n_points:
            point_lambda[int(child)] = lam
            point_parent[int(child)] = int(parent)
    death = {}
    for parent, child, lam in zip(tree.parent, tree.child, tree.lambda_val):
        if child >= tree.n_points:
            death[int(parent)] = lam
    for point in range(tree.n_points):
        cluster = point_parent[point]
        lam = point_lambda[point]
        while cluster is not None:
            birth = tree.cluster_birth[cluster]
            capped = min(lam, death.get(cluster, np.inf))
            if not np.isinf(birth):
                stability[cluster] += capped - birth
            cluster = tree.cluster_parent.get(cluster)
            lam = capped
    return stability


def test_stability_matches_direct_summation(rng):
    for _ in range(10):
        n = int(rng.integers(12, 40))
        points = rng.standard_normal((n, 2))
        tree = build_tree(points, 2, 3)
        oracle = oracle_stability(tree)
        for cluster, value in tree.stability.items():
            assert value == pytest.approx(oracle[cluster], rel=1e-9, abs=1e-9)


# --- extraction ---------------------------------------------------------------


def test_eom_single_blob_is_one_cluster(rng):
    points = blob_matrix(rng, [np.zeros(3)], 20)
    labels = extract(build_tree(points, 3, 5))
    assert set(labels.tolist()) == {0}


def test_eom_scatter_with_huge_mcs_is_noise(rng):
    points = 10 * rng.standard_normal((15, 3))
    labels = extract(build_tree(points, 3, 16))
    assert (labels == -1).all()


def test_eom_two_blobs_two_clusters_plus_straggler_noise(rng):
    points = np.vstack([
        blob_matrix(rng, [np.zeros(2), np.array([8.0, 0])], 12),
        np.array([[100.0, 100.0], [-50.0, 80.0]]),
    ])
    labels = extract(build_tree(points, 3, 5))
    assert sorted(np.bincount(labels[labels >= 0]).tolist()) == [12, 12]
    assert (labels[-2:] == -1).all()


def test_hybrid_merges_micro_blobs(rng):
    points = np.vstack([
        blob_matrix(rng, [np.zeros(2)], 10, spread=0.005),
        blob_matrix(rng, [np.array([0.1, 0.0])], 10, spread=0.005),
        blob_matrix(rng, [np.array([10.0, 0.0])], 10, spread=0.005),
    ])
    tree = build_tree(points, 3, 5)
    eom_sizes = sorted(np.bincount(extract(tree)[extract(tree) >= 0]).tolist())
    labels = extract(tree, 0.2)
    hybrid_sizes = sorted(np.bincount(labels[labels >= 0]).tolist())
    assert eom_sizes == [10, 10, 10]
    assert hybrid_sizes == [10, 20]


def test_hybrid_epsilon_beyond_diameter_single_cluster(rng):
    points = blob_matrix(rng, [np.zeros(2), np.array([5.0, 0])], 10)
    labels = extract(build_tree(points, 3, 5), 1000.0)
    assert set(labels.tolist()) == {0}


def test_hybrid_compares_birth_distance_with_epsilon(rng):
    # epsilon = 1/birth keeps a cluster (1/birth < epsilon is false) even when
    # 1/(1/birth) < birth, where birth > 1/epsilon would lift it
    points = np.vstack([
        blob_matrix(rng, [np.zeros(2)], 10, spread=0.005),
        blob_matrix(rng, [np.array([0.1, 0.0])], 10, spread=0.005),
        blob_matrix(rng, [np.array([10.0, 0.0])], 10, spread=0.005),
    ])
    tree = build_tree(points, 3, 5)
    micro = max(cluster_oracle.select_eom(tree), key=lambda c: tree.cluster_birth[c])
    birth = tree.cluster_birth[micro]
    while 1.0 / (1.0 / birth) >= birth:
        birth = np.nextafter(birth, np.inf)
    tree.cluster_birth[micro] = birth
    assert (extract(tree, 1.0 / birth) == extract(tree)).all()
    assert (extract(tree, np.nextafter(1.0 / birth, np.inf)) != extract(tree)).any()


# --- equivalence with the separate EOM and hybrid passes ---------------------


# up to four blobs; zero and quarter-step offsets give exact duplicates
# (lambda = inf) and distance ties, fractions over a prime irregular
# distances; 12+ points always pass hdbscan's size check
offsets = st.one_of(st.just(0.0), st.integers(-4, 4).map(lambda v: v / 4),
                    st.integers(-999_983, 999_983).map(lambda v: v / 999_983))
coordinates = st.builds(lambda center, offset: center + offset,
                        st.sampled_from((0.0, 8.0)), offsets)
point_sets = st.lists(st.tuples(coordinates, coordinates),
                      min_size=12, max_size=40).map(np.array)


def epsilons(tree, points, which):
    if which == "zero":
        return [0.0]
    if which == "beyond":   # past the diameter: everything merges
        return [2.0 * float(np.abs(points[:, None] - points[None]).sum(-1).max()) + 1.0]
    # the birth distance of each selected cluster, where < and <= part ways
    lambdas = {tree.cluster_birth[c] for c in cluster_oracle.select_eom(tree)}
    return sorted(1.0 / lam for lam in lambdas if 0.0 < lam < np.inf) or [1.0]


@given(point_sets, st.integers(1, 4), st.integers(2, 8),
       st.sampled_from(("zero", "birth", "beyond")))
@settings(max_examples=300)
def test_selection_matches_parent_oracle(points, k, mcs, which):
    n = len(points)
    dist = distance_matrix(points)
    dendrogram = build_hierarchy(mst(mutual_reachability(dist, core_distances(dist, k))))
    assert (cluster_oracle.leaf_counts(dendrogram, n)[n:] == dendrogram[:, 3]).all()
    trees = (condense(dendrogram, mcs), condense(dendrogram, n + 1))   # n + 1 > n
    for epsilon in epsilons(trees[0], points, which):
        for tree in trees:
            labels = extract(tree, epsilon)
            assert labels.dtype == np.int64
            assert labels.tolist() == cluster_oracle.extract_hybrid(tree, epsilon).tolist()
            if epsilon == 0.0:
                assert labels.tolist() == cluster_oracle.extract_eom(tree).tolist()
        params = HdbscanParams(min_cluster_size=mcs, min_samples=k,
                               cluster_selection_epsilon=epsilon)
        result = hdbscan(points, params)
        oracle_labels, clusters, stabilities, noise = cluster_oracle.hdbscan(points, params)
        assert result.labels.dtype == oracle_labels.dtype
        assert result.labels.tolist() == oracle_labels.tolist()
        assert result.clusters == clusters
        assert result.stabilities == stabilities
        assert result.noise == noise


# --- full pipeline --------------------------------------------------------------


def test_hdbscan_too_few_points():
    with pytest.raises(ValueError, match="need more than"):
        hdbscan(np.zeros((4, 2)), HdbscanParams(min_cluster_size=5, min_samples=2))


def test_hdbscan_scale_guard(monkeypatch):
    """The guard refuses n points when one n x n float64 matrix would take
    more than DENSE_MATRIX_BYTES, read at call time."""
    assert recluster.DENSE_MATRIX_BYTES == 8 * 20_000**2
    monkeypatch.setattr(recluster, "DENSE_MATRIX_BYTES", 8 * 10**2)
    params = HdbscanParams(min_cluster_size=3, min_samples=2)
    assert len(hdbscan(np.zeros((10, 2)), params).labels) == 10
    with pytest.raises(ScaleError, match="^11 points need a 968-byte distance matrix, "
                                         "over the dense-matrix guard of 800 bytes"):
        hdbscan(np.zeros((11, 2)), params)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_hdbscan_refuses_non_finite_embeddings(monkeypatch, rng, bad):
    """A table with non-finite entries in rows 17 and 30 is refused, naming
    the first, before the distance matrix is built."""
    points = rng.standard_normal((40, 4))
    points[17, 2] = bad
    points[30, 0] = bad
    built = []
    monkeypatch.setattr(recluster, "distance_matrix", built.append)
    with pytest.raises(ValueError) as info:
        hdbscan(points, HdbscanParams(min_cluster_size=5, min_samples=3))
    assert str(info.value) == f"embedding row 17 is not finite: column 2 is {bad}"
    assert built == []


def test_hdbscan_refuses_rows_whose_distances_overflow(monkeypatch, rng):
    """A finite row at 1e200 would overflow the squared distances, so it is
    refused by name before the distance matrix is built; a row at 1e150
    stays within range and clusters."""
    points = rng.standard_normal((40, 4))
    points[23, 1] = 1e200
    built = []
    with monkeypatch.context() as patch:
        patch.setattr(recluster, "distance_matrix", built.append)
        with pytest.raises(ValueError) as info:
            hdbscan(points, HdbscanParams(min_cluster_size=5, min_samples=3))
    assert str(info.value) == ("embedding row 23 is too large: its squared norm exceeds "
                               "4.494e+307, where float64 distances overflow")
    assert built == []
    points[23, 1] = 1e150
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no overflow on the way
        result = hdbscan(points, HdbscanParams(min_cluster_size=5, min_samples=3))
    assert sorted([*chain.from_iterable(result.clusters), *result.noise]) == list(range(40))


def traced_peak(call):
    """Peak bytes that tracemalloc sees allocated during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hdbscan_holds_one_dense_matrix(rng):
    """One call's traced peak stays under one and a half n x n float64
    matrices: the distance matrix is built once and then overwritten, and
    row-block scratch is a small share of it."""
    n = 300
    points = rng.standard_normal((n, 8))
    assert traced_peak(lambda: hdbscan(points, HdbscanParams())) < 1.5 * 8 * n * n


@pytest.mark.slow
def test_hdbscan_holds_one_dense_matrix_at_noisy_250_size(rng):
    """The same bound at noisy-250's 7,223 segments and embedding width 40,
    where one matrix takes 417 MB."""
    n = 7_223
    points = rng.standard_normal((n, 40))
    assert traced_peak(lambda: hdbscan(points, HdbscanParams())) < 1.5 * 8 * n * n


def test_hdbscan_builds_the_distance_matrix_once(monkeypatch, rng):
    """One call builds one n x n matrix, and both core_distances and
    mutual_reachability receive it as their first argument."""
    built, seen = [], {}

    def counted(embeddings):
        built.append(distance_matrix(embeddings))
        return built[-1]

    def recording(name):
        original = getattr(recluster, name)

        def wrapper(*args):
            seen[name] = args[0]
            return original(*args)
        return wrapper

    monkeypatch.setattr(recluster, "distance_matrix", counted)
    for name in ("core_distances", "mutual_reachability"):
        monkeypatch.setattr(recluster, name, recording(name))
    points = blob_matrix(rng, [np.zeros(3), 6 * np.ones(3)], 15)
    hdbscan(points, HdbscanParams(min_cluster_size=5, min_samples=3))
    [dist] = built
    assert dist.shape == (30, 30)
    assert seen["core_distances"] is dist and seen["mutual_reachability"] is dist


def test_hdbscan_partition_and_noise_disjoint(rng):
    points = blob_matrix(rng, [np.zeros(3), 6 * np.ones(3)], 15)
    result = hdbscan(points, HdbscanParams(min_cluster_size=5, min_samples=3))
    clustered = [p for members in result.clusters for p in members]
    assert len(clustered) == len(set(clustered))
    assert set(clustered).isdisjoint(result.noise)
    assert len(clustered) + len(result.noise) == len(points)
    assert len(result.stabilities) == len(result.clusters)


def test_hdbscan_permutation_equivariant(rng):
    points = np.vstack([
        blob_matrix(rng, [np.zeros(2), np.array([7.0, 0]), np.array([0, 7.0])], 10),
        np.array([[50.0, 50.0]]),
    ])
    params = HdbscanParams(min_cluster_size=4, min_samples=3)
    base = hdbscan(points, params)
    perm = rng.permutation(len(points))
    permuted = hdbscan(points[perm], params)
    base_partition = sorted(sorted(c) for c in base.clusters)
    mapped = sorted(sorted(int(perm[p]) for p in c) for c in permuted.clusters)
    assert base_partition == mapped
    assert sorted(int(perm[p]) for p in permuted.noise) == sorted(base.noise)
