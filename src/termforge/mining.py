"""Cluster purity/contrast statistics and weak-pair mining for network training.

Purity of a cluster C is the mean and standard deviation of Levenshtein
distances over all |C|^2 ordered member pairs (self pairs included, read
literally from the defining sums). Contrast statistics run over all |C1||C2|
cross pairs. Thresholds scale with the average symbol length of the clusters
involved, and comparisons are strict.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .baseline import Cluster
from .corpus import Segment
# levenshtein stays a module attribute for code that wraps it
from .seqmatch import StringTable, levenshtein  # noqa: F401
from .util import read_json, rng_from, write_json


class MiningError(RuntimeError):
    """No usable source clusters for the requested samples."""


@dataclass
class PurityStats:
    mu_s: float
    sigma_s: float


@dataclass
class ContrastStats:
    mu_d: float
    sigma_d: float


@dataclass
class MiningConfig:
    """Settings of the mine stage, the `mining` section of a pipeline config:
    the purity and contrast thresholds, and how many Siamese pairs and
    triplets `sample_manifest` draws."""
    thres_mu_s: float = 0.2
    thres_sigma_s: float = 0.2
    thres_mu_d: float = 0.4
    thres_sigma_d: float = 0.2
    n_siamese: int = 10_000
    n_triplet: int = 10_000

    def validate(self) -> None:
        for name in ("thres_mu_s", "thres_sigma_s", "thres_mu_d", "thres_sigma_d"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class SiamesePair:
    a: int
    b: int
    y: int                      # 1 matched, 0 mismatched
    clusters: tuple[int, int]


@dataclass
class Triplet:
    anchor: int
    positive: int
    negative: int
    clusters: tuple[int, int]   # (anchor cluster, negative cluster)


@dataclass
class PairManifest:
    siamese_pairs: list[SiamesePair] = field(default_factory=list)
    triplets: list[Triplet] = field(default_factory=list)
    sample_seed: int = 0


def _distinct(cluster: Cluster, segments_by_id: dict[int, Segment]):
    """The distinct symbol strings of a cluster's members, in first-seen
    order, and how many members carry each."""
    counts = Counter(segments_by_id[m].symbols for m in cluster.members)
    return list(counts), np.array(list(counts.values()), dtype=np.int64)


def _weighted_stats(jobs) -> list[tuple[float, float]]:
    """Mean and standard deviation of edit distance for each job (left,
    right, i, j, weights, total): pair k is left[i[k]] against right[j[k]]
    with integer weight weights[k], and the total - sum(weights) pairs not
    listed are at distance 0. Every job shares one batched kernel call."""
    table = StringTable(s for left, right, *_ in jobs for s in (*left, *right))
    a, b, offset = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)], 0
    for left, right, i, j, _, _ in jobs:
        a.append(table.ids[offset + i])
        b.append(table.ids[offset + len(left) + j])
        offset += len(left) + len(right)
    values = table.distances(np.concatenate(a), np.concatenate(b))
    ends = np.cumsum([len(job[2]) for job in jobs], dtype=np.intp)
    stats = []
    for (*_, weights, total), part in zip(jobs, np.split(values, ends[:-1])):
        entries = list(zip(weights.tolist(), part.tolist()))
        mu = sum(w * v for w, v in entries) / total
        zero_weight = total - sum(w for w, _ in entries)
        var = (sum(w * (v - mu) ** 2 for w, v in entries) + zero_weight * mu * mu)
        stats.append((mu, math.sqrt(var / total)))
    return stats


def mean_symbol_length(cluster: Cluster, segments_by_id: dict[int, Segment]) -> float:
    return sum(len(segments_by_id[m].symbols) for m in cluster.members) / len(cluster.members)


def _purity_job(cluster: Cluster, segments_by_id: dict[int, Segment]):
    """_weighted_stats job of a cluster: each pair of distinct strings
    stands for both orders of the member pairs that carry it; the other
    pairs of the |C|^2, self pairs included, join equal strings."""
    if not cluster.members:
        raise ValueError("purity_stats requires a non-empty cluster")
    strings, counts = _distinct(cluster, segments_by_id)
    i, j = np.triu_indices(len(strings), 1)
    return strings, strings, i, j, 2 * counts[i] * counts[j], len(cluster.members) ** 2


def _contrast_job(c1: Cluster, c2: Cluster, segments_by_id: dict[int, Segment]):
    """_weighted_stats job of a cluster pair: every distinct cross pair."""
    if not c1.members or not c2.members:
        raise ValueError("contrast_stats requires non-empty clusters")
    strings_1, counts_1 = _distinct(c1, segments_by_id)
    strings_2, counts_2 = _distinct(c2, segments_by_id)
    i, j = np.divmod(np.arange(len(strings_1) * len(strings_2)), len(strings_2))
    return (strings_1, strings_2, i, j, counts_1[i] * counts_2[j],
            len(c1.members) * len(c2.members))


def purity_stats(cluster: Cluster, segments_by_id: dict[int, Segment]) -> PurityStats:
    """Mean/std of within-cluster Levenshtein distances over all |C|^2
    ordered member pairs, self pairs included as the defining sums read.

    Computed over distinct symbol strings weighted by multiplicity, which is
    exact and much cheaper on clusters full of repeated strings.
    """
    return PurityStats(*_weighted_stats([_purity_job(cluster, segments_by_id)])[0])


def contrast_stats(c1: Cluster, c2: Cluster,
                   segments_by_id: dict[int, Segment]) -> ContrastStats:
    """Mean/std of Levenshtein distances over all cross pairs of two clusters."""
    return ContrastStats(*_weighted_stats([_contrast_job(c1, c2, segments_by_id)])[0])


def select_pure_clusters(clusters: list[Cluster], segments_by_id: dict[int, Segment],
                         thresholds: MiningConfig) -> list[Cluster]:
    """Clusters whose purity statistics fall strictly below the scaled bounds."""
    thresholds.validate()
    stats = _weighted_stats([_purity_job(c, segments_by_id) for c in clusters])
    retained = []
    for cluster, (mu_s, sigma_s) in zip(clusters, stats):
        mean_len = mean_symbol_length(cluster, segments_by_id)
        if (mu_s < thresholds.thres_mu_s * mean_len
                and sigma_s < thresholds.thres_sigma_s * mean_len):
            retained.append(cluster)
    return retained


def select_contrasting_pairs(retained: list[Cluster], segments_by_id: dict[int, Segment],
                             thresholds: MiningConfig) -> list[tuple[Cluster, Cluster]]:
    """Unordered retained-cluster pairs with large, consistent cross distance."""
    thresholds.validate()
    candidates = [(c1, c2) for k, c1 in enumerate(retained) for c2 in retained[k + 1:]]
    stats = _weighted_stats([_contrast_job(c1, c2, segments_by_id) for c1, c2 in candidates])
    pairs = []
    for (c1, c2), (mu_d, sigma_d) in zip(candidates, stats):
        scale = (mean_symbol_length(c1, segments_by_id)
                 + mean_symbol_length(c2, segments_by_id)) / 2
        if (mu_d > thresholds.thres_mu_d * scale
                and sigma_d < thresholds.thres_sigma_d * scale):
            pairs.append((c1, c2))
    return pairs


def _weighted_choice(rng, weights: list[int]) -> int:
    total = sum(weights)
    ticket = int(rng.integers(0, total))
    for idx, w in enumerate(weights):
        ticket -= w
        if ticket < 0:
            return idx
    return len(weights) - 1


def _distinct_pair(rng, n: int) -> tuple[int, int]:
    i = int(rng.integers(0, n))
    j = int(rng.integers(0, n - 1))
    if j >= i:
        j += 1
    return i, j


def sample_manifest(retained: list[Cluster], contrasting: list[tuple[Cluster, Cluster]],
                    n_siamese: int, n_triplet: int, seed: int) -> PairManifest:
    """Sample Siamese pairs (balanced 50/50) and triplet tuples with replacement.

    Positive sources are weighted by their number of member pairs, negative
    sources by |C1|*|C2|, i.e. sampling is uniform over the valid combination
    space. Triplet anchors come from retained clusters that both have >= 2
    members and contrast with at least one other cluster.
    """
    manifest = PairManifest(sample_seed=seed)
    if n_siamese == 0 and n_triplet == 0:
        return manifest

    positive_sources = [c for c in retained if len(c.members) >= 2]
    pos_weights = [len(c.members) * (len(c.members) - 1) // 2 for c in positive_sources]
    neg_weights = [len(c1.members) * len(c2.members) for c1, c2 in contrasting]

    partners: dict[int, list[Cluster]] = {}
    for c1, c2 in contrasting:
        partners.setdefault(c1.id, []).append(c2)
        partners.setdefault(c2.id, []).append(c1)
    triplet_sources = [c for c in positive_sources if c.id in partners]
    tri_weights = [len(c.members) * (len(c.members) - 1) // 2 for c in triplet_sources]

    need_positives = n_siamese > 0 or n_triplet > 0
    if need_positives and not positive_sources:
        raise MiningError("no positive source: no retained cluster has >= 2 members")
    if n_siamese > 0 and not contrasting:
        raise MiningError("no negative source: no contrasting cluster pair selected")
    if n_triplet > 0 and not triplet_sources:
        raise MiningError("no negative source: no retained cluster contrasts with another")

    rng = rng_from(seed)
    n_pos = (n_siamese + 1) // 2
    for k in range(n_siamese):
        if k < n_pos:
            src = positive_sources[_weighted_choice(rng, pos_weights)]
            i, j = _distinct_pair(rng, len(src.members))
            manifest.siamese_pairs.append(SiamesePair(
                a=src.members[i], b=src.members[j], y=1, clusters=(src.id, src.id)))
        else:
            c1, c2 = contrasting[_weighted_choice(rng, neg_weights)]
            i = int(rng.integers(0, len(c1.members)))
            j = int(rng.integers(0, len(c2.members)))
            manifest.siamese_pairs.append(SiamesePair(
                a=c1.members[i], b=c2.members[j], y=0, clusters=(c1.id, c2.id)))

    for _ in range(n_triplet):
        src = triplet_sources[_weighted_choice(rng, tri_weights)]
        i, j = _distinct_pair(rng, len(src.members))
        options = partners[src.id]
        neg_cluster = options[int(rng.integers(0, len(options)))]
        k = int(rng.integers(0, len(neg_cluster.members)))
        manifest.triplets.append(Triplet(
            anchor=src.members[i], positive=src.members[j],
            negative=neg_cluster.members[k], clusters=(src.id, neg_cluster.id)))
    return manifest


def write_manifest(path, manifest: PairManifest) -> None:
    blob = {
        "sample_seed": manifest.sample_seed,
        "siamese": [{"a": p.a, "b": p.b, "y": p.y, "clusters": list(p.clusters)}
                    for p in manifest.siamese_pairs],
        "triplets": [{"anchor": t.anchor, "positive": t.positive,
                      "negative": t.negative, "clusters": list(t.clusters)}
                     for t in manifest.triplets],
    }
    write_json(path, blob)


def load_manifest(path) -> PairManifest:
    """`write_manifest`'s manifest; a malformed file raises a ValueError naming it."""
    return read_json(path, _decode_manifest)


def _decode_manifest(blob) -> PairManifest:
    return PairManifest(
        siamese_pairs=[SiamesePair(p["a"], p["b"], p["y"], tuple(p["clusters"]))
                       for p in blob["siamese"]],
        triplets=[Triplet(t["anchor"], t["positive"], t["negative"], tuple(t["clusters"]))
                  for t in blob["triplets"]],
        sample_seed=blob["sample_seed"],
    )
