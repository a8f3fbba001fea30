"""Cluster purity/contrast statistics and weak-pair mining for network training.

Purity of a cluster C is the mean and standard deviation of Levenshtein
distances over all |C|^2 ordered member pairs (self pairs included, read
literally from the defining sums). Contrast statistics run over all |C1||C2|
cross pairs. Thresholds scale with the average symbol length of the clusters
involved, and comparisons are strict.

Both take a list of clusters and run in one batched call over each
cluster's distinct strings, weighted by multiplicity, in exact integer sums
rounded once (`_stats`), so no member or cluster order changes a statistic
or a selection.

manifest.json is the object of `PairManifest`'s init fields, which
`util.write_json` writes and `load_manifest` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .baseline import Cluster
from .corpus import Segment
# levenshtein stays a module attribute for code that wraps it
from .seqmatch import StringTable, levenshtein  # noqa: F401
from .util import from_json, read_json, rng_from


class MiningError(RuntimeError):
    """No usable source clusters for the requested samples."""


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

    def __post_init__(self):
        if self.y not in (0, 1):
            raise ValueError(f"siamese pair ({self.a}, {self.b}): y must be 0 or 1, "
                             f"got {self.y!r}")


@dataclass
class Triplet:
    anchor: int
    positive: int
    negative: int
    clusters: tuple[int, int]   # (anchor cluster, negative cluster)


@dataclass
class PairManifest:
    siamese: list[SiamesePair] = field(default_factory=list)
    triplets: list[Triplet] = field(default_factory=list)
    sample_seed: int = 0


def mean_symbol_length(cluster: Cluster, segments_by_id: dict[int, Segment]) -> float:
    return sum(len(segments_by_id[m].symbols) for m in cluster.members) / len(cluster.members)


def _stats(clusters: list[Cluster], candidates: list[tuple[int, int]],
           segments_by_id: dict[int, Segment]) -> list[tuple[float, float]]:
    """Mean and standard deviation of edit distance over the |C_k||C_l|
    member pairs of clusters k and l, for each candidate (k, l); (k, k) is
    the purity of cluster k. The member pairs not among the weighted pairs
    of distinct strings (`StringTable.run_pairs`) join equal strings. With
    s1 = sum(w * d) and s2 = sum(w * d * d) in exact integers, mu = s1 / N
    and sigma = sqrt((N * s2 - s1**2) / N**2) are each rounded once."""
    table = StringTable(segments_by_id[m].symbols for c in clusters for m in c.members)
    a, b, w, sizes = table.run_pairs([len(c.members) for c in clusters], candidates)
    d = table.distances(a, b)
    ends = np.cumsum([0] + sizes)
    # the running int64 sums stay below (member strings * longest string)^2
    s1, s2 = (np.diff(np.concatenate(([0], np.cumsum(x)))[ends]).tolist()
              for x in (w * d, w * d * d))
    totals = [len(clusters[k].members) * len(clusters[l].members) for k, l in candidates]
    return [(x1 / n, math.sqrt((n * x2 - x1 * x1) / (n * n)))
            for x1, x2, n in zip(s1, s2, totals)]


def purity_stats(clusters: list[Cluster],
                 segments_by_id: dict[int, Segment]) -> list[tuple[float, float]]:
    """(mu_s, sigma_s) of each cluster: the mean and standard deviation of
    Levenshtein distance over all |C|^2 ordered member pairs, self pairs
    included as the defining sums read, in one `_stats` call."""
    if not all(c.members for c in clusters):
        raise ValueError("purity_stats requires non-empty clusters")
    return _stats(clusters, [(k, k) for k in range(len(clusters))], segments_by_id)


def contrast_stats(clusters: list[Cluster], pairs: list[tuple[int, int]],
                   segments_by_id: dict[int, Segment]) -> list[tuple[float, float]]:
    """(mu_d, sigma_d) of each (k, l) in `pairs`: the mean and standard
    deviation of Levenshtein distance over all |C_k||C_l| cross pairs of
    clusters[k] and clusters[l], in one `_stats` call."""
    if not all(clusters[k].members and clusters[l].members for k, l in pairs):
        raise ValueError("contrast_stats requires non-empty clusters")
    return _stats(clusters, pairs, segments_by_id)


def select_pure_clusters(clusters: list[Cluster], segments_by_id: dict[int, Segment],
                         thresholds: MiningConfig) -> list[Cluster]:
    """Clusters whose purity statistics fall strictly below the scaled bounds."""
    thresholds.validate()
    retained = []
    for cluster, (mu_s, sigma_s) in zip(clusters, purity_stats(clusters, segments_by_id)):
        mean_len = mean_symbol_length(cluster, segments_by_id)
        if (mu_s < thresholds.thres_mu_s * mean_len
                and sigma_s < thresholds.thres_sigma_s * mean_len):
            retained.append(cluster)
    return retained


def select_contrasting_pairs(retained: list[Cluster], segments_by_id: dict[int, Segment],
                             thresholds: MiningConfig) -> list[tuple[Cluster, Cluster]]:
    """Unordered retained-cluster pairs with large, consistent cross distance."""
    thresholds.validate()
    candidates = [(k, l) for k in range(len(retained)) for l in range(k + 1, len(retained))]
    pairs = []
    for (k, l), (mu_d, sigma_d) in zip(candidates,
                                       contrast_stats(retained, candidates, segments_by_id)):
        c1, c2 = retained[k], retained[l]
        scale = (mean_symbol_length(c1, segments_by_id)
                 + mean_symbol_length(c2, segments_by_id)) / 2
        if (mu_d > thresholds.thres_mu_d * scale
                and sigma_d < thresholds.thres_sigma_d * scale):
            pairs.append((c1, c2))
    return pairs


def _draw(rng, cum: np.ndarray) -> int:
    """Index k with probability w[k] / sum(w), where cum = np.cumsum(w): the
    first k whose cumulative weight exceeds one rng.integers(0, sum(w))."""
    return int(np.searchsorted(cum, rng.integers(0, int(cum[-1])), side="right"))


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
    pos_cum = np.cumsum([len(c.members) * (len(c.members) - 1) // 2 for c in positive_sources])
    neg_cum = np.cumsum([len(c1.members) * len(c2.members) for c1, c2 in contrasting])

    partners: dict[int, list[Cluster]] = {}
    for c1, c2 in contrasting:
        partners.setdefault(c1.id, []).append(c2)
        partners.setdefault(c2.id, []).append(c1)
    triplet_sources = [c for c in positive_sources if c.id in partners]
    tri_cum = np.cumsum([len(c.members) * (len(c.members) - 1) // 2 for c in triplet_sources])

    if not positive_sources:
        raise MiningError("no positive source: no retained cluster has >= 2 members")
    n_pos = (n_siamese + 1) // 2
    if n_siamese > n_pos and not contrasting:
        raise MiningError("no negative source: no contrasting cluster pair selected")
    if n_triplet > 0 and not triplet_sources:
        raise MiningError("no negative source: no retained cluster contrasts with another")

    rng = rng_from(seed)
    for k in range(n_siamese):
        if k < n_pos:
            src = positive_sources[_draw(rng, pos_cum)]
            i, j = _distinct_pair(rng, len(src.members))
            manifest.siamese.append(SiamesePair(
                a=src.members[i], b=src.members[j], y=1, clusters=(src.id, src.id)))
        else:
            c1, c2 = contrasting[_draw(rng, neg_cum)]
            i = int(rng.integers(0, len(c1.members)))
            j = int(rng.integers(0, len(c2.members)))
            manifest.siamese.append(SiamesePair(
                a=c1.members[i], b=c2.members[j], y=0, clusters=(c1.id, c2.id)))

    for _ in range(n_triplet):
        src = triplet_sources[_draw(rng, tri_cum)]
        i, j = _distinct_pair(rng, len(src.members))
        options = partners[src.id]
        neg_cluster = options[int(rng.integers(0, len(options)))]
        k = int(rng.integers(0, len(neg_cluster.members)))
        manifest.triplets.append(Triplet(
            anchor=src.members[i], positive=src.members[j],
            negative=neg_cluster.members[k], clusters=(src.id, neg_cluster.id)))
    return manifest


def load_manifest(path) -> PairManifest:
    """`write_json`'s manifest; a malformed file raises a ValueError naming it and the field."""
    return read_json(path, lambda blob: from_json(PairManifest, blob, "pair manifest",
                                                  complete=True))
