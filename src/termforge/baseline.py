"""Leader clustering of discovered segments by normalized Levenshtein
distance, and the one file format of a clustering.

Order-dependent by design: segments are processed in ascending id order, a
segment joins the first cluster whose leader lies within radius T, and a new
cluster may only be founded when the segment is at least a*T away from every
existing leader. Segments failing both tests go to the nearest leader.

Leader clusters (`clusters_baseline.json`) and HDBSCAN re-clusters
(`clusters_final.json`) are both written by `write_clusters` and read by
`load_clusters`, as `_ClustersFile`, {"clusters": [{"id", "leader",
"members", "stability"}], "noise": [ids]}: members and noise are sorted,
noise holds every segment no cluster holds, and a leader cluster's
stability is null.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .corpus import Segment
# normalized_levenshtein stays a module attribute for code that wraps it
from .seqmatch import StringTable, normalized_levenshtein  # noqa: F401
from .util import from_json, read_json, write_json


@dataclass
class LeaderParams:
    T: float = 0.4
    a: float = 1.8
    R: int = 3

    def validate(self) -> None:
        if not 0 < self.T <= 1:
            raise ValueError("T must be in (0, 1]")
        if self.a <= 0:
            raise ValueError("a must be positive")
        if self.R < 1:
            raise ValueError("R must be >= 1")


@dataclass
class Cluster:
    id: int
    leader: int                       # segment id
    members: list[int]
    stability: float | None = None    # HDBSCAN's; None for a leader cluster


def leader_cluster(segments: list[Segment], params: LeaderParams) -> list[Cluster]:
    """One-pass leader clustering over segments with len(symbols) >= R.

    A segment's fate depends only on its symbol string and on the leaders
    founded before it, so the loop runs once per leader, not per segment.
    Per distinct string it keeps the first leader within T and the first
    nearest leader with its distance. Between two foundings every segment
    is assigned at once from its string's entries: the first leader within
    T, else the first nearest one; the next founding is the first segment
    at least a*T from every leader. A new leader's normalized
    distances come from one batched kernel call over the distinct strings
    that still matter: those with no leader within T that occur later.
    """
    params.validate()
    eligible = [s for s in sorted(segments, key=lambda s: s.id)
                if len(s.symbols) >= params.R]
    table = StringTable(s.symbols for s in eligible)
    strings = table.ids
    last_seen = np.zeros(len(table.strings), dtype=np.intp)
    np.maximum.at(last_seen, strings, np.arange(len(strings)))
    # per distinct string: the first leader within T (-1 for none), the
    # first nearest leader and its distance
    first_within = np.full(len(table.strings), -1)
    nearest = np.full(len(table.strings), -1)
    nearest_dist = np.full(len(table.strings), np.inf)
    founding_gap = params.a * params.T

    target = np.full(len(eligible), -1)       # cluster of each eligible segment
    leaders: list[int] = []
    start = 0
    while start < len(eligible):
        founds = ((first_within < 0) & (nearest_dist >= founding_gap))[strings[start:]]
        stop = start + (int(founds.argmax()) if founds.any() else len(founds))
        block = strings[start:stop]
        within = first_within[block]
        target[start:stop] = np.where(within >= 0, within, nearest[block])
        if stop == len(eligible):
            break
        k = len(leaders)
        leaders.append(stop)
        target[stop] = k
        # a string with a leader within T keeps it, and one not seen after
        # this segment is done: only the others need the new distances
        live = np.flatnonzero((first_within < 0) & (last_seen > stop))
        dists = table.normalized(strings[stop], live)
        first_within[live[dists <= params.T]] = k
        closer = dists < nearest_dist[live]
        nearest[live[closer]] = k
        nearest_dist[live[closer]] = dists[closer]
        start = stop + 1

    # each cluster's members in processing order: a stable sort by cluster
    ids = np.array([s.id for s in eligible], dtype=np.int64)
    order = np.argsort(target, kind="stable")
    bounds = np.cumsum(np.bincount(target[order], minlength=len(leaders)))[:-1]
    return [Cluster(id=k, leader=int(ids[leader]), members=ids[rows].tolist())
            for k, (leader, rows) in enumerate(zip(leaders, np.split(order, bounds)))]


def validate_partition(clusters: list[Cluster]) -> None:
    seen: set[int] = set()
    for cluster in clusters:
        members = set(cluster.members)
        if not members:
            raise ValueError(f"cluster {cluster.id} is empty")
        if len(members) < len(cluster.members):
            raise ValueError(f"cluster {cluster.id} lists a member more than once")
        if cluster.leader not in members:
            raise ValueError(f"cluster {cluster.id}: leader not a member")
        if seen & members:
            raise ValueError(f"segments {sorted(seen & members)} appear in multiple clusters")
        seen |= members


@dataclass
class _ClustersFile:
    clusters: list[Cluster]
    noise: list[int]


def write_clusters(path, clusters: list[Cluster], segments: list[Segment]) -> list[Cluster]:
    """A clusters file (see the module docstring) for a partition of some of
    `segments`; a clustering that is not one raises a ValueError. Returns
    what it wrote: copies of the clusters with sorted members."""
    validate_partition(clusters)
    held = {m for c in clusters for m in c.members}
    ids = {s.id for s in segments}
    if not held <= ids:
        raise ValueError(f"cluster members {sorted(held - ids)[:5]} are not segments")
    written = [replace(c, members=sorted(c.members)) for c in clusters]
    write_json(path, _ClustersFile(written, sorted(ids - held)))
    return written


def load_clusters(path) -> list[Cluster]:
    """The clusters of a file that `write_clusters` wrote. A malformed file,
    or the list of clusters that leader clustering once wrote, raises a
    ValueError that names the path and the field."""
    try:
        return read_json(path, lambda blob: from_json(_ClustersFile, blob, "clusters file",
                                                      complete=True)).clusters
    except ValueError as exc:
        raise ValueError(f"{exc}; run the stage that writes it again, with --force") from None
