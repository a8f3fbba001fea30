"""Leader clustering of discovered segments by normalized Levenshtein distance.

Order-dependent by design: segments are processed in ascending id order, a
segment joins the first cluster whose leader lies within radius T, and a new
cluster may only be founded when the segment is at least a*T away from every
existing leader. Segments failing both tests go to the nearest leader (kept,
not dropped) unless ambiguous_policy="drop".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Segment
# normalized_levenshtein stays a module attribute for code that wraps it
from .seqmatch import StringTable, normalized_levenshtein  # noqa: F401
from .util import atomic_write


@dataclass
class LeaderParams:
    T: float = 0.4
    a: float = 1.8
    R: int = 3
    ambiguous_policy: str = "nearest"   # or "drop"

    def validate(self) -> None:
        if not 0 < self.T <= 1:
            raise ValueError("T must be in (0, 1]")
        if self.a <= 0:
            raise ValueError("a must be positive")
        if self.R < 1:
            raise ValueError("R must be >= 1")
        if self.ambiguous_policy not in ("nearest", "drop"):
            raise ValueError("ambiguous_policy must be 'nearest' or 'drop'")


@dataclass
class Cluster:
    id: int
    leader: int                       # segment id
    members: list[int]
    mean_len: float = 0.0
    nearest_assigned: set[int] = field(default_factory=set, compare=False)


def leader_cluster(segments: list[Segment], params: LeaderParams) -> list[Cluster]:
    """One-pass leader clustering over segments with len(symbols) >= R.

    Distances are computed per distinct symbol string: when a leader is
    founded, its normalized distance to every distinct eligible string comes
    from one batched kernel call, and each segment then reads its string's
    row: the first leader within T, else the first nearest one.
    """
    params.validate()
    eligible = [s for s in sorted(segments, key=lambda s: s.id)
                if len(s.symbols) >= params.R]
    table = StringTable(s.symbols for s in eligible)
    every_string = np.arange(len(table.strings))
    # to_leader[u, k]: distance of distinct string u to the leader of cluster k
    to_leader = np.empty((len(table.strings), 8))
    clusters: list[Cluster] = []
    founding_gap = params.a * params.T

    for seg, string in zip(eligible, table.ids.tolist()):
        dists = to_leader[string, :len(clusters)]
        within = np.flatnonzero(dists <= params.T)
        if within.size:
            clusters[within[0]].members.append(seg.id)
            continue
        nearest = int(dists.argmin()) if clusters else -1
        if nearest < 0 or dists[nearest] >= founding_gap:
            if len(clusters) == to_leader.shape[1]:
                to_leader = np.concatenate([to_leader, np.empty_like(to_leader)], axis=1)
            to_leader[:, len(clusters)] = table.normalized(string, every_string)
            clusters.append(Cluster(id=len(clusters), leader=seg.id, members=[seg.id]))
        elif params.ambiguous_policy == "nearest":
            clusters[nearest].members.append(seg.id)
            clusters[nearest].nearest_assigned.add(seg.id)
        # "drop": ambiguous segment is discarded

    lengths = {s.id: len(s.symbols) for s in eligible}
    for cluster in clusters:
        cluster.mean_len = sum(lengths[m] for m in cluster.members) / len(cluster.members)
    return clusters


def cluster_set_stats(clusters: list[Cluster]) -> dict:
    """Summary: cluster count, size histogram, and per-cluster mean length."""
    histogram: dict[int, int] = {}
    for cluster in clusters:
        histogram[len(cluster.members)] = histogram.get(len(cluster.members), 0) + 1
    return {
        "count": len(clusters),
        "total_members": sum(len(c.members) for c in clusters),
        "size_histogram": dict(sorted(histogram.items())),
        "mean_len": {c.id: c.mean_len for c in clusters},
    }


def validate_partition(clusters: list[Cluster]) -> None:
    seen: set[int] = set()
    for cluster in clusters:
        if not cluster.members:
            raise ValueError(f"cluster {cluster.id} is empty")
        if cluster.leader not in cluster.members:
            raise ValueError(f"cluster {cluster.id}: leader not a member")
        overlap = seen.intersection(cluster.members)
        if overlap:
            raise ValueError(f"segments {sorted(overlap)} appear in multiple clusters")
        seen.update(cluster.members)


def write_clusters(path, clusters: list[Cluster]) -> None:
    """clusters_baseline.json: list of {id, leader, members}."""
    blob = [{"id": c.id, "leader": c.leader, "members": sorted(c.members)}
            for c in clusters]
    with atomic_write(path) as fh:
        fh.write(json.dumps(blob, sort_keys=True, indent=2) + "\n")


def load_clusters(path) -> list[Cluster]:
    blob = json.loads(Path(path).read_text())
    return [Cluster(id=c["id"], leader=c["leader"], members=list(c["members"]))
            for c in blob]
