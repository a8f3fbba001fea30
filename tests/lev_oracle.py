"""Reference edit-distance code: the scalar row-by-row DP and the per-pair
loops of leader clustering that the batched kernel in termforge.seqmatch
replaced, and the per-segment loop of leader clustering over that kernel's
distances that the per-leader loop replaced. NED and the mining statistics
loop over every member pair and sum in exact fractions, rounded once at
the end. Tests require the package to reproduce them exactly, floats
included."""

import math
from fractions import Fraction

import numpy as np

from termforge.baseline import Cluster
from termforge.seqmatch import StringTable


def levenshtein(a, b):
    """Unit-cost edit distance, one DP row at a time."""
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, sym_a in enumerate(a, 1):
        current = [i] + [0] * len(b)
        for j, sym_b in enumerate(b, 1):
            cost = previous[j - 1] + (sym_a != sym_b)
            deletion = previous[j] + 1
            insertion = current[j - 1] + 1
            current[j] = min(cost, deletion, insertion)
        previous = current
    return previous[-1]


def normalized_levenshtein(a, b):
    longest = max(len(a), len(b))
    if longest == 0:
        raise ValueError("normalized levenshtein undefined for two empty sequences")
    return levenshtein(a, b) / longest


def leader_cluster(segments, params):
    """One-pass leader clustering, one distance per segment and leader."""
    params.validate()
    eligible = [s for s in sorted(segments, key=lambda s: s.id)
                if len(s.symbols) >= params.R]
    clusters = []
    leader_symbols = []
    founding_gap = params.a * params.T

    for seg in eligible:
        nearest_idx = -1
        nearest_dist = float("inf")
        assigned = False
        for idx, leader in enumerate(leader_symbols):
            dist = normalized_levenshtein(seg.symbols, leader)
            if dist < nearest_dist:
                nearest_dist = dist
                nearest_idx = idx
            if dist <= params.T:
                clusters[idx].members.append(seg.id)
                assigned = True
                break
        if assigned:
            continue
        if nearest_idx < 0 or nearest_dist >= founding_gap:
            clusters.append(Cluster(id=len(clusters), leader=seg.id, members=[seg.id]))
            leader_symbols.append(seg.symbols)
        else:
            clusters[nearest_idx].members.append(seg.id)
    return clusters


def leader_cluster_table(segments, params):
    """One-pass leader clustering, one decision per segment, reading the
    distances of its string to every leader from a table filled by one
    batched kernel call per founded leader."""
    params.validate()
    eligible = [s for s in sorted(segments, key=lambda s: s.id)
                if len(s.symbols) >= params.R]
    table = StringTable(s.symbols for s in eligible)
    every_string = np.arange(len(table.strings))
    # to_leader[u, k]: distance of distinct string u to the leader of cluster k
    to_leader = np.empty((len(table.strings), 8))
    clusters = []
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
        else:
            clusters[nearest].members.append(seg.id)
    return clusters


def gold_string(gold_utt, start, end, min_overlap=0.5):
    out = []
    for sym, s, e in zip(gold_utt.true_symbols, gold_utt.true_starts, gold_utt.true_ends):
        inter = min(end, e) - max(start, s)
        if inter > 0 and inter >= min_overlap * (e - s):
            out.append(sym)
    return tuple(out)


def ned(clusters, segments, gold):
    """Mean normalized distance over within-cluster pairs, as an exact
    fraction rounded once."""
    by_id = {s.id: s for s in segments}
    total = Fraction(0)
    count = 0
    for cluster in clusters:
        strings = []
        for member in cluster.members:
            seg = by_id[member]
            strings.append(gold_string(gold.utterances[seg.utterance_id],
                                       seg.start, seg.end))
        for i in range(len(strings)):
            for j in range(i + 1, len(strings)):
                a, b = strings[i], strings[j]
                if not a and not b:
                    value = Fraction(0)
                elif not a or not b:
                    value = Fraction(1)
                else:
                    value = Fraction(levenshtein(a, b), max(len(a), len(b)))
                total += value
                count += 1
    return float(total / count) if count else None


def _mean_std(values):
    """Mean and standard deviation of integer distances, each an exact
    fraction rounded once."""
    mu = Fraction(sum(values), len(values))
    var = sum((v - mu) ** 2 for v in values) / len(values)
    return float(mu), math.sqrt(var)


def purity_stats(cluster, segments_by_id):
    """(mu, sigma) over all |C|^2 ordered member pairs, pair by pair."""
    symbols = [segments_by_id[m].symbols for m in cluster.members]
    return _mean_std([levenshtein(a, b) for a in symbols for b in symbols])


def contrast_stats(c1, c2, segments_by_id):
    """(mu, sigma) over all |C1||C2| cross pairs, pair by pair."""
    return _mean_std([levenshtein(segments_by_id[m].symbols, segments_by_id[n].symbols)
                      for m in c1.members for n in c2.members])
