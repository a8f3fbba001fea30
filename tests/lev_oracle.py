"""Reference edit-distance code: the scalar row-by-row DP and the per-pair
loops of leader clustering, NED and the mining statistics that the batched
kernel in termforge.seqmatch replaced. Tests require the package to
reproduce them exactly, floats included."""

import math

from termforge.baseline import Cluster


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
        elif params.ambiguous_policy == "nearest":
            clusters[nearest_idx].members.append(seg.id)
            clusters[nearest_idx].nearest_assigned.add(seg.id)

    lengths = {s.id: len(s.symbols) for s in eligible}
    for cluster in clusters:
        cluster.mean_len = sum(lengths[m] for m in cluster.members) / len(cluster.members)
    return clusters


def gold_string(gold_utt, start, end, min_overlap=0.5):
    out = []
    for sym, (s, e) in zip(gold_utt.true_symbols, gold_utt.true_spans):
        inter = min(end, e) - max(start, s)
        if inter > 0 and inter >= min_overlap * (e - s):
            out.append(sym)
    return tuple(out)


def ned(clusters, segments, gold):
    """Mean normalized distance over within-cluster pairs, summed in pair order."""
    by_id = {s.id: s for s in segments}
    total = 0.0
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
                    value = 0.0
                elif not a or not b:
                    value = 1.0
                else:
                    value = normalized_levenshtein(a, b)
                total += value
                count += 1
    return total / count if count else None


def _string_counts(symbols):
    counts = {}
    for s in symbols:
        counts[s] = counts.get(s, 0) + 1
    return list(counts.items())


def purity_stats(cluster, segments_by_id):
    """(mu, sigma) over all |C|^2 ordered member pairs, accumulated pair by
    pair."""
    symbols = [segments_by_id[m].symbols for m in cluster.members]
    n = len(symbols)
    counts = _string_counts(symbols)
    total_pairs = n * n
    weighted_sum = 0.0
    entries = []
    for i, (sa, ca) in enumerate(counts):
        for sb, cb in counts[i + 1:]:
            value = levenshtein(sa, sb)
            weight = 2 * ca * cb
            weighted_sum += weight * value
            entries.append((weight, value))
    mu = weighted_sum / total_pairs
    zero_weight = total_pairs - sum(w for w, _ in entries)
    var = (sum(w * (v - mu) ** 2 for w, v in entries) + zero_weight * mu * mu)
    var /= total_pairs
    return mu, math.sqrt(var)


def contrast_stats(c1, c2, segments_by_id):
    syms_1 = [segments_by_id[m].symbols for m in c1.members]
    syms_2 = [segments_by_id[m].symbols for m in c2.members]
    total_pairs = len(syms_1) * len(syms_2)
    weighted_sum = 0.0
    entries = []
    for sa, ca in _string_counts(syms_1):
        for sb, cb in _string_counts(syms_2):
            value = levenshtein(sa, sb)
            weight = ca * cb
            weighted_sum += weight * value
            entries.append((weight, value))
    mu = weighted_sum / total_pairs
    var = sum(w * (v - mu) ** 2 for w, v in entries) / total_pairs
    return mu, math.sqrt(var)
