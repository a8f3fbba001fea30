"""Reference scoring code: the metric functions of termforge.evaluation as
they were before `report` resolved a clustering once, each mapping member
ids to segments and labelling segments on its own, with NED from
lev_oracle; the linear gold scans and the per-token and per-edge loops
over resolved members that the bisected gold index replaced; and coverage
over the corpus's frame count, which the gold's last boundaries replaced.
Tests require the package to reproduce them exactly."""

from collections import Counter
from dataclasses import dataclass
from itertools import chain

import lev_oracle
from termforge.evaluation import PRF, TOLERANCE, EvalReport, f_score


def overlapped_symbols(symbols, spans, start, end, min_overlap=0.5):
    """The symbols whose frame span overlaps [start, end) by >= min_overlap
    of their duration; spans[k] is the frame span of symbols[k]."""
    out = []
    for sym, (s, e) in zip(symbols, spans):
        inter = (end if end < e else e) - (start if start > s else s)
        if inter > 0 and inter >= min_overlap * (e - s):
            out.append(sym)
    return tuple(out)


def gold_segment_label(gold, segment):
    """Gold word whose token overlaps the segment by more than half in both
    directions (strictly, so a segment spanning two equal words stays
    unlabelled)."""
    utt_gold = gold.utterances.get(segment.utterance_id)
    if utt_gold is None:
        return None
    seg_len = segment.end - segment.start
    best = None   # (-overlap, token start, word id)
    for token in utt_gold.tokens:
        inter = min(segment.end, token.end) - max(segment.start, token.start)
        if inter <= 0:
            continue
        if inter * 2 > seg_len and inter * 2 > (token.end - token.start):
            key = (-inter, token.start, token.word)
            if best is None or key < best:
                best = key
    return None if best is None else best[2]


def _gold_string(gold, segment):
    utt = gold.utterances[segment.utterance_id]
    return overlapped_symbols(utt.true_symbols, zip(utt.true_starts, utt.true_ends),
                              segment.start, segment.end)


def resolved_token_type_prf(members, labels, gold):
    """termforge.evaluation.token_type_prf with a scan over every gold token
    of the utterance per segment."""
    n_matched = 0
    matched_tokens = set()
    for seg in chain.from_iterable(members):
        gold_utt = gold.utterances.get(seg.utterance_id)
        if gold_utt is None:
            continue
        hits = {(seg.utterance_id, token_idx)
                for token_idx, token in enumerate(gold_utt.tokens)
                if (abs(seg.start - token.start) <= TOLERANCE
                    and abs(seg.end - token.end) <= TOLERANCE)}
        n_matched += bool(hits)
        matched_tokens |= hits

    n_clustered = sum(len(group) for group in members)
    n_gold_tokens = sum(len(g.tokens) for g in gold.utterances.values())
    token_p = n_matched / n_clustered if n_clustered else None
    token_r = len(matched_tokens) / n_gold_tokens if n_gold_tokens else None

    gold_types = {t.word for g in gold.utterances.values() for t in g.tokens}
    found_types = {gold.utterances[utt_id].tokens[token_idx].word
                   for utt_id, token_idx in matched_tokens}
    discovered_types = set()
    for words in labels:
        if words:
            votes = Counter(words)
            discovered_types.add(min(votes, key=lambda w: (-votes[w], w)))

    type_p = (len(discovered_types & found_types) / len(discovered_types)
              if discovered_types else None)
    type_r = len(found_types) / len(gold_types) if gold_types else None
    return _prf(token_p, token_r), _prf(type_p, type_r)


def resolved_boundary_prf(members, gold):
    """termforge.evaluation.boundary_prf with a scan over every gold
    boundary per edge and every edge per boundary."""
    discovered = {}
    for seg in chain.from_iterable(members):
        discovered.setdefault(seg.utterance_id, set()).update((seg.start, seg.end))

    n_discovered = 0
    n_discovered_hit = 0
    n_gold = 0
    n_gold_hit = 0
    for utt_id, gold_utt in gold.utterances.items():
        gold_bounds = gold_utt.boundaries
        found = sorted(discovered.get(utt_id, ()))
        n_discovered += len(found)
        n_gold += len(gold_bounds)
        for edge in found:
            if any(abs(edge - b) <= TOLERANCE for b in gold_bounds):
                n_discovered_hit += 1
        for bound in gold_bounds:
            if any(abs(bound - edge) <= TOLERANCE for edge in found):
                n_gold_hit += 1
    precision = n_discovered_hit / n_discovered if n_discovered else None
    recall = n_gold_hit / n_gold if n_gold else None
    return _prf(precision, recall)


@dataclass
class EvalConfig:
    edge_tolerance: int = 1        # token span matching, per edge
    boundary_tolerance: int = 1


def _prf(precision, recall):
    return PRF(precision, recall, f_score(precision, recall))


def _pairs(n):
    return n * (n - 1) // 2


def _clustered_segments(clusters, segments):
    by_id = {s.id: s for s in segments}
    out = {}
    for cluster in clusters:
        for member in cluster.members:
            out[member] = by_id[member]
    return out


def coverage(clusters, segments, corpus):
    """Fraction of corpus frames covered by the union of clustered segments."""
    spans = {}
    for seg in _clustered_segments(clusters, segments).values():
        spans.setdefault(seg.utterance_id, []).append((seg.start, seg.end))
    covered = 0
    for utt_id, utt_spans in spans.items():
        utt_spans.sort()
        current_start, current_end = utt_spans[0]
        for start, end in utt_spans[1:]:
            if start > current_end:
                covered += current_end - current_start
                current_start, current_end = start, end
            else:
                current_end = max(current_end, end)
        covered += current_end - current_start
    total = corpus.total_frames()
    return covered / total if total else 0.0


def _segment_labels(clusters, segments, gold):
    labels = {}
    for seg_id, seg in _clustered_segments(clusters, segments).items():
        label = gold_segment_label(gold, seg)
        if label is not None:
            labels[seg_id] = label
    return labels


def grouping_prf(clusters, segments, gold):
    """Pairwise grouping quality over gold-labelled clustered segments,
    counted from cluster x gold-label contingency tables: a cell of n
    segments holds C(n, 2) pairs that share both cluster and label."""
    labels = _segment_labels(clusters, segments, gold)

    within_total = 0
    within_same = 0
    for cluster in clusters:
        cells = Counter(labels[m] for m in cluster.members if m in labels)
        within_total += _pairs(sum(cells.values()))
        within_same += sum(_pairs(n) for n in cells.values())
    precision = within_same / within_total if within_total else None

    cluster_of = {member: cluster.id for cluster in clusters for member in cluster.members}
    same_total = sum(_pairs(n) for n in Counter(labels.values()).values())
    same_grouped = sum(_pairs(n) for n in Counter(
        (label, cluster_of[seg_id]) for seg_id, label in labels.items()).values())
    recall = same_grouped / same_total if same_total else None
    return _prf(precision, recall)


def _token_matches(clustered, gold, tolerance):
    """(matched segment ids, matched gold token keys); a match needs both
    edges within the tolerance."""
    matched_segments = set()
    matched_tokens = set()
    for seg_id, seg in clustered.items():
        gold_utt = gold.utterances.get(seg.utterance_id)
        if gold_utt is None:
            continue
        for token_idx, token in enumerate(gold_utt.tokens):
            if (abs(seg.start - token.start) <= tolerance
                    and abs(seg.end - token.end) <= tolerance):
                matched_segments.add(seg_id)
                matched_tokens.add((seg.utterance_id, token_idx))
    return matched_segments, matched_tokens


def token_type_prf(clusters, segments, gold, tolerance=1):
    clustered = _clustered_segments(clusters, segments)
    matched_segments, matched_tokens = _token_matches(clustered, gold, tolerance)

    n_gold_tokens = sum(len(g.tokens) for g in gold.utterances.values())
    token_p = len(matched_segments) / len(clustered) if clustered else None
    token_r = len(matched_tokens) / n_gold_tokens if n_gold_tokens else None

    gold_types = {t.word for g in gold.utterances.values() for t in g.tokens}
    found_types = set()
    for utt_id, token_idx in matched_tokens:
        found_types.add(gold.utterances[utt_id].tokens[token_idx].word)

    labels = _segment_labels(clusters, segments, gold)
    discovered_types = set()
    for cluster in clusters:
        votes = {}
        for member in cluster.members:
            if member in labels:
                votes[labels[member]] = votes.get(labels[member], 0) + 1
        if votes:
            majority = min(votes, key=lambda w: (-votes[w], w))
            discovered_types.add(majority)

    type_p = (len(discovered_types & found_types) / len(discovered_types)
              if discovered_types else None)
    type_r = len(found_types) / len(gold_types) if gold_types else None
    return _prf(token_p, token_r), _prf(type_p, type_r)


def boundary_prf(clusters, segments, gold, tolerance=1):
    """Deduplicated clustered-segment edges scored against gold boundaries."""
    discovered = {}
    for seg in _clustered_segments(clusters, segments).values():
        edges = discovered.setdefault(seg.utterance_id, set())
        edges.add(seg.start)
        edges.add(seg.end)

    n_discovered = 0
    n_discovered_hit = 0
    n_gold = 0
    n_gold_hit = 0
    for utt_id, gold_utt in gold.utterances.items():
        gold_bounds = gold_utt.boundaries
        found = sorted(discovered.get(utt_id, ()))
        n_discovered += len(found)
        n_gold += len(gold_bounds)
        for edge in found:
            if any(abs(edge - b) <= tolerance for b in gold_bounds):
                n_discovered_hit += 1
        for bound in gold_bounds:
            if any(abs(bound - edge) <= tolerance for edge in found):
                n_gold_hit += 1
    precision = n_discovered_hit / n_discovered if n_discovered else None
    recall = n_gold_hit / n_gold if n_gold else None
    return _prf(precision, recall)


def n_words_n_pairs(clusters):
    n_pairs = sum(_pairs(len(c.members)) for c in clusters)
    return len(clusters), n_pairs


def report(clusters, segments, corpus, gold, config=None):
    config = config or EvalConfig()
    token, type_ = token_type_prf(clusters, segments, gold, config.edge_tolerance)
    words, pairs = n_words_n_pairs(clusters)
    return EvalReport(
        grouping=grouping_prf(clusters, segments, gold),
        token=token,
        type=type_,
        boundary=boundary_prf(clusters, segments, gold, config.boundary_tolerance),
        ned=lev_oracle.ned(clusters, segments, gold),
        coverage=coverage(clusters, segments, corpus),
        n_words=words,
        n_pairs=pairs,
    )
