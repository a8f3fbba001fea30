"""Scoring of discovered clusters against gold annotations.

Reconstruction of the zerospeech-style spoken term discovery metric family:
pairwise grouping P/R/F, token and type P/R/F, boundary P/R/F, NED over gold
transcriptions of clustered segment pairs, coverage, n-words and n-pairs.
Token edges and boundaries match within a fixed tolerance of TOLERANCE = 1
frame per edge; it is not configurable. Degenerate denominators yield None,
rendered as "NA".

`report` scores one resolved clustering: `resolve` maps the cluster member
ids to their segments and gold words once, and each metric reads that. A
clustering is a partition, no segment in two clusters, as
`baseline.validate_partition` checks on every clusters file written or read.

Gold lookups bisect each utterance's `UtteranceGold`, whose true spans,
word tokens and boundaries are sorted, instead of scanning it: a
segment's gold string, its gold word, the tokens its edges match and the
boundaries an edge matches each take a bisection and a look at the few
spans it finds.

`ned` works on distinct gold strings: each pair of distinct strings in a
cluster stands for the member pairs that carry it, and one batched kernel
call gives all their distances. The sum over pairs is exact, integer
numerators over one common denominator, and is rounded once, so NED is
the correctly rounded mean and depends on no member or cluster order. The
mining statistics are summed the same way.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .baseline import Cluster
from .corpus import GoldAnnotation, Segment
# normalized_levenshtein stays a module attribute for code that wraps it
from .seqmatch import StringTable, normalized_levenshtein  # noqa: F401
from .synthgen import gold_segment_label
from .util import atomic_write, from_json, read_json, write_json

TOLERANCE = 1   # frames per edge, for token spans and gold boundaries


@dataclass
class PRF:
    precision: float | None
    recall: float | None
    f_score: float | None


@dataclass
class EvalReport:
    grouping: PRF
    token: PRF
    type: PRF
    boundary: PRF
    ned: float | None
    coverage: float
    n_words: int
    n_pairs: int


def f_score(precision: float | None, recall: float | None) -> float | None:
    if precision is None and recall is None:
        return None
    if precision is None or recall is None:
        return 0.0 if (precision == 0 or recall == 0) else None
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _prf(precision, recall) -> PRF:
    return PRF(precision, recall, f_score(precision, recall))


def resolve(clusters: list[Cluster], segments: list[Segment],
            gold: GoldAnnotation) -> tuple[list[list[Segment]], list[list[int]]]:
    """(members, labels) of a clustering, a partition of some of `segments`.

    members[k] holds the segments of cluster k in member order; labels[k]
    holds the gold words (`gold_segment_label`) of those of them that have
    one, in the same order. Each clustered segment is labelled once.
    """
    by_id = {s.id: s for s in segments}
    members = [[by_id[m] for m in cluster.members] for cluster in clusters]
    labels = [[word for word in (gold_segment_label(gold, seg) for seg in group)
               if word is not None] for group in members]
    return members, labels


def ned(members: list[list[Segment]], gold: GoldAnnotation) -> float | None:
    """Mean normalized Levenshtein distance between gold transcriptions of
    all within-cluster segment pairs of the resolved members of a partition;
    None when no cluster has >= 2 members.

    Two empty gold strings are at 0.0 and an empty one is at 1.0 from any
    other. The pairs of distinct gold strings that share a cluster, each
    weighted by the ordered member pairs it stands for
    (`StringTable.run_pairs`), get their distances from one batched kernel
    call. Their integer sums per denominator max(len a, len b) meet over one
    common denominator, so the mean is an exact fraction rounded once,
    whatever the order of members or clusters.
    """
    table = StringTable(gold.utterances[seg.utterance_id].overlapped_symbols(seg.start, seg.end)
                        for group in members for seg in group)
    a, b, weights, _ = table.run_pairs([len(group) for group in members],
                                       [(k, k) for k in range(len(members))])
    longest = np.maximum(np.maximum(table.lengths[a], table.lengths[b]), 1)
    sums = np.zeros(int(longest.max(initial=0)) + 1, dtype=np.int64)
    np.add.at(sums, longest, weights * table.distances(a, b))
    ordered_pairs = sum(n * (n - 1) for n in map(len, members))
    if not ordered_pairs:
        return None
    denominators = np.flatnonzero(sums).tolist()
    common = math.lcm(*denominators)
    return (sum(sums[k].item() * (common // k) for k in denominators)
            / (common * ordered_pairs))


def coverage(members: list[list[Segment]], gold: GoldAnnotation) -> float:
    """Fraction of corpus frames covered by the union of the resolved
    members of a partition. An utterance's frame count is its last gold
    boundary, which `GoldAnnotation.validate` ties to the corpus."""
    spans: dict[str, list[tuple[int, int]]] = {}
    for seg in chain.from_iterable(members):
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
    total = sum(utt.boundaries[-1] for utt in gold.utterances.values())
    return covered / total if total else 0.0


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def grouping_prf(labels: list[list[int]]) -> PRF:
    """Pairwise grouping quality over the gold-labelled members of a
    partition, given as each cluster's gold words (`resolve`).

    Counted from cluster x gold-label contingency tables: a cell of n
    segments holds C(n, 2) pairs that share both cluster and label. Those
    pairs are precision's and recall's numerator alike; precision divides
    by the labelled pairs within clusters, recall by the same-label pairs.
    """
    within_total = 0
    within_same = 0
    for words in labels:
        within_total += _pairs(len(words))
        within_same += sum(_pairs(n) for n in Counter(words).values())
    same_total = sum(_pairs(n) for n in Counter(chain.from_iterable(labels)).values())
    precision = within_same / within_total if within_total else None
    recall = within_same / same_total if same_total else None
    return _prf(precision, recall)


def token_type_prf(members: list[list[Segment]], labels: list[list[int]],
                   gold: GoldAnnotation) -> tuple[PRF, PRF]:
    """Token and type P/R/F of the resolved members and labels of a
    partition (`resolve`).

    A segment matches a gold token when both edges lie within TOLERANCE
    frames of the token's. Token precision is the share of clustered
    segments that match a token, token recall the share of gold tokens
    matched. A cluster discovers the type of its majority gold word (ties
    to the lowest word id); type precision is the share of discovered
    types that some matched token has, type recall the share of gold types
    that some segment matched.
    """
    n_matched = 0
    matched_tokens: set[tuple[str, int]] = set()
    for seg in chain.from_iterable(members):
        utt = gold.utterances.get(seg.utterance_id)
        if utt is None:
            continue
        # tokens whose start lies within TOLERANCE of the segment's
        lo = bisect_left(utt.token_starts, seg.start - TOLERANCE)
        hi = bisect_right(utt.token_starts, seg.start + TOLERANCE, lo)
        hits = {(seg.utterance_id, token_idx) for token_idx in range(lo, hi)
                if abs(seg.end - utt.token_ends[token_idx]) <= TOLERANCE}
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


def _near(points, sorted_targets) -> int:
    """How many of `points` lie within TOLERANCE of some sorted target."""
    return sum(bisect_right(sorted_targets, p + TOLERANCE)
               > bisect_left(sorted_targets, p - TOLERANCE) for p in points)


def boundary_prf(members: list[list[Segment]], gold: GoldAnnotation) -> PRF:
    """Deduplicated edges of the resolved members of a partition scored
    against gold boundaries; an edge and a boundary match within TOLERANCE
    frames."""
    discovered: dict[str, set[int]] = {}
    for seg in chain.from_iterable(members):
        discovered.setdefault(seg.utterance_id, set()).update((seg.start, seg.end))

    n_discovered = 0
    n_discovered_hit = 0
    n_gold = 0
    n_gold_hit = 0
    for utt_id, utt in gold.utterances.items():
        gold_bounds = utt.boundaries
        found = sorted(discovered.get(utt_id, ()))
        n_discovered += len(found)
        n_gold += len(gold_bounds)
        n_discovered_hit += _near(found, gold_bounds)
        n_gold_hit += _near(gold_bounds, found)
    precision = n_discovered_hit / n_discovered if n_discovered else None
    recall = n_gold_hit / n_gold if n_gold else None
    return _prf(precision, recall)


def n_words_n_pairs(clusters: list[Cluster]) -> tuple[int, int]:
    n_pairs = sum(_pairs(len(c.members)) for c in clusters)
    return len(clusters), n_pairs


def report(clusters: list[Cluster], segments: list[Segment],
           gold: GoldAnnotation) -> EvalReport:
    """Every metric of one clustering, a partition of some of `segments`,
    from one `resolve` of it."""
    members, labels = resolve(clusters, segments, gold)
    token, type_ = token_type_prf(members, labels, gold)
    words, pairs = n_words_n_pairs(clusters)
    return EvalReport(
        grouping=grouping_prf(labels),
        token=token,
        type=type_,
        boundary=boundary_prf(members, gold),
        ned=ned(members, gold),
        coverage=coverage(members, gold),
        n_words=words,
        n_pairs=pairs,
    )


def _cell(value) -> str:
    if value is None:
        return "NA"
    return f"{value:.4f}"


def render_text(report_: EvalReport, system: str = "system") -> str:
    """Aligned one-row grid in the shape of the published results tables."""
    header_groups = ["Grouping", "Token", "Type", "Boundary"]
    columns = []
    for group in (report_.grouping, report_.token, report_.type, report_.boundary):
        columns.extend([_cell(group.precision), _cell(group.recall), _cell(group.f_score)])
    columns.extend([
        _cell(report_.ned),
        _cell(report_.coverage),
        str(report_.n_words),
        str(report_.n_pairs),
    ])
    head1 = f"{'':18s}" + "".join(f"{g:^24s}" for g in header_groups) + f"{'NLP':^40s}"
    sub = ["P", "R", "F"] * 4 + ["NED", "Cov", "n-words", "n-pairs"]
    head2 = f"{'':18s}" + "".join(f"{s:>8s}" for s in sub[:12]) \
        + "".join(f"{s:>10s}" for s in sub[12:])
    row = f"{system:18s}" + "".join(f"{c:>8s}" for c in columns[:12]) \
        + "".join(f"{c:>10s}" for c in columns[12:])
    return "\n".join([head1, head2, row]) + "\n"


def write_report(report_: EvalReport, json_path, txt_path, system: str = "system") -> None:
    write_json(json_path, report_)
    with atomic_write(txt_path) as fh:
        fh.write(render_text(report_, system))


def load_report(path) -> EvalReport:
    """`write_report`'s report; a malformed file raises a ValueError naming it and the field."""
    return read_json(path, lambda blob: from_json(EvalReport, blob, "report", complete=True))
