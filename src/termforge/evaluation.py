"""Scoring of discovered clusters against gold annotations.

Reconstruction of the zerospeech-style spoken term discovery metric family:
pairwise grouping P/R/F, token and type P/R/F with a configurable +/-1 frame
edge tolerance, boundary P/R/F, NED over gold transcriptions of clustered
segment pairs, coverage, n-words and n-pairs. Degenerate denominators yield
None, rendered as "NA".
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .baseline import Cluster
from .corpus import Corpus, GoldAnnotation, Segment, overlapped_symbols
# normalized_levenshtein stays a module attribute for code that wraps it
from .seqmatch import StringTable, normalized_levenshtein  # noqa: F401
from .synthgen import gold_segment_label
from .util import atomic_write


@dataclass
class EvalConfig:
    edge_tolerance: int = 1        # token span matching, per edge
    boundary_tolerance: int = 1


@dataclass
class PRF:
    precision: float | None
    recall: float | None
    f_score: float | None

    @classmethod
    def from_dict(cls, blob: dict) -> "PRF":
        return cls(blob["precision"], blob["recall"], blob["f_score"])


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

    @classmethod
    def from_dict(cls, blob: dict) -> "EvalReport":
        return cls(
            grouping=PRF.from_dict(blob["grouping"]),
            token=PRF.from_dict(blob["token"]),
            type=PRF.from_dict(blob["type"]),
            boundary=PRF.from_dict(blob["boundary"]),
            ned=blob["ned"],
            coverage=blob["coverage"],
            n_words=blob["n_words"],
            n_pairs=blob["n_pairs"],
        )


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


def _gold_string(gold: GoldAnnotation, segment: Segment) -> tuple[int, ...]:
    """Gold transcription of a segment: the true symbols it overlaps by at
    least half their duration (true spans, which differ from the emitted
    frame spans once indel noise is on)."""
    utt = gold.utterances[segment.utterance_id]
    return overlapped_symbols(utt.true_symbols, utt.true_spans, segment.start, segment.end)


def _clustered_segments(clusters: list[Cluster],
                        segments: list[Segment]) -> dict[int, Segment]:
    by_id = {s.id: s for s in segments}
    out = {}
    for cluster in clusters:
        for member in cluster.members:
            out[member] = by_id[member]
    return out


def ned(clusters: list[Cluster], segments: list[Segment], corpus: Corpus,
        gold: GoldAnnotation) -> float | None:
    """Mean normalized Levenshtein distance between gold transcriptions of
    all within-cluster segment pairs; None when no cluster has >= 2 members.

    Two empty gold strings are at 0.0 and an empty one is at 1.0 from any
    other. Distances come from one batched kernel call over the distinct
    pairs of distinct gold strings that share a cluster; the pair values
    are then summed in pair order (cluster by cluster, i < j) by a
    sequential float sum, exactly as a loop over the pairs adds them.
    """
    by_id = {s.id: s for s in segments}
    table = StringTable(_gold_string(gold, by_id[m]) for c in clusters for m in c.members)
    n_strings = len(table.strings)
    sizes = np.cumsum([len(c.members) for c in clusters], dtype=np.intp)
    # per cluster: its distinct strings and each member's index among them
    distinct = [np.unique(g, return_inverse=True) for g in np.split(table.ids, sizes[:-1])]
    upper = [np.triu_indices(len(strings), 1) for strings, _ in distinct]
    keys = np.unique(np.concatenate(
        [strings[i] * n_strings + strings[j] for (strings, _), (i, j) in zip(distinct, upper)]
        + [np.empty(0, dtype=np.intp)]))
    values = table.normalized(keys // n_strings, keys % n_strings)

    total = 0.0
    count = 0
    for (strings, member_of), (i, j) in zip(distinct, upper):
        within = np.zeros((len(strings), len(strings)))
        within[i, j] = within[j, i] = values[
            np.searchsorted(keys, strings[i] * n_strings + strings[j])]
        for r in range(len(member_of) - 1):
            row = within[member_of[r], member_of[r + 1:]]
            total = np.add.accumulate(np.concatenate(([total], row)))[-1]
        count += len(member_of) * (len(member_of) - 1) // 2
    return float(total) / count if count else None


def coverage(clusters: list[Cluster], segments: list[Segment],
             corpus: Corpus) -> float:
    """Fraction of corpus frames covered by the union of clustered segments."""
    spans: dict[str, list[tuple[int, int]]] = {}
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


def _segment_labels(clusters: list[Cluster], segments: list[Segment],
                    gold: GoldAnnotation) -> dict[int, int]:
    labels = {}
    for seg_id, seg in _clustered_segments(clusters, segments).items():
        label = gold_segment_label(gold, seg)
        if label is not None:
            labels[seg_id] = label
    return labels


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def grouping_prf(clusters: list[Cluster], segments: list[Segment],
                 gold: GoldAnnotation) -> PRF:
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


def _token_matches(clustered: dict[int, Segment], gold: GoldAnnotation,
                   tolerance: int):
    """(matched segment ids, matched gold token keys); a match needs both
    edges within the tolerance."""
    matched_segments: set[int] = set()
    matched_tokens: set[tuple[str, int]] = set()
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


def token_type_prf(clusters: list[Cluster], segments: list[Segment],
                   gold: GoldAnnotation, tolerance: int = 1) -> tuple[PRF, PRF]:
    clustered = _clustered_segments(clusters, segments)
    matched_segments, matched_tokens = _token_matches(clustered, gold, tolerance)

    n_gold_tokens = sum(len(g.tokens) for g in gold.utterances.values())
    token_p = len(matched_segments) / len(clustered) if clustered else None
    token_r = len(matched_tokens) / n_gold_tokens if n_gold_tokens else None

    gold_types = {t.word_id for g in gold.utterances.values() for t in g.tokens}
    found_types = set()
    for utt_id, token_idx in matched_tokens:
        found_types.add(gold.utterances[utt_id].tokens[token_idx].word_id)

    labels = _segment_labels(clusters, segments, gold)
    discovered_types = set()
    for cluster in clusters:
        votes: dict[int, int] = {}
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


def boundary_prf(clusters: list[Cluster], segments: list[Segment],
                 gold: GoldAnnotation, tolerance: int = 1) -> PRF:
    """Deduplicated clustered-segment edges scored against gold boundaries."""
    discovered: dict[str, set[int]] = {}
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


def n_words_n_pairs(clusters: list[Cluster]) -> tuple[int, int]:
    n_pairs = sum(_pairs(len(c.members)) for c in clusters)
    return len(clusters), n_pairs


def report(clusters: list[Cluster], segments: list[Segment], corpus: Corpus,
           gold: GoldAnnotation, config: EvalConfig | None = None) -> EvalReport:
    config = config or EvalConfig()
    token, type_ = token_type_prf(clusters, segments, gold, config.edge_tolerance)
    words, pairs = n_words_n_pairs(clusters)
    return EvalReport(
        grouping=grouping_prf(clusters, segments, gold),
        token=token,
        type=type_,
        boundary=boundary_prf(clusters, segments, gold, config.boundary_tolerance),
        ned=ned(clusters, segments, corpus, gold),
        coverage=coverage(clusters, segments, corpus),
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
    with atomic_write(json_path) as fh:
        fh.write(json.dumps(asdict(report_), sort_keys=True, indent=2) + "\n")
    with atomic_write(txt_path) as fh:
        fh.write(render_text(report_, system))


def load_report(path) -> EvalReport:
    return EvalReport.from_dict(json.loads(Path(path).read_text()))
