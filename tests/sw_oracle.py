"""Reference Smith-Waterman: the row-major pure-Python fill, traceback and
extraction loop that the batched kernel in termforge.seqmatch replaced.
Tests require the kernel to reproduce it exactly, scores included. Also the
segments.jsonl writer and reader with one json.dumps / json.loads per line,
which the package must reproduce byte for byte."""

import json

from termforge.corpus import Segment
from termforge.util import atomic_write


def sw_fill(a, b, scoring, mask_a, mask_b, ban_diagonal):
    """Smith-Waterman matrix under position masks; best cell is the first
    row-major maximum."""
    n, m = len(a), len(b)
    score_rows = [[0.0] * (m + 1) for _ in range(n + 1)]
    best_score, best_i, best_j = 0.0, 0, 0
    match = scoring.match_score
    mismatch = scoring.mismatch_penalty
    gap = scoring.gap_penalty
    for i in range(1, n + 1):
        if mask_a[i - 1]:
            continue
        sym_a = a[i - 1]
        row = score_rows[i]
        above = score_rows[i - 1]
        for j in range(1, m + 1):
            if mask_b[j - 1] or (ban_diagonal and i == j):
                continue
            value = above[j - 1] + (match if sym_a == b[j - 1] else mismatch)
            up = above[j] + gap
            if up > value:
                value = up
            left = row[j - 1] + gap
            if left > value:
                value = left
            if value <= 0.0:
                continue
            row[j] = value
            if value > best_score:
                best_score, best_i, best_j = value, i, j
    return score_rows, best_score, best_i, best_j


def sw_traceback(score_rows, a, b, scoring, i, j):
    """Follow tie-broken pointers (diagonal, then up, then left) back to a zero cell."""
    match = scoring.match_score
    mismatch = scoring.mismatch_penalty
    gap = scoring.gap_penalty
    a_idx = []
    b_idx = []
    while score_rows[i][j] > 0.0:
        here = score_rows[i][j]
        diag = score_rows[i - 1][j - 1] + (match if a[i - 1] == b[j - 1] else mismatch)
        if here == diag:
            a_idx.append(i - 1)
            b_idx.append(j - 1)
            i -= 1
            j -= 1
        elif here == score_rows[i - 1][j] + gap:
            a_idx.append(i - 1)
            i -= 1
        elif here == score_rows[i][j - 1] + gap:
            b_idx.append(j - 1)
            j -= 1
        else:
            raise AssertionError("inconsistent traceback")
    return (min(a_idx), max(a_idx) + 1), (min(b_idx), max(b_idx) + 1)


def local_align(a, b, scoring, self_pair=False):
    """Best-first extraction with masking, one full re-fill per alignment."""
    scoring.validate()
    mask_a = [False] * len(a)
    mask_b = [False] * len(b)
    results = []
    while True:
        rows, best, i, j = sw_fill(a, b, scoring, mask_a, mask_b, self_pair)
        if best < scoring.min_align_score:
            break
        span_a, span_b = sw_traceback(rows, a, b, scoring, i, j)
        mask_a[span_a[0]:span_a[1]] = [True] * (span_a[1] - span_a[0])
        mask_b[span_b[0]:span_b[1]] = [True] * (span_b[1] - span_b[0])
        long_enough = (span_a[1] - span_a[0] >= scoring.min_length
                       and span_b[1] - span_b[0] >= scoring.min_length)
        if long_enough and not (self_pair and span_a == span_b):
            results.append((span_a, span_b, best))
    return results


def discover_segments(corpus, scoring):
    """discover_segments with every pair aligned by the reference loop."""
    utts = list(corpus)
    segments = []
    seen = set()

    def add(utt, span):
        key = (utt.id, span[0], span[1])
        if key in seen:
            return
        seen.add(key)
        segments.append(Segment(
            id=len(segments), utterance_id=utt.id,
            start=utt.frame_spans[span[0]][0], end=utt.frame_spans[span[1] - 1][1],
            symbols=utt.transcription[span[0]:span[1]]))

    for i in range(len(utts)):
        for j in range(i, len(utts)):
            found = local_align(utts[i].transcription, utts[j].transcription,
                                scoring, self_pair=i == j)
            for span_a, span_b, _score in found:
                add(utts[i], span_a)
                add(utts[j], span_b)
    return segments


def write_segments(path, segments):
    """segments.jsonl: one segment per line (id, utterance, span, symbols)."""
    with atomic_write(path) as fh:
        for seg in segments:
            fh.write(json.dumps({
                "id": seg.id,
                "utterance": seg.utterance_id,
                "span": [seg.start, seg.end],
                "symbols": list(seg.symbols),
            }, sort_keys=True) + "\n")


def load_segments(path):
    segments = []
    with open(path) as fh:
        for line in fh:
            blob = json.loads(line)
            segments.append(Segment(
                id=blob["id"],
                utterance_id=blob["utterance"],
                start=blob["span"][0],
                end=blob["span"][1],
                symbols=tuple(blob["symbols"]),
            ))
    return segments
