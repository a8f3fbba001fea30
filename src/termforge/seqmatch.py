"""Symbol-sequence kernels: edit distance and local-alignment segment discovery.

Local alignment is Smith-Waterman with a linear gap penalty, computed by one
batched numpy kernel for every caller (local_align, discover_segments and
its worker processes). The kernel packs sequence pairs into lanes, cuts them
into chunks of at most CHUNK_CELLS cells and fills a chunk one anti-diagonal
at a time in a skewed, diagonal-major buffer S[d, i, p] = H_p[i, d - i], so
every step reads contiguous slices. Each round extracts at most one
alignment per pair: the best cell is the first row-major maximum, and the
traceback prefers the diagonal, then up, then left. The aligned positions
are masked and the pairs that extracted an alignment are filled again,
batched together, in the next round. Every cell performs the float
operations of a row-major fill in the same order, so scores and tie-breaks
match it bit for bit for any AlignScoring; tests/sw_oracle.py keeps that
row-major fill as the reference.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .corpus import Corpus, Segment
from .util import ScaleError, atomic_write, worker_count

Span = tuple[int, int]

# Cells in the skewed float64 score buffer of one batched fill: about 1 MiB,
# whatever the corpus size.
CHUNK_CELLS = 1 << 17


@dataclass
class AlignScoring:
    match_score: float = 1.0
    mismatch_penalty: float = -1.0
    gap_penalty: float = -1.0
    min_align_score: float = 3.0
    min_length: int = 3

    def validate(self) -> None:
        if not all(math.isfinite(v) for v in (self.match_score, self.mismatch_penalty,
                                              self.gap_penalty, self.min_align_score)):
            raise ValueError("scores must be finite")
        if self.match_score <= 0:
            raise ValueError("match_score must be positive")
        if self.mismatch_penalty > 0 or self.gap_penalty > 0:
            raise ValueError("penalties must be <= 0")
        if self.min_align_score <= 0:
            raise ValueError("min_align_score must be positive")
        if self.min_length < 1:
            raise ValueError("min_length must be >= 1")


@lru_cache(maxsize=2_000_000)
def _lev_core(a: tuple, b: tuple) -> int:
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


def levenshtein(a: Sequence[int], b: Sequence[int]) -> int:
    """Unit-cost edit distance between two symbol sequences (memoized; the
    pipeline hits the same string pairs over and over)."""
    ta, tb = tuple(a), tuple(b)
    if len(ta) < len(tb) or (len(ta) == len(tb) and tb < ta):
        ta, tb = tb, ta
    return _lev_core(ta, tb)


def normalized_levenshtein(a: Sequence[int], b: Sequence[int]) -> float:
    """levenshtein(a, b) / max(len(a), len(b)); undefined when both are empty."""
    longest = max(len(a), len(b))
    if longest == 0:
        raise ValueError("normalized levenshtein undefined for two empty sequences")
    return levenshtein(a, b) / longest


def _weights(scoring: AlignScoring) -> tuple[float, float, float]:
    """Match, mismatch and gap weights as the floats a row-major fill adds."""
    return (float(scoring.match_score), float(scoring.mismatch_penalty),
            float(scoring.gap_penalty))


def _fill(buffer, a_sym, a_cap, b_rev, b_cap, self_lanes, scoring: AlignScoring):
    """Smith-Waterman matrices of a chunk of P pairs, one anti-diagonal at a time.

    Rows 1..N of lane p hold a_sym[:, p]; columns are stored reversed (column
    j at index M - j) so that every anti-diagonal reads contiguous slices.
    A cap is +inf where a row or column is live and 0 where it is masked or
    padding. The returned buffer is diagonal-major and skewed,
    S[d, i, p] = H_p[i, d - i]. Each cell is diag + (match | mismatch), then
    the max with up + gap, then with left + gap, and 0 where that is <= 0 or
    the cell is dead (padding, a masked row or column, or the diagonal of a
    self pair in `self_lanes`), exactly as a row-major fill computes it.
    S is a zeroed view of the front of `buffer`, which the caller reuses
    from chunk to chunk.
    """
    n_rows, lanes = a_sym.shape
    n_cols = b_rev.shape[0]
    match, mismatch, gap = _weights(scoring)
    shape = (n_rows + n_cols + 1, n_rows + 1, lanes)
    skew = buffer[:shape[0] * shape[1] * lanes].reshape(shape)
    skew.fill(0.0)
    for d in range(2, n_rows + n_cols + 1):
        lo, hi = max(1, d - n_cols), min(n_rows, d - 1) + 1
        rows = slice(lo - 1, hi - 1)
        cols = slice(n_cols - d + lo, n_cols - d + hi)
        value = np.where(a_sym[rows] == b_rev[cols], match, mismatch)
        value += skew[d - 2, rows]
        gapped = skew[d - 1, lo - 1:hi] + gap
        np.maximum(value, gapped[:-1], out=value)
        np.maximum(value, gapped[1:], out=value)
        # No score is ever -0.0, so the max with 0 and the min with the caps
        # store +0.0 exactly where the row-major fill leaves its 0.0.
        np.maximum(value, 0.0, out=value)
        np.minimum(value, np.minimum(a_cap[rows], b_cap[cols]), out=skew[d, lo:hi])
        if self_lanes.size and d % 2 == 0 and lo <= d // 2 < hi:
            skew[d, d // 2, self_lanes] = 0.0
    return skew


def _best_cells(skew):
    """Per lane, the maximum score and the first row-major cell holding it:
    the first row whose maximum is the best, then the first column of that
    row (the smallest d, as j = d - i) holding it."""
    row_best = skew.max(axis=0)
    best = row_best.max(axis=0)
    i = (row_best == best).argmax(axis=0)
    d = (skew[:, i, np.arange(skew.shape[2])] == best).argmax(axis=0)
    return best, i, d - i


def _traceback(skew, a_sym, b_rev, scoring: AlignScoring, lanes, i, j):
    """Walk the given lanes back from (i, j) to a zero cell, preferring the
    diagonal, then up, then left; returns the cells where the walks stop.

    A walk only moves left while its row is unchanged, so the aligned rows are
    [i_stop, i_start) and the aligned columns [j_stop, j_start).
    """
    n_cols = b_rev.shape[0]
    match, mismatch, gap = _weights(scoring)
    i, j = i.copy(), j.copy()
    moving = lanes
    while moving.size:
        ii, jj = i[moving], j[moving]
        here = skew[ii + jj, ii, moving]
        keep = here > 0.0
        moving, ii, jj, here = moving[keep], ii[keep], jj[keep], here[keep]
        sub = np.where(a_sym[ii - 1, moving] == b_rev[n_cols - jj, moving], match, mismatch)
        diag = here == skew[ii + jj - 2, ii - 1, moving] + sub
        up = ~diag & (here == skew[ii + jj - 1, ii - 1, moving] + gap)
        i[moving] = ii - (diag | up)
        j[moving] = jj - ~up
    return i, j


def _chunks(order, rows, cols):
    """Cut `order` into runs whose padded skewed buffers fit CHUNK_CELLS
    (a single larger pair makes a chunk of its own)."""
    chunk: list[int] = []
    n_rows = n_cols = 0
    for k in order:
        grown_rows, grown_cols = max(n_rows, rows[k]), max(n_cols, cols[k])
        if chunk and (grown_rows + grown_cols + 1) * (grown_rows + 1) * (len(chunk) + 1) \
                > CHUNK_CELLS:
            yield chunk, n_rows, n_cols
            chunk, grown_rows, grown_cols = [], rows[k], cols[k]
        chunk.append(k)
        n_rows, n_cols = grown_rows, grown_cols
    if chunk:
        yield chunk, n_rows, n_cols


def _align_many(seqs, pairs, scoring: AlignScoring) -> list[list[tuple[Span, Span, float]]]:
    """local_align(seqs[a], seqs[b], scoring, self_pair) for every (a, b,
    self_pair) in `pairs`, through the batched kernel.

    Each round fills every pair still in play, chunk by chunk, and extracts at
    most one alignment per pair; the pairs that extracted one are masked and
    batched together for the next round. Pairs are ordered by shape so that a
    chunk pads little.
    """
    scoring.validate()
    lengths = [len(seq) for seq in seqs]
    width = max(lengths, default=0)
    # column u of `forward` holds sequence u from the top; column u of
    # `backward` holds it reversed and bottom-aligned, so that matrix column j
    # (sequence position j - 1) of a b side sits at row width - j
    forward = np.zeros((width, len(seqs)), dtype=np.int64)
    backward = np.zeros((width, len(seqs)), dtype=np.int64)
    for u, seq in enumerate(seqs):
        forward[:lengths[u], u] = seq
        backward[width - lengths[u]:, u] = seq[::-1]
    a_of = np.array([a for a, _, _ in pairs], dtype=np.intp)
    b_of = np.array([b for _, b, _ in pairs], dtype=np.intp)
    self_pair = np.array([flag for _, _, flag in pairs], dtype=bool)
    rows = [lengths[a] for a, _, _ in pairs]
    cols = [lengths[b] for _, b, _ in pairs]
    # dead positions of pair k: padding, then every aligned span
    position = np.arange(width)[:, None]
    a_dead = position >= np.array(rows, dtype=np.intp)
    b_dead = position < width - np.array(cols, dtype=np.intp)

    buffer = np.empty(0)
    results: list[list[tuple[Span, Span, float]]] = [[] for _ in pairs]
    todo = sorted(range(len(pairs)), key=lambda k: (rows[k], cols[k]))
    while todo:
        extracted = []
        for chunk, n_rows, n_cols in _chunks(todo, rows, cols):
            at = np.array(chunk, dtype=np.intp)
            tail = slice(width - n_cols, width)
            cells = (n_rows + n_cols + 1) * (n_rows + 1) * len(chunk)
            if buffer.size < cells:
                buffer = np.empty(max(cells, CHUNK_CELLS))
            a_sym = np.take(forward[:n_rows], a_of[at], axis=1)
            b_rev = np.take(backward[tail], b_of[at], axis=1)
            a_cap = np.where(np.take(a_dead[:n_rows], at, axis=1), 0.0, np.inf)
            b_cap = np.where(np.take(b_dead[tail], at, axis=1), 0.0, np.inf)
            skew = _fill(buffer, a_sym, a_cap, b_rev, b_cap,
                         np.flatnonzero(self_pair[at]), scoring)
            best, i_end, j_end = _best_cells(skew)
            hit = np.flatnonzero(best >= scoring.min_align_score)
            i_start, j_start = _traceback(skew, a_sym, b_rev, scoring, hit, i_end, j_end)
            for lane in hit.tolist():
                k = chunk[lane]
                span_a = (int(i_start[lane]), int(i_end[lane]))
                span_b = (int(j_start[lane]), int(j_end[lane]))
                a_dead[span_a[0]:span_a[1], k] = True
                b_dead[width - span_b[1]:width - span_b[0], k] = True
                long_enough = (span_a[1] - span_a[0] >= scoring.min_length
                               and span_b[1] - span_b[0] >= scoring.min_length)
                if long_enough and not (self_pair[k] and span_a == span_b):
                    results[k].append((span_a, span_b, float(best[lane])))
                extracted.append(k)
        todo = extracted
    return results


def local_align(a: Sequence[int], b: Sequence[int], scoring: AlignScoring,
                self_pair: bool = False) -> list[tuple[Span, Span, float]]:
    """All maximal local alignments meeting the score and length thresholds.

    Alignments are extracted best-first; the positions they consume are then
    masked on each side, so returned spans never overlap within this pair.
    For self alignment the main diagonal is banned and identical span pairs
    are discarded.

    This is a one-pair call into the batched kernel that discover_segments
    uses; that kernel fills chunks of at most CHUNK_CELLS cells, and a pair
    of lengths n and m takes (n + m + 1) * (n + 1) of them. The best cell of
    a fill is the first row-major maximum, and the traceback prefers the
    diagonal, then up, then left; scores are the float64 values of a plain
    row-major Smith-Waterman fill, bit for bit, for any AlignScoring.
    """
    return _align_many([a, b], [(0, 1, self_pair)], scoring)[0]


def discover_segments(corpus: Corpus, scoring: AlignScoring,
                      max_dp_cells: int = 200_000_000,
                      workers: int | None = None) -> list[Segment]:
    """Run local alignment over all unordered utterance pairs (self pairs
    included) and convert every aligned span into a deduplicated Segment.

    Segment ids are dense in discovery order. A budget guard rejects corpora
    whose single-pass DP cell count would exceed max_dp_cells. It bounds
    total work (each extracted alignment adds one more fill of its pair),
    not memory. All pairs go through one batched kernel with the tie-breaking
    of local_align: it fills the matrices of a chunk of pairs together, one
    anti-diagonal at a time, and a chunk holds at most CHUNK_CELLS float64
    cells (1 MiB) however large the corpus; only a single pair larger than
    that gets a buffer of its own size. With more than one worker, each
    worker runs the kernel on one contiguous block of pairs.
    """
    utts = list(corpus)
    seqs = [utt.transcription for utt in utts]
    tasks = [(i, j, i == j) for i in range(len(utts)) for j in range(i, len(utts))]
    cells = sum(len(seqs[i]) * len(seqs[j]) for i, j, _ in tasks)
    if cells > max_dp_cells:
        raise ScaleError(
            f"alignment budget exceeded: {cells} DP cells > {max_dp_cells}; "
            "shrink the corpus or raise max_dp_cells"
        )

    n_workers = worker_count(workers)
    if n_workers > 1 and len(tasks) > 1:
        size = -(-len(tasks) // n_workers)
        blocks = [tasks[start:start + size] for start in range(0, len(tasks), size)]
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            alignments = [found for block in pool.map(
                _align_many, [seqs] * len(blocks), blocks, [scoring] * len(blocks))
                for found in block]
    else:
        alignments = _align_many(seqs, tasks, scoring)

    segments: list[Segment] = []
    seen: set[tuple[str, int, int]] = set()

    def add(utt, sym_span: Span) -> None:
        key = (utt.id, sym_span[0], sym_span[1])
        if key in seen:
            return
        seen.add(key)
        frame_start = utt.frame_spans[sym_span[0]][0]
        frame_end = utt.frame_spans[sym_span[1] - 1][1]
        segments.append(Segment(
            id=len(segments),
            utterance_id=utt.id,
            start=frame_start,
            end=frame_end,
            symbols=utt.transcription[sym_span[0]:sym_span[1]],
        ))

    for (i, j, _), found in zip(tasks, alignments):
        for span_a, span_b, _score in found:
            add(utts[i], span_a)
            add(utts[j], span_b)
    return segments


def write_segments(path, segments: list[Segment]) -> None:
    """segments.jsonl: one segment per line (id, utterance, span, symbols)."""
    import json

    with atomic_write(path) as fh:
        for seg in segments:
            fh.write(json.dumps({
                "id": seg.id,
                "utterance": seg.utterance_id,
                "span": [seg.start, seg.end],
                "symbols": list(seg.symbols),
            }, sort_keys=True) + "\n")


def load_segments(path) -> list[Segment]:
    import json

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
