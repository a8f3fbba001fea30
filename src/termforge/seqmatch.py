"""Symbol-sequence kernels: edit distance and local-alignment segment discovery.

Both kernels run in the narrowest integer types that hold their values
exactly, picked from the data of each call. Symbols are packed once per
call, zero-padded and lanes-last: string u is column u of one (width,
strings) array of the narrowest signed integer type that holds every symbol
of the call (int8 for the corpus alphabets), found by one max over the
symbols.

Edit distance is unit-cost Levenshtein, computed by one batched numpy kernel
for every caller: leader clustering, NED, the mining statistics, vocabulary
sampling, and levenshtein / normalized_levenshtein, which are one-pair
calls into it. Callers pack their distinct strings once into a StringTable
(repeated strings share a column) and ask for the distances of many pairs
of columns at a time; NED and the mining statistics take their pairs of
distinct strings, weighted by multiplicity, from StringTable.run_pairs. The
kernel puts the shorter string of each pair on the DP rows, orders the
pairs by shape, cuts them into chunks of at most CHUNK_BYTES // 16 =
2**17 DP cells (as many as under the earlier 1 MiB budget; larger chunks
made corpus synthesis slower in a fresh process, see CHUNK_BYTES) and runs
the DP one row at a time, vectorised over the pairs and columns of a chunk: substitutions and deletions from the row above,
then insertions folded in by a running minimum down the columns. A row is
a (columns + 1, lanes) array, so each step of that running minimum is one
operation over contiguous lanes, and it takes the narrowest signed type
that holds the chunk's row and column counts (int8 up to 127 symbols, then
int16). Distances are exact integers; nothing is memoized between calls.
tests/lev_oracle.py keeps the scalar row-by-row DP as the reference.

Local alignment is Smith-Waterman with a linear gap penalty, computed by one
batched numpy kernel for every caller (local_align and discover_segments).
The kernel packs sequence pairs into lanes, cuts them into chunks whose
buffer holds at most CHUNK_BYTES (2 MiB: 2**21 int8, 2**20 int16, 2**19
int32 or 2**18 int64 cells) and fills a chunk one anti-diagonal at a time in
a skewed, diagonal-major buffer S[d, i, p] = H_p[i, d - i], so every step
reads contiguous slices; a fill spends much of its time in the overhead of
those per-diagonal numpy calls, which a larger chunk spreads over more
lanes. Each round extracts at most one alignment per pair: the best cell is
the first row-major maximum, and the traceback prefers the diagonal, then
up, then left. The aligned positions of every pair of a chunk are masked at
once, and the pairs that extracted an alignment are filled again, batched
together, in the next round, except those whose re-fill this round's fill
already rules out (below).

Scores are integers. AlignScoring takes only integer match, mismatch and
gap weights, as in Smith & Waterman (1981), and the fill and the traceback
run in the narrowest signed integer type that holds every value they form
(_score_dtype): the default 1/-1/-1 scoring fills in int8 on sequences of
up to 127 symbols and in int16 beyond. No sum leaves the type, so each cell
holds the exact score, and scores and tie-breaks match a row-major fill bit
for bit; tests/sw_oracle.py keeps that row-major float fill as the
reference. An int8 chunk holds eight times the lanes of an int64 one in the
same bytes, so the fill makes an eighth of the numpy calls.

Per anti-diagonal the fill makes only calls that stay on numpy's fast
paths: np.equal into a preallocated bool buffer; the substitution score as
eq * (match - mismatch) + mismatch in wrapping integer arithmetic, exact
because the result, match or mismatch, lies in the type; adds and maxima of
arrays and scalars of the fill's type; the floor at 0 against an array of
zeros; and the caps as two minima against arrays. np.where with scalar
operands and a ufunc given a Python number take numpy's generic paths. On a
(20, 700) int8 diagonal (2-core Xeon, numpy 2.4) np.where(eq, match,
mismatch) took about 60 us and np.maximum(v, 0) 14-16 us, against 1.5-1.8
us for np.maximum(v, zeros) and 2 us for v + np.int8(-1); one 35 x 43 int8
fill over 700 lanes went from 3.3-5.5 ms to 1.3-2.1 ms. A test keeps both
calls out of the loop.

The bound that rules out a re-fill is exact. Masking only lowers caps, and
every step of the recurrence (a max, a min, or adding a weight) is
monotone, so no cell of a pair's next fill exceeds that cell of this fill.
An alignment that ends in row i also lies in the run of live rows that ends
at row i, so a cell of row i holds at most cap[r] = r * match for a run of
r rows; the same holds for columns. The maximum over live rows of min(row
maximum, cap[run]), and the same over columns, thus bound the next fill's
best score, and a pair whose smaller bound is below min_align_score leaves
the next round. On the 67-utterance corpus 0 of the discover-67x14
benchmark at seed 3, 2,278 pairs took 4,805 lane fills, of which this
leaves out 1,346.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, Segment
from .util import ScaleError, atomic_write, from_json

Span = tuple[int, int]

# Bytes of the skewed Smith-Waterman buffer of one batched chunk, whatever
# the corpus size: 2**21 int8 cells, down to 2**18 int64 ones. A fill
# makes a few numpy calls per anti-diagonal of a chunk, so larger chunks
# make fewer calls. An edit-distance chunk does as much DP work as 2**17
# cells (CHUNK_BYTES // 16) and holds only one DP row per pair at a time; it
# keeps the cell count it had under a 1 MiB budget, because doubling it made
# corpus synthesis (vocabulary sampling) slower in a fresh process: 0.082 ->
# 0.090 s median over 18 runs each, against 0.085 s with only the fill doubled.
CHUNK_BYTES = 1 << 21
# the signed integer types, narrowest first, each with its largest value
_SIGNED = tuple((int(np.iinfo(t).max), t) for t in (np.int8, np.int16, np.int32, np.int64))
MAX_DP_CELLS = 200_000_000   # the most DP cells discover_segments takes on


@dataclass
class AlignScoring:
    """Smith-Waterman weights and the thresholds an alignment must meet.

    The match, mismatch and gap weights must be integers, as in Smith &
    Waterman (1981): the fill computes in integers (see the module
    docstring). They are annotated and stored as floats, so that a config
    file may say 1 or 1.0 and every stage hash stays as it was;
    min_align_score may be any positive number.
    """
    match_score: float = 1.0
    mismatch_penalty: float = -1.0
    gap_penalty: float = -1.0
    min_align_score: float = 3.0
    min_length: int = 3

    def validate(self) -> None:
        weights = {"match_score": self.match_score, "mismatch_penalty": self.mismatch_penalty,
                   "gap_penalty": self.gap_penalty}
        if not all(math.isfinite(v) for v in (*weights.values(), self.min_align_score)):
            raise ValueError("scores must be finite")
        for name, value in weights.items():
            if not float(value).is_integer():
                raise ValueError(f"{name} must be an integer, got {value}")
        if self.match_score <= 0:
            raise ValueError("match_score must be positive")
        if self.mismatch_penalty > 0 or self.gap_penalty > 0:
            raise ValueError("penalties must be <= 0")
        if self.min_align_score <= 0:
            raise ValueError("min_align_score must be positive")
        if self.min_length < 1:
            raise ValueError("min_length must be >= 1")
        # the scores fit in int64 on the widest sequence discover_segments
        # takes, whose self pair alone fills n * n <= MAX_DP_CELLS cells
        _score_dtype(self, math.isqrt(MAX_DP_CELLS))


def _narrowest(bound: int) -> type:
    """The narrowest signed integer type that holds [-bound - 1, bound]."""
    return next(dtype for top, dtype in _SIGNED if bound <= top)


def _pack(strings, lengths) -> np.ndarray:
    """`strings` as the columns of one zero-padded (width, len(strings))
    array of the narrowest signed integer type that holds all their symbols.
    The type holds x exactly when it holds both x and ~x = -1 - x, so one
    max over both finds it."""
    width = int(lengths.max(initial=0))
    flat = np.fromiter(chain.from_iterable(strings), dtype=np.int64, count=int(lengths.sum()))
    symbols = np.zeros((width, len(strings)),
                       _narrowest(int(np.maximum(flat, ~flat).max(initial=0))))
    symbols.T[np.arange(width) < lengths[:, None]] = flat
    return symbols


class StringTable:
    """Distinct symbol strings packed into the columns of one zero-padded
    (width, strings) array of a narrow integer type, the input of the
    batched edit-distance kernel.

    `strings` holds each distinct string once, in order of first appearance,
    and `ids[k]` is the column of the k-th string given, so repeated strings
    share a column and their distances are computed once.
    """

    def __init__(self, strings: Iterable[Sequence[int]]):
        rows: dict[tuple, int] = {}
        self.ids = np.fromiter((rows.setdefault(tuple(s), len(rows)) for s in strings),
                               dtype=np.intp)
        self.strings = list(rows)
        self.lengths = np.fromiter(map(len, self.strings), dtype=np.intp,
                                   count=len(self.strings))
        self.symbols = _pack(self.strings, self.lengths)

    def distances(self, a, b) -> np.ndarray:
        """Unit-cost edit distances between strings `a` and `b` (indices
        into `strings`, broadcast together), as an int64 array of their
        broadcast shape."""
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp))
        return _lev_many(self.symbols, self.lengths, a.ravel(), b.ravel()).reshape(a.shape)

    def normalized(self, a, b) -> np.ndarray:
        """distances(a, b) / max(len(a), len(b)) as float64; two empty strings
        are at distance 0.0."""
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp))
        longest = np.maximum(np.maximum(self.lengths[a], self.lengths[b]), 1)
        return self.distances(a, b) / longest

    def run_pairs(self, sizes: Sequence[int], candidates: Iterable[tuple[int, int]]):
        """For each candidate (k, l) of runs of the strings given, run k
        being the next sizes[k] strings, the pairs of a distinct string of
        run k and one of run l, as columns a and b, each with w, the ordered
        pairs of strings it stands for: c_a * c_b across two runs (c counts
        a string in its run), 2 * c_a * c_b for the unordered pairs of
        distinct strings within one. Returns a, b and w over all candidates
        and each candidate's pair count. One np.unique over (run, column)
        keys counts the strings; with return_counts it leaves numpy.ma
        unimported, which a plain np.unique call imports."""
        n = len(self.strings)
        keys, counts = np.unique(np.repeat(np.arange(len(sizes)), sizes) * n + self.ids,
                                 return_counts=True)
        runs = np.split(np.stack([keys % n, counts]),
                        np.searchsorted(keys, np.arange(1, len(sizes)) * n), axis=1)
        a, b, w = ([np.empty(0, dtype=np.intp)] for _ in range(3))
        pairs = []
        for k, l in candidates:
            (columns_1, counts_1), (columns_2, counts_2) = runs[k], runs[l]
            # every pair across two runs, the pairs i < j within one
            i, j = np.nonzero(np.less.outer(np.arange(len(columns_1)), np.arange(len(columns_2)))
                              | (k != l))
            a.append(columns_1[i])
            b.append(columns_2[j])
            w.append((1 + (k == l)) * counts_1[i] * counts_2[j])
            pairs.append(len(i))
        return np.concatenate(a), np.concatenate(b), np.concatenate(w), pairs


def _lev_rows(a_sym, a_len, b_sym, b_len) -> np.ndarray:
    """Edit distances of a chunk of P pairs, lanes sorted by len(a).

    a_sym (N, P) and b_sym (M, P) hold the strings zero-padded, one lane per
    column. The DP runs one row of all lanes at a time in an (M + 1, P)
    array and stores E[i, j] = D[i, j] - j, so a row is minimum.accumulate
    down the columns over [i, min(E[i-1, j-1] - equal, E[i-1, j] + 1)]: the
    accumulation folds in the insertions. D[i, j] lies in [|i - j|,
    max(i, j)], so E and both terms lie in [-M, N] and the row takes the
    narrowest type that holds them. A column depends only on the columns
    before it, so the padding never reaches column len(b), and each lane's
    distance is read at row len(a), after which the lane drops out.
    """
    n_cols, lanes = b_sym.shape
    n_rows = a_sym.shape[0]
    row = np.zeros((n_cols + 1, lanes), dtype=_narrowest(max(n_rows, n_cols)))
    out = b_len.copy()                       # row 0: len(a) == 0
    starts = np.searchsorted(a_len, np.arange(1, n_rows + 2)).tolist()
    for i in range(1, n_rows + 1):
        start, stop = starts[i - 1], starts[i]
        live = row[:, start:]
        equal = a_sym[i - 1, start:] == b_sym[:, start:]
        np.minimum(live[:-1] - equal, live[1:] + 1, out=live[1:])
        live[0] = i
        np.minimum.accumulate(live, axis=0, out=live)
        if stop > start:
            done = b_len[start:stop]
            out[start:stop] = live[done, np.arange(stop - start)] + done
    return out


def _lev_many(symbols, lengths, a, b) -> np.ndarray:
    """Edit distances between columns a[k] and b[k] of a packed table.

    Each pair puts its shorter string on the rows (fewer steps, the same
    distance); pairs are ordered by shape and cut into chunks of at most
    CHUNK_BYTES // 16 DP cells, (len(a) + 1) * (len(b) + 1) each after padding.
    """
    swap = lengths[a] > lengths[b]
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    rows, cols = lengths[a], lengths[b]
    out = np.empty(len(a), dtype=np.int64)
    for chunk, n_rows, n_cols in _chunks(np.lexsort((cols, rows)), rows, cols,
                                         lambda r, c: (r + 1) * (c + 1), CHUNK_BYTES // 16):
        out[chunk] = _lev_rows(np.take(symbols[:n_rows], a[chunk], axis=1), rows[chunk],
                               np.take(symbols[:n_cols], b[chunk], axis=1), cols[chunk])
    return out


def levenshtein(a: Sequence[int], b: Sequence[int]) -> int:
    """Unit-cost edit distance between two symbol sequences; a one-pair call
    into the batched kernel behind StringTable.distances."""
    table = StringTable([a, b])
    return int(table.distances(table.ids[0], table.ids[1]))


def normalized_levenshtein(a: Sequence[int], b: Sequence[int]) -> float:
    """levenshtein(a, b) / max(len(a), len(b)); undefined when both are empty."""
    longest = max(len(a), len(b))
    if longest == 0:
        raise ValueError("normalized levenshtein undefined for two empty sequences")
    return levenshtein(a, b) / longest


def _score_dtype(scoring: AlignScoring, width: int) -> type:
    """The narrowest signed integer type that holds every Smith-Waterman
    value of sequences up to `width` symbols under integer weights.

    Cell (i, j) holds at most min(i, j) * match, so every sum the fill and
    the traceback form, a cell plus match or a cell (>= 0) plus a penalty,
    lies in [penalty, max(width, 1) * match]. Scores that leave int64 raise
    a ValueError naming the weights.
    """
    match, width = int(scoring.match_score), max(width, 1)
    penalty = int(min(scoring.mismatch_penalty, scoring.gap_penalty))
    bound = max(width * match, -1 - penalty)
    if bound > _SIGNED[-1][0]:
        raise ValueError(f"match_score {match} over {width} symbol(s), or a penalty of "
                         f"{penalty}, makes scores that do not fit in int64")
    return _narrowest(bound)


def _weights(scoring: AlignScoring, dtype) -> tuple:
    """Match, mismatch and gap weights as the `dtype` scalars the fill adds."""
    return (dtype(scoring.match_score), dtype(scoring.mismatch_penalty),
            dtype(scoring.gap_penalty))


def _fill(buffer, a_sym, a_cap, b_rev, b_cap, self_lanes, scoring: AlignScoring):
    """Smith-Waterman matrices of a chunk of P pairs, one anti-diagonal at a time.

    Rows 1..N of lane p hold a_sym[:, p]; columns are stored reversed (column
    j at index M - j) so that every anti-diagonal reads contiguous slices.
    A cap is the largest value of the dtype of `buffer` where a row or
    column is live and 0 where it is masked or padding. The
    returned buffer is diagonal-major and skewed, S[d, i, p] = H_p[i, d - i],
    in the dtype of `buffer`. Each cell is diag + (match | mismatch), then
    the max with up + gap, then with left + gap, and 0 where that is <= 0 or
    the cell is dead (padding, a masked row or column, or the diagonal of a
    self pair in `self_lanes`), exactly as a row-major fill computes it.
    S is a zeroed view of the front of `buffer`, which the caller reuses
    from chunk to chunk.
    """
    n_rows, lanes = a_sym.shape
    n_cols = b_rev.shape[0]
    dtype = buffer.dtype.type
    match, mismatch, gap = _weights(scoring, dtype)
    # integer sums wrap, so eq * (match - mismatch) + mismatch is exact in
    # the fill's dtype even where match - mismatch itself leaves it; uint64
    # holds the difference of two int64 weights, match > 0 >= mismatch
    spread = np.uint64(int(match) - int(mismatch)).astype(dtype)
    shape = (n_rows + n_cols + 1, n_rows + 1, lanes)
    skew = buffer[:shape[0] * shape[1] * lanes].reshape(shape)
    skew.fill(0)
    # the equal cells of a diagonal, and the floor of its scores
    same = np.empty((min(n_rows, n_cols), lanes), bool)
    zeros = np.zeros(same.shape, dtype)
    for d in range(2, n_rows + n_cols + 1):
        lo, hi = max(1, d - n_cols), min(n_rows, d - 1) + 1
        rows = slice(lo - 1, hi - 1)
        cols = slice(n_cols - d + lo, n_cols - d + hi)
        eq = np.equal(a_sym[rows], b_rev[cols], out=same[:hi - lo])
        value = np.multiply(eq.view(np.int8), spread, dtype=dtype)
        value += mismatch
        value += skew[d - 2, rows]
        gapped = skew[d - 1, lo - 1:hi] + gap
        np.maximum(value, gapped[:-1], out=value)
        np.maximum(value, gapped[1:], out=value)
        np.maximum(value, zeros[:hi - lo], out=value)
        np.minimum(value, a_cap[rows], out=value)
        np.minimum(value, b_cap[cols], out=skew[d, lo:hi])
        if self_lanes.size and d % 2 == 0 and lo <= d // 2 < hi:
            skew[d, d // 2, self_lanes] = 0
    return skew


def _best_cells(skew):
    """Per lane, the maximum score and the first row-major cell holding it:
    the first row whose maximum is the best, then the first column of that
    row (the smallest d, as j = d - i) holding it."""
    row_best = skew.max(axis=0)
    best = row_best.max(axis=0)
    i = (row_best == best).argmax(axis=0)
    d = (skew[:, i, np.arange(skew.shape[2])] == best).argmax(axis=0)
    return best, i, d - i, row_best


def _run_bound(best, dead, cap):
    """Per lane, the maximum over positions p of min(best[p], cap[r]), r the
    length of the run of live positions that ends at p (0 where p is dead).
    Positions run down axis 0 of `best` and `dead`."""
    position = np.arange(1, len(dead) + 1, dtype=_narrowest(len(dead)))[:, None]
    runs = position - np.maximum.accumulate(position * dead, axis=0)
    return np.minimum(best, cap[runs]).max(axis=0, initial=0)


def _refill_bounds(skew, row_best, hit, a_dead, b_dead, cap):
    """Per lane in `hit`, an upper bound on the best score of its next fill,
    once rows 1..N (a_dead, down axis 0) and columns 1..M (b_dead) are dead
    as given: the smaller of _run_bound over this fill's row maxima
    (`row_best`, from _best_cells) and over its column maxima. The module
    docstring says why no later fill can exceed it.
    """
    n_rows = len(a_dead)
    step, row, lane = skew.strides
    # columns[j, i] = skew[i + j, i] = H[i, j]
    columns = np.lib.stride_tricks.as_strided(
        skew, (len(skew) - n_rows, n_rows + 1, skew.shape[2]), (step, step + row, lane),
        writeable=False)
    col_best = columns.max(axis=1)
    return np.minimum(_run_bound(row_best[1:, hit], a_dead, cap),
                      _run_bound(col_best[1:, hit], b_dead, cap))


def _traceback(skew, a_sym, b_rev, scoring: AlignScoring, lanes, i, j):
    """Walk the given lanes back from (i, j) to a zero cell, preferring the
    diagonal, then up, then left; returns the cells where the walks stop.

    A walk only moves left while its row is unchanged, so the aligned rows are
    [i_stop, i_start) and the aligned columns [j_stop, j_start).
    """
    n_cols = b_rev.shape[0]
    match, mismatch, gap = _weights(scoring, skew.dtype.type)
    i, j = i.copy(), j.copy()
    moving = lanes
    while moving.size:
        ii, jj = i[moving], j[moving]
        here = skew[ii + jj, ii, moving]
        keep = here > 0
        moving, ii, jj, here = moving[keep], ii[keep], jj[keep], here[keep]
        sub = np.where(a_sym[ii - 1, moving] == b_rev[n_cols - jj, moving], match, mismatch)
        diag = here == skew[ii + jj - 2, ii - 1, moving] + sub
        up = ~diag & (here == skew[ii + jj - 1, ii - 1, moving] + gap)
        i[moving] = ii - (diag | up)
        j[moving] = jj - ~up
    return i, j


def _skew_cells(n_rows, n_cols):
    """Cells of one lane of the skewed buffer of an n_rows x n_cols fill."""
    return (n_rows + n_cols + 1) * (n_rows + 1)


def _chunks(order, rows, cols, cells, budget):
    """Cut `order` into runs whose padded buffers fit `budget` cells: a run of
    P pairs with at most R rows and C columns takes P * cells(R, C) cells
    (a single larger pair makes a run of its own). Yields (indices, R, C)."""
    order = np.asarray(order, dtype=np.intp)
    rows, cols = np.asarray(rows)[order], np.asarray(cols)[order]
    start = 0
    while start < len(order):
        # every pair of the run takes at least cells(rows, cols) of its first
        stop = min(len(order), start + budget // int(cells(rows[start], cols[start])) + 1)
        n_rows = np.maximum.accumulate(rows[start:stop])
        n_cols = np.maximum.accumulate(cols[start:stop])
        used = cells(n_rows, n_cols) * np.arange(1, stop - start + 1)
        take = max(1, int(np.searchsorted(used, budget, side="right")))
        yield order[start:start + take], int(n_rows[take - 1]), int(n_cols[take - 1])
        start += take


def _align_many(seqs, pairs, scoring: AlignScoring) -> tuple[np.ndarray, ...]:
    """local_align(seqs[a], seqs[b], scoring, self_pair) for every (a, b,
    self_pair) in `pairs`, through the batched kernel, as six arrays with one
    entry per alignment: the index of its pair in `pairs`, a0, a1, b0 and b1
    (it aligns seqs[a][a0:a1] with seqs[b][b0:b1]) and its integer score,
    ordered by pair and, within a pair, by the round that extracted it.

    Each round fills every pair still in play, chunk by chunk, and extracts at
    most one alignment per pair; the pairs that extracted one are masked and
    batched together for the next round, unless _refill_bounds shows that
    their next fill cannot reach min_align_score. Pairs are ordered by shape
    so that a chunk pads little. The fill runs in _score_dtype(scoring,
    width), and a chunk's skewed buffer holds at most CHUNK_BYTES of it.
    """
    scoring.validate()
    lengths = np.fromiter(map(len, seqs), dtype=np.intp, count=len(seqs))
    # column u of `forward` holds sequence u from the top; column u of
    # `backward` holds it reversed and bottom-aligned, so that matrix column j
    # (sequence position j - 1) of a b side sits at row width - j
    forward = _pack(seqs, lengths)
    backward = forward[::-1]
    width = len(forward)
    a_of = np.array([a for a, _, _ in pairs], dtype=np.intp)
    b_of = np.array([b for _, b, _ in pairs], dtype=np.intp)
    self_pair = np.array([flag for _, _, flag in pairs], dtype=bool)
    rows, cols = np.take(lengths, a_of), np.take(lengths, b_of)
    # dead positions of pair k: padding, then every aligned span
    position = np.arange(width)[:, None]
    a_dead = position >= rows
    b_dead = position < width - cols

    dtype = _score_dtype(scoring, width)
    live = np.iinfo(dtype).max
    budget = CHUNK_BYTES // np.dtype(dtype).itemsize
    buffer = np.empty(0, dtype)
    # cap[r]: the most that r rows (or columns) of an alignment can score
    cap = np.zeros(width + 1, dtype)
    cap[1:] = np.cumsum(np.full(width, scoring.match_score, dtype))
    # cap of a live position, then of a dead one, picked by dead.view(np.uint8)
    caps = np.array([live, 0], dtype)
    # per round and chunk: pair, a0, a1, b0, b1, score of each kept alignment
    found = [(np.empty(0, np.intp),) * 5 + (np.empty(0, dtype),)]
    todo = np.lexsort((cols, rows))
    while todo.size:
        extracted = []
        for chunk, n_rows, n_cols in _chunks(todo, rows, cols, _skew_cells, budget):
            tail = slice(width - n_cols, width)
            cells = _skew_cells(n_rows, n_cols) * len(chunk)
            if buffer.size < cells:
                buffer = np.empty(max(cells, budget), dtype)
            a_sym = np.take(forward[:n_rows], a_of[chunk], axis=1)
            b_rev = np.take(backward[tail], b_of[chunk], axis=1)
            a_cap = np.take(caps, np.take(a_dead[:n_rows], chunk, axis=1).view(np.uint8))
            b_cap = np.take(caps, np.take(b_dead[tail], chunk, axis=1).view(np.uint8))
            skew = _fill(buffer, a_sym, a_cap, b_rev, b_cap,
                         np.flatnonzero(self_pair[chunk]), scoring)
            best, i_end, j_end, row_best = _best_cells(skew)
            hit = np.flatnonzero(best >= scoring.min_align_score)
            i_start, j_start = _traceback(skew, a_sym, b_rev, scoring, hit, i_end, j_end)
            k = chunk[hit]
            a0, a1, b0, b1 = i_start[hit], i_end[hit], j_start[hit], j_end[hit]
            # mask the aligned rows [a0, a1) and columns [b0, b1) of each hit
            # pair; column j sits at row n_cols - j of the tail
            a_rows, b_rows = position[:n_rows], position[:n_cols]
            a_masked = a_dead[:n_rows, k] | ((a0 <= a_rows) & (a_rows < a1))
            b_masked = b_dead[tail, k] | ((n_cols - b1 <= b_rows) & (b_rows < n_cols - b0))
            a_dead[:n_rows, k] = a_masked
            b_dead[tail, k] = b_masked
            keep = ((a1 - a0 >= scoring.min_length) & (b1 - b0 >= scoring.min_length)
                    & ~(self_pair[k] & (a0 == b0) & (a1 == b1)))
            found.append(tuple(v[keep] for v in (
                k, a0, a1, b0, b1, best[hit])))
            # a pair goes on only if its next fill can still reach the threshold
            bound = _refill_bounds(skew, row_best, hit, a_masked, b_masked[::-1], cap)
            extracted.append(k[bound >= scoring.min_align_score])
        todo = np.concatenate(extracted)
    # a pair extracts at most one alignment per round, so a stable sort by
    # pair keeps each pair's alignments in round order
    columns = [np.concatenate(column) for column in zip(*found)]
    order = np.argsort(columns[0], kind="stable")
    return tuple(column[order] for column in columns)


def local_align(a: Sequence[int], b: Sequence[int], scoring: AlignScoring,
                self_pair: bool = False) -> list[tuple[Span, Span, int]]:
    """All maximal local alignments meeting the score and length thresholds.

    Alignments are extracted best-first; the positions they consume are then
    masked on each side, so returned spans never overlap within this pair.
    For self alignment the main diagonal is banned and identical span pairs
    are discarded.

    This is a one-pair call into the batched kernel that discover_segments
    uses, with its chunks, cell types and tie-breaking (see the module
    docstring and CHUNK_BYTES); a pair of lengths n and m takes
    (n + m + 1) * (n + 1) score cells.
    """
    _pair, *found = (v.tolist() for v in _align_many([a, b], [(0, 1, self_pair)], scoring))
    return [((a0, a1), (b0, b1), score) for a0, a1, b0, b1, score in zip(*found)]


def discover_segments(corpus: Corpus, scoring: AlignScoring) -> list[Segment]:
    """Run local alignment over all unordered utterance pairs (self pairs
    included) and convert every aligned span into a deduplicated Segment.

    Segment ids are dense in discovery order. A budget guard rejects corpora
    whose single-pass DP cell count would exceed MAX_DP_CELLS. It bounds
    total work (each extracted alignment adds at most one more fill of its
    pair), not memory, which the chunks of the batched kernel bound (see the
    module docstring and CHUNK_BYTES); only a single pair larger than a
    chunk gets a buffer of its own size.
    """
    utts = list(corpus)
    seqs = [utt.transcription for utt in utts]
    # every pair of utterances i <= j, row by row
    first_utt, second_utt = np.triu_indices(len(utts))
    tasks = list(zip(first_utt.tolist(), second_utt.tolist(),
                     (first_utt == second_utt).tolist()))
    # sum of len(a) * len(b) over the pairs a <= b: half of (sum of lengths)**2
    # plus the squares of the self pairs
    lengths = [len(seq) for seq in seqs]
    cells = (sum(lengths) ** 2 + sum(n * n for n in lengths)) // 2
    if cells > MAX_DP_CELLS:
        raise ScaleError(
            f"alignment budget exceeded: {cells} DP cells > {MAX_DP_CELLS}; "
            "shrink the corpus"
        )

    pair, a0, a1, b0, b1, _score = _align_many(seqs, tasks, scoring)

    # every aligned span once, in discovery order: the (utterance, lo, hi)
    # keys of each alignment's a side, then b side, as one integer each;
    # the sorted first occurrences of the distinct keys are in that order
    utt, lo, hi = (np.stack(both, axis=1).ravel() for both in (
        (first_utt[pair], second_utt[pair]), (a0, b0), (a1, b1)))
    width = max(lengths, default=0) + 1
    _, first = np.unique((utt * width + lo) * width + hi, return_index=True)
    first.sort()
    utt, lo, hi = utt[first], lo[first], hi[first]
    # frame spans of every utterance's symbols, one row per symbol
    spans = np.fromiter(chain.from_iterable(chain.from_iterable(
        u.frame_spans for u in utts)), dtype=np.int64, count=2 * sum(lengths)).reshape(-1, 2)
    offset = np.cumsum([0, *lengths])[utt]
    starts, ends = spans[offset + lo, 0].tolist(), spans[offset + hi - 1, 1].tolist()
    return [Segment(id=k, utterance_id=utts[u].id, start=start, end=end,
                    symbols=seqs[u][i0:i1])
            for k, (u, i0, i1, start, end) in enumerate(
                zip(utt.tolist(), lo.tolist(), hi.tolist(), starts, ends))]


def write_segments(path, segments: list[Segment]) -> None:
    """segments.jsonl: one segment per line (id, utterance, span, symbols),
    each line the json.dumps(..., sort_keys=True) of that object."""
    quoted = {utt: json.dumps(utt) for utt in {seg.utterance_id for seg in segments}}
    with atomic_write(path) as fh:
        fh.write("".join(
            f'{{"id": {seg.id}, "span": [{seg.start}, {seg.end}], '
            f'"symbols": [{", ".join(map(str, seg.symbols))}], '
            f'"utterance": {quoted[seg.utterance_id]}}}\n' for seg in segments))


@dataclass
class _SegmentLine:
    id: int
    span: Span
    symbols: tuple[int, ...]
    utterance: str


def load_segments(path) -> list[Segment]:
    """The segments of a segments.jsonl, its lines joined in bytes into one
    JSON array and read by `from_json`. A torn or non-UTF-8 line, one that
    is not a segment, or a repeated segment id raises a ValueError that
    starts with the path."""
    try:
        with open(path, "rb") as fh:
            blobs = json.loads(b"[" + b",".join(fh.read().splitlines()) + b"]")
        lines = from_json(list[_SegmentLine], blobs, "segments", complete=True)
        repeated = [i for i, n in Counter(line.id for line in lines).items() if n > 1]
        if repeated:
            raise ValueError(f"segment id {repeated[0]} appears more than once")
        return [Segment(line.id, line.utterance, *line.span, line.symbols) for line in lines]
    except json.JSONDecodeError as exc:   # its position is in the array, not the file
        raise ValueError(f"{path}: a line is not one JSON object ({exc.msg})") from None
    except UnicodeDecodeError as exc:   # its position likewise
        raise ValueError(f"{path}: not UTF-8 ({exc.reason})") from None
    except ValueError as exc:   # not a segment line, or not a segment
        raise ValueError(f"{path}: {exc}") from None
