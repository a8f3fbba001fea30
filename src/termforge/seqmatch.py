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
of columns at a time. The kernel puts the shorter string of each pair on
the DP rows, orders the pairs by shape, cuts them into chunks of at most
CHUNK_BYTES // 16 = 2**17 DP cells (as many as under the earlier 1 MiB
budget; larger chunks made corpus synthesis slower in a fresh process, see
CHUNK_BYTES) and runs the DP one row at a time, vectorised over the pairs
and columns of a chunk: substitutions and deletions from the row above,
then insertions folded in by a running minimum down the columns. A row is
a (columns + 1, lanes) array, so each step of that running minimum is one
operation over contiguous lanes, and it takes the narrowest signed type
that holds the chunk's row and column counts (int8 up to 127 symbols, then
int16). Distances are exact integers; nothing is memoized between calls.
tests/lev_oracle.py keeps the scalar row-by-row DP as the reference.

Local alignment is Smith-Waterman with a linear gap penalty, computed by one
batched numpy kernel for every caller (local_align and discover_segments).
The kernel packs sequence pairs into lanes, cuts them into chunks whose
buffer holds at most CHUNK_BYTES (2 MiB: 2**21 int8, 2**20 int16 or 2**18
float64 cells) and fills a chunk one anti-diagonal at a time in a skewed,
diagonal-major buffer S[d, i, p] = H_p[i, d - i], so every step reads
contiguous slices; a fill spends much of its time in the overhead of those
per-diagonal numpy calls, which a larger chunk spreads over more lanes.
Each round extracts at most one alignment per pair: the best cell is the
first row-major maximum, and the traceback prefers the diagonal, then up,
then left. The aligned positions of every pair of a chunk are masked at
once, and the pairs that extracted an alignment are filled again, batched
together, in the next round, except those whose re-fill this round's fill
already rules out (below).

Per anti-diagonal the fill makes only calls that stay on numpy's fast
paths: np.equal into a preallocated bool buffer; the substitution score as
eq * (match - mismatch) + mismatch in wrapping integer arithmetic, or as
eq * match + ~eq * mismatch in float64, where match - mismatch may round
(both exact, signed zeros included); adds and maxima of arrays and scalars
of the fill's type; the floor at 0 against an array of zeros; and the caps
as two minima against arrays. np.where with scalar operands and a ufunc
given a Python number take numpy's generic paths. On a (20, 700) int8
diagonal (2-core Xeon, numpy 2.4) np.where(eq, match, mismatch) took about
60 us and np.maximum(v, 0) 14-16 us, against 1.5-1.8 us for
np.maximum(v, zeros) and 2 us for v + np.int8(-1); one 35 x 43 int8 fill
over 700 lanes went from 3.3-5.5 ms to 1.3-2.1 ms. A test keeps both
calls out of the loop.

The bound that rules out a re-fill is exact. Masking only lowers caps, and
every step of the recurrence (a max, a min, or adding a weight, rounded in
float64) is monotone, so no cell of a pair's next fill exceeds that cell of
this fill. An alignment that ends in row i also lies in the run of live
rows that ends at row i, so a cell of row i holds at most cap[r] for a run
of r rows, where cap is the running sum of match in the fill's type,
rounded as the fill rounds its sums; the same holds for columns. The
maximum over live rows of min(row maximum, cap[run]), and the same over
columns, thus bound the next fill's best score, and a pair whose smaller
bound is below min_align_score leaves the next round. On the 67-utterance
corpus 0 of the discover-67x14 benchmark at seed 3, 2,278 pairs took
4,805 lane fills, of which this leaves out 1,346.

The fill runs in int8 when the match, mismatch and gap weights are
integers, width * match <= 127 for the longest sequence's width, and both
penalties are >= -128 (the default 1/-1/-1 scoring on sequences of up to
127 symbols qualifies); in int16 under the same rule with 32767 and -32768;
and in float64 for any other scoring. An int8 chunk holds eight times the
lanes of a float64 one in the same bytes, so the fill makes an eighth of
the numpy calls. Under that rule every value the fill and traceback form is
an integer inside the chosen type, which float64 holds exactly as well, and
max, min and == agree between them, so all three types pick the same cells
and float(score) is the same. Every cell performs the operations of a
row-major fill in the same order, so scores and tie-breaks match it bit for
bit for any AlignScoring; tests/sw_oracle.py keeps that row-major float
fill as the reference.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, Segment
from .util import ScaleError, atomic_write

Span = tuple[int, int]

# Bytes of the skewed Smith-Waterman buffer of one batched chunk, whatever
# the corpus size: 2**21 int8, 2**20 int16 or 2**18 float64 cells. A fill
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
    """int8, else int16, when the weights are integers and no Smith-Waterman
    value of sequences up to `width` symbols leaves that type; float64
    otherwise.

    Cell (i, j) holds at most min(i, j) * match, so every sum the fill and
    the traceback form, a cell plus match or a cell (>= 0) plus a penalty,
    lies in [penalty, width * match]. With width * match <= 127 (match alone
    for width 0) and both penalties >= -128 no int8 sum wraps, and with
    32767 and -32768 no int16 sum. Each sum is then an integer that float64
    holds exactly as well, and max, min and == agree between the types, so
    an integer fill stores the values of the float64 fill and picks the same
    cells; float(score) is unchanged.
    """
    weights = (scoring.match_score, scoring.mismatch_penalty, scoring.gap_penalty)
    if all(float(w).is_integer() for w in weights):
        for top, dtype in _SIGNED[:2]:
            if (max(width, 1) * scoring.match_score <= top
                    and min(scoring.mismatch_penalty, scoring.gap_penalty) >= -top - 1):
                return dtype
    return np.float64


def _weights(scoring: AlignScoring, dtype) -> tuple:
    """Match, mismatch and gap weights as the `dtype` scalars the fill adds."""
    return (dtype(scoring.match_score), dtype(scoring.mismatch_penalty),
            dtype(scoring.gap_penalty))


def _fill(buffer, a_sym, a_cap, b_rev, b_cap, self_lanes, scoring: AlignScoring):
    """Smith-Waterman matrices of a chunk of P pairs, one anti-diagonal at a time.

    Rows 1..N of lane p hold a_sym[:, p]; columns are stored reversed (column
    j at index M - j) so that every anti-diagonal reads contiguous slices.
    A cap is the largest value of the dtype of `buffer` (+inf for float64)
    where a row or column is live and 0 where it is masked or padding. The
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
    # the fill's dtype even where match - mismatch itself leaves it
    spread = (None if dtype is np.float64 else
              np.int64(scoring.match_score - scoring.mismatch_penalty).astype(dtype))
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
        if spread is None:
            value = eq * match
            value += ~eq * mismatch
        else:
            value = np.multiply(eq.view(np.int8), spread, dtype=dtype)
            value += mismatch
        value += skew[d - 2, rows]
        gapped = skew[d - 1, lo - 1:hi] + gap
        np.maximum(value, gapped[:-1], out=value)
        np.maximum(value, gapped[1:], out=value)
        # float64 only: no score is ever -0.0, so the max with 0 and the min
        # with the caps store +0.0 exactly where the row-major fill leaves 0.0.
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


def _align_many(seqs, pairs, scoring: AlignScoring) -> list[list[tuple[Span, Span, float]]]:
    """local_align(seqs[a], seqs[b], scoring, self_pair) for every (a, b,
    self_pair) in `pairs`, through the batched kernel.

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
    live = dtype(np.inf if dtype is np.float64 else np.iinfo(dtype).max)
    budget = CHUNK_BYTES // np.dtype(dtype).itemsize
    buffer = np.empty(0, dtype)
    # cap[r]: the most that r rows (or columns) of an alignment can score,
    # summed as the fill sums it
    cap = np.zeros(width + 1, dtype)
    cap[1:] = np.cumsum(np.full(width, scoring.match_score, dtype))
    results: list[list[tuple[Span, Span, float]]] = [[] for _ in pairs]
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
            a_cap = np.where(np.take(a_dead[:n_rows], chunk, axis=1), 0, live)
            b_cap = np.where(np.take(b_dead[tail], chunk, axis=1), 0, live)
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
            for pair, i0, i1, j0, j1, score in zip(*(v[keep].tolist() for v in (
                    k, a0, a1, b0, b1, best[hit].astype(np.float64)))):
                results[pair].append(((i0, i1), (j0, j1), score))
            # a pair goes on only if its next fill can still reach the threshold
            bound = _refill_bounds(skew, row_best, hit, a_masked, b_masked[::-1], cap)
            extracted.append(k[bound >= scoring.min_align_score])
        todo = np.concatenate(extracted)
    return results


def local_align(a: Sequence[int], b: Sequence[int], scoring: AlignScoring,
                self_pair: bool = False) -> list[tuple[Span, Span, float]]:
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
    return _align_many([a, b], [(0, 1, self_pair)], scoring)[0]


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
    tasks = [(i, j, i == j) for i in range(len(utts)) for j in range(i, len(utts))]
    # sum of len(a) * len(b) over the pairs a <= b: half of (sum of lengths)**2
    # plus the squares of the self pairs
    lengths = [len(seq) for seq in seqs]
    cells = (sum(lengths) ** 2 + sum(n * n for n in lengths)) // 2
    if cells > MAX_DP_CELLS:
        raise ScaleError(
            f"alignment budget exceeded: {cells} DP cells > {MAX_DP_CELLS}; "
            "shrink the corpus"
        )

    alignments = _align_many(seqs, tasks, scoring)

    # every aligned span once, in discovery order: (utterance, symbol span)
    spans = dict.fromkeys(
        key for (i, j, _), found in zip(tasks, alignments)
        for (a0, a1), (b0, b1), _score in found for key in ((i, a0, a1), (j, b0, b1)))
    return [Segment(id=k, utterance_id=utts[u].id, start=utts[u].frame_spans[lo][0],
                    end=utts[u].frame_spans[hi - 1][1], symbols=utts[u].transcription[lo:hi])
            for k, (u, lo, hi) in enumerate(spans)]


def write_segments(path, segments: list[Segment]) -> None:
    """segments.jsonl: one segment per line (id, utterance, span, symbols),
    each line the json.dumps(..., sort_keys=True) of that object."""
    quoted = {utt: json.dumps(utt) for utt in {seg.utterance_id for seg in segments}}
    with atomic_write(path) as fh:
        fh.write("".join(
            f'{{"id": {seg.id}, "span": [{seg.start}, {seg.end}], '
            f'"symbols": [{", ".join(map(str, seg.symbols))}], '
            f'"utterance": {quoted[seg.utterance_id]}}}\n' for seg in segments))


def load_segments(path) -> list[Segment]:
    """The segments of a segments.jsonl, decoded as one JSON array. A torn
    line, or an object without the keys or shapes of a segment, raises a
    ValueError that starts with the path."""
    try:
        with open(path) as fh:
            blobs = json.loads("[" + ",".join(fh.read().splitlines()) + "]")
    except json.JSONDecodeError as exc:   # its position is in the array, not the file
        raise ValueError(f"{path}: a line is not one JSON object ({exc.msg})") from None
    try:
        return [Segment(id=blob["id"], utterance_id=blob["utterance"], start=blob["span"][0],
                        end=blob["span"][1], symbols=tuple(blob["symbols"]))
                for blob in blobs]
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"{path}: a line is not a segment "
                         f"({type(exc).__name__}: {exc})") from None
