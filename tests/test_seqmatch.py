import ast
import importlib
import json
import logging
import pkgutil
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lev_oracle
import sw_oracle
import termforge
from termforge import cli, recluster, seqmatch, util
from termforge.corpus import Segment
from termforge.recluster import HdbscanParams
from termforge.seqmatch import (AlignScoring, ScaleError, StringTable,
                                discover_segments, levenshtein, local_align,
                                load_segments, normalized_levenshtein,
                                write_segments)
from termforge.synthgen import SynthConfig, generate
from termforge.util import sha256_file

from conftest import make_corpus


def oracle_levenshtein(a, b):
    """Plain recursive edit distance with memoization."""
    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            rec(i - 1, j) + 1,
            rec(i, j - 1) + 1,
            rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )
    return rec(len(a), len(b))


def test_levenshtein_empty_cases():
    assert levenshtein((), (1, 2, 3)) == 3
    assert levenshtein((1, 2, 3), ()) == 3
    assert levenshtein((), ()) == 0


def test_levenshtein_identity():
    s = (4, 4, 2, 9)
    assert levenshtein(s, s) == 0


def test_levenshtein_matches_recursive_oracle_on_spec_pair():
    a, b = (1, 2, 3, 3, 4, 5), (6, 2, 3, 3, 2, 5, 7)
    assert levenshtein(a, b) == oracle_levenshtein(a, b)


def test_levenshtein_matches_oracle_randomly(rng):
    for _ in range(60):
        a = tuple(rng.integers(0, 6, size=rng.integers(0, 10)))
        b = tuple(rng.integers(0, 6, size=rng.integers(0, 10)))
        assert levenshtein(a, b) == oracle_levenshtein(a, b)


def test_levenshtein_metric_axioms(rng):
    seqs = [tuple(rng.integers(0, 5, size=rng.integers(0, 8))) for _ in range(40)]
    for a in seqs[:10]:
        for b in seqs[10:20]:
            d_ab = levenshtein(a, b)
            assert d_ab >= 0
            assert d_ab == levenshtein(b, a)
            assert (d_ab == 0) == (a == b)
            assert abs(len(a) - len(b)) <= d_ab <= max(len(a), len(b), 0)
            for c in seqs[20:25]:
                assert d_ab <= levenshtein(a, c) + levenshtein(c, b)


def test_normalized_identity_and_disjoint():
    assert normalized_levenshtein((1, 2, 3), (1, 2, 3)) == 0.0
    assert normalized_levenshtein((1, 2, 3), (4, 5, 6)) == 1.0


def test_normalized_half():
    assert normalized_levenshtein((1, 2, 3, 4), (1, 2)) == 0.5


def test_normalized_rejects_two_empties():
    with pytest.raises(ValueError, match="undefined"):
        normalized_levenshtein((), ())


def test_normalized_bounded(rng):
    for _ in range(200):
        a = tuple(rng.integers(0, 4, size=rng.integers(1, 9)))
        b = tuple(rng.integers(0, 4, size=rng.integers(0, 9)))
        assert 0.0 <= normalized_levenshtein(a, b) <= 1.0


@st.composite
def symbol_strings(draw, max_len=30):
    """A list of strings over a 1-6 symbol alphabet, with repeats."""
    alphabet = st.integers(0, draw(st.integers(1, 6)) - 1)
    pool = draw(st.lists(st.lists(alphabet, max_size=max_len).map(tuple),
                         min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))


@given(symbol_strings().map(lambda s: s[:2] if len(s) > 1 else s * 2))
@example([(), ()])
@example([(), (0, 1, 2)])
@example([(3,) * 30, (3,) * 30])
# either side of the int8 bound on the DP row: strings of 127 | 128 symbols
@example([(0,) * 127, (1,) * 127])
@example([(0,) * 128, (1,) * 128])
@example([(0,) * 3, (1,) * 200])
@settings(max_examples=300)
def test_levenshtein_matches_scalar_reference(pair):
    a, b = pair
    assert levenshtein(a, b) == lev_oracle.levenshtein(a, b)
    if a or b:
        assert normalized_levenshtein(a, b) == lev_oracle.normalized_levenshtein(a, b)


@given(symbol_strings(), st.sampled_from([seqmatch.CHUNK_BYTES, 1600, 1]), st.data())
def test_mixed_length_distance_batch_matches_reference(strings, chunk_bytes, data):
    # small budgets split the batch into many chunks, down to one pair each
    table = StringTable(strings)
    assert [table.strings[k] for k in table.ids] == [tuple(s) for s in strings]
    rows = st.integers(0, len(strings) - 1)
    pairs = data.draw(st.lists(st.tuples(rows, rows), min_size=1, max_size=40))
    a = table.ids[[i for i, _ in pairs]]
    b = table.ids[[j for _, j in pairs]]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(seqmatch, "CHUNK_BYTES", chunk_bytes)
        distances = table.distances(a, b)
        normalized = table.normalized(a, b)
    assert distances.tolist() == [lev_oracle.levenshtein(strings[i], strings[j])
                                  for i, j in pairs]
    assert normalized.tolist() == [
        lev_oracle.normalized_levenshtein(strings[i], strings[j])
        if strings[i] or strings[j] else 0.0 for i, j in pairs]


def test_distance_batches_broadcast():
    table = StringTable([(1, 2, 3), (1, 3), (), (2, 2, 2, 2)])
    grid = table.distances(np.arange(4)[:, None], np.arange(4)[None, :])
    assert grid.shape == (4, 4)
    assert grid.tolist() == [[lev_oracle.levenshtein(a, b) for b in table.strings]
                             for a in table.strings]
    assert table.distances([], []).shape == (0,)


def test_no_function_in_the_package_is_lru_cached():
    # a process-global memo grows for the life of the process and hides what
    # a per-pair loop costs; edit distances go through the batched kernel
    for info in pkgutil.iter_modules(termforge.__path__):
        module = importlib.import_module(f"termforge.{info.name}")
        cached = [name for name, obj in vars(module).items()
                  if callable(obj) and hasattr(obj, "cache_info")]
        assert cached == [], f"termforge.{info.name}: {cached}"


# --- local alignment ---------------------------------------------------------


def default_scoring(**overrides):
    base = dict(match_score=1.0, mismatch_penalty=-1.0, gap_penalty=-1.0,
                min_align_score=3.0, min_length=3)
    base.update(overrides)
    return AlignScoring(**base)


def test_identical_sequences_align_fully():
    s = (5, 1, 2, 6, 3)
    scoring = default_scoring(min_align_score=len(s) * 1.0)
    [(span_a, span_b, score)] = local_align(s, s, scoring)
    assert span_a == span_b == (0, len(s))
    assert score == len(s)


def test_disjoint_alphabets_align_empty():
    assert local_align((1, 2, 3), (4, 5, 6), default_scoring()) == []


def oracle_best_common_substring(a, b):
    """Longest exact common substring by exhaustive scan (ties: first in a, b)."""
    best = (0, None, None)
    for i in range(len(a)):
        for j in range(len(b)):
            k = 0
            while i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]:
                k += 1
            if k > best[0]:
                best = (k, (i, i + k), (j, j + k))
    return best


def test_planted_substring_recovered(rng):
    # flanks from disjoint alphabets guarantee the planted run is the only match
    for _ in range(25):
        common = tuple(rng.integers(0, 10, size=5))
        flank_a = tuple(rng.integers(10, 20, size=rng.integers(0, 8)))
        flank_b = tuple(rng.integers(20, 30, size=rng.integers(0, 8)))
        a = flank_a + common + tuple(rng.integers(10, 20, size=rng.integers(0, 8)))
        b = flank_b + common + tuple(rng.integers(20, 30, size=rng.integers(0, 8)))
        length, span_a, span_b = oracle_best_common_substring(a, b)
        assert length == 5
        found = local_align(a, b, default_scoring())
        assert len(found) == 1
        assert found[0][0] == span_a
        assert found[0][1] == span_b
        assert found[0][2] == 5.0


def test_alignment_spans_meet_thresholds_and_do_not_overlap(rng):
    scoring = default_scoring()
    for _ in range(40):
        a = tuple(rng.integers(0, 5, size=20))
        b = tuple(rng.integers(0, 5, size=20))
        found = local_align(a, b, scoring)
        used_a = set()
        used_b = set()
        for span_a, span_b, score in found:
            assert score >= scoring.min_align_score
            assert span_a[1] - span_a[0] >= scoring.min_length
            assert span_b[1] - span_b[0] >= scoring.min_length
            positions_a = set(range(*span_a))
            positions_b = set(range(*span_b))
            assert not positions_a & used_a
            assert not positions_b & used_b
            used_a |= positions_a
            used_b |= positions_b


def test_self_alignment_finds_internal_repeat():
    word = (1, 2, 3, 4)
    seq = (9,) + word + (8, 7) + word + (6,)
    found = local_align(seq, seq, default_scoring(), self_pair=True)
    spans = {span for pair in found for span in pair[:2]}
    assert (1, 5) in spans and (7, 11) in spans
    assert all(sa != sb for sa, sb, _ in found)


# --- equivalence with the row-major reference ----------------------------------

# Round values make equal scores, and so tie-breaking, frequent; integers run
# the int16 fill; the floats cover non-dyadic weights whose sums round.
positive = st.one_of(st.sampled_from([1.0, 0.7, 0.5, 2.0]), st.integers(1, 9).map(float),
                     st.floats(0.05, 3.0, allow_nan=False, allow_infinity=False))
penalty = st.one_of(st.sampled_from([-1.0, -0.3, -0.45, -0.5, 0.0]),
                    st.integers(-9, 0).map(float),
                    st.floats(-3.0, 0.0, allow_nan=False, allow_infinity=False))
scorings = st.builds(AlignScoring, match_score=positive, mismatch_penalty=penalty,
                     gap_penalty=penalty, min_align_score=positive,
                     min_length=st.integers(1, 4))


@st.composite
def symbol_pairs(draw, max_len=40):
    """(a, b, self_pair) over a 2-6 symbol alphabet; a self pair aligns a
    sequence with itself, as discovery does."""
    alphabet = st.integers(0, draw(st.integers(2, 6)) - 1)
    a = tuple(draw(st.lists(alphabet, max_size=max_len)))
    if draw(st.booleans()):
        return a, a, draw(st.booleans())
    return a, tuple(draw(st.lists(alphabet, max_size=max_len))), False


@given(symbol_pairs(), scorings)
@example(((0, 1, 0, 1, 1, 0, 1), (1, 0, 1, 1, 0, 1, 0), False),
         AlignScoring(0.7, -0.3, -0.45, 1.1, 1))
@example(((0, 2, 1, 0, 0, 1), (0, 2, 1, 0, 0, 1), True),   # diagonal ties with up
         AlignScoring(1.0, -0.3, -0.3, 1.0, 1))
@example(((0, 1, 0, 0, 1, 1, 0), (0, 1, 1, 0, 1, 1, 1), False),   # integral penalties
         AlignScoring(1.5, -1.0, -2.0, 2.0, 1))
# either side of the int16 bound: width * match 32767 | 32768, a penalty
# -32768 | -32769; the first and third fill in int16, the others in float64
@example(((0,) * 7, (0,) * 7, False), AlignScoring(4681.0, -1.0, -1.0, 3.0, 1))
@example(((0,) * 8, (0,) * 8, False), AlignScoring(4096.0, -1.0, -1.0, 3.0, 1))
@example(((0, 1, 0, 0, 1), (0, 0, 0, 1, 1), False), AlignScoring(2.0, -32768.0, -1.0, 1.0, 1))
@example(((0, 1, 0, 0, 1), (0, 0, 0, 1, 1), False), AlignScoring(2.0, -1.0, -32769.0, 1.0, 1))
# either side of the int8 bound: width * match 127 | 128, a penalty -128 |
# -129; the first and third fill in int8, the others in int16
@example(((0,) * 127, (0,) * 127, False), AlignScoring(1.0, -1.0, -1.0, 3.0, 1))
@example(((0,) * 128, (0,) * 128, False), AlignScoring(1.0, -1.0, -1.0, 3.0, 1))
@example(((0, 1, 0, 0, 1), (0, 0, 0, 1, 1), False), AlignScoring(2.0, -128.0, -1.0, 1.0, 1))
@example(((0, 1, 0, 0, 1), (0, 0, 0, 1, 1), False), AlignScoring(2.0, -1.0, -129.0, 1.0, 1))
@settings(max_examples=300)
def test_local_align_matches_reference(pair, scoring):
    a, b, self_pair = pair
    assert local_align(a, b, scoring, self_pair) == sw_oracle.local_align(a, b, scoring, self_pair)


@given(st.lists(symbol_pairs(), min_size=1, max_size=12), scorings,
       st.sampled_from([seqmatch.CHUNK_BYTES, 16000, 1]))
def test_mixed_length_batch_matches_reference(pairs, scoring, chunk_bytes):
    # small budgets split the batch into many chunks, down to one pair each
    seqs = [seq for a, b, _ in pairs for seq in (a, b)]
    tasks = [(2 * k, 2 * k + 1, self_pair) for k, (_, _, self_pair) in enumerate(pairs)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(seqmatch, "CHUNK_BYTES", chunk_bytes)
        batched = seqmatch._align_many(seqs, tasks, scoring)
    for (a, b, self_pair), found in zip(pairs, batched):
        assert found == sw_oracle.local_align(a, b, scoring, self_pair)


def expected_dtype(scoring, width):
    """int8, else int16, when the weights are integers, max(width, 1) * match
    is at most the type's largest value and both penalties at least its
    smallest; float64 otherwise."""
    weights = (scoring.match_score, scoring.mismatch_penalty, scoring.gap_penalty)
    if all(w == int(w) for w in weights):
        for dtype in (np.int8, np.int16):
            info = np.iinfo(dtype)
            if max(width, 1) * scoring.match_score <= info.max and min(weights) >= info.min:
                return dtype
    return np.float64


@pytest.mark.parametrize("width, scoring, dtype", [
    (7, AlignScoring(4681.0, -1.0, -1.0), np.int16),
    (8, AlignScoring(4096.0, -1.0, -1.0), np.float64),
    (0, AlignScoring(1e9, -1.0, -1.0), np.float64),
    (40, AlignScoring(1.0, -32768.0, -32768.0), np.int16),
    (40, AlignScoring(1.0, -32769.0, -1.0), np.float64),
    (40, AlignScoring(1.0, -1.0, -32769.0), np.float64),
    (40, AlignScoring(1.0, -1.0, -0.5), np.float64),
    (40, AlignScoring(4.0, -1.0, -1.0), np.int16),
    (40, AlignScoring(), np.int8),
    (127, AlignScoring(), np.int8),
    (128, AlignScoring(), np.int16),
    (0, AlignScoring(127.0, -1.0, -1.0), np.int8),
    (0, AlignScoring(128.0, -1.0, -1.0), np.int16),
    (40, AlignScoring(1.0, -128.0, -128.0), np.int8),
    (40, AlignScoring(1.0, -129.0, -1.0), np.int16),
    (40, AlignScoring(1.0, -1.0, -129.0), np.int16),
])
def test_fill_dtype_follows_the_int16_bound(width, scoring, dtype):
    # the three tiers: int8, then int16, then float64
    assert seqmatch._score_dtype(scoring, width) is dtype
    assert expected_dtype(scoring, width) is dtype


@given(st.lists(symbol_pairs(), min_size=1, max_size=12), scorings,
       st.sampled_from([seqmatch.CHUNK_BYTES, 16000, 3000, 1]))
# either side of the int8 bound, as in test_local_align_matches_reference
@example([((0,) * 127, (0,) * 127, False)], AlignScoring(1.0, -1.0, -1.0, 3.0, 1),
         seqmatch.CHUNK_BYTES)
@example([((0,) * 128, (0,) * 128, False)], AlignScoring(1.0, -1.0, -1.0, 3.0, 1),
         seqmatch.CHUNK_BYTES)
@example([((0, 1, 0, 0, 1), (0, 0, 0, 1, 1), False)] * 4,
         AlignScoring(2.0, -128.0, -1.0, 1.0, 1), 3000)
@example([((0, 1, 0, 0, 1), (0, 0, 0, 1, 1), False)] * 4,
         AlignScoring(2.0, -1.0, -129.0, 1.0, 1), 3000)
def test_sw_chunks_fit_the_byte_budget(pairs, scoring, chunk_bytes):
    # every skewed buffer the kernel fills fits the byte budget at the dtype
    # the scoring selects, unless it holds a single pair
    seqs = [seq for a, b, _ in pairs for seq in (a, b)]
    tasks = [(2 * k, 2 * k + 1, self_pair) for k, (_, _, self_pair) in enumerate(pairs)]
    dtype = expected_dtype(scoring, max(map(len, seqs)))
    filled = []

    def spy(*args):
        skew = fill(*args)
        filled.append(skew)
        return skew

    fill = seqmatch._fill
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(seqmatch, "CHUNK_BYTES", chunk_bytes)
        patch.setattr(seqmatch, "_fill", spy)
        seqmatch._align_many(seqs, tasks, scoring)
    assert filled
    for skew in filled:
        assert skew.dtype == dtype
        assert skew.nbytes <= chunk_bytes or skew.shape[2] == 1


# symbols either side of the int8, int16 and int32 bounds, which the packed
# symbol arrays of both kernels must hold without wrapping
BOUND_SYMBOLS = (0, -1, 127, 128, 255, 256, 32767, 32768, 2**31, -129, -32769)


@st.composite
def bound_symbol_strings(draw):
    """Two to six strings over a one to three symbol alphabet drawn from
    BOUND_SYMBOLS."""
    alphabet = draw(st.lists(st.sampled_from(BOUND_SYMBOLS), min_size=1, max_size=3,
                             unique=True))
    return draw(st.lists(st.lists(st.sampled_from(alphabet), max_size=12).map(tuple),
                         min_size=2, max_size=6))


@given(bound_symbol_strings(), st.booleans())
# each pair of symbols below is equal once wrapped to the next narrower type
@example([(0, 256, 0), (256, 0, 256, 0)], False)
@example([(-1, 127, 127, 127), (255, 127, 127, 127)], False)
@example([(-129, 0, 0), (127, 0, 0)], False)
@example([(32768, 0, 0, 0), (-32768, 0, 0, 0)], True)
@example([(2**31, 1, 1), (-2**31, 1, 1)], False)
@settings(max_examples=200)
def test_symbols_at_type_bounds_match_reference(strings, self_pair):
    scoring = default_scoring(min_align_score=2.0, min_length=2)
    a, b = strings[0], strings[0] if self_pair else strings[1]
    assert local_align(a, b, scoring, self_pair) == sw_oracle.local_align(a, b, scoring,
                                                                        self_pair)
    table = StringTable(strings)
    every = np.arange(len(table.strings))
    assert table.distances(every[:, None], every[None, :]).tolist() == [
        [lev_oracle.levenshtein(u, v) for v in table.strings] for u in table.strings]


def noisy_corpus():
    corpus, _ = generate(SynthConfig(
        vocabulary_size=6, word_length_range=(4, 7), occurrences_per_word=5,
        words_per_utterance=3, symbol_substitution_rate=0.1, filler_rate=0.3,
        min_word_separation=0.5, alphabet_size=25, feature_dim=4), 11)
    return corpus


def test_discovery_matches_reference_on_noisy_corpus():
    corpus = noisy_corpus()
    scoring = default_scoring()
    found = discover_segments(corpus, scoring)
    assert len(found) > 10
    assert found == sw_oracle.discover_segments(corpus, scoring)


def oracle_fill_bests(a, b, scoring, self_pair):
    """The best score of every fill the reference makes for one pair: one
    per extracted alignment, then the one that ends the pair."""
    bests = []

    def spy(*args):
        rows, best, i, j = fill(*args)
        bests.append(best)
        return rows, best, i, j

    fill = sw_oracle.sw_fill
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sw_oracle, "sw_fill", spy)
        sw_oracle.local_align(a, b, scoring, self_pair)
    return bests


@given(st.lists(symbol_pairs(), min_size=1, max_size=6), scorings,
       st.sampled_from([seqmatch.CHUNK_BYTES, 3000, 1]))
# the int8 edges of test_local_align_matches_reference, and an int16 fill
@example([((0,) * 127, (0,) * 127, False)], AlignScoring(1.0, -1.0, -1.0, 3.0, 1),
         seqmatch.CHUNK_BYTES)
@example([((0,) * 128, (0,) * 128, False)], AlignScoring(1.0, -1.0, -1.0, 3.0, 1),
         seqmatch.CHUNK_BYTES)
@example([((0, 1, 0, 0, 1), (0, 0, 0, 1, 1), False)] * 3,
         AlignScoring(2.0, -128.0, -1.0, 1.0, 1), 3000)
@example([((0, 1, 0, 0, 1), (0, 0, 0, 1, 1), False)] * 3,
         AlignScoring(2.0, -1.0, -129.0, 1.0, 1), 3000)
@example([((0, 1, 0, 1, 1, 0, 1), (0, 1, 0, 1, 1, 0, 1), True)],
         AlignScoring(4681.0, -1.0, -1.0, 3.0, 1), seqmatch.CHUNK_BYTES)
@settings(max_examples=150)
def test_refill_bound_covers_the_next_fill(pairs, scoring, chunk_bytes):
    # every alignment the kernel extracts comes with a bound on its pair's
    # next fill; the reference makes that fill, and it never scores higher
    seqs = [seq for a, b, _ in pairs for seq in (a, b)]
    tasks = [(2 * k, 2 * k + 1, self_pair) for k, (_, _, self_pair) in enumerate(pairs)]
    chunk = []
    bounds = {k: [] for k in range(len(pairs))}

    def chunks_spy(*args):
        for step in chunks(*args):
            chunk[:] = [step[0]]
            yield step

    def bounds_spy(skew, row_best, hit, *args):
        bound = refill_bounds(skew, row_best, hit, *args)
        for k, value in zip(chunk[0][hit].tolist(), bound.tolist()):
            bounds[k].append(value)
        return bound

    chunks, refill_bounds = seqmatch._chunks, seqmatch._refill_bounds
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(seqmatch, "CHUNK_BYTES", chunk_bytes)
        patch.setattr(seqmatch, "_chunks", chunks_spy)
        patch.setattr(seqmatch, "_refill_bounds", bounds_spy)
        seqmatch._align_many(seqs, tasks, scoring)
    for k, (a, b, self_pair) in enumerate(pairs):
        bests = oracle_fill_bests(a, b, scoring, self_pair)
        assert len(bounds[k]) == len(bests) - 1
        assert all(bound >= best for bound, best in zip(bounds[k], bests[1:]))


def test_discovery_skips_refills_the_bound_rules_out(monkeypatch):
    # the reference fills each pair once per extracted alignment and once
    # more; the kernel leaves out the last fill wherever the bound allows
    corpus = noisy_corpus()
    scoring = default_scoring()
    lanes, oracle_fills = [], []

    def spy(*args):
        skew = fill(*args)
        lanes.append(skew.shape[2])
        return skew

    def oracle_spy(*args):
        oracle_fills.append(1)
        return oracle_fill(*args)

    fill, oracle_fill = seqmatch._fill, sw_oracle.sw_fill
    monkeypatch.setattr(seqmatch, "_fill", spy)
    monkeypatch.setattr(sw_oracle, "sw_fill", oracle_spy)
    assert discover_segments(corpus, scoring) == sw_oracle.discover_segments(corpus, scoring)
    assert sum(lanes) < len(oracle_fills)


def is_number(node):
    """True for a numeric literal, negated or not."""
    if isinstance(node, ast.UnaryOp):
        return is_number(node.operand)
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float, complex))


def test_fill_loop_keeps_off_numpy_slow_paths():
    """np.where with scalar operands, and a ufunc given a Python number, take
    numpy's slow paths: on a (20, 700) int8 diagonal np.where took about
    60 us and np.maximum(v, 0) 14-16 us, against 1.5-1.8 us for
    np.maximum(v, zeros). The per-diagonal loop of _fill makes neither call."""
    tree = ast.parse(Path(seqmatch.__file__).read_text())
    [fill] = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "_fill"]
    loops = [node for node in ast.walk(fill) if isinstance(node, ast.For)]
    assert loops
    slow = []
    for node in (call for loop in loops for call in ast.walk(loop)
                 if isinstance(call, ast.Call)):
        name = ast.unparse(node.func)
        module, _, attr = name.partition(".")
        if module not in ("np", "numpy"):
            continue
        ufunc = isinstance(getattr(np, attr, None), np.ufunc)
        if attr == "where" or ufunc and any(
                map(is_number, node.args + [kw.value for kw in node.keywords])):
            slow.append(f"{node.lineno}: {ast.unparse(node)}")
    assert slow == []


def test_non_finite_scores_rejected():
    with pytest.raises(ValueError, match="finite"):
        local_align((1, 2), (1, 2), default_scoring(gap_penalty=float("-inf")))


# --- discover_segments -------------------------------------------------------


def test_discovery_of_repeated_word_in_one_utterance():
    word = [3, 4, 5, 6]
    corpus = make_corpus([[20] + word + [21, 22] + word + [23]])
    segments = discover_segments(corpus, default_scoring())
    spans = {(s.start, s.end) for s in segments}
    utt = corpus["u0"]
    expected = {
        (utt.frame_spans[1][0], utt.frame_spans[4][1]),
        (utt.frame_spans[7][0], utt.frame_spans[10][1]),
    }
    assert expected <= spans


def test_no_repetition_discovers_nothing():
    corpus = make_corpus([[1, 2, 3, 4], [5, 6, 7, 8]])
    assert discover_segments(corpus, default_scoring()) == []


def test_discovery_deterministic():
    corpus = make_corpus([[1, 2, 3, 4, 9], [7, 1, 2, 3, 4], [1, 2, 3, 4, 5]])
    first = discover_segments(corpus, default_scoring())
    second = discover_segments(corpus, default_scoring())
    assert [(s.id, s.utterance_id, s.start, s.end, s.symbols) for s in first] \
        == [(s.id, s.utterance_id, s.start, s.end, s.symbols) for s in second]


def test_segment_ids_dense_and_symbols_consistent():
    corpus = make_corpus([[1, 2, 3, 4, 9], [7, 1, 2, 3, 4]])
    segments = discover_segments(corpus, default_scoring())
    assert [s.id for s in segments] == list(range(len(segments)))
    for seg in segments:
        utt = corpus[seg.utterance_id]
        lo = [s for s, _ in utt.frame_spans].index(seg.start)
        hi = [e for _, e in utt.frame_spans].index(seg.end) + 1
        assert utt.transcription[lo:hi] == seg.symbols


def test_budget_guard_trips(monkeypatch):
    corpus = make_corpus([list(range(30)), list(range(30))])
    monkeypatch.setattr(seqmatch, "MAX_DP_CELLS", 10)
    with pytest.raises(ScaleError, match="budget"):
        discover_segments(corpus, default_scoring())


def test_both_scale_guards_raise_one_class(monkeypatch):
    assert seqmatch.ScaleError is recluster.ScaleError is util.ScaleError
    monkeypatch.setattr(recluster, "DENSE_MATRIX_BYTES", 8 * 10**2)
    with pytest.raises(seqmatch.ScaleError, match="guard"):
        recluster.hdbscan(np.zeros((30, 2)), HdbscanParams(min_cluster_size=3, min_samples=2))


@st.composite
def segment_lists(draw):
    """Segments with utterance ids that need JSON escaping (quotes,
    backslashes, control and non-ASCII characters) among plain ones."""
    utt_ids = st.one_of(st.sampled_from(["u0", 'u"1\\', "u\n2", "\u00e93", "\U0001f6004"]),
                        st.text(max_size=6))
    segments = []
    for seg_id in range(draw(st.integers(0, 12))):
        start = draw(st.integers(0, 10**6))
        segments.append(Segment(seg_id, draw(utt_ids), start,
                                start + draw(st.integers(1, 10**4)),
                                tuple(draw(st.lists(st.integers(0, 10**9), min_size=1,
                                                    max_size=8)))))
    return segments


@given(segment_lists())
@settings(max_examples=300)
def test_segments_jsonl_matches_line_by_line_codec(tmp_path_factory, segments):
    path = tmp_path_factory.mktemp("jsonl") / "segments.jsonl"
    sw_oracle.write_segments(path, segments)
    expected = path.read_bytes()
    assert load_segments(path) == sw_oracle.load_segments(path) == segments
    write_segments(path, segments)
    assert path.read_bytes() == expected


def test_segments_jsonl_round_trip(tmp_path):
    corpus = make_corpus([[1, 2, 3, 4, 9], [7, 1, 2, 3, 4]])
    segments = discover_segments(corpus, default_scoring())
    path = tmp_path / "segments.jsonl"
    write_segments(path, segments)
    restored = load_segments(path)
    assert [(s.id, s.utterance_id, s.start, s.end, s.symbols) for s in restored] \
        == [(s.id, s.utterance_id, s.start, s.end, s.symbols) for s in segments]


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:-1] + [lines[-1][:15]], "Unterminated string"),
    (lambda lines: lines[:1] + [lines[1][:-1]] + lines[2:], "Expecting property name"),
    (lambda lines: lines[:2] + [""] + lines[2:], "Expecting value"),
    (lambda lines: ["{"] + lines[1:], "Expecting property name"),
], ids=["last-line-cut", "brace-dropped", "empty-line", "first-line-open"])
def test_torn_segments_line_is_refused_naming_the_file(tmp_path, edit, message):
    path = tmp_path / "segments.jsonl"
    write_segments(path, [Segment(k, f"u{k}", k, k + 3, (k, 1)) for k in range(4)])
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError) as info:
        load_segments(path)
    assert str(info.value).startswith(f"{path}: a line is not one JSON object ({message}")


@pytest.mark.parametrize("edit, error", [
    (lambda blob: blob.pop("id"), "KeyError: 'id'"),
    (lambda blob: blob.pop("utterance"), "KeyError: 'utterance'"),
    (lambda blob: blob.pop("span"), "KeyError: 'span'"),
    (lambda blob: blob.pop("symbols"), "KeyError: 'symbols'"),
    (lambda blob: blob.update(span=[2]), "IndexError: list index out of range"),
], ids=["no-id", "no-utterance", "no-span", "no-symbols", "one-element-span"])
def test_segment_line_without_its_keys_is_refused_naming_the_file(tmp_path, edit, error):
    path = tmp_path / "segments.jsonl"
    write_segments(path, [Segment(k, f"u{k}", k, k + 3, (k, 1)) for k in range(4)])
    lines = path.read_text().splitlines()
    blob = json.loads(lines[2])
    edit(blob)
    lines[2] = json.dumps(blob)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        load_segments(path)
    assert str(info.value) == f"{path}: a line is not a segment ({error})"


def test_baseline_on_segments_without_a_span_logs_one_line(tmp_path, caplog):
    workdir = tmp_path / "wd"
    (workdir / ".stamps").mkdir(parents=True)
    path = workdir / "segments.jsonl"
    path.write_text('{"id": 0, "symbols": [1, 2, 3], "utterance": "u0"}\n')
    # a discover stamp that records the hand-written file, so baseline reads it
    (workdir / ".stamps" / "discover.json").write_text(json.dumps(
        {"hash": "", "outputs": {"segments.jsonl": sha256_file(path)}}))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"workdir": str(workdir)}))
    with caplog.at_level(logging.ERROR, logger="termforge"):
        assert cli.main(["baseline", "--config", str(config_path)]) == 1
    [record] = caplog.records
    assert record.getMessage() == f"{path}: a line is not a segment (KeyError: 'span')"
    assert not (workdir / "clusters_baseline.json").exists()
