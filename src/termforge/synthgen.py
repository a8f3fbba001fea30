"""Ground-truthed synthetic corpora with planted repeated terms.

Stands in for a real first-stage decoder: utterances are concatenations of
vocabulary words (plus optional filler subwords), features are per-subword
prototype vectors plus Gaussian noise, and the emitted pseudo-transcription
is the true symbol string corrupted by independent substitutions. Features
always come from the TRUE symbols, so embedding learning can outperform
symbol matching once substitution noise is turned on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, GoldAnnotation, GoldToken, Segment, Utterance, UtteranceGold
# normalized_levenshtein stays a module attribute for code that wraps it
from .seqmatch import StringTable, normalized_levenshtein  # noqa: F401
from .util import derive_seed, rng_from


class SynthError(ValueError):
    """Unsatisfiable synthesis configuration."""


@dataclass
class SynthConfig:
    vocabulary_size: int
    word_length_range: tuple[int, int] = (4, 6)
    occurrences_per_word: int = 20
    alphabet_size: int = 55
    feature_dim: int = 40
    frames_per_subword_range: tuple[int, int] = (2, 4)
    symbol_substitution_rate: float = 0.0
    feature_noise_sigma: float = 0.0
    filler_rate: float = 0.0
    words_per_utterance: int = 8
    min_word_separation: float = 0.0   # pairwise normalized Levenshtein floor

    def validate(self) -> None:
        for name in ("vocabulary_size", "occurrences_per_word", "feature_dim"):
            if getattr(self, name) < 1:
                raise SynthError(f"{name} must be positive")
        for name, (lo, hi) in (
            ("word_length_range", self.word_length_range),
            ("frames_per_subword_range", self.frames_per_subword_range),
        ):
            if lo < 1 or hi < lo:
                raise SynthError(f"{name} must be a non-empty positive range")
        for name, rate in (
            ("symbol_substitution_rate", self.symbol_substitution_rate),
            ("filler_rate", self.filler_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise SynthError(f"{name} must be in [0, 1]")
        if self.feature_noise_sigma < 0:
            raise SynthError("feature_noise_sigma must be non-negative")
        if self.alphabet_size < 2:
            raise SynthError("alphabet_size must be at least 2")
        if self.words_per_utterance < 1:
            raise SynthError("words_per_utterance must be positive")
        if not 0.0 <= self.min_word_separation <= 1.0:
            raise SynthError("min_word_separation must be in [0, 1]")


def _sample_vocabulary(config: SynthConfig, seed: int) -> list[tuple[int, ...]]:
    lo, hi = config.word_length_range
    capacity = sum(config.alphabet_size ** length for length in range(lo, hi + 1))
    if config.vocabulary_size > capacity:
        raise SynthError(
            f"cannot build {config.vocabulary_size} distinct words of length "
            f"{lo}..{hi} over {config.alphabet_size} symbols"
        )
    rng = rng_from(derive_seed(seed, "vocabulary"))
    words: list[tuple[int, ...]] = []
    seen = set()
    attempts = 0
    while len(words) < config.vocabulary_size:
        attempts += 1
        if attempts > 1000 * config.vocabulary_size:
            raise SynthError("failed to sample a duplicate-free vocabulary")
        length = int(rng.integers(lo, hi + 1))
        word = tuple(int(s) for s in rng.integers(0, config.alphabet_size, size=length))
        if word in seen:
            continue
        if config.min_word_separation > 0 and words:
            table = StringTable([word, *words])   # word is not among them
            if (table.normalized(0, table.ids[1:]) < config.min_word_separation).any():
                continue
        seen.add(word)
        words.append(word)
    return words


def _substitute(symbols: list[int], rate: float, alphabet: int,
                rng: np.random.Generator) -> list[int]:
    if rate == 0.0 or not symbols:
        return list(symbols)
    flips = rng.random(len(symbols)) < rate
    out = list(symbols)
    for i in np.flatnonzero(flips):
        # uniform over the alphabet minus the original symbol
        repl = int(rng.integers(0, alphabet - 1))
        if repl >= out[i]:
            repl += 1
        out[i] = repl
    return out


def generate(config: SynthConfig, seed: int) -> tuple[Corpus, GoldAnnotation]:
    """Build a corpus plus gold annotation; every draw derives from `seed`."""
    config.validate()
    vocabulary = _sample_vocabulary(config, seed)
    prototypes = rng_from(derive_seed(seed, "prototypes")).standard_normal(
        (config.alphabet_size, config.feature_dim)
    )

    token_stream = np.repeat(np.arange(config.vocabulary_size), config.occurrences_per_word)
    token_stream = rng_from(derive_seed(seed, "order")).permutation(token_stream)

    utterances: list[Utterance] = []
    gold_utts: dict[str, UtteranceGold] = {}
    n_utts = (len(token_stream) + config.words_per_utterance - 1) // config.words_per_utterance
    pad = max(4, len(str(n_utts)))
    frames_lo, frames_hi = config.frames_per_subword_range

    for u in range(n_utts):
        utt_id = f"u{u:0{pad}d}"
        rng = rng_from(derive_seed(seed, f"utterance:{u}"))
        words = token_stream[u * config.words_per_utterance:(u + 1) * config.words_per_utterance]

        # token layout: (kind, payload) with fillers between words
        tokens: list[tuple[str, object]] = []
        for pos, word_idx in enumerate(words):
            if pos > 0 and config.filler_rate > 0 and rng.random() < config.filler_rate:
                tokens.append(("filler", int(rng.integers(0, config.alphabet_size))))
            tokens.append(("word", int(word_idx)))

        true_symbols: list[int] = []
        token_sym_counts: list[int] = []
        for kind, payload in tokens:
            syms = vocabulary[payload] if kind == "word" else (payload,)
            true_symbols.extend(syms)
            token_sym_counts.append(len(syms))

        frame_counts = rng.integers(frames_lo, frames_hi + 1, size=len(true_symbols))
        ends = np.cumsum(frame_counts)
        starts = ends - frame_counts
        features = prototypes[true_symbols].repeat(frame_counts, axis=0)
        if config.feature_noise_sigma > 0:
            features += config.feature_noise_sigma * rng.standard_normal(features.shape)

        emitted = _substitute(true_symbols, config.symbol_substitution_rate,
                              config.alphabet_size, rng)

        utterances.append(Utterance(
            id=utt_id,
            features=features.astype(np.float32),
            transcription=tuple(emitted),
            frame_spans=tuple(zip(starts.tolist(), ends.tolist())),
        ))

        # token k holds true symbols edges[k] .. edges[k + 1] - 1
        edges = np.cumsum([0, *token_sym_counts])
        token_starts = starts[edges[:-1]].tolist()
        token_ends = ends[edges[1:] - 1].tolist()
        gold_utts[utt_id] = UtteranceGold(
            boundaries=(0, *token_ends),
            tokens=tuple(GoldToken(payload, start, end, vocabulary[payload])
                         for (kind, payload), start, end
                         in zip(tokens, token_starts, token_ends) if kind == "word"),
            true_symbols=tuple(true_symbols),
            true_starts=tuple(starts.tolist()),
            true_ends=tuple(ends.tolist()),
        )

    corpus = Corpus(config.feature_dim, config.alphabet_size, utterances)
    gold = GoldAnnotation(gold_utts)
    gold.validate(corpus)
    return corpus, gold


def gold_segment_label(gold: GoldAnnotation, segment: Segment) -> int | None:
    """Gold word whose token overlaps the segment by more than half in both
    directions (strictly, so a segment spanning two equal words stays
    unlabelled). Only the tokens that overlap the segment at all, found by
    bisecting the utterance's gold tokens, are looked at."""
    utt_gold = gold.utterances.get(segment.utterance_id)
    if utt_gold is None:
        return None
    overlapping = utt_gold.tokens_overlapping(segment.start, segment.end)
    seg_len = segment.end - segment.start
    best: tuple[int, int, int] | None = None   # (-overlap, token start, word id)
    for token in utt_gold.tokens[overlapping]:
        inter = min(segment.end, token.end) - max(segment.start, token.start)
        if inter <= 0:
            continue
        if inter * 2 > seg_len and inter * 2 > (token.end - token.start):
            key = (-inter, token.start, token.word)
            if best is None or key < best:
                best = key
    return None if best is None else best[2]
