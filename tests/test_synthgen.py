import numpy as np
import pytest

from termforge.corpus import Segment, write_corpus
from termforge.seqmatch import levenshtein
from termforge.synthgen import SynthConfig, SynthError, generate, gold_segment_label


SEED = 17


def small_config(**overrides):
    base = dict(vocabulary_size=4, word_length_range=(3, 4),
                occurrences_per_word=6, alphabet_size=20, feature_dim=6,
                frames_per_subword_range=(2, 3), words_per_utterance=3)
    base.update(overrides)
    return SynthConfig(**base)


def test_zero_noise_transcription_equals_gold():
    corpus, gold = generate(small_config(), SEED)
    for utt in corpus:
        g = gold.utterances[utt.id]
        assert utt.transcription == g.true_symbols
        assert utt.frame_spans == tuple(zip(g.true_starts, g.true_ends))


def test_zero_noise_identical_word_occurrences_have_identical_features():
    # frame counts vary per occurrence, but at zero noise every subword block
    # must consist of copies of that subword's fixed prototype row
    corpus, gold = generate(small_config(), SEED)
    prototype_rows = {}
    for utt in corpus:
        g = gold.utterances[utt.id]
        for sym, start, end in zip(g.true_symbols, g.true_starts, g.true_ends):
            block = utt.features[start:end]
            assert (block == block[0]).all()
            if sym in prototype_rows:
                assert (prototype_rows[sym] == block[0]).all()
            else:
                prototype_rows[sym] = block[0]


def test_occurrence_counts_match_config():
    config = small_config()
    corpus, gold = generate(config, SEED)
    counts = {}
    for g in gold.utterances.values():
        for token in g.tokens:
            counts[token.word] = counts.get(token.word, 0) + 1
    assert counts == {w: config.occurrences_per_word
                      for w in range(config.vocabulary_size)}


def test_determinism_byte_identical(tmp_path):
    config = small_config(symbol_substitution_rate=0.1, feature_noise_sigma=0.2,
                          filler_rate=0.3)
    for run in ("a", "b"):
        corpus, gold = generate(config, SEED)
        write_corpus(corpus, tmp_path / run)
    for name in ("features.npy", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "b").iterdir()) == ["features.npy",
                                                                  "manifest.json"]


def test_substitution_fraction_concentrates():
    config = small_config(vocabulary_size=30, occurrences_per_word=30,
                          word_length_range=(12, 14), alphabet_size=55,
                          symbol_substitution_rate=0.15)
    corpus, gold = generate(config, SEED)
    total = 0
    substituted = 0
    for utt in corpus:
        true = gold.utterances[utt.id].true_symbols
        assert len(true) == len(utt.transcription)
        total += len(true)
        substituted += sum(a != b for a, b in zip(true, utt.transcription))
    assert total >= 10_000
    assert abs(substituted / total - 0.15) <= 0.02


def test_zero_noise_same_word_segments_at_distance_zero():
    corpus, gold = generate(small_config(), SEED)
    by_word = {}
    for utt in corpus:
        for token in gold.utterances[utt.id].tokens:
            lo = next(i for i, (s, _) in enumerate(utt.frame_spans) if s == token.start)
            hi = next(i + 1 for i, (_, e) in enumerate(utt.frame_spans) if e == token.end)
            by_word.setdefault(token.word, []).append(utt.transcription[lo:hi])
    for occurrences in by_word.values():
        first = occurrences[0]
        assert all(levenshtein(first, other) == 0 for other in occurrences)


def test_unconstructible_vocabulary_rejected():
    with pytest.raises(SynthError, match="distinct words"):
        generate(small_config(vocabulary_size=10, word_length_range=(1, 1),
                              alphabet_size=3), SEED)


def test_min_word_separation_enforced():
    from termforge.seqmatch import normalized_levenshtein
    config = small_config(vocabulary_size=8, alphabet_size=55,
                          word_length_range=(4, 6), min_word_separation=0.75)
    _, gold = generate(config, SEED)
    words = {}
    for g in gold.utterances.values():
        for token in g.tokens:
            words[token.word] = token.symbols
    words = list(words.values())
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            assert normalized_levenshtein(words[i], words[j]) >= 0.75


def test_filler_symbols_not_in_gold_tokens():
    config = small_config(filler_rate=1.0)
    corpus, gold = generate(config, SEED)
    saw_filler = False
    for utt in corpus:
        g = gold.utterances[utt.id]
        token_frames = sum(t.end - t.start for t in g.tokens)
        if token_frames < utt.frames:
            saw_filler = True
        assert g.boundaries[0] == 0 and g.boundaries[-1] == utt.frames
    assert saw_filler


# --- gold_segment_label -----------------------------------------------------


def test_label_exact_token_span():
    corpus, gold = generate(small_config(), SEED)
    utt = next(iter(corpus))
    token = gold.utterances[utt.id].tokens[0]
    seg = Segment(0, utt.id, token.start, token.end, (1,))
    assert gold_segment_label(gold, seg) == token.word


def test_label_two_full_words_is_none():
    from termforge.corpus import GoldAnnotation, GoldToken, UtteranceGold

    gold = GoldAnnotation({"u0": UtteranceGold(
        boundaries=(0, 10, 20),
        tokens=(GoldToken(0, 0, 10, (1, 2)), GoldToken(1, 10, 20, (3, 4))),
        true_symbols=(1, 2, 3, 4),
        true_starts=(0, 5, 10, 15),
        true_ends=(5, 10, 15, 20),
    )})
    seg = Segment(0, "u0", 0, 20, (1, 2, 3, 4))
    assert gold_segment_label(gold, seg) is None


def test_label_dual_sixty_percent_overlap():
    # token spans frames [0, 10); segment [4, 10) covers 60% of the token
    # and the token covers 100% of the segment
    from termforge.corpus import GoldAnnotation, GoldToken, UtteranceGold

    gold = GoldAnnotation({"u0": UtteranceGold(
        boundaries=(0, 10),
        tokens=(GoldToken(3, 0, 10, (1, 2, 3, 4, 5)),),
        true_symbols=(1, 2, 3, 4, 5),
        true_starts=(0, 2, 4, 6, 8),
        true_ends=(2, 4, 6, 8, 10),
    )})
    seg = Segment(0, "u0", 4, 10, (3, 4, 5))
    assert gold_segment_label(gold, seg) == 3
    # shrink to 40% of the token: dual-overlap fails
    seg2 = Segment(1, "u0", 6, 10, (4, 5))
    assert gold_segment_label(gold, seg2) is None
