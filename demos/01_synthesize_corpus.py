"""Generate a small ground-truthed corpus and poke at its contents.

The generator plants a vocabulary of repeated terms, renders each subword as
a fixed prototype feature vector plus Gaussian noise, and corrupts the
emitted transcription with symbol substitutions. The gold annotation keeps
the uncorrupted story.
"""

import numpy as np

from termforge.synthgen import SynthConfig, generate

config = SynthConfig(
    vocabulary_size=5,
    word_length_range=(4, 6),
    occurrences_per_word=10,
    words_per_utterance=4,
    symbol_substitution_rate=0.1,
    feature_noise_sigma=0.2,
    filler_rate=0.3,
)
corpus, gold = generate(config, seed=42)

print(f"{len(corpus)} utterances, {corpus.total_frames()} frames, "
      f"feature dim {corpus.feature_dim}")

utt = next(iter(corpus))
gold_utt = gold.utterances[utt.id]
print(f"\nutterance {utt.id}:")
print("  emitted :", " ".join(map(str, utt.transcription)))
print("  true    :", " ".join(map(str, gold_utt.true_symbols)))
flips = sum(a != b for a, b in zip(utt.transcription, gold_utt.true_symbols))
print(f"  {flips} substituted symbols out of {len(utt.transcription)}")

print("\ngold word tokens:")
for token in gold_utt.tokens:
    print(f"  word {token.word}: frames [{token.start}, {token.end}) "
          f"symbols {token.symbols}")

block = utt.features[gold_utt.tokens[0].start:gold_utt.tokens[0].end]
print(f"\nfirst token feature block: {block.shape}, "
      f"frame-to-frame spread {np.std(block, axis=0).mean():.3f} "
      f"(= noise sigma, features repeat the subword prototype)")
