"""End-to-end run of all five system variants on one small corpus.

Baseline evaluates the leader clusters directly; the siamese/triplet variants
mine pairs, train the embedder, re-cluster with plain or hybrid extraction,
and score the result. Stages are cached in the shared temporary work
directory, so the five runs share synthesis, discovery, and leader
clustering; the directory is removed at the end.
"""

import tempfile

from termforge.pipeline import PipelineConfig, run_all

base = {
    "seed": 2024,
    "synth": {
        "vocabulary_size": 5, "word_length_range": [4, 6],
        "occurrences_per_word": 12, "words_per_utterance": 1,
        "min_word_separation": 0.75, "feature_noise_sigma": 0.1,
        "frames_per_subword_range": [3, 4],
    },
    "mining": {"n_siamese": 600, "n_triplet": 600},
    "train": {"l_max": 24, "batch_size": 32, "learning_rate": 0.03,
              "max_epochs": 6, "margin": 2.0},
    "hdbscan": {"min_cluster_size": 5, "min_samples": 5,
                "cluster_selection_epsilon": 0.2},
}

variants = [("baseline", "eom"), ("siamese", "eom"), ("siamese", "hybrid"),
            ("triplet", "eom"), ("triplet", "hybrid")]
with tempfile.TemporaryDirectory(prefix="termforge_demo_") as workdir:
    print("work directory:", workdir, "\n")
    for system, extraction in variants:
        config = PipelineConfig.from_dict({**base, "workdir": workdir,
                                           "system": system, "extraction": extraction})
        run_all(config)
        print()
