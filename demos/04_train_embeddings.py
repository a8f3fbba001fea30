"""Train the convolutional embedder on mined pairs and inspect the geometry.

Uses a small two-word corpus so the run takes seconds: after a few epochs of
triplet training, same-word segments should sit closer together than
different-word segments.
"""

import numpy as np

from termforge.baseline import LeaderParams, leader_cluster
from termforge.embednet import NetArch, TrainConfig, embed_all, init_params, train
from termforge.mining import MiningConfig, sample_manifest, \
    select_contrasting_pairs, select_pure_clusters
from termforge.seqmatch import AlignScoring, discover_segments
from termforge.synthgen import SynthConfig, generate, gold_segment_label

corpus, gold = generate(SynthConfig(
    vocabulary_size=3, word_length_range=(4, 5), occurrences_per_word=15,
    words_per_utterance=1, min_word_separation=0.8, feature_noise_sigma=0.2,
    frames_per_subword_range=(3, 4),
), seed=21)
segments = discover_segments(corpus, AlignScoring())
by_id = {s.id: s for s in segments}
clusters = leader_cluster(segments, LeaderParams())
thresholds = MiningConfig()
retained = select_pure_clusters(clusters, by_id, thresholds)
contrasting = select_contrasting_pairs(retained, by_id, thresholds)
manifest = sample_manifest(retained, contrasting, 400, 400, seed=9)

arch = NetArch(l_max=24, feature_dim=corpus.feature_dim)
params = init_params(arch, seed=1)
config = TrainConfig(margin=2.0, learning_rate=0.03, batch_size=32,
                     max_epochs=12)
params, curve = train(params, manifest, corpus, segments, config, "triplet", seed=2)
print("loss curve:", " -> ".join(f"{v:.4f}" for v in curve))

table = embed_all(params, segments, corpus)
labels = np.array([gold_segment_label(gold, s) for s in segments])
same, diff = [], []
for i in range(len(segments)):
    for j in range(i + 1, len(segments)):
        d = np.linalg.norm(table[i] - table[j])
        (same if labels[i] == labels[j] else diff).append(d)
print(f"mean same-word distance      {np.mean(same):.3f}")
print(f"mean different-word distance {np.mean(diff):.3f}")
