"""Discover segments, leader-cluster them, and mine weakly labelled pairs.

Walks the front half of the pipeline: local-alignment discovery over a noisy
synthetic corpus, one-pass leader clustering, purity/contrast statistics, and
the sampling of matched/mismatched training examples.
"""

from collections import Counter

from termforge.baseline import LeaderParams, leader_cluster
from termforge.mining import (MiningConfig, contrast_stats,
                              mean_symbol_length, purity_stats, sample_manifest,
                              select_contrasting_pairs, select_pure_clusters)
from termforge.seqmatch import AlignScoring, discover_segments
from termforge.synthgen import SynthConfig, generate, gold_segment_label

corpus, gold = generate(SynthConfig(
    vocabulary_size=8, word_length_range=(4, 6), occurrences_per_word=12,
    words_per_utterance=4, symbol_substitution_rate=0.08,
), seed=7)

segments = discover_segments(corpus, AlignScoring())
print(f"discovered {len(segments)} segments")

clusters = leader_cluster(segments, LeaderParams(T=0.4, a=1.8, R=3))
sizes = sorted(Counter(len(c.members) for c in clusters).items())
print(f"leader clustering: {len(clusters)} clusters, sizes {dict(sizes[:6])} ...")

by_id = {s.id: s for s in segments}
for cluster in clusters[:4]:
    p = purity_stats(cluster, by_id)
    print(f"  cluster {cluster.id}: |C|={len(cluster.members)} "
          f"C~={mean_symbol_length(cluster, by_id):.1f} mu_s={p.mu_s:.2f} sigma_s={p.sigma_s:.2f}")

thresholds = MiningConfig(thres_mu_s=0.4, thres_sigma_s=0.4,
                          thres_mu_d=0.4, thres_sigma_d=0.4)
retained = select_pure_clusters(clusters, by_id, thresholds)
contrasting = select_contrasting_pairs(retained, by_id, thresholds)
print(f"\nretained {len(retained)} pure clusters, "
      f"{len(contrasting)} contrasting pairs")
if contrasting:
    c1, c2 = contrasting[0]
    d = contrast_stats(c1, c2, by_id)
    print(f"first contrasting pair: mu_d={d.mu_d:.2f} sigma_d={d.sigma_d:.2f}")

manifest = sample_manifest(retained, contrasting, n_siamese=50, n_triplet=50,
                           seed=123)
agree = 0
checked = 0
for pair in manifest.siamese:
    la = gold_segment_label(gold, by_id[pair.a])
    lb = gold_segment_label(gold, by_id[pair.b])
    if la is None or lb is None:
        continue
    checked += 1
    agree += (la == lb) == (pair.y == 1)
print(f"\nsampled {len(manifest.siamese)} pairs, {len(manifest.triplets)} "
      f"triplets; weak labels agree with gold on {agree}/{checked} "
      "checkable pairs")
