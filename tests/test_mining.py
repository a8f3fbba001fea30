import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lev_oracle
from termforge.baseline import Cluster
from termforge.corpus import Segment
from termforge.mining import (MiningError, MiningThresholds, contrast_stats,
                              load_manifest, purity_stats, sample_manifest,
                              select_contrasting_pairs, select_pure_clusters,
                              write_manifest)
from termforge.seqmatch import levenshtein
from termforge.synthgen import SynthConfig, generate, gold_segment_label
from termforge.seqmatch import AlignScoring, discover_segments
from termforge.baseline import LeaderParams, leader_cluster


def make_cluster(cluster_id, symbol_lists, start_id=0):
    segments = {}
    members = []
    for offset, symbols in enumerate(symbol_lists):
        seg_id = start_id + offset
        segments[seg_id] = Segment(seg_id, "u0", offset * 50,
                                   offset * 50 + 2 * len(symbols), tuple(symbols))
        members.append(seg_id)
    mean_len = sum(len(s) for s in symbol_lists) / len(symbol_lists)
    return Cluster(id=cluster_id, leader=members[0], members=members,
                   mean_len=mean_len), segments


def oracle_purity(symbol_lists):
    values = [levenshtein(a, b) for a in symbol_lists for b in symbol_lists]
    mu = sum(values) / len(values)
    sigma = math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))
    return mu, sigma


def oracle_contrast(lists_a, lists_b):
    values = [levenshtein(a, b) for a in lists_a for b in lists_b]
    mu = sum(values) / len(values)
    sigma = math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))
    return mu, sigma


def test_purity_identical_sequences():
    cluster, segments = make_cluster(0, [[1, 2, 3]] * 4)
    stats = purity_stats(cluster, segments)
    assert stats.mu_s == 0.0 and stats.sigma_s == 0.0


def test_purity_two_member_hand_case():
    cluster, segments = make_cluster(0, [[1, 2, 3], [1, 2, 4]])
    stats = purity_stats(cluster, segments)
    # ordered-pair distances (0, 1, 1, 0): mean 0.5, std 0.5
    assert stats.mu_s == pytest.approx(0.5)
    assert stats.sigma_s == pytest.approx(0.5)


def test_purity_matches_double_loop_oracle(rng):
    for _ in range(30):
        lists = [list(rng.integers(0, 8, size=int(rng.integers(1, 12))))
                 for _ in range(int(rng.integers(1, 12)))]
        cluster, segments = make_cluster(0, lists)
        stats = purity_stats(cluster, segments)
        mu, sigma = oracle_purity([tuple(l) for l in lists])
        assert stats.mu_s == pytest.approx(mu, abs=1e-12)
        assert stats.sigma_s == pytest.approx(sigma, abs=1e-12)


def test_select_pure_identical_strings_retained():
    cluster, segments = make_cluster(0, [[1, 2, 3, 4, 5]] * 3)
    thresholds = MiningThresholds(thres_mu_s=0.2, thres_sigma_s=0.2)
    assert select_pure_clusters([cluster], segments, thresholds) == [cluster]


def test_select_pure_hand_case_retained_then_rejected():
    cluster, segments = make_cluster(0, [[1, 2, 3], [1, 2, 4]])
    # mu_s = sigma_s = 0.5, mean_len = 3: bound 0.6 retains, bound 0.3 rejects
    keep = MiningThresholds(thres_mu_s=0.2, thres_sigma_s=0.2)
    assert select_pure_clusters([cluster], segments, keep) == [cluster]
    reject = MiningThresholds(thres_mu_s=0.1, thres_sigma_s=0.2)
    assert select_pure_clusters([cluster], segments, reject) == []


def test_contrast_same_contents_coincides_with_purity():
    lists = [[1, 2, 3], [1, 2, 4], [2, 2, 4]]
    c1, seg1 = make_cluster(0, lists)
    c2, seg2 = make_cluster(1, lists, start_id=10)
    segments = {**seg1, **seg2}
    stats = contrast_stats(c1, c2, segments)
    mu, _ = oracle_purity([tuple(l) for l in lists])
    assert stats.mu_d == pytest.approx(mu)


def test_contrast_singletons():
    c1, seg1 = make_cluster(0, [[1, 2, 3]])
    c2, seg2 = make_cluster(1, [[4, 5, 6, 7]], start_id=10)
    stats = contrast_stats(c1, c2, {**seg1, **seg2})
    assert stats.mu_d == pytest.approx(levenshtein((1, 2, 3), (4, 5, 6, 7)))
    assert stats.sigma_d == 0.0


def test_contrast_matches_double_loop_oracle(rng):
    for _ in range(30):
        lists_a = [list(rng.integers(0, 8, size=int(rng.integers(1, 12))))
                   for _ in range(int(rng.integers(1, 10)))]
        lists_b = [list(rng.integers(0, 8, size=int(rng.integers(1, 12))))
                   for _ in range(int(rng.integers(1, 10)))]
        c1, seg1 = make_cluster(0, lists_a)
        c2, seg2 = make_cluster(1, lists_b, start_id=100)
        stats = contrast_stats(c1, c2, {**seg1, **seg2})
        mu, sigma = oracle_contrast([tuple(l) for l in lists_a],
                                    [tuple(l) for l in lists_b])
        assert stats.mu_d == pytest.approx(mu, abs=1e-12)
        assert stats.sigma_d == pytest.approx(sigma, abs=1e-12)


def test_contrasting_disjoint_singletons_selected():
    c1, seg1 = make_cluster(0, [[1, 2, 3, 4]])
    c2, seg2 = make_cluster(1, [[5, 6, 7, 8]], start_id=10)
    segments = {**seg1, **seg2}
    # lev = 4, scale = 4: mu_d 4 > 1.6 and sigma_d 0 < 0.8
    pairs = select_contrasting_pairs([c1, c2], segments, MiningThresholds())
    assert pairs == [(c1, c2)]


def test_identical_content_clusters_not_contrasting():
    c1, seg1 = make_cluster(0, [[1, 2, 3, 4]] * 2)
    c2, seg2 = make_cluster(1, [[1, 2, 3, 4]] * 2, start_id=10)
    pairs = select_contrasting_pairs([c1, c2], {**seg1, **seg2}, MiningThresholds())
    assert pairs == []


def test_empty_retained_no_pairs():
    assert select_contrasting_pairs([], {}, MiningThresholds()) == []


def test_selection_monotone_in_thresholds(rng):
    clusters = []
    segments = {}
    next_id = 0
    for cluster_id in range(8):
        lists = [list(rng.integers(0, 6, size=int(rng.integers(3, 8))))
                 for _ in range(int(rng.integers(2, 6)))]
        cluster, segs = make_cluster(cluster_id, lists, start_id=next_id)
        next_id += len(lists)
        clusters.append(cluster)
        segments.update(segs)
    tight = MiningThresholds(0.3, 0.3, 0.5, 0.3)
    loose = MiningThresholds(0.6, 0.6, 0.4, 0.6)   # looser purity, looser contrast
    retained_tight = select_pure_clusters(clusters, segments, tight)
    retained_loose = select_pure_clusters(clusters, segments, loose)
    assert {c.id for c in retained_tight} <= {c.id for c in retained_loose}
    pairs_tight = select_contrasting_pairs(retained_tight, segments, tight)
    pairs_loose = select_contrasting_pairs(retained_tight, segments, loose)
    assert {(a.id, b.id) for a, b in pairs_tight} \
        <= {(a.id, b.id) for a, b in pairs_loose}


def test_sample_zero_is_empty():
    manifest = sample_manifest([], [], 0, 0, seed=5)
    assert manifest.siamese_pairs == [] and manifest.triplets == []


def test_sample_deterministic():
    c1, seg1 = make_cluster(0, [[1, 2, 3]] * 4)
    c2, seg2 = make_cluster(1, [[7, 8, 9]] * 4, start_id=10)
    first = sample_manifest([c1, c2], [(c1, c2)], 21, 13, seed=99)
    second = sample_manifest([c1, c2], [(c1, c2)], 21, 13, seed=99)
    assert first == second


def test_sample_balance_invariant():
    c1, seg1 = make_cluster(0, [[1, 2, 3]] * 4)
    c2, seg2 = make_cluster(1, [[7, 8, 9]] * 4, start_id=10)
    for n in (0, 1, 7, 20):
        manifest = sample_manifest([c1, c2], [(c1, c2)], n, 0, seed=3)
        positives = sum(p.y == 1 for p in manifest.siamese_pairs)
        negatives = sum(p.y == 0 for p in manifest.siamese_pairs)
        assert positives + negatives == n
        assert abs(positives - negatives) <= 1


def test_sample_pair_provenance():
    c1, seg1 = make_cluster(0, [[1, 2, 3]] * 4)
    c2, seg2 = make_cluster(1, [[7, 8, 9]] * 4, start_id=10)
    manifest = sample_manifest([c1, c2], [(c1, c2)], 40, 40, seed=123)
    for pair in manifest.siamese_pairs:
        if pair.y == 1:
            assert pair.clusters[0] == pair.clusters[1]
            members = c1.members if pair.clusters[0] == 0 else c2.members
            assert pair.a in members and pair.b in members and pair.a != pair.b
        else:
            assert pair.clusters == (0, 1)
            assert pair.a in c1.members and pair.b in c2.members
    for triplet in manifest.triplets:
        anchor_cluster = c1 if triplet.clusters[0] == 0 else c2
        other = c2 if triplet.clusters[0] == 0 else c1
        assert triplet.anchor in anchor_cluster.members
        assert triplet.positive in anchor_cluster.members
        assert triplet.anchor != triplet.positive
        assert triplet.negative in other.members


def test_sample_errors_without_sources():
    lone, _ = make_cluster(0, [[1, 2, 3]])
    with pytest.raises(MiningError, match="no positive source"):
        sample_manifest([lone], [], 4, 0, seed=1)
    pair_source, _ = make_cluster(1, [[1, 2, 3]] * 2, start_id=10)
    with pytest.raises(MiningError, match="no negative source"):
        sample_manifest([pair_source], [], 4, 0, seed=1)
    with pytest.raises(MiningError, match="no negative source"):
        sample_manifest([pair_source], [], 0, 4, seed=1)


def test_label_audit_on_zero_noise_corpus():
    config = SynthConfig(vocabulary_size=5, word_length_range=(4, 6),
                         occurrences_per_word=8, words_per_utterance=1,
                         min_word_separation=0.75, seed=11)
    corpus, gold = generate(config)
    segments = discover_segments(corpus, AlignScoring())
    by_id = {s.id: s for s in segments}
    clusters = leader_cluster(segments, LeaderParams())
    thresholds = MiningThresholds()
    retained = select_pure_clusters(clusters, by_id, thresholds)
    contrasting = select_contrasting_pairs(retained, by_id, thresholds)
    manifest = sample_manifest(retained, contrasting, 200, 200, seed=5)
    for pair in manifest.siamese_pairs:
        same = (gold_segment_label(gold, by_id[pair.a])
                == gold_segment_label(gold, by_id[pair.b]))
        assert same == (pair.y == 1)
    for triplet in manifest.triplets:
        anchor = gold_segment_label(gold, by_id[triplet.anchor])
        assert anchor == gold_segment_label(gold, by_id[triplet.positive])
        assert anchor != gold_segment_label(gold, by_id[triplet.negative])


def test_manifest_round_trip(tmp_path):
    c1, _ = make_cluster(0, [[1, 2, 3]] * 3)
    c2, _ = make_cluster(1, [[7, 8, 9]] * 3, start_id=10)
    manifest = sample_manifest([c1, c2], [(c1, c2)], 10, 10, seed=8)
    path = tmp_path / "manifest.json"
    write_manifest(path, manifest)
    assert load_manifest(path) == manifest


cluster_strings = st.integers(1, 5).flatmap(lambda k: st.lists(
    st.lists(st.integers(0, k - 1), min_size=1, max_size=8), min_size=1, max_size=12))


@given(cluster_strings, cluster_strings)
@settings(max_examples=200)
def test_statistics_match_pairwise_reference(first, second):
    c1, segs_1 = make_cluster(0, first)
    c2, segs_2 = make_cluster(1, second, start_id=len(first))
    by_id = {**segs_1, **segs_2}
    purity = purity_stats(c1, by_id)
    assert (purity.mu_s, purity.sigma_s) == lev_oracle.purity_stats(c1, by_id)
    contrast = contrast_stats(c1, c2, by_id)
    assert (contrast.mu_d, contrast.sigma_d) == lev_oracle.contrast_stats(c1, c2, by_id)
