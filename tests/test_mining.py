import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lev_oracle
from termforge.baseline import Cluster
from termforge.corpus import GoldAnnotation, Segment, UtteranceGold
from termforge.evaluation import ned, resolve
from termforge import mining
from termforge.mining import (MiningConfig, MiningError, SiamesePair, contrast_stats,
                              load_manifest, mean_symbol_length, purity_stats,
                              sample_manifest, select_contrasting_pairs,
                              select_pure_clusters)
from termforge.seqmatch import levenshtein
from termforge.util import rng_from, write_json
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
    return Cluster(id=cluster_id, leader=members[0], members=members), segments


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


def make_clusters(symbol_lists_per_cluster):
    """Clusters 0, 1, ... of the given strings, with consecutive segment ids."""
    clusters, segments = [], {}
    for cluster_id, lists in enumerate(symbol_lists_per_cluster):
        cluster, segs = make_cluster(cluster_id, lists, start_id=len(segments))
        clusters.append(cluster)
        segments.update(segs)
    return clusters, segments


def test_purity_identical_sequences():
    cluster, segments = make_cluster(0, [[1, 2, 3]] * 4)
    assert purity_stats([cluster], segments) == [(0.0, 0.0)]


def test_mean_symbol_length_of_leader_cluster():
    segments = [Segment(k, "u0", 100 * k, 100 * k + 2 * n, tuple(range(1, n + 1)))
                for k, n in enumerate((3, 4, 5))]
    [cluster] = leader_cluster(segments, LeaderParams(T=1.0))
    assert mean_symbol_length(cluster, {s.id: s for s in segments}) == 4.0


def test_purity_two_member_hand_case():
    cluster, segments = make_cluster(0, [[1, 2, 3], [1, 2, 4]])
    [(mu_s, sigma_s)] = purity_stats([cluster], segments)
    # ordered-pair distances (0, 1, 1, 0): mean 0.5, std 0.5
    assert mu_s == pytest.approx(0.5)
    assert sigma_s == pytest.approx(0.5)


def test_purity_matches_double_loop_oracle(rng):
    per_cluster = [[list(rng.integers(0, 8, size=int(rng.integers(1, 12))))
                    for _ in range(int(rng.integers(1, 12)))] for _ in range(30)]
    clusters, segments = make_clusters(per_cluster)
    stats = purity_stats(clusters, segments)
    assert len(stats) == len(clusters)
    for (mu_s, sigma_s), lists in zip(stats, per_cluster):
        mu, sigma = oracle_purity([tuple(l) for l in lists])
        assert mu_s == pytest.approx(mu, abs=1e-12)
        assert sigma_s == pytest.approx(sigma, abs=1e-12)


def test_select_pure_identical_strings_retained():
    cluster, segments = make_cluster(0, [[1, 2, 3, 4, 5]] * 3)
    thresholds = MiningConfig(thres_mu_s=0.2, thres_sigma_s=0.2)
    assert select_pure_clusters([cluster], segments, thresholds) == [cluster]


def test_select_pure_hand_case_retained_then_rejected():
    cluster, segments = make_cluster(0, [[1, 2, 3], [1, 2, 4]])
    # mu_s = sigma_s = 0.5, mean_len = 3: bound 0.6 retains, bound 0.3 rejects
    keep = MiningConfig(thres_mu_s=0.2, thres_sigma_s=0.2)
    assert select_pure_clusters([cluster], segments, keep) == [cluster]
    reject = MiningConfig(thres_mu_s=0.1, thres_sigma_s=0.2)
    assert select_pure_clusters([cluster], segments, reject) == []


def test_contrast_same_contents_coincides_with_purity():
    lists = [[1, 2, 3], [1, 2, 4], [2, 2, 4]]
    c1, seg1 = make_cluster(0, lists)
    c2, seg2 = make_cluster(1, lists, start_id=10)
    segments = {**seg1, **seg2}
    [(mu_d, _)] = contrast_stats([c1, c2], [(0, 1)], segments)
    mu, _ = oracle_purity([tuple(l) for l in lists])
    assert mu_d == pytest.approx(mu)


def test_contrast_singletons():
    c1, seg1 = make_cluster(0, [[1, 2, 3]])
    c2, seg2 = make_cluster(1, [[4, 5, 6, 7]], start_id=10)
    [(mu_d, sigma_d)] = contrast_stats([c1, c2], [(0, 1)], {**seg1, **seg2})
    assert mu_d == pytest.approx(levenshtein((1, 2, 3), (4, 5, 6, 7)))
    assert sigma_d == 0.0


def test_contrast_matches_double_loop_oracle(rng):
    per_cluster = [[list(rng.integers(0, 8, size=int(rng.integers(1, 12))))
                    for _ in range(int(rng.integers(1, 10)))] for _ in range(12)]
    clusters, segments = make_clusters(per_cluster)
    pairs = [(k, l) for k in range(len(clusters)) for l in range(len(clusters)) if k != l]
    stats = contrast_stats(clusters, pairs, segments)
    assert len(stats) == len(pairs)
    for (mu_d, sigma_d), (k, l) in zip(stats, pairs):
        mu, sigma = oracle_contrast([tuple(x) for x in per_cluster[k]],
                                    [tuple(x) for x in per_cluster[l]])
        assert mu_d == pytest.approx(mu, abs=1e-12)
        assert sigma_d == pytest.approx(sigma, abs=1e-12)


def test_statistics_refuse_an_empty_cluster():
    full, segments = make_cluster(0, [[1, 2, 3]])
    empty = Cluster(id=1, leader=0, members=[])
    with pytest.raises(ValueError, match="purity_stats requires non-empty clusters"):
        purity_stats([full, empty], segments)
    with pytest.raises(ValueError, match="contrast_stats requires non-empty clusters"):
        contrast_stats([full, empty], [(0, 1)], segments)
    assert contrast_stats([full, empty], [(0, 0)], segments) == [(0.0, 0.0)]


def test_contrasting_disjoint_singletons_selected():
    c1, seg1 = make_cluster(0, [[1, 2, 3, 4]])
    c2, seg2 = make_cluster(1, [[5, 6, 7, 8]], start_id=10)
    segments = {**seg1, **seg2}
    # lev = 4, scale = 4: mu_d 4 > 1.6 and sigma_d 0 < 0.8
    pairs = select_contrasting_pairs([c1, c2], segments, MiningConfig())
    assert pairs == [(c1, c2)]


def test_identical_content_clusters_not_contrasting():
    c1, seg1 = make_cluster(0, [[1, 2, 3, 4]] * 2)
    c2, seg2 = make_cluster(1, [[1, 2, 3, 4]] * 2, start_id=10)
    pairs = select_contrasting_pairs([c1, c2], {**seg1, **seg2}, MiningConfig())
    assert pairs == []


def test_empty_retained_no_pairs():
    assert select_contrasting_pairs([], {}, MiningConfig()) == []


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
    tight = MiningConfig(0.3, 0.3, 0.5, 0.3)
    loose = MiningConfig(0.6, 0.6, 0.4, 0.6)   # looser purity, looser contrast
    retained_tight = select_pure_clusters(clusters, segments, tight)
    retained_loose = select_pure_clusters(clusters, segments, loose)
    assert {c.id for c in retained_tight} <= {c.id for c in retained_loose}
    pairs_tight = select_contrasting_pairs(retained_tight, segments, tight)
    pairs_loose = select_contrasting_pairs(retained_tight, segments, loose)
    assert {(a.id, b.id) for a, b in pairs_tight} \
        <= {(a.id, b.id) for a, b in pairs_loose}


def test_sample_zero_is_empty():
    manifest = sample_manifest([], [], 0, 0, seed=5)
    assert manifest.siamese == [] and manifest.triplets == []


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
        positives = sum(p.y == 1 for p in manifest.siamese)
        negatives = sum(p.y == 0 for p in manifest.siamese)
        assert positives + negatives == n
        assert abs(positives - negatives) <= 1


def test_sample_pair_provenance():
    c1, seg1 = make_cluster(0, [[1, 2, 3]] * 4)
    c2, seg2 = make_cluster(1, [[7, 8, 9]] * 4, start_id=10)
    manifest = sample_manifest([c1, c2], [(c1, c2)], 40, 40, seed=123)
    for pair in manifest.siamese:
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



def test_single_siamese_pair_needs_no_negative_source():
    """One Siamese pair is a positive, so no contrasting pair is needed;
    a second pair is a negative and is refused without one."""
    source = Cluster(0, 1, [1, 2])
    manifest = sample_manifest([source], [], 1, 0, seed=0)
    assert [(p.a, p.b, p.y) for p in manifest.siamese] in ([(1, 2, 1)], [(2, 1, 1)])
    with pytest.raises(MiningError, match="no negative source"):
        sample_manifest([source], [], 2, 0, seed=0)


def weighted_choice(rng, weights):
    """The weighted draw that `mining._draw` replaced: one ticket from
    rng.integers(0, sum(weights)), then a scan that spends it weight by
    weight."""
    ticket = int(rng.integers(0, sum(weights)))
    for idx, w in enumerate(weights):
        ticket -= w
        if ticket < 0:
            return idx
    return len(weights) - 1


def scanning_draw(rng, cum):
    return weighted_choice(rng, np.diff(cum, prepend=0).tolist())


@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=40), st.integers(0, 2**64 - 1))
@settings(max_examples=300)
def test_weighted_draw_matches_the_scan(weights, seed):
    cum = np.cumsum(weights)
    fast, slow = rng_from(seed), rng_from(seed)
    assert ([mining._draw(fast, cum) for _ in range(5)]
            == [weighted_choice(slow, weights) for _ in range(5)])


@st.composite
def mining_inputs(draw):
    """Retained clusters of 1-6 members, a random subset of their pairs as
    the contrasting ones, sample counts and a seed."""
    sizes = draw(st.lists(st.integers(1, 6), max_size=6))
    retained = [Cluster(k, 10 * k, list(range(10 * k, 10 * k + n)))
                for k, n in enumerate(sizes)]
    pairs = [(c1, c2) for k, c1 in enumerate(retained) for c2 in retained[k + 1:]]
    contrasting = [pair for pair in pairs if draw(st.booleans())]
    return (retained, contrasting, draw(st.integers(0, 30)), draw(st.integers(0, 30)),
            draw(st.integers(0, 2**64 - 1)))


def _sampled(args):
    try:
        return sample_manifest(*args)
    except MiningError as exc:
        return str(exc)


@given(mining_inputs())
@settings(max_examples=300)
def test_sample_manifest_matches_the_scanning_draw(args):
    """The cumulative search draws the same sources as the scan it replaced,
    so every manifest, and every refusal, is the same."""
    expected = _sampled(args)
    with mock.patch.object(mining, "_draw", scanning_draw):
        assert _sampled(args) == expected


def test_label_audit_on_zero_noise_corpus():
    config = SynthConfig(vocabulary_size=5, word_length_range=(4, 6),
                         occurrences_per_word=8, words_per_utterance=1,
                         min_word_separation=0.75)
    corpus, gold = generate(config, 11)
    segments = discover_segments(corpus, AlignScoring())
    by_id = {s.id: s for s in segments}
    clusters = leader_cluster(segments, LeaderParams())
    thresholds = MiningConfig()
    retained = select_pure_clusters(clusters, by_id, thresholds)
    contrasting = select_contrasting_pairs(retained, by_id, thresholds)
    manifest = sample_manifest(retained, contrasting, 200, 200, seed=5)
    for pair in manifest.siamese:
        same = (gold_segment_label(gold, by_id[pair.a])
                == gold_segment_label(gold, by_id[pair.b]))
        assert same == (pair.y == 1)
    for triplet in manifest.triplets:
        anchor = gold_segment_label(gold, by_id[triplet.anchor])
        assert anchor == gold_segment_label(gold, by_id[triplet.positive])
        assert anchor != gold_segment_label(gold, by_id[triplet.negative])


def test_siamese_label_other_than_0_or_1_is_refused(tmp_path):
    with pytest.raises(ValueError, match=r"siamese pair \(1, 2\): y must be 0 or 1, got 2"):
        SiamesePair(a=1, b=2, y=2, clusters=(0, 0))
    c1, _ = make_cluster(0, [[1, 2, 3]] * 3)
    c2, _ = make_cluster(1, [[7, 8, 9]] * 3, start_id=10)
    path = tmp_path / "manifest.json"
    write_json(path, sample_manifest([c1, c2], [(c1, c2)], 10, 10, seed=8))
    path.write_text(path.read_text().replace('"y": 1', '"y": 2', 1))
    with pytest.raises(ValueError) as info:
        load_manifest(path)
    assert str(info.value).startswith(f"{path}: siamese pair (")
    assert str(info.value).endswith("y must be 0 or 1, got 2")


def test_manifest_round_trip(tmp_path):
    c1, _ = make_cluster(0, [[1, 2, 3]] * 3)
    c2, _ = make_cluster(1, [[7, 8, 9]] * 3, start_id=10)
    manifest = sample_manifest([c1, c2], [(c1, c2)], 10, 10, seed=8)
    path = tmp_path / "manifest.json"
    write_json(path, manifest)
    assert load_manifest(path) == manifest


@pytest.mark.parametrize("edit, message", [
    (lambda text: text[:-3], "Expecting ',' delimiter"),
    (lambda text: text.replace('"siamese"', '"pairs"'),
     "pair manifest: missing key(s) ['siamese']"),
    (lambda text: f"[{text}]", "pair manifest must be a JSON object, got list"),
    (lambda text: text.replace('"siamese": [', '"siamese": [1, '),
     "pair manifest: siamese[0] must be a JSON object, got int"),
    (lambda text: text.replace('"y": 1', '"y": "1"', 1),
     "pair manifest: siamese[0]: y must be int, got str '1'"),
], ids=["not-json", "missing-key", "list-not-object", "pair-not-object", "string-label"])
def test_malformed_manifest_is_refused_naming_the_file(tmp_path, edit, message):
    c1, _ = make_cluster(0, [[1, 2, 3]] * 3)
    c2, _ = make_cluster(1, [[7, 8, 9]] * 3, start_id=10)
    path = tmp_path / "manifest.json"
    write_json(path, sample_manifest([c1, c2], [(c1, c2)], 10, 10, seed=8))
    path.write_text(edit(path.read_text()))
    with pytest.raises(ValueError) as info:
        load_manifest(path)
    assert str(info.value).startswith(f"{path}: {message}")


cluster_strings = st.integers(1, 5).flatmap(lambda k: st.lists(
    st.lists(st.integers(0, k - 1), min_size=1, max_size=8), min_size=1, max_size=12))


@given(st.lists(cluster_strings, min_size=1, max_size=8))
@settings(max_examples=200)
def test_statistics_match_pairwise_reference(per_cluster):
    """One batched call gives, row by row, the per-cluster purity and the
    per-pair contrast that the pair-by-pair reference gives, for every
    ordered pair of clusters, a cluster with itself included."""
    clusters, by_id = make_clusters(per_cluster)
    assert purity_stats(clusters, by_id) == [lev_oracle.purity_stats(c, by_id)
                                             for c in clusters]
    pairs = [(k, l) for k in range(len(clusters)) for l in range(len(clusters))]
    assert contrast_stats(clusters, pairs, by_id) == [
        lev_oracle.contrast_stats(clusters[k], clusters[l], by_id) for k, l in pairs]


@st.composite
def scored_clusterings(draw):
    """(clusters, segments, gold): up to 4 clusters of 1-6 members over a
    small alphabet, so strings repeat within and across clusters. Segment k
    has its own utterance, whose gold string, possibly empty, is what the
    segment covers."""
    k = draw(st.integers(1, 4))
    strings = st.lists(st.integers(0, k - 1), min_size=1, max_size=6)
    golds = st.lists(st.integers(0, k - 1), max_size=5)
    sizes = draw(st.lists(st.integers(1, 6), max_size=4))
    clusters, segments, utterances = [], [], {}
    for cluster_id, size in enumerate(sizes):
        members = []
        for _ in range(size):
            seg_id, gold_string = len(segments), tuple(draw(golds))
            frames = max(len(gold_string), 1)
            utterances[f"u{seg_id}"] = UtteranceGold(
                boundaries=(0, frames), tokens=(), true_symbols=gold_string,
                true_starts=tuple(range(len(gold_string))),
                true_ends=tuple(range(1, len(gold_string) + 1)))
            segments.append(Segment(seg_id, f"u{seg_id}", 0, frames, tuple(draw(strings))))
            members.append(seg_id)
        clusters.append(Cluster(id=cluster_id, leader=members[0], members=members))
    return clusters, segments, GoldAnnotation(utterances)


def _shuffled(draw, clusters):
    return [Cluster(c.id, c.leader, list(draw(st.permutations(c.members))))
            for c in draw(st.permutations(clusters))]


@given(scored_clusterings(), st.data(),
       st.tuples(*[st.sampled_from([0.1, 0.2, 0.4, 0.6, 1.0])] * 4))
@settings(max_examples=300)
def test_statistics_do_not_depend_on_member_or_cluster_order(world, data, thresholds):
    clusters, segments, gold = world
    by_id = {s.id: s for s in segments}
    shuffled = _shuffled(data.draw, clusters)
    config = MiningConfig(*thresholds)

    value = ned(resolve(clusters, segments, gold)[0], gold)
    assert value == lev_oracle.ned(clusters, segments, gold)
    assert ned(resolve(shuffled, segments, gold)[0], gold) == value

    # shuffled[k] holds the members of clusters[at[k]] in another order, so
    # pair (k, l) of the shuffled list must equal the reversed pair
    # (at[l], at[k]) of the original: contrast is symmetric as well
    at = [c.id for c in shuffled]
    purity = purity_stats(clusters, by_id)
    assert purity_stats(shuffled, by_id) == [purity[k] for k in at]
    pairs = [(k, l) for k in range(len(clusters)) for l in range(len(clusters))]
    expected = dict(zip(pairs, contrast_stats(clusters, pairs, by_id)))
    assert contrast_stats(shuffled, pairs, by_id) == [expected[at[l], at[k]]
                                                      for k, l in pairs]

    retained = select_pure_clusters(clusters, by_id, config)
    retained_shuffled = select_pure_clusters(shuffled, by_id, config)
    assert sorted(c.id for c in retained_shuffled) == sorted(c.id for c in retained)
    assert ({frozenset((c1.id, c2.id))
             for c1, c2 in select_contrasting_pairs(retained_shuffled, by_id, config)}
            == {frozenset((c1.id, c2.id))
                for c1, c2 in select_contrasting_pairs(retained, by_id, config)})
