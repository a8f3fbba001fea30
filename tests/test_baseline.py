import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lev_oracle
from termforge.baseline import (Cluster, LeaderParams, leader_cluster, load_clusters,
                                validate_partition, write_clusters)
from termforge.corpus import Segment
from termforge.seqmatch import normalized_levenshtein
from termforge.synthgen import SynthConfig, generate, gold_segment_label
from termforge.seqmatch import AlignScoring, discover_segments


def seg(seg_id, symbols):
    return Segment(seg_id, "u0", seg_id * 100, seg_id * 100 + 2 * len(symbols),
                   tuple(symbols))


def test_identical_strings_one_cluster():
    segments = [seg(i, [1, 2, 3, 4]) for i in range(6)]
    clusters = leader_cluster(segments, LeaderParams())
    assert len(clusters) == 1
    assert sorted(clusters[0].members) == list(range(6))
    assert clusters[0].leader == 0


def test_two_groups_at_distance_one():
    segments = [seg(0, [1, 2, 3]), seg(1, [1, 2, 3]),
                seg(2, [4, 5, 6]), seg(3, [4, 5, 6])]
    clusters = leader_cluster(segments, LeaderParams(T=0.4, a=1.8))
    assert len(clusters) == 2
    assert sorted(sorted(c.members) for c in clusters) == [[0, 1], [2, 3]]


def test_short_segments_filtered():
    segments = [seg(0, [1, 2]), seg(1, [1, 2, 3, 4])]
    clusters = leader_cluster(segments, LeaderParams(R=3))
    assert len(clusters) == 1
    assert clusters[0].members == [1]


def test_segment_between_t_and_a_t_joins_nearest_leader():
    # distance 0.5 from the leader: outside T=0.4, inside a*T=0.72
    segments = [seg(0, [1, 2, 3, 4]), seg(1, [1, 2, 5, 6])]
    clusters = leader_cluster(segments, LeaderParams(T=0.4, a=1.8))
    assert len(clusters) == 1
    assert clusters[0].members == [0, 1]


def test_five_word_zero_noise_corpus_matches_gold():
    config = SynthConfig(vocabulary_size=5, word_length_range=(4, 6),
                         occurrences_per_word=8, words_per_utterance=1,
                         min_word_separation=0.75)
    corpus, gold = generate(config, 11)
    segments = discover_segments(corpus, AlignScoring())
    clusters = leader_cluster(segments, LeaderParams())
    assert len(clusters) == 5
    by_id = {s.id: s for s in segments}
    for cluster in clusters:
        labels = {gold_segment_label(gold, by_id[m]) for m in cluster.members}
        assert len(labels) == 1 and None not in labels


def test_partition_property(rng):
    segments = [seg(i, list(rng.integers(0, 6, size=int(rng.integers(3, 8)))))
                for i in range(60)]
    params = LeaderParams(T=0.4, a=1.8, R=3)
    clusters = leader_cluster(segments, params)
    validate_partition(clusters)
    clustered = {m for c in clusters for m in c.members}
    assert clustered == {s.id for s in segments if len(s.symbols) >= params.R}


def test_members_lie_within_a_t_of_their_leader(rng):
    segments = [seg(i, list(rng.integers(0, 5, size=int(rng.integers(3, 9)))))
                for i in range(80)]
    params = LeaderParams()
    clusters = leader_cluster(segments, params)
    by_id = {s.id: s for s in segments}
    for cluster in clusters:
        leader_syms = by_id[cluster.leader].symbols
        for member in cluster.members:
            dist = normalized_levenshtein(by_id[member].symbols, leader_syms)
            # within T, or the nearest leader of a segment too close to found one
            assert dist < params.a * params.T


def test_leader_separation(rng):
    segments = [seg(i, list(rng.integers(0, 5, size=int(rng.integers(3, 9)))))
                for i in range(80)]
    params = LeaderParams()
    clusters = leader_cluster(segments, params)
    by_id = {s.id: s for s in segments}
    leaders = [by_id[c.leader].symbols for c in clusters]
    for i in range(len(leaders)):
        for j in range(i + 1, len(leaders)):
            assert normalized_levenshtein(leaders[i], leaders[j]) >= params.a * params.T


def test_leader_clusters_round_trip(tmp_path):
    # segment 3 is shorter than R = 3, so no leader cluster holds it
    segments = [seg(0, [1, 2, 3]), seg(1, [7, 7, 7, 7]), seg(2, [1, 2, 3]), seg(3, [5])]
    clusters = leader_cluster(segments, LeaderParams())
    assert [c.members for c in clusters] == [[0, 2], [1]]
    path = tmp_path / "clusters.json"
    write_clusters(path, clusters, segments)
    assert load_clusters(path) == clusters
    assert all(c.stability is None for c in load_clusters(path))
    assert json.loads(path.read_text())["noise"] == [3]


def test_stability_clusters_round_trip(tmp_path):
    segments = [seg(i, [1, 2, 3]) for i in range(6)]
    clusters = [Cluster(id=0, leader=1, members=[4, 1], stability=0.1 + 0.2),
                Cluster(id=1, leader=0, members=[0, 3], stability=1e-17)]
    path = tmp_path / "clusters.json"
    write_clusters(path, clusters, segments)
    blob = json.loads(path.read_text())
    assert [c["members"] for c in blob["clusters"]] == [[1, 4], [0, 3]]
    assert blob["noise"] == [2, 5]
    restored = load_clusters(path)
    assert [c.stability for c in restored] == [0.1 + 0.2, 1e-17]
    assert restored == [Cluster(0, 1, [1, 4], 0.1 + 0.2), Cluster(1, 0, [0, 3], 1e-17)]


@pytest.mark.parametrize("clusters, message", [
    ([Cluster(0, 0, [0, 1]), Cluster(1, 1, [1, 2])], "multiple clusters"),
    ([Cluster(0, 0, [])], "is empty"),
    ([Cluster(0, 2, [0, 1])], "leader not a member"),
    ([Cluster(0, 0, [0, 9])], "are not segments"),
    ([Cluster(0, 2, [2, 2])], "cluster 0 lists a member more than once"),
], ids=["overlap", "empty", "leader-outside", "unknown-member", "repeated-member"])
def test_write_clusters_refuses_a_non_partition(tmp_path, clusters, message):
    path = tmp_path / "clusters.json"
    with pytest.raises(ValueError, match=message):
        write_clusters(path, clusters, [seg(i, [1, 2, 3]) for i in range(3)])
    assert not path.exists()


@pytest.mark.parametrize("text, message", [
    ('[{"id": 0, "leader": 0, "members": [0, 1]}]',   # the old leader-cluster list
     "clusters file must be a JSON object, got list"),
    ('{"noise": [0, 1]}', "clusters file: missing key(s) ['clusters']"),
    ('{"clusters": [{"id": 0, "leader": 0, "members": [0]}], "noise": []}',
     "clusters file: clusters[0]: missing key(s) ['stability']"),
    ('{"clusters": [', "Expecting value"),
    ('{"clusters": [{"id": 0, "leader": 3, "members": ["3"], "stability": null}], '
     '"noise": []}', "clusters file: clusters[0]: members[0] must be int, got str '3'"),
], ids=["old-list", "no-clusters", "no-stability", "not-json", "string-member"])
def test_load_clusters_refuses_a_malformed_file_naming_it(tmp_path, text, message):
    path = tmp_path / "clusters_baseline.json"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_clusters(path)
    assert str(info.value).startswith(f"{path}: {message}")
    assert str(info.value).endswith("; run the stage that writes it again, with --force")


@st.composite
def leader_inputs(draw):
    """Segments in shuffled id order over a small pool of strings (so many
    repeat), with radii that hit exact ties d == T and d == a * T."""
    alphabet = st.integers(0, draw(st.integers(1, 5)) - 1)
    pool = draw(st.lists(st.lists(alphabet, min_size=1, max_size=8).map(tuple),
                         min_size=1, max_size=10))
    strings = draw(st.lists(st.sampled_from(pool), max_size=40))
    ids = draw(st.permutations(range(len(strings))))
    segments = [seg(i, s) for i, s in zip(ids, strings)]
    params = LeaderParams(T=draw(st.sampled_from([0.2, 0.25, 1 / 3, 0.4, 0.5, 1.0])),
                          a=draw(st.sampled_from([0.5, 1.0, 1.5, 1.8, 2.0, 3.0])),
                          R=draw(st.integers(1, 3)))
    return segments, params


def assert_same_clustering(segments, params, oracle=lev_oracle.leader_cluster):
    expected = oracle(segments, params)
    found = leader_cluster(segments, params)
    assert found == expected


# T = 0.25, a = 2: (1,2,5,5) is at 0.5 == a * T from (1,2,3,4) and founds;
# (1,2,3,5) is at 0.25 == T from both leaders; (1,1,0,0,0,0,0,2) is at
# 0.375 from both (0,)*8 and (1,1,1,1,0,0,0,0), a tie for the nearest leader
TIES = [seg(i, s) for i, s in enumerate([(1, 2, 3, 4), (1, 2, 5, 5), (1, 2, 3, 5), (0,) * 8,
                                         (1, 1, 1, 1, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0, 2),
                                         (1, 2, 5, 6)])]


@given(leader_inputs())
@example((TIES, LeaderParams(T=0.25, a=2.0, R=1)))
@settings(max_examples=300)
def test_leader_cluster_matches_per_segment_loop(case):
    assert_same_clustering(*case, oracle=lev_oracle.leader_cluster_table)


@given(leader_inputs())
@settings(max_examples=200)
def test_leader_cluster_matches_reference(case):
    assert_same_clustering(*case)


def test_leader_cluster_exact_ties_match_reference():
    # d((1,2,3,4), (1,2,3,5)) = 0.25 == T joins; d = 0.5 == a * T founds a
    # new leader; d = 0.375 lies between, so the segment is ambiguous
    strings = [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 5, 5), (1, 2, 3, 4, 9, 9, 9, 9),
               (1, 2, 3, 4), (5, 5, 3, 4, 9, 9, 9, 8), (1, 2, 5, 5)]
    segments = [seg(i, s) for i, s in enumerate(strings)]
    params = LeaderParams(T=0.25, a=2.0, R=1)
    assert_same_clustering(segments, params)
    assert len(leader_cluster(segments, params)) == 3


@pytest.mark.parametrize("T, a", [(0.5, 1.0), (0.25, 3.0)])
def test_leader_cluster_first_of_equidistant_leaders_wins(T, a):
    # (1,1,2,2) is at 0.5 from both leaders: within T = 0.5 of both in the
    # first case, ambiguous (nearest) in the second; the earlier leader wins
    segments = [seg(0, (1, 1, 1, 1)), seg(1, (2, 2, 2, 2)), seg(2, (1, 1, 2, 2))]
    params = LeaderParams(T=T, a=a, R=1)
    assert_same_clustering(segments, params)
    assert [c.members for c in leader_cluster(segments, params)] == [[0, 2], [1]]
