import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eval_oracle
import lev_oracle
from termforge import evaluation
from termforge.baseline import Cluster
from termforge.corpus import (Corpus, GoldAnnotation, GoldToken, Segment,
                              Utterance, UtteranceGold)
from termforge.evaluation import (boundary_prf, coverage, f_score,
                                  grouping_prf, load_report, ned,
                                  n_words_n_pairs, render_text, report,
                                  resolve, token_type_prf, write_report)
from termforge.seqmatch import normalized_levenshtein
from termforge.synthgen import gold_segment_label

from conftest import make_utterance


def toy_world():
    """Two utterances, two words; word 0 = (1,2,3), word 1 = (4,5,6).

    u0: [w0][w1], u1: [w0][w1], 2 frames per symbol, 12 frames each.
    """
    utt0 = make_utterance("u0", [1, 2, 3, 4, 5, 6])
    utt1 = make_utterance("u1", [1, 2, 3, 4, 5, 6])
    corpus = Corpus(4, 55, [utt0, utt1])
    gold = GoldAnnotation({
        uid: UtteranceGold(
            boundaries=(0, 6, 12),
            tokens=(GoldToken(0, 0, 6, (1, 2, 3)), GoldToken(1, 6, 12, (4, 5, 6))),
            true_symbols=(1, 2, 3, 4, 5, 6),
            true_starts=(0, 2, 4, 6, 8, 10),
            true_ends=(2, 4, 6, 8, 10, 12),
        )
        for uid in ("u0", "u1")
    })
    segments = [
        Segment(0, "u0", 0, 6, (1, 2, 3)),
        Segment(1, "u0", 6, 12, (4, 5, 6)),
        Segment(2, "u1", 0, 6, (1, 2, 3)),
        Segment(3, "u1", 6, 12, (4, 5, 6)),
    ]
    perfect = [
        Cluster(id=0, leader=0, members=[0, 2]),
        Cluster(id=1, leader=1, members=[1, 3]),
    ]
    return corpus, gold, segments, perfect


def members_of(clusters, segments, gold):
    return resolve(clusters, segments, gold)[0]


def labels_of(clusters, segments, gold):
    return resolve(clusters, segments, gold)[1]


def test_f_score_identity():
    assert f_score(0.5, 0.5) == pytest.approx(0.5)
    assert f_score(1.0, 0.5) == pytest.approx(2 / 3)
    assert f_score(0.0, 0.0) == 0.0
    assert f_score(None, None) is None
    assert f_score(None, 0.0) == 0.0


def test_ned_identical_gold_strings_zero():
    corpus, gold, segments, perfect = toy_world()
    assert ned(members_of(perfect, segments, gold), gold) == 0.0


def test_ned_disjoint_equal_length_is_one():
    corpus, gold, segments, _ = toy_world()
    mixed = [Cluster(id=0, leader=0, members=[0, 1])]   # (1,2,3) vs (4,5,6)
    assert ned(members_of(mixed, segments, gold), gold) == 1.0


def test_ned_matches_double_loop_oracle(rng):
    corpus, gold, segments, _ = toy_world()
    clusters = [Cluster(id=0, leader=0, members=[0, 1, 2]),
                Cluster(id=1, leader=3, members=[3])]
    gold_strings = {
        0: (1, 2, 3), 1: (4, 5, 6), 2: (1, 2, 3), 3: (4, 5, 6),
    }
    expected_values = []
    for cluster in clusters:
        for i, a in enumerate(cluster.members):
            for b in cluster.members[i + 1:]:
                expected_values.append(
                    normalized_levenshtein(gold_strings[a], gold_strings[b]))
    expected = sum(expected_values) / len(expected_values)
    assert ned(members_of(clusters, segments, gold), gold) == pytest.approx(expected)


def test_ned_undefined_without_pairs():
    corpus, gold, segments, _ = toy_world()
    singletons = [Cluster(id=i, leader=i, members=[i]) for i in range(4)]
    assert ned(members_of(singletons, segments, gold), gold) is None


def test_coverage_empty_and_full():
    corpus, gold, segments, perfect = toy_world()
    assert coverage([], gold) == 0.0
    assert coverage(members_of(perfect, segments, gold), gold) == 1.0


def test_coverage_overlap_union():
    corpus, gold, segments, _ = toy_world()
    overlapping = [
        Segment(0, "u0", 0, 10, (1, 2, 3, 4, 5)),
        Segment(1, "u0", 5, 12, (3, 4, 5, 6)),
    ]
    clusters = [Cluster(id=0, leader=0, members=[0, 1])]
    # union covers u0 fully (12) out of 24 corpus frames
    assert coverage(members_of(clusters, overlapping, gold), gold) == pytest.approx(0.5)


def test_grouping_perfect():
    corpus, gold, segments, perfect = toy_world()
    prf = grouping_prf(labels_of(perfect, segments, gold))
    assert (prf.precision, prf.recall, prf.f_score) == (1.0, 1.0, 1.0)


def test_grouping_singletons_null_precision_zero_recall():
    corpus, gold, segments, _ = toy_world()
    singletons = [Cluster(id=i, leader=i, members=[i]) for i in range(4)]
    prf = grouping_prf(labels_of(singletons, segments, gold))
    assert prf.precision is None
    assert prf.recall == 0.0


def test_grouping_matches_pair_counting_oracle(rng):
    corpus, gold, segments, _ = toy_world()
    labels = {0: 0, 1: 1, 2: 0, 3: 1}
    for _ in range(20):
        assignment = rng.integers(0, 3, size=4)
        clusters = [Cluster(id=c, leader=0, members=[int(i) for i in np.flatnonzero(assignment == c)])
                    for c in range(3)]
        clusters = [c for c in clusters if c.members]
        same_cluster = {}
        for c in clusters:
            for a in c.members:
                same_cluster[a] = c.id
        within = [(a, b) for c in clusters for i, a in enumerate(c.members)
                  for b in c.members[i + 1:]]
        same_pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)
                      if labels[a] == labels[b]]
        expected_p = (sum(labels[a] == labels[b] for a, b in within) / len(within)
                      if within else None)
        expected_r = (sum(same_cluster[a] == same_cluster[b] for a, b in same_pairs)
                      / len(same_pairs))
        prf = grouping_prf(labels_of(clusters, segments, gold))
        assert prf.precision == expected_p
        assert prf.recall == pytest.approx(expected_r)


def test_token_type_perfect():
    corpus, gold, segments, perfect = toy_world()
    token, type_ = token_type_prf(*resolve(perfect, segments, gold), gold)
    assert (token.precision, token.recall, token.f_score) == (1.0, 1.0, 1.0)
    assert (type_.precision, type_.recall, type_.f_score) == (1.0, 1.0, 1.0)


def test_token_type_empty_discovery():
    corpus, gold, segments, _ = toy_world()
    token, type_ = token_type_prf([], [], gold)
    assert token.precision is None
    assert token.recall == 0.0
    assert token.f_score == 0.0
    assert type_.precision is None
    assert type_.recall == 0.0


def test_token_edge_tolerance_hand_count():
    corpus, gold, segments, _ = toy_world()
    found = [
        Segment(0, "u0", 0, 6, (1, 2, 3)),     # exact
        Segment(1, "u0", 5, 11, (3, 4, 5)),    # off by 1 per edge -> matches w1
        Segment(2, "u1", 0, 9, (1, 2, 3, 4)),  # end off by 3 -> no match
        Segment(3, "u1", 6, 12, (4, 5, 6)),    # exact
        Segment(4, "u1", 2, 5, (2, 3)),        # inside w0 -> no match
    ]
    clusters = [Cluster(id=0, leader=0, members=[0, 1, 2, 3, 4])]
    token, _ = token_type_prf(*resolve(clusters, found, gold), gold)
    assert token.precision == pytest.approx(3 / 5)
    assert token.recall == pytest.approx(3 / 4)


def test_boundary_perfect_and_empty():
    corpus, gold, segments, perfect = toy_world()
    prf = boundary_prf(members_of(perfect, segments, gold), gold)
    assert (prf.precision, prf.recall, prf.f_score) == (1.0, 1.0, 1.0)
    prf_empty = boundary_prf([], gold)
    assert prf_empty.precision is None
    assert prf_empty.recall == 0.0


def test_boundary_two_word_segment_hand_count():
    corpus, gold, segments, _ = toy_world()
    # one segment spanning both words of u0: edges 0 and 12 hit 2 of the
    # 3 gold boundaries in u0; u1 contributes 3 unhit gold boundaries
    spanning = [Segment(0, "u0", 0, 12, (1, 2, 3, 4, 5, 6))]
    clusters = [Cluster(id=0, leader=0, members=[0])]
    prf = boundary_prf(members_of(clusters, spanning, gold), gold)
    assert prf.precision == 1.0
    assert prf.recall == pytest.approx(2 / 6)


def test_n_words_n_pairs():
    assert n_words_n_pairs([]) == (0, 0)
    one = [Cluster(id=0, leader=0, members=[0, 1, 2, 3])]
    assert n_words_n_pairs(one) == (1, 6)


def test_n_words_n_pairs_recount(rng):
    clusters = []
    for c in range(6):
        size = int(rng.integers(1, 9))
        clusters.append(Cluster(id=c, leader=0, members=list(range(size))))
    words, pairs = n_words_n_pairs(clusters)
    assert words == 6
    assert pairs == sum(len(c.members) * (len(c.members) - 1) // 2
                        for c in clusters)


def test_report_perfect_discovery():
    corpus, gold, segments, perfect = toy_world()
    rep = report(perfect, segments, gold)
    for group in (rep.grouping, rep.token, rep.type, rep.boundary):
        assert group.f_score == 1.0
    assert rep.ned == 0.0
    assert rep.coverage == 1.0   # words tile the corpus fully
    assert rep.n_words == 2
    assert rep.n_pairs == 2


def test_report_json_round_trip(tmp_path):
    corpus, gold, segments, perfect = toy_world()
    rep = report(perfect, segments, gold)
    write_report(rep, tmp_path / "report.json", tmp_path / "report.txt")
    restored = load_report(tmp_path / "report.json")
    assert restored == rep


def test_load_report_names_the_file(tmp_path):
    corpus, gold, segments, perfect = toy_world()
    path = tmp_path / "report.json"
    write_report(report(perfect, segments, gold), path, tmp_path / "report.txt")
    blob = json.loads(path.read_text())
    del blob["n_pairs"]
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError) as info:
        load_report(path)
    assert str(info.value).startswith(f"{path}: report: missing key(s) ['n_pairs']")


@pytest.mark.parametrize("edit, message", [
    (lambda text: text[:-3], "Expecting"),
    (lambda text: f"[{text}]", "report must be a JSON object, got list"),
], ids=["not-json", "list-not-object"])
def test_load_report_names_the_file_of_a_malformed_report(tmp_path, edit,
                                                          message):
    corpus, gold, segments, perfect = toy_world()
    path = tmp_path / "report.json"
    write_report(report(perfect, segments, gold), path, tmp_path / "report.txt")
    path.write_text(edit(path.read_text()))
    with pytest.raises(ValueError) as info:
        load_report(path)
    assert str(info.value).startswith(f"{path}: {message}")


def test_null_metrics_render_as_na(tmp_path):
    corpus, gold, segments, _ = toy_world()
    rep = report([], segments, gold)
    text = render_text(rep, system="empty")
    assert "NA" in text
    write_report(rep, tmp_path / "report.json", tmp_path / "report.txt")
    blob = json.loads((tmp_path / "report.json").read_text())
    assert blob["grouping"]["precision"] is None
    assert blob["ned"] is None


def test_coverage_monotone_under_added_segments(rng):
    corpus, gold, segments, _ = toy_world()
    pool = [
        Segment(0, "u0", 0, 4, (1, 2)),
        Segment(1, "u0", 2, 8, (2, 3, 4)),
        Segment(2, "u1", 4, 10, (3, 4, 5)),
        Segment(3, "u1", 0, 2, (1,)),
    ]
    previous = 0.0
    for k in range(1, len(pool) + 1):
        clusters = [Cluster(id=0, leader=0, members=list(range(k)))]
        value = coverage(members_of(clusters, pool, gold), gold)
        assert value >= previous
        previous = value


@st.composite
def scored_worlds(draw):
    """Random gold utterances (symbols of 1-3 frames, some after a gap; runs
    of 1-4 symbols, most of them word tokens and the rest fillers, whose
    edges are the boundaries; ids that need JSON escaping among them) with
    random segments (short ones have empty gold strings, some cover half a
    token) and random clusters over a subset of them, members in random
    order."""
    utterances = {}
    for utt_id in draw(st.lists(st.sampled_from(["u0", "u1", 'u"2\\', "u\t3"]),
                                min_size=1, max_size=3, unique=True)):
        symbols = draw(st.lists(st.integers(0, 3), min_size=1, max_size=12))
        spans, cursor = [], 0
        for frames in draw(st.lists(st.integers(1, 3), min_size=len(symbols),
                                    max_size=len(symbols))):
            cursor += draw(st.sampled_from([0, 0, 0, 1, 2]))
            spans.append((cursor, cursor + frames))
            cursor += frames
        tokens, bounds, k = [], {0, cursor}, 0
        while k < len(symbols):
            width = draw(st.integers(1, 4))
            part = spans[k:k + width]
            bounds |= {part[0][0], part[-1][1]}
            if draw(st.integers(0, 3)):
                tokens.append(GoldToken(draw(st.integers(0, 3)), part[0][0], part[-1][1],
                                        tuple(symbols[k:k + width])))
            k += width
        utterances[utt_id] = UtteranceGold(tuple(sorted(bounds)), tuple(tokens),
                                           tuple(symbols), *map(tuple, zip(*spans)))
    segments = []
    for seg_id in range(draw(st.integers(0, 30))):
        utt_id = draw(st.sampled_from(sorted(utterances)))
        tokens = utterances[utt_id].tokens
        if tokens and draw(st.integers(0, 3)) == 0:
            token = draw(st.sampled_from(tokens))
            half = (token.end - token.start) // 2 or 1
            start, end = draw(st.sampled_from([(token.start, token.start + half),
                                               (token.end - half, token.end)]))
        else:
            frames = utterances[utt_id].true_ends[-1]
            start = draw(st.integers(0, frames - 1))
            end = draw(st.integers(start + 1, frames))
        segments.append(Segment(seg_id, utt_id, start, end, (0,)))
    where = draw(st.lists(st.integers(-1, 4), min_size=len(segments),
                          max_size=len(segments)))
    clusters = []
    for c in range(5):
        members = draw(st.permutations([s.id for s, w in zip(segments, where) if w == c]))
        if members:
            clusters.append(Cluster(id=c, leader=members[0], members=list(members)))
    return clusters, segments, GoldAnnotation(utterances)


# a filler (4, 6) and a gap (6, 8) between two tokens; segment 0 overlaps no
# token, 1 and 2 cover exactly half of a token (no label), and 2 covers
# exactly half of the symbol at (10, 12)
EDGE_WORLD = (
    [Cluster(id=0, leader=0, members=[0, 1, 3]), Cluster(id=1, leader=2, members=[2, 4, 5])],
    [Segment(k, 'u"2\\', start, end, (0,))
     for k, (start, end) in enumerate([(4, 6), (0, 2), (8, 11), (0, 4), (9, 14), (5, 9)])],
    GoldAnnotation({'u"2\\': UtteranceGold(
        boundaries=(0, 4, 6, 14),
        tokens=(GoldToken(0, 0, 4, (1, 2)), GoldToken(1, 8, 14, (4, 5, 6))),
        true_symbols=(1, 2, 3, 4, 5, 6),
        true_starts=(0, 2, 4, 8, 10, 12), true_ends=(2, 4, 6, 10, 12, 14))}),
)


@given(scored_worlds())
@example(EDGE_WORLD)
@settings(max_examples=300)
def test_bisected_gold_lookups_match_scans(world):
    clusters, segments, gold = world
    for seg in segments:
        utt = gold.utterances[seg.utterance_id]
        assert (utt.overlapped_symbols(seg.start, seg.end)
                == eval_oracle.overlapped_symbols(utt.true_symbols,
                                                  zip(utt.true_starts, utt.true_ends),
                                                  seg.start, seg.end))
        assert gold_segment_label(gold, seg) == eval_oracle.gold_segment_label(gold, seg)
    members, labels = resolve(clusters, segments, gold)
    assert (token_type_prf(members, labels, gold)
            == eval_oracle.resolved_token_type_prf(members, labels, gold))
    assert boundary_prf(members, gold) == eval_oracle.resolved_boundary_prf(members, gold)
    assert ned(members, gold) == lev_oracle.ned(clusters, segments, gold)


@given(scored_worlds())
@settings(max_examples=200)
def test_ned_matches_reference(world):
    clusters, segments, gold = world
    assert ned(members_of(clusters, segments, gold), gold) == lev_oracle.ned(
        clusters, segments, gold)


def test_ned_with_empty_gold_strings_matches_reference():
    # 3 frames per symbol: a segment covering less than half of every symbol
    # it touches has an empty gold string
    gold = GoldAnnotation({"u0": UtteranceGold(
        boundaries=(0, 12), tokens=(GoldToken(0, 0, 12, (1, 2, 3, 4)),),
        true_symbols=(1, 2, 3, 4), true_starts=(0, 3, 6, 9), true_ends=(3, 6, 9, 12))})
    spans = [(0, 1), (1, 2), (0, 3), (2, 5), (0, 6), (10, 11), (3, 12)]
    segments = [Segment(k, "u0", start, end, (1,)) for k, (start, end) in enumerate(spans)]
    strings = [lev_oracle.gold_string(gold.utterances["u0"], start, end)
               for start, end in spans]
    assert strings == [(), (), (1,), (2,), (1, 2), (), (2, 3, 4)]
    clusters = [Cluster(id=0, leader=0, members=[0, 2, 1, 4, 5]),
                Cluster(id=1, leader=3, members=[3, 6])]
    value = ned(members_of(clusters, segments, gold), gold)
    assert value == lev_oracle.ned(clusters, segments, gold)
    assert 0.0 < value < 1.0


@given(scored_worlds())
@settings(max_examples=200)
def test_grouping_matches_pair_loop(world):
    clusters, segments, gold = world
    labels = {}
    for c in clusters:
        for m in c.members:
            label = gold_segment_label(gold, segments[m])
            if label is not None:
                labels[m] = label
    within = [(labels[a], labels[b]) for c in clusters
              for i, a in enumerate(c.members) if a in labels
              for b in c.members[i + 1:] if b in labels]
    cluster_of = {m: c.id for c in clusters for m in c.members}
    ids = sorted(labels)
    same = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:] if labels[a] == labels[b]]
    precision = sum(x == y for x, y in within) / len(within) if within else None
    recall = (sum(cluster_of[a] == cluster_of[b] for a, b in same) / len(same)
              if same else None)
    prf = grouping_prf(labels_of(clusters, segments, gold))
    assert (prf.precision, prf.recall) == (precision, recall)


def corpus_of(gold):
    """A corpus whose utterances have the frames and symbols of the gold."""
    return Corpus(1, 4, [
        Utterance(utt_id, np.zeros((utt.true_ends[-1], 1), dtype=np.float32),
                  utt.true_symbols, tuple(zip(utt.true_starts, utt.true_ends)))
        for utt_id, utt in gold.utterances.items()])


@given(scored_worlds())
@settings(max_examples=300)
def test_report_matches_per_metric_reference(world):
    """The reference counts coverage over the corpus's frames, the package
    over the gold's last boundaries, which validate ties to them."""
    clusters, segments, gold = world
    corpus = corpus_of(gold)
    gold.validate(corpus)
    assert report(clusters, segments, gold) == eval_oracle.report(
        clusters, segments, corpus, gold)


CLUSTERINGS = {
    "perfect": [Cluster(id=0, leader=0, members=[0, 2]),
                Cluster(id=1, leader=1, members=[1, 3])],
    "mixed": [Cluster(id=0, leader=2, members=[2, 0, 1]),
              Cluster(id=1, leader=3, members=[3])],
    "partial": [Cluster(id=0, leader=1, members=[1])],
    "empty": [],
}


@pytest.mark.parametrize("name", CLUSTERINGS)
def test_report_calls_each_metric_once_and_labels_each_segment_once(monkeypatch, name):
    corpus, gold, segments, _ = toy_world()
    clusters = CLUSTERINGS[name]
    calls = Counter()

    def counted(fn_name):
        original = getattr(evaluation, fn_name)

        def wrapper(*args, **kwargs):
            calls[fn_name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(evaluation, fn_name, wrapper)

    metrics = ("ned", "grouping_prf", "token_type_prf", "boundary_prf", "coverage")
    for fn_name in (*metrics, "gold_segment_label"):
        counted(fn_name)
    report(clusters, segments, gold)
    assert calls == Counter({**dict.fromkeys(metrics, 1),
                             "gold_segment_label": sum(len(c.members) for c in clusters)})


def test_report_leaves_numpy_ma_unimported():
    # a plain np.unique imports numpy.ma on its first call, which costs a
    # fresh process 10-20 ms
    script = (
        "import sys\n"
        "from termforge.baseline import Cluster\n"
        "from termforge.evaluation import report\n"
        "from test_evaluation import toy_world\n"
        "corpus, gold, segments, perfect = toy_world()\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "mixed = [Cluster(id=0, leader=0, members=[0, 1, 2])]\n"
        "for clusters in (perfect, mixed):\n"
        "    assert report(clusters, segments, gold).ned is not None\n"
        "print('numpy.ma' in sys.modules)\n")
    # the imported termforge package and this directory first on the path
    path = [os.path.dirname(os.path.dirname(os.path.abspath(evaluation.__file__))),
            os.path.dirname(os.path.abspath(__file__)), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
