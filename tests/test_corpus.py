import io
import json
import logging
import re

import numpy as np
import pytest

from termforge import cli
from termforge.corpus import (Corpus, CorpusError, GoldAnnotation, Segment,
                              Utterance, UtteranceGold, load_corpus, load_gold,
                              slice_features, write_corpus)
from termforge.synthgen import SynthConfig, generate
from termforge.util import sha256_file, write_json

from conftest import make_corpus, make_segment


def test_round_trip_two_utterances(tmp_path, rng):
    utts = []
    for i, frames in enumerate((7, 10)):   # u0 has a frame after its last span
        features = rng.standard_normal((frames, 5)).astype(np.float32)
        n_syms = frames // 2
        spans = tuple((2 * k, 2 * k + 2) for k in range(n_syms))
        symbols = tuple(int(s) for s in rng.integers(0, 55, size=n_syms))
        utts.append(Utterance(f"u{i}", features, symbols, spans))
    corpus = Corpus(5, 55, utts)
    write_corpus(corpus, tmp_path)
    loaded = load_corpus(tmp_path)
    assert len(loaded) == 2
    for original, restored in zip(corpus, loaded):
        assert restored.id == original.id
        assert restored.transcription == original.transcription
        assert restored.frame_spans == original.frame_spans
        # float payloads must survive bit-exactly
        assert restored.features.tobytes() == original.features.tobytes()


def test_empty_corpus_round_trips(tmp_path):
    write_corpus(Corpus(5, 55, []), tmp_path)
    loaded = load_corpus(tmp_path)
    assert (len(loaded), loaded.feature_dim, loaded.alphabet_size) == (0, 5, 55)
    assert np.load(tmp_path / "features.npy").shape == (0, 5)


def test_empty_utterance_rejected():
    features = np.zeros((0, 4), dtype=np.float32)
    with pytest.raises(CorpusError, match="empty utterance"):
        Corpus(4, 55, [Utterance("u0", features, (), ())])


@pytest.mark.parametrize("feature_dim, alphabet_size", [
    (4.9, 55), (4, "55"), (True, 55), (4, np.int64(55)), (4.0, 55.0)])
def test_corpus_refuses_non_int_dims(feature_dim, alphabet_size):
    with pytest.raises(CorpusError, match="feature_dim and alphabet_size must be ints"):
        Corpus(feature_dim, alphabet_size, [])


def test_feature_dim_mismatch_names_utterance(tmp_path):
    corpus = make_corpus([[1, 2]])
    write_corpus(corpus, tmp_path)
    manifest = (tmp_path / "manifest.json").read_text().replace('"feature_dim": 4',
                                                                '"feature_dim": 8')
    (tmp_path / "manifest.json").write_text(manifest)
    with pytest.raises(CorpusError, match="u0"):
        load_corpus(tmp_path)


def _saved(array, save=np.save) -> bytes:
    buffer = io.BytesIO()
    save(buffer, array)
    return buffer.getvalue()


def _features(rewrite):
    """Replace features.npy with rewrite(its bytes, its matrix)."""
    def mutate(root):
        path = root / "features.npy"
        path.write_bytes(rewrite(path.read_bytes(), np.load(path)))
    return mutate


def _manifest(edit):
    """Apply `edit` to the manifest."""
    def mutate(root):
        path = root / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
    return mutate


def _second_utterance(edit):
    """Apply `edit` to the manifest entry of u1."""
    return _manifest(lambda manifest: edit(manifest["utterances"][1]))


MATRIX = r"features\.npy: expected a 2-D little-endian float32 array"
ENTRY = r"manifest\.json: corpus manifest: utterances\[1\]"
MANIFEST = r"manifest\.json: corpus manifest: "
MALFORMED = {
    "features-missing": (lambda root: (root / "features.npy").unlink(),
                         r"missing .*features\.npy"),
    "features-empty": (_features(lambda raw, x: b""),
                       r"features\.npy: EOF: reading magic string"),
    "features-header-cut": (_features(lambda raw, x: raw[:20]),
                            r"features\.npy: EOF: reading array header"),
    "features-data-cut": (_features(lambda raw, x: raw[:-5]),
                          r"features\.npy: Failed to read all data"),
    "features-trailing": (_features(lambda raw, x: raw + b"\0"),
                          r"features\.npy: bytes after the array$"),
    "features-npz": (_features(lambda raw, x: _saved(x, np.savez)),
                     r"features\.npy: the magic string is not correct"),
    "features-float64": (_features(lambda raw, x: _saved(x.astype(np.float64))),
                         MATRIX + ", got 2-D float64"),
    "features-1d": (_features(lambda raw, x: _saved(x.ravel())), MATRIX + ", got 1-D float32"),
    "frame-total": (_second_utterance(lambda u: u.update(frames=3)),
                    r"manifest\.json: its utterances have 9 frames, but features\.npy has "
                    "10 rows"),
    "ends-short": (_second_utterance(lambda u: u.update(ends=u["ends"][:-1])),
                   "u1: starts and ends differ in length"),
    "symbol-extra": (_second_utterance(lambda u: u.update(symbols=u["symbols"] + [9])),
                     "u1: span/symbol length mismatch"),
    "symbol-float": (_second_utterance(lambda u: u.update(symbols=[1.5, 5])),
                     ENTRY + r": symbols\[0\] must be int, got float 1\.5$"),
    "frames-string": (_second_utterance(lambda u: u.update(frames="4")),
                      ENTRY + ": frames must be int, got str '4'$"),
    "frames-negative": (_second_utterance(lambda u: u.update(frames=-4)),
                        r"manifest\.json: u1: frames must be non-negative, got -4$"),
    "ends-absent": (_second_utterance(lambda u: u.pop("ends")),
                    ENTRY + r": missing key\(s\) \['ends'\]$"),
    "entry-extra-key": (_second_utterance(lambda u: u.update(speaker="s1")),
                        ENTRY + ": .*unexpected keyword argument 'speaker'$"),
    "utterances-object": (_manifest(lambda m: m.update(utterances={})),
                          MANIFEST + "utterances must be a JSON array, got dict$"),
    "manifest-not-json": (lambda root: (root / "manifest.json").write_text("{"),
                          r"manifest\.json: Expecting property name"),
    "feature-dim-float": (_manifest(lambda m: m.update(feature_dim=4.9)),
                          MANIFEST + r"feature_dim must be int, got float 4\.9$"),
    "alphabet-string": (_manifest(lambda m: m.update(alphabet_size="55")),
                        MANIFEST + "alphabet_size must be int, got str '55'$"),
    "alphabet-bool": (_manifest(lambda m: m.update(alphabet_size=True)),
                      MANIFEST + "alphabet_size must be int, got bool True$"),
    "id-integer": (_second_utterance(lambda u: u.update(id=7)),
                   ENTRY + ": id must be str, got int 7$"),
}


def _write_malformed(root, case):
    # u0 has 6 frames and u1 4, each symbol 2 frames of 4 features
    write_corpus(make_corpus([[1, 2, 3], [4, 5]]), root)
    MALFORMED[case][0](root)


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_corpus_is_refused(tmp_path, case):
    _write_malformed(tmp_path, case)
    with pytest.raises(CorpusError, match=MALFORMED[case][1]):
        load_corpus(tmp_path)


@pytest.mark.parametrize("case", MALFORMED)
def test_discover_on_malformed_corpus_logs_one_line(tmp_path, caplog, case):
    workdir = tmp_path / "wd"
    _write_malformed(workdir / "corpus", case)
    # a synth stamp that records the hand-written files, so discover reads them
    (workdir / ".stamps").mkdir()
    (workdir / ".stamps" / "synth.json").write_text(json.dumps({"hash": "", "outputs": {
        rel: sha256_file(workdir / rel)
        for rel in ("corpus/manifest.json", "corpus/features.npy")
        if (workdir / rel).exists()}}))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"workdir": str(workdir)}))
    with caplog.at_level(logging.ERROR, logger="termforge"):
        assert cli.main(["discover", "--config", str(config_path)]) == 1
    [record] = caplog.records
    assert re.search(MALFORMED[case][1], record.getMessage())
    assert not (workdir / "segments.jsonl").exists()


def test_write_to_invalid_path_raises(tmp_path):
    corpus = make_corpus([[1, 2]])
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    with pytest.raises(OSError):
        write_corpus(corpus, blocker / "corpus")


def test_slice_full_matrix():
    corpus = make_corpus([[3, 1, 4]])
    seg = make_segment(0, "u0", (0, 3), corpus)
    sliced = slice_features(corpus, seg)
    assert sliced.shape == (6, 4)
    assert (sliced == corpus["u0"].features).all()


def test_slice_single_row():
    corpus = make_corpus([[3, 1, 4]], frames_per_symbol=1)
    seg = Segment(0, "u0", 1, 2, (1,))
    row = slice_features(corpus, seg)
    assert row.shape == (1, 4)
    assert (row == corpus["u0"].features[1]).all()


def test_slice_invalid_span_rejected():
    corpus = make_corpus([[3, 1, 4]])
    with pytest.raises(CorpusError):
        Segment(0, "u0", 5, 3, (1,))
    seg = Segment(0, "u0", 2, 99, (1,))
    with pytest.raises(CorpusError, match="out of range"):
        slice_features(corpus, seg)


def test_slice_shape_property(rng):
    corpus = make_corpus([list(rng.integers(0, 55, size=8)) for _ in range(3)])
    for utt in corpus:
        for _ in range(10):
            lo = int(rng.integers(0, len(utt.transcription)))
            hi = int(rng.integers(lo + 1, len(utt.transcription) + 1))
            seg = make_segment(0, utt.id, (lo, hi), corpus)
            sliced = slice_features(corpus, seg)
            assert sliced.shape == (seg.end - seg.start, corpus.feature_dim)


def test_symbols_in_span_overlap_rule():
    # spans: [0,4) [4,8) [8,12); cover half of the middle symbol exactly
    gold = GoldAnnotation({"u0": UtteranceGold((0, 12), (), (7, 8, 9), (0, 4, 8),
                                               (4, 8, 12))})

    def symbols_in_span(start, end):
        return gold.utterances["u0"].overlapped_symbols(start, end)

    assert symbols_in_span(0, 6) == (7, 8)
    assert symbols_in_span(0, 5) == (7,)
    assert symbols_in_span(4, 12) == (8, 9)


IN_ORDER_GOLD = {"boundaries": [0, 2, 4],
                 "tokens": [{"word": 0, "start": 0, "end": 2, "symbols": [1]},
                            {"word": 1, "start": 2, "end": 4, "symbols": [2]}],
                 "true_symbols": [1, 2], "true_starts": [0, 2], "true_ends": [2, 4]}


@pytest.mark.parametrize("entry, message", [
    ({"true_starts": [2, 0], "true_ends": [4, 2]},
     "gold true spans must be sorted by start and non-overlapping"),
    ({"tokens": IN_ORDER_GOLD["tokens"][::-1]},
     "gold tokens must be sorted by start and non-overlapping"),
    ({"tokens": [{"word": 0, "start": 0, "end": 3, "symbols": [1, 2]},
                 {"word": 1, "start": 2, "end": 4, "symbols": [2]}]},
     "gold tokens must be sorted by start and non-overlapping"),
    ({"boundaries": [0, 2, 2, 4]}, "gold boundaries must be strictly sorted"),
    ({"true_ends": [2]}, "gold true_symbols, true_starts and true_ends must have one "
     "entry per symbol"),
], ids=["spans-unsorted", "tokens-unsorted", "tokens-overlapping", "boundaries-repeated",
        "spans-short"])
def test_out_of_order_gold_is_refused(tmp_path, entry, message):
    # a bisection over such spans would mis-score without any error
    path = tmp_path / "gold.json"
    path.write_text(json.dumps({"utterances": {"u 7": IN_ORDER_GOLD}}))
    load_gold(path)
    path.write_text(json.dumps({"utterances": {"u 7": {**IN_ORDER_GOLD, **entry}}}))
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: u 7: {message}$"):
        load_gold(path)


@pytest.mark.parametrize("text, message", [
    ("{", "Expecting property name enclosed in double quotes"),
    (json.dumps({"utterances": {"u 7": {k: v for k, v in IN_ORDER_GOLD.items()
                                        if k != "true_ends"}}}),
     "gold: utterances['u 7']: missing key(s) ['true_ends']"),
    (json.dumps([IN_ORDER_GOLD]), "gold must be a JSON object, got list"),
    (json.dumps({"utterances": [IN_ORDER_GOLD]}),
     "gold: utterances must be a JSON object, got list"),
    (json.dumps({"utterances": {"u 7": {**IN_ORDER_GOLD, "tokens": [
        {**IN_ORDER_GOLD["tokens"][0], "word": "7"}]}}}),
     "gold: utterances['u 7']: tokens[0]: word must be int, got str '7'"),
], ids=["not-json", "missing-key", "list-not-object", "utterances-list", "string-word"])
def test_malformed_gold_is_refused_naming_the_file(tmp_path, text, message):
    path = tmp_path / "gold.json"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_gold(path)
    assert type(info.value) is ValueError
    assert str(info.value).startswith(f"{path}: {message}")


def test_gold_round_trips_through_json(tmp_path):
    _, gold = generate(SynthConfig(vocabulary_size=4, occurrences_per_word=3,
                                   filler_rate=0.5, words_per_utterance=3), 5)
    write_json(tmp_path / "gold.json", gold)
    loaded = load_gold(tmp_path / "gold.json")
    assert loaded == gold
    for utt_id, utt in loaded.utterances.items():
        assert utt.token_starts == gold.utterances[utt_id].token_starts
        assert utt.token_ends == gold.utterances[utt_id].token_ends
    write_json(tmp_path / "again.json", loaded)
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "gold.json").read_bytes()


def test_gold_of_other_utterances_is_refused():
    # coverage counts each utterance's frames from its last gold boundary
    corpus = make_corpus([[1, 2], [3, 4]])
    gold = UtteranceGold(boundaries=(0, 4), tokens=(), true_symbols=(1, 2),
                         true_starts=(0, 2), true_ends=(2, 4))
    with pytest.raises(CorpusError, match=r"missing \['u1'\], extra \[\]"):
        GoldAnnotation({"u0": gold}).validate(corpus)
    with pytest.raises(CorpusError, match=r"missing \[\], extra \['u2'\]"):
        GoldAnnotation({"u0": gold, "u1": gold, "u2": gold}).validate(corpus)
