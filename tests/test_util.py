import ast
import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import termforge
from termforge import pipeline
from termforge.baseline import Cluster, load_clusters, write_clusters
from termforge.corpus import (Corpus, GoldAnnotation, GoldToken, Segment, Utterance,
                              UtteranceGold, load_corpus, load_gold, write_corpus)
from termforge.embednet import NetArch, init_params, load_params, save_params
from termforge.evaluation import PRF, EvalReport, load_report, write_report
from termforge.mining import PairManifest, SiamesePair, Triplet, load_manifest
from termforge.pipeline import PipelineConfig
from termforge.synthgen import SynthConfig
from termforge.util import from_json, sha256_bytes, write_json


@pytest.mark.parametrize("value", [
    PipelineConfig(),
    SynthConfig(vocabulary_size=7, word_length_range=(3, 9), filler_rate=0.25,
                frames_per_subword_range=(1, 5)),
    NetArch(l_max=30, feature_dim=8, conv_channels=(4, 8, 8), fc_sizes=(16, 8)),
    EvalReport(grouping=PRF(None, 0.5, None), token=PRF(1.0, 0.25, 0.4),
               type=PRF(0.0, None, 0.0), boundary=PRF(None, None, None),
               ned=None, coverage=0.75, n_words=3, n_pairs=0),
], ids=["pipeline", "synth", "arch", "report"])
def test_from_json_round_trips_asdict(value):
    assert from_json(type(value), json.loads(json.dumps(asdict(value))), "w") == value


@pytest.mark.parametrize("cls, data, message", [
    (SynthConfig, [3], "w must be a JSON object, got list"),
    (SynthConfig, {"vocabulary_size": 3, "bogus": 1},
     "w: SynthConfig.__init__() got an unexpected keyword argument 'bogus'"),
    (SynthConfig, {"filler_rate": 0.1},
     "w: SynthConfig.__init__() missing 1 required positional argument: "
     "'vocabulary_size'"),
    (SynthConfig, {"vocabulary_size": 3, "filler_rate": "0.1"},
     "w: filler_rate must be float, got str '0.1'"),
    (SynthConfig, {"vocabulary_size": True},
     "w: vocabulary_size must be int, got bool True"),
    (SynthConfig, {"vocabulary_size": 3.0},
     "w: vocabulary_size must be int, got float 3.0"),
    (SynthConfig, {"vocabulary_size": 3, "word_length_range": [4, "6"]},
     "w: word_length_range must be tuple[int, int], got list [4, '6']"),
    (SynthConfig, {"vocabulary_size": 3, "word_length_range": [4, 5, 6]},
     "w: word_length_range must be tuple[int, int], got list [4, 5, 6]"),
    (EvalReport, {"grouping": 1}, "w section 'grouping' must be a JSON object, got int"),
    (PRF, {"precision": None, "recall": "NA", "f_score": None},
     "w: recall must be float | None, got str 'NA'"),
], ids=["not-an-object", "unknown-key", "missing-key", "wrong-scalar", "bool-for-int",
        "float-for-int", "tuple-item", "tuple-length", "nested-not-an-object",
        "optional"])
def test_from_json_rejects_with_where_first(cls, data, message):
    with pytest.raises(ValueError) as info:
        from_json(cls, data, "w")
    assert str(info.value) == message


def test_from_json_converts_lists_and_nothing_else():
    synth = from_json(SynthConfig, {"vocabulary_size": 3, "word_length_range": [2, 3],
                                    "filler_rate": 0}, "w")
    assert synth.word_length_range == (2, 3)
    assert synth.filler_rate == 0 and type(synth.filler_rate) is int


def test_int_for_float_keeps_its_stage_hash():
    """The hash serialises values as given: "T": 1 hashes as 1, not 1.0."""
    config = PipelineConfig.from_dict({"leader": {"T": 1}})
    assert type(config.leader.T) is int
    stage = pipeline._stage_table(config)["baseline"]
    expected = '{"leader":{"R":3,"T":1,"a":1.8},"seed":0}|h1'
    assert pipeline._stage_hash(config, stage, ["h1"]) == sha256_bytes(expected.encode())


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    """Every setting lives in the config file: no module reads os.environ or
    os.getenv, as an attribute or through `from os import ...`."""
    reads = []
    for path in sorted(Path(termforge.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "os"):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            reads += [f"{path.name}:{node.lineno} os.{name}"
                      for name in names if name in ENVIRONMENT_READERS]
    assert reads == []


JSON_PARSERS = {"json.loads", "json.load"}


def test_only_the_json_readers_parse_json():
    """util.read_json parses every JSON artifact and setting, so that each
    is read by `from_json`; only seqmatch.load_segments (the lines of a
    segments.jsonl) and pipeline._read_stamp call json.loads themselves."""
    parsers = []
    for path in sorted(Path(termforge.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node): f"{path.stem}.{func.name}" for func in tree.body
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and ast.unparse(node) in JSON_PARSERS:
                parsers.append(owner.get(id(node), f"{path.name}:{node.lineno}"))
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                parsers += [f"{path.name}:{node.lineno} from json import {alias.name}"
                            for alias in node.names if f"json.{alias.name}" in JSON_PARSERS]
    assert sorted(parsers) == ["pipeline._read_stamp", "seqmatch.load_segments",
                               "util.read_json"]


NPY_FUNCTIONS = {f"{numpy}.{name}" for numpy in ("np", "numpy")
                 for name in ("save", "load", "lib.format.read_array")}


def test_only_util_reads_or_writes_npy():
    """util.read_npy and util.write_npy are the one .npy reader and writer:
    no other module calls np.save, np.load or np.lib.format.read_array."""
    calls = []
    for path in sorted(Path(termforge.__file__).parent.rglob("*.py")):
        if path.name != "util.py":
            calls += [f"{path.name}:{node.lineno} {ast.unparse(node)}"
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Attribute) and ast.unparse(node) in NPY_FUNCTIONS]
    assert calls == []


def test_write_json_writes_the_bytes_of_dumps(tmp_path):
    """write_json streams the text that json.dumps builds whole, with its
    final newline."""
    obj = {"b": [1, 2.5, -0.0, 1e-300, None, True, [], {}],
           "a": {"z": {"nested": [{"y": 1, "x": 2}]}, "naïve": "日本語 ✓ \u0000"},
           "floats": [0.1, 3.0, float(2**60), -1.5e300]}
    for value in (obj, [obj, None], None, "straße", 0.1):
        write_json(tmp_path / "out.json", value)
        expected = json.dumps(value, sort_keys=True, indent=2) + "\n"
        assert (tmp_path / "out.json").read_bytes() == expected.encode()


# --- every JSON artifact round-trips through its writer and reader ----------
# pipeline._Handoff serves a held value only because it equals the decode of
# the file it was written as


def assert_round_trips(value, encode, decode, view=lambda value: value):
    """decode(encode(value)) == value, compared as `view`s, and encoding the
    decoded value writes the same bytes again."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first"), Path(tmp, "second")
        for root in (first, second):
            root.mkdir()
        encode(value, first)
        decoded = decode(first)
        assert view(decoded) == view(value)
        encode(decoded, second)
        for path in first.iterdir():
            assert (second / path.name).read_bytes() == path.read_bytes(), path.name


small_ints = st.integers(0, 99)
uint64s = st.integers(0, 2**64 - 1)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def corpora(draw):
    feature_dim, alphabet_size = draw(st.integers(1, 3)), draw(st.integers(1, 99))
    utterances = []
    for utt_id in draw(st.lists(st.text(max_size=5), unique=True, max_size=3)):
        frames = draw(st.integers(1, 8))
        bounds = sorted(draw(st.sets(st.integers(0, frames), max_size=6)))
        spans = tuple(span for span in zip(bounds, bounds[1:]) if draw(st.booleans()))
        values = draw(st.lists(st.floats(width=32), min_size=frames * feature_dim,
                               max_size=frames * feature_dim))
        utterances.append(Utterance(
            utt_id, np.array(values, dtype=np.float32).reshape(frames, feature_dim),
            tuple(draw(st.integers(0, alphabet_size - 1)) for _ in spans), spans))
    return Corpus(feature_dim, alphabet_size, utterances)


def corpus_view(corpus: Corpus):
    """Everything a corpus holds, the features as their dtype, shape and bytes."""
    return corpus.feature_dim, corpus.alphabet_size, [
        (utt.id, utt.features.dtype.str, utt.features.shape, utt.features.tobytes(),
         utt.transcription, utt.frame_spans) for utt in corpus]


@given(corpora())
@example(Corpus(2, 5, []))
@example(Corpus(1, 5, [Utterance("u0", np.zeros((3, 1), np.float32), (), ())]))
@settings(max_examples=60)
def test_corpus_round_trips(corpus):
    """The manifest and the feature matrix, an empty corpus and an utterance
    without symbols included."""
    assert_round_trips(corpus, lambda value, root: write_corpus(value, root), load_corpus,
                       corpus_view)


@st.composite
def gold_annotations(draw):
    utterances = {}
    for utt_id in draw(st.lists(st.text(max_size=5), unique=True, max_size=3)):
        bounds = (0, *sorted(draw(st.sets(st.integers(1, 39), max_size=6))), 40)
        spans = list(zip(bounds, bounds[1:]))
        words = [span for span in spans if draw(st.booleans())]
        true = [span for span in spans if draw(st.booleans())]
        utterances[utt_id] = UtteranceGold(
            boundaries=bounds,
            tokens=tuple(GoldToken(draw(small_ints), start, end,
                                   tuple(draw(st.lists(small_ints, max_size=3))))
                         for start, end in words),
            true_symbols=tuple(draw(small_ints) for _ in true),
            true_starts=tuple(start for start, _ in true),
            true_ends=tuple(end for _, end in true))
    return GoldAnnotation(utterances)


@given(gold_annotations())
@settings(max_examples=60)
def test_gold_round_trips(gold):
    assert_round_trips(gold, lambda value, root: write_json(root / "gold.json", value),
                       lambda root: load_gold(root / "gold.json"))


cluster_pairs = st.tuples(small_ints, small_ints)
manifests = st.builds(
    PairManifest,
    siamese=st.lists(st.builds(SiamesePair, small_ints, small_ints, st.integers(0, 1),
                               cluster_pairs), max_size=4),
    triplets=st.lists(st.builds(Triplet, small_ints, small_ints, small_ints, cluster_pairs),
                      max_size=4),
    sample_seed=uint64s)


@given(manifests)
@settings(max_examples=60)
def test_pair_manifest_round_trips(manifest):
    assert_round_trips(manifest, lambda value, root: write_json(root / "manifest.json", value),
                       lambda root: load_manifest(root / "manifest.json"))


@given(st.lists(st.integers(-1, 3), max_size=12), st.data())
@settings(max_examples=60)
def test_clusters_round_trip(labels, data):
    """Segment i is in cluster labels[i], or noise for -1."""
    segments = [Segment(i, "u0", i, i + 1, (1,)) for i in range(len(labels))]
    clusters = []
    for k in sorted(set(labels) - {-1}):
        members = [i for i, label in enumerate(labels) if label == k]
        clusters.append(Cluster(k, data.draw(st.sampled_from(members)), members,
                                data.draw(st.none() | finite_floats)))
    assert_round_trips(
        clusters, lambda value, root: write_clusters(root / "clusters.json", value, segments),
        lambda root: load_clusters(root / "clusters.json"))


prfs = st.builds(PRF, st.none() | finite_floats, st.none() | finite_floats,
                 st.none() | finite_floats)


@given(st.builds(EvalReport, prfs, prfs, prfs, prfs, st.none() | finite_floats, finite_floats,
                 small_ints, small_ints))
@settings(max_examples=60)
def test_report_round_trips(report):
    assert_round_trips(
        report, lambda value, root: write_report(value, root / "report.json", root / "report.txt"),
        lambda root: load_report(root / "report.json"))


def fits(arch: NetArch) -> bool:
    """Whether `arch`'s conv stack fits its input width."""
    try:
        arch.time_lengths()
    except ValueError:
        return False
    return True


widths = st.integers(1, 3)
archs = st.builds(NetArch, l_max=st.integers(8, 30), feature_dim=widths,
                  conv_channels=st.tuples(widths, widths, widths),
                  conv_kernels=st.tuples(widths, widths, widths), pool_width=st.integers(1, 2),
                  fc_sizes=st.tuples(widths, widths), embed_dim=widths).filter(fits)


@given(archs, uint64s)
@settings(max_examples=30)
def test_network_header_round_trips(arch, init_seed):
    def decode(root):
        params = load_params(root / "params.json", root / "params.npy")
        return params.arch, params.init_seed

    assert_round_trips(
        (arch, init_seed),
        lambda value, root: save_params(root / "params.json", root / "params.npy",
                                        init_params(*value)),
        decode)
