import ast
import json
from dataclasses import asdict
from pathlib import Path

import pytest

import termforge
from termforge import pipeline
from termforge.embednet import NetArch
from termforge.evaluation import PRF, EvalReport
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
