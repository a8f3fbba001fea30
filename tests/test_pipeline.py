import ast
import json
import logging
import os
import subprocess
import sys
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import termforge
from termforge import cli, embednet, pipeline, seqmatch
from termforge.baseline import (Cluster, LeaderParams, leader_cluster, load_clusters,
                                write_clusters)
from termforge.corpus import Corpus, write_corpus
from termforge.embednet import TrainConfig
from termforge.mining import MiningConfig, load_manifest
from termforge.pipeline import PipelineConfig, PipelineError, run_all, run_stage
from termforge.recluster import HdbscanParams
from termforge.seqmatch import AlignScoring
from termforge.synthgen import SynthConfig
from termforge.util import atomic_write, sha256_bytes, sha256_file, write_json


def small_blob(workdir, system="baseline", extraction="eom", seed=77):
    return {
        "seed": seed,
        "system": system,
        "extraction": extraction,
        "workdir": str(workdir),
        "synth": {"vocabulary_size": 4, "word_length_range": [4, 5],
                  "occurrences_per_word": 12, "words_per_utterance": 1,
                  "min_word_separation": 0.75, "feature_noise_sigma": 0.05,
                  "frames_per_subword_range": [3, 4]},
        "mining": {"n_siamese": 300, "n_triplet": 300},
        "train": {"l_max": 24, "batch_size": 32, "learning_rate": 0.03,
                  "max_epochs": 4},
        "hdbscan": {"min_cluster_size": 5, "min_samples": 5},
    }


def test_full_baseline_pipeline_emits_report(tmp_path):
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd"))
    report = run_all(config)
    assert (tmp_path / "wd" / "report.json").is_file()
    assert (tmp_path / "wd" / "report.txt").is_file()
    assert report.n_words == 4
    assert report.grouping.f_score == 1.0


def test_rerun_without_force_is_noop(tmp_path):
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd"))
    assert run_stage("synth", config) is True
    marker = (tmp_path / "wd" / "corpus" / "manifest.json")
    stamp = marker.stat().st_mtime_ns
    assert run_stage("synth", config) is False
    assert marker.stat().st_mtime_ns == stamp
    assert run_stage("synth", config, force=True) is True


def test_stage_reruns_when_config_changes(tmp_path):
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd"))
    run_stage("synth", config)
    run_stage("discover", config)
    assert run_stage("discover", config) is False
    config.align.min_align_score = 4.0
    assert run_stage("discover", config) is True


def test_torn_output_is_rebuilt_not_served(tmp_path):
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd"))
    run_all(config)
    workdir = tmp_path / "wd"
    clusters = workdir / "clusters_baseline.json"
    whole, report = clusters.read_bytes(), (workdir / "report.json").read_bytes()
    clusters.write_text("[")
    assert run_stage("baseline", config) is True
    assert clusters.read_bytes() == whole
    assert run_stage("evaluate", config) is False     # its inputs are whole again
    assert run_all(config).grouping.f_score == 1.0
    assert (workdir / "report.json").read_bytes() == report


def tear(path):
    whole = path.read_bytes()
    path.write_bytes(whole[:len(whole) // 2])


def test_torn_corpus_file_reruns_synth(tmp_path):
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd"))
    run_stage("synth", config)
    for name in ("manifest.json", "features.npy"):
        tear(tmp_path / "wd" / "corpus" / name)
        assert run_stage("synth", config) is True
        assert run_stage("synth", config) is False


def test_torn_corpus_stops_discover_naming_synth(tmp_path):
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd"))
    for name in ("manifest.json", "features.npy"):
        run_stage("synth", config)
        tear(tmp_path / "wd" / "corpus" / name)
        with pytest.raises(PipelineError, match="run the synth stage again"):
            run_stage("discover", config)
        assert not (tmp_path / "wd" / "segments.jsonl").exists()


def test_torn_baseline_clusters_stop_evaluate_naming_baseline(tmp_path):
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd"))
    run_all(config)
    workdir = tmp_path / "wd"
    report = (workdir / "report.json").read_bytes()
    (workdir / "clusters_baseline.json").write_text("[")
    for force in (False, True):
        with pytest.raises(PipelineError, match="run the baseline stage again"):
            run_stage("evaluate", config, force=force)
    assert (workdir / "report.json").read_bytes() == report
    assert run_stage("baseline", config) is True
    assert run_stage("evaluate", config) is False


def test_input_without_producer_stamp_is_refused(tmp_path):
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd"))
    run_stage("synth", config)
    run_stage("discover", config)
    (tmp_path / "wd" / ".stamps" / "discover.json").unlink()
    with pytest.raises(PipelineError, match="run the discover stage again"):
        run_stage("baseline", config)


def test_failed_stage_leaves_it_stale(tmp_path, monkeypatch):
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd"))
    run_all(config)
    segments = (tmp_path / "wd" / "segments.jsonl").read_bytes()

    def broken(*_args, **_kwargs):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(pipeline.seqmatch, "discover_segments", broken)
    with pytest.raises(RuntimeError, match="interrupted"):
        run_stage("discover", config, force=True)
    assert not (tmp_path / "wd" / ".stamps" / "discover.json").exists()
    monkeypatch.undo()
    assert run_stage("discover", config) is True
    assert (tmp_path / "wd" / "segments.jsonl").read_bytes() == segments


def test_atomic_write_keeps_old_file_on_error(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_recluster_before_embed_fails(tmp_path):
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd", system="triplet"))
    run_stage("synth", config)
    run_stage("discover", config)
    with pytest.raises(PipelineError, match="missing embeddings"):
        run_stage("recluster", config)


@pytest.mark.parametrize("system", pipeline.SYSTEMS)
def test_every_input_has_one_earlier_producer(tmp_path, system):
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd", system=system))
    table = pipeline._stage_table(config)
    names = config.stage_names()
    for position, name in enumerate(names):
        for rel in table[name].inputs:
            producers = [other for other in names[:position]
                         if rel in table[other].outputs]
            assert len(producers) == 1, (name, rel, producers)


LEADER_STAGES = ("synth", "discover", "baseline", "evaluate")


# what each (system, extraction) runs: its stages, its mode (the label of
# report.txt, which evaluate's hash covers) and the clusters file evaluate scores
@pytest.mark.parametrize("system, extraction, stages, mode, scored", [
    ("baseline", "eom", LEADER_STAGES, "baseline", "clusters_baseline.json"),
    ("baseline", "hybrid", LEADER_STAGES, "baseline", "clusters_baseline.json"),
    ("siamese", "eom", pipeline.STAGES, "siamese-eom", "clusters_final.json"),
    ("siamese", "hybrid", pipeline.STAGES, "siamese-hybrid", "clusters_final.json"),
    ("triplet", "eom", pipeline.STAGES, "triplet-eom", "clusters_final.json"),
    ("triplet", "hybrid", pipeline.STAGES, "triplet-hybrid", "clusters_final.json"),
])
def test_each_system_runs_its_pinned_stages(system, extraction, stages, mode, scored):
    config = PipelineConfig.from_dict(small_blob("wd", system, extraction))
    assert config.stage_names() == stages
    assert config.mode == mode
    assert pipeline._stage_table(config)["evaluate"].inputs[0] == scored


def is_text(node):
    """True for a string literal, or a tuple, list or set that holds one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(is_text, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def test_no_module_compares_a_system_with_a_name():
    """What a system runs is its row of pipeline.SYSTEMS and the stages its
    evaluate reads from: no module compares a `.system` attribute with a
    string literal, so that a new system is one row and not a new branch."""
    branches = []
    for path in sorted(Path(termforge.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            operands = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
            if (any(isinstance(o, ast.Attribute) and o.attr == "system" for o in operands)
                    and any(map(is_text, operands))):
                branches.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert branches == []


# the stages whose hash each config field changes
HASHED_BY = {
    "seed": pipeline.STAGES,
    "system": ("train", "evaluate"),
    "extraction": ("recluster", "evaluate"),
    "workdir": (),
    "synth": ("synth",),
    "align": ("discover",),
    "leader": ("baseline",),
    "mining": ("mine",),
    "train": ("train",),
    "hdbscan": ("recluster",),
}

# every setting of a config, so that adding or dropping one edits this list
LEAF_SETTINGS = [
    "seed", "system", "extraction", "workdir",
    "synth.vocabulary_size", "synth.word_length_range", "synth.occurrences_per_word",
    "synth.alphabet_size", "synth.feature_dim", "synth.frames_per_subword_range",
    "synth.symbol_substitution_rate", "synth.feature_noise_sigma", "synth.filler_rate",
    "synth.words_per_utterance", "synth.min_word_separation",
    "align.match_score", "align.mismatch_penalty", "align.gap_penalty",
    "align.min_align_score", "align.min_length",
    "leader.T", "leader.a", "leader.R",
    "mining.thres_mu_s", "mining.thres_sigma_s", "mining.thres_mu_d",
    "mining.thres_sigma_d", "mining.n_siamese", "mining.n_triplet",
    "train.margin", "train.learning_rate", "train.batch_size", "train.max_epochs",
    "train.l_max",
    "hdbscan.min_cluster_size", "hdbscan.min_samples", "hdbscan.cluster_selection_epsilon",
]


def stage_hashes(config):
    return {name: pipeline._stage_hash(config, stage, ["h1", "h2"])
            for name, stage in pipeline._stage_table(config).items()}


@pytest.mark.parametrize("system, extraction", [("baseline", "eom"),
                                                ("siamese", "eom"),
                                                ("triplet", "hybrid")])
def test_stage_hash_covers_every_config_field(tmp_path, system, extraction):
    """Every field but the workdir is the root seed or is named by a stage,
    so that no setting can change without some stage running again."""
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd", system, extraction))
    table = pipeline._stage_table(config)
    assert tuple(table) == pipeline.STAGES
    named = {"seed"}.union(*(stage.settings for stage in table.values()))
    assert named == {f.name for f in fields(PipelineConfig)} - {"workdir"}


def leaf_settings(config):
    """The path of every setting: "field.setting" in a section, "field" at
    the top level."""
    paths = []
    for f in fields(config):
        value = getattr(config, f.name)
        paths += ([f"{f.name}.{sub.name}" for sub in fields(value)] if is_dataclass(value)
                  else [f.name])
    return paths


def test_config_settings_are_the_pinned_list():
    assert leaf_settings(PipelineConfig()) == LEAF_SETTINGS
    assert len(LEAF_SETTINGS) == 37


def setting_value(config, path):
    name, _, sub = path.partition(".")
    return getattr(getattr(config, name), sub) if sub else getattr(config, name)


def other_valid_value(config, path):
    """`config` with the setting at `path` changed to the first of a few
    other values that the config accepts."""
    name, _, sub = path.partition(".")
    value = setting_value(config, path)
    if isinstance(value, str):
        candidates = ["elsewhere", "siamese", "hybrid"]
    elif isinstance(value, tuple):
        candidates = [(value[0], value[1] + 1)]
    else:
        candidates = [value + 1, value - 1, value / 2]
    for candidate in candidates:
        if candidate == value:
            continue
        section = replace(getattr(config, name), **{sub: candidate}) if sub else candidate
        changed = replace(config, **{name: section})
        try:
            changed.validate()
        except PipelineError:
            continue
        return changed
    raise AssertionError(f"no other valid value for {path}")


@pytest.mark.parametrize("path", leaf_settings(PipelineConfig()))
def test_setting_change_reruns_exactly_its_stages(path):
    """Changing one setting changes the hash of every stage that names its
    field and of no other stage."""
    base = PipelineConfig()
    before = stage_hashes(base)
    after = stage_hashes(other_valid_value(base, path))
    changed = tuple(name for name in pipeline.STAGES if after[name] != before[name])
    assert changed == HASHED_BY[path.partition(".")[0]]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("path", [path for path in LEAF_SETTINGS
                                  if isinstance(setting_value(PipelineConfig(), path), float)])
def test_non_finite_float_setting_is_refused(path, bad):
    """JSON's NaN and Infinity parse as floats; every float setting refuses
    them, so that no stage runs into them."""
    section, _, name = path.partition(".")
    blob = json.loads(json.dumps(asdict(PipelineConfig())))
    blob[section][name] = bad
    with pytest.raises(PipelineError) as info:
        PipelineConfig.from_dict(blob)
    assert str(info.value) == f"config section {section!r}: {name} must be finite, got {bad}"


def test_from_dict_takes_defaults_from_the_dataclass():
    assert PipelineConfig.from_dict({}) == PipelineConfig()
    scalars = {"seed": 9, "system": "triplet", "extraction": "hybrid",
               "workdir": "elsewhere"}
    config = PipelineConfig.from_dict(
        {**scalars, "mining": {"n_siamese": 7, "n_triplet": 8}})
    assert config == PipelineConfig(**scalars, mining=MiningConfig(n_siamese=7, n_triplet=8))


@pytest.mark.parametrize("config", [
    PipelineConfig(),
    PipelineConfig(
        seed=9, system="triplet", extraction="hybrid", workdir="elsewhere",
        synth=SynthConfig(vocabulary_size=7, word_length_range=(3, 6), filler_rate=0.25),
        align=AlignScoring(min_align_score=4.0, min_length=4),
        leader=LeaderParams(T=0.3, R=4),
        mining=MiningConfig(thres_mu_s=0.3, thres_sigma_d=0.1, n_siamese=7, n_triplet=8),
        train=TrainConfig(margin=2.0, max_epochs=3, l_max=24),
        hdbscan=HdbscanParams(min_cluster_size=4, cluster_selection_epsilon=0.5)),
], ids=["defaults", "every-section"])
def test_asdict_of_a_config_is_a_config(config):
    assert PipelineConfig.from_dict(json.loads(json.dumps(asdict(config)))) == config


@pytest.mark.parametrize("section, settings, message", [
    ("synth", {"vocabulary_size": 3, "filler_rate": 2.0}, "filler_rate must be in [0, 1]"),
    ("align", {"match_score": 0.0}, "match_score must be positive"),
    ("leader", {"T": 2}, "T must be in (0, 1]"),
    ("mining", {"thres_mu_s": 0.0}, "thres_mu_s must be positive"),
    ("train", {"max_epochs": 21}, "max_epochs is capped at 20"),
    ("hdbscan", {"min_cluster_size": 1}, "min_cluster_size must be >= 2"),
    ("hdbscan", {"max_points": 0},
     "HdbscanParams.__init__() got an unexpected keyword argument 'max_points'"),
    ("synth", {"vocabulary_size": 3, "seed": 99},
     "SynthConfig.__init__() got an unexpected keyword argument 'seed'"),
    ("train", {"seed": 7}, "TrainConfig.__init__() got an unexpected keyword argument 'seed'"),
    ("train", {"learning_rate": float("nan")}, "learning_rate must be finite, got nan"),
    ("train", {"l_max": 5}, "l_max=5 too short for conv stack"),
    ("train", {"l_max": 0}, "l_max=0 too short for conv stack"),
    ("synth", {"vocabulary_size": 3, "occurrences_per_word": 0},
     "occurrences_per_word must be positive"),
    ("synth", {"vocabulary_size": 3, "feature_dim": -1}, "feature_dim must be positive"),
    ("align", {"gap_penalty": -0.5}, "gap_penalty must be an integer, got -0.5"),
])
def test_bad_section_value_stops_before_any_stage(tmp_path, caplog, section, settings,
                                                  message):
    blob = {"synth": {"vocabulary_size": 3}, "system": "triplet", section: settings}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(blob))
    workdir = tmp_path / "wd"
    with caplog.at_level(logging.ERROR, logger="termforge"):
        assert cli.main(["all", "--config", str(config_path), "--out", str(workdir)]) == 1
    [record] = caplog.records
    assert record.getMessage() == f"config section {section!r}: {message}"
    assert not workdir.exists()


@pytest.mark.parametrize("settings, message", [
    ({"seed": "x"}, "config: seed must be int, got str 'x'"),
    ({"leader": {"T": "0.4"}}, "config section 'leader': T must be float, got str '0.4'"),
    ({"mining": {"n_siamese": -5}},
     "config section 'mining': n_siamese must be >= 0 for system 'baseline', got -5"),
    ({"system": "siamese", "mining": {"n_siamese": 0}},
     "config section 'mining': n_siamese must be >= 1 for system 'siamese', got 0"),
    ({"max_dp_cells": 0}, "config: unknown top-level key(s) ['max_dp_cells']; expected keys "
     "are ['seed', 'system', 'extraction', 'workdir', 'synth', 'align', 'leader', "
     "'mining', 'train', 'hdbscan']"),
    ({"mining": {"n_siamese": "x"}},
     "config section 'mining': n_siamese must be int, got str 'x'"),
], ids=["seed", "leader-T", "negative-count", "no-pairs-to-train-on", "max-dp-cells",
        "mining-count-type"])
def test_bad_top_level_value_stops_before_any_stage(tmp_path, caplog, settings, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"synth": {"vocabulary_size": 3}, **settings}))
    workdir = tmp_path / "wd"
    with caplog.at_level(logging.ERROR, logger="termforge"):
        assert cli.main(["all", "--config", str(config_path), "--out", str(workdir)]) == 1
    [record] = caplog.records
    assert record.getMessage() == message
    assert not workdir.exists()


@pytest.mark.parametrize("use_out", [True, False], ids=["out", "workdir"])
def test_synth_reads_a_pipeline_config_without_synth_section(tmp_path, use_out):
    """A pipeline config without a synth section synthesizes its default
    corpus, under --out or under the configured workdir."""
    workdir = tmp_path / "wd"
    blob = {"seed": 3} if use_out else {"seed": 3, "workdir": str(workdir)}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(blob))
    argv = ["synth", "--config", str(config_path)]
    argv += ["--out", str(workdir)] if use_out else []
    assert cli.main(argv) == 0
    reference = PipelineConfig.from_dict({"seed": 3, "workdir": str(tmp_path / "ref")})
    run_stage("synth", reference)
    assert ((workdir / "corpus" / "manifest.json").read_bytes()
            == (tmp_path / "ref" / "corpus" / "manifest.json").read_bytes())


def test_cached_stage_logs_one_line(tmp_path, caplog):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"synth": {"vocabulary_size": 3}}))
    argv = ["synth", "--config", str(config_path), "--out", str(tmp_path / "wd")]
    assert cli.main(argv) == 0
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="termforge"):
        assert cli.main(argv) == 0
    assert [r.getMessage() for r in caplog.records] == ["synth: up to date, skipping"]


LEARNED_PRODUCERS = [("discover", "corpus/manifest.json", "synth"),
                     ("baseline", "segments.jsonl", "discover"),
                     ("mine", "segments.jsonl", "discover"),
                     ("train", "manifest.json", "mine"),
                     ("embed", "params.json", "train"),
                     ("recluster", "embeddings.npy", "embed"),
                     ("evaluate", "clusters_final.json", "recluster")]


@pytest.mark.parametrize("stage, first_input, producer", LEARNED_PRODUCERS)
def test_stage_on_fresh_workdir_names_missing_input(tmp_path, stage, first_input,
                                                    producer):
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd", system="siamese"))
    message = f"missing {first_input} (run the {producer} stage first)"
    with pytest.raises(PipelineError) as info:
        run_stage(stage, config)
    assert str(info.value) == message


def test_baseline_mode_skips_training_stages(tmp_path):
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd"))
    run_all(config)
    workdir = tmp_path / "wd"
    assert not (workdir / "manifest.json").exists()
    assert not (workdir / "params.json").exists()
    assert not (workdir / "params.npy").exists()
    assert not (workdir / "clusters_final.json").exists()
    with pytest.raises(PipelineError, match="not part of mode"):
        run_stage("train", config)


def test_triplet_mode_emits_all_artifacts(tmp_path):
    config = PipelineConfig.from_dict(
        small_blob(tmp_path / "wd", system="triplet", extraction="hybrid"))
    report = run_all(config)
    workdir = tmp_path / "wd"
    for name in ("segments.jsonl", "clusters_baseline.json", "manifest.json",
                 "params.json", "params.npy", "loss_curve.csv", "embeddings.npy",
                 "clusters_final.json", "report.json"):
        assert (workdir / name).exists(), name
    assert report.n_words >= 1


@pytest.mark.parametrize("system", pipeline.SYSTEMS)
def test_each_stage_writes_exactly_its_outputs(tmp_path, system):
    """Every file a stage adds outside .stamps is one of its table outputs,
    and so is hashed into its stamp and never served stale."""
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd", system=system))
    table = pipeline._stage_table(config)
    workdir = tmp_path / "wd"

    def files():
        return {p.relative_to(workdir).as_posix() for p in workdir.rglob("*")
                if p.is_file() and ".stamps" not in p.parts}
    for stage in config.stage_names():
        before = files()
        run_stage(stage, config)
        assert files() - before == set(table[stage].outputs), stage


def test_train_log_counts_distinct_segments(tmp_path, caplog):
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd", system="triplet"))
    for stage in ("synth", "discover", "baseline", "mine"):
        run_stage(stage, config)
    triplets = load_manifest(tmp_path / "wd" / "manifest.json").triplets
    distinct = {seg for t in triplets for seg in (t.anchor, t.positive, t.negative)}
    with caplog.at_level(logging.INFO, logger="termforge"):
        run_stage("train", config)
    [message] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("train[")]
    assert message.startswith("train[triplet]: ")
    assert message.endswith(f", {len(distinct)} distinct segments for "
                            f"{3 * len(triplets)} tower inputs")


def test_identical_runs_are_byte_identical(tmp_path):
    blobs = []
    for name in ("a", "b"):
        config = PipelineConfig.from_dict(
            small_blob(tmp_path / name, system="siamese", extraction="eom"))
        run_all(config)
        blobs.append((tmp_path / name / "report.json").read_bytes())
    assert blobs[0] == blobs[1]


# sha256 of the baseline system's artifacts and stamps on one small noisy
# corpus (34 utterances, 498 segments, 24 clusters), with numpy 2.4 (the synth
# stamp hashes the corpus's float32 features). segments.jsonl is as an
# earlier, per-segment implementation of discovery wrote it, and
# clusters_baseline.json holds that implementation's leader clusters in the
# file format that re-clusters share ("stability": null, a "noise" list).
# report.json is as that implementation's scoring wrote it, except that NED
# is the exact mean rounded once (0.3467827831367466, 16 ulp below the
# pair-order float sum). The stamps are as written since each stage hash
# covers exactly the config fields its stage names, discover's since it
# names align alone, synth's and discover's since the corpus is a manifest
# and one feature matrix, each hashed as a file, baseline's and evaluate's
# since leader clusters share that format, and evaluate's since NED is
# exact.
NOISY_BASELINE_DIGESTS = {
    "segments.jsonl": "3bfe25d00e3b9b43e7b1b76b8d4cd304c614d213ba078c8e7278be4ed1c3244a",
    "clusters_baseline.json": "f4eddd650877996e1730d635c75784290de2580895760b85030a3e6a232daeb7",
    "report.json": "bee8be1e7bb4e84099cf3fa6b674d8c184727209ca04b60f8d7ee69437dc1390",
    ".stamps/baseline.json": "c0e7f91f63ee2e8c5541f5c23c85f6f25cda8850a4496d9549cd302e809fbe5b",
    ".stamps/discover.json": "f7604cc2257aefcdb6ba8f4c6c8424d25b32bcd59804c02f290152aed802b6d4",
    ".stamps/evaluate.json": "fa3e5d9ebe07873e3bd54e8bebfaa7abb2c442d77000bcc6367614a2320c746e",
    ".stamps/synth.json": "0d2980040d9ee414ac3d0d0bd771ad4501e9f28b21236b76e98509d18a2985a0",
}


def test_noisy_baseline_artifacts_match_golden_digests(tmp_path):
    workdir = tmp_path / "wd"
    config = PipelineConfig.from_dict({
        "seed": 3001, "system": "baseline", "workdir": str(workdir),
        "synth": {"vocabulary_size": 20, "occurrences_per_word": 10,
                  "word_length_range": [4, 7], "frames_per_subword_range": [3, 5],
                  "symbol_substitution_rate": 0.1, "filler_rate": 0.3,
                  "feature_noise_sigma": 0.3, "min_word_separation": 0.5,
                  "words_per_utterance": 6}})
    for stage in config.stage_names():
        run_stage(stage, config)
    stamps = {f".stamps/{p.name}" for p in (workdir / ".stamps").iterdir()}
    assert stamps == {k for k in NOISY_BASELINE_DIGESTS if k.startswith(".stamps/")}
    assert {name: sha256_bytes((workdir / name).read_bytes())
            for name in NOISY_BASELINE_DIGESTS} == NOISY_BASELINE_DIGESTS


# sha256 of what the siamese system's mine stage wrote for small_blob, and
# the train stage's hash, which covers its settings and input hashes but no
# trained float. The manifest is as the code before the synth and train seeds
# became arguments wrote it; the hash is as written since each stage hash
# covers exactly the config fields its stage names and the corpus is a
# manifest and one feature matrix, and the stamp since the leader clusters
# it reads share the re-clusters' file format.
LEARNED_DIGESTS = {
    "manifest.json": "60f509192f460edaae708f87bc077147cda6873d2af8a6a2a61eaf8fbc54cdc8",
    ".stamps/mine.json": "de8baa63e02e44345810c77b43f2d79bf6428ed30c52c9b3c17a4b51ef66c31a",
}
LEARNED_TRAIN_HASH = "3bfd9e5748ce62c86189ea3810508281ffe302de6ac274fdd5d9c903ed8e9411"


def test_learned_artifacts_match_golden_digests(tmp_path):
    workdir = tmp_path / "wd"
    config = PipelineConfig.from_dict(small_blob(workdir, system="siamese"))
    for stage in ("synth", "discover", "baseline", "mine", "train"):
        run_stage(stage, config)
    assert {name: sha256_bytes((workdir / name).read_bytes())
            for name in LEARNED_DIGESTS} == LEARNED_DIGESTS
    assert json.loads((workdir / ".stamps" / "train.json").read_text())["hash"] \
        == LEARNED_TRAIN_HASH


# sha256 of the siamese system's re-clusters for small_blob with numpy 2.4
# and BLAS on one thread (training is float32, and its last bits depend on
# the thread count), as written once the conv gradients were formed by
# kernel taps: the memberships are those written before leader clusters and
# re-clusters shared one writer, and the stabilities moved by rounding
LEARNED_CLUSTERS_DIGEST = "6ce4c533f3942217f7f1009224227a6cfadea32823742f3702a96a6a0f452367"


def test_learned_clusters_match_golden_digest(tmp_path):
    workdir = tmp_path / "wd"
    config = PipelineConfig.from_dict(small_blob(workdir, system="siamese"))
    for stage in config.stage_names():
        run_stage(stage, config)
    assert sha256_bytes((workdir / "clusters_final.json").read_bytes()) \
        == LEARNED_CLUSTERS_DIGEST


# sha256 of what the triplet system writes for small_blob with hybrid
# extraction at cluster_selection_epsilon 0.2, as the benchmark's sweep runs
# it: its report, re-clusters and every stamp; and of the siamese-eom
# report.txt and evaluate stamp, which carry the mode. With numpy 2.4 and
# BLAS on one thread (training is float32). The reports and memberships are
# as written while each system's stages, mode and scored clusters were
# spelled out by hand; the train stamp hashes params.npy, which moved by
# rounding once the conv gradients were formed by kernel taps, and with it
# every later stamp and the re-clusters' stabilities.
SYSTEM_DIGESTS = {
    ("triplet", "hybrid", 0.2): {
        "report.json": "f3ca21340c50fb95f46d5270b92033e08794ce07fa47ff984206b55a8cdefb09",
        "report.txt": "23f4c445eb1efa22ae39a762be54033da198a66530db41787044fa5e025eab6f",
        "clusters_final.json":
            "7ff67e4e590edf08aba45c8e46404d01c39a3a05a40bcd796e46768372131cd1",
        ".stamps/synth.json": "7f027801b362e7d0e6585ca2f374c5e77ef977831d3a1d11b407bc1c3f236b02",
        ".stamps/discover.json":
            "4ff5b3950585a6c8511a1d42b58ebe8ed3a8d482e3e9d2d63924cbbc847bcc8b",
        ".stamps/baseline.json":
            "76055fb285017df7b6e3b7906b5aec4f2e11f115ed931a3c3e7b190ef4c6dc28",
        ".stamps/mine.json": "de8baa63e02e44345810c77b43f2d79bf6428ed30c52c9b3c17a4b51ef66c31a",
        ".stamps/train.json": "15afb4e0a4cd8c39f86feee218ae0879717faceb8555373b003a3f47417d1111",
        ".stamps/embed.json": "694e3465c8e2c8ef9927c894fe858a22b1379dcc869c738dbba38f9a80a16c58",
        ".stamps/recluster.json":
            "127a8fad2a6a1a3756198e1bf6cd3814d2d69d68920cf8398ed82d860cb9bdfb",
        ".stamps/evaluate.json":
            "7c651afe279e038ea684f2ca02d432c8ca3d4cf7b053379da6f2586896e6f504",
    },
    ("siamese", "eom", 0.0): {
        "report.txt": "fad7988eb26398a58fc5700b2527c01ff2938721c647bd62424c8c3f7afd25b5",
        ".stamps/evaluate.json":
            "7381a5fbd3fd932e72f4e005dbf6ac4a296610e0f31e890fec72433e332ad9e0",
    },
}


@pytest.mark.parametrize("system, extraction, epsilon", SYSTEM_DIGESTS)
def test_system_artifacts_match_golden_digests(tmp_path, system, extraction, epsilon):
    workdir = tmp_path / "wd"
    blob = small_blob(workdir, system, extraction)
    blob["hdbscan"]["cluster_selection_epsilon"] = epsilon
    config = PipelineConfig.from_dict(blob)
    for stage in config.stage_names():
        run_stage(stage, config)
    digests = SYSTEM_DIGESTS[system, extraction, epsilon]
    assert {name: sha256_bytes((workdir / name).read_bytes()) for name in digests} == digests


def test_evaluate_reads_no_features(tmp_path, monkeypatch):
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd"))
    for stage in config.stage_names()[:-1]:
        run_stage(stage, config)

    def refuse(path):
        raise AssertionError(f"evaluate loaded the corpus at {path}")
    monkeypatch.setattr(pipeline, "load_corpus", refuse)
    assert run_stage("evaluate", config)


def test_mode_switch_reuses_shared_stages(tmp_path):
    workdir = tmp_path / "wd"
    baseline_config = PipelineConfig.from_dict(small_blob(workdir))
    run_all(baseline_config)
    stamp = (workdir / "segments.jsonl").stat().st_mtime_ns
    triplet_config = PipelineConfig.from_dict(
        small_blob(workdir, system="triplet"))
    run_all(triplet_config)
    assert (workdir / "segments.jsonl").stat().st_mtime_ns == stamp


def canonical(value):
    """`value` as nested tuples that keep the type of every leaf, an array
    as its dtype, shape and bytes, so == compares decoded artifacts exactly."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, Corpus):
        return ("Corpus", value.feature_dim, value.alphabet_size, canonical(list(value)))
    if is_dataclass(value):
        return (type(value).__name__,
                *(canonical(getattr(value, f.name)) for f in fields(value)))
    if isinstance(value, dict):
        return ("dict", tuple((key, canonical(v)) for key, v in value.items()))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(map(canonical, value)))
    return (type(value).__name__, value)


# what each stage hands forward: every artifact it writes that a later stage reads
HANDED_FORWARD = {
    "synth": {pipeline._CORPUS, ("corpus/gold.json",)},
    "discover": {("segments.jsonl",)},
    "baseline": {("clusters_baseline.json",)},
    "mine": {("manifest.json",)},
    "recluster": {("clusters_final.json",)},
}


# how the stage that writes each artifact in pipeline._DECODERS encodes its
# value, into a directory `root` under the artifact's workdir paths
ENCODERS = {
    pipeline._CORPUS: lambda value, root, segments: write_corpus(value, root / "corpus"),
    ("corpus/gold.json",): lambda value, root, segments: write_json(
        root / "corpus/gold.json", value),
    ("segments.jsonl",): lambda value, root, segments: seqmatch.write_segments(
        root / "segments.jsonl", value),
    ("manifest.json",): lambda value, root, segments: write_json(root / "manifest.json", value),
    ("clusters_baseline.json",): lambda value, root, segments: write_clusters(
        root / "clusters_baseline.json", value, segments),
    ("clusters_final.json",): lambda value, root, segments: write_clusters(
        root / "clusters_final.json", value, segments),
}


@pytest.mark.parametrize("system", pipeline.SYSTEMS)
def test_handed_forward_values_equal_a_decode_of_their_bytes(tmp_path, system):
    """Each handed-forward value equals a decode of its files, and every
    artifact a stage reads decodes and encodes again to the bytes on disk."""
    workdir, again = tmp_path / "wd", tmp_path / "again"
    (again / "corpus").mkdir(parents=True)
    config = PipelineConfig.from_dict(small_blob(workdir, system=system))
    table = pipeline._stage_table(config)
    for stage in config.stage_names():
        run_stage(stage, config)
        handed = {artifact: held for artifact, held in pipeline._HANDOFF.held.items()
                  if set(artifact) <= set(table[stage].outputs)}
        assert set(handed) == HANDED_FORWARD.get(stage, set()), stage
        for artifact, (digests, value) in handed.items():
            assert digests == tuple(sha256_file(workdir / rel) for rel in artifact)
            decoded = pipeline._DECODERS[artifact](workdir / artifact[0])
            assert canonical(value) == canonical(decoded), artifact
    assert set(ENCODERS) == set(pipeline._DECODERS)
    segments = seqmatch.load_segments(workdir / "segments.jsonl")
    for artifact, decode in pipeline._DECODERS.items():
        if (workdir / artifact[0]).exists():
            ENCODERS[artifact](decode(workdir / artifact[0]), again, segments)
            for rel in artifact:
                assert (again / rel).read_bytes() == (workdir / rel).read_bytes(), rel


def test_unsorted_clusters_are_handed_forward_sorted(tmp_path, monkeypatch):
    """Baseline hands forward what write_clusters returns: the clusters with
    their members sorted, equal to a decode of the file, while the caller's
    clusters keep their order."""
    workdir = tmp_path / "wd"
    config = PipelineConfig.from_dict(small_blob(workdir))
    for stage in ("synth", "discover"):
        run_stage(stage, config)
    made = []

    def unsorted_clusters(segments, params):
        a, b, c, d = sorted(s.id for s in segments)[:4]
        made.extend([Cluster(0, d, [d, a]), Cluster(1, b, [c, b])])
        return made

    monkeypatch.setattr(pipeline.baseline_mod, "leader_cluster", unsorted_clusters)
    assert run_stage("baseline", config)
    digests, held = pipeline._HANDOFF.held[("clusters_baseline.json",)]
    assert [c.members for c in held] == [sorted(c.members) for c in made]
    assert [c.members for c in made] != [sorted(c.members) for c in made]
    decoded = load_clusters(workdir / "clusters_baseline.json")
    assert canonical(held) == canonical(decoded)
    assert digests == (sha256_file(workdir / "clusters_baseline.json"),)


def workdir_bytes(workdir):
    return {p.relative_to(workdir).as_posix(): p.read_bytes()
            for p in sorted(workdir.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("system", pipeline.SYSTEMS)
def test_handoff_writes_what_a_decode_per_stage_writes(tmp_path, system):
    """All stages in one process, and each stage with nothing held (as one
    CLI process per stage runs them), write byte-identical workdirs."""
    runs = {}
    for name in ("handed", "decoded"):
        config = PipelineConfig.from_dict(small_blob(tmp_path / name, system=system))
        for stage in config.stage_names():
            if name == "decoded":
                pipeline._HANDOFF.clear()
            assert run_stage(stage, config), stage
        runs[name] = workdir_bytes(tmp_path / name)
    assert runs["handed"].keys() == runs["decoded"].keys()
    assert runs["handed"] == runs["decoded"]


def test_forced_discover_hands_its_new_segments_to_baseline(tmp_path):
    workdir = tmp_path / "wd"
    config = PipelineConfig.from_dict(small_blob(workdir))
    for stage in ("synth", "discover", "baseline"):
        run_stage(stage, config)
    before = seqmatch.load_segments(workdir / "segments.jsonl")
    changed = replace(config, align=replace(config.align, min_length=5))
    assert run_stage("discover", changed, force=True)
    segments = seqmatch.load_segments(workdir / "segments.jsonl")
    assert segments != before
    assert run_stage("baseline", changed)
    assert load_clusters(workdir / "clusters_baseline.json") \
        == leader_cluster(segments, changed.leader)


def test_handoff_holds_one_workdir(tmp_path):
    first = PipelineConfig.from_dict(small_blob(tmp_path / "a"))
    second = PipelineConfig.from_dict(small_blob(tmp_path / "b"))
    run_stage("synth", second)
    for stage in ("synth", "discover"):
        run_stage(stage, first)
    values = [value for _, value in pipeline._HANDOFF.held.values()]
    assert len(values) == 3
    # a cached stage on another workdir drops what the first one held too
    assert run_stage("synth", second) is False
    assert pipeline._HANDOFF.workdir == tmp_path / "b"
    assert pipeline._HANDOFF.held == {}
    run_stage("discover", second)
    assert not any(held is value for _, held in pipeline._HANDOFF.held.values()
                   for value in values)


def cli_env():
    """The caller's environment with the root of the imported termforge
    package first on PYTHONPATH, so a child process runs the same package
    whether or not it is pip-installed."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(termforge.__file__)))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": root + os.pathsep + path if path else root}


def test_cli_end_to_end(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_blob(tmp_path / "wd")))
    proc = subprocess.run(
        [sys.executable, "-m", "termforge.cli", "all",
         "--config", str(config_path)],
        capture_output=True, text=True,
        env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "wd" / "report.json").is_file()
    assert "baseline" in proc.stdout        # the printed results row


def test_siamese_stages_leave_numpy_ma_unimported(tmp_path):
    # a plain np.unique imports numpy.ma on its first call, which costs a
    # fresh process 10-20 ms; fractions imports decimal, 0.4 MiB of RSS
    blob = small_blob(tmp_path / "wd", system="siamese")
    script = (
        "import sys\n"
        "from termforge.pipeline import PipelineConfig, run_stage\n"
        f"config = PipelineConfig.from_dict({blob!r})\n"
        "for stage in config.stage_names():\n"
        "    assert run_stage(stage, config), stage\n"
        "    print(stage, sorted({'numpy.ma', 'decimal', 'fractions'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{stage} []" for stage in PipelineConfig.from_dict(blob).stage_names()]


@pytest.mark.parametrize("stage, text, message, dp_cells", [
    ("all", '{"seed": 1,', "config.json: Expecting property name", None),
    ("all", None, "No such file", None),
    ("all", '{"synth": {"vocabulary_size": 3, "bogus": 1}}',
     "config section 'synth': SynthConfig.__init__() got an unexpected keyword "
     "argument 'bogus'", None),
    ("all", '{"synth": {"vocabulary_size": 3}, "hdbscan": {"min_size": 3}}',
     "config section 'hdbscan'", None),
    ("all", '{"synth": {}}', "config section 'synth'", None),
    ("synth", '{"vocabulary_size": 3, "bogus": 1}',
     "config: unknown top-level key(s) ['bogus', 'vocabulary_size']", None),
    ("all", '{"synth": {"vocabulary_size": 3}, "hdbscn": {"min_cluster_size": 3}}',
     "unknown top-level key(s) ['hdbscn']", None),
    ("all", '{"synth": {"vocabulary_size": 3}, "eval": {"edge_tolerance": 1}}',
     "unknown top-level key(s) ['eval']", None),
    ("all", "[1]", "config must be a JSON object, got list", None),
    ("synth", "[1]", "config must be a JSON object, got list", None),
    ("all", '{"synth": [1]}', "config section 'synth' must be a JSON object", None),
    ("all", '{"synth": {"vocabulary_size": 3}, "train": 3}',
     "config section 'train' must be a JSON object, got int", None),
    ("all", '{"synth": {"vocabulary_size": 3, "indel_rate": 0.1}}',
     "config section 'synth': SynthConfig.__init__() got an unexpected keyword "
     "argument 'indel_rate'", None),
    ("synth", '{"vocabulary_size": 3, "indel_rate": 0.0}',
     "config: unknown top-level key(s) ['indel_rate', 'vocabulary_size']", None),
    ("synth", '{"synth": {"vocabulary_size": 3, "seed": 99}}',
     "config section 'synth': SynthConfig.__init__() got an unexpected keyword "
     "argument 'seed'", None),
    ("all", '{"synth": {"vocabulary_size": 3}, "train": {"seed": 7}}',
     "config section 'train': TrainConfig.__init__() got an unexpected keyword "
     "argument 'seed'", None),
    ("all", '{"synth": {"vocabulary_size": 3}, "mining": {"bogus": 1}}',
     "config section 'mining': MiningConfig.__init__() got an unexpected keyword "
     "argument 'bogus'", None),
    ("all", '{"synth": {"vocabulary_size": 3}}',
     "alignment budget exceeded: 38165 DP cells > 1", 1),
    ("all", '{"synth": {"vocabulary_size": 3}, "hdbscan": {"max_points": 10}}',
     "config section 'hdbscan': HdbscanParams.__init__() got an unexpected keyword "
     "argument 'max_points'", None),
    ("all", '{"synth": {"vocabulary_size": 3}, "max_dp_cells": 1}',
     "config: unknown top-level key(s) ['max_dp_cells']", None),
    ("all", '{"synth": {"vocabulary_size": 3}, "system": "siamese"}',
     "no positive source", None),
], ids=["malformed", "missing", "unknown-key", "unknown-hdbscan-key",
        "missing-key", "bare-synth-unknown-key", "unknown-top-level-key",
        "eval-top-level-key",
        "not-an-object", "synth-not-an-object", "section-not-an-object",
        "train-not-an-object", "indel-rate", "bare-synth-indel-rate",
        "synth-seed", "train-seed",
        "unknown-mining-key", "alignment-budget", "max-points-key", "max-dp-cells-key",
        "no-positive-source"])
def test_cli_config_error_is_one_logged_line(tmp_path, caplog, monkeypatch, stage, text,
                                             message, dp_cells):
    """dp_cells, where a case gives it, replaces the alignment budget."""
    if dp_cells is not None:
        monkeypatch.setattr(seqmatch, "MAX_DP_CELLS", dp_cells)
    config_path = tmp_path / "config.json"
    if text is not None:
        config_path.write_text(text)
    argv = [stage, "--config", str(config_path), "--out", str(tmp_path / "out")]
    with caplog.at_level(logging.ERROR, logger="termforge"):
        assert cli.main(argv) == 1
    [record] = caplog.records
    assert record.name == "termforge" and record.levelno == logging.ERROR
    assert message in record.getMessage()


def test_cli_non_finite_embeddings_are_one_logged_line(tmp_path, caplog, monkeypatch):
    """Embeddings that overflowed stop the run at recluster with one logged
    line that names the row, and no clusters are written."""
    original = embednet.embed_all

    def overflowed(*args):
        table = original(*args)
        table[3] = np.inf
        return table

    monkeypatch.setattr(embednet, "embed_all", overflowed)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_blob(tmp_path / "wd", system="triplet")))
    with caplog.at_level(logging.ERROR, logger="termforge"):
        assert cli.main(["all", "--config", str(config_path)]) == 1
    [record] = caplog.records
    assert record.getMessage() == "embedding row 3 is not finite: column 0 is inf"
    assert not (tmp_path / "wd" / "clusters_final.json").exists()


def test_malformed_pair_manifest_is_one_logged_line(tmp_path, caplog):
    """A manifest without its siamese pairs, recorded in the mine stamp as
    the stage's own output, stops train with one line that names the file."""
    workdir = tmp_path / "wd"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_blob(workdir, system="siamese")))
    for stage in ("synth", "discover", "baseline", "mine"):
        assert cli.main([stage, "--config", str(config_path)]) == 0
    manifest = workdir / "manifest.json"
    blob = json.loads(manifest.read_text())
    del blob["siamese"]
    manifest.write_text(json.dumps(blob))
    stamp = json.loads((workdir / ".stamps" / "mine.json").read_text())
    stamp["outputs"]["manifest.json"] = sha256_bytes(manifest.read_bytes())
    (workdir / ".stamps" / "mine.json").write_text(json.dumps(stamp))
    caplog.clear()
    with caplog.at_level(logging.ERROR, logger="termforge"):
        assert cli.main(["train", "--config", str(config_path)]) == 1
    [record] = caplog.records
    assert record.getMessage() == f"{manifest}: pair manifest: missing key(s) ['siamese']"
    assert not (workdir / "params.npy").exists()


def test_unknown_stage_rejected(tmp_path):
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd"))
    with pytest.raises(PipelineError, match="unknown stage"):
        run_stage("compress", config)
