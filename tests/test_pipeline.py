import json
import logging
import os
import subprocess
import sys
from dataclasses import asdict

import pytest

import termforge
from termforge import cli, pipeline
from termforge.pipeline import PipelineConfig, PipelineError, run_all, run_stage
from termforge.util import atomic_write, sha256_bytes, stable_json


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


def test_torn_corpus_file_reruns_synth(tmp_path):
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd"))
    run_stage("synth", config)
    (tmp_path / "wd" / "corpus" / "manifest.json").write_text("{")
    assert run_stage("synth", config) is True
    assert run_stage("synth", config) is False


def test_torn_corpus_stops_discover_naming_synth(tmp_path):
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd"))
    run_stage("synth", config)
    (tmp_path / "wd" / "corpus" / "manifest.json").write_text("{")
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


@pytest.mark.parametrize("system", ["baseline", "siamese"])
def test_every_input_has_one_earlier_producer(tmp_path, system):
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd", system=system))
    table = pipeline._stage_table(config)
    names = config.stage_names()
    for position, name in enumerate(names):
        for rel in table[name].inputs:
            producers = [other for other in names[:position]
                         if rel in table[other].outputs]
            assert len(producers) == 1, (name, rel, producers)


def reference_stage_settings(config, stage):
    """The config subset each stage hash covered when the stages were three
    tables; a change here invalidates every cached workdir."""
    subsets = {
        "synth": {"synth": stable_json(asdict(config.synth))},
        "discover": {"align": stable_json(asdict(config.align)),
                     "max_dp_cells": config.max_dp_cells},
        "baseline": {"leader": stable_json(asdict(config.leader))},
        "mine": {"thresholds": stable_json(asdict(config.thresholds)),
                 "n_siamese": config.n_siamese, "n_triplet": config.n_triplet},
        "train": {"train": stable_json(asdict(config.train)), "system": config.system},
        "embed": {"l_max": config.train.l_max},
        "recluster": {"hdbscan": stable_json(asdict(config.hdbscan)),
                      "extraction": config.extraction},
        "evaluate": {"eval": stable_json(asdict(config.eval)), "system": config.system,
                     "extraction": config.extraction},
    }
    return {"seed": config.seed, **subsets[stage]}


@pytest.mark.parametrize("system, extraction", [("baseline", "eom"),
                                                ("siamese", "eom"),
                                                ("triplet", "hybrid")])
def test_stage_hash_covers_reference_settings(tmp_path, system, extraction):
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd", system, extraction))
    table = pipeline._stage_table(config)
    assert tuple(table) == pipeline.STAGES
    for name, stage in table.items():
        expected = sha256_bytes("|".join(
            [stable_json(reference_stage_settings(config, name)), "h1", "h2"]).encode())
        assert pipeline._stage_hash(config, stage, ["h1", "h2"]) == expected, name


LEARNED_PRODUCERS = [("discover", "corpus/manifest.json", "synth"),
                     ("baseline", "segments.jsonl", "discover"),
                     ("mine", "segments.jsonl", "discover"),
                     ("train", "manifest.json", "mine"),
                     ("embed", "params.ckpt", "train"),
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
    assert not (workdir / "params.ckpt").exists()
    assert not (workdir / "clusters_final.json").exists()
    with pytest.raises(PipelineError, match="not part of mode"):
        run_stage("train", config)


def test_triplet_mode_emits_all_artifacts(tmp_path):
    config = PipelineConfig.from_dict(
        small_blob(tmp_path / "wd", system="triplet", extraction="hybrid"))
    report = run_all(config)
    workdir = tmp_path / "wd"
    for name in ("segments.jsonl", "clusters_baseline.json", "manifest.json",
                 "params.ckpt", "loss_curve.csv", "embeddings.npy",
                 "clusters_final.json", "report.json"):
        assert (workdir / name).exists(), name
    assert report.n_words >= 1


def test_identical_runs_are_byte_identical(tmp_path):
    blobs = []
    for name in ("a", "b"):
        config = PipelineConfig.from_dict(
            small_blob(tmp_path / name, system="siamese", extraction="eom"))
        run_all(config)
        blobs.append((tmp_path / name / "report.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_mode_switch_reuses_shared_stages(tmp_path):
    workdir = tmp_path / "wd"
    baseline_config = PipelineConfig.from_dict(small_blob(workdir))
    run_all(baseline_config)
    stamp = (workdir / "segments.jsonl").stat().st_mtime_ns
    triplet_config = PipelineConfig.from_dict(
        small_blob(workdir, system="triplet"))
    run_all(triplet_config)
    assert (workdir / "segments.jsonl").stat().st_mtime_ns == stamp


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


def test_cli_bare_synth_config(tmp_path):
    config_path = tmp_path / "synth.json"
    config_path.write_text(json.dumps({
        "vocabulary_size": 3, "word_length_range": [3, 4],
        "occurrences_per_word": 4, "seed": 5,
    }))
    out_dir = tmp_path / "corpus"
    proc = subprocess.run(
        [sys.executable, "-m", "termforge.cli", "synth",
         "--config", str(config_path), "--out", str(out_dir)],
        capture_output=True, text=True, env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (out_dir / "manifest.json").is_file()
    assert (out_dir / "gold.json").is_file()
    from termforge.corpus import load_corpus
    assert len(load_corpus(out_dir)) == 2   # ceil(12 tokens / 8 per utterance)


@pytest.mark.parametrize("stage, text, message", [
    ("all", "{", "Expecting property name"),
    ("all", None, "No such file"),
    ("all", '{"synth": {"vocabulary_size": 3, "bogus": 1}}',
     "config section 'synth': SynthConfig.__init__() got an unexpected keyword "
     "argument 'bogus'"),
    ("all", '{"synth": {"vocabulary_size": 3}, "hdbscan": {"min_size": 3}}',
     "config section 'hdbscan'"),
    ("all", '{"synth": {}}', "config section 'synth'"),
    ("synth", '{"vocabulary_size": 3, "bogus": 1}', "config section 'synth'"),
], ids=["malformed", "missing", "unknown-key", "unknown-hdbscan-key",
        "missing-key", "bare-synth-unknown-key"])
def test_cli_config_error_is_one_logged_line(tmp_path, caplog, stage, text, message):
    config_path = tmp_path / "config.json"
    if text is not None:
        config_path.write_text(text)
    argv = [stage, "--config", str(config_path), "--out", str(tmp_path / "out")]
    with caplog.at_level(logging.ERROR, logger="termforge"):
        assert cli.main(argv) == 1
    [record] = caplog.records
    assert record.name == "termforge" and record.levelno == logging.ERROR
    assert message in record.getMessage()


def test_unknown_stage_rejected(tmp_path):
    config = PipelineConfig.from_dict(small_blob(tmp_path / "wd"))
    with pytest.raises(PipelineError, match="unknown stage"):
        run_stage("compress", config)


def test_env_thread_cap_keeps_results_identical(tmp_path, monkeypatch):
    config = PipelineConfig.from_dict(small_blob(tmp_path / "serial"))
    run_all(config)
    monkeypatch.setenv("TERMFORGE_THREADS", "2")
    config2 = PipelineConfig.from_dict(small_blob(tmp_path / "parallel"))
    run_all(config2)
    assert ((tmp_path / "serial" / "segments.jsonl").read_bytes()
            == (tmp_path / "parallel" / "segments.jsonl").read_bytes())
