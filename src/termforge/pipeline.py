"""Stage orchestration: synth -> discover -> baseline -> mine -> train ->
embed -> recluster -> evaluate, with content-hash stage caching.

One table (`_stage_table`) describes each stage: the artifacts it reads and
writes, the config settings its hash covers and the function that runs it.
Every stage is idempotent for identical inputs and seed: a stage re-runs only
when the hash of its settings plus upstream artifacts changes (or with
force=True). All randomness flows from the root seed through labelled
sub-seed derivation, so two runs with the same config produce byte-identical
artifacts.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import baseline as baseline_mod
from . import embednet, evaluation, mining, recluster, seqmatch, synthgen
from .corpus import load_corpus, load_gold, write_corpus, write_gold
from .util import atomic_write, derive_seed, sha256_bytes, sha256_file, stable_json

log = logging.getLogger("termforge")

STAGES = ("synth", "discover", "baseline", "mine", "train",
          "embed", "recluster", "evaluate")
SYSTEMS = ("baseline", "siamese", "triplet")
EXTRACTIONS = ("eom", "hybrid")


class PipelineError(RuntimeError):
    pass


def config_section(cls, section: str, data: dict):
    """cls(**data); an unknown or a missing required key raises a
    PipelineError that names the section and the key."""
    try:
        return cls(**data)
    except TypeError as exc:   # from a dataclass __init__: a bad key
        raise PipelineError(f"config section {section!r}: {exc}") from None


def synth_config(data: dict) -> synthgen.SynthConfig:
    """SynthConfig from JSON data, in which its ranges are lists."""
    data = dict(data)
    for key in ("word_length_range", "frames_per_subword_range"):
        if key in data:
            data[key] = tuple(data[key])
    return config_section(synthgen.SynthConfig, "synth", data)


@dataclass
class PipelineConfig:
    seed: int = 0
    system: str = "baseline"
    extraction: str = "eom"
    workdir: str = "runs/default"
    synth: synthgen.SynthConfig = field(
        default_factory=lambda: synthgen.SynthConfig(vocabulary_size=5))
    align: seqmatch.AlignScoring = field(default_factory=seqmatch.AlignScoring)
    leader: baseline_mod.LeaderParams = field(default_factory=baseline_mod.LeaderParams)
    thresholds: mining.MiningThresholds = field(default_factory=mining.MiningThresholds)
    n_siamese: int = 10_000
    n_triplet: int = 10_000
    train: embednet.TrainConfig = field(default_factory=embednet.TrainConfig)
    hdbscan: recluster.HdbscanParams = field(default_factory=recluster.HdbscanParams)
    eval: evaluation.EvalConfig = field(default_factory=evaluation.EvalConfig)
    max_dp_cells: int = 200_000_000

    def validate(self) -> None:
        if self.system not in SYSTEMS:
            raise PipelineError(f"system must be one of {SYSTEMS}, got {self.system!r}")
        if self.extraction not in EXTRACTIONS:
            raise PipelineError(
                f"extraction must be one of {EXTRACTIONS}, got {self.extraction!r}")

    @property
    def mode(self) -> str:
        if self.system == "baseline":
            return "baseline"
        return f"{self.system}-{self.extraction}"

    def stage_names(self) -> tuple[str, ...]:
        if self.system == "baseline":
            return ("synth", "discover", "baseline", "evaluate")
        return STAGES

    @classmethod
    def from_dict(cls, blob: dict) -> "PipelineConfig":
        synth_data = dict(blob.get("synth", {}))
        synth_data.pop("seed", None)   # derived from the root seed
        mining_data = dict(blob.get("mining", {}))
        n_siamese = mining_data.pop("n_siamese", 10_000)
        n_triplet = mining_data.pop("n_triplet", 10_000)
        config = cls(
            seed=blob.get("seed", 0),
            system=blob.get("system", "baseline"),
            extraction=blob.get("extraction", "eom"),
            workdir=blob.get("workdir", "runs/default"),
            synth=synth_config(synth_data),
            align=config_section(seqmatch.AlignScoring, "align", blob.get("align", {})),
            leader=config_section(baseline_mod.LeaderParams, "leader", blob.get("leader", {})),
            thresholds=config_section(mining.MiningThresholds, "mining", mining_data),
            n_siamese=n_siamese,
            n_triplet=n_triplet,
            train=config_section(embednet.TrainConfig, "train", blob.get("train", {})),
            hdbscan=config_section(recluster.HdbscanParams, "hdbscan", blob.get("hdbscan", {})),
            eval=config_section(evaluation.EvalConfig, "eval", blob.get("eval", {})),
            max_dp_cells=blob.get("max_dp_cells", 200_000_000),
        )
        config.validate()
        return config


@dataclass(frozen=True)
class _Stage:
    name: str
    inputs: tuple[str, ...]           # workdir-relative artifact paths
    outputs: tuple[str, ...]
    settings: dict                    # config values the stage hash covers
    run: Callable[[PipelineConfig, Path], None]


def _artifact_hash(workdir: Path, rel: str) -> str:
    """sha256 of an artifact; a corpus is hashed by its manifest plus every
    utterance file the manifest references."""
    path = workdir / rel
    if rel != "corpus/manifest.json":
        return sha256_file(path)
    manifest = json.loads(path.read_text())
    parts = [sha256_file(path)]
    for utt_id in manifest["utterances"]:
        for suffix in (".feat", ".sym"):
            parts.append(sha256_file(path.parent / f"{utt_id}{suffix}"))
    return sha256_bytes("".join(parts).encode())


def _read_stamp(workdir: Path, stage: str) -> dict:
    """The stamp a stage wrote when it last completed; {} when there is none
    or it cannot be read."""
    try:
        stamp = json.loads((workdir / ".stamps" / f"{stage}.json").read_text())
    except (OSError, ValueError):
        return {}
    return stamp if isinstance(stamp, dict) else {}


def _recorded_hash(workdir: Path, rel: str, stamp: dict) -> str | None:
    """The hash of an artifact when it still has the hash recorded in `stamp`,
    else None (also when the artifact is missing or cannot be read)."""
    outputs = stamp.get("outputs")
    recorded = outputs.get(rel) if isinstance(outputs, dict) else None
    try:
        return recorded if recorded == _artifact_hash(workdir, rel) else None
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _input_hashes(table: dict[str, _Stage], stage: _Stage, workdir: Path) -> list[str]:
    """Hash of every input, each checked against the output hash recorded by
    the stage that writes it; a missing, torn, changed or unrecorded input
    raises a PipelineError that names that stage."""
    producer = {rel: name for name, other in table.items() for rel in other.outputs}
    hashes = []
    for rel in stage.inputs:
        if not (workdir / rel).exists():
            raise PipelineError(f"missing {rel} (run the {producer[rel]} stage first)")
        digest = _recorded_hash(workdir, rel, _read_stamp(workdir, producer[rel]))
        if digest is None:
            raise PipelineError(
                f"{rel} is not what the {producer[rel]} stage last wrote "
                f"(run the {producer[rel]} stage again)")
        hashes.append(digest)
    return hashes


def _stage_hash(config: PipelineConfig, stage: _Stage, input_hashes: list[str]) -> str:
    parts = [stable_json({"seed": config.seed, **stage.settings}), *input_hashes]
    return sha256_bytes("|".join(parts).encode())


def _is_current(workdir: Path, current: str, stage: _Stage) -> bool:
    """True when the stamp records the current input hash and every output
    still has the hash recorded when the stage wrote it. A missing or
    unreadable stamp, or a missing, changed or unreadable output, is stale."""
    stamp = _read_stamp(workdir, stage.name)
    return stamp.get("hash") == current and all(
        _recorded_hash(workdir, rel, stamp) is not None for rel in stage.outputs)


# ---------------------------------------------------------------------------
# stage bodies


def _run_synth(config: PipelineConfig, workdir: Path) -> None:
    synth_cfg = synthgen.SynthConfig(**{**asdict(config.synth),
                                        "seed": derive_seed(config.seed, "synth")})
    corpus, gold = synthgen.generate(synth_cfg)
    corpus_dir = workdir / "corpus"
    write_corpus(corpus, corpus_dir)
    write_gold(gold, corpus_dir / "gold.json")
    log.info("synth: %d utterances, %d frames", len(corpus), corpus.total_frames())


def _run_discover(config: PipelineConfig, workdir: Path) -> None:
    corpus = load_corpus(workdir / "corpus")
    segments = seqmatch.discover_segments(corpus, config.align,
                                          max_dp_cells=config.max_dp_cells)
    seqmatch.write_segments(workdir / "segments.jsonl", segments)
    log.info("discover: %d segments", len(segments))


def _run_baseline(config: PipelineConfig, workdir: Path) -> None:
    segments = seqmatch.load_segments(workdir / "segments.jsonl")
    clusters = baseline_mod.leader_cluster(segments, config.leader)
    baseline_mod.validate_partition(clusters)
    baseline_mod.write_clusters(workdir / "clusters_baseline.json", clusters)
    log.info("baseline: %d clusters", len(clusters))


def _run_mine(config: PipelineConfig, workdir: Path) -> None:
    segments = seqmatch.load_segments(workdir / "segments.jsonl")
    by_id = {s.id: s for s in segments}
    clusters = baseline_mod.load_clusters(workdir / "clusters_baseline.json")
    retained = mining.select_pure_clusters(clusters, by_id, config.thresholds)
    contrasting = mining.select_contrasting_pairs(retained, by_id, config.thresholds)
    manifest = mining.sample_manifest(
        retained, contrasting, config.n_siamese, config.n_triplet,
        seed=derive_seed(config.seed, "mine"))
    mining.write_manifest(workdir / "manifest.json", manifest)
    log.info("mine: %d retained clusters, %d contrasting pairs, %d pairs, %d triplets",
             len(retained), len(contrasting),
             len(manifest.siamese_pairs), len(manifest.triplets))


def _run_train(config: PipelineConfig, workdir: Path) -> None:
    corpus = load_corpus(workdir / "corpus")
    segments = seqmatch.load_segments(workdir / "segments.jsonl")
    manifest = mining.load_manifest(workdir / "manifest.json")
    arch = embednet.NetArch(l_max=config.train.l_max,
                            feature_dim=corpus.feature_dim)
    params = embednet.init_params(arch, derive_seed(config.seed, "init"))
    train_cfg = embednet.TrainConfig(**{**asdict(config.train),
                                        "seed": derive_seed(config.seed, "train")})
    params, curve = embednet.train(params, manifest, corpus, segments,
                                   train_cfg, mode=config.system)
    embednet.save_params(workdir / "params.ckpt", params)
    embednet.write_loss_curve(workdir / "loss_curve.csv", curve)
    log.info("train[%s]: %d epochs, final loss %.6f",
             config.system, len(curve), curve[-1])


def _run_embed(config: PipelineConfig, workdir: Path) -> None:
    corpus = load_corpus(workdir / "corpus")
    segments = seqmatch.load_segments(workdir / "segments.jsonl")
    params = embednet.load_params(workdir / "params.ckpt")
    table = embednet.embed_all(params, segments, corpus, config.train.l_max)
    with atomic_write(workdir / "embeddings.npy", "wb") as fh:
        np.save(fh, table)
    log.info("embed: %s table", table.shape)


def _run_recluster(config: PipelineConfig, workdir: Path) -> None:
    segments = seqmatch.load_segments(workdir / "segments.jsonl")
    table = np.load(workdir / "embeddings.npy")
    params = recluster.HdbscanParams(**{
        **asdict(config.hdbscan),
        "cluster_selection_epsilon": (config.hdbscan.cluster_selection_epsilon
                                      if config.extraction == "hybrid" else 0.0),
    })
    result = recluster.hdbscan(table, params)
    blob = {
        "clusters": [
            {
                "id": idx,
                "leader": min(segments[p].id for p in members),
                "members": sorted(segments[p].id for p in members),
                "stability": result.stabilities[idx],
            }
            for idx, members in enumerate(result.clusters)
        ],
        "noise": sorted(segments[p].id for p in result.noise),
    }
    with atomic_write(workdir / "clusters_final.json") as fh:
        fh.write(json.dumps(blob, sort_keys=True, indent=2) + "\n")
    log.info("recluster: %d clusters, %d noise segments",
             len(result.clusters), len(result.noise))


def _load_final_clusters(path) -> list[baseline_mod.Cluster]:
    blob = json.loads(Path(path).read_text())
    return [baseline_mod.Cluster(id=c["id"], leader=c["leader"],
                                 members=list(c["members"]))
            for c in blob["clusters"]]


def _run_evaluate(config: PipelineConfig, workdir: Path) -> None:
    corpus = load_corpus(workdir / "corpus")
    gold = load_gold(workdir / "corpus" / "gold.json")
    segments = seqmatch.load_segments(workdir / "segments.jsonl")
    if config.system == "baseline":
        clusters = baseline_mod.load_clusters(workdir / "clusters_baseline.json")
    else:
        clusters = _load_final_clusters(workdir / "clusters_final.json")
    report = evaluation.report(clusters, segments, corpus, gold, config.eval)
    evaluation.write_report(report, workdir / "report.json", workdir / "report.txt",
                            system=config.mode)
    log.info("evaluate[%s]: %d clusters scored", config.mode, len(clusters))


def _stage_table(config: PipelineConfig) -> dict[str, _Stage]:
    """Every stage of the pipeline, in run order, as `config` sets it up."""
    clusters_file = ("clusters_baseline.json" if config.system == "baseline"
                     else "clusters_final.json")
    stages = (
        _Stage("synth", (), ("corpus/manifest.json", "corpus/gold.json"),
               {"synth": stable_json(asdict(config.synth))}, _run_synth),
        _Stage("discover", ("corpus/manifest.json",), ("segments.jsonl",),
               {"align": stable_json(asdict(config.align)),
                "max_dp_cells": config.max_dp_cells}, _run_discover),
        _Stage("baseline", ("segments.jsonl",), ("clusters_baseline.json",),
               {"leader": stable_json(asdict(config.leader))}, _run_baseline),
        _Stage("mine", ("segments.jsonl", "clusters_baseline.json"), ("manifest.json",),
               {"thresholds": stable_json(asdict(config.thresholds)),
                "n_siamese": config.n_siamese, "n_triplet": config.n_triplet},
               _run_mine),
        _Stage("train", ("manifest.json", "corpus/manifest.json", "segments.jsonl"),
               ("params.ckpt", "loss_curve.csv"),
               {"train": stable_json(asdict(config.train)), "system": config.system},
               _run_train),
        _Stage("embed", ("params.ckpt", "segments.jsonl", "corpus/manifest.json"),
               ("embeddings.npy",), {"l_max": config.train.l_max}, _run_embed),
        _Stage("recluster", ("embeddings.npy", "segments.jsonl"), ("clusters_final.json",),
               {"hdbscan": stable_json(asdict(config.hdbscan)),
                "extraction": config.extraction}, _run_recluster),
        _Stage("evaluate", (clusters_file, "segments.jsonl", "corpus/manifest.json",
                            "corpus/gold.json"), ("report.json", "report.txt"),
               {"eval": stable_json(asdict(config.eval)), "system": config.system,
                "extraction": config.extraction}, _run_evaluate),
    )
    return {stage.name: stage for stage in stages}


def run_stage(stage_name: str, config: PipelineConfig, force: bool = False) -> bool:
    """Run one stage; returns False when the cached artifacts are current.

    Outputs are renamed into place whole, the stamp is removed before the
    stage runs and written after it with the hash of every output, so a
    stage that fails or an output changed since leaves the stage stale.
    Every input must still have the hash its producing stage recorded;
    otherwise a PipelineError names the stage to run again.
    """
    config.validate()
    table = _stage_table(config)
    if stage_name not in table:
        raise PipelineError(f"unknown stage {stage_name!r} (expected one of {STAGES})")
    if stage_name not in config.stage_names():
        raise PipelineError(f"stage {stage_name!r} is not part of mode {config.mode}")
    workdir = Path(config.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    stage = table[stage_name]
    current = _stage_hash(config, stage, _input_hashes(table, stage, workdir))

    stamp_dir = workdir / ".stamps"
    stamp_dir.mkdir(exist_ok=True)
    stamp_path = stamp_dir / f"{stage.name}.json"
    if not force and _is_current(workdir, current, stage):
        log.info("%s: up to date, skipping", stage.name)
        return False

    stamp_path.unlink(missing_ok=True)
    stage.run(config, workdir)
    outputs = {rel: _artifact_hash(workdir, rel) for rel in stage.outputs}
    with atomic_write(stamp_path) as fh:
        fh.write(json.dumps({"hash": current, "outputs": outputs}, sort_keys=True) + "\n")
    return True


def run_all(config: PipelineConfig, force: bool = False) -> evaluation.EvalReport:
    """Run every stage for the configured mode and return the final report."""
    config.validate()
    for stage_name in config.stage_names():
        run_stage(stage_name, config, force=force)
    workdir = Path(config.workdir)
    report = evaluation.load_report(workdir / "report.json")
    print(evaluation.render_text(report, system=config.mode), end="")
    return report
