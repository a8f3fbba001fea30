"""Stage orchestration: synth -> discover -> baseline -> mine -> train ->
embed -> recluster -> evaluate, with content-hash stage caching.

One table (`_stage_table`) describes each stage: the artifacts it reads and
writes, the `PipelineConfig` fields its hash covers and the function that
runs it. Each artifact is one workdir file, hashed by its sha256; the
corpus is two of them, `corpus/manifest.json` and `corpus/features.npy`, and
so is the network, `params.json` (its arch) and `params.npy` (its weights).
A stage's hash covers the root seed, the fields its table entry names and
the hashes of its inputs, and nothing else. Every stage is
idempotent for identical inputs and seed: a stage re-runs only when that
hash changes (or with force=True). All randomness flows from the root seed
through labelled sub-seed derivation, so two runs with the same config produce
byte-identical artifacts on one host. The BLAS thread count, which follows
the core count unless set, moves bytes too: OpenBLAS splits a float32
GEMM's sums by thread, so the trained `params.npy`, and with it the train
stamp and every stamp after it, differs between one and two threads, and a
corpus on a knife edge may then score differently. The pipeline does not
pin it; run with OPENBLAS_NUM_THREADS=1, as the tests and the benchmark do,
for stamps that reproduce across machines with other core counts.

`SYSTEMS` has one row per system: the clusters file evaluate scores and the
mining count the system trains on. No stage list is written down: a system
runs evaluate and every stage whose outputs evaluate reads, directly or not.

Within one process, stages hand decoded artifacts forward instead of each
decoding the files again. A stage returns the values it wrote (synth the
corpus and gold, discover the segments, mine the pair manifest, baseline and
recluster the clusters that write_clusters returns, members sorted), and
`run_stage` holds each under the sha256 of its files, which it computes for
the stamp anyway. A later stage reads an input through `read`, which serves
the held value when its hashes equal those `_input_hashes` just verified
against the producer's stamp, and otherwise decodes the file and holds the
result. A value is handed forward only when it equals a decode of the bytes
written, so a stage computes from it exactly what it would from the file,
and a changed byte changes the hash and so forces a decode. Values of one
workdir are held at a time, and a process that runs one stage starts with
none and decodes, as `termforge <stage>` does.

A config file is `PipelineConfig` as JSON: its keys are the fields, and each
section is the JSON object of that field's own settings dataclass.
"""

from __future__ import annotations

import json
import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from . import baseline as baseline_mod
from . import embednet, evaluation, mining, recluster, seqmatch, synthgen
from .corpus import load_corpus, load_gold, write_corpus
from .util import (atomic_write, derive_seed, from_json, read_npy, sha256_bytes,
                   sha256_file, stable_json, write_json, write_npy)

log = logging.getLogger("termforge")

STAGES = ("synth", "discover", "baseline", "mine", "train",
          "embed", "recluster", "evaluate")
# system: (clusters file evaluate scores, MiningConfig count it trains on or None)
SYSTEMS = {"baseline": ("clusters_baseline.json", None),
           "siamese": ("clusters_final.json", "n_siamese"),
           "triplet": ("clusters_final.json", "n_triplet")}
EXTRACTIONS = ("eom", "hybrid")


class PipelineError(RuntimeError):
    pass


@dataclass
class PipelineConfig:
    """Settings of a run. The keys of a config file are these fields, and
    each section (`synth`, `align`, `leader`, `mining`, `train`, `hdbscan`)
    is its dataclass's own object, so `write_json` of a config writes a
    config file."""
    seed: int = 0
    system: str = "baseline"
    extraction: str = "eom"
    workdir: str = "runs/default"
    synth: synthgen.SynthConfig = field(
        default_factory=lambda: synthgen.SynthConfig(vocabulary_size=5))
    align: seqmatch.AlignScoring = field(default_factory=seqmatch.AlignScoring)
    leader: baseline_mod.LeaderParams = field(default_factory=baseline_mod.LeaderParams)
    mining: mining.MiningConfig = field(default_factory=mining.MiningConfig)
    train: embednet.TrainConfig = field(default_factory=embednet.TrainConfig)
    hdbscan: recluster.HdbscanParams = field(default_factory=recluster.HdbscanParams)

    def validate(self) -> None:
        """Every setting, so that a bad value stops the run before any stage
        writes; a bad section value, such as a float that is NaN or
        infinite, raises a PipelineError naming the section."""
        if self.system not in SYSTEMS:
            raise PipelineError(f"system must be one of {tuple(SYSTEMS)}, got {self.system!r}")
        if self.extraction not in EXTRACTIONS:
            raise PipelineError(
                f"extraction must be one of {EXTRACTIONS}, got {self.extraction!r}")
        for system, (_, name) in SYSTEMS.items():
            least = int(system == self.system)   # a system trains on its own count
            count = getattr(self.mining, name) if name else least
            if count < least:
                raise PipelineError(f"config section 'mining': {name} must be >= {least}"
                                    f" for system {self.system!r}, got {count}")
        for section in fields(self):
            settings = getattr(self, section.name)
            if is_dataclass(settings):
                try:
                    for setting in fields(settings):
                        value = getattr(settings, setting.name)
                        if isinstance(value, float) and not math.isfinite(value):
                            raise ValueError(f"{setting.name} must be finite, got {value}")
                    settings.validate()
                except ValueError as exc:
                    raise PipelineError(
                        f"config section {section.name!r}: {exc}") from None

    @property
    def mode(self) -> str:
        reclusters = "recluster" in self.stage_names()
        return f"{self.system}-{self.extraction}" if reclusters else self.system

    def stage_names(self) -> tuple[str, ...]:
        """Evaluate and every stage it reads from, directly or not, in run order."""
        needed, names = {"report.json"}, []
        for stage in reversed(_stage_table(self).values()):
            if needed.intersection(stage.outputs):
                names.insert(0, stage.name)
                needed.update(stage.inputs)
        return tuple(names)

    @classmethod
    def from_dict(cls, blob: dict) -> "PipelineConfig":
        """Config from a JSON object whose keys are the fields and whose
        sections are the objects of their dataclasses. An unknown key, a
        wrong-typed or out-of-range value raises a PipelineError. A key that
        is absent keeps the dataclass default."""
        if not isinstance(blob, dict):
            raise PipelineError(f"config must be a JSON object, got {type(blob).__name__}")
        keys = [f.name for f in fields(cls)]
        unknown = sorted(set(blob) - set(keys))
        if unknown:
            raise PipelineError(f"config: unknown top-level key(s) {unknown}; "
                                f"expected keys are {keys}")
        try:
            config = from_json(cls, blob, "config")
        except ValueError as exc:
            raise PipelineError(str(exc)) from None
        config.validate()
        return config


@dataclass(frozen=True)
class _Stage:
    name: str
    inputs: tuple[str, ...]           # workdir-relative artifact paths
    outputs: tuple[str, ...]
    settings: tuple[str, ...]         # PipelineConfig fields the stage hash covers
    # run(config, workdir, read) -> {artifact: value} of what it wrote
    run: Callable[[PipelineConfig, Path, Callable], dict]


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
        return recorded if recorded == sha256_file(workdir / rel) else None
    except OSError:
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
    settings = {name: getattr(config, name) for name in ("seed", *stage.settings)}
    return sha256_bytes("|".join([stable_json(settings), *input_hashes]).encode())


def _is_current(workdir: Path, current: str, stage: _Stage) -> bool:
    """True when the stamp records the current input hash and every output
    still has the hash recorded when the stage wrote it. A missing or
    unreadable stamp, or a missing, changed or unreadable output, is stale."""
    stamp = _read_stamp(workdir, stage.name)
    return stamp.get("hash") == current and all(
        _recorded_hash(workdir, rel, stamp) is not None for rel in stage.outputs)


# ---------------------------------------------------------------------------
# stage bodies: run(config, workdir, read) reads each input through `read`
# and returns the values it wrote that equal a decode of their bytes


def _run_synth(config: PipelineConfig, workdir: Path, read) -> dict:
    corpus, gold = synthgen.generate(config.synth, derive_seed(config.seed, "synth"))
    corpus_dir = workdir / "corpus"
    write_corpus(corpus, corpus_dir)
    write_json(corpus_dir / "gold.json", gold)
    log.info("synth: %d utterances, %d frames", len(corpus), corpus.total_frames())
    # generate's features are float32 and its ints Python ints, as decoded
    return {_CORPUS: corpus, "corpus/gold.json": gold}


def _run_discover(config: PipelineConfig, workdir: Path, read) -> dict:
    segments = seqmatch.discover_segments(read(_CORPUS), config.align)
    seqmatch.write_segments(workdir / "segments.jsonl", segments)
    log.info("discover: %d segments", len(segments))
    return {"segments.jsonl": segments}


def _run_baseline(config: PipelineConfig, workdir: Path, read) -> dict:
    segments = read("segments.jsonl")
    clusters = baseline_mod.leader_cluster(segments, config.leader)
    written = baseline_mod.write_clusters(workdir / "clusters_baseline.json", clusters, segments)
    log.info("baseline: %d clusters", len(clusters))
    return {"clusters_baseline.json": written}


def _run_mine(config: PipelineConfig, workdir: Path, read) -> dict:
    by_id = {s.id: s for s in read("segments.jsonl")}
    clusters = read("clusters_baseline.json")
    retained = mining.select_pure_clusters(clusters, by_id, config.mining)
    contrasting = mining.select_contrasting_pairs(retained, by_id, config.mining)
    manifest = mining.sample_manifest(
        retained, contrasting, config.mining.n_siamese, config.mining.n_triplet,
        seed=derive_seed(config.seed, "mine"))
    write_json(workdir / "manifest.json", manifest)
    log.info("mine: %d retained clusters, %d contrasting pairs, %d pairs, %d triplets",
             len(retained), len(contrasting),
             len(manifest.siamese), len(manifest.triplets))
    return {"manifest.json": manifest}


def _run_train(config: PipelineConfig, workdir: Path, read) -> dict:
    corpus = read(_CORPUS)
    manifest = read("manifest.json")
    arch = embednet.NetArch(l_max=config.train.l_max,
                            feature_dim=corpus.feature_dim)
    # passed unnamed, so the initial set is freed once train has copied it
    params, curve = embednet.train(
        embednet.init_params(arch, derive_seed(config.seed, "init")), manifest, corpus,
        read("segments.jsonl"), config.train, config.system, derive_seed(config.seed, "train"))
    embednet.save_params(*(workdir / rel for rel in _NETWORK), params)
    embednet.write_loss_curve(workdir / "loss_curve.csv", curve)
    tower_ids = embednet.tower_segment_ids(manifest, config.system)
    log.info("train[%s]: %d epochs, final loss %.6f, %d distinct segments for %d "
             "tower inputs", config.system, len(curve), curve[-1],
             len(set(tower_ids.ravel().tolist())), tower_ids.size)
    return {}


def _run_embed(config: PipelineConfig, workdir: Path, read) -> dict:
    params = embednet.load_params(*(workdir / rel for rel in _NETWORK))
    table = embednet.embed_all(params, read("segments.jsonl"), read(_CORPUS))
    write_npy(workdir / "embeddings.npy", table)
    log.info("embed: %s table", table.shape)
    return {}


def _run_recluster(config: PipelineConfig, workdir: Path, read) -> dict:
    segments = read("segments.jsonl")
    table = read_npy(workdir / "embeddings.npy", 2)
    params = (config.hdbscan if config.extraction == "hybrid"
              else replace(config.hdbscan, cluster_selection_epsilon=0.0))
    result = recluster.hdbscan(table, params)
    clusters = []
    for idx, (rows, stability) in enumerate(zip(result.clusters, result.stabilities)):
        ids = [segments[p].id for p in rows]
        clusters.append(baseline_mod.Cluster(id=idx, leader=min(ids), members=ids,
                                             stability=stability))
    written = baseline_mod.write_clusters(workdir / "clusters_final.json", clusters, segments)
    log.info("recluster: %d clusters, %d noise segments",
             len(result.clusters), len(result.noise))
    return {"clusters_final.json": written}


def _run_evaluate(config: PipelineConfig, workdir: Path, read) -> dict:
    # the corpus manifest stays an input: coverage counts the corpus's frames
    # from the gold, which synth checked against it
    clusters = read(SYSTEMS[config.system][0])
    report = evaluation.report(clusters, read("segments.jsonl"), read("corpus/gold.json"))
    evaluation.write_report(report, workdir / "report.json", workdir / "report.txt",
                            system=config.mode)
    log.info("evaluate[%s]: %d clusters scored", config.mode, len(clusters))
    return {}


_CORPUS = ("corpus/manifest.json", "corpus/features.npy")   # what load_corpus reads
_NETWORK = ("params.json", "params.npy")   # save_params' header and vector, in its order

# The decoder of each artifact that a stage reads through `read`, given the
# path of its first file. An artifact is the tuple of its workdir paths. The
# loaders are looked up when called, so a wrapped loader sees every decode.
_DECODERS: dict[tuple[str, ...], Callable[[Path], object]] = {
    _CORPUS: lambda path: load_corpus(path.parent),
    ("corpus/gold.json",): lambda path: load_gold(path),
    ("segments.jsonl",): lambda path: seqmatch.load_segments(path),
    ("manifest.json",): lambda path: mining.load_manifest(path),
    ("clusters_baseline.json",): lambda path: baseline_mod.load_clusters(path),
    ("clusters_final.json",): lambda path: baseline_mod.load_clusters(path),
}


def _stage_table(config: PipelineConfig) -> dict[str, _Stage]:
    """Every stage of the pipeline, in run order, as `config` sets it up."""
    stages = (
        _Stage("synth", (), (*_CORPUS, "corpus/gold.json"), ("synth",), _run_synth),
        _Stage("discover", _CORPUS, ("segments.jsonl",), ("align",), _run_discover),
        _Stage("baseline", ("segments.jsonl",), ("clusters_baseline.json",),
               ("leader",), _run_baseline),
        _Stage("mine", ("segments.jsonl", "clusters_baseline.json"), ("manifest.json",),
               ("mining",), _run_mine),
        _Stage("train", ("manifest.json", *_CORPUS, "segments.jsonl"),
               (*_NETWORK, "loss_curve.csv"), ("train", "system"), _run_train),
        # l_max reaches embed inside params.json's arch, an input
        _Stage("embed", (*_NETWORK, "segments.jsonl", *_CORPUS),
               ("embeddings.npy",), (), _run_embed),
        _Stage("recluster", ("embeddings.npy", "segments.jsonl"), ("clusters_final.json",),
               ("hdbscan", "extraction"), _run_recluster),
        _Stage("evaluate", (SYSTEMS[config.system][0], "segments.jsonl",
                            "corpus/manifest.json", "corpus/gold.json"),
               ("report.json", "report.txt"), ("system", "extraction"), _run_evaluate),
    )
    return {stage.name: stage for stage in stages}


def _artifact(rels: str | tuple[str, ...]) -> tuple[str, ...]:
    return (rels,) if isinstance(rels, str) else rels


class _Handoff:
    """Decoded artifacts of one workdir, handed from stage to stage inside
    one process. Each value is held under the sha256 digests of the files
    it was decoded from or written as, and is served only for those digests.
    """

    def __init__(self) -> None:
        self.workdir: Path | None = None
        self.held: dict[tuple[str, ...], tuple[tuple[str, ...], object]] = {}

    def clear(self) -> None:
        self.workdir = None
        self.held.clear()

    def enter(self, workdir: Path) -> None:
        """Hold artifacts of `workdir` only, dropping those of another one."""
        if workdir != self.workdir:
            self.clear()
            self.workdir = workdir

    def read(self, workdir: Path, rels: str | tuple[str, ...], digests: dict[str, str]):
        """The value of an artifact of `workdir` whose files have the
        verified `digests`: the held one when it was held under them, else a
        fresh decode, which is then held."""
        artifact = _artifact(rels)
        want = tuple(digests[rel] for rel in artifact)
        held = self.held.get(artifact)
        if held is not None and held[0] == want:
            return held[1]
        value = _DECODERS[artifact](workdir / artifact[0])
        self.held[artifact] = (want, value)
        return value

    def hold(self, written: dict, digests: dict[str, str]) -> None:
        for rels, value in written.items():
            artifact = _artifact(rels)
            self.held[artifact] = (tuple(digests[rel] for rel in artifact), value)


_HANDOFF = _Handoff()


def run_stage(stage_name: str, config: PipelineConfig, force: bool = False) -> bool:
    """Run one stage; returns False when the cached artifacts are current.

    Outputs are renamed into place whole, the stamp is removed before the
    stage runs and written after it with the hash of every output, so a
    stage that fails or an output changed since leaves the stage stale.
    Every input must still have the hash its producing stage recorded;
    otherwise a PipelineError names the stage to run again. Inputs are read
    through `_HANDOFF`, as the module docstring says.
    """
    config.validate()
    table = _stage_table(config)
    if stage_name not in table:
        raise PipelineError(f"unknown stage {stage_name!r} (expected one of {STAGES})")
    if stage_name not in config.stage_names():
        raise PipelineError(f"stage {stage_name!r} is not part of mode {config.mode}")
    workdir = Path(config.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    _HANDOFF.enter(workdir)
    stage = table[stage_name]
    hashes = _input_hashes(table, stage, workdir)
    current = _stage_hash(config, stage, hashes)

    stamp_dir = workdir / ".stamps"
    stamp_dir.mkdir(exist_ok=True)
    stamp_path = stamp_dir / f"{stage.name}.json"
    if not force and _is_current(workdir, current, stage):
        log.info("%s: up to date, skipping", stage.name)
        return False

    stamp_path.unlink(missing_ok=True)
    verified = dict(zip(stage.inputs, hashes))
    written = stage.run(config, workdir, lambda rels: _HANDOFF.read(workdir, rels, verified))
    outputs = {rel: sha256_file(workdir / rel) for rel in stage.outputs}
    with atomic_write(stamp_path) as fh:
        fh.write(json.dumps({"hash": current, "outputs": outputs}, sort_keys=True) + "\n")
    _HANDOFF.hold(written, outputs)
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
