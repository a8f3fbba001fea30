"""Workload and metric definitions of the termforge benchmark.

Every corpus uses the noise settings of ROADMAP's noisy-N bench corpora: word
length 4-7, 3-5 frames per subword, substitution 0.1, filler 0.3, feature
noise 0.3, min_word_separation 0.5, 6 words per utterance; mining keeps
thresholds at their defaults, training uses batch 64, lr 0.01, at most 4
epochs and margin 2.0, and HDBSCAN 5/5.

Corpus k of a run gets the pipeline root seed `seed * 1000 + k`, so the
benchmark seed fixes the inputs and the program only sees the generated
corpus. Each workload runs K corpora per round because one seed moves a
single corpus's outcome by tens of percent (early stopping, how far
re-clustering collapses); the mean (time, memory) or the median (quality)
over K corpora is steady. Sizes:

- noisy-67 (vocabulary 20 x 20 occurrences, 67 utterances) runs only the
  baseline system, which never mines: on about 3% of seeds its leader
  clusters yield no contrasting pair and mining raises MiningError.
- The learned workloads use larger vocabularies with 6 occurrences each
  (60 x 6 -> 60 utterances, 40 x 6 -> 40 utterances); mining succeeded on
  100 of 100 seeds at both sizes.
- noisy-250 (12.5 s baseline, 60 s and 1.7 GB siamese per run) does not fit
  a repetition loop of a few tens of seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

STAGES = ("synth", "discover", "baseline", "mine", "train",
          "embed", "recluster", "evaluate")

NOISY_SYNTH = {
    "word_length_range": [4, 7],
    "frames_per_subword_range": [3, 5],
    "symbol_substitution_rate": 0.1,
    "filler_rate": 0.3,
    "feature_noise_sigma": 0.3,
    "min_word_separation": 0.5,
    "words_per_utterance": 6,
}

# tests/test_pipeline.py::small_blob, used by the smoke test
SMALL_SYNTH = {
    "vocabulary_size": 4, "word_length_range": [4, 5],
    "occurrences_per_word": 12, "words_per_utterance": 1,
    "min_word_separation": 0.75, "feature_noise_sigma": 0.05,
    "frames_per_subword_range": [3, 4],
}
SMALL_TRAIN = {"l_max": 24, "batch_size": 32, "learning_rate": 0.03,
               "max_epochs": 4}
SMALL_MINING = 300
MINING_PAIRS = 256                          # n_siamese = n_triplet


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    variants: tuple[tuple[str, str], ...]   # (system, extraction), run in order
    corpora: int                            # K corpora per round
    vocabulary_size: int = 20
    occurrences_per_word: int = 20
    l_max: int = 40
    selection_epsilon: float = 0.0

    def pipeline_blobs(self, seed: int, corpus: int, workdir: str,
                       small: bool = False) -> list[dict]:
        """PipelineConfig.from_dict inputs of corpus `corpus`, one per variant."""
        if small:
            synth = SMALL_SYNTH
            train = SMALL_TRAIN
            n_pairs = SMALL_MINING
        else:
            synth = {**NOISY_SYNTH, "vocabulary_size": self.vocabulary_size,
                     "occurrences_per_word": self.occurrences_per_word}
            train = {"l_max": self.l_max, "batch_size": 64, "learning_rate": 0.01,
                     "max_epochs": 4, "margin": 2.0}
            n_pairs = MINING_PAIRS
        return [{
            "seed": seed * 1000 + corpus,
            "system": system,
            "extraction": extraction,
            "workdir": workdir,
            "synth": synth,
            "mining": {"n_siamese": n_pairs, "n_triplet": n_pairs},
            "train": train,
            "hdbscan": {"min_cluster_size": 5, "min_samples": 5,
                        "cluster_selection_epsilon": self.selection_epsilon},
        } for system, extraction in self.variants]


LEARNED_VARIANTS = (("siamese", "eom"), ("siamese", "hybrid"),
                    ("triplet", "eom"), ("triplet", "hybrid"))

WORKLOADS = {w.name: w for w in (
    Workload(
        name="discover-67x14",
        why=("baseline system on 14 noisy-67 corpora: local alignment (seqmatch) "
             "and leader clustering do the work; embednet and recluster never run"),
        variants=(("baseline", "eom"),),
        corpora=14,
    ),
    Workload(
        name="learned-60x12",
        why=("siamese/eom on 12 corpora of 60 utterances: every stage runs, with "
             "edit-distance scoring of collapsed re-clusters; quality shows the collapse"),
        variants=(("siamese", "eom"),),
        corpora=12,
        vocabulary_size=60,
        occurrences_per_word=6,
    ),
    Workload(
        name="sweep-40x5",
        why=("all five variants in one workdir at paper network scale on 5 "
             "corpora: training does most work and half the stage calls hit the cache"),
        variants=(("baseline", "eom"),) + LEARNED_VARIANTS,
        corpora=5,
        vocabulary_size=40,
        occurrences_per_word=6,
        l_max=100,
        selection_epsilon=0.2,
    ),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str = ""       # end-to-end metric and workloads a layer metric moves
    bound: float = 0.0    # end-to-end only


END_TO_END = (
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("pipeline_s", "s", "lower", bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower", bound=0.2),
    Metric("ned", "fraction", "lower", bound=0.1),
    Metric("grouping_f", "fraction", "higher", bound=0.25),
)

_ALL = "pipeline_s on every workload"
_DISCOVER = "pipeline_s on discover-67x14"
_LEARNED = "pipeline_s on learned-60x12"
_SWEEP = "pipeline_s on sweep-40x5"
_QUALITY = "grouping_f and ned on learned-60x12 and sweep-40x5"
_BESIDE = "quality beside grouping_f and ned"
# recluster is about 2% of learned-60x12 and sweep-40x5: no workload is
# HDBSCAN-bound, so these layers move pipeline_s by a few hundredths at most
_RECLUSTER = "pipeline_s on learned-60x12 and sweep-40x5 (recluster is ~2% of either)"


def _per_layer() -> tuple[Metric, ...]:
    m = [Metric(f"pipeline.stage_s.{s}", "s", "lower", _ALL) for s in STAGES]
    m += [Metric(f"pipeline.share.{s}", "fraction", "lower",
                 "stage share of pipeline_s + synth") for s in STAGES]
    m += [
        Metric("pipeline.stages_run", "count", "lower", _ALL),
        Metric("pipeline.cache_hits", "count", "higher", _SWEEP),
        Metric("pipeline.cache_hit_s", "s", "lower", _SWEEP),
        Metric("synthgen.generate_s", "s", "lower", "setup_s on every workload"),
        Metric("corpus.load_corpus_calls", "count", "lower", _SWEEP),
        Metric("corpus.load_corpus_s", "s", "lower", _SWEEP),
        Metric("seqmatch.discover_s", "s", "lower", _DISCOVER),
        Metric("seqmatch.align_pairs", "count", "lower", _DISCOVER),
        Metric("seqmatch.pair_hit_ratio", "fraction", "higher",
               _DISCOVER + " (input property: share of pairs with an alignment)"),
        Metric("seqmatch.alignments", "count", "lower", _DISCOVER),
        Metric("seqmatch.dp_cells", "cells", "lower",
               _DISCOVER + " (computed as sum |a|*|b| over pairs)"),
        Metric("seqmatch.segments", "count", "lower", _DISCOVER),
        Metric("seqmatch.lev_calls", "count", "lower",
               "pipeline_s on learned-60x12 (evaluate) and discover-67x14 (leader)"),
        Metric("seqmatch.lev_repeat_share", "fraction", "higher",
               "pipeline_s on learned-60x12 and discover-67x14 (input property: "
               "share of edit-distance calls on an already seen string pair)"),
        Metric("baseline.leader_cluster_s", "s", "lower", _DISCOVER),
        Metric("baseline.lev_calls", "count", "lower", _DISCOVER),
        Metric("baseline.clusters", "count", "higher", _DISCOVER),
        Metric("mining.select_pure_s", "s", "lower", _LEARNED),
        Metric("mining.select_contrasting_s", "s", "lower", _LEARNED),
        Metric("mining.lev_calls", "count", "lower", _LEARNED),
        Metric("mining.retained_share", "fraction", "higher",
               _QUALITY + " (retained / leader clusters)"),
        Metric("mining.contrasting_pairs", "count", "higher", _QUALITY),
        Metric("embednet.train_s", "s", "lower", _SWEEP),
        Metric("embednet.steps", "count", "lower", _SWEEP),
        Metric("embednet.step_ms", "ms", "lower", _SWEEP + " (median backward call)"),
        Metric("embednet.epochs", "count", "lower", _SWEEP),
        Metric("embednet.final_loss", "loss", "lower", _QUALITY),
        Metric("embednet.embed_s", "s", "lower", _SWEEP),
        Metric("embednet.mean_pair_dist", "distance", "higher",
               _QUALITY + " (embedding scale against margin 2)"),
        Metric("embednet.nn1_gold_agreement", "fraction", "higher", _QUALITY),
        Metric("recluster.hdbscan_s", "s", "lower", _RECLUSTER),
    ]
    m += [Metric(f"recluster.{phase}_s", "s", "lower", _RECLUSTER)
          for phase in ("core_distances", "mutual_reachability", "mst",
                        "build_hierarchy", "condense", "select")]
    m += [
        Metric("recluster.dense_bytes", "bytes", "lower",
               "peak_rss_mb only at thousands of segments, so on no workload here "
               "(computed as 8*n^2 per n x n array allocated)"),
        Metric("recluster.clusters", "count", "higher", _QUALITY),
        Metric("recluster.noise_share", "fraction", "lower", _QUALITY),
        Metric("recluster.largest_share", "fraction", "lower", _QUALITY),
    ]
    m += [Metric(f"evaluation.{part}_s", "s", "lower", _LEARNED)
          for part in ("report", "ned", "grouping", "token_type", "boundary",
                       "coverage")]
    m += [
        Metric("evaluation.lev_calls", "count", "lower", _LEARNED),
        Metric("evaluation.n_pairs", "count", "lower", _LEARNED),
        Metric("evaluation.coverage", "fraction", "higher", _BESIDE),
        Metric("evaluation.token_f", "fraction", "higher", _BESIDE),
        Metric("evaluation.boundary_f", "fraction", "higher", _BESIDE),
        Metric("trace.overhead_s", "s", "lower",
               "none: traced minus untraced pipeline_s"),
        Metric("error_rate", "fraction", "lower",
               "failed stage calls and output checks / attempted"),
    ]
    return tuple(m)


PER_LAYER = _per_layer()
