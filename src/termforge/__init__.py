"""Spoken term discovery from pseudo-transcribed speech.

Mines weakly labelled training pairs from hypothesized term clusters, learns
segment embeddings with contrastive/triplet metric learning, re-clusters the
segments with hierarchical density clustering, and scores discovery quality.
"""

from .baseline import Cluster, LeaderParams, leader_cluster
from .corpus import (Corpus, GoldAnnotation, Segment, Utterance, load_corpus,
                     slice_features, write_corpus)
from .evaluation import EvalReport, report
from .mining import MiningConfig, PairManifest, sample_manifest
from .pipeline import PipelineConfig, run_all, run_stage
from .recluster import HdbscanParams, hdbscan
from .seqmatch import AlignScoring, discover_segments, levenshtein, local_align, \
    normalized_levenshtein
from .synthgen import SynthConfig, generate, gold_segment_label

__version__ = "0.1.0"

__all__ = [
    "AlignScoring", "Cluster", "Corpus", "EvalReport", "GoldAnnotation",
    "HdbscanParams", "LeaderParams", "MiningConfig", "PairManifest",
    "PipelineConfig", "Segment", "SynthConfig", "Utterance",
    "discover_segments", "generate", "gold_segment_label", "hdbscan",
    "leader_cluster", "levenshtein", "load_corpus", "local_align",
    "normalized_levenshtein", "report", "run_all", "run_stage",
    "sample_manifest", "slice_features", "write_corpus",
]
