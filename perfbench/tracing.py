"""Per-layer counters and timers, taken by wrapping termforge's public functions.

Nothing under src/ changes: `Tracer.install` rebinds module attributes, so a
call that looks the name up in its module (`seqmatch.discover_segments`,
`recluster.core_distances`, the `normalized_levenshtein` that `baseline`
imported, ...) goes through a wrapper that times and counts it. Counts that
would cost a second pass over the data are computed from the call arguments
(dp_cells) or from the artifacts after a stage (embedding diagnostics).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from functools import partial
from pathlib import Path

import numpy as np

from termforge import (baseline, corpus, embednet, evaluation, mining,
                       pipeline, recluster, seqmatch, synthgen)

HDBSCAN_PHASES = ("core_distances", "mutual_reachability", "mst",
                  "build_hierarchy", "condense")
# n x n float64 arrays allocated per call, counted from recluster.py: the
# distance matrix takes five (two outer terms, x @ x.T, its double, sqrt);
# core_distances adds the np.partition copy, mutual_reachability the outer
# max of core distances and the result
DENSE_MATRICES = {"core_distances": 6, "mutual_reachability": 7}
EVAL_PARTS = {"ned": "ned", "grouping_prf": "grouping",
              "token_type_prf": "token_type", "boundary_prf": "boundary",
              "coverage": "coverage"}


class Tracer:
    """Wraps module functions for the lifetime of one repetition process."""

    def __init__(self):
        self.busy = defaultdict(float)     # layer.name -> seconds
        self.count = defaultdict(int)      # layer.name -> count
        self.values = defaultdict(list)    # layer.name -> per-call samples
        self._seen_pairs: set = set()

    # -- wrapping ---------------------------------------------------------

    def _timed(self, module, name, key, after=None, samples=False):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            elapsed = time.perf_counter() - start
            self.busy[key] += elapsed
            self.count[key] += 1
            if samples:
                self.values[key].append(elapsed)
            if after is not None:
                after(args, result)
            return result

        setattr(module, name, wrapper)

    def _lev(self, module, name, layer):
        original = getattr(module, name)
        seen = self._seen_pairs
        count = self.count
        key = f"{layer}.lev_calls"

        def wrapper(a, b):
            count[key] += 1
            ta, tb = tuple(a), tuple(b)
            pair = (ta, tb) if ta <= tb else (tb, ta)
            if pair in seen:
                count["seqmatch.lev_repeats"] += 1
            else:
                seen.add(pair)
            return original(a, b)

        setattr(module, name, wrapper)

    def install(self) -> None:
        self._timed(synthgen, "generate", "synthgen.generate")
        self._timed(pipeline, "load_corpus", "corpus.load_corpus")
        self._timed(seqmatch, "discover_segments", "seqmatch.discover",
                    after=lambda _a, segs: self._add("seqmatch.segments", len(segs)))
        self._timed(seqmatch, "local_align", "seqmatch.local_align",
                    after=self._after_align)
        self._timed(baseline, "leader_cluster", "baseline.leader_cluster",
                    after=lambda _a, cl: self.values["baseline.clusters"].append(len(cl)))
        self._timed(mining, "select_pure_clusters", "mining.select_pure",
                    after=self._after_pure)
        self._timed(mining, "select_contrasting_pairs", "mining.select_contrasting",
                    after=lambda _a, pairs: self.values["mining.contrasting_pairs"]
                    .append(len(pairs)))
        self._timed(embednet, "train", "embednet.train", after=self._after_train)
        self._timed(embednet, "backward", "embednet.backward", samples=True)
        self._timed(embednet, "embed_all", "embednet.embed")
        self._timed(recluster, "hdbscan", "recluster.hdbscan")
        for phase in HDBSCAN_PHASES:
            matrices = DENSE_MATRICES.get(phase)
            self._timed(recluster, phase, f"recluster.{phase}",
                        after=partial(self._after_dense, matrices) if matrices else None)
        for name, label in EVAL_PARTS.items():
            self._timed(evaluation, name, f"evaluation.{label}")
        self._timed(evaluation, "report", "evaluation.report")
        self._lev(baseline, "normalized_levenshtein", "baseline")
        self._lev(mining, "levenshtein", "mining")
        self._lev(evaluation, "normalized_levenshtein", "evaluation")
        self._lev(synthgen, "normalized_levenshtein", "synthgen")

    def _add(self, key: str, amount: int) -> None:
        self.count[key] += amount

    def _after_dense(self, matrices: int, args, _result) -> None:
        self.count["recluster.dense_bytes"] += matrices * 8 * len(args[0]) ** 2

    def _after_align(self, args, found) -> None:
        a, b = args[0], args[1]
        self.count["seqmatch.dp_cells"] += len(a) * len(b)
        self.count["seqmatch.alignments"] += len(found)
        self.count["seqmatch.hit_pairs"] += bool(found)

    def _after_pure(self, args, retained) -> None:
        self.count["mining.leader_clusters"] += len(args[0])
        self.count["mining.retained"] += len(retained)

    def _after_train(self, _args, result) -> None:
        _params, curve = result
        self.values["embednet.epochs"].append(len(curve))
        self.values["embednet.final_loss"].append(curve[-1])

    # -- artifact diagnostics ---------------------------------------------

    def after_stage(self, stage: str, workdir: Path) -> None:
        """Diagnostics read from a stage's artifacts; runs outside the timers."""
        if stage == "embed":
            self.values["embednet.diag"].append(embedding_diagnostics(workdir))
        elif stage == "recluster":
            blob = json.loads((workdir / "clusters_final.json").read_text())
            sizes = [len(c["members"]) for c in blob["clusters"]]
            n = sum(sizes) + len(blob["noise"])
            self.values["recluster.clusters"].append(len(sizes))
            self.values["recluster.noise_share"].append(len(blob["noise"]) / n)
            self.values["recluster.largest_share"].append(max(sizes, default=0) / n)
        elif stage == "evaluate":
            report = json.loads((workdir / "report.json").read_text())
            self.values["evaluation.n_pairs"].append(report["n_pairs"])
            self.values["evaluation.coverage"].append(report["coverage"])
            self.values["evaluation.token_f"].append(report["token"]["f_score"])
            self.values["evaluation.boundary_f"].append(report["boundary"]["f_score"])

    # -- summary ----------------------------------------------------------

    def summary(self) -> dict:
        """Raw per-process figures; run.py sums them over corpora."""
        busy, count, values = self.busy, self.count, self.values
        lev_total = sum(count[f"{layer}.lev_calls"] for layer in
                        ("baseline", "mining", "evaluation", "synthgen"))
        diag = values["embednet.diag"]
        out = {
            "synthgen.generate_s": busy["synthgen.generate"],
            "corpus.load_corpus_calls": count["corpus.load_corpus"],
            "corpus.load_corpus_s": busy["corpus.load_corpus"],
            "seqmatch.discover_s": busy["seqmatch.discover"],
            "seqmatch.align_pairs": count["seqmatch.local_align"],
            "seqmatch.hit_pairs": count["seqmatch.hit_pairs"],
            "seqmatch.alignments": count["seqmatch.alignments"],
            "seqmatch.dp_cells": count["seqmatch.dp_cells"],
            "seqmatch.segments": count["seqmatch.segments"],
            "seqmatch.lev_calls": lev_total,
            "seqmatch.lev_repeats": count["seqmatch.lev_repeats"],
            "baseline.leader_cluster_s": busy["baseline.leader_cluster"],
            "baseline.lev_calls": count["baseline.lev_calls"],
            "baseline.clusters": values["baseline.clusters"],
            "mining.select_pure_s": busy["mining.select_pure"],
            "mining.select_contrasting_s": busy["mining.select_contrasting"],
            "mining.lev_calls": count["mining.lev_calls"],
            "mining.leader_clusters": count["mining.leader_clusters"],
            "mining.retained": count["mining.retained"],
            "mining.contrasting_pairs": sum(values["mining.contrasting_pairs"]),
            "embednet.train_s": busy["embednet.train"],
            "embednet.steps": count["embednet.backward"],
            "embednet.step_s": values["embednet.backward"],
            "embednet.epochs": sum(values["embednet.epochs"]),
            "embednet.final_loss": values["embednet.final_loss"],
            "embednet.embed_s": busy["embednet.embed"],
            "embednet.mean_pair_dist": [d["mean_pair_dist"] for d in diag],
            "embednet.nn1_gold_agreement": [d["nn1_gold_agreement"] for d in diag],
            "recluster.hdbscan_s": busy["recluster.hdbscan"],
            "recluster.select_s": busy["recluster.hdbscan"] - sum(
                busy[f"recluster.{p}"] for p in HDBSCAN_PHASES),
            "recluster.dense_bytes": count["recluster.dense_bytes"],
            "recluster.clusters": values["recluster.clusters"],
            "recluster.noise_share": values["recluster.noise_share"],
            "recluster.largest_share": values["recluster.largest_share"],
            "evaluation.report_s": busy["evaluation.report"],
            "evaluation.lev_calls": count["evaluation.lev_calls"],
            "evaluation.n_pairs": sum(values["evaluation.n_pairs"]),
            "evaluation.coverage": values["evaluation.coverage"],
            "evaluation.token_f": values["evaluation.token_f"],
            "evaluation.boundary_f": values["evaluation.boundary_f"],
        }
        for phase in HDBSCAN_PHASES:
            out[f"recluster.{phase}_s"] = busy[f"recluster.{phase}"]
        for label in EVAL_PARTS.values():
            out[f"evaluation.{label}_s"] = busy[f"evaluation.{label}"]
        return out


def embedding_diagnostics(workdir: Path) -> dict:
    """Embedding scale and 1-NN gold agreement, from embeddings.npy and gold.

    nn1_gold_agreement is the share of gold-labelled segments whose nearest
    other gold-labelled segment (Euclidean) carries the same gold word.
    """
    table = np.load(workdir / "embeddings.npy")
    segments = seqmatch.load_segments(workdir / "segments.jsonl")
    gold = corpus.load_gold(workdir / "corpus" / "gold.json")
    sq = np.einsum("ij,ij->i", table, table)
    dist = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (table @ table.T), 0.0))
    n = len(table)
    mean_pair_dist = float(dist.sum() / (n * (n - 1))) if n > 1 else 0.0
    labels = [synthgen.gold_segment_label(gold, s) for s in segments]
    rows = np.array([i for i, lab in enumerate(labels) if lab is not None])
    agreement = 0.0
    if len(rows) > 1:
        sub = dist[np.ix_(rows, rows)]
        np.fill_diagonal(sub, np.inf)
        nearest = rows[np.argmin(sub, axis=1)]
        agreement = float(np.mean([labels[i] == labels[j] for i, j in zip(rows, nearest)]))
    return {"mean_pair_dist": mean_pair_dist, "nn1_gold_agreement": agreement}
