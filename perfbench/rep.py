"""One benchmark repetition: one corpus, all of a workload's variants, one process.

Usage: python3 perfbench/rep.py JOB.json

JOB.json holds {"blobs": [PipelineConfig dicts], "trace": bool, "out": path}.
The variants run in order in one fresh workdir, stage by stage through
`pipeline.run_stage`, as `termforge all` would run them. The result (stage
times, the monotonic time at which set-up ended, peak RSS, output checks,
artifact digests, report figures and, when traced, the per-layer counters)
is written to "out" as JSON. A fresh process per repetition keeps the
process-global edit-distance cache cold, as a command-line user sees it.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from termforge import baseline, evaluation, pipeline  # noqa: E402
from termforge.corpus import load_gold  # noqa: E402
from termforge.seqmatch import load_segments  # noqa: E402
from termforge.synthgen import gold_segment_label  # noqa: E402
from termforge.util import sha256_file  # noqa: E402

from tracing import Tracer  # noqa: E402

DIGESTED = ("segments.jsonl", "clusters_baseline.json", "clusters_final.json",
            "manifest.json", "embeddings.npy", "report.json")


def _final_clusters(path: Path) -> tuple[list[baseline.Cluster], list[int]]:
    blob = json.loads(path.read_text())
    clusters = [baseline.Cluster(id=c["id"], leader=c["leader"], members=list(c["members"]))
                for c in blob["clusters"]]
    return clusters, list(blob["noise"])


def _check_clusters(clusters, extra_ids, segment_ids) -> None:
    baseline.validate_partition(clusters)
    members = [m for c in clusters for m in c.members] + list(extra_ids)
    unknown = sorted(set(members) - segment_ids)
    if unknown:
        raise ValueError(f"member ids not in segments.jsonl: {unknown[:5]}")
    if len(members) != len(set(members)):
        raise ValueError("a noise segment is also a cluster member")


def _na_allowed(clusters, segments, gold) -> set[str]:
    """Precision and recall values that evaluation may leave NA (None),
    because their pair or segment set is empty for these clusters. Recalls
    against gold are never NA: every generated corpus has gold tokens."""
    by_id = {s.id: s for s in segments}
    labelled = [[word for member in cluster.members
                 if (word := gold_segment_label(gold, by_id[member])) is not None]
                for cluster in clusters]
    allowed = set()
    if not any(cluster.members for cluster in clusters):
        allowed |= {"token.precision", "boundary.precision"}
    if not any(labelled):
        allowed.add("type.precision")
    if all(len(words) < 2 for words in labelled):
        allowed.add("grouping.precision")
    if max(Counter(w for words in labelled for w in words).values(), default=0) < 2:
        allowed.add("grouping.recall")
    return allowed


def _check_value(key: str, value, na_allowed: bool) -> None:
    if value is None:
        if not na_allowed:
            raise ValueError(f"report {key} is NA, but its pair set is not empty")
        return
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"report {key} is not a finite number: {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"report {key} = {value} lies outside [0, 1]")


def _check_report(report: dict, na_allowed: set[str]) -> None:
    """Every value finite, P/R/F, NED and coverage in [0, 1]. NA is accepted
    only where its set is empty: P/R per `na_allowed`, F where
    evaluation.f_score gives NA for the recorded P and R (otherwise F must
    equal it), NED where the report counts no within-cluster pair."""
    for group in ("grouping", "token", "type", "boundary"):
        prf = report[group]
        for key in ("precision", "recall"):
            _check_value(f"{group}.{key}", prf[key], f"{group}.{key}" in na_allowed)
        f_score = prf["f_score"]
        expected = evaluation.f_score(prf["precision"], prf["recall"])
        _check_value(f"{group}.f_score", f_score, expected is None)
        if f_score != expected and (f_score is None or expected is None
                                    or not math.isclose(f_score, expected)):
            raise ValueError(f"report {group}.f_score {f_score} is not "
                             f"the F of its P and R ({expected})")
    for key in ("n_words", "n_pairs"):
        if not isinstance(report[key], int) or report[key] < 0:
            raise ValueError(f"report {key} is not a count: {report[key]!r}")
    _check_value("ned", report["ned"], report["n_pairs"] == 0)
    _check_value("coverage", report["coverage"], False)


def check_outputs(config: pipeline.PipelineConfig, workdir: Path) -> dict[str, str]:
    """Named output checks of one variant: "" when passed, else the reason."""
    segments = load_segments(workdir / "segments.jsonl")
    segment_ids = {s.id for s in segments}
    leader = baseline.load_clusters(workdir / "clusters_baseline.json")
    checks = {"clusters_baseline.json": lambda: _check_clusters(leader, (), segment_ids)}
    scored = leader
    if config.system != "baseline":
        scored, noise = _final_clusters(workdir / "clusters_final.json")
        checks["clusters_final.json"] = lambda: _check_clusters(scored, noise, segment_ids)
    checks["report.json"] = lambda: _check_report(
        json.loads((workdir / "report.json").read_text()),
        _na_allowed(scored, segments, load_gold(workdir / "corpus" / "gold.json")))
    outcome = {}
    for name, check in checks.items():
        try:
            check()
            outcome[name] = ""
        except (ValueError, KeyError, TypeError, OSError) as exc:
            outcome[name] = f"{type(exc).__name__}: {exc}"
    return outcome


def run_job(job: dict) -> dict:
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    stage_s = dict.fromkeys(pipeline.STAGES, 0.0)
    result = {"stage_s": stage_s, "stages_run": 0, "cache_hits": 0, "cache_hit_s": 0.0,
              "setup_done": None, "attempted": 0, "failed": 0, "errors": [],
              "variants": []}
    for blob in job["blobs"]:
        config = pipeline.PipelineConfig.from_dict(blob)
        workdir = Path(config.workdir)
        for stage in config.stage_names():
            result["attempted"] += 1
            start = time.perf_counter()
            try:
                ran = pipeline.run_stage(stage, config)
            except Exception:  # a failed stage is counted, then the job stops
                result["failed"] += 1
                result["errors"].append(f"{config.mode}/{stage}: {traceback.format_exc()}")
                return result
            elapsed = time.perf_counter() - start
            stage_s[stage] += elapsed
            if ran:
                result["stages_run"] += 1
            else:
                result["cache_hits"] += 1
                result["cache_hit_s"] += elapsed
            if stage == "synth" and result["setup_done"] is None:
                result["setup_done"] = time.monotonic()
            if tracer is not None and ran:
                tracer.after_stage(stage, workdir)
        checks = check_outputs(config, workdir)
        result["attempted"] += len(checks)
        for name, reason in checks.items():
            if reason:
                result["failed"] += 1
                result["errors"].append(f"{config.mode}/{name}: {reason}")
        report = json.loads((workdir / "report.json").read_text())
        result["variants"].append({
            "mode": config.mode,
            "ned": report["ned"],
            "grouping_f": report["grouping"]["f_score"],
            "digests": {name: sha256_file(workdir / name) for name in DIGESTED
                        if (workdir / name).exists()},
        })
    if tracer is not None:
        result["layers"] = tracer.summary()
    return result


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[1]).read_text())
    result = run_job(job)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(job["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
