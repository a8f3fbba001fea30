"""termforge benchmark: closed-loop batch runs of the pipeline on named workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one process at a time: a round runs each of the workload's K
corpora in a fresh process with a fresh workdir (see rep.py), and rounds
repeat while the next one would end within S seconds. Artifact digests of
repetitions of one corpus are compared, so when only one untraced round
fits, corpus 0 runs once more. With --trace 1 a traced
round (tracing.py) comes first and gives the per-layer metrics; the
untraced round after it gives the tracing overhead. End-to-end metrics come
from untraced rounds only.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Lines before it list every metric with its
unit, direction and the end-to-end metric it should move, the artifact
digests and the environment. The full record goes to
.perfbench/<workload>-trace<0|1>.json in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import END_TO_END, PER_LAYER, STAGES, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
REP_TIMEOUT_S = 170
REP_FIGURES = ("corpus", "traced", "failed", "setup_s", "pipeline_s", "peak_rss_mb",
               "stage_s", "variants")

# per-layer figures that are per-call samples, averaged over calls
_MEAN_OF_CALLS = ("baseline.clusters", "recluster.clusters", "embednet.final_loss",
                  "embednet.mean_pair_dist", "embednet.nn1_gold_agreement",
                  "recluster.noise_share", "recluster.largest_share",
                  "evaluation.coverage", "evaluation.token_f", "evaluation.boundary_f")


def child_env() -> dict:
    """Environment of a repetition: checkout sources, default single discover
    worker, BLAS pinned to one thread."""
    env = {k: v for k, v in os.environ.items() if k != "TERMFORGE_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def environment() -> dict:
    probe = ("import json, numpy; cfg = numpy.show_config(mode='dicts'); "
             "blas = cfg['Build Dependencies']['blas']; "
             "print(json.dumps({'numpy': numpy.__version__, "
             "'blas': f\"{blas.get('name')} {blas.get('version')}\"}))")
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                         capture_output=True, text=True, timeout=60, check=True)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
            **json.loads(out.stdout)}


def run_rep(workload: Workload, seed: int, corpus: int, work: Path, tag: str,
            trace: bool, small: bool) -> dict:
    """One corpus in a fresh process; a failed process yields a failed result."""
    workdir = work / tag
    job = {"blobs": workload.pipeline_blobs(seed, corpus, str(workdir), small),
           "trace": trace, "out": str(work / f"{tag}.out.json")}
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "rep.py"),
                               str(job_path)], env=child_env(), capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
        problem = proc.stderr[-2000:] if proc.returncode else ""
    except subprocess.TimeoutExpired:
        problem = f"repetition exceeded {REP_TIMEOUT_S} s"
    out_path = Path(job["out"])
    if problem or not out_path.exists():
        result = {"attempted": 1, "failed": 1, "errors": [problem or "no result"],
                  "variants": []}
    else:
        result = json.loads(out_path.read_text())
        if result["setup_done"] is not None:
            result["setup_s"] = result["setup_done"] - spawned
        result["pipeline_s"] = sum(v for k, v in result["stage_s"].items() if k != "synth")
    shutil.rmtree(workdir, ignore_errors=True)
    result.update(corpus=corpus, traced=trace)
    return result


def _ok(rep: dict) -> bool:
    return rep["failed"] == 0


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            small: bool = False) -> dict:
    corpora = 1 if small else workload.corpora
    work = ROOT / ".perfbench" / f"work-{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.monotonic()

    def one_round(index: int, traced: bool) -> list[dict]:
        return [run_rep(workload, seed, k, work, f"r{index}c{k}", traced, small)
                for k in range(corpora)]

    extra: list[dict] = []
    try:
        traced_round = one_round(0, True) if trace else []
        round_start = time.monotonic()
        rounds = [one_round(1, False)]
        per_round = time.monotonic() - round_start
        while time.monotonic() - started + per_round <= seconds:
            rounds.append(one_round(len(rounds) + 1, False))
        if len(rounds) == 1 and not trace:
            # one more repetition of corpus 0, so that every run compares digests
            extra = [run_rep(workload, seed, 0, work, "check", False, small)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = [rep for rnd in rounds for rep in rnd] + traced_round + extra
    attempted = sum(rep["attempted"] for rep in every)
    failed = sum(rep["failed"] for rep in every)
    errors = [e for rep in every for e in rep["errors"]]

    # every repetition of a corpus must produce byte-identical artifacts
    digests = {}
    for k in range(corpora):
        repeats = [rnd[k] for rnd in rounds + [traced_round] if rnd]
        repeats += extra if k == 0 else []
        seen = [{v["mode"]: v["digests"] for v in rep["variants"]}
                for rep in repeats if _ok(rep)]
        for other in seen[1:]:
            attempted += 1
            if other != seen[0]:
                failed += 1
                errors.append(f"corpus {k}: artifact digests differ between repetitions")
        if seen:
            digests[f"corpus{k}"] = seen[0]

    record = {"workload": workload.name, "seed": seed, "corpora": corpora,
              "rounds": len(rounds), "attempted": attempted, "failed": failed,
              "errors": errors, "digests": digests,
              "end_to_end": end_to_end(rounds, extra),
              "reps": [{key: rep.get(key) for key in REP_FIGURES} for rep in every]}
    if trace:
        record["per_layer"] = per_layer(traced_round, record["end_to_end"],
                                        attempted, failed)
    return record


def _quality(reps: list[dict], key: str) -> dict:
    """{key: median of `key` ("ned" or "grouping_f")} over the reports of the
    learned variants of every corpus (the baseline's where no learned variant
    ran); NA (None) values are left out, and with none left, so is the key."""
    values = []
    for rep in reps:
        learned = [v for v in rep["variants"] if v["mode"] != "baseline"] or rep["variants"]
        values += [v[key] for v in learned if v[key] is not None]
    return {key: statistics.median(values)} if values else {}


def end_to_end(rounds: list[list[dict]], extra: list[dict]) -> dict:
    """Time and memory: the median over complete rounds of the mean over the
    round's corpora. Set-up: the median over every untraced process. Quality:
    the median over the first round's reports, because one corpus that
    escapes the collapse of re-clustering moves a mean by several times the
    typical difference (repeated rounds score the same corpora again)."""
    good = [rnd for rnd in rounds if all(_ok(rep) for rep in rnd)]
    if not good:
        return {}
    return {
        "setup_s": statistics.median(rep["setup_s"] for rep in
                                     [r for rnd in good for r in rnd] + extra if _ok(rep)),
        "pipeline_s": statistics.median(
            statistics.fmean(rep["pipeline_s"] for rep in rnd) for rnd in good),
        "peak_rss_mb": statistics.median(
            statistics.fmean(rep["peak_rss_mb"] for rep in rnd) for rnd in good),
        **_quality(good[0], "ned"),
        **_quality(good[0], "grouping_f"),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(traced: list[dict], untraced: dict, attempted: int, failed: int) -> dict:
    """Per-layer metrics of the traced round: work and time as a mean per
    corpus, diagnostics as a mean over the calls that produced them."""
    reps = [rep for rep in traced if _ok(rep)]
    if not reps:
        return {}
    n = len(reps)
    merged: dict = {}
    for rep in reps:
        for key, value in rep["layers"].items():
            if isinstance(value, list):
                merged.setdefault(key, []).extend(value)
            else:
                merged[key] = merged.get(key, 0) + value
    out = {}
    total_stage = sum(sum(rep["stage_s"].values()) for rep in reps)
    for stage in STAGES:
        stage_sum = sum(rep["stage_s"][stage] for rep in reps)
        out[f"pipeline.stage_s.{stage}"] = stage_sum / n
        out[f"pipeline.share.{stage}"] = _ratio(stage_sum, total_stage)
    for key in ("stages_run", "cache_hits", "cache_hit_s"):
        out[f"pipeline.{key}"] = sum(rep[key] for rep in reps) / n
    for key, value in merged.items():
        if key in _MEAN_OF_CALLS:
            defined = [v for v in value if v is not None]
            out[key] = statistics.fmean(defined) if defined else 0.0
        elif not isinstance(value, list):
            out[key] = value / n
    steps = merged["embednet.step_s"]
    out["embednet.step_ms"] = 1000 * statistics.median(steps) if steps else 0.0
    out["seqmatch.pair_hit_ratio"] = _ratio(merged["seqmatch.hit_pairs"],
                                            merged["seqmatch.align_pairs"])
    out["seqmatch.lev_repeat_share"] = _ratio(merged["seqmatch.lev_repeats"],
                                              merged["seqmatch.lev_calls"])
    out["mining.retained_share"] = _ratio(merged["mining.retained"],
                                          merged["mining.leader_clusters"])
    traced_pipeline = statistics.fmean(rep["pipeline_s"] for rep in reps)
    out["trace.overhead_s"] = traced_pipeline - untraced.get("pipeline_s", traced_pipeline)
    out["error_rate"] = _ratio(failed, attempted)
    return {m.name: out[m.name] for m in PER_LAYER}


def print_report(record: dict, env: dict, trace: bool) -> None:
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{record['corpora']} corpora x {record['rounds']} untraced rounds; "
          f"environment {json.dumps(env, sort_keys=True)}")
    for error in record["errors"]:
        print(f"ERROR {error}")
    metrics = PER_LAYER if trace else END_TO_END
    values = record.get("per_layer" if trace else "end_to_end", {})
    for m in metrics:
        note = f"moves {m.moves}" if trace else f"bound {m.bound}"
        value = values.get(m.name)
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {m.name:36s} {shown:>14s} {m.unit:9s} {m.better:6s} {note}")
    for corpus, modes in record["digests"].items():
        for mode, files in modes.items():
            for name, digest in files.items():
                print(f"  sha256 {corpus} {mode} {name} {digest}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "termforge" / "__init__.py").is_file():
        print(f"no termforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    record["environment"] = env
    out_dir = ROOT / ".perfbench"
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print_report(record, env, bool(args.trace))
    key = "per_layer" if args.trace else "end_to_end"
    metrics = PER_LAYER if args.trace else END_TO_END
    values = record.get(key, {})
    complete = all(m.name in values for m in metrics)
    print(json.dumps({
        "correct": record["failed"] == 0 and complete,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in metrics if m.name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
