"""Smoke test of the benchmark: each workload at tests/test_pipeline.py's
small_blob corpus size, one traced and one untraced repetition."""

import json
import math
from pathlib import Path

import pytest

import run
from workloads import END_TO_END, PER_LAYER, WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_definitions():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        w.why for w in WORKLOADS.values()]
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]
    assert all(m.moves for m in PER_LAYER)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_every_metric(name):
    record = run.measure(WORKLOADS[name], seed=1, seconds=0, trace=True, small=True)
    assert record["failed"] == 0, record["errors"]
    assert record["digests"]["corpus0"]
    for key, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        values = record[key]
        assert list(values) == [m.name for m in metrics]
        assert all(math.isfinite(v) for v in values.values())
    assert record["end_to_end"]["pipeline_s"] > 0
    assert record["per_layer"]["pipeline.stages_run"] > 0
    if name.startswith("sweep"):
        assert record["per_layer"]["pipeline.cache_hits"] > 0
