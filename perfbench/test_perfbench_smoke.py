"""Smoke test of the benchmark harness at tiny sizes (a few seconds)."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import tracer
import workloads

TINY = {
    "pretrain-paper": dict(
        n=3, l_max=12, embed_dim=8, layers=1, heads=2, ffn_dim=16, batch_size=2,
        sinkhorn_m=3, mask_prob=0.15, lr=1e-3, protein_len=9, steps=2, heldout=2, eval_m=5,
    ),
    "pretrain-desk": dict(
        n=3, l_max=12, embed_dim=8, layers=1, heads=2, ffn_dim=16, batch_size=8,
        sinkhorn_m=3, mask_prob=0.15, lr=1e-3, proteins=40, test_proteins=4, epochs=1, eval_m=5,
    ),
    "walkthrough": dict(
        num_proteins=30, num_compounds=30, num_pairs=150, pretrain_epochs=1, finetune_epochs=1, motif=5,
    ),
}


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.PER_LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert workloads.tail_percentile(0) == 50
    assert workloads.tail_percentile(12) == 50
    assert workloads.tail_percentile(100) == 90
    assert workloads.tail_percentile(360) == 97


def test_self_time_excludes_children_and_missing_bindings_are_absent(monkeypatch):
    toy = types.ModuleType("perfbench_toy")

    def inner():
        return sum(range(1000))

    def outer():
        # looked up through the module, as the library looks up its layers
        return sys.modules["perfbench_toy"].inner()

    toy.inner, toy.outer = inner, outer
    monkeypatch.setitem(sys.modules, "perfbench_toy", toy)
    t = tracer.Tracer(
        {
            "toy.outer": [("perfbench_toy", "outer")],
            "toy.inner": [("perfbench_toy", "inner")],
            "toy.renamed": [("perfbench_toy", "gone"), ("perfbench_no_such_module", "f")],
        }
    )
    t.install()
    t.active = True
    toy.outer()
    t.active = False
    t.uninstall()
    assert toy.outer is outer and toy.inner is inner
    assert t.absent == ["toy.renamed: perfbench_toy.gone", "toy.renamed: perfbench_no_such_module.f"]
    names = [s.name for s in t.spans]
    assert names == ["toy.outer", "toy.inner"]
    outer_span, inner_span = t.spans
    assert inner_span.parent == 0 and outer_span.parent == -1
    self_t = t.self_times()
    assert math.isclose(
        self_t["toy.outer"],
        (outer_span.end - outer_span.start) - (inner_span.end - inner_span.start),
        abs_tol=1e-12,
    )
    assert t.inclusive_times()["toy.inner"] == inner_span.end - inner_span.start


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_reports_every_end_to_end_metric(name, tmp_path):
    result, record = workloads.run_workload(name, 3, 0, False, tmp_path, geometry=TINY[name])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, record["failures"]
    metrics = result["metrics"]
    assert set(metrics) == set(workloads.END_TO_END_UNITS)
    for key, entry in metrics.items():
        assert entry["unit"] == workloads.END_TO_END_UNITS[key]
        assert math.isfinite(entry["value"]) and entry["value"] > 0, key
    assert metrics["success_rate"]["value"] == 1.0


def test_traced_walkthrough_reports_every_layer_metric(tmp_path):
    spans = tmp_path / "spans.jsonl"
    result, record = workloads.run_workload(
        "walkthrough", 3, 0, True, tmp_path / "work", geometry=TINY["walkthrough"], spans_path=spans
    )
    assert result["correct"], record["failures"]
    metrics = result["metrics"]
    assert set(metrics) == set(tracer.PER_LAYER_METRICS)
    assert record["absent_bindings"] == []
    for key in ("cpi.compound_fwd_s", "cpi.protein_cache_s", "cli.finetune_s", "nn.attention.self_s"):
        assert metrics[key]["value"] > 0, key
    assert metrics["cpi.embeds_per_protein"]["value"] > 1.0
    assert spans.read_text(encoding="utf-8").count("\n") > 100


def test_refuses_to_run_without_the_library_sources(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walkthrough", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
