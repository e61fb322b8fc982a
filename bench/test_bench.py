"""Tests of the benchmark harness on tiny configurations.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from metrics import COMMAND_METRICS, END_TO_END, LAYERS, PER_LAYER, REPORT_ONLY
from run import ROOT, report, result_line, run_benchmark
from workloads import WORKLOADS

# N=4 on each geometry; the memory certificate needs at least five modes to
# fit its decay rate, so the interval takes the smallest N it accepts
TINY = {
    name: replace(w, config={**w.config, "N": 5 if name == "interval-visco" else 4,
                             "draws": 5})
    for name, w in WORKLOADS.items()
}


@pytest.fixture(scope="module", params=sorted(TINY))
def traced(request, tmp_path_factory):
    workload = TINY[request.param]
    runs = tmp_path_factory.mktemp("runs")
    summary = run_benchmark(workload, seed=7, seconds=0, trace=True, runs_dir=runs)
    # the second iteration is the first traced one
    layers = json.loads((runs / workload.name / "seed7" / "iter1" / "result.json").read_text())
    return workload, summary, layers["layers"]


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_tiny_workload_reports_every_metric(traced):
    workload, summary, layers = traced
    assert summary["correct"], summary["failures"]
    assert summary["failed"] == 0 and summary["attempted"] > 0
    # the tracer yields every per-layer metric BENCHMARK.json lists, and no
    # other, but the overhead, which needs the untraced baseline
    assert set(layers) == set(PER_LAYER) - {"trace.overhead_s"}
    for per_layer, registry in ((False, END_TO_END), (True, PER_LAYER)):
        line = result_line(summary, per_layer=per_layer)
        assert line["correct"] and line["failed"] == 0
        assert set(line["metrics"]) == set(registry)
        for name, metric in line["metrics"].items():
            assert metric["unit"] == registry[name][0]
            assert math.isfinite(metric["value"])
    text = "\n".join(report(summary, workload))
    for name, (unit, better, _) in END_TO_END.items():
        assert any(line.startswith(f"  {name} ") and f" {unit} " in line
                   and f"{better} is better" in line for line in text.splitlines()), name
    shown = {"failed_frac", workload.margin, *(COMMAND_METRICS[c] for c in workload.timed)}
    for name in shown:
        unit, better = REPORT_ONLY[name]
        assert any(line.startswith(f"  {name} ") and f" {unit} " in line
                   and f"{better} is better" in line for line in text.splitlines()), name
    assert summary["end_to_end"]["failed_frac"] == 0.0


def test_layer_self_times_add_up_to_traced_suite(traced):
    _, summary, _ = traced
    layers = summary["per_layer"]
    total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    assert total + layers["trace.unattributed_s"] == pytest.approx(layers["trace.suite_s"])
    assert 0 <= layers["trace.unattributed_s"] < 0.05 * layers["trace.suite_s"]


def test_layers_are_reached_through_imported_names(traced):
    workload, summary, _ = traced
    layers = summary["per_layer"]
    # gram and visco import the eigensolver by name; cli dispatches through COMMANDS
    assert layers["eigen.solves"] > 0 and layers["cli.self_s"] > 0
    if workload.name == "disk-identities":
        assert layers["bessel.j_calls"] > 0 and layers["operators.checks"] > 0
    if workload.name == "interval-visco":
        assert layers["visco.mode_solves"] > 0 and layers["visco.march_steps"] > 0
    if workload.name == "rect-gram":
        assert layers["eigen.pcg_iterations"] > 0 and layers["cache.hit_ratio"] == 1.0


def test_counts_repeat_and_a_changed_count_is_flagged(tmp_path: Path):
    workload = TINY["interval-visco"]
    first = run_benchmark(workload, seed=7, seconds=0, trace=True, runs_dir=tmp_path)
    again = run_benchmark(workload, seed=7, seconds=0, trace=True, runs_dir=tmp_path)
    assert first["count_problems"] == again["count_problems"] == []
    store = tmp_path / "counts.json"
    known = json.loads(store.read_text())
    known[f"{workload.name}/seed7"]["counts"]["visco.march_steps"] += 1
    store.write_text(json.dumps(known))
    flagged = run_benchmark(workload, seed=7, seconds=0, trace=True, runs_dir=tmp_path)
    assert any("visco.march_steps" in p for p in flagged["count_problems"])
    assert not flagged["correct"]


def test_failing_command_raises_failed_frac(tmp_path: Path):
    # control with no riesz summary in its output directory exits 64
    workload = replace(TINY["rect-gram"], name="control-alone", prep=(), timed=("control",))
    summary = run_benchmark(workload, seed=7, seconds=0, trace=False, runs_dir=tmp_path)
    assert summary["end_to_end"]["failed_frac"] > 0
    assert summary["failed"] == summary["attempted"]
    assert any("exit code 64" in reason
               for record in summary["failures"] for reason in record["reasons"])
    assert not result_line(summary, per_layer=False)["correct"]
