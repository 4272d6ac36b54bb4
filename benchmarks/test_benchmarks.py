"""Tests of the benchmark harness itself: tracing, checks and file hygiene."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import tracing
import workloads

REPO = Path(__file__).resolve().parent.parent


def _traced_attributes():
    """Every (module, attribute, value) that the tracer is meant to replace."""
    import importlib

    found = []
    for module_name, fn_name in tracing.TRACED:
        original = getattr(importlib.import_module(f"taskcascade.{module_name}"), fn_name)
        for name, module in list(sys.modules.items()):
            if name == "taskcascade" or name.startswith("taskcascade."):
                found += [(module, a, v) for a, v in vars(module).items() if v is original]
    return found


def test_tracer_restores_the_original_functions():
    from taskcascade import cascade, linmodel

    before = _traced_attributes()
    original = linmodel.lambda_max
    assert any(m is cascade and a == "lambda_max" for m, a, _ in before)
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert cascade.lambda_max is not original
            assert cascade.lambda_max.__wrapped__ is original
            raise RuntimeError("leave the block by an exception")
    for module, attr, value in before:
        assert getattr(module, attr) is value


def test_spans_nest_and_self_time_excludes_children():
    from taskcascade import cascade, graph, tasks
    from taskcascade.budget import uniform_default

    collection, _ = tasks.generate_synthetic(
        tasks.SyntheticConfig(num_tasks=5, dim=3, n_train=10, n_test=4, seed=3)
    )
    tree = graph.star_tree(5, 0)
    with tracing.Tracer() as tracer:
        tracer.start_pass("p0")
        cascade.run_cascade(collection, tree, uniform_default(tree, 20))
    spans = [s for s in tracer.spans if s is not None]
    top = [s for s in spans if s.name == "cascade.run_cascade"]
    assert len(top) == 1 and top[0].parent is None
    root_id = tracer.spans.index(top[0])
    kids = [s for s in spans if s.parent == root_id]
    assert {s.name for s in kids} >= {"linmodel.lambda_max", "linmodel.refine", "linmodel.rmse"}
    assert tracer.counts["linmodel.refine.steps"] == 20
    totals = tracing.layer_totals(tracer.spans)
    expected = (top[0].end - top[0].start) - sum(s.end - s.start for s in kids)
    assert totals["cascade.run_cascade"]["self_s"] == pytest.approx(expected, abs=1e-12)


def test_self_time_is_duration_minus_covered_child_time():
    S = tracing.Span
    spans = [
        S("a", 0.0, 10.0, None, "p"),
        S("b", 1.0, 3.0, 0, "p"),
        S("b", 2.0, 4.0, 0, "p"),  # overlaps its sibling: covered once
        S("c", 6.0, 7.0, 0, "p"),
        S("d", 6.2, 6.5, 3, "p"),  # a grandchild does not count against "a"
    ]
    totals = tracing.layer_totals(spans)
    assert totals["a"]["self_s"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert totals["b"]["self_s"] == pytest.approx(4.0)
    assert totals["c"]["self_s"] == pytest.approx(0.7)
    assert totals["a"]["calls"] == 1 and totals["b"]["calls"] == 2


def test_tail_has_ten_samples_beyond_or_is_the_slowest():
    t = run.tail([float(x) for x in range(30)])
    assert t == {"value": 19.0, "percentile": pytest.approx(200 / 3), "samples": 30,
                 "samples_beyond": 10}
    assert run.tail([3.0, 1.0, 2.0])["value"] == 3.0


def _tiny_protocol(tmp_path, seed=7):
    return workloads.Protocol(seed, tmp_path, num_tasks=6, num_seeds=1, blocks=1)


def test_checks_pass_on_true_outputs_and_fail_on_a_perturbed_rmse(tmp_path):
    workload = _tiny_protocol(tmp_path)
    outputs = workload.run_pass()
    assert not any(workload.check(outputs, None, {}).values())

    outputs["b0/mst/0"]["test_rmse"][2] *= 1 + 1e-6
    problems = workload.check(outputs, None, {})
    assert problems["b0/mst/0"] and not problems["b0/star/0"]

    ref = workload.reference(workload.run_pass())
    ref["replicates"]["b0/star/0"]["mean_rmse"] *= 1 + 1e-6
    assert workload.check(workload.run_pass(), ref, {})["b0/star/0"]


def test_distance_check_catches_a_tiny_error(tmp_path):
    workload = workloads.ManyTasks(5, tmp_path, num_tasks=12, blocks=2)
    outputs = {**workload.run_pass(), **workload.run_pass()}
    assert workload.check(outputs, None, {}) == {"b0/replicate": [], "b1/replicate": []}
    outputs["b1/replicate"]["distances"][1, 2] *= 1 + 1e-10
    assert workload.check(outputs, None, {})["b1/replicate"]


def test_a_pass_that_differs_from_the_first_counts_as_failed(tmp_path):
    workload = _tiny_protocol(tmp_path)
    ledger = run.Ledger(workload)
    ledger.run(workload.run_pass)
    changed = workload.run_pass()
    changed["b0/individual/0"]["budgets"][0] += 1
    ledger.run(lambda clock: changed)
    attempted, failed, problems = ledger.settle(None, {})
    assert (attempted, failed) == (8, 1)
    assert list(problems) == ["b0/individual/0"]


def test_oracle_mst_breaks_ties_like_the_package():
    from taskcascade import graph

    D = np.array([[0, 1, 1, 2], [1, 0, 1, 1], [1, 1, 0, 1], [2, 1, 1, 0]], dtype=float)
    assert oracle.mst(D) == graph.mst(D)


def _snapshot(root: Path) -> dict[str, float]:
    skip = {".git", "__pycache__", ".pytest_cache"}
    return {
        str(p.relative_to(root)): p.stat().st_mtime
        for p in root.rglob("*")
        if p.is_file() and not skip.intersection(p.relative_to(root).parts)
    }


def test_runs_write_only_inside_their_temp_and_output_directories(tmp_path):
    before = _snapshot(REPO)
    out, work = tmp_path / "out", tmp_path / "work"
    for d in (out, work / "cli", work / "protocol"):
        d.mkdir(parents=True)
    runs = [
        (workloads.CliPipeline(3, work / "cli", num_tasks=6, num_seeds=2, budget=30), False),
        (_tiny_protocol(work / "protocol"), True),
    ]
    for workload, trace in runs:
        record = run.measure(workload, 0.0, trace, out, workload.tmp, setup_probes=1)
        assert record["result"]["correct"], record["problems"]
        assert set(record["result"]["metrics"]) == set(
            run.PER_LAYER if trace else run.END_TO_END
        )
    assert _snapshot(REPO) == before
    assert sorted(p.name for p in out.iterdir()) == [
        "cli-pipeline-seed3.json", "protocol-seed7-trace-spans.jsonl",
        "protocol-seed7-trace.json",
    ]
    assert not list((work / "cli").glob("pass*"))
    record = json.loads((out / "protocol-seed7-trace.json").read_text())
    assert record["layers"]["linmodel.lambda_max.calls"] == 24


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(REPO / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "protocol", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
