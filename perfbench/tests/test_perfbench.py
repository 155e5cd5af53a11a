"""Tests of the benchmark itself: constructors, answer checks, smoke passes.

    python3 -m pytest perfbench/tests
"""
import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from chromatic import bench, graph
from chromatic.graph import Coloring

import checks
import harness
import tracing
import workloads

BENCH = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name,build", [
    ("myciel3", lambda: workloads.mycielski(3)),
    ("myciel4", lambda: workloads.mycielski(4)),
    ("queen5_5", lambda: workloads.queen(5)),
    ("queen6_6", lambda: workloads.queen(6)),
    ("queen7_7", lambda: workloads.queen(7)),
])
def test_constructors_reproduce_published_sizes(name, build):
    n, edges = build()
    assert (n, len(edges)) == workloads.PUBLISHED[name][:2]
    assert len(set(edges)) == len(edges) and all(u < v for (u, v) in edges)


def test_seed_changes_record_order_not_the_graph():
    inst = next(i for i in workloads.build("dimacs").instances if i.name == "queen5_5")
    texts = [workloads.dimacs_text(inst, seed) for seed in (1, 2)]
    assert texts[0] != texts[1]
    assert "p edge 25 320" in texts[0]  # queen headers count each edge twice
    for text in texts:
        assert graph.parse_dimacs(text).edges == inst.edges


def _myciel3(chi=4):
    n, edges = workloads.mycielski(3)
    return workloads.Instance("myciel3", n, edges, ("pop", "rep"), chi=chi)


def _solve(inst, adapter="builtin"):
    g = graph.Graph.from_edges(inst.n, inst.edges)
    wl = workloads.Workload("test", adapter, (inst,))
    return g, bench.solve_instance(g, inst.name, harness.config(wl, inst.formulations))


def _failed(checked):
    return {form for form, reasons in checked.items() if reasons}


def test_correct_answers_pass():
    inst = _myciel3()
    g, outcome = _solve(inst)
    assert _failed(checks.check_instance(inst, g, outcome)) == set()


def test_improper_coloring_fails_the_operation():
    inst = _myciel3()
    g, outcome = _solve(inst)
    colors = list(outcome.colorings["pop"].colors)
    u, v = inst.edges[0]
    colors[v] = colors[u]
    outcome.colorings["pop"] = Coloring(tuple(colors))
    checked = checks.check_instance(inst, g, outcome)
    assert _failed(checked) == {"pop"}
    assert "coloring is not proper" in checked["pop"]


def test_wrong_chromatic_number_fails_the_operation():
    inst = _myciel3()
    g, outcome = _solve(inst)
    outcome.records[:] = [dataclasses.replace(r, lb=5, ub=5) if r.model == "rep" else r
                          for r in outcome.records]
    checked = checks.check_instance(inst, g, outcome)
    assert "rep" in _failed(checked)
    assert "ub 5 != published chi 4" in checked["rep"]


def test_non_optimal_status_fails_the_operation():
    inst = _myciel3()
    g, outcome = _solve(inst)
    outcome.records[:] = [dataclasses.replace(r, status="feasible", lb=3) if r.model == "pop"
                          else r for r in outcome.records]
    checked = checks.check_instance(inst, g, outcome)
    assert _failed(checked) == {"pop"}
    assert "status feasible" in checked["pop"]


def test_a_pass_counts_failed_operations(tmp_path):
    wl = workloads.Workload("test", "builtin", (_myciel3(chi=5),))
    indir = harness.set_up(wl, 1, tmp_path)
    result = harness.run_pass(wl, indir)
    assert (len(result.failures), result.failed) == (2, 2)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_reduced_smoke_pass(name, tmp_path):
    wl = workloads.build(name)
    wl = dataclasses.replace(wl, instances=wl.instances[:1])
    indir = harness.set_up(wl, 3, tmp_path)
    result = harness.measure(wl, indir, seconds=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(wl.instances[0].formulations)
    assert set(result["metrics"]) == {"sweep_s", "instance_s.p50", "peak_rss_mb"}


def test_traced_pass_reports_every_layer_and_restores_the_program(tmp_path):
    wl = workloads.build("dimacs")
    wl = dataclasses.replace(wl, instances=wl.instances[:1])
    indir = harness.set_up(wl, 3, tmp_path)
    original = bench.solve_instance
    tracer = tracing.Tracer()
    result = harness.measure(wl, indir, seconds=0, tracer=tracer)
    assert bench.solve_instance is original
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(tracing.PER_LAYER)
    assert metrics["preprocess.vertices_removed"] == 0
    assert metrics["preprocess.clique_trials"] == math.ceil(300 * 20 / 11)
    for count in ("models.rows", "models.nonzeros", "lp.bytes", "lpsolve.highs_nodes"):
        assert metrics[count] > 0
    spans = {s[0]: s for s in tracer.spans}
    assert all(parent is None or parent in spans for (_, _, _, _, parent, _) in spans.values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
