"""The measuring side of the benchmark: inputs, warm-up, passes and metrics.

It imports the `chromatic` package, so it runs only in worker processes and
tests; run.py's launching process stays free of it.
"""
from __future__ import annotations

import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from chromatic import bench, graph
from chromatic.bench import RunConfig

import checks
import tracing
import workloads

REFERENCE_LOOP_N = 2_000_000


@dataclass
class Pass:
    sweep_s: float
    instance_s: list[float]
    failures: dict[tuple[str, str], list[str]]  # (instance, formulation) -> reasons
    answers: dict[tuple[str, str], tuple]

    @property
    def failed(self) -> int:
        return sum(1 for reasons in self.failures.values() if reasons)


def config(workload: workloads.Workload, formulations) -> RunConfig:
    return RunConfig(models=tuple(formulations), clique_mode="e",
                     time_limit=checks.TIME_LIMIT_S,
                     clique_time_budget=checks.CLIQUE_BUDGET_S,
                     adapter=workload.adapter, seed=0, jobs=1)


def set_up(workload: workloads.Workload, seed: int, outdir: Path) -> Path:
    """Write the workload's .col files and solve a warm-up instance."""
    indir = outdir / f"{workload.name}-seed{seed}"
    indir.mkdir(parents=True, exist_ok=True)
    for inst in workload.instances:
        (indir / f"{inst.name}.col").write_text(workloads.dimacs_text(inst, seed),
                                                encoding="utf-8")
    n, edges = workloads.mycielski(3)
    bench.solve_instance(graph.Graph.from_edges(n, edges), "warm-up",
                         config(workload, workload.instances[0].formulations[:1]))
    return indir


def run_pass(workload: workloads.Workload, indir: Path, tracer=None) -> Pass:
    """One sweep: .col text in, checked colorings out, for every instance."""
    instance_s, failures, answers = [], {}, {}
    started = time.perf_counter()
    for inst in workload.instances:
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.instance = inst.name
        text = (indir / f"{inst.name}.col").read_text(encoding="utf-8")
        g = graph.parse_dimacs(text)
        outcome = bench.solve_instance(g, inst.name, config(workload, inst.formulations))
        checked = checks.check_instance(inst, g, outcome)
        instance_s.append(time.perf_counter() - t0)
        records = {r.model: r for r in outcome.records}
        pre = outcome.preprocessed
        for form, reasons in checked.items():
            record, coloring = records.get(form), outcome.colorings.get(form)
            failures[inst.name, form] = reasons
            answers[inst.name, form] = (
                record and (record.status, record.lb, record.ub),
                coloring and coloring.colors,
                pre and pre.clique)
    return Pass(time.perf_counter() - started, instance_s, failures, answers)


def reference_loop_s() -> float:
    """A fixed pure-Python loop, timed so a slow machine shows apart from a slow program."""
    started = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP_N):
        total += i * i % 7
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(workload: workloads.Workload, indir: Path, seconds: float,
            tracer: tracing.Tracer | None = None) -> dict:
    """Whole passes until `seconds` have gone by; the result object without setup_s.

    With a tracer, untraced and traced passes alternate, at least one of
    each, and the metrics are the per-layer ones.
    """
    untraced: list[Pass] = []
    traced: list[Pass] = []
    layers: list[dict[str, float]] = []
    started = time.perf_counter()
    while True:
        if tracer is not None and len(untraced) > len(traced):
            with tracer.installed():
                traced.append(run_pass(workload, indir, tracer))
            layers.append(tracer.take_pass())
        else:
            untraced.append(run_pass(workload, indir))
        if time.perf_counter() - started >= seconds and \
                (tracer is None or len(traced) == len(untraced)):
            break

    passes = untraced + traced
    reported = set()
    for p in passes:
        for (name, form), reasons in p.failures.items():
            if reasons and (name, form) not in reported:
                reported.add((name, form))
                print(f"FAILED {workload.name}/{name}/{form}: {'; '.join(reasons)}",
                      file=sys.stderr)
    sweep_s = statistics.median(p.sweep_s for p in untraced)
    if tracer is None:
        metrics = {
            "sweep_s": (sweep_s, "s"),
            "instance_s.p50": (statistics.median(t for p in untraced for t in p.instance_s), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        metrics = {name: (statistics.median(layer[name] for layer in layers),
                          "count" if name in tracing.COUNTS else "s")
                   for name in layers[0]}
        metrics[tracing.OVERHEAD] = (statistics.median(p.sweep_s for p in traced) - sweep_s, "s")
    print(f"passes: {len(passes)}; untraced sweeps (s): "
          + " ".join(f"{p.sweep_s:.3f}" for p in untraced))
    return {
        # a run is correct when every pass gave every operation the same answer
        "correct": all(p.answers == passes[0].answers for p in passes),
        "attempted": sum(len(p.failures) for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
