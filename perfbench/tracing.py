"""Spans around the program's public functions, recorded from outside it.

`Tracer.installed()` rebinds each traced function, wherever a `chromatic`
module holds a reference to it, to a wrapper that records a span (name,
start, end, parent, instance) and the counts taken at that boundary. The
original bindings come back when the block ends, so untraced passes in the
same process run the program as it is. Spans stay in memory until
`write_spans`.

Self time is a span's duration minus the time its child spans cover; calls
are synchronous, so children never overlap and that is the sum of their
durations. A layer metric is the sum of its spans' self times in one pass.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import time
from collections import defaultdict

from chromatic import backend, bench, graph, lp, lpsolve, models, preprocess


def _planned_trials(args, kwargs, result):
    g = args[0]
    return {"preprocess.clique_trials":
            max(1, math.ceil(preprocess.CLIQUE_TRIALS_PER_DENSITY * g.m / g.n)) if g.n else 1}


def _model_size(args, kwargs, result):
    stats = models.model_stats(result)
    return {"models.rows": stats.num_constraints, "models.nonzeros": stats.num_nonzeros}


# (owner, attribute, metric of the span's self time, counts taken from the call)
TRACED = (
    (graph, "parse_dimacs", "graph.parse_dimacs_s", None),
    (graph, "verify_coloring", "graph.verify_coloring_s", None),
    (preprocess, "remove_dominated", "preprocess.remove_dominated_s",
     lambda a, k, r: {"preprocess.vertices_removed": r.original_n - len(r.kept)}),
    (preprocess, "greedy_upper_bound", "preprocess.greedy_upper_bound_s", None),
    (preprocess, "find_clique", "preprocess.find_clique_s", _planned_trials),
    (preprocess, "restore_coloring", "preprocess.restore_coloring_s", None),
    (models, "build_formulation", "models.build_formulation_s", None),
    (models, "apply_clique_fixings", "models.apply_clique_fixings_s", _model_size),
    (models, "extract_coloring", "models.extract_coloring_s", None),
    (lp, "emit_lp", "lp.emit_lp_s", lambda a, k, r: {"lp.bytes": len(r.encode())}),
    (lp, "parse_lp", "lp.parse_lp_s", None),
    # solve_parsed builds the matrix around the milp call, its only child
    (lpsolve, "solve_parsed", "lpsolve.matrix_s", None),
    (lpsolve, "milp", "lpsolve.highs_s",
     lambda a, k, r: {"lpsolve.highs_nodes": int(r.mip_node_count)}),
    (backend, "solve", "backend.solve_self_s", None),
    # the child's start-up, LP parse and solve, minus parsing its answer
    (backend.CommandAdapter, "solve_model", "backend.child_s", None),
    (backend, "parse_solution", "backend.parse_solution_s",
     lambda a, k, r: {"backend.solution_bytes": len(a[0].encode())}),
    (bench, "solve_instance", "bench.solve_instance_self_s", None),
)

COUNTS = ("preprocess.clique_trials", "preprocess.vertices_removed", "models.rows",
          "models.nonzeros", "lp.bytes", "lpsolve.highs_nodes", "backend.solution_bytes")
OVERHEAD = "trace.overhead_s"
PER_LAYER = tuple(metric for (_, _, metric, _) in TRACED) + COUNTS + (OVERHEAD,)


class Tracer:
    def __init__(self):
        self.instance = ""
        self.spans: list[tuple[int, str, float, float, int | None, str]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[list] = []  # [span id, seconds covered by children]
        self._started = 0

    def wrap(self, fn, name: str, metric: str, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._started
            tracer._started += 1
            parent = tracer._open[-1][0] if tracer._open else None
            frame = [span_id, 0.0]
            tracer._open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._open.pop()
                if tracer._open:
                    tracer._open[-1][1] += end - start
                tracer.self_s[metric] += end - start - frame[1]
                tracer.spans.append((span_id, name, start, end, parent, tracer.instance))
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    tracer.counts[key] += value
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "chromatic" or name.startswith("chromatic."))]
        undo = []
        try:
            for owner, attr, metric, count in TRACED:
                original = getattr(owner, attr)
                wrapper = self.wrap(original, f"{owner.__name__}.{attr}", metric, count)
                holders = [owner] + [m for m in modules
                                     if m is not owner and vars(m).get(attr) is original]
                for holder in holders:
                    setattr(holder, attr, wrapper)
                    undo.append((holder, attr, original))
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    def take_pass(self) -> dict[str, float]:
        """Layer metrics of the calls since the last take, then reset them."""
        out = {metric: self.self_s.get(metric, 0.0) for (_, _, metric, _) in TRACED}
        out.update({name: self.counts.get(name, 0) for name in COUNTS})
        self.self_s.clear()
        self.counts.clear()
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for (span_id, name, start, end, parent, instance) in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "instance": instance}) + "\n")
