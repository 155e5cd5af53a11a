"""Answer checks made apart from the program.

An operation is one (instance, formulation) solve. It succeeds only if it
ends `optimal` with lb == ub, its coloring is proper on the benchmark's own
edge list and uses exactly ub colours, and the instance-wide checks hold:
the program parsed the graph the benchmark wrote, every formulation found
the same chromatic number (the published one, where there is one), the
preprocessing clique is a clique of the original graph no larger than that
number, and neither the clique-search budget nor a solve time limit was
reached. No check compares against a stored copy of an earlier output.
"""
from __future__ import annotations

from workloads import PUBLISHED, Instance

# Far above what any workload needs: a run that reaches either is cut short
# by a deadline rather than finishing its search, so its answer would depend
# on the speed of the machine.
CLIQUE_BUDGET_S = 600.0
TIME_LIMIT_S = 600.0


def proper(edges, colors) -> bool:
    """Whether no edge joins two vertices of one colour."""
    return all(colors[u] != colors[v] for (u, v) in edges)


def is_clique(edges, members) -> bool:
    edge_set = set(edges)
    members = sorted(members)
    return all((u, v) in edge_set for i, u in enumerate(members) for v in members[i + 1:])


def check_instance(inst: Instance, graph, outcome) -> dict[str, list[str]]:
    """Failure reasons per formulation; an empty list means the operation passed.

    `graph` is what the program parsed from the instance's DIMACS text and
    `outcome` what `chromatic.bench.solve_instance` returned for it.
    """
    common: list[str] = []
    if inst.name in PUBLISHED and PUBLISHED[inst.name][:2] != (inst.n, len(inst.edges)):
        common.append(f"constructed (n, m) = {(inst.n, len(inst.edges))}, "
                      f"published {PUBLISHED[inst.name][:2]}")
    if (graph.n, graph.m) != (inst.n, len(inst.edges)):
        common.append(f"program parsed (n, m) = {(graph.n, graph.m)}, "
                      f"written {(inst.n, len(inst.edges))}")
    if outcome.prep_time >= CLIQUE_BUDGET_S:
        common.append(f"preprocessing took {outcome.prep_time:.1f} s, "
                      f"the clique budget is {CLIQUE_BUDGET_S:.0f} s")

    records = {r.model: r for r in outcome.records}
    found = {r.ub for r in outcome.records if r.ub is not None}
    chi = inst.chi if inst.chi is not None else (min(found) if found else None)
    if len(found) > 1:
        common.append(f"formulations disagree on the chromatic number: {sorted(found)}")

    pre = outcome.preprocessed
    if pre is None:
        common.append("no preprocessing result")
    else:
        clique = [pre.reduced.kept[v] for v in pre.clique]
        if not is_clique(inst.edges, clique):
            common.append(f"preprocessing clique {clique} is not a clique of the graph")
        elif chi is not None and len(clique) > chi:
            common.append(f"preprocessing clique of size {len(clique)} exceeds chi = {chi}")

    failures: dict[str, list[str]] = {}
    for form in inst.formulations:
        reasons = list(common)
        record = records.get(form)
        coloring = outcome.colorings.get(form)
        if record is None:
            reasons.append("no result record")
        else:
            if record.status != "optimal":
                reasons.append(f"status {record.status}")
            if record.lb is None or record.lb != record.ub:
                reasons.append(f"lb {record.lb} != ub {record.ub}")
            if record.time >= TIME_LIMIT_S:
                reasons.append(f"solve took {record.time:.1f} s, the limit is {TIME_LIMIT_S:.0f} s")
            if inst.chi is not None and record.ub != inst.chi:
                reasons.append(f"ub {record.ub} != published chi {inst.chi}")
        if coloring is None:
            reasons.append("no coloring")
        else:
            colors = coloring.colors
            if len(colors) != inst.n:
                reasons.append(f"coloring covers {len(colors)} of {inst.n} vertices")
            elif not proper(inst.edges, colors):
                reasons.append("coloring is not proper")
            if record is not None and len(set(colors)) != record.ub:
                reasons.append(f"coloring uses {len(set(colors))} colours, ub is {record.ub}")
        failures[form] = reasons
    return failures
