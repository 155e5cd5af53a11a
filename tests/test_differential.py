"""Differential check of the five formulations against the exact oracle.

The program solves every formulation one color below preprocessing's bound
H. So a run must end `infeasible` exactly when the oracle's chi is H, and
otherwise `optimal` at chi, with and without clique fixings. Every coloring
the run reports (the solver's, else preprocessing's H-coloring), lifted back
through the dominance reduction, must be proper on the original graph with
that many colors. A stubbed preprocessing result with a worse bound, one
color above H, makes every graph a chi < H case.
"""
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromatic import families
from chromatic.backend import SolveStatus, builtin_subprocess_adapter, solve
from chromatic.graph import Graph, gnp_random, verify_coloring
from chromatic.models import FORMULATIONS, apply_clique_fixings, build_formulation, extract_coloring
from chromatic.oracle import chromatic_number_exact
from chromatic.preprocess import greedy_upper_bound, preprocess_pipeline, restore_coloring
from conftest import one_color_worse

ALL_RUNS = [(kind, fixed) for kind in FORMULATIONS for fixed in (False, True)]


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [pair for pair, keep in zip(pairs, chosen) if keep])


def optima(g: Graph, runs, adapter=None, inst=None) -> dict[tuple[str, bool], int]:
    """The chromatic number each (formulation, fixed) run proves for g, from
    `inst` (by default, the pipeline's): H when the model one color below H
    is `infeasible`, else the solver's optimum, which must lie below H. Each
    run's coloring is checked on g."""
    inst = inst or preprocess_pipeline(g, seed=0, clique_time_budget=5)
    found = {}
    for kind, fixed in runs:
        model = build_formulation(kind, inst)
        if fixed:
            model = apply_clique_fixings(model, inst)
        result = solve(model, adapter=adapter, time_limit=60)
        if result.status is SolveStatus.INFEASIBLE:
            chi, reduced = inst.upper_bound, inst.greedy_coloring
        else:
            assert result.status is SolveStatus.OPTIMAL, (kind, fixed, result.log)
            assert result.lower_bound == result.upper_bound < inst.upper_bound, (kind, fixed)
            chi, reduced = result.upper_bound, extract_coloring(model, result.values)
        report = verify_coloring(g, restore_coloring(inst.reduced, reduced))
        assert report.valid and report.colors_used == chi, (kind, fixed)
        found[kind, fixed] = chi
    return found


@settings(max_examples=25)
@given(graphs())
def test_builtin_formulations_agree_with_the_oracle(g):
    chi = chromatic_number_exact(g).chi
    inst = preprocess_pipeline(g, seed=0, clique_time_budget=5)
    if inst.solved_in_preprocessing:
        # the clique meets H: no model is built
        assert chi == inst.upper_bound
    else:
        assert optima(g, ALL_RUNS, inst=inst) == dict.fromkeys(ALL_RUNS, chi)
    if inst.upper_bound < 2:
        # edgeless after the reduction: without edge rows nothing forces a
        # color into use
        assert chi == 1
        return
    assert optima(g, ALL_RUNS, inst=one_color_worse(inst)) == dict.fromkeys(ALL_RUNS, chi)


def test_dsatur_bound_above_chi_is_solved_to_chi():
    # DSATUR alone colors this graph with 4 colors, chi is 3: without
    # TabuCol the models have 3 colors and the solver finds the optimum
    g = gnp_random(10, 0.3, 20)
    inst = preprocess_pipeline(g, seed=0, clique_time_budget=5)
    upper, coloring = greedy_upper_bound(inst.reduced.graph)
    chi = chromatic_number_exact(g).chi
    assert (len(inst.clique), chi, inst.upper_bound, upper) == (3, 3, 3, 4)
    dsatur = replace(inst, upper_bound=upper, greedy_coloring=coloring)
    assert optima(g, ALL_RUNS, inst=dsatur) == dict.fromkeys(ALL_RUNS, 3)


@pytest.mark.parametrize("seed,runs", [
    (3, [("pop2", True), ("rep", False)]),
    (5, [("ass", True), ("pop", False)]),
])
def test_subprocess_route_agrees_with_the_oracle(seed, runs):
    g = gnp_random(10, 0.5, seed)
    inst = preprocess_pipeline(g, seed=0, clique_time_budget=5)
    chi = chromatic_number_exact(g).chi
    for stub in (inst, one_color_worse(inst)):
        if stub.solved_in_preprocessing:
            assert chi == stub.upper_bound
            continue
        found = optima(g, runs, adapter=builtin_subprocess_adapter(), inst=stub)
        assert found == dict.fromkeys(runs, chi)


@pytest.mark.parametrize("adapter", [None, builtin_subprocess_adapter()],
                         ids=["builtin", "builtin-sub"])
def test_chi_equal_to_h_is_proved_infeasible_on_both_routes(adapter):
    g = families.cycle(5)
    inst = preprocess_pipeline(g, seed=0, clique_time_budget=5)
    assert (len(inst.clique), inst.upper_bound) == (2, 3)
    assert optima(g, ALL_RUNS, adapter=adapter, inst=inst) == dict.fromkeys(ALL_RUNS, 3)
