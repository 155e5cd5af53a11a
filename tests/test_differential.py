"""Differential check of the five formulations against the exact oracle.

Every formulation, with and without clique fixings, must reach the same
optimum as `chromatic_number_exact`, and every decoded coloring, lifted back
through the dominance reduction, must be proper on the original graph.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromatic.backend import SolveStatus, builtin_subprocess_adapter, solve
from chromatic.graph import Graph, gnp_random, verify_coloring
from chromatic.models import FORMULATIONS, apply_clique_fixings, build_formulation, extract_coloring
from chromatic.oracle import chromatic_number_exact
from chromatic.preprocess import preprocess_pipeline, restore_coloring


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [pair for pair, keep in zip(pairs, chosen) if keep])


def optima(g: Graph, runs, adapter=None) -> dict[tuple[str, bool], int]:
    """Optimum of each (formulation, fixed) run, each coloring checked on g."""
    inst = preprocess_pipeline(g, seed=0, clique_time_budget=5)
    found = {}
    for kind, fixed in runs:
        model = build_formulation(kind, inst)
        if fixed:
            model = apply_clique_fixings(model, inst)
        result = solve(model, adapter=adapter, time_limit=60)
        assert result.status is SolveStatus.OPTIMAL, (kind, fixed, result.log)
        assert result.lower_bound == result.upper_bound, (kind, fixed)
        coloring = restore_coloring(inst.reduced, extract_coloring(model, result.values))
        report = verify_coloring(g, coloring)
        assert report.valid and report.colors_used == result.upper_bound, (kind, fixed)
        found[kind, fixed] = result.upper_bound
    return found


@settings(max_examples=25)
@given(graphs())
def test_builtin_formulations_agree_with_the_oracle(g):
    chi = chromatic_number_exact(g).chi
    if preprocess_pipeline(g, seed=0, clique_time_budget=5).upper_bound < 2:
        # edgeless after the reduction: the pipeline settles it before any
        # build, and without edge rows nothing forces a color into use
        assert chi == 1
        return
    found = optima(g, [(kind, fixed) for kind in FORMULATIONS for fixed in (False, True)])
    assert set(found.values()) == {chi}, found


@pytest.mark.parametrize("seed,runs", [
    (3, [("pop2", True), ("rep", False)]),
    (5, [("ass", True), ("pop", False)]),
])
def test_subprocess_route_agrees_with_the_oracle(seed, runs):
    g = gnp_random(10, 0.5, seed)
    found = optima(g, runs, adapter=builtin_subprocess_adapter())
    assert set(found) == set(runs)
    assert set(found.values()) == {chromatic_number_exact(g).chi}
