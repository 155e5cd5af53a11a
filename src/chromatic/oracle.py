"""Exact chromatic numbers for small graphs, used as ground truth in tests.

Backtracking with saturation-degree vertex selection (`preprocess.Saturation`,
the routine the DSATUR upper bound uses) and the standard
color-symmetry pruning: a new color may only be introduced as (max used)+1.
Capped at a configurable vertex count because it exists for verification,
not for benchmark performance.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import Coloring, Graph
from .preprocess import Saturation, greedy_upper_bound

DEFAULT_CAP = 25


class OracleCapExceeded(ValueError):
    pass


@dataclass(frozen=True)
class OracleResult:
    chi: int
    witness: Coloring
    nodes_explored: int


def _check_cap(g: Graph, cap: int):
    if g.n > cap:
        raise OracleCapExceeded(f"graph has {g.n} vertices, oracle cap is {cap}")


def _search(g: Graph, k: int) -> tuple[Coloring | None, int]:
    state = Saturation(g)
    nodes = 0

    def descend(colored: int, used: int) -> bool:
        nonlocal nodes
        nodes += 1
        if colored == g.n:
            return True
        v = state.pick()
        taken = state.seen[v]
        for c in range(1, min(k, used + 1) + 1):
            if c in taken:
                continue
            state.assign(v, c)
            if descend(colored + 1, max(used, c)):
                return True
            state.unassign(v)
        return False

    if descend(0, 0):
        return Coloring(tuple(state.color)), nodes
    return None, nodes


def is_k_colorable(g: Graph, k: int, cap: int = DEFAULT_CAP) -> tuple[bool, Coloring | None]:
    """Exhaustive test for a proper k-coloring; returns a witness when one exists."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_cap(g, cap)
    if g.n == 0:
        return True, Coloring(())
    witness, _ = _search(g, k)
    return (witness is not None), witness


def _greedy_clique(g: Graph) -> list[int]:
    """Deterministic max-degree greedy clique, for the search lower bound."""
    if g.n == 0:
        return []
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    clique = [order[0]]
    for v in order[1:]:
        if all(v in g.adjacency[u] for u in clique):
            clique.append(v)
    return clique


def chromatic_number_exact(g: Graph, cap: int = DEFAULT_CAP) -> OracleResult:
    """Minimum k with is_k_colorable(g, k), seeded at [clique lb, greedy ub]."""
    _check_cap(g, cap)
    if g.n == 0:
        return OracleResult(chi=0, witness=Coloring(()), nodes_explored=0)

    lb = max(1, len(_greedy_clique(g)))
    ub, greedy = greedy_upper_bound(g)
    nodes = 0
    for k in range(lb, ub):
        witness, explored = _search(g, k)
        nodes += explored
        if witness is not None:
            return OracleResult(chi=k, witness=witness, nodes_explored=nodes)
    return OracleResult(chi=ub, witness=greedy, nodes_explored=nodes)
