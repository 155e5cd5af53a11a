"""Ground truth for the tests: an exact oracle, and a coloring's encoding and
row check in any of the package's models.

The oracle gives exact chromatic numbers for small graphs by backtracking
with saturation-degree vertex selection (`preprocess.Saturation`, the
routine the DSATUR upper bound uses, plus an `unassign` to step back) and
the standard color-symmetry pruning: a new color may only be introduced as
(max used)+1. Capped at a configurable vertex count because it exists for
verification, not for benchmark performance.

`encode_coloring` is the inverse of `models.extract_coloring`, and
`check_feasible` names the rows and column bounds a value assignment
violates. Together they back the oracle-backed `NullAdapter` double in
`conftest` and the formulation tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from chromatic import preprocess
from chromatic.graph import Coloring, Graph
from chromatic.models import (MilpModel, ModelError, _color_bound, _rep_columns, _rep_order_of,
                              column_values)
from chromatic.preprocess import greedy_upper_bound

DEFAULT_CAP = 25


class Saturation(preprocess.Saturation):
    """`preprocess.Saturation` with the undo step a backtracking search needs."""

    def unassign(self, v: int) -> None:
        c, self.color[v] = self.color[v], 0
        for u in self.adjacency[v]:
            seen = self.seen[u]
            if seen[c] == 1:
                del seen[c]
            else:
                seen[c] -= 1


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


def encode_coloring(m: MilpModel, c: Coloring) -> dict[str, int]:
    """Inverse of extract_coloring: variable values realizing a coloring.

    The coloring must already agree with any fixings carried by the model
    (clique members at their precolors, the anchor at the largest color).
    For the representatives model each class is represented by its first
    member in the model's vertex order: its clique member when it has one,
    else its smallest id.
    """
    g = m.graph
    colors = c.colors
    if m.kind in ("ass-s", "ass"):
        H = _color_bound(m)
        bits = [1 if colors[v] == i else 0 for v in range(g.n) for i in range(1, H + 1)]
        bits += [1 if i in set(colors) else 0 for i in range(1, H + 1)]
    elif m.kind in ("pop", "pop2"):
        H = _color_bound(m)
        bits = [1 if colors[v] > i else 0 for v in range(g.n) for i in range(1, H)]
        if m.kind == "pop2":
            bits += [1 if colors[v] == i else 0 for v in range(g.n) for i in range(1, H + 1)]
    elif m.kind == "rep":
        order = _rep_order_of(m)
        columns = _rep_columns(g, order)[0].tolist()
        classes: dict[int, list[int]] = {}
        for v in order:
            classes.setdefault(colors[v], []).append(v)
        bits = [0] * len(m.variables)
        for rep, *members in classes.values():
            bits[rep] = 1
            for v in members:
                if columns[rep][v] < 0:
                    raise ModelError(f"coloring puts adjacent {rep} and {v} in one class")
                bits[columns[rep][v]] = 1
    else:
        raise ModelError(f"unknown formulation {m.kind!r}")
    values = dict(zip(m.variables, bits))
    for name, fixed in m.fixings.items():
        if values.get(name, 0) != fixed:
            raise ModelError(f"coloring contradicts fixing {name}={fixed}")
    return values


def check_feasible(m: MilpModel, values: Mapping[str, float], tol: float = 1e-9) -> list[str]:
    """Names of constraints (and column bounds) violated by a value assignment."""
    x = np.array(column_values(m, values))
    bad = []
    for block in m.blocks:
        rows = np.repeat(np.arange(len(block)), np.diff(block.indptr))
        lhs = np.bincount(rows, weights=block.coefs * x[block.cols], minlength=len(block))
        violated = np.where(block.lo == block.hi, np.abs(lhs - block.lo) > tol,
                            (lhs > block.hi + tol) | (lhs < block.lo - tol))
        if violated.any():
            names = block.names()
            bad.extend(names[r] for r in np.flatnonzero(violated).tolist())
    for name, (lo, hi) in m.bounds.items():
        if not lo - tol <= x[m.columns[name]] <= hi + tol:
            bad.append(f"bound:{name}")
    return bad
