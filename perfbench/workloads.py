"""Workload inputs, built by the benchmark from definitions and its own RNG.

Every graph is a canonical edge list (u < v, sorted) made here, never by the
program. The program only sees the DIMACS text written from it. The workload
seed shuffles the order of the edge records and flips their orientation; it
does not change the graphs. Redrawing or relabelling G(n, 0.9) moves HiGHS
branch-and-bound from about ten nodes to over three thousand and a dense pass
from 13 s to 47 s (README.md, "Why the graphs do not depend on the seed"),
which no regression bound could hold.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

# Published (vertices, undirected edges, chromatic number) of the DIMACS
# COLOR instances that the `dimacs` workload constructs.
PUBLISHED = {
    "myciel3": (11, 20, 4),
    "myciel4": (23, 71, 5),
    "queen5_5": (25, 160, 5),
    "queen6_6": (36, 290, 7),
    "queen7_7": (49, 476, 7),
}

WORKLOADS = ("dense", "dimacs", "subprocess")

# G(n, 0.9) graphs. The stream name fixes the graphs; it was taken as the
# first one (suffix 0, 1, 2, ...) whose graphs all reach the MILP (the
# program's clique stays below its greedy bound) and keep HiGHS under 100
# branch-and-bound nodes per pass, so that the workload measures the dense
# regime's preprocessing and model building rather than one unlucky search.
DENSE_SIZES = (48, 50, 52, 54)
SUBPROCESS_SIZES = (40, 42, 44, 45)
DENSITY = 0.9


Edges = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Instance:
    name: str
    n: int
    edges: Edges
    formulations: tuple[str, ...]
    chi: int | None = None  # published chromatic number, when there is one
    doubled: bool = False  # DIMACS records list each edge in both orientations


@dataclass(frozen=True)
class Workload:
    name: str
    adapter: str
    instances: tuple[Instance, ...]


def _canonical(edges) -> Edges:
    return tuple(sorted({(u, v) if u < v else (v, u) for (u, v) in edges}))


def gnp_edges(n: int, p: float, stream: str) -> Edges:
    """G(n, p) from the benchmark's own Mersenne Twister stream."""
    rng = random.Random(f"{stream}:{n}:{p!r}")
    return tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)


def mycielski(k: int) -> tuple[int, Edges]:
    """The DIMACS `myciel<k>` graph: k-1 Mycielski steps applied to K2.

    A step maps G on n vertices to a graph on 2n+1: the copies u_i of v_i are
    joined to the neighbours of v_i, and a new vertex w to every u_i.
    """
    if k < 1:
        raise ValueError("myciel<k> needs k >= 1")
    n, edges = 2, [(0, 1)]
    for _ in range(k - 1):
        step = list(edges)
        for (a, b) in edges:
            step += [(a, n + b), (b, n + a)]
        step += [(n + i, 2 * n) for i in range(n)]
        n, edges = 2 * n + 1, step
    return n, _canonical(edges)


def queen(k: int) -> tuple[int, Edges]:
    """The DIMACS `queen<k>_<k>` graph: squares of a k x k board, row-major,
    adjacent when a queen on one attacks the other."""
    cells = [(r, c) for r in range(k) for c in range(k)]
    edges = [(a, b)
             for a, (r1, c1) in enumerate(cells)
             for b, (r2, c2) in enumerate(cells)
             if a < b and (r1 == r2 or c1 == c2 or abs(r1 - r2) == abs(c1 - c2))]
    return k * k, _canonical(edges)


def build(name: str) -> Workload:
    """The fixed graphs and formulations of one workload."""
    if name == "dense":
        return Workload("dense", "builtin", tuple(
            Instance(f"gnp{n}", n, gnp_edges(n, DENSITY, "dense-3"), ("pop", "pop2", "rep"))
            for n in DENSE_SIZES))
    if name == "subprocess":
        return Workload("subprocess", "builtin-sub", tuple(
            Instance(f"gnp{n}", n, gnp_edges(n, DENSITY, "subprocess-1"), ("pop", "pop2", "ass"))
            for n in SUBPROCESS_SIZES))
    if name == "dimacs":
        every = ("ass", "pop", "pop2", "rep")
        # Three searches are left out: rep on queen6_6 (27 s of HiGHS) and
        # pop on queen7_7 (13 s), each more than the rest of the pass, and
        # rep on queen7_7 (3 s), so that two passes fit in a run.
        graphs = [("myciel3", mycielski(3), every, False),
                  ("myciel4", mycielski(4), every, False),
                  ("queen5_5", queen(5), every, True),
                  ("queen6_6", queen(6), ("ass", "pop", "pop2"), True),
                  ("queen7_7", queen(7), ("ass", "pop2"), True)]
        return Workload("dimacs", "builtin", tuple(
            Instance(label, n, edges, forms, chi=PUBLISHED[label][2], doubled=doubled)
            for (label, (n, edges), forms, doubled) in graphs))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def dimacs_text(inst: Instance, seed: int) -> str:
    """DIMACS .col text for an instance; the seed orders and orients records.

    Queen files count each edge twice in their header, as the published
    files do, and list it once in each orientation.
    """
    rng = random.Random(f"records:{inst.name}:{seed}")
    if inst.doubled:
        records = [(u, v) for (u, v) in inst.edges] + [(v, u) for (u, v) in inst.edges]
    else:
        records = [(u, v) if rng.random() < 0.5 else (v, u) for (u, v) in inst.edges]
    rng.shuffle(records)
    lines = [f"c {inst.name}, record order from seed {seed}",
             f"p edge {inst.n} {len(records)}"]
    lines += [f"e {u + 1} {v + 1}" for (u, v) in records]
    return "\n".join(lines) + "\n"
