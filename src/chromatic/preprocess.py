"""Instance reduction and bounds ahead of any MILP build.

The pipeline: (a) remove dominated vertices to a fixed point, (b) DSATUR
upper bound H on the reduced graph, (c)/(e) randomized maximal-clique search
scored either by clique size or by the fixing-count objective
|Q|*H + |delta(Q)|, grown in numpy a block of trials at a time on one
counter-based SplitMix64 stream and stopped after the first block whose
best clique reaches H, then a TabuCol descent that lowers the upper bound
one color at a time towards |Q|, (d) early exit when the clique size meets
the upper bound. A dominance restore stack maps any coloring of the reduced
graph back to the original one without new colors.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

from .graph import Coloring, ColoringError, Graph, verify_coloring

DEFAULT_CLIQUE_TIME_BUDGET = 60.0
CLIQUE_TRIALS_PER_DENSITY = 300
# Clique-search trials grown side by side, and the increment of SplitMix64's
# state (the odd integer nearest 2**64 / golden ratio).
CLIQUE_BLOCK = 1024
SPLITMIX64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
# TabuCol's budget per color count tried, in moves, and its tabu tenure: a
# barred move stays barred for randrange(SPREAD) + PER_CONFLICT * (number of
# conflicting vertices) moves. A move count, not a time, so H does not depend
# on the machine.
TABUCOL_ITERATIONS = 2000
TABU_TENURE_SPREAD = 10
TABU_TENURE_PER_CONFLICT = 0.6


class NotACliqueError(ValueError):
    pass


@dataclass(frozen=True)
class ReducedInstance:
    """Dominance-reduced graph plus the bookkeeping to undo the reduction.

    `kept[i]` is the original id of reduced vertex i. `restore_stack` holds
    (removed, dominator) pairs in original ids, in removal order; a
    dominator may itself be removed later, which is why restores replay the
    stack in reverse.
    """

    graph: Graph
    kept: tuple[int, ...]
    restore_stack: tuple[tuple[int, int], ...]
    original_n: int


@dataclass(frozen=True)
class PreprocessedInstance:
    """Everything the model builders need. Vertex ids are reduced-graph ids.

    `greedy_coloring` is the best coloring preprocessing found (DSATUR, then
    TabuCol) and uses `upper_bound` colors. `lower_bound` and
    `solved_in_preprocessing` are derived from `clique` and `upper_bound`.
    """

    reduced: ReducedInstance
    upper_bound: int
    greedy_coloring: Coloring
    clique: tuple[int, ...]
    anchor: int

    @property
    def lower_bound(self) -> int:
        return len(self.clique)

    @property
    def solved_in_preprocessing(self) -> bool:
        return self.lower_bound == self.upper_bound


def remove_dominated(g: Graph) -> ReducedInstance:
    """Delete dominated vertices (N(u) subseteq N(v)) until none remain.

    Removals can create new dominations, so passes repeat to a fixed point.
    At equality N(u) = N(v) only the higher-numbered vertex may be removed,
    which keeps the procedure deterministic and avoids deleting both. A
    dominated vertex is never adjacent to its dominator (v in N(u) would put
    v inside N(v)), so it can safely take the dominator's color on restore.
    """
    adj = [set(g.adjacency[v]) for v in range(g.n)]
    alive = sorted(range(g.n))
    stack: list[tuple[int, int]] = []

    changed = True
    while changed:
        changed = False
        for u in list(alive):
            nu = adj[u]
            dominator = -1
            for v in alive:
                if v == u:
                    continue
                nv = adj[v]
                if nu <= nv and (nu != nv or u > v):
                    dominator = v
                    break
            if dominator >= 0:
                stack.append((u, dominator))
                alive.remove(u)
                for w in adj[u]:
                    adj[w].discard(u)
                adj[u] = set()
                changed = True

    kept = tuple(alive)
    new_id = {orig: i for i, orig in enumerate(kept)}
    edges = [(new_id[u], new_id[v]) for (u, v) in g.edges if u in new_id and v in new_id]
    return ReducedInstance(graph=Graph.from_edges(len(kept), edges),
                           kept=kept, restore_stack=tuple(stack), original_n=g.n)


def restore_coloring(r: ReducedInstance, c: Coloring) -> Coloring:
    """Lift a valid coloring of the reduced graph to the original graph.

    Replays the restore stack in reverse removal order; each removed vertex
    copies its dominator's color, so no new color is ever introduced.
    """
    report = verify_coloring(r.graph, c)
    if not report.valid:
        raise ColoringError(f"coloring of reduced graph is invalid: {report.violating_edges}")
    colors: list[int | None] = [None] * r.original_n
    for i, orig in enumerate(r.kept):
        colors[orig] = c.colors[i]
    for (removed, dominator) in reversed(r.restore_stack):
        if colors[dominator] is None:
            raise ValueError(f"restore stack lifts vertex {removed} from uncolored "
                             f"vertex {dominator}")
        colors[removed] = colors[dominator]
    missing = [v for v, x in enumerate(colors) if x is None]
    if missing:
        raise ValueError(f"restore stack leaves vertices {missing[:10]} uncolored")
    return Coloring(tuple(colors))  # type: ignore[arg-type]


class Saturation:
    """A partial coloring that keeps, per vertex, the colors of its neighbours.

    `color[v]` is 0 while v is uncolored. `seen[v]` counts v's neighbours by
    color, so `len(seen[v])` is v's saturation (the number of distinct
    colors next to it) and `c in seen[v]` says whether c is taken next to v.
    Coloring or uncoloring a vertex costs O(deg), so the DSATUR heuristic and
    the oracle's backtracking search both keep saturation without recounting.
    """

    def __init__(self, g: Graph):
        self.adjacency = g.adjacency
        self.degree = [len(neighbours) for neighbours in g.adjacency]
        self.color = [0] * g.n
        self.seen: list[dict[int, int]] = [{} for _ in range(g.n)]

    def assign(self, v: int, c: int) -> None:
        self.color[v] = c
        for u in self.adjacency[v]:
            seen = self.seen[u]
            seen[c] = seen.get(c, 0) + 1

    def unassign(self, v: int) -> None:
        c, self.color[v] = self.color[v], 0
        for u in self.adjacency[v]:
            seen = self.seen[u]
            if seen[c] == 1:
                del seen[c]
            else:
                seen[c] -= 1

    def pick(self) -> int:
        """The uncolored vertex of largest saturation, then highest degree, then smallest id."""
        color, seen, degree = self.color, self.seen, self.degree
        return max((v for v in range(len(color)) if not color[v]),
                   key=lambda v: (len(seen[v]), degree[v], -v))


def greedy_upper_bound(g: Graph) -> tuple[int, Coloring]:
    """DSATUR coloring (Brelaz, 1979); returns (color count, coloring).

    Colors the vertex `Saturation.pick` names, each with the smallest color
    not taken next to it, until all are colored.
    """
    if g.n < 1:
        raise ValueError("greedy_upper_bound needs at least one vertex")
    state = Saturation(g)
    for _ in range(g.n):
        v = state.pick()
        taken = state.seen[v]
        c = 1
        while c in taken:
            c += 1
        state.assign(v, c)
    coloring = Coloring(tuple(state.color))
    return coloring.num_colors, coloring


def tabucol(g: Graph, start: Coloring, k: int, rng: random.Random) -> Coloring | None:
    """Look for a proper k-coloring by tabu search (Hertz and de Werra, 1987).

    The start coloring's classes are renumbered 1..H in color order and every
    vertex above k moves, in id order, to its least conflicting color (ties
    to the smallest). Each of at most `TABUCOL_ITERATIONS` steps then moves
    one vertex that has a conflict to another color, taking the move that
    lowers the conflict count most (ties drawn from `rng`). Moving v off color
    c bars it from c for `randrange(10) + floor(0.6 * conflicting vertices)`
    steps (Galinier and Hao, 1999), unless the move beats the best count seen.
    `gamma[v][c]`, the number of v's neighbours colored c, is kept in O(deg)
    per move. Returns None when the budget runs out with conflicts left.
    """
    adjacency = g.adjacency
    rank = {c: i for i, c in enumerate(sorted(set(start.colors)), start=1)}
    color = [rank[c] for c in start.colors]
    gamma = [[0] * (len(rank) + 1) for _ in range(g.n)]
    for v in range(g.n):
        for u in adjacency[v]:
            gamma[u][color[v]] += 1

    def move(v: int, c: int) -> None:
        old, color[v] = color[v], c
        for u in adjacency[v]:
            row = gamma[u]
            row[old] -= 1
            row[c] += 1

    for v in range(g.n):
        if color[v] > k:
            move(v, min(range(1, k + 1), key=gamma[v].__getitem__))

    conflicts = sum(gamma[v][color[v]] for v in range(g.n)) // 2
    best = conflicts
    tabu = [[0] * (k + 1) for _ in range(g.n)]
    for step in range(TABUCOL_ITERATIONS):
        if not conflicts:
            break
        conflicting = [v for v in range(g.n) if gamma[v][color[v]]]
        best_delta, moves = g.n, []
        for v in conflicting:
            row, barred, own = gamma[v], tabu[v], color[v]
            here = row[own]
            for c in range(1, k + 1):
                delta = row[c] - here
                if (c == own or delta > best_delta
                        or (barred[c] > step and conflicts + delta >= best)):
                    continue
                if delta < best_delta:
                    best_delta, moves = delta, []
                moves.append((v, c))
        if not moves:
            continue
        v, c = rng.choice(moves)
        tabu[v][color[v]] = (step + rng.randrange(TABU_TENURE_SPREAD)
                             + int(TABU_TENURE_PER_CONFLICT * len(conflicting)))
        move(v, c)
        conflicts += best_delta
        best = min(best, conflicts)
    return None if conflicts else Coloring(tuple(color))


def _check_clique(g: Graph, clique) -> None:
    members = tuple(clique)
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            if v not in g.adjacency[u]:
                raise NotACliqueError(f"vertices {u} and {v} are not adjacent")


def splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64's output function (Steele, Lea and Flood, 2014) on each
    state in the `uint64` array `x`, with wrapping arithmetic: a generator
    that starts at state 0 gives splitmix64(gamma), splitmix64(2*gamma), ..."""
    z = (x ^ (x >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def _grow_cliques(adj: np.ndarray, key: np.ndarray, trials: range) -> np.ndarray:
    """One randomized maximal clique per trial, grown side by side.

    Row i of the result marks the members of the clique that trial
    t = `trials[i]` grows: step s draws z = splitmix64(key + gamma*(t*n + s))
    and, with c candidates left, takes the floor((z >> 32) * c / 2**32)-th in
    ascending order; the candidates are all n vertices at step 0, then the
    vertices adjacent to every member so far, until none is left. A clique
    has at most n members, so no two (t, s) share a draw, and a trial's
    clique depends on no other trial.
    """
    b, n = len(trials), adj.shape[0]
    narrow = np.min_scalar_type(n)  # the rank of a candidate never exceeds n
    members = np.zeros((b, n), dtype=bool)
    # Per growing trial: its row, candidates, their count and its next state.
    ids = np.arange(b)
    candidates = np.ones((b, n), dtype=bool)
    count = np.full(b, n, dtype=np.uint64)
    state = key + SPLITMIX64_GAMMA * (np.arange(trials.start, trials.stop, dtype=np.uint64)
                                      * np.uint64(n))
    while ids.size:
        pick = ((splitmix64(state) >> 32) * count >> 32).astype(narrow)
        v = np.argmax(np.cumsum(candidates, axis=1, dtype=narrow) > pick[:, None], axis=1)
        members[ids, v] = True
        candidates &= adj[v]
        count = candidates.sum(axis=1, dtype=np.uint64)
        state += SPLITMIX64_GAMMA
        growing = count > 0
        if not growing.all():
            ids, candidates, count = ids[growing], candidates[growing], count[growing]
            state = state[growing]
    return members


def find_clique(g: Graph, upper_bound: int, mode: str, seed: int,
                time_budget: float = DEFAULT_CLIQUE_TIME_BUDGET,
                trials: int | None = None) -> tuple[int, ...]:
    """Best clique over randomized trials.

    Runs ceil(300 * |E| / |V|) trials (at least one). Every draw comes from
    one SplitMix64 stream keyed by key = splitmix64(seed mod 2**64), so seed
    and seed + 2**64 give the same search: trial t takes its start vertex
    from draw (t, 0) and then, at step s, one of the candidates (vertices
    adjacent to every member so far) from draw (t, s), until none is left
    (`_grow_cliques`). Mode 'c' scores a clique Q by |Q|, mode 'e' by
    |Q|*H + |delta(Q)| with H = `upper_bound`, a coloring bound, where
    |delta(Q)| is the members' degree sum minus |Q|(|Q| - 1), since each
    edge inside Q adds 2 to that sum. The first trial with the highest
    score wins.

    Trials run in blocks of `CLIQUE_BLOCK`, grown side by side on an n x n
    adjacency matrix (n^2 bytes); a trial's clique does not depend on its
    block. No clique has more than H members, so the search ends after the
    first block whose best clique has H members: in mode 'c' that is the
    clique the full search returns; in mode 'e' a later block could hold
    another clique of H members with a larger boundary, which the full
    search would return. The search also ends after the first block that
    finishes past `time_budget` seconds: the budget is checked between
    blocks, so it can be overrun by up to one block. Results are
    reproducible whenever the budget does not bind.
    """
    if trials is None:
        trials = max(1, math.ceil(CLIQUE_TRIALS_PER_DENSITY * g.m / g.n)) if g.n else 1
    if trials < 1:
        raise ValueError(f"find_clique needs at least one trial, got {trials}")
    if g.n < 1:
        raise ValueError("graph has no vertices")
    if mode not in ("c", "e"):
        raise ValueError(f"unknown clique objective mode {mode!r}")
    adj = np.zeros((g.n, g.n), dtype=bool)
    if g.m:
        u, v = np.array(g.edges).T
        adj[u, v] = adj[v, u] = True
    degree = adj.sum(axis=1)
    key = splitmix64(np.array([seed % 2**64], dtype=np.uint64))
    deadline = time.monotonic() + time_budget
    best, best_score = None, -1
    for first in range(0, trials, CLIQUE_BLOCK):
        if best is not None and (len(best) >= upper_bound or time.monotonic() > deadline):
            break
        members = _grow_cliques(adj, key, range(first, min(first + CLIQUE_BLOCK, trials)))
        k = members.sum(axis=1)
        score = k if mode == "c" else k * upper_bound + members @ degree - k * (k - 1)
        i = int(np.argmax(score))
        if score[i] > best_score:
            best, best_score = np.flatnonzero(members[i]), score[i]
    found = tuple(int(v) for v in best)
    _check_clique(g, found)
    return found


def preprocess_pipeline(g: Graph, mode: str = "e", seed: int = 0,
                        clique_time_budget: float = DEFAULT_CLIQUE_TIME_BUDGET) -> PreprocessedInstance:
    """Full reduction: dominance removal, upper bound, clique search, early exit.

    The DSATUR bound H scores the clique search, which stops after the first
    block of trials whose best clique has H members: no clique can be
    larger, and that clique settles the instance (in mode 'e' it may be a
    different clique of H members, with a different anchor, from the one a
    full search would pick). TabuCol then tries k = H - 1
    down to the clique size, each from the best coloring so far, on the
    stream `random.Random(f"tabucol:{seed}")`, and stops at the first k it
    cannot reach; `upper_bound` and `greedy_coloring` are the best coloring
    found.

    The anchor vertex is the clique member with the largest degree in the
    reduced graph (ties to the smallest id); it is the vertex the
    partial-ordering models pin to the largest used color.
    """
    reduced = remove_dominated(g)
    upper_bound, coloring = greedy_upper_bound(reduced.graph)
    clique = find_clique(reduced.graph, upper_bound, mode, seed, time_budget=clique_time_budget)
    rng = random.Random(f"tabucol:{seed}")
    while upper_bound > len(clique):
        fewer = tabucol(reduced.graph, coloring, upper_bound - 1, rng)
        if fewer is None:
            break
        upper_bound, coloring = fewer.num_colors, fewer
    anchor = max(clique, key=lambda v: (reduced.graph.degree(v), -v))
    return PreprocessedInstance(reduced=reduced, upper_bound=upper_bound,
                                greedy_coloring=coloring, clique=clique, anchor=anchor)
