"""Instance reduction and bounds ahead of any MILP build.

The pipeline: (a) remove dominated vertices to a fixed point, (b) DSATUR
upper bound H on the reduced graph, (c)/(e) randomized maximal-clique search
scored either by clique size or by the fixing-count objective
|Q|*H + |delta(Q)|, then a TabuCol descent that lowers the upper bound one
color at a time towards |Q|, (d) early exit when the clique size meets the
upper bound. A dominance restore stack maps any coloring of the reduced graph
back to the original one without new colors.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from .graph import Coloring, ColoringError, Graph, verify_coloring

DEFAULT_CLIQUE_TIME_BUDGET = 60.0
CLIQUE_TRIALS_PER_DENSITY = 300
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
            if u not in alive:
                continue
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


def _grow_clique(adjacency, rng: random.Random) -> list[int]:
    """One randomized maximal clique, members in the order they were drawn.

    Draws `randrange(n)` for the start vertex, then `choice` over the
    ascending list of vertices adjacent to every member so far, until that
    list is empty. Filtering the list keeps it ascending, so every draw sees
    the candidates in sorted order.
    """
    start = rng.randrange(len(adjacency))
    clique = [start]
    candidates = sorted(adjacency[start])
    while candidates:
        v = rng.choice(candidates)
        clique.append(v)
        neighbours = adjacency[v]
        candidates = [u for u in candidates if u in neighbours]
    return clique


def random_maximal_clique(g: Graph, seed: int | random.Random) -> tuple[int, ...]:
    """Grow a uniformly random maximal clique.

    Equivalent to taking a random maximal independent set of the complement
    graph, but built directly: start from a random vertex and repeatedly add
    a random vertex adjacent to everything picked so far.
    """
    if g.n < 1:
        raise ValueError("graph has no vertices")
    rng = seed if isinstance(seed, random.Random) else random.Random(f"clique:{seed}")
    return tuple(sorted(_grow_clique(g.adjacency, rng)))


def _check_clique(g: Graph, clique) -> None:
    members = tuple(clique)
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            if v not in g.adjacency[u]:
                raise NotACliqueError(f"vertices {u} and {v} are not adjacent")


def boundary_edges(g: Graph, clique) -> tuple[tuple[int, int], ...]:
    """delta(Q): edges with exactly one endpoint inside the clique."""
    q = set(clique)
    return tuple(e for e in g.edges if (e[0] in q) != (e[1] in q))


def clique_objective(g: Graph, clique, upper_bound: int, mode: str) -> int:
    """Score a clique: mode 'c' is its size, mode 'e' is |Q|*H + |delta(Q)|."""
    _check_clique(g, clique)
    if mode == "c":
        return len(tuple(clique))
    if mode == "e":
        return len(tuple(clique)) * upper_bound + len(boundary_edges(g, clique))
    raise ValueError(f"unknown clique objective mode {mode!r}")


def find_clique(g: Graph, upper_bound: int, mode: str, seed: int,
                time_budget: float = DEFAULT_CLIQUE_TIME_BUDGET,
                trials: int | None = None) -> tuple[int, ...]:
    """Best clique over randomized trials, scored as `clique_objective` does.

    Runs ceil(300 * |E| / |V|) trials (at least one) or until the wall-time
    budget runs out, whichever comes first. Trial t draws from its own
    stream `random.Random(f"clique:{seed}:{t}")`: `randrange(n)` for the
    start vertex, then `choice` over the ascending list of candidates
    (vertices adjacent to every member so far) until none is left. So
    results are reproducible whenever the time budget is not the binding
    constraint. The first trial with the highest score wins. Mode 'e'
    counts |delta(Q)| as the members' degree sum minus |Q|(|Q| - 1), since
    each edge inside Q adds 2 to that sum.
    """
    if trials is None:
        trials = max(1, math.ceil(CLIQUE_TRIALS_PER_DENSITY * g.m / g.n)) if g.n else 1
    if trials < 1:
        raise ValueError(f"find_clique needs at least one trial, got {trials}")
    if g.n < 1:
        raise ValueError("graph has no vertices")
    if mode not in ("c", "e"):
        raise ValueError(f"unknown clique objective mode {mode!r}")
    adjacency = g.adjacency
    degree = [len(neighbours) for neighbours in adjacency]
    deadline = time.monotonic() + time_budget
    best: list[int] = []
    best_score = -1
    for t in range(trials):
        if best and time.monotonic() > deadline:
            break
        clique = _grow_clique(adjacency, random.Random(f"clique:{seed}:{t}"))
        k = len(clique)
        if mode == "c":
            score = k
        else:
            score = k * upper_bound + sum(degree[v] for v in clique) - k * (k - 1)
        if score > best_score:
            best, best_score = clique, score
    found = tuple(sorted(best))
    _check_clique(g, found)
    return found


def preprocess_pipeline(g: Graph, mode: str = "e", seed: int = 0,
                        clique_time_budget: float = DEFAULT_CLIQUE_TIME_BUDGET) -> PreprocessedInstance:
    """Full reduction: dominance removal, upper bound, clique search, early exit.

    The DSATUR bound H scores the clique search. TabuCol then tries k = H - 1
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
