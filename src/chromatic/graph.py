"""Simple undirected graphs: DIMACS I/O, random generation, coloring checks.

Vertices are 0-based internally. DIMACS .col files are 1-based; the
translation happens only at the I/O boundary. Edge lists are kept in
canonical order (u < v, sorted) so everything built on top of a graph is
deterministic.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence


class DimacsError(ValueError):
    """Raised on malformed DIMACS input, with the offending line number."""


class ColoringError(ValueError):
    """Raised when a coloring is partial or does not fit the graph."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    `edges` is canonical: each pair has u < v and the tuple is sorted.
    Instances are safe to share across threads; use `Graph.from_edges`
    instead of the raw constructor so the invariants actually hold.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[frozenset[int], ...] = field(compare=False, repr=False)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        canon = set()
        for (u, v) in edges:
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            canon.add((u, v) if u < v else (v, u))
        adj = [set() for _ in range(n)]
        for (u, v) in canon:
            adj[u].add(v)
            adj[v].add(u)
        return cls(n=n, edges=tuple(sorted(canon)),
                   adjacency=tuple(frozenset(s) for s in adj))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


@dataclass(frozen=True)
class Coloring:
    """Total vertex coloring; colors[v] is a 1-based color index."""

    colors: tuple[int, ...]

    def __post_init__(self):
        for v, c in enumerate(self.colors):
            if not isinstance(c, int) or c < 1:
                raise ColoringError(f"vertex {v} has invalid color {c!r}")

    @property
    def num_colors(self) -> int:
        return len(set(self.colors))


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    violating_edges: tuple[tuple[int, int], ...]
    colors_used: int


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS .col character stream into a Graph.

    Accepts `c` comment lines, exactly one `p edge n m` (or `p col n m`)
    problem line and `e u v` edge lines with 1-based vertex ids. Duplicate
    and reversed edge records collapse to one undirected edge; the number
    of edge records must match the declared m. Self-loops and a problem
    line that declares no vertices are rejected.
    """
    n = None
    declared_m = 0
    records = 0
    raw_edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        tokens = stripped.split()
        kind = tokens[0]
        if kind == "p":
            if n is not None:
                raise DimacsError(f"line {lineno}: duplicate problem line")
            if len(tokens) != 4 or tokens[1] not in ("edge", "edges", "col"):
                raise DimacsError(f"line {lineno}: malformed problem line {stripped!r}")
            try:
                n = int(tokens[2])
                declared_m = int(tokens[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: malformed problem line {stripped!r}") from None
            if n < 0 or declared_m < 0:
                raise DimacsError(f"line {lineno}: negative counts in problem line")
            if n == 0:
                raise DimacsError(f"line {lineno}: problem line declares no vertices")
        elif kind == "e":
            if n is None:
                raise DimacsError(f"line {lineno}: edge before problem line")
            if len(tokens) != 3:
                raise DimacsError(f"line {lineno}: malformed edge line {stripped!r}")
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise DimacsError(f"line {lineno}: malformed edge line {stripped!r}") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsError(f"line {lineno}: vertex id out of range [1,{n}]")
            if u == v:
                raise DimacsError(f"line {lineno}: self-loop e {u} {v}")
            records += 1
            raw_edges.append((u - 1, v - 1))
        else:
            raise DimacsError(f"line {lineno}: unrecognized line {stripped!r}")

    if n is None:
        raise DimacsError("missing problem line `p edge n m`")
    if records != declared_m:
        raise DimacsError(f"declared {declared_m} edges but found {records} edge records")
    return Graph.from_edges(n, raw_edges)


def write_dimacs(g: Graph, comments: Sequence[str] = ()) -> str:
    """Serialize a Graph to DIMACS .col text (1-based ids, canonical order)."""
    out = [f"c {c}" for c in comments]
    out.append(f"p edge {g.n} {g.m}")
    out.extend(f"e {u + 1} {v + 1}" for (u, v) in g.edges)
    return "\n".join(out) + "\n"


def gnp_random(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n,p): each of the n(n-1)/2 pairs kept with probability p.

    Deterministic and portable: the generator is Python's Mersenne Twister
    (`random.Random`) seeded with the string "gnp:<n>:<p>:<seed>", and pairs
    are drawn in canonical (u < v) order.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0,1], got {p}")
    rng = random.Random(f"gnp:{n}:{p!r}:{seed}")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def boundary_edges(g: Graph, clique) -> tuple[tuple[int, int], ...]:
    """delta(Q): edges with exactly one endpoint inside the clique."""
    q = set(clique)
    return tuple(e for e in g.edges if (e[0] in q) != (e[1] in q))


def verify_coloring(g: Graph, c: Coloring) -> VerifyReport:
    """Check a total coloring against every edge of g.

    Raises ColoringError for a coloring that does not cover exactly the
    vertices of g; an improper coloring is a *report*, not an error.
    """
    if len(c.colors) != g.n:
        raise ColoringError(f"coloring covers {len(c.colors)} vertices, graph has {g.n}")
    bad = tuple((u, v) for (u, v) in g.edges if c.colors[u] == c.colors[v])
    return VerifyReport(valid=not bad, violating_edges=bad, colors_used=c.num_colors)
