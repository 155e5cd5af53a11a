"""The five vertex-coloring MILP formulations over a shared model container.

Builders are pure functions of (graph, color bound, anchor vertex) and
return immutable, solver-agnostic models:

  ass-s  assignment variables x_v_i plus color-use variables w_i
  ass    ass-s plus the two symmetry-breaking constraint families on w
  pop    partial-ordering variables y_i_v ("v is above color i"), with the
         below-variables and the top layer eliminated by substitution, so
         only y_i_v for i = 1..H-1 remain; the anchor vertex q is forced to
         the largest used color and the objective is 1 + sum_i y_i_q
  pop2   pop with the edge constraints re-expressed through linked
         assignment variables, halving the edge-block density
  rep    asymmetric representatives: r_u_u, plus r_u_v ("u represents v")
         for every non-adjacent pair with u before v in a fixed vertex
         order, the clique members first (ascending), then the rest by id;
         each color class is represented by its first member in that order

`build_formulation` builds them for a preprocessed instance one color
below its bound H, since preprocessing already holds an H-coloring: the
color-indexed models get H - 1 colors, and `rep` one more row, `colors`,
sum_v r_v_v <= H - 1. An infeasible model then proves chi = H.

Variable names (x_v_i, w_i, y_i_v, r_u_v; vertices 0-based, colors
1-based) are fixed so emitted LP files diff deterministically. Each builder
lays its variables out in a fixed order (vertex-major, then color), so a
column is plain index arithmetic.

The container itself, `MilpModel` with its `RowBlock`s, its errors and its
tolerances, lives in `container`, which `lp` imports without
these builders. Here each constraint family is built with numpy over
edges x colors into one `RowBlock` (and, for `rep`, one per vertex, to keep
the textbook row order).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .container import (INF, VALUE_TOLERANCE, ExtractionError, FixingConflictError, MilpModel,
                        ModelError, RowBlock)
from .graph import Coloring, Graph, boundary_edges

if TYPE_CHECKING:
    from .preprocess import PreprocessedInstance

FORMULATIONS = ("ass-s", "ass", "pop", "pop2", "rep")


@dataclass(frozen=True)
class ModelStats:
    num_vars: int
    num_constraints: int
    num_nonzeros: int


def model_stats(m: MilpModel) -> ModelStats:
    """Exact counts of the stored rows and terms; fixed variables do not
    count as free dimensions."""
    return ModelStats(num_vars=len(m.variables) - len(m.fixings), num_constraints=m.num_rows,
                      num_nonzeros=sum(len(block.cols) for block in m.blocks))


# ---------------------------------------------------------------------------
# variable names and row blocks

def xv(v: int, i: int) -> str:
    return f"x_{v}_{i}"


def wv(i: int) -> str:
    return f"w_{i}"


def yv(i: int, v: int) -> str:
    return f"y_{i}_{v}"


def rv(u: int, v: int) -> str:
    return f"r_{u}_{v}"


def _block(family: str, groups: np.ndarray, template, name: str, *keys: np.ndarray) -> RowBlock:
    """Rows from one template repeated over the rows of `groups` (2-D).

    `template` lists one group's rows as (terms, lo, hi, suffix); a term
    (slot, offset, coefficient) lands in column groups[g, slot] + offset.
    Group g names its rows name.format(*keys[g]) + suffix, on demand.
    """
    terms = [term for row in template for term in row[0]]
    slots = np.array([slot for slot, _, _ in terms], dtype=np.intp)
    offsets = np.array([offset for _, offset, _ in terms], dtype=np.int64)
    widths = np.array([len(row[0]) for row in template], dtype=np.int64)
    count = len(groups)
    indptr = np.zeros(count * len(widths) + 1, dtype=np.int64)
    np.cumsum(np.tile(widths, count), out=indptr[1:])
    suffixes = [suffix for _, _, _, suffix in template]

    def names() -> list[str]:
        prefixes = ([name.format(*key) for key in zip(*(k.tolist() for k in keys))]
                    if keys else [name] * count)
        return [prefix + suffix for prefix in prefixes for suffix in suffixes]

    return RowBlock(
        family=family, indptr=indptr,
        cols=(np.asarray(groups, dtype=np.int64)[:, slots] + offsets).ravel(),
        coefs=np.tile(np.array([coef for _, _, coef in terms], dtype=float), count),
        lo=np.tile(np.array([row[1] for row in template], dtype=float), count),
        hi=np.tile(np.array([row[2] for row in template], dtype=float), count),
        names=names)


def _edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    edges = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    return edges[:, 0], edges[:, 1]


def _meta(g: Graph, upper_bound=None, anchor=None, clique=()):
    return {"graph": g, "upper_bound": upper_bound,
            "anchor": anchor, "clique": tuple(clique)}


def _check_bound(g: Graph, upper_bound: int):
    if upper_bound < 1:
        raise ModelError(f"color bound must be >= 1, got {upper_bound}")
    if g.n < 1:
        raise ModelError("cannot build a model for an empty graph")


def _color_bound(m: MilpModel) -> int:
    H = m.meta.get("upper_bound")
    if not isinstance(H, int):
        raise ModelError(f"{m.kind} model carries no integer color bound")
    return H


# ---------------------------------------------------------------------------
# assignment family: x_v_i in column v*H + i - 1, then w_i in n*H + i - 1

def build_ass_s(g: Graph, upper_bound: int) -> MilpModel:
    """Plain assignment model: exactly H(|V|+1) binary variables."""
    _check_bound(g, upper_bound)
    n, H = g.n, upper_bound
    variables = tuple(xv(v, i) for v in range(n) for i in range(1, H + 1))
    variables += tuple(wv(i) for i in range(1, H + 1))
    vertices = np.arange(n)
    u, v = _edge_arrays(g)
    assign = _block("assign", np.column_stack([vertices * H]),
                    [([(0, i, 1.0) for i in range(H)], 1.0, 1.0, "")], "assign_{}", vertices)
    edge = _block("edge", np.column_stack([u * H, v * H, np.full(len(u), n * H)]),
                  [([(0, i, 1.0), (1, i, 1.0), (2, i, -1.0)], -INF, 0.0, str(i + 1))
                   for i in range(H)], "edge_{}_{}_", u, v)
    objective = tuple((wv(i), 1.0) for i in range(1, H + 1))
    return MilpModel(kind="ass-s", variables=variables, blocks=(assign, edge),
                     objective=objective, offset=0,
                     meta=_meta(g, upper_bound=H), num_binary=len(variables))


def build_ass(g: Graph, upper_bound: int) -> MilpModel:
    """Assignment model with the symmetry-breaking constraints on w."""
    base = build_ass_s(g, upper_bound)
    n, H = g.n, upper_bound
    w = n * H
    use = _block("use", np.zeros((1, 1)),
                 [([(0, w + i, 1.0)] + [(0, v * H + i, -1.0) for v in range(n)], -INF, 0.0,
                   str(i + 1)) for i in range(H)], "use_")
    order = _block("order", np.zeros((1, 1)),
                   [([(0, w + i, 1.0), (0, w + i - 1, -1.0)], -INF, 0.0, str(i + 1))
                    for i in range(1, H)], "order_w_")
    return replace(base, kind="ass", blocks=base.blocks + (use, order))


# ---------------------------------------------------------------------------
# partial-ordering family: y_i_v in column v*(H-1) + i - 1

def _check_anchor(g: Graph, upper_bound: int, anchor: int):
    if not (0 <= anchor < g.n):
        raise ModelError(f"anchor vertex {anchor} not in graph")
    if upper_bound < 2:
        raise ModelError("partial-ordering models need a color bound >= 2 "
                         "(a 1-colorable instance is settled before any build)")


def _pop_edge_block(u: np.ndarray, v: np.ndarray, H: int) -> RowBlock:
    """One row per edge and color i=1..H, after eliminating the below-variables.

    The substitution (below(v,1)=0, below(v,i)=1-y_{i-1,v} for i>=2,
    y_{H,v}=0) turns the 4-coefficient textbook row into:
      i=1:        y_1_u + y_1_v >= 1
      1<i<H:      y_{i-1}_u + y_{i-1}_v - y_i_u - y_i_v <= 1
      i=H:        y_{H-1}_u + y_{H-1}_v <= 1
    """
    K = H - 1
    template = [([(0, 0, 1.0), (1, 0, 1.0)], 1.0, INF, "1")]
    template += [([(0, i - 2, 1.0), (1, i - 2, 1.0), (0, i - 1, -1.0), (1, i - 1, -1.0)],
                  -INF, 1.0, str(i)) for i in range(2, H)]
    template.append(([(0, H - 2, 1.0), (1, H - 2, 1.0)], -INF, 1.0, str(H)))
    return _block("edge", np.column_stack([u * K, v * K]), template, "edge_{}_{}_", u, v)


def _pop_order_block(n: int, H: int) -> RowBlock:
    K = H - 1
    vertices = np.arange(n)
    return _block("order", np.column_stack([vertices * K]),
                  [([(0, i - 1, 1.0), (0, i, -1.0)], 0.0, INF, str(i)) for i in range(1, H - 1)],
                  "order_{}_", vertices)


def _pop_anchor_block(n: int, H: int, anchor: int) -> RowBlock:
    K = H - 1
    others = np.delete(np.arange(n), anchor)
    return _block("anchor", np.column_stack([np.full(len(others), anchor * K), others * K]),
                  [([(0, i, 1.0), (1, i, -1.0)], 0.0, INF, str(i + 1)) for i in range(K)],
                  "anchor_{}_", others)


def build_pop(g: Graph, upper_bound: int, anchor: int) -> MilpModel:
    """Reduced partial-ordering model with (H-1)|V| free variables."""
    _check_bound(g, upper_bound)
    _check_anchor(g, upper_bound, anchor)
    n, H = g.n, upper_bound
    variables = tuple(yv(i, v) for v in range(n) for i in range(1, H))
    u, v = _edge_arrays(g)
    blocks = (_pop_order_block(n, H), _pop_edge_block(u, v, H), _pop_anchor_block(n, H, anchor))
    objective = tuple((yv(i, anchor), 1.0) for i in range(1, H))
    return MilpModel(kind="pop", variables=variables, blocks=blocks,
                     objective=objective, offset=1,
                     meta=_meta(g, upper_bound=H, anchor=anchor), num_binary=len(variables))


def build_pop2(g: Graph, upper_bound: int, anchor: int) -> MilpModel:
    """Hybrid model: pop's ordering plus linked assignment edge constraints.

    x_v_i = y_{i-1}_v - y_i_v (with the conventions y_0 = 1, y_H = 0) ties
    each assignment variable to the ordering variables, so the dimension is
    unchanged while every edge row has only two coefficients. The x_v_i
    follow the y columns, at n*(H-1) + v*H + i - 1.
    """
    _check_bound(g, upper_bound)
    _check_anchor(g, upper_bound, anchor)
    n, H = g.n, upper_bound
    K = H - 1
    variables = tuple(yv(i, v) for v in range(n) for i in range(1, H))
    variables += tuple(xv(v, i) for v in range(n) for i in range(1, H + 1))
    vertices = np.arange(n)
    link_template = [([(0, 0, 1.0), (1, 0, 1.0)], 1.0, 1.0, "1")]
    link_template += [([(0, i - 1, 1.0), (1, i - 2, -1.0), (1, i - 1, 1.0)], 0.0, 0.0, str(i))
                      for i in range(2, H)]
    link_template.append(([(0, H - 1, 1.0), (1, H - 2, -1.0)], 0.0, 0.0, str(H)))
    link = _block("link", np.column_stack([n * K + vertices * H, vertices * K]), link_template,
                  "link_{}_", vertices)
    u, v = _edge_arrays(g)
    edge = _block("edge", np.column_stack([n * K + u * H, n * K + v * H]),
                  [([(0, i, 1.0), (1, i, 1.0)], -INF, 1.0, str(i + 1)) for i in range(H)],
                  "edge_{}_{}_", u, v)
    blocks = (_pop_order_block(n, H), link, edge, _pop_anchor_block(n, H, anchor))
    objective = tuple((yv(i, anchor), 1.0) for i in range(1, H))
    return MilpModel(kind="pop2", variables=variables, blocks=blocks,
                     objective=objective, offset=1,
                     meta=_meta(g, upper_bound=H, anchor=anchor), num_binary=len(variables))


# ---------------------------------------------------------------------------
# representatives: r_u_u in column u, then r_u_v over the non-adjacent pairs
# with u before v in the model's vertex order, u-major by id

def _rep_order(n: int, first=()) -> tuple[int, ...]:
    """The vertices of `first` in ascending id, then every other vertex by id."""
    head = sorted(first)
    if len(set(head)) != len(head) or not all(0 <= v < n for v in head):
        raise ModelError(f"vertices put first must be distinct vertices of the graph, got {head}")
    return tuple(head) + tuple(sorted(set(range(n)) - set(head)))


def _rep_order_of(m: MilpModel) -> tuple[int, ...]:
    order = m.meta.get("order")
    if not isinstance(order, tuple) or sorted(order) != list(range(m.graph.n)):
        raise ModelError(f"{m.kind} model records no vertex order")
    return order


def _rep_columns(g: Graph, order: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The column of r_u_v at [u, v] (-1 where there is none), and the mask
    `later` of the pairs with v a non-neighbour of u that comes after u in
    `order`."""
    n = g.n
    position = np.empty(n, dtype=np.int64)
    position[list(order)] = np.arange(n)
    u, v = _edge_arrays(g)
    later = position[:, None] < position[None, :]
    later[u, v] = later[v, u] = False
    columns = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(columns, np.arange(n))
    columns[later] = n + np.arange(np.count_nonzero(later))
    return columns, later


def build_rep(g: Graph, first=()) -> MilpModel:
    """Asymmetric representatives model; no color bound.

    The vertex order puts `first` (the preprocessing clique) in ascending
    id, then every other vertex by id, and is recorded in `meta["order"]`.
    r_u_v exists only for v a non-neighbour of u that comes later, so a
    color class can be represented only by its first member: one
    representative per class, not one per member. cover_v asks for a
    representative among v's earlier non-neighbours or v itself. A vertex
    cannot represent both endpoints of an edge among its later
    non-neighbours (conflict rows), and a corrective family r_u_v <= r_u_u
    covers each later non-neighbour v that no conflict row of u touches:
    without it v could join u's class while r_u_u, the class's cost, is 0.
    The clique fixings r_q_q = 1 are valid only because the clique comes
    first: each class then holds at most one clique member, and it is the
    class's first member. The conflict rows and then the isolated rows of
    one representative u sit together, u by u, so those two families come
    in blocks per vertex.
    """
    if g.n < 1:
        raise ModelError("cannot build a model for an empty graph")
    n = g.n
    order = _rep_order(n, first)
    columns, later = _rep_columns(g, order)
    pair_u, pair_v = np.nonzero(later)
    variables = tuple(rv(u, u) for u in range(n))
    variables += tuple(rv(u, v) for u, v in zip(pair_u.tolist(), pair_v.tolist()))

    # cover_v: r_u_v over v's earlier non-neighbours u, ascending, then r_v_v
    cover_v, cover_u = np.nonzero(later.T)
    owner = np.concatenate([cover_v, np.arange(n)])
    rows_by_owner = np.argsort(owner, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=indptr[1:])
    blocks = [RowBlock("cover", indptr=indptr,
                       cols=np.concatenate([columns[cover_u, cover_v],
                                            np.arange(n)])[rows_by_owner],
                       coefs=np.ones(len(owner)), lo=np.ones(n), hi=np.full(n, INF),
                       names=lambda: [f"cover_{v}" for v in range(n)])]

    eu, ev = _edge_arrays(g)
    conflict_u, conflict_e = np.nonzero(later[:, eu] & later[:, ev])
    a, b = eu[conflict_e], ev[conflict_e]
    touched = np.zeros((n, n), dtype=bool)
    touched[conflict_u, a] = touched[conflict_u, b] = True
    isolated_u, isolated_v = np.nonzero(later & ~touched)
    conflict_at = np.searchsorted(conflict_u, np.arange(n + 1))
    isolated_at = np.searchsorted(isolated_u, np.arange(n + 1))
    for u in range(n):
        rows = slice(conflict_at[u], conflict_at[u + 1])
        owners = np.full(rows.stop - rows.start, u)
        if len(owners):
            blocks.append(_block(
                "conflict", np.column_stack([columns[u, a[rows]], columns[u, b[rows]], owners]),
                [([(0, 0, 1.0), (1, 0, 1.0), (2, 0, -1.0)], -INF, 0.0, "")],
                "conflict_{}_{}_{}", owners, a[rows], b[rows]))
        rows = slice(isolated_at[u], isolated_at[u + 1])
        owners = np.full(rows.stop - rows.start, u)
        if len(owners):
            blocks.append(_block(
                "isolated", np.column_stack([columns[u, isolated_v[rows]], owners]),
                [([(0, 0, 1.0), (1, 0, -1.0)], -INF, 0.0, "")],
                "isolated_{}_{}", owners, isolated_v[rows]))
    objective = tuple((rv(u, u), 1.0) for u in range(n))
    return MilpModel(kind="rep", variables=variables, blocks=tuple(blocks),
                     objective=objective, offset=0,
                     meta={**_meta(g), "order": order}, num_binary=len(variables))


# ---------------------------------------------------------------------------
# instance-level dispatch and clique fixings

def build_formulation(kind: str, inst: PreprocessedInstance) -> MilpModel:
    """Build one formulation for a preprocessed instance (no fixings yet),
    one color below the preprocessing bound H.

    Preprocessing already holds an H-coloring, so the model only has to find
    an (H - 1)-coloring or prove that none exists: `ass-s`, `ass`, `pop` and
    `pop2` get H - 1 colors, and `rep` gets one more row, `colors`:
    sum_v r_v_v <= H - 1. This is the one place the color bound is set, and
    `meta["upper_bound"]` records it (H - 1) for every kind. A settled
    instance (clique of H vertices) has no such coloring, so it raises
    ModelError.
    """
    if inst.solved_in_preprocessing:
        raise ModelError(f"instance is settled in preprocessing (clique of H = "
                         f"{inst.upper_bound} vertices): it has no {inst.upper_bound - 1}-coloring")
    g = inst.reduced.graph
    colors = inst.upper_bound - 1
    if kind == "ass-s":
        model = build_ass_s(g, colors)
    elif kind == "ass":
        model = build_ass(g, colors)
    elif kind == "pop":
        model = build_pop(g, colors, inst.anchor)
    elif kind == "pop2":
        model = build_pop2(g, colors, inst.anchor)
    elif kind == "rep":
        model = build_rep(g, first=inst.clique)
        row = _block("colors", np.zeros((1, 1)),
                     [([(0, v, 1.0) for v in range(g.n)], -INF, float(colors), "")], "colors")
        model = replace(model, blocks=model.blocks + (row,))
    else:
        raise ModelError(f"unknown formulation {kind!r}")
    meta = dict(model.meta)
    meta["upper_bound"] = colors
    meta["anchor"] = inst.anchor
    meta["clique"] = tuple(inst.clique)
    return replace(model, meta=meta)


def _add_fixing(bounds: dict[str, tuple[float, float]], name: str, value: int):
    if bounds.setdefault(name, (value, value)) != (value, value):
        raise FixingConflictError(f"{name} bounded to {bounds[name]}, cannot fix it to {value}")


def apply_clique_fixings(m: MilpModel, inst: PreprocessedInstance) -> MilpModel:
    """Precolor the clique and propagate along its boundary edges.

    Clique members other than the anchor take colors 1..|Q|-1 in ascending
    vertex order. In the assignment family the anchor is additionally pinned
    to color |Q| (valid by color permutation); in the partial-ordering
    family the anchor is instead pushed above colors 1..|Q|-1, which its
    maximality constraints already imply. Every boundary edge (u,v) with u
    precolored k forbids color k on v: a variable fixing where the model has
    that variable, the substituted equality y_{k-1}_v = y_k_v (a `boundary`
    block) in the pure partial-ordering model. A fixing is the bound (v, v)
    in `bounds`. Both families need |Q| <= H, the model's color bound (H - 1
    of the instance, from `build_formulation`), else ModelError.

    The returned model's rows are settled (`_settle_rows`): fixed columns
    appear in no row, their activity moved into the row bounds, and a row
    the column bounds already satisfy is dropped, as is a block left empty.
    A row the fixings violate raises FixingConflictError naming it. The
    columns, `bounds`, objective and offset are those of the model with its
    rows whole, and so is the feasible set, of the integer model and of its
    LP relaxation.
    """
    g = m.graph
    clique = tuple(inst.clique)
    anchor = inst.anchor
    if anchor not in clique:
        raise ModelError("anchor vertex is not in the clique")
    others = tuple(v for v in sorted(clique) if v != anchor)
    precolor = {u: k for k, u in enumerate(others, start=1)}
    bounds = dict(m.bounds)
    blocks = m.blocks

    if m.kind in ("ass-s", "ass", "pop", "pop2"):
        H = _color_bound(m)
        if len(clique) > H:
            raise ModelError(f"clique of {len(clique)} vertices exceeds color bound H = {H}")
    if m.kind in ("ass-s", "ass"):
        assignments = dict(precolor)
        assignments[anchor] = len(clique)
        for u, k in assignments.items():
            for i in range(1, H + 1):
                _add_fixing(bounds, xv(u, i), 1 if i == k else 0)
        for k in range(1, len(clique)):
            _add_fixing(bounds, wv(k), 1)
        for (a, b) in boundary_edges(g, clique):
            u, v = (a, b) if a in assignments else (b, a)
            _add_fixing(bounds, xv(v, assignments[u]), 0)
    elif m.kind in ("pop", "pop2"):
        for u, k in precolor.items():
            for i in range(1, H):
                _add_fixing(bounds, yv(i, u), 1 if i < k else 0)
        for i in range(1, len(clique)):
            _add_fixing(bounds, yv(i, anchor), 1)
        boundary = []  # (precolored u, its color k, neighbour v)
        for (a, b) in boundary_edges(g, clique):
            if a in precolor or b in precolor:
                u, v = (a, b) if a in precolor else (b, a)
                k = precolor[u]
                if m.kind == "pop2":
                    _add_fixing(bounds, xv(v, k), 0)
                elif k == 1:
                    _add_fixing(bounds, yv(1, v), 1)
                else:
                    boundary.append((u, k, v))
        if boundary:
            us, ks, vs = np.array(boundary, dtype=np.int64).T
            blocks += (_block("boundary", np.column_stack([vs * (H - 1) + ks - 2]),
                              [([(0, 0, 1.0), (0, 1, -1.0)], 0.0, 0.0, "")],
                              "boundary_{}_{}", us, vs),)
    elif m.kind == "rep":
        if set(_rep_order_of(m)[:len(clique)]) != set(clique):
            raise ModelError(f"rep model's vertex order does not start with the clique "
                             f"{sorted(clique)}, so r_q_q = 1 could cut off every optimum")
        for u in clique:
            _add_fixing(bounds, rv(u, u), 1)
    else:
        raise ModelError(f"unknown formulation {m.kind!r}")

    return replace(m, blocks=_settle_rows(blocks, m.columns, bounds), bounds=bounds)


def _kept_names(names, kept: list[int]):
    def picked() -> list[str]:
        every = names()
        return [every[r] for r in kept]
    return picked


def _settle_rows(blocks: tuple[RowBlock, ...], columns: Mapping[str, int],
                 bounds: Mapping[str, tuple[float, float]]) -> tuple[RowBlock, ...]:
    """The row blocks of an all-binary model with its fixed columns taken out.

    Each row's activity over its fixed columns moves into its bounds. A row
    whose remaining terms stay within those bounds for every value of the
    free columns in [0, 1] holds everywhere in the column bounds and is
    dropped, and so is a block left with no row. A kept row keeps only its
    free terms; one with none left is violated by the fixings, so it raises
    FixingConflictError. Both the integer model and its LP relaxation keep
    their feasible sets.
    """
    value = np.zeros(len(columns))
    fixed = np.zeros(len(columns), dtype=bool)
    for name, (lo, hi) in bounds.items():
        if lo == hi:
            value[columns[name]], fixed[columns[name]] = lo, True
    settled = []
    for block in blocks:
        count = len(block)
        rows = np.repeat(np.arange(count), np.diff(block.indptr))
        pinned = fixed[block.cols]
        free = np.where(pinned, 0.0, block.coefs)
        shift = np.bincount(rows, weights=np.where(pinned, block.coefs * value[block.cols], 0.0),
                            minlength=count)
        lo, hi = block.lo - shift, block.hi - shift
        keep = ((np.bincount(rows, weights=np.minimum(free, 0.0), minlength=count) < lo)
                | (np.bincount(rows, weights=np.maximum(free, 0.0), minlength=count) > hi))
        if keep.all() and not pinned.any():
            settled.append(block)
            continue
        widths = np.bincount(rows[~pinned], minlength=count)
        violated = np.flatnonzero(keep & (widths == 0))
        if len(violated):
            raise FixingConflictError(f"the clique fixings violate row "
                                      f"{block.names()[violated[0]]}")
        if not keep.any():
            continue
        terms = keep[rows] & ~pinned
        indptr = np.zeros(np.count_nonzero(keep) + 1, dtype=np.int64)
        np.cumsum(widths[keep], out=indptr[1:])
        settled.append(RowBlock(block.family, indptr=indptr, cols=block.cols[terms],
                                coefs=block.coefs[terms], lo=lo[keep], hi=hi[keep],
                                names=_kept_names(block.names, np.flatnonzero(keep).tolist())))
    return tuple(settled)


# ---------------------------------------------------------------------------
# solution decoding and encoding

def binary_value(name: str, raw: float) -> int:
    """Round a solver value to 0 or 1 within VALUE_TOLERANCE, or raise
    ExtractionError naming the variable."""
    if abs(raw) <= VALUE_TOLERANCE:
        return 0
    if abs(raw - 1.0) <= VALUE_TOLERANCE:
        return 1
    raise ExtractionError(f"variable {name} has non-binary value {raw}")


def column_values(m: MilpModel, values: Mapping[str, float]) -> list[float]:
    """Every column's value in column order: the solver's, else the
    column's fixing, else 0."""
    fixings = m.fixings
    return [float(values[name]) if name in values else float(fixings.get(name, 0))
            for name in m.variables]


def extract_coloring(m: MilpModel, values: Mapping[str, float]) -> Coloring:
    """Decode solver values into a coloring of the model's graph.

    Assignment family: the unique i with x_v_i = 1. Partial-ordering family:
    the unique step of the monotone chain, y_{i-1}_v = 1 and y_i_v = 0 under
    the conventions y_0 = 1, y_H = 0. Representatives: each vertex goes to
    its smallest-id representative, classes numbered by representative id.
    """
    g = m.graph
    val = [binary_value(name, raw) for name, raw in zip(m.variables, column_values(m, values))]
    colors: list[int] = []
    if m.kind in ("ass-s", "ass"):
        H = _color_bound(m)
        for v in range(g.n):
            chosen = [i for i, bit in enumerate(val[v * H:(v + 1) * H], start=1) if bit == 1]
            if len(chosen) != 1:
                raise ExtractionError(f"vertex {v} has {len(chosen)} assigned colors")
            colors.append(chosen[0])
    elif m.kind in ("pop", "pop2"):
        H = _color_bound(m)
        K = H - 1
        for v in range(g.n):
            chain = [1] + val[v * K:(v + 1) * K] + [0]
            steps = [i for i in range(1, H + 1) if chain[i - 1] == 1 and chain[i] == 0]
            if len(steps) != 1:
                raise ExtractionError(f"vertex {v} has an ambiguous ordering chain {chain}")
            colors.append(steps[0])
    elif m.kind == "rep":
        columns = _rep_columns(g, _rep_order_of(m))[0].T.tolist()  # columns[v][u]: r_u_v
        rep_of = []
        for v in range(g.n):
            cands = [u for u, j in enumerate(columns[v]) if j >= 0 and val[j] == 1]
            if not cands:
                raise ExtractionError(f"vertex {v} has no representative")
            rep_of.append(cands[0])
        palette = {u: i for i, u in enumerate(sorted(set(rep_of)), start=1)}
        colors = [palette[u] for u in rep_of]
    else:
        raise ModelError(f"unknown formulation {m.kind!r}")
    return Coloring(tuple(colors))


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


def objective_value(m: MilpModel, values: Mapping[str, float], with_offset: bool = True) -> float:
    x = column_values(m, values)
    total = sum(coef * x[m.columns[name]] for name, coef in m.objective)
    return total + (m.offset if with_offset else 0)


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
