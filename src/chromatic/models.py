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
  rep    representatives variables r_u_v ("u represents v") on non-adjacent
         ordered pairs plus r_u_u

Variable names (x_v_i, w_i, y_i_v, r_u_v; vertices 0-based, colors
1-based) are fixed so emitted LP files diff deterministically.

Each constraint carries its family tag (`block`) and the coefficient count
of the family's textbook form (`dense_nnz`). The latter exists because the
partial-ordering substitution drops eliminated variables from the stored
terms, while density comparisons between formulations are conventionally
made on the un-eliminated forms (4 coefficients per pop edge row, 3 per
pop2 linking row, 2 per pop2 edge row).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from .graph import Coloring, Graph
from .preprocess import PreprocessedInstance, boundary_edges

FORMULATIONS = ("ass-s", "ass", "pop", "pop2", "rep")

VALUE_TOLERANCE = 1e-6


class ModelError(ValueError):
    pass


class FixingConflictError(ModelError):
    """A variable would be fixed to two different values."""


class ExtractionError(ModelError):
    """Solver values do not decode to a coloring (corrupt or non-integral)."""


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[str, float], ...]
    sense: str  # "<=", "=" or ">="
    rhs: float
    block: str
    dense_nnz: int

    def __post_init__(self):
        if self.sense not in ("<=", "=", ">="):
            raise ModelError(f"bad sense {self.sense!r} in constraint {self.name}")


@dataclass(frozen=True)
class MilpModel:
    """Binary minimization model with named variables and constant offset."""

    kind: str
    variables: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    objective: tuple[tuple[str, float], ...]
    offset: int
    fixings: Mapping[str, int]
    meta: Mapping[str, object]

    def __post_init__(self):
        declared = set(self.variables)
        if len(declared) != len(self.variables):
            raise ModelError("duplicate variable names")
        for con in self.constraints:
            for name, _ in con.terms:
                if name not in declared:
                    raise ModelError(f"constraint {con.name} references unknown {name}")
        for name, _ in self.objective:
            if name not in declared:
                raise ModelError(f"objective references unknown {name}")
        for name, val in self.fixings.items():
            if name not in declared:
                raise ModelError(f"fixing references unknown {name}")
            if val not in (0, 1):
                raise ModelError(f"fixing {name}={val} is not binary")

    @property
    def graph(self) -> Graph:
        return self.meta["graph"]  # type: ignore[return-value]

    def nnz(self, block: str | None = None, dense: bool = False) -> int:
        """Coefficient count, optionally restricted to one constraint block.

        With dense=True, counts the textbook form of each row instead of the
        stored (post-substitution) terms.
        """
        total = 0
        for con in self.constraints:
            if block is not None and con.block != block:
                continue
            total += con.dense_nnz if dense else len(con.terms)
        return total


@dataclass(frozen=True)
class ModelStats:
    num_vars: int
    num_constraints: int
    num_nonzeros: int


def model_stats(m: MilpModel) -> ModelStats:
    """Exact counts; fixed variables do not count as free dimensions.

    For the representatives model the variable count is reported over
    unordered non-adjacent pairs (|non-edges| + |V|), the convention used
    when comparing model sizes, even though the container keeps one directed
    variable per orientation.
    """
    base = m.meta.get("reported_vars")
    num_vars = (base if isinstance(base, int) else len(m.variables)) - len(m.fixings)
    return ModelStats(num_vars=num_vars,
                      num_constraints=len(m.constraints),
                      num_nonzeros=m.nnz())


# ---------------------------------------------------------------------------
# variable names

def xv(v: int, i: int) -> str:
    return f"x_{v}_{i}"


def wv(i: int) -> str:
    return f"w_{i}"


def yv(i: int, v: int) -> str:
    return f"y_{i}_{v}"


def rv(u: int, v: int) -> str:
    return f"r_{u}_{v}"


def _meta(g: Graph, upper_bound=None, anchor=None, clique=(), reported_vars=None):
    meta = {"graph": g, "n": g.n, "upper_bound": upper_bound,
            "anchor": anchor, "clique": tuple(clique)}
    if reported_vars is not None:
        meta["reported_vars"] = reported_vars
    return meta


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
# assignment family

def build_ass_s(g: Graph, upper_bound: int) -> MilpModel:
    """Plain assignment model: exactly H(|V|+1) binary variables."""
    _check_bound(g, upper_bound)
    H = upper_bound
    variables = [xv(v, i) for v in range(g.n) for i in range(1, H + 1)]
    variables += [wv(i) for i in range(1, H + 1)]
    cons: list[Constraint] = []
    for v in range(g.n):
        cons.append(Constraint(
            name=f"assign_{v}",
            terms=tuple((xv(v, i), 1.0) for i in range(1, H + 1)),
            sense="=", rhs=1.0, block="assign", dense_nnz=H))
    for (u, v) in g.edges:
        for i in range(1, H + 1):
            cons.append(Constraint(
                name=f"edge_{u}_{v}_{i}",
                terms=((xv(u, i), 1.0), (xv(v, i), 1.0), (wv(i), -1.0)),
                sense="<=", rhs=0.0, block="edge", dense_nnz=3))
    objective = tuple((wv(i), 1.0) for i in range(1, H + 1))
    return MilpModel(kind="ass-s", variables=tuple(variables), constraints=tuple(cons),
                     objective=objective, offset=0, fixings={},
                     meta=_meta(g, upper_bound=H))


def build_ass(g: Graph, upper_bound: int) -> MilpModel:
    """Assignment model with the symmetry-breaking constraints on w."""
    base = build_ass_s(g, upper_bound)
    H = upper_bound
    cons = list(base.constraints)
    for i in range(1, H + 1):
        terms = [(wv(i), 1.0)] + [(xv(v, i), -1.0) for v in range(g.n)]
        cons.append(Constraint(name=f"use_{i}", terms=tuple(terms),
                               sense="<=", rhs=0.0, block="use", dense_nnz=1 + g.n))
    for i in range(2, H + 1):
        cons.append(Constraint(name=f"order_w_{i}",
                               terms=((wv(i), 1.0), (wv(i - 1), -1.0)),
                               sense="<=", rhs=0.0, block="order", dense_nnz=2))
    return replace(base, kind="ass", constraints=tuple(cons))


# ---------------------------------------------------------------------------
# partial-ordering family

def _check_anchor(g: Graph, upper_bound: int, anchor: int):
    if not (0 <= anchor < g.n):
        raise ModelError(f"anchor vertex {anchor} not in graph")
    if upper_bound < 2:
        raise ModelError("partial-ordering models need a color bound >= 2 "
                         "(a 1-colorable instance is settled before any build)")


def _pop_edge_rows(u: int, v: int, H: int) -> list[Constraint]:
    """One row per color i=1..H, after eliminating the below-variables.

    The substitution (below(v,1)=0, below(v,i)=1-y_{i-1,v} for i>=2,
    y_{H,v}=0) turns the 4-coefficient textbook row into:
      i=1:        y_1_u + y_1_v >= 1
      1<i<H:      y_{i-1}_u + y_{i-1}_v - y_i_u - y_i_v <= 1
      i=H:        y_{H-1}_u + y_{H-1}_v <= 1
    """
    rows = [Constraint(
        name=f"edge_{u}_{v}_1",
        terms=((yv(1, u), 1.0), (yv(1, v), 1.0)),
        sense=">=", rhs=1.0, block="edge", dense_nnz=4)]
    for i in range(2, H):
        rows.append(Constraint(
            name=f"edge_{u}_{v}_{i}",
            terms=((yv(i - 1, u), 1.0), (yv(i - 1, v), 1.0),
                   (yv(i, u), -1.0), (yv(i, v), -1.0)),
            sense="<=", rhs=1.0, block="edge", dense_nnz=4))
    rows.append(Constraint(
        name=f"edge_{u}_{v}_{H}",
        terms=((yv(H - 1, u), 1.0), (yv(H - 1, v), 1.0)),
        sense="<=", rhs=1.0, block="edge", dense_nnz=4))
    return rows


def _pop_order_rows(g: Graph, H: int) -> list[Constraint]:
    return [Constraint(name=f"order_{v}_{i}",
                       terms=((yv(i, v), 1.0), (yv(i + 1, v), -1.0)),
                       sense=">=", rhs=0.0, block="order", dense_nnz=2)
            for v in range(g.n) for i in range(1, H - 1)]


def _pop_anchor_rows(g: Graph, H: int, anchor: int) -> list[Constraint]:
    return [Constraint(name=f"anchor_{v}_{i}",
                       terms=((yv(i, anchor), 1.0), (yv(i, v), -1.0)),
                       sense=">=", rhs=0.0, block="anchor", dense_nnz=2)
            for v in range(g.n) if v != anchor for i in range(1, H)]


def build_pop(g: Graph, upper_bound: int, anchor: int) -> MilpModel:
    """Reduced partial-ordering model with (H-1)|V| free variables."""
    _check_bound(g, upper_bound)
    _check_anchor(g, upper_bound, anchor)
    H = upper_bound
    variables = tuple(yv(i, v) for v in range(g.n) for i in range(1, H))
    cons = _pop_order_rows(g, H)
    for (u, v) in g.edges:
        cons.extend(_pop_edge_rows(u, v, H))
    cons.extend(_pop_anchor_rows(g, H, anchor))
    objective = tuple((yv(i, anchor), 1.0) for i in range(1, H))
    return MilpModel(kind="pop", variables=variables, constraints=tuple(cons),
                     objective=objective, offset=1, fixings={},
                     meta=_meta(g, upper_bound=H, anchor=anchor))


def build_pop2(g: Graph, upper_bound: int, anchor: int) -> MilpModel:
    """Hybrid model: pop's ordering plus linked assignment edge constraints.

    x_v_i = y_{i-1}_v - y_i_v (with the conventions y_0 = 1, y_H = 0) ties
    each assignment variable to the ordering variables, so the dimension is
    unchanged while every edge row has only two coefficients.
    """
    _check_bound(g, upper_bound)
    _check_anchor(g, upper_bound, anchor)
    H = upper_bound
    variables = [yv(i, v) for v in range(g.n) for i in range(1, H)]
    variables += [xv(v, i) for v in range(g.n) for i in range(1, H + 1)]
    cons = _pop_order_rows(g, H)
    for v in range(g.n):
        cons.append(Constraint(
            name=f"link_{v}_1", terms=((xv(v, 1), 1.0), (yv(1, v), 1.0)),
            sense="=", rhs=1.0, block="link", dense_nnz=3))
        for i in range(2, H):
            cons.append(Constraint(
                name=f"link_{v}_{i}",
                terms=((xv(v, i), 1.0), (yv(i - 1, v), -1.0), (yv(i, v), 1.0)),
                sense="=", rhs=0.0, block="link", dense_nnz=3))
        cons.append(Constraint(
            name=f"link_{v}_{H}", terms=((xv(v, H), 1.0), (yv(H - 1, v), -1.0)),
            sense="=", rhs=0.0, block="link", dense_nnz=3))
    for (u, v) in g.edges:
        for i in range(1, H + 1):
            cons.append(Constraint(
                name=f"edge_{u}_{v}_{i}",
                terms=((xv(u, i), 1.0), (xv(v, i), 1.0)),
                sense="<=", rhs=1.0, block="edge", dense_nnz=2))
    cons.extend(_pop_anchor_rows(g, H, anchor))
    objective = tuple((yv(i, anchor), 1.0) for i in range(1, H))
    return MilpModel(kind="pop2", variables=tuple(variables), constraints=tuple(cons),
                     objective=objective, offset=1, fixings={},
                     meta=_meta(g, upper_bound=H, anchor=anchor))


# ---------------------------------------------------------------------------
# representatives

def build_rep(g: Graph) -> MilpModel:
    """Representatives model on directed non-adjacent pairs; no color bound.

    Besides the two textbook families (every vertex needs a representative;
    a vertex cannot represent both endpoints of an edge among its
    non-neighbors), a corrective family r_u_v <= r_u_u is added for every v
    isolated inside G[non-neighbors(u)]: without it, two isolated vertices
    could represent each other and the optimum would drop to 0.
    """
    if g.n < 1:
        raise ModelError("cannot build a model for an empty graph")
    non_nbrs = {u: sorted(g.non_neighbors(u)) for u in range(g.n)}
    variables = [rv(u, u) for u in range(g.n)]
    variables += [rv(u, v) for u in range(g.n) for v in non_nbrs[u]]
    cons: list[Constraint] = []
    for v in range(g.n):
        terms = [(rv(u, v), 1.0) for u in non_nbrs[v]] + [(rv(v, v), 1.0)]
        cons.append(Constraint(name=f"cover_{v}", terms=tuple(terms),
                               sense=">=", rhs=1.0, block="cover",
                               dense_nnz=len(terms)))
    for u in range(g.n):
        inside = set(non_nbrs[u])
        touched = set()
        for (v, w) in g.edges:
            if v in inside and w in inside:
                cons.append(Constraint(
                    name=f"conflict_{u}_{v}_{w}",
                    terms=((rv(u, v), 1.0), (rv(u, w), 1.0), (rv(u, u), -1.0)),
                    sense="<=", rhs=0.0, block="conflict", dense_nnz=3))
                touched.add(v)
                touched.add(w)
        for v in non_nbrs[u]:
            if v not in touched:
                cons.append(Constraint(
                    name=f"isolated_{u}_{v}",
                    terms=((rv(u, v), 1.0), (rv(u, u), -1.0)),
                    sense="<=", rhs=0.0, block="isolated", dense_nnz=2))
    objective = tuple((rv(u, u), 1.0) for u in range(g.n))
    reported = g.n + len(g.non_edges())
    return MilpModel(kind="rep", variables=tuple(variables), constraints=tuple(cons),
                     objective=objective, offset=0, fixings={},
                     meta=_meta(g, reported_vars=reported))


# ---------------------------------------------------------------------------
# instance-level dispatch and clique fixings

def build_formulation(kind: str, inst: PreprocessedInstance,
                      upper_bound: int | None = None) -> MilpModel:
    """Build one formulation for a preprocessed instance (no fixings yet)."""
    g = inst.reduced.graph
    H = inst.upper_bound if upper_bound is None else upper_bound
    if kind == "ass-s":
        model = build_ass_s(g, H)
    elif kind == "ass":
        model = build_ass(g, H)
    elif kind == "pop":
        model = build_pop(g, H, inst.anchor)
    elif kind == "pop2":
        model = build_pop2(g, H, inst.anchor)
    elif kind == "rep":
        model = build_rep(g)
    else:
        raise ModelError(f"unknown formulation {kind!r}")
    meta = dict(model.meta)
    meta["anchor"] = inst.anchor
    meta["clique"] = tuple(inst.clique)
    return replace(model, meta=meta)


def _add_fixing(fixings: dict[str, int], name: str, value: int):
    if fixings.get(name, value) != value:
        raise FixingConflictError(f"{name} fixed to both {fixings[name]} and {value}")
    fixings[name] = value


def apply_clique_fixings(m: MilpModel, inst: PreprocessedInstance) -> MilpModel:
    """Precolor the clique and propagate along its boundary edges.

    Clique members other than the anchor take colors 1..|Q|-1 in ascending
    vertex order. In the assignment family the anchor is additionally pinned
    to color |Q| (valid by color permutation); in the partial-ordering
    family the anchor is instead pushed above colors 1..|Q|-1, which its
    maximality constraints already imply. Every boundary edge (u,v) with u
    precolored k forbids color k on v: a variable fixing where the model has
    that variable, the substituted equality y_{k-1}_v = y_k_v in the pure
    partial-ordering model.
    """
    g = m.graph
    clique = tuple(inst.clique)
    anchor = inst.anchor
    if anchor not in clique:
        raise ModelError("anchor vertex is not in the clique")
    others = tuple(v for v in sorted(clique) if v != anchor)
    precolor = {u: k for k, u in enumerate(others, start=1)}
    fixings = dict(m.fixings)
    extra: list[Constraint] = []

    if m.kind in ("ass-s", "ass"):
        H = _color_bound(m)
        assignments = dict(precolor)
        assignments[anchor] = len(clique)
        for u, k in assignments.items():
            for i in range(1, H + 1):
                _add_fixing(fixings, xv(u, i), 1 if i == k else 0)
        for k in range(1, len(clique)):
            _add_fixing(fixings, wv(k), 1)
        for (a, b) in boundary_edges(g, clique):
            u, v = (a, b) if a in assignments else (b, a)
            _add_fixing(fixings, xv(v, assignments[u]), 0)
    elif m.kind in ("pop", "pop2"):
        H = _color_bound(m)
        for u, k in precolor.items():
            for i in range(1, H):
                _add_fixing(fixings, yv(i, u), 1 if i < k else 0)
        for i in range(1, min(len(clique), H)):
            _add_fixing(fixings, yv(i, anchor), 1)
        for (a, b) in boundary_edges(g, clique):
            if a in precolor or b in precolor:
                u, v = (a, b) if a in precolor else (b, a)
                k = precolor[u]
                if m.kind == "pop2":
                    _add_fixing(fixings, xv(v, k), 0)
                elif k == 1:
                    _add_fixing(fixings, yv(1, v), 1)
                elif k == H:
                    _add_fixing(fixings, yv(H - 1, v), 0)
                else:
                    extra.append(Constraint(
                        name=f"boundary_{u}_{v}",
                        terms=((yv(k - 1, v), 1.0), (yv(k, v), -1.0)),
                        sense="=", rhs=0.0, block="boundary", dense_nnz=2))
    elif m.kind == "rep":
        for u in clique:
            _add_fixing(fixings, rv(u, u), 1)
    else:
        raise ModelError(f"unknown formulation {m.kind!r}")

    return replace(m, constraints=m.constraints + tuple(extra), fixings=fixings)


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


def _resolved(m: MilpModel, values: Mapping[str, float]) -> dict[str, int]:
    out: dict[str, int] = {}
    for name in m.variables:
        if name in values:
            raw = float(values[name])
        elif name in m.fixings:
            raw = float(m.fixings[name])
        else:
            raw = 0.0
        out[name] = binary_value(name, raw)
    return out


def extract_coloring(m: MilpModel, values: Mapping[str, float]) -> Coloring:
    """Decode solver values into a coloring of the model's graph.

    Assignment family: the unique i with x_v_i = 1. Partial-ordering family:
    the unique step of the monotone chain, y_{i-1}_v = 1 and y_i_v = 0 under
    the conventions y_0 = 1, y_H = 0. Representatives: each vertex goes to
    its smallest-id representative, classes numbered by representative id.
    """
    g = m.graph
    val = _resolved(m, values)
    colors: list[int] = []
    if m.kind in ("ass-s", "ass"):
        H = _color_bound(m)
        for v in range(g.n):
            chosen = [i for i in range(1, H + 1) if val[xv(v, i)] == 1]
            if len(chosen) != 1:
                raise ExtractionError(f"vertex {v} has {len(chosen)} assigned colors")
            colors.append(chosen[0])
    elif m.kind in ("pop", "pop2"):
        H = _color_bound(m)
        for v in range(g.n):
            chain = [1] + [val[yv(i, v)] for i in range(1, H)] + [0]
            steps = [i for i in range(1, H + 1) if chain[i - 1] == 1 and chain[i] == 0]
            if len(steps) != 1:
                raise ExtractionError(f"vertex {v} has an ambiguous ordering chain {chain}")
            colors.append(steps[0])
    elif m.kind == "rep":
        rep_of = []
        for v in range(g.n):
            cands = [u for u in sorted(set(g.non_neighbors(v)) | {v}) if val[rv(u, v)] == 1]
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
    For the representatives model each class is represented by its member
    inside the model's clique when there is one, else by its smallest id.
    """
    g = m.graph
    values: dict[str, int] = {}
    if m.kind in ("ass-s", "ass"):
        H = _color_bound(m)
        used = set(c.colors)
        for v in range(g.n):
            for i in range(1, H + 1):
                values[xv(v, i)] = 1 if c.colors[v] == i else 0
        for i in range(1, H + 1):
            values[wv(i)] = 1 if i in used else 0
    elif m.kind in ("pop", "pop2"):
        H = _color_bound(m)
        for v in range(g.n):
            for i in range(1, H):
                values[yv(i, v)] = 1 if c.colors[v] > i else 0
        if m.kind == "pop2":
            for v in range(g.n):
                for i in range(1, H + 1):
                    values[xv(v, i)] = 1 if c.colors[v] == i else 0
    elif m.kind == "rep":
        clique = set(m.meta.get("clique") or ())
        classes: dict[int, list[int]] = {}
        for v in range(g.n):
            classes.setdefault(c.colors[v], []).append(v)
        for name in m.variables:
            values[name] = 0
        for members in classes.values():
            special = [v for v in members if v in clique]
            rep = special[0] if special else min(members)
            values[rv(rep, rep)] = 1
            for v in members:
                if v != rep:
                    values[rv(rep, v)] = 1
        for u in clique:
            values[rv(u, u)] = 1
    else:
        raise ModelError(f"unknown formulation {m.kind!r}")
    for name, fixed in m.fixings.items():
        if values.get(name, 0) != fixed:
            raise ModelError(f"coloring contradicts fixing {name}={fixed}")
    return values


def objective_value(m: MilpModel, values: Mapping[str, float], with_offset: bool = True) -> float:
    total = sum(coef * float(values.get(name, m.fixings.get(name, 0)))
                for name, coef in m.objective)
    return total + (m.offset if with_offset else 0)


def check_feasible(m: MilpModel, values: Mapping[str, float], tol: float = 1e-9) -> list[str]:
    """Names of constraints (and fixings) violated by a value assignment."""
    def val(name: str) -> float:
        if name in values:
            return float(values[name])
        return float(m.fixings.get(name, 0))

    bad = []
    for con in m.constraints:
        lhs = sum(coef * val(name) for name, coef in con.terms)
        if con.sense == "<=" and lhs > con.rhs + tol:
            bad.append(con.name)
        elif con.sense == ">=" and lhs < con.rhs - tol:
            bad.append(con.name)
        elif con.sense == "=" and abs(lhs - con.rhs) > tol:
            bad.append(con.name)
    for name, fixed in m.fixings.items():
        if abs(val(name) - fixed) > tol:
            bad.append(f"fixing:{name}")
    return bad
