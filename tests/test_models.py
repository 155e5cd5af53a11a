import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chromatic import families, models
from chromatic.backend import BuiltinAdapter, SolveStatus, builtin_subprocess_adapter, solve
from chromatic.graph import Coloring, Graph, gnp_random, verify_coloring
from chromatic.models import (FORMULATIONS, ExtractionError,
                              FixingConflictError, MilpModel, ModelError,
                              apply_clique_fixings, build_ass, build_ass_s,
                              build_formulation, build_pop, build_pop2,
                              build_rep, extract_coloring, model_stats, objective_value,
                              rv, wv, xv, yv)
from chromatic.preprocess import (PreprocessedInstance, greedy_upper_bound,
                                  preprocess_pipeline)
from conftest import NullAdapter, build_with_h_colors, clique_bound_only, family_rows, row
from ground_truth import check_feasible, chromatic_number_exact, encode_coloring


def instance_for(g: Graph, clique, anchor) -> PreprocessedInstance:
    """Hand-built preprocessing result: no reduction, prescribed clique."""
    upper, greedy = greedy_upper_bound(g)
    return PreprocessedInstance(
        reduced=remove_dominated_identity(g), lower_bound=len(clique), upper_bound=upper,
        greedy_coloring=greedy, clique=tuple(sorted(clique)), anchor=anchor)


def remove_dominated_identity(g: Graph):
    from chromatic.preprocess import ReducedInstance
    return ReducedInstance(graph=g, kept=tuple(range(g.n)), restore_stack=(),
                           original_n=g.n)


def optimum(model: MilpModel) -> int:
    result = solve(model, time_limit=60)
    assert result.status is SolveStatus.OPTIMAL, result
    return result.upper_bound


class TestAssignmentBuilders:
    def test_triangle_counts(self):
        m = build_ass_s(families.complete(3), 3)
        assert len(m.variables) == 12
        assert m.num_rows == 12  # 3 assign + 9 edge

    def test_variable_count_formula(self):
        for seed in range(6):
            g = gnp_random(9, 0.5, seed)
            upper, _ = greedy_upper_bound(g)
            m = build_ass_s(g, upper)
            assert len(m.variables) == upper * (g.n + 1)

    def test_single_vertex_shape(self):
        m = build_ass_s(families.empty(1), 1)
        assert len(m.variables) == 2
        assert m.num_rows == 1
        # with no edge rows nothing forces w_1, so the bare model bottoms
        # out at 0; the pipeline settles 1-colorable instances before any
        # build, so this degenerate case never reaches a solver in practice
        assert optimum(m) == 0

    def test_ass_adds_symmetry_rows(self):
        m = build_ass(families.complete(3), 3)
        assert m.num_rows == 17  # 12 + 3 use + 2 order
        names = {name for block in m.blocks for name in block.names()}
        assert "use_1" in names and "order_w_2" in names

    def test_ass_optimum_on_odd_cycle(self):
        g = families.cycle(5)
        assert optimum(build_ass(g, 4)) == 3

    def test_bad_bound(self):
        with pytest.raises(ModelError):
            build_ass_s(families.complete(3), 0)


class TestPopBuilder:
    def test_free_variable_count(self):
        for seed in range(6):
            g = gnp_random(8, 0.5, seed)
            upper, _ = greedy_upper_bound(g)
            if upper < 2:
                continue
            m = build_pop(g, upper, anchor=0)
            assert len(m.variables) == (upper - 1) * g.n

    def test_single_edge_optimum(self):
        g = Graph.from_edges(2, [(0, 1)])
        m = build_pop(g, 2, anchor=0)
        assert m.offset == 1
        assert optimum(m) == 2

    def test_odd_cycle_optimum(self):
        assert optimum(build_pop(families.cycle(5), 3, anchor=0)) == 3

    def test_edge_rows_shape(self):
        g = Graph.from_edges(2, [(0, 1)])
        m = build_pop(g, 4, anchor=0)
        (edge,) = (block for block in m.blocks if block.family == "edge")
        assert edge.names() == ["edge_0_1_1", "edge_0_1_2", "edge_0_1_3", "edge_0_1_4"]
        terms, sense, rhs = row(m, "edge_0_1_1")
        assert sense == ">=" and rhs == 1.0
        terms, sense, rhs = row(m, "edge_0_1_2")
        assert sense == "<=" and len(terms) == 4
        terms, sense, rhs = row(m, "edge_0_1_4")
        assert sense == "<=" and terms == ((yv(3, 0), 1.0), (yv(3, 1), 1.0))

    def test_anchor_rows_cover_other_vertices(self):
        g = families.cycle(4)
        m = build_pop(g, 3, anchor=2)
        assert family_rows(m, "anchor") == (3 - 1) * (g.n - 1)

    def test_rejects_unit_bound(self):
        with pytest.raises(ModelError):
            build_pop(families.complete(2), 1, anchor=0)


class TestPop2Builder:
    def test_single_edge_optimum(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert optimum(build_pop2(g, 2, anchor=1)) == 2

    def test_density_accounting(self):
        # textbook-form coefficient counts: 4|E|H for the pure model's edge
        # block vs 2|E|H + 3|V|H for the hybrid's edge plus linking blocks;
        # the stored pop rows drop the eliminated variables, so the textbook
        # widths (4 per pop edge row, 2 per pop2 edge row, 3 per link row)
        # are stated here and multiplied by each family's row count
        def textbook_pop(m):
            return 4 * family_rows(m, "edge")

        def textbook_pop2(m):
            return 2 * family_rows(m, "edge") + 3 * family_rows(m, "link")

        g = families.complete(4)
        pop = build_pop(g, 4, anchor=0)
        pop2 = build_pop2(g, 4, anchor=0)
        assert textbook_pop(pop) == 4 * 6 * 4 == 96
        assert textbook_pop2(pop2) == 2 * 6 * 4 + 3 * 4 * 4 == 96

        k10 = families.complete(10)
        dense_pop = textbook_pop(build_pop(k10, 10, anchor=0))
        dense_pop2 = textbook_pop2(build_pop2(k10, 10, anchor=0))
        assert dense_pop == 4 * 45 * 10
        assert dense_pop2 == 2 * 45 * 10 + 3 * 10 * 10
        assert dense_pop2 < dense_pop

    def test_dimension_matches_pop_plus_links(self):
        g = gnp_random(7, 0.5, 3)
        upper, _ = greedy_upper_bound(g)
        m = build_pop2(g, upper, anchor=0)
        assert len(m.variables) == (upper - 1) * g.n + upper * g.n
        assert family_rows(m, "link") == upper * g.n


class TestRepBuilder:
    def test_two_isolated_vertices_need_one_color(self):
        g = families.empty(2)
        m = build_rep(g)
        assert optimum(m) == 1

    def test_isolated_row_cuts_the_one_color_point(self):
        # later non-neighbours: 1 of 0, and 2 of 1; no conflict row touches
        # them, so without the isolated rows 0 -> 1 -> 2 would pass as one
        # color class although 0 and 2 are adjacent
        g = Graph.from_edges(3, [(0, 2)])
        m = build_rep(g)
        bad_point = {rv(0, 0): 1.0, rv(0, 1): 1.0, rv(1, 2): 1.0, rv(1, 1): 0.0, rv(2, 2): 0.0}
        assert check_feasible(m, bad_point) == ["isolated_1_2"]
        assert optimum(m) == 2

    def test_complete_graph(self):
        m = build_rep(families.complete(4))
        assert set(m.variables) == {rv(u, u) for u in range(4)}
        assert optimum(m) == 4

    def test_reported_variable_count(self):
        c5 = families.cycle(5)
        m = build_rep(c5)
        assert c5.n * (c5.n - 1) // 2 - c5.m == 5
        # |V| + |non-edges|: one orientation per non-adjacent pair
        assert len(m.variables) == model_stats(m).num_vars == 10

    @pytest.mark.parametrize("seed", range(4))
    def test_pairs_follow_the_clique_first_order(self, seed):
        g = gnp_random(12, 0.4, seed)
        inst = preprocess_pipeline(g, seed=seed, clique_time_budget=0.5)
        for m, first in ((build_rep(g, first=(5, 2)), (2, 5)),
                         (build_with_h_colors("rep", inst), tuple(sorted(inst.clique)))):
            graph = m.graph
            order = m.meta["order"]
            assert order == first + tuple(v for v in range(graph.n) if v not in first)
            position = {v: k for k, v in enumerate(order)}
            edges = set(graph.edges)
            pairs = [tuple(map(int, name.split("_")[1:])) for name in m.variables]
            assert [u for u, v in pairs if u == v] == list(range(graph.n))
            for u, v in pairs:
                if u != v:
                    assert position[u] < position[v]
                    assert (min(u, v), max(u, v)) not in edges
            assert len(pairs) == graph.n + graph.n * (graph.n - 1) // 2 - graph.m

    def test_optimum_matches_oracle_on_sparse_graphs(self):
        for seed in range(5):
            g = gnp_random(9, 0.2, seed)
            assert optimum(build_rep(g)) == chromatic_number_exact(g).chi


class TestCliqueFixings:
    def test_full_precoloring_on_triangle(self):
        g = families.complete(3)
        inst = instance_for(g, clique=(0, 1, 2), anchor=2)
        m = apply_clique_fixings(build_ass(g, 3), inst)
        expected_ones = {xv(0, 1), xv(1, 2), xv(2, 3), wv(1), wv(2)}
        assert {k for k, v in m.fixings.items() if v == 1} == expected_ones
        zero_x = {k for k, v in m.fixings.items() if v == 0}
        assert len(zero_x) == 6
        assert len(m.fixings) >= 3 * 3  # at least H fixings per clique vertex

    def test_path_pop_fixings(self):
        g = families.path(3)
        inst = instance_for(g, clique=(0, 1), anchor=1)
        m = apply_clique_fixings(build_pop(g, 2, anchor=1), inst)
        # vertex 0 precolored 1, anchor pushed above color 1, and the
        # boundary edge (1,2) touches only the anchor, so no fixing for it
        assert m.fixings == {yv(1, 0): 0, yv(1, 1): 1}

    def test_boundary_fixing_in_assignment_model(self):
        g = families.path(3)
        inst = instance_for(g, clique=(0, 1), anchor=0)
        m = apply_clique_fixings(build_ass(g, 2), inst)
        # vertex 1 is precolored 1; anchor 0 takes color 2; edge (1,2) in
        # the boundary forbids color 1 on vertex 2
        assert m.fixings[xv(2, 1)] == 0

    def test_pop_boundary_equality_row(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        inst = instance_for(g, clique=(0, 1, 2), anchor=0)
        upper, _ = greedy_upper_bound(g)
        m = apply_clique_fixings(build_pop(g, upper, anchor=0), inst)
        boundary = [name for block in m.blocks if block.family == "boundary"
                    for name in block.names()]
        # vertex 3 is adjacent to clique vertex 2 (precolored 2, inside 1..H)
        assert "boundary_2_3" in boundary

    def test_pop2_boundary_fixes_assignment_variable(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        inst = instance_for(g, clique=(0, 1, 2), anchor=0)
        upper, _ = greedy_upper_bound(g)
        m = apply_clique_fixings(build_pop2(g, upper, anchor=0), inst)
        assert m.fixings[xv(3, 2)] == 0

    def test_rep_fixes_clique_diagonal(self):
        g = families.complete(3)
        inst = instance_for(g, clique=(0, 1, 2), anchor=0)
        m = apply_clique_fixings(build_rep(g), inst)
        assert m.fixings == {rv(0, 0): 1, rv(1, 1): 1, rv(2, 2): 1}

    def test_rep_fixings_need_the_clique_first(self):
        # chi = 2, but in id order vertex 0 is first in its class and must
        # represent itself, so r_1_1 = r_2_2 = 1 would force 3 colors
        g = Graph.from_edges(3, [(1, 2)])
        inst = instance_for(g, clique=(1, 2), anchor=1)
        in_id_order = build_rep(g)
        assert optimum(replace(in_id_order, bounds={rv(1, 1): (1, 1), rv(2, 2): (1, 1)})) == 3
        with pytest.raises(ModelError, match="does not start with the clique"):
            apply_clique_fixings(in_id_order, inst)
        m = apply_clique_fixings(build_rep(g, first=(1, 2)), inst)
        assert m.meta["order"] == (1, 2, 0)
        assert m.fixings == {rv(1, 1): 1, rv(2, 2): 1}
        assert optimum(m) == 2

    def test_model_refuses_bounds_it_cannot_hold(self):
        m = build_rep(families.complete(2))
        with pytest.raises(ModelError, match="bound references unknown r_9_9"):
            replace(m, bounds={rv(9, 9): (1, 1)})
        with pytest.raises(ModelError, match=r"binary r_0_0 has bounds 0..2 outside \[0, 1\]"):
            replace(m, bounds={rv(0, 0): (0, 2)})

    def test_conflicting_fixing_detected(self):
        g = families.complete(3)
        inst = instance_for(g, clique=(0, 1, 2), anchor=2)
        m = build_ass(g, 3)
        m = apply_clique_fixings(m, inst)
        from dataclasses import replace
        tampered = replace(m, bounds={**m.bounds, xv(0, 1): (0, 0)})
        with pytest.raises(FixingConflictError):
            apply_clique_fixings(tampered, inst)

    @pytest.mark.parametrize("upper", [3, 2])
    @pytest.mark.parametrize("kind", FORMULATIONS)
    def test_clique_larger_than_color_bound_is_refused(self, kind, upper):
        # unchecked, H = 3 gives an infeasible pop/pop2 model and an unknown
        # x_1_4 in ass/ass-s, and H = 2 a fixing conflict in pop
        inst = preprocess_pipeline(gnp_random(12, 0.6, 5), seed=0, clique_time_budget=1)
        assert len(inst.clique) == 4
        g, anchor = inst.reduced.graph, inst.anchor
        model = {"ass-s": lambda: build_ass_s(g, upper), "ass": lambda: build_ass(g, upper),
                 "pop": lambda: build_pop(g, upper, anchor),
                 "pop2": lambda: build_pop2(g, upper, anchor),
                 "rep": lambda: build_rep(g, first=inst.clique)}[kind]()
        if kind == "rep":  # no color bound to exceed
            assert apply_clique_fixings(model, inst).fixings
            return
        with pytest.raises(ModelError) as raised:
            apply_clique_fixings(model, inst)
        assert type(raised.value) is ModelError
        assert str(raised.value) == f"clique of 4 vertices exceeds color bound H = {upper}"

    def test_fixings_preserve_optimum(self):
        for seed in (0, 1):
            g = gnp_random(9, 0.5, seed)
            chi = chromatic_number_exact(g).chi
            inst = preprocess_pipeline(g, seed=seed, clique_time_budget=1)
            for kind in FORMULATIONS:
                if inst.upper_bound < 2 and kind in ("pop", "pop2"):
                    continue
                bare = build_with_h_colors(kind, inst)
                fixed = apply_clique_fixings(bare, inst)
                assert optimum(bare) == optimum(fixed) == chi


def random_agreeing_coloring(model: MilpModel, rng: random.Random):
    """A random proper coloring of the model's graph with its color bound
    (its vertex count for `rep`) that agrees with the clique fixings: the
    clique members but the anchor at 1..|Q|-1 in ascending order, the anchor
    at |Q| (at |Q| or above in the partial-ordering family), the rest
    greedily in random order. None if the greedy gets stuck."""
    g, clique, anchor = model.graph, model.meta["clique"], model.meta["anchor"]
    top = model.meta["upper_bound"] if model.kind != "rep" else g.n
    colors = {u: k for k, u in enumerate(sorted(set(clique) - {anchor}), start=1)}
    colors[anchor] = (rng.randint(len(clique), top) if model.kind in ("pop", "pop2")
                      else len(clique))
    rest = [v for v in range(g.n) if v not in colors]
    rng.shuffle(rest)
    for v in rest:
        free = sorted(set(range(1, top + 1)) - {colors.get(u) for u in g.adjacency[v]})
        if not free:
            return None
        colors[v] = rng.choice(free)
    return Coloring(tuple(colors[v] for v in range(g.n)))


class TestSettledRows:
    """`apply_clique_fixings` takes the fixed columns out of its rows and drops
    the rows the column bounds satisfy, without changing the feasible set."""

    @staticmethod
    def settled_and_whole(kind, inst):
        """The clique-fixed models of `kind` for `inst`, one color below H
        unless the instance is settled, and H-colored: each settled and with
        the settling step left out."""
        builds = [build_with_h_colors(kind, inst)]
        if not inst.solved_in_preprocessing:
            builds.append(build_formulation(kind, inst))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(models, "_settle_rows", lambda blocks, columns, bounds: blocks)
            whole = [apply_clique_fixings(m, inst) for m in builds]
        return [(apply_clique_fixings(m, inst), w) for m, w in zip(builds, whole)]

    @pytest.mark.parametrize("kind", FORMULATIONS)
    @given(st.integers(3, 7), st.sampled_from([0.3, 0.5, 0.7]), st.integers(0, 10_000))
    def test_settling_keeps_the_feasible_points(self, kind, n, p, seed):
        g = gnp_random(n, p, seed)
        inst = preprocess_pipeline(g, seed=seed, clique_time_budget=1)
        if kind in ("pop", "pop2") and inst.upper_bound < 2:
            return
        rng = random.Random(seed)
        for settled, whole in self.settled_and_whole(kind, inst):
            assert (settled.variables, settled.bounds, settled.fixings, settled.objective,
                    settled.offset, settled.num_binary) == \
                (whole.variables, whole.bounds, whole.fixings, whole.objective,
                 whole.offset, whole.num_binary)
            assert settled.num_rows <= whole.num_rows
            colorings = [random_agreeing_coloring(settled, rng) for _ in range(3)]
            if settled.meta["upper_bound"] != inst.upper_bound - 1:  # the H-colored model
                oracle = chromatic_number_exact(settled.graph)
                aligned = NullAdapter()._align(settled, oracle.witness, oracle.chi)
                assert check_feasible(settled, encode_coloring(settled, aligned)) == []
                colorings.append(aligned)
            for coloring in filter(None, colorings):
                point = encode_coloring(settled, coloring)
                for flip in [None, *settled.variables]:
                    values = dict(point)
                    if flip is not None:
                        values[flip] = 1 - values[flip]
                    assert (not check_feasible(settled, values)) == \
                        (not check_feasible(whole, values)), (coloring, flip)

    def test_a_row_the_fixings_violate_is_named(self):
        # vertex 1 is the anchor at color 2, so its neighbour 2 loses color 2,
        # and the model already holds x_2_1 at 0: assign_2 reads 0 = 1
        g = families.path(3)
        inst = instance_for(g, clique=(0, 1), anchor=1)
        model = replace(build_ass(g, 2), bounds={xv(2, 1): (0, 0)})
        with pytest.raises(FixingConflictError, match="violate row assign_2$"):
            apply_clique_fixings(model, inst)

    @pytest.mark.parametrize("kind", ["pop", "rep"])
    def test_a_model_with_every_row_settled_solves_on_both_routes(self, kind):
        inst = preprocess_pipeline(families.complete(4), seed=1, clique_time_budget=1)
        m = apply_clique_fixings(build_with_h_colors(kind, inst), inst)
        assert m.blocks == () and len(m.fixings) == len(m.variables)
        for adapter in (BuiltinAdapter(), builtin_subprocess_adapter()):
            result = solve(m, adapter=adapter, time_limit=30)
            assert result.status is SolveStatus.OPTIMAL, adapter
            assert result.upper_bound == 4
            assert result.values == m.fixings


class TestOneColorBelowH:
    """`build_formulation` asks for an (H - 1)-coloring of a preprocessed instance."""

    def test_every_model_has_h_minus_one_colors(self):
        inst = clique_bound_only(preprocess_pipeline(families.cycle(7), seed=0,
                                                     clique_time_budget=0.5))
        assert (len(inst.clique), inst.upper_bound) == (2, 3)
        models = {kind: build_formulation(kind, inst) for kind in FORMULATIONS}
        assert {m.meta["upper_bound"] for m in models.values()} == {2}
        assert len(models["ass-s"].variables) == 2 * (7 + 1)
        assert len(models["pop"].variables) == (2 - 1) * 7
        rep = models["rep"]
        assert rep.blocks[-1].family == "colors" and len(rep.blocks[-1]) == 1
        assert row(rep, "colors") == (tuple((rv(v, v), 1.0) for v in range(7)), "<=", 2.0)
        assert optimum(replace(rep, blocks=rep.blocks[:-1])) == 3
        for m in models.values():
            result = solve(apply_clique_fixings(m, inst), time_limit=30)
            assert result.status is SolveStatus.INFEASIBLE, m.kind

    @pytest.mark.parametrize("g", [families.complete(1), families.complete(2),
                                   families.complete(4), families.cycle(6)],
                             ids=["K1", "K2", "K4", "C6"])
    def test_settled_instance_has_no_model(self, g):
        inst = preprocess_pipeline(g, seed=0, clique_time_budget=0.5)
        assert inst.solved_in_preprocessing
        for kind in FORMULATIONS:
            with pytest.raises(ModelError, match="settled in preprocessing"):
                build_formulation(kind, inst)

    def test_the_error_names_how_the_instance_settled(self):
        by_clique = preprocess_pipeline(families.complete(4), seed=0, clique_time_budget=0.5)
        with pytest.raises(ModelError, match=r"\(clique of H = 4 vertices\): it has no "
                                             "3-coloring"):
            build_formulation("pop2", by_clique)
        by_propagation = preprocess_pipeline(families.cycle(7), seed=0, clique_time_budget=0.5)
        with pytest.raises(ModelError, match=r"\(the colors of a clique of 2 vertices "
                                             r"propagate to a conflict\): it has no 2-coloring"):
            build_formulation("pop2", by_propagation)


class TestExtractColoring:
    def test_pop_two_vertices(self):
        g = Graph.from_edges(2, [(0, 1)])
        m = build_pop(g, 2, anchor=0)
        coloring = extract_coloring(m, {yv(1, 0): 1.0, yv(1, 1): 0.0})
        assert coloring.colors == (2, 1)

    def test_ass_identity(self):
        g = families.complete(3)
        m = build_ass(g, 3)
        values = {xv(v, i): 1.0 if i == v + 1 else 0.0
                  for v in range(3) for i in range(1, 4)}
        values.update({wv(i): 1.0 for i in range(1, 4)})
        assert extract_coloring(m, values).colors == (1, 2, 3)

    def test_rep_two_isolated(self):
        g = families.empty(2)
        m = build_rep(g)
        coloring = extract_coloring(m, {rv(0, 0): 1.0, rv(0, 1): 1.0,
                                        rv(1, 0): 0.0, rv(1, 1): 0.0})
        assert coloring.colors == (1, 1)

    def test_double_assignment_rejected(self):
        g = families.empty(1)
        m = build_ass_s(g, 2)
        with pytest.raises(ExtractionError, match="2 assigned colors"):
            extract_coloring(m, {xv(0, 1): 1.0, xv(0, 2): 1.0})

    def test_fractional_value_rejected(self):
        g = families.empty(1)
        m = build_ass_s(g, 1)
        with pytest.raises(ExtractionError, match="non-binary"):
            extract_coloring(m, {xv(0, 1): 0.4})

    def test_tolerance_rounding(self):
        g = families.empty(1)
        m = build_ass_s(g, 1)
        coloring = extract_coloring(m, {xv(0, 1): 1.0 - 1e-7, wv(1): 1e-7})
        assert coloring.colors == (1,)


class TestEncodeDecode:
    @pytest.mark.parametrize("kind", FORMULATIONS)
    def test_round_trip_through_encoding(self, kind):
        for seed in range(4):
            g = gnp_random(8, 0.5, seed)
            witness = chromatic_number_exact(g).witness
            upper = witness.num_colors
            if kind in ("pop", "pop2") and upper < 2:
                continue
            inst = instance_for(g, clique=(0,), anchor=0)
            if kind == "pop" or kind == "pop2":
                # anchor must sit at the top color for the ordering models
                top = max(witness.colors)
                anchor = witness.colors.index(top)
                model = (build_pop if kind == "pop" else build_pop2)(g, upper, anchor)
            elif kind == "rep":
                model = build_rep(g)
            else:
                model = (build_ass_s if kind == "ass-s" else build_ass)(g, upper)
            values = encode_coloring(model, witness)
            assert check_feasible(model, values) == []
            decoded = extract_coloring(model, values)
            if kind == "rep":
                # classes are preserved; labels are canonicalized
                partition = {}
                for v, color in enumerate(decoded.colors):
                    partition.setdefault(color, set()).add(v)
                original = {}
                for v, color in enumerate(witness.colors):
                    original.setdefault(color, set()).add(v)
                assert sorted(map(sorted, partition.values())) == \
                    sorted(map(sorted, original.values()))
            else:
                assert decoded == witness
            assert objective_value(model, values) == witness.num_colors

    @pytest.mark.parametrize("graph,upper", [
        (families.path(3), 3), (families.complete(3), 3), (families.cycle(4), 2),
    ])
    def test_every_feasible_pop_point_decodes_uniquely(self, graph, upper):
        # exhaustive over all 0/1 assignments: feasibility alone forces a
        # monotone chain with exactly one step per vertex, i.e. a proper
        # coloring; this is the unambiguity argument behind the formulation
        model = build_pop(graph, upper, anchor=0)
        nvars = len(model.variables)
        feasible_count = 0
        for mask in range(2 ** nvars):
            values = {name: float((mask >> j) & 1)
                      for j, name in enumerate(model.variables)}
            if check_feasible(model, values):
                continue
            feasible_count += 1
            coloring = extract_coloring(model, values)  # unique step or raises
            assert verify_coloring(graph, coloring).valid
            for v in range(graph.n):
                chain = [values[yv(i, v)] for i in range(1, upper)]
                assert all(a >= b for a, b in zip(chain, chain[1:]))
        assert feasible_count > 0

    def test_pop_monotone_chain_in_feasible_solutions(self):
        g = gnp_random(8, 0.5, 1)
        chi = chromatic_number_exact(g)
        top = max(chi.witness.colors)
        anchor = chi.witness.colors.index(top)
        model = build_pop(g, chi.witness.num_colors, anchor)
        values = encode_coloring(model, chi.witness)
        for v in range(g.n):
            chain = [values[yv(i, v)] for i in range(1, chi.witness.num_colors)]
            assert all(a >= b for a, b in zip(chain, chain[1:]))


class TestFormulationEquivalence:
    def test_all_formulations_match_oracle(self):
        graphs = [gnp_random(9, p, seed)
                  for seed, p in itertools.product(range(3), (0.3, 0.6))]
        graphs.append(gnp_random(12, 0.5, 3))
        for g in graphs:
            chi = chromatic_number_exact(g).chi
            inst = preprocess_pipeline(g, seed=1, clique_time_budget=1)
            if inst.upper_bound < 2:
                assert chi == 1
                continue
            for kind in FORMULATIONS:
                model = apply_clique_fixings(build_with_h_colors(kind, inst), inst)
                result = solve(model, time_limit=60)
                assert result.status is SolveStatus.OPTIMAL and result.upper_bound == chi, \
                    (kind, g.n, g.m)
                coloring = extract_coloring(model, result.values)
                report = verify_coloring(inst.reduced.graph, coloring)
                assert report.valid and report.colors_used == result.upper_bound

    def test_assignment_model_on_mid_size_benchmark_family(self):
        g = families.full_insertion(3, 3)  # 80 vertices, 346 edges, chi = 6
        inst = preprocess_pipeline(g, seed=0, clique_time_budget=1)
        model = apply_clique_fixings(build_with_h_colors("ass", inst), inst)
        result = solve(model, time_limit=120)
        assert result.status is SolveStatus.OPTIMAL and result.upper_bound == 6


class TestWeaknessPoints:
    def test_assignment_point_value_two(self):
        for seed in (0, 1, 2):
            g = gnp_random(10, 0.5, seed)
            upper, _ = greedy_upper_bound(g)
            m = build_ass(g, upper)
            point = {}
            for v in range(g.n):
                point[xv(v, 1)] = point[xv(v, 2)] = 0.5
                for i in range(3, upper + 1):
                    point[xv(v, i)] = 0.0
            point[wv(1)] = point[wv(2)] = 1.0
            for i in range(3, upper + 1):
                point[wv(i)] = 0.0
            assert check_feasible(m, point, tol=1e-9) == []
            assert objective_value(m, point) == 2.0

    def test_ordering_point_value_one_and_a_half(self):
        # feasible for every color bound >= 2, including the H=2 edge case
        cases = [(gnp_random(10, 0.5, s), None) for s in (0, 1, 2)]
        cases.append((Graph.from_edges(2, [(0, 1)]), 2))
        for g, forced_upper in cases:
            upper = forced_upper or greedy_upper_bound(g)[0]
            m = build_pop(g, upper, anchor=0)
            point = {yv(1, v): 0.5 for v in range(g.n)}
            for v in range(g.n):
                for i in range(2, upper):
                    point[yv(i, v)] = 0.0
            assert check_feasible(m, point, tol=1e-9) == []
            assert objective_value(m, point) == 1.5


class TestModelStats:
    def test_pop_stats_subtract_fixings(self):
        g = gnp_random(10, 0.5, 4)
        inst = preprocess_pipeline(g, seed=4, clique_time_budget=1)
        upper = inst.upper_bound
        if upper < 2:
            pytest.skip("degenerate instance")
        m = build_with_h_colors("pop", inst)
        assert model_stats(m).num_vars == (upper - 1) * inst.reduced.graph.n
        fixed = apply_clique_fixings(m, inst)
        assert model_stats(fixed).num_vars == \
            (upper - 1) * inst.reduced.graph.n - len(fixed.fixings)

    def test_ass_s_triangle(self):
        stats = model_stats(build_ass_s(families.complete(3), 3))
        assert stats.num_vars == 12 and stats.num_constraints == 12

    def test_nonzeros_counted(self):
        m = build_ass_s(families.complete(3), 2)
        # 3 assign rows of 2 terms + 6 edge rows of 3 terms
        assert model_stats(m).num_nonzeros == 3 * 2 + 6 * 3
