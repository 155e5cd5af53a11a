import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chromatic import families
from chromatic.graph import Coloring, ColoringError, gnp_random, verify_coloring
from chromatic.oracle import chromatic_number_exact, _greedy_clique
from chromatic.preprocess import (NotACliqueError, ReducedInstance, boundary_edges,
                                  clique_objective, find_clique,
                                  greedy_upper_bound, preprocess_pipeline,
                                  random_maximal_clique, remove_dominated,
                                  restore_coloring)


class TestRemoveDominated:
    def test_star_collapses_to_edge(self):
        reduced = remove_dominated(families.star(3))
        assert reduced.graph.n == 2 and reduced.graph.m == 1
        assert reduced.original_n == 4
        assert len(reduced.restore_stack) == 2

    def test_complete_graph_unchanged(self):
        reduced = remove_dominated(families.complete(5))
        assert reduced.graph == families.complete(5)
        assert reduced.restore_stack == ()
        assert reduced.kept == (0, 1, 2, 3, 4)

    def test_edgeless_collapses_to_one_vertex(self):
        reduced = remove_dominated(families.empty(6))
        assert reduced.graph.n == 1

    def test_dominated_never_adjacent_to_dominator(self):
        # edges only disappear when an endpoint does, so a pair alive at
        # removal time is adjacent then iff it is adjacent originally
        for seed in range(10):
            g = gnp_random(10, 0.3, seed)
            reduced = remove_dominated(g)
            for (removed, dominator) in reduced.restore_stack:
                assert removed not in g.adjacency[dominator]

    def test_chromatic_number_preserved(self):
        for seed in range(30):
            g = gnp_random(10, 0.3, seed)
            reduced = remove_dominated(g)
            assert chromatic_number_exact(reduced.graph).chi == chromatic_number_exact(g).chi

    def test_fixed_point(self):
        for seed in range(10):
            g = gnp_random(12, 0.4, seed)
            reduced = remove_dominated(g)
            again = remove_dominated(reduced.graph)
            assert again.restore_stack == ()


class TestRestoreColoring:
    def test_star_restore(self):
        g = families.star(3)
        reduced = remove_dominated(g)
        restored = restore_coloring(reduced, Coloring((1, 2)))
        report = verify_coloring(g, restored)
        assert report.valid and report.colors_used == 2

    def test_identity_when_nothing_removed(self):
        g = families.complete(4)
        reduced = remove_dominated(g)
        coloring = Coloring((1, 2, 3, 4))
        assert restore_coloring(reduced, coloring) == coloring

    def test_random_graphs_color_count_preserved(self):
        for seed in range(12):
            g = gnp_random(12, 0.35, seed)
            reduced = remove_dominated(g)
            chi = chromatic_number_exact(reduced.graph)
            restored = restore_coloring(reduced, chi.witness)
            report = verify_coloring(g, restored)
            assert report.valid
            assert report.colors_used == chi.witness.num_colors

    def test_invalid_reduced_coloring_rejected(self):
        g = families.star(3)
        reduced = remove_dominated(g)  # reduced to one edge
        with pytest.raises(ColoringError):
            restore_coloring(reduced, Coloring((1, 1)))

    def test_broken_restore_stack_raises(self):
        edge = families.complete(2)
        from_uncolored = ReducedInstance(edge, kept=(0, 1), restore_stack=((2, 3),),
                                         original_n=4)
        with pytest.raises(ValueError, match="uncolored vertex 3"):
            restore_coloring(from_uncolored, Coloring((1, 2)))
        never_lifted = ReducedInstance(edge, kept=(0, 1), restore_stack=(), original_n=3)
        with pytest.raises(ValueError, match=r"vertices \[2\] uncolored"):
            restore_coloring(never_lifted, Coloring((1, 2)))


class TestGreedyUpperBound:
    def test_edgeless(self):
        assert greedy_upper_bound(families.empty(5))[0] == 1

    def test_complete(self):
        assert greedy_upper_bound(families.complete(5))[0] == 5

    def test_even_cycle(self):
        # all degrees equal, so the order is 0..5 and colors alternate 1,2
        upper, coloring = greedy_upper_bound(families.cycle(6))
        assert upper == 2
        assert coloring.colors == (1, 2, 1, 2, 1, 2)

    def test_coloring_always_valid(self):
        for seed in range(10):
            g = gnp_random(14, 0.5, seed)
            upper, coloring = greedy_upper_bound(g)
            report = verify_coloring(g, coloring)
            assert report.valid and report.colors_used == upper <= g.n


class TestRandomMaximalClique:
    def test_complete_graph_returns_everything(self):
        assert random_maximal_clique(families.complete(4), seed=1) == (0, 1, 2, 3)

    def test_edgeless_returns_singleton(self):
        assert len(random_maximal_clique(families.empty(5), seed=2)) == 1

    def test_cycle_five_gives_an_edge(self):
        g = families.cycle(5)
        for seed in range(10):
            clique = random_maximal_clique(g, seed)
            assert len(clique) == 2
            assert clique[1] in g.adjacency[clique[0]]

    @given(st.integers(0, 1000))
    def test_always_maximal_clique(self, seed):
        g = gnp_random(12, 0.5, seed % 7)
        clique = random_maximal_clique(g, seed)
        members = set(clique)
        for u in clique:
            assert members - {u} <= set(g.adjacency[u])
        for v in range(g.n):
            if v not in members:
                assert not members <= set(g.adjacency[v])


class TestCliqueObjective:
    def test_whole_clique_no_boundary(self):
        g = families.complete(4)
        assert clique_objective(g, (0, 1, 2, 3), upper_bound=4, mode="e") == 16

    def test_path_boundary(self):
        g = families.path(3)
        assert boundary_edges(g, (0, 1)) == ((1, 2),)
        assert clique_objective(g, (0, 1), upper_bound=2, mode="e") == 5

    def test_mode_c_is_size(self):
        g = gnp_random(10, 0.6, 1)
        clique = random_maximal_clique(g, 5)
        assert clique_objective(g, clique, upper_bound=9, mode="c") == len(clique)

    def test_not_a_clique(self):
        with pytest.raises(NotACliqueError):
            clique_objective(families.path(3), (0, 2), upper_bound=2, mode="c")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            clique_objective(families.complete(3), (0, 1), 3, mode="x")


class TestFindClique:
    def test_complete_graph(self):
        assert find_clique(families.complete(5), 5, "c", seed=0) == (0, 1, 2, 3, 4)

    def test_edgeless_singleton(self):
        assert len(find_clique(families.empty(4), 1, "e", seed=0)) == 1

    def test_deterministic_for_seed(self):
        g = gnp_random(20, 0.5, 3)
        a = find_clique(g, 6, "e", seed=11)
        b = find_clique(g, 6, "e", seed=11)
        assert a == b

    def test_beats_single_greedy_pass(self):
        for seed in range(20):
            g = gnp_random(30, 0.5, seed)
            upper, _ = greedy_upper_bound(g)
            best = find_clique(g, upper, "c", seed=seed)
            assert len(best) >= len(_greedy_clique(g))

    def test_respects_trial_override(self):
        g = gnp_random(15, 0.5, 2)
        clique = find_clique(g, 5, "c", seed=1, trials=1)
        assert clique == random_maximal_clique(g, random.Random("clique:1:0"))

    def test_zero_trials_raise(self):
        g = gnp_random(15, 0.5, 2)
        ub, _ = greedy_upper_bound(g)
        with pytest.raises(ValueError, match="at least one trial"):
            find_clique(g, ub, "e", 0, trials=0)


class TestPipeline:
    def test_complete_graph_solved(self):
        inst = preprocess_pipeline(families.complete(6), clique_time_budget=1)
        assert inst.lower_bound == inst.upper_bound == 6
        assert inst.solved_in_preprocessing

    def test_odd_cycle_not_solved(self):
        inst = preprocess_pipeline(families.cycle(5), clique_time_budget=1)
        assert inst.lower_bound == 2
        assert inst.upper_bound == 3
        assert not inst.solved_in_preprocessing

    def test_bipartite_solved(self):
        inst = preprocess_pipeline(families.complete_bipartite(3, 3), clique_time_budget=1)
        assert inst.lower_bound == inst.upper_bound == 2
        assert inst.solved_in_preprocessing

    def test_bounds_bracket_chi(self):
        for seed in range(15):
            g = gnp_random(11, 0.5, seed)
            inst = preprocess_pipeline(g, seed=seed, clique_time_budget=1)
            chi = chromatic_number_exact(g).chi
            assert inst.lower_bound <= chi <= inst.upper_bound

    def test_anchor_in_clique(self):
        for seed in range(8):
            g = gnp_random(12, 0.5, seed)
            inst = preprocess_pipeline(g, seed=seed, clique_time_budget=1)
            assert inst.anchor in inst.clique
            degree = inst.reduced.graph.degree
            assert all(degree(inst.anchor) >= degree(v) for v in inst.clique)
