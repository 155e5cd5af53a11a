import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromatic import families, preprocess
from chromatic.graph import (Coloring, ColoringError, Graph, boundary_edges, gnp_random,
                             verify_coloring)
from chromatic.lpsolve import TimeLimitError
from chromatic.oracle import chromatic_number_exact, _greedy_clique
from chromatic.preprocess import (CLIQUE_BLOCK, SPLITMIX64_GAMMA, ReducedInstance, find_clique,
                                  greedy_upper_bound, preprocess_pipeline, remove_dominated,
                                  restore_coloring, splitmix64, tabucol)


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
        # all degrees equal, so saturation and then id walk the cycle 0..5
        upper, coloring = greedy_upper_bound(families.cycle(6))
        assert upper == 2
        assert coloring.colors == (1, 2, 1, 2, 1, 2)

    def test_coloring_always_valid(self):
        for seed in range(10):
            g = gnp_random(14, 0.5, seed)
            upper, coloring = greedy_upper_bound(g)
            report = verify_coloring(g, coloring)
            assert report.valid and report.colors_used == upper <= g.n

    def test_crown_graph_takes_two_colors(self):
        # u_i = 2i, v_i = 2i + 1, u_i joined to v_j for i != j: coloring by
        # degree and then id needs one color per pair, saturation needs two
        g = Graph.from_edges(12, [(2 * i, 2 * j + 1) for i in range(6) for j in range(6)
                                  if i != j])
        upper, coloring = greedy_upper_bound(g)
        assert upper == 2 and verify_coloring(g, coloring).valid
        inst = preprocess_pipeline(g, clique_time_budget=1)
        assert inst.solved_in_preprocessing and inst.upper_bound == 2


class TestTabucol:
    def test_no_coloring_below_the_clique(self):
        g = families.complete(5)
        _, start = greedy_upper_bound(g)
        assert tabucol(g, start, 4, random.Random(0)) is None

    def test_reaches_chi_from_a_loose_start(self):
        g = families.cycle(6)
        found = tabucol(g, Coloring((1, 2, 3, 4, 5, 6)), 2, random.Random(0))
        assert found is not None and verify_coloring(g, found).colors_used == 2


class TestRandomMaximalClique:
    """A single trial of `find_clique` grows one random maximal clique."""

    def test_complete_graph_returns_everything(self):
        assert find_clique(families.complete(4), 4, "c", seed=1, trials=1) == (0, 1, 2, 3)

    def test_edgeless_returns_singleton(self):
        assert len(find_clique(families.empty(5), 1, "c", seed=2, trials=1)) == 1

    def test_cycle_five_gives_an_edge(self):
        g = families.cycle(5)
        for seed in range(10):
            clique = find_clique(g, 3, "c", seed, trials=1)
            assert len(clique) == 2
            assert clique[1] in g.adjacency[clique[0]]

    @given(st.integers(0, 1000))
    def test_always_maximal_clique(self, seed):
        g = gnp_random(12, 0.5, seed % 7)
        clique = find_clique(g, 12, "e", seed, trials=1)
        members = set(clique)
        for u in clique:
            assert members - {u} <= set(g.adjacency[u])
        for v in range(g.n):
            if v not in members:
                assert not members <= set(g.adjacency[v])


class TestCliqueObjective:
    def test_whole_clique_no_boundary(self):
        g = families.complete(4)
        assert boundary_edges(g, (0, 1, 2, 3)) == ()
        assert reference_score(g, (0, 1, 2, 3), 4, "e") == 16
        assert find_clique(g, 4, "e", seed=0) == (0, 1, 2, 3)

    def test_path_boundary(self):
        g = families.path(3)
        assert boundary_edges(g, (0, 1)) == ((1, 2),)
        assert reference_score(g, (0, 1), 2, "e") == 5

    def test_mode_c_is_size(self):
        g = gnp_random(10, 0.6, 1)
        sizes = [len(reference_clique(g, 5, t)) for t in range(20)]
        assert len(find_clique(g, 9, "c", 5, trials=20)) == max(sizes)


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
        assert clique == reference_clique(g, 1, 0)

    def test_unknown_mode_rejected_before_any_trial(self):
        with pytest.raises(ValueError, match="mode 'x'"):
            find_clique(families.complete(3), 3, "x", seed=0)

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError, match="no vertices"):
            find_clique(families.empty(0), 1, "e", seed=0)

    def test_zero_trials_raise(self):
        g = gnp_random(15, 0.5, 2)
        ub, _ = greedy_upper_bound(g)
        with pytest.raises(ValueError, match="at least one trial"):
            find_clique(g, ub, "e", 0, trials=0)


@st.composite
def small_graphs(draw, max_n=14):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, kept in zip(pairs, keep) if kept])


MASK = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15
# any int seeds the search; seed and seed + 2**64 share a stream
SEEDS = st.integers(-10_000, 10_000) | st.integers(-2**70, 2**70)


def splitmix64_int(x):
    """SplitMix64's output function on state x, in Python ints."""
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
    return z ^ (z >> 31)


def reference_clique(g, seed, t):
    """Trial t alone, in Python ints: step s draws from state
    key + gamma*(t*n + s) and picks among the candidates, re-sorted for
    every draw."""
    key = splitmix64_int(seed % 2**64)

    def draw(s, options):
        z = splitmix64_int((key + GAMMA * (t * g.n + s)) & MASK)
        return options[(z >> 32) * len(options) >> 32]

    clique = [draw(0, range(g.n))]
    candidates = set(g.adjacency[clique[0]])
    while candidates:
        v = draw(len(clique), sorted(candidates))
        clique.append(v)
        candidates &= g.adjacency[v]
    return tuple(sorted(clique))


def reference_score(g, clique, upper_bound, mode):
    """Mode 'c' scores |Q|; mode 'e' scores |Q|*H plus the edges leaving Q."""
    if mode == "c":
        return len(clique)
    return len(clique) * upper_bound + len(boundary_edges(g, clique))


def reference_find_clique(g, upper_bound, mode, seed, trials):
    """The trial loop as first written: every trial, the first best score wins."""
    best, best_score = None, -1
    for t in range(trials):
        clique = reference_clique(g, seed, t)
        score = reference_score(g, clique, upper_bound, mode)
        if score > best_score:
            best, best_score = clique, score
    return best


def planned_trials(g):
    return max(1, math.ceil(300 * g.m / g.n))


def cocktail_party(n):
    """The complete graph on 2n vertices less the matching 2i -- 2i + 1: every
    maximal clique takes one end of each pair, n members drawn one by one."""
    return Graph.from_edges(2 * n, [(u, v) for u in range(2 * n) for v in range(u + 1, 2 * n)
                                    if v != u + 1 or u % 2])


@pytest.fixture
def grown_trials(monkeypatch):
    """Every trial the clique search grows, over all its blocks."""
    grown, grow = [], preprocess._grow_cliques

    def spy(adj, key, trials):
        grown.extend(trials)
        return grow(adj, key, trials)

    monkeypatch.setattr(preprocess, "_grow_cliques", spy)
    return grown


class TestFindCliqueAgainstReference:
    @settings(max_examples=150)
    @given(small_graphs(), SEEDS, st.sampled_from("ce"), st.integers(1, 30),
           st.integers(1, 14))
    def test_same_first_best_clique(self, g, seed, mode, trials, upper_bound):
        want = reference_find_clique(g, upper_bound, mode, seed, trials)
        assert find_clique(g, upper_bound, mode, seed, trials=trials) == want

    @settings(max_examples=12)
    @given(small_graphs(), SEEDS, st.sampled_from("ce"),
           st.integers(CLIQUE_BLOCK - 2, 2 * CLIQUE_BLOCK + 5))
    def test_same_clique_across_blocks(self, g, seed, mode, trials):
        # no clique of a graph short of complete has n members, so every block runs
        want = reference_find_clique(g, g.n, mode, seed, trials)
        assert find_clique(g, g.n, mode, seed, trials=trials) == want

    @pytest.mark.parametrize("g", [families.complete(70), cocktail_party(75)],
                             ids=["complete", "cocktail_party"])
    def test_same_clique_on_long_trials(self, g):
        # every trial takes 70 or 75 steps, far more than the small graphs do
        for seed in range(3):
            for mode in "ce":
                want = reference_find_clique(g, g.n, mode, seed, 3)
                assert find_clique(g, g.n, mode, seed, trials=3) == want

    @given(small_graphs(), st.integers(0, 10_000))
    def test_degree_sum_counts_the_boundary(self, g, seed):
        clique = find_clique(g, 1, "c", seed, trials=1)
        k = len(clique)
        degree_sum = sum(g.degree(v) for v in clique)
        assert len(boundary_edges(g, clique)) == degree_sum - k * (k - 1)


class TestCliqueStreams:
    def test_splitmix64_gives_the_published_outputs(self):
        # the first three outputs of SplitMix64 from state 0
        states = np.array([GAMMA, 2 * GAMMA & MASK, 3 * GAMMA & MASK], dtype=np.uint64)
        assert splitmix64(states).tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                               0x06C45D188009454F]

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    @pytest.mark.parametrize("words", [1, 2, 5, 64])
    def test_bulk_bits_are_successive_outputs(self, seed, words):
        # the draws of trial 3 on `words` vertices, computed in numpy at once,
        # are successive outputs of one SplitMix64 generator run in Python ints
        key = splitmix64(np.array([seed], dtype=np.uint64))
        steps = np.arange(3 * words, 4 * words, dtype=np.uint64)
        bulk = splitmix64(key + SPLITMIX64_GAMMA * steps)
        state = (int(key[0]) + 3 * words * GAMMA) & MASK
        one_by_one = []
        for _ in range(words):
            one_by_one.append(splitmix64_int(state))
            state = (state + GAMMA) & MASK
        assert int(key[0]) == splitmix64_int(seed)
        assert bulk.tolist() == one_by_one

    @pytest.mark.parametrize("mode", "ce")
    def test_zero_budget_keeps_the_first_block(self, mode):
        g = gnp_random(30, 0.5, 1)
        ub, _ = greedy_upper_bound(g)
        assert planned_trials(g) > CLIQUE_BLOCK
        assert (find_clique(g, ub, mode, 4, time_budget=0)
                == find_clique(g, ub, mode, 4, trials=min(CLIQUE_BLOCK, planned_trials(g))))

    def test_search_stops_once_the_clique_meets_the_bound(self, grown_trials):
        g = families.complete(12)
        assert planned_trials(g) > CLIQUE_BLOCK
        inst = preprocess_pipeline(g, seed=3)
        assert inst.solved_in_preprocessing
        assert len(set(grown_trials)) == len(grown_trials) == CLIQUE_BLOCK

    def test_search_runs_every_trial_when_it_cannot_settle(self, grown_trials):
        g = gnp_random(45, 0.5, 0)
        inst = preprocess_pipeline(g, seed=0)
        assert not inst.solved_in_preprocessing
        assert len(set(grown_trials)) == planned_trials(inst.reduced.graph) > CLIQUE_BLOCK


def reference_pipeline(g, mode, seed):
    """The pipeline written out with no early stop: the clique search runs
    every planned trial, then TabuCol descends from H, floored at |Q|."""
    reduced = remove_dominated(g)
    upper_bound, coloring = greedy_upper_bound(reduced.graph)
    clique = reference_find_clique(reduced.graph, upper_bound, mode, seed,
                                   planned_trials(reduced.graph))
    rng = random.Random(f"tabucol:{seed}")
    while upper_bound > len(clique):
        fewer = tabucol(reduced.graph, coloring, upper_bound - 1, rng)
        if fewer is None:
            break
        upper_bound, coloring = fewer.num_colors, fewer
    anchor = max(clique, key=lambda v: (reduced.graph.degree(v), -v))
    return clique, anchor, upper_bound, coloring


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

    @given(small_graphs(max_n=12), st.integers(0, 10_000))
    def test_upper_bound_is_a_coloring_and_repeats(self, g, seed):
        inst = preprocess_pipeline(g, seed=seed, clique_time_budget=5)
        report = verify_coloring(inst.reduced.graph, inst.greedy_coloring)
        assert report.valid and report.colors_used == inst.upper_bound
        assert inst.lower_bound <= chromatic_number_exact(g).chi <= inst.upper_bound
        assert inst.solved_in_preprocessing == (inst.lower_bound == inst.upper_bound)
        again = preprocess_pipeline(g, seed=seed, clique_time_budget=5)
        assert (again.upper_bound, again.greedy_coloring) == (inst.upper_bound,
                                                              inst.greedy_coloring)

    @settings(max_examples=30)
    @given(small_graphs(max_n=12), st.integers(0, 10_000), st.sampled_from("ce"))
    def test_matches_the_full_search(self, g, seed, mode):
        clique, anchor, upper_bound, coloring = reference_pipeline(g, mode, seed)
        inst = preprocess_pipeline(g, mode=mode, seed=seed)
        assert (inst.upper_bound, inst.greedy_coloring) == (upper_bound, coloring)
        assert inst.solved_in_preprocessing == (len(clique) == upper_bound)
        if not inst.solved_in_preprocessing:
            assert (inst.clique, inst.anchor) == (clique, anchor)

    @pytest.mark.parametrize("budget", [math.nan, -1, 0, math.inf])
    def test_clique_budget_is_read_as_the_clis_read_it(self, budget):
        with pytest.raises(TimeLimitError):
            preprocess_pipeline(gnp_random(60, 0.5, 1), clique_time_budget=budget)

    def test_anchor_in_clique(self):
        for seed in range(8):
            g = gnp_random(12, 0.5, seed)
            inst = preprocess_pipeline(g, seed=seed, clique_time_budget=1)
            assert inst.anchor in inst.clique
            degree = inst.reduced.graph.degree
            assert all(degree(inst.anchor) >= degree(v) for v in inst.clique)


# Cliques and pipeline results pinned on the draw contract of `find_clique`
# (step s of trial t draws SplitMix64 at key + gamma*(t*n + s) and picks
# among the ascending candidates). Any change to the search that moves one of
# these moves LP bytes and HiGHS runs downstream.
# name: (function that makes the graph, seed)
GOLDEN_GRAPHS = {
    **{f"gnp{n}_{p}_s{s}": (lambda n=n, p=p, s=s: gnp_random(n, p, s), s)
       for (p, sizes) in ((0.5, (45, 40, 35)), (0.7, (35, 30, 25)), (0.9, (30, 25, 20)))
       for s, n in enumerate(sizes)},
    "petersen": (families.petersen, 0),
    "1-FullIns_3": (lambda: families.full_insertion(1, 3), 0),
}

# name: (mode-c clique, mode-e clique, pipeline (clique, anchor, lb, ub))
GOLDEN_CLIQUES = {
    "gnp45_0.5_s0": ((2, 4, 7, 10, 17, 22, 39), (2, 7, 8, 10, 29, 36, 39),
                     ((2, 7, 10, 22, 29, 36, 39), 39, 7, 9)),
    "gnp40_0.5_s1": ((7, 14, 16, 21, 23, 27, 38), (1, 7, 16, 27, 29, 34, 38),
                     ((1, 7, 16, 27, 29, 34, 38), 16, 7, 9)),
    "gnp35_0.5_s2": ((1, 5, 9, 14, 18, 28), (0, 5, 10, 13, 17, 23),
                     ((0, 5, 10, 13, 17, 23), 17, 6, 7)),
    "gnp35_0.7_s0": ((0, 1, 4, 9, 14, 17, 19, 27, 30, 31), (0, 3, 8, 9, 11, 16, 27, 29, 33, 34),
                     ((0, 3, 8, 9, 11, 16, 27, 29, 33, 34), 0, 10, 11)),
    "gnp30_0.7_s1": ((0, 1, 6, 7, 11, 16, 17, 23, 25), (0, 1, 6, 7, 11, 16, 17, 23, 25),
                     ((0, 1, 6, 7, 11, 16, 17, 23, 25), 7, 9, 10)),
    "gnp25_0.7_s2": ((2, 8, 10, 15, 18, 21, 22, 23), (3, 4, 6, 7, 12, 14, 21, 24),
                     ((3, 4, 6, 7, 12, 14, 21, 24), 6, 8, 8)),
    "gnp30_0.9_s0": ((0, 1, 2, 4, 7, 8, 10, 12, 14, 15, 17, 19, 24, 27, 28),
                     (0, 1, 2, 4, 7, 8, 12, 14, 15, 16, 19, 24, 26, 27, 28),
                     ((0, 1, 2, 4, 7, 8, 11, 13, 14, 15, 18, 23, 25, 26, 27), 1, 15, 15)),
    "gnp25_0.9_s1": ((0, 1, 2, 3, 5, 7, 8, 9, 11, 12, 17, 18, 20, 21, 23),
                     (0, 1, 2, 3, 5, 7, 8, 9, 11, 12, 17, 18, 20, 21, 23),
                     ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14), 0, 15, 15)),
    "gnp20_0.9_s2": ((0, 2, 3, 4, 5, 6, 7, 8, 10, 13, 14, 16, 17),
                     (0, 2, 3, 4, 5, 6, 7, 8, 10, 11, 13, 14, 18),
                     ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 0, 13, 13)),
    "petersen": ((0, 5), (0, 5), ((0, 5), 0, 2, 3)),
    "1-FullIns_3": ((6, 7, 8, 27), (6, 7, 8, 27), ((0, 1, 2, 5), 5, 4, 4)),
}


class TestGoldenCliques:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CLIQUES))
    def test_cliques_and_pipeline_are_pinned(self, name):
        build, seed = GOLDEN_GRAPHS[name]
        g = build()
        want_c, want_e, want_pipeline = GOLDEN_CLIQUES[name]
        ub, _ = greedy_upper_bound(g)
        assert find_clique(g, ub, "c", seed, trials=400) == want_c
        assert find_clique(g, ub, "e", seed, trials=400) == want_e
        inst = preprocess_pipeline(g, seed=seed)
        assert (inst.clique, inst.anchor, inst.lower_bound, inst.upper_bound) == want_pipeline
