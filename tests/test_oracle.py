import random

import pytest

from chromatic import families
from chromatic.graph import Graph, gnp_random, verify_coloring
from chromatic.preprocess import greedy_upper_bound
from ground_truth import OracleCapExceeded, chromatic_number_exact, is_k_colorable


def test_odd_cycle():
    c5 = families.cycle(5)
    assert is_k_colorable(c5, 2) == (False, None)
    ok, witness = is_k_colorable(c5, 3)
    assert ok and verify_coloring(c5, witness).valid


def test_petersen_needs_three():
    g = families.petersen()
    assert is_k_colorable(g, 2)[0] is False
    ok, witness = is_k_colorable(g, 3)
    assert ok and witness.num_colors == 3


def test_empty_graph_chi_one():
    assert chromatic_number_exact(families.empty(7)).chi == 1


def test_complete_graph():
    result = chromatic_number_exact(families.complete(6))
    assert result.chi == 6
    assert verify_coloring(families.complete(6), result.witness).valid


def test_witness_is_valid_and_tight():
    for seed in range(8):
        g = gnp_random(10, 0.5, seed)
        result = chromatic_number_exact(g)
        report = verify_coloring(g, result.witness)
        assert report.valid and report.colors_used == result.chi
        ok_below, _ = is_k_colorable(g, result.chi - 1) if result.chi > 1 else (False, None)
        assert not ok_below


def test_monotone_in_k():
    for seed in range(5):
        g = gnp_random(9, 0.6, seed)
        chi = chromatic_number_exact(g).chi
        for k in range(1, 9):
            assert is_k_colorable(g, k)[0] == (k >= chi)


def test_chi_between_greedy_bounds():
    for seed in range(6):
        g = gnp_random(11, 0.4, seed)
        chi = chromatic_number_exact(g).chi
        upper, _ = greedy_upper_bound(g)
        assert chi <= upper <= g.n


def test_isomorphism_invariance():
    rng = random.Random(17)
    for seed in range(4):
        g = gnp_random(9, 0.5, seed)
        perm = list(range(g.n))
        rng.shuffle(perm)
        shuffled = Graph.from_edges(g.n, [(perm[u], perm[v]) for (u, v) in g.edges])
        assert chromatic_number_exact(g).chi == chromatic_number_exact(shuffled).chi


def test_witnesses_verify_on_hundred_graphs():
    for seed in range(100):
        g = gnp_random(6 + seed % 7, (0.2, 0.45, 0.7)[seed % 3], seed)
        result = chromatic_number_exact(g)
        report = verify_coloring(g, result.witness)
        assert report.valid and report.colors_used == result.chi


def test_cap_enforced():
    with pytest.raises(OracleCapExceeded):
        chromatic_number_exact(families.empty(26))
    chromatic_number_exact(families.empty(26), cap=30)


def test_bad_k():
    with pytest.raises(ValueError):
        is_k_colorable(families.empty(3), 0)
