import pytest

from chromatic import families
from chromatic.graph import parse_dimacs, write_dimacs
from ground_truth import chromatic_number_exact, is_k_colorable

# published sizes of the k-FullIns_l DIMACS COLOR instances
PUBLISHED_FULLINS_SIZES = {
    (1, 3): (30, 100), (1, 4): (93, 593), (1, 5): (282, 3247),
    (2, 4): (212, 1621), (2, 5): (852, 12201),
    (3, 3): (80, 346), (3, 4): (405, 3524), (3, 5): (2030, 33751),
    (4, 3): (114, 541), (4, 4): (690, 6650), (4, 5): (4146, 77305),
    (5, 3): (154, 792), (5, 4): (1085, 11395),
}


def test_basic_families():
    assert families.complete(4).m == 6
    assert families.cycle(5).m == 5
    assert families.path(4).edges == ((0, 1), (1, 2), (2, 3))
    assert families.star(3).edges == ((0, 1), (0, 2), (0, 3))
    assert families.empty(5).m == 0
    assert families.complete_bipartite(3, 3).m == 9


def test_petersen():
    g = families.petersen()
    assert (g.n, g.m) == (10, 15)
    assert all(g.degree(v) == 3 for v in range(10))
    assert chromatic_number_exact(g).chi == 3


@pytest.mark.parametrize("kl,size", sorted(PUBLISHED_FULLINS_SIZES.items()))
def test_full_insertion_matches_published_sizes(kl, size):
    g = families.full_insertion(*kl)
    assert (g.n, g.m) == size


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_full_insertion_small_chromatic_numbers(k):
    g = families.full_insertion(k, 2)
    assert chromatic_number_exact(g).chi == k + 2


def test_full_insertion_level_three_chromatic_number():
    g = families.full_insertion(1, 3)
    ok3, _ = is_k_colorable(g, 3, cap=g.n)
    ok4, witness = is_k_colorable(g, 4, cap=g.n)
    assert not ok3 and ok4
    assert witness is not None and witness.num_colors == 4


def test_full_insertion_dimacs_round_trip():
    g = families.full_insertion(1, 4)
    parsed = parse_dimacs(write_dimacs(g))
    assert (parsed.n, parsed.m) == (93, 593)
    assert parsed == g


def test_full_insertion_rejects_bad_parameters():
    with pytest.raises(ValueError):
        families.full_insertion(0, 3)
