import pytest
from hypothesis import given
from hypothesis import strategies as st

from chromatic.graph import (Coloring, ColoringError, DimacsError, Graph,
                             gnp_random, parse_dimacs, verify_coloring,
                             write_dimacs)
from chromatic import families


def small_graphs():
    return st.integers(1, 9).flatmap(
        lambda n: st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]),
            max_size=n * (n - 1) // 2,
        ).map(lambda edges: Graph.from_edges(n, edges)))


class TestGraphType:
    def test_canonical_edges(self):
        g = Graph.from_edges(4, [(3, 1), (1, 3), (0, 2)])
        assert g.edges == ((0, 2), (1, 3))
        assert g.m == 2

    def test_adjacency_symmetric(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        for (u, v) in g.edges:
            assert v in g.adjacency[u] and u in g.adjacency[v]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(0, 2)])


class TestParseDimacs:
    def test_basic(self):
        g = parse_dimacs("p edge 3 2\ne 1 2\ne 2 3")
        assert g.n == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_no_edges(self):
        g = parse_dimacs("p edge 2 0")
        assert g.n == 2 and g.edges == ()

    def test_comments_and_blank_lines(self):
        g = parse_dimacs("c hello\n\np edge 2 1\nc mid\ne 1 2\n")
        assert g.m == 1

    def test_duplicate_and_reversed_records_collapse(self):
        g = parse_dimacs("p edge 3 3\ne 1 2\ne 2 1\ne 1 2")
        assert g.edges == ((0, 1),)

    def test_missing_problem_line(self):
        with pytest.raises(DimacsError, match="missing problem line"):
            parse_dimacs("c only a comment")
        with pytest.raises(DimacsError, match="line 1: edge before problem"):
            parse_dimacs("e 1 2\np edge 2 1")

    def test_duplicate_problem_line(self):
        with pytest.raises(DimacsError, match="line 2: duplicate"):
            parse_dimacs("p edge 2 1\np edge 2 1\ne 1 2")

    def test_vertex_out_of_range(self):
        with pytest.raises(DimacsError, match=r"line 2: vertex id out of range \[1,2\]"):
            parse_dimacs("p edge 2 1\ne 1 3")

    def test_self_loop_is_hard_error(self):
        with pytest.raises(DimacsError, match="line 2: self-loop"):
            parse_dimacs("p edge 2 1\ne 1 1")

    def test_malformed_token(self):
        with pytest.raises(DimacsError, match="line 2: malformed edge"):
            parse_dimacs("p edge 2 1\ne 1 x")
        with pytest.raises(DimacsError, match="line 2: malformed edge"):
            parse_dimacs("p edge 2 1\ne 1 2 7")

    def test_unknown_line_kind(self):
        with pytest.raises(DimacsError, match="line 2: unrecognized"):
            parse_dimacs("p edge 2 1\nq 1 2")

    def test_no_vertices_rejected(self):
        with pytest.raises(DimacsError, match="line 2: problem line declares no vertices"):
            parse_dimacs("c empty\np edge 0 0\n")

    def test_record_count_mismatch(self):
        with pytest.raises(DimacsError, match="declared 2 edges but found 1"):
            parse_dimacs("p edge 3 2\ne 1 2")


class TestWriteDimacs:
    def test_single_vertex(self):
        assert write_dimacs(Graph.from_edges(1, ())) == "p edge 1 0\n"

    def test_triangle(self):
        text = write_dimacs(families.complete(3))
        assert text == "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"

    def test_comment_lines(self):
        text = write_dimacs(Graph.from_edges(1, ()), comments=["seed=7 p=0.5"])
        assert text.startswith("c seed=7 p=0.5\np edge 1 0")

    def test_round_trip_generated(self):
        g = gnp_random(10, 0.5, seed=7)
        assert parse_dimacs(write_dimacs(g)) == g

    @given(small_graphs())
    def test_round_trip_property(self, g):
        assert parse_dimacs(write_dimacs(g)) == g


class TestGnpRandom:
    def test_p_zero_empty(self):
        assert gnp_random(5, 0.0, seed=3).m == 0

    def test_p_one_complete(self):
        assert gnp_random(5, 1.0, seed=3).m == 10

    def test_reproducible(self):
        assert gnp_random(15, 0.4, seed=9) == gnp_random(15, 0.4, seed=9)

    def test_seed_changes_output(self):
        assert gnp_random(15, 0.4, seed=9) != gnp_random(15, 0.4, seed=10)

    def test_edge_count_within_binomial_bounds(self):
        # mean 1207.5, sigma ~24.6 for 2415 fair-coin pairs; +-4 sigma window
        g = gnp_random(70, 0.5, seed=42)
        assert 966 <= g.m <= 1449

    def test_p_out_of_range(self):
        with pytest.raises(ValueError, match="p must be"):
            gnp_random(5, 1.5, seed=0)


class TestVerifyColoring:
    def test_valid_triangle(self):
        report = verify_coloring(families.complete(3), Coloring((1, 2, 3)))
        assert report.valid and report.colors_used == 3 and not report.violating_edges

    def test_invalid_triangle(self):
        report = verify_coloring(families.complete(3), Coloring((1, 1, 2)))
        assert not report.valid
        assert report.violating_edges == ((0, 1),)

    def test_partial_coloring_is_error(self):
        with pytest.raises(ColoringError, match="covers 2 vertices"):
            verify_coloring(families.complete(3), Coloring((1, 2)))

    def test_bad_color_value(self):
        with pytest.raises(ColoringError):
            Coloring((1, 0, 2))
