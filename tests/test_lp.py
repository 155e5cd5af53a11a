import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chromatic import families
from chromatic.graph import gnp_random
from chromatic.lp import LpParseError, emit_lp, parse_lp
from chromatic.models import (apply_clique_fixings, build_ass, build_ass_s,
                              build_formulation, build_pop, build_pop2,
                              build_rep)
from chromatic.preprocess import greedy_upper_bound, preprocess_pipeline


def random_model(seed: int):
    rng = random.Random(seed)
    g = gnp_random(rng.randint(2, 12), rng.choice([0.2, 0.5, 0.8]), seed)
    upper, _ = greedy_upper_bound(g)
    kind = rng.choice(["ass-s", "ass", "pop", "pop2", "rep"])
    if kind in ("pop", "pop2") and upper < 2:
        kind = "ass"
    anchor = rng.randrange(g.n)
    if kind == "ass-s":
        model = build_ass_s(g, upper)
    elif kind == "ass":
        model = build_ass(g, upper)
    elif kind == "pop":
        model = build_pop(g, upper, anchor)
    elif kind == "pop2":
        model = build_pop2(g, upper, anchor)
    else:
        model = build_rep(g)
    if rng.random() < 0.5:
        inst = preprocess_pipeline(g, seed=seed, clique_time_budget=0.5)
        model = apply_clique_fixings(build_formulation(model.kind, inst), inst)
    return model


class TestEmit:
    def test_single_vertex_shape(self):
        text = emit_lp(build_ass_s(families.empty(1), 1))
        assert "Minimize" in text and "Subject To" in text and "Binaries" in text
        assert " assign_0: x_0_1 = 1" in text
        binaries_line = text.split("Binaries\n")[1].splitlines()[0]
        assert binaries_line.split() == ["x_0_1", "w_1"]

    def test_snapshot_small_pop(self):
        g = families.complete(2)
        text = emit_lp(build_pop(g, 2, anchor=0))
        assert text == (
            "\\ model: pop\n"
            "\\ offset: 1\n"
            "Minimize\n"
            " obj: y_1_0\n"
            "Subject To\n"
            " edge_0_1_1: y_1_0 + y_1_1 >= 1\n"
            " edge_0_1_2: y_1_0 + y_1_1 <= 1\n"
            " anchor_1_1: y_1_0 - y_1_1 >= 0\n"
            "Binaries\n"
            " y_1_0 y_1_1\n"
            "End\n")

    def test_deterministic_bytes(self):
        a = emit_lp(build_ass(gnp_random(10, 0.5, 3), 5))
        b = emit_lp(build_ass(gnp_random(10, 0.5, 3), 5))
        assert a == b

    def test_fixings_become_bounds(self):
        g = families.complete(3)
        inst = preprocess_pipeline(g, seed=0, clique_time_budget=0.5)
        m = apply_clique_fixings(build_formulation("rep", inst), inst)
        text = emit_lp(m)
        assert "Bounds" in text
        assert " r_0_0 = 1" in text

    def test_pop_variable_inventory(self):
        text = emit_lp(build_pop(families.complete(3), 3, anchor=0))
        binaries = text.split("Binaries\n")[1].split("End")[0].split()
        assert len(binaries) == (3 - 1) * 3
        assert all(name.startswith("y_") for name in binaries)


class TestParseBack:
    @pytest.mark.parametrize("seed", range(50))
    def test_emit_parse_round_trip(self, seed):
        model = random_model(seed)
        parsed = parse_lp(emit_lp(model))
        assert parsed.minimize
        assert parsed.offset == model.offset
        assert parsed.objective == model.objective
        assert [(c.name, c.terms, c.sense, c.rhs) for c in parsed.constraints] == \
            [(c.name, c.terms, c.sense, c.rhs) for c in model.constraints]
        assert parsed.variables == model.variables
        assert parsed.num_binary == len(model.variables)
        assert parsed.bounds == {name: (float(v), float(v))
                                 for name, v in model.fixings.items()}

    @pytest.mark.parametrize("text", [
        "Maximize\n obj: x + y\nSubject To\n c: x + y <= 1\nBounds\n 0 <= y <= 5\n"
        "Binaries\n x\nEnd\n",
        "Minimize\n obj: x\nSubject To\n c: x - 2.5 y >= -3\nBounds\n -2 <= y <= 4.5\n"
        " z free\n x = 1\nEnd\n",
    ], ids=["maximize-bounded-continuous", "free-and-fixed-no-binaries"])
    def test_parsed_model_round_trip(self, text):
        def content(m):
            return (m.kind, m.variables, m.objective, m.offset, m.bounds, m.num_binary,
                    m.minimize, [(c.name, c.terms, c.sense, c.rhs) for c in m.constraints])

        parsed = parse_lp(text)
        assert content(parse_lp(emit_lp(parsed))) == content(parsed)

    def test_emit_keeps_sense_bounds_and_continuous_columns(self):
        text = emit_lp(parse_lp("Maximize\n obj: x + y\nSubject To\n c: x + y <= 1\n"
                                "Bounds\n 0 <= y <= 5\nBinaries\n x\nEnd\n"))
        assert "Maximize" in text and "Minimize" not in text
        assert text.split("Bounds\n")[1].split("Binaries")[0] == " 0 <= y <= 5\n"
        assert text.split("Binaries\n")[1] == " x\nEnd\n"

    def test_long_lines_wrap_and_rejoin(self):
        g = gnp_random(60, 0.3, 1)
        model = build_ass(g, 8)
        text = emit_lp(model)
        assert all(len(line) <= 200 for line in text.splitlines())
        parsed = parse_lp(text)
        use_rows = [c for c in parsed.constraints if c.name == "use_1"]
        assert len(use_rows) == 1
        assert len(use_rows[0].terms) == 1 + g.n


class TestParserFlexibility:
    def test_keyword_variants(self):
        text = ("MINIMIZE\n obj: x + 2 y\n"
                "s.t.\n c1: x + y <= 1\n"
                "BOUNDS\n x = 1\n"
                "BINARY\n x y\nEND\n")
        parsed = parse_lp(text)
        assert parsed.objective == (("x", 1.0), ("y", 2.0))
        assert parsed.constraints[0].sense == "<="
        assert parsed.bounds == {"x": (1.0, 1.0)}

    def test_unnamed_constraint(self):
        parsed = parse_lp("Minimize\n x\nSubject To\n x + y >= 1\nEnd\n")
        assert parsed.constraints[0].name == "c0"

    def test_inline_comment_stripped(self):
        parsed = parse_lp("Minimize\n obj: x \\ cost\nSubject To\n c: x >= 0\nEnd\n")
        assert parsed.objective == (("x", 1.0),)

    def test_alternative_senses(self):
        parsed = parse_lp("Minimize\n x\nSubject To\n a: x =< 1\n b: x => 0\nEnd\n")
        assert parsed.constraints[0].sense == "<="
        assert parsed.constraints[1].sense == ">="


class TestParserErrors:
    def test_content_before_section(self):
        with pytest.raises(LpParseError, match="line 1"):
            parse_lp("x + y <= 1\n")

    def test_missing_sense(self):
        with pytest.raises(LpParseError, match="without sense"):
            parse_lp("Minimize\n x\nSubject To\n c1: x + y\nEnd\n")

    def test_bad_rhs(self):
        with pytest.raises(LpParseError, match="right-hand side"):
            parse_lp("Minimize\n x\nSubject To\n c1: x <= frog\nEnd\n")

    def test_bad_bound(self):
        with pytest.raises(LpParseError, match="cannot parse bound"):
            parse_lp("Minimize\n x\nSubject To\n c: x >= 0\nBounds\n ???\nEnd\n")

    def test_content_after_end(self):
        with pytest.raises(LpParseError, match="after End"):
            parse_lp("Minimize\n x\nSubject To\n c: x >= 0\nEnd\n x >= 2\n")

    def test_empty_input(self):
        with pytest.raises(LpParseError, match="no LP content"):
            parse_lp("\\ nothing here\n")

    @given(st.text(alphabet=st.characters(min_codepoint=9, max_codepoint=126),
                   max_size=400))
    def test_fuzz_never_raises_other_exceptions(self, text):
        try:
            parse_lp(text)
        except LpParseError:
            pass
