import random
import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chromatic import families
from chromatic.graph import gnp_random
from chromatic.lp import LpParseError, emit_lp, parse_lp
from chromatic.models import (apply_clique_fixings, build_ass, build_ass_s,
                              build_pop, build_pop2,
                              build_rep, check_feasible, model_stats)
from chromatic.preprocess import greedy_upper_bound, preprocess_pipeline
from conftest import build_with_h_colors, row, stacked_rows


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
        model = apply_clique_fixings(build_with_h_colors(model.kind, inst), inst)
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
        m = apply_clique_fixings(build_with_h_colors("rep", inst), inst)
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
        assert [block.family for block in parsed.blocks] == ["lp"]
        assert parsed.variables == model.variables
        assert stacked_rows(parsed) == stacked_rows(model)
        assert parsed.num_binary == model.num_binary == len(model.variables)
        assert parsed.bounds == model.bounds
        assert parsed.fixings == model.fixings
        assert model_stats(parsed) == model_stats(model)

    @pytest.mark.parametrize("text", [
        "Maximize\n obj: x + y\nSubject To\n c: x + y <= 1\nBounds\n 0 <= y <= 5\n"
        "Binaries\n x\nEnd\n",
        "Minimize\n obj: x\nSubject To\n c: x - 2.5 y >= -3\nBounds\n -2 <= y <= 4.5\n"
        " z free\n x = 1\nEnd\n",
        "Minimize\n obj: x + y + z\nSubject To\n c: x + y + z >= 1\nBounds\n x >= 2\n y <= 3\n"
        " -inf <= z <= 4\nEnd\n",
        "Minimize\n obj: 0 x + y\nSubject To\n c: 0 x + y >= 1\nEnd\n",
    ], ids=["maximize-bounded-continuous", "free-and-fixed-no-binaries", "one-sided",
            "leading-zero-coefficient"])
    def test_parsed_model_round_trip(self, text):
        def content(m):
            # repr, unlike ==, tells -0.0 from 0.0
            return repr((m.kind, m.variables, m.objective, m.offset, sorted(m.bounds.items()),
                         m.num_binary, m.minimize, stacked_rows(m)))

        parsed = parse_lp(text)
        assert content(parse_lp(emit_lp(parsed))) == content(parsed)

    def test_emit_keeps_sense_bounds_and_continuous_columns(self):
        text = emit_lp(parse_lp("Maximize\n obj: x + y\nSubject To\n c: x + y <= 1\n"
                                "Bounds\n 0 <= y <= 5\nBinaries\n x\nEnd\n"))
        assert "Maximize" in text and "Minimize" not in text
        assert text.split("Bounds\n")[1].split("Binaries")[0] == " 0 <= y <= 5\n"
        assert text.split("Binaries\n")[1] == " x\nEnd\n"

    def test_check_feasible_reads_every_bound(self):
        m = parse_lp("Minimize\n obj: y\nSubject To\n c: y >= 1\nBounds\n y <= 5\n x = 1\n"
                     "Binaries\n x\nEnd\n")
        assert check_feasible(m, {"x": 1, "y": 3}) == []
        assert check_feasible(m, {"x": 1, "y": 7}) == ["bound:y"]
        assert check_feasible(m, {"x": 0, "y": 3}) == ["bound:x"]

    def test_long_lines_wrap_and_rejoin(self):
        g = gnp_random(60, 0.3, 1)
        model = build_ass(g, 8)
        text = emit_lp(model)
        assert all(len(line) <= 200 for line in text.splitlines())
        parsed = parse_lp(text)
        assert parsed.blocks[0].names().count("use_1") == 1
        terms, _, _ = row(parsed, "use_1")
        assert len(terms) == 1 + g.n


class TestParserFlexibility:
    def test_keyword_variants(self):
        text = ("MINIMIZE\n obj: x + 2 y\n"
                "s.t.\n c1: x + y <= 1\n"
                "BOUNDS\n x = 1\n"
                "BINARY\n x y\nEND\n")
        parsed = parse_lp(text)
        assert parsed.objective == (("x", 1.0), ("y", 2.0))
        assert row(parsed, "c1")[1] == "<="
        assert parsed.bounds == {"x": (1.0, 1.0)}

    def test_unnamed_constraint(self):
        parsed = parse_lp("Minimize\n x\nSubject To\n x + y >= 1\nEnd\n")
        assert parsed.blocks[0].names()[0] == "c0"

    def test_two_unnamed_constraints(self):
        parsed = parse_lp("Minimize\n x\nSubject To\n x + y >= 1\n x - y <= 0\nEnd\n")
        assert parsed.blocks[0].names() == ["c0", "c1"]
        assert [row(parsed, name) for name in ("c0", "c1")] == [
            ((("x", 1.0), ("y", 1.0)), ">=", 1.0),
            ((("x", 1.0), ("y", -1.0)), "<=", 0.0)]

    def test_inline_comment_stripped(self):
        parsed = parse_lp("Minimize\n obj: x \\ cost\nSubject To\n c: x >= 0\nEnd\n")
        assert parsed.objective == (("x", 1.0),)

    def test_alternative_senses(self):
        parsed = parse_lp("Minimize\n x\nSubject To\n a: x =< 1\n b: x => 0\nEnd\n")
        assert row(parsed, "a")[1] == "<="
        assert row(parsed, "b")[1] == ">="


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

    @pytest.mark.parametrize("bound", ["0 <= x <= 5", "x >= -2"])
    def test_bound_cannot_widen_a_binary(self, bound):
        with pytest.raises(LpParseError, match=r"line 6: bound -?\d+ on binary column x "
                                               r"is outside \[0, 1\]"):
            parse_lp(f"Maximize\n obj: x\nSubject To\n c: x <= 5\nBounds\n {bound}\n"
                     "Binaries\n x\nEnd\n")

    @pytest.mark.parametrize("keyword", ["Generals", "Integers", "Semi-continuous"])
    def test_unsupported_section_refused(self, keyword):
        with pytest.raises(LpParseError, match=f"line 5: section '{keyword}' is not supported"):
            parse_lp(f"Maximize\n obj: x\nSubject To\n c: x <= 5\n{keyword}\n x\nEnd\n")

    @pytest.mark.parametrize("text", [
        "\u017ft\n",
        "Minimize\n x\nSubject To\n c: x >= 1\nBounds\n x <= \u0131nf\nEnd\n",
    ], ids=["long-s-header", "dotless-i-inf"])
    def test_unicode_case_folds_are_not_keywords(self, text):
        with pytest.raises(LpParseError):
            parse_lp(text)

    def test_failing_row_is_refused_in_linear_time(self):
        # Each "2e5x" reads as 2e5 x or as 2 e5x: trying every split of 24
        # such terms before giving up would take minutes.
        row = " + ".join(["2e5x"] * 24)
        started = time.perf_counter()
        with pytest.raises(LpParseError, match="right-hand side"):
            parse_lp(f"Minimize\n x\nSubject To\n c: {row} >= abc\nEnd\n")
        assert time.perf_counter() - started < 1.0

    @given(st.text(alphabet=st.characters(min_codepoint=9, max_codepoint=126),
                   max_size=400))
    def test_fuzz_never_raises_other_exceptions(self, text):
        try:
            parse_lp(text)
        except LpParseError:
            pass

    @given(st.lists(st.sampled_from([
        "Minimize", "Subject To", "Bounds", "Binaries", "End", "\n", " ", "x", "c:", "<=",
        ">=", "=", "1", "inf", "free", "+", "-", "e5", "\u017ft", "m\u0131n", "\u0131nf",
        "\u0130", "\u212a", "\xa0", "\x1c", "\u0663"]),
        max_size=60).map("".join))
    def test_fuzz_unicode_never_raises_other_exceptions(self, text):
        try:
            parse_lp(text)
        except LpParseError:
            pass


NUMBERS = st.sampled_from(["1", "2", "3", "0.5", "2.5e1", "-1", "-4"])


@st.composite
def lp_texts(draw):
    """LP text over a few columns: any objective keyword, labelled and
    unlabelled rows in every sense spelling, every bound shape, binaries."""
    names = [f"v{i}" for i in range(draw(st.integers(1, 5)))]

    def expression():
        terms = draw(st.lists(st.tuples(st.sampled_from(["+", "-"]),
                                        st.sampled_from(["", "2 ", "0.5", "3e0 "]),
                                        st.sampled_from(names)),
                              min_size=1, max_size=4))
        text = " ".join(f"{sign} {coef}{name}" for sign, coef, name in terms)
        return text[2:] if text.startswith("+") and draw(st.booleans()) else text

    lines = []
    if draw(st.booleans()):
        lines.append(f"\\ offset: {draw(NUMBERS)}")
    lines.append(draw(st.sampled_from(["Minimize", "MAXIMIZE", "min", "Max", "maximise"])))
    lines.append(f" {draw(st.sampled_from(['obj: ', '']))}{expression()}")
    lines.append(draw(st.sampled_from(["Subject To", "st", "s.t.", "such that"])))
    for k in range(draw(st.integers(0, 4))):
        label = f"r{k}: " if draw(st.booleans()) else ""
        sense = draw(st.sampled_from(["<=", "=<", "<", ">=", "=>", ">", "="]))
        lines.append(f" {label}{expression()} {sense} {draw(NUMBERS)}")
    shapes = ["{x} = {a}", "{a} <= {x} <= {b}", "{x} >= {a}", "{x} <= {b}",
              "-inf <= {x} <= {b}", "{x} free"]
    bounds = draw(st.lists(st.tuples(st.sampled_from(shapes), st.sampled_from(names),
                                     NUMBERS, NUMBERS), max_size=4))
    if bounds:
        lines.append("Bounds")
        lines.extend(" " + shape.format(x=x, a=a, b=b) for shape, x, a, b in bounds)
    binaries = draw(st.lists(st.sampled_from(names), max_size=3))
    if binaries:
        lines.append("Binaries")
        lines.append(" " + " ".join(binaries))
    return "\n".join(lines + ["End"]) + "\n"


class TestGrammar:
    @given(lp_texts())
    def test_parse_emit_parse_is_stable(self, text):
        """Text is refused only for a bound outside [0, 1] on a binary
        column, on a line that bounds it; any other text round-trips."""
        def content(m):
            return (m.minimize, m.variables, m.objective, m.offset, m.bounds, m.num_binary,
                    stacked_rows(m))

        try:
            parsed = parse_lp(text)
        except LpParseError as exc:
            refusal = re.fullmatch(r"line (\d+): bound (\S+) on binary column (\w+) "
                                   r"is outside \[0, 1\]", str(exc))
            assert refusal, exc
            line, value, name = refusal.groups()
            assert not 0 <= float(value) <= 1
            assert name in text.split("Binaries\n")[1].split()
            assert re.search(rf"\b{name}\b", text.splitlines()[int(line) - 1])
            return
        assert content(parse_lp(emit_lp(parsed))) == content(parsed)
