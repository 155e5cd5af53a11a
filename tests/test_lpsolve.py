import importlib.util
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from chromatic import families, lpsolve
from chromatic.backend import parse_solution
from chromatic.graph import Graph, gnp_random
from chromatic.lp import emit_lp, parse_lp
from chromatic.lpsolve import (SolveStatus, main, render_solution, rows_by_column, solve_lp_file,
                               solve_parsed)
from chromatic.models import FORMULATIONS, apply_clique_fixings, build_formulation
from chromatic.preprocess import preprocess_pipeline


def outcomes(text: str, tmp_path):
    """`text` solved on both routes: in process, on what `parse_lp` reads, and
    by `main`, the `chromatic-lps` script, on it written to `model.lp`, as
    read back from its solution file."""
    yield solve_parsed(parse_lp(text), time_limit=10)
    model, solution = tmp_path / "model.lp", tmp_path / "model.sol"
    model.write_text(text)
    assert main([str(model), "--out", str(solution), "--time-limit", "10"]) == 0
    raw = parse_solution(solution.read_text(), "chromatic")
    yield replace(raw, values=raw.values or None)  # as `CommandAdapter` reads it


def test_minimize_binary(tmp_path):
    for outcome in outcomes(
            "Minimize\n obj: x + y\n"
            "Subject To\n c1: x + y >= 1\n"
            "Binaries\n x y\nEnd\n", tmp_path):
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == 1.0
        assert sum(outcome.values.values()) == 1.0


def test_maximize_sign_handling(tmp_path):
    # HiGHS reads the sense from the file; `solve_parsed` negates the costs
    for outcome in outcomes(
            "Maximize\n obj: x + 2 y\n"
            "Subject To\n c1: x + y <= 1\n"
            "Binaries\n x y\nEnd\n", tmp_path):
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == 2.0
        assert outcome.values["y"] == 1.0 and outcome.values["x"] == 0.0


def test_infeasible_fixed_bounds(tmp_path):
    for outcome in outcomes(
            "Minimize\n obj: x\n"
            "Subject To\n c1: x >= 1\n"
            "Bounds\n x = 0\n"
            "Binaries\n x\nEnd\n", tmp_path):
        assert outcome.status is SolveStatus.INFEASIBLE
        assert outcome.values is None


def test_continuous_relaxation_supported(tmp_path):
    # no Binaries section: plain LP with fractional optimum
    for outcome in outcomes(
            "Minimize\n obj: x + y\n"
            "Subject To\n c1: 2 x + y >= 1\n c2: x + 2 y >= 1\n"
            "Bounds\n 0 <= x <= 1\n 0 <= y <= 1\nEnd\n", tmp_path):
        assert outcome.status is SolveStatus.OPTIMAL
        assert abs(outcome.objective - 2 / 3) < 1e-6


def test_unbounded_detected(tmp_path):
    for outcome in outcomes(
            "Minimize\n obj: x\n"
            "Subject To\n c1: x <= 0\n"
            "Bounds\n x free\nEnd\n", tmp_path):
        assert outcome.status is SolveStatus.UNBOUNDED


def test_render_includes_all_sections(tmp_path):
    for outcome in outcomes(
            "Minimize\n obj: x\nSubject To\n c1: x >= 1\nBinaries\n x\nEnd\n", tmp_path):
        text = render_solution(outcome)
        assert "status optimal" in text
        assert "objective 1" in text
        assert "bound 1" in text
        assert "v x 1" in text


def test_lower_bound_on_a_binary_keeps_it_binary(tmp_path):
    for outcome in outcomes(
            "Maximize\n obj: x\nSubject To\nBounds\n x >= 1\nBinaries\n x\nEnd\n", tmp_path):
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == 1.0


def test_general_integers_are_refused(tmp_path, capsys):
    model = tmp_path / "model.lp"
    model.write_text("Maximize\n obj: x\nSubject To\n c: x <= 5\nGenerals\n x\nEnd\n")
    solution = tmp_path / "model.sol"
    assert main([str(model), "--out", str(solution)]) == 3
    assert not solution.exists()
    assert "column x " in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "3e6"])
def test_time_limit_must_be_finite_and_positive(tmp_path, capsys, value):
    # HiGHS would take such a limit as no limit at all; 3e6 s is above
    # MAX_TIME_LIMIT, where a parent's wait for its solver child overflows
    model = tmp_path / "model.lp"
    model.write_text("Minimize\n obj: x\nSubject To\n c1: x >= 0\nBinaries\n x\nEnd\n")
    solution = tmp_path / "model.sol"
    with pytest.raises(SystemExit) as raised:
        main([str(model), "--out", str(solution), "--time-limit", value])
    assert raised.value.code == 2
    assert "argument --time-limit: " in capsys.readouterr().err
    assert not solution.exists()


def test_infeasible_solve_counts_its_nodes(monkeypatch, tmp_path):
    # HiGHS reports a node count for a model it proves infeasible too
    seen = []
    real = lpsolve.run_highs

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(lpsolve, "run_highs", spy)
    for outcome in outcomes(
            "Minimize\n obj: x + y\nSubject To\n c1: x + y >= 3\nBinaries\n x y\nEnd\n",
            tmp_path):
        assert outcome.status is SolveStatus.INFEASIBLE
        (result,) = seen
        assert result.status is SolveStatus.INFEASIBLE and result.x is None
        assert isinstance(result.mip_node_count, int) and result.mip_node_count >= 0
        seen.clear()


@pytest.mark.parametrize("coefficient", [math.nan, math.inf, -math.inf])
def test_non_finite_objective_is_rejected_before_highs(monkeypatch, coefficient):
    model = parse_lp("Minimize\n obj: x + y\nSubject To\n c1: x + y >= 1\nBinaries\n x y\nEnd\n")
    model = replace(model, objective=(("x", coefficient), ("y", 1.0)))

    def no_highs():
        raise AssertionError("HiGHS loaded for a rejected model")

    monkeypatch.setattr(lpsolve, "load_highs", no_highs)
    outcome = solve_parsed(model, time_limit=10)
    assert (outcome.status, outcome.objective, outcome.bound, outcome.values) == (
        SolveStatus.ERROR, None, None, None)
    assert outcome.log.startswith("solver rejected model: ")


@pytest.mark.parametrize("coefficient", ["1e400", "1e300"], ids=["infinite", "huge"])
def test_row_coefficient_highs_cannot_take_is_an_error_not_infeasible(coefficient):
    # 1e400 reads as inf and is refused before HiGHS; HiGHS refuses 1e300 itself
    outcome = solve_parsed(parse_lp(
        f"Minimize\n obj: x\nSubject To\n c1: x + {coefficient} y >= 1\nBinaries\n x y\nEnd\n"),
        time_limit=10)
    assert (outcome.status, outcome.values) == (SolveStatus.ERROR, None)
    assert outcome.log.startswith("solver rejected model: ")


def test_missing_binding_names_the_scipy_it_needs(monkeypatch):
    monkeypatch.delitem(sys.modules, lpsolve.HIGHS_MODULE, raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match=r"scipy>=1\.15"):
        lpsolve.load_highs.__wrapped__()


@pytest.mark.parametrize("name, text", [
    ("model.lp", "this is not an lp file\n"),
    ("model.lp", "Minimize\nSubject To\nEnd\n"),
    ("model.lp", "Minimize\n x\nSubject To\n c1: x <= frog\nEnd\n"),
    ("model.txt", "Minimize\n obj: x\nSubject To\n c1: x >= 1\nBinaries\n x\nEnd\n"),
], ids=["not-lp", "no-column", "syntax", "not-named-lp"])
def test_file_without_a_column_is_refused(tmp_path, capsys, name, text):
    # HiGHS reads the first as an empty model and picks its reader by extension
    model = tmp_path / name
    model.write_text(text)
    solution = tmp_path / "model.sol"
    assert main([str(model), "--out", str(solution)]) == 3
    assert not solution.exists()
    assert "read no column" in capsys.readouterr().err


@pytest.mark.parametrize("section", [
    "Integers\n x\n", "Semi-continuous\n x\nBounds\n x <= 4\n",
    "Bounds\n 0 <= x <= 5\nBinaries\n x\n", "Bounds\n -1 <= x\nBinaries\n x\n",
], ids=["integers", "semi-continuous", "widened-binary", "negative-binary"])
def test_column_neither_continuous_nor_binary_is_refused(tmp_path, capsys, section):
    model = tmp_path / "model.lp"
    model.write_text(f"Maximize\n obj: x + y\nSubject To\n c: x + y <= 5\n{section}End\n")
    solution = tmp_path / "model.sol"
    assert main([str(model), "--out", str(solution)]) == 3
    assert not solution.exists()
    assert "column x " in capsys.readouterr().err


@pytest.mark.parametrize("objective, row", [
    ("nan x + y", "x + y"), ("inf x + y", "x + y"), ("- 1e400 x + y", "x + y"),
    ("x", "x + nan y"), ("x", "x + NaN y"), ("x", "x + 1e400 y"), ("x", "x + 1e300 y"),
], ids=["nan-cost", "inf-cost", "huge-cost", "nan-entry", "NaN-entry", "inf-entry",
        "huge-entry"])
def test_file_with_a_coefficient_highs_cannot_take_is_an_error(tmp_path, objective, row):
    # HiGHS solves the first four and the NaN entry as read: it keeps the
    # costs and leaves the NaN entry out
    model = tmp_path / "model.lp"
    model.write_text(f"Minimize\n obj: {objective}\nSubject To\n c1: {row} >= 1\n"
                     "Binaries\n x y\nEnd\n")
    outcome = solve_lp_file(str(model), time_limit=10)
    assert (outcome.status, outcome.objective, outcome.bound, outcome.values) == (
        SolveStatus.ERROR, None, None, None)
    assert outcome.log.startswith("solver rejected model: ")


@pytest.mark.parametrize("cost, status", [
    ("1e300", SolveStatus.ERROR), ("1e20", SolveStatus.ERROR), ("- 1e20", SolveStatus.ERROR),
    ("9.99e19", SolveStatus.OPTIMAL),
], ids=["huge", "infinite-cost", "minus-infinite-cost", "below-infinite-cost"])
def test_both_routes_refuse_a_cost_highs_takes_for_infinite(tmp_path, cost, status):
    # HiGHS's reader stores a cost of 1e20 or more as inf; in process the
    # same cost was once solved as given
    text = (f"Minimize\n obj: {cost} x + y\nSubject To\n c1: x + y >= 1\n"
            "Binaries\n x y\nEnd\n")
    model = tmp_path / "model.lp"
    model.write_text(text)
    for outcome in (solve_parsed(parse_lp(text), time_limit=10),
                    solve_lp_file(str(model), time_limit=10)):
        assert outcome.status is status
        if status is SolveStatus.ERROR:
            assert outcome.log == ("solver rejected model: needs finite row coefficients "
                                   "and costs below 1e+20 in magnitude")
        else:
            assert outcome.objective == 1


def mycielski(g: Graph) -> Graph:
    """One Mycielski step: copies u_i of v_i joined to v_i's neighbours, and w to every u_i."""
    n = g.n
    edges = list(g.edges) + [(u, n + v) for (a, b) in g.edges for (u, v) in ((a, b), (b, a))]
    return Graph.from_edges(2 * n + 1, edges + [(n + v, 2 * n) for v in range(n)])


def reader_models(kind: str):
    """`kind` on a cycle, on myciel3 and, reduced and with clique fixings, on a G(n, 0.5)."""
    yield build_formulation(kind, preprocess_pipeline(families.cycle(7), seed=1))
    yield build_formulation(kind, preprocess_pipeline(mycielski(families.cycle(5)), seed=1))
    inst = preprocess_pipeline(gnp_random(14, 0.5, seed=4), seed=1, clique_time_budget=5)
    assert inst.reduced.graph.n < 14
    yield apply_clique_fixings(build_formulation(kind, inst), inst)


@pytest.mark.parametrize("kind", FORMULATIONS)
def test_highs_reader_builds_the_model_solve_parsed_builds(tmp_path, kind):
    """Up to column order: HiGHS numbers columns by first appearance."""
    highs = lpsolve.load_highs()
    for model in reader_models(kind):
        path = tmp_path / "model.lp"
        path.write_text(emit_lp(model))
        solver = highs._Highs()
        solver.setOptionValue("output_flag", False)
        assert solver.readModel(str(path)) == highs.HighsStatus.kOk
        read = solver.getLp()
        arrays = rows_by_column(model)
        assert read.sense_ == highs.ObjSense.kMinimize
        assert np.asarray(read.row_lower_).tolist() == arrays["row_lower"].tolist()
        assert np.asarray(read.row_upper_).tolist() == arrays["row_upper"].tolist()

        costs = dict.fromkeys(model.variables, 0.0)
        for name, coef in model.objective:
            costs[name] += coef
        ptr = arrays["indptr"]
        expected = {
            name: (costs[name], *model.bounds.get(name, (0.0, 1.0)), True,
                   list(zip(arrays["indices"][ptr[j]:ptr[j + 1]].tolist(),
                            arrays["data"][ptr[j]:ptr[j + 1]].tolist())))
            for j, name in enumerate(model.variables)}
        columns = {}
        for j, name in enumerate(read.col_names_):
            _, cost, lower, upper, _ = solver.getCol(j)
            _, integrality = solver.getColIntegrality(j)
            _, rows, values = solver.getColEntries(j)
            # HiGHS's reader gives a column that is in no row a 0.0 entry in row 0
            columns[name] = (cost, lower, upper, integrality == highs.HighsVarType.kInteger,
                             sorted((r, a) for r, a in zip(rows.tolist(), values.tolist()) if a))
        assert columns == expected
