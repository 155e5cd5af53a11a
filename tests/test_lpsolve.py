import importlib.util
import math
import sys
from dataclasses import replace

import pytest

from chromatic import lpsolve
from chromatic.lp import parse_lp
from chromatic.lpsolve import SolveStatus, main, render_solution, solve_lp_text, solve_parsed


def test_minimize_binary():
    outcome = solve_lp_text(
        "Minimize\n obj: x + y\n"
        "Subject To\n c1: x + y >= 1\n"
        "Binaries\n x y\nEnd\n", time_limit=10)
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.objective == 1.0
    assert sum(outcome.values.values()) == 1.0


def test_maximize_sign_handling():
    outcome = solve_lp_text(
        "Maximize\n obj: x + 2 y\n"
        "Subject To\n c1: x + y <= 1\n"
        "Binaries\n x y\nEnd\n", time_limit=10)
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.objective == 2.0
    assert outcome.values["y"] == 1.0 and outcome.values["x"] == 0.0


def test_infeasible_fixed_bounds():
    outcome = solve_lp_text(
        "Minimize\n obj: x\n"
        "Subject To\n c1: x >= 1\n"
        "Bounds\n x = 0\n"
        "Binaries\n x\nEnd\n", time_limit=10)
    assert outcome.status is SolveStatus.INFEASIBLE
    assert outcome.values is None


def test_continuous_relaxation_supported():
    # no Binaries section: plain LP with fractional optimum
    outcome = solve_lp_text(
        "Minimize\n obj: x + y\n"
        "Subject To\n c1: 2 x + y >= 1\n c2: x + 2 y >= 1\n"
        "Bounds\n 0 <= x <= 1\n 0 <= y <= 1\nEnd\n", time_limit=10)
    assert outcome.status is SolveStatus.OPTIMAL
    assert abs(outcome.objective - 2 / 3) < 1e-6


def test_unbounded_detected():
    outcome = solve_lp_text(
        "Minimize\n obj: x\n"
        "Subject To\n c1: x <= 0\n"
        "Bounds\n x free\nEnd\n", time_limit=10)
    assert outcome.status is SolveStatus.UNBOUNDED


def test_render_includes_all_sections():
    outcome = solve_lp_text(
        "Minimize\n obj: x\nSubject To\n c1: x >= 1\nBinaries\n x\nEnd\n",
        time_limit=10)
    text = render_solution(outcome)
    assert "status optimal" in text
    assert "objective 1" in text
    assert "bound 1" in text
    assert "v x 1" in text


def test_lower_bound_on_a_binary_keeps_it_binary():
    outcome = solve_lp_text(
        "Maximize\n obj: x\nSubject To\nBounds\n x >= 1\nBinaries\n x\nEnd\n",
        time_limit=10)
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.objective == 1.0


def test_general_integers_are_refused(tmp_path, capsys):
    model = tmp_path / "model.lp"
    model.write_text("Maximize\n obj: x\nSubject To\n c: x <= 5\nGenerals\n x\nEnd\n")
    solution = tmp_path / "model.sol"
    assert main([str(model), "--out", str(solution)]) == 3
    assert not solution.exists()
    assert "line 5" in capsys.readouterr().err


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


def test_infeasible_solve_counts_its_nodes(monkeypatch):
    # HiGHS reports a node count for a model it proves infeasible too
    seen = []
    real = lpsolve.milp

    def spy(**kwargs):
        seen.append(real(**kwargs))
        return seen[-1]

    monkeypatch.setattr(lpsolve, "milp", spy)
    outcome = solve_lp_text(
        "Minimize\n obj: x + y\nSubject To\n c1: x + y >= 3\nBinaries\n x y\nEnd\n",
        time_limit=10)
    assert outcome.status is SolveStatus.INFEASIBLE
    (result,) = seen
    assert result.status is SolveStatus.INFEASIBLE and result.x is None
    assert isinstance(result.mip_node_count, int) and result.mip_node_count >= 0


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
    outcome = solve_lp_text(
        f"Minimize\n obj: x\nSubject To\n c1: x + {coefficient} y >= 1\nBinaries\n x y\nEnd\n",
        time_limit=10)
    assert (outcome.status, outcome.values) == (SolveStatus.ERROR, None)
    assert outcome.log.startswith("solver rejected model: ")


def test_missing_binding_names_the_scipy_it_needs(monkeypatch):
    monkeypatch.delitem(sys.modules, lpsolve.HIGHS_MODULE, raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match=r"scipy>=1\.15"):
        lpsolve.load_highs.__wrapped__()
