import pytest

from chromatic.lpsolve import SolveStatus, main, render_solution, solve_lp_text


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
