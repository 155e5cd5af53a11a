"""Cross-check the toolkit against an independently built model and solver.

The backtracking oracle is the primary ground truth everywhere else; this
adds a third route (cvxpy modeling + GLPK's MIP solver) on a few graphs so
a systematic error shared by the in-tree formulations and oracle would
still surface. Skipped when cvxpy or GLPK_MI is not installed.
"""
import pytest

from chromatic.bench import RunConfig, solve_instance
from chromatic.graph import gnp_random
from ground_truth import chromatic_number_exact

cvxpy = pytest.importorskip("cvxpy")


def glpk_chromatic_number(g) -> int:
    if "GLPK_MI" not in cvxpy.installed_solvers():
        pytest.skip("GLPK_MI not available")
    H = g.n
    x = cvxpy.Variable((g.n, H), boolean=True)
    w = cvxpy.Variable(H, boolean=True)
    constraints = [cvxpy.sum(x[v, :]) == 1 for v in range(g.n)]
    for (u, v) in g.edges:
        for i in range(H):
            constraints.append(x[u, i] + x[v, i] <= w[i])
    problem = cvxpy.Problem(cvxpy.Minimize(cvxpy.sum(w)), constraints)
    problem.solve(solver="GLPK_MI")
    assert problem.status == "optimal"
    return round(problem.value)


@pytest.mark.parametrize("seed,p", [(0, 0.3), (1, 0.5), (2, 0.7)])
def test_three_routes_agree(seed, p):
    g = gnp_random(8, p, seed)
    chi_oracle = chromatic_number_exact(g).chi
    chi_glpk = glpk_chromatic_number(g)
    outcome = solve_instance(g, "x", RunConfig(models=("pop2",), time_limit=30,
                                               clique_time_budget=0.5))
    record = outcome.records[0]
    assert chi_oracle == chi_glpk == record.lb == record.ub
