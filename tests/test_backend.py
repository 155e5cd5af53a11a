import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse

import chromatic
from chromatic import backend, families, lp, lpsolve
from chromatic.backend import (DIALECTS, BuiltinAdapter, CommandAdapter,
                               RawSolve, SolutionParseError,
                               SolverNotFoundError, SolveStatus,
                               builtin_subprocess_adapter, integral_floor_bound,
                               load_adapter, parse_solution, solve)
from chromatic.graph import Graph, gnp_random
from chromatic.lp import emit_lp, parse_lp
from chromatic.models import (FORMULATIONS, apply_clique_fixings,
                              build_formulation, build_pop, extract_coloring)
from chromatic.oracle import chromatic_number_exact
from chromatic.preprocess import preprocess_pipeline
from conftest import NullAdapter, build_with_h_colors


class TestParseSolutionDialects:
    def test_chromatic_round_trip(self):
        text = ("c chromatic-lps solution file\n"
                "status optimal\n"
                "objective 3\n"
                "bound 3\n"
                "v x_0_1 1\n"
                "v x_1_2 0\n"
                "v w_1 1\n")
        parsed = parse_solution(text, "chromatic")
        assert parsed.status is SolveStatus.OPTIMAL
        assert parsed.objective == 3.0 and parsed.bound == 3.0
        assert parsed.values == {"x_0_1": 1.0, "x_1_2": 0.0, "w_1": 1.0}

    def test_infeasible_with_no_values(self):
        parsed = parse_solution("status infeasible\nbound -inf\n", "chromatic")
        assert parsed.status is SolveStatus.INFEASIBLE
        assert parsed.bound is None and parsed.values == {}

    def test_chromatic_strict_rejects_junk(self):
        with pytest.raises(SolutionParseError, match="line 2"):
            parse_solution("status optimal\nwat is this\n", "chromatic")

    def test_cbc_optimal(self):
        text = ("Optimal - objective value 4.00000000\n"
                "      0 x_0_1                 1                       0\n"
                "      1 x_0_2                 0                       0\n")
        parsed = parse_solution(text, "cbc")
        assert parsed.status is SolveStatus.OPTIMAL
        assert parsed.objective == 4.0
        assert parsed.values["x_0_1"] == 1.0

    def test_cbc_time_limit(self):
        parsed = parse_solution("Stopped on time limit - objective value 6.5\n", "cbc")
        assert parsed.status is SolveStatus.FEASIBLE and parsed.objective == 6.5

    def test_gurobi_sol_and_log(self):
        sol = ("# Solution for model obj\n"
               "# Objective value = 4.0000000000e+00\n"
               "x_0_1 1\n"
               "w_1 1\n")
        parsed = parse_solution(sol, "gurobi")
        assert parsed.objective == 4.0
        assert parsed.values == {"x_0_1": 1.0, "w_1": 1.0}
        log = ("Optimize a model with 12 rows\n"
               "Optimal solution found (tolerance 1.00e-04)\n"
               "Best objective 4.000000000000e+00, best bound 4.000000000000e+00\n")
        parsed_log = parse_solution(log, "gurobi")
        assert parsed_log.status is SolveStatus.OPTIMAL
        assert parsed_log.bound == 4.0

    def test_glpsol_display_output(self):
        text = ("Status:     INTEGER OPTIMAL\n"
                "Objective:  obj = 3 (MINimum)\n"
                "     1 x_0_1        *              1             0             1\n"
                "     2 x_0_2        *              0             0             1\n")
        parsed = parse_solution(text, "glpsol")
        assert parsed.status is SolveStatus.OPTIMAL
        assert parsed.objective == 3.0
        assert parsed.values["x_0_1"] == 1.0

    @pytest.mark.parametrize("status", list(SolveStatus))
    def test_every_rendered_status_reads_back(self, status):
        text = lpsolve.render_solution(RawSolve(status, None, None, None))
        assert parse_solution(text, "chromatic").status is status

    @given(st.text(alphabet=st.characters(min_codepoint=9, max_codepoint=126),
                   max_size=300),
           st.sampled_from(sorted(DIALECTS)))
    def test_fuzz_only_parse_errors_escape(self, text, dialect):
        try:
            parse_solution(text, dialect)
        except SolutionParseError:
            pass


class TestNormalization:
    def test_integral_floor_bound(self):
        assert integral_floor_bound(2.9999995) == 3
        assert integral_floor_bound(3.0000004) == 3
        assert integral_floor_bound(2.5) == 3
        assert integral_floor_bound(-0.0000001) == 0

    def test_single_edge_pop_optimal(self):
        g = Graph.from_edges(2, [(0, 1)])
        result = solve(build_pop(g, 2, anchor=0), time_limit=30)
        assert result.status is SolveStatus.OPTIMAL
        assert result.lower_bound == result.upper_bound == 2
        assert result.wall_time >= 0

    def test_offset_applied_to_bounds(self):
        g = families.cycle(5)
        model = build_pop(g, 3, anchor=0)
        result = solve(model, time_limit=30)
        # raw objective is 2 (two ordering variables at 1); +1 offset
        assert result.upper_bound == 3
        raw = sum(result.values[name] for name, _ in model.objective)
        assert raw == 2

    def test_infeasible_when_bound_below_chi(self):
        g = families.cycle(5)  # needs 3 colors
        result = solve(build_pop(g, 2, anchor=0), time_limit=30)
        assert result.status is SolveStatus.INFEASIBLE
        assert result.values is None
        assert result.upper_bound is None

    def test_lp_file_written_deterministically(self, tmp_path):
        g = gnp_random(8, 0.5, 5)
        inst = preprocess_pipeline(g, seed=5, clique_time_budget=0.5)
        model = apply_clique_fixings(build_with_h_colors("pop2", inst), inst)
        solve(model, time_limit=30, workdir=tmp_path / "a")
        solve(model, time_limit=30, workdir=tmp_path / "b")
        assert (tmp_path / "a" / "model.lp").read_bytes() == \
            (tmp_path / "b" / "model.lp").read_bytes()

    def test_non_binary_incumbent_is_an_error(self):
        model = build_pop(families.cycle(5), 3, anchor=0)

        class HalfAdapter:
            name = "half"

            def solve_model(self, model, lp_path, time_limit, seed, workdir):
                values = {name: 0.0 for name in model.variables}
                values[model.variables[-1]] = 0.5
                return RawSolve(SolveStatus.OPTIMAL, 2.0, 2.0, values, log="stub log")

        result = solve(model, adapter=HalfAdapter(), time_limit=30)
        assert result.status is SolveStatus.ERROR
        assert result.values is None
        assert "non-binary" in result.log and "stub log" in result.log

    @pytest.mark.parametrize("reported, normalized", [
        (SolveStatus.OPTIMAL, SolveStatus.ERROR),
        (SolveStatus.FEASIBLE, SolveStatus.TIMEOUT_NO_SOLUTION),
    ])
    def test_report_without_values(self, reported, normalized):
        model = build_pop(families.cycle(5), 3, anchor=0)

        class NoValuesAdapter:
            name = "no-values"

            def solve_model(self, model, lp_path, time_limit, seed, workdir):
                return RawSolve(reported, 2.0, 1.0, None)

        result = solve(model, adapter=NoValuesAdapter(), time_limit=30)
        assert result.status is normalized
        assert result.values is None and result.upper_bound is None

    def test_timeout_statuses_have_consistent_fields(self):
        g = gnp_random(40, 0.5, 2)
        model = build_formulation("ass", preprocess_pipeline(g, seed=2, clique_time_budget=0.5))
        result = solve(model, time_limit=0.05)
        assert result.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE,
                                 SolveStatus.TIMEOUT_NO_SOLUTION)
        if result.status is SolveStatus.TIMEOUT_NO_SOLUTION:
            assert result.values is None
        if result.lower_bound is not None and result.upper_bound is not None:
            assert result.lower_bound <= result.upper_bound

    def test_timeout_without_incumbent_keeps_the_dual_bound_on_both_routes(self, monkeypatch,
                                                                          tmp_path):
        stub = lpsolve.HighsResult(SolveStatus.TIMEOUT_NO_SOLUTION, x=None, fun=None,
                                   message="Time limit reached", mip_node_count=3,
                                   mip_dual_bound=4.2, mip_gap=None)
        monkeypatch.setattr(lpsolve, "run_highs", lambda load, time_limit: stub)

        class FileRoute:
            """The `builtin-sub` route in this process: `chromatic-lps` on the
            LP file, its solution file read back as the parent reads it."""
            name = "file"

            def solve_model(self, model, lp_path, time_limit, seed, workdir):
                solution = workdir / "model.sol"
                assert lpsolve.main([str(lp_path), "--out", str(solution)]) == 0
                return parse_solution(solution.read_text(), "chromatic")

        model = build_pop(families.cycle(5), 3, anchor=0)
        assert model.offset == 1
        for adapter, workdir in ((BuiltinAdapter(), None), (FileRoute(), tmp_path)):
            result = solve(model, adapter=adapter, time_limit=30, workdir=workdir)
            assert (result.status, result.lower_bound, result.upper_bound, result.values) == (
                SolveStatus.TIMEOUT_NO_SOLUTION, 5 + 1, None, None)

    def test_real_timeout_without_incumbent_reports_a_bound(self):
        # HiGHS neither finds a 12-coloring of this graph (|Q| = 9, H = 13) nor
        # proves there is none within 30 s; it has a root bound within 0.5 s
        inst = preprocess_pipeline(gnp_random(80, 0.5, 1), seed=1)
        assert (inst.lower_bound, inst.upper_bound) == (9, 13)
        model = apply_clique_fixings(build_formulation("pop", inst), inst)
        result = solve(model, time_limit=2.0)
        assert result.status is SolveStatus.TIMEOUT_NO_SOLUTION
        assert result.lower_bound is not None


ROUTE_GRAPHS = [gnp_random(n, p, seed=n) for n in (8, 10, 12) for p in (0.3, 0.7)] \
    + [families.cycle(5)]


def _milp_arrays(monkeypatch, call):
    """Run `call` and return every argument it hands to the one HiGHS call, as arrays."""
    seen = []
    real = lpsolve.milp

    def spy(**kwargs):
        seen.append(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(lpsolve, "milp", spy)
    try:
        call()
    finally:
        monkeypatch.setattr(lpsolve, "milp", real)
    (kwargs,) = seen
    return {key: np.asarray(value) for key, value in kwargs.items()}


class TestInProcessRoute:
    """The builtin adapter gives HiGHS the model itself, with no LP text."""

    @pytest.mark.parametrize("fixed", [False, True], ids=["plain", "fixed"])
    @pytest.mark.parametrize("kind", FORMULATIONS)
    def test_same_arrays_as_lp_text_route(self, monkeypatch, kind, fixed):
        for g in ROUTE_GRAPHS:
            inst = preprocess_pipeline(g, seed=1, clique_time_budget=5)
            model = build_with_h_colors(kind, inst)
            if fixed:
                model = apply_clique_fixings(model, inst)
            from_text = _milp_arrays(
                monkeypatch,
                lambda: lpsolve.solve_parsed(parse_lp(emit_lp(model)), time_limit=30))
            in_process = _milp_arrays(monkeypatch, lambda: solve(model, time_limit=30))
            for key, expected in from_text.items():
                got = in_process[key]
                assert got.dtype == expected.dtype and got.shape == expected.shape, key
                assert got.tobytes() == expected.tobytes(), (g.n, g.m, key)

    def test_no_lp_text_without_workdir(self, monkeypatch, tmp_path):
        g = gnp_random(10, 0.5, seed=3)
        inst = preprocess_pipeline(g, seed=3, clique_time_budget=5)
        model = apply_clique_fixings(build_with_h_colors("pop2", inst), inst)
        expected_lp = emit_lp(model).encode()

        def no_text(*args, **kwargs):
            raise AssertionError("LP text used on the in-process route")

        monkeypatch.setattr(backend, "emit_lp", no_text)
        monkeypatch.setattr(lpsolve, "solve_lp_file", no_text)
        monkeypatch.setattr(lp, "parse_lp", no_text)
        monkeypatch.setattr(backend.tempfile, "TemporaryDirectory", no_text)
        result = solve(model, time_limit=30)
        assert result.status is SolveStatus.OPTIMAL
        assert result.upper_bound == chromatic_number_exact(g).chi

        monkeypatch.undo()
        with_file = solve(model, time_limit=30, workdir=tmp_path / "artifacts")
        assert (tmp_path / "artifacts" / "model.lp").read_bytes() == expected_lp
        assert (with_file.status, with_file.lower_bound, with_file.upper_bound,
                with_file.values) == (result.status, result.lower_bound,
                                      result.upper_bound, result.values)


GOLDEN_GRAPHS = ROUTE_GRAPHS + [gnp_random(48, 0.9, seed=1)]  # reduces to 47 vertices


@functools.lru_cache(maxsize=None)
def _golden_model(kind: str, fixed: bool, position: int):
    """The model the program builds for the golden graph, H - 1 colors; for
    a graph that settles in preprocessing, which gets none, the one with H
    colors."""
    inst = preprocess_pipeline(GOLDEN_GRAPHS[position], seed=1, clique_time_budget=60)
    model = (build_with_h_colors(kind, inst) if inst.solved_in_preprocessing
             else build_formulation(kind, inst))
    return apply_clique_fixings(model, inst) if fixed else model


def _digest_arrays(arrays: dict) -> str:
    h = hashlib.sha256()
    for key, array in arrays.items():
        h.update(f"{key}:{array.dtype.str}:{array.shape}:".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _captured_milp_arrays(monkeypatch, model):
    """The arrays `solve` hands to HiGHS, captured without running HiGHS."""
    def refuse(**kwargs):
        raise ValueError("arrays captured")

    monkeypatch.setattr(lpsolve, "milp", refuse)
    try:
        return _milp_arrays(monkeypatch, lambda: solve(model, time_limit=30))
    finally:
        monkeypatch.undo()


def _scipy_milp_layout(arrays: dict) -> dict:
    """The same arrays in the layout `scipy.optimize.milp` was once given,
    the one GOLDEN_MODEL_DIGESTS pins: a float 0/1 integrality vector and
    the matrix by row (CSR), which scipy turned into the CSC HiGHS gets."""
    nvar = len(arrays["c"])
    integrality = np.zeros(nvar)
    integrality[:int(arrays["num_binary"])] = 1.0
    by_row = sparse.csc_array((arrays["data"], arrays["indices"], arrays["indptr"]),
                              shape=(len(arrays["row_lower"]), nvar)).tocsr()
    return {"c": arrays["c"], "integrality": integrality,
            "lb": arrays["col_lower"], "ub": arrays["col_upper"],
            "indptr": by_row.indptr, "indices": by_row.indices, "data": by_row.data,
            "row_lo": arrays["row_lower"], "row_hi": arrays["row_upper"]}


# SHA-256 of the emitted LP bytes and of the HiGHS arrays of `_golden_model`,
# each over all of GOLDEN_GRAPHS in order, per (formulation, clique fixings).
GOLDEN_MODEL_DIGESTS = {
    ('ass-s', False): ("afe69461dad7be8cb74f3b9ce53ab09d720ff6422c9e01b54f654a1b5cfea034",
                       "211dfd16fcf10b81a9e7eab556c84e634f67f5f0c91beb938b5e9923e5b5f0c5"),
    ('ass-s', True): ("b6bf7ac53bdca898943f40c486a28b85e0e45f15d8c1976824862209d6a1df2a",
                      "86c90a8fe2e7d80b9389c6bae8c4343f56965334b8d187a06abaad0ecba10bb9"),
    ('ass', False): ("af2b4e3cdd687874676221f592dda63a83514cc819c9c4763d80aa62f83ce569",
                     "1ffc0fd287197dc435bc96f95ff1e2625280ad974f387ca0ef4b47108974f7f4"),
    ('ass', True): ("74d688e10708dba55aeb2459aaee95671944a64fc70312ee009056a76ad4d4ba",
                    "f0468de19f6c3f3d7737ab50e5f00c354d1ee9ad80d65676208f35e65e3cea07"),
    ('pop', False): ("893a8dda2564106e2fea3d9ecc13c00c121919de09a2c9adb4bd6a19d511877f",
                     "8910d52d782477dd849eedc1f953540e3eae6102cc530a13bba31a84d61f8704"),
    ('pop', True): ("99d40175a71cf98430ea79259de6f7bd2a80682a7a0689f9225864fe68be1071",
                    "e6e4900a08f0344ec96ae640bb3e5cf414406c58ec05706872117a673dac2c74"),
    ('pop2', False): ("1580ab59d5728555a26548597899800bd1005f7a686f79a6118340bd4cb3c73e",
                      "0b3e58c2861f62211f6d5611f8c5a42d7f361f75d2197716e3c7ba655fafb0a1"),
    ('pop2', True): ("bee05b70145784a023da172151e1e38723f954ecf275f49c83572c81abbcc80f",
                     "4aceccf1f3a5a6b9a8e613d736c9c88191ac599103a00e09e2da455c1aa852a2"),
    ('rep', False): ("50ca16b28c95a42cecd0d64b0a920fb420dd33202ea7471a517c0ddd49090674",
                     "d4464a1dd13c04731ba3b48f768c2c1f4ee4f4b242c62c25bfa5a61cd7a79633"),
    ('rep', True): ("d58f632cd4d8a94eee5337464a059f40c54cdc530d92325e541a1824c94fd1c1",
                    "4065eb69724797f57fa4a2b67b85dff2bcaafa9225d04bd010de64b2b1aa2cd7"),
}


class TestGoldenModelBytes:
    """Both routes are pinned to fixed bytes, not only to each other."""

    @pytest.mark.parametrize("fixed", [False, True], ids=["plain", "fixed"])
    @pytest.mark.parametrize("kind", FORMULATIONS)
    def test_lp_text_and_highs_arrays(self, monkeypatch, kind, fixed):
        lp_hash, arrays_hash = hashlib.sha256(), hashlib.sha256()
        for position in range(len(GOLDEN_GRAPHS)):
            model = _golden_model(kind, fixed, position)
            lp_hash.update(emit_lp(model).encode())
            arrays = _scipy_milp_layout(_captured_milp_arrays(monkeypatch, model))
            arrays_hash.update(_digest_arrays(arrays).encode())
        got = (lp_hash.hexdigest(), arrays_hash.hexdigest())
        assert got == GOLDEN_MODEL_DIGESTS[kind, fixed]

    @pytest.mark.parametrize("fixed", [False, True], ids=["plain", "fixed"])
    @pytest.mark.parametrize("kind", FORMULATIONS)
    def test_matrix_is_scipys_csc(self, monkeypatch, kind, fixed):
        # HiGHS gets the CSC arrays scipy derived from the stacked row blocks
        for position in range(len(GOLDEN_GRAPHS)):
            model = _golden_model(kind, fixed, position)
            got = _captured_milp_arrays(monkeypatch, model)
            widths = np.concatenate([np.diff(block.indptr) for block in model.blocks])
            rows = np.repeat(np.arange(len(widths)), widths)
            cols = np.concatenate([block.cols for block in model.blocks])
            coefs = np.concatenate([block.coefs for block in model.blocks])
            expected = sparse.csc_array(sparse.csr_matrix(
                (coefs, (rows, cols)), shape=(len(widths), len(model.variables))))
            for key in ("indptr", "indices", "data"):
                want = getattr(expected, key)
                assert got[key].dtype == want.dtype and got[key].tobytes() == want.tobytes(), \
                    (position, key)


class TestSubprocessAdapter:
    def test_bundled_solver_through_subprocess(self):
        g = families.cycle(5)
        inst = preprocess_pipeline(g, seed=1, clique_time_budget=0.5)
        model = apply_clique_fixings(build_with_h_colors("ass", inst), inst)
        result = solve(model, adapter=builtin_subprocess_adapter(), time_limit=60)
        assert result.status is SolveStatus.OPTIMAL
        assert result.upper_bound == 3

    def test_child_gets_no_seed(self):
        # HiGHS is deterministic for a fixed input; chromatic-lps takes no seed
        args = builtin_subprocess_adapter().args
        assert "--seed" not in args and "{seed}" not in args
        with pytest.raises(SystemExit):
            lpsolve.main(["model.lp", "--out", "sol.txt", "--seed", "1"])

    def test_subprocess_child_imports_package_under_relative_pythonpath(self, monkeypatch):
        # the child runs in a temporary directory, where a relative
        # PYTHONPATH entry no longer points at the package
        package_root = Path(chromatic.__file__).resolve().parents[1]
        monkeypatch.chdir(package_root.parent)
        monkeypatch.setenv("PYTHONPATH", package_root.name)
        g = families.cycle(5)
        inst = preprocess_pipeline(g, seed=1, clique_time_budget=0.5)
        model = apply_clique_fixings(build_with_h_colors("ass", inst), inst)
        result = solve(model, adapter=builtin_subprocess_adapter(), time_limit=60)
        assert result.status is SolveStatus.OPTIMAL, result.log
        assert result.upper_bound == 3, result.log

    def test_solver_not_found(self):
        adapter = CommandAdapter(executable="/definitely/not/a/solver",
                                 args=("{model}",), dialect="chromatic")
        g = families.complete(2)
        with pytest.raises(SolverNotFoundError):
            solve(build_pop(g, 2, anchor=0), adapter=adapter, time_limit=5)

    def test_argv_template_substitution(self, tmp_path):
        adapter = CommandAdapter(
            executable="mysolver",
            args=("{model}", "--tl", "{timelimit}", "--seed", "{seed}",
                  "--write", "{solout}"),
            dialect="cbc")
        argv = adapter.argv(tmp_path / "m.lp", 60.0, 7, tmp_path / "m.sol")
        assert argv == ["mysolver", str(tmp_path / "m.lp"), "--tl", "60",
                        "--seed", "7", "--write", str(tmp_path / "m.sol")]

    @pytest.mark.parametrize("limit", [123456.7, 1234.5678, 0.1, 60.0])
    def test_child_reads_back_the_parents_time_limit(self, tmp_path, limit):
        argv = builtin_subprocess_adapter().argv(tmp_path / "m.lp", limit, 0, tmp_path / "m.sol")
        assert lpsolve.seconds(argv[argv.index("--time-limit") + 1]) == limit

    def test_env_override_changes_executable(self, tmp_path, monkeypatch):
        # the override replaces a config's path where it is read; argv runs it as given
        config = tmp_path / "solver.json"
        config.write_text(json.dumps({"path": "missing-solver", "args": ["{model}"]}))
        monkeypatch.setenv("CHROMATIC_SOLVER", "/usr/bin/env")
        adapter = load_adapter(str(config))
        assert adapter.executable == "/usr/bin/env"
        argv = adapter.argv(tmp_path / "m.lp", 10.0, 0, tmp_path / "m.sol")
        assert argv[0] == "/usr/bin/env"
        assert CommandAdapter(executable="missing-solver", args=()).argv(
            tmp_path / "m.lp", 10.0, 0, tmp_path / "m.sol") == ["missing-solver"]

    def test_env_override_leaves_bundled_child_alone(self, monkeypatch):
        monkeypatch.setenv("CHROMATIC_SOLVER", "/definitely/not/a/solver")
        model = build_pop(families.cycle(5), 3, anchor=0)
        result = solve(model, adapter=load_adapter("builtin-sub"), time_limit=60)
        assert result.status is SolveStatus.OPTIMAL, result.log
        assert result.upper_bound == 3

    @pytest.mark.parametrize("case, expected", [
        ("infeasible-k3-pop", SolveStatus.INFEASIBLE),
        ("optimal-c5-ass", SolveStatus.OPTIMAL),
    ], ids=["infeasible-k3-pop", "optimal-c5-ass"])
    def test_same_answer_as_in_process_route(self, case, expected):
        if case == "infeasible-k3-pop":
            model = build_pop(families.complete(3), 2, anchor=0)
        else:
            inst = preprocess_pipeline(families.cycle(5), seed=1, clique_time_budget=0.5)
            model = apply_clique_fixings(build_with_h_colors("ass", inst), inst)
        results = [solve(model, adapter=adapter, time_limit=60)
                   for adapter in (BuiltinAdapter(), builtin_subprocess_adapter())]
        answers = {(r.status, r.lower_bound, r.upper_bound) for r in results}
        assert len(answers) == 1, [r.log for r in results]
        assert results[0].status is expected

    def test_child_runs_lpsolve_once_without_warning(self):
        adapter = builtin_subprocess_adapter()
        assert "-m" not in adapter.args
        result = solve(build_pop(families.cycle(5), 3, anchor=0), adapter=adapter,
                       time_limit=60)
        assert result.status is SolveStatus.OPTIMAL
        assert "Warning" not in result.log
        assert result.log.count("chromatic-lps:") == 1

    def test_hung_solver_killed_after_grace(self, tmp_path, monkeypatch):
        # a silent child and one that printed progress before it was killed:
        # a log line the strict dialect does not know is not an error
        monkeypatch.setattr("chromatic.backend.KILL_GRACE_SECONDS", 0.5)
        chatty = ("import sys\nprint('searching', flush=True)\n"
                  "print('searching', file=sys.stderr, flush=True)\n")
        for chatter in ("", chatty):
            script = tmp_path / "sleepy_solver.py"
            script.write_text(chatter + "import time\ntime.sleep(600)\n")
            adapter = CommandAdapter(executable=sys.executable,
                                     args=(str(script), "{model}", "{solout}"),
                                     dialect="chromatic")
            g = families.complete(2)
            result = solve(build_pop(g, 2, anchor=0), adapter=adapter, time_limit=0.2)
            assert result.status is SolveStatus.TIMEOUT_NO_SOLUTION, result.log
            assert result.wall_time < 30
            assert ("searching" in result.log) == bool(chatter)

    def test_partial_solution_from_killed_solver_still_parsed(self, tmp_path, monkeypatch):
        # a silent child and one that printed before it was killed: the
        # printed part reaches the log as bytes, even in text mode
        monkeypatch.setattr("chromatic.backend.KILL_GRACE_SECONDS", 0.5)
        chatty = "print('searching', flush=True)\nprint('searching', file=sys.stderr, flush=True)\n"
        for chatter in ("", chatty):
            script = tmp_path / "slow_writer.py"
            script.write_text(
                "import sys, time\n"
                "open(sys.argv[2], 'w').write('status feasible\\n"
                "objective 2\\nbound 1\\nv y_1_0 1\\nv y_1_1 0\\n')\n"
                + chatter + "time.sleep(600)\n")
            adapter = CommandAdapter(executable=sys.executable,
                                     args=(str(script), "{model}", "{solout}"),
                                     dialect="chromatic")
            g = families.complete(2)
            result = solve(build_pop(g, 2, anchor=0), adapter=adapter, time_limit=0.2)
            assert result.status is SolveStatus.FEASIBLE, result.log
            assert result.upper_bound == 2  # the incumbent's 2 colours, not the objective line
            assert result.values == {"y_1_0": 1, "y_1_1": 0}
            assert result.log.count("searching") == (2 if chatter else 0)

    def test_feasible_solution_file_without_values_is_a_timeout(self, tmp_path):
        script = tmp_path / "empty_handed.py"
        script.write_text("import sys\n"
                          "open(sys.argv[2], 'w').write('status feasible\\nbound 1\\n')\n")
        adapter = CommandAdapter(executable=sys.executable,
                                 args=(str(script), "{model}", "{solout}"),
                                 dialect="chromatic")
        g = families.complete(2)
        result = solve(build_pop(g, 2, anchor=0), adapter=adapter, time_limit=5)
        assert result.status is SolveStatus.TIMEOUT_NO_SOLUTION
        assert result.values is None and result.upper_bound is None
        assert result.lower_bound == 2  # the raw bound 1 plus the ordering model offset

    def test_no_incumbent_status_in_file_is_kept_over_chatty_stdout(self, tmp_path):
        script = tmp_path / "gave_up.py"
        script.write_text("import sys\n"
                          "open(sys.argv[2], 'w').write('status timeout_no_solution\\n"
                          "bound -inf\\n')\n"
                          "print('solver: out of time')\n")
        adapter = CommandAdapter(executable=sys.executable,
                                 args=(str(script), "{model}", "{solout}"),
                                 dialect="chromatic")
        result = solve(build_pop(families.complete(2), 2, anchor=0), adapter=adapter,
                       time_limit=5)
        assert result.status is SolveStatus.TIMEOUT_NO_SOLUTION, result.log
        assert (result.lower_bound, result.upper_bound, result.values) == (None, None, None)
        assert "out of time" in result.log

    def test_optimal_solution_file_without_values_is_an_error_without_bounds(self, tmp_path):
        script = tmp_path / "empty_handed.py"
        script.write_text("import sys\n"
                          "open(sys.argv[2], 'w').write('status optimal\\nbound 1\\n')\n")
        adapter = CommandAdapter(executable=sys.executable,
                                 args=(str(script), "{model}", "{solout}"),
                                 dialect="chromatic")
        g = families.complete(2)
        result = solve(build_pop(g, 2, anchor=0), adapter=adapter, time_limit=5)
        assert result.status is SolveStatus.ERROR
        assert (result.lower_bound, result.upper_bound, result.values) == (None, None, None)

    def test_garbage_solver_output_is_error_status(self, tmp_path):
        script = tmp_path / "fake_solver.py"
        script.write_text("import sys\n"
                          "open(sys.argv[2], 'w').write('gibberish output\\n')\n"
                          "print('done')\n")
        adapter = CommandAdapter(executable=sys.executable,
                                 args=(str(script), "{model}", "{solout}"),
                                 dialect="chromatic")
        g = families.complete(2)
        result = solve(build_pop(g, 2, anchor=0), adapter=adapter, time_limit=5)
        assert result.status is SolveStatus.ERROR
        assert "gibberish" in result.log


class TestNullAdapter:
    @pytest.mark.parametrize("kind", FORMULATIONS)
    def test_matches_oracle(self, kind):
        for seed in (0, 3):
            g = gnp_random(9, 0.5, seed)
            chi = chromatic_number_exact(g).chi
            inst = preprocess_pipeline(g, seed=seed, clique_time_budget=0.5)
            if inst.upper_bound < 2 and kind in ("pop", "pop2"):
                continue
            model = apply_clique_fixings(build_with_h_colors(kind, inst), inst)
            result = solve(model, adapter=NullAdapter(), time_limit=5)
            assert result.status is SolveStatus.OPTIMAL
            assert result.lower_bound == result.upper_bound == chi
            coloring = extract_coloring(model, result.values)
            assert coloring.num_colors == chi

    def test_reports_infeasible_below_chi(self):
        g = families.cycle(5)
        result = solve(build_pop(g, 2, anchor=0), adapter=NullAdapter(), time_limit=5)
        assert result.status is SolveStatus.INFEASIBLE

    def test_cap(self):
        g = gnp_random(20, 0.5, 1)
        model = build_with_h_colors("rep", preprocess_pipeline(g, clique_time_budget=0.5))
        with pytest.raises(ValueError, match="at most"):
            solve(model, adapter=NullAdapter(cap=16), time_limit=5)


class TestAdapterConfig:
    def test_load_builtin_names(self):
        assert isinstance(load_adapter("builtin"), BuiltinAdapter)
        assert load_adapter("builtin-sub").name == "builtin-sub"
        # the oracle-backed NullAdapter is a test double, not a shipped adapter
        with pytest.raises(SolverNotFoundError, match="unknown adapter"):
            load_adapter("null")

    def test_shipped_adapter_configs_load(self):
        import pathlib
        config_dir = pathlib.Path(__file__).parent.parent / "docs" / "adapters"
        for path in sorted(config_dir.glob("*.json")):
            adapter = load_adapter(str(path))
            assert isinstance(adapter, CommandAdapter)
            joined = " ".join(adapter.args)
            assert "{model}" in joined and "{timelimit}" in joined

    def test_load_json_config(self, tmp_path):
        config = {"name": "cbc", "path": "cbc",
                  "args": ["{model}", "-seconds", "{timelimit}",
                           "solve", "solu", "{solout}"],
                  "dialect": "cbc"}
        path = tmp_path / "cbc.json"
        path.write_text(json.dumps(config))
        adapter = load_adapter(str(path))
        assert isinstance(adapter, CommandAdapter)
        assert adapter.dialect == "cbc" and adapter.executable == "cbc"

    def test_args_as_string(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"path": "x", "args": "{model} --out {solout}"}))
        adapter = load_adapter(str(path))
        assert adapter.args == ("{model}", "--out", "{solout}")

    def test_unknown_name(self):
        with pytest.raises(SolverNotFoundError, match="unknown adapter"):
            load_adapter("nope-not-real")

    def test_bad_dialect(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"path": "x", "args": [], "dialect": "klingon"}))
        with pytest.raises(ValueError, match="unknown dialect"):
            load_adapter(str(path))

    @pytest.mark.parametrize("text, fault", [
        (json.dumps({"args": ["{model}"], "dialect": "cbc"}), '"path"'),
        (json.dumps({"path": 7}), '"path"'),
        (json.dumps(["cbc", "{model}"]), "expected a JSON object, got list"),
        (json.dumps({"path": "x", "args": ["{model}", 2]}), '"args"'),
        (json.dumps({"path": "x", "args": {"model": "{model}"}}), '"args"'),
        (json.dumps({"path": "x", "dialect": ["cbc"]}), "unknown dialect"),
        ('{"path": "cbc",', "Expecting property name"),
        (json.dumps({"path": "x", "args": '"unclosed'}), "No closing quotation"),
    ], ids=["no-path", "path-not-string", "list", "args-not-strings", "args-object",
            "dialect-list", "bad-json", "args-unclosed-quote"])
    def test_malformed_config_names_file_and_fault(self, tmp_path, text, fault):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError) as raised:
            load_adapter(str(path))
        assert str(raised.value).startswith(f"adapter config {path}: ")
        assert fault in str(raised.value)


class TestBackendInvariants:
    def test_bounds_and_colorings_on_solved_corpus(self):
        for seed in range(6):
            g = gnp_random(8, 0.4, seed)
            chi = chromatic_number_exact(g).chi
            inst = preprocess_pipeline(g, seed=seed, clique_time_budget=0.5)
            if inst.upper_bound < 2:
                continue
            for kind in ("ass", "pop2", "rep"):
                model = apply_clique_fixings(build_with_h_colors(kind, inst), inst)
                result = solve(model, time_limit=30)
                assert result.status is SolveStatus.OPTIMAL
                assert result.lower_bound == result.upper_bound
                assert result.lower_bound <= chi
                coloring = extract_coloring(model, result.values)
                assert coloring.num_colors == result.upper_bound


class TestTimeLimitRule:
    """One rule for a time limit, checked in `solve` before any adapter runs."""

    ADAPTERS = {"builtin": BuiltinAdapter, "builtin-sub": builtin_subprocess_adapter}

    @pytest.mark.parametrize("adapter_name", list(ADAPTERS))
    @pytest.mark.parametrize("limit", [
        float("inf"), float("nan"), 0, -1, 3e6,
        math.nextafter(lpsolve.MAX_TIME_LIMIT, math.inf)],
        ids=["inf", "nan", "0", "-1", "3e6", "just-above-max"])
    def test_refused_before_anything_runs(self, tmp_path, monkeypatch, adapter_name, limit):
        # unchecked, these split the routes: HiGHS in process solves inf,
        # nan, -1 and 3e6, where the LP-file route fails on each of them
        def no_run(*args, **kwargs):
            raise AssertionError("a solver ran")

        adapter = self.ADAPTERS[adapter_name]()
        monkeypatch.setattr(backend.subprocess, "run", no_run)
        monkeypatch.setattr(lpsolve, "solve_parsed", no_run)
        workdir = tmp_path / "work"
        with pytest.raises(ValueError, match=r"expected seconds in \(0, 1000000\], got "):
            solve(build_pop(families.cycle(5), 3, anchor=0), adapter=adapter,
                  time_limit=limit, workdir=workdir)
        assert not workdir.exists()

    @pytest.mark.parametrize("adapter_name", list(ADAPTERS))
    def test_largest_limit_solves(self, adapter_name):
        inst = preprocess_pipeline(families.cycle(5), seed=1, clique_time_budget=0.5)
        model = apply_clique_fixings(build_with_h_colors("pop2", inst), inst)
        result = solve(model, adapter=self.ADAPTERS[adapter_name](),
                       time_limit=lpsolve.MAX_TIME_LIMIT)
        assert result.status is SolveStatus.OPTIMAL, result.log
        assert result.upper_bound == 3
