import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import chromatic
from chromatic import backend, families, lpsolve
from chromatic.backend import (DIALECTS, BuiltinAdapter, CommandAdapter,
                               RawSolve, SolutionParseError,
                               SolverNotFoundError, SolveStatus,
                               builtin_subprocess_adapter, integral_floor_bound,
                               load_adapter, parse_solution, solve)
from chromatic.graph import Graph, gnp_random
from chromatic.lp import emit_lp
from chromatic.models import (FORMULATIONS, apply_clique_fixings,
                              build_formulation, build_pop, extract_coloring)
from chromatic.oracle import chromatic_number_exact
from chromatic.preprocess import preprocess_pipeline
from conftest import NullAdapter


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
        model = apply_clique_fixings(build_formulation("pop2", inst), inst)
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


ROUTE_GRAPHS = [gnp_random(n, p, seed=n) for n in (8, 10, 12) for p in (0.3, 0.7)] \
    + [families.cycle(5)]


def _milp_arrays(monkeypatch, call):
    """Run `call` and return every array it hands to the one HiGHS call."""
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
    (rows,) = kwargs["constraints"]
    return {"c": kwargs["c"], "integrality": kwargs["integrality"],
            "lb": kwargs["bounds"].lb, "ub": kwargs["bounds"].ub,
            "indptr": rows.A.indptr, "indices": rows.A.indices, "data": rows.A.data,
            "row_lo": rows.lb, "row_hi": rows.ub}


class TestInProcessRoute:
    """The builtin adapter gives HiGHS the model itself, with no LP text."""

    @pytest.mark.parametrize("fixed", [False, True], ids=["plain", "fixed"])
    @pytest.mark.parametrize("kind", FORMULATIONS)
    def test_same_arrays_as_lp_text_route(self, monkeypatch, kind, fixed):
        for g in ROUTE_GRAPHS:
            inst = preprocess_pipeline(g, seed=1, clique_time_budget=5)
            model = build_formulation(kind, inst)
            if fixed:
                model = apply_clique_fixings(model, inst)
            from_text = _milp_arrays(
                monkeypatch, lambda: lpsolve.solve_lp_text(emit_lp(model), time_limit=30))
            in_process = _milp_arrays(monkeypatch, lambda: solve(model, time_limit=30))
            for key, expected in from_text.items():
                got = in_process[key]
                assert got.dtype == expected.dtype and got.shape == expected.shape, key
                assert got.tobytes() == expected.tobytes(), (g.n, g.m, key)

    def test_no_lp_text_without_workdir(self, monkeypatch, tmp_path):
        g = gnp_random(10, 0.5, seed=3)
        inst = preprocess_pipeline(g, seed=3, clique_time_budget=5)
        model = apply_clique_fixings(build_formulation("pop2", inst), inst)
        expected_lp = emit_lp(model).encode()

        def no_text(*args, **kwargs):
            raise AssertionError("LP text used on the in-process route")

        monkeypatch.setattr(backend, "emit_lp", no_text)
        monkeypatch.setattr(lpsolve, "parse_lp", no_text)
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
def _golden_instance(position: int):
    return preprocess_pipeline(GOLDEN_GRAPHS[position], seed=1, clique_time_budget=60)


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


# SHA-256 of the emitted LP bytes and of the HiGHS arrays, each over all of
# GOLDEN_GRAPHS in order, per (formulation, clique fixings).
GOLDEN_MODEL_DIGESTS = {
    ('ass-s', False): ("1bcebd59dc0844efaec3a979fa168dd557fb69487c31f4f591841f848f81b34a",
                     "fb9b63a6ab5d34a49f036888ba4ea2d9e2da451b12be2e3559ecda68e64ad615"),
    ('ass-s', True): ("57a09f5200c1f74386df2ecff418a4ae427ada552d7f24ea22c50f25bbd5eff2",
                    "b91e03bff313d2df2fa8631d6fb23116a1907048e483f1639611e6f321537fab"),
    ('ass', False): ("91b0a52ee19739105460c6527a2348955326cd64c709078d20f21fffeb302400",
                   "8ec92b74c9cfc103aed441b30ce686565a45d6b03f9662666521e277889904a4"),
    ('ass', True): ("ccfe591f58829056c7c08dcf4e4b4aed1c3ba45e3990cc821770a08d1b4f0b0c",
                  "770bdd32b9cce667283efaaca09ae9cc87a26ee69a395fba5845e56ea518044e"),
    ('pop', False): ("776232bbd5fbc79d6ac9ea5f4b584a9df303b0edcf5aca6544342943cfff846f",
                   "31fea088f486312c67f4054a84506220600e2b5d9b37332c98b0fcbfe6807758"),
    ('pop', True): ("df68265924ebb949ddbde2114a9ef964ee17000f216910e66f89bd7462167b82",
                  "e6500f853d0885bb67e32f1dc30577bed8cd8922bb5b8f1a95bc39235fa40133"),
    ('pop2', False): ("b9babcad30e04b42d222301e07411a0a90ffbd690119a9ef69188c63849c642a",
                    "ab228e4f548fbbed22490729fb90bc39211ee8c57600afe3c019c6952f9bd751"),
    ('pop2', True): ("dad64d5cd363c94183d27868010fd0dea12a83a7e6928bc56b91358fab3839c2",
                   "476e5ee07b171b72f94530a003c033a05a2903251d3ff15b5f4c25c2146edf74"),
    ('rep', False): ("f3326c33038e12c2c6d79bdc86cfb04ef95f297cf4c47302fdfa80cc142374dc",
                   "7edeb95c23bb2704e7486af246f7ce7cba3abc28aecce38276e9ee130ccfbe65"),
    ('rep', True): ("a71e1fc374943ac9236bc4673785ab34fc78d49242586aedeaf52d34dfa1b3cc",
                  "3fb3dbd031d97dd0826fe2c7d0fc5e5f585aab0011858350f63537a7570519b6"),
}


class TestGoldenModelBytes:
    """Both routes are pinned to fixed bytes, not only to each other."""

    @pytest.mark.parametrize("fixed", [False, True], ids=["plain", "fixed"])
    @pytest.mark.parametrize("kind", FORMULATIONS)
    def test_lp_text_and_highs_arrays(self, monkeypatch, kind, fixed):
        lp_hash, arrays_hash = hashlib.sha256(), hashlib.sha256()
        for position in range(len(GOLDEN_GRAPHS)):
            inst = _golden_instance(position)
            model = build_formulation(kind, inst)
            if fixed:
                model = apply_clique_fixings(model, inst)
            lp_hash.update(emit_lp(model).encode())
            arrays_hash.update(_digest_arrays(_captured_milp_arrays(monkeypatch, model)).encode())
        got = (lp_hash.hexdigest(), arrays_hash.hexdigest())
        assert got == GOLDEN_MODEL_DIGESTS[kind, fixed]


class TestSubprocessAdapter:
    def test_bundled_solver_through_subprocess(self):
        g = families.cycle(5)
        inst = preprocess_pipeline(g, seed=1, clique_time_budget=0.5)
        model = apply_clique_fixings(build_formulation("ass", inst), inst)
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
        model = apply_clique_fixings(build_formulation("ass", inst), inst)
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
            model = apply_clique_fixings(build_formulation("ass", inst), inst)
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
        monkeypatch.setattr("chromatic.backend.KILL_GRACE_SECONDS", 0.5)
        script = tmp_path / "sleepy_solver.py"
        script.write_text("import time\ntime.sleep(600)\n")
        adapter = CommandAdapter(executable=sys.executable,
                                 args=(str(script), "{model}", "{solout}"),
                                 dialect="chromatic")
        g = families.complete(2)
        result = solve(build_pop(g, 2, anchor=0), adapter=adapter, time_limit=0.2)
        assert result.status is SolveStatus.TIMEOUT_NO_SOLUTION
        assert result.wall_time < 30

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
            model = apply_clique_fixings(build_formulation(kind, inst), inst)
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
        model = build_formulation("rep", preprocess_pipeline(g, clique_time_budget=0.5))
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
                model = apply_clique_fixings(build_formulation(kind, inst), inst)
                result = solve(model, time_limit=30)
                assert result.status is SolveStatus.OPTIMAL
                assert result.lower_bound == result.upper_bound
                assert result.lower_bound <= chi
                coloring = extract_coloring(model, result.values)
                assert coloring.num_colors == result.upper_bound
