import json
import subprocess
import sys
from dataclasses import replace

import pytest

from chromatic import bench, cli, families
from chromatic.backend import BuiltinAdapter, RawSolve, SolveStatus
from chromatic.bench import (BenchmarkRecord, ManifestRow, RunConfig, generate_set,
                             read_manifest, records_csv, run_bench,
                             solve_instance, summarize, summary_csv)
from chromatic.graph import (Coloring, ColoringError, Graph, parse_dimacs, verify_coloring,
                             write_dimacs)
from chromatic.models import ModelError
from chromatic.oracle import chromatic_number_exact


def run_cli(*argv) -> int:
    return cli.main(list(argv))


class TestColoringFiles:
    def test_round_trip(self, tmp_path):
        c = Coloring((1, 2, 1))
        path = tmp_path / "out.coloring"
        cli.write_coloring(c, path)
        assert path.read_text() == "v 1 1\nv 2 2\nv 3 1\n"
        assert cli.parse_coloring(path.read_text(), 3) == c

    def test_partial_file_rejected(self):
        with pytest.raises(ColoringError, match="missing vertices"):
            cli.parse_coloring("v 1 1\n", 2)

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ColoringError, match="duplicate"):
            cli.parse_coloring("v 1 1\nv 1 2\n", 1)

    def test_malformed_line(self):
        with pytest.raises(ColoringError, match="line 1"):
            cli.parse_coloring("vertex one gets red\n", 1)


class TestSolveInstance:
    def test_settled_in_preprocessing(self):
        g = families.complete(2)
        outcome = solve_instance(g, "k2", RunConfig(models=("pop", "rep"),
                                                    clique_time_budget=0.5))
        assert outcome.preprocessed.solved_in_preprocessing
        assert len(outcome.records) == 2
        for record in outcome.records:
            assert record.lb == record.ub == 2
            assert record.status == "optimal"
            assert record.time == outcome.prep_time
        assert set(outcome.colorings) == {"pop", "rep"}
        for coloring in outcome.colorings.values():
            assert verify_coloring(g, coloring).valid

    def test_settled_coloring_that_fails_verification_becomes_error_rows(self, monkeypatch):
        # K3 settles in preprocessing; an improper upper-bound coloring must
        # give each formulation an error row, not stop the run
        real = bench.preprocess_pipeline
        monkeypatch.setattr(bench, "preprocess_pipeline", lambda g, **kw: replace(
            real(g, **kw), greedy_coloring=Coloring((1, 1, 1))))
        outcome = solve_instance(families.complete(3), "k3",
                                 RunConfig(models=("pop", "rep"), clique_time_budget=0.5))
        assert outcome.preprocessed.solved_in_preprocessing
        assert [r.status for r in outcome.records] == ["error:ColoringError"] * 2
        assert all(r.error.startswith("ColoringError: coloring of reduced graph is invalid")
                   for r in outcome.records)
        assert outcome.colorings == {}

    def test_preprocessing_error_becomes_error_rows(self):
        outcome = solve_instance(Graph.from_edges(0, ()), "e", RunConfig(models=("pop", "rep")))
        assert outcome.preprocessed is None and outcome.colorings == {}
        assert [r.status for r in outcome.records] == ["error:ValueError"] * 2
        assert all(r.error == "ValueError: greedy_upper_bound needs at least one vertex"
                   and r.prep_time == outcome.prep_time for r in outcome.records)

    def test_full_solve_path(self):
        g = families.cycle(5)
        outcome = solve_instance(g, "c5", RunConfig(models=("pop2",),
                                                    time_limit=30,
                                                    clique_time_budget=0.5))
        record = outcome.records[0]
        assert (record.lb, record.ub, record.status) == (3, 3, "optimal")
        assert "pop2" in outcome.colorings

    def test_ordering_model_on_benchmark_family_instance(self):
        g = families.full_insertion(1, 4)  # 93 vertices, 593 edges, chi = 5
        outcome = solve_instance(g, "1-FullIns_4",
                                 RunConfig(models=("pop",), time_limit=120,
                                           clique_time_budget=1.0))
        record = outcome.records[0]
        assert (record.lb, record.ub) == (5, 5)

    @pytest.mark.usefixtures("null_adapter")
    def test_error_row_keeps_running(self):
        # an odd cycle neither reduces nor settles in preprocessing, and 17
        # vertices exceed the null adapter's cap: each model run becomes an
        # error row instead of an exception
        g = families.cycle(17)
        outcome = solve_instance(g, "big", RunConfig(models=("rep", "pop2"),
                                                     adapter="null",
                                                     time_limit=5,
                                                     clique_time_budget=0.5))
        assert not outcome.preprocessed.solved_in_preprocessing
        assert outcome.preprocessed.reduced.graph.n == 17
        assert len(outcome.records) == 2
        assert all(r.status.startswith("error") for r in outcome.records)
        assert [r.error for r in outcome.records] == [
            "ValueError: null adapter handles at most 16 vertices, got 17"] * 2


class TestPreprocessingBounds:
    """A row reads its solve, one color below H, with what preprocessing proved."""

    C7 = families.cycle(7)  # clique 2, H = chi = 3: the 2-color models are infeasible

    @staticmethod
    def run(monkeypatch, report=None, upper_bound=None, models=("pop2", "rep")):
        """solve_instance on C7. `report(raw)` rewrites what HiGHS reported;
        `upper_bound` stubs preprocessing's bound (its H-coloring is kept)."""
        if report is not None:
            class Stub(BuiltinAdapter):
                def solve_model(self, *args):
                    return report(super().solve_model(*args))

            monkeypatch.setattr(bench, "load_adapter", lambda spec: Stub())
        if upper_bound is not None:
            real = bench.preprocess_pipeline
            monkeypatch.setattr(bench, "preprocess_pipeline", lambda g, **kw: replace(
                real(g, **kw), upper_bound=upper_bound))
        outcome = solve_instance(TestPreprocessingBounds.C7, "c7",
                                 RunConfig(models=models, time_limit=30,
                                           clique_time_budget=0.5))
        assert not outcome.preprocessed.solved_in_preprocessing
        return outcome

    def test_infeasible_model_proves_chi_equal_to_h(self, monkeypatch):
        outcome = self.run(monkeypatch)
        for record in outcome.records:
            assert (record.lb, record.ub, record.status) == (3, 3, "optimal")
            assert record.coloring_source == "preprocessing" and record.time > 0
            coloring = outcome.colorings[record.model]
            assert verify_coloring(self.C7, coloring).valid and coloring.num_colors == 3

    def test_solver_optimum_below_h_keeps_the_solvers_coloring(self, monkeypatch):
        outcome = self.run(monkeypatch, upper_bound=4)
        for record in outcome.records:
            assert (record.lb, record.ub, record.status) == (3, 3, "optimal")
            assert record.coloring_source == "solver"
            assert outcome.colorings[record.model].num_colors == 3

    def test_timeout_without_values_keeps_clique_and_h(self, monkeypatch):
        outcome = self.run(monkeypatch, lambda raw: RawSolve(
            SolveStatus.TIMEOUT_NO_SOLUTION, None, None, None))
        for record in outcome.records:
            assert (record.lb, record.ub) == (2, 3)
            assert record.status == "timeout_no_solution"
            assert record.coloring_source == "preprocessing"
            coloring = outcome.colorings[record.model]
            assert verify_coloring(self.C7, coloring).valid and coloring.num_colors == 3

    def test_timeout_with_an_incumbent_keeps_the_solvers_bound_and_coloring(self, monkeypatch):
        # with H stubbed to 4 the 3-color models are feasible; the solve
        # reports its optimum as an incumbent with no dual bound
        outcome = self.run(monkeypatch, lambda raw: replace(
            raw, status=SolveStatus.FEASIBLE, bound=None), upper_bound=4)
        for record in outcome.records:
            assert (record.lb, record.ub, record.status) == (2, 3, "feasible")
            assert record.coloring_source == "solver"
            assert outcome.colorings[record.model].num_colors == 3

    def test_error_rows_stay_unchanged(self, monkeypatch):
        outcome = self.run(monkeypatch, lambda raw: RawSolve(
            SolveStatus.ERROR, None, None, None, "stub failure"))
        for record in outcome.records:
            assert (record.lb, record.ub, record.status) == (None, None, "error")
            assert record.coloring_source == "" and record.error == ""
        assert outcome.colorings == {}


class TestGenerate:
    def test_custom_set(self, tmp_path):
        rows = generate_set("custom", seed=3, outdir=tmp_path, n=10, p=0.5, count=3)
        assert len(rows) == 3
        files = sorted(f.name for f in tmp_path.glob("*.col"))
        assert len(files) == 3
        manifest = read_manifest(tmp_path / "manifest.csv")
        assert [row.file for row in manifest] == [row.file for row in rows]
        g = parse_dimacs((tmp_path / rows[0].file).read_text())
        assert g.n == 10 and g.m == rows[0].m

    def test_seed_comment_line(self, tmp_path):
        rows = generate_set("custom", seed=1, outdir=tmp_path, n=5, p=0.5, count=1)
        text = (tmp_path / rows[0].file).read_text()
        assert text.splitlines()[0] == f"c seed={rows[0].seed} p=0.5"

    def test_set100_shape(self, tmp_path):
        rows = generate_set("set100", seed=0, outdir=tmp_path)
        assert len(rows) == 100
        assert all(row.n == 70 for row in rows)
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert sum(1 for row in rows if row.p == p) == 20

    def test_sparse240_shape(self, tmp_path):
        rows = generate_set("sparse240", seed=0, outdir=tmp_path)
        assert len(rows) == 240
        for n in (80, 90, 100):
            for p in (0.1, 0.15, 0.2, 0.25):
                assert sum(1 for row in rows if row.n == n and row.p == p) == 20

    def test_deterministic(self, tmp_path):
        a = generate_set("custom", seed=5, outdir=tmp_path / "a", n=8, p=0.3, count=2)
        b = generate_set("custom", seed=5, outdir=tmp_path / "b", n=8, p=0.3, count=2)
        for ra, rb in zip(a, b):
            assert (ra.file, ra.seed) == (rb.file, rb.seed)
            assert (tmp_path / "a" / ra.file).read_text() == \
                (tmp_path / "b" / rb.file).read_text()

    def test_custom_requires_parameters(self, tmp_path):
        with pytest.raises(ValueError, match="custom generation needs"):
            generate_set("custom", seed=0, outdir=tmp_path)


class TestBenchAndSummary:
    def make_set(self, tmp_path, count=5):
        return generate_set("custom", seed=2, outdir=tmp_path, n=10, p=0.5,
                            count=count), tmp_path

    def test_rows_and_summary(self, tmp_path):
        manifest, base = self.make_set(tmp_path)
        cfg = RunConfig(models=("pop2", "rep"), time_limit=30, clique_time_budget=0.5)
        records = run_bench(manifest, base, cfg)
        assert len(records) == 10
        names = [record.instance for record in records]
        assert names == sorted(names, key=names.index)  # manifest order
        for record in records:
            if record.status == "optimal":
                assert record.lb == record.ub
        summary = summarize(manifest, records)
        assert {row["model"] for row in summary} == {"pop2", "rep"}
        for row in summary:
            assert int(row["solved"]) + int(row["unsolved"]) == int(row["instances"])

    def test_parallel_matches_serial(self, tmp_path):
        manifest, base = self.make_set(tmp_path, count=4)
        cfg = RunConfig(models=("pop",), time_limit=30, clique_time_budget=0.5)
        serial = run_bench(manifest, base, cfg)
        parallel = run_bench(manifest, base, RunConfig(models=("pop",), time_limit=30,
                                                       clique_time_budget=0.5, jobs=2))
        strip = lambda recs: records_csv([replace(r, time=0.0, prep_time=0.0) for r in recs])
        assert strip(serial) == strip(parallel)

    def test_sweep_continues_past_broken_instance_file(self, tmp_path):
        manifest, base = self.make_set(tmp_path, count=2)
        (tmp_path / manifest[0].file).write_text("p edge 3 1\ne 1 9\n")
        cfg = RunConfig(models=("rep",), time_limit=30, clique_time_budget=0.5)
        records = run_bench(manifest, base, cfg)
        assert len(records) == 2
        assert records[0].status.startswith("error")
        assert records[1].status == "optimal"

    def test_sweep_continues_past_graph_with_no_vertices(self, tmp_path):
        (tmp_path / "empty.col").write_text("p edge 0 0\n")
        (tmp_path / "k3.col").write_text(write_dimacs(families.complete(3)))
        manifest = [ManifestRow(file="empty.col", name="empty", n=0, m=0, p=0.0, seed=0),
                    ManifestRow(file="k3.col", name="k3", n=3, m=3, p=1.0, seed=0)]
        cfg = RunConfig(models=("pop",), time_limit=30, clique_time_budget=0.5)
        records = run_bench(manifest, tmp_path, cfg)
        assert [(r.instance, r.status) for r in records] == [
            ("empty", "error:DimacsError"), ("k3", "optimal")]
        assert records[0].error == "DimacsError: line 1: problem line declares no vertices"

    def test_timed_out_counts_as_unsolved(self):
        base = BenchmarkRecord(instance="x", n=5, m=5, model="pop", clique_mode="e",
                               lb=2, ub=3, time=60.0, status="feasible", seed=0,
                               prep_time=0.0)
        manifest = []
        summary = summarize(manifest, [base])
        assert summary[0]["unsolved"] == "1" and summary[0]["solved"] == "0"

    def test_csv_shape(self):
        record = BenchmarkRecord(instance="x", n=5, m=4, model="rep", clique_mode="c",
                                 lb=None, ub=None, time=1.0, status="timeout_no_solution",
                                 seed=7, prep_time=0.5, hardness_class="NP-m")
        text = records_csv([record])
        header, row = text.strip().splitlines()
        assert header == "instance,n,m,class,model,clique,lb,ub,time,status,seed,prep_time"
        assert row == "x,5,4,NP-m,rep,c,-inf,inf,1.00,timeout_no_solution,7,0.50"
        assert summary_csv(summarize([], [record]))  # shape sanity


class TestCliCommands:
    def test_solve_writes_outputs(self, tmp_path, capsys):
        instance = tmp_path / "k2.col"
        instance.write_text(write_dimacs(families.complete(2)))
        code = run_cli("solve", str(instance), "--model", "pop2", "--time-limit", "60",
                       "--clique-budget", "5", "--out", str(tmp_path / "out"))
        assert code == 0
        printed = capsys.readouterr().out
        assert "bounds met in preprocessing" in printed
        csv_text = (tmp_path / "out" / "k2.csv").read_text()
        assert "optimal" in csv_text
        coloring = cli.parse_coloring(
            (tmp_path / "out" / "k2.pop2.coloring").read_text(), 2)
        assert coloring.num_colors == 2

    def test_solve_prints_the_error_of_a_failed_model(self, tmp_path, capsys, monkeypatch):
        def refuse(kind, inst):
            raise ModelError(f"no {kind} today")

        monkeypatch.setattr(bench, "build_formulation", refuse)
        instance = tmp_path / "c5.col"
        instance.write_text(write_dimacs(families.cycle(5)))
        assert run_cli("solve", str(instance), "--model", "pop", "--model", "rep",
                       "--clique-budget", "0.5", "--out", str(tmp_path / "out")) == 1
        lines = capsys.readouterr().out.splitlines()
        at = next(i for i, line in enumerate(lines) if line.lstrip().startswith("pop "))
        assert "status=error:ModelError" in lines[at]
        assert lines[at + 1].strip() == "ModelError: no pop today"
        assert "        ModelError: no rep today" in lines
        # the CSV status column keeps the exception type only
        csv_text = (tmp_path / "out" / "c5.csv").read_text()
        assert ",error:ModelError," in csv_text and "today" not in csv_text

    def test_bench_prints_the_error_of_each_failed_row(self, tmp_path, capsys, monkeypatch):
        real = bench.build_formulation

        def refuse_rep(kind, inst):
            if kind == "rep":
                raise ModelError("no rep today")
            return real(kind, inst)

        monkeypatch.setattr(bench, "build_formulation", refuse_rep)
        (tmp_path / "broken.col").write_text("p edge 3 1\ne 1 9\n")
        (tmp_path / "c7.col").write_text(write_dimacs(families.cycle(7)))
        (tmp_path / "manifest.csv").write_text("file,name,n,m,p,seed,class\n"
                                               "broken.col,broken,3,1,0,0,\n"
                                               "c7.col,c7,7,7,0,0,\n")
        out_csv = tmp_path / "bench.csv"
        assert run_cli("bench", str(tmp_path / "manifest.csv"), "--model", "pop2",
                       "--model", "rep", "--clique-budget", "0.5", "--out", str(out_csv)) == 0
        errors = capsys.readouterr().err.splitlines()
        assert errors[0].startswith("broken pop2: DimacsError: ")
        assert errors[1].startswith("broken rep: DimacsError: ")
        assert errors[2:] == ["c7 rep: ModelError: no rep today"]
        # the CSV status column keeps the exception type only
        rows = out_csv.read_text().splitlines()
        assert [row.split(",")[9] for row in rows[1:]] == [
            "error:DimacsError", "error:DimacsError", "optimal", "error:ModelError"]
        assert "today" not in out_csv.read_text()

    def test_solve_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.col"
        bad.write_text("p edge 2 1\ne 1 5\n")
        assert run_cli("solve", str(bad)) == 2
        assert "out of range" in capsys.readouterr().err

    def test_solve_bad_adapter_spec(self, tmp_path, capsys):
        instance = tmp_path / "k2.col"
        instance.write_text(write_dimacs(families.complete(2)))
        assert run_cli("solve", str(instance), "--adapter", "no-such-adapter") == 2
        assert "unknown adapter" in capsys.readouterr().err

    def test_solve_prints_rows_when_preprocessing_fails(self, tmp_path, capsys, monkeypatch):
        def refuse(g, **kwargs):
            raise ValueError("no preprocessing today")

        monkeypatch.setattr(bench, "preprocess_pipeline", refuse)
        instance = tmp_path / "c5.col"
        instance.write_text(write_dimacs(families.cycle(5)))
        assert run_cli("solve", str(instance), "--model", "pop2") == 1
        printed = capsys.readouterr().out
        assert "preprocessing:" not in printed
        assert "status=error:ValueError" in printed
        assert "ValueError: no preprocessing today" in printed

    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize("config", [{"args": ["{model}"]}, ["cbc", "{model}"]],
                             ids=["no-path", "list"])
    def test_malformed_adapter_config_exit_two(self, tmp_path, capsys, command, config):
        (tmp_path / "k3.col").write_text(write_dimacs(families.complete(3)))
        (tmp_path / "manifest.csv").write_text("file,name,n,m,p,seed,class\n"
                                               "k3.col,k3,3,3,0,0,\n")
        adapter = tmp_path / "cfg.json"
        adapter.write_text(json.dumps(config))
        target = tmp_path / ("k3.col" if command == "solve" else "manifest.csv")
        assert run_cli(command, str(target), "--adapter", str(adapter)) == 2
        assert f"chromatic {command}: adapter config {adapter}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize("flag", ["--time-limit", "--clique-budget"])
    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1", "3e6"])
    def test_limit_must_be_finite_and_positive(self, tmp_path, capsys, command, flag, value):
        (tmp_path / "k3.col").write_text(write_dimacs(families.complete(3)))
        (tmp_path / "manifest.csv").write_text("file,name,n,m,p,seed,class\n"
                                               "k3.col,k3,3,3,0,0,\n")
        target = tmp_path / ("k3.col" if command == "solve" else "manifest.csv")
        with pytest.raises(SystemExit) as raised:
            run_cli(command, str(target), f"{flag}={value}")
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: " in captured.err and captured.out == ""

    @pytest.mark.parametrize("command, out_name, in_the_way", [
        ("solve", "taken", "taken"), ("bench", "taken/bench.csv", "taken"),
        ("bench", "directory", "directory"), ("bench", "bench.csv", "bench.summary.csv")],
        ids=["solve", "bench", "bench-into-directory", "bench-summary-into-directory"])
    def test_unusable_out_exits_two_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                     command, out_name, in_the_way):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the output location was made")

        monkeypatch.setattr(bench, "solve", no_solve)
        (tmp_path / "c5.col").write_text(write_dimacs(families.cycle(5)))
        (tmp_path / "manifest.csv").write_text("file,name,n,m,p,seed,class\n"
                                               "c5.col,c5,5,5,0,0,\n")
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        for directory in ("directory", "bench.summary.csv"):
            (tmp_path / directory).mkdir()
        target = tmp_path / ("c5.col" if command == "solve" else "manifest.csv")
        out = tmp_path / out_name
        assert run_cli(command, str(target), "--model", "pop", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert f"chromatic {command}: " in captured.err and captured.out == ""
        assert str(tmp_path / in_the_way) in captured.err
        assert taken.read_text() == "a file, not a directory\n"
        assert not (tmp_path / "bench.csv").exists()
        for directory in ("directory", "bench.summary.csv"):
            assert list((tmp_path / directory).iterdir()) == []

    def test_generate_and_bench_and_verify(self, tmp_path, capsys):
        assert run_cli("generate", "custom", "--n", "9", "--p", "0.4",
                       "--count", "2", "--seed", "4", "--out", str(tmp_path / "set")) == 0
        out_csv = tmp_path / "bench.csv"
        assert run_cli("bench", str(tmp_path / "set" / "manifest.csv"),
                       "--model", "pop2", "--model", "rep", "--time-limit", "60",
                       "--clique-budget", "5", "--out", str(out_csv)) == 0
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2
        assert (tmp_path / "bench.summary.csv").exists()

        instance = tmp_path / "set" / "gnp_n9_p0.4_00.col"
        solve_dir = tmp_path / "solved"
        assert run_cli("solve", str(instance), "--model", "rep", "--time-limit", "60",
                       "--clique-budget", "5", "--out", str(solve_dir)) == 0
        coloring_file = solve_dir / "gnp_n9_p0.4_00.rep.coloring"
        assert run_cli("verify", str(instance), str(coloring_file)) == 0
        out = capsys.readouterr().out
        assert "valid coloring" in out

    def test_verify_detects_conflict(self, tmp_path, capsys):
        instance = tmp_path / "k3.col"
        instance.write_text(write_dimacs(families.complete(3)))
        coloring = tmp_path / "bad.coloring"
        coloring.write_text("v 1 1\nv 2 1\nv 3 2\n")
        assert run_cli("verify", str(instance), str(coloring)) == 1
        assert "edge (1,2)" in capsys.readouterr().out

    def test_verify_format_error_exit_two(self, tmp_path, capsys):
        instance = tmp_path / "k3.col"
        instance.write_text(write_dimacs(families.complete(3)))
        coloring = tmp_path / "bad.coloring"
        coloring.write_text("v 1 1\n")
        assert run_cli("verify", str(instance), str(coloring)) == 2

    @pytest.mark.parametrize("argv", [["solve", "x.col"], ["bench", "m.csv"]],
                             ids=["solve", "bench"])
    def test_no_flags_give_the_run_config_defaults(self, argv):
        args = cli.build_parser().parse_args(argv)
        assert cli._config_from_args(args) == RunConfig()

    def test_given_flags_win(self):
        args = cli.build_parser().parse_args([
            "bench", "m.csv", "--model", "rep", "--model", "ass", "--clique", "c",
            "--time-limit", "5", "--clique-budget", "0.5", "--seed", "3",
            "--adapter", "builtin-sub", "--jobs", "2"])
        assert cli._config_from_args(args) == RunConfig(
            models=("rep", "ass"), clique_mode="c", time_limit=5.0, clique_time_budget=0.5,
            adapter="builtin-sub", seed=3, jobs=2)

    def test_verify_oracle_witness_for_petersen(self, tmp_path):
        g = families.petersen()
        instance = tmp_path / "petersen.col"
        instance.write_text(write_dimacs(g))
        witness = chromatic_number_exact(g).witness
        coloring_file = tmp_path / "petersen.coloring"
        cli.write_coloring(witness, coloring_file)
        assert run_cli("verify", str(instance), str(coloring_file)) == 0


class TestBundledSolverScript:
    def test_cli_end_to_end(self, tmp_path):
        from chromatic.lp import emit_lp
        from chromatic.models import build_pop
        model = build_pop(families.cycle(5), 3, anchor=0)
        lp_path = tmp_path / "m.lp"
        lp_path.write_text(emit_lp(model))
        sol_path = tmp_path / "m.sol"
        proc = subprocess.run(
            [sys.executable, "-m", "chromatic.lpsolve", str(lp_path),
             "--out", str(sol_path), "--time-limit", "30"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        text = sol_path.read_text()
        assert "status optimal" in text
        assert "objective 2" in text  # offset lives outside the LP file

    def test_unreadable_model_exit_code(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "chromatic.lpsolve", str(tmp_path / "none.lp"),
             "--out", str(tmp_path / "x.sol")],
            capture_output=True, text=True)
        assert proc.returncode == 2

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.lp"
        bad.write_text("this is not an lp file\n")
        proc = subprocess.run(
            [sys.executable, "-m", "chromatic.lpsolve", str(bad),
             "--out", str(tmp_path / "x.sol")],
            capture_output=True, text=True)
        assert proc.returncode == 3
