"""No chromatic process imports scipy.optimize or scipy.sparse; the HiGHS
binding loads only where HiGHS runs in-process; the `builtin-sub` child
loads two modules of the package, no numpy and no process pool; no process
imports numpy.random, which adds about 6 MB to it. Each case runs in a
fresh interpreter."""
from chromatic.lpsolve import HIGHS_MODULE
from conftest import fresh

# which of the scipy packages are in sys.modules, as an expression
PACKAGES = "[m for m in ('scipy', 'scipy.optimize', 'scipy.sparse') if m in sys.modules]"
CHILD_MODULES = ["chromatic", "chromatic.lpsolve"]


def solve_in_child(tmp_path, report: str):
    """Run `lpsolve.main` on a 1-row LP in a fresh interpreter, imported as
    the `builtin-sub` child imports it; return the expression `report` then."""
    (tmp_path / "model.lp").write_text(
        "Minimize\n obj: x + y\nSubject To\n c1: x + y >= 1\nBinaries\n x y\nEnd\n")
    solution = tmp_path / "model.sol"
    loaded = fresh("import chromatic.lpsolve\n"
                   f"assert chromatic.lpsolve.main([{str(tmp_path / 'model.lp')!r}, "
                   f"'--out', {str(solution)!r}]) == 0\n"
                   f"print(json.dumps({report}))")
    assert "status optimal" in solution.read_text()
    return loaded


def test_package_and_cli_import_no_scipy():
    loaded = fresh("import chromatic, chromatic.cli\n"
                   "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
    assert loaded == []


def test_cli_and_bench_load_no_process_pool_until_a_run_uses_one():
    loaded = fresh("import chromatic.cli, chromatic.bench\n"
                   "print(json.dumps([m for m in ('concurrent.futures.process', 'multiprocessing')\n"
                   "                  if m in sys.modules]))")
    assert loaded == []


def test_builtin_sub_parent_never_imports_scipy():
    status, chi, loaded = fresh(
        "from chromatic import RunConfig, families, solve_instance\n"
        "outcome = solve_instance(families.cycle(5), 'c5',\n"
        "                         RunConfig(models=('pop2',), adapter='builtin-sub'))\n"
        "(record,) = outcome.records\n"
        "print(json.dumps([record.status, record.ub,\n"
        "                  [m for m in sys.modules if m.split('.')[0] == 'scipy']]))")
    assert (status, chi, loaded) == ("optimal", 3, [])


def test_preprocessing_and_a_builtin_solve_import_no_numpy_random():
    status, loaded = fresh(
        "from chromatic import RunConfig, families, preprocess_pipeline, solve_instance\n"
        "g = families.cycle(7)\n"
        "preprocess_pipeline(g, seed=1)\n"
        "(record,) = solve_instance(g, 'c7', RunConfig(models=('pop',))).records\n"
        "print(json.dumps([record.status, 'numpy.random' in sys.modules]))")
    assert (status, loaded) == ("optimal", False)


def test_builtin_adapter_loads_highs_when_made():
    # so the load falls before any solve's clock starts
    before, after, packages = fresh(
        "import chromatic\n"
        f"before = {HIGHS_MODULE!r} in sys.modules\n"
        "chromatic.load_adapter('builtin')\n"
        f"print(json.dumps([before, {HIGHS_MODULE!r} in sys.modules, {PACKAGES}]))")
    assert (before, after, packages) == (False, True, [])


def test_chromatic_lps_child_imports_no_scipy_package(tmp_path):
    assert solve_in_child(tmp_path, PACKAGES) == []


def test_chromatic_lps_child_loads_only_the_driver_and_no_numpy(tmp_path):
    package, pool, numpy = solve_in_child(
        tmp_path, "[sorted(m for m in sys.modules if m.split('.')[0] == 'chromatic'), "
                  "'concurrent.futures' in sys.modules, 'numpy' in sys.modules]")
    assert (package, pool, numpy) == (CHILD_MODULES, False, False)


def test_scipy_milp_still_works_after_the_binding_loads():
    # one copy of the extension serves both: loading it twice would fail
    status, same = fresh(
        "from chromatic import lpsolve\n"
        "binding = lpsolve.load_highs()\n"
        "import scipy.optimize\n"
        "res = scipy.optimize.milp(c=[1, 1], integrality=[1, 1],\n"
        "    constraints=scipy.optimize.LinearConstraint([[1, 1]], 1, 2))\n"
        f"print(json.dumps([res.status, sys.modules[{HIGHS_MODULE!r}] is binding]))")
    assert (status, same) == (0, True)


def test_binding_is_scipys_own_when_scipy_optimize_came_first():
    status, same = fresh(
        "import scipy.optimize\n"
        "from chromatic import lp, lpsolve\n"
        "outcome = lpsolve.solve_parsed(lp.parse_lp('Minimize\\n obj: x\\nSubject To\\n'\n"
        "                                           ' c: x >= 1\\nBinaries\\n x\\nEnd\\n'),\n"
        "                               time_limit=10)\n"
        "print(json.dumps([outcome.status.value,\n"
        "                  lpsolve.load_highs() is scipy.optimize._highspy._core]))")
    assert (status, same) == ("optimal", True)
