"""No chromatic process imports scipy.optimize or scipy.sparse; the HiGHS
binding loads only where HiGHS runs in-process. Each case runs in a fresh
interpreter."""
import json
import subprocess
import sys
from pathlib import Path

import chromatic
from chromatic.lpsolve import HIGHS_MODULE

PACKAGE_ROOT = str(Path(chromatic.__file__).resolve().parents[1])
# which of the scipy packages are in sys.modules, as an expression
PACKAGES = "[m for m in ('scipy', 'scipy.optimize', 'scipy.sparse') if m in sys.modules]"


def fresh(code: str):
    """Run `code` in a new interpreter that imports this package copy; return
    what it printed last, as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys; sys.path.insert(0, {PACKAGE_ROOT!r})\n{code}"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_and_cli_import_no_scipy():
    loaded = fresh("import chromatic, chromatic.cli\n"
                   "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
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


def test_builtin_adapter_loads_highs_when_made():
    # so the load falls before any solve's clock starts
    before, after, packages = fresh(
        "import chromatic\n"
        f"before = {HIGHS_MODULE!r} in sys.modules\n"
        "chromatic.load_adapter('builtin')\n"
        f"print(json.dumps([before, {HIGHS_MODULE!r} in sys.modules, {PACKAGES}]))")
    assert (before, after, packages) == (False, True, [])


def test_chromatic_lps_child_imports_no_scipy_package(tmp_path):
    (tmp_path / "model.lp").write_text(
        "Minimize\n obj: x + y\nSubject To\n c1: x + y >= 1\nBinaries\n x y\nEnd\n")
    solution = tmp_path / "model.sol"
    loaded = fresh("from chromatic import lpsolve\n"
                   f"assert lpsolve.main([{str(tmp_path / 'model.lp')!r}, "
                   f"'--out', {str(solution)!r}]) == 0\n"
                   f"print(json.dumps({PACKAGES}))")
    assert loaded == []
    assert "status optimal" in solution.read_text()


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
        "from chromatic import lpsolve\n"
        "outcome = lpsolve.solve_lp_text('Minimize\\n obj: x\\nSubject To\\n c: x >= 1\\n'\n"
        "                                'Binaries\\n x\\nEnd\\n', time_limit=10)\n"
        "print(json.dumps([outcome.status.value,\n"
        "                  lpsolve.load_highs() is scipy.optimize._highspy._core]))")
    assert (status, same) == ("optimal", True)
