"""scipy loads only where HiGHS runs in-process, each case in a fresh interpreter."""
import json
import subprocess
import sys
from pathlib import Path

import chromatic

PACKAGE_ROOT = str(Path(chromatic.__file__).resolve().parents[1])


def fresh(code: str):
    """Run `code` in a new interpreter that imports this package copy; return
    what it printed as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {PACKAGE_ROOT!r})\n{code}"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_and_cli_import_no_scipy():
    loaded = fresh("import json, chromatic, chromatic.cli\n"
                   "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
    assert loaded == []


def test_builtin_sub_parent_never_imports_scipy():
    status, chi, optimize = fresh(
        "import json\n"
        "from chromatic import RunConfig, families, solve_instance\n"
        "outcome = solve_instance(families.cycle(5), 'c5',\n"
        "                         RunConfig(models=('pop2',), adapter='builtin-sub'))\n"
        "(record,) = outcome.records\n"
        "print(json.dumps([record.status, record.ub, 'scipy.optimize' in sys.modules]))")
    assert (status, chi, optimize) == ("optimal", 3, False)


def test_builtin_adapter_loads_highs_when_made():
    # so the import falls before any solve's clock starts
    before, after = fresh(
        "import json, chromatic\n"
        "before = 'scipy.optimize' in sys.modules\n"
        "chromatic.load_adapter('builtin')\n"
        "print(json.dumps([before, 'scipy.optimize' in sys.modules]))")
    assert (before, after) == (False, True)
