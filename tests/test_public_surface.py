"""The package's public surface: `__all__` is exact, names bind on first use,
and deleted names stay gone."""
import importlib
import importlib.util
import inspect
import pkgutil
from dataclasses import fields

import pytest

import chromatic
from chromatic.backend import SolveResult
from chromatic.bench import RunConfig
from chromatic.graph import Graph
from chromatic.models import MilpModel, RowBlock, objective_value
from chromatic.preprocess import Saturation
from conftest import fresh

MODULES = [chromatic] + [importlib.import_module(f"chromatic.{info.name}")
                         for info in pkgutil.iter_modules(chromatic.__path__)]


def test_every_exported_name_is_bound_once():
    assert len(set(chromatic.__all__)) == len(chromatic.__all__)
    assert [name for name in chromatic.__all__ if not hasattr(chromatic, name)] == []


def test_import_loads_no_submodule():
    assert fresh("import chromatic\n"
                 "print(json.dumps([m for m in sys.modules if m.startswith('chromatic.')]))") == []


def test_dir_lists_and_star_import_binds_every_exported_name():
    listed, missing = fresh("import chromatic\n"
                            "listed = set(chromatic.__all__) <= set(dir(chromatic))\n"
                            "from chromatic import *\n"
                            "print(json.dumps([listed,\n"
                            "                  [n for n in chromatic.__all__ if n not in globals()]]))")
    assert (listed, missing) == (True, [])


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(chromatic, "no_such_name")


def test_container_class_is_one_object_under_every_name():
    one = fresh("import chromatic, chromatic.models, chromatic.lp\n"
                "print(json.dumps(chromatic.MilpModel is chromatic.models.MilpModel\n"
                "                 is chromatic.lp.MilpModel))")
    assert one is True


@pytest.mark.parametrize("name", ["complement", "strip_time_columns", "Constraint",
                                  "random_maximal_clique", "_grow_clique", "clique_objective",
                                  "OracleResult", "chromatic_number_exact", "is_k_colorable",
                                  "encode_coloring", "check_feasible"])
def test_deleted_name_is_not_importable(name):
    assert [module.__name__ for module in MODULES if hasattr(module, name)] == []


def test_deleted_members_are_gone():
    assert not hasattr(MilpModel, "constraints") and not hasattr(MilpModel, "nnz")
    assert not hasattr(RowBlock, "nnz")
    assert "dense_width" not in {field.name for field in fields(RowBlock)}
    assert not hasattr(Graph, "non_edges")
    assert not hasattr(SolveResult, "solved")
    assert not hasattr(RunConfig, "desk_scale")
    assert not hasattr(Saturation, "unassign")
    assert "with_offset" not in inspect.signature(objective_value).parameters


def test_the_test_only_oracle_module_is_gone():
    assert importlib.util.find_spec("chromatic.oracle") is None
