"""Vertex-coloring MILP toolkit.

Five polynomial-size formulations of the vertex coloring problem (two
assignment variants, two partial-ordering variants, the representatives
model), a dominance/clique preprocessing pipeline, LP-file emission with
pluggable solver adapters, an exact oracle for small graphs, and a
benchmark CLI.

Each public name is bound on first use from the module that defines it
(PEP 562), so `import chromatic` loads no submodule and a process that
imports one submodule, such as the `builtin-sub` solver child's
`chromatic.lpsolve`, loads only what that submodule imports.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "backend": ("BuiltinAdapter", "CommandAdapter", "SolveResult", "builtin_subprocess_adapter",
                "load_adapter", "parse_solution", "solve"),
    "bench": ("BenchmarkRecord", "RunConfig", "generate_set", "run_bench", "solve_instance"),
    "container": ("MilpModel",),
    "graph": ("Coloring", "Graph", "VerifyReport", "gnp_random", "parse_dimacs",
              "verify_coloring", "write_dimacs"),
    "lp": ("emit_lp", "parse_lp"),
    "lpsolve": ("SolveStatus",),
    "models": ("ModelStats", "apply_clique_fixings", "build_ass", "build_ass_s",
               "build_formulation", "build_pop", "build_pop2", "build_rep", "encode_coloring",
               "extract_coloring", "model_stats"),
    "oracle": ("OracleResult", "chromatic_number_exact", "is_k_colorable"),
    "preprocess": ("PreprocessedInstance", "ReducedInstance", "find_clique",
                   "greedy_upper_bound", "preprocess_pipeline", "remove_dominated",
                   "restore_coloring"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
