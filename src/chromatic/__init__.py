"""Vertex-coloring MILP toolkit.

Five polynomial-size formulations of the vertex coloring problem (two
assignment variants, two partial-ordering variants, the representatives
model), a dominance/clique preprocessing pipeline, LP-file emission with
pluggable solver adapters, an exact oracle for small graphs, and a
benchmark CLI.
"""
from .backend import (BuiltinAdapter, CommandAdapter, SolveResult, SolveStatus,
                      builtin_subprocess_adapter, load_adapter, parse_solution, solve)
from .bench import BenchmarkRecord, RunConfig, generate_set, run_bench, solve_instance
from .graph import (Coloring, Graph, VerifyReport, gnp_random, parse_dimacs,
                    verify_coloring, write_dimacs)
from .lp import emit_lp, parse_lp
from .models import (MilpModel, ModelStats, apply_clique_fixings, build_ass,
                     build_ass_s, build_formulation, build_pop, build_pop2,
                     build_rep, encode_coloring, extract_coloring, model_stats)
from .oracle import OracleResult, chromatic_number_exact, is_k_colorable
from .preprocess import (PreprocessedInstance, ReducedInstance, find_clique,
                         greedy_upper_bound, preprocess_pipeline, remove_dominated,
                         restore_coloring)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkRecord", "BuiltinAdapter", "Coloring", "CommandAdapter", "Graph",
    "MilpModel", "ModelStats", "OracleResult",
    "PreprocessedInstance", "ReducedInstance", "RunConfig", "SolveResult",
    "SolveStatus", "VerifyReport", "apply_clique_fixings", "build_ass",
    "build_ass_s", "build_formulation", "build_pop", "build_pop2", "build_rep",
    "builtin_subprocess_adapter", "chromatic_number_exact",
    "emit_lp", "encode_coloring", "extract_coloring", "find_clique",
    "generate_set", "gnp_random", "greedy_upper_bound",
    "is_k_colorable", "load_adapter", "model_stats", "parse_dimacs", "parse_lp",
    "parse_solution", "preprocess_pipeline",
    "remove_dominated", "restore_coloring", "run_bench", "solve",
    "solve_instance", "verify_coloring", "write_dimacs",
]
