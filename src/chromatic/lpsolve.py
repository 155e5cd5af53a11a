"""Bundled LP-file MILP solver built on HiGHS's own Python binding.

Installed as the `chromatic-lps` console script so the solve backend always
has a working external solver: it reads an LP file, solves the mixed-binary
program, and writes a plain-text solution file:

    c chromatic-lps <version info>
    status optimal|feasible|infeasible|unbounded|timeout_no_solution|error
    objective <float>            (when an incumbent exists)
    bound <float|-inf>           (best proven dual bound, no offset applied)
    v <name> <value>             (one line per variable, incumbent only)

The status words are the values of `SolveStatus`, the one status vocabulary
from HiGHS to the CSV row. Two routes reach HiGHS, and one helper,
`run_highs`, sets the options, runs HiGHS and maps its model status to a
`SolveStatus` member for both; `_outcome` turns what it reports into a
`RawSolve`:

  in process   `solve_parsed` takes a `MilpModel` (what the builders make,
               or what `lp.parse_lp` reads), stacks its row blocks into one
               CSC matrix with numpy (`rows_by_column`), sets the column
               bounds and hands them to `milp`, which fills a `HighsLp`.
               The `builtin` adapter runs it on the built model, with no
               LP text.
  from a file  `solve_lp_file` has HiGHS's own LP reader load the file and
               checks what it read. This script, whose `main` the
               `builtin-sub` child runs once, takes that route. HiGHS
               numbers the columns by first appearance, not in `Binaries`
               order, so it may pick another optimal solution than in
               process.

This module imports only the standard library when it loads; numpy is
imported inside the in-process functions. So the child loads two modules
of this package, the package `__init__`, whose public names bind on first
use, and this one: no numpy, no LP parser, no builder.

HiGHS (Huangfu and Hall, Math. Prog. Comp. 10, 2018) comes with scipy, as
the pybind11 module `scipy.optimize._highspy._core`. `load_highs` loads that
one extension from its file the first time HiGHS is needed, so no process
imports the `scipy.optimize` or `scipy.sparse` packages: the `builtin`
adapter calls it when it is made, before any solve clock starts, and this
script when it reads its file. Importing this module, the package or its
CLI loads no part of scipy.
"""
from __future__ import annotations

import argparse
import functools
import importlib.machinery
import importlib.util
import math
import os
import re
import sys
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

    from .container import MilpModel


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    TIMEOUT_NO_SOLUTION = "timeout_no_solution"
    ERROR = "error"


@dataclass(frozen=True)
class RawSolve:
    """What a solver reports before normalization (no offset applied): the
    result of `solve_parsed`, or what `backend.parse_solution` reads from a
    solver's output, where a missing status is None."""

    status: SolveStatus | None
    objective: float | None
    bound: float | None
    values: dict[str, float] | None
    log: str = ""


HIGHS_MODULE = "scipy.optimize._highspy._core"


@functools.cache
def load_highs():
    """HiGHS's own Python binding, the module scipy vendors as `HIGHS_MODULE`.

    It is loaded from its file under the installed scipy, so neither the
    `scipy` nor the `scipy.optimize` package `__init__` runs. The extension
    is initialised once per process: one scipy already loaded is returned as
    is, and this one is registered under its own name, so a later `import
    scipy.optimize` reuses it.
    """
    if HIGHS_MODULE in sys.modules:
        return sys.modules[HIGHS_MODULE]
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        HIGHS_MODULE, [os.path.join(root, "optimize", "_highspy")
                       for root in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError(f"HiGHS's Python binding {HIGHS_MODULE} is missing: "
                          "chromatic needs scipy>=1.15")
    module = importlib.util.module_from_spec(spec)
    sys.modules[HIGHS_MODULE] = module
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class HighsResult:
    """What one HiGHS run reports. `x` and `fun` are None without an
    incumbent, the dual bound and gap also for a continuous model; an LP
    counts 0 nodes."""

    status: SolveStatus
    x: list[float] | None
    fun: float | None
    message: str
    mip_node_count: int
    mip_dual_bound: float | None
    mip_gap: float | None


def run_highs(load: Callable[[object, object], bool], time_limit: float) -> HighsResult:
    """Set the run's options on a new HiGHS, `load` a model into it, run it
    and map its model status: the one HiGHS run of both routes.

    `load(highs, solver)` passes or reads the model into `solver` (`highs`
    is the binding), raises ValueError for a model HiGHS must not run, and
    says whether the model has integer columns.
    """
    highs = load_highs()
    solver = highs._Highs()
    for option, value in (("log_to_console", False), ("time_limit", time_limit),
                          ("mip_rel_gap", 0.0)):
        if solver.setOptionValue(option, value) != highs.HighsStatus.kOk:
            raise ValueError(f"HiGHS refused option {option}={value!r}")
    mip = load(highs, solver)
    solver.run()

    model_status = solver.getModelStatus()
    info = solver.getInfo()
    HighsModelStatus = highs.HighsModelStatus
    limit = model_status in (HighsModelStatus.kTimeLimit, HighsModelStatus.kIterationLimit)
    incumbent = model_status == HighsModelStatus.kOptimal or (
        mip and limit and info.objective_function_value < highs.kHighsInf)
    if limit:
        status = SolveStatus.FEASIBLE if incumbent else SolveStatus.TIMEOUT_NO_SOLUTION
    else:
        status = {HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
                  HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
                  HighsModelStatus.kUnbounded: SolveStatus.UNBOUNDED}.get(model_status,
                                                                          SolveStatus.ERROR)
    return HighsResult(
        status=status,
        x=solver.getSolution().col_value if incumbent else None,
        fun=info.objective_function_value if incumbent else None,
        message=solver.modelStatusToString(model_status),
        mip_node_count=max(info.mip_node_count, 0),
        mip_dual_bound=info.mip_dual_bound if mip and (incumbent or limit) else None,
        mip_gap=info.mip_gap if mip and incumbent else None)


# HiGHS's infinite cost, the default of its `infinite_cost` option: its LP
# reader stores a cost of this magnitude or more as inf, so both routes
# refuse such a cost.
INFINITE_COST = 1e20
_COEFFICIENT_RULE = (f"needs finite row coefficients and costs below {INFINITE_COST:g} "
                     "in magnitude")


def milp(*, c, indptr, indices, data, row_lower, row_upper, col_lower, col_upper,
         num_binary, time_limit) -> HighsResult:
    """Minimize c @ x subject to row_lower <= A @ x <= row_upper and the column
    bounds, with HiGHS. A is the CSC matrix (indptr, indices, data); the first
    `num_binary` columns are integer. Raises ValueError for a model HiGHS must
    not be given (no column, a non-finite coefficient, a cost of at least
    `INFINITE_COST` in magnitude) or refuses to load.
    """
    import numpy as np

    if not c.size:
        raise ValueError("needs at least one column")
    if not ((np.abs(c) < INFINITE_COST).all() and np.isfinite(data).all()):
        raise ValueError(_COEFFICIENT_RULE)

    def load(highs, solver) -> bool:
        lp = highs.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = len(c)
        lp.num_row_ = lp.a_matrix_.num_row_ = len(row_lower)
        lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = indptr
        lp.a_matrix_.index_ = indices
        lp.a_matrix_.value_ = data
        lp.col_cost_ = c
        lp.col_lower_ = col_lower
        lp.col_upper_ = col_upper
        lp.row_lower_ = row_lower
        lp.row_upper_ = row_upper
        lp.integrality_ = ([highs.HighsVarType.kInteger] * num_binary
                           + [highs.HighsVarType.kContinuous] * (len(c) - num_binary))
        if solver.passModel(lp) == highs.HighsStatus.kError:
            raise ValueError("HiGHS refused the model")
        return num_binary > 0

    return run_highs(load, time_limit)


DEFAULT_TIME_LIMIT = 3600.0
# About 11.6 days: a command adapter waits `time_limit + KILL_GRACE_SECONDS` for
# its child, and on Linux `subprocess.run` overflows past 2**31 - 1 ms (at 3e6 s).
MAX_TIME_LIMIT = 1e6


class TimeLimitError(ValueError, argparse.ArgumentTypeError):
    """A time limit or budget `seconds` refuses; argparse prints its message."""


def seconds(value: str | float) -> float:
    """A time limit or budget in seconds, flag or library value alike: in (0, MAX_TIME_LIMIT]."""
    value = float(value)
    if not 0 < value <= MAX_TIME_LIMIT:  # nan fails both comparisons
        raise TimeLimitError(f"expected seconds in (0, {MAX_TIME_LIMIT:.0f}], got {value}")
    return value


def _outcome(res: HighsResult, names, sign: float) -> RawSolve:
    """What HiGHS reported about columns `names`, as a `RawSolve` of the model
    whose costs were multiplied by `sign` for it."""
    objective = sign * res.fun if res.x is not None else None
    bound = res.mip_dual_bound
    bound = sign * bound if bound is not None and math.isfinite(bound) else None
    if res.status is SolveStatus.OPTIMAL and bound is None:
        bound = objective
    values = dict(zip(names, res.x)) if res.x is not None else None
    return RawSolve(res.status, objective, bound, values, res.message)


def _rejected(exc: ValueError) -> RawSolve:
    return RawSolve(SolveStatus.ERROR, None, None, None, f"solver rejected model: {exc}")


def rows_by_column(model: MilpModel) -> dict[str, np.ndarray]:
    """The model's row blocks stacked into one CSC matrix with its row bounds.

    Entries are sorted by (column, row) and duplicates summed, in numpy; the
    arrays equal scipy's `csc_array(csr_matrix((coefs, (rows, cols))))`."""
    import numpy as np

    blocks = model.blocks

    def stacked(arrays, dtype=np.float64):
        return np.concatenate([np.zeros(0, dtype), *arrays])

    widths = stacked((np.diff(block.indptr) for block in blocks), np.int64)
    rows = np.repeat(np.arange(len(widths), dtype=np.int32), widths)
    cols = stacked((block.cols for block in blocks), np.int64)
    order = np.lexsort((rows, cols))
    rows, cols = rows[order], cols[order]
    coefs = stacked(block.coefs for block in blocks)[order]
    distinct = np.ones(len(rows), dtype=bool)
    distinct[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    first = np.flatnonzero(distinct)
    data = np.add.reduceat(coefs, first) if len(first) else coefs
    indptr = np.searchsorted(cols[first], np.arange(len(model.variables) + 1)).astype(np.int32)
    return {"indptr": indptr, "indices": rows[first], "data": data,
            "row_lower": stacked(block.lo for block in blocks),
            "row_upper": stacked(block.hi for block in blocks)}


def solve_parsed(model: MilpModel, time_limit: float = DEFAULT_TIME_LIMIT) -> RawSolve:
    import numpy as np

    names = model.variables
    nvar = len(names)

    c = np.zeros(nvar)
    for name, coef in model.objective:
        c[model.columns[name]] += coef
    sign = 1.0 if model.minimize else -1.0
    c *= sign

    lower = np.zeros(nvar)
    upper = np.full(nvar, np.inf)
    upper[:model.num_binary] = 1.0
    for name, (lo, hi) in model.bounds.items():
        lower[model.columns[name]], upper[model.columns[name]] = lo, hi

    try:
        res = milp(c=c, **rows_by_column(model), col_lower=lower, col_upper=upper,
                   num_binary=model.num_binary, time_limit=float(time_limit))
    except ValueError as exc:
        return _rejected(exc)
    return _outcome(res, names, sign)


class LpFileError(Exception):
    """An LP file `chromatic-lps` does not solve, so it exits 3: HiGHS reads
    no column from it, or a column is neither continuous nor an integer
    within [0, 1]."""


# `nan` where HiGHS's LP reader starts a token, first or after a blank or one
# of its delimiters, in lower-cased text: the reader takes any case of it for
# a number, and leaves a NaN matrix coefficient out of the model without a
# word. The literal comes first so that the search skips ahead to it.
_NAN_RE = re.compile(rb"nan(?<![^\s:+\-<>=^*/\[\]]nan)")


def solve_lp_file(path: str, time_limit: float = DEFAULT_TIME_LIMIT) -> RawSolve:
    """Solve the model file at `path` as HiGHS's own reader reads it.

    HiGHS picks its reader by the file's extension, `.lp` or `.mps`. Raises
    OSError for a file that cannot be opened and LpFileError for one that
    is refused. A model HiGHS must not run, with a cost the reader stored as
    inf (any of at least `INFINITE_COST` in magnitude), a non-finite matrix
    coefficient or one it refuses itself, is an `error` outcome, as on the
    in-process route.
    """
    with open(path, "rb") as fh:
        nan_numeral = _NAN_RE.search(fh.read().lower()) is not None
    names: list[str] = []

    def load(highs, solver) -> bool:
        read = solver.readModel(path)
        lp = solver.getLp()
        if not lp.num_col_:
            raise LpFileError(f"HiGHS read no column from {path}")
        names.extend(lp.col_names_)
        mip = non_finite = False
        for j, name in enumerate(names):
            _, cost, lower, upper, _ = solver.getCol(j)
            _, kind = solver.getColIntegrality(j)
            if kind == highs.HighsVarType.kInteger and 0 <= lower and upper <= 1:
                mip = True
            elif kind != highs.HighsVarType.kContinuous:
                raise LpFileError(f"column {name} is {kind.name[1:].lower()} with bounds "
                                  f"{lower:g}..{upper:g}: only binary and continuous "
                                  f"columns are solved")
            non_finite = non_finite or not abs(cost) < INFINITE_COST
        if non_finite or nan_numeral:
            raise ValueError(_COEFFICIENT_RULE)
        if read == highs.HighsStatus.kError:
            raise ValueError("HiGHS refused the model")
        return mip

    try:
        res = run_highs(load, float(time_limit))
    except ValueError as exc:
        return _rejected(exc)
    return _outcome(res, names, 1.0)


def render_solution(outcome: RawSolve) -> str:
    lines = ["c chromatic-lps solution file", f"status {outcome.status.value}"]
    if outcome.objective is not None:
        lines.append(f"objective {outcome.objective:.12g}")
    lines.append(f"bound {outcome.bound:.12g}" if outcome.bound is not None else "bound -inf")
    lines.append(f"c message {outcome.log}".replace("\n", " "))
    if outcome.values is not None:
        for name in sorted(outcome.values):
            lines.append(f"v {name} {outcome.values[name]:.12g}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chromatic-lps",
        description="Solve a mixed-binary LP file with HiGHS and write a solution file.")
    parser.add_argument("model", help="input LP file (HiGHS reads *.lp and *.mps)")
    parser.add_argument("--out", required=True, help="solution file to write")
    parser.add_argument("--time-limit", type=seconds, default=DEFAULT_TIME_LIMIT, metavar="S")
    args = parser.parse_args(argv)

    try:
        outcome = solve_lp_file(args.model, time_limit=args.time_limit)
    except OSError as exc:
        print(f"chromatic-lps: cannot read model: {exc}", file=sys.stderr)
        return 2
    except LpFileError as exc:
        print(f"chromatic-lps: {exc}", file=sys.stderr)
        return 3
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render_solution(outcome))
    except OSError as exc:
        print(f"chromatic-lps: cannot write solution: {exc}", file=sys.stderr)
        return 2
    print(f"chromatic-lps: {outcome.status.value}"
          + (f" objective {outcome.objective:.12g}" if outcome.objective is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
