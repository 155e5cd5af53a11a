"""Bundled LP-file MILP solver built on scipy's HiGHS interface.

Installed as the `chromatic-lps` console script so the solve backend always
has a working external solver: it reads an LP file, solves the mixed-binary
program, and writes a plain-text solution file:

    c chromatic-lps <version info>
    status optimal|feasible|infeasible|unbounded|timeout_no_solution|error
    objective <float>            (when an incumbent exists)
    bound <float|-inf>           (best proven dual bound, no offset applied)
    v <name> <value>             (one line per variable, incumbent only)

The status words are the values of `SolveStatus`, the one status vocabulary
from HiGHS to the CSV row. The solving core is `solve_parsed`: it takes a
`MilpModel`, stacks its row blocks into one sparse matrix with numpy, sets
the column bounds, calls HiGHS, maps its status code to a `SolveStatus`
member and collects the values. Both routes call it: the LP-file route on
what `parse_lp` reads (`solve_lp_text`: this script, whose `main` the
`builtin-sub` child runs once) and the in-process `builtin` adapter on the
built model itself, with no LP text. Both give HiGHS the same arrays.

scipy is imported in one place, `load_highs`, the first time HiGHS is
needed: the `builtin` adapter calls it when it is made, before any solve
clock starts, and this script calls it after its LP text has parsed.
Importing this module, the package or its CLI loads no scipy, so a run whose
solver is a child process (`builtin-sub` or a JSON adapter) never pays for
it in the parent.
"""
from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lp import LpParseError, parse_lp
from .models import MilpModel


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


@functools.cache
def load_highs():
    """Import scipy's HiGHS interface once; return `(scipy.optimize, scipy.sparse)`."""
    from scipy import optimize, sparse
    return optimize, sparse


def milp(**kwargs):
    """`scipy.optimize.milp`, the one HiGHS call; returns its result as is."""
    return load_highs()[0].milp(**kwargs)


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


def solve_parsed(model: MilpModel, time_limit: float = DEFAULT_TIME_LIMIT) -> RawSolve:
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
    integrality = np.zeros(nvar)
    integrality[:model.num_binary] = 1.0

    optimize, sparse = load_highs()
    constraints = []
    blocks = model.blocks
    if model.num_rows:
        widths = np.concatenate([np.diff(block.indptr) for block in blocks])
        rows = np.repeat(np.arange(len(widths)), widths)
        cols = np.concatenate([block.cols for block in blocks])
        coefs = np.concatenate([block.coefs for block in blocks])
        matrix = sparse.csr_matrix((coefs, (rows, cols)), shape=(len(widths), nvar))
        constraints = [optimize.LinearConstraint(
            matrix, np.concatenate([block.lo for block in blocks]),
            np.concatenate([block.hi for block in blocks]))]

    try:
        res = milp(c=c, constraints=constraints, integrality=integrality,
                   bounds=optimize.Bounds(lower, upper),
                   options={"time_limit": float(time_limit), "mip_rel_gap": 0.0})
    except ValueError as exc:
        return RawSolve(SolveStatus.ERROR, None, None, None, f"solver rejected model: {exc}")

    incumbent = res.x is not None
    objective = sign * float(res.fun) if incumbent else None
    bound = getattr(res, "mip_dual_bound", None)
    if bound is not None and np.isfinite(bound):
        bound = sign * float(bound)
    else:
        bound = None

    if res.status == 1:  # time limit
        status = SolveStatus.FEASIBLE if incumbent else SolveStatus.TIMEOUT_NO_SOLUTION
    else:
        status = {0: SolveStatus.OPTIMAL, 2: SolveStatus.INFEASIBLE,
                  3: SolveStatus.UNBOUNDED}.get(res.status, SolveStatus.ERROR)
    if status is SolveStatus.OPTIMAL and bound is None:
        bound = objective

    values = dict(zip(names, res.x.tolist())) if incumbent else None
    return RawSolve(status, objective, bound, values, str(res.message))


def solve_lp_text(text: str, time_limit: float = DEFAULT_TIME_LIMIT) -> RawSolve:
    return solve_parsed(parse_lp(text), time_limit=time_limit)


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
    parser.add_argument("model", help="input LP file")
    parser.add_argument("--out", required=True, help="solution file to write")
    parser.add_argument("--time-limit", type=seconds, default=DEFAULT_TIME_LIMIT, metavar="S")
    args = parser.parse_args(argv)

    try:
        with open(args.model, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"chromatic-lps: cannot read model: {exc}", file=sys.stderr)
        return 2
    try:
        outcome = solve_lp_text(text, time_limit=args.time_limit)
    except LpParseError as exc:
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
