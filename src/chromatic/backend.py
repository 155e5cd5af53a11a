"""Solve backend: solver adapters, LP files where they are used, result normalization.

Two adapter styles solve a model:

  BuiltinAdapter    hands the model's row blocks straight to the bundled
                    HiGHS core in-process (the default; no external binary,
                    no LP text written or parsed)
  CommandAdapter    writes the model to `model.lp` in a working directory
                    and runs any external solver on it as a subprocess from
                    an argv template with {model}/{timelimit}/{seed}/{solout}
                    placeholders, reading its output through a per-dialect
                    regex table ("chromatic", "cbc", "gurobi", "glpsol")

Every status is a `SolveStatus` member, from the adapter's report to the
CSV row. Raw solver numbers are normalized once, in `solve`: the model's
constant offset is re-applied, dual bounds are rounded up to integers
(every formulation has an integral objective), and one incumbent rule
covers every adapter: a report with no values that says `optimal` is an
`error`, and one that says `feasible` is `timeout_no_solution`. The upper
bound is the rounded incumbent's objective, offset included. An `error`
result carries no bounds and no values.
"""
from __future__ import annotations

import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from . import lpsolve
from .lp import _NAME, _NUM, emit_lp
from .lpsolve import RawSolve, SolveStatus
from .models import VALUE_TOLERANCE, ExtractionError, MilpModel, binary_value, objective_value

KILL_GRACE_SECONDS = 10.0


class SolverNotFoundError(RuntimeError):
    pass


class SolutionParseError(ValueError):
    """Malformed solution text; message carries the 1-based line number."""


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    lower_bound: int | None
    upper_bound: int | None
    values: dict[str, int] | None
    wall_time: float
    log: str = ""

    @property
    def solved(self) -> bool:
        return self.status is SolveStatus.OPTIMAL


# ---------------------------------------------------------------------------
# solution-file dialects


@dataclass(frozen=True)
class Dialect:
    """Regex table describing one solver's solution/log text."""

    name: str
    status_patterns: tuple[tuple[str, SolveStatus], ...]
    objective_pattern: str | None
    bound_pattern: str | None
    var_pattern: str
    strict: bool = False  # unrecognized non-blank lines are an error


DIALECTS: dict[str, Dialect] = {
    "chromatic": Dialect(
        name="chromatic",
        status_patterns=tuple((rf"^status\s+({status.value})\s*$", status)
                              for status in SolveStatus),
        objective_pattern=rf"^objective\s+({_NUM})\s*$",
        bound_pattern=rf"^bound\s+({_NUM}|-inf)\s*$",
        var_pattern=rf"^v\s+({_NAME})\s+({_NUM})\s*$",
        strict=True,
    ),
    "cbc": Dialect(
        name="cbc",
        status_patterns=(
            (r"^Optimal", SolveStatus.OPTIMAL),
            (r"^Stopped on time", SolveStatus.FEASIBLE),
            (r"^Infeasible", SolveStatus.INFEASIBLE),
            (r"^Integer infeasible", SolveStatus.INFEASIBLE),
            (r"^Unbounded", SolveStatus.UNBOUNDED),
        ),
        objective_pattern=rf"objective value\s+({_NUM})",
        bound_pattern=None,
        var_pattern=rf"^\s*\d+\s+({_NAME})\s+({_NUM})",
    ),
    "gurobi": Dialect(
        name="gurobi",
        status_patterns=(
            (r"Optimal solution found", SolveStatus.OPTIMAL),
            (r"Time limit reached", SolveStatus.FEASIBLE),
            (r"Model is infeasible", SolveStatus.INFEASIBLE),
            (r"Model is unbounded", SolveStatus.UNBOUNDED),
        ),
        objective_pattern=rf"^# Objective value\s*=\s*({_NUM})",
        bound_pattern=rf"Best objective {_NUM}, best bound ({_NUM})",
        var_pattern=rf"^({_NAME})\s+({_NUM})\s*$",
    ),
    "glpsol": Dialect(
        name="glpsol",
        status_patterns=(
            (r"INTEGER OPTIMAL", SolveStatus.OPTIMAL),
            (r"INTEGER NON-OPTIMAL", SolveStatus.FEASIBLE),
            (r"INTEGER EMPTY", SolveStatus.INFEASIBLE),
            (r"HAS NO.*FEASIBLE SOLUTION", SolveStatus.INFEASIBLE),
            (r"UNBOUNDED", SolveStatus.UNBOUNDED),
        ),
        objective_pattern=rf"^Objective:\s+\S+\s*=\s*({_NUM})",
        bound_pattern=None,
        var_pattern=rf"^\s*\d+\s+({_NAME})\s+\*?\s+({_NUM})",
    ),
}


def parse_solution(text: str, dialect: str) -> RawSolve:
    """Scan solver output with a dialect's regex table.

    Strict dialects reject unrecognized lines with the line number; the
    others skim logs for whatever matches. Raises SolutionParseError only --
    arbitrary input must never escape as another exception.
    """
    table = DIALECTS[dialect]
    status_res = [(re.compile(pat), member) for pat, member in table.status_patterns]
    objective_re = re.compile(table.objective_pattern) if table.objective_pattern else None
    bound_re = re.compile(table.bound_pattern) if table.bound_pattern else None
    var_re = re.compile(table.var_pattern)

    status = None
    objective = None
    bound = None
    values: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("c ") or line.strip() == "c":
            continue
        matched = False
        for pattern, member in status_res:
            if pattern.search(line):
                status, matched = member, True
                break
        if objective_re:
            m = objective_re.search(line)
            if m:
                objective, matched = float(m.group(1)), True
        if bound_re:
            m = bound_re.search(line)
            if m:
                raw = m.group(1)
                bound = None if raw == "-inf" else float(raw)
                matched = True
        if not matched:
            m = var_re.match(line)
            if m:
                values[m.group(1)] = float(m.group(2))
                matched = True
        if not matched and table.strict and not line.startswith("#"):
            raise SolutionParseError(f"line {lineno}: unrecognized line {line!r} "
                                     f"for dialect {table.name}")
    return RawSolve(status, objective, bound, values)


# ---------------------------------------------------------------------------
# adapters

class BuiltinAdapter:
    """Default adapter: the bundled HiGHS core, run in-process on the model.

    `lpsolve.solve_parsed` takes the built model itself, its row blocks,
    bounds and column order, as `chromatic-lps` takes what `parse_lp`
    reads from the LP file, so HiGHS sees the same arrays on both routes.
    It reads no file.
    """

    name = "builtin"

    def solve_model(self, model: MilpModel, lp_path: Path | None, time_limit: float,
                    seed: int, workdir: Path | None) -> RawSolve:
        return lpsolve.solve_parsed(model, time_limit=time_limit)


@dataclass(frozen=True)
class CommandAdapter:
    """External solver as a subprocess: argv template plus output dialect.

    Placeholders {model}, {timelimit}, {seed} and {solout} are substituted
    into the argument template; {model} is the `model.lp` file that `solve`
    writes for it. The child runs `executable` as given, in the solve's
    working directory with the parent's environment. It is killed 10 seconds
    past the time limit; whatever solution file exists by then is still
    parsed. The log (stdout, then stderr) is read only when the solution
    file names no status, and the status then comes from the log; where
    neither names one, it is `timeout_no_solution` if the child was killed,
    else `error`.
    """

    executable: str
    args: tuple[str, ...]
    dialect: str = "chromatic"
    name: str = "command"

    def argv(self, lp_path: Path, time_limit: float, seed: int, solout: Path) -> list[str]:
        subst = {
            "model": str(lp_path),
            "timelimit": f"{time_limit:g}",
            "seed": str(seed),
            "solout": str(solout),
        }
        return [self.executable] + [arg.format(**subst) for arg in self.args]

    def solve_model(self, model: MilpModel, lp_path: Path, time_limit: float,
                    seed: int, workdir: Path) -> RawSolve:
        solout = workdir / "model.sol"
        argv = self.argv(lp_path, time_limit, seed, solout)
        timed_out = False
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=workdir,
                                  timeout=time_limit + KILL_GRACE_SECONDS)
            log = proc.stdout + ("\n" + proc.stderr if proc.stderr else "")
        except FileNotFoundError as exc:
            raise SolverNotFoundError(f"solver executable not found: {argv[0]}") from exc
        except subprocess.TimeoutExpired as exc:
            timed_out = True
            # what a killed child printed comes as bytes or None, even in text mode
            log = (b"\n".join(part or b"" for part in (exc.stdout, exc.stderr))
                   .decode(errors="replace"))

        sol_text = solout.read_text(encoding="utf-8") if solout.exists() else ""
        try:
            parsed = parse_solution(sol_text, self.dialect)
            if parsed.status is None:
                from_log = parse_solution(log, self.dialect)
                parsed = RawSolve(
                    from_log.status,
                    parsed.objective if parsed.objective is not None else from_log.objective,
                    parsed.bound if parsed.bound is not None else from_log.bound,
                    parsed.values or from_log.values)
        except SolutionParseError:
            return RawSolve(SolveStatus.ERROR, None, None, None, log=log + "\n" + sol_text)

        status = parsed.status or (SolveStatus.TIMEOUT_NO_SOLUTION if timed_out
                                   else SolveStatus.ERROR)
        return RawSolve(status, parsed.objective, parsed.bound, parsed.values or None, log)


def builtin_subprocess_adapter() -> CommandAdapter:
    """The bundled solver, but driven through the real subprocess path.

    The child runs `lpsolve.main` once under this interpreter, through
    `python -c`, in the solve's temporary working directory, where a
    relative PYTHONPATH entry no longer resolves. So the code first puts the
    absolute root of this very package copy on `sys.path`; the child imports
    the same code as the parent, installed or not.
    """
    package_root = str(Path(__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {package_root!r}); import chromatic.lpsolve; "
            "sys.exit(chromatic.lpsolve.main())")
    return CommandAdapter(
        executable=sys.executable,
        # the code is an argv template too: literal braces are doubled
        args=("-c", code.replace("{", "{{").replace("}", "}}"), "{model}",
              "--out", "{solout}", "--time-limit", "{timelimit}"),
        dialect="chromatic",
        name="builtin-sub",
    )


# ---------------------------------------------------------------------------
# adapter configuration

BUILTIN_ADAPTERS = ("builtin", "builtin-sub")


def load_adapter(spec: str):
    """Resolve an adapter name or a JSON adapter-config file path.

    JSON schema: {"name": str, "path": str, "args": [str...], "dialect": str}, with
    {model}/{timelimit}/{seed}/{solout} in args; a set CHROMATIC_SOLVER replaces `path`.
    """
    if spec == "builtin":
        return BuiltinAdapter()
    if spec == "builtin-sub":
        return builtin_subprocess_adapter()
    path = Path(spec)
    if not path.exists():
        raise SolverNotFoundError(f"unknown adapter {spec!r}: not a built-in name "
                                  f"({', '.join(BUILTIN_ADAPTERS)}) and no such file")
    try:  # every fault below, the JSON's and shlex's too, is a ValueError
        config = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(config, dict):
            raise ValueError(f"expected a JSON object, got {type(config).__name__}")
        args = config.get("args", [])
        if isinstance(args, str):
            args = shlex.split(args)
        dialect = config.get("dialect", "chromatic")
        if not isinstance(config.get("path"), str):
            raise ValueError('needs "path", the solver executable, as a string')
        if not (isinstance(args, list) and all(isinstance(arg, str) for arg in args)):
            raise ValueError('"args" must be a list of strings or one string')
        if not isinstance(dialect, str) or dialect not in DIALECTS:
            raise ValueError(f"unknown dialect {dialect!r}")
    except ValueError as exc:
        raise ValueError(f"adapter config {spec}: {exc}") from None
    return CommandAdapter(executable=os.environ.get("CHROMATIC_SOLVER") or config["path"],
                          args=tuple(args), dialect=dialect, name=config.get("name", path.stem))


# ---------------------------------------------------------------------------
# the solve entry point

def integral_floor_bound(raw: float) -> int:
    """Round a dual bound up to the integer it actually proves."""
    return math.ceil(raw - VALUE_TOLERANCE)


def solve(model: MilpModel, adapter=None, time_limit: float = 3600.0, seed: int = 0,
          workdir: str | Path | None = None) -> SolveResult:
    """Run the adapter on the model, normalize bounds and status.

    LP text is written only where a file is used: `model.lp` in `workdir`
    when one is given (byte-reproducible solve artifacts, for any adapter),
    and for a `CommandAdapter`, which gets a fresh temporary directory when
    there is no workdir. Otherwise the adapter sees no file and no directory.
    """
    if adapter is None:
        adapter = BuiltinAdapter()
    started = time.monotonic()

    def run(directory: Path) -> RawSolve:
        lp_path = directory / "model.lp"
        lp_path.write_text(emit_lp(model), encoding="utf-8")
        return adapter.solve_model(model, lp_path, time_limit, seed, directory)

    if workdir is not None:
        directory = Path(workdir)
        directory.mkdir(parents=True, exist_ok=True)
        raw = run(directory)
    elif isinstance(adapter, CommandAdapter):
        with tempfile.TemporaryDirectory(prefix="chromatic-") as tmp:
            raw = run(Path(tmp))
    else:
        raw = adapter.solve_model(model, None, time_limit, seed, None)
    wall = time.monotonic() - started

    status = raw.status or SolveStatus.ERROR
    if raw.values is None:
        status = {SolveStatus.OPTIMAL: SolveStatus.ERROR,
                  SolveStatus.FEASIBLE: SolveStatus.TIMEOUT_NO_SOLUTION}.get(status, status)
    if status is SolveStatus.ERROR:  # an error row claims no bound
        return SolveResult(status, None, None, None, wall, log=raw.log)
    values = upper = lower = None
    if status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE):
        try:
            values = {name: binary_value(name, value) for name, value in raw.values.items()}
        except ExtractionError as exc:
            return SolveResult(SolveStatus.ERROR, None, None, None, wall,
                               log=f"{exc}\n{raw.log}")
        upper = round(objective_value(model, values))
    if status is SolveStatus.OPTIMAL:
        lower = upper
    elif raw.bound is not None and math.isfinite(raw.bound):
        lower = integral_floor_bound(raw.bound) + model.offset
    if lower is not None and upper is not None and lower > upper:
        lower = upper
    return SolveResult(status=status, lower_bound=lower, upper_bound=upper,
                       values=values, wall_time=wall, log=raw.log)
