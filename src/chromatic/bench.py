"""Benchmark harness: per-instance runs, random instance sets, CSV tables.

A run of one instance preprocesses once, then answers each requested
formulation. When preprocessing's lower bound meets the upper bound H
(the clique Q has H members, or, with H - 1 members, its colors propagate
to a conflict) the instance is settled in preprocessing and no MILP is
solved: every formulation gets lb = ub = H, status `optimal`, the
preprocessing coloring and the preprocessing time as its `time`.
Otherwise the formulation is built one color below H, given the clique
fixings and solved, and its coloring is extracted; `keep_preprocessing_bounds`
then reads the solve with what preprocessing proved. `infeasible` proves
chi = H, so the row is `optimal` at H; any other outcome but an error gets
lb = max(solver lb, |Q|) and ub = min(solver ub, H), and is `optimal` once
they meet. A row without a solver coloring, an error row aside, keeps the
preprocessing coloring (H colors); `coloring_source` records which one it
has. Either coloring is lifted back through the dominance stack and
verified against the original graph; a failure there becomes an error row
like any other. If preprocessing raises, every formulation gets that error
row.

CSV rows follow the benchmark-table convention: instance, sizes, optional
hardness class (carried from a manifest, never computed), formulation,
clique mode, bounds, time, status, seed. Times are wall-clock seconds of
the `backend.solve` call: stacking the model's row blocks into the sparse
matrix and HiGHS for `builtin`, plus the LP file, the solver process and
its solution file for subprocess adapters. Preprocessing time is its own
column, and also the `time` of a settled row. A model run that raises, or
an instance file that cannot be read, becomes a row with status
`error:<ExceptionType>`; the record keeps `Type: message` in `error`, which,
like `coloring_source`, is not a CSV column. Summary rows (per density and
formulation: mean time over solved instances, number of unsolved) go to a
separate `.summary.csv`.
"""
from __future__ import annotations

import csv
import io
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .backend import SolveResult, SolveStatus, load_adapter, solve
from .graph import (Coloring, ColoringError, Graph, gnp_random, parse_dimacs, verify_coloring,
                    write_dimacs)
from .lpsolve import DEFAULT_TIME_LIMIT
from .models import apply_clique_fixings, build_formulation, extract_coloring
from .preprocess import (DEFAULT_CLIQUE_TIME_BUDGET, PreprocessedInstance, preprocess_pipeline,
                         restore_coloring)

RECORD_COLUMNS = ("instance", "n", "m", "class", "model", "clique",
                  "lb", "ub", "time", "status", "seed", "prep_time")
SUMMARY_COLUMNS = ("group", "model", "clique", "instances", "solved",
                   "unsolved", "mean_time_solved")


@dataclass(frozen=True)
class BenchmarkRecord:
    instance: str
    n: int
    m: int
    model: str
    clique_mode: str
    lb: int | None
    ub: int | None
    time: float
    status: str
    seed: int
    prep_time: float
    hardness_class: str = ""
    error: str = ""  # "Type: message" of a failed run; not a CSV column
    coloring_source: str = ""  # "solver", "preprocessing" or "" (no coloring); not a CSV column

    def row(self) -> dict[str, str]:
        return {
            "instance": self.instance,
            "n": str(self.n),
            "m": str(self.m),
            "class": self.hardness_class,
            "model": self.model,
            "clique": self.clique_mode,
            "lb": "-inf" if self.lb is None else str(self.lb),
            "ub": "inf" if self.ub is None else str(self.ub),
            "time": f"{self.time:.2f}",
            "status": self.status,
            "seed": str(self.seed),
            "prep_time": f"{self.prep_time:.2f}",
        }


@dataclass(frozen=True)
class RunConfig:
    models: tuple[str, ...] = ("pop2",)
    clique_mode: str = "e"
    time_limit: float = DEFAULT_TIME_LIMIT
    clique_time_budget: float = DEFAULT_CLIQUE_TIME_BUDGET
    adapter: str = "builtin"
    seed: int = 0
    jobs: int = 1


@dataclass
class InstanceOutcome:
    records: list[BenchmarkRecord]
    preprocessed: PreprocessedInstance | None  # None when preprocessing raised
    prep_time: float
    colorings: dict[str, Coloring] = field(default_factory=dict)


def _record(name: str, n: int, m: int, model_name: str, cfg: RunConfig, prep_time: float,
            hardness_class: str, result: SolveResult | Exception,
            coloring_source: str = "") -> BenchmarkRecord:
    """One formulation's row: the bounds, time and status of its result, or
    the exception that ended its run as status `error:<Type>` with no bounds."""
    if isinstance(result, Exception):
        answer = dict(lb=None, ub=None, time=0.0,
                      status=f"{SolveStatus.ERROR.value}:{type(result).__name__}",
                      error=f"{type(result).__name__}: {result}")
    else:
        answer = dict(lb=result.lower_bound, ub=result.upper_bound, time=result.wall_time,
                      status=result.status.value)
    return BenchmarkRecord(instance=name, n=n, m=m, model=model_name,
                           clique_mode=cfg.clique_mode, seed=cfg.seed, prep_time=prep_time,
                           hardness_class=hardness_class, coloring_source=coloring_source,
                           **answer)


def keep_preprocessing_bounds(result: SolveResult, inst: PreprocessedInstance) -> SolveResult:
    """A solve of the model one color below H, read with what preprocessing
    proved: the clique Q and TabuCol's H-coloring.

    `infeasible` proves chi = H, so lb = ub = H and the status is `optimal`.
    Any other outcome but `error` gets lb = max(min(solver lb, H), |Q|) and
    ub = min(solver ub, H), and is `optimal` once they meet; otherwise it
    keeps the solver's status, but a `timeout_no_solution` becomes
    `feasible`: the row holds the H-coloring, with ub = H. The solver's lb
    bounds the model's optimum, and chi = min(H, that optimum), so it counts
    up to H only: a bound of H or more, as from a timed-out solve with no
    incumbent, makes the row `optimal` at H. An `error` result is returned
    as it is.
    """
    if result.status is SolveStatus.ERROR:
        return result
    H = inst.upper_bound
    if result.status is SolveStatus.INFEASIBLE:
        return replace(result, status=SolveStatus.OPTIMAL, lower_bound=H, upper_bound=H)
    lower = max(inst.lower_bound, min(result.lower_bound or 0, H))
    upper = H if result.upper_bound is None else min(result.upper_bound, H)
    if lower == upper:
        status = SolveStatus.OPTIMAL
    elif result.status is SolveStatus.TIMEOUT_NO_SOLUTION:
        status = SolveStatus.FEASIBLE
    else:
        status = result.status
    return replace(result, lower_bound=lower, upper_bound=upper, status=status)


def solve_instance(g: Graph, name: str, cfg: RunConfig,
                   hardness_class: str = "",
                   lp_dir: Path | None = None) -> InstanceOutcome:
    """Run the full pipeline for one instance and all configured models."""
    adapter = load_adapter(cfg.adapter)
    started = time.monotonic()
    inst, failure = None, None
    try:
        inst = preprocess_pipeline(g, mode=cfg.clique_mode, seed=cfg.seed,
                                   clique_time_budget=cfg.clique_time_budget)
    except Exception as exc:  # noqa: BLE001 - becomes every formulation's error row
        failure = exc
    prep_time = time.monotonic() - started
    outcome = InstanceOutcome(records=[], preprocessed=inst, prep_time=prep_time)

    for model_name in cfg.models:
        source = ""
        try:
            if failure is not None:
                raise failure
            if inst.solved_in_preprocessing:
                result = SolveResult(SolveStatus.OPTIMAL, inst.upper_bound, inst.upper_bound,
                                     values=None, wall_time=prep_time)
                reduced_coloring = None
            else:
                model = apply_clique_fixings(build_formulation(model_name, inst), inst)
                workdir = (lp_dir / f"{name}.{model_name}") if lp_dir else None
                result = solve(model, adapter=adapter, time_limit=cfg.time_limit,
                               seed=cfg.seed, workdir=workdir)
                reduced_coloring = (None if result.values is None
                                    else extract_coloring(model, result.values))
            result = keep_preprocessing_bounds(result, inst)
            if reduced_coloring is not None:
                source = "solver"
            elif result.status is not SolveStatus.ERROR:
                reduced_coloring, source = inst.greedy_coloring, "preprocessing"
            if reduced_coloring is not None:
                restored = restore_coloring(inst.reduced, reduced_coloring)
                report = verify_coloring(g, restored)
                if not report.valid:
                    raise ColoringError(f"coloring violates edges {report.violating_edges[:3]}")
                outcome.colorings[model_name] = restored
        except Exception as exc:  # noqa: BLE001 - a failed model run becomes an error row
            result, source = exc, ""
        outcome.records.append(_record(name, g.n, g.m, model_name, cfg, prep_time,
                                       hardness_class, result, source))
    return outcome


# ---------------------------------------------------------------------------
# random instance sets

SET100_DENSITIES = (0.1, 0.3, 0.5, 0.7, 0.9)
SPARSE240_SIZES = (80, 90, 100)
SPARSE240_DENSITIES = (0.1, 0.15, 0.2, 0.25)
INSTANCES_PER_CELL = 20


@dataclass(frozen=True)
class ManifestRow:
    file: str
    name: str
    n: int
    m: int
    p: float
    seed: int
    hardness_class: str = ""


def _set_shape(kind: str, n: int | None, p: float | None, count: int | None):
    if kind == "set100":
        return [(70, density, INSTANCES_PER_CELL) for density in SET100_DENSITIES]
    if kind == "sparse240":
        return [(size, density, INSTANCES_PER_CELL)
                for size in SPARSE240_SIZES for density in SPARSE240_DENSITIES]
    if kind == "custom":
        if n is None or p is None or count is None:
            raise ValueError("custom generation needs n, p and count")
        return [(n, p, count)]
    raise ValueError(f"unknown benchmark set kind {kind!r}")


def generate_set(kind: str, seed: int, outdir: str | Path, n: int | None = None,
                 p: float | None = None, count: int | None = None) -> list[ManifestRow]:
    """Write a reproducible G(n,p) instance set plus its manifest.csv."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    master = random.Random(f"manifest:{kind}:{seed}")
    rows: list[ManifestRow] = []
    for (size, density, cell_count) in _set_shape(kind, n, p, count):
        for idx in range(cell_count):
            instance_seed = master.getrandbits(31)
            g = gnp_random(size, density, instance_seed)
            name = f"gnp_n{size}_p{density:g}_{idx:02d}"
            filename = f"{name}.col"
            text = write_dimacs(g, comments=[f"seed={instance_seed} p={density:g}"])
            (outdir / filename).write_text(text, encoding="utf-8")
            rows.append(ManifestRow(file=filename, name=name, n=size, m=g.m,
                                    p=density, seed=instance_seed))
    with open(outdir / "manifest.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["file", "name", "n", "m", "p", "seed", "class"])
        for row in rows:
            writer.writerow([row.file, row.name, row.n, row.m,
                             f"{row.p:g}", row.seed, row.hardness_class])
    return rows


def read_manifest(path: str | Path) -> list[ManifestRow]:
    path = Path(path)
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for record in csv.DictReader(fh):
            rows.append(ManifestRow(
                file=record["file"], name=record.get("name") or Path(record["file"]).stem,
                n=int(record.get("n") or 0), m=int(record.get("m") or 0),
                p=float(record.get("p") or 0.0), seed=int(record.get("seed") or 0),
                hardness_class=record.get("class") or ""))
    return rows


# ---------------------------------------------------------------------------
# sweeps

def _bench_one(args) -> list[BenchmarkRecord]:
    path_text, name, cfg, hardness_class = args
    try:
        g = parse_dimacs(Path(path_text).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [_record(name, 0, 0, model_name, cfg, 0.0, hardness_class, exc)
                for model_name in cfg.models]
    return solve_instance(g, name, cfg, hardness_class=hardness_class).records


def run_bench(manifest: list[ManifestRow], base_dir: str | Path,
              cfg: RunConfig) -> list[BenchmarkRecord]:
    """Solve every (instance, model) pair; rows come back in manifest order."""
    base = Path(base_dir)
    tasks = [(str(base / row.file), row.name, cfg, row.hardness_class)
             for row in manifest]
    if cfg.jobs > 1:
        # imported here: the pool and multiprocessing load only when a run uses them
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            grouped = list(pool.map(_bench_one, tasks))
    else:
        grouped = [_bench_one(task) for task in tasks]
    return [record for group in grouped for record in group]


def summarize(manifest: list[ManifestRow],
              records: list[BenchmarkRecord]) -> list[dict[str, str]]:
    """Per (density, model): mean solve time over solved runs, unsolved count."""
    density_of = {row.name: row.p for row in manifest}
    cells: dict[tuple[float, str, str], list[BenchmarkRecord]] = {}
    for record in records:
        key = (density_of.get(record.instance, 0.0), record.model, record.clique_mode)
        cells.setdefault(key, []).append(record)
    out = []
    for (density, model, clique) in sorted(cells):
        bucket = cells[(density, model, clique)]
        solved = [r for r in bucket if r.status == SolveStatus.OPTIMAL.value]
        mean_time = (sum(r.time for r in solved) / len(solved)) if solved else None
        out.append({
            "group": f"p={density:g}",
            "model": model,
            "clique": clique,
            "instances": str(len(bucket)),
            "solved": str(len(solved)),
            "unsolved": str(len(bucket) - len(solved)),
            "mean_time_solved": "" if mean_time is None else f"{mean_time:.2f}",
        })
    return out


def records_csv(records: list[BenchmarkRecord]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=RECORD_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for record in records:
        writer.writerow(record.row())
    return buffer.getvalue()


def summary_csv(summary_rows: list[dict[str, str]]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=SUMMARY_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in summary_rows:
        writer.writerow(row)
    return buffer.getvalue()
