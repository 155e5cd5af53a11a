"""Command-line front end: chromatic solve | generate | bench | verify."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .backend import SolverNotFoundError, SolveStatus, load_adapter
from .bench import (RunConfig, generate_set, read_manifest, records_csv,
                    run_bench, solve_instance, summarize, summary_csv)
from .graph import (Coloring, ColoringError, DimacsError, Graph, parse_dimacs,
                    verify_coloring)
from .lpsolve import seconds
from .models import FORMULATIONS
from .preprocess import CLIQUE_BLOCK


def write_coloring(c: Coloring, path: Path) -> None:
    """One `v <vertex> <color>` line per vertex, both 1-based."""
    lines = [f"v {v + 1} {color}" for v, color in enumerate(c.colors)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_coloring(text: str, n: int) -> Coloring:
    colors: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if len(tokens) != 3 or tokens[0] != "v":
            raise ColoringError(f"line {lineno}: expected `v <vertex> <color>`, got {line!r}")
        try:
            vertex, color = int(tokens[1]), int(tokens[2])
        except ValueError:
            raise ColoringError(f"line {lineno}: non-integer field in {line!r}") from None
        if not (1 <= vertex <= n):
            raise ColoringError(f"line {lineno}: vertex {vertex} out of range [1,{n}]")
        if vertex - 1 in colors:
            raise ColoringError(f"line {lineno}: duplicate vertex {vertex}")
        colors[vertex - 1] = color
    missing = [v + 1 for v in range(n) if v not in colors]
    if missing:
        raise ColoringError(f"coloring is partial; missing vertices {missing[:10]}")
    return Coloring(tuple(colors[v] for v in range(n)))


def _load_graph(path: str) -> Graph:
    return parse_dimacs(Path(path).read_text(encoding="utf-8"))


def _config_from_args(args) -> RunConfig:
    load_adapter(args.adapter)  # validate the spec before any work happens
    return RunConfig(models=tuple(args.model or RunConfig.models), clique_mode=args.clique,
                     time_limit=args.time_limit, clique_time_budget=args.clique_budget,
                     adapter=args.adapter, seed=args.seed, jobs=args.jobs)


def _add_run_options(sub: argparse.ArgumentParser) -> None:
    run = RunConfig()
    sub.add_argument("--model", action="append", choices=FORMULATIONS,
                     help=f"formulation to run (repeatable; default {' '.join(run.models)})")
    sub.add_argument("--clique", choices=("c", "e"), default=run.clique_mode,
                     help="clique search objective: size (c) or fixing count (e)")
    sub.add_argument("--time-limit", type=seconds, default=run.time_limit, metavar="S",
                     help="solver time limit per model (default %(default)g)")
    sub.add_argument("--clique-budget", type=seconds, default=run.clique_time_budget, metavar="S",
                     help="wall-time budget for the randomized clique search, checked "
                          f"every {CLIQUE_BLOCK} trials (default %(default)g)")
    sub.add_argument("--seed", type=int, default=run.seed)
    sub.add_argument("--adapter", default=run.adapter,
                     help="builtin | builtin-sub | path to adapter JSON (default %(default)s)")
    sub.add_argument("--out", type=Path, default=None, metavar="PATH",
                     help="output directory (solve) or records CSV file (bench)")
    sub.set_defaults(jobs=run.jobs)  # `bench` adds the --jobs flag


def cmd_solve(args) -> int:
    try:
        g = _load_graph(args.instance)
        cfg = _config_from_args(args)
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
    except (OSError, DimacsError, SolverNotFoundError, ValueError) as exc:
        print(f"chromatic solve: {exc}", file=sys.stderr)
        return 2
    name = Path(args.instance).stem
    lp_dir = (args.out / "lp") if args.out else None
    outcome = solve_instance(g, name, cfg, lp_dir=lp_dir)
    inst = outcome.preprocessed
    print(f"instance {name}: |V|={g.n} |E|={g.m}")
    if inst is not None:
        removed = inst.reduced.original_n - inst.reduced.graph.n
        print(f"preprocessing: removed {removed} dominated vertices, "
              f"clique size {inst.lower_bound}, upper bound {inst.upper_bound}, "
              f"anchor vertex {inst.anchor + 1} (1-based), {outcome.prep_time:.2f}s")
        if inst.solved_in_preprocessing:
            print("bounds met in preprocessing; no MILP solved")
    for record in outcome.records:
        print("  {model:5s} lb={lb} ub={ub} time={time}s status={status}".format(**record.row()))
        if record.error:
            print(f"        {record.error}")
    if args.out:
        csv_path = args.out / f"{name}.csv"
        csv_path.write_text(records_csv(outcome.records), encoding="utf-8")
        for model_name, coloring in outcome.colorings.items():
            write_coloring(coloring, args.out / f"{name}.{model_name}.coloring")
        print(f"wrote {csv_path}")
    failed = any(record.status.startswith(SolveStatus.ERROR.value)
                 for record in outcome.records)
    return 1 if failed else 0


def cmd_generate(args) -> int:
    try:
        rows = generate_set(args.kind, seed=args.seed, outdir=args.out,
                            n=args.n, p=args.p, count=args.count)
    except (OSError, ValueError) as exc:
        print(f"chromatic generate: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(rows)} instances and manifest.csv to {args.out}")
    return 0


def cmd_bench(args) -> int:
    manifest_path = Path(args.manifest)
    try:
        manifest = read_manifest(manifest_path)
        cfg = _config_from_args(args)
        if args.out:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            for path in (args.out, args.out.with_suffix(".summary.csv")):
                if path.is_dir():
                    raise ValueError(f"{path} is a directory")
    except (OSError, KeyError, ValueError, SolverNotFoundError) as exc:
        print(f"chromatic bench: {exc}", file=sys.stderr)
        return 2
    records = run_bench(manifest, manifest_path.parent, cfg)
    for record in records:
        if record.error:
            print(f"{record.instance} {record.model}: {record.error}", file=sys.stderr)
    summary = summarize(manifest, records)
    records_text = records_csv(records)
    summary_text = summary_csv(summary)
    if args.out:
        args.out.write_text(records_text, encoding="utf-8")
        args.out.with_suffix(".summary.csv").write_text(summary_text, encoding="utf-8")
        print(f"wrote {args.out} and {args.out.with_suffix('.summary.csv')}")
    else:
        sys.stdout.write(records_text)
        sys.stdout.write(summary_text)
    return 0


def cmd_verify(args) -> int:
    try:
        g = _load_graph(args.instance)
        coloring = parse_coloring(Path(args.coloring).read_text(encoding="utf-8"), g.n)
    except (OSError, DimacsError, ColoringError) as exc:
        print(f"chromatic verify: {exc}", file=sys.stderr)
        return 2
    report = verify_coloring(g, coloring)
    if report.valid:
        print(f"valid coloring with {report.colors_used} colors")
        return 0
    for (u, v) in report.violating_edges:
        print(f"edge ({u + 1},{v + 1}) has both endpoints colored {coloring.colors[u]}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromatic",
        description="Vertex-coloring MILP toolkit: preprocessing, five "
                    "formulations, pluggable solvers, benchmark tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve_p = sub.add_parser("solve", help="solve one DIMACS instance")
    solve_p.add_argument("instance", help="DIMACS .col file")
    _add_run_options(solve_p)
    solve_p.set_defaults(func=cmd_solve)

    gen_p = sub.add_parser("generate", help="write a random benchmark set")
    gen_p.add_argument("kind", choices=("set100", "sparse240", "custom"))
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--out", type=Path, required=True, metavar="DIR")
    gen_p.add_argument("--n", type=int, default=None)
    gen_p.add_argument("--p", type=float, default=None)
    gen_p.add_argument("--count", type=int, default=None)
    gen_p.set_defaults(func=cmd_generate)

    bench_p = sub.add_parser("bench", help="sweep a manifest of instances")
    bench_p.add_argument("manifest", help="manifest.csv from `chromatic generate`")
    _add_run_options(bench_p)
    bench_p.add_argument("--jobs", type=int,
                         help="parallel solver workers (default %(default)s)")
    bench_p.set_defaults(func=cmd_bench)

    verify_p = sub.add_parser("verify", help="check a coloring file against a graph")
    verify_p.add_argument("instance", help="DIMACS .col file")
    verify_p.add_argument("coloring", help="coloring file (v <vertex> <color> lines)")
    verify_p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
