"""Benchmark of the chromatic toolkit, from DIMACS text in to checked colorings out.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0

Run it from a source checkout: it imports the package from `src/` next to
this directory and exits with status 2 when there is none. Workloads are
`dense`, `dimacs` and `subprocess` (see workloads.py and README.md).

A run is a closed loop over whole passes. A pass reads every instance's .col
text, parses it with `chromatic.graph.parse_dimacs`, runs
`chromatic.bench.solve_instance` for the instance's formulations (one
process, jobs=1) and checks every answer with checks.py. Passes repeat until
`--seconds` have gone by; every run attempts whole passes, so the share of
failed operations does not depend on the run length.

The launching process only orchestrates. Each set-up runs in a fresh Python
process, which imports the package, writes the inputs, solves a warm-up
instance and prints `ready`; `setup_s` is the median over SETUP_SAMPLES of
the time from starting such a process to reading that line. The last of them
goes on to measure. With `--trace 1` it alternates untraced and traced passes
and reports the per-layer metrics of tracing.py instead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0
READY = "ready"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# the launching process

def run_child(args, role: str):
    """Start a worker; return (seconds until it printed `ready`, its last line)."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    # the program's temporary LP files stay inside the checkout too
    tmpdir = OUT / "tmp"
    tmpdir.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": pythonpath, "TMPDIR": str(tmpdir)}
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    ready_s, last = None, None
    try:
        for line in proc.stdout:
            if ready_s is None and line.strip() == READY:
                ready_s = time.perf_counter() - started
            elif line.strip():
                last = line
                if role == "measure" and not line.startswith("{"):
                    print(line, end="", flush=True)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready_s is None:
        raise RuntimeError(f"{role} worker exited with status {proc.returncode}")
    return ready_s, last


def launch(args) -> int:
    if not (SRC / "chromatic" / "__init__.py").is_file():
        print(f"perfbench: no chromatic package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    ready_times = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                ready_times.append(run_child(args, "setup")[0])
        ready_s, last = run_child(args, "measure")
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    ready_times.append(ready_s)
    result = json.loads(last)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(ready_times), "unit": "s"}
        print("setup samples (s): " + " ".join(f"{t:.3f}" for t in ready_times))
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# the worker process

def work(args) -> int:
    sys.path.insert(0, str(SRC))
    import harness
    import tracing

    workload = workloads.build(args.workload)
    indir = harness.set_up(workload, args.seed, OUT)
    print(READY, flush=True)
    if args.role == "setup":
        return 0
    tracer = tracing.Tracer() if args.trace else None
    result = harness.measure(workload, indir, args.seconds, tracer)
    if tracer is not None:
        tracer.write_spans(OUT / f"{workload.name}-seed{args.seed}.spans.jsonl")
        print(f"spans: {len(tracer.spans)}")
    print(f"reference loop: {harness.reference_loop_s():.3f} s (machine speed, not a metric)")
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return work(args) if args.role else launch(args)


if __name__ == "__main__":
    sys.exit(main())
