"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --seconds 20 dense dimacs subprocess

For every workload and metric it prints the median over the runs and the
distance between the first and third quartile (`statistics.quantiles`,
n=4) as a share of that median, plus the share of failed operations. Runs
go one after the other; add `--trace 1` for the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args(argv)
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                                   "--seed", str(seed), "--seconds", args.seconds,
                                   "--trace", args.trace],
                                  capture_output=True, text=True, check=True)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"{workload}: {len(results)} runs, failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in results})}, "
              f"correct {all(r['correct'] for r in results)}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median if median else float("nan")
            print(f"  {name:34s} median {median:12.6g} {first['unit']:6s} IQR/median {share:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
