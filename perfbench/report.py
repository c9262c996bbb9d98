"""Prints every end-to-end and per-layer metric of every workload, by
name and unit, with the share of failed operations.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Runs `run.py` twice per workload: untraced (end-to-end metrics) and
traced (per-layer metrics)."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import common


def run(workload, seed, seconds, trace):
    """Runs `run.py` once; returns its result and its stderr notes on
    percentile fallbacks and failures. Exits if the run fails."""
    done = subprocess.run([sys.executable, str(Path(__file__).parent / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, cwd=common.ROOT)
    notes = [line for line in done.stderr.splitlines() if "latency_p99_ms" in line or "FAILED" in line]
    if done.returncode != 0:
        sys.exit(f"{workload}: exit {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1]), notes


def main():
    bench = common.load_json(common.ROOT / "BENCHMARK.json")
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--workload", action="append", help="default: every workload")
    args = p.parse_args()
    bad = 0
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s per run)")
        for trace in (0, 1):
            result, notes = run(workload, args.seed, args.seconds, trace)
            share = result["failed"] / result["attempted"]
            bad += result["failed"]
            print(f"  {'traced' if trace else 'untraced'} run: failed_share {share:g} "
                  f"({result['failed']}/{result['attempted']}), correct {result['correct']}")
            for note in notes:
                print(f"  {note}")
            for name, m in result["metrics"].items():
                print(f"  {name:32} {m['value']:16.6g}  {m['unit']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
