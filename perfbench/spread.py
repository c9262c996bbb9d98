"""Steadiness check: runs one workload on several seeds and prints, per
end-to-end metric, the median over the runs and the spread (distance
between the first and third quartile, as a share of the median) next
to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1] [--seconds S]

A benchmark is steady when every spread is below a third of its
bound."""

import argparse
import statistics

import common
import report


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    args = p.parse_args()
    bench = common.load_json(common.ROOT / "BENCHMARK.json")
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result, _ = report.run(args.workload, seed, seconds, 0)
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
              flush=True)
    print(f"failed operations: {failed}")
    for m in bench["end_to_end"]:
        xs = values[m["name"]]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        share = (q3 - q1) / med
        verdict = "ok" if share < m["bound"] / 3 else "TOO WIDE"
        print(f"{m['name']:16} median {med:12.5g} {m['unit']:7} spread {share:7.2%}  "
              f"bound {m['bound']:.2f}  {verdict}")


if __name__ == "__main__":
    main()
