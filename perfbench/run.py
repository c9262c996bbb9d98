"""Repository benchmark of the cfd suite.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds `cfd`, `taxgen` and the in-process tracer from source (release),
generates the workload's inputs from the seed, times the workload for
the given number of seconds and checks every output it times. The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json, with `--trace 1` its per-layer metrics. Notes go to
stderr. Workloads, metrics and the layer table are described in
perfbench/README.md.
"""

import argparse
import json
import sys

import common
import workloads
from common import BenchError, log

DEFAULT_SEED = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(workloads.SIZES), default="full",
                   help="input sizes; 'small' is for the benchmark's own smoke tests")
    return p.parse_args(argv)


def spec():
    path = common.ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return common.load_json(path)


def recorded_digests(seed, scale):
    """Digests to check: the sorted outputs on every seed, the exact
    outputs on the seed they were recorded with (full scale only)."""
    rec = common.load_json(common.BENCH_DIR / "digests.json")
    if scale != rec["scale"]:
        return {}
    return {"sorted": rec["sorted"], "exact": rec["exact"] if seed == rec["seed"] else {}}


def run(args):
    bench = spec()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    bins = common.build()
    w = workloads.make(args.workload, bins, args.seed, args.scale)
    tally = workloads.Tally()
    runner = workloads.run_serve if args.workload == "serve_mixed" else workloads.run_oneshot
    e2e, per_layer = runner(w, seconds, args.trace, recorded_digests(args.seed, args.scale), tally)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    got = per_layer if args.trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in got]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    log(f"failed_share: {tally.failed}/{tally.attempted}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": got[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as e:
        log(f"error: {e}")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
