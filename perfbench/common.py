"""Shared pieces of the benchmark: paths, the build, child processes,
input generation and the statistics helpers."""

import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"


class BenchError(Exception):
    """The benchmark cannot run here (no program, failed build)."""


def log(msg):
    print(f"# {msg}", file=sys.stderr, flush=True)


def target_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Builds `cfd`, `taxgen`, the tracer and the spawner from source in
    release mode; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    steps = [
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "cfd-suite", "--bin", "cfd", "-p", "cfd-datagen", "--bin", "taxgen"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(BENCH_DIR / "tracer" / "Cargo.toml")],
    ]
    if not (ROOT / "Cargo.toml").is_file():
        raise BenchError(f"no Cargo.toml at {ROOT}: the program's sources are missing")
    for argv in steps:
        try:
            done = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            raise BenchError(f"cannot run cargo: {e}") from e
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(argv)}")
    release = target_dir() / "release"
    bins = {name: release / name for name in ("cfd", "taxgen", "perfbench-tracer", "perfbench-spawn")}
    for name, path in bins.items():
        if not path.is_file():
            raise BenchError(f"build produced no {name} binary at {path}")
    return bins


def spawned(argv, report):
    """`argv` run through `perfbench-spawn`, which writes the command's
    exit code, wall time and kernel peak RSS (`wait4`, not a sample) to
    `report`. A child spawned by the benchmark's Python process would
    start its `ru_maxrss` at the interpreter's ~20 MB high-water mark
    (Linux keeps it across `exec`); the spawner's is ~2 MB."""
    return [str(target_dir() / "release" / "perfbench-spawn"), str(report), *map(str, argv)]


class Child:
    """One finished child process: exit code, wall time, peak RSS and
    the spawner's high-water mark (the floor of that RSS), from the
    spawner's report."""

    def __init__(self, report, stdout_path=None):
        r = load_json(report)
        self.code = r["code"]
        self.wall_s = r["wall_s"]
        self.rss_mb = r["maxrss_kb"] / 1024.0
        self.floor_mb = r["spawner_hwm_kb"] / 1024.0
        self.stdout_path = stdout_path

    def stdout(self):
        return self.stdout_path.read_bytes()


def run_child(argv, stdout_path, stderr_path=None):
    """Runs `argv` to completion with stdout in a file."""
    stderr_path = stderr_path or stdout_path.with_suffix(".err")
    report = stdout_path.with_suffix(".spawn.json")
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        done = subprocess.run(spawned(argv, report), stdout=out, stderr=err, cwd=ROOT)
    if done.returncode != 0:
        raise BenchError(f"perfbench-spawn failed on {argv[0]}; see {stderr_path}")
    return Child(report, stdout_path)


def digest(data):
    return hashlib.sha256(data).hexdigest()


def sorted_lines(data):
    return b"".join(sorted(data.splitlines(keepends=True)))


# Generator seed of every instance. The benchmark's --seed draws the row
# order (and the noise), not the instance: which FDs a tax instance holds
# depends on its generator seed, and TANE's cost with them, by up to 7x
# at 100k rows. With this seed TANE at 100k rows sits in the regime
# where the measured hash and key-check cliffs show (1.5 s, 23 FDs);
# taxgen's default seed gives 0.25 s there.
GEN_SEED = 2


def taxgen(bins, rows, order_seed, out):
    """Writes `rows` tax tuples (ARITY 7, generator seed GEN_SEED) to
    `out`, in an order drawn from `order_seed`, or in generator order
    if it is None."""
    done = subprocess.run([str(bins["taxgen"]), str(rows), "--seed", str(GEN_SEED), "--out", str(out)],
                          cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if done.returncode != 0:
        raise BenchError(f"taxgen failed: {done.stderr.decode(errors='replace')}")
    if order_seed is not None:
        shuffle_rows(out, order_seed)


def shuffle_rows(path, seed):
    """Reorders the tuples of CSV `path` in place, header first, in an
    order drawn from `seed`."""
    with open(path) as f:
        header = f.readline()
        rows = f.readlines()
    random.Random(seed).shuffle(rows)
    with open(path, "w") as f:
        f.write(header)
        f.writelines(rows)


def noise_column(src, dst, column, share, seed):
    """Copies CSV `src` to `dst`, replacing `column` in about `share` of
    the rows by another value of that column's domain."""
    lines = src.read_text().splitlines()
    header = lines[0].split(",")
    col = header.index(column)
    rows = [line.split(",") for line in lines[1:]]
    domain = sorted({r[col] for r in rows})
    rng = random.Random(seed)
    for r in rows:
        if len(domain) > 1 and rng.random() < share:
            r[col] = rng.choice([v for v in domain if v != r[col]])
    dst.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def csv_prefix(src, dst, rows):
    """Writes the header and the first `rows` tuples of `src` to `dst`."""
    with open(src) as inp, open(dst, "w") as out:
        for i, line in enumerate(inp):
            if i > rows:
                break
            out.write(line)


def tail_percentile(samples, want=99, min_beyond=10):
    """The highest whole percentile p <= `want` whose nearest-rank value
    has at least `min_beyond` samples ranked after it, as (p, value).
    When even p50 lacks them, returns (50, median)."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(want, 49, -1):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= min_beyond:
            return p, xs[rank - 1]
    return 50, statistics.median(xs)


def histogram_p50(hist):
    """Median of a `cfd_obs` power-of-two histogram (`{"count", "min",
    "max", "buckets": [[bit_length, count], ...]}`), interpolated
    linearly inside the bucket that holds it."""
    half = hist["count"] / 2.0
    seen = 0
    for bits, count in sorted(hist["buckets"]):
        if seen + count >= half:
            lo = 0 if bits == 0 else 2 ** (bits - 1)
            hi = 0 if bits == 0 else 2 ** bits - 1
            lo, hi = max(lo, hist["min"]), min(hi, hist["max"])
            return lo + (hi - lo) * (half - seen) / count
        seen += count
    return float(hist["max"])


def load_json(path):
    return json.loads(Path(path).read_text())
