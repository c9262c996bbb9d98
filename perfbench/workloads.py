"""The four workloads: set-up, the timed loop and the output gate of
each. One-shot workloads drive the `cfd` binary; `serve_mixed` drives
a `cfd serve` process over TCP."""

import itertools
import json
import os
import select
import signal
import socket
import subprocess
import time
from statistics import median

import common
import layers
from common import BenchError, log

SIZES = {
    # rows of each generated input; "small" is the smoke-test size
    "full": {"tane": 100_000, "ctane": 1_500, "check": 1_000_000, "check_prefix": 20_000,
             "serve_base": 50_000, "serve_noisy": 20_000},
    "small": {"tane": 3_000, "ctane": 300, "check": 30_000, "check_prefix": 3_000,
              "serve_base": 5_000, "serve_noisy": 2_000},
}
SETUP_REPS = 3
SETUP_SECONDS = 2.0
CHECK_RULES = 40
REMINE_RULE = "([AC] -> CT, (_ || _))"
WARM_ROUNDS = 1  # untimed rounds before serve_mixed's timed loop
MEMORY_ROUNDS = 4  # rounds of serve_mixed's fixed-work memory pass, on one connection
ORDERS = 4  # row orders of one instance per discover run


class Tally:
    """Attempted and failed operations of one run; a wrong output is a
    failure like a refused one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAILED: {what}")
        return ok


# ---------------------------------------------------------------- one-shot

class OneShot:
    """A workload timed as repeated invocations of one `cfd` command,
    cycling over the run's `inputs`."""

    def __init__(self, name, bins, seed, scale, n_inputs):
        self.name, self.bins, self.seed = name, bins, seed
        self.sizes = SIZES[scale]
        self.dir = common.WORK / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.inputs = [self.dir / f"data_{i}.csv" for i in range(n_inputs)]

    def rel(self, path):
        # the CLI sees checkout-relative paths, so its output (which
        # names the dataset) does not depend on where the checkout is
        return str(path.relative_to(common.ROOT))


class DiscoverWorkload(OneShot):
    """Discovery on ORDERS row orders of one instance: TANE's cost moves
    by up to ~25% with the row order alone (dictionary codes follow
    first occurrence), so one order per run would make the seed, not
    the program, decide the run's median."""

    expected_code = 0

    def __init__(self, name, bins, seed, scale, algo, k, rows_key):
        super().__init__(name, bins, seed, scale, ORDERS)
        self.algo, self.k, self.rows = algo, k, self.sizes[rows_key]

    def setup(self):
        for i, path in enumerate(self.inputs):
            common.taxgen(self.bins, self.rows, self.seed * ORDERS + i, path)

    def argv(self, i):
        return [self.bins["cfd"], "discover", self.rel(self.inputs[i]), "--algo", self.algo, "--k", str(self.k)]

    def tracer_argv(self, i):
        return [self.bins["perfbench-tracer"], "discover", self.rel(self.inputs[i]), self.algo, str(self.k),
                self.rel(self.dir / "traced_cover.txt")]

    def tracer_agrees(self, doc, stdout):
        return (self.dir / "traced_cover.txt").read_bytes() == stdout

    def gate(self, i, stdout, tally, traced=None):
        cover = self.dir / "cover.txt"
        cover.write_bytes(stdout)
        child = common.run_child([self.bins["cfd"], "check", self.rel(self.inputs[i]), self.rel(cover)],
                                 self.dir / "gate.out")
        tally.check(child.code == 0, f"{self.name}: cover fails `cfd check` on its own input "
                                     f"(exit {child.code})")


class CheckWorkload(OneShot):
    """The rules are mined on the first rows in generator order, and the
    seed then reorders all rows. So every seed checks the same rule set
    against the same tuples: mined on a seed's own prefix, the rule set
    moved the run's time and memory by ~10% from seed to seed."""

    expected_code = 1  # the 1M rows violate rules mined on 20k of them

    def __init__(self, name, bins, seed, scale):
        super().__init__(name, bins, seed, scale, 1)
        self.rows = self.sizes["check"]
        self.rules = self.dir / "rules.txt"

    def setup(self):
        common.taxgen(self.bins, self.rows, None, self.inputs[0])
        prefix = self.dir / "prefix.csv"
        common.csv_prefix(self.inputs[0], prefix, self.sizes["check_prefix"])
        mined = common.run_child([self.bins["cfd"], "discover", self.rel(prefix), "--algo", "fastcfd",
                                  "--k", "20"], self.rules)
        if mined.code != 0 or not self.rules.read_text().strip():
            raise BenchError("check_1m set-up: mining the prefix found no rules")
        common.shuffle_rows(self.inputs[0], self.seed)

    def argv(self, i):
        return [self.bins["cfd"], "check", self.rel(self.inputs[i]), self.rel(self.rules), "--format", "json"]

    def tracer_argv(self, i):
        return [self.bins["perfbench-tracer"], "check", self.rel(self.inputs[i]), self.rel(self.rules)]

    def tracer_agrees(self, doc, stdout):
        return doc["counters"]["validate.violations"] == json.loads(stdout)["total_violations"]

    def gate(self, i, stdout, tally, traced=None):
        cli = json.loads(stdout)["total_violations"]
        if traced is None:
            child = common.run_child(self.tracer_argv(i), self.dir / "gate.json")
            traced = json.loads(child.stdout()) if child.code == 0 else None
        inproc = traced["counters"]["validate.violations"] if traced else None
        tally.check(cli == inproc and cli > 0,
                    f"{self.name}: `cfd check` counts {cli} violations, CoverPlan::validate {inproc}")


def make(name, bins, seed, scale):
    if name == "discover_tane":
        return DiscoverWorkload(name, bins, seed, scale, "tane", 2, "tane")
    if name == "discover_ctane":
        return DiscoverWorkload(name, bins, seed, scale, "ctane", 2, "ctane")
    if name == "check_1m":
        return CheckWorkload(name, bins, seed, scale)
    if name == "serve_mixed":
        return ServeMixed(name, bins, seed, scale)
    raise BenchError(f"unknown workload {name!r}")


def check_digests(name, outputs, digests, tally):
    """Compares the outputs of a run's inputs with the recorded digests:
    of each output's sorted lines (the rule set, which no row order
    changes) and, on the recorded seed, of the first output's bytes."""
    for i, output in enumerate(outputs):
        found = {"sorted": common.digest(common.sorted_lines(output))}
        if i == 0:
            found["exact"] = common.digest(output)
        for kind, got in found.items():
            log(f"{name}: input {i}: {kind} output digest {got}")
            want = digests.get(kind, {}).get(name)
            if want is not None:
                tally.check(got == want, f"{name}: input {i}: {kind} output digest differs from the recorded one")


def timed_setup(setup, reset=None):
    """Runs `setup` at least SETUP_REPS times and until SETUP_SECONDS
    have passed; returns the median duration. A set-up of a few
    milliseconds is mostly process start-up, so it needs many samples
    for a steady median. `reset`, if given, undoes the previous set-up
    before each one, outside the timed region."""
    times = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_SECONDS:
        if reset and times:
            reset()
        t0 = time.perf_counter()
        setup()
        times.append(time.perf_counter() - t0)
    return median(times)


def run_oneshot(w, seconds, trace, digests, tally):
    """The timed loop of a one-shot workload. Untraced: invoke the CLI
    until `seconds` pass. Traced: alternate the CLI with the in-process
    tracer, so both see the same machine state."""
    setup_s = timed_setup(w.setup)
    walls, rss, floors, traced = [], [], [], []
    firsts = [None] * len(w.inputs)  # each input's first stdout
    deadline = time.perf_counter() + seconds
    for n in itertools.count():
        i = n % len(w.inputs)
        child = common.run_child(w.argv(i), w.dir / "stdout.txt")
        out = child.stdout()
        firsts[i] = out if firsts[i] is None else firsts[i]
        if tally.check(child.code == w.expected_code and out == firsts[i],
                       f"{w.name}: exit {child.code}, stdout identical to the first run: {out == firsts[i]}"):
            walls.append(child.wall_s)
            rss.append(child.rss_mb)
            floors.append(child.floor_mb)
        if trace:
            t = common.run_child(w.tracer_argv(i), w.dir / "trace.json")
            doc = json.loads(t.stdout()) if t.code == 0 else None
            if tally.check(doc is not None and w.tracer_agrees(doc, out),
                           f"{w.name}: in-process run disagrees with the CLI"):
                traced.append(doc)
        if time.perf_counter() >= deadline and None not in firsts:
            break
    if not walls:
        raise BenchError(f"{w.name}: no invocation succeeded")
    for i, out in enumerate(firsts):
        w.gate(i, out, tally, traced[0] if traced and i == 0 else None)
    check_digests(w.name, firsts, digests, tally)
    check_rss_floor(w.name, min(rss), max(floors), tally)
    p50 = median(walls)
    tail_p, tail = common.tail_percentile(walls)
    if tail_p != 99:
        log(f"latency_p99_ms: {len(walls)} invocations leave no percentile above p{tail_p} "
            f"with 10 samples beyond it, so p{tail_p} is reported")
    log(f"{w.name}: {len(walls)} invocations, median {p50:.3f} s")
    e2e = {
        "setup_s": setup_s,
        "rows_per_s": w.rows / p50,
        "peak_rss_mb": median(rss),
        "req_per_s": 1.0 / p50,
        "latency_p50_ms": p50 * 1e3,
        "latency_p99_ms": tail * 1e3,
    }
    per_layer = layers.from_traces(traced, untraced_s=p50) if trace else None
    return e2e, per_layer


def check_rss_floor(name, rss_mb, floor_mb, tally):
    """The reported peak RSS must be the program's own: the floor it
    starts from (the spawner's high-water mark) has to stay well below
    it, so that a cut in the program's memory shows."""
    log(f"{name}: lowest reported peak RSS {rss_mb:.1f} MB, floor {floor_mb:.1f} MB")
    tally.check(floor_mb < rss_mb / 2, f"{name}: the RSS floor ({floor_mb:.1f} MB) "
                                       f"is not well below the RSS reported ({rss_mb:.1f} MB)")


# ------------------------------------------------------------------ serve

def read_reply(reader):
    """Reads lines until the reply to the last request, skipping job
    events unparsed. Returns (raw reply line, time it arrived)."""
    while True:
        line = reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        if not line.startswith(b'{"event"'):
            return line, time.perf_counter()


def timed_request(sock, reader, payload):
    """Sends one request in a single write and times it until its reply
    line. Returns (ms, parsed reply)."""
    t0 = time.perf_counter()
    sock.sendall(payload)
    line, t1 = read_reply(reader)
    return (t1 - t0) * 1e3, json.loads(line)


class Server:
    """A `cfd serve` child on an ephemeral port, run through
    `perfbench-spawn` in a process group of its own."""

    def __init__(self, bins, log_path):
        self.err = open(log_path, "wb")
        self.report = log_path.with_suffix(".spawn.json")
        self.report.unlink(missing_ok=True)
        argv = [bins["cfd"], "serve", "--addr", "127.0.0.1:0", "--workers", "2"]
        self.proc = subprocess.Popen(common.spawned(argv, self.report), stdout=subprocess.PIPE,
                                     stderr=self.err, cwd=common.ROOT, start_new_session=True)
        self.child = None  # the spawner's report, once the server has exited
        ready, _, _ = select.select([self.proc.stdout], [], [], 30)
        first = self.proc.stdout.readline().decode() if ready else ""
        if not first.startswith("SERVE "):
            self.kill()
            raise BenchError("cfd serve did not report its address")
        host, port = first.split()[1].rsplit(":", 1)
        self.addr = (host, int(port))

    def connect(self):
        sock = socket.create_connection(self.addr, timeout=120)
        return sock, sock.makefile("rb")

    def stop(self, sock, reader):
        """Asks the server to shut down over `sock` and waits for it."""
        try:
            timed_request(sock, reader, request({"op": "shutdown"}))
        except (OSError, ValueError):
            pass  # a server that is gone is collected below all the same
        finally:
            sock.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            pass
        self.kill()

    def kill(self):
        """Ends the server and its spawner if they still run, then reads
        the spawner's report: exit code and peak RSS (`wait4`)."""
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        if self.proc.returncode == 0 and self.child is None:
            self.child = common.Child(self.report)
        self.proc.stdout.close()
        self.err.close()

    def exited_cleanly(self):
        return self.child is not None and self.child.code == 0


def request(obj):
    return (json.dumps(obj) + "\n").encode()


class ServeMixed:
    """One connection repeating one fixed round against a `cfd serve
    --workers 2` process. One closed-loop connection keeps the work of
    a round fixed: with two, whether their CTANE jobs overlapped on the
    two cores moved throughput and p99 by 10-30% from run to run."""

    def __init__(self, name, bins, seed, scale):
        self.name, self.bins, self.seed = name, bins, seed
        self.sizes = SIZES[scale]
        self.dir = common.WORK / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.base = self.dir / "base.csv"
        self.noisy = self.dir / "noisy.csv"
        self.server = None
        self.register_ms = []

    def generate(self):
        common.taxgen(self.bins, self.sizes["serve_base"], self.seed, self.base)
        clean = self.dir / "clean.csv"
        sub_seed = self.seed * 1000 + 1
        common.taxgen(self.bins, self.sizes["serve_noisy"], sub_seed, clean)
        common.noise_column(clean, self.noisy, "CT", 0.10, sub_seed)

    def setup(self):
        """Input generation, server start and base registration."""
        self.generate()
        self.start()

    def start(self):
        """Starts a server and registers the base dataset on it."""
        self.server = Server(self.bins, self.dir / "serve.err")
        self.control = self.server.connect()
        ms, reply = timed_request(*self.control, request(
            {"op": "register", "name": "base", "path": str(self.base)}))
        if not reply.get("ok"):
            raise BenchError(f"serve_mixed set-up: base registration refused: {reply}")
        self.register_ms.append(ms)

    def stop(self):
        """Shuts the running server down and reaps it; returns it, with
        its exit code and peak RSS."""
        server, self.server = self.server, None
        if server:
            server.stop(*self.control)
        return server

    def reference(self):
        """The one-shot CLI's cfdminer cover of the base dataset: the
        CLI == serve reference, and the source of the check rules."""
        child = common.run_child([self.bins["cfd"], "discover", str(self.base), "--algo", "cfdminer",
                                  "--k", "50", "--format", "json"], self.dir / "reference.json")
        if child.code != 0:
            raise BenchError("serve_mixed: reference discovery failed")
        rules = json.loads(child.stdout())["rules"]
        (self.dir / "check_rules.txt").write_text("".join(r["text"] + "\n" for r in rules[:CHECK_RULES]))
        return rules

    def round(self):
        check_rules = (self.dir / "check_rules.txt").read_text().splitlines()
        return [
            ("ping", 0, request({"op": "ping"})),
            ("check", self.sizes["serve_base"], request(
                {"op": "check", "dataset": "base", "rules": check_rules, "sync": True})),
            ("discover_cfdminer", self.sizes["serve_base"], request(
                {"op": "discover", "dataset": "base", "algo": "cfdminer", "k": 50, "sync": True})),
            ("discover_ctane", self.sizes["serve_base"], request(
                {"op": "discover", "dataset": "base", "algo": "ctane", "k": 500, "sync": True})),
            ("register", self.sizes["serve_noisy"], request(
                {"op": "register", "name": "noisy", "path": str(self.noisy)})),
            ("remine", self.sizes["serve_noisy"], request(
                {"op": "remine", "dataset": "noisy", "rules": [REMINE_RULE], "theta": 0.95, "sync": True})),
            ("unregister", 0, request({"op": "unregister", "name": "noisy"})),
        ]


def reply_ok(op, reply, expect):
    """Checks one serve reply; `expect` holds the first rules seen per
    discover op (and the CLI's for cfdminer)."""
    if reply.get("ok") is not True:
        return False
    result = reply.get("result", {})
    if op == "check":
        return result.get("satisfied") is True
    if op.startswith("discover_"):
        rules = result.get("rules")
        return expect.setdefault(op, rules) == rules
    if op == "remine":
        return result.get("triggered") is True
    return True


def drive(w, expect, more):
    """Runs one client connection against `w.server`, repeating its
    round while `more(rounds it has completed)` holds. Returns the
    samples (op, ms, rows, reply ok), the time of each round whose
    replies were all ok (the sum of its request latencies, in ms) and
    the connection error, if any."""
    samples, round_ms, errors = [], [], []
    sock, reader = w.server.connect()
    requests = w.round()
    try:
        done = 0
        while more(done):
            got = []
            for op, rows, payload in requests:
                ms, reply = timed_request(sock, reader, payload)
                got.append((op, ms, rows, reply_ok(op, reply, expect)))
            samples.extend(got)
            if all(ok for *_, ok in got):
                round_ms.append(sum(ms for _, ms, _, _ in got))
            done += 1
    except (OSError, ValueError) as e:
        errors.append(e)
    finally:
        sock.close()
    return samples, round_ms, errors


def run_serve(w, seconds, trace, digests, tally):
    """The timed loop of serve_mixed, then a fixed-work pass on a fresh
    server for `peak_rss_mb`. The server keeps every finished job with
    its result, so its RSS grows with the jobs it has run; over a fixed
    time that would be throughput, so the memory figure comes from a
    fixed number of rounds instead. Throughput is the round's work over
    the median round time, so a stall of the machine during a few
    rounds does not decide the run's figure."""
    try:
        setup_s = timed_setup(w.setup, reset=w.stop)
        reference = w.reference()
        check_digests(w.name, ["".join(r["text"] + "\n" for r in reference).encode()], digests, tally)
        # every discover_cfdminer reply must carry the CLI's rules
        expect = {"discover_cfdminer": reference}
        warm_samples, _, warm_errors = drive(w, expect, lambda done: done < WARM_ROUNDS)
        deadline = time.perf_counter() + seconds
        samples, round_ms, errors = drive(w, expect, lambda done: time.perf_counter() < deadline)
        try:
            _, stats = timed_request(*w.control, request({"op": "stats"}))
        except (OSError, ValueError) as e:
            stats = {"error": str(e)}
        tally.check(w.stop().exited_cleanly(), f"{w.name}: server did not shut down cleanly")
        w.start()
        mem_samples, _, mem_errors = drive(w, expect, lambda done: done < MEMORY_ROUNDS)
        server = w.stop()
    finally:
        if w.server:
            w.server.kill()
    for e in warm_errors + errors + mem_errors:
        tally.check(False, f"{w.name}: connection failed: {e}")
    for op, ms, rows, ok in warm_samples + samples + mem_samples:
        tally.check(ok, f"{w.name}: bad {op} reply")
    tally.check(len(mem_samples) == MEMORY_ROUNDS * len(w.round()),
                f"{w.name}: the memory pass did not complete its {MEMORY_ROUNDS} rounds")
    if not tally.check(server.exited_cleanly(), f"{w.name}: memory-pass server did not shut down cleanly"):
        raise BenchError(f"{w.name}: no peak RSS from the memory pass")
    rss_mb = server.child.rss_mb
    check_rss_floor(w.name, rss_mb, server.child.floor_mb, tally)
    if not tally.check(stats.get("ok") is True, f"{w.name}: stats failed: {stats}") and trace:
        raise BenchError(f"{w.name}: no server stats for the per-layer metrics")
    good = [(op, ms, rows) for op, ms, rows, ok in samples if ok]
    if not round_ms:
        raise BenchError(f"{w.name}: no round succeeded")
    lat = [ms for _, ms, _ in good]
    tail_p, tail = common.tail_percentile(lat)
    if tail_p != 99:
        log(f"latency_p99_ms: {len(lat)} requests leave no percentile above p{tail_p} "
            f"with 10 samples beyond it, so p{tail_p} is reported")
    round_s = median(round_ms) / 1e3
    per_round = w.round()
    log(f"{w.name}: {len(round_ms)} rounds of {len(per_round)} requests, median {round_s * 1e3:.1f} ms; "
        f"server peak RSS {rss_mb:.1f} MB after {MEMORY_ROUNDS} rounds")
    e2e = {
        "setup_s": setup_s,
        "rows_per_s": sum(rows for _, rows, _ in per_round) / round_s,
        "peak_rss_mb": rss_mb,
        "req_per_s": len(per_round) / round_s,
        "latency_p50_ms": median(lat),
        "latency_p99_ms": tail,
    }
    if not trace:
        return e2e, None
    # the server's stats count the warm-up round's jobs too
    served = good + [(op, ms, rows) for op, ms, rows, ok in warm_samples if ok]
    return e2e, serve_layers(w, good, served, stats, tally)


SYNC_JOBS = ("check", "discover_cfdminer", "discover_ctane", "remine")


def serve_layers(w, good, served, stats, tally):
    """Per-layer metrics of serve_mixed: client wire timings of the
    timed requests (`good`) and the server's own stats, plus in-process
    traced rounds. `served` is every ok request the stats count."""
    by_op = {}
    for op, ms, _ in good:
        by_op.setdefault(op, []).append(ms)
    p50 = {op: median(v) for op, v in by_op.items()}
    # every job of the server is a sync request of `served`, so the mean
    # client latency of those requests minus the server's mean job time
    # (exact: the histogram keeps count and sum) is the mean time a job's
    # reply spends outside the job: parsing, queueing, the wire
    job_hist = stats["metrics"]["histograms"].get("serve.job_ms")
    if not job_hist:
        raise BenchError(f"{w.name}: the server reports no serve.job_ms histogram")
    sync_ms = [ms for op, ms, _ in served if op in SYNC_JOBS]
    serve = {f"serve.{op}.p50_ms": p50.get(op, 0.0) for op, _, _ in w.round()}
    serve.update({
        "serve.job_ms_p50": common.histogram_p50(job_hist),
        "serve.wire_ms": sum(sync_ms) / len(sync_ms) - job_hist["sum"] / job_hist["count"],
        "serve.jobs_total": float(stats["server"]["jobs_total"]),
        "serve.registry_bytes": float(stats["server"]["registry_bytes"]),
    })
    traced = []
    argv = [w.bins["perfbench-tracer"], "serve-round", str(w.base), str(w.dir / "check_rules.txt"),
            str(w.noisy), REMINE_RULE]
    for _ in range(3):
        t = common.run_child(argv, w.dir / "trace.json")
        doc = json.loads(t.stdout()) if t.code == 0 else None
        ok = doc is not None and doc["counters"]["validate.violations"] == 0 \
            and doc["counters"]["stream.replaced"] >= 1
        if tally.check(ok, f"{w.name}: in-process round failed or disagrees with the server"):
            traced.append(doc)
    # the untraced counterpart of one traced round: the base
    # registration, the server's mean time for the round's sync jobs,
    # and the client medians of its other requests (one reply each, so
    # no reply stall); the traced CTANE job still starts on a cold
    # store where the server's is warm
    job_mean_ms = job_hist["sum"] / job_hist["count"]
    untraced_ms = median(w.register_ms) + len(SYNC_JOBS) * job_mean_ms \
        + sum(v for op, v in p50.items() if op not in SYNC_JOBS)
    per_layer = layers.from_traces(traced, untraced_s=untraced_ms / 1e3)
    per_layer.update(serve)
    return per_layer
