"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke tests build the program and run every workload at the
`small` scale through its output gate, in both modes."""

import json
import shutil
import socket
import subprocess
import sys
import threading
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        xs = list(range(1, 1001))
        self.assertEqual(common.tail_percentile(xs), (99, 990))
        # 999 samples: the p99 rank (990) leaves only 9 beyond it
        self.assertEqual(common.tail_percentile(list(range(1, 1000))), (98, 980))

    def test_order_of_samples_does_not_matter(self):
        xs = [float(x) for x in range(200, 0, -1)]
        self.assertEqual(common.tail_percentile(xs), (95, 190.0))

    def test_too_few_samples_fall_back_to_the_median(self):
        self.assertEqual(common.tail_percentile([5.0, 1.0, 3.0]), (50, 3.0))
        self.assertEqual(common.tail_percentile(list(range(10))), (50, 4.5))
        self.assertEqual(common.tail_percentile(list(range(1, 21))), (50, 10))


class HistogramMedian(unittest.TestCase):
    def test_interpolates_inside_the_median_bucket(self):
        # values 1 (bucket 1) x2 and 4..7 (bucket 3) x2
        hist = {"count": 4, "min": 1, "max": 6, "buckets": [[1, 2], [3, 2]]}
        self.assertEqual(common.histogram_p50(hist), 1.0)
        hist = {"count": 4, "min": 4, "max": 6, "buckets": [[3, 4]]}
        self.assertEqual(common.histogram_p50(hist), 5.0)


class Spawner(unittest.TestCase):
    def test_child_rss_does_not_start_at_the_benchmark_process_high_water_mark(self):
        common.build()
        common.WORK.mkdir(parents=True, exist_ok=True)
        ballast = bytearray(200 * 1024 * 1024)
        ballast[::4096] = b"\x01" * len(ballast[::4096])  # touch every page
        child = common.run_child(["sh", "-c", "echo hi; exit 3"], common.WORK / "spawn_test.out")
        del ballast
        self.assertEqual(child.code, 3)
        self.assertEqual(child.stdout(), b"hi\n")
        self.assertLess(child.rss_mb, 20.0)
        self.assertLess(child.floor_mb, child.rss_mb + 1.0)
        self.assertGreater(child.wall_s, 0.0)


def fake_server(conn, events, delay_s, received):
    reader = conn.makefile("rb")
    received.append(reader.readline())
    for i in range(events):
        conn.sendall(b'{"event":"progress","job":1,"n":%d}\n' % i)
    time.sleep(delay_s)
    conn.sendall(b'{"ok":true,"op":"check","result":{"satisfied":true}}\n')


class LatencyClock(unittest.TestCase):
    def pair(self):
        client, server = socket.socketpair()
        self.addCleanup(client.close)
        self.addCleanup(server.close)
        return client, server

    def test_clock_runs_until_the_reply_and_skips_events(self):
        client, server = self.pair()
        received = []
        t = threading.Thread(target=fake_server, args=(server, 3, 0.05, received))
        t.start()
        payload = workloads.request({"op": "check", "dataset": "base", "rules": ["r"], "sync": True})
        ms, reply = workloads.timed_request(client, client.makefile("rb"), payload)
        t.join()
        self.assertGreaterEqual(ms, 50.0)
        self.assertLess(ms, 5000.0)
        self.assertEqual(reply["op"], "check")
        self.assertEqual(received, [payload])
        self.assertTrue(payload.endswith(b"\n") and payload.count(b"\n") == 1)

    def test_read_reply_skips_events(self):
        client, server = self.pair()
        server.sendall(b'{"event":"started","job":7}\n{"event":"done","job":7}\n{"ok":true,"op":"ping"}\n')
        line, _ = workloads.read_reply(client.makefile("rb"))
        self.assertEqual(json.loads(line)["op"], "ping")

    def test_closed_connection_is_an_error(self):
        client, server = self.pair()
        server.close()
        with self.assertRaises(ConnectionError):
            workloads.read_reply(client.makefile("rb"))


class Spans(unittest.TestCase):
    def test_self_time_and_coverage(self):
        span = lambda name, a, b, parent: {"name": name, "start_us": a, "end_us": b, "parent": parent}
        doc = {"spans": [span("run", 0, 1e6, None), span("ingest", 0, 4e5, 0),
                         span("search", 4e5, 9e5, 0), span("gate", 1e6, 2e6, None),
                         span("validate.scan", 1e6, 1.5e6, 3)],
               "counters": {"search.measure_s": 0.1, "search.candidates": 10, "search.emitted": 5}}
        self_s, wall, coverage = layers.summarize(doc)
        self.assertAlmostEqual(self_s["run"], 0.1)
        self.assertAlmostEqual(wall, 1.0)
        self.assertAlmostEqual(coverage, 0.9)
        m = layers.metrics(doc)
        self.assertAlmostEqual(m["search.s"], 0.4)
        self.assertAlmostEqual(m["measure.s"], 0.1)
        self.assertAlmostEqual(m["search.yield"], 0.5)
        self.assertAlmostEqual(m["validate.scan_s"], 0.5)


def bench_spec():
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=common.ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900)


class Smoke(unittest.TestCase):
    """Every workload, small inputs, through its output gate."""

    def check_workload(self, name):
        spec = bench_spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run_bench("--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace),
                             "--scale", "small")
            self.assertEqual(done.returncode, 0, done.stderr[-2000:])
            result = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"], done.stderr[-2000:])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(list(result["metrics"]), [m["name"] for m in spec[key]])
            if trace:
                self.assertGreaterEqual(result["metrics"]["trace.coverage"]["value"], 0.5)

    def test_discover_tane(self):
        self.check_workload("discover_tane")

    def test_discover_ctane(self):
        self.check_workload("discover_ctane")

    def test_check_1m(self):
        self.check_workload("check_1m")

    def test_serve_mixed(self):
        self.check_workload("serve_mixed")

    def test_unknown_workload_fails_without_a_result(self):
        done = run_bench("--workload", "nope", "--seconds", "1")
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")

    def test_without_the_program_it_fails_without_a_result(self):
        bare = common.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(common.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", "Cargo.lock"))
        done = run_bench("--workload", "discover_tane", "--seconds", "1", cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
