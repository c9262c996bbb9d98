"""Per-layer metrics from the tracer's span trees.

A trace is the tracer's JSON document: spans (name, start, end, parent)
and counters. A layer's time is the self time of its spans: span
duration minus the durations of its child spans. `trace.coverage` is
the share of the `run` root's wall time spent inside layer spans."""

from statistics import median

import common

LAYER_SPANS = ("ingest", "index", "search", "output", "validate.compile", "validate.scan",
               "stream.warm", "stream.remine")


def summarize(doc):
    """Returns ({span name: total self seconds}, run wall seconds, coverage)."""
    spans = doc["spans"]
    dur = [(s["end_us"] - s["start_us"]) / 1e6 for s in spans]
    children = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            children[s["parent"]] += d
    self_s = {}
    for s, d, c in zip(spans, dur, children):
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + d - c
    run = next(i for i, s in enumerate(spans) if s["name"] == "run")
    covered = sum(d for s, d in zip(spans, dur) if s["parent"] == run and s["name"] in LAYER_SPANS)
    return self_s, dur[run], covered / dur[run]


def ratio(a, b):
    return a / b if b else 0.0


def metrics(doc):
    """The per-layer metrics of one traced run (layers a workload does
    not touch read 0)."""
    self_s, wall, coverage = summarize(doc)
    c = doc["counters"]
    t = lambda name: self_s.get(name, 0.0)
    n = lambda name: float(c.get(name, 0.0))
    measure = n("search.measure_s")
    return {
        "ingest.s": t("ingest"),
        "ingest.mb_per_s": ratio(n("ingest.input_bytes") / 1e6, t("ingest")),
        "ingest.bytes_per_row": ratio(n("ingest.relation_bytes"), n("ingest.rows")),
        "index.s": t("index"),
        "search.s": max(t("search") - measure, 0.0),
        "search.candidates": n("search.candidates"),
        "search.pruned": n("search.pruned"),
        "search.partitions": n("search.partitions"),
        "search.emitted": n("search.emitted"),
        "search.yield": ratio(n("search.emitted"), n("search.candidates")),
        "search.store_hit_ratio": ratio(n("search.store_hits"),
                                        n("search.store_hits") + n("search.store_misses")),
        "search.store_bytes": n("search.store_bytes"),
        "measure.s": measure,
        "output.s": t("output"),
        "output.bytes": n("output.bytes"),
        "validate.compile_s": t("validate.compile"),
        "validate.scan_s": t("validate.scan"),
        "validate.rows_per_s": ratio(n("validate.rows"), t("validate.scan")),
        "validate.violations": n("validate.violations"),
        "stream.warm_s": t("stream.warm"),
        "stream.remine_s": t("stream.remine"),
        "stream.replaced": n("stream.replaced"),
        "trace.wall_s": wall,
        "trace.coverage": coverage,
    }


SERVE_METRICS = ("serve.ping.p50_ms", "serve.check.p50_ms", "serve.discover_cfdminer.p50_ms",
                 "serve.discover_ctane.p50_ms", "serve.register.p50_ms", "serve.remine.p50_ms",
                 "serve.unregister.p50_ms", "serve.job_ms_p50", "serve.wire_ms", "serve.jobs_total",
                 "serve.registry_bytes")


def from_traces(docs, untraced_s):
    """Median of each metric over the traced runs; `trace.overhead_s` is
    the traced `run` wall minus `untraced_s`, the wall time of the same
    work through the program's own front end."""
    if not docs:
        raise common.BenchError("no traced run succeeded")
    runs = [metrics(d) for d in docs]
    out = {k: median([r[k] for r in runs]) for k in runs[0]}
    out["trace.overhead_s"] = out.pop("trace.wall_s") - untraced_s
    out.update({k: 0.0 for k in SERVE_METRICS})
    return out
