//! In-process traced run of the cfd layers, for the repository benchmark.
//!
//! ```text
//! perfbench-tracer discover <data.csv> <algo> <k> <cover-out.txt>
//! perfbench-tracer check <data.csv> <rules.txt>
//! perfbench-tracer serve-round <base.csv> <check-rules.txt> <noisy.csv> <remine-rule>
//! ```
//!
//! Each mode calls the public entry points of one layer at a time, the
//! way `cfd discover`, `cfd check` and one `cfd serve` client round do,
//! and wraps every call in a span (name, start, end, parent). The
//! program itself carries no extra instrumentation: all timing happens
//! here, around its public functions. Spans are kept in memory and
//! printed, together with the run's counters, as one JSON object on
//! stdout when the run ends.
//!
//! Span names are the layer names of the benchmark: `ingest`, `index`,
//! `search`, `output`, `validate.compile`, `validate.scan`,
//! `stream.warm`, `stream.remine`. The root span `run` covers the work
//! the matching CLI invocation does; `gate` covers the in-process
//! check of a discovered cover against its own input.

use cfd_suite::model::{ingest_csv_path, IngestOptions};
use cfd_suite::partition::RelationIndex;
use cfd_suite::prelude::*;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// Span recorder: a flat list plus the stack of open spans.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: Vec<(&'static str, f64)>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: Vec::new(),
        }
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.t0.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.t0.elapsed();
        out
    }

    /// Adds `v` to counter `name` (counters sum over a run's calls).
    fn add(&mut self, name: &'static str, v: f64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += v,
            None => self.counters.push((name, v)),
        }
    }

    fn to_json(&self) -> Json {
        let us = |d: Duration| Json::from(d.as_nanos() as f64 / 1e3);
        Json::obj([
            (
                "spans",
                Json::arr(self.spans.iter().map(|s| {
                    Json::obj([
                        ("name", Json::from(s.name)),
                        ("start_us", us(s.start)),
                        ("end_us", us(s.end)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ])
                })),
            ),
            (
                "counters",
                Json::obj(self.counters.iter().map(|&(n, v)| (n, Json::from(v)))),
            ),
        ])
    }
}

fn ingest(tr: &mut Tracer, path: &str) -> Result<Relation> {
    let rel = tr.span("ingest", |_| {
        ingest_csv_path(path, &IngestOptions::default(), &Control::default())
    })?;
    tr.add("ingest.input_bytes", std::fs::metadata(path)?.len() as f64);
    tr.add("ingest.rows", rel.n_rows() as f64);
    tr.add("ingest.relation_bytes", rel.memory_bytes() as f64);
    Ok(rel)
}

fn parse_rules(rel: &Relation, text: &str) -> Result<Vec<Cfd>> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse_cfd(rel, l))
        .collect()
}

/// Builds the column indexes the kernel drives constant rules from
/// (what `CoverPlan::validate` would otherwise build lazily mid-scan).
fn index_for(tr: &mut Tracer, rel: &Relation, index: &RelationIndex, rules: &[Cfd]) {
    tr.span("index", |_| {
        let attrs = rules
            .iter()
            .fold(AttrSet::EMPTY, |acc, c| acc.union(c.lhs().const_attrs()));
        for a in attrs.iter() {
            index.column(rel, a);
        }
    });
}

/// Validates `rules` over `rel` the way `cfd check` does: compile the
/// cover once, then one kernel pass.
fn validate_cover(
    tr: &mut Tracer,
    rel: &Relation,
    index: &RelationIndex,
    rules: &[Cfd],
) -> ValidationReport {
    let plan = tr.span("validate.compile", |_| {
        CoverPlan::compile(rel, rules.iter())
    });
    index_for(tr, rel, index, rules);
    let opts = ValidateOptions {
        threads: 1,
        limit: 20,
    };
    let report = tr.span("validate.scan", |_| {
        plan.validate_indexed(rel, index, &opts)
    });
    tr.add("validate.rows", rel.n_rows() as f64);
    tr.add("validate.violations", report.total_violations() as f64);
    report
}

fn record_search(tr: &mut Tracer, d: &Discovery) {
    let s = &d.stats;
    let measure: Duration = s
        .phases
        .iter()
        .filter(|p| p.name == "measure")
        .map(|p| p.duration)
        .sum();
    tr.add("search.measure_s", measure.as_secs_f64());
    tr.add("search.candidates", s.candidates as f64);
    tr.add("search.pruned", s.pruned as f64);
    tr.add("search.partitions", s.partitions as f64);
    tr.add("search.emitted", s.emitted as f64);
    tr.add("search.store_hits", s.store.hits as f64);
    tr.add("search.store_misses", s.store.misses as f64);
    tr.add("search.store_bytes", s.store.bytes as f64);
    tr.add("search.rules", d.cover.len() as f64);
}

fn output(tr: &mut Tracer, render: impl FnOnce() -> String) -> String {
    let text = tr.span("output", |_| render());
    tr.add("output.bytes", text.len() as f64);
    text
}

fn discover(tr: &mut Tracer, path: &str, algo: &str, k: usize, out: &str) -> Result<()> {
    let algo = Algo::parse(algo).map_err(|e| Error::Parse(e.to_string()))?;
    let (rel, d) = tr.span("run", |tr| -> Result<_> {
        let rel = ingest(tr, path)?;
        let d = tr
            .span("search", |_| {
                algo.discover_with(&rel, &DiscoverOptions::new(k), &Control::default())
            })
            .map_err(|e| Error::Parse(e.to_string()))?;
        record_search(tr, &d);
        let text = output(tr, || d.cover.to_text(d.relation(&rel)));
        std::fs::write(out, text)?;
        Ok((rel, d))
    })?;
    tr.span("gate", |tr| {
        let index = RelationIndex::new(&rel);
        validate_cover(tr, &rel, &index, d.cover.cfds());
    });
    Ok(())
}

fn check(tr: &mut Tracer, path: &str, rules_path: &str) -> Result<()> {
    tr.span("run", |tr| -> Result<()> {
        let rel = ingest(tr, path)?;
        let rules = parse_rules(&rel, &std::fs::read_to_string(rules_path)?)?;
        let index = RelationIndex::new(&rel);
        let report = validate_cover(tr, &rel, &index, &rules);
        output(tr, || report.to_json().to_string());
        Ok(())
    })
}

/// One `cfd serve` client round, in-process: the base registration,
/// then check, two discoveries against the shared index, registration
/// of the noisy dataset, and one drift-triggered re-mining.
fn serve_round(
    tr: &mut Tracer,
    base: &str,
    rules_path: &str,
    noisy: &str,
    remine_rule: &str,
) -> Result<()> {
    tr.span("run", |tr| -> Result<()> {
        let rel = ingest(tr, base)?;
        let index = tr.span("index", |_| RelationIndex::new(&rel));
        let rules = parse_rules(&rel, &std::fs::read_to_string(rules_path)?)?;
        let report = validate_cover(tr, &rel, &index, &rules);
        output(tr, || report.to_json().to_string());
        for (algo, k) in [(Algo::CfdMiner, 50), (Algo::Ctane, 500)] {
            let d = tr
                .span("search", |_| {
                    algo.discover_indexed(
                        &rel,
                        Some(&index),
                        &DiscoverOptions::new(k),
                        &Control::default(),
                    )
                })
                .map_err(|e| Error::Parse(e.to_string()))?;
            record_search(tr, &d);
            output(tr, || d.to_json(&rel).to_string());
        }
        let noisy_rel = ingest(tr, noisy)?;
        let _noisy_index = tr.span("index", |_| RelationIndex::new(&noisy_rel));
        let rule = parse_cfd(&noisy_rel, remine_rule)?;
        let (mut engine, _) = tr.span("stream.warm", |_| {
            StreamEngine::warm(&noisy_rel, vec![rule], 1)
        });
        let delta = tr
            .span("stream.remine", |_| {
                remine(&mut engine, &RemineOptions::default(), &Control::default())
            })
            .map_err(|_| Error::Parse("re-mining was cancelled".into()))?;
        let replaced = delta.map_or(0, |d| d.retired.len());
        tr.add("stream.replaced", replaced as f64);
        Ok(())
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let mut tr = Tracer::new();
    let result = match argv.as_slice() {
        ["discover", data, algo, k, out] => match k.parse() {
            Ok(k) => discover(&mut tr, data, algo, k, out),
            Err(_) => Err(Error::Parse(format!("bad support threshold {k:?}"))),
        },
        ["check", data, rules] => check(&mut tr, data, rules),
        ["serve-round", base, rules, noisy, rule] => serve_round(&mut tr, base, rules, noisy, rule),
        _ => {
            eprintln!(
                "usage: perfbench-tracer discover|check|serve-round ... (see the source header)"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => {
            println!("{}", tr.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
