//! `cfd-obs` — structured observability for the CFD suite.
//!
//! PR 5 found the validation kernel 50× slower than its own recording
//! — and the only way to know was to hand-run a criterion bench. This
//! crate is the always-available alternative: a dependency-free
//! substrate every hot layer (validation kernel, partition engine and
//! store, streaming engine, the six discovery algorithms) emits into,
//! cheap enough to stay compiled in.
//!
//! Two pieces:
//!
//! * **Metrics and span summaries** ([`metrics`]): a [`Registry`] of
//!   named counters, gauges, power-of-two-bucketed histograms and span
//!   summaries, lock-sharded by name. It implements
//!   `cfd_model::progress::MetricsSink`, the trait instrumented layers
//!   speak through `cfd_model::progress::Control` — so the kernel, the
//!   stream engine and the miners need no dependency on this crate to
//!   be countable or timed. A span opened with `Control::span` folds
//!   into its name's [`SpanSummary`] when it closes; a registry keeps
//!   spans only after [`Registry::enable_spans`] (`cfd … --trace`), and
//!   until then an open/close pair reads no clock and allocates
//!   nothing (a tested property).
//! * **JSON export**: [`MetricsSnapshot`] serializes through
//!   `cfd_model::json` — the same writer behind `--format json` — and
//!   parses back ([`MetricsSnapshot::from_json`]), so
//!   `cfd … --metrics-out <path>` emits machine-checkable documents.
//!
//! ```
//! use cfd_model::progress::{Control, MetricsSink};
//! use cfd_obs::{MetricsSnapshot, Registry};
//!
//! let reg = Registry::new();
//! let ctrl = Control::default().metrics_with(&reg);
//! // an instrumented layer emits through the Control handle …
//! ctrl.metric_add("validate.rows_scanned", 100_000);
//! ctrl.metric_observe("stream.batch_rows", 512);
//! // … and the registry snapshot round-trips through JSON
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("validate.rows_scanned"), Some(100_000));
//! let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
//! assert_eq!(back, snap);
//! ```
//!
//! The span/metric naming scheme, each counter's meaning, and the
//! overhead budget live in DESIGN.md §10.

pub mod metrics;

pub use metrics::{HistogramSnapshot, MetricsSnapshot, Registry, SpanSummary};
