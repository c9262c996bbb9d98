//! Validation results: per-rule counters plus a bounded violation
//! sample, for a whole cover at once.

use cfd_model::{Json, RuleMeasure, Violation};

/// The outcome of validating one rule of a cover.
///
/// Two violation counts coexist, on purpose:
///
/// * [`RuleReport::violations`] counts violation *records* — what
///   a per-rule violation scan returns (pairs anchored at the scan
///   witness, singles for constant-RHS dissenters). This drives [`RuleReport::sample`] and
///   [`crate::ValidationReport::detect`].
/// * [`RuleReport::measure`] carries the rule's
///   [`RuleMeasure`]: the support plus the
///   *minimal-removal* count behind the g1-style confidence — the same
///   number approximate discovery thresholds against and the streaming
///   engine reports. For constant-RHS rules the two counts coincide;
///   for variable rules the removal count can undercut the record
///   count (a witness carrying a minority value dissents from the
///   majority it would be cheaper to keep).
#[derive(Clone, Debug, PartialEq)]
pub struct RuleReport {
    /// Index of the rule in the validated cover.
    pub rule: usize,
    /// Exact number of violation records (see the type docs).
    pub violations: usize,
    /// The first violations in scan order, capped at the run's
    /// [`limit`](crate::ValidateOptions::limit). With an uncapped limit
    /// this is every violation record of the rule, in tuple order.
    pub sample: Vec<Violation>,
    /// Support and minimal-removal count — the shared rule-level stats
    /// type behind [`RuleReport::confidence`].
    pub measure: RuleMeasure,
}

impl RuleReport {
    /// True iff the instance satisfies the rule (`r ⊨ φ`).
    pub fn satisfied(&self) -> bool {
        self.violations == 0
    }

    /// Tuples matching the rule's LHS pattern constants (its support on
    /// the instance; for a plain FD this is every tuple).
    pub fn support(&self) -> usize {
        self.measure.support
    }

    /// The rule's g1-style confidence: the fraction of matching tuples
    /// kept by the minimal repair (`1.0` when nothing matches) — see
    /// [`mod@cfd_model::measure`].
    pub fn confidence(&self) -> f64 {
        self.measure.confidence()
    }

    /// Serializes the per-rule outcome. Violations appear as
    /// `{"tuples": [t]}` (single-tuple) or `{"tuples": [t1, t2]}`
    /// (pair) with 0-based tuple ids; callers typically add the rule's
    /// wire text alongside (`cfd check --format json` does).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rule", Json::from(self.rule)),
            ("satisfied", Json::from(self.satisfied())),
            ("support", Json::from(self.support())),
            ("violations", Json::from(self.violations)),
            ("removals", Json::from(self.measure.violations)),
            ("confidence", Json::from(self.confidence())),
            (
                "sample",
                Json::arr(self.sample.iter().map(|v| {
                    let tuples = match v {
                        Violation::Single(t) => Json::arr([Json::from(*t as u64)]),
                        Violation::Pair(t1, t2) => {
                            Json::arr([Json::from(*t1 as u64), Json::from(*t2 as u64)])
                        }
                    };
                    Json::obj([("tuples", tuples)])
                })),
            ),
        ])
    }
}

/// The outcome of validating an entire cover against one instance.
#[derive(Clone, Debug, PartialEq)]
pub struct ValidationReport {
    /// Per-rule reports, in rule order.
    pub rules: Vec<RuleReport>,
    /// Number of tuples validated.
    pub n_rows: usize,
}

impl ValidationReport {
    /// True iff the instance satisfies every rule (`r ⊨ Σ`).
    pub fn satisfied(&self) -> bool {
        self.rules.iter().all(|r| r.satisfied())
    }

    /// Total violation count across all rules.
    pub fn total_violations(&self) -> usize {
        self.rules.iter().map(|r| r.violations).sum()
    }

    /// Flattens the per-rule samples into `(rule, violation)` pairs in
    /// rule order — with an uncapped limit, exactly what the per-rule
    /// reference scan ([`crate::detect_violations`]'s contract) reports.
    pub fn detect(&self) -> Vec<(usize, Violation)> {
        let mut out = Vec::new();
        for r in &self.rules {
            out.extend(r.sample.iter().map(|&v| (r.rule, v)));
        }
        out
    }

    /// Serializes the whole report (summary plus per-rule
    /// [`RuleReport::to_json`] objects) — the document behind
    /// `cfd check --format json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("satisfied", Json::from(self.satisfied())),
            ("n_rows", Json::from(self.n_rows)),
            ("total_violations", Json::from(self.total_violations())),
            (
                "rules",
                Json::arr(self.rules.iter().map(RuleReport::to_json)),
            ),
        ])
    }
}
