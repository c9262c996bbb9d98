//! Exhaustive CFD discovery — the reference oracle.
//!
//! Enumerates every candidate CFD over the active domain (all LHS
//! attribute sets, all constant/wildcard patterns, all RHS values) and
//! keeps the minimal, k-frequent ones. Exponential in arity and domain
//! size; usable only on tiny instances, which is exactly its role: the
//! property tests compare CFDMiner, CTANE and FastCFD against it.

use crate::minimality::is_minimal;
use cfd_model::attrset::AttrSet;
use cfd_model::cfd::Cfd;
use cfd_model::cover::CanonicalCover;
use cfd_model::pattern::{PVal, Pattern};
use cfd_model::progress::{shard_runs, Cancelled, Control, SearchStats};
use cfd_model::relation::Relation;
use std::sync::atomic::{AtomicBool, Ordering};

/// Exhaustive discovery of the canonical cover (minimal, k-frequent
/// constant + variable CFDs).
#[derive(Clone, Copy, Debug)]
pub struct BruteForce {
    k: usize,
    threads: usize,
}

impl BruteForce {
    /// Creates the oracle with support threshold `k ≥ 1`.
    pub fn new(k: usize) -> BruteForce {
        assert!(k >= 1, "support threshold must be at least 1");
        BruteForce { k, threads: 1 }
    }

    /// Enumerates the RHS attributes on `threads` workers (`1`, the
    /// default, keeps the serial loop); the cover is identical for
    /// every thread count.
    pub(crate) fn threads(mut self, threads: usize) -> BruteForce {
        self.threads = threads.max(1);
        self
    }

    /// Enumerates the canonical cover of `rel`. Cost is
    /// `O(arity · 2^arity · Π(dom+1) · |r|)` — keep instances tiny.
    pub fn discover(&self, rel: &Relation) -> CanonicalCover {
        self.run(rel, &Control::default(), &mut SearchStats::default())
            .expect("default Control is never cancelled")
    }

    /// [`BruteForce::discover`] with run control and instrumentation:
    /// polls `ctrl` per LHS attribute set, reports `rhs` progress, and
    /// counts candidate CFDs tested (`candidates`) against those
    /// surviving the minimality referee (`emitted`).
    pub fn run(
        &self,
        rel: &Relation,
        ctrl: &Control<'_>,
        stats: &mut SearchStats,
    ) -> Result<CanonicalCover, Cancelled> {
        let arity = rel.arity();
        assert!(
            arity <= 10,
            "brute force is a test oracle; refusing arity {arity} > 10"
        );
        // a run cannot fail, so a run that sees the control trip stops
        // early and flags it; the flag turns into the error afterwards
        let stopped = AtomicBool::new(false);
        let rhs_attrs: Vec<usize> = (0..arity).collect();
        let out = shard_runs(
            &rhs_attrs,
            self.threads,
            ctrl,
            stats,
            Vec::new,
            |&rhs, pattern_vals, stats, out| {
                let lhs_universe = AttrSet::full(arity).without(rhs);
                for lhs_attrs in lhs_universe.subsets() {
                    if ctrl.check().is_err() {
                        stopped.store(true, Ordering::Relaxed);
                        return;
                    }
                    let attrs: Vec<usize> = lhs_attrs.iter().collect();
                    self.enumerate(rel, &attrs, pattern_vals, rhs, out, stats);
                }
                ctrl.report("rhs", rhs + 1, arity);
            },
        )?;
        if stopped.into_inner() {
            return Err(Cancelled);
        }
        Ok(CanonicalCover::from_cfds(out))
    }

    #[allow(clippy::too_many_arguments)] // internal recursion carrying instrumentation
    fn enumerate(
        &self,
        rel: &Relation,
        attrs: &[usize],
        vals: &mut Vec<PVal>,
        rhs: usize,
        out: &mut Vec<Cfd>,
        stats: &mut SearchStats,
    ) {
        if vals.len() == attrs.len() {
            let lhs = Pattern::from_pairs(attrs.iter().copied().zip(vals.iter().copied()));
            // variable CFD — canonical-cover convention: an all-constant
            // LHS variable CFD holds iff the RHS attribute is constant on
            // the matching tuples, i.e. iff its constant counterpart holds;
            // it is implied and excluded (cf. FindMin, which never emits
            // variable CFDs with an empty wildcard part)
            if !lhs.is_all_const() {
                let var = Cfd::variable(lhs.clone(), rhs);
                stats.candidates += 1;
                if is_minimal(rel, &var, self.k) {
                    stats.emitted += 1;
                    out.push(var);
                } else {
                    stats.pruned += 1;
                }
            }
            // constant CFDs need an all-constant LHS
            if lhs.is_all_const() {
                for a in 0..rel.column(rhs).domain_size() as u32 {
                    let con = Cfd::new(lhs.clone(), rhs, PVal::Const(a));
                    stats.candidates += 1;
                    if is_minimal(rel, &con, self.k) {
                        stats.emitted += 1;
                        out.push(con);
                    } else {
                        stats.pruned += 1;
                    }
                }
            }
            return;
        }
        let a = attrs[vals.len()];
        vals.push(PVal::Var);
        self.enumerate(rel, attrs, vals, rhs, out, stats);
        vals.pop();
        for c in 0..rel.column(a).domain_size() as u32 {
            vals.push(PVal::Const(c));
            self.enumerate(rel, attrs, vals, rhs, out, stats);
            vals.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_datagen::cust::cust_relation;
    use cfd_model::cfd::parse_cfd;
    use cfd_model::oracle::satisfies;
    use cfd_model::oracle::support;

    #[test]
    fn finds_paper_rules_on_cust() {
        let r = cust_relation();
        let cover = BruteForce::new(2).discover(&r);
        // minimal rules claimed by the paper at k ≤ 2
        for txt in [
            "([CC, AC] -> CT, (_, _ || _))",      // f1
            "([CC, ZIP] -> STR, (44, _ || _))",   // φ0
            "([CC, AC] -> CT, (44, 131 || EDI))", // φ2
            "(AC -> CT, (908 || MH))",            // Example 7
        ] {
            let c = parse_cfd(&r, txt).unwrap();
            assert!(cover.contains(&c), "{txt} must be in the cover");
        }
        // non-minimal rules must be absent
        for txt in [
            "([CC, AC] -> CT, (01, 908 || MH))", // φ1 (CC droppable)
            "([CC, AC] -> CT, (01, _ || _))",    // f1 specialization
        ] {
            let c = parse_cfd(&r, txt).unwrap();
            assert!(!cover.contains(&c), "{txt} must not be in the cover");
        }
    }

    #[test]
    fn every_output_holds_and_is_minimal() {
        let r = cust_relation();
        for k in [1, 2, 3] {
            let cover = BruteForce::new(k).discover(&r);
            assert!(!cover.is_empty());
            for cfd in cover.iter() {
                assert!(satisfies(&r, cfd));
                assert!(support(&r, cfd) >= k);
                assert!(is_minimal(&r, cfd, k));
            }
        }
    }

    #[test]
    fn threads_do_not_change_the_cover() {
        let r = cust_relation();
        for k in [1, 2] {
            let serial = BruteForce::new(k).discover(&r);
            let mut stats = SearchStats::default();
            let sharded = BruteForce::new(k)
                .threads(3)
                .run(&r, &Control::default(), &mut stats)
                .unwrap();
            assert_eq!(serial.cfds(), sharded.cfds(), "k={k}");
            assert_eq!(
                stats.emitted as usize,
                sharded.len(),
                "worker stats are merged"
            );
        }
    }

    #[test]
    fn higher_k_shrinks_cover() {
        let r = cust_relation();
        let k1 = BruteForce::new(1).discover(&r).len();
        let k3 = BruteForce::new(3).discover(&r).len();
        assert!(k3 < k1);
    }
}
