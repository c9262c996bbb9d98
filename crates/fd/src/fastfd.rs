//! FastFD — depth-first FD discovery (Wyss, Giannella & Robertson,
//! DaWaK 2001).
//!
//! Difference sets are complements of tuple-pair agree sets (computed
//! from stripped partitions); for each RHS attribute the minimal covers
//! of the minimal difference sets are enumerated depth-first with
//! dynamic attribute reordering — the skeleton FastCFD generalizes to
//! patterns.

use cfd_model::attrset::AttrSet;
use cfd_model::cfd::Cfd;
use cfd_model::cover::CanonicalCover;
use cfd_model::progress::{shard_runs, Cancelled, Control, SearchStats};
use cfd_model::relation::Relation;
use cfd_model::schema::AttrId;
use cfd_partition::agree::agree_sets;

/// Depth-first minimal-FD discovery.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastFd {
    pub(crate) no_reorder: bool,
    pub(crate) threads: usize,
}

impl FastFd {
    /// Creates the algorithm (dynamic reordering on).
    pub fn new() -> FastFd {
        FastFd {
            no_reorder: false,
            threads: 1,
        }
    }

    /// Disables dynamic attribute reordering (ablation knob).
    pub fn dynamic_reorder(mut self, on: bool) -> FastFd {
        self.no_reorder = !on;
        self
    }

    /// Shards the per-RHS cover search across `threads` workers (`1`,
    /// the default, keeps the serial loop). The agree sets are shared
    /// read-only and results merge in RHS order, so the output is
    /// byte-identical for every thread count.
    pub fn threads(mut self, threads: usize) -> FastFd {
        self.threads = threads.max(1);
        self
    }

    /// Discovers all minimal FDs `X → A` with `X ≠ ∅`, as all-wildcard
    /// variable CFDs.
    pub fn discover(&self, rel: &Relation) -> CanonicalCover {
        self.run(rel, &Control::default(), &mut SearchStats::default())
            .expect("default Control is never cancelled")
    }

    /// [`FastFd::discover`] with run control and instrumentation: polls
    /// `ctrl` per RHS attribute, times the `agree-sets` phase, and
    /// counts difference-set families, candidate covers (`candidates`)
    /// and covers failing minimality (`pruned`).
    pub fn run(
        &self,
        rel: &Relation,
        ctrl: &Control<'_>,
        stats: &mut SearchStats,
    ) -> Result<CanonicalCover, Cancelled> {
        let arity = rel.arity();
        if rel.n_rows() == 0 {
            return Ok(CanonicalCover::from_cfds(Vec::new()));
        }
        let t0 = std::time::Instant::now();
        let agree = agree_sets(rel);
        stats.phase("agree-sets", t0.elapsed());
        let rhs_attrs: Vec<AttrId> = (0..arity).collect();
        let out = shard_runs(
            &rhs_attrs,
            self.threads,
            ctrl,
            stats,
            || (),
            |&rhs, _, stats, out| {
                self.cover_rhs(rel, &agree, rhs, stats, out);
                ctrl.report("rhs", rhs + 1, arity);
            },
        )?;
        Ok(CanonicalCover::from_cfds(out))
    }

    /// The minimal FDs with RHS `rhs`: the minimal covers of the
    /// minimal difference sets of the pairs disagreeing on it.
    fn cover_rhs(
        &self,
        rel: &Relation,
        agree: &[AttrSet],
        rhs: AttrId,
        stats: &mut SearchStats,
        out: &mut Vec<Cfd>,
    ) {
        let full = AttrSet::full(rel.arity());
        // Dᵐ_A(r): minimal difference sets of pairs disagreeing on A
        let mut dm: Vec<AttrSet> = agree
            .iter()
            .filter(|ag| !ag.contains(rhs))
            .map(|ag| full.difference(*ag).without(rhs))
            .collect();
        if dm.is_empty() {
            // either A is constant (∅ → A: excluded by convention) or
            // every pair disagreeing on A agrees nowhere
            let col = rel.column(rhs);
            let c0 = col.code(0);
            let constant = rel.tuples().all(|t| col.code(t) == c0);
            if constant {
                return;
            }
            dm.push(full.without(rhs));
        } else {
            minimize(&mut dm);
        }
        if dm.iter().any(|d| d.is_empty()) {
            // two tuples differ on A alone: no FD with RHS A
            return;
        }
        stats.diff_set_families += 1;
        let candidates: Vec<AttrId> = full.without(rhs).iter().collect();
        let mut emit = |y: AttrSet| {
            stats.candidates += 1;
            // minimal cover check
            if y.iter().any(|b| covers(y.without(b), &dm)) {
                stats.pruned += 1;
                return;
            }
            stats.emitted += 1;
            out.push(Cfd::fd(y, rhs));
        };
        self.find_min(&dm, &candidates, AttrSet::EMPTY, &mut emit);
    }

    fn find_min(
        &self,
        remaining: &[AttrSet],
        candidates: &[AttrId],
        y: AttrSet,
        emit: &mut impl FnMut(AttrSet),
    ) {
        if remaining.is_empty() {
            emit(y);
            return;
        }
        let mut scored: Vec<(usize, AttrId)> = candidates
            .iter()
            .filter_map(|&b| {
                let c = remaining.iter().filter(|d| d.contains(b)).count();
                (c > 0).then_some((c, b))
            })
            .collect();
        if !self.no_reorder {
            scored.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        }
        let order: Vec<AttrId> = scored.into_iter().map(|(_, b)| b).collect();
        for (i, &b) in order.iter().enumerate() {
            let rem2: Vec<AttrSet> = remaining
                .iter()
                .copied()
                .filter(|d| !d.contains(b))
                .collect();
            self.find_min(&rem2, &order[i + 1..], y.with(b), emit);
        }
    }
}

fn minimize(sets: &mut Vec<AttrSet>) {
    sets.sort_unstable_by_key(|s| (s.len(), s.bits()));
    sets.dedup();
    let mut kept: Vec<AttrSet> = Vec::with_capacity(sets.len());
    for &s in sets.iter() {
        if !kept.iter().any(|&m| m.is_subset(s)) {
            kept.push(s);
        }
    }
    *sets = kept;
}

fn covers(y: AttrSet, dm: &[AttrSet]) -> bool {
    dm.iter().all(|&d| d.intersects(y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tane::Tane;
    use cfd_datagen::cust::cust_relation;
    use cfd_datagen::random::RandomRelation;
    use cfd_model::cfd::parse_cfd;

    #[test]
    fn agrees_with_tane_on_cust() {
        let r = cust_relation();
        let tane = Tane::new().discover(&r);
        let fast = FastFd::new().discover(&r);
        assert_eq!(
            tane.cfds(),
            fast.cfds(),
            "tane:\n{}\nfastfd:\n{}",
            tane.display(&r),
            fast.display(&r)
        );
        let f2 = parse_cfd(&r, "([CC, AC, PN] -> STR, (_, _, _ || _))").unwrap();
        assert!(fast.contains(&f2));
    }

    #[test]
    fn agrees_with_tane_on_random_relations() {
        for seed in 0..20 {
            let r = RandomRelation {
                rows: 25,
                arity: 5,
                domain: 3,
                seed,
            }
            .generate();
            let tane = Tane::new().discover(&r);
            let fast = FastFd::new().discover(&r);
            let noreorder = FastFd::new().dynamic_reorder(false).discover(&r);
            assert_eq!(
                tane.cfds(),
                fast.cfds(),
                "seed {seed}\ntane:\n{}\nfastfd:\n{}",
                tane.display(&r),
                fast.display(&r)
            );
            assert_eq!(fast.cfds(), noreorder.cfds(), "seed {seed} (reorder)");
        }
    }

    #[test]
    fn threads_do_not_change_the_cover() {
        for seed in 0..10 {
            let r = RandomRelation {
                rows: 30,
                arity: 6,
                domain: 3,
                seed,
            }
            .generate();
            let serial = FastFd::new().discover(&r);
            for t in [2, 4] {
                let mut stats = SearchStats::default();
                let sharded = FastFd::new()
                    .threads(t)
                    .run(&r, &Control::default(), &mut stats)
                    .unwrap();
                assert_eq!(serial.cfds(), sharded.cfds(), "seed {seed}, {t} threads");
                assert!(stats.candidates > 0, "worker stats are merged");
            }
        }
    }

    #[test]
    fn uniform_uniqueness_edge_case() {
        // all tuples pairwise fully disagree: every single attribute is a
        // key, so A → B for all pairs
        use cfd_model::relation::relation_from_rows;
        use cfd_model::schema::Schema;
        let schema = Schema::new(["A", "B"]).unwrap();
        let r = relation_from_rows(schema, &[vec!["1", "x"], vec!["2", "y"]]).unwrap();
        let cover = FastFd::new().discover(&r);
        assert!(cover.contains(&Cfd::fd(AttrSet::singleton(0), 1)));
        assert!(cover.contains(&Cfd::fd(AttrSet::singleton(1), 0)));
        assert_eq!(cover.len(), 2);
        let tane = Tane::new().discover(&r);
        assert_eq!(tane.cfds(), cover.cfds());
    }
}
