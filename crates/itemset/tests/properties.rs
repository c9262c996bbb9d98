//! Property-based tests for the free/closed item-set miner against the
//! Section 3.1 definitions, on arbitrary small relations.

use cfd_itemset::mine::{mine_free_closed, MineOptions};
use cfd_itemset::ClosedSetIndex;
use cfd_model::oracle::pattern_support;
use cfd_model::pattern::{PVal, Pattern};
use cfd_model::relation::{Relation, RelationBuilder};
use cfd_model::schema::Schema;
use proptest::prelude::*;

fn arb_relation() -> impl Strategy<Value = Relation> {
    (2usize..=4, 1usize..=14)
        .prop_flat_map(|(arity, rows)| {
            proptest::collection::vec(proptest::collection::vec(0u32..3, arity), rows)
        })
        .prop_map(|rows| {
            let arity = rows[0].len();
            let schema = Schema::new((0..arity).map(|i| format!("A{i}"))).unwrap();
            let mut b = RelationBuilder::new(schema);
            for row in &rows {
                b.push_coded_row(row).unwrap();
            }
            b.finish()
        })
}

/// All distinct constant patterns realized by some tuple, per attr subset.
fn realized_patterns(rel: &Relation) -> Vec<Pattern> {
    let mut out = std::collections::HashSet::new();
    for attrs in cfd_model::attrset::AttrSet::full(rel.arity()).subsets() {
        for t in rel.tuples() {
            out.insert(Pattern::from_pairs(
                attrs.iter().map(|a| (a, PVal::Const(rel.code(t, a)))),
            ));
        }
    }
    out.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mined_sets_satisfy_the_definitions(rel in arb_relation(), k in 1usize..=3) {
        let mined = mine_free_closed(&rel, k, MineOptions::default());
        let all = realized_patterns(&rel);
        for f in &mined.free {
            let supp = pattern_support(&rel, &f.pattern);
            prop_assert_eq!(supp, f.support as usize);
            prop_assert!(supp >= k);
            // freeness: no strictly more general pattern has equal support
            for q in all.iter().filter(|q| *q != &f.pattern && f.pattern.contains_pattern(q)) {
                prop_assert!(pattern_support(&rel, q) > supp,
                    "{:?} not free: {:?} has equal support", f.pattern, q);
            }
            // tidsets really are the matching rows
            let want: Vec<u32> = f.pattern.matching_rows(&rel);
            prop_assert_eq!(f.tids(), &want[..]);
        }
        for c in &mined.closed {
            let supp = pattern_support(&rel, &c.pattern);
            prop_assert_eq!(supp, c.support as usize);
            // closedness: no strictly larger realized pattern with equal support
            for q in all.iter().filter(|q| *q != &c.pattern && q.contains_pattern(&c.pattern)) {
                prop_assert!(pattern_support(&rel, q) < supp,
                    "{:?} not closed: {:?} has equal support", c.pattern, q);
            }
        }
    }

    #[test]
    fn completeness_every_frequent_free_pattern_is_mined(
        rel in arb_relation(), k in 1usize..=2
    ) {
        let mined = mine_free_closed(&rel, k, MineOptions::default());
        let all = realized_patterns(&rel);
        for p in &all {
            let supp = pattern_support(&rel, p);
            if supp < k { continue; }
            let free = all
                .iter()
                .filter(|q| *q != p && p.contains_pattern(q))
                .all(|q| pattern_support(&rel, q) > supp);
            if free {
                prop_assert!(mined.is_free(p), "missing free set {p:?}");
            } else {
                prop_assert!(!mined.is_free(p), "non-free {p:?} mined as free");
            }
        }
    }

    #[test]
    fn c2f_links_generators_to_their_closure(rel in arb_relation(), k in 1usize..=3) {
        let mined = mine_free_closed(&rel, k, MineOptions::default());
        for (ci, gens) in mined.c2f.iter().enumerate() {
            for &fi in gens {
                let f = &mined.free[fi as usize];
                prop_assert_eq!(f.closure as usize, ci);
                let clo = &mined.closed[ci].pattern;
                prop_assert!(clo.contains_pattern(&f.pattern));
                prop_assert_eq!(mined.closed[ci].support, f.support);
            }
        }
    }

    #[test]
    fn index_containment_matches_linear_scan(rel in arb_relation()) {
        let mined = mine_free_closed(&rel, 2, MineOptions::default());
        let idx = ClosedSetIndex::build(&mined);
        for f in mined.free.iter().take(20) {
            let got: std::collections::BTreeSet<u32> =
                idx.containing(&f.pattern).into_iter().collect();
            let want: std::collections::BTreeSet<u32> = mined
                .closed
                .iter()
                .enumerate()
                .filter(|(_, c)| c.pattern.contains_pattern(&f.pattern))
                .map(|(i, _)| i as u32)
                .collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn free_only_off_is_a_superset(rel in arb_relation(), k in 1usize..=2) {
        let free = mine_free_closed(&rel, k, MineOptions::default());
        let all = mine_free_closed(
            &rel,
            k,
            MineOptions { free_only: false, ..MineOptions::default() },
        );
        prop_assert!(all.free.len() >= free.free.len());
        for f in &free.free {
            prop_assert!(
                all.free.iter().any(|g| g.pattern == f.pattern),
                "free set {:?} missing from the all-frequent mining", f.pattern
            );
        }
    }
}

#[cfg(test)]
mod threaded_mining {
    use cfd_datagen::random::RandomRelation;
    use cfd_itemset::mine::{mine_free_closed, MineOptions};

    /// The mined result is identical at every thread count (chunked
    /// closures + sharded deep-level joins merge in input order).
    #[test]
    fn thread_count_does_not_change_the_mined_sets() {
        for seed in 0..6 {
            let rel = RandomRelation::small(seed).generate();
            for k in [1, 2] {
                let serial = mine_free_closed(&rel, k, MineOptions::default());
                for threads in [2, 4] {
                    let sharded = mine_free_closed(
                        &rel,
                        k,
                        MineOptions {
                            threads,
                            ..MineOptions::default()
                        },
                    );
                    assert_eq!(serial.free.len(), sharded.free.len());
                    for (a, b) in serial.free.iter().zip(&sharded.free) {
                        assert_eq!(a.pattern, b.pattern, "seed {seed} k {k} t {threads}");
                        assert_eq!(a.support, b.support);
                        assert_eq!(a.tids(), b.tids());
                        assert_eq!(a.closure, b.closure);
                    }
                    assert_eq!(serial.closed.len(), sharded.closed.len());
                    for (a, b) in serial.closed.iter().zip(&sharded.closed) {
                        assert_eq!(a.pattern, b.pattern);
                        assert_eq!(a.support, b.support);
                    }
                    assert_eq!(serial.c2f, sharded.c2f);
                }
            }
        }
    }
}
