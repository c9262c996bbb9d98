//! The level-wise free/closed item-set miner.

use cfd_model::attrset::AttrSet;
use cfd_model::fxhash::FxHashMap;
use cfd_model::pattern::{PVal, Pattern};
use cfd_model::relation::{Relation, TupleId};

/// A k-frequent *free* item set `(X, tp)` (no strictly smaller pattern has
/// the same support).
#[derive(Clone, Debug)]
pub struct FreeSet {
    /// The all-constant pattern `(X, tp)`.
    pub pattern: Pattern,
    /// `|supp(X, tp, r)|`.
    pub support: u32,
    /// Index of the closure `clo(X, tp)` in [`Mined::closed`].
    pub closure: u32,
    /// The supporting tuple ids (ascending); populated when
    /// [`MineOptions::keep_tids`] is set.
    tids: Option<Vec<TupleId>>,
}

impl FreeSet {
    /// The supporting tuples (requires mining with `keep_tids`).
    pub fn tids(&self) -> &[TupleId] {
        self.tids
            .as_deref()
            .expect("free-set tidsets were not retained; mine with keep_tids")
    }
}

/// A k-frequent *closed* item set (no strictly larger pattern has the
/// same support).
#[derive(Clone, Debug)]
pub struct ClosedSet {
    /// The all-constant pattern of the closed set.
    pub pattern: Pattern,
    /// `|supp|` of the closed set (equals the support of its free
    /// generators).
    pub support: u32,
}

/// Mining options.
#[derive(Clone, Copy, Debug)]
pub struct MineOptions {
    /// Retain each free set's tidset (needed by FastCFD's difference-set
    /// computation; CFDMiner alone does not need them).
    pub keep_tids: bool,
    /// Optional cap on the size of mined free sets (`None` = unbounded).
    pub max_len: Option<usize>,
    /// When `true` (default), mine only *free* sets — the Lemma 5 pruning.
    /// When `false`, every k-frequent pattern is kept (closures included);
    /// this exists solely for the ablation that quantifies the paper's
    /// "5–10×" free-set-pruning claim.
    pub free_only: bool,
    /// Worker threads for the per-level closure computation and the
    /// deep-level prefix joins (`1` = serial). The mined result is
    /// byte-identical for every thread count: workers own disjoint
    /// chunks/runs and results merge in input order.
    pub threads: usize,
}

impl Default for MineOptions {
    fn default() -> Self {
        MineOptions {
            keep_tids: true,
            max_len: None,
            free_only: true,
            threads: 1,
        }
    }
}

/// The result of mining: k-frequent free sets, their closures, and the
/// closed→free (`C2F`) mapping of GCGrowth.
#[derive(Clone, Debug, Default)]
pub struct Mined {
    /// Free sets, ascending by pattern size then pattern (the ordered
    /// list `L` of CFDMiner step 2).
    pub free: Vec<FreeSet>,
    /// Closed sets (deduplicated).
    pub closed: Vec<ClosedSet>,
    /// `c2f[c]` = indices into `free` of the free sets whose closure is
    /// closed set `c`.
    pub c2f: Vec<Vec<u32>>,
    free_by_pattern: FxHashMap<Pattern, u32>,
}

impl Mined {
    /// Looks up a free set by its pattern.
    pub fn free_index(&self, p: &Pattern) -> Option<usize> {
        self.free_by_pattern.get(p).map(|&i| i as usize)
    }

    /// The closure pattern of free set `i`.
    pub fn closure_of(&self, free_idx: usize) -> &ClosedSet {
        &self.closed[self.free[free_idx].closure as usize]
    }

    /// True iff `p` is one of the mined (k-frequent) free patterns.
    pub fn is_free(&self, p: &Pattern) -> bool {
        self.free_by_pattern.contains_key(p)
    }
}

/// Internal working representation of a level: sorted item lists plus
/// tidsets.
struct Node {
    items: Vec<(usize, u32)>, // (attr, code), ascending by attr
    tids: Vec<TupleId>,
}

fn pattern_of(items: &[(usize, u32)]) -> Pattern {
    Pattern::from_pairs(items.iter().map(|&(a, c)| (a, PVal::Const(c))))
}

/// Maps `f` over `items` on up to `threads` scoped workers, results
/// concatenated in input order — a thin wrapper over the shared
/// [`shard_runs`](cfd_model::progress::shard_runs) harness (one item
/// per run; mining has no cancellation handle, so the default
/// never-cancelled control is used).
fn par_map<T: Sync, R: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    use cfd_model::progress::{shard_runs, Control, SearchStats};
    shard_runs(
        items,
        threads,
        &Control::default(),
        &mut SearchStats::default(),
        || (),
        |item, _scratch, _stats, out| out.push(f(item)),
    )
    .expect("default Control is never cancelled")
}

fn intersect(a: &[TupleId], b: &[TupleId]) -> Vec<TupleId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Computes `clo(X, tp)` for a tidset: every `(B, b)` item shared by all
/// supporting tuples. Early-exits per attribute on the first mismatch.
fn closure_of_tids(rel: &Relation, tids: &[TupleId]) -> Pattern {
    debug_assert!(!tids.is_empty());
    let mut attrs = AttrSet::EMPTY;
    let mut vals = Vec::new();
    for a in 0..rel.arity() {
        let col = rel.column(a);
        let c0 = col.code(tids[0]);
        if tids[1..].iter().all(|&t| col.code(t) == c0) {
            attrs.insert(a);
            vals.push(PVal::Const(c0));
        }
    }
    Pattern::new(attrs, vals)
}

/// Mines the k-frequent free item sets of `rel`, their closures, and the
/// C2F mapping. `k ≥ 1` is required; the empty pattern is included as a
/// free set whenever `|r| ≥ k` (its closure collects the constant
/// columns of `rel`).
pub fn mine_free_closed(rel: &Relation, k: usize, opts: MineOptions) -> Mined {
    assert!(k >= 1, "support threshold k must be at least 1");
    let n = rel.n_rows();
    let mut out = Mined::default();
    if n < k || n == 0 {
        return out;
    }

    let mut closed_by_pattern: FxHashMap<Pattern, u32> = FxHashMap::default();
    let register = |out: &mut Mined,
                    closed_by_pattern: &mut FxHashMap<Pattern, u32>,
                    items: &[(usize, u32)],
                    tids: Vec<TupleId>,
                    closure: Pattern| {
        let support = tids.len() as u32;
        let cidx = *closed_by_pattern.entry(closure.clone()).or_insert_with(|| {
            out.closed.push(ClosedSet {
                pattern: closure,
                support,
            });
            (out.closed.len() - 1) as u32
        });
        let pattern = pattern_of(items);
        let fidx = out.free.len() as u32;
        out.c2f.resize(out.closed.len(), Vec::new());
        out.c2f[cidx as usize].push(fidx);
        out.free_by_pattern.insert(pattern.clone(), fidx);
        out.free.push(FreeSet {
            pattern,
            support,
            closure: cidx,
            tids: if opts.keep_tids { Some(tids) } else { None },
        });
    };

    // level 0: the empty pattern
    let all: Vec<TupleId> = (0..n as TupleId).collect();
    let clo_empty = closure_of_tids(rel, &all);
    register(&mut out, &mut closed_by_pattern, &[], all, clo_empty);
    if opts.max_len == Some(0) {
        return out;
    }

    // level 1: single items with freq ≥ k; free iff freq < n (an item held
    // by every tuple belongs to clo(∅))
    let mut level: Vec<Node> = Vec::new();
    for a in 0..rel.arity() {
        let col = rel.column(a);
        let dom = col.domain_size();
        let mut tid_lists: Vec<Vec<TupleId>> = vec![Vec::new(); dom];
        for (t, &c) in col.codes().iter().enumerate() {
            tid_lists[c as usize].push(t as TupleId);
        }
        for (c, tids) in tid_lists.into_iter().enumerate() {
            // an item held by every tuple is not free (it lies in clo(∅))
            if tids.len() >= k && (tids.len() < n || !opts.free_only) {
                level.push(Node {
                    items: vec![(a, c as u32)],
                    tids,
                });
            }
        }
    }
    // deterministic order: by (attr, code)
    level.sort_unstable_by(|x, y| x.items.cmp(&y.items));

    let mut level_no = 1usize;
    loop {
        // register this level's nodes; remember supports for the freeness
        // checks of the next level's joins. Closures are independent per
        // node — the one parallel-friendly chunk of the register pass —
        // and merge back in node order, keeping the result deterministic.
        let closures: Vec<Pattern> = par_map(&level, opts.threads, |node| {
            closure_of_tids(rel, &node.tids)
        });
        let mut supp_by_pattern: FxHashMap<Pattern, u32> = FxHashMap::default();
        for (node, clo) in level.iter().zip(closures) {
            supp_by_pattern.insert(pattern_of(&node.items), node.tids.len() as u32);
            register(
                &mut out,
                &mut closed_by_pattern,
                &node.items,
                node.tids.clone(),
                clo,
            );
        }
        if level.len() < 2 || opts.max_len == Some(level_no) {
            break;
        }

        let mut next: Vec<Node> = Vec::new();
        if level_no == 1 {
            // Level 2 by row scan: joining all frequent-item pairs is
            // quadratic in the item count, but each row only realizes
            // C(arity, 2) pairs, so scanning rows is linear in the data.
            let mut freq: Vec<FxHashMap<u32, u32>> = vec![FxHashMap::default(); rel.arity()];
            for node in &level {
                let (a, c) = node.items[0];
                freq[a].insert(c, node.tids.len() as u32);
            }
            let mut pair_tids: FxHashMap<(u64, u64), Vec<TupleId>> = FxHashMap::default();
            let mut row_items: Vec<(usize, u32)> = Vec::with_capacity(rel.arity());
            for t in 0..n as TupleId {
                row_items.clear();
                for (a, fa) in freq.iter().enumerate() {
                    let c = rel.code(t, a);
                    if fa.contains_key(&c) {
                        row_items.push((a, c));
                    }
                }
                for i in 0..row_items.len() {
                    for j in i + 1..row_items.len() {
                        let k1 = ((row_items[i].0 as u64) << 32) | row_items[i].1 as u64;
                        let k2 = ((row_items[j].0 as u64) << 32) | row_items[j].1 as u64;
                        pair_tids.entry((k1, k2)).or_default().push(t);
                    }
                }
            }
            for ((k1, k2), tids) in pair_tids {
                if tids.len() < k {
                    continue;
                }
                let i1 = ((k1 >> 32) as usize, k1 as u32);
                let i2 = ((k2 >> 32) as usize, k2 as u32);
                let s1 = freq[i1.0][&i1.1] as usize;
                let s2 = freq[i2.0][&i2.1] as usize;
                if tids.len() < s1.min(s2) || !opts.free_only {
                    next.push(Node {
                        items: vec![i1, i2],
                        tids,
                    });
                }
            }
        } else {
            // deeper levels: classic prefix join over the (much smaller)
            // current level, sharded across the configured workers —
            // prefix runs are independent, and the per-run results are
            // merged in run order (then sorted below), so the outcome is
            // identical at every thread count
            let mut runs: Vec<(usize, usize)> = Vec::new();
            let mut run_start = 0;
            while run_start < level.len() {
                let prefix = &level[run_start].items[..level_no - 1];
                let mut run_end = run_start + 1;
                while run_end < level.len() && &level[run_end].items[..level_no - 1] == prefix {
                    run_end += 1;
                }
                runs.push((run_start, run_end));
                run_start = run_end;
            }
            let join_run = |&(run_start, run_end): &(usize, usize)| {
                let mut produced: Vec<Node> = Vec::new();
                for i in run_start..run_end {
                    for j in i + 1..run_end {
                        let (s1, s2) = (&level[i], &level[j]);
                        let (a1, _) = *s1.items.last().unwrap();
                        let (a2, _) = *s2.items.last().unwrap();
                        if a1 == a2 {
                            // two constants on one attribute never co-occur
                            continue;
                        }
                        let tids = intersect(&s1.tids, &s2.tids);
                        if tids.len() < k {
                            continue;
                        }
                        let mut items = s1.items.clone();
                        items.push(*s2.items.last().unwrap());
                        // the two joined parents cover dropping the last two
                        // items; the remaining immediate sub-patterns must be
                        // sets of this level with (for free mining) strictly
                        // larger support
                        let mut is_free = tids.len() < s1.tids.len().min(s2.tids.len());
                        let mut all_subs_present = true;
                        if is_free || !opts.free_only {
                            for drop in 0..items.len() - 2 {
                                let mut sub = items.clone();
                                sub.remove(drop);
                                match supp_by_pattern.get(&pattern_of(&sub)) {
                                    None => {
                                        all_subs_present = false;
                                        break;
                                    }
                                    Some(&s) => {
                                        if s as usize == tids.len() {
                                            is_free = false;
                                            if opts.free_only {
                                                break;
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        if (is_free || !opts.free_only) && all_subs_present {
                            produced.push(Node { items, tids });
                        }
                    }
                }
                produced
            };
            next = par_map(&runs, opts.threads, join_run)
                .into_iter()
                .flatten()
                .collect();
        }
        if next.is_empty() {
            break;
        }
        next.sort_unstable_by(|x, y| x.items.cmp(&y.items));
        level = next;
        level_no += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::oracle::pattern_support;
    use cfd_model::relation::relation_from_rows;
    use cfd_model::schema::Schema;

    fn cust() -> Relation {
        let schema = Schema::new(["CC", "AC", "PN", "NM", "STR", "CT", "ZIP"]).unwrap();
        relation_from_rows(
            schema,
            &[
                vec!["01", "908", "1111111", "Mike", "Tree Ave.", "MH", "07974"],
                vec!["01", "908", "1111111", "Rick", "Tree Ave.", "MH", "07974"],
                vec!["01", "212", "2222222", "Joe", "5th Ave", "NYC", "01202"],
                vec!["01", "908", "2222222", "Jim", "Elm Str.", "MH", "07974"],
                vec!["44", "131", "3333333", "Ben", "High St.", "EDI", "EH4 1DT"],
                vec!["44", "131", "2222222", "Ian", "High St.", "EDI", "EH4 1DT"],
                vec!["44", "908", "2222222", "Ian", "Port PI", "MH", "W1B 1JH"],
                vec!["01", "131", "2222222", "Sean", "3rd Str.", "UN", "01202"],
            ],
        )
        .unwrap()
    }

    fn pat(rel: &Relation, items: &[(&str, &str)]) -> Pattern {
        Pattern::from_pairs(items.iter().map(|&(a, v)| {
            let aid = rel.schema().attr_id(a).unwrap();
            let code = rel.column(aid).dict().code(v).unwrap();
            (aid, PVal::Const(code))
        }))
    }

    /// Brute-force oracle: enumerate every constant pattern with support
    /// ≥ k and classify free/closed by definition.
    #[allow(clippy::type_complexity)]
    fn brute_force(rel: &Relation, k: usize) -> (Vec<(Pattern, usize)>, Vec<(Pattern, usize)>) {
        let arity = rel.arity();
        let mut all: Vec<(Pattern, usize)> = Vec::new();
        // enumerate patterns over every attr subset via distinct projections
        for attrs in cfd_model::attrset::AttrSet::full(arity).subsets() {
            let mut seen = std::collections::HashSet::new();
            for t in rel.tuples() {
                let p = Pattern::from_pairs(attrs.iter().map(|a| (a, PVal::Const(rel.code(t, a)))));
                if seen.insert(p.clone()) {
                    let s = pattern_support(rel, &p);
                    if s >= k {
                        all.push((p, s));
                    }
                }
            }
        }
        let mut free = Vec::new();
        let mut closed = Vec::new();
        for (p, s) in &all {
            // free: no strictly more general pattern with equal support
            let is_free = all
                .iter()
                .filter(|(q, _)| q != p && p.contains_pattern(q))
                .all(|(_, sq)| sq != s);
            // closed: no strictly larger pattern with equal support
            let is_closed = all
                .iter()
                .filter(|(q, _)| q != p && q.contains_pattern(p))
                .all(|(_, sq)| sq != s);
            if is_free {
                free.push((p.clone(), *s));
            }
            if is_closed {
                closed.push((p.clone(), *s));
            }
        }
        free.sort_unstable();
        closed.sort_unstable();
        (free, closed)
    }

    fn check_against_brute_force(rel: &Relation, k: usize) {
        let mined = mine_free_closed(rel, k, MineOptions::default());
        let (bf_free, bf_closed) = brute_force(rel, k);
        let mut got_free: Vec<(Pattern, usize)> = mined
            .free
            .iter()
            .map(|f| (f.pattern.clone(), f.support as usize))
            .collect();
        got_free.sort_unstable();
        assert_eq!(got_free, bf_free, "free sets disagree at k={k}");
        let mut got_closed: Vec<(Pattern, usize)> = mined
            .closed
            .iter()
            .map(|c| (c.pattern.clone(), c.support as usize))
            .collect();
        got_closed.sort_unstable();
        assert_eq!(got_closed, bf_closed, "closed sets disagree at k={k}");
        // every free set's closure has the same support and contains it
        for f in &mined.free {
            let clo = &mined.closed[f.closure as usize];
            assert_eq!(clo.support, f.support);
            assert!(clo.pattern.contains_pattern(&f.pattern));
        }
        // C2F partitions the free sets
        let total: usize = mined.c2f.iter().map(|v| v.len()).sum();
        assert_eq!(total, mined.free.len());
    }

    #[test]
    fn cust_matches_brute_force_at_k2() {
        check_against_brute_force(&cust(), 2);
    }

    #[test]
    fn cust_matches_brute_force_at_k3() {
        check_against_brute_force(&cust(), 3);
    }

    #[test]
    fn cust_matches_brute_force_at_k1() {
        check_against_brute_force(&cust(), 1);
    }

    #[test]
    fn fig2_example6_closed_and_free_sets() {
        // Fig. 2 of the paper: the closed set ([CC,AC,CT,ZIP],(01,908,MH,07974))
        // has support 3 and free generators ([CC,AC],(01,908)) and
        // ([ZIP],(07974)); the closed set ([AC,CT],(908,MH)) has support 4
        // with free generators ([AC],(908)) and ([CT],(MH)).
        let r = cust();
        let mined = mine_free_closed(&r, 3, MineOptions::default());

        let big = pat(
            &r,
            &[("CC", "01"), ("AC", "908"), ("CT", "MH"), ("ZIP", "07974")],
        );
        let cidx = mined
            .closed
            .iter()
            .position(|c| c.pattern == big)
            .expect("closed set of Fig. 2 must be mined");
        assert_eq!(mined.closed[cidx].support, 3);
        let gens: Vec<&Pattern> = mined.c2f[cidx]
            .iter()
            .map(|&f| &mined.free[f as usize].pattern)
            .collect();
        let g1 = pat(&r, &[("CC", "01"), ("AC", "908")]);
        let g2 = pat(&r, &[("ZIP", "07974")]);
        assert!(gens.contains(&&g1), "free generators: {gens:?}");
        assert!(gens.contains(&&g2));
        // Fig. 2 draws only these two generators because it illustrates the
        // discovery of CFDs with RHS (CT, MH); by the Section 3.1 definition
        // the set has a third free generator, ([CC,CT],(01,MH)) — support 3,
        // while its generalizations (CC,01) and (CT,MH) have supports 5 and
        // 4 — which a generator containing CT can never turn into that RHS.
        let g3 = pat(&r, &[("CC", "01"), ("CT", "MH")]);
        assert!(gens.contains(&&g3));
        assert_eq!(gens.len(), 3);

        let acct = pat(&r, &[("AC", "908"), ("CT", "MH")]);
        let cidx2 = mined
            .closed
            .iter()
            .position(|c| c.pattern == acct)
            .expect("([AC,CT],(908,MH)) must be closed");
        assert_eq!(mined.closed[cidx2].support, 4);
        let gens2: Vec<&Pattern> = mined.c2f[cidx2]
            .iter()
            .map(|&f| &mined.free[f as usize].pattern)
            .collect();
        assert!(gens2.contains(&&pat(&r, &[("AC", "908")])));
        assert!(gens2.contains(&&pat(&r, &[("CT", "MH")])));
    }

    #[test]
    fn empty_pattern_always_free() {
        let r = cust();
        let mined = mine_free_closed(&r, 8, MineOptions::default());
        assert_eq!(mined.free[0].pattern, Pattern::empty());
        assert_eq!(mined.free[0].support, 8);
        // at k=8 nothing else is frequent on cust except ∅
        assert_eq!(mined.free.len(), 1);
        // k > |r| ⇒ nothing at all
        let none = mine_free_closed(&r, 9, MineOptions::default());
        assert!(none.free.is_empty());
    }

    #[test]
    fn constant_column_lands_in_empty_closure() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let r =
            relation_from_rows(schema, &[vec!["x", "k"], vec!["y", "k"], vec!["x", "k"]]).unwrap();
        let mined = mine_free_closed(&r, 1, MineOptions::default());
        // clo(∅) contains (B,k); (B,k) itself is not free
        let clo0 = &mined.closed[mined.free[0].closure as usize];
        let bk = pat(&r, &[("B", "k")]);
        assert!(clo0.pattern.contains_pattern(&bk));
        assert!(!mined.is_free(&bk));
        // (A,x) is free with support 2
        let ax = pat(&r, &[("A", "x")]);
        let i = mined.free_index(&ax).unwrap();
        assert_eq!(mined.free[i].support, 2);
        assert_eq!(mined.free[i].tids(), &[0, 2]);
    }

    #[test]
    fn tids_track_supporting_rows() {
        let r = cust();
        let mined = mine_free_closed(&r, 2, MineOptions::default());
        let p = pat(&r, &[("CC", "01"), ("AC", "908")]);
        let i = mined.free_index(&p).unwrap();
        assert_eq!(mined.free[i].tids(), &[0, 1, 3]);
        // keep_tids = false drops them
        let lean = mine_free_closed(
            &r,
            2,
            MineOptions {
                keep_tids: false,
                ..MineOptions::default()
            },
        );
        assert!(lean.free[0].tids.is_none());
    }

    #[test]
    fn max_len_caps_depth() {
        let r = cust();
        let capped = mine_free_closed(
            &r,
            1,
            MineOptions {
                max_len: Some(1),
                ..MineOptions::default()
            },
        );
        assert!(capped.free.iter().all(|f| f.pattern.len() <= 1));
        let full = mine_free_closed(&r, 1, MineOptions::default());
        assert!(full.free.iter().any(|f| f.pattern.len() >= 2));
    }

    #[test]
    fn free_sets_ordered_by_size() {
        let r = cust();
        let mined = mine_free_closed(&r, 2, MineOptions::default());
        let sizes: Vec<usize> = mined.free.iter().map(|f| f.pattern.len()).collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
    }
}
