//! The per-rule reference semantics: an independent referee, not
//! production API.
//!
//! Every function here answers one question about **one** rule by
//! scanning the whole relation with heap-allocated group keys. The
//! production paths compute the same answers without these scans:
//! cover-level satisfaction, violations, measures and repairs go
//! through the shared validation kernel (`cfd-validate`), and the
//! miners answer their dependency tests from the partition engine
//! (`cfd-partition`). This module shares no code with either, which is
//! what makes it a referee: the test suites, the exhaustive
//! `BruteForce` miner and its minimality oracle check the production
//! answers against it.
//!
//! The semantics are those of Section 2 of the paper. `r ⊨ (X → A, tp)`
//! iff for every pair of tuples `t1, t2`: if `t1[X] = t2[X] ⪯ tp[X]` then
//! `t1[A] = t2[A] ⪯ tp[A]`. Taking `t1 = t2` shows that a *single*
//! tuple can violate a CFD whose RHS pattern is a constant (Example 3),
//! so a constant RHS is checked per tuple, a variable RHS per group of
//! tuples agreeing on the LHS wildcard attributes.

use crate::cfd::Cfd;
use crate::fxhash::FxHashMap;
use crate::measure::RuleMeasure;
use crate::pattern::{PVal, Pattern};
use crate::relation::{Relation, TupleId};
use crate::violation::{Repair, Violation};

/// The one grouping scan behind every rule-level answer that needs
/// groups (support is a plain count): visits the tuples
/// matching `cfd`'s LHS pattern in tuple order, each with the id of
/// its group, until `visit` returns `false`. Under a variable RHS the
/// tuples agreeing on the LHS wildcard attributes share a group (ids
/// in order of first appearance); a constant RHS binds each tuple on
/// its own, so all of its tuples share group `0`. Returns each group's
/// wildcard-attribute key, indexed by group id.
fn scan(rel: &Relation, cfd: &Cfd, mut visit: impl FnMut(TupleId, usize) -> bool) -> Vec<Vec<u32>> {
    let wild: Vec<usize> = match cfd.rhs_val() {
        PVal::Const(_) => Vec::new(),
        PVal::Var => cfd.lhs().wildcard_attrs().iter().collect(),
    };
    let mut ids: FxHashMap<Vec<u32>, usize> = FxHashMap::default();
    let mut keys: Vec<Vec<u32>> = Vec::new();
    for t in rel.tuples().filter(|&t| cfd.lhs().matches_row(rel, t)) {
        let key: Vec<u32> = wild.iter().map(|&a| rel.code(t, a)).collect();
        let g = *ids.entry(key).or_insert_with_key(|key| {
            keys.push(key.clone());
            keys.len() - 1
        });
        if !visit(t, g) {
            break;
        }
    }
    keys
}

/// `r ⊨ φ`.
pub fn satisfies(rel: &Relation, cfd: &Cfd) -> bool {
    violations_limited(rel, cfd, 1).is_empty()
}

/// Number of tuples matching a bare pattern (`supp(X, tp, r)` of
/// Section 3.1 for item sets; wildcards do not constrain).
pub fn pattern_support(rel: &Relation, pattern: &Pattern) -> usize {
    rel.tuples()
        .filter(|&t| pattern.matches_row(rel, t))
        .count()
}

/// `|sup(φ, r)|` (Section 2.2.2): the number of tuples matching the
/// *whole* pattern tuple, LHS and RHS alike. `φ` is `k`-frequent when
/// this reaches `k`.
pub fn support(rel: &Relation, cfd: &Cfd) -> usize {
    rel.tuples()
        .filter(|&t| {
            cfd.lhs().matches_row(rel, t) && cfd.rhs_val().matches(rel.code(t, cfd.rhs_attr()))
        })
        .count()
}

/// Finds violations of `cfd` in `rel`, up to `limit` (use `usize::MAX`
/// for all), in the order of the offending tuple. A constant RHS
/// reports each dissenting tuple (`Single`); a variable RHS reports
/// `Pair(first tuple of the group, offending tuple)`, each offending
/// tuple once.
pub fn violations_limited(rel: &Relation, cfd: &Cfd, limit: usize) -> Vec<Violation> {
    let mut out = Vec::new();
    if limit == 0 {
        return out;
    }
    let a = cfd.rhs_attr();
    let mut first: Vec<(TupleId, u32)> = Vec::new();
    scan(rel, cfd, |t, g| {
        let code = rel.code(t, a);
        match cfd.rhs_val() {
            PVal::Const(c) if code != c => out.push(Violation::Single(t)),
            PVal::Const(_) => {}
            PVal::Var if g == first.len() => first.push((t, code)),
            PVal::Var if first[g].1 != code => out.push(Violation::Pair(first[g].0, t)),
            PVal::Var => {}
        }
        out.len() < limit
    });
    out
}

/// All violations of `cfd` in `rel`.
pub fn violations(rel: &Relation, cfd: &Cfd) -> Vec<Violation> {
    violations_limited(rel, cfd, usize::MAX)
}

/// Measures one rule: support is the tuples matching the LHS pattern,
/// violations the minimum number of them to remove so the rest
/// satisfies the rule (the error measure of [`crate::measure`]).
///
/// ```
/// use cfd_model::cfd::parse_cfd;
/// use cfd_model::csv::relation_from_csv_str;
/// use cfd_model::oracle::measure;
///
/// let rel = relation_from_csv_str("AC,CT\n908,MH\n908,MH\n131,EDI\n131,UN\n").unwrap();
/// let fd = parse_cfd(&rel, "(AC -> CT, (_ || _))").unwrap();
/// let m = measure(&rel, &fd);
/// assert_eq!((m.support, m.violations), (4, 1)); // drop one of EDI/UN
/// assert_eq!(m.confidence(), 0.75);
/// ```
pub fn measure(rel: &Relation, cfd: &Cfd) -> RuleMeasure {
    let a = cfd.rhs_attr();
    let mut support = 0;
    // per group: RHS code → frequency; a constant RHS keeps none
    let mut freq: Vec<FxHashMap<u32, usize>> = Vec::new();
    let mut dissent = 0;
    scan(rel, cfd, |t, g| {
        support += 1;
        match cfd.rhs_val() {
            PVal::Const(c) => dissent += (rel.code(t, a) != c) as usize,
            PVal::Var => {
                if g == freq.len() {
                    freq.push(FxHashMap::default());
                }
                *freq[g].entry(rel.code(t, a)).or_default() += 1;
            }
        }
        true
    });
    let violations = dissent
        + freq
            .iter()
            .map(|f| f.values().sum::<usize>() - f.values().max().copied().unwrap_or(0))
            .sum::<usize>();
    RuleMeasure {
        support,
        violations,
    }
}

/// Suggests a repair for every violation of `cfd` (empty when the rule
/// holds): a constant RHS suggests its constant; a variable RHS
/// suggests each mixed group's majority value, ties broken toward the
/// group's earliest tuple, groups in ascending wildcard-key order.
pub fn suggest_repairs(rel: &Relation, cfd: &Cfd) -> Vec<Repair> {
    let a = cfd.rhs_attr();
    let repair = |t: TupleId, suggested: u32| Repair {
        tuple: t,
        attr: a,
        current: rel.code(t, a),
        suggested,
    };
    let mut out = Vec::new();
    let mut members: Vec<Vec<TupleId>> = Vec::new();
    let keys = scan(rel, cfd, |t, g| {
        match cfd.rhs_val() {
            PVal::Const(c) if rel.code(t, a) != c => out.push(repair(t, c)),
            PVal::Const(_) => {}
            PVal::Var if g == members.len() => members.push(vec![t]),
            PVal::Var => members[g].push(t),
        }
        true
    });
    let mut order: Vec<usize> = (0..members.len()).collect();
    order.sort_unstable_by(|&x, &y| keys[x].cmp(&keys[y]));
    for g in order {
        let mut counts: FxHashMap<u32, usize> = FxHashMap::default();
        for &t in &members[g] {
            *counts.entry(rel.code(t, a)).or_default() += 1;
        }
        if counts.len() < 2 {
            continue;
        }
        let earliest = rel.code(members[g][0], a);
        let majority = counts
            .iter()
            .max_by_key(|&(&code, &n)| (n, code == earliest, std::cmp::Reverse(code)))
            .map(|(&code, _)| code)
            .unwrap_or(earliest);
        for &t in &members[g] {
            if rel.code(t, a) != majority {
                out.push(repair(t, majority));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfd::parse_cfd;
    use crate::relation::relation_from_rows;
    use crate::schema::Schema;

    /// The instance r0 of Fig. 1 of the paper (the `cust` relation).
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

    fn dirty() -> Relation {
        let schema = Schema::new(["AC", "CT"]).unwrap();
        relation_from_rows(
            schema,
            &[
                vec!["908", "MH"],
                vec!["908", "MH"],
                vec!["908", "XX"], // corrupted
                vec!["212", "NYC"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn fig1_fds_hold() {
        let r = cust();
        // f1: [CC,AC] -> CT and f2: [CC,AC,PN] -> STR (Example 1)
        let f1 = parse_cfd(&r, "([CC, AC] -> CT, (_, _ || _))").unwrap();
        let f2 = parse_cfd(&r, "([CC, AC, PN] -> STR, (_, _, _ || _))").unwrap();
        assert!(satisfies(&r, &f1));
        assert!(satisfies(&r, &f2));
    }

    #[test]
    fn fig1_cfds_hold() {
        let r = cust();
        for txt in [
            "([CC, ZIP] -> STR, (44, _ || _))",   // φ0
            "([CC, AC] -> CT, (01, 908 || MH))",  // φ1
            "([CC, AC] -> CT, (44, 131 || EDI))", // φ2
            "([CC, AC] -> CT, (01, 212 || NYC))", // φ3
        ] {
            let cfd = parse_cfd(&r, txt).unwrap();
            assert!(satisfies(&r, &cfd), "{txt} should hold on r0");
        }
    }

    #[test]
    fn example3_violations() {
        let r = cust();
        // ψ = ([CC,ZIP] -> STR, (_, _ || _)) violated by t1, t4
        let psi = parse_cfd(&r, "([CC, ZIP] -> STR, (_, _ || _))").unwrap();
        assert!(!satisfies(&r, &psi));
        // ψ' = (AC -> CT, (131 || EDI)) violated by the single tuple t8
        let psi2 = parse_cfd(&r, "(AC -> CT, (131 || EDI))").unwrap();
        assert!(!satisfies(&r, &psi2));
    }

    #[test]
    fn example5_reductions() {
        let r = cust();
        // dropping CC from φ3 still holds (only t3 has AC = 212)
        let red3 = parse_cfd(&r, "(AC -> CT, (212 || NYC))").unwrap();
        assert!(satisfies(&r, &red3));
        // dropping CC from φ1 still holds (Example 7: 4-frequent)
        let red1 = parse_cfd(&r, "(AC -> CT, (908 || MH))").unwrap();
        assert!(satisfies(&r, &red1));
    }

    #[test]
    fn empty_lhs() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let r = relation_from_rows(schema.clone(), &[vec!["x", "k"], vec!["y", "k"]]).unwrap();
        // B is constant: ([] -> B, ( || k)) holds
        let c = parse_cfd(&r, "([] -> B, ( || k))").unwrap();
        assert!(satisfies(&r, &c));
        // A is not constant
        let c2 = parse_cfd(&r, "([] -> A, ( || x))").unwrap();
        assert!(!satisfies(&r, &c2));
        // variable empty-LHS CFD: all tuples must agree on A
        let v = parse_cfd(&r, "([] -> A, ( || _))").unwrap();
        assert!(!satisfies(&r, &v));
        let v2 = parse_cfd(&r, "([] -> B, ( || _))").unwrap();
        assert!(satisfies(&r, &v2));
    }

    #[test]
    fn trivial_cfds() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let r = relation_from_rows(schema, &[vec!["x", "1"], vec!["y", "2"]]).unwrap();
        // (A -> A, (_ || _)) always holds
        let t = parse_cfd(&r, "(A -> A, (_ || _))").unwrap();
        assert!(t.is_trivial());
        assert!(satisfies(&r, &t));
        // (A -> A, (x || y)): a tuple matching x must equal y ⇒ violated
        let t2 = parse_cfd(&r, "(A -> A, (x || y))").unwrap();
        assert!(!satisfies(&r, &t2));
        // (A -> A, (x || x)) holds
        let t3 = parse_cfd(&r, "(A -> A, (x || x))").unwrap();
        assert!(satisfies(&r, &t3));
    }

    #[test]
    fn single_tuple_violation_constant_rhs() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let r =
            relation_from_rows(schema, &[vec!["x", "1"], vec!["x", "1"], vec!["x", "2"]]).unwrap();
        // all three tuples match A=x; one has B=2 ⇒ (A -> B, (x || 1)) fails
        let c = parse_cfd(&r, "(A -> B, (x || 1))").unwrap();
        assert!(!satisfies(&r, &c));
        // the class-count criterion would have missed this: π(A,(x)) has one
        // class and π([A,B],(x,1)) also has one class.
    }

    #[test]
    fn paper_support_claims() {
        // Section 2.2.2: φ1 is 3-frequent, φ2 is 2-frequent, f1 and f2 are
        // 8-frequent on r0.
        let r = cust();
        let phi1 = parse_cfd(&r, "([CC, AC] -> CT, (01, 908 || MH))").unwrap();
        let phi2 = parse_cfd(&r, "([CC, AC] -> CT, (44, 131 || EDI))").unwrap();
        let f1 = parse_cfd(&r, "([CC, AC] -> CT, (_, _ || _))").unwrap();
        let f2 = parse_cfd(&r, "([CC, AC, PN] -> STR, (_, _, _ || _))").unwrap();
        assert_eq!(support(&r, &phi1), 3);
        assert_eq!(support(&r, &phi2), 2);
        assert_eq!(support(&r, &f1), 8);
        assert_eq!(support(&r, &f2), 8);
        // Example 7: (AC -> CT, (908 || MH)) is 4-frequent
        let red = parse_cfd(&r, "(AC -> CT, (908 || MH))").unwrap();
        assert_eq!(support(&r, &red), 4);
    }

    #[test]
    fn rhs_constant_constrains_support() {
        let r = cust();
        // tuples matching AC=908 : t1,t2,t4,t7 (4), but RHS CT=EDI matches none
        let c = parse_cfd(&r, "(AC -> CT, (908 || EDI))").unwrap();
        assert_eq!(support(&r, &c), 0);
    }

    #[test]
    fn pattern_support_counts() {
        let r = cust();
        let cc01 = r.column(0).dict().code("01").unwrap();
        let p = Pattern::from_pairs([(0, PVal::Const(cc01))]);
        assert_eq!(pattern_support(&r, &p), 5);
        assert_eq!(pattern_support(&r, &Pattern::empty()), 8);
        let q = p.with(1, PVal::Var);
        assert_eq!(pattern_support(&r, &q), 5, "wildcards do not constrain");
    }

    #[test]
    fn example3_pair_violation() {
        let r = cust();
        // ψ violated by (t1, t4): same CC,ZIP but different STR
        let psi = parse_cfd(&r, "([CC, ZIP] -> STR, (_, _ || _))").unwrap();
        let v = violations(&r, &psi);
        assert!(v.contains(&Violation::Pair(0, 3)), "t1/t4 violate ψ: {v:?}");
    }

    #[test]
    fn example3_single_violation() {
        let r = cust();
        // ψ' violated by the single tuple t8
        let psi2 = parse_cfd(&r, "(AC -> CT, (131 || EDI))").unwrap();
        let v = violations(&r, &psi2);
        assert_eq!(v, vec![Violation::Single(7)]);
    }

    #[test]
    fn no_violations_for_satisfied_cfds() {
        let r = cust();
        let phi1 = parse_cfd(&r, "([CC, AC] -> CT, (01, 908 || MH))").unwrap();
        assert!(satisfies(&r, &phi1));
        assert!(violations(&r, &phi1).is_empty());
    }

    #[test]
    fn limit_is_respected() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let r = relation_from_rows(
            schema,
            &[
                vec!["x", "1"],
                vec!["x", "2"],
                vec!["x", "3"],
                vec!["x", "4"],
            ],
        )
        .unwrap();
        let c = parse_cfd(&r, "(A -> B, (_ || _))").unwrap();
        assert_eq!(violations(&r, &c).len(), 3);
        assert_eq!(violations_limited(&r, &c, 2).len(), 2);
        assert_eq!(violations_limited(&r, &c, 0).len(), 0);
    }

    #[test]
    fn constant_rhs_counts_dissenters() {
        let r = cust();
        // AC = 131 maps to EDI, EDI, UN: one dissenter among three
        let c = parse_cfd(&r, "(AC -> CT, (131 || EDI))").unwrap();
        let m = measure(&r, &c);
        assert_eq!((m.support, m.violations), (3, 1));
        assert!((m.confidence() - 2.0 / 3.0).abs() < 1e-12);
        assert!(m.meets(0.6) && !m.meets(0.7));
    }

    #[test]
    fn variable_rhs_counts_minimal_removals() {
        let r = cust();
        // AC → CT: 908 → MH (4 pure), 212 → NYC (1), 131 → {EDI×2, UN}
        let fd = parse_cfd(&r, "(AC -> CT, (_ || _))").unwrap();
        let m = measure(&r, &fd);
        assert_eq!((m.support, m.violations), (8, 1));
        assert_eq!(m.confidence(), 0.875);
        // the minimal-removal count can undercut the reported violation
        // *records* (pairs are anchored at the scan witness)
        assert!(m.violations <= violations(&r, &fd).len());
        // a satisfied rule measures exact
        let f1 = parse_cfd(&r, "([CC, AC] -> CT, (_, _ || _))").unwrap();
        assert_eq!(measure(&r, &f1), RuleMeasure::exact(8));
    }

    #[test]
    fn majority_differs_from_witness() {
        // group [b, a, a]: the scan witness carries the minority value,
        // so witness-anchored pairs count 2 — but one removal suffices
        let schema = Schema::new(["X", "Y"]).unwrap();
        let r =
            relation_from_rows(schema, &[vec!["g", "b"], vec!["g", "a"], vec!["g", "a"]]).unwrap();
        let fd = parse_cfd(&r, "(X -> Y, (_ || _))").unwrap();
        assert_eq!(violations(&r, &fd).len(), 2);
        let m = measure(&r, &fd);
        assert_eq!((m.support, m.violations), (3, 1));
    }

    #[test]
    fn constant_rule_suggests_its_rhs() {
        let r = dirty();
        let rule = parse_cfd(&r, "(AC -> CT, (908 || MH))").unwrap();
        let reps = suggest_repairs(&r, &rule);
        let mh = r.column(1).dict().code("MH").unwrap();
        let xx = r.column(1).dict().code("XX").unwrap();
        assert_eq!(
            reps,
            vec![Repair {
                tuple: 2,
                attr: 1,
                current: xx,
                suggested: mh
            }]
        );
    }

    #[test]
    fn variable_rule_suggests_group_majority() {
        let r = dirty();
        let rule = parse_cfd(&r, "(AC -> CT, (_ || _))").unwrap();
        assert!(!satisfies(&r, &rule));
        let reps = suggest_repairs(&r, &rule);
        let mh = r.column(1).dict().code("MH").unwrap();
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].tuple, 2);
        assert_eq!(reps[0].suggested, mh, "majority of the 908 group is MH");
    }

    #[test]
    fn no_violations_no_repairs() {
        let r = dirty();
        let rule = parse_cfd(&r, "(AC -> CT, (212 || NYC))").unwrap();
        assert!(satisfies(&r, &rule));
        assert!(suggest_repairs(&r, &rule).is_empty());
    }

    #[test]
    fn ties_break_toward_the_earliest_tuple() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let r = relation_from_rows(schema, &[vec!["x", "p"], vec!["x", "q"]]).unwrap();
        let rule = parse_cfd(&r, "(A -> B, (_ || _))").unwrap();
        let reps = suggest_repairs(&r, &rule);
        let p = r.column(1).dict().code("p").unwrap();
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].tuple, 1);
        assert_eq!(reps[0].suggested, p, "tie resolves to t0's value");
    }
}
