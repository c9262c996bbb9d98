//! The minimality (left-reducedness) oracle of Section 2.2.1.
//!
//! A CFD in a canonical cover must be *nontrivial* and *left-reduced*:
//!
//! * constant CFD `(X → A, (tp ‖ a))`: no proper subset `Y ⊊ X` satisfies
//!   `(Y → A, (tp[Y] ‖ a))`;
//! * variable CFD `(X → A, (tp ‖ _))`: (1) no proper subset of `X` works,
//!   and (2) no constant of `tp` can be upgraded to `_`.
//!
//! Because satisfaction is monotone in the LHS (adding attributes or
//! specializing patterns preserves it), checking the *immediate*
//! reductions suffices; this module is the independent referee used by
//! the test suites to audit every algorithm's output.

use cfd_model::cfd::{Cfd, CfdClass};
use cfd_model::oracle::satisfies;
use cfd_model::oracle::support;
use cfd_model::pattern::PVal;
use cfd_model::relation::Relation;

/// True iff `cfd` holds on `rel` and is `k`-frequent.
pub fn holds_and_frequent(rel: &Relation, cfd: &Cfd, k: usize) -> bool {
    support(rel, cfd) >= k && satisfies(rel, cfd)
}

/// True iff `cfd` is a minimal (nontrivial, left-reduced) CFD of `rel`
/// that holds and is `k`-frequent. Mixed CFDs (constant RHS with wildcard
/// LHS values) are never minimal: Lemma 1 drops their wildcard attributes.
pub fn is_minimal(rel: &Relation, cfd: &Cfd, k: usize) -> bool {
    if cfd.is_trivial() || !holds_and_frequent(rel, cfd, k) {
        return false;
    }
    let lhs = cfd.lhs();
    let rhs = cfd.rhs_attr();
    match cfd.class() {
        CfdClass::Mixed => false,
        CfdClass::Constant => {
            // no single LHS attribute may be droppable
            lhs.attrs().iter().all(|b| {
                let reduced = Cfd::new(lhs.without(b), rhs, cfd.rhs_val());
                !satisfies(rel, &reduced)
            })
        }
        CfdClass::Variable => {
            // (1) attribute minimality: no attribute droppable
            let attr_min = lhs.attrs().iter().all(|b| {
                let reduced = Cfd::variable(lhs.without(b), rhs);
                !satisfies(rel, &reduced)
            });
            if !attr_min {
                return false;
            }
            // (2) pattern minimality: no constant upgradeable to `_`
            lhs.iter().filter(|&(_, v)| v.is_const()).all(|(b, _)| {
                let upgraded = Cfd::variable(lhs.with(b, PVal::Var), rhs);
                !satisfies(rel, &upgraded)
            })
        }
    }
}

/// Audits a whole cover: returns the offending CFD descriptions, empty
/// when every CFD is minimal, `k`-frequent and holds.
pub fn audit_cover<'a, I>(rel: &Relation, cfds: I, k: usize) -> Vec<String>
where
    I: IntoIterator<Item = &'a Cfd>,
{
    let mut problems = Vec::new();
    for cfd in cfds {
        if cfd.is_trivial() {
            problems.push(format!("trivial: {}", cfd.display(rel)));
        } else if !satisfies(rel, cfd) {
            problems.push(format!("violated: {}", cfd.display(rel)));
        } else if support(rel, cfd) < k {
            problems.push(format!("infrequent: {}", cfd.display(rel)));
        } else if !is_minimal(rel, cfd, k) {
            problems.push(format!("not minimal: {}", cfd.display(rel)));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_datagen::cust::cust_relation;
    use cfd_model::cfd::parse_cfd;

    #[test]
    fn example5_minimality_claims() {
        let r = cust_relation();
        // φ2 is a minimal constant CFD
        let phi2 = parse_cfd(&r, "([CC, AC] -> CT, (44, 131 || EDI))").unwrap();
        assert!(is_minimal(&r, &phi2, 1));
        // φ3 is not minimal: CC can be dropped
        let phi3 = parse_cfd(&r, "([CC, AC] -> CT, (01, 212 || NYC))").unwrap();
        assert!(!is_minimal(&r, &phi3, 1));
        // φ1 is not minimal: CC can be dropped
        let phi1 = parse_cfd(&r, "([CC, AC] -> CT, (01, 908 || MH))").unwrap();
        assert!(!is_minimal(&r, &phi1, 1));
        // its reduction is minimal
        let red = parse_cfd(&r, "(AC -> CT, (908 || MH))").unwrap();
        assert!(is_minimal(&r, &red, 1));
        // f1, f2 and φ0 are minimal variable CFDs
        for txt in [
            "([CC, AC] -> CT, (_, _ || _))",
            "([CC, AC, PN] -> STR, (_, _, _ || _))",
            "([CC, ZIP] -> STR, (44, _ || _))",
        ] {
            let c = parse_cfd(&r, txt).unwrap();
            assert!(is_minimal(&r, &c, 1), "{txt} must be minimal");
        }
    }

    #[test]
    fn example5_pattern_upgrades_are_redundant() {
        // the f1-instances (01,_), (44,_), (_,908), (_,212), (_,131) all
        // hold but are not minimal: (_,_) is more general
        let r = cust_relation();
        for txt in [
            "([CC, AC] -> CT, (01, _ || _))",
            "([CC, AC] -> CT, (44, _ || _))",
            "([CC, AC] -> CT, (_, 908 || _))",
            "([CC, AC] -> CT, (_, 212 || _))",
            "([CC, AC] -> CT, (_, 131 || _))",
        ] {
            let c = parse_cfd(&r, txt).unwrap();
            assert!(satisfies(&r, &c), "{txt} holds");
            assert!(!is_minimal(&r, &c, 1), "{txt} is redundant");
        }
    }

    #[test]
    fn frequency_gates_minimality() {
        let r = cust_relation();
        let phi2 = parse_cfd(&r, "([CC, AC] -> CT, (44, 131 || EDI))").unwrap();
        assert!(is_minimal(&r, &phi2, 2));
        assert!(!is_minimal(&r, &phi2, 3), "φ2 is only 2-frequent");
    }

    #[test]
    fn trivial_and_mixed_rejected() {
        let r = cust_relation();
        let t = parse_cfd(&r, "(CT -> CT, (_ || _))").unwrap();
        assert!(!is_minimal(&r, &t, 1));
        let mixed = parse_cfd(&r, "([CC, AC] -> CT, (_, 908 || MH))").unwrap();
        assert!(!is_minimal(&r, &mixed, 1));
    }

    #[test]
    fn audit_reports_each_problem_kind() {
        let r = cust_relation();
        let good = parse_cfd(&r, "(AC -> CT, (908 || MH))").unwrap();
        let violated = parse_cfd(&r, "(AC -> CT, (131 || EDI))").unwrap();
        let nonmin = parse_cfd(&r, "([CC, AC] -> CT, (01, 212 || NYC))").unwrap();
        let problems = audit_cover(&r, [&good, &violated, &nonmin], 1);
        assert_eq!(problems.len(), 2);
        assert!(problems[0].contains("violated"));
        assert!(problems[1].contains("not minimal"));
    }
}
