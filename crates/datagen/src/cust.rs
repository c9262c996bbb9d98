//! The `cust` relation of Fig. 1 — the paper's running example.

use cfd_model::relation::{relation_from_rows, Relation};
use cfd_model::schema::Schema;

/// The schema of the `cust` relation: country code, area code, phone
/// number, name, street, city, zip.
pub fn cust_schema() -> Schema {
    Schema::new(["CC", "AC", "PN", "NM", "STR", "CT", "ZIP"]).expect("static schema is valid")
}

/// The instance `r0` of Fig. 1 (tuples `t1 … t8`).
///
/// Every claim the paper makes about `r0` (Examples 1–9) is validated
/// against this instance in the test suites of the workspace.
pub fn cust_relation() -> Relation {
    relation_from_rows(
        cust_schema(),
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
    .expect("static instance is valid")
}

/// A dirtied copy of `r0` for the cleaning demo: `t3`'s city is corrupted
/// to `MH` (breaking φ3-style rules) and `t6`'s street to `Low St.`
/// (breaking the UK zip → street rule φ0). Built with
/// [`Relation::with_replaced_values`], so it shares `r0`'s dictionaries
/// and rules discovered on the clean instance evaluate on it directly.
pub fn dirty_cust_relation() -> Relation {
    let clean = cust_relation();
    let ct = 5;
    let str_a = 4;
    clean.with_replaced_values(&[(2, ct, "MH"), (5, str_a, "Low St.")])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::cfd::parse_cfd;
    use cfd_model::oracle::satisfies;

    #[test]
    fn shape() {
        let r = cust_relation();
        assert_eq!(r.n_rows(), 8);
        assert_eq!(r.arity(), 7);
        assert_eq!(r.value(0, 3), "Mike");
    }

    #[test]
    fn clean_satisfies_paper_rules_dirty_does_not() {
        let clean = cust_relation();
        let dirty = dirty_cust_relation();
        let phi0 = "([CC, ZIP] -> STR, (44, _ || _))";
        let f1 = "([CC, AC] -> CT, (_, _ || _))";
        for txt in [phi0, f1] {
            let c = parse_cfd(&clean, txt).unwrap();
            assert!(satisfies(&clean, &c), "{txt} must hold on clean r0");
        }
        let phi0_dirty = parse_cfd(&dirty, phi0).unwrap();
        assert!(!satisfies(&dirty, &phi0_dirty), "t6 corruption breaks φ0");
    }
}
