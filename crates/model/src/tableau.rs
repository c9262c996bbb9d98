//! Tableau CFDs (Section 2.3 of the paper).
//!
//! The original CFD definition \[1\] allows a *pattern tableau*: a CFD
//! `φ = (X → A, Tp)` with a finite set `Tp` of pattern tuples, satisfied
//! iff every single-pattern CFD `(X → A, tp)`, `tp ∈ Tp`, is satisfied.
//! The paper reduces discovery to single-pattern CFDs and notes that
//! k-frequent minimal tableau CFDs are obtained by *grouping* the
//! single-pattern results; the support of a tableau CFD is the minimum
//! support of its members, and its tableau is maximal subject to the
//! non-subsumption condition: no two pattern tuples `sp, tp ∈ Tp` with
//! `sp[X] ⪯ tp[X]` and `sp[A] ⪯ tp[A]` (one row would subsume the
//! other). This module implements that grouping.

use crate::cfd::Cfd;
use crate::cover::CanonicalCover;
use crate::fxhash::FxHashMap;
use crate::oracle::{satisfies, support};
use crate::pattern::{PVal, Pattern};
use crate::relation::Relation;
use crate::schema::AttrId;

/// A tableau CFD `(X → A, Tp)`: one embedded FD with a pattern tableau.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TableauCfd {
    lhs_attrs: crate::attrset::AttrSet,
    rhs_attr: AttrId,
    /// The tableau rows, each as `(LHS pattern, RHS value)`.
    rows: Vec<(Pattern, PVal)>,
}

impl TableauCfd {
    /// The LHS attribute set `X`.
    pub fn lhs_attrs(&self) -> crate::attrset::AttrSet {
        self.lhs_attrs
    }

    /// The RHS attribute `A`.
    pub fn rhs_attr(&self) -> AttrId {
        self.rhs_attr
    }

    /// The tableau rows.
    pub fn rows(&self) -> &[(Pattern, PVal)] {
        &self.rows
    }

    /// The member single-pattern CFDs `{φ_tp | tp ∈ Tp}`.
    pub fn members(&self) -> impl Iterator<Item = Cfd> + '_ {
        self.rows
            .iter()
            .map(move |(lhs, rhs)| Cfd::new(lhs.clone(), self.rhs_attr, *rhs))
    }

    /// `r ⊨ (X → A, Tp)` iff every member holds.
    pub fn satisfied_by(&self, rel: &Relation) -> bool {
        self.members().all(|c| satisfies(rel, &c))
    }

    /// `sup(φ) = min_{tp ∈ Tp} sup(φ_tp)` (Section 2.3).
    pub fn support(&self, rel: &Relation) -> usize {
        self.members().map(|c| support(rel, &c)).min().unwrap_or(0)
    }

    /// Renders the tableau in a tabular form.
    pub fn display(&self, rel: &Relation) -> String {
        let schema = rel.schema();
        let mut out = format!(
            "({} -> {}) tableau:\n",
            schema.fmt_attrs(self.lhs_attrs),
            schema.name(self.rhs_attr)
        );
        for (lhs, rhs) in &self.rows {
            out.push_str("  (");
            for (i, (a, v)) in lhs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                match v {
                    PVal::Const(c) => out.push_str(rel.column(a).dict().value(c)),
                    PVal::Var => out.push('_'),
                }
            }
            out.push_str(" || ");
            match *rhs {
                PVal::Const(c) => out.push_str(rel.column(self.rhs_attr).dict().value(c)),
                PVal::Var => out.push('_'),
            }
            out.push_str(")\n");
        }
        out
    }
}

/// Groups a canonical cover of single-pattern CFDs into tableau CFDs:
/// one tableau per embedded FD `X → A`. Minimality of the inputs
/// guarantees the non-subsumption condition of Section 2.3 between rows
/// (two minimal patterns over the same FD never subsume each other), so
/// each resulting tableau is maximal w.r.t. the cover it came from.
pub fn group_into_tableaux(cover: &CanonicalCover) -> Vec<TableauCfd> {
    let mut by_fd: FxHashMap<(crate::attrset::AttrSet, AttrId), Vec<(Pattern, PVal)>> =
        FxHashMap::default();
    for cfd in cover.iter() {
        by_fd
            .entry((cfd.lhs_attrs(), cfd.rhs_attr()))
            .or_default()
            .push((cfd.lhs().clone(), cfd.rhs_val()));
    }
    let mut out: Vec<TableauCfd> = by_fd
        .into_iter()
        .map(|((lhs_attrs, rhs_attr), mut rows)| {
            rows.sort_unstable();
            TableauCfd {
                lhs_attrs,
                rhs_attr,
                rows,
            }
        })
        .collect();
    out.sort_unstable_by_key(|t| (t.lhs_attrs, t.rhs_attr));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfd::parse_cfd;
    use crate::relation::relation_from_rows;
    use crate::schema::Schema;

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

    #[test]
    fn grouping_by_embedded_fd() {
        let r = cust();
        let cover = CanonicalCover::from_cfds([
            parse_cfd(&r, "(AC -> CT, (908 || MH))").unwrap(),
            parse_cfd(&r, "(AC -> CT, (212 || NYC))").unwrap(),
            parse_cfd(&r, "([CC, AC] -> CT, (44, 131 || EDI))").unwrap(),
        ]);
        let tableaux = group_into_tableaux(&cover);
        assert_eq!(tableaux.len(), 2);
        let ac_ct = tableaux
            .iter()
            .find(|t| t.lhs_attrs() == crate::attrset::AttrSet::singleton(1))
            .unwrap();
        assert_eq!(ac_ct.rows().len(), 2);
        assert!(ac_ct.satisfied_by(&r));
        // support = min member support = min(4, 1) = 1
        assert_eq!(ac_ct.support(&r), 1);
    }

    #[test]
    fn satisfaction_is_conjunction_of_members() {
        let r = cust();
        let good = parse_cfd(&r, "(AC -> CT, (908 || MH))").unwrap();
        let bad = parse_cfd(&r, "(AC -> CT, (131 || EDI))").unwrap(); // t8 violates
        let cover = CanonicalCover::from_cfds([good, bad]);
        let tableaux = group_into_tableaux(&cover);
        assert_eq!(tableaux.len(), 1);
        assert!(!tableaux[0].satisfied_by(&r), "one bad member sinks it");
    }

    #[test]
    fn display_lists_rows() {
        let r = cust();
        let cover = CanonicalCover::from_cfds([
            parse_cfd(&r, "(AC -> CT, (908 || MH))").unwrap(),
            parse_cfd(&r, "(AC -> CT, (_ || _))").unwrap(),
        ]);
        let t = &group_into_tableaux(&cover)[0];
        let s = t.display(&r);
        assert!(s.contains("[AC] -> CT"));
        assert!(s.contains("(908 || MH)"));
        assert!(s.contains("(_ || _)"));
    }

    #[test]
    fn empty_cover_gives_no_tableaux() {
        assert!(group_into_tableaux(&CanonicalCover::default()).is_empty());
    }
}
