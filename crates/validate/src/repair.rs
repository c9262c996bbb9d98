//! Repair suggestions — closing the cleaning loop.
//!
//! The paper motivates CFD discovery as the rule-acquisition step of
//! CFD-based cleaning (its refs \[1\], \[2\] detect and repair with the
//! rules). This module provides the minimal, deterministic repair
//! heuristic on top of the kernel:
//!
//! * a violation of a **constant-RHS** rule pins the expected value —
//!   suggest the rule's RHS constant;
//! * a violation of a **variable** rule leaves a group of LHS-equal
//!   tuples disagreeing on the RHS — suggest the group's majority value
//!   (ties resolved toward the earliest tuple, keeping the suggestion
//!   deterministic).
//!
//! The group structure comes from the compiled plan's shared grouping
//! passes, and only the *violating* groups are ever materialized.
//! Suggestions are advisory: applying them ([`apply_repairs`]) may
//! surface further violations of other rules (full constraint repair
//! is its own research area, e.g. ref \[27\] of the paper).

use crate::plan::{scan_matching, CoverPlan};
use cfd_model::fxhash::{FxHashMap, FxHashSet};
use cfd_model::relation::{Relation, TupleId};
use cfd_model::schema::AttrId;
use cfd_model::violation::Repair;
use cfd_model::Cfd;
use cfd_partition::RelationIndex;

/// Suggests repairs for a whole rule set, deduplicated per cell: when
/// several rules implicate the same `(tuple, attribute)` cell, the
/// first rule's suggestion wins (rule order = caller's priority order).
pub fn suggest_repairs_for_cover<'a, I>(rel: &Relation, cfds: I) -> Vec<Repair>
where
    I: IntoIterator<Item = &'a Cfd>,
{
    let cfds: Vec<&Cfd> = cfds.into_iter().collect();
    let plan = CoverPlan::compile(rel, cfds.iter().copied());
    let index = RelationIndex::new(rel);
    let mut seen: FxHashSet<(TupleId, usize)> = FxHashSet::default();
    let mut out = Vec::new();
    for (i, cfd) in cfds.iter().enumerate() {
        for r in rule_repairs(rel, &index, &plan, i, cfd) {
            if seen.insert((r.tuple, r.attr)) {
                out.push(r);
            }
        }
    }
    out
}

/// Applies repairs, producing a new relation that shares the original's
/// dictionaries (original untouched).
pub fn apply_repairs(rel: &Relation, repairs: &[Repair]) -> Relation {
    let edits: Vec<(TupleId, AttrId, u32)> = repairs
        .iter()
        .map(|r| (r.tuple, r.attr, r.suggested))
        .collect();
    rel.with_replaced_codes(&edits)
}

/// Repairs for one rule of the plan: a constant RHS's dissenters in
/// tuple order, a variable RHS's mixed groups in ascending
/// wildcard-key order.
fn rule_repairs(
    rel: &Relation,
    index: &RelationIndex,
    plan: &CoverPlan,
    rule: usize,
    cfd: &Cfd,
) -> Vec<Repair> {
    let rhs_attr = cfd.rhs_attr();
    let rhs_codes = rel.column(rhs_attr).codes();
    let consts: Vec<(usize, u32)> = cfd
        .lhs()
        .iter()
        .filter_map(|(a, v)| v.as_const().map(|c| (a, c)))
        .collect();
    let mut out = Vec::new();

    let Some(family) = plan.family_of(rule) else {
        // constant RHS: every mismatching matching tuple gets the
        // rule's constant
        let expect = cfd.rhs_val().as_const().expect("const-RHS rule");
        scan_matching(rel, index, &consts, |t| {
            let cur = rhs_codes[t as usize];
            if cur != expect {
                out.push(Repair {
                    tuple: t,
                    attr: rhs_attr,
                    current: cur,
                    suggested: expect,
                });
            }
        });
        return out;
    };

    // variable RHS: find the mixed groups, then materialize only them
    let gids = plan.group_ids(family).gids();
    let mut first_rhs: FxHashMap<u32, u32> = FxHashMap::default();
    let mut mixed: FxHashSet<u32> = FxHashSet::default();
    scan_matching(rel, index, &consts, |t| {
        let gid = gids[t as usize];
        let rhs = rhs_codes[t as usize];
        match first_rhs.entry(gid) {
            std::collections::hash_map::Entry::Occupied(e) => {
                if *e.get() != rhs {
                    mixed.insert(gid);
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(rhs);
            }
        }
    });
    if mixed.is_empty() {
        return out;
    }
    let mut members: FxHashMap<u32, Vec<TupleId>> = FxHashMap::default();
    scan_matching(rel, index, &consts, |t| {
        let gid = gids[t as usize];
        if mixed.contains(&gid) {
            members.entry(gid).or_default().push(t);
        }
    });
    // reference order: groups by their wildcard-value key, ascending
    let wild: Vec<usize> = cfd.lhs().wildcard_attrs().iter().collect();
    let mut groups: Vec<(Vec<u32>, &Vec<TupleId>)> = members
        .values()
        .map(|m| {
            let key: Vec<u32> = wild.iter().map(|&a| rel.code(m[0], a)).collect();
            (key, m)
        })
        .collect();
    groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    for (_, members) in groups {
        let mut counts: FxHashMap<u32, usize> = FxHashMap::default();
        for &t in members {
            *counts.entry(rhs_codes[t as usize]).or_default() += 1;
        }
        // majority RHS value; ties break toward the earliest tuple
        let earliest = rhs_codes[members[0] as usize];
        let majority = counts
            .iter()
            .max_by_key(|&(&code, &n)| (n, code == earliest, std::cmp::Reverse(code)))
            .map(|(&code, _)| code)
            .unwrap_or(earliest);
        for &t in members {
            let cur = rhs_codes[t as usize];
            if cur != majority {
                out.push(Repair {
                    tuple: t,
                    attr: rhs_attr,
                    current: cur,
                    suggested: majority,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::cfd::parse_cfd;
    use cfd_model::oracle::{satisfies, suggest_repairs};
    use cfd_model::relation::relation_from_rows;
    use cfd_model::schema::Schema;

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
    fn applying_repairs_restores_satisfaction() {
        let r = dirty();
        let rules = vec![
            parse_cfd(&r, "(AC -> CT, (908 || MH))").unwrap(),
            parse_cfd(&r, "(AC -> CT, (_ || _))").unwrap(),
        ];
        // cover-level repair = per-rule repairs, first rule wins per cell
        let mut seen = FxHashSet::default();
        let mut reps = Vec::new();
        for rule in &rules {
            for rep in suggest_repairs(&r, rule) {
                if seen.insert((rep.tuple, rep.attr)) {
                    reps.push(rep);
                }
            }
        }
        let fixed = apply_repairs(&r, &reps);
        for rule in &rules {
            let fixed_rule = parse_cfd(&fixed, &rule.display(&r)).unwrap();
            assert!(satisfies(&fixed, &fixed_rule));
        }
        assert_eq!(fixed.value(2, 1), "MH");
        // untouched cells survive
        assert_eq!(fixed.value(3, 1), "NYC");
        assert_eq!(fixed.value(0, 0), "908");
    }
}
