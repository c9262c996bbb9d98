//! Simulated chess endgame dataset (UCI King-Rook-vs-King), 28056 × 7.
//!
//! The real dataset enumerates legal KRK positions (white king constrained
//! to the a1–d4 symmetry quadrant) and labels each with the optimal
//! depth-of-win for White (`draw`, `zero` … `sixteen` — 18 classes). Its
//! essential property for dependency discovery is that the outcome is a
//! *function* of the six coordinate attributes, with strong conditional
//! structure (e.g. positions with the black king on the rook's file at
//! distance > 1 behave uniformly). This generator enumerates the legal
//! positions the same way and assigns a deterministic outcome derived
//! from classic KRK features (king opposition, rook cut-off, edge
//! distance), truncating to the UCI row count. See DESIGN.md §5.

use cfd_model::relation::{Relation, RelationBuilder};
use cfd_model::schema::Schema;

/// Number of rows in the UCI dataset (and in this simulation).
pub const CHESS_ROWS: usize = 28_056;
/// Number of attributes.
pub const CHESS_ARITY: usize = 7;

/// The KRK schema: white-king file/rank, white-rook file/rank, black-king
/// file/rank, and the game-theoretic outcome.
pub fn chess_schema() -> Schema {
    Schema::new([
        "wk_file", "wk_rank", "wr_file", "wr_rank", "bk_file", "bk_rank", "outcome",
    ])
    .expect("static schema is valid")
}

#[inline]
fn adjacent(f1: i32, r1: i32, f2: i32, r2: i32) -> bool {
    (f1 - f2).abs() <= 1 && (r1 - r2).abs() <= 1
}

/// Deterministic outcome label for a legal position — a stand-in for the
/// real depth-to-win, built from the classic KRK features so that the
/// outcome is a genuine function of (subsets of) the coordinates.
fn outcome(wkf: i32, wkr: i32, wrf: i32, wrr: i32, bkf: i32, bkr: i32) -> usize {
    // stalemate-ish / rook en prise ⇒ draw
    let rook_attacked = adjacent(bkf, bkr, wrf, wrr) && !adjacent(wkf, wkr, wrf, wrr);
    if rook_attacked {
        return 0; // "draw"
    }
    // distance of the black king to the nearest corner
    let corner = [(0, 0), (0, 7), (7, 0), (7, 7)]
        .iter()
        .map(|&(cf, cr)| (bkf - cf).abs().max((bkr - cr).abs()))
        .min()
        .unwrap();
    // king opposition distance
    let opposition = (wkf - bkf).abs().max((wkr - bkr).abs());
    // rook cut-off: rook separates the kings on a file or rank
    let cut = ((wrf - bkf).abs() == 1 && (wrf - wkf).abs() >= 1)
        || ((wrr - bkr).abs() == 1 && (wrr - wkr).abs() >= 1);
    let edge = bkf.min(bkr).min(7 - bkf).min(7 - bkr);
    let mut depth = 2 * corner as usize + opposition as usize + edge as usize;
    if cut {
        depth = depth.saturating_sub(3);
    }
    1 + depth.min(16) // 1..=17 ⇒ "zero" … "sixteen"
}

const LABELS: [&str; 18] = [
    "draw", "zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten",
    "eleven", "twelve", "thirteen", "fourteen", "fifteen", "sixteen",
];

/// Generates the simulated dataset: all legal KRK positions (white king in
/// the a1–d4 quadrant, distinct squares, kings non-adjacent, black king
/// not already in check), truncated to [`CHESS_ROWS`].
pub fn chess_relation() -> Relation {
    let files = ["a", "b", "c", "d", "e", "f", "g", "h"];
    let mut b = RelationBuilder::new(chess_schema());
    b.reserve(CHESS_ROWS);
    let mut rows = 0usize;
    'outer: for wkf in 0..4i32 {
        for wkr in 0..4i32 {
            for wrf in 0..8i32 {
                for wrr in 0..8i32 {
                    if wrf == wkf && wrr == wkr {
                        continue;
                    }
                    for bkf in 0..8i32 {
                        for bkr in 0..8i32 {
                            // distinct squares
                            if (bkf == wkf && bkr == wkr) || (bkf == wrf && bkr == wrr) {
                                continue;
                            }
                            // kings may not touch
                            if adjacent(wkf, wkr, bkf, bkr) {
                                continue;
                            }
                            // black to move must not already stand in check:
                            // rook attacks along clear files/ranks
                            let in_check = if bkf == wrf {
                                let (lo, hi) = (bkr.min(wrr), bkr.max(wrr));
                                !(wkf == wrf && wkr > lo && wkr < hi)
                            } else if bkr == wrr {
                                let (lo, hi) = (bkf.min(wrf), bkf.max(wrf));
                                !(wkr == wrr && wkf > lo && wkf < hi)
                            } else {
                                false
                            };
                            if in_check {
                                continue;
                            }
                            let o = outcome(wkf, wkr, wrf, wrr, bkf, bkr);
                            let row = [
                                files[wkf as usize],
                                &(wkr + 1).to_string(),
                                files[wrf as usize],
                                &(wrr + 1).to_string(),
                                files[bkf as usize],
                                &(bkr + 1).to_string(),
                                LABELS[o],
                            ];
                            b.push_row(&row).expect("row width matches schema");
                            rows += 1;
                            if rows == CHESS_ROWS {
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::attrset::AttrSet;
    use cfd_model::cfd::Cfd;
    use cfd_model::oracle::satisfies;

    #[test]
    fn shape_matches_uci() {
        let r = chess_relation();
        assert_eq!(r.n_rows(), CHESS_ROWS);
        assert_eq!(r.arity(), CHESS_ARITY);
    }

    #[test]
    fn coordinate_domains() {
        let r = chess_relation();
        assert!(r.column(0).domain_size() <= 4); // quadrant files a–d
        assert!(r.column(2).domain_size() == 8);
        assert!(r.column(4).domain_size() == 8);
        let outcomes = r.column(6).domain_size();
        assert!((5..=18).contains(&outcomes), "outcome classes: {outcomes}");
    }

    #[test]
    fn outcome_is_a_function_of_position() {
        let r = chess_relation();
        let pos = AttrSet::from_iter([0, 1, 2, 3, 4, 5]);
        let fd = Cfd::fd(pos, 6);
        assert!(satisfies(&r, &fd), "position → outcome must be an FD");
    }

    #[test]
    fn positions_are_legal_and_distinct() {
        let r = chess_relation();
        let mut seen = std::collections::HashSet::new();
        for t in r.tuples().take(5000) {
            let vals = r.tuple_values(t);
            assert!(seen.insert(vals.join("|")), "duplicate position");
            // kings not on the same or adjacent squares
            let f = |s: &str| (s.as_bytes()[0] - b'a') as i32;
            let (wkf, bkf) = (f(vals[0]), f(vals[4]));
            let (wkr, bkr) = (
                vals[1].parse::<i32>().unwrap() - 1,
                vals[5].parse::<i32>().unwrap() - 1,
            );
            assert!(!adjacent(wkf, wkr, bkf, bkr));
        }
    }

    #[test]
    fn deterministic() {
        let a = chess_relation();
        let b = chess_relation();
        assert_eq!(a.tuple_values(17), b.tuple_values(17));
        assert_eq!(a.tuple_values(28_000), b.tuple_values(28_000));
    }
}
