//! The records of data cleaning — what a violation scan reports and
//! what a repair suggests.
//!
//! Discovery produces rules; cleaning *applies* them by locating the
//! tuples of a (dirty) instance that falsify each rule. As Example 3 of
//! the paper notes, a CFD with a constant RHS pattern can be violated by a
//! single tuple, while the embedded FD needs a pair of tuples.
//!
//! The validation kernel (`cfd-validate`) and the per-rule referee
//! ([`crate::oracle`]) both produce these types, so their answers
//! compare directly.

use crate::relation::TupleId;
use crate::schema::AttrId;

/// One violation of a CFD in an instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Violation {
    /// Tuple matches the LHS pattern but its RHS value is not `⪯` the RHS
    /// pattern constant.
    Single(TupleId),
    /// Two tuples agree (and match) on the LHS but differ on the RHS —
    /// a violation of the embedded FD.
    Pair(TupleId, TupleId),
}

/// One suggested cell edit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Repair {
    /// The tuple to edit.
    pub tuple: TupleId,
    /// The attribute to edit (the rule's RHS attribute).
    pub attr: AttrId,
    /// The current (offending) dictionary code.
    pub current: u32,
    /// The suggested dictionary code.
    pub suggested: u32,
}
