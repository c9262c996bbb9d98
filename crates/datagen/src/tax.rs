//! The synthetic Tax/cust-style generator of Section 6.1.
//!
//! The paper evaluates scalability on synthetic relations "generated by
//! populating the database with data used in \[1\] via a generator" taking
//! three parameters: `ARITY` (number of columns), `DBSIZE` (number of
//! rows) and a *correlation factor* `CF` — "the average range of distinct
//! values in an attribute domain is CF · DBSIZE". Since the original
//! generator (and its web-scraped seed data) is unavailable, this module
//! rebuilds it from the published description:
//!
//! * the first seven attributes follow the cust schema of Fig. 1
//!   (CC, AC, PN, NM, STR, CT, ZIP) with code-like small domains for
//!   CC/AC/CT/ZIP and CF-scaled large domains for PN/NM/STR;
//! * additional attributes (up to `ARITY`) cycle through three roles —
//!   *derived* (a function of an earlier column: plants FDs), *conditional*
//!   (a function of an earlier column only under a guard value of a
//!   small-domain column: plants genuine variable CFDs), and *independent*
//!   (noise over a CF-scaled domain);
//! * small code-like attributes draw Zipf-skewed values (so k-frequent
//!   constant patterns exist at the paper's SUP% = 0.1% threshold), while
//!   *independent* attributes draw uniformly over their `CF · DBSIZE`
//!   domain — FastFD's convention \[14\], which the paper's generator
//!   inherits; lowering `CF` then directly multiplies duplicate counts
//!   and frequent item sets, reproducing the Fig. 10 effect (CTANE
//!   degrades as CF drops).
//!
//! Everything is deterministic in the seed.

use cfd_model::relation::{Relation, RelationBuilder};
use cfd_model::schema::Schema;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Write};

/// splitmix64 — cheap deterministic mixing for derived columns.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zipf(s = 1) sampler over `0..n` via a precomputed CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / (i as f64 + 1.0);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> u32 {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u) as u32
    }
}

/// The role of a generated attribute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    /// Small code-like domain, Zipf-skewed (CC-like).
    SmallCode { domain: usize },
    /// CF-scaled large domain, uniform draws, independent (FastFD's
    /// synthetic-data convention).
    Independent,
    /// Exact function of `parent` over a moderate domain — plants the FD
    /// `parent → self`.
    Derived { parent: usize, domain: usize },
    /// Function of `parent` when the guard column carries its guard
    /// value, independent otherwise — plants the variable CFD
    /// `([guard, parent] → self, (guard_val, _ ‖ _))`.
    Conditional {
        parent: usize,
        guard: usize,
        guard_val: u32,
        domain: usize,
    },
}

/// Generator for Tax-style synthetic relations (`ARITY`, `DBSIZE`, `CF`).
#[derive(Clone, Debug)]
pub struct TaxGenerator {
    /// Number of attributes (7 ≤ arity ≤ 64).
    pub arity: usize,
    /// Number of rows.
    pub dbsize: usize,
    /// Correlation factor: large attribute domains have ≈ `cf · dbsize`
    /// distinct values.
    pub cf: f64,
    /// RNG seed; identical parameters + seed reproduce the instance.
    pub seed: u64,
}

impl TaxGenerator {
    /// A generator with the paper's fixed-parameter defaults
    /// (`ARITY = 7`, `CF = 0.7`).
    pub fn new(dbsize: usize) -> TaxGenerator {
        TaxGenerator {
            arity: 7,
            dbsize,
            cf: 0.7,
            seed: 0x5eed,
        }
    }

    /// Sets the arity.
    pub fn arity(mut self, arity: usize) -> TaxGenerator {
        self.arity = arity;
        self
    }

    /// Sets the correlation factor.
    pub fn cf(mut self, cf: f64) -> TaxGenerator {
        self.cf = cf;
        self
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> TaxGenerator {
        self.seed = seed;
        self
    }

    fn schema(&self) -> Schema {
        let base = ["CC", "AC", "PN", "NM", "STR", "CT", "ZIP"];
        let names: Vec<String> = (0..self.arity)
            .map(|i| {
                if i < base.len() {
                    base[i].to_string()
                } else {
                    format!("A{i:02}")
                }
            })
            .collect();
        Schema::new(names).expect("generator arities are validated")
    }

    fn roles(&self) -> Vec<Role> {
        let big = ((self.cf * self.dbsize as f64) as usize).max(4);
        let mid = (big / 16).clamp(3, 2048);
        // parents always precede their column: rows are generated
        // left-to-right
        let mut roles = vec![
            Role::SmallCode { domain: 2 },  // CC
            Role::SmallCode { domain: 24 }, // AC
            Role::Independent,              // PN
            Role::Independent,              // NM
            Role::Conditional {
                parent: 3,
                guard: 0,
                guard_val: 1,
                domain: mid,
            }, // STR = f(NM) | CC="v1"
            Role::Derived {
                parent: 1,
                domain: 64,
            }, // CT = f(AC)
            Role::Derived {
                parent: 5,
                domain: mid,
            }, // ZIP = f(CT)
        ];
        // extension attributes cycle through the three roles; parents point
        // a few columns back so dependencies chain across the relation
        for i in 7..self.arity {
            let role = match i % 3 {
                0 => Role::Derived {
                    parent: i - 3,
                    domain: mid,
                },
                1 => Role::Conditional {
                    parent: i - 2,
                    guard: 1,
                    guard_val: (i % 7) as u32,
                    domain: mid,
                },
                _ => Role::Independent,
            };
            roles.push(role);
        }
        roles.truncate(self.arity);
        roles
    }

    /// Streams every generated row (as dictionary codes, in row order)
    /// through `f`, stopping at the first error. One `arity`-wide buffer
    /// is reused for all rows, so memory stays O(arity) regardless of
    /// `dbsize` — this is the core both [`generate`](Self::generate)
    /// (materialize) and [`write_csv`](Self::write_csv) (stream to disk)
    /// are built on.
    pub fn try_for_each_row<E>(&self, mut f: impl FnMut(&[u32]) -> Result<(), E>) -> Result<(), E> {
        assert!(
            self.arity >= 7,
            "tax schema needs at least the 7 base attributes"
        );
        assert!(self.arity <= 64, "arity is capped at 64 attributes");
        assert!(self.dbsize >= 1, "dbsize must be positive");
        assert!(self.cf > 0.0 && self.cf <= 1.0, "cf must be in (0, 1]");

        let roles = self.roles();
        let big = ((self.cf * self.dbsize as f64) as usize).max(4);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let small_zipfs: Vec<Option<Zipf>> = roles
            .iter()
            .map(|r| match *r {
                Role::SmallCode { domain } => Some(Zipf::new(domain)),
                _ => None,
            })
            .collect();

        let mut row = vec![0u32; self.arity];
        let salt = mix(self.seed);
        for _ in 0..self.dbsize {
            for (a, role) in roles.iter().enumerate() {
                row[a] = match *role {
                    Role::SmallCode { .. } => small_zipfs[a]
                        .as_ref()
                        .expect("zipf for small code")
                        .sample(&mut rng),
                    Role::Independent => rng.gen_range(0..big as u32),
                    Role::Derived { parent, domain } => {
                        (mix(row[parent] as u64 ^ (a as u64) << 32 ^ salt) % domain as u64) as u32
                    }
                    Role::Conditional {
                        parent,
                        guard,
                        guard_val,
                        domain,
                    } => {
                        if row[guard] == guard_val {
                            (mix(row[parent] as u64 ^ (a as u64) << 32 ^ salt) % domain as u64)
                                as u32
                        } else {
                            rng.gen_range(0..domain as u32)
                        }
                    }
                };
            }
            f(&row)?;
        }
        Ok(())
    }

    /// Streams every generated row through `f` (infallible variant of
    /// [`try_for_each_row`](Self::try_for_each_row)).
    pub fn for_each_row(&self, mut f: impl FnMut(&[u32])) {
        let result = self.try_for_each_row::<std::convert::Infallible>(|row| {
            f(row);
            Ok(())
        });
        let Ok(()) = result;
    }

    /// Generates the relation.
    pub fn generate(&self) -> Relation {
        let mut b = RelationBuilder::new(self.schema());
        b.reserve(self.dbsize);
        self.for_each_row(|row| b.push_coded_row(row).expect("row width matches schema"));
        b.finish()
    }

    /// Streams the instance as CSV straight to `w`, without ever
    /// materializing the relation: header (the schema's attribute
    /// names), then one `v{code}` field per cell — byte-identical to
    /// `relation_to_csv_string(&self.generate())` (the builder keeps
    /// dictionaries dense, so code `c` always renders as `v{c}`; none of
    /// the emitted fields need CSV quoting). Memory stays O(arity), so
    /// million-row files can be written on a small heap. Wrap `w` in a
    /// `BufWriter` — one `write!` per field is issued.
    pub fn write_csv<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let schema = self.schema();
        for a in 0..self.arity {
            if a > 0 {
                w.write_all(b",")?;
            }
            w.write_all(schema.name(a).as_bytes())?;
        }
        w.write_all(b"\n")?;
        self.try_for_each_row(|row| {
            for (a, &code) in row.iter().enumerate() {
                if a > 0 {
                    w.write_all(b",")?;
                }
                write!(w, "v{code}")?;
            }
            w.write_all(b"\n")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::attrset::AttrSet;
    use cfd_model::cfd::Cfd;
    use cfd_model::oracle::satisfies;
    use cfd_model::pattern::{PVal, Pattern};

    #[test]
    fn deterministic_in_seed() {
        let a = TaxGenerator::new(500).generate();
        let b = TaxGenerator::new(500).generate();
        assert_eq!(a.n_rows(), 500);
        for t in a.tuples() {
            assert_eq!(a.tuple_values(t), b.tuple_values(t));
        }
        let c = TaxGenerator::new(500).seed(7).generate();
        let differs = a.tuples().any(|t| a.tuple_values(t) != c.tuple_values(t));
        assert!(differs, "different seeds should differ");
    }

    #[test]
    fn planted_fd_holds() {
        // CT = f(AC): the FD AC → CT must hold by construction
        let r = TaxGenerator::new(2000).generate();
        let ac = r.schema().attr_id("AC").unwrap();
        let ct = r.schema().attr_id("CT").unwrap();
        let fd = Cfd::fd(AttrSet::singleton(ac), ct);
        assert!(satisfies(&r, &fd));
        // ZIP = f(CT)
        let zip = r.schema().attr_id("ZIP").unwrap();
        assert!(satisfies(&r, &Cfd::fd(AttrSet::singleton(ct), zip)));
    }

    #[test]
    fn planted_conditional_rule_holds_and_unconditional_does_not() {
        let r = TaxGenerator::new(4000).generate();
        let cc = r.schema().attr_id("CC").unwrap();
        let nm = r.schema().attr_id("NM").unwrap();
        let s = r.schema().attr_id("STR").unwrap();
        // for CC = code 1: STR = f(NM) ⇒ ([CC,NM] → STR, (1, _ ‖ _))
        let cond = Cfd::variable(
            Pattern::from_pairs([(cc, PVal::Const(1)), (nm, PVal::Var)]),
            s,
        );
        assert!(satisfies(&r, &cond), "guarded rule must hold");
        // without the guard the rule must fail on a relation this size
        let uncond = Cfd::variable(Pattern::from_pairs([(nm, PVal::Var)]), s);
        assert!(!satisfies(&r, &uncond), "unguarded rule must fail");
    }

    #[test]
    fn cf_controls_distinctness() {
        let lo = TaxGenerator::new(3000).cf(0.3).generate();
        let hi = TaxGenerator::new(3000).cf(0.7).generate();
        let pn = lo.schema().attr_id("PN").unwrap();
        assert!(
            lo.column(pn).domain_size() < hi.column(pn).domain_size(),
            "lower CF ⇒ fewer distinct values"
        );
    }

    #[test]
    fn arity_extension() {
        let r = TaxGenerator::new(300).arity(13).generate();
        assert_eq!(r.arity(), 13);
        assert_eq!(r.schema().name(12), "A12");
        // derived extension attribute (index 9 ⇒ role Derived{parent 6})
        let fd = Cfd::fd(AttrSet::singleton(6), 9);
        assert!(satisfies(&r, &fd));
    }

    #[test]
    #[should_panic(expected = "at least the 7 base attributes")]
    fn too_small_arity_panics() {
        let _ = TaxGenerator::new(10).arity(3).generate();
    }

    #[test]
    fn streamed_csv_matches_materialized_relation() {
        use cfd_model::csv::relation_to_csv_string;
        let gen = TaxGenerator::new(400).arity(9).cf(0.5).seed(42);
        let mut streamed = Vec::new();
        gen.write_csv(&mut streamed).unwrap();
        let materialized = relation_to_csv_string(&gen.generate());
        assert_eq!(String::from_utf8(streamed).unwrap(), materialized);
    }

    #[test]
    fn write_csv_surfaces_io_errors() {
        struct Full;
        impl std::io::Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        assert!(TaxGenerator::new(10).write_csv(&mut Full).is_err());
    }

    #[test]
    fn zipf_is_skewed() {
        let mut rng = StdRng::seed_from_u64(1);
        let z = Zipf::new(100);
        let mut counts = vec![0u32; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > 500, "head value should be common");
    }
}
