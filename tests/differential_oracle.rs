//! Differential test oracle over the full algorithm registry.
//!
//! Every [`Algo`] runs through the unified `discover_with` API on
//! randomized small relations, and the outcomes are cross-checked
//! *semantically* through the shared validation kernel rather than by
//! cover syntax alone:
//!
//! * each algorithm's self-reported rule measures must equal an
//!   independent kernel re-measure of its cover (the kernel is the
//!   semantic reference — a miner that lies about support/violations
//!   fails here even when its cover text looks right);
//! * exact covers must kernel-validate clean (zero removals per rule);
//! * algorithms of the same capability group must agree pairwise on
//!   the *set of violating tuples* their covers flag on a
//!   noise-injected mutation of the input — the observable semantics
//!   of a cover, robust to rule order and decomposition;
//! * CFDMiner must be semantically interchangeable with the constant
//!   fragment of the general cover on the same mutated instance.
//!
//! `cfd check` and `cfd watch` both consume covers through the kernel,
//! so "the kernel sees identical behavior" is exactly the equivalence
//! that matters downstream.

use cfd_suite::datagen::noise::inject_noise;
use cfd_suite::prelude::*;
use cfd_suite::validate::measure_cover;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// An arbitrary relation: 1–12 rows, 2–4 attributes, domain ≤ 3 per
/// attribute (small enough for the brute-force member of the panel).
fn arb_relation() -> impl Strategy<Value = Relation> {
    (2usize..=4, 1usize..=12)
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

/// General CFD discoverers: same spec, so their covers must be
/// semantically interchangeable.
const GENERAL: [Algo; 4] = [Algo::Ctane, Algo::FastCfd, Algo::Naive, Algo::BruteForce];

fn discover(algo: Algo, rel: &Relation, k: usize) -> Discovery {
    algo.discover_with(rel, &DiscoverOptions::new(k), &Control::default())
        .expect("exact discovery cannot fail on a valid relation")
}

/// The observable semantics of a cover on an instance: the set of
/// tuples the kernel flags as violating *some* rule. Pair violations
/// contribute their offending tuple; the witness tuple is a reporting
/// detail that legitimately differs between equivalent covers.
fn flagged_tuples<'a, I>(rel: &Relation, cfds: I) -> BTreeSet<u32>
where
    I: IntoIterator<Item = &'a Cfd>,
{
    cfd_suite::validate::detect_violations(rel, cfds)
        .into_iter()
        .map(|(_, v)| match v {
            Violation::Single(t) => t,
            Violation::Pair(_, t) => t,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Self-reported measures equal an independent kernel re-measure,
    /// and exact covers kernel-validate clean, for every algorithm.
    #[test]
    fn every_algo_agrees_with_the_kernel_on_its_own_cover(
        rel in arb_relation(),
        k in 1usize..=2,
    ) {
        for algo in Algo::all() {
            let d = discover(algo, &rel, k);
            let kernel = measure_cover(&rel, d.cover.iter(), 1, &Control::default());
            prop_assert_eq!(
                &d.measures, &kernel,
                "{} self-reported measures disagree with the kernel", algo.name()
            );
            prop_assert!(
                kernel.iter().all(|m| m.violations == 0),
                "{} emitted a rule its own instance violates", algo.name()
            );
        }
    }

    /// The general group is pairwise semantically equivalent: on a
    /// mutated instance, every pair of covers flags the same tuples.
    #[test]
    fn general_algos_flag_identical_tuples_on_mutated_data(
        rel in arb_relation(),
        k in 1usize..=2,
        seed in 0u64..1024,
    ) {
        let (dirty, _) = inject_noise(&rel, 0.25, seed);
        let flagged: Vec<(Algo, BTreeSet<u32>)> = GENERAL
            .iter()
            .map(|&algo| {
                let d = discover(algo, &rel, k);
                (algo, flagged_tuples(&dirty, d.cover.iter()))
            })
            .collect();
        for pair in flagged.windows(2) {
            prop_assert_eq!(
                &pair[0].1, &pair[1].1,
                "{} and {} disagree on the mutated instance",
                pair[0].0.name(), pair[1].0.name()
            );
        }
    }

    /// The FD baselines are pairwise semantically equivalent on the
    /// same mutated instance.
    #[test]
    fn fd_baselines_flag_identical_tuples_on_mutated_data(
        rel in arb_relation(),
        seed in 0u64..1024,
    ) {
        let (dirty, _) = inject_noise(&rel, 0.25, seed);
        let tane = discover(Algo::Tane, &rel, 1);
        let fastfd = discover(Algo::FastFd, &rel, 1);
        prop_assert_eq!(
            flagged_tuples(&dirty, tane.cover.iter()),
            flagged_tuples(&dirty, fastfd.cover.iter()),
            "tane and fastfd disagree on the mutated instance"
        );
    }

    /// CFDMiner is semantically the constant fragment: on mutated
    /// data it flags exactly the tuples the general cover's constant
    /// rules flag.
    #[test]
    fn cfdminer_matches_the_constant_fragment_semantically(
        rel in arb_relation(),
        k in 1usize..=2,
        seed in 0u64..1024,
    ) {
        let (dirty, _) = inject_noise(&rel, 0.25, seed);
        let miner = discover(Algo::CfdMiner, &rel, k);
        let general = discover(Algo::FastCfd, &rel, k);
        let fragment = general.cover.constant_cover();
        prop_assert_eq!(
            flagged_tuples(&dirty, miner.cover.iter()),
            flagged_tuples(&dirty, fragment.iter()),
            "cfdminer diverges from the general cover's constant fragment"
        );
    }
}
