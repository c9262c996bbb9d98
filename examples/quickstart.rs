//! Quickstart: discover the CFDs of the paper's running example.
//!
//! Builds the `cust` relation of Fig. 1, runs discovery through the
//! unified `Algo` entry point, and prints the canonical cover in the
//! stable wire-format.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cfd_suite::datagen::cust::cust_relation;
use cfd_suite::prelude::*;

fn main() {
    let rel = cust_relation();
    println!("The cust relation of Fig. 1 ({} tuples):", rel.n_rows());
    println!("{rel:?}");

    let opts = DiscoverOptions::new(2); // patterns must match ≥ 2 tuples
    let ctrl = Control::default();

    // CFDMiner: constant CFDs only (object-identification rules)
    let constants = Algo::CfdMiner.discover_with(&rel, &opts, &ctrl).unwrap();
    println!(
        "CFDMiner — {} minimal {}-frequent constant CFDs in {:.2?}:",
        constants.cover.len(),
        opts.k,
        constants.total_time(),
    );
    print!("{}", constants.cover.to_text(&rel));

    // FastCFD: the full canonical cover (constant + variable CFDs)
    let fast = Algo::FastCfd.discover_with(&rel, &opts, &ctrl).unwrap();
    let (n_const, n_var) = fast.cover.counts();
    println!("\nFastCFD — canonical cover ({n_const} constant + {n_var} variable):");
    print!("{}", fast.cover.to_text(&rel));

    // CTANE produces the same cover by a level-wise search — and the
    // structured outcome says how hard each algorithm worked
    let ctane = Algo::Ctane.discover_with(&rel, &opts, &ctrl).unwrap();
    assert_eq!(
        ctane.cover.cfds(),
        fast.cover.cfds(),
        "CTANE and FastCFD agree"
    );
    println!(
        "\nCTANE agrees on all {} rules ({} candidate tests, {} partitions; \
         FastCFD tested {} covers over {} difference-set families).",
        fast.cover.len(),
        ctane.stats.candidates,
        ctane.stats.partitions,
        fast.stats.candidates,
        fast.stats.diff_set_families,
    );

    // every discovered rule really holds
    assert!(satisfies_cover(&rel, fast.cover.iter()));
    // CFDMiner is exactly the constant fragment
    assert_eq!(constants.cover.cfds(), fast.cover.constant_cover().cfds());
    // and the wire-format round-trips: what discover prints, check parses
    let text = fast.cover.to_text(&rel);
    assert_eq!(
        CanonicalCover::from_text(&rel, &text).unwrap().cfds(),
        fast.cover.cfds()
    );
    println!("All rules verified against the instance; wire-format round-trips.");
}
