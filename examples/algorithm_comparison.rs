//! Algorithm comparison on one workload — a miniature of the paper's
//! Section 6 evaluation, runnable in seconds.
//!
//! Iterates the whole [`Algo`] registry (minus the brute-force oracle,
//! which refuses non-toy instances) over the same synthetic tax
//! relation through the unified `Algo` entry point, reports wall-clock
//! times, search counters and cover sizes, and verifies that every
//! general algorithm returns the identical canonical cover.
//!
//! ```sh
//! cargo run --release --example algorithm_comparison
//! ```

use cfd_suite::datagen::tax::TaxGenerator;
use cfd_suite::prelude::*;

fn main() {
    let dbsize = 3_000;
    let rel = TaxGenerator::new(dbsize).generate();
    let k = dbsize / 1000; // SUP% = 0.1%, as in Fig. 5
    println!(
        "workload: tax {} × {}, k = {k} (SUP% = 0.1%)\n",
        rel.n_rows(),
        rel.arity()
    );

    let opts = DiscoverOptions::new(k);
    let ctrl = Control::default();
    println!(
        "{:<12} {:>10} {:>8} {:>8} {:>12} {:>10}",
        "algorithm", "time (s)", "const", "var", "candidates", "pruned"
    );
    let mut results: Vec<Discovery> = Vec::new();
    for algo in Algo::all() {
        if algo == Algo::BruteForce {
            continue; // the oracle is for toy instances only
        }
        let d = algo.discover_with(&rel, &opts, &ctrl).unwrap();
        let (c, v) = d.cover.counts();
        println!(
            "{:<12} {:>10.3} {c:>8} {v:>8} {:>12} {:>10}",
            algo.name(),
            d.total_time().as_secs_f64(),
            d.stats.candidates,
            d.stats.pruned,
        );
        for note in &d.notes {
            println!("  note: {note}");
        }
        results.push(d);
    }

    let by = |algo: Algo| -> &Discovery {
        results
            .iter()
            .find(|d| d.algo == algo)
            .expect("algo in matrix")
    };
    // all general algorithms agree…
    let fast = by(Algo::FastCfd);
    assert_eq!(by(Algo::Ctane).cover.cfds(), fast.cover.cfds());
    assert_eq!(by(Algo::Naive).cover.cfds(), fast.cover.cfds());
    // …CFDMiner is the constant fragment…
    assert_eq!(
        by(Algo::CfdMiner).cover.cfds(),
        fast.cover.constant_cover().cfds()
    );
    // …and the FD baselines match the all-wildcard fragment at k ≤ |r|
    let fd_fragment = Algo::FastCfd
        .discover_with(&rel, &DiscoverOptions::new(1), &ctrl)
        .unwrap()
        .cover
        .plain_fd_cover();
    assert_eq!(by(Algo::Tane).cover.cfds(), by(Algo::FastFd).cover.cfds());
    assert_eq!(by(Algo::Tane).cover.cfds(), fd_fragment.cfds());
    println!("\nall algorithms agree on the canonical cover ✓");
}
