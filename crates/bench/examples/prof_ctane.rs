//! Quick phase profile of exact CTANE on the tax workload.
use cfd_core::api::{Algo, Control, DiscoverOptions};
use cfd_datagen::tax::TaxGenerator;
use std::time::Instant;

fn main() {
    let rel = TaxGenerator::new(1000).generate();
    let opts = DiscoverOptions::new(2);
    let t = Instant::now();
    let d = Algo::Ctane
        .discover_with(&rel, &opts, &Control::default())
        .unwrap();
    println!("total {:?}  rules {}", t.elapsed(), d.cover.len());
    for p in &d.stats.phases {
        println!("  phase {} {:?}", p.name, p.duration);
    }
    println!(
        "candidates {} partitions {} pruned {}",
        d.stats.candidates, d.stats.partitions, d.stats.pruned
    );
}
