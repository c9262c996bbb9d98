//! Criterion micro-benchmark for Fig. 5: runtime vs DBSIZE on the
//! synthetic tax workload (ARITY = 7, CF = 0.7, SUP% = 0.1%), one group
//! per algorithm — the group list is driven by the `Algo` registry, so
//! a newly registered CFD algorithm shows up here automatically. Scaled
//! to criterion-friendly sizes; the full sweep lives in
//! `cargo run --release -p cfd-bench --bin experiments -- fig5`.

use cfd_core::api::{Algo, Control, DiscoverOptions};
use cfd_datagen::tax::TaxGenerator;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig05_dbsize");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    let ctrl = Control::default();
    for dbsize in [500usize, 1_000, 2_000] {
        let rel = TaxGenerator::new(dbsize).generate();
        let k = (dbsize / 1000).max(2);
        // every CFD algorithm in the registry, at the figure's k
        for algo in Algo::all() {
            if algo.fds_only() || algo == Algo::BruteForce {
                continue; // FD baselines have their own bench; the oracle is for tests
            }
            let opts = DiscoverOptions::new(k);
            group.bench_with_input(BenchmarkId::new(algo.name(), dbsize), &rel, |b, rel| {
                b.iter(|| algo.discover_with(rel, &opts, &ctrl).unwrap().cover)
            });
        }
        // CFDMiner at the paper's second operating point (k = 2)
        let opts2 = DiscoverOptions::new(2);
        group.bench_with_input(BenchmarkId::new("cfdminer-k2", dbsize), &rel, |b, rel| {
            b.iter(|| {
                Algo::CfdMiner
                    .discover_with(rel, &opts2, &ctrl)
                    .unwrap()
                    .cover
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
