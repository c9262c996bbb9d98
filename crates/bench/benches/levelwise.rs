//! The level-wise partition engine: exact and approximate CTANE, TANE
//! and CFDMiner on the synthetic tax workload, at 1/2/4 worker threads.
//!
//! What this measures: the zero-allocation refinement engine
//! (`StrippedPartition::refine_into` through a reusable scratch, bitset
//! `C⁺` sets, count-only final levels, measure-at-emission) against the
//! PR 4 baseline recorded in `BENCH_APPROX.json` — `exact/1000` there
//! is the same workload as `ctane-exact/1000 × threads-1` here — plus
//! the thread-scaling curve of the sharded level expansion.
//!
//! The recorded numbers live in `BENCH_LEVELWISE.json` at the
//! repository root; re-run with
//! `cargo bench -p cfd-bench --bench levelwise` and update the file
//! (with machine notes — thread scaling is meaningless without the
//! core count) when they move.

use cfd_core::api::{Algo, Control, DiscoverOptions};
use cfd_datagen::tax::TaxGenerator;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("levelwise");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    let ctrl = Control::default();
    for dbsize in [500usize, 1_000] {
        let rel = TaxGenerator::new(dbsize).generate();
        let k = (dbsize / 1000).max(2);
        for threads in [1usize, 2, 4] {
            // the acceptance workload: exact CTANE (BENCH_APPROX.json's
            // exact/1000 is the 1-thread point of this line)
            let exact = DiscoverOptions::new(k).threads(threads);
            let id = BenchmarkId::new(format!("ctane-exact/{dbsize}"), format!("t{threads}"));
            group.bench_with_input(id, &rel, |b, rel| {
                b.iter(|| Algo::Ctane.discover_with(rel, &exact, &ctrl).unwrap().cover)
            });
            // θ = 0.9: exercises the partition cache + keep counts
            let approx = DiscoverOptions::new(k).threads(threads).min_confidence(0.9);
            let id = BenchmarkId::new(format!("ctane-theta09/{dbsize}"), format!("t{threads}"));
            group.bench_with_input(id, &rel, |b, rel| {
                b.iter(|| {
                    Algo::Ctane
                        .discover_with(rel, &approx, &ctrl)
                        .unwrap()
                        .cover
                })
            });
        }
    }
    // the other level-wise miners, 1000-row workload only
    let rel = TaxGenerator::new(1_000).generate();
    for threads in [1usize, 4] {
        let opts = DiscoverOptions::new(2).threads(threads);
        let id = BenchmarkId::new("tane/1000", format!("t{threads}"));
        group.bench_with_input(id, &rel, |b, rel| {
            b.iter(|| Algo::Tane.discover_with(rel, &opts, &ctrl).unwrap().cover)
        });
        let id = BenchmarkId::new("cfdminer/1000", format!("t{threads}"));
        group.bench_with_input(id, &rel, |b, rel| {
            b.iter(|| {
                Algo::CfdMiner
                    .discover_with(rel, &opts, &ctrl)
                    .unwrap()
                    .cover
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
