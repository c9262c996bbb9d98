//! Span telemetry is per registry: each run's spans land in the
//! registry attached to its own `Control`, so two concurrent
//! discoveries never see each other's spans, and a registry with spans
//! off records none.

use cfd_suite::obs::Registry;
use cfd_suite::prelude::*;

#[test]
fn concurrent_runs_keep_their_spans_apart() {
    let rel = cfd_suite::datagen::tax::TaxGenerator::new(1_000).generate();
    let opts = DiscoverOptions {
        threads: 2,
        ..DiscoverOptions::new(10)
    };
    let (traced, untraced) = (Registry::new(), Registry::new());
    traced.enable_spans();
    let covers = std::thread::scope(|s| {
        [&traced, &untraced]
            .map(|reg| {
                let (rel, opts) = (&rel, &opts);
                s.spawn(move || {
                    let ctrl = Control::default().metrics_with(reg);
                    Algo::Ctane.discover_with(rel, opts, &ctrl).unwrap().cover
                })
            })
            .map(|h| h.join().unwrap())
    });
    assert_eq!(covers[0].cfds(), covers[1].cfds());

    let sums = traced.span_summaries();
    let count = |name: &str| sums.iter().find(|s| s.name == name).map(|s| s.count);
    assert_eq!(count("discover.run"), Some(1), "{sums:?}");
    assert!(count("ctane.level").is_some_and(|c| c > 1), "{sums:?}");
    assert!(count("partition.refine").is_some_and(|c| c > 0), "{sums:?}");
    assert!(untraced.span_summaries().is_empty());
    // both runs still counted into their own registries
    for reg in [&traced, &untraced] {
        assert!(reg.snapshot().counter("discover.candidates") > Some(0));
    }
}
