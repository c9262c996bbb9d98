//! Proof that instrumentation is free when off: a `Control::span`
//! open/close pair with no metrics sink attached, or with a
//! [`Registry`] whose spans are off, performs **zero heap
//! allocations** and records nothing. This is the contract that lets
//! spans stay compiled into the validate kernel's family scans, the
//! partition refinements and the stream engine's batch path
//! permanently (overhead budget: DESIGN.md §10). That a disabled span
//! reads no clock is checked next to `Control::span` itself
//! (`cfd_model::progress` unit tests).
//!
//! Runs as its own integration-test binary so the counting allocator
//! can't interfere with the crate's other tests.

use cfd_model::progress::Control;
use cfd_obs::{MetricsSnapshot, Registry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by 10,000 open/close pairs of two nested spans.
fn allocations_of_10k_spans(ctrl: &Control<'_>) -> u64 {
    // Warm anything lazy (thread-local registration, test harness I/O).
    {
        let _g = ctrl.span("warmup");
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        let _g = ctrl.span("validate.family_scan");
        let _h = ctrl.span("stream.apply_batch");
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// One test, so no other test thread allocates while this one counts.
#[test]
fn disabled_spans_allocate_nothing() {
    assert_eq!(
        allocations_of_10k_spans(&Control::default()),
        0,
        "spans without a sink must not touch the heap"
    );
    let reg = Registry::new();
    let ctrl = Control::default().metrics_with(&reg);
    assert_eq!(
        allocations_of_10k_spans(&ctrl),
        0,
        "spans on a registry with spans off must not touch the heap"
    );
    assert!(reg.span_summaries().is_empty());
    assert_eq!(reg.snapshot(), MetricsSnapshot::default());
}
