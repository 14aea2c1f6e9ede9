//! Allocation pin for the drift-DTMC delay walk.
//!
//! [`delay_summary`] keeps two stage buffers and folds the walk into its
//! moments and quantiles as it goes, so its allocations happen once per
//! call, never per slot. This test pins that with a counting global
//! allocator: walking 10³ and 10⁵ slots must perform the **same number
//! of allocations**.
//!
//! The counter is thread-local, so tests running concurrently in other
//! threads cannot perturb a measurement.

use plc_analysis::{delay_summary, DelaySummary, MeanFieldModel};
use plc_core::config::{CsmaConfig, DC_DISABLED};
use plc_core::timing::MacTiming;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations performed by `f` on this thread.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(|c| c.get());
    let out = f();
    (out, ALLOCS.with(|c| c.get()) - before)
}

fn summary_allocs(config: &CsmaConfig, n: usize, max_slots: usize) -> (DelaySummary, u64) {
    let sol = MeanFieldModel::single(config.clone(), n).solve().unwrap();
    let class = &sol.classes[0];
    let timing = MacTiming::paper_default();
    allocs_during(|| {
        delay_summary(
            config,
            class.tau,
            class.collision_probability,
            n,
            &timing,
            max_slots,
        )
    })
}

#[test]
fn delay_summary_does_not_allocate_per_slot() {
    // Walks that still absorb mass at slot 10⁵, so the long call really
    // walks a hundred times more slots: the capped `cw4-g1-dcoff` walk
    // of the default boost space, and CA1 at heavy contention.
    let capped = CsmaConfig::from_vectors(&[4; 4], &[DC_DISABLED; 4]).unwrap();
    for (config, n) in [(capped, 30), (CsmaConfig::ieee1901_ca01(), 200)] {
        let (short, short_allocs) = summary_allocs(&config, n, 1_000);
        let (long, long_allocs) = summary_allocs(&config, n, 100_000);
        assert!(
            long.truncated_mass < short.truncated_mass,
            "N={n}: the long walk must absorb more mass"
        );
        assert_eq!(
            short_allocs, long_allocs,
            "N={n}: delay_summary allocates per slot ({short_allocs} allocations \
             for 10³ slots vs {long_allocs} for 10⁵)"
        );
    }
}
