//! Zero-allocation pins for the engine hot loops.
//!
//! The SoA contention core, the batched RNG draw buffer and the reused
//! scratch vectors exist so that steady-state stepping never touches
//! the heap. This test pins that property with a counting global
//! allocator: running the same scenario for horizon `H` and `2·H` must
//! perform the **same number of allocations** — everything the engine
//! allocates happens at build time or during the first steps (warmup
//! growth of reusable buffers), never per step thereafter.
//!
//! The counter is thread-local, so tests running concurrently in other
//! threads cannot perturb a measurement.

use plc_sim::multiclass::{ClassStationSpec, MultiClassConfig, MultiClassEngine};
use plc_sim::runner::Simulation;
use plc_sim::traffic::TrafficModel;
use rand::rngs::SmallRng;
use rand::SeedableRng;
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

/// Build + run the given scenario and return its allocation count.
/// Successes are asserted so a silently-idle run can't pass vacuously.
/// `per_slot` emits per-slot snapshots with no sink attached, which
/// selects the per-slot loop instead of idle fast-forward.
fn engine_allocs(horizon_us: f64, per_slot: bool) -> u64 {
    let sim = Simulation::ieee1901(10)
        .horizon_us(horizon_us)
        .seed(42)
        .snapshots(per_slot);
    let (report, count) = allocs_during(|| sim.run());
    assert!(report.successes > 0);
    count
}

#[test]
fn saturated_run_does_not_allocate_per_step() {
    // Doubling the horizon doubles the steps; if the steady-state loop
    // allocated even once per step, the counts would differ by
    // thousands. Build-time and warmup allocations are identical.
    let short = engine_allocs(1e6, false);
    let long = engine_allocs(2e6, false);
    assert_eq!(
        short, long,
        "hot loop allocated ({long} allocs at 2x horizon vs {short})"
    );
}

#[test]
fn per_slot_path_does_not_allocate_per_step() {
    let short = engine_allocs(1e6, true);
    let long = engine_allocs(2e6, true);
    assert_eq!(short, long, "per-slot path allocated per step");
}

#[test]
fn multiclass_round_does_not_allocate_per_round() {
    let run = |horizon_us: f64| {
        let (successes, count) = allocs_during(|| {
            let mut rng = SmallRng::seed_from_u64(7);
            let mut stations = Vec::new();
            for _ in 0..4 {
                stations.push(ClassStationSpec::new(
                    plc_mac::Backoff1901::new(
                        plc_core::config::CsmaConfig::ieee1901_ca01(),
                        &mut rng,
                    ),
                    plc_core::priority::Priority::CA1,
                    TrafficModel::Saturated,
                ));
            }
            let cfg = MultiClassConfig {
                horizon: plc_core::units::Microseconds(horizon_us),
                ..Default::default()
            };
            let mut engine = MultiClassEngine::new(cfg, stations, 7);
            engine.run().successes
        });
        assert!(successes > 0);
        count
    };
    let short = run(1e6);
    let long = run(2e6);
    assert_eq!(short, long, "multiclass PRS/backoff round allocated");
}
