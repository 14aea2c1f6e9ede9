//! Byte-identity pins for the idle-slot fast-forward.
//!
//! The engine's run loop absorbs runs of guaranteed-idle slots in one
//! jump (see `SlottedEngine::run`). Attaching an observer forces the
//! per-slot loop instead, since observers need every step materialized;
//! observers are read-only, so one at interval `u64::MAX` (it never
//! fires) turns the same simulation into its per-slot reference. The
//! optimization claims *exactness*: the event trace, the metrics struct
//! and the sweep JSON export are byte-for-byte identical on both loops —
//! not statistically close, identical. These tests pin that claim across
//! every feature that interacts with the skip bound: both protocols,
//! beacons, impulse noise, unsaturated traffic, PB errors, bursts, and
//! the multi-class engine's PRS-aware variant. A property test drives
//! randomized beacon and noise schedules through both loops.

use parking_lot::Mutex;
use plc_faults::NoiseBurst;
use plc_sim::bursting::BurstPolicy;
use plc_sim::runner::{SimReport, Simulation};
use plc_sim::trace::{TraceEvent, VecTraceSink};
use plc_sim::traffic::TrafficModel;
use proptest::prelude::*;
use std::sync::Arc;

/// An observer that never fires: attached at interval `u64::MAX`, it
/// only forces the engine onto its per-slot loop.
struct Stepper;

impl plc_obs::Observer for Stepper {}

/// `sim` on the per-slot loop.
fn per_slot(sim: Simulation) -> Simulation {
    sim.observer(plc_obs::shared(Stepper), u64::MAX)
}

/// Run `sim` twice — as is (fast-forward) and on the per-slot loop — and
/// assert the reports and full event traces match exactly. Returns the
/// (shared) report.
fn assert_ff_equivalent(sim: Simulation) -> (SimReport, Vec<TraceEvent>) {
    let fast_sink = Arc::new(Mutex::new(VecTraceSink::new()));
    let slow_sink = Arc::new(Mutex::new(VecTraceSink::new()));
    let fast = sim.clone().sink(fast_sink.clone()).run();
    let slow = per_slot(sim).sink(slow_sink.clone()).run();
    assert_eq!(fast, slow, "reports must be identical");
    let fast_events = std::mem::take(&mut fast_sink.lock().events);
    let slow_events = &slow_sink.lock().events;
    assert_eq!(
        fast_events.len(),
        slow_events.len(),
        "event counts must match"
    );
    for (i, (a, b)) in fast_events.iter().zip(slow_events.iter()).enumerate() {
        assert_eq!(a, b, "event {i} diverged");
    }
    (fast, fast_events)
}

#[test]
fn equivalent_1901_single_station() {
    // N = 1 is the best case for the fast path: every backoff is a pure
    // idle run. The trace must still be identical slot for slot.
    let (report, events) = assert_ff_equivalent(Simulation::ieee1901(1).horizon_us(2e6).seed(1));
    assert!(report.successes > 0);
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::IdleSlot { .. })));
}

#[test]
fn equivalent_1901_contending() {
    let (report, _) = assert_ff_equivalent(Simulation::ieee1901(3).horizon_us(2e6).seed(2));
    assert!(report.collided_tx > 0, "3 stations must collide");
}

#[test]
fn equivalent_dcf() {
    let (report, _) = assert_ff_equivalent(Simulation::dcf(2).horizon_us(2e6).seed(3));
    assert!(report.successes > 0);
}

#[test]
fn equivalent_with_beacons() {
    let (report, events) = assert_ff_equivalent(
        Simulation::ieee1901(2)
            .horizon_us(2e6)
            .seed(4)
            .beacons(plc_sim::engine::BeaconSchedule::standard_50hz()),
    );
    assert!(report.metrics.beacons > 0, "beacons must fire");
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::Beacon { .. })));
}

#[test]
fn equivalent_with_noise() {
    let noise = vec![
        NoiseBurst {
            start_us: 1e5,
            duration_us: 5e4,
        },
        NoiseBurst {
            start_us: 9e5,
            duration_us: 2e5,
        },
    ];
    let (report, _) =
        assert_ff_equivalent(Simulation::ieee1901(2).horizon_us(2e6).seed(5).noise(noise));
    let errored: u64 = report
        .metrics
        .per_station
        .iter()
        .map(|s| s.pbs_errored)
        .sum();
    assert!(errored > 0, "noise bursts must corrupt PBs");
}

#[test]
fn equivalent_poisson_traffic() {
    // Unsaturated stations exercise the next-arrival clamp: the skip must
    // stop exactly where advance_to would enqueue a frame.
    let (report, _) =
        assert_ff_equivalent(Simulation::ieee1901(3).horizon_us(2e6).seed(6).traffic(
            TrafficModel::Poisson {
                rate_per_us: 2e-4,
                queue_cap: 16,
            },
        ));
    assert!(report.successes > 0);
}

#[test]
fn equivalent_pb_errors_and_bursts() {
    let (report, _) = assert_ff_equivalent(
        Simulation::ieee1901(2)
            .horizon_us(2e6)
            .seed(7)
            .pb_error_prob(0.1)
            .burst(BurstPolicy::INT6300),
    );
    let errored: u64 = report
        .metrics
        .per_station
        .iter()
        .map(|s| s.pbs_errored)
        .sum();
    assert!(errored > 0);
}

#[test]
fn equivalent_everything_at_once() {
    let (report, _) = assert_ff_equivalent(
        Simulation::ieee1901(3)
            .horizon_us(3e6)
            .seed(8)
            .beacons(plc_sim::engine::BeaconSchedule::standard_50hz())
            .noise([NoiseBurst {
                start_us: 5e5,
                duration_us: 1e5,
            }])
            .pb_error_prob(0.05)
            .burst(BurstPolicy::INT6300)
            .traffic(TrafficModel::OnOff {
                rate_per_us: 5e-4,
                mean_on_us: 2e5,
                mean_off_us: 1e5,
                queue_cap: 8,
            }),
    );
    assert!(report.metrics.beacons > 0);
}

#[test]
fn sweep_json_is_byte_identical() {
    use plc_sim::sweep::SweepGrid;
    let json = |ff: bool| {
        let loop_of = |sim: Simulation| if ff { sim } else { per_slot(sim) };
        SweepGrid::new(11)
            .config("1901", loop_of(Simulation::ieee1901(2).horizon_us(5e5)))
            .config("dcf", loop_of(Simulation::dcf(2).horizon_us(5e5)))
            .stations([1, 2, 5])
            .replications(2)
            .workers(2)
            .run()
            .to_json()
    };
    assert_eq!(json(true), json(false), "sweep JSON must not change");
}

/// A process that opts out of idle skipping: it delegates every method
/// to the wrapped process except `idle_skip`, which keeps the trait
/// default `None`. Any contention round with such a station backlogged
/// runs slot by slot, so wrapping every station gives the multi-class
/// engine's per-slot reference.
struct NoSkip<P>(P);

impl<P: plc_mac::BackoffProcess> plc_mac::BackoffProcess for NoSkip<P> {
    fn wants_tx(&self) -> bool {
        self.0.wants_tx()
    }
    fn on_idle_slot(&mut self, rng: &mut dyn rand::RngCore) {
        self.0.on_idle_slot(rng)
    }
    fn on_busy(&mut self, rng: &mut dyn rand::RngCore) {
        self.0.on_busy(rng)
    }
    fn on_tx_success(&mut self, rng: &mut dyn rand::RngCore) {
        self.0.on_tx_success(rng)
    }
    fn on_tx_failure(&mut self, rng: &mut dyn rand::RngCore) {
        self.0.on_tx_failure(rng)
    }
    fn reset(&mut self, rng: &mut dyn rand::RngCore) {
        self.0.reset(rng)
    }
    fn consume_idle_slots(&mut self, n: u32) {
        self.0.consume_idle_slots(n)
    }
    fn soa_view(&self) -> plc_mac::SoaView {
        self.0.soa_view()
    }
    fn protocol(&self) -> plc_mac::Protocol {
        self.0.protocol()
    }
    fn snapshot(&self) -> plc_mac::BackoffSnapshot {
        self.0.snapshot()
    }
}

#[test]
fn multiclass_prs_equivalence() {
    use plc_core::config::CsmaConfig;
    use plc_core::priority::Priority;
    use plc_mac::{Backoff1901, BackoffProcess};
    use plc_sim::multiclass::{ClassStationSpec, MultiClassConfig, MultiClassEngine};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn run<P: BackoffProcess>(
        wrap: impl Fn(Backoff1901) -> P,
    ) -> (plc_sim::Metrics, Vec<TraceEvent>) {
        let mut rng = SmallRng::seed_from_u64(21);
        let mut stations = Vec::new();
        for _ in 0..2 {
            stations.push(ClassStationSpec::new(
                wrap(Backoff1901::new(CsmaConfig::ieee1901_ca01(), &mut rng)),
                Priority::CA1,
                TrafficModel::Saturated,
            ));
        }
        stations.push(ClassStationSpec::new(
            wrap(Backoff1901::new(CsmaConfig::ieee1901_ca23(), &mut rng)),
            Priority::CA2,
            TrafficModel::Poisson {
                rate_per_us: 1e-5,
                queue_cap: 8,
            },
        ));
        let cfg = MultiClassConfig {
            horizon: plc_core::units::Microseconds(2e6),
            ..Default::default()
        };
        let sink = Arc::new(Mutex::new(VecTraceSink::new()));
        let mut engine = MultiClassEngine::new(cfg, stations, 21);
        engine.add_sink(sink.clone());
        engine.run();
        let events = std::mem::take(&mut sink.lock().events);
        (engine.metrics().clone(), events)
    }
    let (fast_metrics, fast_events) = run(|p| p);
    let (slow_metrics, slow_events) = run(NoSkip);
    assert_eq!(fast_metrics, slow_metrics, "multiclass metrics diverged");
    assert_eq!(
        fast_events.len(),
        slow_events.len(),
        "multiclass event counts diverged"
    );
    assert!(
        fast_metrics.idle_slots > 1000,
        "the run must have idle slots for the skip to absorb"
    );
    for (i, (a, b)) in fast_events.iter().zip(slow_events.iter()).enumerate() {
        assert_eq!(a, b, "multiclass event {i} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized beacon/noise schedules: the fast path must stop at
    /// every beacon and noise edge exactly where the per-slot loop does, so
    /// traces, beacon counts and PB error totals all agree.
    #[test]
    fn skips_never_jump_past_beacon_or_noise_edges(
        seed in 0u64..1000,
        n in 1usize..4,
        beacon_period in 2e4f64..8e4,
        beacon_air in 1e2f64..2e3,
        noise_start in 0f64..4e5,
        noise_len in 1e3f64..1e5,
        gap in 1e3f64..1e5,
    ) {
        let noise = vec![
            NoiseBurst { start_us: noise_start, duration_us: noise_len },
            NoiseBurst { start_us: noise_start + noise_len + gap, duration_us: noise_len },
        ];
        let sim = Simulation::ieee1901(n)
            .horizon_us(5e5)
            .seed(seed)
            .beacons(plc_sim::engine::BeaconSchedule {
                period: plc_core::units::Microseconds(beacon_period),
                duration: plc_core::units::Microseconds(beacon_air),
            })
            .noise(noise);
        let fast_sink = Arc::new(Mutex::new(VecTraceSink::new()));
        let slow_sink = Arc::new(Mutex::new(VecTraceSink::new()));
        let fast = sim.clone().sink(fast_sink.clone()).run();
        let slow = per_slot(sim).sink(slow_sink.clone()).run();
        prop_assert_eq!(&fast.metrics, &slow.metrics);
        prop_assert_eq!(fast.metrics.beacons, slow.metrics.beacons);
        let fe = std::mem::take(&mut fast_sink.lock().events);
        let se = std::mem::take(&mut slow_sink.lock().events);
        prop_assert_eq!(fe, se);
    }
}
