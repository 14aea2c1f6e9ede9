//! Byte-identity golden of the single-class slotted engine.
//!
//! Every case runs one [`Simulation`] (or one sweep grid) and stores a
//! 64-bit FNV-1a hash of the `SimReport` Debug rendering and of the full
//! event trace (the Debug rendering of every event, one per line), plus
//! the event count. Observer cases also hash every `EngineObs` snapshot;
//! sweep cases hash the JSON export. Any diff means the engine changed
//! behaviour: its RNG draw order, its float accumulation order, or what
//! it emits.
//!
//! The cases cover both protocols, per-slot snapshots, observers,
//! beacons, impulse noise, PB errors, bursts, retry-limit drops,
//! unsaturated traffic, every run-loop variant (trace sinks, registry
//! instrumentation, an installed-but-unfired cancel token, per-slot
//! stepping forced by an observer) and 48 fixed-seed random populations.
//!
//! The golden was blessed while the engine still carried a second,
//! per-object contention path and the `soa`/`fast_forward` knobs that
//! selected it; at bless time every case was also required to render
//! identically under all four `(soa, fast_forward)` modes. It thus pins
//! the remaining struct-of-arrays + fast-forward engine to what both
//! reference paths produced.
//!
//! Bless a new golden after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p plc-sim --test engine_golden
//! ```

use parking_lot::Mutex;
use plc_faults::NoiseBurst;
use plc_mac::retry::RetryPolicy;
use plc_sim::bursting::BurstPolicy;
use plc_sim::engine::BeaconSchedule;
use plc_sim::runner::Simulation;
use plc_sim::sweep::SweepGrid;
use plc_sim::trace::{TraceEvent, TraceSink};
use plc_sim::traffic::TrafficModel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::{Debug, Write as _};
use std::path::PathBuf;
use std::sync::Arc;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/engine_digests.txt")
}

/// 64-bit FNV-1a over everything written to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn hash_debug(v: &impl Debug) -> u64 {
    let mut h = Fnv::new();
    let _ = write!(h, "{v:?}");
    h.0
}

fn hash_str(s: &str) -> u64 {
    let mut h = Fnv::new();
    let _ = h.write_str(s);
    h.0
}

/// Hashes the trace as it streams by, so long traces cost no memory.
struct HashSink {
    hash: Fnv,
    events: u64,
}

impl TraceSink for HashSink {
    fn on_event(&mut self, ev: &TraceEvent) {
        let _ = writeln!(self.hash, "{ev:?}");
        self.events += 1;
    }
}

/// `report-hash trace-hash event-count` of one run.
fn run_digest(sim: &Simulation) -> String {
    let sink = Arc::new(Mutex::new(HashSink {
        hash: Fnv::new(),
        events: 0,
    }));
    let report = sim.clone().sink(sink.clone()).run();
    let sink = sink.lock();
    format!(
        "{:016x} {:016x} {}",
        hash_debug(&report),
        sink.hash.0,
        sink.events
    )
}

/// [`run_digest`] plus the hash of every observer snapshot.
fn observed_digest(sim: &Simulation, every: u64) -> String {
    let collector = Arc::new(Mutex::new(plc_obs::CollectingObserver::default()));
    let run = run_digest(&sim.clone().observer(collector.clone(), every));
    let snaps = std::mem::take(&mut collector.lock().engine);
    assert!(!snaps.is_empty(), "periodic snapshots must arrive");
    format!("{run} obs {:016x} {}", hash_debug(&snaps), snaps.len())
}

/// Hash of a two-config sweep grid's JSON export.
fn sweep_digest(seed: u64) -> String {
    let json = SweepGrid::new(seed)
        .config("1901", Simulation::ieee1901(2).horizon_us(5e5))
        .config("dcf", Simulation::dcf(2).horizon_us(5e5))
        .stations([1, 2, 5])
        .replications(2)
        .workers(2)
        .run()
        .to_json();
    format!("json {:016x}", hash_str(&json))
}

/// A named case and its rendered digest.
type Case = (String, String);

fn run_case(name: &str, sim: Simulation) -> Case {
    (name.to_string(), run_digest(&sim))
}

fn everything(seed: u64, retry: Option<RetryPolicy>) -> Simulation {
    let sim = Simulation::ieee1901(3)
        .horizon_us(3e6)
        .seed(seed)
        .beacons(BeaconSchedule::standard_50hz())
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
        });
    match retry {
        Some(r) => sim.retry(r),
        None => sim,
    }
}

/// Every pinned case, in a fixed order.
fn cases() -> Vec<Case> {
    let poisson = |rate_per_us| TrafficModel::Poisson {
        rate_per_us,
        queue_cap: 16,
    };
    let mut out = vec![
        // Populations, features and per-slot paths.
        run_case(
            "1901-saturated-n3",
            Simulation::ieee1901(3).horizon_us(2e6).seed(1),
        ),
        run_case(
            "1901-saturated-n3-short",
            Simulation::ieee1901(3).horizon_us(1e6).seed(2),
        ),
        run_case("dcf-n3", Simulation::dcf(3).horizon_us(2e6).seed(3)),
        run_case(
            "1901-snapshots",
            Simulation::ieee1901(2)
                .horizon_us(2e5)
                .seed(4)
                .snapshots(true),
        ),
        run_case(
            "dcf-snapshots",
            Simulation::dcf(2).horizon_us(2e5).seed(4).snapshots(true),
        ),
        run_case(
            "retry-drops",
            Simulation::ieee1901(4)
                .horizon_us(2e6)
                .seed(5)
                .pb_error_prob(0.6)
                .retry(RetryPolicy::Limited { max_attempts: 2 }),
        ),
        run_case(
            "poisson-n3",
            Simulation::ieee1901(3)
                .horizon_us(2e6)
                .seed(6)
                .traffic(poisson(2e-4)),
        ),
        run_case(
            "everything-retry7",
            everything(7, Some(RetryPolicy::Limited { max_attempts: 7 })),
        ),
        run_case("everything", everything(8, None)),
        run_case(
            "1901-single-station",
            Simulation::ieee1901(1).horizon_us(2e6).seed(1),
        ),
        run_case(
            "1901-contending",
            Simulation::ieee1901(3).horizon_us(2e6).seed(2),
        ),
        run_case("dcf-n2", Simulation::dcf(2).horizon_us(2e6).seed(3)),
        run_case(
            "beacons",
            Simulation::ieee1901(2)
                .horizon_us(2e6)
                .seed(4)
                .beacons(BeaconSchedule::standard_50hz()),
        ),
        run_case(
            "noise",
            Simulation::ieee1901(2).horizon_us(2e6).seed(5).noise([
                NoiseBurst {
                    start_us: 1e5,
                    duration_us: 5e4,
                },
                NoiseBurst {
                    start_us: 9e5,
                    duration_us: 2e5,
                },
            ]),
        ),
        run_case(
            "pberr-bursts",
            Simulation::ieee1901(2)
                .horizon_us(2e6)
                .seed(7)
                .pb_error_prob(0.1)
                .burst(BurstPolicy::INT6300),
        ),
        (
            "observer-every-500".to_string(),
            observed_digest(&Simulation::ieee1901(3).horizon_us(1e6).seed(8), 500),
        ),
        ("sweep-json-seed13".to_string(), sweep_digest(13)),
        ("sweep-json-seed11".to_string(), sweep_digest(11)),
    ];

    // Every run-loop variant: with and without an (unfired) cancel token,
    // registry instrumentation, and an observer that never fires but
    // forces per-slot stepping.
    let bases = [
        ("sat", Simulation::ieee1901(3).horizon_us(2e6).seed(9)),
        (
            "poisson",
            Simulation::ieee1901(5)
                .horizon_us(2e6)
                .seed(10)
                .traffic(poisson(1e-4)),
        ),
    ];
    for (label, base) in bases {
        for token in [false, true] {
            for instrumented in [false, true] {
                for per_slot in [false, true] {
                    let name = format!(
                        "loop-{label}{}{}{}",
                        if token { "-token" } else { "" },
                        if instrumented { "-registry" } else { "" },
                        if per_slot { "-per-slot" } else { "" },
                    );
                    let mut sim = base.clone();
                    if token {
                        sim = sim.cancel(plc_core::CancelToken::new());
                    }
                    if instrumented {
                        sim = sim.registry(&plc_obs::Registry::new());
                    }
                    if per_slot {
                        let idle = Arc::new(Mutex::new(plc_obs::CollectingObserver::default()));
                        sim = sim.observer(idle, u64::MAX);
                    }
                    out.push(run_case(&name, sim));
                }
            }
        }
    }

    // Fixed-seed random populations: mixed unsaturated traffic and PB
    // errors over both protocols, then randomized beacon and noise
    // schedules that the idle fast-forward must stop at exactly.
    let mut rng = SmallRng::seed_from_u64(0x1901);
    for i in 0..24 {
        let seed = rng.gen_range(0u64..1000);
        let n = rng.gen_range(1usize..6);
        let dcf = rng.gen_bool(0.5);
        let rate = rng.gen_range(1e-5f64..1e-3);
        let pb_err = rng.gen_range(0f64..0.3);
        let base = if dcf {
            Simulation::dcf(n)
        } else {
            Simulation::ieee1901(n)
        };
        let sim = base
            .horizon_us(3e5)
            .seed(seed)
            .pb_error_prob(pb_err)
            .traffic(TrafficModel::Poisson {
                rate_per_us: rate,
                queue_cap: 8,
            });
        out.push(run_case(&format!("random-mixed-{i:02}"), sim));
    }
    for i in 0..24 {
        let seed = rng.gen_range(0u64..1000);
        let n = rng.gen_range(1usize..4);
        let beacon_period = rng.gen_range(2e4f64..8e4);
        let beacon_air = rng.gen_range(1e2f64..2e3);
        let noise_start = rng.gen_range(0f64..4e5);
        let noise_len = rng.gen_range(1e3f64..1e5);
        let gap = rng.gen_range(1e3f64..1e5);
        let sim = Simulation::ieee1901(n)
            .horizon_us(5e5)
            .seed(seed)
            .beacons(BeaconSchedule {
                period: plc_core::units::Microseconds(beacon_period),
                duration: plc_core::units::Microseconds(beacon_air),
            })
            .noise([
                NoiseBurst {
                    start_us: noise_start,
                    duration_us: noise_len,
                },
                NoiseBurst {
                    start_us: noise_start + noise_len + gap,
                    duration_us: noise_len,
                },
            ]);
        out.push(run_case(&format!("random-edges-{i:02}"), sim));
    }
    out
}

fn render() -> String {
    let mut out = String::from("# case report-hash trace-hash events [extra]\n");
    for (name, digest) in cases() {
        let _ = writeln!(out, "{name} {digest}");
    }
    out
}

#[test]
fn engine_matches_golden_digests() {
    let rendered = render();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); bless it with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    for (got, want) in rendered.lines().zip(golden.lines()) {
        assert_eq!(got, want, "engine digest drifted from the golden");
    }
    assert_eq!(rendered.lines().count(), golden.lines().count());
}
