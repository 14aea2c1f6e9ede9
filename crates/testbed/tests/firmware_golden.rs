//! Bit-identity golden of the testbed's firmware path.
//!
//! The firmware trace sink turns the engine's SoF/SACK wire events into
//! per-device ampstat counters and sniffer captures; the experiment layer
//! reads those counters back over the MME bus. This golden pins, for
//! fixed seeds:
//!
//! * every [`ExperimentOutcome`] of `CollisionExperiment::quick(n, seed)`
//!   for N = 1…7 with management traffic on (per-station `Aᵢ`/`Cᵢ`,
//!   `ΣCᵢ`/`ΣAᵢ`, the probability's bits);
//! * checkpointed runs whose fault plan has a brownout, counter wrap
//!   (u32 and a small modulus that really wraps) and lossy MMEs, so the
//!   stitching reads every counter through resets and wraps;
//! * the whole counter table of every device (both directions, every
//!   priority, every peer), D's receive side written out in full, since
//!   Figure 2 never reads it;
//! * the registry mirror of the transmit counters;
//! * Faifa sniffer captures at D and at a transmitting station (the
//!   E5/E6 path), data bursts and mixed data/MME traffic.
//!
//! The golden was blessed on the firmware sink that kept its in-flight
//! MPDUs in a hash map and its counters in per-device hash maps, before
//! those became TEI-indexed tables. Bless a new golden after an
//! intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p plc-testbed --test firmware_golden
//! ```

use plc_core::addr::MacAddr;
use plc_core::mme::Direction;
use plc_core::priority::Priority;
use plc_core::units::Microseconds;
use plc_faults::FaultPlan;
use plc_sim::bursting::BurstPolicy;
use plc_testbed::tools::Faifa;
use plc_testbed::{CollisionExperiment, ExperimentOutcome, PowerStrip, StatKey, TestbedConfig};
use std::fmt::{Debug, Write as _};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/firmware_digests.txt")
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

fn digest_lines<T: Debug>(items: &[T]) -> String {
    let mut h = Fnv::new();
    for it in items {
        let _ = writeln!(h, "{it:?}");
    }
    format!("{:016x} {}", h.0, items.len())
}

fn render_outcome(o: &plc_core::error::Result<ExperimentOutcome>) -> String {
    match o {
        Ok(o) => {
            let per: Vec<String> = o
                .per_station
                .iter()
                .map(|s| format!("{}:{}", s.acked, s.collided))
                .collect();
            format!(
                "A={} C={} p={:016x} disc={} per={}",
                o.sum_acked,
                o.sum_collided,
                o.collision_probability.to_bits(),
                o.discontinuities,
                per.join(",")
            )
        }
        Err(e) => format!("error {e}"),
    }
}

fn quick_cfg(n: usize, seed: u64) -> TestbedConfig {
    TestbedConfig {
        n_stations: n,
        duration: Microseconds::from_secs(10.0),
        seed,
        ..Default::default()
    }
}

/// Every counter of every device: a digest over the non-zero entries,
/// with D's receive side also written out line by line.
fn counter_table(strip: &PowerStrip) -> Vec<String> {
    let bus = strip.clean_bus();
    let macs = bus.device_macs();
    let d = strip.destination_mac();
    let mut peers = macs.clone();
    peers.push(MacAddr::BROADCAST);
    let mut entries = Vec::new();
    let mut d_rx = Vec::new();
    for &dev in &macs {
        for &peer in &peers {
            for priority in Priority::ALL {
                for direction in [Direction::Tx, Direction::Rx] {
                    let key = StatKey {
                        peer,
                        priority,
                        direction,
                    };
                    let s = bus.with_device(dev, |x| x.stats(&key)).unwrap();
                    if s.acked != 0 || s.collided != 0 {
                        entries.push((dev, key, s));
                        if dev == d && direction == Direction::Rx {
                            d_rx.push(format!(
                                "  d-rx peer={peer} {priority:?} {}:{}",
                                s.acked, s.collided
                            ));
                        }
                    }
                }
            }
        }
    }
    let mut out = vec![format!("  table {}", digest_lines(&entries))];
    out.extend(d_rx);
    out
}

fn cases() -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();

    // Figure 2's methodology at CI length, management traffic on.
    for n in 1..=7 {
        let seed = 100 + n as u64;
        let o = CollisionExperiment::quick(n, seed).run();
        out.push((format!("quick-n{n}"), vec![render_outcome(&o)]));
    }

    // Brownout of station 1, u32 wrap, lossy MMEs, 8 checkpoints.
    let browned = CollisionExperiment {
        checkpoints: 8,
        faults: Some(
            FaultPlan::builder()
                .seed(5)
                .device_reset_at(1, Microseconds::from_secs(4.3).as_micros())
                .counter_wrap_u32()
                .mme_loss(0.1)
                .build(),
        ),
        ..CollisionExperiment::quick(4, 9)
    };
    out.push((
        "brownout-u32-n4".into(),
        vec![render_outcome(&browned.run())],
    ));

    // A modulus small enough to wrap several times within the test.
    let wrapped = CollisionExperiment {
        checkpoints: 8,
        faults: Some(FaultPlan::builder().seed(6).counter_wrap(1000).build()),
        ..CollisionExperiment::quick(3, 11)
    };
    out.push(("wrap1000-n3".into(), vec![render_outcome(&wrapped.run())]));

    // The registry mirror sees the same transmit counters.
    let registry = plc_obs::Registry::new();
    let o = CollisionExperiment::quick(3, 12).run_observed(&registry);
    let mirror: Vec<String> = registry
        .snapshot()
        .counters
        .iter()
        .filter(|c| c.name.starts_with("testbed.dev"))
        .map(|c| format!("{}={}", c.name, c.value))
        .collect();
    out.push((
        "observed-n3".into(),
        vec![render_outcome(&o), format!("  mirror {}", mirror.join(" "))],
    ));

    // Full counter tables, D's receive side included.
    for n in [1, 4, 7] {
        let mut strip = PowerStrip::new(quick_cfg(n, 200 + n as u64));
        strip.run_test();
        out.push((format!("table-n{n}"), counter_table(&strip)));
    }
    // D browns out mid-test with a wrapping receive side.
    let mut cfg = quick_cfg(3, 204);
    cfg.faults = Some(
        FaultPlan::builder()
            .seed(7)
            .device_reset_at(3, Microseconds::from_secs(6.0).as_micros())
            .counter_wrap(1000)
            .build(),
    );
    let mut strip = PowerStrip::new(cfg);
    strip.run_test();
    out.push(("table-faulted-n3".into(), counter_table(&strip)));

    // Sniffer captures: D and station 1, data plus MMEs.
    let mut strip = PowerStrip::new(quick_cfg(3, 300));
    let faifa = Faifa::new(strip.bus());
    let d = strip.destination_mac();
    let s1 = strip.station_mac(1);
    faifa.set_sniffer(d, true).unwrap();
    faifa.set_sniffer(s1, true).unwrap();
    strip.run_test();
    out.push((
        "sniffer-mixed-n3".into(),
        vec![
            format!("  d {}", digest_lines(&faifa.collect(d).unwrap())),
            format!("  s1 {}", digest_lines(&faifa.collect(s1).unwrap())),
        ],
    ));
    // E6's set-up: data bursts only under a random burst policy.
    let mut strip = PowerStrip::new(TestbedConfig {
        burst: BurstPolicy::Random {
            weights: [0.1, 0.5, 0.25, 0.15],
        },
        mme_rate_per_us: 0.0,
        ..quick_cfg(3, 301)
    });
    let faifa = Faifa::new(strip.bus());
    let d = strip.destination_mac();
    faifa.set_sniffer(d, true).unwrap();
    strip.run_test();
    out.push((
        "sniffer-bursts-n3".into(),
        vec![format!("  d {}", digest_lines(&faifa.collect(d).unwrap()))],
    ));
    out
}

fn render() -> String {
    let mut out = String::from("# case, then its outcome / counter-table / capture lines\n");
    for (name, lines) in cases() {
        let _ = writeln!(out, "{name}");
        for l in lines {
            let _ = writeln!(out, "{l}");
        }
    }
    out
}

#[test]
fn firmware_path_matches_golden() {
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
        assert_eq!(got, want, "firmware output drifted from the golden");
    }
    assert_eq!(rendered.lines().count(), golden.lines().count());
}
