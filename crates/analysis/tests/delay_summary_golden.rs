//! Bit-exact pin of the drift-DTMC access-delay summary.
//!
//! Every [`DelaySummary`] field that [`screen_schedule`] reports is
//! stored as the hex of its `f64::to_bits`, over every candidate of the
//! default boost search space at every contention-domain size the
//! default portfolio screens, plus CA1 at N ∈ {1, 10³, 10⁴, 10⁶}. The
//! set covers the capped walks whose p99 lies beyond the walked horizon
//! (`None`) and a fixed point where the busy probability rounds to
//! exactly 1, so no mass is ever absorbed. The fixed-point busy
//! probability is stored alongside, to tell a solver change from a walk
//! change.
//!
//! Any diff means the walk changed behaviour. Bless a new golden after
//! an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p plc-analysis --test delay_summary_golden
//! ```

use plc_analysis::screen_schedule;
use plc_boost::{Portfolio, SearchSpace};
use plc_core::config::CsmaConfig;
use plc_core::timing::MacTiming;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Extra CA1 station counts: the lone station, and fleet scales where
/// the busy probability saturates.
const CA1_EXTRA_N: [usize; 4] = [1, 1_000, 10_000, 1_000_000];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/delay_summary_bits.txt")
}

/// `(label, config, n)` for every pinned point, in a fixed order.
fn points() -> Vec<(String, CsmaConfig, usize)> {
    let portfolio = Portfolio::default_portfolio();
    let screen_ns: BTreeSet<usize> = portfolio
        .scenarios
        .iter()
        .flat_map(|s| s.stations.iter().map(|&n| s.screen_n(n)))
        .collect();
    let mut out = Vec::new();
    for candidate in &SearchSpace::default_space().candidates {
        let config = candidate
            .config()
            .expect("default-space candidates are valid");
        for &n in &screen_ns {
            out.push((candidate.label.clone(), config.clone(), n));
        }
    }
    for n in CA1_EXTRA_N {
        out.push(("ca1".to_string(), CsmaConfig::ieee1901_ca01(), n));
    }
    out
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn hex_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "none".to_string(), hex)
}

/// One line per point: label, n, busy probability, then every summary
/// field in declaration order.
fn render() -> String {
    let timing = MacTiming::paper_default();
    let mut out = String::from(
        "# label n p mean_slots p50_slots p90_slots p99_slots slot_us mean_us truncated_mass\n",
    );
    for (label, config, n) in points() {
        let s = screen_schedule(&config, n, &timing).expect("default-space points screen");
        let d = &s.delay;
        let _ = writeln!(
            out,
            "{label} {n} {} {} {} {} {} {} {} {}",
            hex(s.collision_probability),
            hex(d.mean_slots),
            hex_opt(d.p50_slots),
            hex_opt(d.p90_slots),
            hex_opt(d.p99_slots),
            hex(d.slot_us),
            hex(d.mean_us),
            hex(d.truncated_mass),
        );
    }
    out
}

#[test]
fn delay_summaries_match_golden_bits() {
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
        assert_eq!(got, want, "delay summary bits drifted from the golden");
    }
    assert_eq!(rendered.lines().count(), golden.lines().count());
}

/// The golden must keep covering the walks the delay kernel treats
/// specially: capped walks that never reach the p99, and a busy
/// probability of exactly 1 (nothing is ever absorbed).
#[test]
fn golden_covers_the_edge_walks() {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return; // the other test is rewriting the file
    }
    let golden = std::fs::read_to_string(golden_path()).expect("golden exists");
    let rows: Vec<Vec<&str>> = golden
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split(' ').collect())
        .collect();
    assert_eq!(rows.len(), points().len());
    let p99_none: Vec<String> = rows
        .iter()
        .filter(|r| r[6] == "none")
        .map(|r| format!("{}@{}", r[0], r[1]))
        .collect();
    assert!(p99_none.len() >= 3, "capped walks: {p99_none:?}");
    assert!(p99_none.contains(&"cw4-g1-dcoff@30".to_string()));
    let saturated = hex(1.0);
    assert!(
        rows.iter()
            .any(|r| r[0] == "ca1" && r[1] == "10000" && r[2] == saturated),
        "CA1 at N = 10^4 must sit at p = 1"
    );
}
