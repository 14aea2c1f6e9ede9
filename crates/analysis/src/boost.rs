//! Analytic screening of candidate (CW, DC) schedules — the cheap rung of
//! configuration "boosting".
//!
//! The report positions its simulator for exactly this: "Our simulator can
//! be efficiently employed to evaluate the performance of different MAC
//! configurations". The analytical model makes a search cheap — each
//! candidate costs one fixed-point solve and one delay walk instead of a
//! full simulation. [`screen_schedule`] is that per-candidate step; the
//! search itself (candidate spaces, scenario portfolios, slotted
//! confirmation of the survivors) lives in the `plc-boost` crate, and
//! `Backend::MeanField` in `plc-sim` delegates its headline numbers to the
//! same call.

use crate::drift::{delay_summary, DelaySummary};
use crate::meanfield::{MeanFieldModel, MeanFieldSolution};
use plc_core::config::CsmaConfig;
use plc_core::error::{Error, Result};
use plc_core::timing::MacTiming;
use serde::{Deserialize, Serialize};

/// One analytic screen of a candidate schedule at `n` stations: the
/// mean-field fixed point (the same decoupling solve behind
/// `Backend::MeanField` in `plc-sim`) plus the drift-DTMC access-delay
/// summary — throughput, collision probability and delay quantiles in
/// one call, milliseconds per schedule. This is the screening API the
/// `plc-boost` optimizer uses to rank whole candidate spaces before any
/// slotted simulation runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleScreen {
    /// Model-predicted normalized throughput.
    pub throughput: f64,
    /// Fixed-point busy probability (the tagged attempt's collision
    /// probability under decoupling).
    pub collision_probability: f64,
    /// Access-delay distribution summary of a tagged station.
    pub delay: DelaySummary,
    /// The full fixed point with solver diagnostics.
    pub solution: MeanFieldSolution,
}

/// Bound the delay-DTMC walk: far enough for the p99 where feasible,
/// but capped — at extreme contention the conditional delay is
/// astronomical and the summary reports truncated mass instead.
fn delay_walk_slots(mean_slots: f64) -> usize {
    if mean_slots.is_finite() {
        (mean_slots * 50.0).ceil().clamp(1_000.0, 100_000.0) as usize
    } else {
        100_000
    }
}

/// Screen one `(CW_i, d_i)` schedule at `n` stations: solve the
/// mean-field fixed point and derive throughput / collision probability
/// / access-delay quantiles. Errors on `n == 0`, invalid timing, or a
/// solver failure.
pub fn screen_schedule(
    config: &CsmaConfig,
    n: usize,
    timing: &MacTiming,
) -> Result<ScheduleScreen> {
    if n == 0 {
        return Err(Error::invalid_config(
            "schedule screening needs at least one station",
        ));
    }
    if !timing.is_valid() {
        return Err(Error::invalid_config(
            "schedule screening needs strictly positive slot/Ts/Tc timing",
        ));
    }
    let solution = MeanFieldModel::single(config.clone(), n).solve()?;
    let class = &solution.classes[0];
    let delay = delay_summary(
        config,
        class.tau,
        class.collision_probability,
        n,
        timing,
        delay_walk_slots(class.mean_access_delay_slots),
    );
    Ok(ScheduleScreen {
        throughput: solution.throughput(timing),
        collision_probability: class.collision_probability,
        delay,
        solution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn screen_schedule_matches_the_fixed_point_and_orders_delay() {
        let timing = MacTiming::paper_default();
        let ca1 = CsmaConfig::ieee1901_ca01();
        let s5 = screen_schedule(&ca1, 5, &timing).unwrap();
        let s20 = screen_schedule(&ca1, 20, &timing).unwrap();
        assert!(s5.throughput > 0.0 && s5.throughput < 1.0);
        assert!(
            s20.collision_probability > s5.collision_probability,
            "more stations must collide more"
        );
        let (p5, p20) = (
            s5.delay.p99_us().expect("walk covers the p99 at n=5"),
            s20.delay.p99_us().expect("walk covers the p99 at n=20"),
        );
        assert!(p20 > p5, "p99 delay must grow with contention");
        assert!(screen_schedule(&ca1, 0, &timing).is_err());
    }
}
