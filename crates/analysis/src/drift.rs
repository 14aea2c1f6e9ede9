//! Drift ODE for the transient dynamics of the 1901 backoff process,
//! and the delay distribution of the mean-field backend.
//!
//! The mean-field fixed point ([`crate::meanfield`]) describes the
//! *stationary* regime. The ToN extension of the paper ("How CSMA/CA
//! With Deferral Affects Performance and Dynamics in Power-Line
//! Communications") studies the *transient*: how the population of
//! stations distributes over backoff stages after a perturbation, which
//! is where short-term unfairness and coupling live. In the large-`N`
//! mean-field limit the empirical stage occupancy `θ(t)` (fraction of
//! stations in each stage) follows a deterministic drift ODE.
//!
//! ## The drift field
//!
//! At busy probability `p`, a station visiting stage `i` attempts with
//! probability `x_i` and spends `ℓ_i = s_i + x_i` slots; the per-slot
//! hazards of a station *currently in* stage `i` are therefore
//!
//! ```text
//! a_i = x_i / ℓ_i          (attempt this slot)
//! j_i = (1 − x_i) / ℓ_i    (deferral expiry: jump without attempting)
//! ```
//!
//! A successful attempt (probability `1 − p`) restarts at stage 0; a
//! collided attempt or a jump moves to stage `min(i+1, m−1)`. The busy
//! probability itself is tied to the occupancy through the instantaneous
//! attempt rate `τ̄(θ) = Σ_i θ_i a_i(p)` and `p = 1 − (1 − τ̄)^(N−1)`,
//! a scalar consistency equation solved by bisection inside every
//! derivative evaluation. The stationary point of this field is exactly
//! the mean-field fixed point (pinned by a test below).
//!
//! ## Delay distribution
//!
//! Freezing `p` at the fixed point turns the stage process of one tagged
//! station into an absorbing DTMC (absorption = successful attempt),
//! whose absorption-time distribution is the per-packet access delay in
//! decision slots. [`access_delay_distribution`] walks it slot by slot;
//! [`delay_summary`] folds the same walk into its mean and quantiles as
//! it goes and converts to microseconds using the tagged station's
//! expected slot duration — this is what the `MeanField` engine backend
//! reports.
//!
//! ## Subnormal flush
//!
//! After every slot, any stage mass whose magnitude is below
//! `f64::MIN_POSITIVE` (a subnormal) is set to exactly 0. Without the
//! flush a stage that stops receiving inflow decays into the subnormal
//! range and sticks there: the smallest subnormal times any stay factor
//! above 0.5 rounds back to itself, and subnormal arithmetic costs
//! 15–30× a normal slot. Each flush drops less than 2.3·10⁻³⁰⁸, so over
//! a 10⁵-slot walk every mass moves by less than 10⁻³⁰². The absorbed
//! mass after the first slot is `a₀ · (1 − p)`, with `a₀ ≥ 1/W₀²` and
//! `1 − p` either 0 or at least 2⁻⁵³, so while anything is absorbed it
//! exceeds 2⁻¹¹⁷ ≈ 6·10⁻³⁶ for any `u32` window, and the flushed
//! amounts sit far below its last bit: the CDF, the mean, the truncated
//! mass and the quantiles are bit-identical to the unflushed walk, and
//! a `pmf` entry can move by less than 10⁻³⁰². Once every stage mass is
//! 0, or `1 − p` is 0, no slot can absorb anything and the walk stops;
//! each slot it skips would add exactly `+0.0`.

use crate::math::bisect_decreasing_iters;
use crate::meanfield::stage_quantities_for;
use plc_core::config::CsmaConfig;
use plc_core::error::{Error, Result};
use plc_core::timing::MacTiming;
use serde::{Deserialize, Serialize};

/// Per-slot hazards of every stage at one busy probability.
fn hazards(config: &CsmaConfig, p: f64) -> Vec<(f64, f64)> {
    stage_quantities_for(config, p)
        .iter()
        .map(|s| {
            // ℓ ≥ x ≥ 1/W > 0: the denominator never vanishes.
            let l = s.backoff_slots + s.attempt_prob;
            (s.attempt_prob / l, (1.0 - s.attempt_prob) / l)
        })
        .collect()
}

/// Mean-field drift ODE of `n` saturated stations running `config`.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftModel {
    config: CsmaConfig,
    n: usize,
}

/// A sampled trajectory of the drift ODE.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftTrajectory {
    /// Integration step in slots.
    pub dt: f64,
    /// Stage occupancy at each sample (index 0 = the initial state).
    pub occupancy: Vec<Vec<f64>>,
    /// Instantaneous attempt rate `τ̄(θ)` at each sample.
    pub tau: Vec<f64>,
    /// Instantaneous busy probability at each sample.
    pub busy: Vec<f64>,
}

impl DriftModel {
    /// Model for `n ≥ 1` stations.
    pub fn new(config: CsmaConfig, n: usize) -> Result<Self> {
        if n == 0 {
            return Err(Error::invalid_config(
                "drift model needs at least one station",
            ));
        }
        config.validate()?;
        Ok(DriftModel { config, n })
    }

    /// Number of backoff stages.
    pub fn num_stages(&self) -> usize {
        self.config.num_stages()
    }

    /// The fresh-start occupancy: everyone in stage 0.
    pub fn fresh_start(&self) -> Vec<f64> {
        let mut occ = vec![0.0; self.num_stages()];
        occ[0] = 1.0;
        occ
    }

    /// Uniform occupancy over the stages.
    pub fn uniform_start(&self) -> Vec<f64> {
        vec![1.0 / self.num_stages() as f64; self.num_stages()]
    }

    /// The busy probability consistent with occupancy `occ`: the root of
    /// `1 − (1 − τ̄(p))^(N−1) − p`, solved by bisection (both endpoints
    /// have the required signs, so the solve cannot fail).
    pub fn consistent_busy(&self, occ: &[f64]) -> f64 {
        if self.n == 1 {
            return 0.0;
        }
        let f = |p: f64| {
            let tau = self.attempt_rate(occ, p);
            1.0 - (1.0 - tau).powi(self.n as i32 - 1) - p
        };
        bisect_decreasing_iters(0.0, 1.0, 60, f)
    }

    /// Instantaneous attempt rate `τ̄(θ) = Σ_i θ_i a_i(p)`.
    pub fn attempt_rate(&self, occ: &[f64], p: f64) -> f64 {
        hazards(&self.config, p)
            .iter()
            .zip(occ)
            .map(|((a, _), th)| th * a)
            .sum()
    }

    /// The drift field `dθ/dt` at occupancy `occ` (time in slots).
    pub fn derivative(&self, occ: &[f64]) -> Vec<f64> {
        let m = self.num_stages();
        assert_eq!(occ.len(), m, "occupancy dimension mismatch");
        let p = self.consistent_busy(occ);
        let haz = hazards(&self.config, p);
        let mut d = vec![0.0; m];
        for (i, &(a, j)) in haz.iter().enumerate() {
            let next = (i + 1).min(m - 1);
            let outflow = occ[i] * (a + j);
            d[i] -= outflow;
            // Success restarts at stage 0; collision or jump escalates.
            d[0] += occ[i] * a * (1.0 - p);
            d[next] += occ[i] * (a * p + j);
        }
        d
    }

    /// One RK4 step of size `dt` slots, projected back onto the simplex
    /// (clamping and renormalization guard floating-point drift only;
    /// the field itself conserves mass).
    pub fn rk4_step(&self, occ: &[f64], dt: f64) -> Vec<f64> {
        let add = |a: &[f64], b: &[f64], w: f64| -> Vec<f64> {
            a.iter().zip(b).map(|(x, y)| x + w * y).collect()
        };
        let k1 = self.derivative(occ);
        let k2 = self.derivative(&add(occ, &k1, dt / 2.0));
        let k3 = self.derivative(&add(occ, &k2, dt / 2.0));
        let k4 = self.derivative(&add(occ, &k3, dt));
        let mut next: Vec<f64> = occ
            .iter()
            .enumerate()
            .map(|(i, &o)| o + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]))
            .collect();
        for v in &mut next {
            *v = v.max(0.0);
        }
        let total: f64 = next.iter().sum();
        if total > 0.0 {
            for v in &mut next {
                *v /= total;
            }
        }
        next
    }

    /// Integrate `steps` RK4 steps of size `dt` from `start`, sampling
    /// every state (including the initial one).
    pub fn trajectory(&self, start: &[f64], dt: f64, steps: usize) -> DriftTrajectory {
        let mut occ = normalize(start);
        let mut traj = DriftTrajectory {
            dt,
            occupancy: Vec::with_capacity(steps + 1),
            tau: Vec::with_capacity(steps + 1),
            busy: Vec::with_capacity(steps + 1),
        };
        for _ in 0..=steps {
            let p = self.consistent_busy(&occ);
            traj.busy.push(p);
            traj.tau.push(self.attempt_rate(&occ, p));
            traj.occupancy.push(occ.clone());
            occ = self.rk4_step(&occ, dt);
        }
        traj
    }

    /// Integrate until the drift field's max component drops below `tol`
    /// and return the equilibrium occupancy.
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] when `max_steps` RK4 steps of size `dt` do not
    /// reach the tolerance.
    pub fn relax(&self, start: &[f64], dt: f64, max_steps: usize, tol: f64) -> Result<Vec<f64>> {
        let mut occ = normalize(start);
        for _ in 0..max_steps {
            let d = self.derivative(&occ);
            if d.iter().all(|v| v.abs() < tol) {
                return Ok(occ);
            }
            occ = self.rk4_step(&occ, dt);
        }
        Err(Error::runtime(format!(
            "drift relaxation did not reach |dθ/dt| < {tol:.1e} within {max_steps} steps"
        )))
    }
}

fn normalize(occ: &[f64]) -> Vec<f64> {
    assert!(!occ.is_empty(), "occupancy must be non-empty");
    assert!(
        occ.iter().all(|&v| v >= 0.0 && v.is_finite()),
        "occupancy entries must be finite and non-negative"
    );
    let total: f64 = occ.iter().sum();
    assert!(total > 0.0, "occupancy must have positive mass");
    occ.iter().map(|v| v / total).collect()
}

/// Access-delay distribution of one tagged station at frozen busy
/// probability `p`, in decision slots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayDistribution {
    /// `pmf[t]` = P(success exactly `t + 1` slots after the backoff
    /// started).
    pub pmf: Vec<f64>,
    /// `(slots, P(delay ≤ slots))` pairs, one per slot.
    pub cdf: Vec<(f64, f64)>,
    /// Mean delay in slots, conditioned on absorption within the walked
    /// horizon.
    pub mean_slots: f64,
    /// Probability mass beyond the walked horizon.
    pub truncated_mass: f64,
}

/// What one walk of the delay DTMC absorbed.
#[derive(Debug)]
struct WalkTotals {
    /// Slots walked: `max_slots`, or fewer after an exact early end.
    slots: usize,
    /// Mass absorbed within the walked slots.
    absorbed: f64,
    /// `Σ t · P(delay = t)` over the walked slots.
    mean_num: f64,
}

impl WalkTotals {
    /// Mean delay in slots, conditioned on absorption within the walk.
    fn mean_slots(&self) -> f64 {
        if self.absorbed > 0.0 {
            self.mean_num / self.absorbed
        } else {
            f64::INFINITY
        }
    }

    /// Probability mass beyond the walk.
    fn truncated_mass(&self) -> f64 {
        (1.0 - self.absorbed).max(0.0)
    }
}

/// Walk the absorbing stage DTMC of one tagged station at frozen busy
/// probability `p` for up to `max_slots` slots, calling
/// `on_slot(t, absorbed_in_t, absorbed_so_far, stage_masses)` after
/// every walked slot `t`. Both [`access_delay_distribution`] and
/// [`delay_summary`] run this walk. Two stage buffers are swapped every
/// slot, so it allocates only up front; the subnormal flush and the
/// exact early end are described in the module docs.
fn walk_delay_chain(
    config: &CsmaConfig,
    p: f64,
    max_slots: usize,
    mut on_slot: impl FnMut(usize, f64, f64, &[f64]),
) -> WalkTotals {
    let haz = hazards(config, p);
    let m = haz.len();
    let mut pi = vec![0.0; m];
    let mut next = vec![0.0; m];
    pi[0] = 1.0;
    let mut totals = WalkTotals {
        slots: 0,
        absorbed: 0.0,
        mean_num: 0.0,
    };
    let mut live = 1.0 - p != 0.0;
    while live && totals.slots < max_slots {
        next.fill(0.0);
        let mut succ = 0.0;
        for (i, &(a, j)) in haz.iter().enumerate() {
            let nxt = (i + 1).min(m - 1);
            succ += pi[i] * a * (1.0 - p);
            next[nxt] += pi[i] * (a * p + j);
            next[i] += pi[i] * (1.0 - a - j);
        }
        std::mem::swap(&mut pi, &mut next);
        live = false;
        for v in &mut pi {
            if v.abs() < f64::MIN_POSITIVE {
                *v = 0.0;
            } else {
                live = true;
            }
        }
        totals.slots += 1;
        totals.absorbed += succ;
        totals.mean_num += totals.slots as f64 * succ;
        on_slot(totals.slots, succ, totals.absorbed, &pi);
    }
    totals
}

/// Walk the absorbing stage DTMC for `max_slots` slots.
pub fn access_delay_distribution(
    config: &CsmaConfig,
    p: f64,
    max_slots: usize,
) -> DelayDistribution {
    let mut pmf = Vec::with_capacity(max_slots);
    let mut cdf = Vec::with_capacity(max_slots);
    let walk = walk_delay_chain(config, p, max_slots, |t, succ, absorbed, _| {
        pmf.push(succ);
        cdf.push((t as f64, absorbed));
    });
    // Past an early end every slot absorbs exactly nothing.
    pmf.resize(max_slots, 0.0);
    cdf.extend((walk.slots + 1..=max_slots).map(|t| (t as f64, walk.absorbed)));
    DelayDistribution {
        pmf,
        cdf,
        mean_slots: walk.mean_slots(),
        truncated_mass: walk.truncated_mass(),
    }
}

/// Expected wall-clock duration in µs of one decision slot as seen by a
/// tagged *waiting* station: the other `n − 1` stations produce an idle
/// slot, exactly one other success, or a collision among the others.
pub fn tagged_slot_duration_us(tau: f64, n: usize, timing: &MacTiming) -> f64 {
    if n <= 1 {
        return timing.slot.as_micros();
    }
    let p = 1.0 - (1.0 - tau).powi(n as i32 - 1);
    let one_other = (n as f64 - 1.0) * tau * (1.0 - tau).powi(n as i32 - 2);
    (1.0 - p) * timing.slot.as_micros()
        + one_other * timing.ts.as_micros()
        + (p - one_other) * timing.tc.as_micros()
}

/// Access-delay summary of the mean-field backend: slot-domain moments
/// and quantiles plus their µs conversions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelaySummary {
    /// Mean access delay in decision slots (conditioned on absorption
    /// within the walked horizon).
    pub mean_slots: f64,
    /// Median delay in slots (`None` if the walked horizon is too short).
    pub p50_slots: Option<f64>,
    /// 90th percentile in slots.
    pub p90_slots: Option<f64>,
    /// 99th percentile in slots.
    pub p99_slots: Option<f64>,
    /// Expected per-slot wall-clock duration used for conversion, µs.
    pub slot_us: f64,
    /// Mean access delay in µs.
    pub mean_us: f64,
    /// Probability mass beyond the walked horizon.
    pub truncated_mass: f64,
}

impl DelaySummary {
    /// 99th-percentile access delay in µs (`None` when the walked
    /// horizon was too short to pin the quantile).
    pub fn p99_us(&self) -> Option<f64> {
        self.p99_slots.map(|s| s * self.slot_us)
    }
}

/// Delay summary for one tagged station of a class at attempt rate
/// `tau` / busy probability `p` in an `n`-station domain.
pub fn delay_summary(
    config: &CsmaConfig,
    tau: f64,
    p: f64,
    n: usize,
    timing: &MacTiming,
    max_slots: usize,
) -> DelaySummary {
    const QUANTILES: [f64; 3] = [0.5, 0.9, 0.99];
    // Each quantile is the first walked slot whose CDF reaches it, the
    // rule of `plc_stats::quantile_from_cdf`.
    let mut quantiles = [None; 3];
    let walk = walk_delay_chain(config, p, max_slots, |t, _, absorbed, _| {
        for (slot, q) in quantiles.iter_mut().zip(QUANTILES) {
            if slot.is_none() && absorbed >= q {
                *slot = Some(t as f64);
            }
        }
    });
    let [p50_slots, p90_slots, p99_slots] = quantiles;
    let mean_slots = walk.mean_slots();
    let slot_us = tagged_slot_duration_us(tau, n, timing);
    DelaySummary {
        mean_slots,
        p50_slots,
        p90_slots,
        p99_slots,
        slot_us,
        mean_us: mean_slots * slot_us,
        truncated_mass: walk.truncated_mass(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meanfield::MeanFieldModel;
    use plc_core::config::DC_DISABLED;

    fn ca1() -> CsmaConfig {
        CsmaConfig::ieee1901_ca01()
    }

    #[test]
    fn solver_fixed_point_is_drift_equilibrium() {
        // The tentpole consistency check: the stationary occupancy the
        // fixed-point solver reports must sit (numerically) on a zero of
        // the drift field.
        for n in [2usize, 5, 20, 100] {
            let sol = MeanFieldModel::single(ca1(), n).solve().unwrap();
            let c = &sol.classes[0];
            let drift = DriftModel::new(ca1(), n).unwrap();
            let p = drift.consistent_busy(&c.stage_occupancy);
            assert!(
                (p - c.collision_probability).abs() < 1e-7,
                "N={n}: drift p={p:.8} vs solver p={:.8}",
                c.collision_probability
            );
            let d = drift.derivative(&c.stage_occupancy);
            for (i, v) in d.iter().enumerate() {
                assert!(
                    v.abs() < 1e-6,
                    "N={n}: dθ_{i}/dt = {v:.3e} at the solver fixed point"
                );
            }
        }
    }

    #[test]
    fn relaxation_reaches_the_fixed_point() {
        let n = 5;
        let sol = MeanFieldModel::single(ca1(), n).solve().unwrap();
        let drift = DriftModel::new(ca1(), n).unwrap();
        let eq = drift
            .relax(&drift.uniform_start(), 2.0, 1500, 1e-9)
            .unwrap();
        for (a, b) in eq.iter().zip(&sol.classes[0].stage_occupancy) {
            assert!((a - b).abs() < 1e-5, "relaxed {a:.8} vs solver {b:.8}");
        }
    }

    #[test]
    fn trajectory_conserves_mass_and_records_everything() {
        let drift = DriftModel::new(ca1(), 20).unwrap();
        let traj = drift.trajectory(&drift.fresh_start(), 1.0, 150);
        assert_eq!(traj.occupancy.len(), 151);
        assert_eq!(traj.tau.len(), 151);
        assert_eq!(traj.busy.len(), 151);
        for occ in &traj.occupancy {
            let total: f64 = occ.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
            assert!(occ.iter().all(|&v| v >= 0.0));
        }
        // A fresh-start population (everyone aggressive in stage 0)
        // initially sees a busier channel than at equilibrium, and the
        // transient decays toward the fixed point.
        let p_star =
            MeanFieldModel::single(ca1(), 20).solve().unwrap().classes[0].collision_probability;
        assert!(traj.busy[0] > p_star);
        let last = traj.busy.last().unwrap();
        assert!((last - p_star).abs() < 0.5 * (traj.busy[0] - p_star).abs());
    }

    #[test]
    fn lone_station_never_sees_busy_slots() {
        let drift = DriftModel::new(ca1(), 1).unwrap();
        assert_eq!(drift.consistent_busy(&drift.fresh_start()), 0.0);
    }

    #[test]
    fn delay_distribution_lone_station_is_geometric() {
        // p = 0: every stage-0 slot succeeds with hazard 1/(s₀+1) = 2/9,
        // so the delay is geometric with mean 4.5 slots.
        let dist = access_delay_distribution(&ca1(), 0.0, 4000);
        assert!(dist.truncated_mass < 1e-9);
        assert!((dist.mean_slots - 4.5).abs() < 1e-6, "{}", dist.mean_slots);
        // CDF is non-decreasing.
        for w in dist.cdf.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn delay_summary_quantiles_are_ordered() {
        let sol = MeanFieldModel::single(ca1(), 10).solve().unwrap();
        let c = &sol.classes[0];
        let timing = MacTiming::paper_default();
        let s = delay_summary(&ca1(), c.tau, c.collision_probability, 10, &timing, 20_000);
        let (p50, p90, p99) = (
            s.p50_slots.unwrap(),
            s.p90_slots.unwrap(),
            s.p99_slots.unwrap(),
        );
        assert!(p50 <= p90 && p90 <= p99);
        assert!(s.truncated_mass < 1e-6);
        assert!(
            s.mean_us > s.mean_slots * timing.slot.as_micros(),
            "busy slots stretch time"
        );
        // The DTMC mean matches the renewal cycle length from the solver.
        assert!(
            (s.mean_slots - c.mean_access_delay_slots).abs() / c.mean_access_delay_slots < 0.01,
            "DTMC mean {} vs renewal cycle {}",
            s.mean_slots,
            c.mean_access_delay_slots
        );
    }

    #[test]
    fn capped_walk_never_holds_a_subnormal_mass() {
        // `cw4-g1-dcoff` of the default boost space at N = 30: stages
        // 0–2 get no inflow and decay to nothing while stage 3 keeps
        // most of the mass past the 10⁵-slot cap.
        let config = CsmaConfig::from_vectors(&[4; 4], &[DC_DISABLED; 4]).unwrap();
        let sol = MeanFieldModel::single(config.clone(), 30).solve().unwrap();
        let p = sol.classes[0].collision_probability;
        let walk = walk_delay_chain(&config, p, 100_000, |t, _, _, pi| {
            assert!(
                pi.iter().all(|v| !v.is_subnormal()),
                "subnormal stage mass at slot {t}: {pi:?}"
            );
            if t == 100_000 {
                assert_eq!(pi[..3], [0.0; 3], "drained stages are flushed to 0");
            }
        });
        assert_eq!(walk.slots, 100_000);
        // The `cw4-g1-dcoff 30` row of tests/golden/delay_summary_bits.txt.
        assert_eq!(walk.truncated_mass().to_bits(), 0x3fef_8826_46cc_684f);
    }

    #[test]
    fn walk_stops_exactly_once_nothing_can_be_absorbed() {
        // A lone station drains every stage: after a few thousand slots
        // all masses flush to 0 and the walk ends, while the
        // distribution still reports one entry per requested slot.
        let walk = walk_delay_chain(&ca1(), 0.0, 4000, |_, _, _, _| {});
        let drained = walk.slots;
        assert!(drained < 4000, "still live after {drained} slots");
        let dist = access_delay_distribution(&ca1(), 0.0, 4000);
        assert_eq!(dist.pmf.len(), 4000);
        assert_eq!(dist.cdf.len(), 4000);
        assert!(dist.pmf[drained..].iter().all(|&v| v.to_bits() == 0));
        for (t, &(slots, absorbed)) in dist.cdf.iter().enumerate().skip(drained) {
            assert_eq!(slots, (t + 1) as f64);
            assert_eq!(absorbed.to_bits(), walk.absorbed.to_bits());
        }

        // At fleet scale p rounds to exactly 1: no slot can absorb.
        let sol = MeanFieldModel::single(ca1(), 10_000).solve().unwrap();
        let p = sol.classes[0].collision_probability;
        assert_eq!(p, 1.0);
        assert_eq!(walk_delay_chain(&ca1(), p, 1000, |_, _, _, _| {}).slots, 0);
        let dist = access_delay_distribution(&ca1(), p, 1000);
        assert_eq!(dist.cdf.len(), 1000);
        assert!(dist.cdf.iter().all(|&(_, absorbed)| absorbed == 0.0));
        assert_eq!(dist.mean_slots, f64::INFINITY);
        assert_eq!(dist.truncated_mass, 1.0);
    }

    #[test]
    fn zero_stations_rejected() {
        assert!(DriftModel::new(ca1(), 0).is_err());
    }

    #[test]
    fn relax_timeout_is_typed() {
        let drift = DriftModel::new(ca1(), 50).unwrap();
        let err = drift
            .relax(&drift.fresh_start(), 0.1, 1, 1e-14)
            .unwrap_err();
        assert!(matches!(err, Error::Runtime { .. }));
    }
}
