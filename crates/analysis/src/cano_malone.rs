//! Independent reference model in the style of Cano & Malone ("On
//! Efficiency and Validity of Previous Homeplug MAC Performance
//! Analysis" — PAPERS.md): the **deterministic-deferral** approximation
//! of the 1901 backoff stage.
//!
//! Where [`crate::meanfield`] tracks the full binomial distribution of
//! busy slots within a backoff (`x_i = (1/W) Σ_b P(Bin(b, p) ≤ d_i)`),
//! the Cano & Malone-style expression replaces the random arrival of the
//! `(d_i+1)`-th busy slot by its deterministic deadline
//!
//! ```text
//! T_i = ⌈(d_i + 1) / p⌉  slots,
//! ```
//!
//! so a station attempts iff its backoff draw lands before the deadline:
//! `x_i = min(W_i, T_i) / W_i`, with the matching expected residency. The
//! two models share the renewal-reward chain and the decoupling link
//! `p = 1 − (1−τ)^(N−1)` but differ in the per-stage response — exactly
//! the kind of independent disagreement a cross-validation harness
//! wants: where both agree with the simulator we trust the backend,
//! where they diverge we know which modelling step is responsible. When
//! the deferral counter is disabled the deadline is never hit and both
//! models collapse to the same Bianchi-style expression (pinned by a
//! test below).

use crate::math::bisect_decreasing;
use crate::meanfield::{stage_visit_counts, tau_from_stages, StageQuantities};
use plc_core::config::{CsmaConfig, DC_DISABLED};
use serde::{Deserialize, Serialize};

/// Per-stage quantities under the deterministic-deferral approximation.
pub fn stage_response(w: u32, d: u32, p: f64) -> StageQuantities {
    assert!(w >= 1);
    assert!(
        (0.0..=1.0).contains(&p),
        "busy probability out of range: {p}"
    );
    if d == DC_DISABLED || p == 0.0 {
        return StageQuantities {
            attempt_prob: 1.0,
            backoff_slots: (w as f64 - 1.0) / 2.0,
        };
    }
    // The (d+1)-th busy slot lands exactly at its expectation.
    let t = ((d as f64 + 1.0) / p).ceil();
    let wf = w as f64;
    let k = t.min(wf); // backoff draws 0..k−1 attempt before the deadline
    StageQuantities {
        attempt_prob: k / wf,
        // b < k: b backoff slots then the attempt; b ≥ k: T slots then a
        // jump. (Σ_{b<k} b + (W−k)·T) / W, attempt slot excluded.
        backoff_slots: (k * (k - 1.0) / 2.0 + (wf - k) * t) / wf,
    }
}

/// The solved deterministic-deferral fixed point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CanoMaloneFixedPoint {
    /// Number of stations.
    pub n: usize,
    /// Per-slot attempt probability.
    pub tau: f64,
    /// Busy/collision probability `1 − (1−τ)^(N−1)`.
    pub collision_probability: f64,
}

/// Deterministic-deferral reference model of `N` saturated stations.
#[derive(Debug, Clone, PartialEq)]
pub struct CanoMaloneModel {
    config: CsmaConfig,
}

impl CanoMaloneModel {
    /// Model with the given parameter table.
    pub fn new(config: CsmaConfig) -> Self {
        CanoMaloneModel { config }
    }

    /// Model with the paper's default CA1 table.
    pub fn default_ca1() -> Self {
        Self::new(CsmaConfig::ieee1901_ca01())
    }

    /// The parameter table.
    pub fn config(&self) -> &CsmaConfig {
        &self.config
    }

    /// The attempt rate implied by a busy probability.
    pub fn tau_of_p(&self, p: f64) -> f64 {
        let stages: Vec<StageQuantities> = (0..self.config.num_stages())
            .map(|i| {
                let sp = self.config.stage(i);
                stage_response(sp.cw, sp.dc, p)
            })
            .collect();
        let visits = stage_visit_counts(&stages, p);
        tau_from_stages(&stages, &visits)
    }

    /// Solve the fixed point for `n` stations.
    pub fn solve(&self, n: usize) -> CanoMaloneFixedPoint {
        assert!(n >= 1, "need at least one station");
        let m = self.config.num_stages();
        let tau = if n == 1 {
            self.tau_of_p(0.0)
        } else if self.config.stage(m - 1).cw == 1 {
            // A unit window in the (absorbing) last stage attempts every
            // slot, so the response sticks at τ = 1 and bisection has no
            // sign change: the fixed point is saturation itself.
            1.0
        } else {
            bisect_decreasing(1e-12, 1.0 - 1e-12, |tau: f64| {
                let p = 1.0 - (1.0 - tau).powi(n as i32 - 1);
                self.tau_of_p(p) - tau
            })
        };
        CanoMaloneFixedPoint {
            n,
            tau,
            collision_probability: if n == 1 {
                0.0
            } else {
                1.0 - (1.0 - tau).powi(n as i32 - 1)
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meanfield::{stage_quantities, MeanFieldModel};

    #[test]
    fn collapses_to_binomial_model_without_deferral() {
        // d = ∞: the deadline never exists, both per-stage responses are
        // the plain uniform backoff — the fixed points must coincide.
        let config = CsmaConfig::dcf_like(8, 4).unwrap();
        let cm = CanoMaloneModel::new(config.clone());
        for n in [2usize, 5, 10, 50] {
            let a = MeanFieldModel::single(config.clone(), n).solve().unwrap();
            let b = cm.solve(n);
            assert!(
                (a.classes[0].tau - b.tau).abs() < 1e-10,
                "N={n}: binomial τ={:.12} vs deterministic τ={:.12}",
                a.classes[0].tau,
                b.tau
            );
        }
    }

    #[test]
    fn stage_response_matches_binomial_at_p_one_d_zero() {
        // p = 1, d = 0: the deadline is slot 1, so only b = 0 attempts —
        // identical to the exact binomial stage.
        let det = stage_response(8, 0, 1.0);
        let bin = stage_quantities(8, 0, 1.0);
        assert!((det.attempt_prob - bin.attempt_prob).abs() < 1e-12);
        assert!((det.backoff_slots - bin.backoff_slots).abs() < 1e-12);
    }

    #[test]
    fn genuinely_disagrees_with_binomial_under_deferral() {
        // The whole point of the second reference: with deferral on, the
        // deterministic deadline is a *different* approximation. Same
        // ballpark, but measurably apart.
        let bin = MeanFieldModel::single(CsmaConfig::ieee1901_ca01(), 10)
            .solve()
            .unwrap();
        let det = CanoMaloneModel::default_ca1();
        let gamma_bin = bin.classes[0].collision_probability;
        let gamma_det = det.solve(10).collision_probability;
        let gap = (gamma_bin - gamma_det).abs();
        assert!(gap > 1e-3, "models should not coincide: gap {gap:.2e}");
        assert!(gap < 0.1, "models should stay comparable: gap {gap:.3}");
    }

    #[test]
    fn collision_probability_increases_with_n() {
        let det = CanoMaloneModel::default_ca1();
        let mut prev = 0.0;
        for n in 1..=30 {
            let fp = det.solve(n);
            assert!(fp.tau > 0.0 && fp.tau <= 1.0);
            assert!(fp.collision_probability >= prev - 1e-12);
            prev = fp.collision_probability;
        }
    }

    #[test]
    fn lone_station_sees_idle_channel() {
        let fp = CanoMaloneModel::default_ca1().solve(1);
        assert_eq!(fp.collision_probability, 0.0);
        assert!((fp.tau - 1.0 / 4.5).abs() < 1e-9);
    }

    #[test]
    fn unit_window_last_stage_saturates() {
        let cm = CanoMaloneModel::new(CsmaConfig::from_vectors(&[1], &[0]).unwrap());
        let fp = cm.solve(3);
        assert_eq!(fp.tau, 1.0);
        assert_eq!(fp.collision_probability, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one station")]
    fn zero_stations_rejected() {
        CanoMaloneModel::default_ca1().solve(0);
    }
}
