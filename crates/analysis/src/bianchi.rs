//! Bianchi's closed-form fixed-point model of 802.11 DCF — the baseline
//! the paper compares 1901 against.
//!
//! For binary-exponential backoff with minimum window `W`, `m` doubling
//! stages and infinite retries, Bianchi (JSAC 2000) gives the per-slot
//! attempt probability as
//!
//! ```text
//! τ(p) = 2 (1 − 2p) / ((1 − 2p)(W + 1) + p W (1 − (2p)^m))
//! p    = 1 − (1 − τ)^(N−1)
//! ```
//!
//! solved as a fixed point. This closed form is also the analytic
//! cross-check for the general stage-chain machinery in
//! [`crate::meanfield`]: a 1901 model with every deferral counter disabled
//! must coincide with it (the workspace tests assert this within numerical
//! tolerance — note the two models are derived with the same slot
//! accounting, so agreement is exact up to the solver).

use crate::math::bisect_decreasing;
use crate::throughput::{normalized_throughput, SlotProbabilities};
use plc_core::timing::MacTiming;
use serde::{Deserialize, Serialize};

/// Bianchi model parameters: minimum window and number of doubling stages.
///
/// # Examples
///
/// ```
/// use plc_analysis::BianchiModel;
///
/// // A lone DCF station attempts with τ = 2/(W+1).
/// let fp = BianchiModel::classic().solve(1);
/// assert!((fp.tau - 2.0 / 17.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BianchiModel {
    /// Minimum contention window `W` (stage-0 window).
    pub w: u32,
    /// Number of stages; the window at the last stage is `W · 2^(m−1)`.
    pub m: u32,
}

/// Solved DCF fixed point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BianchiFixedPoint {
    /// Station count.
    pub n: usize,
    /// Per-slot attempt probability.
    pub tau: f64,
    /// Conditional collision probability.
    pub collision_probability: f64,
}

impl BianchiModel {
    /// Classic DCF: `W = 16`, 6 stages (16…512).
    pub fn classic() -> Self {
        BianchiModel { w: 16, m: 6 }
    }

    /// DCF restricted to 1901's CA1 windows: `W = 8`, 4 stages (8…64).
    pub fn with_1901_windows() -> Self {
        BianchiModel { w: 8, m: 4 }
    }

    /// `τ(p)` — Bianchi's closed form.
    ///
    /// Note on conventions: Bianchi indexes stages `0…m` with
    /// `CW_max = 2^m W` (so `m + 1` windows), while this struct's `m` is
    /// the *number of windows* to match `CsmaConfig::dcf_like`. The
    /// exponent below is therefore `self.m − 1`.
    pub fn tau_of_p(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p));
        let w = self.w as f64;
        let mb = self.m as f64 - 1.0; // Bianchi's maximum stage index
        if (p - 0.5).abs() < 1e-12 {
            // Removable singularity at p = 1/2: take the limit.
            // τ = 2 / (1 + W + p W Σ_{i=0}^{m_B−1} (2p)^i) with 2p = 1 →
            // Σ = m_B, so τ = 2 / (1 + W + W m_B / 2).
            return 2.0 / (1.0 + w + w * mb / 2.0);
        }
        let two_p = 2.0 * p;
        2.0 * (1.0 - two_p) / ((1.0 - two_p) * (w + 1.0) + p * w * (1.0 - two_p.powf(mb)))
    }

    /// Solve the fixed point for `n` stations.
    pub fn solve(&self, n: usize) -> BianchiFixedPoint {
        assert!(n >= 1, "need at least one station");
        let tau = if n == 1 {
            self.tau_of_p(0.0)
        } else {
            bisect_decreasing(1e-12, 1.0 - 1e-12, |tau| {
                let p = 1.0 - (1.0 - tau).powi(n as i32 - 1);
                self.tau_of_p(p) - tau
            })
        };
        let p = 1.0 - (1.0 - tau).powi(n as i32 - 1);
        BianchiFixedPoint {
            n,
            tau,
            collision_probability: p,
        }
    }

    /// Normalized throughput for `n` stations under `timing`.
    pub fn throughput(&self, n: usize, timing: &MacTiming) -> f64 {
        let fp = self.solve(n);
        normalized_throughput(&SlotProbabilities::from_tau(fp.tau, n), timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meanfield::MeanFieldModel;
    use plc_core::config::CsmaConfig;

    #[test]
    fn single_station_closed_form() {
        // p = 0 → τ = 2/(W+1).
        let fp = BianchiModel::classic().solve(1);
        assert!((fp.tau - 2.0 / 17.0).abs() < 1e-12);
        assert_eq!(fp.collision_probability, 0.0);
    }

    #[test]
    fn collision_probability_monotone_in_n() {
        let model = BianchiModel::classic();
        let mut prev = 0.0;
        for n in 1..=30 {
            let fp = model.solve(n);
            assert!(fp.collision_probability >= prev);
            assert!(fp.tau > 0.0 && fp.tau < 1.0);
            prev = fp.collision_probability;
        }
    }

    #[test]
    fn singularity_at_half_is_continuous() {
        let m = BianchiModel::classic();
        let below = m.tau_of_p(0.5 - 1e-9);
        let at = m.tau_of_p(0.5);
        let above = m.tau_of_p(0.5 + 1e-9);
        assert!((below - at).abs() < 1e-6);
        assert!((above - at).abs() < 1e-6);
    }

    #[test]
    fn general_model_with_dc_disabled_matches_bianchi() {
        // The stage-chain model with d_i = ∞ and doubling windows must
        // reproduce Bianchi's τ — they implement the same Markov chain.
        let closed = BianchiModel::classic();
        for n in [2usize, 5, 10, 20] {
            let general = MeanFieldModel::single(CsmaConfig::dcf_like(16, 6).unwrap(), n)
                .solve()
                .unwrap();
            let a = &general.classes[0];
            let b = closed.solve(n);
            assert!(
                (a.tau - b.tau).abs() < 1e-6,
                "N={n}: general τ={} vs Bianchi τ={}",
                a.tau,
                b.tau
            );
            assert!((a.collision_probability - b.collision_probability).abs() < 1e-6);
        }
    }

    #[test]
    fn dcf_matches_dcf_simulation() {
        // Cross-check the model against the DCF engine. Note the engine
        // implements true freeze-on-busy; Bianchi's slotted accounting is
        // an approximation of it, so the tolerance is looser than for 1901.
        use plc_sim::runner::Simulation;
        let model = BianchiModel::classic();
        for n in [2usize, 5] {
            let sim = Simulation::dcf(n).horizon_us(2e7).seed(3).run();
            let fp = model.solve(n);
            assert!(
                (fp.collision_probability - sim.collision_probability).abs() < 0.03,
                "N={n}: Bianchi {} vs sim {}",
                fp.collision_probability,
                sim.collision_probability
            );
        }
    }

    #[test]
    fn matched_windows_collide_more_than_1901() {
        // Figure-2-style comparison at the model level: DCF with 1901's
        // windows vs 1901 with deferral.
        let dcf = BianchiModel::with_1901_windows();
        for n in [3usize, 5, 10] {
            let p1901 = MeanFieldModel::single(CsmaConfig::ieee1901_ca01(), n)
                .solve()
                .unwrap();
            assert!(
                p1901.classes[0].collision_probability < dcf.solve(n).collision_probability,
                "N={n}"
            );
        }
    }

    #[test]
    fn throughput_sane() {
        let timing = MacTiming::paper_default();
        let s = BianchiModel::classic().throughput(5, &timing);
        assert!(s > 0.4 && s < 1.0, "throughput {s}");
    }

    #[test]
    #[should_panic(expected = "at least one station")]
    fn zero_stations_rejected() {
        BianchiModel::classic().solve(0);
    }
}
