//! Round-based mean-field model of the IEEE 1901 backoff process under
//! the fresh-redraw assumption — a comparison point in the
//! model-assumptions experiment (E7), not the workspace's primary
//! "Analysis" curve: that is [`crate::coupled::CoupledModel`], which
//! drives Figure 2 and the throughput, delay and priorities experiments.
//!
//! ## Why the naive decoupling fails here
//!
//! The classical (Bianchi-style) decoupling assumption treats the busy
//! probability of every slot, and the collision probability of every
//! attempt, as one i.i.d. constant `p = 1 − (1−τ)^(N−1)`. For 1901 this
//! visibly overestimates collisions at small N (the workspace reproduces
//! this as an experiment): after *every* transmission all stations restart
//! their countdowns together, and the deferral counter pushes recent losers
//! to higher stages, so the station attempting next is facing opponents
//! with systematically *larger* windows than the average τ suggests.
//! Investigating such modelling assumptions is exactly the subject of the
//! companion analysis the report cites as \[5\].
//!
//! ## The round model
//!
//! Between two consecutive transmissions there are **no busy slots** — the
//! medium is busy only when somebody transmits. The whole process is
//! therefore a sequence of *contention rounds*:
//!
//! 1. at a round start every station `s` holds a backoff value `b_s`; the
//!    round lasts `min_s b_s` idle slots and ends with the stations in
//!    `argmin` transmitting (one → success, several → collision);
//! 2. the winner returns to stage 0; colliders advance one stage; every
//!    other station senses one busy event: it either spends one deferral
//!    credit (`k → k+1` while `k < d_i`) or, with credits exhausted, jumps
//!    to the next stage and redraws.
//!
//! The mean-field approximation: each station is an i.i.d. sample of a
//! stationary distribution `π` over classes `(stage i, credits used k)`,
//! and redraws `b ~ U{0…CW_i−1}` fresh at every round start. (Fresh
//! redrawing is exact for every class that redraws on busy — e.g. all of
//! stage 0, whose `d₀ = 0` — and an approximation for credit-spending
//! survivors, whose residual backoff we replace by a fresh draw.)
//! `π` is the fixed point of the induced per-round transition kernel; all
//! Figure-2/throughput quantities follow from it in closed form.

use plc_core::config::{CsmaConfig, DC_DISABLED};
use plc_core::timing::MacTiming;
use serde::{Deserialize, Serialize};

/// Cap on tracked deferral credits per stage, to bound the class space for
/// exotic configs (the standard tables need at most 16).
const MAX_TRACKED_CREDITS: u32 = 63;

/// A per-station class: backoff stage plus deferral credits already spent
/// at this stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StationClass {
    /// Backoff stage.
    pub stage: usize,
    /// Busy rounds already absorbed at this stage (`0..=d_i`).
    pub credits_used: u32,
}

/// Solved round-model fixed point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundFixedPoint {
    /// Station count.
    pub n: usize,
    /// Per-attempt collision probability — Figure 2's quantity, equal to
    /// `ΣCᵢ / ΣAᵢ` in expectation.
    pub collision_probability: f64,
    /// Probability a round ends in a success (vs a collision).
    pub round_success_probability: f64,
    /// Expected idle backoff slots per round.
    pub idle_slots_per_round: f64,
    /// Expected transmitters per round (1·P(success) + E\[colliders\]).
    pub transmitters_per_round: f64,
    /// Stationary class distribution.
    pub class_distribution: Vec<(StationClass, f64)>,
    /// Stationary marginal over stages.
    pub stage_marginal: Vec<f64>,
}

/// The round-based mean-field model. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundModel {
    config: CsmaConfig,
    /// Enumerated classes, index-aligned with distributions.
    classes: Vec<StationClass>,
}

impl RoundModel {
    /// Model for the given parameter table.
    pub fn new(config: CsmaConfig) -> Self {
        let mut classes = Vec::new();
        for i in 0..config.num_stages() {
            let d = config.stage(i).dc;
            let tracked = if d == DC_DISABLED {
                0
            } else {
                d.min(MAX_TRACKED_CREDITS)
            };
            for k in 0..=tracked {
                classes.push(StationClass {
                    stage: i,
                    credits_used: k,
                });
            }
        }
        RoundModel { config, classes }
    }

    /// Model with the paper's default CA1 table.
    pub fn default_ca1() -> Self {
        Self::new(CsmaConfig::ieee1901_ca01())
    }

    /// The parameter table.
    pub fn config(&self) -> &CsmaConfig {
        &self.config
    }

    /// The enumerated `(stage, credits)` classes.
    pub fn classes(&self) -> &[StationClass] {
        &self.classes
    }

    fn class_index(&self, stage: usize, credits_used: u32) -> usize {
        self.classes
            .iter()
            .position(|c| c.stage == stage && c.credits_used == credits_used)
            .expect("class enumerated")
    }

    /// Largest window in the table (support bound for draw values).
    fn max_window(&self) -> u32 {
        self.config.cw_max()
    }

    /// Per-value draw pmf of the mixture induced by the stage marginal:
    /// `E[v] = Σ_i π̃_i · 1{v < W_i} / W_i`, and the survival
    /// `G[v] = P(draw > v)`.
    fn mixture(&self, stage_marginal: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let wmax = self.max_window() as usize;
        let mut pmf = vec![0.0; wmax];
        for (i, &pi) in stage_marginal.iter().enumerate() {
            let w = self.config.stage(i).cw as usize;
            let per = pi / w as f64;
            for slot in pmf.iter_mut().take(w) {
                *slot += per;
            }
        }
        let mut surv = vec![0.0; wmax + 1];
        for v in (0..wmax).rev() {
            surv[v] = surv[v + 1] + pmf[v];
        }
        // surv[v] = P(draw ≥ v); convert to P(draw > v) by shifting.
        let g: Vec<f64> = (0..wmax).map(|v| surv[v + 1]).collect();
        (pmf, g)
    }

    /// One mean-field iteration: given the class distribution, build the
    /// tagged station's round-transition kernel and return the updated
    /// distribution plus the per-round win/tie masses.
    fn step_distribution(&self, pi: &[f64], n: usize) -> (Vec<f64>, f64, f64) {
        let m = self.config.num_stages();
        let stage_marginal = self.stage_marginal_of(pi);
        let (pmf, g) = self.mixture(&stage_marginal);
        let others = (n - 1) as i32;

        let mut next = vec![0.0; self.classes.len()];
        let mut win_mass = 0.0;
        let mut tie_mass = 0.0;

        for (ci, class) in self.classes.iter().enumerate() {
            let weight = pi[ci];
            if weight == 0.0 {
                continue;
            }
            let sp = self.config.stage(class.stage);
            let w = sp.cw as usize;
            let inv_w = 1.0 / w as f64;
            let mut p_win = 0.0;
            let mut p_tie = 0.0;
            for v in 0..w {
                let g_v = g[v];
                let ge_v = g[v] + pmf[v];
                let win = g_v.powi(others);
                let tie = ge_v.powi(others) - win;
                p_win += inv_w * win;
                p_tie += inv_w * tie;
            }
            let p_defer = (1.0 - p_win - p_tie).max(0.0);

            win_mass += weight * p_win;
            tie_mass += weight * p_tie;

            // Win → stage 0, fresh credits.
            next[self.class_index(0, 0)] += weight * p_win;
            // Collide → next stage (saturating), fresh credits.
            let adv = (class.stage + 1).min(m - 1);
            next[self.class_index(adv, 0)] += weight * p_tie;
            // Defer → spend a credit or jump.
            let d = sp.dc;
            if d == DC_DISABLED {
                next[ci] += weight * p_defer;
            } else if class.credits_used >= d.min(MAX_TRACKED_CREDITS) {
                next[self.class_index(adv, 0)] += weight * p_defer;
            } else {
                next[self.class_index(class.stage, class.credits_used + 1)] += weight * p_defer;
            }
        }

        // Normalize (guards drift from float error).
        let total: f64 = next.iter().sum();
        if total > 0.0 {
            for x in &mut next {
                *x /= total;
            }
        }
        (next, win_mass, tie_mass)
    }

    fn stage_marginal_of(&self, pi: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.config.num_stages()];
        for (ci, class) in self.classes.iter().enumerate() {
            out[class.stage] += pi[ci];
        }
        out
    }

    /// Solve the fixed point for `n` stations.
    pub fn solve(&self, n: usize) -> RoundFixedPoint {
        assert!(n >= 1, "need at least one station");
        if n == 1 {
            // Alone: every round is a win from stage 0.
            let w0 = self.config.stage(0).cw as f64;
            let mut class_distribution: Vec<(StationClass, f64)> =
                self.classes.iter().map(|&c| (c, 0.0)).collect();
            class_distribution[self.class_index(0, 0)].1 = 1.0;
            let mut stage_marginal = vec![0.0; self.config.num_stages()];
            stage_marginal[0] = 1.0;
            return RoundFixedPoint {
                n,
                collision_probability: 0.0,
                round_success_probability: 1.0,
                idle_slots_per_round: (w0 - 1.0) / 2.0,
                transmitters_per_round: 1.0,
                class_distribution,
                stage_marginal,
            };
        }

        // Damped mean-field iteration from "everyone fresh at stage 0".
        let mut pi = vec![0.0; self.classes.len()];
        pi[self.class_index(0, 0)] = 1.0;
        let damping = 0.5;
        for _ in 0..20_000 {
            let (next, _, _) = self.step_distribution(&pi, n);
            let mut delta = 0.0;
            for i in 0..pi.len() {
                let blended = damping * next[i] + (1.0 - damping) * pi[i];
                delta += (blended - pi[i]).abs();
                pi[i] = blended;
            }
            if delta < 1e-13 {
                break;
            }
        }

        let (_, win_mass, tie_mass) = self.step_distribution(&pi, n);
        let gamma = if win_mass + tie_mass > 0.0 {
            tie_mass / (win_mass + tie_mass)
        } else {
            0.0
        };

        // Network-level round structure: N i.i.d. draws from the mixture.
        let stage_marginal = self.stage_marginal_of(&pi);
        let (pmf, g) = self.mixture(&stage_marginal);
        let wmax = self.max_window() as usize;
        let mut p_succ_round = 0.0;
        let mut idle_slots = 0.0;
        let mut transmitters = 0.0;
        let nf = n as f64;
        for v in 0..wmax {
            let ge = g[v] + pmf[v];
            let p_min_here = ge.powi(n as i32) - g[v].powi(n as i32);
            let p_exactly_one = nf * pmf[v] * g[v].powi(n as i32 - 1);
            p_succ_round += p_exactly_one;
            idle_slots += v as f64 * p_min_here;
            // E[transmitters | min = v] = N·pmf / (1 − g) conditioned on ≥1 at v…
            // simpler: E[#draws = v AND min = v] = N·pmf[v]·P(other N−1 ≥ v).
            transmitters += nf * pmf[v] * ge.powi(n as i32 - 1);
        }

        RoundFixedPoint {
            n,
            collision_probability: gamma,
            round_success_probability: p_succ_round,
            idle_slots_per_round: idle_slots,
            transmitters_per_round: transmitters,
            class_distribution: self
                .classes
                .iter()
                .copied()
                .zip(pi.iter().copied())
                .collect(),
            stage_marginal,
        }
    }

    /// Normalized throughput for `n` stations under `timing`:
    /// `P_succ · L / (E[idle slots] σ + P_succ Ts + P_coll Tc)`.
    pub fn throughput(&self, n: usize, timing: &MacTiming) -> f64 {
        let fp = self.solve(n);
        let p_succ = fp.round_success_probability;
        let p_coll = 1.0 - p_succ;
        let denom = fp.idle_slots_per_round * timing.slot.as_micros()
            + p_succ * timing.ts.as_micros()
            + p_coll * timing.tc.as_micros();
        if denom == 0.0 {
            return 0.0;
        }
        p_succ * timing.frame_length.as_micros() / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_enumeration_ca1() {
        let m = RoundModel::default_ca1();
        // 1 + 2 + 4 + 16 classes for d = [0, 1, 3, 15].
        assert_eq!(m.classes().len(), 23);
        assert_eq!(
            m.classes()[0],
            StationClass {
                stage: 0,
                credits_used: 0
            }
        );
    }

    #[test]
    fn single_station_closed_form() {
        let fp = RoundModel::default_ca1().solve(1);
        assert_eq!(fp.collision_probability, 0.0);
        assert_eq!(fp.round_success_probability, 1.0);
        assert!((fp.idle_slots_per_round - 3.5).abs() < 1e-12);
    }

    #[test]
    fn tracks_figure2_shape_with_known_bias() {
        // The fresh-draw round model is a *comparison point*, not the
        // primary analysis (`crate::coupled` is): redrawing every round
        // discards deferral survivors' residual backoffs, which
        // *underestimates* attempt clustering at larger N, while the
        // i.i.d. station sampling slightly overestimates ties at N = 2.
        // Pin the resulting signature so either bias regressing is caught.
        let model = RoundModel::default_ca1();
        let paper = [(2, 0.074), (4, 0.178), (7, 0.267)];
        for (n, target) in paper {
            let fp = model.solve(n);
            assert!(
                (fp.collision_probability - target).abs() < 0.05,
                "N={n}: round model {:.4} should stay within ±0.05 of {target}",
                fp.collision_probability
            );
        }
        assert!(model.solve(2).collision_probability > 0.074, "over at N=2");
        assert!(model.solve(7).collision_probability < 0.267, "under at N=7");
    }

    #[test]
    fn beats_decoupled_model_at_small_n() {
        // At N = 2 the naive decoupled model overshoots harder than the
        // round model does.
        use plc_sim::paper::PaperSim;
        let sim = PaperSim::with_n_and_time(2, 2e7)
            .run(5)
            .unwrap()
            .collision_pr;
        let round = RoundModel::default_ca1().solve(2).collision_probability;
        let decoupled = crate::meanfield::MeanFieldModel::single(CsmaConfig::ieee1901_ca01(), 2)
            .solve()
            .unwrap()
            .classes[0]
            .collision_probability;
        assert!(
            (round - sim).abs() < (decoupled - sim).abs(),
            "round {round:.4}, decoupled {decoupled:.4}, sim {sim:.4}"
        );
    }

    #[test]
    fn throughput_roughly_tracks_simulation() {
        use plc_sim::paper::PaperSim;
        let model = RoundModel::default_ca1();
        let timing = MacTiming::paper_default();
        for n in [1usize, 2, 5] {
            let s_model = model.throughput(n, &timing);
            let s_sim = PaperSim::with_n_and_time(n, 2e7)
                .run(5)
                .unwrap()
                .norm_throughput;
            assert!(
                (s_model - s_sim).abs() < 0.05,
                "N={n}: model S={s_model:.4} vs sim S={s_sim:.4}"
            );
        }
    }

    #[test]
    fn monotone_in_n() {
        let model = RoundModel::default_ca1();
        let mut prev = 0.0;
        for n in 1..=15 {
            let fp = model.solve(n);
            assert!(
                fp.collision_probability >= prev - 1e-9,
                "N={n}: {} < {prev}",
                fp.collision_probability
            );
            prev = fp.collision_probability;
        }
    }

    #[test]
    fn distribution_is_normalized_and_loaded() {
        let fp = RoundModel::default_ca1().solve(5);
        let total: f64 = fp.class_distribution.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let stage_total: f64 = fp.stage_marginal.iter().sum();
        assert!((stage_total - 1.0).abs() < 1e-9);
        // With 5 saturated stations, upper stages are definitely occupied.
        assert!(fp.stage_marginal[0] > 0.0);
        assert!(fp.stage_marginal[3] > 0.0);
    }

    #[test]
    fn transmitters_per_round_sane() {
        let fp = RoundModel::default_ca1().solve(4);
        assert!(fp.transmitters_per_round >= 1.0);
        assert!(fp.transmitters_per_round < 2.0);
        // Consistency: E[tx] = P_succ·1 + E[colliders]·P_coll, and
        // γ = (E[tx] − P_succ)/E[tx].
        let gamma_check =
            (fp.transmitters_per_round - fp.round_success_probability) / fp.transmitters_per_round;
        assert!((gamma_check - fp.collision_probability).abs() < 1e-9);
    }

    #[test]
    fn dcf_like_table_works_too() {
        let m = RoundModel::new(CsmaConfig::dcf_like(16, 5).unwrap());
        assert_eq!(m.classes().len(), 5, "one class per stage when DC disabled");
        let fp = m.solve(5);
        assert!(fp.collision_probability > 0.0 && fp.collision_probability < 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one station")]
    fn zero_stations_rejected() {
        RoundModel::default_ca1().solve(0);
    }
}
