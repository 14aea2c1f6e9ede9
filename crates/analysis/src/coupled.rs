//! Champion-conditioned coupled mean-field model — the workspace's primary
//! "Analysis" curve for Figure 2.
//!
//! ## Why a third model
//!
//! Two standard approximations both fail for 1901 (the workspace keeps
//! them for comparison — studying these modelling assumptions is the
//! subject of the companion analysis the report cites as \[5\]):
//!
//! * the slot-level decoupling of [`crate::meanfield`] overestimates
//!   collisions at small N — all stations restart their countdowns
//!   together after every transmission, and the deferral counter parks
//!   recent losers at *larger* windows than the population average, so
//!   attempts are anti-correlated across stations;
//! * a fresh-redraw round model underestimates them — deferral survivors
//!   keep a *residual* backoff that concentrates their attempts.
//!
//! This model keeps both effects and is validated to track the exact
//! finite-state machine within ±0.003 over N = 2…7:
//!
//! 1. **Round structure.** Between two transmissions there are no busy
//!    slots, so the process is a sequence of contention rounds: every
//!    station holds a backoff value `bc`; the minimum wins the round
//!    (ties collide); deferring stations spend a deferral credit (or jump
//!    stages when credits are exhausted) and carry the *residual*
//!    `bc − r − 1` into the next round.
//! 2. **Champion conditioning.** The station that transmitted last
//!    ("champion") is tracked by its own state distribution `π_W` —
//!    fresh at stage 0 right after every success — while the other
//!    `N − 1` stations are i.i.d. samples of a loser distribution `π_L`.
//!    This captures the winner/loser anti-correlation exactly at N = 2
//!    and to first order beyond.
//! 3. **Full per-station state.** Both distributions live on
//!    `(stage, credits used, bc)` — 1192 states for the CA1 table — so
//!    residual backoffs are exact within the mean field.
//!
//! The pair `(π_W, π_L)` is iterated to its fixed point; collision
//! probability, round composition and throughput follow in closed form.

use plc_core::config::{CsmaConfig, DC_DISABLED};
use plc_core::timing::MacTiming;
use serde::{Deserialize, Serialize};

/// Cap on tracked deferral credits (the standard tables need ≤ 16).
const MAX_TRACKED_CREDITS: u32 = 63;

/// One per-station state: backoff stage, deferral credits already spent at
/// this stage, current backoff value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FullState {
    /// Backoff stage.
    pub stage: usize,
    /// Busy rounds absorbed at this stage.
    pub credits_used: u32,
    /// Remaining backoff value.
    pub bc: u32,
}

/// Solved coupled fixed point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoupledFixedPoint {
    /// Station count.
    pub n: usize,
    /// Per-attempt collision probability — the Figure 2 quantity
    /// (`ΣCᵢ / ΣAᵢ` in expectation).
    pub collision_probability: f64,
    /// Probability that a round ends in a success.
    pub round_success_probability: f64,
    /// Expected idle backoff slots per round.
    pub idle_slots_per_round: f64,
    /// Expected transmitters per round.
    pub transmitters_per_round: f64,
    /// Stationary stage marginal of a loser-pool station.
    pub loser_stage_marginal: Vec<f64>,
    /// Stationary stage marginal of the champion.
    pub champion_stage_marginal: Vec<f64>,
}

/// The coupled champion/loser mean-field model. See the [module
/// docs](self).
///
/// # Examples
///
/// ```
/// use plc_analysis::CoupledModel;
///
/// // Figure 2's analysis point at N = 5: ≈ 0.21.
/// let fp = CoupledModel::default_ca1().solve(5);
/// assert!((fp.collision_probability - 0.21).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CoupledModel {
    config: CsmaConfig,
    /// All `(stage, credits, bc)` states, enumerated densely.
    states: Vec<FullState>,
    /// `index_of[stage][credits]` → base index of the `bc = 0` state.
    base: Vec<Vec<usize>>,
    /// Largest window (bc support bound).
    wmax: usize,
}

impl CoupledModel {
    /// Model for the given parameter table.
    pub fn new(config: CsmaConfig) -> Self {
        let mut states = Vec::new();
        let mut base = Vec::new();
        for i in 0..config.num_stages() {
            let sp = config.stage(i);
            let tracked = if sp.dc == DC_DISABLED {
                0
            } else {
                sp.dc.min(MAX_TRACKED_CREDITS)
            };
            let mut per_stage = Vec::new();
            for k in 0..=tracked {
                per_stage.push(states.len());
                for bc in 0..sp.cw {
                    states.push(FullState {
                        stage: i,
                        credits_used: k,
                        bc,
                    });
                }
            }
            base.push(per_stage);
        }
        let wmax = config.cw_max() as usize;
        CoupledModel {
            config,
            states,
            base,
            wmax,
        }
    }

    /// Model with the paper's default CA1 table.
    pub fn default_ca1() -> Self {
        Self::new(CsmaConfig::ieee1901_ca01())
    }

    /// The parameter table.
    pub fn config(&self) -> &CsmaConfig {
        &self.config
    }

    /// Number of per-station states tracked.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    fn idx(&self, stage: usize, credits: u32, bc: u32) -> usize {
        self.base[stage][credits as usize] + bc as usize
    }

    /// Spread `mass` uniformly over the fresh draws of `stage`.
    fn add_fresh(&self, dist: &mut [f64], stage: usize, mass: f64) {
        let w = self.config.stage(stage).cw;
        let per = mass / w as f64;
        let b0 = self.idx(stage, 0, 0);
        for v in 0..w as usize {
            dist[b0 + v] += per;
        }
    }

    /// Deferred update of a state after surviving a round of length `r`
    /// (`r < bc`): returns `(state index, jumped)`.
    fn defer_target(&self, s: FullState, r: u32) -> usize {
        let sp = self.config.stage(s.stage);
        let m = self.config.num_stages();
        if sp.dc == DC_DISABLED {
            return self.idx(s.stage, 0, s.bc - r - 1);
        }
        let tracked = sp.dc.min(MAX_TRACKED_CREDITS);
        if s.credits_used >= tracked {
            // Credits exhausted: jump to the next stage and redraw — handled
            // by the caller via add_fresh, signalled with usize::MAX.
            let _ = m;
            usize::MAX
        } else {
            self.idx(s.stage, s.credits_used + 1, s.bc - r - 1)
        }
    }

    /// bc marginal of a distribution.
    fn bc_marginal(&self, dist: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.wmax];
        for (si, &p) in dist.iter().enumerate() {
            out[self.states[si].bc as usize] += p;
        }
        out
    }

    /// Survival function `G(v) = P(bc > v)` from a bc pmf.
    fn survival(pmf: &[f64]) -> Vec<f64> {
        let mut g = vec![0.0; pmf.len() + 1];
        for v in (0..pmf.len()).rev() {
            g[v] = g[v + 1] + pmf[v];
        }
        // g[v] currently P(bc ≥ v); shift to P(bc > v).
        (0..pmf.len()).map(|v| g[v + 1]).collect()
    }

    /// Solve the coupled fixed point for `n` stations.
    pub fn solve(&self, n: usize) -> CoupledFixedPoint {
        assert!(n >= 1, "need at least one station");
        let m = self.config.num_stages();
        let ns = self.states.len();

        if n == 1 {
            let w0 = self.config.stage(0).cw as f64;
            let mut champ_marg = vec![0.0; m];
            champ_marg[0] = 1.0;
            return CoupledFixedPoint {
                n,
                collision_probability: 0.0,
                round_success_probability: 1.0,
                idle_slots_per_round: (w0 - 1.0) / 2.0,
                transmitters_per_round: 1.0,
                loser_stage_marginal: champ_marg.clone(),
                champion_stage_marginal: champ_marg,
            };
        }

        // Initialize: champion fresh at 0; losers fresh at stage min(1, m−1)
        // (a plausible post-loss state; the fixed point is insensitive).
        let mut pi_w = vec![0.0; ns];
        self.add_fresh(&mut pi_w, 0, 1.0);
        let mut pi_l = vec![0.0; ns];
        self.add_fresh(&mut pi_l, 1.min(m - 1), 1.0);

        let damping = 0.6;
        for _ in 0..5_000 {
            let (nw, nl) = self.step(&pi_w, &pi_l, n);
            let mut delta = 0.0;
            for i in 0..ns {
                let bw = damping * nw[i] + (1.0 - damping) * pi_w[i];
                let bl = damping * nl[i] + (1.0 - damping) * pi_l[i];
                delta += (bw - pi_w[i]).abs() + (bl - pi_l[i]).abs();
                pi_w[i] = bw;
                pi_l[i] = bl;
            }
            if delta < 1e-12 {
                break;
            }
        }

        self.quantities(&pi_w, &pi_l, n)
    }

    /// One synchronous update of `(π_W, π_L)`.
    fn step(&self, pi_w: &[f64], pi_l: &[f64], n: usize) -> (Vec<f64>, Vec<f64>) {
        let ns = self.states.len();
        let m = self.config.num_stages();
        let others_l = n - 2; // losers seen by a tagged loser besides the champion

        let lb = self.bc_marginal(pi_l);
        let wb = self.bc_marginal(pi_w);
        let gl = Self::survival(&lb); // P(loser bc > v)
        let gw = Self::survival(&wb); // P(champion bc > v)

        // P(min of the N−1 losers > v) and split of min events.
        let g_all_l: Vec<f64> = (0..self.wmax).map(|v| gl[v].powi((n - 1) as i32)).collect();
        // Champion update --------------------------------------------------
        let mut next_w = vec![0.0; ns];
        let mut champion_into_pool = vec![0.0; ns]; // flows into π_L'
        let mut fresh0_mass = 0.0; // new champion after any success

        for (si, &p) in pi_w.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let s = self.states[si];
            let b = s.bc as usize;
            // Champion wins: all N−1 losers strictly above b.
            fresh0_mass += p * g_all_l[b];
            // Champion ties at b: min of losers == b.
            let p_min_l_eq_b = if b == 0 {
                1.0 - g_all_l[0]
            } else {
                gl[b - 1].powi((n - 1) as i32) - g_all_l[b]
            };
            let adv = (s.stage + 1).min(m - 1);
            self.add_fresh(&mut next_w, adv, p * p_min_l_eq_b);
            // Losers' min at r < b: split success (exactly one loser at r)
            // vs loser collision.
            for r in 0..b {
                let p_min_l_eq_r = if r == 0 {
                    1.0 - gl[0].powi((n - 1) as i32)
                } else {
                    gl[r - 1].powi((n - 1) as i32) - gl[r].powi((n - 1) as i32)
                };
                if p_min_l_eq_r == 0.0 {
                    continue;
                }
                let p_one = (n - 1) as f64 * lb[r] * gl[r].powi((n - 2) as i32);
                let p_coll = (p_min_l_eq_r - p_one).max(0.0);
                // Deferred champion state after round length r.
                let tgt = self.defer_target(s, r as u32);
                if p_one > 0.0 {
                    // Loser success: new champion fresh; old one joins pool.
                    fresh0_mass += p * p_one;
                    if tgt == usize::MAX {
                        // Jump while entering the pool.
                        let adv = (s.stage + 1).min(m - 1);
                        self.add_fresh(&mut champion_into_pool, adv, p * p_one);
                    } else {
                        champion_into_pool[tgt] += p * p_one;
                    }
                }
                if p_coll > 0.0 {
                    // Losers collided: champion keeps the title, deferred.
                    if tgt == usize::MAX {
                        let adv = (s.stage + 1).min(m - 1);
                        self.add_fresh(&mut next_w, adv, p * p_coll);
                    } else {
                        next_w[tgt] += p * p_coll;
                    }
                }
            }
        }
        self.add_fresh(&mut next_w, 0, fresh0_mass);

        // Tagged-loser update ----------------------------------------------
        // Others of a tagged loser: the champion + (N−2) losers.
        let g_others: Vec<f64> = (0..self.wmax)
            .map(|v| gw[v] * gl[v].powi(others_l as i32))
            .collect();
        let mut stay = vec![0.0; ns];
        let mut win_exit = 0.0;
        for (si, &p) in pi_l.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let s = self.states[si];
            let b = s.bc as usize;
            // Tagged wins: everyone else above b → leaves the pool.
            win_exit += p * g_others[b];
            // Tagged ties: min of others == b → collision, advance fresh.
            let p_tie = if b == 0 {
                1.0 - g_others[0]
            } else {
                let ge_prev = gw[b - 1] * gl[b - 1].powi(others_l as i32);
                ge_prev - g_others[b]
            };
            let adv = (s.stage + 1).min(m - 1);
            self.add_fresh(&mut stay, adv, p * p_tie);
            // Tagged defers at r < b.
            for r in 0..b {
                let p_min_eq_r = if r == 0 {
                    1.0 - g_others[0]
                } else {
                    gw[r - 1] * gl[r - 1].powi(others_l as i32) - g_others[r]
                };
                // p_min_eq_r as written includes ties AT b when r == b; here
                // r < b strictly so it is exactly "others' min == r".
                if p_min_eq_r == 0.0 {
                    continue;
                }
                let tgt = self.defer_target(s, r as u32);
                if tgt == usize::MAX {
                    let adv = (s.stage + 1).min(m - 1);
                    self.add_fresh(&mut stay, adv, p * p_min_eq_r);
                } else {
                    stay[tgt] += p * p_min_eq_r;
                }
            }
        }

        // Pool recomposition: (N−1)·stay-per-loser + champion inflow, then
        // renormalize to a probability distribution.
        let pool_n = (n - 1) as f64;
        let mut next_l = vec![0.0; ns];
        for i in 0..ns {
            next_l[i] = pool_n * stay[i] + champion_into_pool[i];
        }
        let total: f64 = next_l.iter().sum();
        debug_assert!(
            (total - pool_n).abs() < 1e-6 || total == 0.0,
            "pool mass drift: {total} vs {pool_n} (win_exit {win_exit})"
        );
        if total > 0.0 {
            for x in &mut next_l {
                *x /= total;
            }
        }
        let totw: f64 = next_w.iter().sum();
        if totw > 0.0 {
            for x in &mut next_w {
                *x /= totw;
            }
        }
        (next_w, next_l)
    }

    /// Derived round quantities at a fixed point.
    fn quantities(&self, pi_w: &[f64], pi_l: &[f64], n: usize) -> CoupledFixedPoint {
        let lb = self.bc_marginal(pi_l);
        let wb = self.bc_marginal(pi_w);
        let gl = Self::survival(&lb);
        let gw = Self::survival(&wb);

        let mut p_succ = 0.0;
        let mut transmitters = 0.0;
        let mut idle = 0.0;
        for v in 0..self.wmax {
            let ge_l = gl[v] + lb[v]; // P(loser bc ≥ v)
            let ge_w = gw[v] + wb[v]; // P(champion bc ≥ v)
                                      // Exactly one at the global min v: champion alone, or one loser.
            p_succ += wb[v] * gl[v].powi((n - 1) as i32)
                + (n - 1) as f64 * lb[v] * gw[v] * gl[v].powi((n - 2) as i32);
            // E[# stations at v that are at the global min]: each needs all
            // the *other* stations at ≥ v.
            transmitters += wb[v] * ge_l.powi((n - 1) as i32)
                + (n - 1) as f64 * lb[v] * ge_w * ge_l.powi((n - 2) as i32);
            // P(global min > v) — contributes one idle slot each.
            idle += gw[v] * gl[v].powi((n - 1) as i32);
        }

        let gamma = if transmitters > 0.0 {
            ((transmitters - p_succ) / transmitters).max(0.0)
        } else {
            0.0
        };

        let stage_marg = |dist: &[f64]| {
            let mut out = vec![0.0; self.config.num_stages()];
            for (si, &p) in dist.iter().enumerate() {
                out[self.states[si].stage] += p;
            }
            out
        };

        CoupledFixedPoint {
            n,
            collision_probability: gamma,
            round_success_probability: p_succ.min(1.0),
            idle_slots_per_round: idle,
            transmitters_per_round: transmitters,
            loser_stage_marginal: stage_marg(pi_l),
            champion_stage_marginal: stage_marg(pi_w),
        }
    }

    /// Normalized throughput for `n` stations under `timing`.
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
    fn state_enumeration_ca1() {
        let m = CoupledModel::default_ca1();
        // 8·1 + 16·2 + 32·4 + 64·16 = 1192 states.
        assert_eq!(m.num_states(), 1192);
    }

    #[test]
    fn single_station_closed_form() {
        let fp = CoupledModel::default_ca1().solve(1);
        assert_eq!(fp.collision_probability, 0.0);
        assert!((fp.idle_slots_per_round - 3.5).abs() < 1e-12);
    }

    #[test]
    fn figure2_analysis_curve() {
        // The primary analysis must land on the paper's Figure 2 values.
        let model = CoupledModel::default_ca1();
        let expected = [
            (2, 0.074),
            (3, 0.134),
            (4, 0.178),
            (5, 0.218),
            (6, 0.244),
            (7, 0.267),
        ];
        for (n, target) in expected {
            let fp = model.solve(n);
            assert!(
                (fp.collision_probability - target).abs() < 0.015,
                "N={n}: coupled model {:.4} vs paper ≈ {target}",
                fp.collision_probability
            );
        }
    }

    #[test]
    fn matches_simulation_within_a_point() {
        use plc_sim::paper::PaperSim;
        let model = CoupledModel::default_ca1();
        for n in [2usize, 4, 7] {
            let fp = model.solve(n);
            let sim = PaperSim::with_n_and_time(n, 2e7).run(77).unwrap();
            assert!(
                (fp.collision_probability - sim.collision_pr).abs() < 0.012,
                "N={n}: coupled {:.4} vs simulation {:.4}",
                fp.collision_probability,
                sim.collision_pr
            );
        }
    }

    #[test]
    fn throughput_matches_simulation() {
        use plc_sim::paper::PaperSim;
        let model = CoupledModel::default_ca1();
        let timing = MacTiming::paper_default();
        for n in [1usize, 2, 5] {
            let s_model = model.throughput(n, &timing);
            let s_sim = PaperSim::with_n_and_time(n, 2e7)
                .run(5)
                .unwrap()
                .norm_throughput;
            assert!(
                (s_model - s_sim).abs() < 0.02,
                "N={n}: model S={s_model:.4} vs sim S={s_sim:.4}"
            );
        }
    }

    #[test]
    fn monotone_in_n() {
        let model = CoupledModel::default_ca1();
        let mut prev = 0.0;
        for n in 1..=12 {
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
    fn champion_sits_lower_than_losers() {
        // The champion is fresh at stage 0 after every success, so its
        // stage marginal must be concentrated strictly below the losers'.
        let fp = CoupledModel::default_ca1().solve(4);
        assert!(
            fp.champion_stage_marginal[0] > fp.loser_stage_marginal[0] + 0.2,
            "champion {:?} vs losers {:?}",
            fp.champion_stage_marginal,
            fp.loser_stage_marginal
        );
    }

    #[test]
    fn best_of_the_three_models() {
        // The coupled model must beat both the slot-decoupled model and
        // the fresh-draw round model against the simulator at N = 2 and 7.
        use plc_sim::paper::PaperSim;
        for n in [2usize, 7] {
            let sim = PaperSim::with_n_and_time(n, 2e7)
                .run(5)
                .unwrap()
                .collision_pr;
            let coupled = CoupledModel::default_ca1().solve(n).collision_probability;
            let decoupled =
                crate::meanfield::MeanFieldModel::single(CsmaConfig::ieee1901_ca01(), n)
                    .solve()
                    .unwrap()
                    .classes[0]
                    .collision_probability;
            let round = crate::round_model::RoundModel::default_ca1()
                .solve(n)
                .collision_probability;
            assert!(
                (coupled - sim).abs() <= (decoupled - sim).abs() + 1e-9,
                "N={n}: coupled {coupled:.4} vs decoupled {decoupled:.4} (sim {sim:.4})"
            );
            assert!(
                (coupled - sim).abs() <= (round - sim).abs() + 1e-9,
                "N={n}: coupled {coupled:.4} vs round {round:.4} (sim {sim:.4})"
            );
        }
    }

    #[test]
    fn dcf_like_table_supported() {
        let m = CoupledModel::new(CsmaConfig::dcf_like(16, 4).unwrap());
        let fp = m.solve(5);
        assert!(fp.collision_probability > 0.0 && fp.collision_probability < 0.6);
    }

    #[test]
    #[should_panic(expected = "at least one station")]
    fn zero_stations_rejected() {
        CoupledModel::default_ca1().solve(0);
    }
}
