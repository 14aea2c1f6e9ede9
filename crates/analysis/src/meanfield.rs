//! Mean-field (decoupling) fixed point of the IEEE 1901 backoff process
//! for one or several station classes, with convergence diagnostics —
//! the slot-decoupled "Analysis" model of the paper's companion analysis
//! (Vlachou et al., ICNP 2014 — reference \[5\] of the report) and the
//! solver behind the [`Backend::MeanField`] engine backend in `plc-sim`.
//!
//! ## Model
//!
//! Under the decoupling assumption a station sees, in every backoff slot,
//! an i.i.d. probability `p` that *some other* station transmits (the
//! slot is "busy" / an attempt collides). The 1901 per-stage behaviour
//! then yields, for stage `i` with window `W_i` and deferral value `d_i`
//! ([`stage_quantities`]):
//!
//! * **attempt probability** — entering stage `i`, the station draws
//!   `BC = b ~ U{0…W_i−1}` and attempts iff at most `d_i` of those `b`
//!   pre-attempt slots are busy (otherwise the deferral counter expires
//!   first and it jumps):
//!   `x_i = (1/W_i) Σ_b P(Bin(b, p) ≤ d_i)`;
//! * **expected slots spent** — the station leaves stage `i` after
//!   `min(b, T)` backoff slots, `T` the arrival slot of the `(d_i+1)`-th
//!   busy slot:
//!   `s_i = (1/W_i) Σ_b Σ_{t<b} P(Bin(t, p) ≤ d_i)`, plus one slot for the
//!   attempt itself when it happens;
//! * **stage chain** — a stage visit ends the renewal cycle with
//!   probability `q_i = x_i (1−p)` (attempt and succeed); otherwise the
//!   station moves to stage `min(i+1, m−1)`.
//!
//! Renewal–reward over a success-to-success cycle gives a class's response
//! `τ = F(p) = Σ E_i x_i / Σ E_i (s_i + x_i)`, with `E_i` the expected
//! visits to stage `i` per cycle. Setting every `d_i = ∞` recovers a
//! Bianchi-style model of binary-exponential backoff (cross-checked
//! against the closed form in [`crate::bianchi`]).
//!
//! ## Solver
//!
//! With several station classes (different CSMA schedules sharing one
//! contention domain, as in the ToN extension of the paper) the fixed
//! point lives in `[0,1]^C`. This module solves the coupled system
//!
//! ```text
//! τ_c = F_c(p_c)                       (per-class renewal–reward response)
//! p_c = 1 − (1−τ_c)^(n_c−1) · Π_{c'≠c} (1−τ_{c'})^(n_{c'})
//! ```
//!
//! by damped iteration `τ ← τ + α (F(p(τ)) − τ)` with **adaptive
//! damping**: whenever the residual `max_c |F_c − τ_c|` grows, the step
//! size is halved (and recovers slowly on progress), which tames the
//! oscillation the plain map exhibits for aggressive schedules and large
//! `N`. The solver never fabricates an answer: if the residual does not
//! reach the tolerance within the iteration cap it returns a typed
//! [`plc_core::error::Error::Runtime`] carrying the diagnostics, and a
//! successful solve reports the iteration count and final residual in
//! [`SolverDiagnostics`]. A lone station sees `p = 0` exactly and needs
//! no iteration.
//!
//! ## Which fixed point
//!
//! The fixed point need not be unique, and the residual certifies *a*
//! fixed point, not the only one. For tables whose windows never shrink
//! from one stage to the next, `F(p(τ)) − τ` changed sign exactly once in
//! every one of 1600 random single-class cases (1–5 stages, windows
//! 2…256, random deferral, N ∈ {2, 5, 12, 30}). That is evidence, not a
//! proof: with deferral on, `F` need not even be monotone (`[8, 8]` /
//! `[0, −]` dips below its `p = 0` and `p = 1` values in between).
//! Tables whose windows shrink can have three roots: 40 of 1600 random
//! such cases had more than one sign change, and `[16, 128, 32, 4, 2]` /
//! `[−, −, 30, 6, −]` at N = 12 has τ ≈ 0.045, 0.29 and 0.67. The damped iteration starts each class at
//! `F(1/2)` and settles on a root where the response crosses the
//! diagonal from above, since one crossed from below repels the damped
//! step: for that table it returns τ = 0.0449, where the slotted engine
//! sits (τ ≈ 0.046), not the middle or the top root.
//!
//! ## Validity envelope
//!
//! The decoupling assumption treats the busy process seen by a station as
//! i.i.d. across slots. That is exact as `N → ∞` and demonstrably wrong
//! at small `N`, where all stations restart together after every
//! transmission (see the `decoupling_overestimates_at_small_n` test).
//! [`gamma_tolerance`] / [`throughput_tolerance`] encode the documented
//! error envelope used by the cross-validation suite and the
//! `validate-backends` experiment; see DESIGN.md §"Analytic backends".
//!
//! [`Backend::MeanField`]: https://docs.rs/plc-sim

use crate::math::BinomialCdfTracker;
use crate::throughput::{normalized_throughput, SlotProbabilities};
use plc_core::config::{CsmaConfig, DC_DISABLED};
use plc_core::error::{Error, Result};
use plc_core::timing::MacTiming;
use serde::{Deserialize, Serialize};

/// Per-stage quantities at a given busy probability.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageQuantities {
    /// Probability of attempting a transmission during a visit to this
    /// stage (vs jumping via the deferral counter).
    pub attempt_prob: f64,
    /// Expected backoff slots spent during a visit (excluding the attempt
    /// slot).
    pub backoff_slots: f64,
}

/// Compute `x_i` and `s_i` for one stage. O(W · d).
pub fn stage_quantities(w: u32, d: u32, p: f64) -> StageQuantities {
    assert!(w >= 1);
    assert!(
        (0.0..=1.0).contains(&p),
        "busy probability out of range: {p}"
    );
    if d == DC_DISABLED || p == 0.0 {
        // No deferral (or never busy): always attempts, mean backoff
        // (W−1)/2.
        return StageQuantities {
            attempt_prob: 1.0,
            backoff_slots: (w as f64 - 1.0) / 2.0,
        };
    }
    // x = (1/W) Σ_{b=0}^{W-1} C(b),   C(b) = P(Bin(b,p) ≤ d)
    // s = (1/W) Σ_{b=0}^{W-1} Σ_{t=0}^{b-1} C(t)
    //   = (1/W) Σ_{t=0}^{W-2} (W-1-t) · C(t)
    let mut tracker = BinomialCdfTracker::new(p, d);
    let wf = w as f64;
    let mut x_sum = 0.0;
    let mut s_sum = 0.0;
    for b in 0..w as u64 {
        let c = tracker.cdf(); // C(b)
        x_sum += c;
        if b + 1 < w as u64 {
            s_sum += (w as f64 - 1.0 - b as f64) * c;
        }
        tracker.step();
    }
    StageQuantities {
        attempt_prob: x_sum / wf,
        backoff_slots: s_sum / wf,
    }
}

/// Per-stage quantities for every stage of `config` at busy probability
/// `p` (saturating stage lookup, like the engine's BPC rule).
pub(crate) fn stage_quantities_for(config: &CsmaConfig, p: f64) -> Vec<StageQuantities> {
    (0..config.num_stages())
        .map(|i| {
            let sp = config.stage(i);
            stage_quantities(sp.cw, sp.dc, p)
        })
        .collect()
}

/// Expected visits per renewal cycle to each stage, given per-stage
/// quantities and collision probability `p`.
pub(crate) fn stage_visit_counts(stages: &[StageQuantities], p: f64) -> Vec<f64> {
    let m = stages.len();
    let q: Vec<f64> = stages.iter().map(|s| s.attempt_prob * (1.0 - p)).collect();
    let mut visits = vec![0.0; m];
    if m == 1 {
        visits[0] = if q[0] > 0.0 {
            1.0 / q[0]
        } else {
            f64::INFINITY
        };
        return visits;
    }
    visits[0] = 1.0;
    for i in 1..m - 1 {
        visits[i] = visits[i - 1] * (1.0 - q[i - 1]);
    }
    // Last stage self-loops: entries · expected residencies per entry.
    let entries = visits[m - 2] * (1.0 - q[m - 2]);
    visits[m - 1] = if q[m - 1] > 0.0 {
        entries / q[m - 1]
    } else {
        f64::INFINITY
    };
    visits
}

/// Renewal–reward attempt rate `τ` of a stage chain. Degenerates to the
/// last stage's attempt rate when the visit counts diverge (`p → 1`: no
/// attempt ever succeeds and the chain lives in the absorbing last stage).
pub(crate) fn tau_from_stages(stages: &[StageQuantities], visits: &[f64]) -> f64 {
    if visits.iter().any(|v| !v.is_finite()) {
        let last = stages.last().expect("at least one stage");
        return last.attempt_prob / (last.backoff_slots + last.attempt_prob);
    }
    let mut attempts = 0.0;
    let mut slots = 0.0;
    for (i, st) in stages.iter().enumerate() {
        attempts += visits[i] * st.attempt_prob;
        slots += visits[i] * (st.backoff_slots + st.attempt_prob);
    }
    attempts / slots
}

/// One class of stations sharing a CSMA schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassSpec {
    /// Display label carried into the solution (e.g. `"CA1"`).
    pub label: String,
    /// The class's backoff schedule.
    pub config: CsmaConfig,
    /// Number of stations in the class (≥ 1).
    pub n: usize,
}

/// Knobs of the damped fixed-point iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverOptions {
    /// Initial step size `α ∈ (0, 1]` of the damped update. Adaptively
    /// halved when the residual grows.
    pub damping: f64,
    /// Iteration cap; exceeding it is a typed error, not a silent return.
    pub max_iterations: u32,
    /// Convergence threshold on the residual `max_c |F_c(τ) − τ_c|`.
    pub tolerance: f64,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            damping: 0.5,
            max_iterations: 20_000,
            tolerance: 1e-12,
        }
    }
}

/// What the solver actually did — returned alongside every solution so a
/// caller can tell a crisp fixed point from a barely-converged one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverDiagnostics {
    /// Damped iterations performed.
    pub iterations: u32,
    /// Final residual `max_c |F_c(τ) − τ_c|` at the returned point.
    pub residual: f64,
    /// Whether the residual met the tolerance (always true for a returned
    /// solution; kept explicit for serialization into reports).
    pub converged: bool,
    /// Step size in effect when the solver stopped.
    pub final_damping: f64,
}

/// Per-class quantities at the solved fixed point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassFixedPoint {
    /// Label copied from the [`ClassSpec`].
    pub label: String,
    /// Stations in the class.
    pub n: usize,
    /// Per-slot attempt probability of one station of this class.
    pub tau: f64,
    /// Busy/collision probability seen by one station of this class.
    pub collision_probability: f64,
    /// Per-stage attempt probabilities `x_i` at the fixed point.
    pub stage_attempt_probs: Vec<f64>,
    /// Expected visits to each stage per renewal cycle.
    pub stage_visits: Vec<f64>,
    /// Long-run fraction of a station's backoff slots spent in each stage
    /// (the stationary occupancy of the drift ODE; sums to 1).
    pub stage_occupancy: Vec<f64>,
    /// Expected decision slots between successes of one tagged station
    /// (`Σ_i E_i (s_i + x_i)`); `∞` when the chain never succeeds.
    pub mean_access_delay_slots: f64,
}

/// A solved mean-field fixed point for one contention domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeanFieldSolution {
    /// Per-class fixed points, in input order.
    pub classes: Vec<ClassFixedPoint>,
    /// Aggregate channel slot mix (idle / success / collision).
    pub slots: SlotProbabilities,
    /// Convergence diagnostics of the solve.
    pub diagnostics: SolverDiagnostics,
}

impl MeanFieldSolution {
    /// Total stations across all classes.
    pub fn total_stations(&self) -> usize {
        self.classes.iter().map(|c| c.n).sum()
    }

    /// Normalized throughput under `timing`.
    pub fn throughput(&self, timing: &MacTiming) -> f64 {
        normalized_throughput(&self.slots, timing)
    }

    /// Expected wall-clock duration of one decision slot in µs.
    pub fn expected_slot_us(&self, timing: &MacTiming) -> f64 {
        self.slots.idle * timing.slot.as_micros()
            + self.slots.success * timing.ts.as_micros()
            + self.slots.collision * timing.tc.as_micros()
    }
}

/// Multi-class mean-field model of one saturated contention domain.
///
/// ```
/// use plc_analysis::meanfield::MeanFieldModel;
/// use plc_core::config::CsmaConfig;
///
/// let sol = MeanFieldModel::new()
///     .class("CA1", CsmaConfig::ieee1901_ca01(), 5)
///     .class("CA3", CsmaConfig::ieee1901_ca23(), 3)
///     .solve()
///     .unwrap();
/// assert!(sol.diagnostics.converged);
/// assert!(sol.classes[1].tau > sol.classes[0].tau, "CA3 is more aggressive");
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeanFieldModel {
    classes: Vec<ClassSpec>,
    options: SolverOptions,
}

impl MeanFieldModel {
    /// An empty model; add classes with [`class`](Self::class).
    pub fn new() -> Self {
        Self::default()
    }

    /// A single-class model — the shape the engine backend uses.
    pub fn single(config: CsmaConfig, n: usize) -> Self {
        Self::new().class("class0", config, n)
    }

    /// Add a station class.
    pub fn class(mut self, label: impl Into<String>, config: CsmaConfig, n: usize) -> Self {
        self.classes.push(ClassSpec {
            label: label.into(),
            config,
            n,
        });
        self
    }

    /// Override the solver options.
    pub fn options(mut self, options: SolverOptions) -> Self {
        self.options = options;
        self
    }

    /// The configured classes.
    pub fn classes(&self) -> &[ClassSpec] {
        &self.classes
    }

    /// Solve the coupled fixed point.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for an empty model, an empty class, or
    /// out-of-range solver options; [`Error::Runtime`] when the damped
    /// iteration does not reach the tolerance within the iteration cap
    /// (the message carries the residual, iteration count and final step
    /// size).
    pub fn solve(&self) -> Result<MeanFieldSolution> {
        self.validate()?;
        let specs = &self.classes;
        let opts = &self.options;

        // Total-station count decides the coupling; a lone station sees
        // p = 0 exactly and needs no iteration.
        let total: usize = specs.iter().map(|s| s.n).sum();
        if total == 1 {
            let taus = vec![class_tau(&specs[0].config, 0.0)];
            return Ok(self.solution_at(&taus, 0, 0.0, opts.damping));
        }

        // Damped iteration with adaptive step size.
        let mut taus: Vec<f64> = specs.iter().map(|s| class_tau(&s.config, 0.5)).collect();
        let mut damping = opts.damping;
        let mut prev_residual = f64::INFINITY;
        let mut iterations = 0u32;
        let mut residual = f64::INFINITY;
        let mut converged = false;
        while iterations < opts.max_iterations {
            iterations += 1;
            let fresh: Vec<f64> = (0..specs.len())
                .map(|c| class_tau(&specs[c].config, busy_probability(&taus, specs, c)))
                .collect();
            residual = fresh
                .iter()
                .zip(&taus)
                .map(|(f, t)| (f - t).abs())
                .fold(0.0, f64::max);
            if residual <= opts.tolerance {
                // Stop *before* applying the update: the residual was
                // measured at exactly the point we return.
                converged = true;
                break;
            }
            if residual > prev_residual {
                damping = (damping * 0.5).max(1e-3);
            } else {
                damping = (damping * 1.1).min(opts.damping);
            }
            prev_residual = residual;
            for (t, f) in taus.iter_mut().zip(&fresh) {
                *t = (*t + damping * (f - *t)).clamp(0.0, 1.0);
            }
        }
        if !converged {
            return Err(Error::runtime(format!(
                "mean-field solver did not converge: residual {residual:.3e} after \
                 {iterations} iterations (tolerance {:.1e}, final damping {damping:.4})",
                opts.tolerance
            )));
        }
        Ok(self.solution_at(&taus, iterations, residual, damping))
    }

    fn validate(&self) -> Result<()> {
        if self.classes.is_empty() {
            return Err(Error::invalid_config(
                "mean-field model needs at least one station class",
            ));
        }
        for spec in &self.classes {
            if spec.n == 0 {
                return Err(Error::invalid_config(format!(
                    "class {:?} has zero stations",
                    spec.label
                )));
            }
            spec.config.validate()?;
        }
        let o = &self.options;
        if !(o.damping > 0.0 && o.damping <= 1.0) {
            return Err(Error::invalid_config(format!(
                "damping must be in (0, 1], got {}",
                o.damping
            )));
        }
        if o.max_iterations == 0 {
            return Err(Error::invalid_config("max_iterations must be ≥ 1"));
        }
        // NaN must fail too, so the comparison is written to reject it.
        let tolerance_ok = o.tolerance > 0.0;
        if !tolerance_ok {
            return Err(Error::invalid_config(format!(
                "tolerance must be positive, got {}",
                o.tolerance
            )));
        }
        Ok(())
    }

    /// Assemble the full solution at converged attempt rates.
    fn solution_at(
        &self,
        taus: &[f64],
        iterations: u32,
        residual: f64,
        final_damping: f64,
    ) -> MeanFieldSolution {
        let specs = &self.classes;
        let classes = specs
            .iter()
            .enumerate()
            .map(|(c, spec)| {
                let p = busy_probability(taus, specs, c);
                let stages = stage_quantities_for(&spec.config, p);
                let visits = stage_visit_counts(&stages, p);
                // Occupancy weights: expected slots per cycle in each
                // stage. When the chain diverges (p → 1), all mass sits
                // in the absorbing last stage.
                let weights: Vec<f64> = stages
                    .iter()
                    .zip(&visits)
                    .map(|(s, v)| v * (s.backoff_slots + s.attempt_prob))
                    .collect();
                let cycle_slots: f64 = weights.iter().sum();
                let m = stages.len();
                let stage_occupancy = if cycle_slots.is_finite() && cycle_slots > 0.0 {
                    weights.iter().map(|w| w / cycle_slots).collect()
                } else {
                    let mut occ = vec![0.0; m];
                    occ[m - 1] = 1.0;
                    occ
                };
                ClassFixedPoint {
                    label: spec.label.clone(),
                    n: spec.n,
                    tau: taus[c],
                    collision_probability: p,
                    stage_attempt_probs: stages.iter().map(|s| s.attempt_prob).collect(),
                    stage_visits: visits,
                    stage_occupancy,
                    mean_access_delay_slots: cycle_slots,
                }
            })
            .collect();
        MeanFieldSolution {
            classes,
            slots: aggregate_slots(taus, specs),
            diagnostics: SolverDiagnostics {
                iterations,
                residual,
                converged: true,
                final_damping,
            },
        }
    }
}

/// The per-class renewal–reward response `τ = F(p)`.
fn class_tau(config: &CsmaConfig, p: f64) -> f64 {
    let stages = stage_quantities_for(config, p);
    let visits = stage_visit_counts(&stages, p);
    tau_from_stages(&stages, &visits)
}

/// Busy probability seen by one station of class `c`: the chance that any
/// of the other `n_c − 1` same-class stations or any station of another
/// class attempts in a slot. Computed as an explicit product so a class
/// at `τ = 1` never divides by zero.
fn busy_probability(taus: &[f64], specs: &[ClassSpec], c: usize) -> f64 {
    let mut others_idle = 1.0;
    for (k, spec) in specs.iter().enumerate() {
        let exp = if k == c {
            spec.n as i32 - 1
        } else {
            spec.n as i32
        };
        others_idle *= (1.0 - taus[k]).powi(exp);
    }
    (1.0 - others_idle).clamp(0.0, 1.0)
}

/// Aggregate channel slot mix for heterogeneous classes.
fn aggregate_slots(taus: &[f64], specs: &[ClassSpec]) -> SlotProbabilities {
    let idle: f64 = taus
        .iter()
        .zip(specs)
        .map(|(t, s)| (1.0 - t).powi(s.n as i32))
        .product();
    let mut success = 0.0;
    for (c, spec) in specs.iter().enumerate() {
        // Exactly one station of class c attempts, everyone else idles.
        let mut term = spec.n as f64 * taus[c] * (1.0 - taus[c]).powi(spec.n as i32 - 1);
        for (k, other) in specs.iter().enumerate() {
            if k != c {
                term *= (1.0 - taus[k]).powi(other.n as i32);
            }
        }
        success += term;
    }
    SlotProbabilities {
        idle,
        success,
        collision: (1.0 - idle - success).max(0.0),
    }
}

/// Documented error envelope of the decoupling approximation on the
/// **collision probability** γ, as a function of the domain's station
/// count. Calibrated against the slotted engine (see DESIGN.md §"Analytic
/// backends"): at small `N` all stations restart together after every
/// transmission, the busy process is strongly correlated across slots,
/// and the model overestimates γ by up to ≈ 0.05; the error decays as
/// stations decorrelate.
pub fn gamma_tolerance(n: usize) -> f64 {
    match n {
        0..=4 => 0.065,
        5..=9 => 0.055,
        10..=29 => 0.035,
        _ => 0.02,
    }
}

/// Documented error envelope on **normalized throughput** — less
/// sensitive than γ because throughput depends on the slot mix, not the
/// per-station busy view.
pub fn throughput_tolerance(n: usize) -> f64 {
    match n {
        0..=9 => 0.05,
        10..=49 => 0.03,
        _ => 0.02,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::bisect_decreasing;

    /// Solve one class of `n` stations, unwrapping.
    fn solve_single(config: CsmaConfig, n: usize) -> MeanFieldSolution {
        MeanFieldModel::single(config, n).solve().unwrap()
    }

    /// The scalar reference: bisection of `F(p(τ)) − τ` over `(0, 1)`.
    /// Valid only where that function has a single sign change, i.e. for
    /// tables whose windows never shrink (see the module docs).
    fn bisect_single(config: &CsmaConfig, n: usize) -> f64 {
        bisect_decreasing(1e-12, 1.0 - 1e-12, |tau| {
            class_tau(config, 1.0 - (1.0 - tau).powi(n as i32 - 1)) - tau
        })
    }

    /// The table whose single-class fixed point has three roots at
    /// N = 12 (τ ≈ 0.045, 0.29, 0.67; see the module docs).
    fn three_root_table() -> CsmaConfig {
        CsmaConfig::from_vectors(
            &[16, 128, 32, 4, 2],
            &[DC_DISABLED, DC_DISABLED, 30, 6, DC_DISABLED],
        )
        .unwrap()
    }

    #[test]
    fn single_class_matches_bisection() {
        // The adversarial anchor: on tables whose windows never shrink
        // the damped multi-class solver must land on the same fixed point
        // the scalar bisection finds.
        for config in [
            CsmaConfig::ieee1901_ca01(),
            CsmaConfig::ieee1901_ca23(),
            CsmaConfig::dcf_like(16, 6).unwrap(),
        ] {
            for n in [2usize, 3, 5, 10, 50, 200, 1000] {
                let tau = bisect_single(&config, n);
                let sol = solve_single(config.clone(), n);
                let mf = &sol.classes[0];
                assert!(
                    (mf.tau - tau).abs() < 1e-8,
                    "{config:?} N={n}: mean-field τ={:.10} vs bisection τ={tau:.10}",
                    mf.tau
                );
                let p = 1.0 - (1.0 - tau).powi(n as i32 - 1);
                assert!((mf.collision_probability - p).abs() < 1e-7);
                assert!(sol.diagnostics.converged);
                assert!(sol.diagnostics.residual <= 1e-12);
            }
        }
    }

    #[test]
    fn awkward_tables_solve_to_the_physical_root() {
        // Three roots: the solve must return the low one, where the
        // slotted engine sits (τ ≈ 0.046, γ ≈ 0.398 at seed 3 over
        // 2·10⁷ µs, checked in `tau_tracks_simulation_even_where_gamma_does_not`),
        // not the root near 0.67 a bracketing bisection finds.
        let config = three_root_table();
        let sol = solve_single(config.clone(), 12);
        let c = &sol.classes[0];
        assert!(sol.diagnostics.residual <= 1e-12);
        assert!((class_tau(&config, c.collision_probability) - c.tau).abs() <= 1e-12);
        assert!(c.tau < 0.06, "τ = {} is not the physical root", c.tau);

        // A unit last window attempts every slot it is in, so F(p(τ)) > τ
        // on all of [0, 1) and the fixed point is τ → 1: no bracket for a
        // bisection, but a plain solve for the damped iteration.
        let unit_last = CsmaConfig::from_vectors(&[8, 1], &[0, DC_DISABLED]).unwrap();
        let sol = solve_single(unit_last, 5);
        assert!(sol.diagnostics.residual <= 1e-12);
        assert!(sol.classes[0].tau > 0.99, "τ = {}", sol.classes[0].tau);
    }

    #[test]
    fn lone_station_sees_idle_channel() {
        let sol = MeanFieldModel::single(CsmaConfig::ieee1901_ca01(), 1)
            .solve()
            .unwrap();
        let c = &sol.classes[0];
        assert_eq!(c.collision_probability, 0.0);
        assert!((c.tau - 1.0 / 4.5).abs() < 1e-12, "τ = 1/(3.5 + 1)");
        assert!(sol.diagnostics.converged);
        assert_eq!(sol.diagnostics.iterations, 0);
    }

    #[test]
    fn symmetric_split_equals_single_class() {
        // 2 + 3 stations of the same schedule must behave exactly like a
        // single class of 5.
        let single = MeanFieldModel::single(CsmaConfig::ieee1901_ca01(), 5)
            .solve()
            .unwrap();
        let split = MeanFieldModel::new()
            .class("a", CsmaConfig::ieee1901_ca01(), 2)
            .class("b", CsmaConfig::ieee1901_ca01(), 3)
            .solve()
            .unwrap();
        for c in &split.classes {
            assert!((c.tau - single.classes[0].tau).abs() < 1e-8);
            assert!(
                (c.collision_probability - single.classes[0].collision_probability).abs() < 1e-7
            );
        }
        assert!((split.slots.success - single.slots.success).abs() < 1e-8);
    }

    #[test]
    fn aggregate_matches_from_tau_for_single_class() {
        let sol = MeanFieldModel::single(CsmaConfig::ieee1901_ca23(), 8)
            .solve()
            .unwrap();
        let direct = SlotProbabilities::from_tau(sol.classes[0].tau, 8);
        assert!((sol.slots.idle - direct.idle).abs() < 1e-12);
        assert!((sol.slots.success - direct.success).abs() < 1e-12);
        assert!((sol.slots.collision - direct.collision).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_classes_order_sensibly() {
        // CA2/CA3 caps CW at 32 → more aggressive than CA0/CA1 in the
        // same domain.
        let sol = MeanFieldModel::new()
            .class("CA1", CsmaConfig::ieee1901_ca01(), 5)
            .class("CA3", CsmaConfig::ieee1901_ca23(), 5)
            .solve()
            .unwrap();
        let (ca1, ca3) = (&sol.classes[0], &sol.classes[1]);
        assert!(ca3.tau > ca1.tau);
        for c in &sol.classes {
            assert!(c.tau > 0.0 && c.tau < 1.0);
            assert!(c.collision_probability > 0.0 && c.collision_probability < 1.0);
        }
        let s = &sol.slots;
        assert!((s.idle + s.success + s.collision - 1.0).abs() < 1e-9);
    }

    #[test]
    fn occupancy_is_a_distribution() {
        let sol = MeanFieldModel::single(CsmaConfig::ieee1901_ca01(), 10)
            .solve()
            .unwrap();
        let occ = &sol.classes[0].stage_occupancy;
        assert_eq!(occ.len(), 4);
        assert!((occ.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(occ.iter().all(|&o| (0.0..=1.0).contains(&o)));
        assert!(sol.classes[0].mean_access_delay_slots > 0.0);
        let c = &sol.classes[0];
        assert!(
            (c.stage_visits[0] - 1.0).abs() < 1e-12,
            "stage 0 visited once per cycle"
        );
        assert!(c.stage_visits.iter().all(|v| v.is_finite() && *v >= 0.0));
        assert!(c.stage_attempt_probs.iter().all(|x| *x > 0.0 && *x <= 1.0));
    }

    #[test]
    fn non_convergence_is_a_typed_error() {
        let err = MeanFieldModel::single(CsmaConfig::ieee1901_ca01(), 50)
            .options(SolverOptions {
                damping: 0.5,
                max_iterations: 2,
                tolerance: 1e-15,
            })
            .solve()
            .unwrap_err();
        assert!(
            matches!(err, Error::Runtime { .. }),
            "expected Runtime, got {err:?}"
        );
        assert!(err.to_string().contains("did not converge"));
    }

    #[test]
    fn invalid_inputs_are_config_errors() {
        let empty = MeanFieldModel::new().solve().unwrap_err();
        assert!(matches!(empty, Error::InvalidConfig { .. }));
        let zero = MeanFieldModel::single(CsmaConfig::ieee1901_ca01(), 0)
            .solve()
            .unwrap_err();
        assert!(matches!(zero, Error::InvalidConfig { .. }));
        let bad_opts = MeanFieldModel::single(CsmaConfig::ieee1901_ca01(), 2)
            .options(SolverOptions {
                damping: 0.0,
                max_iterations: 10,
                tolerance: 1e-9,
            })
            .solve()
            .unwrap_err();
        assert!(matches!(bad_opts, Error::InvalidConfig { .. }));
    }

    #[test]
    fn tolerances_decay_with_n() {
        assert!(gamma_tolerance(2) >= gamma_tolerance(5));
        assert!(gamma_tolerance(5) >= gamma_tolerance(10));
        assert!(gamma_tolerance(10) >= gamma_tolerance(200));
        assert!(throughput_tolerance(5) >= throughput_tolerance(500));
    }

    #[test]
    fn fleet_scale_class_is_cheap_and_finite() {
        // The backend's 10k-station shape: cost is independent of n.
        let sol = MeanFieldModel::single(CsmaConfig::ieee1901_ca01(), 10_000)
            .solve()
            .unwrap();
        // τ tends to the last stage's p→1 attempt rate ≈ 0.0177 (16 of 64
        // draws attempt, ≈ 13.9 slots spent), not to zero.
        let c = &sol.classes[0];
        assert!(c.tau > 0.0 && c.tau < 0.05);
        // (1 − τ)^9999 ≈ 1e−78: p rounds to exactly 1.0 in f64.
        assert!(c.collision_probability > 0.99 && c.collision_probability <= 1.0);
        assert!(sol.slots.success > 0.0);
    }

    #[test]
    fn stage_quantities_closed_forms() {
        // No deferral, or a never-busy channel: always attempts after a
        // mean (W−1)/2 slots.
        let q = stage_quantities(16, DC_DISABLED, 0.5);
        assert_eq!((q.attempt_prob, q.backoff_slots), (1.0, 7.5));
        let q = stage_quantities(8, 0, 0.0);
        assert_eq!((q.attempt_prob, q.backoff_slots), (1.0, 3.5));
        // d = 0: attempt iff no busy slot among b, so
        // x = (1/W) Σ_b (1−p)^b = (1 − (1−p)^W) / (W p) and
        // s = (1/W) Σ_{t=0}^{W-2} (W-1-t)(1-p)^t.
        let (w, p) = (8u32, 0.3);
        let q = stage_quantities(w, 0, p);
        let expected = (1.0 - (1.0 - p).powi(w as i32)) / (w as f64 * p);
        assert!((q.attempt_prob - expected).abs() < 1e-12);
        let s_direct: f64 = (0..w - 1)
            .map(|t| (w as f64 - 1.0 - t as f64) * (1.0 - p).powi(t as i32))
            .sum::<f64>()
            / w as f64;
        assert!((q.backoff_slots - s_direct).abs() < 1e-12);
        // p = 1, d = 0: attempt only if b = 0 → x = 1/W; every b ≥ 1
        // leaves at the first slot → s = (W−1)/W.
        let q = stage_quantities(8, 0, 1.0);
        assert!((q.attempt_prob - 1.0 / 8.0).abs() < 1e-12);
        assert!((q.backoff_slots - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn stage_quantities_monotone_in_p() {
        // Busier channel → fewer attempts, fewer slots spent per stage.
        let mut prev = stage_quantities(16, 3, 0.0);
        for k in 1..=10 {
            let q = stage_quantities(16, 3, k as f64 / 10.0);
            assert!(q.attempt_prob <= prev.attempt_prob + 1e-12);
            assert!(q.backoff_slots <= prev.backoff_slots + 1e-12);
            prev = q;
        }
    }

    #[test]
    fn decoupling_overestimates_at_small_n() {
        // The documented failure mode of naive decoupling for 1901 (the
        // modelling question the paper line studies): at small N the i.i.d.
        // attempt assumption ignores that all stations restart together
        // after each transmission with the recent loser pushed to a larger
        // window, so the model *overestimates* the collision probability.
        // `crate::coupled` fixes this; here we pin the overestimate so
        // regressions in either direction are caught.
        let gamma =
            |n| solve_single(CsmaConfig::ieee1901_ca01(), n).classes[0].collision_probability;
        let paper = [(2, 0.074), (3, 0.134), (5, 0.218), (7, 0.267)];
        for (n, target) in paper {
            let g = gamma(n);
            assert!(
                g > target,
                "N={n}: decoupled {g:.4} should overestimate paper ≈ {target}"
            );
            assert!(
                g - target < 0.05,
                "N={n}: decoupled {g:.4} should stay within +0.05 of {target}"
            );
        }
        // The error shrinks as N grows (stations decorrelate).
        assert!(gamma(7) - 0.267 < gamma(2) - 0.074);
    }

    #[test]
    fn collision_probability_orders_with_n_and_table() {
        let mut prev = 0.0;
        for n in 1..=20 {
            let c = &solve_single(CsmaConfig::ieee1901_ca01(), n).classes[0];
            assert!(c.collision_probability >= prev);
            assert!(c.tau > 0.0 && c.tau < 1.0);
            prev = c.collision_probability;
        }
        // The CA2/CA3 table caps CW at 32 → more collisions than CA0/CA1
        // when many stations contend.
        let gamma = |config| solve_single(config, 10).classes[0].collision_probability;
        let (p01, p23) = (
            gamma(CsmaConfig::ieee1901_ca01()),
            gamma(CsmaConfig::ieee1901_ca23()),
        );
        assert!(p23 > p01, "CA2/CA3 {p23} vs CA0/CA1 {p01}");
        // Same windows, deferral on vs off: deferral reduces τ (stations
        // escalate without attempting), hence reduces collisions.
        let with_dc = &solve_single(CsmaConfig::ieee1901_ca01(), 5).classes[0];
        let without_dc = &solve_single(CsmaConfig::dcf_like(8, 4).unwrap(), 5).classes[0];
        assert!(with_dc.tau < without_dc.tau);
        assert!(with_dc.collision_probability < without_dc.collision_probability);
    }

    #[test]
    fn tau_tracks_simulation_even_where_gamma_does_not() {
        // The decoupled model's *attempt rate* is close to the truth; it is
        // the γ = 1−(1−τ)^(N−1) link that breaks at small N. Measure τ from
        // the engine (attempts per decision slot per station) and compare,
        // including the three-root table, whose upper roots are far off.
        use plc_sim::runner::Simulation;
        let cases = [
            (CsmaConfig::ieee1901_ca01(), 2usize, 7u64),
            (CsmaConfig::ieee1901_ca01(), 5, 7),
            (three_root_table(), 12, 3),
        ];
        for (config, n, seed) in cases {
            let r = Simulation::ieee1901(n)
                .config(config.clone())
                .horizon_us(2e7)
                .seed(seed)
                .run();
            let m = &r.metrics;
            let decision_slots = m.idle_slots + m.successes + m.collision_events;
            let tau_sim = (m.successes + m.collided_tx) as f64 / (decision_slots as f64 * n as f64);
            let tau = solve_single(config, n).classes[0].tau;
            assert!(
                (tau - tau_sim).abs() < 0.012,
                "N={n}: model τ={tau:.4} vs sim τ={tau_sim:.4}"
            );
        }
    }

    #[test]
    fn throughput_prediction_roughly_tracks_simulation() {
        // Throughput is less sensitive to the γ error than the collision
        // probability; the decoupled model stays within a few percent.
        use plc_sim::paper::PaperSim;
        let timing = MacTiming::paper_default();
        for n in [1usize, 3, 5] {
            let s_model = solve_single(CsmaConfig::ieee1901_ca01(), n).throughput(&timing);
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
}
