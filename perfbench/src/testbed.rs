//! `testbed_figure2`: the paper's measurement methodology —
//! [`CollisionExperiment::paper`] (240 s tests) for N = 1…7 × repeats on
//! at most `nproc` workers, as the Figure 2 experiment does.
//!
//! It is the only user path through the multi-class engine (PRS rounds),
//! the wire-event firmware sink and the MME bus with ampstat.

use crate::trace::Tracer;
use crate::{check_with_planted, Settled, Traced, Untraced, Verification, Workload};
use plc_obs::Registry;
use plc_sim::sweep::{default_workers, derive_seed, parallel_map};
use plc_sim::Simulation;
use plc_testbed::{CollisionExperiment, ExperimentOutcome};
use std::path::Path;

/// The paper's measured `ΣCᵢ/ΣAᵢ` for N = 1…7 (Table 2).
pub const TABLE2: [f64; 7] = [
    0.000154, 0.07414, 0.13387, 0.17789, 0.21761, 0.24427, 0.26686,
];

/// Largest accepted distance between one test's `ΣCᵢ/ΣAᵢ`, or one
/// Figure 2 point, and Table 2.
pub const TABLE2_TOLERANCE: f64 = 0.03;

/// The testbed workload at one size.
#[derive(Debug, Clone, PartialEq)]
pub struct TestbedFigure2 {
    /// Largest station count; tests run N = 1…`max_n`.
    pub max_n: usize,
    /// Tests per station count.
    pub repeats: u64,
    /// Test duration, seconds (`None` = the paper's 240 s).
    pub duration_s: Option<f64>,
}

impl TestbedFigure2 {
    /// The benchmark size: N = 1…7, three paper-length tests each.
    pub fn full() -> Self {
        TestbedFigure2 {
            max_n: 7,
            repeats: 3,
            duration_s: None,
        }
    }

    /// A size for smoke tests.
    pub fn tiny() -> Self {
        TestbedFigure2 {
            max_n: 3,
            repeats: 1,
            duration_s: Some(30.0),
        }
    }
}

/// One test's counters are consistent and its `ΣCᵢ/ΣAᵢ` is within
/// [`TABLE2_TOLERANCE`] of Table 2.
pub fn check_test(n: usize, o: &ExperimentOutcome) -> Result<(), String> {
    if o.per_station.len() != n || o.per_station.iter().any(|s| s.collided > s.acked) {
        return Err(format!("n={n}: inconsistent per-station counters"));
    }
    let err = (o.collision_probability - TABLE2[n - 1]).abs();
    if err > TABLE2_TOLERANCE {
        return Err(format!(
            "n={n}: ΣC/ΣA {:.4} is {err:.4} from Table 2",
            o.collision_probability
        ));
    }
    Ok(())
}

/// Largest distance between the Figure 2 points (mean `ΣCᵢ/ΣAᵢ` per
/// N, N = 1, 2, …) and Table 2.
pub fn figure2_error(points: &[f64]) -> f64 {
    points
        .iter()
        .zip(TABLE2)
        .map(|(p, t)| (p - t).abs())
        .fold(0.0, f64::max)
}

/// The Figure 2 points are within [`TABLE2_TOLERANCE`] of Table 2.
pub fn check_figure2(points: &[f64]) -> Result<(), String> {
    match figure2_error(points) {
        err if err <= TABLE2_TOLERANCE => Ok(()),
        err => Err(format!("Figure 2 is {err:.4} from Table 2")),
    }
}

impl Workload for TestbedFigure2 {
    /// The tests, longest (largest N) first so the pool ends balanced.
    type Inputs = Vec<CollisionExperiment>;
    type Output = Vec<Result<ExperimentOutcome, String>>;

    fn name(&self) -> &'static str {
        "testbed_figure2"
    }

    fn setup(&self, seed: u64, _work_dir: &Path) -> Result<Self::Inputs, String> {
        Ok((1..=self.max_n)
            .rev()
            .flat_map(|n| {
                (0..self.repeats).map(move |k| {
                    let mut e = CollisionExperiment::paper(n, derive_seed(seed, n as u64, k));
                    if let Some(secs) = self.duration_s {
                        e.duration = plc_core::units::Microseconds::from_secs(secs);
                    }
                    e
                })
            })
            .collect())
    }

    fn pass(&self, inputs: &Self::Inputs, _index: usize) -> Result<Self::Output, String> {
        Ok(parallel_map(
            default_workers(),
            (0..inputs.len()).collect(),
            |_, i| inputs[i].run().map_err(|e| e.to_string()),
        ))
    }

    /// The tests one at a time, as the traced pass runs them, with no
    /// registry.
    fn serial_pass(&self, inputs: &Self::Inputs, _index: usize) -> Result<Self::Output, String> {
        Ok(inputs
            .iter()
            .map(|e| e.run().map_err(|err| err.to_string()))
            .collect())
    }

    fn traced_pass(
        &self,
        inputs: &Self::Inputs,
        _index: usize,
        tracer: &mut Tracer,
        _untraced: Untraced,
    ) -> Result<Traced<Self::Output>, String> {
        let registry = Registry::new();
        let root = tracer.open("testbed_figure2.pass", None);
        let (mut test_s, mut slotted_s) = (0.0, 0.0);
        let mut outcomes = Vec::with_capacity(inputs.len());
        for e in inputs {
            let (outcome, secs) = tracer.time(
                &format!("testbed.run_observed n={}", e.n),
                Some(root),
                || e.run_observed(&registry).map_err(|err| err.to_string()),
            );
            test_s += secs;
            outcomes.push(outcome);
            let (_, secs) = tracer.time(
                &format!("sim.Simulation::run n={}", e.n),
                Some(root),
                || {
                    std::hint::black_box(
                        Simulation::ieee1901(e.n)
                            .horizon_us(e.duration.as_micros())
                            .seed(e.seed)
                            .run(),
                    )
                },
            );
            slotted_s += secs;
        }
        tracer.close(root);
        let snap = registry.snapshot();
        let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        let timer = |name: &str| {
            snap.timer(name)
                .map_or((0.0, 0.0), |t| (t.count as f64, t.total_secs))
        };
        let (rounds, round_s) = timer("multiclass.round");
        let layers = vec![
            ("sim.multiclass.rounds", rounds),
            ("sim.multiclass.round_s", round_s),
            ("sim.multiclass.prs_s", timer("multiclass.prs").1),
            ("testbed.firmware_s", test_s - round_s),
            ("testbed.mme.attempts", counter("testbed.mme.attempts")),
            ("testbed.mme.retries", counter("testbed.mme.retries")),
            ("testbed.vs_slotted_ratio", test_s / slotted_s),
        ];
        Ok(Traced {
            output: outcomes,
            layers,
            job_s: test_s,
            registry,
        })
    }

    fn settle(&self, inputs: &Self::Inputs, output: &Self::Output) -> Result<Settled, String> {
        let mut canonical = String::new();
        let mut failed = 0;
        for (e, o) in inputs.iter().zip(output) {
            match o {
                Ok(o) => {
                    canonical += &serde_json::to_string(o).map_err(|e| e.to_string())?;
                    failed += check_test(e.n, o).is_err() as u64;
                }
                Err(err) => {
                    canonical += err;
                    failed += 1;
                }
            }
            canonical.push('\n');
        }
        Ok(Settled {
            canonical: canonical.into_bytes(),
            operations: inputs.len() as u64,
            failed,
        })
    }

    fn verify(&self, inputs: &Self::Inputs, output: &Self::Output) -> Verification {
        let mut v = Verification::default();
        let mut sums = vec![(0.0, 0u32); self.max_n];
        for (e, o) in inputs.iter().zip(output) {
            v.sim_seconds += e.duration.as_micros() * 1e-6;
            let Ok(o) = o else { continue };
            sums[e.n - 1].0 += o.collision_probability;
            sums[e.n - 1].1 += 1;
            if e.n == 2 {
                check_with_planted(
                    "testbed test",
                    o,
                    |o| o.collision_probability += 2.0 * TABLE2_TOLERANCE,
                    |o| check_test(e.n, o),
                    &mut v.problems,
                );
            }
        }
        let points: Vec<f64> = sums.iter().map(|&(s, k)| s / f64::from(k)).collect();
        check_with_planted(
            "Figure 2",
            &points,
            |p| {
                if let Some(last) = p.last_mut() {
                    *last += 2.0 * TABLE2_TOLERANCE;
                }
            },
            |p| check_figure2(p),
            &mut v.problems,
        );
        if !v.problems.is_empty() {
            v.failed = 1;
        }
        v.stats.push(("check.fig2_max_err", figure2_error(&points)));
        v
    }
}
