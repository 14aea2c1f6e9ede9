//! `boost_search`: one [`BoostRun`] on a search space and portfolio with
//! a [`Registry`] attached, in a fresh directory, as
//! `experiments boost run` does.
//!
//! Its screen is nearly all mean-field fixed point plus delay-DTMC walk
//! ([`screen_schedule`], the same math as `Backend::MeanField`); its
//! confirm rungs run the slotted engine as many short, cancellable
//! `JobGroup` points with journal writes, Poisson traffic and
//! multi-domain cells. The base horizon is set so the confirm rungs take
//! about as much host time as the screen.

use crate::trace::Tracer;
use crate::{check_with_planted, stats, Settled, Traced, Untraced, Verification, Workload};
use plc_analysis::drift::{access_delay_distribution, tagged_slot_duration_us};
use plc_analysis::meanfield::MeanFieldModel;
use plc_boost::run::dominates;
use plc_boost::{
    screen_space, BoostArtifact, BoostConfig, BoostRun, CandidateObjectives, Portfolio,
    SearchSpace, PARETO_FILE_NAME,
};
use plc_core::timing::MacTiming;
use plc_obs::Registry;
use plc_sim::SweepResults;
use plc_stats::quantile_from_cdf;
use std::path::{Path, PathBuf};

/// The boosting workload at one size.
#[derive(Debug, Clone, PartialEq)]
pub struct BoostSearch {
    /// Search-space name.
    pub space: &'static str,
    /// Portfolio name.
    pub portfolio: &'static str,
    /// First confirm rung's horizon, µs.
    pub base_horizon_us: f64,
    /// Confirm rungs.
    pub rungs: usize,
    /// Screen survivors.
    pub screen_keep: usize,
    /// Replications per confirm point.
    pub replications: u64,
}

impl BoostSearch {
    /// The benchmark size: the default space and portfolio with the
    /// production rung settings and a 2·10⁷ µs base horizon.
    pub fn full() -> Self {
        let defaults = BoostConfig::new("");
        BoostSearch {
            space: "default",
            portfolio: "default",
            base_horizon_us: 2.0e7,
            rungs: defaults.rungs,
            screen_keep: defaults.screen_keep,
            replications: defaults.replications,
        }
    }

    /// A size for smoke tests.
    pub fn tiny() -> Self {
        BoostSearch {
            space: "tiny",
            portfolio: "smoke",
            base_horizon_us: 1.0e5,
            rungs: 1,
            screen_keep: 4,
            replications: 1,
        }
    }

    fn config(&self, inputs: &BoostInputs, index: usize) -> BoostConfig {
        let mut cfg = BoostConfig::new(inputs.work_dir.join(format!("pass{index}")));
        cfg.space = self.space.to_string();
        cfg.portfolio = self.portfolio.to_string();
        cfg.seed = inputs.seed;
        cfg.rungs = self.rungs;
        cfg.screen_keep = self.screen_keep;
        cfg.base_horizon_us = self.base_horizon_us;
        cfg.replications = self.replications;
        cfg
    }

    fn run(
        &self,
        inputs: &BoostInputs,
        index: usize,
        registry: &Registry,
    ) -> Result<BoostPass, String> {
        let cfg = self.config(inputs, index);
        let dir = cfg.dir.clone();
        let report = BoostRun::create(cfg)
            .and_then(|run| run.registry(registry).run())
            .map_err(|e| format!("boost run: {e}"))?;
        Ok(BoostPass {
            artifact: report.artifact,
            dir,
            registry: registry.clone(),
        })
    }
}

/// Space, portfolio and run root built during set-up.
pub struct BoostInputs {
    seed: u64,
    space: SearchSpace,
    portfolio: Portfolio,
    work_dir: PathBuf,
}

/// One finished boosting run.
pub struct BoostPass {
    /// The artifact `BoostRun::run` returned.
    pub artifact: BoostArtifact,
    /// The run directory.
    pub dir: PathBuf,
    /// The registry the run recorded into.
    pub registry: Registry,
}

/// Which objectives `c` strictly beats `baseline` on (a truncated delay
/// tail is the worst).
fn objectives_won(c: &CandidateObjectives, baseline: &CandidateObjectives) -> usize {
    let delay = match (c.p99_delay_us, baseline.p99_delay_us) {
        (Some(a), Some(b)) => a < b,
        (Some(_), None) => true,
        _ => false,
    };
    (c.throughput > baseline.throughput) as usize
        + (c.jain_fairness > baseline.jain_fairness) as usize
        + delay as usize
}

/// The artifact's verdict is consistent: a non-empty Pareto front equal
/// to the non-dominated finalists, a recommendation on it, and a
/// beats-baseline count matching the objectives. Returns the objectives
/// won.
pub fn check_verdict(a: &BoostArtifact) -> Result<usize, String> {
    let front: Vec<&str> = a
        .finalists
        .iter()
        .filter(|x| !a.finalists.iter().any(|y| dominates(y, x)))
        .map(|x| x.label.as_str())
        .collect();
    if a.pareto.is_empty() {
        return Err("empty Pareto front".into());
    }
    if a.pareto != front {
        return Err(format!(
            "Pareto front {:?} != non-dominated finalists {front:?}",
            a.pareto
        ));
    }
    let rec = &a.recommended;
    if !a.pareto.contains(&rec.candidate.label) {
        return Err(format!(
            "recommendation {} is not on the front",
            rec.candidate.label
        ));
    }
    let won = objectives_won(&rec.candidate, &a.baseline);
    if won != rec.beats_baseline.count() {
        return Err(format!(
            "recommendation claims {} objectives won, objectives show {won}",
            rec.beats_baseline.count()
        ));
    }
    Ok(won)
}

/// `pareto.json` holds exactly the artifact the run returned.
pub fn check_written(bytes: &[u8], artifact: &BoostArtifact) -> Result<(), String> {
    let expected = serde_json::to_string(artifact).map_err(|e| e.to_string())? + "\n";
    if bytes == expected.as_bytes() {
        Ok(())
    } else {
        Err(format!(
            "{PARETO_FILE_NAME} does not hold the returned artifact"
        ))
    }
}

fn read_pareto(pass: &BoostPass) -> Result<Vec<u8>, String> {
    let path = pass.dir.join(PARETO_FILE_NAME);
    std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Total bytes of every `journal.jsonl` under `dir`.
fn journal_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                journal_bytes(&path)
            } else if e.file_name() == "journal.jsonl" {
                e.metadata().map_or(0, |m| m.len())
            } else {
                0
            }
        })
        .sum()
}

/// The delay-walk length `screen_schedule` uses for a chain with this
/// mean access delay (slots).
fn delay_walk_slots(mean_slots: f64) -> usize {
    if mean_slots.is_finite() {
        (mean_slots * 50.0).ceil().clamp(1_000.0, 100_000.0) as usize
    } else {
        100_000
    }
}

impl Workload for BoostSearch {
    type Inputs = BoostInputs;
    type Output = BoostPass;

    fn name(&self) -> &'static str {
        "boost_search"
    }

    fn setup(&self, seed: u64, work_dir: &Path) -> Result<BoostInputs, String> {
        let space = SearchSpace::named(self.space).ok_or("unknown search space")?;
        let portfolio = Portfolio::named(self.portfolio).ok_or("unknown portfolio")?;
        std::fs::create_dir_all(work_dir)
            .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
        Ok(BoostInputs {
            seed,
            space,
            portfolio,
            work_dir: work_dir.to_path_buf(),
        })
    }

    fn pass(&self, inputs: &BoostInputs, index: usize) -> Result<BoostPass, String> {
        self.run(inputs, index, &Registry::new())
    }

    fn traced_pass(
        &self,
        inputs: &BoostInputs,
        index: usize,
        tracer: &mut Tracer,
        _untraced: Untraced,
    ) -> Result<Traced<BoostPass>, String> {
        let timing = MacTiming::paper_default();
        let root = tracer.open("boost_search.pass", None);
        let (mut solve_us, mut walk_us, mut synth_us) = (Vec::new(), Vec::new(), Vec::new());
        let (mut iters, mut walked) = (Vec::new(), Vec::new());
        let (mut useful_total, mut walked_total) = (0usize, 0usize);
        for candidate in &inputs.space.candidates {
            let config = candidate.config().map_err(|e| e.to_string())?;
            for scenario in &inputs.portfolio.scenarios {
                for &n in &scenario.stations {
                    let m = scenario.screen_n(n);
                    let (solution, t_solve) =
                        tracer.time("analysis.meanfield.solve", Some(root), || {
                            MeanFieldModel::single(config.clone(), m).solve()
                        });
                    let solution = solution.map_err(|e| e.to_string())?;
                    let class = &solution.classes[0];
                    let slots = delay_walk_slots(class.mean_access_delay_slots);
                    let (dist, t_walk) = tracer.time(
                        "analysis.drift.access_delay_distribution",
                        Some(root),
                        || access_delay_distribution(&config, class.collision_probability, slots),
                    );
                    let ((), t_synth) =
                        tracer.time("analysis.screen.synthesis", Some(root), || {
                            std::hint::black_box((
                                [0.5, 0.9, 0.99].map(|q| quantile_from_cdf(&dist.cdf, q)),
                                tagged_slot_duration_us(class.tau, m, &timing),
                                solution.throughput(&timing),
                            ));
                        });
                    let useful = dist
                        .cdf
                        .iter()
                        .position(|&(_, absorbed)| 1.0 - absorbed < 1e-12)
                        .map_or(slots, |t| t + 1);
                    solve_us.push(t_solve * 1e6);
                    walk_us.push(t_walk * 1e6);
                    synth_us.push(t_synth * 1e6);
                    iters.push(f64::from(solution.diagnostics.iterations));
                    walked.push(slots as f64);
                    useful_total += useful;
                    walked_total += slots;
                }
            }
        }
        let (screen, screen_s) = tracer.time("boost.screen_space", Some(root), || {
            screen_space(&inputs.space, &inputs.portfolio, &timing, None)
        });
        screen.map_err(|e| format!("screen: {e}"))?;
        let registry = Registry::new();
        let (pass, run_s) = tracer.time("boost.BoostRun::run", Some(root), || {
            self.run(inputs, index, &registry)
        });
        tracer.close(root);
        let pass = pass?;
        let snap = registry.snapshot();
        let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        let flush = snap.timer("job.checkpoint_flush");
        let layers = vec![
            ("analysis.meanfield.solve_us_p50", stats::median(&solve_us)),
            ("analysis.meanfield.iters", stats::median(&iters)),
            ("analysis.drift.walk_us_p50", stats::median(&walk_us)),
            ("analysis.drift.walk_slots", stats::median(&walked)),
            (
                "analysis.drift.useful_ratio",
                useful_total as f64 / walked_total.max(1) as f64,
            ),
            ("analysis.screen.synthesis_us", stats::median(&synth_us)),
            ("boost.screen_s", screen_s),
            ("boost.confirm_s", run_s - screen_s),
            ("boost.evals", counter("boost.evals")),
            ("boost.pruned", counter("boost.pruned")),
            ("boost.rungs", counter("boost.rungs")),
            ("jobs.points_done", counter("job.points_done")),
            ("jobs.points_retried", counter("job.points_retried")),
            ("jobs.flushes", flush.map_or(0.0, |t| t.count as f64)),
            ("jobs.flush_s", flush.map_or(0.0, |t| t.total_secs)),
            ("jobs.journal_bytes", journal_bytes(&pass.dir) as f64),
        ];
        Ok(Traced {
            output: pass,
            layers,
            job_s: run_s,
            registry,
        })
    }

    fn settle(&self, _inputs: &BoostInputs, output: &BoostPass) -> Result<Settled, String> {
        let bytes = read_pareto(output)?;
        let snap = output.registry.snapshot();
        let counter = |name: &str| snap.counter(name).unwrap_or(0);
        let operations = counter("boost.evals") + counter("job.points_done");
        let consistent =
            check_written(&bytes, &output.artifact).and(check_verdict(&output.artifact));
        Ok(Settled {
            canonical: bytes,
            operations,
            failed: if consistent.is_ok() {
                counter("job.points_quarantined")
            } else {
                operations
            },
        })
    }

    fn verify(&self, inputs: &BoostInputs, output: &BoostPass) -> Verification {
        let mut v = Verification::default();
        let bytes = match read_pareto(output) {
            Ok(b) => b,
            Err(e) => {
                v.problems.push(e);
                Vec::new()
            }
        };
        check_with_planted(
            "pareto.json",
            &bytes,
            |b| b.truncate(b.len() / 2),
            |b| check_written(b, &output.artifact),
            &mut v.problems,
        );
        let won = check_with_planted(
            "Pareto verdict",
            &output.artifact,
            |a| a.pareto.clear(),
            check_verdict,
            &mut v.problems,
        );
        check_with_planted(
            "recommendation",
            &output.artifact,
            |a| a.recommended.beats_baseline.throughput = !a.recommended.beats_baseline.throughput,
            check_verdict,
            &mut v.problems,
        );
        if !v.problems.is_empty() {
            v.failed = 1;
        }
        v.stats
            .push(("check.boost_objectives_won", won.unwrap_or(0) as f64));

        // Simulated time of the confirm rungs, from each member job's
        // results: points × replications × the rung's horizon.
        for rung in 1..=self.rungs {
            let horizon_s = self.base_horizon_us * 4f64.powi(rung as i32 - 1) * 1e-6;
            for scenario in &inputs.portfolio.scenarios {
                let path = output
                    .dir
                    .join(format!("rung{rung}"))
                    .join(&scenario.name)
                    .join(plc_jobs::RESULTS_FILE_NAME);
                match std::fs::read_to_string(&path)
                    .map_err(|e| e.to_string())
                    .and_then(|t| {
                        serde_json::from_str::<SweepResults>(&t).map_err(|e| e.to_string())
                    }) {
                    Ok(results) => {
                        v.sim_seconds += results
                            .ok_points()
                            .map(|p| p.replications_run as f64 * horizon_s)
                            .sum::<f64>()
                    }
                    Err(e) => v.problems.push(format!("{}: {e}", path.display())),
                }
            }
        }
        v
    }

    fn release(&self, output: BoostPass) {
        // A leftover directory only costs disk space in the run root,
        // which the run removes as a whole at the end.
        let _ = std::fs::remove_dir_all(&output.dir);
    }
}
