//! `slotted_sweep`: one plain [`SweepGrid::run`] — no registry, no job —
//! over four configurations and station counts from 2 to 500.
//!
//! Small N is mostly idle fast-forward, N ≥ 200 mostly the busy-slot
//! contention sweep; Poisson traffic and PB errors cover the traffic and
//! PHY-resolution paths; and the mix of cheap and expensive points
//! exposes stragglers in sweep scheduling.

use crate::trace::Tracer;
use crate::{check_with_planted, PassStatistic, Settled, Traced, Untraced, Verification, Workload};
use plc_analysis::meanfield::{gamma_tolerance, throughput_tolerance};
use plc_obs::Registry;
use plc_sim::sweep::{default_workers, derive_seed, parallel_map};
use plc_sim::{
    Backend, SimReport, Simulation, SweepGrid, SweepPoint, SweepPointResult, SweepResults,
    TrafficModel,
};
use std::path::Path;

/// Configuration labels, in grid order.
pub const CONFIGS: [&str; 4] = ["ca1_sat", "dcf_sat", "ca1_poisson", "ca1_pberr"];

/// Per-station Poisson arrival rate of `ca1_poisson`, frames/µs. With
/// the 2542.64 µs success slot it offers 38 % of the channel at N = 500
/// and less at smaller N, so every point stays unsaturated.
pub const POISSON_RATE_PER_US: f64 = 3.0e-7;

/// The sweep workload at one size.
#[derive(Debug, Clone, PartialEq)]
pub struct SlottedSweep {
    /// Simulated horizon of every cell, µs.
    pub horizon_us: f64,
    /// Station counts swept for every configuration.
    pub stations: Vec<usize>,
}

impl SlottedSweep {
    /// The benchmark size: 32 points, 100 simulated seconds each.
    pub fn full() -> Self {
        SlottedSweep {
            horizon_us: 1.0e8,
            stations: vec![2, 5, 10, 20, 50, 100, 200, 500],
        }
    }

    /// A size for smoke tests, with one small-N and one large-N point
    /// per configuration.
    pub fn tiny() -> Self {
        SlottedSweep {
            horizon_us: 5.0e6,
            stations: vec![2, 200],
        }
    }

    /// The simulation for configuration `label` at `n` stations.
    pub fn template(&self, label: &str, n: usize) -> Simulation {
        let sim = match label {
            "dcf_sat" => Simulation::dcf(n),
            _ => Simulation::ieee1901(n),
        }
        .horizon_us(self.horizon_us);
        match label {
            "ca1_poisson" => sim.traffic(TrafficModel::Poisson {
                rate_per_us: POISSON_RATE_PER_US,
                queue_cap: 8,
            }),
            "ca1_pberr" => sim.pb_error_prob(0.1),
            _ => sim,
        }
    }

    fn grid(&self, master_seed: u64, registry: Option<&Registry>) -> SweepGrid {
        let mut grid = SweepGrid::new(master_seed).stations(self.stations.iter().copied());
        for label in CONFIGS {
            let mut template = self.template(label, 1);
            if let Some(r) = registry {
                template = template.registry(r);
            }
            grid = grid.config(label, template);
        }
        match registry {
            Some(r) => grid.registry(r),
            None => grid,
        }
    }

    /// Re-run cell `(point, replication 0)` through the public
    /// [`Simulation`] API, as the grid derives its seed.
    fn replay(&self, master_seed: u64, point: &SweepPoint) -> SimReport {
        self.template(&point.config, point.n)
            .seed(derive_seed(master_seed, point.point_index as u64, 0))
            .run()
    }
}

/// The results of running `grid`'s points one at a time, in grid order,
/// through `run_point`.
fn serial_results(
    grid: &SweepGrid,
    run_point: impl FnMut(usize) -> SweepPointResult,
) -> SweepResults {
    SweepResults {
        master_seed: grid.master_seed(),
        replications: grid.replication_budget(),
        points: (0..grid.num_points()).map(run_point).collect(),
    }
}

/// The grid built during set-up.
pub struct SweepInputs {
    master_seed: u64,
    grid: SweepGrid,
}

/// The replayed cell must reproduce the sweep's summary bit for bit.
pub fn check_replay(point: &SweepPoint, report: &SimReport) -> Result<(), String> {
    let s = &point.summary;
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
    if same(s.collision_probability.mean, report.collision_probability)
        && same(s.norm_throughput.mean, report.norm_throughput)
        && same(s.jain_fairness.mean, report.jain_fairness)
    {
        Ok(())
    } else {
        Err(format!(
            "{} n={}: replayed cell differs from the sweep summary",
            point.config, point.n
        ))
    }
}

/// Every station's attempts are its successes plus its collisions.
pub fn check_station_balance(report: &SimReport) -> Result<(), String> {
    match report
        .metrics
        .per_station
        .iter()
        .position(|s| s.attempts != s.successes + s.collisions)
    {
        None => Ok(()),
        Some(i) => Err(format!("station {i}: attempts != successes + collisions")),
    }
}

/// γ and throughput within the documented mean-field envelope at `n`;
/// returns the share of the γ envelope used.
pub fn check_envelope(n: usize, slotted: &SimReport, meanfield: &SimReport) -> Result<f64, String> {
    let dg = (slotted.collision_probability - meanfield.collision_probability).abs();
    let dt = (slotted.norm_throughput - meanfield.norm_throughput).abs();
    if dg <= gamma_tolerance(n) && dt <= throughput_tolerance(n) {
        Ok(dg / gamma_tolerance(n))
    } else {
        Err(format!(
            "n={n}: |Δγ| {dg:.4} (tol {}) or |Δthroughput| {dt:.4} (tol {}) outside the mean-field envelope",
            gamma_tolerance(n),
            throughput_tolerance(n)
        ))
    }
}

/// Simulated slots of one report: idle slots + successes + collision
/// events.
pub fn slots(report: &SimReport) -> u64 {
    let m = &report.metrics;
    m.idle_slots + m.successes + m.collision_events
}

/// Which `sim.engine.ns_per_slot.*` bucket a point belongs to.
fn slot_bucket(label: &str, n: usize) -> Option<&'static str> {
    match label {
        "ca1_sat" if n <= 10 => Some("sim.engine.ns_per_slot.small_n"),
        "ca1_sat" if n >= 200 => Some("sim.engine.ns_per_slot.large_n"),
        "ca1_poisson" => Some("sim.engine.ns_per_slot.poisson"),
        "ca1_pberr" => Some("sim.engine.ns_per_slot.pberr"),
        "dcf_sat" => Some("sim.engine.ns_per_slot.dcf"),
        _ => None,
    }
}

impl Workload for SlottedSweep {
    type Inputs = SweepInputs;
    type Output = SweepResults;

    fn name(&self) -> &'static str {
        "slotted_sweep"
    }

    /// Most passes of this workload reach the host's uncontended speed,
    /// so the fastest pass is the steadier statistic.
    fn wall_statistic(&self) -> PassStatistic {
        PassStatistic::Fastest
    }

    fn setup(&self, seed: u64, _work_dir: &Path) -> Result<SweepInputs, String> {
        Ok(SweepInputs {
            master_seed: seed,
            grid: self.grid(seed, None),
        })
    }

    fn pass(&self, inputs: &SweepInputs, _index: usize) -> Result<SweepResults, String> {
        Ok(inputs.grid.run())
    }

    /// The grid's points one at a time through `run_point_at`, as the
    /// traced pass runs them, with no registry.
    fn serial_pass(&self, inputs: &SweepInputs, _index: usize) -> Result<SweepResults, String> {
        let grid = &inputs.grid;
        Ok(serial_results(grid, |i| {
            grid.run_point_at(i).expect("index in range")
        }))
    }

    fn traced_pass(
        &self,
        inputs: &SweepInputs,
        _index: usize,
        tracer: &mut Tracer,
        untraced: Untraced,
    ) -> Result<Traced<SweepResults>, String> {
        let registry = Registry::new();
        let grid = self.grid(inputs.master_seed, Some(&registry));
        let steps = registry.counter("engine.steps");
        let root = tracer.open("slotted_sweep.pass", None);
        let mut buckets: Vec<(&'static str, f64, u64)> = Vec::new();
        let (mut busy, mut max_point) = (0.0f64, 0.0f64);
        let output = serial_results(&grid, |i| {
            let (label, n) = grid.point_spec(i).expect("index in range");
            let before = steps.get();
            let (point, secs) = tracer.time(
                &format!("sim.sweep.run_point_at {label} n={n}"),
                Some(root),
                || grid.run_point_at(i).expect("index in range"),
            );
            busy += secs;
            max_point = max_point.max(secs);
            if let Some(bucket) = slot_bucket(label, n) {
                let delta = steps.get() - before;
                match buckets.iter_mut().find(|(b, ..)| *b == bucket) {
                    Some(entry) => {
                        entry.1 += secs;
                        entry.2 += delta;
                    }
                    None => buckets.push((bucket, secs, delta)),
                }
            }
            point
        });
        tracer.close(root);
        let snap = registry.snapshot();
        let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        let mut layers = vec![
            ("sim.engine.busy_s", busy),
            (
                "sim.engine.ff_skip_ratio",
                counter("engine.steps_skipped") / counter("engine.steps").max(1.0),
            ),
            ("sim.engine.soa_fallbacks", counter("engine.soa_fallbacks")),
            (
                "sim.engine.pb_draw_s",
                snap.timer("engine.pb_draw").map_or(0.0, |t| t.total_secs),
            ),
            (
                "sim.sweep.parallel_efficiency",
                untraced.serial_s / (grid.num_workers() as f64 * untraced.pass_s),
            ),
            ("sim.sweep.max_point_s", max_point),
        ];
        layers.extend(
            buckets
                .into_iter()
                .map(|(name, secs, slots)| (name, secs * 1e9 / slots.max(1) as f64)),
        );
        Ok(Traced {
            output,
            layers,
            job_s: busy,
            registry,
        })
    }

    fn settle(&self, _inputs: &SweepInputs, output: &SweepResults) -> Result<Settled, String> {
        Ok(Settled {
            canonical: output.to_json().into_bytes(),
            operations: output.points.len() as u64,
            failed: output.failures().count() as u64,
        })
    }

    fn verify(&self, inputs: &SweepInputs, output: &SweepResults) -> Verification {
        let mut v = Verification::default();
        let points: Vec<SweepPoint> = output.ok_points().cloned().collect();
        let reports = parallel_map(default_workers(), points.clone(), |_, p| {
            let slotted = self.replay(inputs.master_seed, &p);
            let meanfield = (p.config == "ca1_sat").then(|| {
                self.template(&p.config, p.n)
                    .backend(Backend::MeanField)
                    .run()
            });
            (slotted, meanfield)
        });
        let mut envelope_use = 0.0f64;
        let mut slot_total = 0u64;
        for (p, (slotted, meanfield)) in points.iter().zip(&reports) {
            let before = v.problems.len();
            check_with_planted(
                "replay identity",
                p,
                |p| {
                    p.summary.collision_probability.mean =
                        p.summary.collision_probability.mean.next_up()
                },
                |p| check_replay(p, slotted),
                &mut v.problems,
            );
            check_with_planted(
                "station balance",
                slotted,
                |r| r.metrics.per_station[0].attempts += 1,
                check_station_balance,
                &mut v.problems,
            );
            if let Some(mf) = meanfield {
                let tol = gamma_tolerance(p.n);
                if let Some(used) = check_with_planted(
                    "mean-field envelope",
                    slotted,
                    |r| {
                        r.collision_probability += 1.5
                            * tol
                            * if r.collision_probability > mf.collision_probability {
                                1.0
                            } else {
                                -1.0
                            }
                    },
                    |r| check_envelope(p.n, r, mf),
                    &mut v.problems,
                ) {
                    envelope_use = envelope_use.max(used);
                }
            }
            if v.problems.len() > before {
                v.failed += 1;
            }
            slot_total += slots(slotted);
            v.sim_seconds += slotted.elapsed_us * 1e-6;
        }
        v.sim_slots = Some(slot_total);
        v.stats.push(("check.envelope_use", envelope_use));
        v
    }
}
