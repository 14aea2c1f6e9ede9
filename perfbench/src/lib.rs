//! # plc-perfbench — the repository benchmark
//!
//! A single-process program that runs the three jobs users run with this
//! workspace, through the crates' public APIs only:
//!
//! * `slotted_sweep` — one plain [`plc_sim::SweepGrid::run`] ([`sweep`]);
//! * `boost_search` — one [`plc_boost::BoostRun`] with a registry
//!   attached ([`boost`]);
//! * `testbed_figure2` — the Figure 2 testbed methodology
//!   ([`testbed`]).
//!
//! A run repeats passes of one workload for a time budget and reports
//! end-to-end metrics with tracing off ([`E2E_METRICS`]). A traced run
//! (`--trace 1`) measures untraced passes for a third of the budget, then
//! alternates serial untraced passes with traced passes of the same
//! schedule, and reports per-layer metrics ([`LAYER_METRICS`]) plus
//! `obs.trace_overhead`. Every program input
//! derives from the workload seed, and every run checks its outputs
//! against references computed outside the timed region.

#![forbid(unsafe_code)]

pub mod boost;
pub mod stats;
pub mod sweep;
pub mod testbed;
pub mod trace;

use serde_json::Value;
use stats::TimingSummary;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["slotted_sweep", "boost_search", "testbed_figure2"];

/// End-to-end metrics `(name, unit)`, reported with tracing off.
pub const E2E_METRICS: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_s_per_host_s", "s/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run. A
/// workload that does not exercise a layer reports 0 for it.
pub const LAYER_METRICS: [(&str, &str); 39] = [
    ("sim.engine.busy_s", "s"),
    ("sim.engine.ns_per_slot.small_n", "ns"),
    ("sim.engine.ns_per_slot.large_n", "ns"),
    ("sim.engine.ns_per_slot.poisson", "ns"),
    ("sim.engine.ns_per_slot.pberr", "ns"),
    ("sim.engine.ns_per_slot.dcf", "ns"),
    ("sim.engine.ff_skip_ratio", "ratio"),
    ("sim.engine.soa_fallbacks", "count"),
    ("sim.engine.pb_draw_s", "s"),
    ("sim.sweep.parallel_efficiency", "ratio"),
    ("sim.sweep.max_point_s", "s"),
    ("sim.sweep.slots_per_s", "1/s"),
    ("analysis.meanfield.solve_us_p50", "us"),
    ("analysis.meanfield.iters", "count"),
    ("analysis.drift.walk_us_p50", "us"),
    ("analysis.drift.walk_slots", "count"),
    ("analysis.drift.useful_ratio", "ratio"),
    ("analysis.screen.synthesis_us", "us"),
    ("boost.screen_s", "s"),
    ("boost.confirm_s", "s"),
    ("boost.evals", "count"),
    ("boost.pruned", "count"),
    ("boost.rungs", "count"),
    ("jobs.points_done", "count"),
    ("jobs.points_retried", "count"),
    ("jobs.flushes", "count"),
    ("jobs.flush_s", "s"),
    ("jobs.journal_bytes", "bytes"),
    ("sim.multiclass.rounds", "count"),
    ("sim.multiclass.round_s", "s"),
    ("sim.multiclass.prs_s", "s"),
    ("testbed.firmware_s", "s"),
    ("testbed.mme.attempts", "count"),
    ("testbed.mme.retries", "count"),
    ("testbed.vs_slotted_ratio", "ratio"),
    ("check.envelope_use", "ratio"),
    ("check.fig2_max_err", "prob"),
    ("check.boost_objectives_won", "count"),
    ("obs.trace_overhead", "ratio"),
];

/// Least host time one `setup_s` sample covers: set-ups are repeated
/// until it is spent and the sample is their mean. Microsecond set-ups
/// are then timed well above the clock's resolution, and a sample spans
/// the host's short fast and slow spells instead of landing in one.
const SETUP_SAMPLE_SECS: f64 = 0.05;
/// Fewest passes a measuring phase runs, whatever the time budget.
const MIN_PASSES: usize = 3;

/// What one pass settles to, computed outside the timed region.
#[derive(Debug, Clone, PartialEq)]
pub struct Settled {
    /// Canonical output bytes: identical across passes of one run, and
    /// digested into the run's output digest.
    pub canonical: Vec<u8>,
    /// Operations the pass attempted (sweep points, boost evaluations,
    /// testbed tests).
    pub operations: u64,
    /// Operations that errored, were quarantined or failed a per-pass
    /// check.
    pub failed: u64,
}

/// Reference checks on one pass's output, computed outside the timed
/// region.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verification {
    /// Operations that failed a reference check.
    pub failed: u64,
    /// Human-readable check failures, including planted defects a check
    /// did not catch.
    pub problems: Vec<String>,
    /// Simulated seconds one pass advances.
    pub sim_seconds: f64,
    /// Simulated slots one pass steps, where the layer reports them.
    pub sim_slots: Option<u64>,
    /// Output statistics that repeat exactly at a fixed seed
    /// (`check.*` layer metrics).
    pub stats: Vec<(&'static str, f64)>,
}

/// What a traced pass produces.
pub struct Traced<O> {
    /// The pass output, identical to an untraced pass's.
    pub output: O,
    /// Per-layer metrics of this pass.
    pub layers: Vec<(&'static str, f64)>,
    /// Host seconds of the spans that run the
    /// [`serial_pass`](Workload::serial_pass) schedule, traced; the
    /// numerator of `obs.trace_overhead`.
    pub job_s: f64,
    /// The registry the pass's layers recorded into.
    pub registry: plc_obs::Registry,
}

/// Untraced timings a traced pass compares itself with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Untraced {
    /// Median host seconds of the run's untraced passes.
    pub pass_s: f64,
    /// Host seconds of the serial pass run just before the traced one.
    pub serial_s: f64,
}

/// How a run condenses its pass times into `wall_s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassStatistic {
    /// The fastest pass.
    Fastest,
    /// The median pass.
    Median,
}

impl PassStatistic {
    /// This statistic of `summary`.
    pub fn of(self, summary: &TimingSummary) -> f64 {
        match self {
            PassStatistic::Fastest => summary.min,
            PassStatistic::Median => summary.median,
        }
    }
}

/// One of the benchmark's workloads.
pub trait Workload {
    /// Inputs built from the seed during set-up.
    type Inputs;
    /// What one pass produces.
    type Output;

    /// Workload name as the command line spells it.
    fn name(&self) -> &'static str;
    /// The pass-time statistic reported as `wall_s`: the one whose
    /// run-to-run spread is smallest for this workload (see the README).
    fn wall_statistic(&self) -> PassStatistic {
        PassStatistic::Median
    }
    /// Build every input from `seed` (timed as `setup_s`).
    fn setup(&self, seed: u64, work_dir: &Path) -> Result<Self::Inputs, String>;
    /// One pass of the user's job (timed as `wall_s`). `index` numbers
    /// the passes of a run.
    fn pass(&self, inputs: &Self::Inputs, index: usize) -> Result<Self::Output, String>;
    /// The schedule a traced pass runs (one call at a time where the
    /// traced pass times calls one by one), without spans or the
    /// registries tracing adds: the denominator of `obs.trace_overhead`.
    fn serial_pass(&self, inputs: &Self::Inputs, index: usize) -> Result<Self::Output, String> {
        self.pass(inputs, index)
    }
    /// One pass with spans recorded around the calls into each layer and
    /// registries attached where the API accepts one. Produces the same
    /// output as [`pass`](Workload::pass) plus per-layer metrics.
    fn traced_pass(
        &self,
        inputs: &Self::Inputs,
        index: usize,
        tracer: &mut Tracer,
        untraced: Untraced,
    ) -> Result<Traced<Self::Output>, String>;
    /// Canonical bytes, operation count and per-pass checks.
    fn settle(&self, inputs: &Self::Inputs, output: &Self::Output) -> Result<Settled, String>;
    /// Reference checks, and planted defects proving each check fails on
    /// a defect.
    fn verify(&self, inputs: &Self::Inputs, output: &Self::Output) -> Verification;
    /// Free what a pass left behind (run directories).
    fn release(&self, _output: Self::Output) {}
}

/// Command-line options of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed; every program input derives from it.
    pub seed: u64,
    /// Measured seconds of passes.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Where run directories, traces and the run record go.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// The result line of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted over all passes.
    pub attempted: u64,
    /// Operations failed over all passes.
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The one-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Obj(vec![
                        ("value".into(), Value::Num(format_number(m.value))),
                        ("unit".into(), Value::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect();
        json_text(Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Num(self.attempted.to_string())),
            ("failed".into(), Value::Num(self.failed.to_string())),
            ("metrics".into(), Value::Obj(metrics)),
        ]))
    }

    /// Parse a result line back; the inverse of [`to_json`](Outcome::to_json).
    pub fn from_json(line: &str) -> Result<Outcome, String> {
        let v = parse_json(line)?;
        let fields = object(&v)?;
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        if keys != ["correct", "attempted", "failed", "metrics"] {
            return Err(format!("unexpected keys {keys:?}"));
        }
        let Value::Bool(correct) = fields[0].1 else {
            return Err("'correct' is not a boolean".into());
        };
        let metrics = object(&fields[3].1)?
            .iter()
            .map(|(name, m)| {
                let m = object(m)?;
                match m {
                    [(v, value), (u, Value::Str(unit))] if v == "value" && u == "unit" => {
                        Ok(Metric {
                            name: name.clone(),
                            value: number(value)?,
                            unit: unit.clone(),
                        })
                    }
                    _ => Err(format!("metric '{name}' is not {{value, unit}}")),
                }
            })
            .collect::<Result<_, String>>()?;
        Ok(Outcome {
            correct,
            attempted: whole(&fields[1].1)?,
            failed: whole(&fields[2].1)?,
            metrics,
        })
    }
}

fn object(v: &Value) -> Result<&[(String, Value)], String> {
    match v {
        Value::Obj(fields) => Ok(fields),
        other => Err(format!("expected an object, found {other:?}")),
    }
}

fn number(v: &Value) -> Result<f64, String> {
    match v {
        Value::Num(text) => text.parse().map_err(|_| format!("bad number {text}")),
        other => Err(format!("expected a number, found {other:?}")),
    }
}

fn whole(v: &Value) -> Result<u64, String> {
    match v {
        Value::Num(text) => text
            .parse()
            .map_err(|_| format!("not a whole number: {text}")),
        other => Err(format!("expected a number, found {other:?}")),
    }
}

/// A JSON tree as the vendored `serde_json` reads and writes it.
struct Json(Value);

impl serde::Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl serde::Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        Ok(Json(v.clone()))
    }
}

/// Compact JSON text of a tree.
pub fn json_text(v: Value) -> String {
    serde_json::to_string(&Json(v)).expect("a JSON tree serializes")
}

/// Parse JSON text into a tree.
pub fn parse_json(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Json>(text)
        .map(|j| j.0)
        .map_err(|e| e.to_string())
}

/// Shortest text that parses back to exactly `x` (finite values only:
/// [`measure`] replaces non-finite metrics and flags the run).
fn format_number(x: f64) -> String {
    format!("{x:?}")
}

/// A finished run: the result line plus the human-readable record.
#[derive(Debug, Clone)]
pub struct Report {
    /// The result line.
    pub outcome: Outcome,
    /// Timing summaries, digest, check statistics and problems.
    pub details: Vec<String>,
    /// FNV-1a digest of the first pass's canonical output.
    pub digest: Option<u64>,
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// 64-bit FNV-1a: a stable digest of canonical output bytes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Run the named workload at its full size.
pub fn run(opts: &Options) -> Result<Report, String> {
    match opts.workload.as_str() {
        "slotted_sweep" => measure(&sweep::SlottedSweep::full(), opts),
        "boost_search" => measure(&boost::BoostSearch::full(), opts),
        "testbed_figure2" => measure(&testbed::TestbedFigure2::full(), opts),
        other => Err(format!(
            "unknown workload '{other}'; known: {}",
            WORKLOADS.join(" ")
        )),
    }
}

/// Passes measured by one phase of a run.
struct Phase {
    /// Pass wall times, seconds.
    times: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Canonical bytes of the first pass.
    first_canonical: Option<Vec<u8>>,
}

impl Phase {
    fn new() -> Self {
        Phase {
            times: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            first_canonical: None,
        }
    }

    /// Account one settled pass; a pass whose output differs from the
    /// reference bytes fails every operation it attempted.
    fn settle(&mut self, settled: Result<Settled, String>, reference: Option<&[u8]>) {
        match settled {
            Ok(s) => {
                self.attempted += s.operations;
                let reference = reference.or(self.first_canonical.as_deref());
                if reference.is_some_and(|r| r != s.canonical.as_slice()) {
                    self.failed += s.operations;
                    self.problems
                        .push("pass output differs from the run's first pass".into());
                } else {
                    self.failed += s.failed;
                }
                if self.first_canonical.is_none() {
                    self.first_canonical = Some(s.canonical);
                }
            }
            Err(e) => self.fail(e),
        }
    }

    fn fail(&mut self, problem: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(problem);
    }
}

/// Measure `workload` as `opts` asks: end-to-end metrics, or per-layer
/// metrics when `opts.trace` is set.
pub fn measure<W: Workload>(workload: &W, opts: &Options) -> Result<Report, String> {
    let work_dir = opts
        .out_dir
        .join("work")
        .join(format!("{}-{}", workload.name(), opts.seed));
    if work_dir.exists() {
        std::fs::remove_dir_all(&work_dir)
            .map_err(|e| format!("cannot clear {}: {e}", work_dir.display()))?;
    }

    // Set-up samples are spread over the run, one before each untraced
    // pass, so that `setup_s` sees the same host conditions as `wall_s`.
    // A sample repeats set-ups (each dropping the inputs before it) for
    // at least `SETUP_SAMPLE_SECS`.
    let setup_sample = || -> Result<(f64, W::Inputs), String> {
        let t = Instant::now();
        let mut built = workload.setup(opts.seed, &work_dir)?;
        let mut count = 1u32;
        while t.elapsed().as_secs_f64() < SETUP_SAMPLE_SECS {
            drop(built);
            built = workload.setup(opts.seed, &work_dir)?;
            count += 1;
        }
        Ok((t.elapsed().as_secs_f64() / f64::from(count), built))
    };
    let (first_setup, inputs) = setup_sample()?;
    let mut setup_times = vec![first_setup];

    // A traced run gives a third of its budget to the untraced passes
    // behind `wall_s` and the rest to serial and traced pass pairs.
    let budget = if opts.trace {
        opts.seconds / 3.0
    } else {
        opts.seconds
    };
    let mut untraced = Phase::new();
    let mut first_output = None;
    // The budget covers everything a phase does: set-ups, passes and
    // settling them.
    let start = Instant::now();
    while untraced.times.len() < MIN_PASSES || start.elapsed().as_secs_f64() < budget {
        setup_times.push(setup_sample()?.0);
        let index = untraced.times.len();
        let t = Instant::now();
        let output = workload.pass(&inputs, index);
        let secs = t.elapsed().as_secs_f64();
        untraced.times.push(secs);
        match output {
            Ok(output) => {
                untraced.settle(workload.settle(&inputs, &output), None);
                if first_output.is_none() {
                    first_output = Some(output);
                } else {
                    workload.release(output);
                }
            }
            Err(e) => {
                untraced.fail(e);
                break;
            }
        }
    }
    let peak_rss = peak_rss_mb()?;
    let verification = match first_output {
        Some(output) => {
            let v = workload.verify(&inputs, &output);
            workload.release(output);
            v
        }
        None => Verification {
            problems: vec!["no pass completed".into()],
            ..Verification::default()
        },
    };
    let setup = TimingSummary::of(&setup_times);
    let wall = TimingSummary::of(&untraced.times);
    let wall_s = workload.wall_statistic().of(&wall);
    let digest = untraced.first_canonical.as_deref().map(fnv1a64);

    let mut details = vec![
        format!(
            "workload {} seed {} trace {}",
            workload.name(),
            opts.seed,
            opts.trace as u8
        ),
        setup.render("setup_s"),
        wall.render("wall_s"),
        format!("wall_s samples {:?}", untraced.times),
        format!(
            "output digest {}",
            digest.map_or("none".into(), |d| format!("{d:016x}"))
        ),
    ];
    details.extend(verification.stats.iter().map(|(k, v)| format!("{k} {v}")));

    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed + verification.failed;
    let mut problems = untraced.problems;
    problems.extend(verification.problems.iter().cloned());

    let mut metrics: Vec<Metric> = if opts.trace {
        // Serial untraced and traced passes alternate, so both see the
        // same host conditions; `obs.trace_overhead` compares the traced
        // passes' job spans with the serial passes.
        let reference = untraced.first_canonical.as_deref();
        let mut serial = Phase::new();
        let mut traced = Phase::new();
        let mut job_times = Vec::new();
        let mut tracer = Tracer::default();
        let mut layer_samples: Vec<Vec<(&'static str, f64)>> = Vec::new();
        let mut registry_json = String::new();
        let start = Instant::now();
        while traced.times.len() < MIN_PASSES || start.elapsed().as_secs_f64() < 2.0 * budget {
            let index = untraced.times.len() + serial.times.len() + traced.times.len();
            let t = Instant::now();
            let result = workload.serial_pass(&inputs, index);
            let serial_s = t.elapsed().as_secs_f64();
            serial.times.push(serial_s);
            match result {
                Ok(output) => {
                    serial.settle(workload.settle(&inputs, &output), reference);
                    workload.release(output);
                }
                Err(e) => {
                    serial.fail(e);
                    break;
                }
            }

            tracer.clear();
            let t = Instant::now();
            let untraced = Untraced {
                pass_s: wall.median,
                serial_s,
            };
            let result = workload.traced_pass(&inputs, index + 1, &mut tracer, untraced);
            traced.times.push(t.elapsed().as_secs_f64());
            match result {
                Ok(pass) => {
                    traced.settle(workload.settle(&inputs, &pass.output), reference);
                    workload.release(pass.output);
                    layer_samples.push(pass.layers);
                    job_times.push(pass.job_s);
                    registry_json = pass.registry.to_json();
                }
                Err(e) => {
                    traced.fail(e);
                    break;
                }
            }
        }
        let serial_wall = TimingSummary::of(&serial.times);
        let traced_job = TimingSummary::of(&job_times);
        details.push(serial_wall.render("serial_wall_s"));
        details.push(traced_job.render("traced_job_s"));
        details.push(TimingSummary::of(&traced.times).render("traced_wall_s"));
        for phase in [serial, traced] {
            attempted += phase.attempted;
            failed += phase.failed;
            problems.extend(phase.problems);
        }
        let stem = opts
            .out_dir
            .join(format!("{}-seed{}", workload.name(), opts.seed));
        write_file(&stem.with_extension("trace.json"), &tracer.chrome_json())?;
        write_file(&stem.with_extension("registry.json"), &registry_json)?;
        let mut extra = verification.stats.clone();
        if let Some(slots) = verification.sim_slots {
            extra.push(("sim.sweep.slots_per_s", slots as f64 / wall_s));
        }
        extra.push(("obs.trace_overhead", traced_job.median / serial_wall.median));
        layer_metrics(&layer_samples, &extra)?
    } else {
        [
            setup.median,
            wall_s,
            verification.sim_seconds / wall_s,
            peak_rss,
            1.0 - failed as f64 / attempted.max(1) as f64,
        ]
        .into_iter()
        .zip(E2E_METRICS)
        .map(|(value, (name, unit))| Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        })
        .collect()
    };
    for m in metrics.iter_mut().filter(|m| !m.value.is_finite()) {
        problems.push(format!("metric {} is not finite", m.name));
        m.value = 0.0;
    }
    details.extend(problems.iter().map(|p| format!("problem: {p}")));

    if work_dir.exists() {
        std::fs::remove_dir_all(&work_dir)
            .map_err(|e| format!("cannot remove {}: {e}", work_dir.display()))?;
    }
    let outcome = Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
    };
    let record = opts.out_dir.join(format!(
        "{}-seed{}-trace{}.txt",
        workload.name(),
        opts.seed,
        opts.trace as u8
    ));
    write_file(
        &record,
        &(details.join("\n") + "\n" + &outcome.to_json() + "\n"),
    )?;
    Ok(Report {
        outcome,
        details,
        digest,
    })
}

/// Every [`LAYER_METRICS`] entry: the median over traced passes of what
/// the workload reported, `extra` values as given, 0 for layers the
/// workload does not exercise.
fn layer_metrics(
    samples: &[Vec<(&'static str, f64)>],
    extra: &[(&'static str, f64)],
) -> Result<Vec<Metric>, String> {
    for (name, _) in samples.iter().flatten().chain(extra) {
        if !LAYER_METRICS.iter().any(|(n, _)| n == name) {
            return Err(format!("workload reported unknown layer metric '{name}'"));
        }
    }
    Ok(LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = match extra.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) => v,
                None => {
                    let values: Vec<f64> = samples
                        .iter()
                        .filter_map(|s| s.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
                        .collect();
                    if values.is_empty() {
                        0.0
                    } else {
                        stats::median(&values)
                    }
                }
            };
            Metric {
                name: name.to_string(),
                value,
                unit: unit.to_string(),
            }
        })
        .collect())
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Check-and-plant helper: run `check` on the real value, then on a copy
/// with a planted defect, recording a problem if the real value fails or
/// the defect passes.
pub fn check_with_planted<T: Clone, R>(
    what: &str,
    value: &T,
    plant: impl FnOnce(&mut T),
    check: impl Fn(&T) -> Result<R, String>,
    problems: &mut Vec<String>,
) -> Option<R> {
    let mut defective = value.clone();
    plant(&mut defective);
    if check(&defective).is_ok() {
        problems.push(format!("{what}: planted defect was not caught"));
    }
    match check(value) {
        Ok(r) => Some(r),
        Err(e) => {
            problems.push(format!("{what}: {e}"));
            None
        }
    }
}
