//! The benchmark's own tests: tiny-size smoke runs of every workload,
//! metric naming, result-line round trips and seed handling.

use plc_perfbench::boost::BoostSearch;
use plc_perfbench::sweep::SlottedSweep;
use plc_perfbench::testbed::TestbedFigure2;
use plc_perfbench::{
    check_with_planted, measure, parse_json, valid_metric_name, Metric, Options, Outcome, Report,
    Workload, E2E_METRICS, LAYER_METRICS, WORKLOADS,
};
use serde_json::Value;
use std::path::PathBuf;

/// Options for a tiny run; `tag` keeps concurrently running tests out of
/// each other's run directories.
fn opts(tag: &str, workload: &str, seed: u64, trace: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed,
        seconds: 0.01,
        trace,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("perfbench-{tag}-{workload}-{seed}-{}", trace as u8)),
    }
}

fn tiny(tag: &str, workload: &str, seed: u64, trace: bool) -> Report {
    let o = opts(tag, workload, seed, trace);
    let report = match workload {
        "slotted_sweep" => measure(&SlottedSweep::tiny(), &o),
        "boost_search" => measure(&BoostSearch::tiny(), &o),
        "testbed_figure2" => measure(&TestbedFigure2::tiny(), &o),
        other => panic!("unknown workload {other}"),
    }
    .expect("run completes");
    assert!(
        report.outcome.correct,
        "{workload} seed {seed}: {:#?}",
        report.details
    );
    report
}

fn names(outcome: &Outcome) -> Vec<&str> {
    outcome.metrics.iter().map(|m| m.name.as_str()).collect()
}

/// Metric-name prefixes of the layers each workload runs.
fn layers_run(workload: &str) -> &'static [&'static str] {
    match workload {
        "slotted_sweep" => &["sim.engine.", "sim.sweep."],
        "boost_search" => &["analysis.", "boost.", "jobs.points_done", "jobs.flush"],
        "testbed_figure2" => &["sim.multiclass.", "testbed."],
        other => panic!("unknown workload {other}"),
    }
}

/// Layer metrics that count faults, so a healthy run reads 0: SoA
/// contention-core fallbacks, retried job points and MME retries.
const FAULT_COUNTS: [&str; 3] = [
    "sim.engine.soa_fallbacks",
    "jobs.points_retried",
    "testbed.mme.retries",
];

#[test]
fn every_workload_runs_correctly_at_tiny_size() {
    for w in WORKLOADS {
        let e2e = tiny("smoke", w, 1, false).outcome;
        assert_eq!(names(&e2e), E2E_METRICS.map(|(n, _)| n));
        assert!(e2e.attempted >= 1 && e2e.failed == 0);
        assert!(e2e.metrics.iter().all(|m| m.value > 0.0), "{w}: {e2e:?}");

        let traced = tiny("smoke", w, 1, true).outcome;
        assert_eq!(names(&traced), LAYER_METRICS.map(|(n, _)| n));
        let overhead = &traced.metrics[LAYER_METRICS.len() - 1];
        assert_eq!(overhead.name, "obs.trace_overhead");
        assert!(overhead.value > 0.0);
        for m in &traced.metrics {
            let run = layers_run(w).iter().any(|p| m.name.starts_with(p));
            if run && !FAULT_COUNTS.contains(&m.name.as_str()) {
                assert!(m.value > 0.0, "{w}: {} reads {}", m.name, m.value);
            }
        }
    }
}

#[test]
fn traced_run_writes_chrome_trace_and_registry() {
    let o = opts("trace", "slotted_sweep", 4, true);
    measure(&SlottedSweep::tiny(), &o).unwrap();
    let trace = std::fs::read_to_string(o.out_dir.join("slotted_sweep-seed4.trace.json")).unwrap();
    let Value::Obj(doc) = parse_json(&trace).unwrap() else {
        panic!("trace is not an object")
    };
    let Value::Arr(events) = &doc[0].1 else {
        panic!("no traceEvents")
    };
    // One root span plus one span per grid point.
    assert_eq!(events.len(), 1 + 4 * SlottedSweep::tiny().stations.len());
    // The registry attached to the grid's templates reaches the engines.
    let registry =
        std::fs::read_to_string(o.out_dir.join("slotted_sweep-seed4.registry.json")).unwrap();
    let snapshot: plc_obs::RegistrySnapshot = serde_json::from_str(&registry).unwrap();
    assert!(snapshot.counter("engine.steps").unwrap_or(0) > 0);
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    for (name, unit) in E2E_METRICS.iter().chain(&LAYER_METRICS) {
        assert!(valid_metric_name(name), "{name}");
        assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
    }
    assert!(!valid_metric_name("bad name"));
    assert!(!valid_metric_name(".hidden"));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Value::Obj(doc) = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap() else {
        panic!("BENCHMARK.json is not an object")
    };
    let section = |key: &str| -> Vec<(String, String)> {
        let Some((_, Value::Arr(entries))) = doc.iter().find(|(k, _)| k == key) else {
            panic!("no {key} list")
        };
        entries
            .iter()
            .map(|e| {
                let Value::Obj(fields) = e else {
                    panic!("entry is not an object")
                };
                let text = |k: &str| match fields.iter().find(|(f, _)| f == k) {
                    Some((_, Value::Str(s))) => s.clone(),
                    _ => String::new(),
                };
                (text("name"), text("unit"))
            })
            .collect()
    };
    let pairs = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(section("end_to_end"), pairs(&E2E_METRICS));
    assert_eq!(section("per_layer"), pairs(&LAYER_METRICS));
    let workloads: Vec<String> = section("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn result_line_round_trips() {
    let outcome = Outcome {
        correct: true,
        attempted: 1000,
        failed: 0,
        metrics: vec![
            Metric {
                name: "latency_ms".into(),
                value: 1.2034,
                unit: "ms".into(),
            },
            Metric {
                name: "setup_s".into(),
                value: 3.18e-7,
                unit: "s".into(),
            },
            Metric {
                name: "slots".into(),
                value: 10046278.496188153,
                unit: "1/s".into(),
            },
        ],
    };
    let line = outcome.to_json();
    assert!(!line.contains('\n'));
    assert_eq!(Outcome::from_json(&line).unwrap(), outcome);

    let real = tiny("roundtrip", "testbed_figure2", 2, false).outcome;
    assert_eq!(Outcome::from_json(&real.to_json()).unwrap(), real);
    assert!(Outcome::from_json(r#"{"correct":true,"attempted":1}"#).is_err());
}

#[test]
fn seed_changes_inputs_but_not_metric_names() {
    for w in WORKLOADS {
        let a = tiny("seed-a", w, 1, false);
        let b = tiny("seed-b", w, 2, false);
        let again = tiny("seed-again", w, 1, false);
        assert_ne!(a.digest, b.digest, "{w}: seed does not reach the inputs");
        assert_eq!(
            a.digest, again.digest,
            "{w}: output is not a function of the seed"
        );
        assert_eq!(names(&a.outcome), names(&b.outcome));
    }
}

#[test]
fn planted_defects_that_slip_through_are_reported() {
    let mut problems = Vec::new();
    let caught = check_with_planted(
        "positive",
        &1.0f64,
        |x| *x = -1.0,
        |&x| {
            if x > 0.0 {
                Ok(x)
            } else {
                Err("negative".into())
            }
        },
        &mut problems,
    );
    assert_eq!(caught, Some(1.0));
    assert!(problems.is_empty());
    check_with_planted(
        "blind",
        &1.0f64,
        |x| *x = 2.0,
        |&x| {
            if x > 0.0 {
                Ok(x)
            } else {
                Err("negative".into())
            }
        },
        &mut problems,
    );
    assert_eq!(problems, ["blind: planted defect was not caught"]);
}

#[test]
fn workload_checks_fail_on_defects() {
    use plc_perfbench::boost::check_verdict;
    use plc_perfbench::sweep::{check_envelope, check_station_balance};
    use plc_perfbench::testbed::{check_figure2, check_test, TABLE2_TOLERANCE};

    let w = SlottedSweep::tiny();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let sweep = w.pass(&w.setup(9, &dir).unwrap(), 0).unwrap();
    let point = sweep.ok_points().next().unwrap();
    let report = w.template(&point.config, point.n).seed(1).run();
    check_station_balance(&report).unwrap();
    let mut bad = report.clone();
    bad.metrics.per_station[1].collisions += 1;
    assert!(check_station_balance(&bad).is_err());
    let mf = w
        .template(&point.config, point.n)
        .backend(plc_sim::Backend::MeanField)
        .run();
    let mut far = report.clone();
    far.collision_probability = mf.collision_probability + 0.2;
    assert!(check_envelope(point.n, &far, &mf).is_err());

    let t = TestbedFigure2::tiny();
    let tests = t.setup(9, &dir).unwrap();
    let outcomes = t.pass(&tests, 0).unwrap();
    let (e, o) = tests.iter().zip(&outcomes).find(|(e, _)| e.n == 3).unwrap();
    let mut o = o.clone().unwrap();
    check_test(e.n, &o).unwrap();
    o.per_station[0].collided = o.per_station[0].acked + 1;
    assert!(check_test(e.n, &o).is_err());
    assert!(check_figure2(&[0.0, 0.074 + 2.0 * TABLE2_TOLERANCE]).is_err());

    let b = BoostSearch::tiny();
    let inputs = b.setup(9, &dir.join("boost-defects")).unwrap();
    let pass = b.pass(&inputs, 0).unwrap();
    check_verdict(&pass.artifact).unwrap();
    let mut extra = pass.artifact.clone();
    extra.pareto.push("not-a-finalist".into());
    assert!(check_verdict(&extra).is_err());
    b.release(pass);
}
