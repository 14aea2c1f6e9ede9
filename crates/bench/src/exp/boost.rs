//! E3 — "boosting": model-guided search for throughput-optimal (CW, DC)
//! tables, validated by simulation. The search is the `plc-boost`
//! analytic screen of its default space against one saturated operating
//! point per N; the validation is this experiment's own slotted runs.

use crate::RunOpts;
use plc_boost::screen::{rank, screen_space};
use plc_boost::{Portfolio, PortfolioScenario, ScenarioKind, ScheduleCandidate, SearchSpace};
use plc_core::config::{CsmaConfig, DC_DISABLED};
use plc_core::error::{Error, Result};
use plc_core::timing::MacTiming;
use plc_sim::sweep;
use plc_sim::Simulation;
use plc_stats::table::{fmt_prob, Table};

/// The boosted-vs-default result at one N.
#[derive(Debug, Clone)]
pub struct BoostResult {
    /// Station count.
    pub n: usize,
    /// Simulated throughput of the default CA1 table.
    pub default_throughput: f64,
    /// Simulated throughput of the best candidate found.
    pub boosted_throughput: f64,
    /// The winning table.
    pub config: CsmaConfig,
}

/// The best-screened candidate of `space` for `n` saturated stations.
fn screen_winner<'a>(
    space: &'a SearchSpace,
    n: usize,
    timing: &MacTiming,
) -> Result<&'a ScheduleCandidate> {
    let portfolio = Portfolio {
        name: format!("saturated-n{n}"),
        scenarios: vec![PortfolioScenario {
            name: "saturated".into(),
            kind: ScenarioKind::Saturated,
            stations: vec![n],
            weight: 1.0,
        }],
    };
    let scores = screen_space(space, &portfolio, timing, None)?;
    let ranked = rank(&scores);
    let best = ranked
        .first()
        .ok_or_else(|| Error::runtime(format!("boost screen ranked no candidates at N={n}")))?;
    Ok(space
        .candidate(&best.label)
        .expect("ranked labels come from the space"))
}

/// Search and validate at each N, on the deterministic
/// [`plc_sim::sweep`] pool.
pub fn results(opts: &RunOpts, ns: &[usize]) -> Result<Vec<BoostResult>> {
    let timing = MacTiming::paper_default();
    let horizon = opts.horizon_us();
    let space = SearchSpace::default_space();
    sweep::parallel_map(sweep::default_workers(), ns.to_vec(), |_, n| {
        let config = screen_winner(&space, n, &timing)?.config()?;
        let default_sim = Simulation::ieee1901(n).horizon_us(horizon).seed(13).run();
        let boosted_sim = Simulation::ieee1901(n)
            .config(config.clone())
            .horizon_us(horizon)
            .seed(13)
            .run();
        Ok(BoostResult {
            n,
            default_throughput: default_sim.norm_throughput,
            boosted_throughput: boosted_sim.norm_throughput,
            config,
        })
    })
    .into_iter()
    .collect()
}

fn dc_label(cfg: &CsmaConfig) -> String {
    format!(
        "{:?}",
        cfg.dc_vector()
            .iter()
            .map(|&d| if d == DC_DISABLED {
                "-".into()
            } else {
                d.to_string()
            })
            .collect::<Vec<_>>()
    )
}

/// Render the experiment.
pub fn run(opts: &RunOpts) -> Result<String> {
    let span = opts.obs.timer("exp.boost.search").start();
    let rs = results(opts, &[2, 5, 10, 20])?;
    drop(span);
    let _render = opts.obs.timer("exp.boost.render").start();
    let mut t = Table::new(vec!["N", "default S", "boosted S", "gain", "cw", "dc"]);
    for r in &rs {
        t.row(vec![
            r.n.to_string(),
            fmt_prob(r.default_throughput),
            fmt_prob(r.boosted_throughput),
            format!(
                "{:+.1}%",
                100.0 * (r.boosted_throughput / r.default_throughput - 1.0)
            ),
            format!("{:?}", r.config.cw_vector()),
            dc_label(&r.config),
        ]);
    }
    Ok(format!(
        "E3 — boosting: model-guided (CW, DC) search, simulation-validated\n\n{}\n\
         The default table is tuned for small N; at N ≥ 10 wider windows win\n\
         back the airtime currently lost to collisions.\n",
        t.render()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn screen_picks_the_same_winners_at_every_n() {
        let space = SearchSpace::default_space();
        let timing = MacTiming::paper_default();
        for (n, label) in [
            (2, "cw4-g4-dc1901"),
            (5, "cw16-g2-dc1901"),
            (10, "cw128-g1-dcoff"),
            (20, "cw32-g2-dc1901"),
        ] {
            assert_eq!(
                screen_winner(&space, n, &timing).unwrap().label,
                label,
                "N={n}"
            );
        }
    }

    #[test]
    fn boosting_helps_at_large_n_not_small() {
        let rs = results(&RunOpts::quick(), &[2, 20]).unwrap();
        let small_gain = rs[0].boosted_throughput / rs[0].default_throughput - 1.0;
        let large_gain = rs[1].boosted_throughput / rs[1].default_throughput - 1.0;
        assert!(
            large_gain > 0.05,
            "at N=20 the boosted table must win ≥5%: {large_gain}"
        );
        assert!(
            large_gain > small_gain,
            "gains grow with N: {small_gain} vs {large_gain}"
        );
    }
}
