//! Multi-priority simulation with explicit priority-resolution phases.
//!
//! The 1901 standard "specifies that only the stations belonging to the
//! highest contending priority class run the backoff process", decided in a
//! priority-resolution phase of two busy-tone slots (PRS0/PRS1) after each
//! transmission. The paper's reference simulator folds all of this into
//! `Ts`/`Tc` and simulates a single class; this engine models the
//! resolution explicitly so the CA0–CA3 interactions of Table 1 can be
//! studied (extension experiment E2):
//!
//! * every contention round starts with a PRS phase among the classes that
//!   have backlogged stations; only the winning class's stations count
//!   down their backoff during that round;
//! * losing-class stations freeze entirely (their BC/DC/BPC persist);
//! * the PRS cost (2 × 35.84 µs) is accounted separately in
//!   [`Metrics::time_prs`](crate::metrics::Metrics).
//!
//! Modelling note: because the reference `Ts`/`Tc` constants already
//! include the per-transmission overheads of the single-class testbed,
//! adding explicit PRS time makes absolute throughput here slightly lower
//! than the single-class engine's; cross-class *comparisons* are the
//! purpose of this engine.

use crate::bursting::BurstPolicy;
use crate::metrics::Metrics;
use crate::trace::{StationId, TraceEvent, TraceSink};
use crate::traffic::{TrafficModel, TrafficState};
use parking_lot::Mutex;
use plc_core::addr::Tei;
use plc_core::frame::{SelectiveAck, SofDelimiter};
use plc_core::priority::{resolve_priority, Priority};
use plc_core::timing::{MacTiming, MAX_BURST, PREAMBLE, PRS_SLOT, RIFS, SACK};
use plc_core::units::Microseconds;
use plc_mac::process::BackoffProcess;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// One station of the multi-class engine.
#[derive(Debug, Clone)]
pub struct ClassStationSpec<P> {
    /// The backoff process (its config should match the class column of
    /// Table 1 — `CsmaConfig::ieee1901_for(priority)`).
    pub process: P,
    /// The station's channel-access priority.
    pub priority: Priority,
    /// Arrival model.
    pub traffic: TrafficModel,
    /// Physical blocks per MPDU (SoF bookkeeping).
    pub num_pbs: u16,
    /// TEI stamped into this station's SoF delimiters. Defaults to
    /// `Tei::station(index)`; the testbed overrides it when one physical
    /// device contributes several engine stations (data + management).
    pub tei: Option<Tei>,
    /// Destination TEI stamped into SoF delimiters. Defaults to one past
    /// the last station (the destination `D` of the paper's tests).
    pub dst: Option<Tei>,
}

impl<P> ClassStationSpec<P> {
    /// A saturated station of the given class with default wire identity.
    pub fn new(process: P, priority: Priority, traffic: TrafficModel) -> Self {
        ClassStationSpec {
            process,
            priority,
            traffic,
            num_pbs: 4,
            tei: None,
            dst: None,
        }
    }
}

struct Ctx<P> {
    process: P,
    priority: Priority,
    traffic: TrafficState,
    num_pbs: u16,
    tei: Tei,
    dst: Tei,
}

/// Configuration of the multi-class engine.
#[derive(Debug, Clone)]
pub struct MultiClassConfig {
    /// Channel timing.
    pub timing: MacTiming,
    /// Simulation horizon.
    pub horizon: Microseconds,
    /// Burst policy on wins.
    pub burst: BurstPolicy,
    /// Emit [`TraceEvent::Sof`]/[`TraceEvent::Sack`] wire events (needed by
    /// the testbed sniffer).
    pub emit_wire_events: bool,
}

impl Default for MultiClassConfig {
    fn default() -> Self {
        MultiClassConfig {
            timing: MacTiming::paper_default(),
            horizon: plc_core::timing::DEFAULT_SIM_TIME,
            burst: BurstPolicy::Single,
            emit_wire_events: true,
        }
    }
}

/// Multi-priority engine. See the [module docs](self).
pub struct MultiClassEngine<P: BackoffProcess> {
    cfg: MultiClassConfig,
    stations: Vec<Ctx<P>>,
    rng: SmallRng,
    t: Microseconds,
    metrics: Metrics,
    sinks: Vec<Arc<Mutex<dyn TraceSink + Send>>>,
    timers: Option<MultiClassTimers>,
    // Per-round scratch, reused so the hot loop stops allocating: the
    // PRS contender list, the winning-class transmitter set and the
    // per-transmitter burst draws. Taken out (`std::mem::take`) for the
    // duration of each use and put back, so capacity persists.
    contending_buf: Vec<Priority>,
    winners_buf: Vec<StationId>,
    bursts_buf: Vec<(usize, usize)>,
}

/// Hot-path span timers installed by [`MultiClassEngine::instrument`].
struct MultiClassTimers {
    round: plc_obs::SpanTimer,
    prs: plc_obs::SpanTimer,
}

impl<P: BackoffProcess> MultiClassEngine<P> {
    /// Build the engine.
    pub fn new(cfg: MultiClassConfig, stations: Vec<ClassStationSpec<P>>, seed: u64) -> Self {
        assert!(!stations.is_empty(), "need at least one station");
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = stations.len();
        let default_dst = Tei::station(stations.len() as u32);
        let stations = stations
            .into_iter()
            .enumerate()
            .map(|(i, s)| Ctx {
                process: s.process,
                priority: s.priority,
                traffic: TrafficState::new(s.traffic, &mut rng),
                num_pbs: s.num_pbs,
                tei: s.tei.unwrap_or_else(|| Tei::station(i as u32)),
                dst: s.dst.unwrap_or(default_dst),
            })
            .collect();
        MultiClassEngine {
            cfg,
            stations,
            rng,
            t: Microseconds::ZERO,
            metrics: Metrics::new(n),
            sinks: Vec::new(),
            timers: None,
            contending_buf: Vec::with_capacity(n),
            winners_buf: Vec::with_capacity(n),
            bursts_buf: Vec::with_capacity(n),
        }
    }

    /// Subscribe a trace sink.
    pub fn add_sink(&mut self, sink: Arc<Mutex<dyn TraceSink + Send>>) {
        self.sinks.push(sink);
    }

    /// Install hot-path instrumentation into `registry`: span timers
    /// `multiclass.round` (one full contention round) and
    /// `multiclass.prs` (the priority-resolution phase). Fails with
    /// [`plc_core::error::Error::Runtime`] if either name is already
    /// registered as a different metric kind.
    pub fn instrument(&mut self, registry: &plc_obs::Registry) -> plc_core::error::Result<()> {
        self.timers = Some(MultiClassTimers {
            round: registry.try_timer("multiclass.round")?,
            prs: registry.try_timer("multiclass.prs")?,
        });
        Ok(())
    }

    /// Current simulated time.
    pub fn time(&self) -> Microseconds {
        self.t
    }

    /// Metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn emit(&mut self, ev: TraceEvent) {
        for sink in &self.sinks {
            sink.lock().on_event(&ev);
        }
    }

    /// The SoF delimiter station `i` puts on the wire.
    fn sof_for(&self, i: StationId, remaining: usize) -> SofDelimiter {
        let st = &self.stations[i];
        let fl = (self.cfg.timing.frame_length.as_micros() / 1.28).round();
        SofDelimiter {
            src: st.tei,
            dst: st.dst,
            priority: st.priority,
            mpdu_cnt: remaining as u8,
            num_pbs: st.num_pbs,
            fl_units: fl.min(u16::MAX as f64) as u16,
        }
    }

    fn advance_traffic(&mut self) {
        let now = self.t.as_micros();
        for st in &mut self.stations {
            if !st.traffic.is_saturated() && st.traffic.advance_to(now, &mut self.rng) {
                st.process.reset(&mut self.rng);
            }
        }
    }

    /// Run one full contention round: PRS phase, winning-class backoff
    /// until a transmission (or nothing to send → one idle slot).
    pub fn round(&mut self) {
        let _round_span = self.timers.as_ref().map(|t| t.round.start());
        self.advance_traffic();

        let prs_span = self.timers.as_ref().map(|t| t.prs.start());
        let mut contending = std::mem::take(&mut self.contending_buf);
        contending.clear();
        contending.extend(
            self.stations
                .iter()
                .filter(|s| s.traffic.has_frame())
                .map(|s| s.priority),
        );

        let resolved = resolve_priority(&contending);
        self.contending_buf = contending;
        drop(prs_span);
        let Some(res) = resolved else {
            // Nobody has traffic: medium idles one slot.
            self.t += self.cfg.timing.slot;
            self.metrics.idle_slots += 1;
            self.metrics.time_idle += self.cfg.timing.slot;
            self.emit(TraceEvent::IdleSlot { t: self.t });
            self.metrics.elapsed = self.t;
            return;
        };

        let t_prs = self.t;
        self.t += PRS_SLOT * 2.0;
        self.metrics.time_prs += PRS_SLOT * 2.0;
        self.emit(TraceEvent::PriorityResolution {
            t: t_prs,
            winner: res.winner,
        });

        // The winning class contends with slotted backoff until a
        // transmission occurs.
        loop {
            let mut winners = std::mem::take(&mut self.winners_buf);
            winners.clear();
            winners.extend(
                self.stations
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| {
                        s.priority == res.winner && s.traffic.has_frame() && s.process.wants_tx()
                    })
                    .map(|(i, _)| i),
            );

            match winners.len() {
                0 => {
                    self.winners_buf = winners;
                    // PRS-aware fast-forward: only the winning class's
                    // backlogged stations count down this round, and no
                    // arrivals/beacons/noise occur inside a round, so the
                    // next min(BC) slots over that set are guaranteed
                    // idle. Same per-slot time/metrics/event replay as
                    // the single-class engine's fast path. A process whose
                    // `idle_skip` is `None` keeps the round per-slot.
                    let mut k = u32::MAX;
                    let mut ok = true;
                    for st in &self.stations {
                        if st.priority == res.winner && st.traffic.has_frame() {
                            match st.process.idle_skip() {
                                Some(bc) if bc > 0 => k = k.min(bc),
                                _ => {
                                    ok = false;
                                    break;
                                }
                            }
                        }
                    }
                    let skip = (ok && k != u32::MAX).then_some(k);
                    match skip {
                        Some(k) => {
                            for _ in 0..k {
                                let t0 = self.t;
                                self.t += self.cfg.timing.slot;
                                self.metrics.idle_slots += 1;
                                self.metrics.time_idle += self.cfg.timing.slot;
                                self.emit(TraceEvent::IdleSlot { t: t0 });
                            }
                            for st in &mut self.stations {
                                if st.priority == res.winner && st.traffic.has_frame() {
                                    st.process.consume_idle_slots(k);
                                }
                            }
                        }
                        None => {
                            let t0 = self.t;
                            for st in &mut self.stations {
                                if st.priority == res.winner && st.traffic.has_frame() {
                                    st.process.on_idle_slot(&mut self.rng);
                                }
                            }
                            self.t += self.cfg.timing.slot;
                            self.metrics.idle_slots += 1;
                            self.metrics.time_idle += self.cfg.timing.slot;
                            self.emit(TraceEvent::IdleSlot { t: t0 });
                        }
                    }
                }
                1 => {
                    let w = winners[0];
                    self.winners_buf = winners;
                    let t0 = self.t;
                    let available = self.stations[w].traffic.backlog().min(MAX_BURST);
                    let burst = self.cfg.burst.draw(&mut self.rng, available);
                    let dur = self.cfg.timing.burst_duration(burst);
                    // SoF/SACK construction allocates (per-PB status
                    // vectors); skip it when nobody listens.
                    if self.cfg.emit_wire_events && !self.sinks.is_empty() {
                        let mpdu_stride = self.cfg.timing.frame_length + RIFS + SACK;
                        for k in 0..burst {
                            let sof_t = t0 + mpdu_stride * (k as u64);
                            let sof = self.sof_for(w, burst - 1 - k);
                            self.emit(TraceEvent::Sof {
                                t: sof_t,
                                station: w,
                                sof,
                            });
                            let ack_t = sof_t + PREAMBLE + self.cfg.timing.frame_length + RIFS;
                            let ack = SelectiveAck::all_good(
                                self.stations[w].tei,
                                self.stations[w].num_pbs,
                            );
                            self.emit(TraceEvent::Sack { t: ack_t, ack });
                        }
                    }
                    for i in 0..self.stations.len() {
                        if i == w {
                            self.stations[i].process.on_tx_success(&mut self.rng);
                            self.stations[i].traffic.consume(burst);
                        } else if self.stations[i].priority == res.winner
                            && self.stations[i].traffic.has_frame()
                        {
                            self.stations[i].process.on_busy(&mut self.rng);
                        }
                        // Losing classes freeze: no event.
                    }
                    self.t += dur;
                    self.metrics.record_success(w, t0, burst);
                    self.metrics.time_success += dur;
                    self.emit(TraceEvent::Success {
                        t: t0,
                        station: w,
                        burst,
                    });
                    break;
                }
                _ => {
                    let t0 = self.t;
                    // Full bursts go out even on collisions (see the
                    // single-class engine for why).
                    let mut bursts = std::mem::take(&mut self.bursts_buf);
                    bursts.clear();
                    bursts.extend(winners.iter().map(|&i| {
                        let available = self.stations[i].traffic.backlog().min(MAX_BURST);
                        (i, self.cfg.burst.draw(&mut self.rng, available))
                    }));
                    let max_burst = bursts.iter().map(|&(_, b)| b).max().unwrap_or(1);
                    let dur = self.cfg.timing.burst_duration(max_burst) + self.cfg.timing.tc
                        - self.cfg.timing.ts;
                    // SoF/SACK construction allocates (per-PB status
                    // vectors); skip it when nobody listens.
                    if self.cfg.emit_wire_events && !self.sinks.is_empty() {
                        // Overlapping bursts: emit slot by slot so capture
                        // timestamps stay monotone.
                        let mpdu_stride = self.cfg.timing.frame_length + RIFS + SACK;
                        for k in 0..max_burst {
                            let sof_t = t0 + mpdu_stride * (k as u64);
                            for &(i, burst) in bursts.iter().filter(|&&(_, b)| b > k) {
                                let sof = self.sof_for(i, burst - 1 - k);
                                self.emit(TraceEvent::Sof {
                                    t: sof_t,
                                    station: i,
                                    sof,
                                });
                            }
                            let ack_t = sof_t + PREAMBLE + self.cfg.timing.frame_length + RIFS;
                            for &(i, _) in bursts.iter().filter(|&&(_, b)| b > k) {
                                let ack = SelectiveAck::all_errored(
                                    self.stations[i].tei,
                                    self.stations[i].num_pbs,
                                );
                                self.emit(TraceEvent::Sack { t: ack_t, ack });
                            }
                        }
                    }
                    for i in 0..self.stations.len() {
                        if winners.contains(&i) {
                            self.stations[i].process.on_tx_failure(&mut self.rng);
                        } else if self.stations[i].priority == res.winner
                            && self.stations[i].traffic.has_frame()
                        {
                            self.stations[i].process.on_busy(&mut self.rng);
                        }
                    }
                    self.t += dur;
                    self.metrics.record_collision(&bursts);
                    self.metrics.time_collision += dur;
                    self.bursts_buf = bursts;
                    // The collision event owns its station list; only
                    // pay for the clone when somebody listens.
                    if !self.sinks.is_empty() {
                        self.emit(TraceEvent::Collision {
                            t: t0,
                            stations: winners.clone(),
                        });
                    }
                    self.winners_buf = winners;
                    break;
                }
            }
        }
        self.metrics.elapsed = self.t;
    }

    /// Run rounds until the horizon; returns the metrics.
    pub fn run(&mut self) -> &Metrics {
        while self.t <= self.cfg.horizon {
            self.round();
        }
        &self.metrics
    }

    /// Successes per priority class.
    pub fn successes_by_class(&self) -> [u64; 4] {
        let mut out = [0u64; 4];
        for (i, st) in self.stations.iter().enumerate() {
            out[st.priority as usize] += self.metrics.per_station[i].successes;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plc_core::config::CsmaConfig;
    use plc_mac::Backoff1901;
    use rand::rngs::SmallRng;

    fn spec(priority: Priority, rng: &mut SmallRng) -> ClassStationSpec<Backoff1901> {
        ClassStationSpec::new(
            Backoff1901::new(CsmaConfig::ieee1901_for(priority), rng),
            priority,
            TrafficModel::Saturated,
        )
    }

    fn cfg(horizon_us: f64) -> MultiClassConfig {
        MultiClassConfig {
            horizon: Microseconds(horizon_us),
            ..Default::default()
        }
    }

    #[test]
    fn higher_class_starves_lower_when_saturated() {
        let mut rng = SmallRng::seed_from_u64(1);
        let stations = vec![
            spec(Priority::CA1, &mut rng),
            spec(Priority::CA1, &mut rng),
            spec(Priority::CA3, &mut rng),
        ];
        let mut e = MultiClassEngine::new(cfg(5e6), stations, 1);
        e.run();
        let by_class = e.successes_by_class();
        assert!(by_class[3] > 0);
        assert_eq!(
            by_class[1], 0,
            "a saturated CA3 station never lets CA1 win priority resolution"
        );
    }

    #[test]
    fn single_class_behaves_like_plain_contention() {
        let mut rng = SmallRng::seed_from_u64(2);
        let stations = vec![spec(Priority::CA1, &mut rng), spec(Priority::CA1, &mut rng)];
        let mut e = MultiClassEngine::new(cfg(5e6), stations, 2);
        let m = e.run().clone();
        assert!(m.successes > 0);
        assert!(m.collision_events > 0);
        let p = m.collision_probability();
        assert!(
            p > 0.02 && p < 0.2,
            "two CA1 stations collide like the paper's N=2: {p}"
        );
        assert!(m.time_prs.as_micros() > 0.0);
    }

    #[test]
    fn unsaturated_high_class_shares_with_low() {
        // A CA3 station with light Poisson traffic lets a saturated CA1
        // station through most of the time.
        let mut rng = SmallRng::seed_from_u64(3);
        let stations = vec![
            ClassStationSpec::new(
                Backoff1901::new(CsmaConfig::ieee1901_ca01(), &mut rng),
                Priority::CA1,
                TrafficModel::Saturated,
            ),
            ClassStationSpec::new(
                Backoff1901::new(CsmaConfig::ieee1901_ca23(), &mut rng),
                Priority::CA3,
                TrafficModel::Poisson {
                    rate_per_us: 5e-5,
                    queue_cap: 64,
                },
            ),
        ];
        let mut e = MultiClassEngine::new(cfg(1e7), stations, 3);
        e.run();
        let by_class = e.successes_by_class();
        assert!(by_class[1] > 0, "CA1 must win rounds when CA3 is idle");
        assert!(by_class[3] > 0, "CA3 frames do go out");
        assert!(by_class[1] > by_class[3], "light CA3 load ≪ saturated CA1");
    }

    #[test]
    fn ca2_beats_ca0_and_ca1_mixture() {
        let mut rng = SmallRng::seed_from_u64(4);
        let stations = vec![
            spec(Priority::CA0, &mut rng),
            spec(Priority::CA1, &mut rng),
            spec(Priority::CA2, &mut rng),
        ];
        let mut e = MultiClassEngine::new(cfg(3e6), stations, 4);
        e.run();
        let by_class = e.successes_by_class();
        assert!(by_class[2] > 0);
        assert_eq!(by_class[0] + by_class[1], 0);
    }

    #[test]
    fn metrics_time_accounting_is_complete() {
        let mut rng = SmallRng::seed_from_u64(5);
        let stations = vec![spec(Priority::CA1, &mut rng), spec(Priority::CA1, &mut rng)];
        let mut e = MultiClassEngine::new(cfg(2e6), stations, 5);
        let m = e.run().clone();
        let accounted = m.time_idle + m.time_success + m.time_collision + m.time_prs;
        assert!(
            (accounted.as_micros() - m.elapsed.as_micros()).abs() < 1e-6,
            "all elapsed time must be attributed"
        );
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut rng = SmallRng::seed_from_u64(6);
            let stations = vec![spec(Priority::CA2, &mut rng), spec(Priority::CA1, &mut rng)];
            let mut e = MultiClassEngine::new(cfg(1e6), stations, 6);
            e.run().clone()
        };
        assert_eq!(run(), run());
    }
}
