//! Struct-of-arrays contention core: the engine's only contention state.
//!
//! [`SlottedEngine`](crate::engine::SlottedEngine) is built from
//! [`BackoffProcess`](plc_mac::process::BackoffProcess) objects, which is
//! the right shape for correctness and protocol ablations but the wrong
//! shape for a saturated medium: a busy slot must touch *every* backlogged
//! station's BC/DC, and walking per-station objects costs several cache
//! lines per station plus an enum dispatch per event. So the engine asks
//! every process for its [`SoaView`](plc_mac::process::SoaView) at
//! construction, packs the counters into this core's parallel arrays,
//! and never calls the process objects again: every idle, busy, success,
//! collision and arrival transition is one of the sweeps below, a
//! branch-light pass over a few contiguous bytes per station.
//!
//! Invariant: every station is packed into the core, or engine
//! construction fails with the [`CoreRejection`] as a typed
//! `InvalidConfig` error. There is no fallback path.
//!
//! # Memory layout
//!
//! The two counters every busy slot touches — BC and DC — are packed into
//! one `u32` per station (`bcdc`: BC in the low 16 bits, DC in the high
//! 16, with `0xFFFF` as the disabled-DC sentinel). A deferring station's
//! whole slot update is then one load, one compare (`word >= 0x10000`
//! means `DC > 0`), one subtract and one store:
//!
//! ```text
//! word - 1 - (((word >> 16) != 0xFFFF) as u32) << 16   // BC -= 1, DC -= 1 unless disabled
//! ```
//!
//! Stage and BPC live in separate arrays — they are only touched on
//! redraws, not on every slot. `try_from_views` rejects populations
//! whose CW/DC values don't fit the packed layout (CW > 2¹⁶, DC ≥ 2¹⁶ − 1
//! yet not disabled, more than 256 stages).
//!
//! On top of the layout, the all-backlogged single-class IEEE 1901
//! population — the saturated benchmark regime — takes a specialized
//! sweep with the per-station `active`/protocol checks hoisted out of
//! the loop entirely.
//!
//! # Draw-order contract
//!
//! Bit-identity with the `plc-mac` process objects rests on two facts,
//! both pinned transition by transition by this module's `mirror_slots`
//! tests:
//!
//! * the vendored `gen_range(0..cw)` consumes exactly one `next_u64` and
//!   maps it with the Lemire multiply-shift `((x · cw) >> 64)` — no
//!   rejection loop, so the word count per redraw is fixed;
//! * the process-object semantics mutate (and therefore redraw) stations
//!   in ascending station order.
//!
//! A sweep therefore runs in two passes: pass 1 walks stations in
//! ascending order and *decides* who redraws (queueing `(station, cw)`
//! pairs), pass 2 pre-fills the draw buffer from the engine RNG — one
//! `next_u64` per queued redraw, in queue order — and applies the same
//! multiply-shift. The resulting stream consumption is word-for-word what
//! calling the process objects in station order would have drawn.
//!
//! The fast-forward contention cache (`zero` set + min positive BC) is
//! folded *inside* the sweeps (`TRACK = true`): stations whose BC is
//! final fold inline, redrawn stations fold as their draw lands, and the
//! two ascending zero sets merge with one ordered pass.

use crate::trace::StationId;
use plc_core::config::DC_DISABLED;
use plc_mac::process::{BackoffSnapshot, Protocol, SoaView};
use rand::rngs::SmallRng;
use rand::RngCore;

/// What a transmitting station's backoff does after a non-idle slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SweepAction {
    /// Re-enter stage 0: a success, a retry-limit drop, or a head-of-line
    /// reset (all three share the stage-0 transition in both protocols).
    Restart,
    /// Advance the backoff stage: a collision without a drop.
    Advance,
}

const PROTO_DCF: u8 = 0;
const PROTO_1901: u8 = 1;

/// In-word disabled-DC sentinel (the packed 16-bit image of
/// [`DC_DISABLED`]).
const DC16_DISABLED: u32 = 0xFFFF;

/// Pack a (BC, 16-bit DC) pair into one word.
#[inline]
fn pack(bc: u32, dc16: u32) -> u32 {
    bc | (dc16 << 16)
}

/// Per-stage parameters of one distinct (protocol, table) combination.
/// Stations index into these via `ContentionCore::class`, so homogeneous
/// populations share one table.
struct ClassTable {
    proto: u8,
    cw: Vec<u32>,
    /// Per-stage DC reload values, already mapped to the packed 16-bit
    /// domain ([`DC16_DISABLED`] for disabled).
    dc16: Vec<u32>,
    /// `num_stages − 1`: both protocols saturate stage lookups here.
    last: u32,
}

/// The struct-of-arrays contention state. See the [module docs](self).
pub(crate) struct ContentionCore {
    n: usize,
    /// Packed per-station `BC | DC << 16` words (see the module docs).
    /// `u16` BC is exact: `CsmaConfig` caps CW at 2¹⁶, so every draw
    /// from `0..cw` fits (checked again in
    /// [`try_from_views`](Self::try_from_views)).
    bcdc: Vec<u32>,
    /// 1901: raw BPC (one past the stage in effect). DCF: retry count.
    /// Only touched on redraws — deliberately outside the packed word.
    bpc: Vec<u32>,
    /// Stage in effect, cached at redraw time.
    stage: Vec<u8>,
    /// `PROTO_1901` or `PROTO_DCF` — selects the busy-slot semantics.
    proto: Vec<u8>,
    /// Index into `classes`.
    class: Vec<u16>,
    /// Whether the station is backlogged (has a fresh frame queued or
    /// errored PBs awaiting retransmission). Refreshed by the engine once
    /// per step — and fixed up for the few stations whose queues change
    /// mid-step — so the sweeps never touch `StationCtx`.
    active: Vec<bool>,
    classes: Vec<ClassTable>,
    /// Specialized-sweep eligibility: every station permanently
    /// backlogged (saturated population) and one shared IEEE 1901 class,
    /// so the busy loop needs no per-station `active`/protocol checks.
    fast: bool,
    /// Queued redraws of the current sweep: `(station, cw)` in ascending
    /// station order — the draw order.
    pending: Vec<(u32, u32)>,
    /// Per-sweep batch of raw RNG words, one per queued redraw.
    draws: Vec<u64>,
    /// Redrawn stations whose fresh BC landed on 0, ascending (scratch
    /// for the fused cache fold; see [`merge_zero`]).
    redraw_zero: Vec<StationId>,
    /// Merge scratch for [`merge_zero`].
    merge_buf: Vec<StationId>,
}

/// Merge the ascending `extra` set into the ascending `zero` set,
/// preserving order. The two sets are disjoint (a station folds from
/// exactly one pass), so strict `<` suffices.
fn merge_zero(zero: &mut Vec<StationId>, extra: &[StationId], buf: &mut Vec<StationId>) {
    if extra.is_empty() {
        return;
    }
    buf.clear();
    let (mut i, mut j) = (0, 0);
    while i < zero.len() && j < extra.len() {
        if zero[i] < extra[j] {
            buf.push(zero[i]);
            i += 1;
        } else {
            buf.push(extra[j]);
            j += 1;
        }
    }
    buf.extend_from_slice(&zero[i..]);
    buf.extend_from_slice(&extra[j..]);
    std::mem::swap(zero, buf);
}

/// Map a view's DC value into the packed 16-bit domain, or `None` when
/// it doesn't fit (the engine then refuses the configuration).
#[inline]
fn dc16_of(dc: u32) -> Option<u32> {
    if dc == DC_DISABLED {
        Some(DC16_DISABLED)
    } else if dc < DC16_DISABLED {
        Some(dc)
    } else {
        None
    }
}

/// Why a station population cannot be hosted in the packed
/// struct-of-arrays core. The engine has no other contention path, so
/// [`SlottedEngine::try_new`](crate::engine::SlottedEngine::try_new)
/// returns the rejection as [`to_error`](CoreRejection::to_error)'s
/// `InvalidConfig` error. `CsmaConfig` admits such tables: a deferral
/// counter of `0xFFFF` or more that is not disabled, or more than 256
/// stages.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreRejection {
    /// No stations (nothing to pack).
    Empty,
    /// More stations than the packed index domain.
    TooManyStations(usize),
    /// A stage table is empty or longer than the `u8` stage array allows.
    StageTableSize {
        /// Offending station.
        station: usize,
        /// Its stage-table length.
        stages: usize,
    },
    /// A contention window of 0 or above 2¹⁶ cannot be packed into the
    /// 16-bit BC field (a draw from `0..cw` must fit).
    WindowUnrepresentable {
        /// Offending station.
        station: usize,
        /// The unrepresentable window.
        cw: u32,
    },
    /// A deferral counter ≥ 0xFFFF that is not [`DC_DISABLED`] collides
    /// with the packed disabled-DC sentinel.
    DeferralUnrepresentable {
        /// Offending station.
        station: usize,
        /// The unrepresentable deferral counter.
        dc: u32,
    },
    /// A live backoff counter above the 16-bit packed domain.
    CounterOutOfRange {
        /// Offending station.
        station: usize,
        /// The unrepresentable backoff counter.
        bc: u32,
    },
    /// A station's current stage indexes past its stage table.
    StageOutOfRange {
        /// Offending station.
        station: usize,
        /// The out-of-range stage.
        stage: u32,
    },
    /// More distinct (protocol, table) classes than the `u16` class ids.
    TooManyClasses(usize),
}

impl std::fmt::Display for CoreRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreRejection::Empty => write!(f, "no stations to pack"),
            CoreRejection::TooManyStations(n) => {
                write!(f, "{n} stations exceed the packed index domain")
            }
            CoreRejection::StageTableSize { station, stages } => write!(
                f,
                "station {station}: stage table of {stages} entries does not fit \
                 the u8 stage array (need 1..=256)"
            ),
            CoreRejection::WindowUnrepresentable { station, cw } => write!(
                f,
                "station {station}: contention window {cw} does not fit the \
                 packed 16-bit backoff field (need 1..=65536)"
            ),
            CoreRejection::DeferralUnrepresentable { station, dc } => write!(
                f,
                "station {station}: deferral counter {dc} collides with the \
                 packed disabled-DC sentinel 0xFFFF (need < 65535 or DC_DISABLED)"
            ),
            CoreRejection::CounterOutOfRange { station, bc } => write!(
                f,
                "station {station}: backoff counter {bc} exceeds the packed \
                 16-bit domain"
            ),
            CoreRejection::StageOutOfRange { station, stage } => write!(
                f,
                "station {station}: stage {stage} indexes past its stage table"
            ),
            CoreRejection::TooManyClasses(n) => {
                write!(f, "{n} distinct parameter classes exceed the u16 class ids")
            }
        }
    }
}

impl CoreRejection {
    /// The rejection as the typed configuration error engine
    /// construction returns.
    pub fn to_error(&self) -> plc_core::error::Error {
        plc_core::error::Error::invalid_config(format!(
            "struct-of-arrays contention core unavailable: {self}"
        ))
    }
}

impl ContentionCore {
    /// Build a core from per-station views, or say why the views cannot
    /// be represented exactly (oversized CW/DC/stage tables).
    /// `all_active` marks every station permanently backlogged (a
    /// saturated population).
    pub(crate) fn try_from_views(
        views: &[SoaView],
        all_active: bool,
    ) -> std::result::Result<Self, CoreRejection> {
        let n = views.len();
        if n == 0 {
            return Err(CoreRejection::Empty);
        }
        if n > u32::MAX as usize {
            return Err(CoreRejection::TooManyStations(n));
        }
        let mut classes: Vec<(Protocol, &SoaView, ClassTable)> = Vec::new();
        let mut core = ContentionCore {
            n,
            bcdc: Vec::with_capacity(n),
            bpc: Vec::with_capacity(n),
            stage: Vec::with_capacity(n),
            proto: Vec::with_capacity(n),
            class: Vec::with_capacity(n),
            active: vec![all_active; n],
            classes: Vec::new(),
            fast: false,
            pending: Vec::with_capacity(n),
            draws: Vec::with_capacity(n),
            redraw_zero: Vec::with_capacity(n),
            merge_buf: Vec::with_capacity(n),
        };
        for (station, v) in views.iter().enumerate() {
            if v.stages.is_empty() || v.stages.len() > 256 {
                return Err(CoreRejection::StageTableSize {
                    station,
                    stages: v.stages.len(),
                });
            }
            if let Some(s) = v.stages.iter().find(|s| s.cw == 0 || s.cw > 1 << 16) {
                return Err(CoreRejection::WindowUnrepresentable { station, cw: s.cw });
            }
            if let Some(s) = v.stages.iter().find(|s| dc16_of(s.dc).is_none()) {
                return Err(CoreRejection::DeferralUnrepresentable { station, dc: s.dc });
            }
            let st = v.state;
            if st.bc > u16::MAX as u32 {
                return Err(CoreRejection::CounterOutOfRange { station, bc: st.bc });
            }
            if st.stage as usize >= v.stages.len() {
                return Err(CoreRejection::StageOutOfRange {
                    station,
                    stage: st.stage,
                });
            }
            let dc16 = dc16_of(st.dc)
                .ok_or(CoreRejection::DeferralUnrepresentable { station, dc: st.dc })?;
            let class = match classes
                .iter()
                .position(|(p, cv, _)| *p == v.protocol && cv.stages == v.stages)
            {
                Some(c) => c,
                None => {
                    if classes.len() > u16::MAX as usize {
                        return Err(CoreRejection::TooManyClasses(classes.len()));
                    }
                    classes.push((
                        v.protocol,
                        v,
                        ClassTable {
                            proto: match v.protocol {
                                Protocol::Ieee1901 => PROTO_1901,
                                Protocol::Dcf80211 => PROTO_DCF,
                            },
                            cw: v.stages.iter().map(|s| s.cw).collect(),
                            dc16: v
                                .stages
                                .iter()
                                .map(|s| dc16_of(s.dc).expect("checked above"))
                                .collect(),
                            last: (v.stages.len() - 1) as u32,
                        },
                    ));
                    classes.len() - 1
                }
            };
            core.bcdc.push(pack(st.bc, dc16));
            core.bpc.push(st.bpc);
            core.stage.push(st.stage as u8);
            core.proto.push(classes[class].2.proto);
            core.class.push(class as u16);
        }
        core.fast = all_active && classes.len() == 1 && classes[0].2.proto == PROTO_1901;
        core.classes = classes.into_iter().map(|(_, _, t)| t).collect();
        Ok(core)
    }

    /// Current backoff counter of station `i`.
    #[inline]
    pub(crate) fn bc_of(&self, i: StationId) -> u32 {
        self.bcdc[i] & 0xFFFF
    }

    /// Mark station `i` backlogged or drained. Draining a station
    /// permanently demotes the core off the specialized all-backlogged
    /// sweep (the engine only calls this for non-saturated populations,
    /// which never qualify in the first place).
    #[inline]
    pub(crate) fn set_active(&mut self, i: StationId, active: bool) {
        self.active[i] = active;
        if !active {
            self.fast = false;
        }
    }

    /// Absorb `k` guaranteed-idle slots for station `i` (fast-forward).
    #[inline]
    pub(crate) fn consume_idle(&mut self, i: StationId, k: u32) {
        debug_assert!(k <= self.bc_of(i), "cannot skip past BC = 0");
        self.bcdc[i] -= k;
    }

    /// Collect the transmitter set: backlogged stations with `BC == 0`,
    /// in ascending station order (the engine's scan order).
    #[inline]
    pub(crate) fn contenders(&self, out: &mut Vec<StationId>) {
        for i in 0..self.n {
            if self.active[i] && self.bcdc[i] & 0xFFFF == 0 {
                out.push(i);
            }
        }
    }

    /// One idle slot: every backlogged station's BC decrements. With
    /// `TRACK`, rebuilds the contention cache in the same pass.
    #[inline]
    pub(crate) fn idle_sweep<const TRACK: bool>(
        &mut self,
        zero: &mut Vec<StationId>,
        min_bc: &mut u32,
    ) {
        for i in 0..self.n {
            if self.active[i] {
                debug_assert!(
                    self.bc_of(i) > 0,
                    "station with BC == 0 must transmit, not idle"
                );
                let word = self.bcdc[i] - 1;
                self.bcdc[i] = word;
                if TRACK {
                    let bc = word & 0xFFFF;
                    if bc == 0 {
                        zero.push(i);
                    } else {
                        *min_bc = (*min_bc).min(bc);
                    }
                }
            }
        }
    }

    /// A successful transmission by `w`: the winner restarts at stage 0,
    /// every other backlogged station senses the medium busy. With
    /// `TRACK`, rebuilds the contention cache in the same pass (fused —
    /// no separate fold sweep): stations whose BC is final fold inline,
    /// redrawn stations fold as their draw lands, and the two ascending
    /// zero sets merge at the end.
    #[inline]
    pub(crate) fn success_sweep<const TRACK: bool>(
        &mut self,
        w: StationId,
        rng: &mut SmallRng,
        zero: &mut Vec<StationId>,
        min_bc: &mut u32,
    ) {
        self.pending.clear();
        if self.fast {
            for i in 0..self.n {
                if i == w {
                    // Stage-0 re-entry: zero BPC, then the shared redraw.
                    self.bpc[i] = 0;
                    self.queue_redraw_1901(i);
                } else {
                    self.busy_1901::<TRACK>(i, zero, min_bc);
                }
            }
        } else {
            for i in 0..self.n {
                if i == w {
                    self.queue_restart(i);
                } else if self.active[i] {
                    self.busy_one::<TRACK>(i, zero, min_bc);
                }
            }
        }
        self.apply_draws::<TRACK>(rng, zero, min_bc);
    }

    /// A collision: each transmitter applies its [`SweepAction`]
    /// (parallel to `tx`, which must be ascending), every other
    /// backlogged station senses the medium busy. `TRACK` fuses the
    /// cache fold as in [`success_sweep`](Self::success_sweep).
    #[inline]
    pub(crate) fn collision_sweep<const TRACK: bool>(
        &mut self,
        tx: &[StationId],
        actions: &[SweepAction],
        rng: &mut SmallRng,
        zero: &mut Vec<StationId>,
        min_bc: &mut u32,
    ) {
        debug_assert_eq!(tx.len(), actions.len());
        self.pending.clear();
        let mut txi = 0usize;
        if self.fast {
            // Both 1901 sweep actions funnel into the BPC-driven redraw;
            // a Restart (retry-limit drop) zeroes BPC first.
            for i in 0..self.n {
                if txi < tx.len() && tx[txi] == i {
                    if actions[txi] == SweepAction::Restart {
                        self.bpc[i] = 0;
                    }
                    txi += 1;
                    self.queue_redraw_1901(i);
                } else {
                    self.busy_1901::<TRACK>(i, zero, min_bc);
                }
            }
        } else {
            for i in 0..self.n {
                if txi < tx.len() && tx[txi] == i {
                    match actions[txi] {
                        SweepAction::Restart => self.queue_restart(i),
                        SweepAction::Advance => self.queue_advance(i),
                    }
                    txi += 1;
                } else if self.active[i] {
                    self.busy_one::<TRACK>(i, zero, min_bc);
                }
            }
        }
        self.apply_draws::<TRACK>(rng, zero, min_bc);
    }

    /// Immediate stage-0 reset for one station (traffic arrival): draws
    /// right away, preserving the arrival loop's per-station draw order.
    /// Never folds — the engine rebuilds the cache after arrival resets.
    #[inline]
    pub(crate) fn reset_now(&mut self, i: StationId, rng: &mut SmallRng) {
        self.pending.clear();
        self.queue_restart(i);
        let (mut unused_zero, mut unused_min) = (Vec::new(), u32::MAX);
        self.apply_draws::<false>(rng, &mut unused_zero, &mut unused_min);
    }

    /// Synthesize the station's counter snapshot — field-for-field what
    /// the process object's `snapshot()` would report.
    pub(crate) fn snapshot(&self, i: StationId) -> BackoffSnapshot {
        let t = &self.classes[self.class[i] as usize];
        let stage = self.stage[i] as usize;
        let word = self.bcdc[i];
        let dc16 = word >> 16;
        BackoffSnapshot {
            stage,
            cw: t.cw[stage],
            bc: word & 0xFFFF,
            dc: (dc16 != DC16_DISABLED).then_some(dc16),
            bpc: if self.proto[i] == PROTO_1901 {
                self.bpc[i].saturating_sub(1)
            } else {
                self.bpc[i]
            },
        }
    }

    /// Specialized busy-slot update for the all-backlogged 1901
    /// population: one packed word in, one out (see the module docs).
    #[inline]
    fn busy_1901<const TRACK: bool>(
        &mut self,
        i: usize,
        zero: &mut Vec<StationId>,
        min_bc: &mut u32,
    ) {
        let word = self.bcdc[i];
        if word >= 0x10000 {
            // DC > 0: BC -= 1, DC -= 1 unless disabled.
            debug_assert!(word & 0xFFFF > 0, "station with BC == 0 must transmit");
            let word = word - 1 - ((((word >> 16) != DC16_DISABLED) as u32) << 16);
            self.bcdc[i] = word;
            if TRACK {
                let bc = word & 0xFFFF;
                if bc == 0 {
                    zero.push(i);
                } else {
                    *min_bc = (*min_bc).min(bc);
                }
            }
        } else {
            // Sensed busy while DC = 0: jump to the next backoff stage
            // without attempting a transmission.
            self.queue_redraw_1901(i);
        }
    }

    /// Busy-slot semantics for one non-transmitting backlogged station
    /// (generic path: mixed protocols or dynamic backlog). With `TRACK`,
    /// stations whose BC is final after this slot fold into the cache
    /// here; queued redraws fold in [`apply_draws`](Self::apply_draws)
    /// instead.
    #[inline]
    fn busy_one<const TRACK: bool>(
        &mut self,
        i: usize,
        zero: &mut Vec<StationId>,
        min_bc: &mut u32,
    ) {
        if self.proto[i] == PROTO_1901 {
            self.busy_1901::<TRACK>(i, zero, min_bc);
        } else if TRACK {
            // DCF freezes the backoff counter while the medium is busy; a
            // deferring station's BC is positive (else it would have
            // transmitted), so it folds into the minimum.
            *min_bc = (*min_bc).min(self.bcdc[i] & 0xFFFF);
        }
    }

    /// Queue a stage-0 re-entry (success / drop / head-of-line reset).
    #[inline]
    fn queue_restart(&mut self, i: usize) {
        self.bpc[i] = 0;
        if self.proto[i] == PROTO_1901 {
            self.queue_redraw_1901(i);
        } else {
            self.stage[i] = 0;
            self.pending
                .push((i as u32, self.classes[self.class[i] as usize].cw[0]));
        }
    }

    /// Queue a stage-advancing redraw (collision without a drop).
    #[inline]
    fn queue_advance(&mut self, i: usize) {
        if self.proto[i] == PROTO_1901 {
            // BPC already points past the stage that failed; the redraw
            // advances it.
            self.queue_redraw_1901(i);
        } else {
            let t = &self.classes[self.class[i] as usize];
            let next = (self.stage[i] as u32 + 1).min(t.last);
            self.bpc[i] = self.bpc[i].saturating_add(1);
            self.stage[i] = next as u8;
            self.pending.push((i as u32, t.cw[next as usize]));
        }
    }

    /// Queue the 1901 redraw: stage from the current BPC (saturated at
    /// the last), DC reloaded from the table, BPC saturating-incremented.
    /// For stage-0 re-entry (success, drop, reset) the caller zeroes BPC
    /// first.
    #[inline]
    fn queue_redraw_1901(&mut self, i: usize) {
        let t = &self.classes[self.class[i] as usize];
        let stage = self.bpc[i].min(t.last) as usize;
        self.stage[i] = stage as u8;
        // The fresh BC lands in `apply_draws`; only DC is final here.
        self.bcdc[i] = pack(self.bcdc[i] & 0xFFFF, t.dc16[stage]);
        self.bpc[i] = self.bpc[i].saturating_add(1);
        self.pending.push((i as u32, t.cw[stage]));
    }

    /// Batched RNG: pre-fill the draw buffer — one `next_u64` per queued
    /// redraw, in queue (= draw) order — then map each word exactly as
    /// the vendored `gen_range(0..cw)` does. See the module docs for why
    /// this is bit-identical to per-station `gen_range` calls.
    ///
    /// With `TRACK`, redrawn *backlogged* stations fold into the cache
    /// as their draw lands (a redrawn station may be drained — a winner
    /// whose queue emptied — and drained stations never fold). The
    /// pending queue is ascending, so the fresh zeros merge into the
    /// sweep's zeros with one ordered pass.
    #[inline]
    fn apply_draws<const TRACK: bool>(
        &mut self,
        rng: &mut SmallRng,
        zero: &mut Vec<StationId>,
        min_bc: &mut u32,
    ) {
        self.draws.clear();
        for _ in 0..self.pending.len() {
            self.draws.push(rng.next_u64());
        }
        if TRACK {
            self.redraw_zero.clear();
        }
        for (&(i, cw), &x) in self.pending.iter().zip(&self.draws) {
            let bc = (((x as u128) * (cw as u128)) >> 64) as u32;
            let i = i as usize;
            self.bcdc[i] = pack(bc, self.bcdc[i] >> 16);
            if TRACK && self.active[i] {
                if bc == 0 {
                    self.redraw_zero.push(i);
                } else {
                    *min_bc = (*min_bc).min(bc);
                }
            }
        }
        if TRACK {
            merge_zero(zero, &self.redraw_zero, &mut self.merge_buf);
        }
    }
}

/// Benchmark support: drives the contention core alone — no traffic,
/// metrics, bursting or trace plumbing — so the busy-slot sweep can be
/// microbenchmarked in isolation (`benches/busy_slot.rs` in
/// `crates/bench`). Hidden from docs; not a stable API.
#[doc(hidden)]
pub mod bench {
    use super::{ContentionCore, SweepAction};
    use plc_mac::process::BackoffProcess;
    use plc_mac::Backoff1901;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A saturated single-class IEEE 1901 population stepped through
    /// idle/success/collision sweeps only.
    pub struct BusySweepBench {
        core: ContentionCore,
        rng: SmallRng,
        tx: Vec<usize>,
        zero: Vec<usize>,
        actions: Vec<SweepAction>,
    }

    impl BusySweepBench {
        /// Build an `n`-station saturated CA0/CA1 population.
        pub fn new(n: usize, seed: u64) -> Self {
            let mut seed_rng = SmallRng::seed_from_u64(seed);
            let ps: Vec<Backoff1901> = (0..n)
                .map(|_| Backoff1901::default_ca1(&mut seed_rng))
                .collect();
            let views: Vec<_> = ps.iter().map(|p| p.soa_view()).collect();
            BusySweepBench {
                core: ContentionCore::try_from_views(&views, true).expect("representable"),
                rng: SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
                tx: Vec::with_capacity(n),
                zero: Vec::with_capacity(n),
                actions: Vec::with_capacity(n),
            }
        }

        /// Advance `slots` contention slots (idle, success or collision
        /// sweep each, with the fused cache fold), returning a checksum
        /// so the optimizer cannot elide the work. State carries across
        /// calls — repeated invocations measure the steady state.
        pub fn run(&mut self, slots: usize) -> u64 {
            let mut acc = 0u64;
            for _ in 0..slots {
                self.tx.clear();
                self.core.contenders(&mut self.tx);
                self.zero.clear();
                let mut min = u32::MAX;
                match self.tx.len() {
                    0 => self.core.idle_sweep::<true>(&mut self.zero, &mut min),
                    1 => self.core.success_sweep::<true>(
                        self.tx[0],
                        &mut self.rng,
                        &mut self.zero,
                        &mut min,
                    ),
                    _ => {
                        self.actions.clear();
                        self.actions.resize(self.tx.len(), SweepAction::Advance);
                        self.core.collision_sweep::<true>(
                            &self.tx,
                            &self.actions,
                            &mut self.rng,
                            &mut self.zero,
                            &mut min,
                        );
                    }
                }
                acc = acc
                    .wrapping_add(min as u64)
                    .wrapping_add(self.zero.len() as u64);
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plc_core::config::CsmaConfig;
    use plc_mac::process::BackoffProcess;
    use plc_mac::{AnyBackoff, Backoff1901, BackoffDcf};
    use rand::{Rng, SeedableRng};

    fn views_of<P: BackoffProcess>(ps: &[P]) -> Vec<SoaView> {
        ps.iter().map(|p| p.soa_view()).collect()
    }

    fn core_of<P: BackoffProcess>(ps: &[P], all_active: bool) -> ContentionCore {
        ContentionCore::try_from_views(&views_of(ps), all_active).unwrap()
    }

    /// The fused fold must equal a from-scratch scan of the core.
    fn assert_cache(core: &ContentionCore, zero: &[usize], min: u32, slot: usize) {
        let want_zero: Vec<usize> = (0..core.n)
            .filter(|&i| core.active[i] && core.bc_of(i) == 0)
            .collect();
        let want_min = (0..core.n)
            .filter(|&i| core.active[i] && core.bc_of(i) > 0)
            .map(|i| core.bc_of(i))
            .min()
            .unwrap_or(u32::MAX);
        assert_eq!(zero, want_zero, "slot {slot} fused zero set");
        assert_eq!(min, want_min, "slot {slot} fused min BC");
    }

    /// How [`mirror`] drives the population beyond plain slots.
    #[derive(Clone, Copy, Default)]
    struct Drive {
        /// Per-slot probability that a drained station gets a frame
        /// (`reset_now`), and that a station drains after its
        /// transmission (`set_active(false)`). 0 keeps every station
        /// backlogged.
        churn: f64,
        /// Per-slot probability of absorbing a run of idle slots in one
        /// `consume_idle` jump instead of stepping one slot.
        skip: f64,
    }

    /// Drive the same slot sequence through process objects and through
    /// the core with cloned RNGs, emulating the engine's loop exactly as
    /// the process-object engine ran it: arrivals reset newly backlogged
    /// stations, idle runs are absorbed in one jump, then the slot is
    /// idle / success / collision, and only backlogged stations take
    /// idle or busy transitions. Every counter snapshot, the contender
    /// set, the fused contention cache and the RNG states must agree at
    /// every slot. A separate schedule RNG makes the arrival, drain, skip
    /// and drop decisions, so both sides see the same schedule.
    fn mirror<P: BackoffProcess>(
        ps: &mut [P],
        all_active: bool,
        drive: Drive,
        slots: usize,
        seed: u64,
    ) {
        let mut core = core_of(ps, all_active);
        let n = ps.len();
        let mut active = vec![true; n];
        let mut sched = SmallRng::seed_from_u64(seed ^ 0xD1CE);
        let mut rng_a = SmallRng::seed_from_u64(seed);
        let mut rng_b = rng_a.clone();
        let (mut arrivals, mut drains, mut skips) = (0, 0, 0);
        for slot in 0..slots {
            // Arrivals: a drained station that gets a frame restarts at
            // stage 0 with an immediate draw.
            for i in 0..n {
                if !active[i] && sched.gen_bool(drive.churn) {
                    active[i] = true;
                    ps[i].reset(&mut rng_a);
                    core.reset_now(i, &mut rng_b);
                    arrivals += 1;
                }
            }
            if !all_active {
                for (i, &a) in active.iter().enumerate() {
                    core.set_active(i, a);
                }
            }
            let want_tx: Vec<usize> = (0..n).filter(|&i| active[i] && ps[i].wants_tx()).collect();
            // Fast-forward: with no transmitter, absorb up to min(BC)
            // idle slots at once.
            let min_bc = (0..n)
                .filter(|&i| active[i])
                .map(|i| ps[i].idle_skip().expect("both protocols skip"))
                .min();
            if let Some(k) = min_bc.filter(|&k| k > 0 && sched.gen_bool(drive.skip)) {
                let k = sched.gen_range(1..=k);
                for i in (0..n).filter(|&i| active[i]) {
                    ps[i].consume_idle_slots(k);
                    core.consume_idle(i, k);
                }
                skips += 1;
            } else {
                let mut tx = Vec::new();
                core.contenders(&mut tx);
                assert_eq!(tx, want_tx, "slot {slot} contender set");
                let (mut zero, mut min) = (Vec::new(), u32::MAX);
                match tx.len() {
                    0 => {
                        for i in (0..n).filter(|&i| active[i]) {
                            ps[i].on_idle_slot(&mut rng_a);
                        }
                        core.idle_sweep::<true>(&mut zero, &mut min);
                    }
                    1 => {
                        let w = tx[0];
                        for i in (0..n).filter(|&i| active[i]) {
                            if i == w {
                                ps[i].on_tx_success(&mut rng_a);
                            } else {
                                ps[i].on_busy(&mut rng_a);
                            }
                        }
                        if sched.gen_bool(drive.churn) {
                            active[w] = false;
                            core.set_active(w, false);
                            drains += 1;
                        }
                        core.success_sweep::<true>(w, &mut rng_b, &mut zero, &mut min);
                    }
                    _ => {
                        // Draw drop/advance per transmitter to cover both
                        // actions.
                        let actions: Vec<SweepAction> = tx
                            .iter()
                            .map(|_| {
                                if sched.gen_bool(1.0 / 3.0) {
                                    SweepAction::Restart
                                } else {
                                    SweepAction::Advance
                                }
                            })
                            .collect();
                        let mut txi = 0usize;
                        for i in (0..n).filter(|&i| active[i]) {
                            if txi < tx.len() && tx[txi] == i {
                                match actions[txi] {
                                    SweepAction::Restart => ps[i].reset(&mut rng_a),
                                    SweepAction::Advance => ps[i].on_tx_failure(&mut rng_a),
                                }
                                txi += 1;
                            } else {
                                ps[i].on_busy(&mut rng_a);
                            }
                        }
                        for (&i, &action) in tx.iter().zip(&actions) {
                            // A drop can empty the queue.
                            if action == SweepAction::Restart && sched.gen_bool(drive.churn) {
                                active[i] = false;
                                core.set_active(i, false);
                                drains += 1;
                            }
                        }
                        core.collision_sweep::<true>(
                            &tx, &actions, &mut rng_b, &mut zero, &mut min,
                        );
                    }
                }
                assert_cache(&core, &zero, min, slot);
            }
            for (i, p) in ps.iter().enumerate() {
                assert_eq!(p.snapshot(), core.snapshot(i), "slot {slot} station {i}");
                assert_eq!(p.wants_tx(), core.bc_of(i) == 0, "slot {slot} station {i}");
            }
            assert_eq!(rng_a, rng_b, "RNG streams diverged at slot {slot}");
        }
        // The schedule must actually exercise what it was asked to.
        if drive.churn > 0.0 {
            assert!(
                arrivals > 0 && drains > 0,
                "{arrivals} arrivals, {drains} drains"
            );
        }
        if drive.skip > 0.0 {
            assert!(skips > 0, "no idle run was absorbed");
        }
    }

    fn ca1(n: usize, seed: u64) -> Vec<Backoff1901> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| Backoff1901::default_ca1(&mut rng)).collect()
    }

    /// Four parameter classes over both protocols: 1901 CA1 and CA2/CA3
    /// tables, classic DCF and a short custom DCF table, interleaved.
    fn mixed(n: usize, seed: u64) -> Vec<AnyBackoff> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let dcf_short = CsmaConfig::dcf_like(4, 3).unwrap();
        (0..n)
            .map(|i| match i % 4 {
                0 => Backoff1901::new(CsmaConfig::ieee1901_ca01(), &mut rng).into(),
                1 => BackoffDcf::classic(&mut rng).into(),
                2 => Backoff1901::new(CsmaConfig::ieee1901_ca23(), &mut rng).into(),
                _ => BackoffDcf::new(dcf_short.clone(), &mut rng).into(),
            })
            .collect()
    }

    #[test]
    fn mirrors_object_transitions_1901() {
        let mut ps = ca1(4, 7);
        assert!(core_of(&ps, true).fast);
        mirror(&mut ps, true, Drive::default(), 500, 99);
    }

    #[test]
    fn mirrors_object_transitions_1901_generic_path() {
        // Same transitions with the specialized sweep demoted: the
        // generic (per-station checks) path must agree station for
        // station with the fast path and the objects.
        let mut ps = ca1(4, 7);
        let mut core = core_of(&ps, true);
        assert!(core.fast);
        core.fast = false;
        let mut rng_a = SmallRng::seed_from_u64(99);
        let mut rng_b = rng_a.clone();
        for slot in 0..500 {
            let tx: Vec<usize> = ps
                .iter()
                .enumerate()
                .filter(|(_, p)| p.wants_tx())
                .map(|(i, _)| i)
                .collect();
            let (mut zero, mut min) = (Vec::new(), u32::MAX);
            match tx.len() {
                0 => {
                    for p in ps.iter_mut() {
                        p.on_idle_slot(&mut rng_a);
                    }
                    core.idle_sweep::<true>(&mut zero, &mut min);
                }
                1 => {
                    for (i, p) in ps.iter_mut().enumerate() {
                        if i == tx[0] {
                            p.on_tx_success(&mut rng_a);
                        } else {
                            p.on_busy(&mut rng_a);
                        }
                    }
                    core.success_sweep::<true>(tx[0], &mut rng_b, &mut zero, &mut min);
                }
                _ => {
                    let actions = vec![SweepAction::Advance; tx.len()];
                    let mut txi = 0usize;
                    for (i, p) in ps.iter_mut().enumerate() {
                        if txi < tx.len() && tx[txi] == i {
                            p.on_tx_failure(&mut rng_a);
                            txi += 1;
                        } else {
                            p.on_busy(&mut rng_a);
                        }
                    }
                    core.collision_sweep::<true>(&tx, &actions, &mut rng_b, &mut zero, &mut min);
                }
            }
            for (i, p) in ps.iter().enumerate() {
                assert_eq!(p.snapshot(), core.snapshot(i), "slot {slot} station {i}");
            }
            assert_eq!(rng_a, rng_b, "RNG streams diverged at slot {slot}");
        }
    }

    #[test]
    fn mirrors_object_transitions_dcf() {
        let mut seed_rng = SmallRng::seed_from_u64(3);
        let mut ps: Vec<BackoffDcf> = (0..3).map(|_| BackoffDcf::classic(&mut seed_rng)).collect();
        mirror(&mut ps, true, Drive::default(), 400, 5);
    }

    #[test]
    fn mirrors_lazy_core_with_every_station_backlogged() {
        // `all_active = false` (an unsaturated population that happens to
        // stay backlogged) never takes the specialized sweep.
        let mut ps = ca1(5, 11);
        assert!(!core_of(&ps, false).fast);
        mirror(&mut ps, false, Drive::default(), 600, 12);
    }

    #[test]
    fn mirrors_idle_run_skips() {
        let drive = Drive {
            skip: 0.5,
            ..Drive::default()
        };
        mirror(&mut ca1(4, 21), true, drive, 600, 22);
        mirror(&mut mixed(8, 23), true, drive, 600, 24);
    }

    #[test]
    fn mirrors_arrivals_and_drains() {
        // Stations leave the backlog after transmitting (inactive ones
        // must keep their counters frozen through idle and busy sweeps)
        // and re-enter through `reset_now`.
        let drive = Drive {
            churn: 0.2,
            skip: 0.0,
        };
        mirror(&mut ca1(6, 31), false, drive, 800, 32);
        mirror(&mut mixed(8, 33), false, drive, 800, 34);
    }

    #[test]
    fn mirrors_mixed_population_with_everything() {
        let mut ps = mixed(12, 41);
        assert_eq!(core_of(&ps, false).classes.len(), 4);
        let drive = Drive {
            churn: 0.1,
            skip: 0.3,
        };
        mirror(&mut ps, false, drive, 1500, 42);
        mirror(&mut mixed(12, 43), true, Drive::default(), 800, 44);
    }

    #[test]
    fn rejects_unrepresentable_views() {
        use plc_mac::process::{SoaStage, SoaState};
        let view = |cw: u32, dc: u32, nstages: usize| SoaView {
            protocol: Protocol::Ieee1901,
            stages: vec![SoaStage { cw, dc }; nstages],
            state: SoaState {
                bc: 0,
                dc: 0,
                bpc: 1,
                stage: 0,
            },
        };
        let build = |v: &[SoaView]| ContentionCore::try_from_views(v, true);
        assert_eq!(build(&[]).err(), Some(CoreRejection::Empty));
        assert!(matches!(
            build(&[view(1 << 17, 0, 4)]),
            Err(CoreRejection::WindowUnrepresentable { .. })
        ));
        assert!(matches!(
            build(&[view(0, 0, 4)]),
            Err(CoreRejection::WindowUnrepresentable { .. })
        ));
        assert!(matches!(
            build(&[view(8, 0, 257)]),
            Err(CoreRejection::StageTableSize { stages: 257, .. })
        ));
        // A DC too large to pack (yet not disabled) is rejected; the
        // disabled sentinel itself is representable.
        assert!(matches!(
            build(&[view(8, 0xFFFF, 4)]),
            Err(CoreRejection::DeferralUnrepresentable { dc: 0xFFFF, .. })
        ));
        assert!(build(&[view(8, DC_DISABLED, 4)]).is_ok());
        assert!(build(&[view(8, 0, 4)]).is_ok());
    }

    #[test]
    fn dedups_classes_and_detects_fast_population() {
        let ps = ca1(10, 1);
        let core = core_of(&ps, true);
        assert_eq!(core.classes.len(), 1);
        assert!(core.fast, "saturated single-class 1901 qualifies");
        assert!(!core_of(&ps, false).fast, "dynamic backlog never qualifies");
        assert!(
            !core_of(&mixed(4, 1), true).fast,
            "mixed classes never qualify"
        );
    }
}
