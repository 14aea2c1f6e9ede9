//! The IEEE 1901 backoff process — the paper's central mechanism.
//!
//! 1901 keeps the minimum contention window small (CW₀ = 8, against 802.11's
//! 16 or 32) to avoid wasting backoff slots, and compensates for the
//! resulting collision pressure with the **deferral counter**: a station
//! that merely *senses* `d_i + 1` transmissions while waiting at stage *i*
//! concludes the channel is crowded and moves to the next stage without
//! paying for a collision first.
//!
//! The implementation mirrors the finite state machine of the paper's
//! reference simulator exactly, including its less obvious corners:
//!
//! * BC is decremented on busy slots as well as idle slots (§2: "In case
//!   the medium is sensed busy, BC is also decreased by 1 once the medium
//!   is sensed idle again");
//! * the deferral jump happens when the medium is sensed busy *while*
//!   `DC == 0` — i.e. the check precedes the decrement;
//! * the stage index saturates at the last table entry;
//! * BPC counts stage entries since the last success, so the stage in
//!   effect after `k` redraws without success is `min(k − 1, m − 1)`.

use crate::process::{BackoffProcess, BackoffSnapshot, Protocol, SoaStage, SoaState, SoaView};
use plc_core::config::{CsmaConfig, DC_DISABLED};
use rand::Rng;
use rand::RngCore;

/// IEEE 1901 backoff state machine. See the [module docs](self) for
/// semantics. Construct with [`Backoff1901::new`]; drive with the
/// [`BackoffProcess`] events.
///
/// # Examples
///
/// ```
/// use plc_mac::{Backoff1901, BackoffProcess};
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mut rng = SmallRng::seed_from_u64(7);
/// let mut station = Backoff1901::default_ca1(&mut rng);
/// assert_eq!(station.stage(), 0);
/// assert_eq!(station.cw(), 8);
///
/// // Sensing the medium busy at stage 0 (d₀ = 0) jumps straight to
/// // stage 1 without transmitting — the paper's key mechanism.
/// if !station.wants_tx() {
///     station.on_busy(&mut rng);
///     assert_eq!(station.stage(), 1);
///     assert_eq!(station.cw(), 16);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Backoff1901 {
    cfg: CsmaConfig,
    /// Backoff procedure counter: redraws since last success. The stage in
    /// effect is `min(bpc - 1, m - 1)` (bpc ≥ 1 after construction).
    bpc: u32,
    /// Backoff counter.
    bc: u32,
    /// Deferral counter (may be [`DC_DISABLED`]).
    dc: u32,
    /// Contention window in effect.
    cw: u32,
}

impl Backoff1901 {
    /// Create a station entering backoff stage 0 with a fresh packet,
    /// drawing the initial BC from `{0, …, CW₀ − 1}`.
    pub fn new(cfg: CsmaConfig, rng: &mut dyn RngCore) -> Self {
        let mut s = Backoff1901 {
            cfg,
            bpc: 0,
            bc: 0,
            dc: 0,
            cw: 0,
        };
        s.redraw(rng);
        s
    }

    /// Convenience constructor with the paper's default CA1 table.
    pub fn default_ca1(rng: &mut dyn RngCore) -> Self {
        Self::new(CsmaConfig::ieee1901_ca01(), rng)
    }

    /// Enter the backoff stage selected by the current BPC: load `CW_i` and
    /// `d_i`, draw `BC ~ U{0…CW_i−1}`, then increment BPC.
    fn redraw(&mut self, rng: &mut dyn RngCore) {
        let stage = self.cfg.stage_for_bpc(self.bpc);
        let params = self.cfg.stage(stage);
        self.cw = params.cw;
        self.dc = params.dc;
        self.bc = rng.gen_range(0..self.cw);
        self.bpc = self.bpc.saturating_add(1);
    }

    /// The backoff stage currently in effect.
    pub fn stage(&self) -> usize {
        // bpc ≥ 1 after construction; the parameters in effect were chosen
        // with the *previous* bpc value.
        self.cfg.stage_for_bpc(self.bpc.saturating_sub(1))
    }

    /// Current backoff counter.
    pub fn bc(&self) -> u32 {
        self.bc
    }

    /// Current deferral counter (`None` if disabled at this stage).
    pub fn dc(&self) -> Option<u32> {
        (self.dc != DC_DISABLED).then_some(self.dc)
    }

    /// Contention window in effect.
    pub fn cw(&self) -> u32 {
        self.cw
    }

    /// The configuration this process runs.
    pub fn config(&self) -> &CsmaConfig {
        &self.cfg
    }
}

impl BackoffProcess for Backoff1901 {
    fn wants_tx(&self) -> bool {
        self.bc == 0
    }

    fn on_idle_slot(&mut self, _rng: &mut dyn RngCore) {
        debug_assert!(self.bc > 0, "station with BC == 0 must transmit, not idle");
        self.bc -= 1;
    }

    fn on_busy(&mut self, rng: &mut dyn RngCore) {
        debug_assert!(
            self.bc > 0,
            "station with BC == 0 transmitted; on_busy is for deferring stations"
        );
        if self.dc == 0 {
            // Sensed busy while DC = 0: jump to the next backoff stage
            // without attempting a transmission.
            self.redraw(rng);
        } else {
            // Busy slot: both counters decrease (DC only if enabled).
            self.bc -= 1;
            if self.dc != DC_DISABLED {
                self.dc -= 1;
            }
        }
    }

    fn on_tx_success(&mut self, rng: &mut dyn RngCore) {
        self.bpc = 0;
        self.redraw(rng);
    }

    fn on_tx_failure(&mut self, rng: &mut dyn RngCore) {
        // BPC already points past the stage that failed; redraw advances it.
        self.redraw(rng);
    }

    fn idle_skip(&self) -> Option<u32> {
        // DC only moves on busy slots, so BC idle slots are pure countdown.
        Some(self.bc)
    }

    fn consume_idle_slots(&mut self, n: u32) {
        debug_assert!(n <= self.bc, "cannot skip past BC = 0");
        self.bc -= n;
    }

    fn soa_view(&self) -> SoaView {
        SoaView {
            protocol: Protocol::Ieee1901,
            stages: self
                .cfg
                .stages()
                .iter()
                .map(|p| SoaStage { cw: p.cw, dc: p.dc })
                .collect(),
            state: SoaState {
                bc: self.bc,
                dc: self.dc,
                bpc: self.bpc,
                stage: self.stage() as u32,
            },
        }
    }

    fn protocol(&self) -> Protocol {
        Protocol::Ieee1901
    }

    fn snapshot(&self) -> BackoffSnapshot {
        BackoffSnapshot {
            stage: self.stage(),
            cw: self.cw,
            bc: self.bc,
            dc: self.dc(),
            bpc: self.bpc.saturating_sub(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    fn fresh(seed: u64) -> (Backoff1901, SmallRng) {
        let mut r = rng(seed);
        let b = Backoff1901::default_ca1(&mut r);
        (b, r)
    }

    #[test]
    fn starts_at_stage_zero_with_table_params() {
        let (b, _) = fresh(1);
        assert_eq!(b.stage(), 0);
        assert_eq!(b.cw(), 8);
        assert_eq!(b.dc(), Some(0));
        assert!(b.bc() < 8);
        let s = b.snapshot();
        assert_eq!(s.stage, 0);
        assert_eq!(s.cw, 8);
        assert_eq!(s.bpc, 0);
    }

    #[test]
    fn initial_bc_spans_full_window() {
        // Over many seeds the initial BC must hit every value of {0..7}.
        let mut seen = [false; 8];
        for seed in 0..256 {
            let (b, _) = fresh(seed);
            seen[b.bc() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "initial BC values seen: {seen:?}");
    }

    #[test]
    fn idle_slots_count_down_bc() {
        for seed in 0..64 {
            let (mut b, mut r) = fresh(seed);
            let start = b.bc();
            for expected in (0..start).rev() {
                assert!(!b.wants_tx());
                b.on_idle_slot(&mut r);
                assert_eq!(b.bc(), expected);
            }
            assert!(b.wants_tx());
        }
    }

    #[test]
    fn stage0_busy_always_jumps() {
        // d_0 = 0, so at stage 0 any sensed busy slot jumps to stage 1.
        for seed in 0..64 {
            let (mut b, mut r) = fresh(seed);
            if b.wants_tx() {
                continue; // drew BC = 0; it would transmit, not defer
            }
            b.on_busy(&mut r);
            assert_eq!(b.stage(), 1, "seed {seed}");
            assert_eq!(b.cw(), 16);
            assert_eq!(b.dc(), Some(1));
            assert_eq!(b.snapshot().bpc, 1);
        }
    }

    #[test]
    fn busy_decrements_both_counters_when_dc_positive() {
        // Get to stage 1 (dc = 1), then sense one busy slot: bc and dc both
        // drop; a second busy slot (dc now 0) jumps to stage 2.
        let mut r = rng(7);
        let mut b = Backoff1901::default_ca1(&mut r);
        // Force to stage 1 via a failure.
        b.on_tx_failure(&mut r);
        assert_eq!(b.stage(), 1);
        assert_eq!(b.dc(), Some(1));
        // Find a state with bc >= 2 so we can observe two busy slots.
        while b.bc() < 2 {
            b.on_tx_failure(&mut r);
            if b.stage() == 1 {
                continue;
            }
            // went past stage 1; restart
            b = Backoff1901::default_ca1(&mut r);
            b.on_tx_failure(&mut r);
        }
        let bc0 = b.bc();
        b.on_busy(&mut r);
        assert_eq!(b.bc(), bc0 - 1, "busy slot decrements BC");
        assert_eq!(b.dc(), Some(0), "busy slot decrements DC");
        assert_eq!(b.stage(), 1, "no jump while DC was positive");
        b.on_busy(&mut r);
        assert_eq!(b.stage(), 2, "busy with DC=0 jumps without transmitting");
        assert_eq!(b.cw(), 32);
        assert_eq!(b.dc(), Some(3));
    }

    #[test]
    fn failure_walks_stages_and_saturates() {
        let mut r = rng(3);
        let mut b = Backoff1901::default_ca1(&mut r);
        let expected = [(1usize, 16u32), (2, 32), (3, 64), (3, 64), (3, 64)];
        for &(stage, cw) in &expected {
            b.on_tx_failure(&mut r);
            assert_eq!(b.stage(), stage);
            assert_eq!(b.cw(), cw);
            assert!(b.bc() < cw);
        }
    }

    #[test]
    fn success_resets_to_stage_zero() {
        let mut r = rng(4);
        let mut b = Backoff1901::default_ca1(&mut r);
        for _ in 0..5 {
            b.on_tx_failure(&mut r);
        }
        assert_eq!(b.stage(), 3);
        b.on_tx_success(&mut r);
        assert_eq!(b.stage(), 0);
        assert_eq!(b.cw(), 8);
        assert_eq!(b.dc(), Some(0));
        assert_eq!(b.snapshot().bpc, 0);
    }

    #[test]
    fn ca23_table_saturates_at_cw32() {
        let mut r = rng(5);
        let mut b = Backoff1901::new(CsmaConfig::ieee1901_ca23(), &mut r);
        for _ in 0..6 {
            b.on_tx_failure(&mut r);
        }
        assert_eq!(b.cw(), 32);
        assert_eq!(b.stage(), 3);
    }

    #[test]
    fn disabled_dc_never_jumps() {
        // 1901 process with DC disabled: busy slots decrement BC only, and
        // the stage never advances without a transmission failure.
        let cfg = CsmaConfig::constant_window(16).unwrap();
        let mut r = rng(6);
        let mut b = Backoff1901::new(cfg, &mut r);
        while b.bc() == 0 {
            b = Backoff1901::new(CsmaConfig::constant_window(16).unwrap(), &mut r);
        }
        let start_stage = b.stage();
        let bc0 = b.bc();
        b.on_busy(&mut r);
        assert_eq!(b.stage(), start_stage);
        assert_eq!(b.bc(), bc0 - 1);
        assert_eq!(b.dc(), None);
        assert_eq!(b.snapshot().dc, None);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut r = rng(seed);
            let mut b = Backoff1901::default_ca1(&mut r);
            let mut trail = Vec::new();
            for i in 0..200 {
                if b.wants_tx() {
                    if i % 3 == 0 {
                        b.on_tx_success(&mut r);
                    } else {
                        b.on_tx_failure(&mut r);
                    }
                } else if i % 2 == 0 {
                    b.on_idle_slot(&mut r);
                } else {
                    b.on_busy(&mut r);
                }
                trail.push(b.snapshot());
            }
            trail
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn protocol_tag() {
        let (b, _) = fresh(1);
        assert_eq!(b.protocol(), Protocol::Ieee1901);
    }

    #[test]
    fn bc_never_underflows_under_random_driving() {
        // Drive with random legal event sequences; counters must stay
        // consistent (BC only 0 at transmission points).
        let mut r = rng(99);
        let mut b = Backoff1901::default_ca1(&mut r);
        for step in 0..10_000 {
            if b.wants_tx() {
                if step % 5 == 0 {
                    b.on_tx_success(&mut r);
                } else {
                    b.on_tx_failure(&mut r);
                }
            } else if step % 3 == 0 {
                b.on_busy(&mut r);
            } else {
                b.on_idle_slot(&mut r);
            }
            assert!(b.bc() < b.cw().max(1));
            assert!(b.stage() <= 3);
        }
    }
}
