//! The 802.11 DCF baseline backoff process.
//!
//! The paper contrasts 1901 against 802.11-style CSMA/CA throughout: in
//! 802.11, stations **freeze** the backoff counter while the medium is busy
//! (no deferral counter exists), and the contention window doubles only
//! after a *failed transmission attempt* — `CW_i = 2^i · CW_0`.
//!
//! This implementation is driven by the same slot events as
//! [`Backoff1901`](crate::Backoff1901), so the two protocols can contend in
//! the same simulated channel for head-to-head comparisons (extension
//! experiment E1) and for the short-term fairness study of the paper's
//! prior work \[4\].

use crate::process::{BackoffProcess, BackoffSnapshot, Protocol, SoaStage, SoaState, SoaView};
use plc_core::config::{CsmaConfig, DC_DISABLED};
use rand::Rng;
use rand::RngCore;

/// 802.11 DCF backoff state machine: binary-exponential contention window,
/// freeze-on-busy, no deferral counter.
#[derive(Debug, Clone)]
pub struct BackoffDcf {
    cfg: CsmaConfig,
    /// Current backoff stage (saturates at the last table entry).
    stage: usize,
    /// Retries since last success (equals the number of failed attempts;
    /// unlike 1901's BPC it can only advance through failures).
    retries: u32,
    /// Backoff counter.
    bc: u32,
    /// Contention window in effect.
    cw: u32,
}

impl BackoffDcf {
    /// Create a station entering stage 0, drawing `BC ~ U{0…CW₀−1}`.
    ///
    /// Any [`CsmaConfig`] works; the deferral-counter column is ignored.
    /// Use [`CsmaConfig::dcf_like`] for the classic doubling table.
    pub fn new(cfg: CsmaConfig, rng: &mut dyn RngCore) -> Self {
        let mut s = BackoffDcf {
            cfg,
            stage: 0,
            retries: 0,
            bc: 0,
            cw: 0,
        };
        s.enter_stage(0, rng);
        s
    }

    /// Classic DCF with `CW_min = 16` doubling over 6 stages
    /// (16 … 512).
    pub fn classic(rng: &mut dyn RngCore) -> Self {
        Self::new(CsmaConfig::dcf_like(16, 6).expect("valid table"), rng)
    }

    /// DCF with the same `CW_min = 8` as 1901 and doubling up to 64 — the
    /// "802.11 with 1901's windows" comparison point that isolates the
    /// deferral counter's effect.
    pub fn with_1901_windows(rng: &mut dyn RngCore) -> Self {
        Self::new(CsmaConfig::dcf_like(8, 4).expect("valid table"), rng)
    }

    fn enter_stage(&mut self, stage: usize, rng: &mut dyn RngCore) {
        self.stage = stage.min(self.cfg.num_stages() - 1);
        self.cw = self.cfg.stage(self.stage).cw;
        self.bc = rng.gen_range(0..self.cw);
    }

    /// Current backoff stage.
    pub fn stage(&self) -> usize {
        self.stage
    }

    /// Current backoff counter.
    pub fn bc(&self) -> u32 {
        self.bc
    }

    /// Contention window in effect.
    pub fn cw(&self) -> u32 {
        self.cw
    }
}

impl BackoffProcess for BackoffDcf {
    fn wants_tx(&self) -> bool {
        self.bc == 0
    }

    fn on_idle_slot(&mut self, _rng: &mut dyn RngCore) {
        debug_assert!(self.bc > 0, "station with BC == 0 must transmit, not idle");
        self.bc -= 1;
    }

    fn on_busy(&mut self, _rng: &mut dyn RngCore) {
        // 802.11 freezes the backoff counter while the medium is busy.
    }

    fn on_tx_success(&mut self, rng: &mut dyn RngCore) {
        self.retries = 0;
        self.enter_stage(0, rng);
    }

    fn on_tx_failure(&mut self, rng: &mut dyn RngCore) {
        self.retries = self.retries.saturating_add(1);
        self.enter_stage(self.stage + 1, rng);
    }

    fn idle_skip(&self) -> Option<u32> {
        Some(self.bc)
    }

    fn consume_idle_slots(&mut self, n: u32) {
        debug_assert!(n <= self.bc, "cannot skip past BC = 0");
        self.bc -= n;
    }

    fn soa_view(&self) -> SoaView {
        SoaView {
            protocol: Protocol::Dcf80211,
            stages: self
                .cfg
                .stages()
                .iter()
                .map(|p| SoaStage {
                    cw: p.cw,
                    dc: DC_DISABLED,
                })
                .collect(),
            state: SoaState {
                bc: self.bc,
                dc: DC_DISABLED,
                bpc: self.retries,
                stage: self.stage as u32,
            },
        }
    }

    fn protocol(&self) -> Protocol {
        Protocol::Dcf80211
    }

    fn snapshot(&self) -> BackoffSnapshot {
        BackoffSnapshot {
            stage: self.stage,
            cw: self.cw,
            bc: self.bc,
            dc: None,
            bpc: self.retries,
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

    #[test]
    fn classic_starts_at_16() {
        let mut r = rng(1);
        let b = BackoffDcf::classic(&mut r);
        assert_eq!(b.stage(), 0);
        assert_eq!(b.cw(), 16);
        assert!(b.bc() < 16);
        assert_eq!(b.protocol(), Protocol::Dcf80211);
    }

    #[test]
    fn busy_freezes_bc() {
        let mut r = rng(2);
        let mut b = BackoffDcf::classic(&mut r);
        while b.bc() == 0 {
            b = BackoffDcf::classic(&mut r);
        }
        let bc0 = b.bc();
        for _ in 0..100 {
            b.on_busy(&mut r);
        }
        assert_eq!(b.bc(), bc0, "802.11 backoff must freeze while busy");
        assert_eq!(b.stage(), 0, "busy slots never advance the DCF stage");
    }

    #[test]
    fn idle_slots_count_down() {
        let mut r = rng(3);
        let mut b = BackoffDcf::classic(&mut r);
        while b.bc() == 0 {
            b = BackoffDcf::classic(&mut r);
        }
        let start = b.bc();
        for expected in (0..start).rev() {
            b.on_idle_slot(&mut r);
            assert_eq!(b.bc(), expected);
        }
        assert!(b.wants_tx());
    }

    #[test]
    fn failures_double_window_and_saturate() {
        let mut r = rng(4);
        let mut b = BackoffDcf::classic(&mut r);
        let expected = [32u32, 64, 128, 256, 512, 512, 512];
        for (k, &cw) in expected.iter().enumerate() {
            b.on_tx_failure(&mut r);
            assert_eq!(b.cw(), cw, "after {} failures", k + 1);
            assert!(b.bc() < cw);
        }
        assert_eq!(b.snapshot().bpc, 7);
    }

    #[test]
    fn success_resets() {
        let mut r = rng(5);
        let mut b = BackoffDcf::classic(&mut r);
        b.on_tx_failure(&mut r);
        b.on_tx_failure(&mut r);
        b.on_tx_success(&mut r);
        assert_eq!(b.stage(), 0);
        assert_eq!(b.cw(), 16);
        assert_eq!(b.snapshot().bpc, 0);
    }

    #[test]
    fn snapshot_has_no_dc() {
        let mut r = rng(6);
        let b = BackoffDcf::classic(&mut r);
        assert_eq!(b.snapshot().dc, None);
    }

    #[test]
    fn matched_windows_variant() {
        let mut r = rng(7);
        let b = BackoffDcf::with_1901_windows(&mut r);
        assert_eq!(b.cw(), 8);
        let mut b2 = b.clone();
        b2.on_tx_failure(&mut r);
        assert_eq!(b2.cw(), 16);
        b2.on_tx_failure(&mut r);
        b2.on_tx_failure(&mut r);
        b2.on_tx_failure(&mut r);
        assert_eq!(b2.cw(), 64, "saturates at 64 like the 1901 CA1 table");
    }

    #[test]
    fn initial_bc_spans_window() {
        let mut seen = [false; 16];
        for seed in 0..512 {
            let mut r = rng(seed);
            let b = BackoffDcf::classic(&mut r);
            seen[b.bc() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
