//! The [`BackoffProcess`] trait: the slot-event interface between a
//! contention state machine and a simulation engine.
//!
//! The engines in `plc-sim` are generic over this trait, which is what lets
//! a single engine run IEEE 1901, 802.11 DCF, and the ablation variants
//! (1901 without deferral counter, constant-window) under identical channel
//! dynamics — the comparison the paper's evaluation rests on.

use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Which protocol family a process implements; used for labelling traces
/// and experiment output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// IEEE 1901 (HomePlug AV) CSMA/CA with deferral counter.
    Ieee1901,
    /// IEEE 802.11 DCF-style CSMA/CA (freeze on busy, no deferral counter).
    Dcf80211,
}

impl core::fmt::Display for Protocol {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Protocol::Ieee1901 => write!(f, "IEEE 1901"),
            Protocol::Dcf80211 => write!(f, "802.11 DCF"),
        }
    }
}

/// A point-in-time snapshot of a backoff process's counters, used by the
/// trace machinery to reproduce Figure 1 of the paper (the two-station
/// CW/DC/BC time evolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackoffSnapshot {
    /// Backoff stage currently in effect (0-based, saturated at the last).
    pub stage: usize,
    /// Contention window in effect (`CW_i`).
    pub cw: u32,
    /// Current backoff counter value.
    pub bc: u32,
    /// Current deferral counter value; `None` when the protocol has no
    /// deferral counter (802.11) or it is disabled at this stage.
    pub dc: Option<u32>,
    /// Backoff procedure counter: number of stage entries since the last
    /// successful transmission (the standard's BPC).
    pub bpc: u32,
}

/// One row of the per-stage parameter table in a [`SoaView`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SoaStage {
    /// Contention window at this stage: redraws pick BC uniformly from
    /// `0..cw` (one `gen_range` call, i.e. one RNG word).
    pub cw: u32,
    /// Initial deferral counter at this stage; `u32::MAX` disables the
    /// deferral counter (802.11 rows always use the disabled value).
    pub dc: u32,
}

/// Live counters exported in a [`SoaView`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SoaState {
    /// Current backoff counter.
    pub bc: u32,
    /// Current deferral counter (`u32::MAX` when disabled or absent).
    pub dc: u32,
    /// Raw stage-entry counter: 1901's BPC *before* the reporting
    /// adjustment (`snapshot().bpc + 1` after the first draw), or the
    /// 802.11 retry count.
    pub bpc: u32,
    /// Stage currently in effect (index into the stage table).
    pub stage: u32,
}

/// A struct-of-arrays export of a backoff process: the per-stage parameter
/// table plus the live counters, in exactly the representation an engine
/// needs to host contention state in parallel arrays and replay this
/// process's RNG draw sequence bit-identically (see `plc-sim`'s
/// `ContentionCore`).
///
/// A process that returns a view guarantees its entire future behaviour is
/// determined by [`Protocol`] slot semantics over these counters:
///
/// * redraws consume exactly one `gen_range(0..cw)` call;
/// * 1901 busy slots redraw iff `dc == 0`, else decrement BC (and DC when
///   enabled); 802.11 busy slots freeze;
/// * success/reset re-enter stage 0; failure advances the stage
///   (1901: via BPC saturating increment; 802.11: saturated at the last
///   stage, with a saturating retry count).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SoaView {
    /// Which protocol's slot semantics the counters follow.
    pub protocol: Protocol,
    /// Per-stage contention parameters, in stage order.
    pub stages: Vec<SoaStage>,
    /// Live counter state.
    pub state: SoaState,
}

/// A CSMA/CA contention state machine, driven by slot events.
///
/// # Contract
///
/// * The engine must consult [`wants_tx`](BackoffProcess::wants_tx) at the
///   top of every slot. If it returns `true` the station transmits in that
///   slot and the engine must then call exactly one of
///   [`on_tx_success`](BackoffProcess::on_tx_success) /
///   [`on_tx_failure`](BackoffProcess::on_tx_failure).
/// * If it returns `false`, the engine must call exactly one of
///   [`on_idle_slot`](BackoffProcess::on_idle_slot) (no station transmitted)
///   or [`on_busy`](BackoffProcess::on_busy) (some other station
///   transmitted — the station *sensed the medium busy*).
/// * `on_busy` is only legal mid-countdown (`wants_tx() == false`). A
///   station that has counted down to `BC == 0` but finds the medium
///   busy — which can only happen under partial hearing, e.g. the
///   multi-domain coordinator's cross-network sensing — must *hold* its
///   pending transmission without any process call until the medium
///   frees; implementations may panic on a contract violation.
/// * After any event, `wants_tx` reflects the next slot's intention.
///
/// All state transitions are deterministic given the RNG stream.
pub trait BackoffProcess {
    /// True when `BC == 0`: the station attempts a transmission in the
    /// current slot.
    fn wants_tx(&self) -> bool;

    /// The medium was idle for one contention slot.
    fn on_idle_slot(&mut self, rng: &mut dyn RngCore);

    /// The station sensed the medium busy (another station's transmission
    /// occupied the slot). For 1901 this decrements BC *and* DC, possibly
    /// jumping to the next backoff stage; for 802.11 the backoff freezes.
    fn on_busy(&mut self, rng: &mut dyn RngCore);

    /// The station's own transmission was acknowledged: return to backoff
    /// stage 0.
    fn on_tx_success(&mut self, rng: &mut dyn RngCore);

    /// The station's own transmission collided: advance the backoff stage.
    fn on_tx_failure(&mut self, rng: &mut dyn RngCore);

    /// Start a fresh backoff for a new head-of-line frame: return to stage
    /// 0 and redraw BC — the standard's "upon the arrival of a new packet,
    /// a transmitting station enters backoff stage 0". Also used after a
    /// retry-limit drop.
    ///
    /// The default implementation reuses the success transition, which has
    /// exactly these semantics in both implemented protocols.
    fn reset(&mut self, rng: &mut dyn RngCore) {
        self.on_tx_success(rng);
    }

    /// How many consecutive idle slots this process can absorb as pure
    /// `BC` decrements — without consuming RNG draws, touching the
    /// deferral counter, or changing any other state. Engines use this to
    /// fast-forward runs of idle slots in one jump; `None` (the default)
    /// opts out and forces per-slot stepping.
    ///
    /// # Contract
    ///
    /// `Some(bc)` must report the *current* backoff counter, with
    /// `wants_tx()` equivalent to `bc == 0` — engines cache `idle_skip`
    /// values across a step to both bound the fast-forward jump and
    /// predict the next slot's transmitter set without rescanning. A
    /// process whose transmit decision involves more than `BC == 0` must
    /// return `None`.
    ///
    /// Both implemented protocols return `Some(BC)`: in 1901 the DC only
    /// moves on *busy* slots, and in 802.11 idle slots are plain
    /// countdowns, so `BC` idle slots in a row are fully predictable.
    fn idle_skip(&self) -> Option<u32> {
        None
    }

    /// Absorb `n` idle slots at once. Must be equivalent to `n` calls to
    /// [`on_idle_slot`](BackoffProcess::on_idle_slot); engines only call
    /// it with `n ≤` the last [`idle_skip`](BackoffProcess::idle_skip)
    /// value, and only when that returned `Some`.
    fn consume_idle_slots(&mut self, n: u32) {
        debug_assert!(
            n == 0,
            "consume_idle_slots used on a process that opted out of idle_skip"
        );
    }

    /// Export the full contention state as a [`SoaView`]. `plc-sim`'s
    /// slotted engine reads this once, at construction, and runs every
    /// later transition on its own struct-of-arrays copy; the process
    /// object itself is never called again.
    ///
    /// # Contract
    ///
    /// The view captures *all* of the process's state: an engine
    /// replaying [`Protocol`] slot semantics over the exported counters —
    /// with redraws taken from the same RNG stream in the same order —
    /// produces bit-identical traces to calling the slot-event methods on
    /// the object itself.
    fn soa_view(&self) -> SoaView;

    /// Which protocol this process implements.
    fn protocol(&self) -> Protocol;

    /// Counter snapshot for tracing.
    fn snapshot(&self) -> BackoffSnapshot;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_display() {
        assert_eq!(Protocol::Ieee1901.to_string(), "IEEE 1901");
        assert_eq!(Protocol::Dcf80211.to_string(), "802.11 DCF");
    }

    #[test]
    fn snapshot_is_plain_data() {
        let s = BackoffSnapshot {
            stage: 1,
            cw: 16,
            bc: 5,
            dc: Some(1),
            bpc: 2,
        };
        let t = s;
        assert_eq!(s, t);
    }
}
