//! A closed enum over the workspace's backoff processes.
//!
//! The simulation engine is generic over [`BackoffProcess`]; for scenarios
//! that mix protocols in one contention domain (e.g. the 1901-vs-802.11
//! coexistence comparison) the station set must be homogeneous in *type*
//! while heterogeneous in *protocol*. [`AnyBackoff`] is the zero-cost way
//! to do that without trait objects in the hot loop.

use crate::backoff1901::Backoff1901;
use crate::dcf::BackoffDcf;
use crate::process::{BackoffProcess, BackoffSnapshot, Protocol, SoaView};
use rand::RngCore;

/// Either of the implemented backoff processes. Dispatch is a two-arm
/// match, which the optimizer folds away in homogeneous populations.
#[derive(Debug, Clone)]
pub enum AnyBackoff {
    /// IEEE 1901 process.
    Ieee1901(Backoff1901),
    /// 802.11 DCF process.
    Dcf(BackoffDcf),
}

impl From<Backoff1901> for AnyBackoff {
    fn from(b: Backoff1901) -> Self {
        AnyBackoff::Ieee1901(b)
    }
}

impl From<BackoffDcf> for AnyBackoff {
    fn from(b: BackoffDcf) -> Self {
        AnyBackoff::Dcf(b)
    }
}

macro_rules! delegate {
    ($self:ident, $b:ident => $e:expr) => {
        match $self {
            AnyBackoff::Ieee1901($b) => $e,
            AnyBackoff::Dcf($b) => $e,
        }
    };
}

impl BackoffProcess for AnyBackoff {
    fn wants_tx(&self) -> bool {
        delegate!(self, b => b.wants_tx())
    }

    fn on_idle_slot(&mut self, rng: &mut dyn RngCore) {
        delegate!(self, b => b.on_idle_slot(rng))
    }

    fn on_busy(&mut self, rng: &mut dyn RngCore) {
        delegate!(self, b => b.on_busy(rng))
    }

    fn on_tx_success(&mut self, rng: &mut dyn RngCore) {
        delegate!(self, b => b.on_tx_success(rng))
    }

    fn on_tx_failure(&mut self, rng: &mut dyn RngCore) {
        delegate!(self, b => b.on_tx_failure(rng))
    }

    fn idle_skip(&self) -> Option<u32> {
        delegate!(self, b => b.idle_skip())
    }

    fn consume_idle_slots(&mut self, n: u32) {
        delegate!(self, b => b.consume_idle_slots(n))
    }

    fn soa_view(&self) -> SoaView {
        delegate!(self, b => b.soa_view())
    }

    fn protocol(&self) -> Protocol {
        delegate!(self, b => b.protocol())
    }

    fn snapshot(&self) -> BackoffSnapshot {
        delegate!(self, b => b.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn dispatches_to_inner_protocol() {
        let mut r = SmallRng::seed_from_u64(1);
        let a: AnyBackoff = Backoff1901::default_ca1(&mut r).into();
        let d: AnyBackoff = BackoffDcf::classic(&mut r).into();
        assert_eq!(a.protocol(), Protocol::Ieee1901);
        assert_eq!(d.protocol(), Protocol::Dcf80211);
        assert_eq!(a.snapshot().cw, 8);
        assert_eq!(d.snapshot().cw, 16);
    }

    #[test]
    fn events_flow_through() {
        let mut r = SmallRng::seed_from_u64(2);
        let mut a: AnyBackoff = Backoff1901::default_ca1(&mut r).into();
        // Drive a success; the 1901 process must reset to stage 0.
        while !a.wants_tx() {
            a.on_idle_slot(&mut r);
        }
        a.on_tx_success(&mut r);
        assert_eq!(a.snapshot().stage, 0);
        assert_eq!(a.snapshot().bpc, 0);
    }
}
