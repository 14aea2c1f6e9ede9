//! The emulated PLC device firmware.
//!
//! A [`Device`] models what the paper's methodology actually touches inside
//! an INT6300-class chip:
//!
//! * **per-link statistics counters** — acknowledged and collided MPDU
//!   counts keyed by (peer MAC, priority, direction), resettable and
//!   readable via the vendor statistics MME (`0xA030`). Crucially, the
//!   counters implement the selective-ACK behaviour the paper verifies:
//!   a collided MPDU whose delimiter was decoded is *acknowledged with all
//!   physical blocks in error*, so it increments **both** `acked` and
//!   `collided` — which is why the measured `ΣAᵢ` grows with N;
//! * **sniffer mode** — when enabled via `0xA034`, every SoF delimiter
//!   sensed on the medium is captured (fields only, never payload);
//! * **an MME dispatcher** — takes raw request bytes, returns raw confirm
//!   bytes, distinguishing requests by the MMType field exactly as the
//!   standard prescribes.

use plc_core::addr::{MacAddr, Tei};
use plc_core::error::{Error, Result};
use plc_core::frame::SofDelimiter;
use plc_core::mme::{
    mmtype, AmpStatCnf, AmpStatReq, Direction, MmVariant, MmeHeader, SnifferInd, SnifferReq,
    StatsControl, MMTYPE_SNIFFER, MMTYPE_STATS,
};
use plc_core::priority::Priority;

/// Statistics are kept per link: peer address, priority class, direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StatKey {
    /// Peer MAC address of the link.
    pub peer: MacAddr,
    /// Channel-access priority of the counted frames.
    pub priority: Priority,
    /// Transmit- or receive-side counter.
    pub direction: Direction,
}

/// Firmware counters mirrored into a [`plc_obs::Registry`], so host-side
/// dashboards read the same numbers the ampstat MME reports.
#[derive(Clone)]
struct DeviceObs {
    tx_acked: plc_obs::Counter,
    tx_collided: plc_obs::Counter,
}

impl std::fmt::Debug for DeviceObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DeviceObs")
    }
}

/// One emulated HomePlug AV device.
#[derive(Debug, Clone)]
pub struct Device {
    mac: MacAddr,
    tei: Tei,
    /// Counters of every link used since the last reset, in first-use
    /// order. A device talks to few peers (D, the busiest, keeps about
    /// 2N + 2 links), so a linear scan beats hashing.
    stats: Vec<(StatKey, AmpStatCnf)>,
    sniffer_enabled: bool,
    captured: Vec<SnifferInd>,
    obs: Option<DeviceObs>,
    /// Firmware counters count modulo this when set (a real chip's u32
    /// registers wrap; `None` models an ideal unbounded counter).
    wrap_modulus: Option<u64>,
    /// Brownout/reset events survived since construction.
    resets: u64,
}

impl Device {
    /// A device with the given addresses, counters at zero, sniffer off.
    pub fn new(mac: MacAddr, tei: Tei) -> Self {
        Device {
            mac,
            tei,
            stats: Vec::new(),
            sniffer_enabled: false,
            captured: Vec::new(),
            obs: None,
            wrap_modulus: None,
            resets: 0,
        }
    }

    /// Make the statistics counters wrap modulo `modulus` (e.g. `1 << 32`
    /// for a chip with u32 registers). `None` restores unbounded counting.
    pub fn set_counter_wrap(&mut self, modulus: Option<u64>) {
        assert!(modulus.is_none_or(|m| m > 1), "modulus must exceed 1");
        self.wrap_modulus = modulus;
    }

    /// Brownout: the firmware reboots mid-experiment. Statistics counters
    /// clear, sniffer mode drops to its power-on default (off) and any
    /// uncollected captures are gone. Addresses and the wrap modulus are
    /// non-volatile.
    pub fn reset_firmware(&mut self) {
        self.stats.clear();
        self.sniffer_enabled = false;
        self.captured.clear();
        self.resets += 1;
    }

    /// How many firmware resets this device has survived.
    pub fn reset_count(&self) -> u64 {
        self.resets
    }

    /// Mirror this device's transmit-side firmware counters into
    /// `registry` as `testbed.dev<TEI>.tx_acked` / `.tx_collided`. The
    /// MME path stays authoritative — the registry counters are a live
    /// read-only view that must always agree with what ampstat reports.
    /// Fails if either name is already registered as a non-counter.
    pub fn attach_registry(&mut self, registry: &plc_obs::Registry) -> plc_core::error::Result<()> {
        let tei = self.tei.0;
        self.obs = Some(DeviceObs {
            tx_acked: registry.try_counter(&format!("testbed.dev{tei}.tx_acked"))?,
            tx_collided: registry.try_counter(&format!("testbed.dev{tei}.tx_collided"))?,
        });
        Ok(())
    }

    /// The device's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// The device's terminal equipment identifier.
    pub fn tei(&self) -> Tei {
        self.tei
    }

    /// Whether sniffer mode is currently on.
    pub fn sniffer_enabled(&self) -> bool {
        self.sniffer_enabled
    }

    /// Number of captured delimiters waiting to be collected.
    pub fn pending_captures(&self) -> usize {
        self.captured.len()
    }

    /// Firmware hook: one of this device's transmitted MPDUs was
    /// acknowledged. `collided = true` means the SACK flagged every PB in
    /// error (the MPDU collided but its delimiter was decodable) — both
    /// counters tick, matching the observed `ΣAᵢ` growth with N.
    pub fn record_tx_ack(&mut self, peer: MacAddr, priority: Priority, collided: bool) {
        self.count(peer, priority, Direction::Tx, collided);
        if let Some(obs) = &self.obs {
            obs.tx_acked.inc();
            if collided {
                obs.tx_collided.inc();
            }
        }
    }

    /// Firmware hook: an MPDU from `peer` was received (receive-side
    /// counters, kept for completeness of the ampstat interface).
    pub fn record_rx(&mut self, peer: MacAddr, priority: Priority, collided: bool) {
        self.count(peer, priority, Direction::Rx, collided);
    }

    /// One acknowledged MPDU on a link (a collided one ticks both
    /// counters).
    fn count(&mut self, peer: MacAddr, priority: Priority, direction: Direction, collided: bool) {
        let wrap = self.wrap_modulus;
        let e = self.counters_mut(StatKey {
            peer,
            priority,
            direction,
        });
        e.acked = wrapped(e.acked + 1, wrap);
        if collided {
            e.collided = wrapped(e.collided + 1, wrap);
        }
    }

    /// The counters of `key`'s link, zeroed on first use.
    fn counters_mut(&mut self, key: StatKey) -> &mut AmpStatCnf {
        let i = match self.stats.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                self.stats.push((key, AmpStatCnf::default()));
                self.stats.len() - 1
            }
        };
        &mut self.stats[i].1
    }

    /// Firmware hook: a SoF delimiter was sensed on the medium. Captured
    /// only while sniffer mode is on (faifa's behaviour: delimiters of
    /// *all* PLC frames, data and management alike).
    pub fn sense_sof(&mut self, timestamp_us: f64, sof: SofDelimiter) {
        if self.sniffer_enabled {
            self.captured.push(SnifferInd { timestamp_us, sof });
        }
    }

    /// Drain the captured delimiters (the tool-side collection path wraps
    /// each one in a `0xA034` indication MME).
    pub fn drain_captures(&mut self) -> Vec<SnifferInd> {
        std::mem::take(&mut self.captured)
    }

    /// Read a counter pair (zero if the link was never used).
    pub fn stats(&self, key: &StatKey) -> AmpStatCnf {
        self.stats
            .iter()
            .find(|(k, _)| k == key)
            .map_or_else(AmpStatCnf::default, |&(_, s)| s)
    }

    /// Handle one raw MME request addressed to this device and produce the
    /// raw confirm. Unknown MMTypes yield an error, like a chip ignoring
    /// the frame.
    pub fn handle_mme(&mut self, raw: &[u8]) -> Result<Vec<u8>> {
        let header = MmeHeader::decode(raw)?;
        if header.oda != self.mac {
            return Err(Error::invalid_config(format!(
                "MME for {} delivered to {}",
                header.oda, self.mac
            )));
        }
        if header.variant() != MmVariant::Req {
            return Err(Error::UnknownMmtype(header.mmtype));
        }
        match header.base() {
            MMTYPE_STATS => {
                let req = AmpStatReq::decode(raw)?;
                let key = StatKey {
                    peer: req.peer,
                    priority: req.priority,
                    direction: req.direction,
                };
                let current = self.stats(&key);
                if req.control == StatsControl::Reset {
                    *self.counters_mut(key) = AmpStatCnf::default();
                }
                // Like the real ampstat flow, the confirm carries the
                // counters as of the request (a reset reply reports the
                // pre-reset values; the tool ignores them).
                Ok(current.encode(&MmeHeader::confirm_to(&header)))
            }
            MMTYPE_SNIFFER => {
                let req = SnifferReq::decode(raw)?;
                self.sniffer_enabled = req.enable;
                // Confirm echoes the new state in the first payload byte.
                let cnf_header = MmeHeader::confirm_to(&header);
                let state = SnifferReq {
                    enable: self.sniffer_enabled,
                };
                Ok(state.encode(&cnf_header))
            }
            other => Err(Error::UnknownMmtype(other)),
        }
    }

    /// Encode the pending captures as `0xA034` indication MMEs addressed
    /// to `host` (what faifa reads off the Ethernet interface).
    pub fn capture_indications(&mut self, host: MacAddr) -> Vec<Vec<u8>> {
        let header = MmeHeader {
            oda: host,
            osa: self.mac,
            mmv: 1,
            mmtype: mmtype(MMTYPE_SNIFFER, MmVariant::Ind),
            fmi: 0,
        };
        self.drain_captures()
            .into_iter()
            .map(|ind| ind.encode(&header))
            .collect()
    }
}

/// Apply the optional counter wrap.
fn wrapped(v: u64, modulus: Option<u64>) -> u64 {
    match modulus {
        Some(m) => v % m,
        None => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::new(MacAddr::station(0), Tei::station(0))
    }

    fn host() -> MacAddr {
        MacAddr([0x02, 0xB0, 0x57, 0, 0, 1])
    }

    fn sof(src: u8) -> SofDelimiter {
        SofDelimiter {
            src: Tei(src),
            dst: Tei(9),
            priority: Priority::CA1,
            mpdu_cnt: 0,
            num_pbs: 4,
            fl_units: 1602,
        }
    }

    #[test]
    fn ack_counters_include_collisions() {
        let mut d = dev();
        let peer = MacAddr::station(9);
        d.record_tx_ack(peer, Priority::CA1, false);
        d.record_tx_ack(peer, Priority::CA1, true);
        d.record_tx_ack(peer, Priority::CA1, true);
        let s = d.stats(&StatKey {
            peer,
            priority: Priority::CA1,
            direction: Direction::Tx,
        });
        assert_eq!(s.acked, 3, "collided MPDUs are still acknowledged");
        assert_eq!(s.collided, 2);
    }

    #[test]
    fn registry_mirror_tracks_tx_counters() {
        let registry = plc_obs::Registry::new();
        let mut d = dev();
        d.attach_registry(&registry).unwrap();
        let peer = MacAddr::station(9);
        d.record_tx_ack(peer, Priority::CA1, false);
        d.record_tx_ack(peer, Priority::CA1, true);
        d.record_rx(peer, Priority::CA1, true); // rx is not mirrored
        let snap = registry.snapshot();
        // Tei::station(0) carries TEI 1 on the wire.
        assert_eq!(snap.counter("testbed.dev1.tx_acked"), Some(2));
        assert_eq!(snap.counter("testbed.dev1.tx_collided"), Some(1));
        // The MME-visible counters agree.
        let s = d.stats(&StatKey {
            peer,
            priority: Priority::CA1,
            direction: Direction::Tx,
        });
        assert_eq!(s.acked, 2);
        assert_eq!(s.collided, 1);
    }

    #[test]
    fn counters_are_per_link() {
        let mut d = dev();
        let a = MacAddr::station(1);
        let b = MacAddr::station(2);
        d.record_tx_ack(a, Priority::CA1, false);
        d.record_tx_ack(b, Priority::CA2, true);
        d.record_rx(a, Priority::CA1, false);
        assert_eq!(
            d.stats(&StatKey {
                peer: a,
                priority: Priority::CA1,
                direction: Direction::Tx
            })
            .acked,
            1
        );
        assert_eq!(
            d.stats(&StatKey {
                peer: b,
                priority: Priority::CA2,
                direction: Direction::Tx
            })
            .collided,
            1
        );
        assert_eq!(
            d.stats(&StatKey {
                peer: a,
                priority: Priority::CA1,
                direction: Direction::Rx
            })
            .acked,
            1
        );
        assert_eq!(
            d.stats(&StatKey {
                peer: b,
                priority: Priority::CA1,
                direction: Direction::Tx
            })
            .acked,
            0
        );
    }

    #[test]
    fn stats_mme_round_trip_and_reset() {
        let mut d = dev();
        let peer = MacAddr::station(9);
        d.record_tx_ack(peer, Priority::CA1, true);
        let req = AmpStatReq {
            control: StatsControl::Read,
            direction: Direction::Tx,
            priority: Priority::CA1,
            peer,
        };
        let header = MmeHeader::request(d.mac(), host(), MMTYPE_STATS);
        let reply = d.handle_mme(&req.encode(&header)).unwrap();
        let cnf = AmpStatCnf::decode(&reply).unwrap();
        assert_eq!(cnf.acked, 1);
        assert_eq!(cnf.collided, 1);
        // Counters survive a read…
        let reply2 = d.handle_mme(&req.encode(&header)).unwrap();
        assert_eq!(AmpStatCnf::decode(&reply2).unwrap().acked, 1);
        // …and are cleared by a reset.
        let reset = AmpStatReq {
            control: StatsControl::Reset,
            ..req
        };
        d.handle_mme(&reset.encode(&header)).unwrap();
        let reply3 = d.handle_mme(&req.encode(&header)).unwrap();
        assert_eq!(AmpStatCnf::decode(&reply3).unwrap(), AmpStatCnf::default());
    }

    #[test]
    fn reply_counters_at_documented_bytes() {
        let mut d = dev();
        let peer = MacAddr::station(9);
        for _ in 0..5 {
            d.record_tx_ack(peer, Priority::CA1, false);
        }
        d.record_tx_ack(peer, Priority::CA1, true);
        let req = AmpStatReq {
            control: StatsControl::Read,
            direction: Direction::Tx,
            priority: Priority::CA1,
            peer,
        };
        let header = MmeHeader::request(d.mac(), host(), MMTYPE_STATS);
        let reply = d.handle_mme(&req.encode(&header)).unwrap();
        // "bytes 25-32 … acknowledged frames, bytes 33-40 … collided".
        assert_eq!(&reply[24..32], &6u64.to_le_bytes());
        assert_eq!(&reply[32..40], &1u64.to_le_bytes());
    }

    #[test]
    fn sniffer_mode_gates_capture() {
        let mut d = dev();
        d.sense_sof(10.0, sof(1));
        assert_eq!(d.pending_captures(), 0, "sniffer off → nothing captured");
        let header = MmeHeader::request(d.mac(), host(), MMTYPE_SNIFFER);
        let on = SnifferReq { enable: true }.encode(&header);
        let reply = d.handle_mme(&on).unwrap();
        assert!(SnifferReq::decode(&reply).unwrap().enable);
        d.sense_sof(20.0, sof(1));
        d.sense_sof(30.0, sof(2));
        assert_eq!(d.pending_captures(), 2);
        let caps = d.drain_captures();
        assert_eq!(caps.len(), 2);
        assert_eq!(caps[0].timestamp_us, 20.0);
        assert_eq!(d.pending_captures(), 0);
    }

    #[test]
    fn capture_indications_decode() {
        let mut d = dev();
        d.handle_mme(&SnifferReq { enable: true }.encode(&MmeHeader::request(
            d.mac(),
            host(),
            MMTYPE_SNIFFER,
        )))
        .unwrap();
        d.sense_sof(5.5, sof(3));
        let frames = d.capture_indications(host());
        assert_eq!(frames.len(), 1);
        let ind = SnifferInd::decode(&frames[0]).unwrap();
        assert_eq!(ind.timestamp_us, 5.5);
        assert_eq!(ind.sof.src, Tei(3));
        let h = MmeHeader::decode(&frames[0]).unwrap();
        assert_eq!(h.variant(), MmVariant::Ind);
        assert_eq!(h.base(), MMTYPE_SNIFFER);
    }

    #[test]
    fn wrong_destination_rejected() {
        let mut d = dev();
        let req = SnifferReq { enable: true }.encode(&MmeHeader::request(
            MacAddr::station(42),
            host(),
            MMTYPE_SNIFFER,
        ));
        assert!(d.handle_mme(&req).is_err());
    }

    #[test]
    fn unknown_mmtype_rejected() {
        let mut d = dev();
        let header = MmeHeader::request(d.mac(), host(), 0xA1C0);
        let mut raw = header.encode().to_vec();
        raw.extend_from_slice(&[0u8; 10]);
        assert!(matches!(
            d.handle_mme(&raw),
            Err(Error::UnknownMmtype(0xA1C0))
        ));
    }

    #[test]
    fn firmware_reset_clears_volatile_state() {
        let mut d = dev();
        let peer = MacAddr::station(9);
        d.record_tx_ack(peer, Priority::CA1, true);
        d.handle_mme(&SnifferReq { enable: true }.encode(&MmeHeader::request(
            d.mac(),
            host(),
            MMTYPE_SNIFFER,
        )))
        .unwrap();
        d.sense_sof(1.0, sof(2));
        assert_eq!(d.pending_captures(), 1);
        d.reset_firmware();
        assert_eq!(d.reset_count(), 1);
        assert_eq!(
            d.stats(&StatKey {
                peer,
                priority: Priority::CA1,
                direction: Direction::Tx,
            }),
            AmpStatCnf::default(),
            "counters cleared"
        );
        assert!(!d.sniffer_enabled(), "sniffer back to power-on default");
        assert_eq!(d.pending_captures(), 0, "capture buffer gone");
        assert_eq!(d.mac(), MacAddr::station(0), "addresses survive");
    }

    #[test]
    fn counters_wrap_at_modulus() {
        let mut d = dev();
        d.set_counter_wrap(Some(5));
        let peer = MacAddr::station(9);
        for _ in 0..7 {
            d.record_tx_ack(peer, Priority::CA1, false);
        }
        let key = StatKey {
            peer,
            priority: Priority::CA1,
            direction: Direction::Tx,
        };
        assert_eq!(d.stats(&key).acked, 2, "7 mod 5");
        // Rx wraps too.
        for _ in 0..6 {
            d.record_rx(peer, Priority::CA1, false);
        }
        let rx = StatKey {
            direction: Direction::Rx,
            ..key
        };
        assert_eq!(d.stats(&rx).acked, 1, "6 mod 5");
    }

    #[test]
    fn confirm_not_handled_as_request() {
        let mut d = dev();
        let mut header = MmeHeader::request(d.mac(), host(), MMTYPE_STATS);
        header.mmtype = mmtype(MMTYPE_STATS, MmVariant::Cnf);
        let raw = AmpStatReq {
            control: StatsControl::Read,
            direction: Direction::Tx,
            priority: Priority::CA1,
            peer: host(),
        }
        .encode(&header);
        assert!(d.handle_mme(&raw).is_err());
    }
}
