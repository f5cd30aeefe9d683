//! Virtual communication links.
//!
//! A *physical* transmission link that is available during `nl` disjoint
//! time windows is modelled as `nl` *virtual* links `L[i,j][k]`, each with
//! one availability window `[Lst, Let)`, a bandwidth, and a latency
//! (paper §3). Bidirectional physical links are two sets of virtual links,
//! one per direction. A virtual link carries at most one transfer at a time.

use serde::{Deserialize, Serialize};

use crate::ids::MachineId;
use crate::time::{SimDuration, SimTime};
use crate::units::{BitsPerSec, Bytes};

/// One unidirectional virtual link `L[i,j][k]`.
///
/// # Examples
///
/// ```
/// use dstage_model::link::VirtualLink;
/// use dstage_model::ids::MachineId;
/// use dstage_model::time::{SimTime, SimDuration};
/// use dstage_model::units::{BitsPerSec, Bytes};
///
/// let link = VirtualLink::new(
///     MachineId::new(0),
///     MachineId::new(1),
///     SimTime::ZERO,
///     SimTime::from_hours(1),
///     BitsPerSec::from_kbps(100),
/// );
/// // 100 KiB over 100 Kbit/s: 819_200 bits / 100_000 bps = 8.192 s.
/// assert_eq!(
///     link.transfer_time(Bytes::from_kib(100)),
///     SimDuration::from_millis(8_192)
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VirtualLink {
    source: MachineId,
    destination: MachineId,
    start: SimTime,
    end: SimTime,
    bandwidth: BitsPerSec,
    latency: SimDuration,
}

impl VirtualLink {
    /// Creates a virtual link with zero latency.
    ///
    /// # Panics
    ///
    /// Panics if `source == destination` (self-links are excluded by the
    /// model) or if `start >= end` (the window would be empty).
    #[must_use]
    pub fn new(
        source: MachineId,
        destination: MachineId,
        start: SimTime,
        end: SimTime,
        bandwidth: BitsPerSec,
    ) -> Self {
        Self::with_latency(source, destination, start, end, bandwidth, SimDuration::ZERO)
    }

    /// Creates a virtual link with an explicit per-transfer latency
    /// (the fixed component of the paper's `D[i,j][k](|d|)` overhead).
    ///
    /// # Panics
    ///
    /// Panics if `source == destination` or `start >= end`.
    #[must_use]
    pub fn with_latency(
        source: MachineId,
        destination: MachineId,
        start: SimTime,
        end: SimTime,
        bandwidth: BitsPerSec,
        latency: SimDuration,
    ) -> Self {
        assert!(source != destination, "a link must not originate and end at the same machine");
        assert!(start < end, "link availability window must be non-empty");
        VirtualLink { source, destination, start, end, bandwidth, latency }
    }

    /// The sending machine `M[i]`.
    #[must_use]
    pub fn source(&self) -> MachineId {
        self.source
    }

    /// The receiving machine `M[j]`.
    #[must_use]
    pub fn destination(&self) -> MachineId {
        self.destination
    }

    /// Link start time `Lst[i,j][k]` (inclusive).
    #[must_use]
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Link end time `Let[i,j][k]` (exclusive).
    #[must_use]
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// The link bandwidth.
    #[must_use]
    pub fn bandwidth(&self) -> BitsPerSec {
        self.bandwidth
    }

    /// The fixed per-transfer latency.
    #[must_use]
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// The window length `Let - Lst`.
    #[must_use]
    pub fn window(&self) -> SimDuration {
        self.end - self.start
    }

    /// Total occupancy time for transferring `size` over this link:
    /// serialization delay plus latency (the paper's `D[i,j][k](|d|)`).
    /// Inlined: the search and the ledger's probe call it per link they
    /// consider, from other crates.
    #[must_use]
    #[inline]
    pub fn transfer_time(&self, size: Bytes) -> SimDuration {
        self.bandwidth.serialization_delay(size).saturating_add(self.latency)
    }

    /// Whether a transfer of `size` fits in the window at all (ignoring
    /// any existing reservations).
    #[must_use]
    pub fn can_ever_carry(&self, size: Bytes) -> bool {
        self.transfer_time(size) <= self.window()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(bw_kbps: u64, window_secs: u64) -> VirtualLink {
        VirtualLink::new(
            MachineId::new(0),
            MachineId::new(1),
            SimTime::ZERO,
            SimTime::from_secs(window_secs),
            BitsPerSec::from_kbps(bw_kbps),
        )
    }

    #[test]
    fn accessors_return_constructor_values() {
        let l = VirtualLink::with_latency(
            MachineId::new(2),
            MachineId::new(5),
            SimTime::from_mins(1),
            SimTime::from_mins(31),
            BitsPerSec::from_kbps(64),
            SimDuration::from_millis(250),
        );
        assert_eq!(l.source(), MachineId::new(2));
        assert_eq!(l.destination(), MachineId::new(5));
        assert_eq!(l.start(), SimTime::from_mins(1));
        assert_eq!(l.end(), SimTime::from_mins(31));
        assert_eq!(l.bandwidth(), BitsPerSec::from_kbps(64));
        assert_eq!(l.latency(), SimDuration::from_millis(250));
        assert_eq!(l.window(), SimDuration::from_mins(30));
    }

    #[test]
    #[should_panic(expected = "same machine")]
    fn self_link_rejected() {
        let _ = VirtualLink::new(
            MachineId::new(1),
            MachineId::new(1),
            SimTime::ZERO,
            SimTime::from_secs(1),
            BitsPerSec::from_kbps(1),
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_rejected() {
        let _ = VirtualLink::new(
            MachineId::new(0),
            MachineId::new(1),
            SimTime::from_secs(5),
            SimTime::from_secs(5),
            BitsPerSec::from_kbps(1),
        );
    }

    #[test]
    fn transfer_time_adds_latency() {
        let l = VirtualLink::with_latency(
            MachineId::new(0),
            MachineId::new(1),
            SimTime::ZERO,
            SimTime::from_hours(1),
            BitsPerSec::new(8_000), // 1 byte/ms
            SimDuration::from_millis(100),
        );
        assert_eq!(l.transfer_time(Bytes::new(400)), SimDuration::from_millis(500));
    }

    #[test]
    fn can_ever_carry_respects_window() {
        // 1 byte/ms; 10 s window fits exactly 10_000 bytes.
        let l = link(8, 10);
        assert!(l.can_ever_carry(Bytes::new(10_000)));
        assert!(!l.can_ever_carry(Bytes::new(10_001)));
        assert!(l.can_ever_carry(Bytes::ZERO));
    }
}
