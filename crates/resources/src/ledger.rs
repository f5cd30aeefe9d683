//! The network-wide resource ledger.
//!
//! A [`NetworkLedger`] tracks, for one scheduling run, every commitment the
//! scheduler has made so far: busy intervals on each virtual link and byte
//! reservations on each machine's storage. It answers the composite
//! question at the heart of the paper's Dijkstra adaptation (§4.2): *what
//! is the earliest time a given item can start crossing a given virtual
//! link such that the link is free for the whole transfer and the receiving
//! machine can hold the item until its garbage-collection time?*
//!
//! The ledger is policy-free: hold deadlines (GC time for intermediates,
//! horizon for destinations) are chosen by the caller.

use dstage_model::ids::{MachineId, VirtualLinkId};
use dstage_model::link::VirtualLink;
use dstage_model::network::Network;
use dstage_model::time::{SimDuration, SimTime};
use dstage_model::units::Bytes;
use serde::{Deserialize, Serialize};

use crate::interval::BusyIntervals;
use crate::timeline::CapacityTimeline;

/// A feasible placement of one transfer on one virtual link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransferSlot {
    /// When the transfer begins occupying the link.
    pub start: SimTime,
    /// When the transfer completes and the item is available at the
    /// receiving machine (`start + D[i,j][k](|d|)`).
    pub arrival: SimTime,
}

/// Error returned by [`NetworkLedger::commit_transfer`] when the requested
/// slot is no longer (or never was) feasible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitError {
    /// The transfer does not fit inside the link's availability window.
    OutsideWindow {
        /// The link whose window was violated.
        link: VirtualLinkId,
    },
    /// The link is already busy somewhere in the requested span.
    LinkBusy {
        /// The busy link.
        link: VirtualLinkId,
    },
    /// The receiving machine cannot hold the item through the hold span.
    StorageFull {
        /// The machine lacking storage.
        machine: MachineId,
    },
    /// The transfer would complete after its hold deadline, so the copy
    /// would be garbage-collected on arrival.
    ArrivesAfterHoldDeadline {
        /// When the transfer would arrive.
        arrival: SimTime,
        /// The hold deadline it missed.
        hold_until: SimTime,
    },
}

impl core::fmt::Display for CommitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CommitError::OutsideWindow { link } => {
                write!(f, "transfer falls outside the availability window of {link}")
            }
            CommitError::LinkBusy { link } => write!(f, "link {link} is busy in the span"),
            CommitError::StorageFull { machine } => {
                write!(f, "machine {machine} cannot hold the item through its hold span")
            }
            CommitError::ArrivesAfterHoldDeadline { arrival, hold_until } => {
                write!(f, "transfer arrives at {arrival}, after hold deadline {hold_until}")
            }
        }
    }
}

impl std::error::Error for CommitError {}

/// Mutable resource state for one scheduling run over a fixed network.
///
/// # Examples
///
/// ```
/// use dstage_model::prelude::*;
/// use dstage_resources::ledger::NetworkLedger;
///
/// let mut b = NetworkBuilder::new();
/// let a = b.add_machine(Machine::new("a", Bytes::from_mib(1)));
/// let c = b.add_machine(Machine::new("c", Bytes::from_mib(1)));
/// let l = b.add_link(VirtualLink::new(a, c, SimTime::ZERO,
///     SimTime::from_mins(10), BitsPerSec::from_kbps(800)));
/// let net = b.build();
///
/// let mut ledger = NetworkLedger::new(&net);
/// let size = Bytes::from_kib(100);
/// let slot = ledger
///     .earliest_transfer(&net, l, SimTime::ZERO, size, SimTime::from_mins(10))
///     .expect("link is idle");
/// assert_eq!(slot.start, SimTime::ZERO);
/// ledger.commit_transfer(&net, l, slot.start, size, SimTime::from_mins(10)).unwrap();
/// // The link is now busy for the duration of that transfer.
/// let next = ledger
///     .earliest_transfer(&net, l, SimTime::ZERO, size, SimTime::from_mins(10))
///     .unwrap();
/// assert_eq!(next.start, slot.arrival);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkLedger {
    links: Vec<BusyIntervals>,
    stores: Vec<CapacityTimeline>,
}

impl NetworkLedger {
    /// Creates a ledger with all links idle and all machines empty.
    #[must_use]
    pub fn new(network: &Network) -> Self {
        NetworkLedger {
            links: vec![BusyIntervals::new(); network.link_count()],
            stores: network
                .machines()
                .map(|m| CapacityTimeline::new(m.machine.capacity()))
                .collect(),
        }
    }

    /// The busy intervals of a link.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for the ledger's network.
    #[must_use]
    pub fn link_busy(&self, id: VirtualLinkId) -> &BusyIntervals {
        &self.links[id.index()]
    }

    /// The storage timeline of a machine.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for the ledger's network.
    #[must_use]
    pub fn store(&self, id: MachineId) -> &CapacityTimeline {
        &self.stores[id.index()]
    }

    /// The earliest feasible slot for sending `size` bytes over `link`,
    /// starting no earlier than `ready`, such that:
    ///
    /// 1. the whole transfer fits inside the link's availability window,
    /// 2. the link is idle for the whole transfer,
    /// 3. the receiving machine can hold `size` extra bytes from the
    ///    transfer start until `hold_until`, and
    /// 4. the transfer completes by `hold_until` (otherwise the copy would
    ///    be garbage-collected before it even arrives).
    ///
    /// Returns `None` when no such slot exists.
    #[must_use]
    pub fn earliest_transfer(
        &self,
        network: &Network,
        link: VirtualLinkId,
        ready: SimTime,
        size: Bytes,
        hold_until: SimTime,
    ) -> Option<TransferSlot> {
        dstage_obs::metrics::RESOURCES_PROBES.inc();
        let vl: &VirtualLink = network.link(link);
        let duration = vl.transfer_time(size);
        let busy = &self.links[link.index()];
        let store = &self.stores[vl.destination().index()];
        // Latest permissible completion: window end and hold deadline.
        let limit = vl.end().min(hold_until);
        let mut candidate = ready.max(vl.start());
        loop {
            let start = busy.earliest_gap(candidate, duration, limit)?;
            // Safe unchecked add (audited): `earliest_gap` only returns
            // starts whose checked `start + duration` fits below `limit`.
            let arrival = start + duration;
            // The copy occupies the receiver from transfer start to its
            // hold deadline (at least through arrival).
            let hold_end = hold_until.max(arrival);
            let storage_start = store.earliest_hold_start(size, start, hold_end)?;
            if storage_start == start {
                return Some(TransferSlot { start, arrival });
            }
            debug_assert!(storage_start > start);
            dstage_obs::metrics::RESOURCES_PROBE_RESTARTS.inc();
            candidate = storage_start;
        }
    }

    /// The latest feasible slot for sending `size` bytes over `link` —
    /// the time-reversal mirror of [`NetworkLedger::earliest_transfer`],
    /// under the same four feasibility conditions plus a caller-supplied
    /// completion bound `arrival_by` (a request deadline, or the start of
    /// the next hop in a backward-chained path). As-late-as-possible
    /// placement reserves close to that bound, leaving the link's early
    /// capacity free for later-arriving requests.
    ///
    /// Returns `None` when no feasible slot exists at or after `ready`.
    #[must_use]
    pub fn latest_transfer(
        &self,
        network: &Network,
        link: VirtualLinkId,
        ready: SimTime,
        size: Bytes,
        arrival_by: SimTime,
        hold_until: SimTime,
    ) -> Option<TransferSlot> {
        dstage_obs::metrics::RESOURCES_PROBES.inc();
        let vl: &VirtualLink = network.link(link);
        let duration = vl.transfer_time(size);
        let busy = &self.links[link.index()];
        let store = &self.stores[vl.destination().index()];
        let ready = ready.max(vl.start());
        // Latest permissible completion: window end, the caller's bound,
        // and the hold deadline (arriving later means GC on arrival).
        let limit = vl.end().min(arrival_by).min(hold_until);
        let start = busy.latest_gap(ready, duration, limit)?;
        // Safe unchecked add (audited): `latest_gap` only returns starts
        // whose checked `start + duration` fits below `limit`.
        let arrival = start + duration;
        // `arrival <= limit <= hold_until`, so the hold span always ends
        // at `hold_until` — moving the start earlier only widens it.
        // Storage feasibility is therefore monotone: if the latest link
        // start does not fit, no earlier one can, and there is no restart
        // loop to run (unlike `earliest_transfer`, where later starts
        // shrink the span).
        let hold_end = hold_until.max(arrival);
        store.can_hold(size, start, hold_end).then_some(TransferSlot { start, arrival })
    }

    /// Commits a transfer previously found feasible: marks the link busy
    /// for `[start, arrival)` and reserves storage on the receiving machine
    /// for `[start, max(hold_until, arrival))`.
    ///
    /// Returns the committed slot.
    ///
    /// # Errors
    ///
    /// Returns a [`CommitError`] (leaving the ledger unchanged) when the
    /// slot violates the window, overlaps link reservations, misses the
    /// hold deadline, or does not fit in storage.
    pub fn commit_transfer(
        &mut self,
        network: &Network,
        link: VirtualLinkId,
        start: SimTime,
        size: Bytes,
        hold_until: SimTime,
    ) -> Result<TransferSlot, CommitError> {
        let vl: &VirtualLink = network.link(link);
        let duration = vl.transfer_time(size);
        // Checked, not unchecked (audit fix): commit takes a caller-supplied
        // `start`, so `start + duration` can exceed SimTime::MAX. A wrapped
        // (release) or saturated arrival could falsely pass `arrival <=
        // vl.end()` for an open-ended window and commit a transfer whose
        // true completion lies beyond the representable horizon.
        let Some(arrival) = start.checked_add(duration) else {
            return Err(CommitError::OutsideWindow { link });
        };
        if start < vl.start() || arrival > vl.end() {
            return Err(CommitError::OutsideWindow { link });
        }
        if arrival > hold_until {
            return Err(CommitError::ArrivesAfterHoldDeadline { arrival, hold_until });
        }
        let dest = vl.destination();
        let hold_end = hold_until.max(arrival);
        if !self.stores[dest.index()].can_hold(size, start, hold_end) {
            return Err(CommitError::StorageFull { machine: dest });
        }
        if !duration.is_zero() {
            self.links[link.index()]
                .reserve(start, arrival)
                .map_err(|_| CommitError::LinkBusy { link })?;
        }
        self.stores[dest.index()]
            .reserve(size, start, hold_end)
            .expect("checked with can_hold above");
        dstage_obs::metrics::RESOURCES_COMMITS.inc();
        Ok(TransferSlot { start, arrival })
    }

    /// Takes a committed transfer back: frees the link over `[start,
    /// arrival)` and the receiving machine's storage over `[start,
    /// hold_until)` — the exact inverse of the
    /// [`NetworkLedger::commit_transfer`] with the same arguments, for a
    /// caller that withdraws a plan it has just made.
    ///
    /// # Panics
    ///
    /// Panics if no such transfer is booked on the link.
    pub fn release_transfer(
        &mut self,
        network: &Network,
        link: VirtualLinkId,
        start: SimTime,
        size: Bytes,
        hold_until: SimTime,
    ) {
        let vl: &VirtualLink = network.link(link);
        let duration = vl.transfer_time(size);
        let arrival = start + duration;
        if !duration.is_zero() {
            self.links[link.index()].release(start, arrival);
        }
        self.stores[vl.destination().index()].release(size, start, hold_until.max(arrival));
    }

    /// Reserves storage on a machine without a transfer — used for initial
    /// source copies and for extending a destination's hold.
    ///
    /// Unlike [`CapacityTimeline::reserve`], this *forces* the reservation
    /// even when it exceeds capacity: initial data placement is exogenous
    /// (the scheduler "does not remove a data item from any of its
    /// sources", §3), so an over-full source simply has no spare staging
    /// room rather than being an error.
    pub fn force_storage(
        &mut self,
        machine: MachineId,
        size: Bytes,
        from: SimTime,
        until: SimTime,
    ) {
        let store = &mut self.stores[machine.index()];
        if store.reserve(size, from, until).is_err() {
            store.force_reserve(size, from, until);
        }
    }

    /// Reserves storage on a machine, failing if capacity is exceeded.
    ///
    /// # Errors
    ///
    /// Returns [`CommitError::StorageFull`] when the bytes do not fit
    /// throughout the span.
    pub fn reserve_storage(
        &mut self,
        machine: MachineId,
        size: Bytes,
        from: SimTime,
        until: SimTime,
    ) -> Result<(), CommitError> {
        self.stores[machine.index()]
            .reserve(size, from, until)
            .map_err(|_| CommitError::StorageFull { machine })
    }

    /// Takes a storage reservation back — the inverse of
    /// [`NetworkLedger::reserve_storage`] and
    /// [`NetworkLedger::force_storage`] over the same span.
    pub fn release_storage(
        &mut self,
        machine: MachineId,
        size: Bytes,
        from: SimTime,
        until: SimTime,
    ) {
        self.stores[machine.index()].release(size, from, until);
    }

    /// Makes a link unusable over `[from, to)` regardless of its window —
    /// existing reservations inside the span are left in place and the
    /// remaining free time is blanket-reserved. Used by the dynamic layer
    /// for link outages and for blocking the past when re-planning
    /// mid-horizon.
    pub fn block_link(&mut self, link: VirtualLinkId, from: SimTime, to: SimTime) {
        self.links[link.index()].blanket_reserve(from, to);
    }

    /// Blocks every link's remaining free time before `now` so no new
    /// transfer can start in the past.
    pub fn block_past(&mut self, now: SimTime) {
        for busy in &mut self.links {
            busy.blanket_reserve(SimTime::ZERO, now);
        }
    }

    /// The total busy time across all links, a utilization diagnostic.
    ///
    /// Saturating is sound here (audited): the value is reported, never
    /// compared against a feasibility bound, so saturation cannot admit
    /// anything.
    #[must_use]
    pub fn total_link_busy(&self) -> SimDuration {
        self.links.iter().fold(SimDuration::ZERO, |acc, b| acc.saturating_add(b.total_busy()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstage_model::machine::Machine;
    use dstage_model::network::NetworkBuilder;
    use dstage_model::units::BitsPerSec;

    /// a --L0--> c with 1 byte/ms bandwidth, window [0, 100s), 1 MiB stores.
    fn simple_net() -> (Network, VirtualLinkId) {
        let mut b = NetworkBuilder::new();
        let a = b.add_machine(Machine::new("a", Bytes::from_mib(1)));
        let c = b.add_machine(Machine::new("c", Bytes::from_mib(1)));
        let l = b.add_link(VirtualLink::new(
            a,
            c,
            SimTime::ZERO,
            SimTime::from_secs(100),
            BitsPerSec::new(8_000),
        ));
        (b.build(), l)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn idle_link_gives_immediate_slot() {
        let (net, l) = simple_net();
        let ledger = NetworkLedger::new(&net);
        let slot =
            ledger.earliest_transfer(&net, l, t(0), Bytes::new(5_000), SimTime::MAX).unwrap();
        assert_eq!(slot.start, t(0));
        assert_eq!(slot.arrival, t(5));
    }

    #[test]
    fn ready_time_is_respected() {
        let (net, l) = simple_net();
        let ledger = NetworkLedger::new(&net);
        let slot =
            ledger.earliest_transfer(&net, l, t(30), Bytes::new(1_000), SimTime::MAX).unwrap();
        assert_eq!(slot.start, t(30));
    }

    #[test]
    fn window_start_delays_transfer() {
        let mut b = NetworkBuilder::new();
        let a = b.add_machine(Machine::new("a", Bytes::from_mib(1)));
        let c = b.add_machine(Machine::new("c", Bytes::from_mib(1)));
        let l = b.add_link(VirtualLink::new(a, c, t(50), t(100), BitsPerSec::new(8_000)));
        let net = b.build();
        let ledger = NetworkLedger::new(&net);
        let slot =
            ledger.earliest_transfer(&net, l, t(0), Bytes::new(1_000), SimTime::MAX).unwrap();
        assert_eq!(slot.start, t(50));
        assert_eq!(slot.arrival, t(51));
    }

    #[test]
    fn transfer_must_fit_window() {
        let (net, l) = simple_net();
        let ledger = NetworkLedger::new(&net);
        // 100_001 bytes needs 100.001 s > 100 s window.
        assert!(ledger
            .earliest_transfer(&net, l, t(0), Bytes::new(100_001), SimTime::MAX)
            .is_none());
        // Exactly 100_000 bytes fits.
        let slot =
            ledger.earliest_transfer(&net, l, t(0), Bytes::new(100_000), SimTime::MAX).unwrap();
        assert_eq!(slot.arrival, t(100));
    }

    #[test]
    fn latest_transfer_hugs_the_deadline() {
        let (net, l) = simple_net();
        let mut ledger = NetworkLedger::new(&net);
        let size = Bytes::new(10_000); // 10 s on the link
        let slot = ledger.latest_transfer(&net, l, t(0), size, t(60), SimTime::MAX).unwrap();
        assert_eq!(slot.start, t(50));
        assert_eq!(slot.arrival, t(60));
        // The window end caps the search when the bounds are open.
        let slot = ledger.latest_transfer(&net, l, t(0), size, SimTime::MAX, SimTime::MAX).unwrap();
        assert_eq!(slot.arrival, t(100));
        // Commit must agree with the probe, and the next latest slot
        // lands right before it.
        ledger.commit_transfer(&net, l, slot.start, size, SimTime::MAX).unwrap();
        let next = ledger.latest_transfer(&net, l, t(0), size, SimTime::MAX, SimTime::MAX).unwrap();
        assert_eq!(next.arrival, t(90));
    }

    #[test]
    fn latest_transfer_respects_ready_and_storage() {
        let (net, l) = simple_net();
        let mut ledger = NetworkLedger::new(&net);
        let size = Bytes::new(10_000);
        // Ready after the only feasible start.
        assert!(ledger.latest_transfer(&net, l, t(95), size, SimTime::MAX, SimTime::MAX).is_none());
        // Destination store blocked from t=40 on: every candidate's hold
        // span reaches the t=90 hold deadline through the blockage, so no
        // slot exists at all...
        let dest = MachineId::new(1);
        ledger.force_storage(dest, Bytes::from_mib(1), t(40), t(200));
        assert!(ledger.latest_transfer(&net, l, t(0), size, t(90), t(90)).is_none());
        // ... while a hold deadline before the blockage still works.
        let slot = ledger.latest_transfer(&net, l, t(0), size, t(39), t(39)).unwrap();
        assert_eq!(slot.arrival, t(39));
        // An arrival bound tighter than the hold deadline is honoured on
        // its own: the hold span may extend past the bound.
        let slot = ledger.latest_transfer(&net, l, t(0), size, t(30), t(39)).unwrap();
        assert_eq!(slot.arrival, t(30));
    }

    #[test]
    fn commit_near_time_max_rejects_overflowing_arrival() {
        // Regression: with an open-ended window (end = SimTime::MAX) and a
        // caller-supplied start near SimTime::MAX, `start + duration` used
        // to wrap (release) or panic (debug), and a wrapped arrival could
        // falsely pass the `arrival <= vl.end()` window check.
        let mut b = NetworkBuilder::new();
        let a = b.add_machine(Machine::new("a", Bytes::from_mib(1)));
        let c = b.add_machine(Machine::new("c", Bytes::from_mib(1)));
        let l =
            b.add_link(VirtualLink::new(a, c, SimTime::ZERO, SimTime::MAX, BitsPerSec::new(8_000)));
        let net = b.build();
        let mut ledger = NetworkLedger::new(&net);
        // 5_000 bytes takes 5 s on this link; a start 1 ms before MAX
        // cannot complete inside representable time.
        let start = SimTime::from_millis(u64::MAX - 1);
        let err = ledger.commit_transfer(&net, l, start, Bytes::new(5_000), SimTime::MAX);
        assert!(matches!(err, Err(CommitError::OutsideWindow { .. })));
        // A start that exactly reaches MAX still commits.
        let start = SimTime::from_millis(u64::MAX - 5_000);
        let slot = ledger.commit_transfer(&net, l, start, Bytes::new(5_000), SimTime::MAX).unwrap();
        assert_eq!(slot.arrival, SimTime::MAX);
    }

    #[test]
    fn committed_transfers_serialize_on_link() {
        let (net, l) = simple_net();
        let mut ledger = NetworkLedger::new(&net);
        let size = Bytes::new(10_000); // 10 s
        let s1 = ledger.earliest_transfer(&net, l, t(0), size, SimTime::MAX).unwrap();
        ledger.commit_transfer(&net, l, s1.start, size, SimTime::MAX).unwrap();
        let s2 = ledger.earliest_transfer(&net, l, t(0), size, SimTime::MAX).unwrap();
        assert_eq!(s2.start, t(10));
        ledger.commit_transfer(&net, l, s2.start, size, SimTime::MAX).unwrap();
        // A third one ready at t=5 starts at 20.
        let s3 = ledger.earliest_transfer(&net, l, t(5), size, SimTime::MAX).unwrap();
        assert_eq!(s3.start, t(20));
    }

    #[test]
    fn release_transfer_undoes_a_commit() {
        let (net, l) = simple_net();
        let mut ledger = NetworkLedger::new(&net);
        let size = Bytes::new(10_000);
        ledger.commit_transfer(&net, l, t(0), size, t(90)).unwrap();
        let before = ledger.clone();
        let slot = ledger.commit_transfer(&net, l, t(10), size, t(60)).unwrap();
        assert_ne!(ledger, before);
        ledger.release_transfer(&net, l, slot.start, size, t(60));
        assert_eq!(ledger, before);
    }

    #[test]
    fn commit_rejects_overlap() {
        let (net, l) = simple_net();
        let mut ledger = NetworkLedger::new(&net);
        let size = Bytes::new(10_000);
        ledger.commit_transfer(&net, l, t(0), size, SimTime::MAX).unwrap();
        let err = ledger.commit_transfer(&net, l, t(5), size, SimTime::MAX).unwrap_err();
        assert_eq!(err, CommitError::LinkBusy { link: l });
    }

    #[test]
    fn commit_rejects_window_violation() {
        let (net, l) = simple_net();
        let mut ledger = NetworkLedger::new(&net);
        let err =
            ledger.commit_transfer(&net, l, t(95), Bytes::new(10_000), SimTime::MAX).unwrap_err();
        assert_eq!(err, CommitError::OutsideWindow { link: l });
    }

    #[test]
    fn commit_rejects_late_arrival_against_hold_deadline() {
        let (net, l) = simple_net();
        let mut ledger = NetworkLedger::new(&net);
        let err = ledger.commit_transfer(&net, l, t(0), Bytes::new(10_000), t(9)).unwrap_err();
        assert!(matches!(err, CommitError::ArrivesAfterHoldDeadline { .. }));
    }

    #[test]
    fn storage_contention_delays_slot() {
        let (net, l) = simple_net();
        let mut ledger = NetworkLedger::new(&net);
        let dest = MachineId::new(1);
        // Fill the destination store until t=40.
        ledger.reserve_storage(dest, Bytes::from_mib(1), t(0), t(40)).unwrap();
        let slot = ledger.earliest_transfer(&net, l, t(0), Bytes::new(1_000), t(90)).unwrap();
        assert_eq!(slot.start, t(40));
    }

    #[test]
    fn storage_blocked_past_window_is_none() {
        let (net, l) = simple_net();
        let mut ledger = NetworkLedger::new(&net);
        let dest = MachineId::new(1);
        // Destination full until after the link window closes.
        ledger.force_storage(dest, Bytes::from_mib(1), t(0), t(200));
        assert!(ledger.earliest_transfer(&net, l, t(0), Bytes::new(1_000), SimTime::MAX).is_none());
    }

    #[test]
    fn hold_deadline_limits_slot_search() {
        let (net, l) = simple_net();
        let ledger = NetworkLedger::new(&net);
        // 10 s transfer must complete by hold_until.
        assert!(ledger.earliest_transfer(&net, l, t(0), Bytes::new(10_000), t(9)).is_none());
        let slot = ledger.earliest_transfer(&net, l, t(0), Bytes::new(10_000), t(10)).unwrap();
        assert_eq!(slot.arrival, t(10));
    }

    #[test]
    fn earliest_transfer_alternates_link_and_storage_constraints() {
        let (net, l) = simple_net();
        let mut ledger = NetworkLedger::new(&net);
        let dest = MachineId::new(1);
        let size = Bytes::new(10_000); // 10 s on the link
                                       // Link busy [0, 15); storage blocked [15, 30).
        ledger.commit_transfer(&net, l, t(0), Bytes::new(15_000), SimTime::MAX).unwrap();
        ledger
            .reserve_storage(
                dest,
                Bytes::from_mib(1).saturating_sub(Bytes::new(15_000)),
                t(15),
                t(30),
            )
            .unwrap();
        let slot = ledger.earliest_transfer(&net, l, t(0), size, SimTime::MAX).unwrap();
        assert_eq!(slot.start, t(30));
        // Commit must agree with the probe.
        ledger.commit_transfer(&net, l, slot.start, size, SimTime::MAX).unwrap();
    }

    #[test]
    fn force_storage_allows_overcommit() {
        let (net, _) = simple_net();
        let mut ledger = NetworkLedger::new(&net);
        let m = MachineId::new(0);
        // Twice the capacity: must not panic, and the machine reads full.
        ledger.force_storage(m, Bytes::from_mib(2), t(0), t(100));
        assert!(!ledger.store(m).can_hold(Bytes::new(1), t(0), t(1)));
    }

    #[test]
    fn total_link_busy_accumulates() {
        let (net, l) = simple_net();
        let mut ledger = NetworkLedger::new(&net);
        assert_eq!(ledger.total_link_busy(), SimDuration::ZERO);
        ledger.commit_transfer(&net, l, t(0), Bytes::new(10_000), SimTime::MAX).unwrap();
        assert_eq!(ledger.total_link_busy(), SimDuration::from_secs(10));
    }
}
