//! Events of an online data staging run.
//!
//! The paper's static formulation assumes "all parameter values ... stay
//! fixed throughout the scheduling process" and names the dynamic
//! extension — ad-hoc requests, changing link availability, lost copies —
//! as the next step (§1, §6). This module models those three disturbance
//! kinds; [`crate::simulate()`] replays them against a re-planning scheduler.

use serde::{Deserialize, Serialize};

use dstage_model::ids::{DataItemId, MachineId, RequestId, VirtualLinkId};
use dstage_model::scenario::Scenario;
use dstage_model::time::SimTime;

/// What happens at an event instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// A request becomes known to the scheduler (an ad-hoc request).
    /// Requests without a release event are known from time 0.
    Release(RequestId),
    /// A virtual link goes down for the remainder of its window; any
    /// transfer still in flight on it is lost.
    LinkOutage(VirtualLinkId),
    /// The copy of an item held at a machine is lost (crash, storage
    /// fault). In-progress and future transfers sourced from that copy
    /// fail; requests delivered by it and still before their deadline
    /// become pending again.
    CopyLoss {
        /// The item whose copy vanishes.
        item: DataItemId,
        /// The machine losing it.
        machine: MachineId,
    },
}

/// One timestamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Event {
    /// When the event takes effect.
    pub at: SimTime,
    /// What happens.
    pub kind: EventKind,
}

impl Event {
    /// Creates an event.
    #[must_use]
    pub fn new(at: SimTime, kind: EventKind) -> Self {
        Event { at, kind }
    }
}

/// A validated, time-sorted list of events.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventLog {
    events: Vec<Event>,
}

/// Validation errors for an [`EventLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventError {
    /// An event references a request id outside the scenario.
    UnknownRequest(RequestId),
    /// An event references a link id outside the network.
    UnknownLink(VirtualLinkId),
    /// An event references an item id outside the scenario.
    UnknownItem(DataItemId),
    /// An event references a machine id outside the network.
    UnknownMachine(MachineId),
    /// The same request has two release events.
    DuplicateRelease(RequestId),
}

impl core::fmt::Display for EventError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EventError::UnknownRequest(r) => write!(f, "event references unknown request {r}"),
            EventError::UnknownLink(l) => write!(f, "event references unknown link {l}"),
            EventError::UnknownItem(i) => write!(f, "event references unknown item {i}"),
            EventError::UnknownMachine(m) => write!(f, "event references unknown machine {m}"),
            EventError::DuplicateRelease(r) => write!(f, "request {r} released twice"),
        }
    }
}

impl std::error::Error for EventError {}

impl EventLog {
    /// Builds a validated log from unordered events.
    ///
    /// # Errors
    ///
    /// Returns an [`EventError`] when an event references an id outside
    /// the scenario or a request is released twice.
    pub fn new(scenario: &Scenario, mut events: Vec<Event>) -> Result<Self, EventError> {
        let mut released = vec![false; scenario.request_count()];
        for e in &events {
            match e.kind {
                EventKind::Release(r) => {
                    if r.index() >= scenario.request_count() {
                        return Err(EventError::UnknownRequest(r));
                    }
                    if released[r.index()] {
                        return Err(EventError::DuplicateRelease(r));
                    }
                    released[r.index()] = true;
                }
                EventKind::LinkOutage(l) => {
                    if l.index() >= scenario.network().link_count() {
                        return Err(EventError::UnknownLink(l));
                    }
                }
                EventKind::CopyLoss { item, machine } => {
                    if item.index() >= scenario.item_count() {
                        return Err(EventError::UnknownItem(item));
                    }
                    if machine.index() >= scenario.network().machine_count() {
                        return Err(EventError::UnknownMachine(machine));
                    }
                }
            }
        }
        events.sort_by_key(|e| e.at);
        Ok(EventLog { events })
    }

    /// The events in time order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// `true` when the log is empty (the run degenerates to the static
    /// scheduler).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The distinct event instants, ascending.
    #[must_use]
    pub fn boundaries(&self) -> Vec<SimTime> {
        let mut times: Vec<SimTime> = self.events.iter().map(|e| e.at).collect();
        times.dedup();
        times
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstage_workload::small::two_hop_chain;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn log_sorts_and_reports_boundaries() {
        let s = two_hop_chain();
        let log = EventLog::new(
            &s,
            vec![
                Event::new(t(50), EventKind::LinkOutage(VirtualLinkId::new(0))),
                Event::new(t(10), EventKind::Release(RequestId::new(1))),
                Event::new(t(50), EventKind::Release(RequestId::new(2))),
            ],
        )
        .unwrap();
        assert_eq!(log.events()[0].at, t(10));
        assert_eq!(log.boundaries(), vec![t(10), t(50)]);
        assert!(!log.is_empty());
    }

    #[test]
    fn unknown_ids_rejected() {
        let s = two_hop_chain();
        assert!(matches!(
            EventLog::new(&s, vec![Event::new(t(1), EventKind::Release(RequestId::new(99)))]),
            Err(EventError::UnknownRequest(_))
        ));
        assert!(matches!(
            EventLog::new(
                &s,
                vec![Event::new(t(1), EventKind::LinkOutage(VirtualLinkId::new(99)))]
            ),
            Err(EventError::UnknownLink(_))
        ));
        assert!(matches!(
            EventLog::new(
                &s,
                vec![Event::new(
                    t(1),
                    EventKind::CopyLoss { item: DataItemId::new(9), machine: MachineId::new(0) }
                )]
            ),
            Err(EventError::UnknownItem(_))
        ));
        assert!(matches!(
            EventLog::new(
                &s,
                vec![Event::new(
                    t(1),
                    EventKind::CopyLoss { item: DataItemId::new(0), machine: MachineId::new(42) }
                )]
            ),
            Err(EventError::UnknownMachine(_))
        ));
    }

    #[test]
    fn duplicate_release_rejected() {
        let s = two_hop_chain();
        let err = EventLog::new(
            &s,
            vec![
                Event::new(t(1), EventKind::Release(RequestId::new(0))),
                Event::new(t(2), EventKind::Release(RequestId::new(0))),
            ],
        )
        .unwrap_err();
        assert_eq!(err, EventError::DuplicateRelease(RequestId::new(0)));
    }

    #[test]
    fn empty_log_is_empty() {
        let s = two_hop_chain();
        let log = EventLog::new(&s, vec![]).unwrap();
        assert!(log.is_empty());
        assert!(log.boundaries().is_empty());
    }
}
