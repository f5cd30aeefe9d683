//! Communication schedules and their evaluation.
//!
//! A [`Schedule`] is the output of every heuristic: an ordered list of
//! committed transfers plus the resulting deliveries. [`Evaluation`]
//! computes the paper's global criterion — the weighted sum of priorities
//! of satisfied requests (the negated effect `E[S_h]`, §3) — along with
//! per-priority-class counts used by the §5.4 comparisons.
//!
//! [`Schedule::validate`] independently replays a schedule against a fresh
//! resource ledger, re-deriving copy availability, and rejects any
//! schedule that violates the model. The test suites run every heuristic's
//! output through it.

use serde::{Deserialize, Serialize};

use dstage_model::ids::{DataItemId, MachineId, RequestId, VirtualLinkId};
use dstage_model::request::PriorityWeights;
use dstage_model::scenario::Scenario;
use dstage_model::time::SimTime;
use dstage_path::Hop;
use dstage_resources::ledger::NetworkLedger;

/// One committed point-to-point communication step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Transfer {
    /// The data item moved.
    pub item: DataItemId,
    /// Sending machine (holds a copy before `start`).
    pub from: MachineId,
    /// Receiving machine (holds a copy from `arrival`).
    pub to: MachineId,
    /// The virtual link used.
    pub link: VirtualLinkId,
    /// Link occupancy start.
    pub start: SimTime,
    /// Completion; the copy is available at `to` from this time.
    pub arrival: SimTime,
}

impl Transfer {
    /// The transfer of `item` along `hop`.
    #[must_use]
    pub fn along(item: DataItemId, hop: Hop) -> Self {
        let Hop { from, to, link, start, arrival } = hop;
        Transfer { item, from, to, link, start, arrival }
    }
}

/// A delivery: the moment a request's destination first held the item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Delivery {
    /// The satisfied request.
    pub request: RequestId,
    /// When the item became available at the destination.
    pub at: SimTime,
    /// Number of hops on the path that completed this delivery (a
    /// diagnostic for the links-traversed statistic; 0 when unknown).
    pub hops: u32,
}

/// The outcome of one scheduling run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    transfers: Vec<Transfer>,
    deliveries: Vec<Delivery>,
}

impl Schedule {
    /// Creates a schedule from raw parts.
    ///
    /// Intended for schedulers; library users normally obtain schedules
    /// from the heuristics and only read them.
    #[must_use]
    pub fn from_parts(transfers: Vec<Transfer>, deliveries: Vec<Delivery>) -> Self {
        Schedule { transfers, deliveries }
    }

    /// The committed transfers, in commit order.
    #[must_use]
    pub fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }

    /// The satisfied requests with their delivery times.
    #[must_use]
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// Whether `request` was satisfied, and when.
    #[must_use]
    pub fn delivery_of(&self, request: RequestId) -> Option<Delivery> {
        self.deliveries.iter().copied().find(|d| d.request == request)
    }

    /// Evaluates the schedule under a priority weighting: the paper's
    /// global optimization criterion and per-class breakdowns.
    #[must_use]
    pub fn evaluate(&self, scenario: &Scenario, weights: &PriorityWeights) -> Evaluation {
        let levels = weights.levels() as usize;
        let mut satisfied_by_priority = vec![0u64; levels];
        let mut total_by_priority = vec![0u64; levels];
        let mut weighted_sum = 0u64;
        let mut total_hops = 0u64;
        for (_, req) in scenario.requests() {
            total_by_priority[req.priority().level() as usize] += 1;
        }
        for d in &self.deliveries {
            let req = scenario.request(d.request);
            let level = req.priority().level() as usize;
            satisfied_by_priority[level] += 1;
            weighted_sum += weights.weight(req.priority());
            total_hops += u64::from(d.hops);
        }
        let satisfied_count: u64 = satisfied_by_priority.iter().sum();
        Evaluation {
            weighted_sum,
            satisfied_count,
            request_count: scenario.request_count() as u64,
            satisfied_by_priority,
            total_by_priority,
            mean_hops_per_delivery: if satisfied_count == 0 {
                0.0
            } else {
                total_hops as f64 / satisfied_count as f64
            },
        }
    }

    /// Independently replays the schedule against a fresh ledger and
    /// checks every model constraint; returns the deliveries the replay
    /// derives (which must cover the schedule's claimed deliveries).
    ///
    /// Checked constraints:
    /// 1. every transfer's link matches its `from`/`to` machines;
    /// 2. transfers fit their link's availability window and never overlap
    ///    on the same virtual link;
    /// 3. the sending machine holds a copy of the item no later than the
    ///    transfer's start;
    /// 4. arrival equals start plus the link's transfer time;
    /// 5. receiving machines can store the item through its hold deadline
    ///    (GC time for intermediates, horizon for requesting destinations);
    /// 6. every claimed delivery is backed by a copy at the destination no
    ///    later than the claimed time, within the deadline.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScheduleViolation`] encountered.
    pub fn validate(&self, scenario: &Scenario) -> Result<Vec<Delivery>, ScheduleViolation> {
        let network = scenario.network();
        let mut ledger = NetworkLedger::new(network);
        // copies[item][machine] = earliest availability there.
        let m = network.machine_count();
        let mut copies: Vec<Vec<Option<SimTime>>> = vec![vec![None; m]; scenario.item_count()];
        for (item_id, item) in scenario.items() {
            for src in item.sources() {
                copies[item_id.index()][src.machine.index()] = Some(src.available_at);
                ledger.force_storage(
                    src.machine,
                    item.size(),
                    src.available_at,
                    scenario.horizon(),
                );
            }
        }
        // Destination set per item, for hold policy.
        let is_destination = |item: DataItemId, machine: MachineId| {
            scenario
                .requests_for(item)
                .iter()
                .any(|&r| scenario.request(r).destination() == machine)
        };

        let mut ordered: Vec<&Transfer> = self.transfers.iter().collect();
        ordered.sort_by_key(|t| (t.start, t.link));
        for t in ordered {
            if t.item.index() >= scenario.item_count() {
                return Err(ScheduleViolation::UnknownItem { transfer: *t });
            }
            let link = if t.link.index() < network.link_count() {
                network.link(t.link)
            } else {
                return Err(ScheduleViolation::UnknownLink { transfer: *t });
            };
            if link.source() != t.from || link.destination() != t.to {
                return Err(ScheduleViolation::EndpointMismatch { transfer: *t });
            }
            let item = scenario.item(t.item);
            let expected_arrival = t.start + link.transfer_time(item.size());
            if expected_arrival != t.arrival {
                return Err(ScheduleViolation::WrongArrival {
                    transfer: *t,
                    expected: expected_arrival,
                });
            }
            match copies[t.item.index()][t.from.index()] {
                Some(avail) if avail <= t.start => {}
                _ => return Err(ScheduleViolation::SourceMissingCopy { transfer: *t }),
            }
            let hold_until = if is_destination(t.item, t.to) {
                scenario.horizon()
            } else {
                scenario.gc_time(t.item).unwrap_or(scenario.horizon())
            };
            ledger.commit_transfer(network, t.link, t.start, item.size(), hold_until).map_err(
                |source| ScheduleViolation::ResourceConflict {
                    transfer: *t,
                    reason: source.to_string(),
                },
            )?;
            let slot = &mut copies[t.item.index()][t.to.index()];
            if slot.is_none_or(|existing| t.arrival < existing) {
                *slot = Some(t.arrival);
            }
        }

        // Derive deliveries from replayed copies.
        let mut derived = Vec::new();
        for (req_id, req) in scenario.requests() {
            if let Some(at) = copies[req.item().index()][req.destination().index()] {
                if at <= req.deadline() {
                    derived.push(Delivery { request: req_id, at, hops: 0 });
                }
            }
        }
        // Every claimed delivery must be backed by the replay.
        for claimed in &self.deliveries {
            let Some(backing) = derived.iter().find(|d| d.request == claimed.request) else {
                return Err(ScheduleViolation::UnbackedDelivery { delivery: *claimed });
            };
            if backing.at > claimed.at {
                return Err(ScheduleViolation::UnbackedDelivery { delivery: *claimed });
            }
        }
        Ok(derived)
    }
}

/// Aggregate quality measures of a schedule under a priority weighting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// The paper's objective: Σ `W[Priority[j,k]]` over satisfied requests.
    pub weighted_sum: u64,
    /// Number of satisfied requests.
    pub satisfied_count: u64,
    /// Total number of requests in the scenario.
    pub request_count: u64,
    /// Satisfied requests per priority level (index = level).
    pub satisfied_by_priority: Vec<u64>,
    /// All requests per priority level (index = level).
    pub total_by_priority: Vec<u64>,
    /// Mean hops per satisfied request (the links-traversed statistic);
    /// 0 when hop counts were not recorded.
    pub mean_hops_per_delivery: f64,
}

impl Evaluation {
    /// Fraction of requests satisfied.
    #[must_use]
    pub fn satisfaction_rate(&self) -> f64 {
        if self.request_count == 0 {
            return 1.0;
        }
        self.satisfied_count as f64 / self.request_count as f64
    }
}

/// A model violation found by [`Schedule::validate`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScheduleViolation {
    /// The transfer references an item outside the scenario.
    UnknownItem {
        /// The offending transfer.
        transfer: Transfer,
    },
    /// The transfer references a link outside the network.
    UnknownLink {
        /// The offending transfer.
        transfer: Transfer,
    },
    /// The transfer's machines do not match the link's endpoints.
    EndpointMismatch {
        /// The offending transfer.
        transfer: Transfer,
    },
    /// The recorded arrival is not `start + transfer_time`.
    WrongArrival {
        /// The offending transfer.
        transfer: Transfer,
        /// What the arrival should have been.
        expected: SimTime,
    },
    /// The sending machine does not hold the item at the start time.
    SourceMissingCopy {
        /// The offending transfer.
        transfer: Transfer,
    },
    /// The transfer conflicts with link windows/reservations or storage.
    ResourceConflict {
        /// The offending transfer.
        transfer: Transfer,
        /// Human-readable conflict description from the ledger.
        reason: String,
    },
    /// A claimed delivery is not explained by any replayed copy.
    UnbackedDelivery {
        /// The claimed delivery.
        delivery: Delivery,
    },
}

impl core::fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScheduleViolation::UnknownItem { transfer } => {
                write!(f, "transfer references unknown item: {transfer:?}")
            }
            ScheduleViolation::UnknownLink { transfer } => {
                write!(f, "transfer references unknown link: {transfer:?}")
            }
            ScheduleViolation::EndpointMismatch { transfer } => {
                write!(f, "transfer endpoints do not match its link: {transfer:?}")
            }
            ScheduleViolation::WrongArrival { transfer, expected } => {
                write!(f, "transfer arrival should be {expected}: {transfer:?}")
            }
            ScheduleViolation::SourceMissingCopy { transfer } => {
                write!(f, "sending machine lacks a copy at start: {transfer:?}")
            }
            ScheduleViolation::ResourceConflict { transfer, reason } => {
                write!(f, "resource conflict ({reason}): {transfer:?}")
            }
            ScheduleViolation::UnbackedDelivery { delivery } => {
                write!(f, "claimed delivery not backed by any transfer: {delivery:?}")
            }
        }
    }
}

impl std::error::Error for ScheduleViolation {}

#[cfg(test)]
mod tests {
    use super::*;
    use dstage_model::data::{DataItem, DataSource};
    use dstage_model::link::VirtualLink;
    use dstage_model::machine::Machine;
    use dstage_model::network::NetworkBuilder;
    use dstage_model::request::{Priority, Request};
    use dstage_model::units::{BitsPerSec, Bytes};

    fn m(i: u32) -> MachineId {
        MachineId::new(i)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// 0 -> 1 -> 2 line; item of 10_000 bytes at machine 0; requests at 1
    /// and 2. Links run 1 byte/ms.
    fn scenario() -> Scenario {
        let mut b = NetworkBuilder::new();
        for i in 0..3 {
            b.add_machine(Machine::new(format!("m{i}"), Bytes::from_mib(1)));
        }
        b.add_link(VirtualLink::new(
            m(0),
            m(1),
            t(0),
            SimTime::from_hours(2),
            BitsPerSec::new(8_000),
        ));
        b.add_link(VirtualLink::new(
            m(1),
            m(2),
            t(0),
            SimTime::from_hours(2),
            BitsPerSec::new(8_000),
        ));
        Scenario::builder(b.build())
            .add_item(DataItem::new("d0", Bytes::new(10_000), vec![DataSource::new(m(0), t(0))]))
            .add_request(Request::new(DataItemId::new(0), m(1), t(60), Priority::HIGH))
            .add_request(Request::new(DataItemId::new(0), m(2), t(60), Priority::LOW))
            .build()
            .unwrap()
    }

    fn good_transfers() -> Vec<Transfer> {
        vec![
            Transfer {
                item: DataItemId::new(0),
                from: m(0),
                to: m(1),
                link: VirtualLinkId::new(0),
                start: t(0),
                arrival: t(10),
            },
            Transfer {
                item: DataItemId::new(0),
                from: m(1),
                to: m(2),
                link: VirtualLinkId::new(1),
                start: t(10),
                arrival: t(20),
            },
        ]
    }

    #[test]
    fn valid_schedule_replays_and_derives_deliveries() {
        let s = scenario();
        let schedule = Schedule::from_parts(
            good_transfers(),
            vec![
                Delivery { request: RequestId::new(0), at: t(10), hops: 1 },
                Delivery { request: RequestId::new(1), at: t(20), hops: 2 },
            ],
        );
        let derived = schedule.validate(&s).unwrap();
        assert_eq!(derived.len(), 2);
        assert_eq!(derived[0].at, t(10));
        assert_eq!(derived[1].at, t(20));
    }

    #[test]
    fn evaluation_counts_weighted_sum() {
        let s = scenario();
        let schedule = Schedule::from_parts(
            good_transfers(),
            vec![
                Delivery { request: RequestId::new(0), at: t(10), hops: 1 },
                Delivery { request: RequestId::new(1), at: t(20), hops: 2 },
            ],
        );
        let w = PriorityWeights::paper_1_10_100();
        let e = schedule.evaluate(&s, &w);
        assert_eq!(e.weighted_sum, 101); // HIGH=100 + LOW=1
        assert_eq!(e.satisfied_count, 2);
        assert_eq!(e.request_count, 2);
        assert_eq!(e.satisfied_by_priority, vec![1, 0, 1]);
        assert_eq!(e.total_by_priority, vec![1, 0, 1]);
        assert!((e.mean_hops_per_delivery - 1.5).abs() < 1e-12);
        assert!((e.satisfaction_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn evaluation_of_empty_schedule() {
        let s = scenario();
        let schedule = Schedule::default();
        let e = schedule.evaluate(&s, &PriorityWeights::paper_1_5_10());
        assert_eq!(e.weighted_sum, 0);
        assert_eq!(e.satisfied_count, 0);
        assert_eq!(e.satisfaction_rate(), 0.0);
        assert_eq!(e.mean_hops_per_delivery, 0.0);
    }

    #[test]
    fn validate_rejects_missing_source_copy() {
        let s = scenario();
        // Second hop without the first: machine 1 never gets a copy.
        let schedule = Schedule::from_parts(vec![good_transfers()[1]], vec![]);
        let err = schedule.validate(&s).unwrap_err();
        assert!(matches!(err, ScheduleViolation::SourceMissingCopy { .. }));
    }

    #[test]
    fn validate_rejects_premature_start() {
        let s = scenario();
        let mut transfers = good_transfers();
        transfers[1].start = t(5); // item arrives at m1 only at t=10
        transfers[1].arrival = t(15);
        let schedule = Schedule::from_parts(transfers, vec![]);
        let err = schedule.validate(&s).unwrap_err();
        assert!(matches!(err, ScheduleViolation::SourceMissingCopy { .. }));
    }

    #[test]
    fn validate_rejects_wrong_arrival() {
        let s = scenario();
        let mut transfers = good_transfers();
        transfers[0].arrival = t(9);
        let schedule = Schedule::from_parts(transfers, vec![]);
        let err = schedule.validate(&s).unwrap_err();
        assert!(matches!(err, ScheduleViolation::WrongArrival { .. }));
    }

    #[test]
    fn validate_rejects_link_overlap() {
        let s = scenario();
        let mut transfers = good_transfers();
        // Duplicate the first transfer shifted to overlap on the same link.
        transfers.push(Transfer { start: t(5), arrival: t(15), ..transfers[0] });
        let schedule = Schedule::from_parts(transfers, vec![]);
        let err = schedule.validate(&s).unwrap_err();
        assert!(matches!(err, ScheduleViolation::ResourceConflict { .. }));
    }

    #[test]
    fn validate_rejects_endpoint_mismatch() {
        let s = scenario();
        let mut transfers = good_transfers();
        transfers[0].to = m(2); // link 0 goes to m1
        let schedule = Schedule::from_parts(transfers, vec![]);
        let err = schedule.validate(&s).unwrap_err();
        assert!(matches!(err, ScheduleViolation::EndpointMismatch { .. }));
    }

    #[test]
    fn validate_rejects_unbacked_delivery() {
        let s = scenario();
        // Claim a delivery at m2 with no transfers at all.
        let schedule = Schedule::from_parts(
            vec![],
            vec![Delivery { request: RequestId::new(1), at: t(20), hops: 2 }],
        );
        let err = schedule.validate(&s).unwrap_err();
        assert!(matches!(err, ScheduleViolation::UnbackedDelivery { .. }));
    }

    #[test]
    fn validate_ignores_late_copies_for_deliveries() {
        // Deadline 60 s; make the second hop arrive after it.
        let mut b = NetworkBuilder::new();
        for i in 0..3 {
            b.add_machine(Machine::new(format!("m{i}"), Bytes::from_mib(1)));
        }
        b.add_link(VirtualLink::new(
            m(0),
            m(1),
            t(0),
            SimTime::from_hours(2),
            BitsPerSec::new(8_000),
        ));
        b.add_link(VirtualLink::new(m(1), m(2), t(0), SimTime::from_hours(2), BitsPerSec::new(80)));
        let s = Scenario::builder(b.build())
            .add_item(DataItem::new("d0", Bytes::new(10_000), vec![DataSource::new(m(0), t(0))]))
            .add_request(Request::new(DataItemId::new(0), m(2), t(60), Priority::LOW))
            .build()
            .unwrap();
        // Second hop takes 1000 s: arrives way past the 60 s deadline.
        let schedule = Schedule::from_parts(
            vec![
                Transfer {
                    item: DataItemId::new(0),
                    from: m(0),
                    to: m(1),
                    link: VirtualLinkId::new(0),
                    start: t(0),
                    arrival: t(10),
                },
                Transfer {
                    item: DataItemId::new(0),
                    from: m(1),
                    to: m(2),
                    link: VirtualLinkId::new(1),
                    start: t(10),
                    arrival: t(1010),
                },
            ],
            vec![],
        );
        let derived = schedule.validate(&s).unwrap();
        assert!(derived.is_empty(), "late arrival must not count as delivery");
    }

    #[test]
    fn delivery_lookup() {
        let schedule = Schedule::from_parts(
            vec![],
            vec![Delivery { request: RequestId::new(3), at: t(1), hops: 1 }],
        );
        assert!(schedule.delivery_of(RequestId::new(3)).is_some());
        assert!(schedule.delivery_of(RequestId::new(4)).is_none());
    }
}
