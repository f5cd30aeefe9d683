//! The online re-planning loop.
//!
//! The scheduler plans over the whole remaining horizon at every event
//! boundary, exactly as the static heuristics do, but only the transfers
//! that *start before the next event* are executed; everything later is a
//! tentative plan that gets revised when new information arrives. This is
//! the classic rolling-horizon / re-planning pattern and matches the
//! paper's rationale for leaving stale partial paths in place: "in a
//! dynamic situation, a change in the network could allow the request to
//! be satisfied" (§4.5).
//!
//! Semantics of disturbances:
//!
//! * **Release** — a request is invisible to the scheduler before its
//!   release (it receives no resources), but copies that happen to land
//!   on its destination still satisfy it.
//! * **Link outage** — the link's remaining capacity is gone; transfers
//!   still in flight on it are lost (the receiving copy never appears).
//! * **Copy loss** — copies present at the machine at the loss instant
//!   vanish; transfers sourced from them afterwards fail, and a request
//!   that had been delivered by a lost copy becomes pending again if its
//!   deadline has not passed. A request counts as satisfied only if some
//!   copy is at its destination by the deadline *and survives to the
//!   deadline*.
//!
//! One [`LiveSchedule`] carries the whole run — the loop the live
//! admission daemon drives too. At each boundary the events are applied
//! to it in place, the previous plan's tentative tail is withdrawn, the
//! transfers the events invalidated are cancelled, and the heuristic
//! re-plans on what is left.

use dstage_core::bookings::Bookings;
use dstage_core::heuristic::{drive_state, Heuristic, HeuristicConfig};
use dstage_core::planner::Planner;
use dstage_core::schedule::{Schedule, Transfer};
use dstage_model::scenario::Scenario;
use dstage_model::time::SimTime;

use crate::event::{EventKind, EventLog};
use crate::repair::LiveSchedule;

/// Which heuristic [`simulate`] re-plans every released request with
/// ([`crate::climb_plan`] reads its commit rule and weighting only).
#[derive(Debug, Clone)]
pub struct OnlinePolicy {
    /// The heuristic driven at each re-plan.
    pub heuristic: Heuristic,
    /// Its cost-criterion configuration.
    pub config: HeuristicConfig,
}

impl OnlinePolicy {
    /// The paper's best pairing: full path/one destination +
    /// [`HeuristicConfig::paper_best`] (C4 at the operating point).
    #[must_use]
    pub fn paper_best() -> Self {
        OnlinePolicy {
            heuristic: Heuristic::FullPathOneDestination,
            config: HeuristicConfig::paper_best(),
        }
    }
}

/// The result of an online run.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// The transfers that actually executed (survived all events), plus
    /// the final deliveries under the survival semantics.
    pub executed: Schedule,
    /// Transfers that were committed and later invalidated by an outage
    /// or copy loss (wasted work — a key cost of operating online).
    pub cancelled: Vec<Transfer>,
    /// Number of planning passes (event boundaries, including time 0).
    pub replans: u64,
}

/// Runs the online simulation: re-plans at every event boundary and
/// executes the plan between boundaries.
///
/// With an empty event log this is exactly one static run of the policy's
/// heuristic.
///
/// # Panics
///
/// Panics on the full path/all destinations + `Cost₁` pairing (as for
/// the static scheduler).
#[must_use]
pub fn simulate(scenario: &Scenario, events: &EventLog, policy: &OnlinePolicy) -> OnlineOutcome {
    let mut boundaries = vec![SimTime::ZERO];
    boundaries.extend(events.boundaries());
    boundaries.dedup();

    let mut bookings = Bookings::new(scenario);
    for e in events.events() {
        if let EventKind::Release(r) = e.kind {
            bookings.set_request_active(r, false);
        }
    }
    // One planner for the whole run: what a boundary's repair moved, it
    // reads off the bookings' stamps.
    let mut planner = Planner::with_caching(&bookings, policy.config.caching);
    let mut live = LiveSchedule::new(bookings);
    // The run promises nothing along the way: its deliveries are read off
    // the executed transfers at the end.
    let promised = vec![false; scenario.request_count()];
    let mut tentative: Vec<Transfer> = Vec::new();
    let mut cancelled: Vec<Transfer> = Vec::new();

    for (i, &now) in boundaries.iter().enumerate() {
        // 1. Absorb this instant's events in place.
        for &e in events.events().iter().filter(|e| e.at == now) {
            live.apply(e);
        }
        // 2. The previous plan's tentative tail is re-planned, not kept.
        live.withdraw(&tentative);
        // 3. Cancel the executed transfers the events invalidated
        //    (cascading) and bring the touched items up to date.
        cancelled.extend(live.repair(&promised).0);
        // 4. Nothing new starts in the past.
        live.advance(now);
        debug_assert_eq!(live.divergence(), None);
        // 5. Re-plan the remaining horizon.
        drive_state(&mut planner, live.bookings_mut(), policy.heuristic, &policy.config);
        // 6. Execute the plan up to the next boundary; later transfers
        //    stay tentative.
        let next = boundaries.get(i + 1).copied();
        let (executed, later): (Vec<Transfer>, Vec<Transfer>) =
            (live.bookings_mut().take_transfers())
                .into_iter()
                .partition(|t| next.is_none_or(|boundary| t.start < boundary));
        live.commit(&executed);
        tentative = later;
    }

    OnlineOutcome { executed: live.schedule(), cancelled, replans: boundaries.len() as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use dstage_core::heuristic::run;
    use dstage_model::ids::{DataItemId, MachineId, RequestId, VirtualLinkId};
    use dstage_workload::small::{contended_link, fan_out, two_hop_chain};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn empty_event_log_matches_static_run() {
        let scenario = two_hop_chain();
        let policy = OnlinePolicy::paper_best();
        let log = EventLog::new(&scenario, vec![]).unwrap();
        let online = simulate(&scenario, &log, &policy);
        let offline = run(&scenario, policy.heuristic, &policy.config);
        assert_eq!(online.executed.transfers(), offline.schedule.transfers());
        assert_eq!(online.replans, 1);
        assert!(online.cancelled.is_empty());
        assert_eq!(online.executed.deliveries().len(), offline.schedule.deliveries().len());
    }

    #[test]
    fn late_release_still_gets_satisfied() {
        let scenario = two_hop_chain();
        let policy = OnlinePolicy::paper_best();
        // Release the m2 request for item 0 only after 2 minutes; its
        // deadline (45 min) leaves plenty of slack to re-plan.
        let log = EventLog::new(
            &scenario,
            vec![Event::new(t(120), EventKind::Release(RequestId::new(1)))],
        )
        .unwrap();
        let outcome = simulate(&scenario, &log, &policy);
        assert!(outcome.executed.delivery_of(RequestId::new(1)).is_some());
        assert_eq!(outcome.replans, 2);
    }

    #[test]
    fn outage_before_start_loses_everything_downstream() {
        let scenario = two_hop_chain();
        let policy = OnlinePolicy::paper_best();
        // Kill the only first-hop link at t=1s — before any useful volume
        // moved; everything becomes unsatisfiable except what got through.
        let log = EventLog::new(
            &scenario,
            vec![Event::new(t(1), EventKind::LinkOutage(VirtualLinkId::new(0)))],
        )
        .unwrap();
        let outcome = simulate(&scenario, &log, &policy);
        // First transfer (10 s) was in flight at t=1 and is lost.
        assert!(outcome.executed.deliveries().is_empty());
        assert!(!outcome.cancelled.is_empty(), "in-flight transfer must be cancelled");
    }

    #[test]
    fn outage_after_completion_changes_nothing() {
        let scenario = two_hop_chain();
        let policy = OnlinePolicy::paper_best();
        // The chain finishes well within 5 minutes; an outage at 30 min is
        // irrelevant.
        let log = EventLog::new(
            &scenario,
            vec![Event::new(SimTime::from_mins(30), EventKind::LinkOutage(VirtualLinkId::new(0)))],
        )
        .unwrap();
        let online = simulate(&scenario, &log, &policy);
        let offline = run(&scenario, policy.heuristic, &policy.config);
        assert_eq!(online.executed.deliveries().len(), offline.schedule.deliveries().len());
        assert!(online.cancelled.is_empty());
    }

    #[test]
    fn copy_loss_at_destination_triggers_redelivery() {
        let scenario = fan_out();
        let policy = OnlinePolicy::paper_best();
        // d1 (machine 2) receives item 0 early (~20 s); lose that copy at
        // t=60 s. Deadline is 30 min: the scheduler must redeliver from
        // the hub's retained intermediate copy (γ retention, §4.4).
        let log = EventLog::new(
            &scenario,
            vec![Event::new(
                t(60),
                EventKind::CopyLoss { item: DataItemId::new(0), machine: MachineId::new(2) },
            )],
        )
        .unwrap();
        let outcome = simulate(&scenario, &log, &policy);
        let delivery = outcome
            .executed
            .delivery_of(RequestId::new(0))
            .expect("request must be re-satisfied after the loss");
        assert!(delivery.at > t(60), "the surviving delivery must postdate the loss");
        // Both transfers into machine 2 executed: the first moved real
        // bits (the loss hit the copy afterwards, not the transfer), and
        // the re-delivery followed. Nothing was cancelled mid-flight.
        let into_d1 = outcome
            .executed
            .transfers()
            .iter()
            .filter(|tr| tr.item == DataItemId::new(0) && tr.to == MachineId::new(2))
            .count();
        assert_eq!(into_d1, 2, "original delivery + re-delivery both executed");
        assert!(outcome.cancelled.is_empty(), "no transfer was in flight at the loss");
    }

    #[test]
    fn copy_loss_after_deadline_keeps_delivery() {
        let scenario = fan_out();
        let policy = OnlinePolicy::paper_best();
        // Deadline 30 min; lose the copy at 40 min: the data was there
        // when it mattered.
        let log = EventLog::new(
            &scenario,
            vec![Event::new(
                SimTime::from_mins(40),
                EventKind::CopyLoss { item: DataItemId::new(0), machine: MachineId::new(2) },
            )],
        )
        .unwrap();
        let outcome = simulate(&scenario, &log, &policy);
        assert!(outcome.executed.delivery_of(RequestId::new(0)).is_some());
    }

    #[test]
    fn online_never_claims_more_than_offline_bounds() {
        use dstage_core::bounds::upper_bound;
        use dstage_model::request::PriorityWeights;
        let scenario = contended_link();
        let policy = OnlinePolicy::paper_best();
        let log = EventLog::new(
            &scenario,
            vec![Event::new(t(5), EventKind::LinkOutage(VirtualLinkId::new(0)))],
        )
        .unwrap();
        let outcome = simulate(&scenario, &log, &policy);
        let w = PriorityWeights::paper_1_10_100();
        let eval = outcome.executed.evaluate(&scenario, &w);
        assert!(eval.weighted_sum <= upper_bound(&scenario, &w));
    }
}
