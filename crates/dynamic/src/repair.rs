//! Schedule-repair primitives shared by the offline re-planning loop and
//! the live admission daemon.
//!
//! [`crate::simulate()`] composes these pieces at every event boundary;
//! `dstage-service` reuses them to invalidate and re-admit committed
//! promises when a disturbance is *injected* into the running daemon.
//! Keeping both callers on one implementation is what makes the service's
//! chaos invariant checkable: the daemon's post-injection state is, by
//! construction, the state an offline replay of the same disturbances
//! produces.
//!
//! The three primitives:
//!
//! * [`filter_consistent`] — split an executed/committed transfer set
//!   into the transfers still consistent with the disturbances so far and
//!   the ones they invalidate (cascading through staged copies);
//! * [`final_deliveries`] — the deliveries that survive to each request's
//!   deadline under the copy-survival semantics of §4.4;
//! * [`replay_state`] — rebuild a [`SchedulerState`] from a surviving
//!   transfer set plus the disturbances, ready for an incremental
//!   re-plan.

use std::collections::HashMap;

use dstage_core::schedule::{Delivery, Transfer};
use dstage_core::state::{AddRequestError, SchedulerState};
use dstage_model::ids::{DataItemId, MachineId, RequestId, VirtualLinkId};
use dstage_model::request::Request;
use dstage_model::scenario::Scenario;
use dstage_model::time::SimTime;
use dstage_path::Hop;

/// A link-outage instant: the link and when it went down.
pub type Outage = (VirtualLinkId, SimTime);

/// A copy-loss instant: the item, the machine, and when the copy vanished.
pub type Loss = (DataItemId, MachineId, SimTime);

/// Per-(item, machine) copy availability bookkeeping with loss events.
pub(crate) struct CopyTracker<'a> {
    avails: HashMap<(DataItemId, MachineId), Vec<SimTime>>,
    losses: &'a [Loss],
}

impl<'a> CopyTracker<'a> {
    pub(crate) fn new(scenario: &Scenario, losses: &'a [Loss]) -> Self {
        let mut avails: HashMap<(DataItemId, MachineId), Vec<SimTime>> = HashMap::new();
        for (item_id, item) in scenario.items() {
            for src in item.sources() {
                avails.entry((item_id, src.machine)).or_default().push(src.available_at);
            }
        }
        CopyTracker { avails, losses }
    }

    pub(crate) fn add(&mut self, item: DataItemId, machine: MachineId, at: SimTime) {
        self.avails.entry((item, machine)).or_default().push(at);
    }

    /// Whether a copy of `item` is present at `machine` at instant `at`:
    /// some copy arrived no later than `at` and no loss hit the machine
    /// between that arrival and `at` (inclusive).
    pub(crate) fn present(&self, item: DataItemId, machine: MachineId, at: SimTime) -> bool {
        let Some(avails) = self.avails.get(&(item, machine)) else { return false };
        avails.iter().any(|&avail| {
            avail <= at
                && !self
                    .losses
                    .iter()
                    .any(|&(i, m, tl)| i == item && m == machine && avail <= tl && tl <= at)
        })
    }

    /// The earliest arrival that is still present at `until` (survival to
    /// the deadline), if any.
    pub(crate) fn earliest_surviving(
        &self,
        item: DataItemId,
        machine: MachineId,
        until: SimTime,
    ) -> Option<SimTime> {
        let avails = self.avails.get(&(item, machine))?;
        avails
            .iter()
            .copied()
            .filter(|&avail| {
                avail <= until
                    && !self
                        .losses
                        .iter()
                        .any(|&(i, m, tl)| i == item && m == machine && avail <= tl && tl <= until)
            })
            .min()
    }
}

/// Splits `kept` into transfers consistent with the disturbances so far
/// and the ones invalidated by them (cascading: a transfer whose source
/// copy came from an invalidated transfer is itself invalid).
///
/// The consistent set is returned in `(start, arrival, link)` order,
/// which is also a causally valid replay order for [`replay_state`].
#[must_use]
pub fn filter_consistent(
    scenario: &Scenario,
    mut kept: Vec<Transfer>,
    outages: &[Outage],
    losses: &[Loss],
) -> (Vec<Transfer>, Vec<Transfer>) {
    kept.sort_by_key(|t| (t.start, t.arrival, t.link));
    let mut tracker = CopyTracker::new(scenario, losses);
    let mut valid = Vec::with_capacity(kept.len());
    let mut cancelled = Vec::new();
    for t in kept {
        let link_down = outages.iter().any(|&(l, tl)| l == t.link && t.arrival > tl);
        let source_ok = tracker.present(t.item, t.from, t.start);
        if link_down || !source_ok {
            cancelled.push(t);
        } else {
            tracker.add(t.item, t.to, t.arrival);
            valid.push(t);
        }
    }
    (valid, cancelled)
}

/// Final deliveries under the survival semantics, with hop depths for the
/// links-traversed statistic: a request is delivered when some copy is at
/// its destination by the deadline *and survives to the deadline* (§4.4).
#[must_use]
pub fn final_deliveries(scenario: &Scenario, kept: &[Transfer], losses: &[Loss]) -> Vec<Delivery> {
    let mut tracker = CopyTracker::new(scenario, losses);
    // Per (item, machine): the arrivals there, each with its hop depth.
    let mut depth: HashMap<(DataItemId, MachineId), Vec<(SimTime, u32)>> = HashMap::new();
    let mut sorted: Vec<&Transfer> = kept.iter().collect();
    sorted.sort_by_key(|t| (t.start, t.arrival, t.link));
    for t in sorted {
        let from_depth = depth
            .get(&(t.item, t.from))
            .and_then(|arrivals| {
                arrivals.iter().filter(|&&(at, _)| at <= t.start).map(|&(_, d)| d).min()
            })
            .unwrap_or(0);
        let arrivals = depth.entry((t.item, t.to)).or_default();
        match arrivals.iter_mut().find(|(at, _)| *at == t.arrival) {
            Some(entry) => entry.1 = from_depth + 1,
            None => arrivals.push((t.arrival, from_depth + 1)),
        }
        tracker.add(t.item, t.to, t.arrival);
    }
    let mut deliveries = Vec::new();
    for (req_id, req) in scenario.requests() {
        if let Some(at) = tracker.earliest_surviving(req.item(), req.destination(), req.deadline())
        {
            let hops = depth
                .get(&(req.item(), req.destination()))
                .and_then(|arrivals| arrivals.iter().find(|&&(a, _)| a == at))
                .map_or(0, |&(_, d)| d);
            deliveries.push(Delivery { request: req_id, at, hops });
        }
    }
    deliveries
}

pub(crate) fn hop_of(t: &Transfer) -> Hop {
    Hop { from: t.from, to: t.to, link: t.link, start: t.start, arrival: t.arrival }
}

/// Rebuilds `state` as of instant `now`: replays the surviving transfer
/// set `kept` into the ledger, applies copy losses (removing vanished
/// copies and revoking deliveries they carried), takes outaged links out
/// of service, and blocks the past so no new transfer can start before
/// `now`.
///
/// `kept` must already be consistent with the disturbances (the valid
/// half of [`filter_consistent`]) and in a causally valid order — a
/// transfer's source copy must be staged by an earlier entry or an
/// original source.
///
/// Request activity flags are left to the caller: deactivate whatever the
/// re-plan must not route *before or after* calling this.
///
/// # Errors
///
/// Returns the first transfer that fails to replay against the pristine
/// ledger — an internal-invariant violation for a consistent `kept` set,
/// not an input condition.
pub fn replay_state(
    state: &mut SchedulerState<'_>,
    kept: &[Transfer],
    outages: &[Outage],
    losses: &[Loss],
    now: SimTime,
) -> Result<(), Transfer> {
    // Every mutation issued here stays inside the tree cache's
    // consumption-only contract: replayed commits and outage blocks only
    // *consume* ledger capacity (both are journaled by the state), copy
    // losses drop the affected item's own tree, and `block_past` drops
    // every cached tree outright. Nothing releases a reservation, so
    // incremental repair stays exact across replan rounds.
    for t in kept {
        if !state.try_commit_stale_hop(t.item, hop_of(t)) {
            return Err(*t);
        }
    }
    for &(item, machine, tl) in losses {
        state.remove_copies(item, machine, tl);
        for req_id in state.scenario().requests_for(item).to_vec() {
            revoke_if_lost(state, req_id, machine, tl);
        }
    }
    for &(link, tl) in outages {
        state.apply_link_outage(link, tl);
    }
    state.block_past(now);
    Ok(())
}

/// Revokes `request`'s delivery when the copy that made it was on
/// `machine` at `lost_at`, before the deadline: the copy did not survive
/// long enough to be used, so the request is pending again. (A destination
/// is never an original source of its item, so nothing else on the
/// machine could stand in for the lost copy.)
fn revoke_if_lost(
    state: &mut SchedulerState<'_>,
    request: RequestId,
    machine: MachineId,
    lost_at: SimTime,
) {
    let req = state.scenario().request(request);
    if req.destination() == machine
        && lost_at <= req.deadline()
        && state.delivery_of(request).is_some_and(|d| d.at <= lost_at)
    {
        state.revoke_delivery(request);
    }
}

/// Adds one request to a state built by [`replay_state`], leaving it as a
/// replay of the same transfers and disturbances over the grown scenario
/// would: [`SchedulerState::add_request`] lengthens the holds and serves
/// the request from a copy already staged on its destination, and the
/// `losses` on that destination revoke the delivery as they would have in
/// the replay.
///
/// # Errors
///
/// Passes on [`SchedulerState::add_request`]'s refusal; the state is
/// unchanged.
pub fn append_request(
    state: &mut SchedulerState<'_>,
    request: Request,
    losses: &[Loss],
) -> Result<RequestId, AddRequestError> {
    let id = state.add_request(request)?;
    for &(item, machine, tl) in losses {
        if item == request.item() {
            revoke_if_lost(state, id, machine, tl);
        }
    }
    Ok(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstage_core::heuristic::{drive_state, run, HeuristicConfig};
    use dstage_workload::small::{fan_out, two_hop_chain};

    #[test]
    fn filter_cascades_through_staged_copies() {
        let scenario = two_hop_chain();
        let policy = crate::OnlinePolicy::paper_best();
        let outcome = run(&scenario, policy.heuristic, &policy.config);
        let transfers = outcome.schedule.transfers().to_vec();
        assert!(transfers.len() >= 2, "chain needs staged hops");
        // Outage on the first-hop link at t=0 invalidates everything: the
        // second hop's source copy was staged by a now-cancelled transfer.
        let outages = vec![(dstage_model::ids::VirtualLinkId::new(0), SimTime::ZERO)];
        let (valid, cancelled) = filter_consistent(&scenario, transfers.clone(), &outages, &[]);
        assert!(valid.is_empty(), "every transfer depends on the dead first hop");
        assert_eq!(cancelled.len(), transfers.len());
        // No disturbances: everything survives, in time order.
        let (valid, cancelled) = filter_consistent(&scenario, transfers, &[], &[]);
        assert!(cancelled.is_empty());
        assert!(valid.windows(2).all(|w| w[0].start <= w[1].start));
    }

    #[test]
    fn replayed_state_reproduces_the_plan() {
        let scenario = fan_out();
        let policy = crate::OnlinePolicy::paper_best();
        let outcome = run(&scenario, policy.heuristic, &policy.config);
        let (valid, _) =
            filter_consistent(&scenario, outcome.schedule.transfers().to_vec(), &[], &[]);
        let mut state = SchedulerState::with_caching(&scenario, policy.config.caching);
        replay_state(&mut state, &valid, &[], &[], SimTime::ZERO).expect("consistent set replays");
        // Nothing left to do: a re-plan commits no further transfers.
        drive_state(&mut state, policy.heuristic, &HeuristicConfig::paper_best());
        let (plan, _) = state.into_outcome();
        assert_eq!(plan.transfers().len(), valid.len());
        assert_eq!(plan.deliveries().len(), outcome.schedule.deliveries().len());
    }

    #[test]
    fn append_request_equals_a_replay_with_the_request_present() {
        // Replay a plan into a state that lacks the last request, append
        // it, and compare with the replay over the whole request set —
        // with no disturbance (the request is served by its staged copy)
        // and with that copy lost before the deadline (the delivery is
        // revoked, as the replay revokes it).
        let scenario = fan_out();
        let policy = crate::OnlinePolicy::paper_best();
        let outcome = run(&scenario, policy.heuristic, &policy.config);
        let (kept, _) =
            filter_consistent(&scenario, outcome.schedule.transfers().to_vec(), &[], &[]);
        let mut fewer = scenario.clone();
        let last = fewer.pop_request().expect("fan_out has requests");
        let arrival = outcome
            .schedule
            .delivery_of(RequestId::new(fewer.request_count() as u32))
            .expect("the last request is delivered")
            .at;
        let lost = (last.item(), last.destination(), arrival);
        for losses in [vec![], vec![lost]] {
            let mut whole = SchedulerState::owning(scenario.clone(), true);
            replay_state(&mut whole, &kept, &[], &losses, SimTime::ZERO).unwrap();
            let mut grown = SchedulerState::owning(fewer.clone(), true);
            replay_state(&mut grown, &kept, &[], &losses, SimTime::ZERO).unwrap();
            let id = append_request(&mut grown, last, &losses).unwrap();
            assert_eq!(grown.first_difference(&whole), None, "{} losses", losses.len());
            assert_eq!(grown.delivery_of(id).is_some(), losses.is_empty());
        }
    }

    #[test]
    fn final_deliveries_drop_lost_destination_copies() {
        let scenario = fan_out();
        let policy = crate::OnlinePolicy::paper_best();
        let outcome = run(&scenario, policy.heuristic, &policy.config);
        let kept = outcome.schedule.transfers().to_vec();
        let clean = final_deliveries(&scenario, &kept, &[]);
        assert_eq!(clean.len(), outcome.schedule.deliveries().len());
        // Lose request 0's destination copy after its arrival but before
        // the deadline: without a re-delivery it is no longer satisfied.
        let d1 = scenario.request(RequestId::new(0)).destination();
        let item = scenario.request(RequestId::new(0)).item();
        let arrival =
            clean.iter().find(|d| d.request == RequestId::new(0)).expect("request 0 delivered").at;
        let losses = vec![(item, d1, arrival + dstage_model::time::SimDuration::from_secs(1))];
        let lossy = final_deliveries(&scenario, &kept, &losses);
        assert!(lossy.iter().all(|d| d.request != RequestId::new(0)));
    }
}
