//! Schedule repair: one live schedule, edited in place under disturbances,
//! shared by the offline re-planning loop and the live admission daemon.
//!
//! [`LiveSchedule`] is the one repair loop. [`crate::simulate()`] drives it
//! at every event boundary; `dstage-service`'s admission engine drives it
//! when a disturbance is *injected* into the running daemon and when an
//! optimizer swap is kept. Either way a disturbance is applied to the live
//! state, the committed transfers it invalidates are unbooked, and the
//! items it touched are re-derived — nothing is rebuilt from a history.
//!
//! The primitives beneath it:
//!
//! * [`filter_consistent`] — split an executed/committed transfer set
//!   into the transfers still consistent with the disturbances so far and
//!   the ones they invalidate (cascading through staged copies);
//! * [`final_deliveries`] — the deliveries that survive to each request's
//!   deadline under the copy-survival semantics of §4.4;
//! * [`replay_state`] — build a [`SchedulerState`] from a surviving
//!   transfer set plus the disturbances. It is the definition the live
//!   state is compared with ([`LiveSchedule::divergence`]), and the way the
//!   daemon rebuilds its state from a checkpoint.

use std::collections::HashMap;

use dstage_core::schedule::{Delivery, Transfer};
use dstage_core::state::SchedulerState;
use dstage_model::ids::{DataItemId, MachineId, RequestId, VirtualLinkId};
use dstage_model::scenario::Scenario;
use dstage_model::time::SimTime;

use crate::event::{Event, EventKind};

/// A link-outage instant: the link and when it went down.
pub type Outage = (VirtualLinkId, SimTime);

/// A copy-loss instant: the item, the machine, and when the copy vanished.
pub type Loss = (DataItemId, MachineId, SimTime);

/// Per-(item, machine) copy availability bookkeeping with loss events.
pub(crate) struct CopyTracker<'a> {
    scenario: &'a Scenario,
    /// Arrivals by transfer; the original sources are read off the scenario.
    staged: HashMap<(DataItemId, MachineId), Vec<SimTime>>,
    losses: &'a [Loss],
}

impl<'a> CopyTracker<'a> {
    pub(crate) fn new(scenario: &'a Scenario, losses: &'a [Loss]) -> Self {
        CopyTracker { scenario, staged: HashMap::new(), losses }
    }

    pub(crate) fn add(&mut self, item: DataItemId, machine: MachineId, at: SimTime) {
        self.staged.entry((item, machine)).or_default().push(at);
    }

    /// The arrivals of `item` at `machine` no later than `at` that no loss
    /// hit between their arrival and `at` (inclusive).
    fn present_at(
        &self,
        item: DataItemId,
        machine: MachineId,
        at: SimTime,
    ) -> impl Iterator<Item = SimTime> + '_ {
        let sources = self.scenario.item(item).sources().iter();
        let original =
            sources.filter(move |src| src.machine == machine).map(|src| src.available_at);
        let staged = self.staged.get(&(item, machine)).into_iter().flatten().copied();
        original.chain(staged).filter(move |&avail| {
            avail <= at
                && !self
                    .losses
                    .iter()
                    .any(|&(i, m, tl)| i == item && m == machine && avail <= tl && tl <= at)
        })
    }

    /// Whether a copy of `item` is present at `machine` at instant `at`.
    pub(crate) fn present(&self, item: DataItemId, machine: MachineId, at: SimTime) -> bool {
        self.present_at(item, machine, at).next().is_some()
    }

    /// The earliest arrival that is still present at `until` (survival to
    /// the deadline), if any.
    pub(crate) fn earliest_surviving(
        &self,
        item: DataItemId,
        machine: MachineId,
        until: SimTime,
    ) -> Option<SimTime> {
        self.present_at(item, machine, until).min()
    }
}

/// The order a transfer set is replayed in: by start, then arrival, then
/// link — causally valid, since a copy is staged before it is sent on.
#[must_use]
pub fn replay_order(t: &Transfer) -> (SimTime, SimTime, VirtualLinkId) {
    (t.start, t.arrival, t.link)
}

/// Splits `kept` into transfers consistent with the disturbances so far
/// and the ones invalidated by them (cascading: a transfer whose source
/// copy came from an invalidated transfer is itself invalid).
///
/// The consistent set is returned in [`replay_order`].
#[must_use]
pub fn filter_consistent(
    scenario: &Scenario,
    mut kept: Vec<Transfer>,
    outages: &[Outage],
    losses: &[Loss],
) -> (Vec<Transfer>, Vec<Transfer>) {
    kept.sort_by_key(replay_order);
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
    deliveries_among(scenario, scenario.request_ids(), kept, losses)
}

/// [`final_deliveries`] for `requests` alone, in the order given. The
/// copies of an item never depend on another item's transfers, so `kept`
/// need hold only the transfers of the items those requests ask for.
#[must_use]
pub fn deliveries_among(
    scenario: &Scenario,
    requests: impl IntoIterator<Item = RequestId>,
    kept: &[Transfer],
    losses: &[Loss],
) -> Vec<Delivery> {
    let mut tracker = CopyTracker::new(scenario, losses);
    // Per (item, machine): the arrivals there, each with its hop depth.
    let mut depth: HashMap<(DataItemId, MachineId), Vec<(SimTime, u32)>> = HashMap::new();
    let mut sorted: Vec<&Transfer> = kept.iter().collect();
    sorted.sort_by_key(|t| replay_order(t));
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
    for req_id in requests {
        let req = scenario.request(req_id);
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

/// Builds `state`, fresh over its scenario, as of instant `now`: records
/// the copy losses, books every transfer of `kept`, takes outaged links
/// out of service, and blocks the past so no new transfer can start before
/// `now`.
///
/// `kept` must already be consistent with the disturbances (the valid
/// half of [`filter_consistent`]); its order is the commit order the
/// state's tables record — per item, what
/// [`SchedulerState::rederive_item`] is given.
///
/// Request activity flags are left to the caller: deactivate whatever the
/// re-plan must not route *before or after* calling this.
///
/// # Errors
///
/// Returns the first transfer the ledger refuses — two of `kept` claim one
/// window, or a store is over-full — an internal-invariant violation for a
/// set that was booked once, not an input condition.
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
    // validation on read stays exact across replan rounds.
    for &(item, machine, tl) in losses {
        state.remove_copies(item, machine, tl);
    }
    for t in kept {
        state.book_transfer(t).map_err(|_| *t)?;
    }
    for &(link, tl) in outages {
        state.apply_link_outage(link, tl);
    }
    state.block_past(now);
    Ok(())
}

/// One schedule kept live under disturbances: a [`SchedulerState`], the
/// transfers committed in it, the disturbances so far and the instant
/// reached — edited in place, never rebuilt.
///
/// The invariant every operation keeps, up to the stale items, is the
/// state [`replay_state`] builds from scratch: the ledger holds exactly the
/// bookings of `committed` plus the blocks of the outages and of `now`,
/// and each item's tables are what its committed transfers, in order, its
/// losses and its requests make them. The caller may book on the state in
/// between (a heuristic drive, an admission); what it keeps it
/// [`commit`](LiveSchedule::commit)s, what it does not it
/// [`withdraw`](LiveSchedule::withdraw)s or rolls back. Items so touched
/// are *stale* — their tables in booking order, their requests' deliveries
/// the state's — until [`normalise`](LiveSchedule::normalise) re-derives
/// them, after which [`divergence`](LiveSchedule::divergence) is `None`.
#[derive(Debug, Clone)]
pub struct LiveSchedule<'a> {
    state: SchedulerState<'a>,
    /// Every reservation in force, in the order the state booked them
    /// since the last normalisation, which sorts them into replay order.
    committed: Vec<Transfer>,
    outages: Vec<Outage>,
    losses: Vec<Loss>,
    now: SimTime,
    /// Requests the last normalisation covered; the items of later ones
    /// are stale.
    normal_requests: usize,
    /// By item: booked, withdrawn or disturbed since the last normalisation.
    touched: Vec<bool>,
}

/// What a [`LiveSchedule::normalise`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Normalised {
    /// Each promised request of a stale item, ascending, with the delivery
    /// that survives in the committed transfers — `None` when it lost it.
    pub deliveries: Vec<(RequestId, Option<Delivery>)>,
    /// Items whose tables were re-derived.
    pub rederived: usize,
}

impl<'a> LiveSchedule<'a> {
    /// A live schedule over `state`, which has booked nothing yet.
    #[must_use]
    pub fn new(state: SchedulerState<'a>) -> Self {
        let items = state.scenario().item_count();
        LiveSchedule {
            state,
            committed: Vec::new(),
            outages: Vec::new(),
            losses: Vec::new(),
            now: SimTime::ZERO,
            normal_requests: 0,
            touched: vec![false; items],
        }
    }

    /// `state`, fresh, with `committed` and the disturbances replayed into
    /// it as of `now` ([`replay_state`]). The first normalisation looks at
    /// every item with a committed transfer or a request.
    ///
    /// # Errors
    ///
    /// Returns the first transfer the ledger refuses.
    pub fn replayed(
        mut state: SchedulerState<'a>,
        committed: &[Transfer],
        outages: Vec<Outage>,
        losses: Vec<Loss>,
        now: SimTime,
    ) -> Result<Self, Transfer> {
        replay_state(&mut state, committed, &outages, &losses, now)?;
        state.take_transfers();
        state.forget_trees();
        let mut live = LiveSchedule { outages, losses, now, ..LiveSchedule::new(state) };
        live.commit(committed);
        Ok(live)
    }

    /// The live scheduling state.
    #[must_use]
    pub fn state(&self) -> &SchedulerState<'a> {
        &self.state
    }

    /// The live scheduling state, to book on, add requests to or roll back.
    pub fn state_mut(&mut self) -> &mut SchedulerState<'a> {
        &mut self.state
    }

    /// Every reservation in force.
    #[must_use]
    pub fn committed(&self) -> &[Transfer] {
        &self.committed
    }

    /// The link outages so far, in the order applied.
    #[must_use]
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// The copy losses so far, in the order applied.
    #[must_use]
    pub fn losses(&self) -> &[Loss] {
        &self.losses
    }

    /// The latest instant reached; nothing new starts before it.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Keeps `transfers`, booked on the state, as reservations in force.
    pub fn commit(&mut self, transfers: &[Transfer]) {
        for t in transfers {
            self.touched[t.item.index()] = true;
        }
        self.committed.extend_from_slice(transfers);
    }

    /// Takes back transfers booked on the state but never committed.
    pub fn withdraw(&mut self, transfers: &[Transfer]) {
        for t in transfers {
            self.state.unbook(t);
            self.touched[t.item.index()] = true;
        }
    }

    /// Drops committed transfers the caller has unbooked already.
    pub fn forget(&mut self, transfers: &[Transfer]) {
        for t in transfers {
            self.touched[t.item.index()] = true;
        }
        self.committed.retain(|t| !transfers.contains(t));
    }

    /// Re-derives `item`'s tables from its committed transfers, in the
    /// order committed.
    pub fn rederive(&mut self, item: DataItemId) {
        self.state.rederive_item(item, self.committed.iter().filter(|t| t.item == item));
    }

    /// Applies `event` to the live state. A released request takes part in
    /// the next drive; an outage or a copy loss leaves the committed
    /// transfers it invalidates to the next repair.
    pub fn apply(&mut self, event: Event) {
        let at = event.at;
        match event.kind {
            EventKind::Release(request) => self.state.set_request_active(request, true),
            EventKind::LinkOutage(link) => {
                for t in self.committed.iter().filter(|t| t.link == link && t.arrival > at) {
                    self.touched[t.item.index()] = true;
                }
                self.outages.push((link, at));
                self.state.apply_link_outage(link, at);
            }
            EventKind::CopyLoss { item, machine } => {
                self.touched[item.index()] = true;
                self.losses.push((item, machine, at));
                self.state.remove_copies(item, machine, at);
            }
        }
    }

    /// Moves the clock to `now` (never back) and blocks the past.
    pub fn advance(&mut self, now: SimTime) {
        self.now = self.now.max(now);
        self.state.block_past(self.now);
    }

    /// By item: whether anything was booked, withdrawn, disturbed or asked
    /// for since the last normalisation.
    fn stale_items(&self) -> Vec<bool> {
        let mut stale = self.touched.clone();
        for (_, request) in self.state.scenario().requests().skip(self.normal_requests) {
            stale[request.item().index()] = true;
        }
        stale
    }

    /// Repairs the schedule after the disturbances applied so far: unbooks
    /// what [`filter_consistent`] cancels among the stale items'
    /// committed transfers, then normalises. A transfer depends on copies
    /// of its own item alone, so the cascade never reaches another item.
    /// Returns the cancelled transfers, in replay order, and what the
    /// normalisation found for the `promised` requests.
    pub fn repair(&mut self, promised: &[bool]) -> (Vec<Transfer>, Normalised) {
        let stale = self.stale_items();
        let theirs = self.committed.iter().filter(|t| stale[t.item.index()]).copied().collect();
        let scenario = self.state.scenario();
        let (_, cancelled) = filter_consistent(scenario, theirs, &self.outages, &self.losses);
        debug_assert_eq!(
            cancelled,
            filter_consistent(scenario, self.committed.clone(), &self.outages, &self.losses).1
        );
        for t in &cancelled {
            self.state.unbook(t);
        }
        self.committed.retain(|t| !cancelled.contains(t));
        let normalised = self.normalise(promised, &[]);
        self.state.forget_trees();
        (cancelled, normalised)
    }

    /// Puts `committed` in replay order and re-derives the stale items'
    /// tables from it, with `tail` — transfers booked on top of it —
    /// committed after. `promised` holds, per request from the first,
    /// whether the caller still promises it a delivery; the normalisation
    /// covers that many requests and reports the surviving delivery of each
    /// promised one of a stale item, `tail` left out.
    pub fn normalise(&mut self, promised: &[bool], tail: &[Transfer]) -> Normalised {
        let stale = self.stale_items();
        self.touched.fill(false);
        self.normal_requests = promised.len();
        self.committed.sort_by_key(replay_order);
        let scenario = self.state.scenario();
        debug_assert_eq!(
            filter_consistent(scenario, self.committed.clone(), &self.outages, &self.losses),
            (self.committed.clone(), Vec::new()),
            "a normalisation starts from a repaired schedule"
        );
        let mut theirs: Vec<Transfer> =
            self.committed.iter().filter(|t| stale[t.item.index()]).copied().collect();
        let named: Vec<RequestId> = (scenario.requests().zip(promised))
            .filter(|((_, request), promised)| **promised && stale[request.item().index()])
            .map(|((id, _), _)| id)
            .collect();
        let found = deliveries_among(scenario, named.iter().copied(), &theirs, &self.losses);
        let mut found = found.into_iter().peekable();
        let deliveries =
            named.into_iter().map(|id| (id, found.next_if(|d| d.request == id))).collect();
        theirs.extend_from_slice(tail);
        let mut rederived = 0;
        for item in (0..stale.len()).filter(|&i| stale[i]).map(|i| DataItemId::new(i as u32)) {
            rederived += 1;
            self.state.rederive_item(item, theirs.iter().filter(|t| t.item == item));
        }
        self.commit(tail);
        Normalised { deliveries, rederived }
    }

    /// How the live state differs from the one [`replay_state`] builds from
    /// the committed transfers and the disturbances so far, under the live
    /// activity flags — `None` when it does not, the invariant every
    /// decision relies on. For tests and debug assertions: it replays it all.
    #[must_use]
    pub fn divergence(&self) -> Option<String> {
        let scenario = self.state.scenario();
        let mut replayed = SchedulerState::new(scenario);
        for id in scenario.request_ids() {
            replayed.set_request_active(id, self.state.is_request_active(id));
        }
        match replay_state(&mut replayed, &self.committed, &self.outages, &self.losses, self.now) {
            Err(t) => Some(format!("committed reservation {t:?} does not book (overlaps another)")),
            Ok(()) => self.state.first_difference(&replayed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstage_core::heuristic::{drive_state, run, HeuristicConfig};
    use dstage_model::units::Bytes;
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

    /// Two parallel links `m0 → m1` (10 s per transfer of the one item,
    /// 10 kB on `m0`) and one request: `m1` by 500 s.
    fn parallel_links() -> Scenario {
        use dstage_model::prelude::*;
        let mut b = NetworkBuilder::new();
        for name in ["m0", "m1"] {
            b.add_machine(Machine::new(name, Bytes::from_mib(1)));
        }
        let m = MachineId::new;
        for _ in 0..2 {
            let window = (SimTime::ZERO, SimTime::from_hours(2));
            b.add_link(VirtualLink::new(m(0), m(1), window.0, window.1, BitsPerSec::new(8_000)));
        }
        Scenario::builder(b.build())
            .add_item(DataItem::new(
                "d0",
                Bytes::new(10_000),
                vec![DataSource::new(m(0), SimTime::ZERO)],
            ))
            .add_request(Request::new(
                DataItemId::new(0),
                m(1),
                SimTime::from_secs(500),
                Priority::LOW,
            ))
            .build()
            .expect("valid by construction")
    }

    /// The one item's transfer `m0 → m1` over `link`, 10 s from `start`.
    fn hop(link: u32, start: u64) -> Transfer {
        Transfer {
            item: DataItemId::new(0),
            from: MachineId::new(0),
            to: MachineId::new(1),
            link: VirtualLinkId::new(link),
            start: SimTime::from_secs(start),
            arrival: SimTime::from_secs(start + 10),
        }
    }

    fn busy(state: &SchedulerState<'_>, t: &Transfer) -> bool {
        !state.ledger().link_busy(t.link).is_free(t.start, t.arrival)
    }

    #[test]
    fn a_replay_books_a_later_copy_that_sorts_after_an_earlier_one() {
        // Booked late first (what `alap` / `rcd` or a re-route after a
        // cancellation produce), then early: once `filter_consistent` has
        // sorted them the later arrival follows an equally early copy on
        // the same machine, and it is still a reservation in force.
        let scenario = parallel_links();
        let (late, early) = (hop(0, 100), hop(1, 0));
        let (kept, cancelled) = filter_consistent(&scenario, vec![late, early], &[], &[]);
        assert_eq!((kept.as_slice(), cancelled.len()), ([early, late].as_slice(), 0));
        let mut state = SchedulerState::owning(scenario.clone(), true);
        replay_state(&mut state, &kept, &[], &[], SimTime::ZERO).expect("both were booked once");
        assert!(busy(&state, &early) && busy(&state, &late), "a booked window reads free");
        let both = Bytes::new(20_000);
        assert_eq!(state.ledger().store(late.to).used_at(late.arrival), both);
        // Both are staged: booked one by one, live, the tables are the same.
        let mut live = SchedulerState::owning(scenario, true);
        for t in &kept {
            live.book_transfer(t).expect("free");
        }
        assert_eq!(state.first_difference(&live), None);
    }

    #[test]
    fn a_copy_rerouted_into_a_machine_that_lost_one_replays_booked_and_delivering() {
        let scenario = parallel_links();
        let (first, again) = (hop(0, 0), hop(0, 30));
        let losses = vec![(first.item, first.to, SimTime::from_secs(20))];
        let mut state = SchedulerState::owning(scenario, true);
        replay_state(&mut state, &[first, again], &[], &losses, SimTime::from_secs(20)).unwrap();
        assert!(busy(&state, &again));
        let delivery = state.delivery_of(RequestId::new(0)).expect("the second copy survives");
        assert_eq!(delivery.at, again.arrival);
        // The same copy, booked live after the loss, delivers as well.
        let mut live = SchedulerState::owning(state.scenario().clone(), true);
        replay_state(&mut live, &[first], &[], &losses, SimTime::from_secs(20)).unwrap();
        assert!(!live.is_delivered(RequestId::new(0)));
        live.book_transfer(&again).expect("free");
        assert_eq!(live.first_difference(&state), None);
    }

    #[test]
    fn a_late_request_equals_a_replay_with_the_request_present() {
        // Replay into a state that lacks the request, add it, and compare
        // with the replay over the whole request set: served by the staged
        // copy, left pending when that copy is lost before the deadline,
        // served by the copy that replaced it.
        let scenario = parallel_links();
        let mut fewer = scenario.clone();
        let last = fewer.pop_request().expect("one request");
        let (first, again) = (hop(0, 0), hop(0, 30));
        let lost = (first.item, first.to, SimTime::from_secs(20));
        let cases: [(&[Transfer], &[Loss], Option<SimTime>); 3] = [
            (&[first], &[], Some(first.arrival)),
            (&[first], &[lost], None),
            (&[first, again], &[lost], Some(again.arrival)),
        ];
        for (kept, losses, served) in cases {
            let mut whole = SchedulerState::owning(scenario.clone(), true);
            replay_state(&mut whole, kept, &[], losses, SimTime::ZERO).unwrap();
            let mut grown = SchedulerState::owning(fewer.clone(), true);
            replay_state(&mut grown, kept, &[], losses, SimTime::ZERO).unwrap();
            let id = grown.add_request(last).unwrap();
            assert_eq!(grown.first_difference(&whole), None, "{} losses", losses.len());
            assert_eq!(grown.delivery_of(id).map(|d| d.at), served);
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
