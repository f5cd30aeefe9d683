//! Schedule repair: one live schedule, edited in place under disturbances,
//! shared by the offline re-planning loop and the live admission daemon.
//!
//! [`LiveSchedule`] is the one repair loop. [`crate::simulate()`] drives it
//! at every event boundary; `dstage-service`'s admission engine drives it
//! when a disturbance is *injected* into the running daemon and when an
//! optimizer swap is kept. Either way a disturbance is applied to the live
//! state, the items it touched are re-derived, and the committed transfers
//! the re-derivation skips are unbooked — nothing is rebuilt from a history.
//!
//! Which copies of an item exist, which committed transfers they keep
//! valid and which request each copy delivers is decided in one place,
//! [`Bookings::rederive_item`]; this module only says which items to
//! re-derive, in which order, and what to unbook. [`replay_state`] builds
//! [`Bookings`] from a surviving transfer set plus the disturbances. It is
//! the definition the live bookings are compared with
//! ([`LiveSchedule::divergence`]), and the way the daemon rebuilds its
//! state from a checkpoint.
//!
//! A live schedule keeps bookings only. A heuristic that drives on them
//! brings its own [`Planner`](dstage_core::planner::Planner) and reads
//! whatever the repair moved from their stamps; [`LiveSchedule::settle`]
//! routes one request with one search and keeps nothing of it.

use dstage_core::bookings::{Bookings, Savepoint};
use dstage_core::heuristic::CommitRule;
use dstage_core::planner::reads_match_scratch;
use dstage_core::schedule::{Delivery, Transfer};
use dstage_model::ids::{DataItemId, MachineId, RequestId, VirtualLinkId};
use dstage_model::time::SimTime;
use dstage_path::{earliest_arrival_paths, Landmarks};

use crate::event::{Event, EventKind};

/// A link-outage instant: the link and when it went down.
pub type Outage = (VirtualLinkId, SimTime);

/// A copy-loss instant: the item, the machine, and when the copy vanished.
pub type Loss = (DataItemId, MachineId, SimTime);

/// The order a transfer set is replayed in: by start, then arrival, then
/// link — causally valid, since a copy is staged before it is sent on.
#[must_use]
pub fn replay_order(t: &Transfer) -> (SimTime, SimTime, VirtualLinkId) {
    (t.start, t.arrival, t.link)
}

/// Builds `state`, fresh bookings over their scenario, as of instant `now`: records
/// the copy losses, books every transfer of `kept`, takes outaged links
/// out of service, and blocks the past so no new transfer can start before
/// `now`.
///
/// `kept` must already be consistent with the disturbances (nothing
/// [`Bookings::rederive_item`] would skip); its order is the commit
/// order the state's tables record — per item, what `rederive_item` is
/// given.
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
    state: &mut Bookings<'_>,
    kept: &[Transfer],
    outages: &[Outage],
    losses: &[Loss],
    now: SimTime,
) -> Result<(), Transfer> {
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

/// One schedule kept live under disturbances: [`Bookings`], the
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
    bookings: Bookings<'a>,
    /// The landmark table that steers [`LiveSchedule::settle`]'s search —
    /// a function of the network alone.
    landmarks: Landmarks,
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
    pub fn new(state: Bookings<'a>) -> Self {
        let items = state.scenario().item_count();
        LiveSchedule {
            landmarks: Landmarks::new(state.scenario().network()),
            bookings: state,
            committed: Vec::new(),
            outages: Vec::new(),
            losses: Vec::new(),
            now: SimTime::ZERO,
            normal_requests: 0,
            touched: vec![false; items],
        }
    }

    /// `state`, fresh, with `committed` and the disturbances replayed into
    /// it as of `now` ([`replay_state`]). The
    /// first normalisation looks at every item with a committed transfer or
    /// a request.
    ///
    /// # Errors
    ///
    /// Returns the first transfer the ledger refuses.
    pub fn replayed(
        mut state: Bookings<'a>,
        committed: &[Transfer],
        outages: Vec<Outage>,
        losses: Vec<Loss>,
        now: SimTime,
    ) -> Result<Self, Transfer> {
        replay_state(&mut state, committed, &outages, &losses, now)?;
        state.take_transfers();
        let mut live = LiveSchedule { outages, losses, now, ..LiveSchedule::new(state) };
        live.commit(committed);
        Ok(live)
    }

    /// The live bookings.
    #[must_use]
    pub fn bookings(&self) -> &Bookings<'a> {
        &self.bookings
    }

    /// The live bookings, to book on, add requests to or roll back.
    pub fn bookings_mut(&mut self) -> &mut Bookings<'a> {
        &mut self.bookings
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
            self.bookings.unbook(t);
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
        self.bookings.rederive_item(item, self.committed.iter().filter(|t| t.item == item));
    }

    /// Routes request `id` alone, as every heuristic's drive of it would
    /// (`settle_is_a_drive_of_the_one_request`): unless a copy serves it
    /// already, one search reads its item's earliest-arrival path, and if
    /// that meets the deadline it is booked where `rule` places it.
    /// Delivered, the delivery and what was booked are returned for the
    /// caller to commit; otherwise the bookings go back to `savepoint`.
    pub fn settle(
        &mut self,
        id: RequestId,
        savepoint: Savepoint,
        rule: CommitRule,
    ) -> Option<(Delivery, Vec<Transfer>)> {
        let bookings = &mut self.bookings;
        let request = *bookings.scenario().request(id);
        let (item, to, deadline) = (request.item(), request.destination(), request.deadline());
        if !bookings.is_delivered(id) {
            let query = bookings.query(item);
            let tree = earliest_arrival_paths(&query, &self.landmarks, &[to]);
            debug_assert!(reads_match_scratch(&query, &tree, &[to]));
            // Out of reach reads `SimTime::MAX`, a deadline γ = 0 allows.
            if tree.is_reachable(to) && tree.arrival(to) <= deadline {
                let path = tree.path_to(to).expect("reachable");
                match rule {
                    CommitRule::Earliest => bookings.commit_hops(item, &path),
                    CommitRule::Latest => {
                        bookings.commit_latest(item, &path, deadline);
                    }
                }
            }
        }
        let Some(delivery) = bookings.delivery_of(id) else {
            bookings.rollback(savepoint);
            return None;
        };
        Some((delivery, bookings.take_transfers()))
    }

    /// Applies `event` to the live state. A released request takes part in
    /// the next drive; an outage or a copy loss leaves the committed
    /// transfers it invalidates to the next repair.
    pub fn apply(&mut self, event: Event) {
        let at = event.at;
        match event.kind {
            EventKind::Release(request) => self.bookings.set_request_active(request, true),
            EventKind::LinkOutage(link) => {
                for t in self.committed.iter().filter(|t| t.link == link && t.arrival > at) {
                    self.touched[t.item.index()] = true;
                }
                self.outages.push((link, at));
                self.bookings.apply_link_outage(link, at);
            }
            EventKind::CopyLoss { item, machine } => {
                self.touched[item.index()] = true;
                self.losses.push((item, machine, at));
                self.bookings.remove_copies(item, machine, at);
            }
        }
    }

    /// Moves the clock to `now` (never back) and blocks the past.
    pub fn advance(&mut self, now: SimTime) {
        self.now = self.now.max(now);
        self.bookings.block_past(self.now);
    }

    /// By item: whether anything was booked, withdrawn, disturbed or asked
    /// for since the last normalisation.
    fn stale_items(&self) -> Vec<bool> {
        let mut stale = self.touched.clone();
        for (_, request) in self.bookings.scenario().requests().skip(self.normal_requests) {
            stale[request.item().index()] = true;
        }
        stale
    }

    /// Repairs the schedule after the disturbances applied so far: the
    /// stale items are re-derived from their committed transfers, and the
    /// ones the re-derivation skips — invalidated by an outage or a loss,
    /// or fed only by such a transfer — are unbooked and dropped. A
    /// transfer depends on copies of its own item alone, so the cascade
    /// never reaches another item. Returns the cancelled transfers, in
    /// replay order, and what the normalisation found for the `promised`
    /// requests.
    pub fn repair(&mut self, promised: &[bool]) -> (Vec<Transfer>, Normalised) {
        let (mut cancelled, normalised) = self.rederive_stale(promised, &[]);
        cancelled.sort_by_key(replay_order);
        for t in &cancelled {
            self.bookings.unbook(t);
        }
        self.committed.retain(|t| !cancelled.contains(t));
        (cancelled, normalised)
    }

    /// Puts `committed` in replay order and re-derives the stale items'
    /// tables from it, with `tail` — transfers booked on top of it —
    /// committed after. `promised` holds, per request from the first,
    /// whether the caller still promises it a delivery; the normalisation
    /// covers that many requests and reports the state's delivery of each
    /// promised one of a stale item, `tail` left out.
    pub fn normalise(&mut self, promised: &[bool], tail: &[Transfer]) -> Normalised {
        let (cancelled, normalised) = self.rederive_stale(promised, tail);
        debug_assert_eq!(cancelled, [], "a normalisation starts from a repaired schedule");
        normalised
    }

    /// [`normalise`](LiveSchedule::normalise), returning the committed
    /// transfers the re-derivation skipped, still booked and committed.
    fn rederive_stale(
        &mut self,
        promised: &[bool],
        tail: &[Transfer],
    ) -> (Vec<Transfer>, Normalised) {
        let stale = self.stale_items();
        self.touched.fill(false);
        self.normal_requests = promised.len();
        self.committed.sort_by_key(replay_order);
        let mut theirs: Vec<Transfer> =
            self.committed.iter().filter(|t| stale[t.item.index()]).copied().collect();
        let stale_ids =
            || (0..stale.len()).filter(|&i| stale[i]).map(|i| DataItemId::new(i as u32));
        let mut skipped = Vec::new();
        for item in stale_ids() {
            skipped.extend(
                self.bookings.rederive_item(item, theirs.iter().filter(|t| t.item == item)),
            );
        }
        let state = &self.bookings;
        let deliveries = (state.scenario().requests().zip(promised))
            .filter(|((_, request), promised)| **promised && stale[request.item().index()])
            .map(|((id, _), _)| (id, state.delivery_of(id)))
            .collect();
        theirs.extend_from_slice(tail);
        for item in stale_ids().filter(|&item| tail.iter().any(|t| t.item == item)) {
            self.bookings.rederive_item(item, theirs.iter().filter(|t| t.item == item));
        }
        self.commit(tail);
        (skipped, Normalised { deliveries, rederived: stale_ids().count() })
    }

    /// How the live state differs from the one [`replay_state`] builds from
    /// the committed transfers and the disturbances so far, under the live
    /// activity flags — `None` when it does not, the invariant every
    /// decision relies on. For tests and debug assertions: it replays it all.
    #[must_use]
    pub fn divergence(&self) -> Option<String> {
        let scenario = self.bookings.scenario();
        let mut replayed = Bookings::new(scenario);
        for id in scenario.request_ids() {
            replayed.set_request_active(id, self.bookings.is_request_active(id));
        }
        match replay_state(&mut replayed, &self.committed, &self.outages, &self.losses, self.now) {
            Err(t) => Some(format!("committed reservation {t:?} does not book (overlaps another)")),
            Ok(()) => self.bookings.first_difference(&replayed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstage_core::heuristic::{drive_state, run, HeuristicConfig};
    use dstage_core::planner::Planner;
    use dstage_model::scenario::Scenario;
    use dstage_model::units::Bytes;
    use dstage_workload::small::fan_out;

    #[test]
    fn replayed_state_reproduces_the_plan() {
        let scenario = fan_out();
        let policy = crate::OnlinePolicy::paper_best();
        let outcome = run(&scenario, policy.heuristic, &policy.config);
        let mut valid = outcome.schedule.transfers().to_vec();
        valid.sort_by_key(replay_order);
        let mut state = Bookings::new(&scenario);
        replay_state(&mut state, &valid, &[], &[], SimTime::ZERO).expect("consistent set replays");
        // Nothing left to do: a re-plan commits no further transfers.
        let mut planner = Planner::new(&state);
        drive_state(&mut planner, &mut state, policy.heuristic, &HeuristicConfig::paper_best());
        let plan = state.into_schedule();
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

    fn busy(state: &Bookings<'_>, t: &Transfer) -> bool {
        !state.ledger().link_busy(t.link).is_free(t.start, t.arrival)
    }

    #[test]
    fn a_replay_books_a_later_copy_that_sorts_after_an_earlier_one() {
        // Booked late first (what `alap` or a re-route after a
        // cancellation produce), then early: once sorted into replay order
        // the later arrival follows an equally early copy on the same
        // machine, and it is still a reservation in force.
        let scenario = parallel_links();
        let (late, early) = (hop(0, 100), hop(1, 0));
        let mut kept = vec![late, early];
        kept.sort_by_key(replay_order);
        assert_eq!(kept, [early, late]);
        let mut state = Bookings::owning(scenario.clone());
        replay_state(&mut state, &kept, &[], &[], SimTime::ZERO).expect("both were booked once");
        assert_eq!(state.rederive_item(early.item, &kept), [], "neither is cancelled");
        assert!(busy(&state, &early) && busy(&state, &late), "a booked window reads free");
        let both = Bytes::new(20_000);
        assert_eq!(state.ledger().store(late.to).used_at(late.arrival), both);
        // Both are staged: booked one by one, live, the tables are the same.
        let mut live = Bookings::owning(scenario);
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
        let mut state = Bookings::owning(scenario);
        replay_state(&mut state, &[first, again], &[], &losses, SimTime::from_secs(20)).unwrap();
        assert!(busy(&state, &again));
        let delivery = state.delivery_of(RequestId::new(0)).expect("the second copy survives");
        assert_eq!(delivery.at, again.arrival);
        // The same copy, booked live after the loss, delivers as well.
        let mut live = Bookings::owning(state.scenario().clone());
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
            let mut whole = Bookings::owning(scenario.clone());
            replay_state(&mut whole, kept, &[], losses, SimTime::ZERO).unwrap();
            let mut grown = Bookings::owning(fewer.clone());
            replay_state(&mut grown, kept, &[], losses, SimTime::ZERO).unwrap();
            let id = grown.add_request(last).unwrap();
            assert_eq!(grown.first_difference(&whole), None, "{} losses", losses.len());
            assert_eq!(grown.delivery_of(id).map(|d| d.at), served);
        }
    }

    #[test]
    fn a_lost_destination_copy_loses_its_delivery() {
        let scenario = fan_out();
        let policy = crate::OnlinePolicy::paper_best();
        let outcome = run(&scenario, policy.heuristic, &policy.config);
        let mut kept = outcome.schedule.transfers().to_vec();
        kept.sort_by_key(replay_order);
        let replayed = |losses: &[Loss]| {
            let mut state = Bookings::new(&scenario);
            replay_state(&mut state, &kept, &[], losses, SimTime::ZERO).expect("booked once");
            state
        };
        let clean = replayed(&[]);
        let request = RequestId::new(0);
        let delivered = scenario.request_ids().filter(|&id| clean.is_delivered(id)).count();
        assert_eq!(delivered, outcome.schedule.deliveries().len());
        // Lose request 0's destination copy after its arrival but before
        // the deadline: without a re-delivery it is no longer satisfied.
        let (item, at) =
            (scenario.request(request).item(), scenario.request(request).destination());
        let arrival = clean.delivery_of(request).expect("request 0 delivered").at;
        let lossy =
            replayed(&[(item, at, arrival + dstage_model::time::SimDuration::from_secs(1))]);
        assert_eq!(lossy.delivery_of(request), None);
    }
}
