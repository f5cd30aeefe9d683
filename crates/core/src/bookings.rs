//! The bookings of a schedule: resource ledger, copies and holds, staged
//! arrivals, losses, outages, deliveries and the transfers booked.
//!
//! All three heuristics (§4.5–4.7), both random lower bounds (§5.2), and
//! the priority-first comparison scheme book on the same [`Bookings`],
//! paired with a [`Planner`](crate::planner::Planner) that reads it: they
//! differ only in *which* candidate step they pick each iteration and
//! *how much* of the chosen shortest path they commit.
//!
//! An offline run borrows its scenario and is thrown away with its plan.
//! The admission daemon instead keeps one set of bookings for as long as
//! it serves ([`Bookings::owning`]), and no planner: each submission is
//! appended to the bookings' own scenario ([`Bookings::add_request`]),
//! routed by one search, and — when it is refused — taken back again
//! ([`Bookings::rollback`]). Reservations made earlier leave the same way
//! they came: [`Bookings::unbook`] frees one transfer's window and
//! storage, [`Bookings::rederive_item`] rebuilds its item's tables from
//! the transfers that remain.
//!
//! A planner caches what it read off the bookings. It learns what moved
//! since from the version stamps every mutation leaves (`Stamps`);
//! the bookings never touch its cache.

use std::borrow::Cow;

use dstage_model::error::ScenarioError;
use dstage_model::ids::{DataItemId, MachineId, RequestId, VirtualLinkId};
use dstage_model::network::Network;
use dstage_model::request::Request;
use dstage_model::scenario::Scenario;
use dstage_model::time::SimTime;
use dstage_path::{Hop, ItemQuery};
use dstage_resources::ledger::{CommitError, NetworkLedger};

use crate::schedule::{Delivery, Schedule, Transfer};

/// One booked arrival of an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Staged {
    machine: MachineId,
    arrival: SimTime,
    /// Links traversed from an original source to this copy.
    depth: u32,
}

/// A staged copy whose hold cannot be lengthened: `machine` has no room to
/// keep `item` until `until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HoldRefused {
    /// The item whose copy would have to stay longer.
    pub item: DataItemId,
    /// The machine whose storage is exhausted.
    pub machine: MachineId,
    /// The hold deadline that does not fit.
    pub until: SimTime,
}

/// Why [`Bookings::add_request`] refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddRequestError {
    /// The request breaks a scenario invariant.
    Invalid(ScenarioError),
    /// The request is valid, but the longer holds it imposes on copies
    /// already staged do not fit.
    Hold(HoldRefused),
}

impl core::fmt::Display for AddRequestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AddRequestError::Invalid(e) => e.fmt(f),
            AddRequestError::Hold(HoldRefused { item, machine, until }) => {
                write!(f, "machine {machine} cannot hold data item {item} until {until}")
            }
        }
    }
}

impl std::error::Error for AddRequestError {}

/// What [`Bookings::rollback`] needs to take a decision about one item
/// back.
#[derive(Debug, Clone)]
pub struct Savepoint {
    item: DataItemId,
    requests: usize,
    horizon: SimTime,
    transfers: usize,
    copies: usize,
    staged: usize,
    delivered: Vec<Option<Delivery>>,
}

/// Version stamps: what moved in the bookings, and when, for the planner
/// that keeps what it read off them (DESIGN.md §3, "Dirty-item caching").
///
/// Consumption is counted: each booking, outage block or lengthened hold
/// bumps the count and stamps the links and stores it took with it, so a
/// reader that noted the count when it checked a tree asks in O(1) whether
/// a resource was consumed since. Whatever consumption does not describe
/// bumps a per-item stamp or, for a release of capacity or the blocked
/// past, the one epoch that invalidates everything.
#[derive(Debug, Clone)]
pub(crate) struct Stamps {
    /// Consumptions so far.
    pub(crate) consumed: u64,
    /// Per link and per machine's store: the count at its last
    /// consumption.
    link: Vec<u64>,
    store: Vec<u64>,
    /// Per machine: the count at the last consumption of its store or of
    /// a link into it.
    entered: Vec<u64>,
    /// Per item: bumped when its copies or hold deadlines move.
    pub(crate) tree: Vec<u64>,
    /// Per item: bumped when the set of its requests that are active and
    /// not delivered may have moved.
    pub(crate) pending: Vec<u64>,
    /// Bumped by a release of capacity and by blocking the past.
    pub(crate) epoch: u64,
}

impl Stamps {
    fn new(scenario: &Scenario) -> Self {
        let (machines, items) = (scenario.network().machine_count(), scenario.item_count());
        Stamps {
            consumed: 0,
            link: vec![0; scenario.network().link_count()],
            store: vec![0; machines],
            entered: vec![0; machines],
            tree: vec![0; items],
            pending: vec![0; items],
            epoch: 0,
        }
    }

    /// Whether `hop`'s link or its receiving store was consumed after the
    /// count was `at`.
    pub(crate) fn hop_moved_since(&self, hop: &Hop, at: u64) -> bool {
        self.link[hop.link.index()] > at || self.store[hop.to.index()] > at
    }

    /// Whether a link into `machine`, or its store, was consumed after the
    /// count was `at`: a hop that [`hop_moved_since`](Self::hop_moved_since)
    /// names enters such a machine.
    pub(crate) fn entered_since(&self, machine: MachineId, at: u64) -> bool {
        self.entered[machine.index()] > at
    }

    fn consume(&mut self, network: &Network, link: VirtualLinkId) {
        self.consumed += 1;
        self.link[link.index()] = self.consumed;
        self.entered[network.link(link).destination().index()] = self.consumed;
    }

    fn consume_store(&mut self, machine: MachineId) {
        self.consumed += 1;
        self.store[machine.index()] = self.consumed;
        self.entered[machine.index()] = self.consumed;
    }

    /// `item`'s copies or holds moved, and with them maybe its deliveries.
    fn sources_moved(&mut self, item: DataItemId) {
        self.tree[item.index()] += 1;
        self.pending[item.index()] += 1;
    }
}

/// The bookings of one schedule.
#[derive(Debug, Clone)]
pub struct Bookings<'a> {
    scenario: Cow<'a, Scenario>,
    ledger: NetworkLedger,
    /// Current copies per item: `(machine, available_at)`.
    copies: Vec<Vec<(MachineId, SimTime)>>,
    /// Hold policy per item per machine: horizon for that item's
    /// destinations, GC time otherwise — a function of the scenario alone
    /// (see [`hold_row`]). Every booked transfer of the item into a
    /// machine has that machine's storage reserved up to this time.
    hold_until: Vec<Vec<SimTime>>,
    /// Delivery time per request, once satisfied.
    delivered: Vec<Option<Delivery>>,
    /// Per item, every booked transfer's arrival in commit order, copies
    /// lost since included (their storage stays reserved). Gives the hop
    /// depth of a copy for the links-traversed statistic, the number of
    /// reservations a hold change must move, and the copy a late request
    /// for an already-staged destination is served from.
    staged: Vec<Vec<Staged>>,
    /// Copy losses per item, `(machine, lost_at)`: every copy that reached
    /// the machine no later than `lost_at` is gone from then on.
    lost: Vec<Vec<(MachineId, SimTime)>>,
    /// The link outages applied and the instant before which every link is
    /// blocked. The ledger merges a block with the reservations around it,
    /// so a release must be told which part of a window stays busy.
    down: Vec<(VirtualLinkId, SimTime)>,
    past: SimTime,
    /// Whether each request may receive resources. All requests start
    /// active; the dynamic layer deactivates requests that have not been
    /// released yet. Inactive requests still *record* deliveries when a
    /// copy happens to land on their destination — the data is simply
    /// there — but never drive scheduling decisions.
    active: Vec<bool>,
    /// Transfers booked since the bookings were made or last
    /// [`Bookings::take_transfers`].
    transfers: Vec<Transfer>,
    stamps: Stamps,
}

/// The hold deadlines of `item`'s copies, per machine: the horizon on the
/// destinations of its requests, its garbage-collection time elsewhere.
fn hold_row(scenario: &Scenario, item: DataItemId) -> Vec<SimTime> {
    let gc = scenario.gc_time(item).unwrap_or(scenario.horizon());
    let mut holds = vec![gc; scenario.network().machine_count()];
    for &req in scenario.requests_for(item) {
        holds[scenario.request(req).destination().index()] = scenario.horizon();
    }
    holds
}

impl<'a> Bookings<'a> {
    /// Bookings for a run: initial copies are placed, source storage is
    /// reserved to the horizon, nothing is scheduled.
    #[must_use]
    pub fn new(scenario: &'a Scenario) -> Self {
        Self::init(Cow::Borrowed(scenario))
    }

    /// Like [`Bookings::new`] over a scenario the bookings own, so that
    /// they can outlive their maker and take requests one at a time
    /// ([`Bookings::add_request`]).
    #[must_use]
    pub fn owning(scenario: Scenario) -> Bookings<'static> {
        Bookings::init(Cow::Owned(scenario))
    }

    fn init(scenario: Cow<'a, Scenario>) -> Self {
        let mut ledger = NetworkLedger::new(scenario.network());
        let mut copies = Vec::with_capacity(scenario.item_count());
        let mut hold_until = Vec::with_capacity(scenario.item_count());
        for (item_id, item) in scenario.items() {
            let mut item_copies = Vec::with_capacity(item.sources().len());
            for src in item.sources() {
                item_copies.push((src.machine, src.available_at));
                // Sources hold their copies for the remainder of the
                // simulation (§5.3); placement is exogenous, so it is
                // forced even on over-small machines.
                ledger.force_storage(
                    src.machine,
                    item.size(),
                    src.available_at,
                    scenario.horizon(),
                );
            }
            copies.push(item_copies);
            hold_until.push(hold_row(&scenario, item_id));
        }
        Bookings {
            ledger,
            copies,
            hold_until,
            delivered: vec![None; scenario.request_count()],
            staged: vec![Vec::new(); scenario.item_count()],
            lost: vec![Vec::new(); scenario.item_count()],
            down: Vec::new(),
            past: SimTime::ZERO,
            active: vec![true; scenario.request_count()],
            transfers: Vec::new(),
            stamps: Stamps::new(&scenario),
            scenario,
        }
    }

    /// The scenario being scheduled.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The resource ledger (current commitments).
    #[must_use]
    pub fn ledger(&self) -> &NetworkLedger {
        &self.ledger
    }

    /// What moved, and when.
    pub(crate) fn stamps(&self) -> &Stamps {
        &self.stamps
    }

    /// The search instance of `item` against the current ledger.
    #[must_use]
    pub fn query(&self, item: DataItemId) -> ItemQuery<'_> {
        ItemQuery {
            network: self.scenario.network(),
            ledger: &self.ledger,
            size: self.scenario.item(item).size(),
            sources: &self.copies[item.index()],
            hold_until: &self.hold_until[item.index()],
            horizon: self.scenario.horizon(),
        }
    }

    /// Whether `request` has been satisfied already.
    #[must_use]
    pub fn is_delivered(&self, request: RequestId) -> bool {
        self.delivered[request.index()].is_some()
    }

    /// The *active* requests of `item` not yet satisfied — the ones that
    /// may receive resources.
    pub fn pending_requests(&self, item: DataItemId) -> impl Iterator<Item = RequestId> + '_ {
        self.scenario
            .requests_for(item)
            .iter()
            .copied()
            .filter(move |&r| self.delivered[r.index()].is_none() && self.active[r.index()])
    }

    /// Activates or deactivates a request (dynamic request release).
    /// Deactivated requests receive no resources; see the field docs.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn set_request_active(&mut self, request: RequestId, active: bool) {
        self.active[request.index()] = active;
        self.stamps.pending[self.scenario.request(request).item().index()] += 1;
    }

    /// Whether a request may receive resources.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn is_request_active(&self, request: RequestId) -> bool {
        self.active[request.index()]
    }

    /// Appends one request to the scenario (validated as
    /// [`Scenario::push_request`] does) and brings the tables up to what
    /// fresh bookings over the grown scenario, with the same transfers
    /// booked, would hold. The request starts active and undelivered,
    /// except that a copy already staged on its destination delivers it
    /// (see [`Bookings::rederive_item`] for which).
    ///
    /// Holds are retroactive: the request's deadline may push its item's
    /// garbage-collection time out, and its destination now keeps its copy
    /// to the horizon, so storage reserved for copies staged earlier is
    /// lengthened to match.
    ///
    /// Bookings that borrow their scenario take their own copy first.
    ///
    /// # Errors
    ///
    /// [`AddRequestError::Invalid`] for a request the scenario refuses,
    /// [`AddRequestError::Hold`] when a lengthened hold does not fit; the
    /// bookings are unchanged either way.
    pub fn add_request(&mut self, request: Request) -> Result<RequestId, AddRequestError> {
        let id = self.scenario.to_mut().push_request(request).map_err(AddRequestError::Invalid)?;
        let item = request.item();
        if let Err(refused) = self.rehold(item) {
            self.scenario.to_mut().pop_request();
            return Err(AddRequestError::Hold(refused));
        }
        self.delivered.push(self.served(id, &request));
        self.active.push(true);
        self.stamps.pending[item.index()] += 1;
        Ok(id)
    }

    /// Moves the scenario's horizon. Sources and destinations keep their
    /// copies to the horizon, so their storage is lengthened (or, moving
    /// back, shortened) to match.
    ///
    /// # Errors
    ///
    /// Returns the first staged copy whose lengthened hold does not fit;
    /// the bookings are unchanged.
    pub fn set_horizon(&mut self, horizon: SimTime) -> Result<(), HoldRefused> {
        let old = self.scenario.horizon();
        if horizon == old {
            return Ok(());
        }
        self.move_source_holds(old, horizon);
        for item in self.scenario.item_ids() {
            if let Err(refused) = self.rehold(item) {
                self.move_source_holds(horizon, old);
                for done in self.scenario.item_ids().take(item.index()) {
                    self.rehold(done).expect("shortening holds frees storage");
                }
                return Err(refused);
            }
        }
        Ok(())
    }

    /// Sets the horizon and moves the end of every source's (forced)
    /// storage reservation with it.
    fn move_source_holds(&mut self, from: SimTime, to: SimTime) {
        self.scenario.to_mut().set_horizon(to);
        for (_, item) in self.scenario.items() {
            for src in item.sources() {
                let (lo, hi) = (from.min(to).max(src.available_at), from.max(to));
                if to > from {
                    self.ledger.force_storage(src.machine, item.size(), lo, hi);
                } else {
                    self.ledger.release_storage(src.machine, item.size(), lo, hi);
                }
            }
        }
    }

    /// Recomputes `item`'s hold deadlines from the scenario and moves the
    /// end of the storage reservation of each of its booked transfers to
    /// match. On refusal nothing has moved.
    fn rehold(&mut self, item: DataItemId) -> Result<(), HoldRefused> {
        let new_row = hold_row(&self.scenario, item);
        let old_row = &self.hold_until[item.index()];
        if new_row == *old_row {
            return Ok(());
        }
        let size = self.scenario.item(item).size();
        let staged = &self.staged[item.index()];
        for (done, s) in staged.iter().enumerate() {
            let (old, new) = (old_row[s.machine.index()], new_row[s.machine.index()]);
            if new < old {
                self.ledger.release_storage(s.machine, size, new, old);
            } else if self.ledger.reserve_storage(s.machine, size, old, new).is_err() {
                // Put back what moved before this entry.
                for s in &staged[..done] {
                    let (old, new) = (old_row[s.machine.index()], new_row[s.machine.index()]);
                    if new < old {
                        self.ledger.force_storage(s.machine, size, new, old);
                    } else {
                        self.ledger.release_storage(s.machine, size, old, new);
                    }
                }
                return Err(HoldRefused { item, machine: s.machine, until: new });
            }
        }
        // Lengthened holds consume storage other items' trees may have
        // planned on; shortened ones are only ever part of a rollback,
        // which moves the epoch.
        for s in staged {
            self.stamps.consume_store(s.machine);
        }
        self.hold_until[item.index()] = new_row;
        self.stamps.sources_moved(item);
        Ok(())
    }

    /// Marks the point a decision about `item` starts from: the requests
    /// and the horizon as they stand, and everything of the item that
    /// routing it may change.
    #[must_use]
    pub fn savepoint(&self, item: DataItemId) -> Savepoint {
        Savepoint {
            item,
            requests: self.scenario.request_count(),
            horizon: self.scenario.horizon(),
            transfers: self.transfers.len(),
            copies: self.copies[item.index()].len(),
            staged: self.staged[item.index()].len(),
            delivered: self
                .scenario
                .requests_for(item)
                .iter()
                .map(|r| self.delivered[r.index()])
                .collect(),
        }
    }

    /// Takes back everything since `savepoint`: the transfers booked (all
    /// of the savepoint's item), the requests added, and a moved horizon —
    /// leaving ledger, copies, holds and deliveries as they were. Released
    /// capacity is what no consumption stamp describes, so the epoch
    /// moves.
    ///
    /// Between savepoint and rollback the caller may add requests, move
    /// the horizon and book the item's transfers, but not lose copies or
    /// block links.
    pub fn rollback(&mut self, savepoint: Savepoint) {
        let item = savepoint.item;
        let size = self.scenario.item(item).size();
        for t in self.transfers.drain(savepoint.transfers..).rev() {
            debug_assert_eq!(t.item, item, "a decision books transfers of its own item only");
            let hold = self.hold_until[item.index()][t.to.index()];
            self.ledger.release_transfer(self.scenario.network(), t.link, t.start, size, hold);
        }
        self.copies[item.index()].truncate(savepoint.copies);
        self.staged[item.index()].truncate(savepoint.staged);
        while self.scenario.request_count() > savepoint.requests {
            let withdrawn = self.scenario.to_mut().pop_request().expect("counted above").item();
            self.rehold(withdrawn).expect("shortening holds frees storage");
        }
        self.delivered.truncate(savepoint.requests);
        self.active.truncate(savepoint.requests);
        for (r, was) in self.scenario.requests_for(item).iter().zip(savepoint.delivered) {
            self.delivered[r.index()] = was;
        }
        self.set_horizon(savepoint.horizon).expect("shortening holds frees storage");
        self.stamps.epoch += 1;
    }

    /// Hands over the transfers booked since the last call (or since the
    /// bookings were made), leaving their own list empty: a long-lived
    /// owner keeps the committed list, the bookings only the ledger they
    /// are booked in.
    pub fn take_transfers(&mut self) -> Vec<Transfer> {
        std::mem::take(&mut self.transfers)
    }

    /// The first difference between the scheduling tables of `self` and
    /// `other` — requests, horizon, blocks, ledger, copies, losses, holds,
    /// deliveries, staged arrivals with their depths, activity flags — or
    /// `None` when they agree. Stamps and the pending transfer list are
    /// not compared: bookings that agree here make the same decisions.
    #[must_use]
    pub fn first_difference(&self, other: &Bookings<'_>) -> Option<String> {
        fn differ<T: PartialEq + core::fmt::Debug>(what: String, a: &T, b: &T) -> Option<String> {
            (a != b).then(|| format!("{what}: {a:?} vs {b:?}"))
        }
        let (a, b) = (self.scenario(), other.scenario());
        if a.request_count() != b.request_count()
            || a.requests().zip(b.requests()).any(|(x, y)| x != y)
        {
            return Some("the request tables differ".to_string());
        }
        let (mine, theirs) = (&self.ledger, &other.ledger);
        differ("horizon".to_string(), &a.horizon(), &b.horizon())
            .or_else(|| differ("blocked past".to_string(), &self.past, &other.past))
            .or_else(|| differ("link outages".to_string(), &self.down, &other.down))
            .or_else(|| {
                a.network().links().find_map(|(l, _)| {
                    differ(format!("busy intervals of {l}"), mine.link_busy(l), theirs.link_busy(l))
                })
            })
            .or_else(|| {
                a.network().machine_ids().find_map(|m| {
                    differ(format!("storage timeline of {m}"), mine.store(m), theirs.store(m))
                })
            })
            .or_else(|| {
                a.item_ids().find_map(|item| {
                    let i = item.index();
                    differ(format!("copies of {item}"), &self.copies[i], &other.copies[i])
                        .or_else(|| {
                            differ(format!("losses of {item}"), &self.lost[i], &other.lost[i])
                        })
                        .or_else(|| {
                            let (x, y) = (&self.hold_until[i], &other.hold_until[i]);
                            differ(format!("holds of {item}"), x, y)
                        })
                        .or_else(|| {
                            let (x, y) = (&self.staged[i], &other.staged[i]);
                            differ(format!("staged arrivals of {item}"), x, y)
                        })
                })
            })
            .or_else(|| {
                a.request_ids().find_map(|request| {
                    let r = request.index();
                    differ(
                        format!("delivery of {request}"),
                        &self.delivered[r],
                        &other.delivered[r],
                    )
                    .or_else(|| {
                        let (x, y) = (&self.active[r], &other.active[r]);
                        differ(format!("activity of {request}"), x, y)
                    })
                })
            })
    }

    /// Loses the copies of `item` held at `machine` that exist at `lost_at`
    /// — i.e. whose availability is `<= lost_at` (dynamic copy loss: a
    /// crash or storage fault). Copies that arrive *after* the loss
    /// survive. Plans can no longer source the item from the lost copies,
    /// and a request they had delivered falls to the next copy that serves
    /// it, if any; their storage reservations are left in place (the model
    /// cannot reclaim half-elapsed holds, and staying conservative only
    /// under-reports performance). Returns whether any copy was removed.
    ///
    /// A removed copy moves the item's tree stamp; other items are
    /// unaffected (losing a source can only worsen this item's arrivals).
    pub fn remove_copies(
        &mut self,
        item: DataItemId,
        machine: MachineId,
        lost_at: SimTime,
    ) -> bool {
        self.lost[item.index()].push((machine, lost_at));
        let copies = &mut self.copies[item.index()];
        let before = copies.len();
        copies.retain(|&(m, at)| m != machine || at > lost_at);
        let removed = copies.len() != before;
        if removed {
            self.stamps.tree[item.index()] += 1;
        }
        for &id in self.scenario.requests_for(item) {
            let request = self.scenario.request(id);
            if request.destination() == machine {
                self.delivered[id.index()] = self.served(id, request);
            }
        }
        // A loss can reopen a request whose copy an earlier loss took
        // already: the pending set moves although no copy did.
        self.stamps.pending[item.index()] += 1;
        removed
    }

    /// Whether the copy of `item` that reached `machine` at `arrival` is
    /// still there at `until`.
    pub(crate) fn survives(
        &self,
        item: DataItemId,
        machine: MachineId,
        arrival: SimTime,
        until: SimTime,
    ) -> bool {
        !self.lost[item.index()].iter().any(|&(m, at)| m == machine && arrival <= at && at <= until)
    }

    /// The delivery the staged copies of its item give `request`: the first
    /// copy in commit order at its destination, in time, that survives to
    /// its deadline — the one loss rule, whether the copy, the loss or the
    /// request came last.
    fn served(&self, id: RequestId, request: &Request) -> Option<Delivery> {
        let (item, at) = (request.item(), request.destination());
        self.staged[item.index()]
            .iter()
            .find(|s| {
                s.machine == at
                    && s.arrival <= request.deadline()
                    && self.survives(item, at, s.arrival, request.deadline())
            })
            .map(|s| Delivery { request: id, at: s.arrival, hops: s.depth })
    }

    /// The recorded delivery of a request, if any.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn delivery_of(&self, request: RequestId) -> Option<Delivery> {
        self.delivered[request.index()]
    }

    /// Takes a link out of service from `from` onward (remaining window
    /// time is blanket-reserved). The block is pure consumption, stamped
    /// like a commit.
    pub fn apply_link_outage(&mut self, link: VirtualLinkId, from: SimTime) {
        let end = self.scenario.network().link(link).end();
        self.ledger.block_link(link, from, end.max(from));
        self.down.push((link, from));
        self.stamps.consume(self.scenario.network(), link);
    }

    /// Blocks all remaining link capacity before `now` so that no newly
    /// planned transfer can start in the past (dynamic re-planning). It
    /// touches every link, so it moves the epoch.
    pub fn block_past(&mut self, now: SimTime) {
        self.ledger.block_past(now);
        self.past = self.past.max(now);
        self.stamps.epoch += 1;
    }

    /// Books one transfer of `item`: reserves the link and the receiving
    /// storage, stages the copy, and stamps what it consumed.
    fn book(&mut self, item: DataItemId, hop: Hop) -> Result<(), CommitError> {
        let hold = self.hold_until[item.index()][hop.to.index()];
        let slot = self.ledger.commit_transfer(
            self.scenario.network(),
            hop.link,
            hop.start,
            self.scenario.item(item).size(),
            hold,
        )?;
        debug_assert_eq!(slot.arrival, hop.arrival);
        self.transfers.push(Transfer::along(item, hop));
        let depth =
            self.depth_at(item, hop.from, hop.start).map_or(u32::MAX, |d| d.saturating_add(1));
        self.stage(item, hop.to, hop.arrival, depth);
        self.stamps.consume(self.scenario.network(), hop.link);
        self.stamps.consume_store(hop.to);
        self.stamps.sources_moved(item);
        Ok(())
    }

    /// The table half of a booking: the new copy (unless a loss already on
    /// record takes it), its arrival with its hop depth, and the requests
    /// it delivers.
    fn stage(&mut self, item: DataItemId, to: MachineId, arrival: SimTime, depth: u32) {
        if self.survives(item, to, arrival, SimTime::MAX) {
            self.copies[item.index()].push((to, arrival));
        }
        self.staged[item.index()].push(Staged { machine: to, arrival, depth });
        for &id in self.scenario.requests_for(item) {
            let request = self.scenario.request(id);
            if self.delivered[id.index()].is_none()
                && request.destination() == to
                && arrival <= request.deadline()
                && self.survives(item, to, arrival, request.deadline())
            {
                self.delivered[id.index()] =
                    Some(Delivery { request: id, at: arrival, hops: depth });
            }
        }
    }

    /// Books a transfer made elsewhere — a recorded reservation being
    /// replayed — exactly as the heuristic that planned it did.
    ///
    /// # Errors
    ///
    /// Returns the ledger's refusal; the bookings are unchanged.
    pub fn book_transfer(&mut self, t: &Transfer) -> Result<(), CommitError> {
        let hop = Hop { from: t.from, to: t.to, link: t.link, start: t.start, arrival: t.arrival };
        self.book(t.item, hop)
    }

    /// Books `hops` of `item` in order: the hops of a path or a union of
    /// paths of a tree searched on these bookings, in travel order.
    ///
    /// # Panics
    ///
    /// Panics if a hop conflicts with existing reservations.
    pub fn commit_hops(&mut self, item: DataItemId, hops: &[Hop]) {
        for &hop in hops {
            self.book(item, hop)
                .expect("a tree's hop is feasible against the ledger it was read on");
        }
    }

    /// Books `path` of `item` with every hop re-timed to its *latest*
    /// feasible slot (the `alap` heuristic's move): the final hop completes
    /// by `deadline` and each earlier hop completes by the start of the
    /// hop after it, so the chain hugs the deadline and leaves early link
    /// capacity free. Hops into machines that already hold a copy in time
    /// are skipped along with the whole chain feeding them (downstream
    /// sources from the existing copy).
    ///
    /// Returns the number of hops booked.
    ///
    /// # Panics
    ///
    /// Panics if `path`'s earliest arrival is past `deadline`. A path that
    /// meets the deadline has a latest slot for every hop: each hop's
    /// earliest slot is one, since it arrives by the earliest start of the
    /// hop after it, which is no later than that hop's latest start, and a
    /// later arrival holds less storage.
    pub fn commit_latest(&mut self, item: DataItemId, path: &[Hop], deadline: SimTime) -> u32 {
        let size = self.scenario.item(item).size();
        // Backward pass: bound each hop's completion by the start of the
        // hop after it (the copy must be on the sending machine before the
        // next transfer begins).
        let mut limit = deadline;
        let mut retimed: Vec<Hop> = Vec::with_capacity(path.len());
        for hop in path.iter().rev() {
            // A copy already at the receiving machine in time makes this
            // hop — and the chain feeding it — unnecessary.
            if self.has_copy_by(item, hop.to, limit) {
                break;
            }
            let hold = self.hold_until[item.index()][hop.to.index()];
            let slot = self
                .ledger
                .latest_transfer(self.scenario.network(), hop.link, hop.start, size, limit, hold)
                .expect("a path that meets the deadline has latest slots");
            retimed.push(Hop {
                from: hop.from,
                to: hop.to,
                link: hop.link,
                start: slot.start,
                arrival: slot.arrival,
            });
            limit = slot.start;
        }
        // Forward pass: book in travel order. Each hop touches its own
        // link and receiving store (path machines are distinct), so the
        // probed slots stay feasible as earlier hops book.
        retimed.reverse();
        for &hop in &retimed {
            self.book(item, hop).expect("latest slot probed against the same ledger must commit");
        }
        retimed.len() as u32
    }

    /// Takes a booked transfer out of the ledger: its link window and the
    /// receiving store are free again — except the part of the window that
    /// lies in the blocked past or on the link after its outage, which
    /// bookings made without the transfer would have blocked outright. The
    /// item's tables still list the copy until
    /// [`Bookings::rederive_item`]. A release, so the epoch moves.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not booked.
    pub fn unbook(&mut self, t: &Transfer) {
        let hold = self.hold_until[t.item.index()][t.to.index()];
        let size = self.scenario.item(t.item).size();
        self.ledger.release_transfer(self.scenario.network(), t.link, t.start, size, hold);
        self.ledger.block_link(t.link, t.start, t.arrival.min(self.past));
        for &(link, from) in &self.down {
            if link == t.link {
                self.ledger.block_link(link, from.max(t.start), t.arrival);
            }
        }
        self.stamps.epoch += 1;
    }

    /// Puts a transfer taken out by [`Bookings::unbook`] back, nothing else
    /// having been booked or released in between: the exact inverse of the
    /// ledger's half, stamped as the consumption it is.
    ///
    /// # Panics
    ///
    /// Panics if the receiving store has no room for it.
    pub fn rebook(&mut self, t: &Transfer) {
        let hold = self.hold_until[t.item.index()][t.to.index()];
        let size = self.scenario.item(t.item).size();
        // The blocked part of the window never became free.
        self.ledger.block_link(t.link, t.start, t.arrival);
        self.ledger
            .reserve_storage(t.to, size, t.start, hold.max(t.arrival))
            .expect("the store held this very copy before it was unbooked");
        self.stamps.consume(self.scenario.network(), t.link);
        self.stamps.consume_store(t.to);
    }

    /// Rebuilds `item`'s tables — copies, booked arrivals with their hop
    /// depths, the deliveries of its requests — from `transfers`, the item's
    /// booked transfers in commit order, with no ledger call, and returns
    /// the ones it skips. A transfer is skipped when no copy of the item is
    /// at its sending machine at its start, or when an outage on record
    /// takes its link down before its arrival; a skipped transfer stages no
    /// copy, so the transfers that copy would have fed are skipped in turn.
    /// The tables are a function of that list, the item's losses, the
    /// outages and its requests alone: a copy on record is one no loss has
    /// taken, and a request is delivered by the first copy in the list at
    /// its destination, in time, that survives to its deadline. Booking the
    /// transfers it keeps one by one on fresh bookings runs the same code.
    pub fn rederive_item<'t>(
        &mut self,
        item: DataItemId,
        transfers: impl IntoIterator<Item = &'t Transfer>,
    ) -> Vec<Transfer> {
        // Refilled in place: the climb re-derives items trial after trial,
        // and a fresh vector each time raised the daemon's peak RSS.
        let mut copies = std::mem::take(&mut self.copies[item.index()]);
        copies.clear();
        let sources = self.scenario.item(item).sources().iter();
        copies.extend(
            sources
                .map(|src| (src.machine, src.available_at))
                .filter(|&(machine, at)| self.survives(item, machine, at, SimTime::MAX)),
        );
        self.copies[item.index()] = copies;
        self.staged[item.index()].clear();
        for id in self.scenario.requests_for(item) {
            self.delivered[id.index()] = None;
        }
        let mut skipped = Vec::new();
        for t in transfers {
            debug_assert_eq!(t.item, item);
            let down = self.down.iter().any(|&(link, from)| link == t.link && from < t.arrival);
            match self.depth_at(item, t.from, t.start) {
                Some(depth) if !down => self.stage(item, t.to, t.arrival, depth.saturating_add(1)),
                _ => skipped.push(*t),
            }
        }
        self.stamps.sources_moved(item);
        skipped
    }

    /// Hop depth of the shallowest copy of `item` at `machine` at instant
    /// `at` — arrived by then and not lost since — with an initial source
    /// at depth 0; `None` where there is no such copy.
    fn depth_at(&self, item: DataItemId, machine: MachineId, at: SimTime) -> Option<u32> {
        let sources = (self.scenario.item(item).sources().iter())
            .filter(|src| src.machine == machine)
            .map(|src| (src.available_at, 0));
        let staged = (self.staged[item.index()].iter())
            .filter(|s| s.machine == machine)
            .map(|s| (s.arrival, s.depth));
        sources
            .chain(staged)
            .filter(|&(arrival, _)| arrival <= at && self.survives(item, machine, arrival, at))
            .map(|(_, depth)| depth)
            .min()
    }

    /// Whether a current copy of `item` — an initial source or a booked
    /// arrival no loss has taken — is at `machine` by `by`.
    pub(crate) fn has_copy_by(&self, item: DataItemId, machine: MachineId, by: SimTime) -> bool {
        self.copies[item.index()].iter().any(|&(m, at)| m == machine && at <= by)
    }

    /// Finalizes the run into a schedule.
    #[must_use]
    pub fn into_schedule(self) -> Schedule {
        let deliveries: Vec<Delivery> = self.delivered.into_iter().flatten().collect();
        Schedule::from_parts(self.transfers, deliveries)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::planner::Planner;
    use dstage_model::data::{DataItem, DataSource};
    use dstage_model::link::VirtualLink;
    use dstage_model::machine::Machine;
    use dstage_model::network::NetworkBuilder;
    use dstage_model::request::{Priority, Request};
    use dstage_model::units::{BitsPerSec, Bytes};

    pub(crate) fn m(i: u32) -> MachineId {
        MachineId::new(i)
    }

    pub(crate) fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    pub(crate) fn item(i: u32) -> DataItemId {
        DataItemId::new(i)
    }

    /// 0 -> 1 -> 2 -> 3 line, 1 byte/ms links, one item at m0 requested by
    /// m2 (high) and m3 (low).
    pub(crate) fn line_scenario() -> Scenario {
        let mut b = NetworkBuilder::new();
        for i in 0..4 {
            b.add_machine(Machine::new(format!("m{i}"), Bytes::from_mib(1)));
        }
        for i in 0..3u32 {
            b.add_link(VirtualLink::new(
                m(i),
                m(i + 1),
                t(0),
                SimTime::from_hours(2),
                BitsPerSec::new(8_000),
            ));
        }
        Scenario::builder(b.build())
            .add_item(DataItem::new("d0", Bytes::new(10_000), vec![DataSource::new(m(0), t(0))]))
            .add_request(Request::new(item(0), m(2), t(3_000), Priority::HIGH))
            .add_request(Request::new(item(0), m(3), t(3_000), Priority::LOW))
            .build()
            .unwrap()
    }

    /// Commits `item`'s earliest path to `to`, as a heuristic would.
    fn commit_path(st: &mut Bookings<'_>, item: DataItemId, to: MachineId) -> u32 {
        Planner::new(st).commit_path(st, item, to)
    }

    #[test]
    fn remove_copies_respects_the_loss_instant() {
        let s = line_scenario();
        let mut st = Bookings::new(&s);
        commit_path(&mut st, item(0), m(2)); // copies at m1 (t=10), m2 (t=20)
                                             // A loss at t=15 kills the m1 copy but not one arriving later.
        assert!(st.remove_copies(item(0), m(1), t(15)));
        assert!(!st.remove_copies(item(0), m(1), t(15)), "already gone");
        // Losing at m2 before its arrival removes nothing.
        assert!(!st.remove_copies(item(0), m(2), t(15)));
        assert!(st.remove_copies(item(0), m(2), t(25)));
    }

    #[test]
    fn a_lost_destination_copy_reopens_the_request() {
        let s = line_scenario();
        let mut st = Bookings::new(&s);
        commit_path(&mut st, item(0), m(2));
        assert!(st.is_delivered(RequestId::new(0)));
        // Lost before the deadline (3 000 s): pending again.
        assert!(st.remove_copies(item(0), m(2), t(25)));
        assert!(!st.is_delivered(RequestId::new(0)));
        assert_eq!(st.pending_requests(item(0)).count(), 2);
        // A copy that lands after the loss delivers it again.
        book_at(&mut st, item(0), 1, 30);
        assert_eq!(st.delivery_of(RequestId::new(0)).map(|d| d.at), Some(t(40)));
    }

    #[test]
    fn delivery_of_reports_time_and_hops() {
        let s = line_scenario();
        let mut st = Bookings::new(&s);
        commit_path(&mut st, item(0), m(2));
        let d = st.delivery_of(RequestId::new(0)).unwrap();
        assert_eq!(d.at, t(20));
        assert_eq!(d.hops, 2);
        assert!(st.delivery_of(RequestId::new(1)).is_none());
    }

    #[test]
    fn an_onward_hop_counts_from_the_shallowest_copy_at_its_start() {
        // m0 → m1 directly (depth 1) and through m2 (depth 2), then m1 → m3:
        // the deeper copy is booked after the shallow one, and both are on
        // m1 when the onward hop starts; the one booked last arrives after.
        let mut b = NetworkBuilder::new();
        for i in 0..4 {
            b.add_machine(Machine::new(format!("m{i}"), Bytes::from_mib(1)));
        }
        for (from, to) in [(0, 1), (0, 2), (2, 1), (1, 3)] {
            let window = (t(0), SimTime::from_hours(2));
            b.add_link(VirtualLink::new(
                m(from),
                m(to),
                window.0,
                window.1,
                BitsPerSec::new(8_000),
            ));
        }
        let s = Scenario::builder(b.build())
            .add_item(DataItem::new("d0", Bytes::new(10_000), vec![DataSource::new(m(0), t(0))]))
            .add_request(Request::new(item(0), m(3), t(3_000), Priority::HIGH))
            .build()
            .unwrap();
        let mut st = Bookings::new(&s);
        for (link, start) in [(0, 0), (1, 0), (2, 20), (1, 200), (2, 300)] {
            book_at(&mut st, item(0), link, start);
        }
        book_at(&mut st, item(0), 3, 100);
        assert_eq!(st.delivery_of(RequestId::new(0)).map(|d| (d.at, d.hops)), Some((t(110), 2)));
        let booked = st.transfers.clone();
        st.rederive_item(item(0), &booked);
        assert_eq!(st.delivery_of(RequestId::new(0)).map(|d| d.hops), Some(2));
    }

    #[test]
    fn rederive_skips_what_a_disturbance_cuts_off_and_what_it_fed() {
        let s = dstage_workload::small::two_hop_chain();
        let config = crate::heuristic::HeuristicConfig::paper_best();
        let heuristic = crate::heuristic::Heuristic::FullPathOneDestination;
        let mut plan = crate::heuristic::run(&s, heuristic, &config).schedule.transfers().to_vec();
        assert!(plan.len() >= 2, "the chain needs staged hops");
        plan.sort_by_key(|t| (t.item, t.start, t.arrival, t.link));
        let rederive_all = |st: &mut Bookings<'_>| -> Vec<Transfer> {
            let items = st.scenario().item_ids().collect::<Vec<_>>();
            let of = |i: DataItemId| plan.iter().filter(move |t| t.item == i);
            items.into_iter().flat_map(|i| st.rederive_item(i, of(i))).collect()
        };
        let mut fresh = Bookings::new(&s);
        for t in &plan {
            fresh.book_transfer(t).unwrap();
        }
        // No disturbance: everything stays, and the tables are the booked ones.
        let mut st = fresh.clone();
        assert_eq!(rederive_all(&mut st), []);
        assert_eq!(st.first_difference(&fresh), None);
        // The first-hop link down from t=0: every transfer depends on it,
        // the second hops through the copies the first ones would stage.
        let mut st = fresh.clone();
        st.apply_link_outage(VirtualLinkId::new(0), SimTime::ZERO);
        assert_eq!(rederive_all(&mut st), plan);
        // Item 0's relay copy lost on arrival: its onward hop goes with it.
        let relay = *plan.iter().find(|t| t.item == item(0) && t.to == m(1)).unwrap();
        let mut st = fresh.clone();
        st.remove_copies(item(0), m(1), relay.arrival);
        let onward: Vec<Transfer> =
            plan.iter().filter(|t| t.item == item(0) && t.from == m(1)).copied().collect();
        assert!(!onward.is_empty());
        assert_eq!(rederive_all(&mut st), onward);
    }

    #[test]
    fn book_transfer_refuses_a_booked_window_and_changes_nothing() {
        let s = line_scenario();
        let mut st = Bookings::new(&s);
        let hop = Planner::new(&st).candidate_steps(&st, item(0))[0].hop;
        st.book_transfer(&Transfer::along(item(0), hop))
            .expect("a hop of the current tree is free");
        // The same window again: refused, nothing booked or staged.
        let before = st.clone();
        assert!(st.book_transfer(&Transfer::along(item(0), hop)).is_err());
        assert_eq!(st.first_difference(&before), None);
        assert_eq!(st.take_transfers(), before.clone().take_transfers());
    }

    #[test]
    fn book_transfer_reports_link_conflicts() {
        // Two items at m0, single link to m1: plan both on the pristine
        // network (identical slots), then commit both — the second fails.
        let mut b = NetworkBuilder::new();
        for i in 0..2 {
            b.add_machine(Machine::new(format!("m{i}"), Bytes::from_mib(1)));
        }
        b.add_link(VirtualLink::new(
            m(0),
            m(1),
            t(0),
            SimTime::from_hours(2),
            BitsPerSec::new(8_000),
        ));
        let s = Scenario::builder(b.build())
            .add_item(DataItem::new("a", Bytes::new(10_000), vec![DataSource::new(m(0), t(0))]))
            .add_item(DataItem::new("b", Bytes::new(10_000), vec![DataSource::new(m(0), t(0))]))
            .add_request(Request::new(item(0), m(1), t(3_000), Priority::HIGH))
            .add_request(Request::new(item(1), m(1), t(3_000), Priority::HIGH))
            .build()
            .unwrap();
        let mut st = Bookings::new(&s);
        let mut plan = Planner::new(&st);
        let hop_a = plan.tree(&st, item(0), &[m(1)]).first_hop_toward(m(1)).unwrap();
        let hop_b = plan.tree(&st, item(1), &[m(1)]).first_hop_toward(m(1)).unwrap();
        assert_eq!(hop_a.start, hop_b.start, "planned on the same pristine network");
        assert!(st.book_transfer(&Transfer::along(item(0), hop_a)).is_ok());
        assert!(
            st.book_transfer(&Transfer::along(item(1), hop_b)).is_err(),
            "stale slot must conflict"
        );
        // State is unchanged by the failed commit: item 1 has no copy at m1.
        assert!(!st.is_delivered(RequestId::new(1)));
    }

    /// Fork 0 -> 1, 1 -> 2, 1 -> 3 with 1 byte/ms links; m2 stores 30 kB.
    /// Item `a` (10 kB at m0) is wanted at m2 by the horizon, which pins
    /// its hold row at the horizon everywhere; `b` and `c` (15 kB at m1)
    /// are wanted at m3 and at m2.
    pub(crate) fn fork() -> Bookings<'static> {
        let mut b = NetworkBuilder::new();
        for (i, bytes) in [1 << 20, 1 << 20, 30_000, 1 << 20].into_iter().enumerate() {
            b.add_machine(Machine::new(format!("m{i}"), Bytes::new(bytes)));
        }
        let horizon = SimTime::from_hours(2);
        for (from, to) in [(0, 1), (1, 2), (1, 3)] {
            b.add_link(VirtualLink::new(m(from), m(to), t(0), horizon, BitsPerSec::new(8_000)));
        }
        let d = |name: &str, bytes, at| {
            DataItem::new(name, Bytes::new(bytes), vec![DataSource::new(m(at), t(0))])
        };
        let scenario = Scenario::builder(b.build())
            .horizon(horizon)
            .add_item(d("a", 10_000, 0))
            .add_item(d("b", 15_000, 1))
            .add_item(d("c", 15_000, 1))
            .add_request(Request::new(item(0), m(2), horizon, Priority::HIGH))
            .add_request(Request::new(item(1), m(3), t(3_000), Priority::LOW))
            .add_request(Request::new(item(2), m(2), t(3_000), Priority::LOW))
            .build()
            .unwrap();
        Bookings::owning(scenario)
    }

    /// Books a transfer of `item` over `link` at `start`, whatever its
    /// tree says: consumption by somebody else, at a chosen time.
    pub(crate) fn book_at(st: &mut Bookings<'_>, item: DataItemId, link: u32, start: u64) {
        let vl = st.scenario().network().link(VirtualLinkId::new(link)).clone();
        let arrival = t(start) + vl.transfer_time(st.scenario().item(item).size());
        let hop = Hop {
            from: vl.source(),
            to: vl.destination(),
            link: VirtualLinkId::new(link),
            start: t(start),
            arrival,
        };
        st.book_transfer(&Transfer::along(item, hop)).expect("free at that time");
    }

    /// The line network with `relay_bytes` of storage on m1, item `d0` at
    /// m0, γ = 60 s, and one request: m2 by 100 s.
    pub(crate) fn growing(relay_bytes: u64) -> Bookings<'static> {
        let mut b = NetworkBuilder::new();
        for (i, bytes) in [1 << 20, relay_bytes, 1 << 20, 1 << 20].into_iter().enumerate() {
            b.add_machine(Machine::new(format!("m{i}"), Bytes::new(bytes)));
        }
        for i in 0..3u32 {
            b.add_link(VirtualLink::new(
                m(i),
                m(i + 1),
                t(0),
                SimTime::from_hours(2),
                BitsPerSec::new(8_000),
            ));
        }
        let d =
            |name: &str| DataItem::new(name, Bytes::new(10_000), vec![DataSource::new(m(0), t(0))]);
        let scenario = Scenario::builder(b.build())
            .gc_delay(dstage_model::time::SimDuration::from_secs(60))
            .add_item(d("d0"))
            .add_item(d("d1"))
            .add_request(Request::new(item(0), m(2), t(100), Priority::HIGH))
            .build()
            .unwrap();
        Bookings::owning(scenario)
    }

    /// A fresh state over `state`'s scenario with `transfers` booked in
    /// order: what `state` must equal, whatever order its requests came in.
    fn rebuilt(state: &Bookings<'_>, transfers: &[Transfer]) -> Bookings<'static> {
        let mut fresh = Bookings::owning(state.scenario().clone());
        for t in transfers {
            fresh.book_transfer(t).expect("booked once already");
        }
        fresh
    }

    /// `item`'s transfer over `link` (10 s a hop in `growing`) from `start`.
    pub(crate) fn hop_at(st: &Bookings<'_>, item: DataItemId, link: u32, start: u64) -> Transfer {
        let vl = st.scenario().network().link(VirtualLinkId::new(link));
        let (from, to, start) = (vl.source(), vl.destination(), t(start));
        Transfer {
            item,
            from,
            to,
            link: VirtualLinkId::new(link),
            start,
            arrival: start + vl.transfer_time(st.scenario().item(item).size()),
        }
    }

    /// Booking `hop` on `st` and taking it out again, and taking it out of
    /// the booked state and putting it back, both change nothing.
    fn assert_unbook_inverts_book(mut st: Bookings<'static>, hop: Transfer, case: &str) {
        let others: Vec<Transfer> =
            st.transfers.iter().filter(|t| t.item == hop.item).copied().collect();
        let before = st.clone();
        st.book_transfer(&hop).unwrap_or_else(|e| panic!("{case}: {e}"));
        let booked = st.clone();
        st.unbook(&hop);
        st.rederive_item(hop.item, &others);
        assert_eq!(st.first_difference(&before), None, "{case}: unbook after book");
        assert!(st.stamps().epoch > booked.stamps().epoch, "{case}: a release moves the epoch");
        st.rebook(&hop);
        st.rederive_item(hop.item, others.iter().chain([&hop]));
        assert_eq!(st.first_difference(&booked), None, "{case}: rebook after unbook");
    }

    #[test]
    fn unbooking_is_the_exact_inverse_of_booking() {
        // Link-adjacent: neighbours on both sides of the window, which the
        // busy set has merged into one span.
        let mut st = growing(1 << 20);
        st.add_request(Request::new(item(1), m(2), t(100), Priority::LOW)).unwrap();
        for start in [0, 20] {
            let neighbour = hop_at(&st, item(1), 0, start);
            st.book_transfer(&neighbour).unwrap();
        }
        let hop = hop_at(&st, item(0), 0, 10);
        assert_unbook_inverts_book(st, hop, "link-adjacent");
        // Block-adjacent: the blocked past ends and an outage begins where
        // the window does.
        let mut st = growing(1 << 20);
        st.block_past(t(10));
        st.apply_link_outage(VirtualLinkId::new(0), t(20));
        let hop = hop_at(&st, item(0), 0, 10);
        assert_unbook_inverts_book(st, hop, "block-adjacent");
        // Storage-tight: the relay holds exactly this one copy, and has
        // room for the other item's once it is gone.
        let mut st = growing(10_000);
        st.add_request(Request::new(item(1), m(2), t(100), Priority::LOW)).unwrap();
        let (hop, other) = (hop_at(&st, item(0), 0, 0), hop_at(&st, item(1), 0, 10));
        assert_unbook_inverts_book(st.clone(), hop, "storage-tight");
        st.book_transfer(&hop).unwrap();
        assert!(st.clone().book_transfer(&other).is_err(), "the relay is full");
        st.unbook(&hop);
        st.book_transfer(&other).expect("the relay is free again");
    }

    #[test]
    fn a_release_spares_the_blocked_part_of_the_window() {
        // Booked over [10 s, 20 s) on link 0; then the past is blocked to
        // 13 s and the link goes down at 17 s, and the busy set merges both
        // blocks with the window. Releasing it frees [13 s, 17 s) alone —
        // what a state that never booked it shows.
        let mut never = growing(1 << 20);
        let mut st = never.clone();
        let hop = hop_at(&st, item(0), 0, 10);
        st.book_transfer(&hop).unwrap();
        for state in [&mut st, &mut never] {
            state.block_past(t(13));
            state.apply_link_outage(VirtualLinkId::new(0), t(17));
        }
        st.take_transfers();
        st.unbook(&hop);
        st.rederive_item(hop.item, []);
        assert_eq!(st.first_difference(&never), None);
        let busy = st.ledger().link_busy(hop.link);
        assert!(
            !busy.is_free(t(12), t(13))
                && busy.is_free(t(13), t(17))
                && !busy.is_free(t(17), t(18))
        );
        // Entirely in the past, or entirely after the outage: nothing frees.
        for start in [0, 30] {
            let mut st = growing(1 << 20);
            let hop = hop_at(&st, item(0), 0, start);
            st.book_transfer(&hop).unwrap();
            st.block_past(t(10));
            st.apply_link_outage(VirtualLinkId::new(0), t(25));
            let blocked = st.ledger().link_busy(hop.link).clone();
            st.unbook(&hop);
            assert_eq!(*st.ledger().link_busy(hop.link), blocked, "from {start} s");
        }
    }

    #[test]
    fn add_request_lengthens_holds_as_a_fresh_state_would_have_made_them() {
        let mut st = growing(1 << 20);
        commit_path(&mut st, item(0), m(2)); // m1 holds d0 until 100 + 60 s
        let booked = st.take_transfers();
        assert_eq!(st.ledger().store(m(1)).used_at(t(159)), Bytes::new(10_000));
        assert_eq!(st.ledger().store(m(1)).used_at(t(160)), Bytes::ZERO);
        // A later deadline for the item keeps the relay's copy longer; the
        // new destination is on no route yet, so it stays pending.
        let id = st.add_request(Request::new(item(0), m(3), t(500), Priority::LOW)).unwrap();
        assert_eq!(st.ledger().store(m(1)).used_at(t(559)), Bytes::new(10_000));
        assert!(!st.is_delivered(id) && st.is_request_active(id));
        assert_eq!(st.first_difference(&rebuilt(&st, &booked)), None);
        // A request for a machine that already holds a copy in time is
        // delivered on the spot, with that copy's hop depth; m1 then keeps
        // its copy to the horizon.
        let id = st.add_request(Request::new(item(0), m(1), t(50), Priority::LOW)).unwrap();
        assert_eq!(st.delivery_of(id), Some(Delivery { request: id, at: t(10), hops: 1 }));
        assert_eq!(st.first_difference(&rebuilt(&st, &booked)), None);
        // Too early for that copy: pending, not delivered late.
        let mut early = growing(1 << 20);
        commit_path(&mut early, item(0), m(2));
        let id = early.add_request(Request::new(item(0), m(1), t(5), Priority::LOW)).unwrap();
        assert!(!early.is_delivered(id));
    }

    #[test]
    fn a_hold_that_cannot_grow_refuses_the_request_and_changes_nothing() {
        // The relay stores one item: d1 crosses it once d0 is collected.
        let mut st = growing(10_000);
        commit_path(&mut st, item(0), m(2));
        st.add_request(Request::new(item(1), m(3), t(400), Priority::LOW)).unwrap();
        commit_path(&mut st, item(1), m(3));
        let before = st.clone();
        let refused = st.add_request(Request::new(item(0), m(3), t(300), Priority::LOW));
        assert_eq!(
            refused,
            Err(AddRequestError::Hold(HoldRefused { item: item(0), machine: m(1), until: t(360) }))
        );
        assert_eq!(st.first_difference(&before), None);
        assert_eq!(st.scenario().request_count(), 2);
        // An invalid request is refused by the scenario, just as untouched.
        let duplicate = st.add_request(Request::new(item(0), m(2), t(900), Priority::LOW));
        assert!(matches!(duplicate, Err(AddRequestError::Invalid(_))));
        assert_eq!(st.first_difference(&before), None);
    }

    #[test]
    fn rollback_takes_a_routed_request_and_a_moved_horizon_back() {
        let mut st = growing(1 << 20);
        commit_path(&mut st, item(0), m(2));
        st.take_transfers();
        let before = st.clone();
        let savepoint = st.savepoint(item(0));
        let id = st.add_request(Request::new(item(0), m(3), t(9_000), Priority::LOW)).unwrap();
        st.set_horizon(t(9_060)).unwrap();
        assert_eq!(st.scenario().horizon(), t(9_060));
        commit_path(&mut st, item(0), m(3));
        assert!(st.is_delivered(id));
        assert!(st.first_difference(&before).is_some());
        st.rollback(savepoint);
        assert_eq!(st.first_difference(&before), None);
        assert_eq!(st.scenario().horizon(), SimTime::from_hours(2));
        assert!(st.stamps().epoch > before.stamps().epoch, "a release moves the epoch");
        assert!(st.take_transfers().is_empty());
        // The same decision, kept: equal to booking everything afresh.
        st.add_request(Request::new(item(0), m(3), t(9_000), Priority::LOW)).unwrap();
        st.set_horizon(t(9_060)).unwrap();
        commit_path(&mut st, item(0), m(3));
        let mut all = vec![
            Transfer {
                item: item(0),
                from: m(0),
                to: m(1),
                link: VirtualLinkId::new(0),
                start: t(0),
                arrival: t(10),
            },
            Transfer {
                item: item(0),
                from: m(1),
                to: m(2),
                link: VirtualLinkId::new(1),
                start: t(10),
                arrival: t(20),
            },
        ];
        all.extend(st.take_transfers());
        assert_eq!(all.len(), 3);
        assert_eq!(st.first_difference(&rebuilt(&st, &all)), None);
    }
}
