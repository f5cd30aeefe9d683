//! Shared scheduler state: resource ledger, copy tracking, cached
//! shortest-path trees, and candidate-step enumeration.
//!
//! All three heuristics (§4.5–4.7), both random lower bounds (§5.2), and
//! the priority-first comparison scheme drive the same [`SchedulerState`]:
//! they differ only in *which* candidate step they pick each iteration and
//! *how much* of the chosen shortest path they commit.
//!
//! An offline run borrows its scenario and is thrown away with its plan.
//! The admission daemon instead keeps one state for as long as it serves
//! ([`SchedulerState::owning`]): each submission is appended to the
//! state's own scenario ([`SchedulerState::add_request`]), routed by the
//! ordinary heuristic loop, and — when it is refused — taken back again
//! ([`SchedulerState::rollback`]). Reservations made earlier leave the same
//! way they came: [`SchedulerState::unbook`] frees one transfer's window
//! and storage, [`SchedulerState::rederive_item`] rebuilds its item's
//! tables from the transfers that remain.

use std::borrow::Cow;

use dstage_model::error::ScenarioError;
use dstage_model::ids::{DataItemId, MachineId, RequestId, VirtualLinkId};
use dstage_model::network::Network;
use dstage_model::request::{Priority, Request};
use dstage_model::scenario::Scenario;
use dstage_model::time::SimTime;
use dstage_path::{
    earliest_arrival_paths, earliest_arrival_tree, paths_hold, ArrivalTree, Hop, ItemQuery,
    Landmarks,
};
use dstage_resources::journal::{ChangeJournal, JournalMark};
use dstage_resources::ledger::{CommitError, NetworkLedger};

use crate::metrics::RunMetrics;
use crate::schedule::{Delivery, Schedule, Transfer};

/// One destination affected by a candidate step: everything a cost
/// criterion reads about it, so that scoring a step touches nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DestinationOutlook {
    /// The request this destination belongs to.
    pub request: RequestId,
    /// The request's deadline `Rft[i, j]`.
    pub deadline: SimTime,
    /// The request's priority.
    pub priority: Priority,
    /// The shortest-path arrival estimate `A_T[i, j]`.
    pub arrival: SimTime,
    /// `Sat[i, r](j)`: whether `A_T` meets the request's deadline.
    pub satisfiable: bool,
}

/// A candidate communication step: the first hop of the current shortest
/// path of item `item`, together with the destinations `Drq[i, r]` whose
/// paths begin with that hop.
///
/// At least one destination is satisfiable (steps that help nobody are
/// never offered — "that request receives no resources", §4.8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateStep {
    /// The item to move.
    pub item: DataItemId,
    /// The transfer `M[s] → M[r]` over one virtual link, with times.
    pub hop: Hop,
    /// The destinations whose shortest paths start with `hop`, i.e.
    /// `Drq[item, hop.to]`, with per-destination outlooks, in request-id
    /// order (the order every cost sum is taken in).
    pub destinations: Vec<DestinationOutlook>,
}

impl CandidateStep {
    /// The destinations that are satisfiable via this step.
    pub fn satisfiable(&self) -> impl Iterator<Item = &DestinationOutlook> + '_ {
        self.destinations.iter().filter(|d| d.satisfiable)
    }
}

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

/// Why [`SchedulerState::add_request`] refused a request.
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

/// What [`SchedulerState::rollback`] needs to take a decision about one
/// item back.
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

/// A set of machines: one bit each, sized to the network.
#[derive(Debug, Clone, Default)]
struct MachineSet(Vec<u64>);

impl MachineSet {
    fn sized(machines: usize) -> Self {
        MachineSet(vec![0; machines.div_ceil(64)])
    }

    /// Adds `machine`; whether it was new.
    fn insert(&mut self, machine: MachineId) -> bool {
        let (word, bit) = (machine.index() / 64, 1u64 << (machine.index() % 64));
        let new = self.0[word] & bit == 0;
        self.0[word] |= bit;
        new
    }

    fn contains(&self, machine: MachineId) -> bool {
        self.0[machine.index() / 64] & (1u64 << (machine.index() % 64)) != 0
    }

    fn intersects(&self, other: &MachineSet) -> bool {
        self.0.iter().zip(&other.0).any(|(a, b)| a & b != 0)
    }

    fn clear(&mut self) {
        self.0.fill(0);
    }
}

/// The machines entered by what the journal recorded between `from` and
/// `upto`: the machines recorded, and the receiving machine of each link
/// recorded (a hop enters `hop.to` over a link that ends there, so a hop
/// that [`paths_hold`] would probe again always enters a machine of this
/// set). The items visited in one selection round were all checked at the
/// previous round's mark, so one set serves the whole round: its clean
/// skips, and as the membership prefilter of [`paths_hold`], the
/// validation of the trees the round reads.
#[derive(Debug, Clone, Default)]
struct Dirtied {
    from: JournalMark,
    upto: JournalMark,
    machines: MachineSet,
}

impl Dirtied {
    /// The set for everything `journal` recorded since `from`.
    fn since(
        &mut self,
        from: JournalMark,
        journal: &ChangeJournal,
        network: &Network,
    ) -> &MachineSet {
        if self.from != from {
            self.restart(from);
        }
        let (links, machines) = journal.since(self.upto);
        for &link in links {
            self.machines.insert(network.link(link).destination());
        }
        for &machine in machines {
            self.machines.insert(machine);
        }
        self.upto = journal.mark();
        &self.machines
    }

    /// The empty set at `from`. A cleared journal restarts its marks, so
    /// the set must restart with it.
    fn restart(&mut self, from: JournalMark) {
        self.machines.clear();
        (self.from, self.upto) = (from, from);
    }
}

/// The candidate steps read off a cached tree for its item's pending
/// requests (whose destinations are the entry's `validated`).
#[derive(Debug, Clone)]
struct Enumeration {
    /// As [`SchedulerState::candidate_steps`] returns them. Empty: the
    /// item is *dead* — no pending destination can be reached in time.
    steps: Vec<CandidateStep>,
    /// The machines the tree's paths to the pending destinations enter.
    entered: MachineSet,
}

/// Everything cached about one item.
#[derive(Debug, Clone)]
struct CachedItem {
    /// The earliest-arrival tree. Only its paths to `validated` are known
    /// to be current (DESIGN.md §3).
    tree: ArrivalTree,
    /// The journal position up to which the tree's paths to `validated`
    /// have been checked, so that each record is examined once.
    checked: JournalMark,
    /// The destinations `checked` speaks for. A read of any other machine
    /// searches again.
    validated: Vec<MachineId>,
    /// The steps enumerated when the tree was last read for `validated`,
    /// while `validated` is the item's pending destinations: kept as long
    /// as the tree is served unchanged for that same read, dropped with
    /// the tree and by whatever changes the pending set under it.
    enumeration: Option<Enumeration>,
}

/// The steps last enumerated for an item, current once
/// [`SchedulerState::refresh_steps`] has visited it.
fn cached_steps(cached: &Option<CachedItem>) -> &[CandidateStep] {
    cached.as_ref().and_then(|c| c.enumeration.as_ref()).map_or(&[], |read| &read.steps)
}

/// How one item's visit in a selection round was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Visit {
    /// No pending request: nothing to enumerate.
    Idle,
    /// Cached enumeration empty: skipped, no pending destination can have
    /// come into reach.
    Dead,
    /// Nothing journaled since the last check enters a machine on the read
    /// paths: skipped.
    Clean,
    /// The tree's read paths were validated hop by hop and hold.
    Validated,
    /// The tree was built, or was never read for these destinations: the
    /// steps were enumerated afresh.
    Rebuilt,
}

/// Mutable state of one scheduling run.
#[derive(Debug, Clone)]
pub struct SchedulerState<'a> {
    scenario: Cow<'a, Scenario>,
    /// The landmark distances that steer every search to the destinations
    /// it is read for — a function of the network alone.
    landmarks: Landmarks,
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
    /// Per item, everything cached about it: the tree, what was last read
    /// off it and the steps that read produced (DESIGN.md §3). Dropping an
    /// entry drops all of it.
    cache: Vec<Option<CachedItem>>,
    /// Append-only log of consumed links/stores; with an entry's mark it
    /// tells each cached tree exactly what moved under it.
    journal: ChangeJournal,
    /// The machines entered by what the journal recorded since one mark —
    /// the mark the items of a selection round share.
    dirtied: Dirtied,
    /// Transfers booked since the state was built or last
    /// [`SchedulerState::take_transfers`].
    transfers: Vec<Transfer>,
    metrics: RunMetrics,
    caching: bool,
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

/// The oracle every tree read off the cache is held to in debug builds and
/// tests, whether served or freshly searched: every label a read of
/// `destinations` takes from `tree` — the arrival at and the path to each
/// — is the one a full from-scratch search of `query` returns.
fn reads_match_scratch(
    query: &ItemQuery<'_>,
    tree: &ArrivalTree,
    destinations: &[MachineId],
) -> bool {
    let scratch = earliest_arrival_tree(query);
    destinations
        .iter()
        .all(|&d| tree.arrival(d) == scratch.arrival(d) && tree.path_to(d) == scratch.path_to(d))
}

/// The candidate steps `tree` offers `item`'s `pending` requests: the
/// distinct first hops of its paths to their destinations, each grouped
/// with its `Drq[i, r]`, ordered by receiving machine then link; steps
/// without a satisfiable destination are left out.
fn enumerate(
    scenario: &Scenario,
    item: DataItemId,
    pending: &[RequestId],
    tree: &ArrivalTree,
) -> Vec<CandidateStep> {
    let mut steps: Vec<CandidateStep> = Vec::new();
    for &request in pending {
        let req = scenario.request(request);
        let destination = req.destination();
        if !tree.is_reachable(destination) {
            continue;
        }
        let Some(first_hop) = tree.first_hop_toward(destination) else {
            // Destination already holds (or is scheduled to receive) a
            // copy and no earlier route exists; nothing to schedule.
            continue;
        };
        let arrival = tree.arrival(destination);
        let outlook = DestinationOutlook {
            request,
            deadline: req.deadline(),
            priority: req.priority(),
            arrival,
            satisfiable: arrival <= req.deadline(),
        };
        match steps.iter_mut().find(|s| s.hop == first_hop) {
            Some(step) => step.destinations.push(outlook),
            None => steps.push(CandidateStep { item, hop: first_hop, destinations: vec![outlook] }),
        }
    }
    steps.retain(|s| s.destinations.iter().any(|d| d.satisfiable));
    steps.sort_by_key(|s| (s.hop.to, s.hop.link));
    for step in &mut steps {
        step.destinations.sort_by_key(|d| d.request);
    }
    steps
}

impl<'a> SchedulerState<'a> {
    /// Initializes state for a run: initial copies are placed, source
    /// storage is reserved to the horizon, nothing is scheduled.
    #[must_use]
    pub fn new(scenario: &'a Scenario) -> Self {
        Self::with_caching(scenario, true)
    }

    /// Like [`SchedulerState::new`], optionally disabling the tree cache
    /// (used by the caching ablation; results must be identical).
    #[must_use]
    pub fn with_caching(scenario: &'a Scenario, caching: bool) -> Self {
        Self::init(Cow::Borrowed(scenario), caching)
    }

    /// Like [`SchedulerState::with_caching`] over a scenario the state
    /// owns, so that it can outlive its maker and take requests one at a
    /// time ([`SchedulerState::add_request`]).
    #[must_use]
    pub fn owning(scenario: Scenario, caching: bool) -> SchedulerState<'static> {
        SchedulerState::init(Cow::Owned(scenario), caching)
    }

    fn init(scenario: Cow<'a, Scenario>, caching: bool) -> Self {
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
        SchedulerState {
            landmarks: Landmarks::new(scenario.network()),
            ledger,
            copies,
            hold_until,
            delivered: vec![None; scenario.request_count()],
            staged: vec![Vec::new(); scenario.item_count()],
            lost: vec![Vec::new(); scenario.item_count()],
            down: Vec::new(),
            past: SimTime::ZERO,
            active: vec![true; scenario.request_count()],
            cache: vec![None; scenario.item_count()],
            journal: ChangeJournal::default(),
            dirtied: Dirtied {
                machines: MachineSet::sized(scenario.network().machine_count()),
                ..Dirtied::default()
            },
            transfers: Vec::new(),
            metrics: RunMetrics::default(),
            caching,
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
        self.forget_steps(self.scenario.request(request).item());
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
    /// [`Scenario::push_request`] does) and brings the tables up to what a
    /// fresh state over the grown scenario, with the same transfers
    /// booked, would hold. The request starts active and undelivered,
    /// except that a copy already staged on its destination delivers it
    /// (see [`SchedulerState::rederive_item`] for which).
    ///
    /// Holds are retroactive: the request's deadline may push its item's
    /// garbage-collection time out, and its destination now keeps its copy
    /// to the horizon, so storage reserved for copies staged earlier is
    /// lengthened to match.
    ///
    /// A state that borrows its scenario takes its own copy first.
    ///
    /// # Errors
    ///
    /// [`AddRequestError::Invalid`] for a request the scenario refuses,
    /// [`AddRequestError::Hold`] when a lengthened hold does not fit; the
    /// state is unchanged either way.
    pub fn add_request(&mut self, request: Request) -> Result<RequestId, AddRequestError> {
        let id = self.scenario.to_mut().push_request(request).map_err(AddRequestError::Invalid)?;
        let item = request.item();
        if let Err(refused) = self.rehold(item) {
            self.scenario.to_mut().pop_request();
            return Err(AddRequestError::Hold(refused));
        }
        self.delivered.push(self.served(id, &request));
        self.active.push(true);
        // A hold row that did not move leaves the item's tree cached; its
        // steps were enumerated without this request.
        self.forget_steps(item);
        Ok(id)
    }

    /// Moves the scenario's horizon. Sources and destinations keep their
    /// copies to the horizon, so their storage is lengthened (or, moving
    /// back, shortened) to match.
    ///
    /// # Errors
    ///
    /// Returns the first staged copy whose lengthened hold does not fit;
    /// the state is unchanged.
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
        // which forgets every tree.
        for s in staged {
            self.journal.record_machine(s.machine);
        }
        self.hold_until[item.index()] = new_row;
        self.cache[item.index()] = None;
        if !self.caching {
            self.drop_all_trees();
        }
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
    /// leaving ledger, copies, holds and deliveries as they were. Cached
    /// trees are forgotten, since released capacity is the one change the
    /// journal cannot describe. Run counters keep counting.
    ///
    /// Between savepoint and rollback the caller may add requests, move
    /// the horizon and drive a heuristic, but not lose copies or block
    /// links.
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
        self.forget_trees();
    }

    /// Hands over the transfers booked since the last call (or since the
    /// state was built), leaving the state's own list empty: a long-lived
    /// state's owner keeps the committed list, the state only the ledger
    /// they are booked in.
    pub fn take_transfers(&mut self) -> Vec<Transfer> {
        std::mem::take(&mut self.transfers)
    }

    /// Drops every cached tree and, with no reader left, the journal of
    /// consumed resources. A long-lived state calls this when a decision
    /// ends: the only tree a decision builds is its own item's, which its
    /// own commit (or its rollback) invalidates anyway, so nothing worth
    /// keeping is lost and the journal stays as short as one decision.
    pub fn forget_trees(&mut self) {
        self.drop_all_trees();
        self.journal.clear();
        self.dirtied.restart(JournalMark::default());
    }

    /// Records held by the journal of consumed resources.
    #[must_use]
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// The first difference between the scheduling tables of `self` and
    /// `other` — requests, horizon, blocks, ledger, copies, losses, holds,
    /// deliveries, staged arrivals with their depths, activity flags — or
    /// `None` when they agree. Caches (trees, journal), the pending
    /// transfer list and run counters are not compared: two states that
    /// agree here make the same decisions.
    #[must_use]
    pub fn first_difference(&self, other: &SchedulerState<'_>) -> Option<String> {
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
    /// The item's cached tree is invalidated; other items are unaffected
    /// (losing a source can only worsen this item's arrivals).
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
            self.cache[item.index()] = None;
        }
        for &id in self.scenario.requests_for(item) {
            let request = self.scenario.request(id);
            if request.destination() == machine {
                self.delivered[id.index()] = self.served(id, request);
            }
        }
        // A loss can reopen a request whose copy an earlier loss took
        // already: the pending set moves although no copy did.
        self.forget_steps(item);
        removed
    }

    /// Whether the copy of `item` that reached `machine` at `arrival` is
    /// still there at `until`.
    fn survives(
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
    /// time is blanket-reserved). The block is pure consumption, so it is
    /// journaled like a commit: cached trees are checked lazily at their
    /// next read.
    pub fn apply_link_outage(&mut self, link: VirtualLinkId, from: SimTime) {
        let end = self.scenario.network().link(link).end();
        self.ledger.block_link(link, from, end.max(from));
        self.down.push((link, from));
        self.journal.record_link(link);
        if !self.caching {
            self.drop_all_trees();
        }
    }

    /// Blocks all remaining link capacity before `now` so that no newly
    /// planned transfer can start in the past (dynamic re-planning), and
    /// invalidates every cached tree.
    pub fn block_past(&mut self, now: SimTime) {
        self.ledger.block_past(now);
        self.past = self.past.max(now);
        self.drop_all_trees();
    }

    /// Invalidates every cached tree, and with it the steps read off it.
    fn drop_all_trees(&mut self) {
        self.cache.fill(None);
    }

    /// Drops `item`'s cached steps, keeping its tree: its pending set
    /// changed, nothing the tree was searched on did.
    fn forget_steps(&mut self, item: DataItemId) {
        if let Some(cached) = &mut self.cache[item.index()] {
            cached.enumeration = None;
        }
    }

    /// Records one scheduler iteration (a cost-based selection round).
    pub fn note_iteration(&mut self) {
        self.metrics.iterations += 1;
    }

    /// The earliest-arrival tree of `item` against the current ledger, its
    /// labels current on the paths to `destinations` (nothing is promised
    /// about the rest of it: a search stops once `destinations` are
    /// settled, and a cached tree is validated only along those paths).
    pub fn tree(&mut self, item: DataItemId, destinations: &[MachineId]) -> &ArrivalTree {
        self.refresh_tree(item, destinations);
        self.refreshed(item)
    }

    fn refreshed(&self, item: DataItemId) -> &ArrivalTree {
        &self.cache[item.index()].as_ref().expect("just refreshed").tree
    }

    /// The search instance of `item` against the current ledger.
    fn query(&self, item: DataItemId) -> ItemQuery<'_> {
        ItemQuery {
            network: self.scenario.network(),
            ledger: &self.ledger,
            size: self.scenario.item(item).size(),
            sources: &self.copies[item.index()],
            hold_until: &self.hold_until[item.index()],
            horizon: self.scenario.horizon(),
        }
    }

    /// Brings `item`'s cached tree up to date for a read of its paths to
    /// `read`.
    ///
    /// The tree is served as it is when `read` lies inside the
    /// destinations it was last validated for and, walking only those
    /// paths, every hop whose link or receiving store was consumed since
    /// they were checked keeps its slot ([`paths_hold`]). Anything else
    /// searches from scratch, up to the last of `read`
    /// ([`earliest_arrival_paths`]).
    ///
    /// A tree served at the mark it was checked at is read as it stands:
    /// nothing was consumed since, so its paths to every destination it
    /// was validated for hold, and so do the steps read off it. Otherwise
    /// the entry's steps survive exactly one outcome: the tree served as
    /// it stood, for the destinations it was last validated for.
    fn refresh_tree(&mut self, item: DataItemId, read: &[MachineId]) {
        let mark = self.journal.mark();
        // With caching disabled every query recomputes from scratch,
        // mirroring the paper's unoptimized procedure — the reference the
        // validated trees are tested against.
        let cached = self.cache[item.index()].take().filter(|_| self.caching);
        let served = cached.filter(|cached| {
            // `checked` only speaks for the destinations validated with it.
            read.iter().all(|d| cached.validated.contains(d))
                && self.read_paths_hold(item, cached, read)
        });
        let clean = served.is_some();
        let query = self.query(item);
        let refreshed = match served {
            Some(mut cached) => {
                if cached.checked != mark && read != cached.validated {
                    cached.enumeration = None;
                    read.clone_into(&mut cached.validated);
                }
                cached.checked = mark;
                cached
            }
            None => CachedItem {
                tree: earliest_arrival_paths(&query, &self.landmarks, read),
                checked: mark,
                validated: read.to_vec(),
                enumeration: None,
            },
        };
        // Served or freshly searched, the read is a full search's.
        debug_assert!(reads_match_scratch(&query, &refreshed.tree, read));
        self.cache[item.index()] = Some(refreshed);
        if clean {
            self.metrics.cache_hits += 1;
        } else {
            self.metrics.dijkstra_runs += 1;
        }
    }

    /// Whether `cached`'s paths to `read` hold after what the journal
    /// recorded since their check ([`paths_hold`]). A hop into a machine
    /// outside the [`Dirtied`] set since that mark is passed over before
    /// the journal's lists are scanned: no record names it. Debug builds
    /// hold the answer to the unfiltered scan of those lists.
    fn read_paths_hold(
        &mut self,
        item: DataItemId,
        cached: &CachedItem,
        read: &[MachineId],
    ) -> bool {
        // Brought up to date here, read beside the query's borrow of `self`.
        self.dirtied.since(cached.checked, &self.journal, self.scenario.network());
        let entered = &self.dirtied.machines;
        let (links, machines) = self.journal.since(cached.checked);
        let query = self.query(item);
        let holds =
            paths_hold(&query, &cached.tree, read, |m| entered.contains(m), links, machines);
        debug_assert_eq!(
            holds,
            paths_hold(&query, &cached.tree, read, |_| true, links, machines),
            "the membership prefilter changed the validation of {item}"
        );
        holds
    }

    /// Brings `item`'s cached steps up to date, re-reading only what can
    /// have changed under them (DESIGN.md §3, "what a selection round
    /// re-reads").
    fn refresh_steps(&mut self, item: DataItemId) -> Visit {
        let idx = item.index();
        if self.caching {
            let skipped = match &mut self.cache[idx] {
                Some(CachedItem { enumeration: Some(read), checked, .. }) => {
                    if read.steps.is_empty() {
                        // Consumption moves no arrival earlier, so no
                        // destination comes into reach; everything that can
                        // (a release, a copy, a request, a hold row) drops
                        // the entry or its steps.
                        Some(Visit::Dead)
                    } else if !self
                        .dirtied
                        .since(*checked, &self.journal, self.scenario.network())
                        .intersects(&read.entered)
                    {
                        // `paths_hold` would find no hop to probe again.
                        *checked = self.journal.mark();
                        Some(Visit::Clean)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            if let Some(visit) = skipped {
                self.metrics.cache_hits += 1;
                debug_assert!(self.skip_matches_scratch(item, visit));
                return visit;
            }
        }
        let pending: Vec<RequestId> = self.pending_requests(item).collect();
        if pending.is_empty() {
            debug_assert!(self.cache[idx].as_ref().is_none_or(|c| c.enumeration.is_none()));
            return Visit::Idle;
        }
        let destinations: Vec<MachineId> =
            pending.iter().map(|&r| self.scenario.request(r).destination()).collect();
        self.refresh_tree(item, &destinations);
        let cached = self.cache[idx].as_mut().expect("just refreshed");
        if cached.enumeration.is_some() {
            return Visit::Validated;
        }
        let mut entered = MachineSet::sized(self.scenario.network().machine_count());
        for &destination in &destinations {
            let mut cursor = destination;
            while let Some(hop) = cached.tree.hop_into(cursor) {
                // Already entered: so is the rest of the way to a source.
                if !entered.insert(hop.to) {
                    break;
                }
                cursor = hop.from;
            }
        }
        let steps = enumerate(&self.scenario, item, &pending, &cached.tree);
        // A tree read as it stood may be validated for more.
        destinations.clone_into(&mut cached.validated);
        cached.enumeration = Some(Enumeration { steps, entered });
        Visit::Rebuilt
    }

    /// The oracle a skipped visit is held to in debug builds: the pending
    /// destinations are the ones the cached steps were enumerated for, and
    /// a from-scratch search agrees — label for label on the read paths
    /// of a clean item, on there being nothing to offer for a dead one.
    fn skip_matches_scratch(&self, item: DataItemId, visit: Visit) -> bool {
        let cached = self.cache[item.index()].as_ref().expect("skipped on its entry");
        let pending: Vec<RequestId> = self.pending_requests(item).collect();
        let destinations: Vec<MachineId> =
            pending.iter().map(|&r| self.scenario.request(r).destination()).collect();
        let query = self.query(item);
        destinations == cached.validated
            && match visit {
                Visit::Dead => {
                    let scratch = earliest_arrival_tree(&query);
                    enumerate(&self.scenario, item, &pending, &scratch).is_empty()
                }
                _ => reads_match_scratch(&query, &cached.tree, &destinations),
            }
    }

    /// Makes `visits` and publishes how they were answered — counted here
    /// and added once, not one atomic per item of every round.
    fn publish(visits: impl IntoIterator<Item = Visit>) {
        let (mut dead, mut clean, mut rebuilt) = (0, 0, 0);
        for visit in visits {
            match visit {
                Visit::Dead => dead += 1,
                Visit::Clean => clean += 1,
                Visit::Rebuilt => rebuilt += 1,
                Visit::Idle | Visit::Validated => {}
            }
        }
        dstage_obs::metrics::CORE_ITEMS_SKIPPED_DEAD.add(dead);
        dstage_obs::metrics::CORE_ITEMS_SKIPPED_CLEAN.add(clean);
        dstage_obs::metrics::CORE_STEPS_REBUILT.add(rebuilt);
    }

    /// Enumerates the candidate steps of `item`: the distinct first hops
    /// of the current shortest paths to its pending destinations, each
    /// grouped with its `Drq[i, r]`. Steps without a single satisfiable
    /// destination are omitted.
    ///
    /// Deterministic: steps are ordered by the id of the receiving machine.
    pub fn candidate_steps(&mut self, item: DataItemId) -> &[CandidateStep] {
        Self::publish([self.refresh_steps(item)]);
        cached_steps(&self.cache[item.index()])
    }

    /// One selection round's enumeration: the candidate steps of every
    /// item with pending requests, items by id. They are lent from the
    /// cache — a heuristic scores them where they lie and clones the
    /// winner.
    pub fn all_candidate_steps(&mut self) -> impl Iterator<Item = &CandidateStep> + Clone + '_ {
        Self::publish(self.scenario.item_ids().map(|item| self.refresh_steps(item)));
        self.cache.iter().flat_map(cached_steps)
    }

    /// Books one transfer of `item`: reserves the link and the receiving
    /// storage, then stages the copy. The caller journals the consumption.
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
        self.metrics.transfers_committed += 1;
        let depth =
            self.depth_at(item, hop.from, hop.start).map_or(u32::MAX, |d| d.saturating_add(1));
        self.stage(item, hop.to, hop.arrival, depth);
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
    /// Returns the ledger's refusal; the state is unchanged.
    pub fn book_transfer(&mut self, t: &Transfer) -> Result<(), CommitError> {
        let hop = Hop { from: t.from, to: t.to, link: t.link, start: t.start, arrival: t.arrival };
        self.book(t.item, hop)?;
        self.record_consumption(t.item, &[hop], false);
        Ok(())
    }

    /// Takes a booked transfer out of the ledger: its link window and the
    /// receiving store are free again — except the part of the window that
    /// lies in the blocked past or on the link after its outage, which a
    /// state built without the transfer would have blocked outright. The
    /// item's tables still list the copy until
    /// [`SchedulerState::rederive_item`]; every cached tree is forgotten,
    /// as in [`SchedulerState::rollback`].
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
        self.forget_trees();
    }

    /// Puts a transfer taken out by [`SchedulerState::unbook`] back, nothing
    /// else having been booked or released in between: the exact inverse.
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
    /// transfers it keeps one by one on a fresh state runs the same code.
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
        self.cache[item.index()] = None;
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

    /// Commits a single hop (the partial path heuristic's move): reserves
    /// the link and receiving storage, adds the new copy, marks satisfied
    /// requests, and invalidates affected tree caches.
    ///
    /// # Panics
    ///
    /// Panics if the hop conflicts with existing reservations — callers
    /// only pass hops from the *current* tree of `item`, which are
    /// feasible by construction.
    pub fn commit_hop(&mut self, item: DataItemId, hop: Hop) {
        self.book(item, hop).expect("hop from current tree must be feasible");
        let own = (self.cache[item.index()].as_ref())
            .is_some_and(|cached| cached.tree.hop_into(hop.to) == Some(hop));
        self.record_consumption(item, &[hop], own);
    }

    /// Commits every hop on the current shortest path of `item` to
    /// `destination` (the full path/one destination move). A path starts
    /// at the latest copy on its way — a prefix shared with a previously
    /// committed path is a source of the tree, not a hop of it.
    ///
    /// Returns the number of hops committed.
    ///
    /// # Panics
    ///
    /// Panics if `destination` is unreachable in the current tree; callers
    /// check reachability when they pick the step.
    pub fn commit_path(&mut self, item: DataItemId, destination: MachineId) -> u32 {
        self.commit_paths(item, &[destination])
    }

    /// Commits the union of the current shortest paths of `item` to all
    /// `destinations` (the full path/all destinations move). Tree edges
    /// shared between paths are committed once.
    ///
    /// Returns the number of hops committed.
    ///
    /// # Panics
    ///
    /// Panics if any destination is unreachable in the current tree.
    pub fn commit_paths(&mut self, item: DataItemId, destinations: &[MachineId]) -> u32 {
        self.refresh_tree(item, destinations);
        let tree = self.refreshed(item);
        // Union of path edges, keyed by receiving machine (tree edges are
        // unique per receiving machine).
        let mut edges: Vec<Hop> = Vec::new();
        for &dest in destinations {
            let path = tree
                .path_to(dest)
                .expect("chosen destination must be reachable in the current tree");
            for hop in path {
                if !edges.contains(&hop) {
                    edges.push(hop);
                }
            }
        }
        // Commit in travel order so copies exist before onward hops. A
        // machine holding a copy by its label is a source of the tree, so
        // no hop enters one.
        edges.sort_by_key(|h| (h.arrival, h.start, h.link));
        for &hop in &edges {
            debug_assert!(!self.has_copy_by(item, hop.to, hop.arrival), "{hop:?} enters a copy");
            self.book(item, hop)
                .expect("tree hop must be feasible against the ledger it was computed on");
        }
        self.record_consumption(item, &edges, true);
        edges.len() as u32
    }

    /// Commits the current shortest path of `item` to `destination` with
    /// every hop re-timed to its *latest* feasible slot (the `alap`
    /// heuristic's move): the final hop completes by `deadline` and each
    /// earlier hop completes by the start of the hop after it, so the
    /// chain hugs the deadline and leaves early link capacity free. Hops
    /// into machines that already hold a copy in time are skipped along
    /// with the whole chain feeding them (downstream sources from the
    /// existing copy).
    ///
    /// Returns the number of hops committed.
    ///
    /// # Panics
    ///
    /// Panics if `destination` is unreachable in the current tree, or its
    /// earliest arrival is past `deadline`; callers check both when they
    /// pick the step. A path that meets the deadline has a latest slot for
    /// every hop: each hop's earliest slot is one, since it arrives by the
    /// earliest start of the hop after it, which is no later than that
    /// hop's latest start, and a later arrival holds less storage.
    pub fn commit_path_latest(
        &mut self,
        item: DataItemId,
        destination: MachineId,
        deadline: SimTime,
    ) -> u32 {
        self.refresh_tree(item, &[destination]);
        let path = self
            .refreshed(item)
            .path_to(destination)
            .expect("chosen destination must be reachable in the current tree");
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
        // Forward pass: commit in travel order. Each hop touches its own
        // link and receiving store (path machines are distinct), so the
        // probed slots stay feasible as earlier hops commit.
        retimed.reverse();
        for &hop in &retimed {
            self.book(item, hop).expect("latest slot probed against the same ledger must commit");
        }
        // Its copies arrive later than the tree's labels.
        self.record_consumption(item, &retimed, false);
        retimed.len() as u32
    }

    /// Finalizes the run into a schedule plus metrics.
    #[must_use]
    pub fn into_outcome(self) -> (Schedule, RunMetrics) {
        let deliveries: Vec<Delivery> = self.delivered.into_iter().flatten().collect();
        (Schedule::from_parts(self.transfers, deliveries), self.metrics)
    }

    /// Records resource consumption after `item` was booked over `hops`
    /// (`own`: hops of its cached tree, the search's own slots).
    ///
    /// Resources are only ever consumed while trees are cached (the two
    /// releases, [`SchedulerState::rollback`] and
    /// [`SchedulerState::unbook`], forget every tree), so a
    /// path of a cached tree stays optimal while each of its hops over a
    /// touched link or into a touched machine still finds its old slot
    /// (see DESIGN.md §3). The consumption is journaled; other items'
    /// trees are checked lazily at their next read. The committing item's
    /// own tree is kept when [`keeps_tree`](Self::keeps_tree) says it
    /// stays exact — each receiver of `hops` staged as a source
    /// ([`ArrivalTree::stage`]), checked at the new mark, its steps
    /// dropped — and dropped otherwise. With caching disabled, everything
    /// is invalidated.
    fn record_consumption(&mut self, item: DataItemId, hops: &[Hop], own: bool) {
        let mark = self.journal.mark();
        for hop in hops {
            self.journal.record_link(hop.link);
            self.journal.record_machine(hop.to);
        }
        if own && self.caching && self.keeps_tree(item, hops, mark) {
            let cached = self.cache[item.index()].as_mut().expect("kept");
            for &hop in hops {
                cached.tree.stage(hop);
            }
            cached.checked = self.journal.mark();
            cached.enumeration = None;
            dstage_obs::metrics::CORE_TREES_KEPT.inc();
        } else {
            self.cache[item.index()] = None;
        }
        if !self.caching {
            self.drop_all_trees();
        }
    }

    /// Whether `item`'s cached tree stays exact once its own `hops` are
    /// booked, and is worth keeping: it was checked at `mark`, just before
    /// them; every receiver holds its copy (no loss on record takes it),
    /// available at its label; and a destination it was validated for is
    /// still pending, so it will be read again.
    fn keeps_tree(&self, item: DataItemId, hops: &[Hop], mark: JournalMark) -> bool {
        let Some(cached) = &self.cache[item.index()] else { return false };
        cached.checked == mark
            && hops.iter().all(|hop| self.survives(item, hop.to, hop.arrival, SimTime::MAX))
            && self.pending_requests(item).any(|request| {
                cached.validated.contains(&self.scenario.request(request).destination())
            })
    }

    /// Current metrics snapshot.
    #[must_use]
    pub fn metrics(&self) -> RunMetrics {
        self.metrics
    }

    /// Sets the elapsed wall-clock time (recorded by the heuristic driver).
    pub fn set_elapsed(&mut self, elapsed: core::time::Duration) {
        self.metrics.elapsed = elapsed;
    }
}

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

    fn item(i: u32) -> DataItemId {
        DataItemId::new(i)
    }

    /// 0 -> 1 -> 2 -> 3 line, 1 byte/ms links, one item at m0 requested by
    /// m2 (high) and m3 (low).
    fn line_scenario() -> Scenario {
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

    #[test]
    fn initial_state_has_sources_and_no_deliveries() {
        let s = line_scenario();
        let mut st = SchedulerState::new(&s);
        assert_eq!(st.pending_requests(item(0)).count(), 2);
        let tree = st.tree(item(0), &[m(0), m(2), m(3)]);
        assert_eq!(tree.arrival(m(0)), t(0));
        assert_eq!(tree.arrival(m(2)), t(20));
        assert_eq!(tree.arrival(m(3)), t(30));
        assert_eq!(st.metrics().dijkstra_runs, 1);
    }

    #[test]
    fn candidate_steps_group_destinations_by_first_hop() {
        let s = line_scenario();
        let mut st = SchedulerState::new(&s);
        let steps = st.candidate_steps(item(0));
        // Both destinations' paths start with the hop 0 -> 1.
        assert_eq!(steps.len(), 1);
        let step = &steps[0];
        assert_eq!(step.hop.from, m(0));
        assert_eq!(step.hop.to, m(1));
        assert_eq!(step.destinations.len(), 2);
        assert!(step.destinations.iter().all(|d| d.satisfiable));
    }

    #[test]
    fn commit_hop_advances_the_frontier() {
        let s = line_scenario();
        let mut st = SchedulerState::new(&s);
        let steps = st.candidate_steps(item(0)).to_vec();
        st.commit_hop(item(0), steps[0].hop);
        // Now the first hop is 1 -> 2.
        let steps = st.candidate_steps(item(0)).to_vec();
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].hop.from, m(1));
        assert_eq!(steps[0].hop.to, m(2));
        // Committing it delivers the m2 request.
        st.commit_hop(item(0), steps[0].hop);
        assert!(st.is_delivered(RequestId::new(0)));
        assert!(!st.is_delivered(RequestId::new(1)));
        assert_eq!(st.pending_requests(item(0)).count(), 1);
    }

    #[test]
    fn commit_path_schedules_whole_chain() {
        let s = line_scenario();
        let mut st = SchedulerState::new(&s);
        let hops = st.commit_path(item(0), m(3));
        assert_eq!(hops, 3);
        assert!(st.is_delivered(RequestId::new(0))); // m2 is on the way
        assert!(st.is_delivered(RequestId::new(1)));
        let (schedule, metrics) = st.into_outcome();
        assert_eq!(schedule.transfers().len(), 3);
        assert_eq!(metrics.transfers_committed, 3);
        // The replay validator accepts the schedule.
        let derived = schedule.validate(&s).unwrap();
        assert_eq!(derived.len(), 2);
        // Hop counts recorded for the links-traversed statistic.
        assert_eq!(schedule.delivery_of(RequestId::new(0)).unwrap().hops, 2);
        assert_eq!(schedule.delivery_of(RequestId::new(1)).unwrap().hops, 3);
    }

    #[test]
    fn commit_paths_shares_common_prefix() {
        // Fork: 0 -> 1, then 1 -> 2 and 1 -> 3.
        let mut b = NetworkBuilder::new();
        for i in 0..4 {
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
        b.add_link(VirtualLink::new(
            m(1),
            m(3),
            t(0),
            SimTime::from_hours(2),
            BitsPerSec::new(8_000),
        ));
        let s = Scenario::builder(b.build())
            .add_item(DataItem::new("d0", Bytes::new(10_000), vec![DataSource::new(m(0), t(0))]))
            .add_request(Request::new(item(0), m(2), t(3_000), Priority::HIGH))
            .add_request(Request::new(item(0), m(3), t(3_000), Priority::LOW))
            .build()
            .unwrap();
        let mut st = SchedulerState::new(&s);
        let hops = st.commit_paths(item(0), &[m(2), m(3)]);
        // 0->1 shared, then 1->2 and 1->3: three hops, not four.
        assert_eq!(hops, 3);
        assert!(st.is_delivered(RequestId::new(0)));
        assert!(st.is_delivered(RequestId::new(1)));
        let (schedule, _) = st.into_outcome();
        schedule.validate(&s).unwrap();
    }

    #[test]
    fn caching_serves_unrelated_items_from_cache() {
        // Two items on disjoint halves of a network; item 0 is also
        // wanted one hop further on, at m4.
        let mut b = NetworkBuilder::new();
        for i in 0..5 {
            b.add_machine(Machine::new(format!("m{i}"), Bytes::from_mib(1)));
        }
        for (from, to) in [(0, 1), (2, 3), (1, 4)] {
            b.add_link(VirtualLink::new(
                m(from),
                m(to),
                t(0),
                SimTime::from_hours(2),
                BitsPerSec::new(8_000),
            ));
        }
        let s = Scenario::builder(b.build())
            .add_item(DataItem::new("a", Bytes::new(1_000), vec![DataSource::new(m(0), t(0))]))
            .add_item(DataItem::new("b", Bytes::new(1_000), vec![DataSource::new(m(2), t(0))]))
            .add_request(Request::new(item(0), m(1), t(3_000), Priority::HIGH))
            .add_request(Request::new(item(1), m(3), t(3_000), Priority::HIGH))
            .add_request(Request::new(item(0), m(4), t(3_000), Priority::LOW))
            .build()
            .unwrap();
        let mut st = SchedulerState::new(&s);
        let _ = st.tree(item(0), &[m(1), m(4)]);
        let _ = st.tree(item(1), &[m(3)]);
        assert_eq!(st.metrics().dijkstra_runs, 2);
        // Committing item 0's hop must not invalidate item 1's tree.
        let steps = st.candidate_steps(item(0)).to_vec();
        assert_eq!(st.metrics().cache_hits, 1); // candidate_steps reused tree 0
        st.commit_hop(item(0), steps[0].hop);
        let _ = st.tree(item(1), &[m(3)]);
        assert_eq!(st.metrics().dijkstra_runs, 2, "disjoint item recomputed needlessly");
        // Item 0's own tree is kept, m1 staged as a source: m4 is still
        // pending, and its read searches nothing.
        let kept = st.tree(item(0), &[m(4)]).clone();
        assert_eq!(st.metrics().dijkstra_runs, 2, "the committing item searched again");
        let scratch = earliest_arrival_tree(&st.query(item(0)));
        assert_eq!(kept.arrival(m(4)), scratch.arrival(m(4)));
        assert_eq!(kept.path_to(m(4)), scratch.path_to(m(4)));
        assert_eq!(kept.first_hop_toward(m(4)).map(|hop| hop.from), Some(m(1)));
    }

    /// The line's item validated for both destinations, as a selection
    /// round reads it, then committed to `m2` on the path they share.
    #[test]
    fn a_committed_path_leaves_the_shared_destination_served_from_its_new_copies() {
        let s = line_scenario();
        let mut st = SchedulerState::new(&s);
        let _ = st.candidate_steps(item(0));
        assert_eq!(st.commit_path(item(0), m(2)), 2);
        assert_eq!(st.metrics().dijkstra_runs, 1, "the commit read the round's tree");
        let kept = st.tree(item(0), &[m(3)]).clone();
        assert_eq!(st.metrics().dijkstra_runs, 1, "m3 searched again");
        let scratch = earliest_arrival_tree(&st.query(item(0)));
        assert_eq!(kept.arrival(m(3)), scratch.arrival(m(3)));
        assert_eq!(kept.path_to(m(3)), scratch.path_to(m(3)));
        let first = kept.first_hop_toward(m(3));
        assert_eq!(first, scratch.first_hop_toward(m(3)));
        assert_eq!(
            first.map(|hop| (hop.from, hop.start)),
            Some((m(2), t(20))),
            "from the new copy"
        );
        // The next round offers that hop alone.
        let steps = st.candidate_steps(item(0)).to_vec();
        assert_eq!((steps.len(), steps[0].hop), (1, first.unwrap()));
        assert_eq!(st.metrics().dijkstra_runs, 1);
    }

    /// Two commits that must drop the tree although a destination it was
    /// validated for stays pending: a latest-slot path (its copies arrive
    /// after the tree's labels — here at them, the deadline being the
    /// earliest arrival, so only the rule tells), and a path whose first
    /// copy a loss on record takes.
    #[test]
    fn a_latest_slot_commit_and_a_refused_copy_drop_the_tree() {
        let s = line_scenario();
        for latest in [true, false] {
            let mut st = SchedulerState::new(&s);
            let _ = st.candidate_steps(item(0));
            if latest {
                assert_eq!(st.commit_path_latest(item(0), m(2), t(20)), 2);
            } else {
                st.remove_copies(item(0), m(1), t(15));
                assert_eq!(st.commit_path(item(0), m(2)), 2);
                assert!(!st.has_copy_by(item(0), m(1), SimTime::MAX), "the loss took m1's copy");
            }
            assert!(st.cache[0].is_none(), "latest = {latest}: the tree was kept");
            let _ = st.tree(item(0), &[m(3)]);
            assert_eq!(st.metrics().dijkstra_runs, 2, "latest = {latest}");
        }
    }

    #[test]
    fn caching_invalidates_items_sharing_resources() {
        // Both items start at m0 and want m1 over the same single link.
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
        let mut st = SchedulerState::new(&s);
        let arrival_before = st.tree(item(1), &[m(1)]).arrival(m(1));
        let steps = st.candidate_steps(item(0)).to_vec();
        st.commit_hop(item(0), steps[0].hop);
        // Item 1 used the same link: its tree must recompute and worsen.
        let arrival_after = st.tree(item(1), &[m(1)]).arrival(m(1));
        assert!(arrival_after > arrival_before);
        assert_eq!(st.metrics().dijkstra_runs, 3);
    }

    #[test]
    fn caching_off_matches_caching_on() {
        let s = line_scenario();
        let run = |caching: bool| {
            let mut st = SchedulerState::with_caching(&s, caching);
            loop {
                let Some(step) = st.all_candidate_steps().next().cloned() else { break };
                st.commit_hop(step.item, step.hop);
            }
            st.into_outcome().0
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn unsatisfiable_requests_offer_no_steps() {
        // Deadline of 1 s is impossible (first hop takes 10 s).
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
            .add_request(Request::new(item(0), m(1), t(1), Priority::HIGH))
            .build()
            .unwrap();
        let mut st = SchedulerState::new(&s);
        assert!(st.candidate_steps(item(0)).is_empty());
    }

    #[test]
    fn inactive_requests_receive_no_resources_but_record_deliveries() {
        let s = line_scenario();
        let mut st = SchedulerState::new(&s);
        // Deactivate the m3 request: only m2's path is offered.
        st.set_request_active(RequestId::new(1), false);
        assert!(!st.is_request_active(RequestId::new(1)));
        assert_eq!(st.pending_requests(item(0)).count(), 1);
        let steps = st.candidate_steps(item(0));
        assert_eq!(steps[0].destinations.len(), 1, "inactive request not in Drq");
        // Deliver to m3 anyway (committing the full chain): the inactive
        // request still records its delivery — the data is there.
        st.commit_path(item(0), m(3));
        assert!(st.is_delivered(RequestId::new(1)));
    }

    #[test]
    fn remove_copies_respects_the_loss_instant() {
        let s = line_scenario();
        let mut st = SchedulerState::new(&s);
        st.commit_path(item(0), m(2)); // copies at m1 (t=10), m2 (t=20)
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
        let mut st = SchedulerState::new(&s);
        st.commit_path(item(0), m(2));
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
    fn link_outage_blocks_future_use() {
        let s = line_scenario();
        let mut st = SchedulerState::new(&s);
        let before = st.tree(item(0), &[m(1)]).arrival(m(1));
        assert_ne!(before, SimTime::MAX);
        // Take the only first-hop link down from t=0.
        st.apply_link_outage(VirtualLinkId::new(0), SimTime::ZERO);
        assert_eq!(st.tree(item(0), &[m(1)]).arrival(m(1)), SimTime::MAX);
        assert!(st.candidate_steps(item(0)).is_empty());
    }

    #[test]
    fn block_past_forces_later_starts() {
        let s = line_scenario();
        let mut st = SchedulerState::new(&s);
        st.block_past(t(120));
        let tree = st.tree(item(0), &[m(2)]);
        let hop = tree.first_hop_toward(m(2)).unwrap();
        assert!(hop.start >= t(120), "new transfers must not start in the past");
    }

    #[test]
    fn delivery_of_reports_time_and_hops() {
        let s = line_scenario();
        let mut st = SchedulerState::new(&s);
        st.commit_path(item(0), m(2));
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
        let mut st = SchedulerState::new(&s);
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
        let rederive_all = |st: &mut SchedulerState<'_>| -> Vec<Transfer> {
            let items = st.scenario().item_ids().collect::<Vec<_>>();
            let of = |i: DataItemId| plan.iter().filter(move |t| t.item == i);
            items.into_iter().flat_map(|i| st.rederive_item(i, of(i))).collect()
        };
        let mut fresh = SchedulerState::new(&s);
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
        let mut st = SchedulerState::new(&s);
        let hop = st.candidate_steps(item(0))[0].hop;
        st.book_transfer(&Transfer::along(item(0), hop))
            .expect("a hop of the current tree is free");
        // The same window again: refused, nothing booked or staged.
        let before = st.clone();
        assert!(st.book_transfer(&Transfer::along(item(0), hop)).is_err());
        assert_eq!(st.first_difference(&before), None);
        assert_eq!(st.metrics().transfers_committed, before.metrics().transfers_committed);
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
        let mut st = SchedulerState::new(&s);
        let hop_a = st.tree(item(0), &[m(1)]).first_hop_toward(m(1)).unwrap();
        let hop_b = st.tree(item(1), &[m(1)]).first_hop_toward(m(1)).unwrap();
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
    fn fork() -> SchedulerState<'static> {
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
        SchedulerState::owning(scenario, true)
    }

    /// Books a transfer of `item` over `link` at `start`, whatever its
    /// tree says: consumption by somebody else, at a chosen time.
    fn book_at(st: &mut SchedulerState<'_>, item: DataItemId, link: u32, start: u64) {
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

    #[test]
    fn an_on_path_link_consumed_at_another_time_leaves_the_tree_served() {
        let mut st = fork();
        let planned = st.candidate_steps(item(0)).to_vec();
        assert_eq!(planned[0].destinations[0].arrival, t(20)); // 0 -> 1 -> 2
        assert_eq!(st.metrics().dijkstra_runs, 1);
        // Link 1 carries `a` over [10, 20): a transfer at 100 s touches
        // the path by resource identity, but the hop still finds its slot.
        book_at(&mut st, item(2), 1, 100);
        assert_eq!(st.candidate_steps(item(0)), &planned[..]);
        assert_eq!(st.metrics().dijkstra_runs, 1, "no search for a hop that keeps its slot");
        assert_eq!(st.metrics().cache_hits, 1);
    }

    #[test]
    fn an_on_path_link_consumed_at_the_planned_slot_searches_again() {
        let mut st = fork();
        let planned = st.candidate_steps(item(0)).to_vec();
        book_at(&mut st, item(2), 1, 12); // link 1 over [12, 27): `a` wanted [10, 20)
        let replanned = st.candidate_steps(item(0)).to_vec();
        assert_eq!(st.metrics().dijkstra_runs, 2);
        assert_eq!(replanned[0].hop, planned[0].hop);
        assert_eq!(replanned[0].destinations[0].arrival, t(37));
    }

    #[test]
    fn storage_consumed_on_an_on_path_machine_searches_again_only_when_it_no_longer_fits() {
        let mut st = fork();
        let planned = st.candidate_steps(item(0)).to_vec();
        // m2 keeps 30 kB: `c` (15 kB, held to the horizon) leaves room for
        // `a`'s 10 kB through its hold ...
        book_at(&mut st, item(2), 1, 100);
        assert_eq!(st.candidate_steps(item(0)), &planned[..]);
        assert_eq!(st.metrics().dijkstra_runs, 1);
        // ... and `b` on top of it does not.
        book_at(&mut st, item(1), 1, 200);
        let waiting = st.candidate_steps(item(0)).to_vec();
        assert!(waiting[0].destinations[0].arrival > t(3_000), "no room until `b` is collected");
        assert_eq!(st.metrics().dijkstra_runs, 2);
    }

    /// `fork()` after `b` took link 2 over [0, 15) and `a`'s tree was read
    /// for m2 once more: the tree still says m3 at 20 s over [10, 20), and
    /// the journal records of `b`'s commit are behind the checked mark.
    fn fork_with_a_stale_side_branch() -> SchedulerState<'static> {
        let mut st = fork();
        st.candidate_steps(item(0));
        st.commit_path(item(1), m(3));
        st.candidate_steps(item(0));
        assert_eq!(st.metrics().dijkstra_runs, 2, "m2's path never crossed link 2");
        st
    }

    #[test]
    fn a_read_beyond_the_validated_destinations_searches_again_and_equals_scratch() {
        let mut st = fork_with_a_stale_side_branch();
        // The hold row is at the horizon already, so the tree survives.
        let late = st.add_request(Request::new(item(0), m(3), t(3_000), Priority::LOW)).unwrap();
        let steps = st.candidate_steps(item(0));
        let outlook = steps[0].destinations.iter().find(|d| d.request == late).unwrap();
        assert_eq!(outlook.arrival, t(25), "link 2 is busy until 15 s");
        assert_eq!(st.metrics().dijkstra_runs, 3);
        assert!(reads_match_scratch(&st.query(item(0)), st.refreshed(item(0)), &[m(2), m(3)]));
    }

    #[test]
    fn a_commit_to_nobodys_destination_searches_again() {
        let mut st = fork_with_a_stale_side_branch();
        assert_eq!(st.commit_path(item(0), m(3)), 2);
        let booked = st.take_transfers();
        assert_eq!(booked.last().map(|t| (t.link, t.start)), Some((VirtualLinkId::new(2), t(15))));
    }

    #[test]
    fn withholding_a_request_drops_the_steps_enumerated_with_it() {
        // Mutant: `set_request_active` without its `forget_steps` — the
        // tree stays, nothing is journaled, and the clean skip serves the
        // step that still lists the withheld request.
        let s = line_scenario();
        let mut st = SchedulerState::new(&s);
        assert_eq!(st.candidate_steps(item(0))[0].destinations.len(), 2);
        st.set_request_active(RequestId::new(1), false);
        let steps = st.candidate_steps(item(0));
        assert_eq!(steps[0].destinations.len(), 1);
        assert_eq!(steps[0].destinations[0].request, RequestId::new(0));
        assert_eq!(st.metrics().dijkstra_runs, 1, "the tree was read again, not searched again");
        // Withholding the other one too leaves nothing to offer; releasing
        // one brings the item back although it was enumerated as dead.
        st.set_request_active(RequestId::new(0), false);
        assert!(st.candidate_steps(item(0)).is_empty());
        st.set_request_active(RequestId::new(1), true);
        assert_eq!(st.candidate_steps(item(0))[0].destinations[0].request, RequestId::new(1));
    }

    #[test]
    fn a_late_request_under_a_pinned_hold_row_drops_the_steps_but_not_the_tree() {
        // Mutant: `add_request` without its `forget_steps` — `rehold` finds
        // the row unchanged and keeps the entry, and the clean skip (like
        // the dead one) answers before the pending set is read, serving
        // steps enumerated before the request existed.
        let mut st = fork();
        assert_eq!(st.refresh_steps(item(0)), Visit::Rebuilt);
        assert_eq!(st.refresh_steps(item(0)), Visit::Clean);
        let late = st.add_request(Request::new(item(0), m(3), t(3_000), Priority::LOW)).unwrap();
        assert_eq!(st.refresh_steps(item(0)), Visit::Rebuilt);
        let steps = st.candidate_steps(item(0));
        assert!(steps[0].destinations.iter().any(|d| d.request == late));
        assert_eq!(st.metrics().dijkstra_runs, 2, "m3 was never validated: searched again");
    }

    #[test]
    fn a_loss_that_removes_no_copy_still_drops_the_steps() {
        // Mutant: `remove_copies` forgetting the steps only when it removed
        // a copy — the second loss below finds the copy gone already, but
        // reopens the request it had delivered.
        let s = line_scenario();
        let mut st = SchedulerState::new(&s);
        st.commit_path(item(0), m(2)); // m2 at 20 s delivers request 0 (due 3 000 s)
        assert!(st.remove_copies(item(0), m(2), t(4_000)), "lost after the deadline: delivered");
        assert!(st.is_delivered(RequestId::new(0)));
        let before = st.candidate_steps(item(0)).to_vec();
        assert_eq!(before[0].destinations.len(), 1, "only m3 is pending");
        assert!(!st.remove_copies(item(0), m(2), t(100)), "no copy left to remove");
        assert!(!st.is_delivered(RequestId::new(0)), "lost before the deadline: pending again");
        let after = st.candidate_steps(item(0));
        assert_eq!(after[0].hop, before[0].hop);
        assert_eq!(after[0].destinations.len(), 2);
    }

    #[test]
    fn an_outage_defeats_the_clean_skip_only_on_a_link_into_a_read_path_machine() {
        // `a` reads 0 -> 1 -> 2: its paths enter m1 and m2, never m3.
        // Mutant: `Dirtied::since` counting machines only — an outage
        // journals nothing but its link.
        let mut st = fork();
        let (into_m2, into_m3) = (VirtualLinkId::new(1), VirtualLinkId::new(2));
        assert_eq!(st.refresh_steps(item(0)), Visit::Rebuilt);
        st.apply_link_outage(into_m3, t(0));
        assert_eq!(st.refresh_steps(item(0)), Visit::Clean);
        // Long after the planned slot [10 s, 20 s): the set cannot tell,
        // so the hop is probed again, and holds.
        st.apply_link_outage(into_m2, t(5_000));
        assert_eq!(st.refresh_steps(item(0)), Visit::Validated);
        assert_eq!(st.refresh_steps(item(0)), Visit::Clean, "each record is examined once");
        st.apply_link_outage(into_m2, t(0));
        assert_eq!(st.refresh_steps(item(0)), Visit::Rebuilt);
        assert!(st.candidate_steps(item(0)).is_empty(), "m2 is cut off");
        assert_eq!(st.refresh_steps(item(0)), Visit::Dead);
        // Skips count as visits served without a tree build.
        let metrics = st.metrics();
        assert_eq!((metrics.dijkstra_runs, metrics.cache_hits), (2, 5));
    }

    /// `growing` with link 0 booked solid by `d1` until 90 s: `d0` reaches
    /// m2 at 110 s, after its deadline. Returns the bookings.
    fn crowd_out_d0(st: &mut SchedulerState<'static>) -> Vec<Transfer> {
        let crowd: Vec<Transfer> =
            (0..90).step_by(10).map(|start| hop_at(st, item(1), 0, start)).collect();
        for hop in &crowd {
            st.book_transfer(hop).unwrap();
        }
        crowd
    }

    #[test]
    fn a_dead_item_is_enumerated_again_after_a_rollback_and_after_an_unbooking() {
        // Deadness outlives consumption only; a release forgets the entry.
        // Mutant: `rollback` / `unbook` without `forget_trees`.
        let mut st = growing(1 << 20);
        let savepoint = st.savepoint(item(1));
        crowd_out_d0(&mut st);
        assert_eq!(st.refresh_steps(item(0)), Visit::Rebuilt);
        assert_eq!(st.refresh_steps(item(0)), Visit::Dead);
        st.rollback(savepoint);
        assert_eq!(st.refresh_steps(item(0)), Visit::Rebuilt);
        assert_eq!(st.candidate_steps(item(0)).len(), 1);

        let mut st = growing(1 << 20);
        let crowd = crowd_out_d0(&mut st);
        assert!(st.candidate_steps(item(0)).is_empty());
        assert_eq!(st.refresh_steps(item(0)), Visit::Dead);
        st.unbook(&crowd[0]);
        st.rederive_item(item(1), &crowd[1..]);
        assert_eq!(st.refresh_steps(item(0)), Visit::Rebuilt);
        assert_eq!(st.candidate_steps(item(0))[0].destinations[0].arrival, t(20));
    }

    /// Every label a heuristic would read from `st` next — the arrival at
    /// and the path to each pending destination of each item, off the
    /// cached tree once validated — is a from-scratch search's. Read on a
    /// clone, so that `st`'s marks move only as its heuristic moves them.
    fn assert_reads_match_scratch(st: &SchedulerState<'_>) {
        let mut probe = st.clone();
        for item in st.scenario().item_ids() {
            let pending: Vec<MachineId> =
                st.pending_requests(item).map(|r| st.scenario().request(r).destination()).collect();
            if !pending.is_empty() {
                probe.refresh_tree(item, &pending);
                let served = probe.refreshed(item);
                assert!(reads_match_scratch(&probe.query(item), served, &pending), "{item}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Validation on read is exact: after every commit, link outage
        /// and late request (`rehold`), under all four heuristics.
        #[test]
        fn validated_paths_equal_a_scratch_search_under_every_heuristic(
            family in 0usize..3,
            seed in 0u64..64,
            disturbances in proptest::collection::vec((0u8..4, 0usize..64, 0u64..7_000), 0..12),
        ) {
            use crate::heuristic::{step_state, Heuristic, HeuristicConfig};
            use dstage_workload::Family;
            let scenario = [Family::Paper, Family::Grid, Family::Line][family].generate_small(seed);
            let (items, machines) = (scenario.item_count(), scenario.network().machine_count());
            let links = scenario.network().link_count();
            for heuristic in Heuristic::EXTENDED {
                let criteria = heuristic.criteria();
                let config = HeuristicConfig {
                    criterion: criteria[seed as usize % criteria.len()],
                    ..HeuristicConfig::paper_best()
                };
                let mut st = SchedulerState::owning(scenario.clone(), true);
                let mut disturbances = disturbances.iter();
                loop {
                    let progressed = step_state(&mut st, heuristic, &config);
                    assert_reads_match_scratch(&st);
                    match disturbances.next() {
                        Some(&(0, pick, time)) => {
                            st.apply_link_outage(VirtualLinkId::new((pick % links) as u32), t(time));
                        }
                        Some(&(1, pick, time)) => {
                            // Refused (a duplicate, a source, a hold that
                            // does not fit) is as good as not sent.
                            let _ = st.add_request(Request::new(
                                item((pick % items) as u32),
                                m((time as usize % machines) as u32),
                                t(time),
                                Priority::new(pick as u8 % 3),
                            ));
                        }
                        Some(_) => {}
                        None if progressed => {}
                        None => break,
                    }
                    assert_reads_match_scratch(&st);
                }
            }
        }
    }

    /// The line network with `relay_bytes` of storage on m1, item `d0` at
    /// m0, γ = 60 s, and one request: m2 by 100 s.
    fn growing(relay_bytes: u64) -> SchedulerState<'static> {
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
        SchedulerState::owning(scenario, true)
    }

    /// A fresh state over `state`'s scenario with `transfers` booked in
    /// order: what `state` must equal, whatever order its requests came in.
    fn rebuilt(state: &SchedulerState<'_>, transfers: &[Transfer]) -> SchedulerState<'static> {
        let mut fresh = SchedulerState::owning(state.scenario().clone(), true);
        for t in transfers {
            fresh.book_transfer(t).expect("booked once already");
        }
        fresh
    }

    /// `item`'s transfer over `link` (10 s a hop in `growing`) from `start`.
    fn hop_at(st: &SchedulerState<'_>, item: DataItemId, link: u32, start: u64) -> Transfer {
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
    fn assert_unbook_inverts_book(mut st: SchedulerState<'static>, hop: Transfer, case: &str) {
        let others: Vec<Transfer> =
            st.transfers.iter().filter(|t| t.item == hop.item).copied().collect();
        let before = st.clone();
        st.book_transfer(&hop).unwrap_or_else(|e| panic!("{case}: {e}"));
        let booked = st.clone();
        st.unbook(&hop);
        st.rederive_item(hop.item, &others);
        assert_eq!(st.first_difference(&before), None, "{case}: unbook after book");
        assert_eq!(st.journal_len(), 0);
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
        st.forget_trees();
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
            state.forget_trees();
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
        st.commit_path(item(0), m(2)); // m1 holds d0 until 100 + 60 s
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
        early.commit_path(item(0), m(2));
        let id = early.add_request(Request::new(item(0), m(1), t(5), Priority::LOW)).unwrap();
        assert!(!early.is_delivered(id));
    }

    #[test]
    fn a_hold_that_cannot_grow_refuses_the_request_and_changes_nothing() {
        // The relay stores one item: d1 crosses it once d0 is collected.
        let mut st = growing(10_000);
        st.commit_path(item(0), m(2));
        st.add_request(Request::new(item(1), m(3), t(400), Priority::LOW)).unwrap();
        st.commit_path(item(1), m(3));
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
        st.commit_path(item(0), m(2));
        st.take_transfers();
        let before = st.clone();
        let savepoint = st.savepoint(item(0));
        let id = st.add_request(Request::new(item(0), m(3), t(9_000), Priority::LOW)).unwrap();
        st.set_horizon(t(9_060)).unwrap();
        assert_eq!(st.scenario().horizon(), t(9_060));
        st.commit_path(item(0), m(3));
        assert!(st.is_delivered(id));
        assert!(st.journal_len() > 0);
        assert!(st.first_difference(&before).is_some());
        st.rollback(savepoint);
        assert_eq!(st.first_difference(&before), None);
        assert_eq!(st.scenario().horizon(), SimTime::from_hours(2));
        assert_eq!(st.journal_len(), 0);
        assert!(st.take_transfers().is_empty());
        // The same decision, kept: equal to booking everything afresh.
        st.add_request(Request::new(item(0), m(3), t(9_000), Priority::LOW)).unwrap();
        st.set_horizon(t(9_060)).unwrap();
        st.commit_path(item(0), m(3));
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

    #[test]
    fn a_round_offers_the_steps_of_active_requests_only() {
        let mut st = growing(1 << 20);
        let offered = |st: &mut SchedulerState<'_>, of| {
            st.all_candidate_steps().filter(|s| s.item == item(of)).count()
        };
        // Added, then rolled back: active or withheld when it goes.
        for withhold in [false, true] {
            let savepoint = st.savepoint(item(1));
            let id = st.add_request(Request::new(item(1), m(3), t(900), Priority::LOW)).unwrap();
            assert_eq!(offered(&mut st, 1), 1);
            if withhold {
                st.set_request_active(id, false);
                assert_eq!(offered(&mut st, 1), 0);
            }
            st.rollback(savepoint);
            assert_eq!(offered(&mut st, 1), 0);
        }
        // Withheld, the round searches nothing; released, its item again.
        let r0 = RequestId::new(0);
        st.set_request_active(r0, false);
        let visits = |st: &SchedulerState<'_>| st.metrics().dijkstra_runs + st.metrics().cache_hits;
        let before = visits(&st);
        assert_eq!(st.all_candidate_steps().count(), 0);
        assert_eq!(visits(&st), before, "no item was searched");
        st.set_request_active(r0, true);
        let steps: Vec<CandidateStep> = st.all_candidate_steps().cloned().collect();
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].destinations[0].request, r0);
    }
}
