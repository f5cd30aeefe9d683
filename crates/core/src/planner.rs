//! The planner: the searches a heuristic reads off a set of [`Bookings`],
//! and what it keeps of them between reads.
//!
//! §4.5 remarks that a heuristic "need not re-run Dijkstra" for an item
//! whose tree nothing changed. The [`Planner`] is that remark engineered:
//! per item it keeps the earliest-arrival tree, the destinations it was
//! validated for and the candidate steps read off it, and it decides in
//! one place whether what it kept still speaks for the bookings, from
//! their version stamps alone. It
//! books through the bookings' own commits and writes to them no other
//! way; the bookings never touch its cache. A heuristic pairs one planner
//! with the bookings it drives ([`crate::heuristic::drive_state`]); the
//! daemon, which routes one request at a time, keeps none.

use dstage_model::ids::{DataItemId, MachineId, RequestId};
use dstage_model::request::Priority;
use dstage_model::scenario::Scenario;
use dstage_model::time::SimTime;
use dstage_path::{
    earliest_arrival_paths, earliest_arrival_tree, paths_hold, ArrivalTree, Hop, ItemQuery,
    Landmarks,
};

use crate::bookings::Bookings;
use crate::metrics::RunMetrics;

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

/// A set of machines: one bit each, sized to the network.
#[derive(Debug, Clone)]
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

    /// Whether `pred` holds for a machine of the set.
    fn any(&self, mut pred: impl FnMut(MachineId) -> bool) -> bool {
        self.0.iter().enumerate().any(|(word, &bits)| {
            let mut rest = bits;
            while rest != 0 {
                if pred(MachineId::new(word as u32 * 64 + rest.trailing_zeros())) {
                    return true;
                }
                rest &= rest - 1;
            }
            false
        })
    }
}

/// The candidate steps read off a cached tree for its item's pending
/// requests (whose destinations are the entry's `validated`).
#[derive(Debug, Clone)]
struct Enumeration {
    /// As [`Planner::candidate_steps`] returns them. Empty: the item is
    /// *dead* — no pending destination can be reached in time.
    steps: Vec<CandidateStep>,
    /// The machines the tree's paths to the pending destinations enter.
    entered: MachineSet,
    /// The item's pending stamp the steps were read for.
    pending: u64,
}

/// Everything kept about one item.
#[derive(Debug, Clone)]
struct CachedItem {
    /// The earliest-arrival tree. Only its paths to `validated` are known
    /// to be current (DESIGN.md §3).
    tree: ArrivalTree,
    /// The bookings' epoch and the item's tree stamp the tree was searched
    /// or kept at: it stands for the bookings while both are current.
    epoch: u64,
    sources: u64,
    /// The consumption count at which the tree's paths to `validated`
    /// were last checked, so that each consumption is examined once.
    checked: u64,
    /// The destinations `checked` speaks for. A read of any other machine
    /// searches again.
    validated: Vec<MachineId>,
    /// The steps enumerated when the tree was last read for `validated`,
    /// while `validated` is the item's pending destinations.
    enumeration: Option<Enumeration>,
}

/// The steps last enumerated for an item, current once
/// [`Planner::refresh_steps`] has visited it.
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
    /// Nothing consumed since the last check enters a machine on the read
    /// paths: skipped.
    Clean,
    /// The tree's read paths were validated hop by hop and hold.
    Validated,
    /// The tree was built, or was never read for these destinations: the
    /// steps were enumerated afresh.
    Rebuilt,
}

/// The oracle every tree read is held to in debug builds and tests,
/// whether served or freshly searched: every label a read of
/// `destinations` takes from `tree` — the arrival at and the path to each
/// — is the one a full from-scratch search of `query` returns.
#[must_use]
pub fn reads_match_scratch(
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

/// The searches of one scheduling run over a set of [`Bookings`], and the
/// trees and steps it keeps of them.
#[derive(Debug, Clone)]
pub struct Planner {
    /// The landmark distances that steer every search to the destinations
    /// it is read for — a function of the network alone.
    landmarks: Landmarks,
    /// Per item, everything kept about it: the tree, what was last read
    /// off it and the steps that read produced (DESIGN.md §3). Dropping an
    /// entry drops all of it.
    cache: Vec<Option<CachedItem>>,
    metrics: RunMetrics,
    caching: bool,
}

impl Planner {
    /// A planner for `bookings`' network and items, with nothing kept.
    #[must_use]
    pub fn new(bookings: &Bookings<'_>) -> Self {
        Self::with_caching(bookings, true)
    }

    /// Like [`Planner::new`]; without `caching` it serves no entry a second
    /// time, every read a search from scratch — the paper's unoptimised
    /// procedure, and the reference the kept trees are tested against
    /// (results must be identical).
    #[must_use]
    pub fn with_caching(bookings: &Bookings<'_>, caching: bool) -> Self {
        let scenario = bookings.scenario();
        Planner {
            landmarks: Landmarks::new(scenario.network()),
            cache: vec![None; scenario.item_count()],
            metrics: RunMetrics::default(),
            caching,
        }
    }

    /// `item`'s entry, once what no longer stands for `b` is dropped: an
    /// entry stands while the epoch and the item's tree stamp it was
    /// searched or kept at are current, its steps while the item's pending
    /// stamp they were read for is. This is the one place an entry's
    /// validity is decided; its paths' slots are checked on read
    /// ([`read_paths_hold`]).
    fn entry(&mut self, b: &Bookings<'_>, item: DataItemId) -> &mut Option<CachedItem> {
        let stamps = b.stamps();
        let slot = &mut self.cache[item.index()];
        if slot
            .as_ref()
            .is_some_and(|c| c.epoch != stamps.epoch || c.sources != stamps.tree[item.index()])
        {
            *slot = None;
        }
        if let Some(cached) = slot {
            if cached
                .enumeration
                .as_ref()
                .is_some_and(|read| read.pending != stamps.pending[item.index()])
            {
                cached.enumeration = None;
            }
        }
        slot
    }

    /// Records one scheduler iteration (a cost-based selection round).
    pub fn note_iteration(&mut self) {
        self.metrics.iterations += 1;
    }

    /// The run's counters: searches, reads served without one, and
    /// iterations.
    #[must_use]
    pub fn metrics(&self) -> RunMetrics {
        self.metrics
    }

    /// The earliest-arrival tree of `item` against `b`'s ledger, its
    /// labels current on the paths to `destinations` (nothing is promised
    /// about the rest of it: a search stops once `destinations` are
    /// settled, and a kept tree is validated only along those paths).
    pub fn tree(
        &mut self,
        b: &Bookings<'_>,
        item: DataItemId,
        destinations: &[MachineId],
    ) -> &ArrivalTree {
        self.refresh_tree(b, item, destinations);
        self.refreshed(item)
    }

    fn refreshed(&self, item: DataItemId) -> &ArrivalTree {
        &self.cache[item.index()].as_ref().expect("just refreshed").tree
    }

    /// Brings `item`'s tree up to date for a read of its paths to `read`.
    ///
    /// The kept tree is served as it is when `read` lies inside the
    /// destinations it was last validated for and, walking only those
    /// paths, every hop whose link or receiving store was consumed since
    /// they were checked keeps its slot ([`paths_hold`]). Anything else
    /// searches from scratch, up to the last of `read`
    /// ([`earliest_arrival_paths`]).
    ///
    /// A tree served at the count it was checked at is read as it stands:
    /// nothing was consumed since, so its paths to every destination it
    /// was validated for hold, and so do the steps read off it. Otherwise
    /// the entry's steps survive exactly one outcome: the tree served as
    /// it stood, for the destinations it was last validated for.
    fn refresh_tree(&mut self, b: &Bookings<'_>, item: DataItemId, read: &[MachineId]) {
        let stamps = b.stamps();
        let served = self.entry(b, item).take().filter(|cached| {
            // `checked` only speaks for the destinations validated with it.
            self.caching
                && read.iter().all(|d| cached.validated.contains(d))
                && read_paths_hold(b, item, cached, read)
        });
        let clean = served.is_some();
        let query = b.query(item);
        let refreshed = match served {
            Some(mut cached) => {
                if cached.checked != stamps.consumed && read != cached.validated {
                    cached.enumeration = None;
                    read.clone_into(&mut cached.validated);
                }
                cached.checked = stamps.consumed;
                cached
            }
            None => CachedItem {
                tree: earliest_arrival_paths(&query, &self.landmarks, read),
                epoch: stamps.epoch,
                sources: stamps.tree[item.index()],
                checked: stamps.consumed,
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

    /// Brings `item`'s steps up to date, re-reading only what can have
    /// changed under them (DESIGN.md §3, "what a selection round
    /// re-reads").
    fn refresh_steps(&mut self, b: &Bookings<'_>, item: DataItemId) -> Visit {
        let stamps = b.stamps();
        let caching = self.caching;
        let skipped = match self.entry(b, item) {
            Some(CachedItem { enumeration: Some(read), checked, .. }) if caching => {
                if read.steps.is_empty() {
                    // Consumption moves no arrival earlier, so no
                    // destination comes into reach; everything that can
                    // (a release, a copy, a request, a hold row) moves a
                    // stamp that drops the steps.
                    Some(Visit::Dead)
                } else if !read.entered.any(|m| stamps.entered_since(m, *checked)) {
                    // `paths_hold` would find no hop to probe again.
                    *checked = stamps.consumed;
                    Some(Visit::Clean)
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(visit) = skipped {
            self.metrics.cache_hits += 1;
            debug_assert!(self.skip_matches_scratch(b, item, visit));
            return visit;
        }
        let pending: Vec<RequestId> = b.pending_requests(item).collect();
        if pending.is_empty() {
            debug_assert!(self.cache[item.index()]
                .as_ref()
                .is_none_or(|c| c.enumeration.is_none()));
            return Visit::Idle;
        }
        let scenario = b.scenario();
        let destinations: Vec<MachineId> =
            pending.iter().map(|&r| scenario.request(r).destination()).collect();
        self.refresh_tree(b, item, &destinations);
        let cached = self.cache[item.index()].as_mut().expect("just refreshed");
        if cached.enumeration.is_some() {
            return Visit::Validated;
        }
        let mut entered = MachineSet::sized(scenario.network().machine_count());
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
        let steps = enumerate(scenario, item, &pending, &cached.tree);
        // A tree read as it stood may be validated for more.
        destinations.clone_into(&mut cached.validated);
        cached.enumeration =
            Some(Enumeration { steps, entered, pending: stamps.pending[item.index()] });
        Visit::Rebuilt
    }

    /// The oracle a skipped visit is held to in debug builds: the pending
    /// destinations are the ones the kept steps were enumerated for, and
    /// a from-scratch search agrees — label for label on the read paths
    /// of a clean item, on there being nothing to offer for a dead one.
    fn skip_matches_scratch(&self, b: &Bookings<'_>, item: DataItemId, visit: Visit) -> bool {
        let cached = self.cache[item.index()].as_ref().expect("skipped on its entry");
        let pending: Vec<RequestId> = b.pending_requests(item).collect();
        let destinations: Vec<MachineId> =
            pending.iter().map(|&r| b.scenario().request(r).destination()).collect();
        let query = b.query(item);
        destinations == cached.validated
            && match visit {
                Visit::Dead => {
                    let scratch = earliest_arrival_tree(&query);
                    enumerate(b.scenario(), item, &pending, &scratch).is_empty()
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
    pub fn candidate_steps(&mut self, b: &Bookings<'_>, item: DataItemId) -> &[CandidateStep] {
        Self::publish([self.refresh_steps(b, item)]);
        cached_steps(&self.cache[item.index()])
    }

    /// One selection round's enumeration: the candidate steps of every
    /// item with pending requests, items by id. They are lent from the
    /// cache — a heuristic scores them where they lie and clones the
    /// winner.
    pub fn all_candidate_steps<'p>(
        &'p mut self,
        b: &Bookings<'_>,
    ) -> impl Iterator<Item = &'p CandidateStep> + Clone + 'p {
        Self::publish(b.scenario().item_ids().map(|item| self.refresh_steps(b, item)));
        self.cache.iter().flat_map(cached_steps)
    }

    /// Whether `item`'s tree was checked at `b`'s current count: what a
    /// commit of its own hops must find to keep it.
    fn fresh(&mut self, b: &Bookings<'_>, item: DataItemId) -> Option<&CachedItem> {
        let consumed = b.stamps().consumed;
        self.entry(b, item).as_ref().filter(|cached| cached.checked == consumed)
    }

    /// Commits a single hop (the partial path heuristic's move): reserves
    /// the link and receiving storage, adds the new copy, marks satisfied
    /// requests.
    ///
    /// # Panics
    ///
    /// Panics if the hop conflicts with existing reservations — callers
    /// only pass hops from the *current* tree of `item`, which are
    /// feasible by construction.
    pub fn commit_hop(&mut self, b: &mut Bookings<'_>, item: DataItemId, hop: Hop) {
        let own =
            self.fresh(b, item).is_some_and(|cached| cached.tree.hop_into(hop.to) == Some(hop));
        b.commit_hops(item, &[hop]);
        self.after_commit(b, item, &[hop], own);
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
    pub fn commit_path(
        &mut self,
        b: &mut Bookings<'_>,
        item: DataItemId,
        destination: MachineId,
    ) -> u32 {
        self.commit_paths(b, item, &[destination])
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
    pub fn commit_paths(
        &mut self,
        b: &mut Bookings<'_>,
        item: DataItemId,
        destinations: &[MachineId],
    ) -> u32 {
        let tree = self.tree(b, item, destinations);
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
        debug_assert!(
            edges.iter().all(|hop| !b.has_copy_by(item, hop.to, hop.arrival)),
            "a hop enters a copy"
        );
        let own = self.fresh(b, item).is_some();
        b.commit_hops(item, &edges);
        self.after_commit(b, item, &edges, own);
        edges.len() as u32
    }

    /// Commits the current shortest path of `item` to `destination` with
    /// every hop re-timed to its *latest* feasible slot (the `alap`
    /// heuristic's move, [`Bookings::commit_latest`]).
    ///
    /// Returns the number of hops committed.
    ///
    /// # Panics
    ///
    /// Panics if `destination` is unreachable in the current tree, or its
    /// earliest arrival is past `deadline`; callers check both when they
    /// pick the step.
    pub fn commit_path_latest(
        &mut self,
        b: &mut Bookings<'_>,
        item: DataItemId,
        destination: MachineId,
        deadline: SimTime,
    ) -> u32 {
        let path = (self.tree(b, item, &[destination]).path_to(destination))
            .expect("chosen destination must be reachable in the current tree");
        // Its copies arrive later than the tree's labels: the tree goes.
        self.cache[item.index()] = None;
        b.commit_latest(item, &path, deadline)
    }

    /// What a commit of `item` over `hops` leaves kept. Consumption moves
    /// no label earlier, so other items' trees stay, checked lazily at
    /// their next read (DESIGN.md §3). The committing item's own tree —
    /// `own`: `hops` are its hops, checked just before they were booked —
    /// is kept when it stays exact and will be read again: every receiver
    /// holds its copy (no loss on record takes it), available at its
    /// label, and a destination it was validated for is still pending.
    /// Then each receiver is staged as a source ([`ArrivalTree::stage`]),
    /// the tree stamped current and its steps dropped; otherwise it goes.
    fn after_commit(&mut self, b: &Bookings<'_>, item: DataItemId, hops: &[Hop], own: bool) {
        let slot = &mut self.cache[item.index()];
        let keep = own
            && self.caching
            && hops.iter().all(|hop| b.survives(item, hop.to, hop.arrival, SimTime::MAX))
            && slot.as_ref().is_some_and(|cached| {
                b.pending_requests(item).any(|request| {
                    cached.validated.contains(&b.scenario().request(request).destination())
                })
            });
        match slot {
            Some(cached) if keep => {
                for &hop in hops {
                    cached.tree.stage(hop);
                }
                let stamps = b.stamps();
                (cached.sources, cached.checked) = (stamps.tree[item.index()], stamps.consumed);
                cached.enumeration = None;
                dstage_obs::metrics::CORE_TREES_KEPT.inc();
            }
            _ => *slot = None,
        }
    }
}

/// Whether `cached`'s paths to `read` hold after what `b` consumed since
/// their check ([`paths_hold`]): a hop is probed again when its link or
/// its receiving store was consumed since
/// (`Stamps::hop_moved_since`).
/// Debug builds hold the answer to probing every hop of those paths.
fn read_paths_hold(
    b: &Bookings<'_>,
    item: DataItemId,
    cached: &CachedItem,
    read: &[MachineId],
) -> bool {
    let (query, stamps) = (b.query(item), b.stamps());
    let holds =
        paths_hold(&query, &cached.tree, read, |hop| stamps.hop_moved_since(hop, cached.checked));
    debug_assert_eq!(
        holds,
        paths_hold(&query, &cached.tree, read, |_| true),
        "the stamps changed the validation of {item}"
    );
    holds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bookings::tests::{book_at, fork, growing, hop_at, item, line_scenario, m, t};
    use crate::schedule::Transfer;
    use dstage_model::data::{DataItem, DataSource};
    use dstage_model::ids::VirtualLinkId;
    use dstage_model::link::VirtualLink;
    use dstage_model::machine::Machine;
    use dstage_model::network::NetworkBuilder;
    use dstage_model::request::Request;
    use dstage_model::units::{BitsPerSec, Bytes};

    #[test]
    fn initial_state_has_sources_and_no_deliveries() {
        let s = line_scenario();
        let books = Bookings::new(&s);
        let mut plan = Planner::new(&books);
        assert_eq!(books.pending_requests(item(0)).count(), 2);
        let tree = plan.tree(&books, item(0), &[m(0), m(2), m(3)]);
        assert_eq!(tree.arrival(m(0)), t(0));
        assert_eq!(tree.arrival(m(2)), t(20));
        assert_eq!(tree.arrival(m(3)), t(30));
        assert_eq!(plan.metrics().dijkstra_runs, 1);
    }

    #[test]
    fn candidate_steps_group_destinations_by_first_hop() {
        let s = line_scenario();
        let books = Bookings::new(&s);
        let mut plan = Planner::new(&books);
        let steps = plan.candidate_steps(&books, item(0));
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
        let mut books = Bookings::new(&s);
        let mut plan = Planner::new(&books);
        let steps = plan.candidate_steps(&books, item(0)).to_vec();
        plan.commit_hop(&mut books, item(0), steps[0].hop);
        // Now the first hop is 1 -> 2.
        let steps = plan.candidate_steps(&books, item(0)).to_vec();
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].hop.from, m(1));
        assert_eq!(steps[0].hop.to, m(2));
        // Committing it delivers the m2 request.
        plan.commit_hop(&mut books, item(0), steps[0].hop);
        assert!(books.is_delivered(RequestId::new(0)));
        assert!(!books.is_delivered(RequestId::new(1)));
        assert_eq!(books.pending_requests(item(0)).count(), 1);
    }

    #[test]
    fn commit_path_schedules_whole_chain() {
        let s = line_scenario();
        let mut books = Bookings::new(&s);
        let mut plan = Planner::new(&books);
        let hops = plan.commit_path(&mut books, item(0), m(3));
        assert_eq!(hops, 3);
        assert!(books.is_delivered(RequestId::new(0))); // m2 is on the way
        assert!(books.is_delivered(RequestId::new(1)));
        let schedule = books.into_schedule();
        assert_eq!(schedule.transfers().len(), 3);
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
        let mut books = Bookings::new(&s);
        let mut plan = Planner::new(&books);
        let hops = plan.commit_paths(&mut books, item(0), &[m(2), m(3)]);
        // 0->1 shared, then 1->2 and 1->3: three hops, not four.
        assert_eq!(hops, 3);
        assert!(books.is_delivered(RequestId::new(0)));
        assert!(books.is_delivered(RequestId::new(1)));
        books.into_schedule().validate(&s).unwrap();
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
        let mut books = Bookings::new(&s);
        let mut plan = Planner::new(&books);
        let _ = plan.tree(&books, item(0), &[m(1), m(4)]);
        let _ = plan.tree(&books, item(1), &[m(3)]);
        assert_eq!(plan.metrics().dijkstra_runs, 2);
        // Committing item 0's hop must not invalidate item 1's tree.
        let steps = plan.candidate_steps(&books, item(0)).to_vec();
        assert_eq!(plan.metrics().cache_hits, 1); // candidate_steps reused tree 0
        plan.commit_hop(&mut books, item(0), steps[0].hop);
        let _ = plan.tree(&books, item(1), &[m(3)]);
        assert_eq!(plan.metrics().dijkstra_runs, 2, "disjoint item recomputed needlessly");
        // Item 0's own tree is kept, m1 staged as a source: m4 is still
        // pending, and its read searches nothing.
        let kept = plan.tree(&books, item(0), &[m(4)]).clone();
        assert_eq!(plan.metrics().dijkstra_runs, 2, "the committing item searched again");
        let scratch = earliest_arrival_tree(&books.query(item(0)));
        assert_eq!(kept.arrival(m(4)), scratch.arrival(m(4)));
        assert_eq!(kept.path_to(m(4)), scratch.path_to(m(4)));
        assert_eq!(kept.first_hop_toward(m(4)).map(|hop| hop.from), Some(m(1)));
    }

    /// The line's item validated for both destinations, as a selection
    /// round reads it, then committed to `m2` on the path they share.
    #[test]
    fn a_committed_path_leaves_the_shared_destination_served_from_its_new_copies() {
        let s = line_scenario();
        let mut books = Bookings::new(&s);
        let mut plan = Planner::new(&books);
        let _ = plan.candidate_steps(&books, item(0));
        assert_eq!(plan.commit_path(&mut books, item(0), m(2)), 2);
        assert_eq!(plan.metrics().dijkstra_runs, 1, "the commit read the round's tree");
        let kept = plan.tree(&books, item(0), &[m(3)]).clone();
        assert_eq!(plan.metrics().dijkstra_runs, 1, "m3 searched again");
        let scratch = earliest_arrival_tree(&books.query(item(0)));
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
        let steps = plan.candidate_steps(&books, item(0)).to_vec();
        assert_eq!((steps.len(), steps[0].hop), (1, first.unwrap()));
        assert_eq!(plan.metrics().dijkstra_runs, 1);
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
            let mut books = Bookings::new(&s);
            let mut plan = Planner::new(&books);
            let _ = plan.candidate_steps(&books, item(0));
            if latest {
                assert_eq!(plan.commit_path_latest(&mut books, item(0), m(2), t(20)), 2);
            } else {
                books.remove_copies(item(0), m(1), t(15));
                assert_eq!(plan.commit_path(&mut books, item(0), m(2)), 2);
                assert!(!books.has_copy_by(item(0), m(1), SimTime::MAX), "the loss took m1's copy");
            }
            assert!(plan.cache[0].is_none(), "latest = {latest}: the tree was kept");
            let _ = plan.tree(&books, item(0), &[m(3)]);
            assert_eq!(plan.metrics().dijkstra_runs, 2, "latest = {latest}");
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
        let mut books = Bookings::new(&s);
        let mut plan = Planner::new(&books);
        let arrival_before = plan.tree(&books, item(1), &[m(1)]).arrival(m(1));
        let steps = plan.candidate_steps(&books, item(0)).to_vec();
        plan.commit_hop(&mut books, item(0), steps[0].hop);
        // Item 1 used the same link: its tree must recompute and worsen.
        let arrival_after = plan.tree(&books, item(1), &[m(1)]).arrival(m(1));
        assert!(arrival_after > arrival_before);
        assert_eq!(plan.metrics().dijkstra_runs, 3);
    }

    #[test]
    fn caching_off_matches_caching_on() {
        let s = line_scenario();
        let run = |caching: bool| {
            let mut books = Bookings::new(&s);
            let mut plan = Planner::with_caching(&books, caching);
            loop {
                let Some(step) = plan.all_candidate_steps(&books).next().cloned() else { break };
                plan.commit_hop(&mut books, step.item, step.hop);
            }
            books.into_schedule()
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
        let books = Bookings::new(&s);
        let mut plan = Planner::new(&books);
        assert!(plan.candidate_steps(&books, item(0)).is_empty());
    }

    #[test]
    fn inactive_requests_receive_no_resources_but_record_deliveries() {
        let s = line_scenario();
        let mut books = Bookings::new(&s);
        let mut plan = Planner::new(&books);
        // Deactivate the m3 request: only m2's path is offered.
        books.set_request_active(RequestId::new(1), false);
        assert!(!books.is_request_active(RequestId::new(1)));
        assert_eq!(books.pending_requests(item(0)).count(), 1);
        let steps = plan.candidate_steps(&books, item(0));
        assert_eq!(steps[0].destinations.len(), 1, "inactive request not in Drq");
        // Deliver to m3 anyway (committing the full chain): the inactive
        // request still records its delivery — the data is there.
        plan.commit_path(&mut books, item(0), m(3));
        assert!(books.is_delivered(RequestId::new(1)));
    }

    #[test]
    fn link_outage_blocks_future_use() {
        let s = line_scenario();
        let mut books = Bookings::new(&s);
        let mut plan = Planner::new(&books);
        let before = plan.tree(&books, item(0), &[m(1)]).arrival(m(1));
        assert_ne!(before, SimTime::MAX);
        // Take the only first-hop link down from t=0.
        books.apply_link_outage(VirtualLinkId::new(0), SimTime::ZERO);
        assert_eq!(plan.tree(&books, item(0), &[m(1)]).arrival(m(1)), SimTime::MAX);
        assert!(plan.candidate_steps(&books, item(0)).is_empty());
    }

    #[test]
    fn block_past_forces_later_starts() {
        let s = line_scenario();
        let mut books = Bookings::new(&s);
        let mut plan = Planner::new(&books);
        books.block_past(t(120));
        let tree = plan.tree(&books, item(0), &[m(2)]);
        let hop = tree.first_hop_toward(m(2)).unwrap();
        assert!(hop.start >= t(120), "new transfers must not start in the past");
    }

    #[test]
    fn an_on_path_link_consumed_at_another_time_leaves_the_tree_served() {
        let mut books = fork();
        let mut plan = Planner::new(&books);
        let planned = plan.candidate_steps(&books, item(0)).to_vec();
        assert_eq!(planned[0].destinations[0].arrival, t(20)); // 0 -> 1 -> 2
        assert_eq!(plan.metrics().dijkstra_runs, 1);
        // Link 1 carries `a` over [10, 20): a transfer at 100 s touches
        // the path by resource identity, but the hop still finds its slot.
        book_at(&mut books, item(2), 1, 100);
        assert_eq!(plan.candidate_steps(&books, item(0)), &planned[..]);
        assert_eq!(plan.metrics().dijkstra_runs, 1, "no search for a hop that keeps its slot");
        assert_eq!(plan.metrics().cache_hits, 1);
    }

    #[test]
    fn an_on_path_link_consumed_at_the_planned_slot_searches_again() {
        let mut books = fork();
        let mut plan = Planner::new(&books);
        let planned = plan.candidate_steps(&books, item(0)).to_vec();
        book_at(&mut books, item(2), 1, 12); // link 1 over [12, 27): `a` wanted [10, 20)
        let replanned = plan.candidate_steps(&books, item(0)).to_vec();
        assert_eq!(plan.metrics().dijkstra_runs, 2);
        assert_eq!(replanned[0].hop, planned[0].hop);
        assert_eq!(replanned[0].destinations[0].arrival, t(37));
    }

    #[test]
    fn storage_consumed_on_an_on_path_machine_searches_again_only_when_it_no_longer_fits() {
        let mut books = fork();
        let mut plan = Planner::new(&books);
        let planned = plan.candidate_steps(&books, item(0)).to_vec();
        // m2 keeps 30 kB: `c` (15 kB, held to the horizon) leaves room for
        // `a`'s 10 kB through its hold ...
        book_at(&mut books, item(2), 1, 100);
        assert_eq!(plan.candidate_steps(&books, item(0)), &planned[..]);
        assert_eq!(plan.metrics().dijkstra_runs, 1);
        // ... and `b` on top of it does not.
        book_at(&mut books, item(1), 1, 200);
        let waiting = plan.candidate_steps(&books, item(0)).to_vec();
        assert!(waiting[0].destinations[0].arrival > t(3_000), "no room until `b` is collected");
        assert_eq!(plan.metrics().dijkstra_runs, 2);
    }

    /// `fork()` after `b` took link 2 over [0, 15) and `a`'s tree was read
    /// for m2 once more: the tree still says m3 at 20 s over [10, 20), and
    /// what `b`'s commit consumed is behind the checked count.
    fn fork_with_a_stale_side_branch() -> (Planner, Bookings<'static>) {
        let mut books = fork();
        let mut plan = Planner::new(&books);
        plan.candidate_steps(&books, item(0));
        plan.commit_path(&mut books, item(1), m(3));
        plan.candidate_steps(&books, item(0));
        assert_eq!(plan.metrics().dijkstra_runs, 2, "m2's path never crossed link 2");
        (plan, books)
    }

    #[test]
    fn a_read_beyond_the_validated_destinations_searches_again_and_equals_scratch() {
        let (mut plan, mut books) = fork_with_a_stale_side_branch();
        // The hold row is at the horizon already, so the tree survives.
        let late = books.add_request(Request::new(item(0), m(3), t(3_000), Priority::LOW)).unwrap();
        let steps = plan.candidate_steps(&books, item(0));
        let outlook = steps[0].destinations.iter().find(|d| d.request == late).unwrap();
        assert_eq!(outlook.arrival, t(25), "link 2 is busy until 15 s");
        assert_eq!(plan.metrics().dijkstra_runs, 3);
        assert!(reads_match_scratch(&books.query(item(0)), plan.refreshed(item(0)), &[m(2), m(3)]));
    }

    #[test]
    fn a_commit_to_nobodys_destination_searches_again() {
        let (mut plan, mut books) = fork_with_a_stale_side_branch();
        assert_eq!(plan.commit_path(&mut books, item(0), m(3)), 2);
        let booked = books.take_transfers();
        assert_eq!(booked.last().map(|t| (t.link, t.start)), Some((VirtualLinkId::new(2), t(15))));
    }

    #[test]
    fn withholding_a_request_drops_the_steps_enumerated_with_it() {
        // Mutant: `set_request_active` without its pending stamp — the
        // tree stays, nothing is consumed, and the clean skip serves the
        // step that still lists the withheld request.
        let s = line_scenario();
        let mut books = Bookings::new(&s);
        let mut plan = Planner::new(&books);
        assert_eq!(plan.candidate_steps(&books, item(0))[0].destinations.len(), 2);
        books.set_request_active(RequestId::new(1), false);
        let steps = plan.candidate_steps(&books, item(0));
        assert_eq!(steps[0].destinations.len(), 1);
        assert_eq!(steps[0].destinations[0].request, RequestId::new(0));
        assert_eq!(plan.metrics().dijkstra_runs, 1, "the tree was read again, not searched again");
        // Withholding the other one too leaves nothing to offer; releasing
        // one brings the item back although it was enumerated as dead.
        books.set_request_active(RequestId::new(0), false);
        assert!(plan.candidate_steps(&books, item(0)).is_empty());
        books.set_request_active(RequestId::new(1), true);
        assert_eq!(
            plan.candidate_steps(&books, item(0))[0].destinations[0].request,
            RequestId::new(1)
        );
    }

    #[test]
    fn a_late_request_under_a_pinned_hold_row_drops_the_steps_but_not_the_tree() {
        // Mutant: `add_request` without its pending stamp — `rehold` finds
        // the row unchanged and keeps the entry, and the clean skip (like
        // the dead one) answers before the pending set is read, serving
        // steps enumerated before the request existed.
        let mut books = fork();
        let mut plan = Planner::new(&books);
        assert_eq!(plan.refresh_steps(&books, item(0)), Visit::Rebuilt);
        assert_eq!(plan.refresh_steps(&books, item(0)), Visit::Clean);
        let late = books.add_request(Request::new(item(0), m(3), t(3_000), Priority::LOW)).unwrap();
        assert_eq!(plan.refresh_steps(&books, item(0)), Visit::Rebuilt);
        let steps = plan.candidate_steps(&books, item(0));
        assert!(steps[0].destinations.iter().any(|d| d.request == late));
        assert_eq!(plan.metrics().dijkstra_runs, 2, "m3 was never validated: searched again");
    }

    #[test]
    fn a_loss_that_removes_no_copy_still_drops_the_steps() {
        // Mutant: `remove_copies` moving the pending stamp only when it removed
        // a copy — the second loss below finds the copy gone already, but
        // reopens the request it had delivered.
        let s = line_scenario();
        let mut books = Bookings::new(&s);
        let mut plan = Planner::new(&books);
        plan.commit_path(&mut books, item(0), m(2)); // m2 at 20 s delivers request 0 (due 3 000 s)
        assert!(books.remove_copies(item(0), m(2), t(4_000)), "lost after the deadline: delivered");
        assert!(books.is_delivered(RequestId::new(0)));
        let before = plan.candidate_steps(&books, item(0)).to_vec();
        assert_eq!(before[0].destinations.len(), 1, "only m3 is pending");
        assert!(!books.remove_copies(item(0), m(2), t(100)), "no copy left to remove");
        assert!(!books.is_delivered(RequestId::new(0)), "lost before the deadline: pending again");
        let after = plan.candidate_steps(&books, item(0));
        assert_eq!(after[0].hop, before[0].hop);
        assert_eq!(after[0].destinations.len(), 2);
    }

    #[test]
    fn an_outage_defeats_the_clean_skip_only_on_a_link_into_a_read_path_machine() {
        // `a` reads 0 -> 1 -> 2: its paths enter m1 and m2, never m3.
        // Mutant: the entered stamp moved by stores only — an outage
        // consumes nothing but its link.
        let mut books = fork();
        let mut plan = Planner::new(&books);
        let (into_m2, into_m3) = (VirtualLinkId::new(1), VirtualLinkId::new(2));
        assert_eq!(plan.refresh_steps(&books, item(0)), Visit::Rebuilt);
        books.apply_link_outage(into_m3, t(0));
        assert_eq!(plan.refresh_steps(&books, item(0)), Visit::Clean);
        // Long after the planned slot [10 s, 20 s): the set cannot tell,
        // so the hop is probed again, and holds.
        books.apply_link_outage(into_m2, t(5_000));
        assert_eq!(plan.refresh_steps(&books, item(0)), Visit::Validated);
        assert_eq!(
            plan.refresh_steps(&books, item(0)),
            Visit::Clean,
            "each record is examined once"
        );
        books.apply_link_outage(into_m2, t(0));
        assert_eq!(plan.refresh_steps(&books, item(0)), Visit::Rebuilt);
        assert!(plan.candidate_steps(&books, item(0)).is_empty(), "m2 is cut off");
        assert_eq!(plan.refresh_steps(&books, item(0)), Visit::Dead);
        // Skips count as visits served without a tree build.
        let metrics = plan.metrics();
        assert_eq!((metrics.dijkstra_runs, metrics.cache_hits), (2, 5));
    }

    /// `growing` with link 0 booked solid by `d1` until 90 s: `d0` reaches
    /// m2 at 110 s, after its deadline. Returns the bookings.
    fn crowd_out_d0(books: &mut Bookings<'static>) -> Vec<Transfer> {
        let crowd: Vec<Transfer> =
            (0..90).step_by(10).map(|start| hop_at(books, item(1), 0, start)).collect();
        for hop in &crowd {
            books.book_transfer(hop).unwrap();
        }
        crowd
    }

    #[test]
    fn a_dead_item_is_enumerated_again_after_a_rollback_and_after_an_unbooking() {
        // Deadness outlives consumption only; a release forgets the entry.
        // Mutant: `rollback` / `unbook` without moving the epoch.
        let mut books = growing(1 << 20);
        let mut plan = Planner::new(&books);
        let savepoint = books.savepoint(item(1));
        crowd_out_d0(&mut books);
        assert_eq!(plan.refresh_steps(&books, item(0)), Visit::Rebuilt);
        assert_eq!(plan.refresh_steps(&books, item(0)), Visit::Dead);
        books.rollback(savepoint);
        assert_eq!(plan.refresh_steps(&books, item(0)), Visit::Rebuilt);
        assert_eq!(plan.candidate_steps(&books, item(0)).len(), 1);

        let mut books = growing(1 << 20);
        let mut plan = Planner::new(&books);
        let crowd = crowd_out_d0(&mut books);
        assert!(plan.candidate_steps(&books, item(0)).is_empty());
        assert_eq!(plan.refresh_steps(&books, item(0)), Visit::Dead);
        books.unbook(&crowd[0]);
        books.rederive_item(item(1), &crowd[1..]);
        assert_eq!(plan.refresh_steps(&books, item(0)), Visit::Rebuilt);
        assert_eq!(plan.candidate_steps(&books, item(0))[0].destinations[0].arrival, t(20));
    }

    /// Every label a heuristic would read through `plan` next — the
    /// arrival at and the path to each pending destination of each item,
    /// off the kept tree once validated — is a from-scratch search's. Read
    /// on a clone, so that `plan`'s checks move only as its heuristic
    /// moves them.
    fn assert_reads_match_scratch(plan: &Planner, books: &Bookings<'_>) {
        let mut probe = plan.clone();
        for item in books.scenario().item_ids() {
            let scenario = books.scenario();
            let pending: Vec<MachineId> =
                books.pending_requests(item).map(|r| scenario.request(r).destination()).collect();
            if !pending.is_empty() {
                probe.refresh_tree(books, item, &pending);
                let served = probe.refreshed(item);
                assert!(reads_match_scratch(&books.query(item), served, &pending), "{item}");
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
                let mut books = Bookings::owning(scenario.clone());
                let mut plan = Planner::new(&books);
                let mut disturbances = disturbances.iter();
                loop {
                    let progressed = step_state(&mut plan, &mut books, heuristic, &config);
                    assert_reads_match_scratch(&plan, &books);
                    match disturbances.next() {
                        Some(&(0, pick, time)) => {
                            let link = VirtualLinkId::new((pick % links) as u32);
                            books.apply_link_outage(link, t(time));
                        }
                        Some(&(1, pick, time)) => {
                            // Refused (a duplicate, a source, a hold that
                            // does not fit) is as good as not sent.
                            let _ = books.add_request(Request::new(
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
                    assert_reads_match_scratch(&plan, &books);
                }
            }
        }
    }

    #[test]
    fn a_round_offers_the_steps_of_active_requests_only() {
        let mut books = growing(1 << 20);
        let mut plan = Planner::new(&books);
        let offered = |plan: &mut Planner, books: &Bookings<'_>, of| {
            plan.all_candidate_steps(books).filter(|s| s.item == item(of)).count()
        };
        // Added, then rolled back: active or withheld when it goes.
        for withhold in [false, true] {
            let savepoint = books.savepoint(item(1));
            let id = books.add_request(Request::new(item(1), m(3), t(900), Priority::LOW)).unwrap();
            assert_eq!(offered(&mut plan, &books, 1), 1);
            if withhold {
                books.set_request_active(id, false);
                assert_eq!(offered(&mut plan, &books, 1), 0);
            }
            books.rollback(savepoint);
            assert_eq!(offered(&mut plan, &books, 1), 0);
        }
        // Withheld, the round searches nothing; released, its item again.
        let r0 = RequestId::new(0);
        books.set_request_active(r0, false);
        let visits = |plan: &Planner| plan.metrics().dijkstra_runs + plan.metrics().cache_hits;
        let before = visits(&plan);
        assert_eq!(plan.all_candidate_steps(&books).count(), 0);
        assert_eq!(visits(&plan), before, "no item was searched");
        books.set_request_active(r0, true);
        let steps: Vec<CandidateStep> = plan.all_candidate_steps(&books).cloned().collect();
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].destinations[0].request, r0);
    }
}
