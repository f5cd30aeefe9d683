//! Shared scheduler state: resource ledger, copy tracking, cached
//! shortest-path trees, and candidate-step enumeration.
//!
//! All three heuristics (§4.5–4.7), both random lower bounds (§5.2), and
//! the priority-first comparison scheme drive the same [`SchedulerState`]:
//! they differ only in *which* candidate step they pick each iteration and
//! *how much* of the chosen shortest path they commit.

use dstage_model::ids::{DataItemId, MachineId, RequestId, VirtualLinkId};
use dstage_model::scenario::Scenario;
use dstage_model::time::SimTime;
use dstage_path::{earliest_arrival_tree, repair_tree, ArrivalTree, Hop, ItemQuery};
use dstage_resources::journal::{ChangeJournal, JournalMark};
use dstage_resources::ledger::NetworkLedger;

use crate::metrics::RunMetrics;
use crate::schedule::{Delivery, Schedule, Transfer};

/// One destination affected by a candidate step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DestinationOutlook {
    /// The request this destination belongs to.
    pub request: RequestId,
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
    /// `Drq[item, hop.to]`, with per-destination outlooks.
    pub destinations: Vec<DestinationOutlook>,
}

impl CandidateStep {
    /// The destinations that are satisfiable via this step.
    pub fn satisfiable(&self) -> impl Iterator<Item = &DestinationOutlook> + '_ {
        self.destinations.iter().filter(|d| d.satisfiable)
    }
}

/// Mutable state of one scheduling run.
#[derive(Debug, Clone)]
pub struct SchedulerState<'a> {
    scenario: &'a Scenario,
    ledger: NetworkLedger,
    /// Current copies per item: `(machine, available_at)`.
    copies: Vec<Vec<(MachineId, SimTime)>>,
    /// Hold policy per item per machine: horizon for that item's
    /// destinations, GC time otherwise.
    hold_until: Vec<Vec<SimTime>>,
    /// Delivery time per request, once satisfied.
    delivered: Vec<Option<Delivery>>,
    /// Hop depth of the earliest copy per item per machine (0 for initial
    /// sources, `u32::MAX` where no copy exists); feeds the
    /// links-traversed statistic.
    depths: Vec<Vec<u32>>,
    /// Whether each request may receive resources. All requests start
    /// active; the dynamic layer deactivates requests that have not been
    /// released yet. Inactive requests still *record* deliveries when a
    /// copy happens to land on their destination — the data is simply
    /// there — but never drive scheduling decisions.
    active: Vec<bool>,
    /// Cached earliest-arrival tree per item.
    trees: Vec<Option<ArrivalTree>>,
    /// Append-only log of consumed links/stores; with `marks` it tells
    /// each cached tree exactly what moved since it was built.
    journal: ChangeJournal,
    /// Per item: the journal position when its cached tree was last known
    /// valid. Meaningless while the tree slot is `None`.
    marks: Vec<JournalMark>,
    transfers: Vec<Transfer>,
    metrics: RunMetrics,
    caching: bool,
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
        let mut ledger = NetworkLedger::new(scenario.network());
        let m = scenario.network().machine_count();
        let mut copies = Vec::with_capacity(scenario.item_count());
        let mut hold_until = Vec::with_capacity(scenario.item_count());
        let mut depths = Vec::with_capacity(scenario.item_count());
        for (item_id, item) in scenario.items() {
            let mut item_depths = vec![u32::MAX; m];
            let mut item_copies = Vec::with_capacity(item.sources().len());
            for src in item.sources() {
                item_copies.push((src.machine, src.available_at));
                item_depths[src.machine.index()] = 0;
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

            let gc = scenario.gc_time(item_id).unwrap_or(scenario.horizon());
            let mut holds = vec![gc; m];
            for &req in scenario.requests_for(item_id) {
                holds[scenario.request(req).destination().index()] = scenario.horizon();
            }
            hold_until.push(holds);
            depths.push(item_depths);
        }
        SchedulerState {
            scenario,
            ledger,
            copies,
            hold_until,
            delivered: vec![None; scenario.request_count()],
            depths,
            active: vec![true; scenario.request_count()],
            trees: vec![None; scenario.item_count()],
            journal: ChangeJournal::default(),
            marks: vec![JournalMark::default(); scenario.item_count()],
            transfers: Vec::new(),
            metrics: RunMetrics::default(),
            caching,
        }
    }

    /// The scenario being scheduled.
    #[must_use]
    pub fn scenario(&self) -> &'a Scenario {
        self.scenario
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

    /// Removes the copies of `item` held at `machine` that exist at
    /// `lost_at` — i.e. whose availability is `<= lost_at` (dynamic copy
    /// loss: a crash or storage fault). Copies scheduled to arrive
    /// *after* the loss survive. Future plans can no longer source the
    /// item from the removed copies; their storage reservations are left
    /// in place (the model cannot reclaim half-elapsed holds, and staying
    /// conservative only under-reports performance). Returns whether any
    /// copy was removed.
    ///
    /// The item's cached tree is invalidated; other items are unaffected
    /// (losing a source can only worsen this item's arrivals).
    pub fn remove_copies(
        &mut self,
        item: DataItemId,
        machine: MachineId,
        lost_at: SimTime,
    ) -> bool {
        let copies = &mut self.copies[item.index()];
        let before = copies.len();
        copies.retain(|&(m, at)| m != machine || at > lost_at);
        let removed = copies.len() != before;
        if removed {
            if !copies.iter().any(|&(m, _)| m == machine) {
                self.depths[item.index()][machine.index()] = u32::MAX;
            }
            self.trees[item.index()] = None;
        }
        removed
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

    /// Clears a recorded delivery so the request becomes pending again
    /// (dynamic copy loss at a destination before the deadline).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn revoke_delivery(&mut self, request: RequestId) {
        self.delivered[request.index()] = None;
    }

    /// Takes a link out of service from `from` onward (remaining window
    /// time is blanket-reserved). The block is pure consumption, so it is
    /// journaled like a commit: affected cached trees are repaired lazily
    /// at their next query.
    pub fn apply_link_outage(&mut self, link: VirtualLinkId, from: SimTime) {
        let end = self.scenario.network().link(link).end();
        self.ledger.block_link(link, from, end.max(from));
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
        self.drop_all_trees();
    }

    /// Invalidates every cached tree.
    fn drop_all_trees(&mut self) {
        for tree in &mut self.trees {
            *tree = None;
        }
    }

    /// Records one scheduler iteration (a cost-based selection round).
    pub fn note_iteration(&mut self) {
        self.metrics.iterations += 1;
    }

    /// The earliest-arrival tree of `item` against the current ledger,
    /// recomputing only when consumed resources actually touch it — and
    /// then by incremental repair of the cached tree.
    pub fn tree(&mut self, item: DataItemId) -> &ArrivalTree {
        let idx = item.index();
        let (dirty_links, dirty_machines) = self.journal.since(self.marks[idx]);
        // With caching disabled every query recomputes from scratch,
        // mirroring the paper's unoptimized procedure — the reference the
        // repaired trees are tested against.
        let cached = self.trees[idx].as_ref().filter(|_| self.caching);
        let clean = cached.is_some_and(|tree| {
            !dirty_links.iter().any(|&l| tree.uses_link(l))
                && !dirty_machines.iter().any(|&m| tree.stores_on(m))
        });
        if clean {
            self.metrics.cache_hits += 1;
        } else {
            let query = ItemQuery {
                network: self.scenario.network(),
                ledger: &self.ledger,
                size: self.scenario.item(item).size(),
                sources: &self.copies[idx],
                hold_until: &self.hold_until[idx],
                horizon: self.scenario.horizon(),
            };
            // A repair replaces a scratch build one for one, so both count
            // as a dijkstra run (repair volume is published through the
            // obs tap instead).
            let tree = match cached {
                Some(old) => repair_tree(&query, old, dirty_links, dirty_machines),
                None => earliest_arrival_tree(&query),
            };
            self.trees[idx] = Some(tree);
            self.metrics.dijkstra_runs += 1;
        }
        self.marks[idx] = self.journal.mark();
        self.trees[idx].as_ref().expect("just ensured")
    }

    /// Enumerates the candidate steps of `item`: the distinct first hops
    /// of the current shortest paths to its pending destinations, each
    /// grouped with its `Drq[i, r]`. Steps without a single satisfiable
    /// destination are omitted.
    ///
    /// Deterministic: steps are ordered by the id of the receiving machine.
    pub fn candidate_steps(&mut self, item: DataItemId) -> Vec<CandidateStep> {
        let pending: Vec<RequestId> = self.pending_requests(item).collect();
        if pending.is_empty() {
            return Vec::new();
        }
        let scenario = self.scenario;
        let tree = self.tree(item);
        let mut steps: Vec<CandidateStep> = Vec::new();
        for req_id in pending {
            let req = scenario.request(req_id);
            let dest = req.destination();
            if !tree.is_reachable(dest) {
                continue;
            }
            let Some(first_hop) = tree.first_hop_toward(dest) else {
                // Destination already holds (or is scheduled to receive) a
                // copy and no earlier route exists; nothing to schedule.
                continue;
            };
            let outlook = DestinationOutlook {
                request: req_id,
                arrival: tree.arrival(dest),
                satisfiable: tree.arrival(dest) <= req.deadline(),
            };
            match steps.iter_mut().find(|s| s.hop == first_hop) {
                Some(step) => step.destinations.push(outlook),
                None => {
                    steps.push(CandidateStep { item, hop: first_hop, destinations: vec![outlook] })
                }
            }
        }
        steps.retain(|s| s.destinations.iter().any(|d| d.satisfiable));
        steps.sort_by_key(|s| (s.hop.to, s.hop.link));
        steps
    }

    /// Enumerates candidate steps for every item with pending requests.
    pub fn all_candidate_steps(&mut self) -> Vec<CandidateStep> {
        let items: Vec<DataItemId> = self.scenario.item_ids().collect();
        let mut all = Vec::new();
        for item in items {
            all.extend(self.candidate_steps(item));
        }
        all
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
        let hold = self.hold_until[item.index()][hop.to.index()];
        let slot = self
            .ledger
            .commit_transfer(
                self.scenario.network(),
                hop.link,
                hop.start,
                self.scenario.item(item).size(),
                hold,
            )
            .expect("hop from current tree must be feasible");
        debug_assert_eq!(slot.arrival, hop.arrival);
        self.transfers.push(Transfer {
            item,
            from: hop.from,
            to: hop.to,
            link: hop.link,
            start: hop.start,
            arrival: hop.arrival,
        });
        self.metrics.transfers_committed += 1;
        self.copies[item.index()].push((hop.to, hop.arrival));
        let depth = self.depths[item.index()][hop.from.index()].saturating_add(1);
        self.depths[item.index()][hop.to.index()] = depth;
        self.mark_deliveries(item, hop.to, hop.arrival, depth);
        self.record_consumption(item, &[hop.link], &[hop.to]);
    }

    /// Commits every hop on the current shortest path of `item` to
    /// `destination` (the full path/one destination move). Hops whose
    /// receiving machine already has a copy *at least as early* are
    /// skipped (shared prefixes with previously committed paths).
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
        let tree = self.tree(item).clone();
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
        // Commit in travel order so copies exist before onward hops.
        edges.sort_by_key(|h| (h.arrival, h.start, h.link));
        let mut links = Vec::with_capacity(edges.len());
        let mut machines = Vec::with_capacity(edges.len());
        let mut committed = 0u32;
        for hop in edges {
            // Skip hops into machines that already hold an equally early
            // copy (shared prefix with an earlier committed path).
            if self.copies[item.index()].iter().any(|&(m, at)| m == hop.to && at <= hop.arrival) {
                continue;
            }
            let hold = self.hold_until[item.index()][hop.to.index()];
            let slot = self
                .ledger
                .commit_transfer(
                    self.scenario.network(),
                    hop.link,
                    hop.start,
                    self.scenario.item(item).size(),
                    hold,
                )
                .expect("tree hop must be feasible against the ledger it was computed on");
            debug_assert_eq!(slot.arrival, hop.arrival);
            self.transfers.push(Transfer {
                item,
                from: hop.from,
                to: hop.to,
                link: hop.link,
                start: hop.start,
                arrival: hop.arrival,
            });
            self.metrics.transfers_committed += 1;
            committed += 1;
            self.copies[item.index()].push((hop.to, hop.arrival));
            let depth = self.depths[item.index()][hop.from.index()].saturating_add(1);
            self.depths[item.index()][hop.to.index()] = depth;
            self.mark_deliveries(item, hop.to, hop.arrival, depth);
            links.push(hop.link);
            machines.push(hop.to);
        }
        self.record_consumption(item, &links, &machines);
        committed
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
    /// Latest placement can be infeasible where earliest placement is not
    /// (storage or window blockage near the deadline); in that case this
    /// falls back to [`SchedulerState::commit_path`] so the heuristic
    /// always makes progress.
    ///
    /// Returns the number of hops committed.
    ///
    /// # Panics
    ///
    /// Panics if `destination` is unreachable in the current tree; callers
    /// check reachability when they pick the step.
    pub fn commit_path_latest(
        &mut self,
        item: DataItemId,
        destination: MachineId,
        deadline: SimTime,
    ) -> u32 {
        let tree = self.tree(item).clone();
        let path = tree
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
            if self.copies[item.index()].iter().any(|&(m, at)| m == hop.to && at <= limit) {
                break;
            }
            let hold = self.hold_until[item.index()][hop.to.index()];
            let Some(slot) = self.ledger.latest_transfer(
                self.scenario.network(),
                hop.link,
                hop.start,
                size,
                limit,
                hold,
            ) else {
                return self.commit_path(item, destination);
            };
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
        let mut links = Vec::with_capacity(retimed.len());
        let mut machines = Vec::with_capacity(retimed.len());
        let mut committed = 0u32;
        for hop in retimed {
            let hold = self.hold_until[item.index()][hop.to.index()];
            let slot = self
                .ledger
                .commit_transfer(self.scenario.network(), hop.link, hop.start, size, hold)
                .expect("latest slot probed against the same ledger must commit");
            debug_assert_eq!(slot.arrival, hop.arrival);
            self.transfers.push(Transfer {
                item,
                from: hop.from,
                to: hop.to,
                link: hop.link,
                start: hop.start,
                arrival: hop.arrival,
            });
            self.metrics.transfers_committed += 1;
            committed += 1;
            self.copies[item.index()].push((hop.to, hop.arrival));
            let depth = self.depths[item.index()][hop.from.index()].saturating_add(1);
            self.depths[item.index()][hop.to.index()] = depth;
            self.mark_deliveries(item, hop.to, hop.arrival, depth);
            links.push(hop.link);
            machines.push(hop.to);
        }
        self.record_consumption(item, &links, &machines);
        committed
    }

    /// Attempts to commit a *precomputed* hop against the current ledger
    /// (used by the single-Dijkstra random lower bound, whose paths were
    /// planned on the pristine network and may no longer fit). Returns
    /// `true` on success; on conflict the state is unchanged.
    pub fn try_commit_stale_hop(&mut self, item: DataItemId, hop: Hop) -> bool {
        // A copy at least as early already there: treat as success.
        if self.copies[item.index()].iter().any(|&(m, at)| m == hop.to && at <= hop.arrival) {
            return true;
        }
        let hold = self.hold_until[item.index()][hop.to.index()];
        match self.ledger.commit_transfer(
            self.scenario.network(),
            hop.link,
            hop.start,
            self.scenario.item(item).size(),
            hold,
        ) {
            Ok(_) => {
                self.transfers.push(Transfer {
                    item,
                    from: hop.from,
                    to: hop.to,
                    link: hop.link,
                    start: hop.start,
                    arrival: hop.arrival,
                });
                self.metrics.transfers_committed += 1;
                self.copies[item.index()].push((hop.to, hop.arrival));
                let depth = self.depths[item.index()][hop.from.index()].saturating_add(1);
                self.depths[item.index()][hop.to.index()] = depth;
                self.mark_deliveries(item, hop.to, hop.arrival, depth);
                self.record_consumption(item, &[hop.link], &[hop.to]);
                true
            }
            Err(_) => false,
        }
    }

    /// Finalizes the run into a schedule plus metrics.
    #[must_use]
    pub fn into_outcome(self) -> (Schedule, RunMetrics) {
        let deliveries: Vec<Delivery> = self.delivered.into_iter().flatten().collect();
        (Schedule::from_parts(self.transfers, deliveries), self.metrics)
    }

    fn mark_deliveries(&mut self, item: DataItemId, machine: MachineId, at: SimTime, hops: u32) {
        for &req_id in self.scenario.requests_for(item) {
            if self.delivered[req_id.index()].is_some() {
                continue;
            }
            let req = self.scenario.request(req_id);
            if req.destination() == machine && at <= req.deadline() {
                self.delivered[req_id.index()] = Some(Delivery { request: req_id, at, hops });
            }
        }
    }

    /// Records resource consumption after committing transfers of `item`
    /// that used `links` and placed copies on `machines`.
    ///
    /// Resources are only ever consumed within a run (the ledger has no
    /// release APIs; eviction-style re-planning always starts from a fresh
    /// state), so a cached tree stays optimal unless it planned to use one
    /// of the touched links or to place a copy on one of the touched
    /// machines (see DESIGN.md §3). The consumption is journaled; other
    /// items' trees are checked lazily — and repaired where touched — at
    /// their next [`SchedulerState::tree`] query. The
    /// committing item's own tree is dropped eagerly: its copy set grew,
    /// which repair cannot express. With caching disabled, everything is
    /// invalidated.
    fn record_consumption(
        &mut self,
        item: DataItemId,
        links: &[VirtualLinkId],
        machines: &[MachineId],
    ) {
        for &link in links {
            self.journal.record_link(link);
        }
        for &machine in machines {
            self.journal.record_machine(machine);
        }
        self.trees[item.index()] = None;
        if !self.caching {
            self.drop_all_trees();
        }
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
        let tree = st.tree(item(0));
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
        let steps = st.candidate_steps(item(0));
        st.commit_hop(item(0), steps[0].hop);
        // Now the first hop is 1 -> 2.
        let steps = st.candidate_steps(item(0));
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
        // Two items on disjoint halves of a network.
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
            m(2),
            m(3),
            t(0),
            SimTime::from_hours(2),
            BitsPerSec::new(8_000),
        ));
        let s = Scenario::builder(b.build())
            .add_item(DataItem::new("a", Bytes::new(1_000), vec![DataSource::new(m(0), t(0))]))
            .add_item(DataItem::new("b", Bytes::new(1_000), vec![DataSource::new(m(2), t(0))]))
            .add_request(Request::new(item(0), m(1), t(3_000), Priority::HIGH))
            .add_request(Request::new(item(1), m(3), t(3_000), Priority::HIGH))
            .build()
            .unwrap();
        let mut st = SchedulerState::new(&s);
        let _ = st.tree(item(0));
        let _ = st.tree(item(1));
        assert_eq!(st.metrics().dijkstra_runs, 2);
        // Committing item 0's hop must not invalidate item 1's tree.
        let steps = st.candidate_steps(item(0));
        assert_eq!(st.metrics().cache_hits, 1); // candidate_steps reused tree 0
        st.commit_hop(item(0), steps[0].hop);
        let _ = st.tree(item(1));
        assert_eq!(st.metrics().dijkstra_runs, 2, "disjoint item recomputed needlessly");
        // Item 0's own tree must be recomputed.
        let _ = st.tree(item(0));
        assert_eq!(st.metrics().dijkstra_runs, 3);
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
        let arrival_before = st.tree(item(1)).arrival(m(1));
        let steps = st.candidate_steps(item(0));
        st.commit_hop(item(0), steps[0].hop);
        // Item 1 used the same link: its tree must recompute and worsen.
        let arrival_after = st.tree(item(1)).arrival(m(1));
        assert!(arrival_after > arrival_before);
        assert_eq!(st.metrics().dijkstra_runs, 3);
    }

    #[test]
    fn caching_off_matches_caching_on() {
        let s = line_scenario();
        let run = |caching: bool| {
            let mut st = SchedulerState::with_caching(&s, caching);
            loop {
                let steps = st.all_candidate_steps();
                let Some(step) = steps.into_iter().next() else { break };
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
    fn revoke_delivery_reopens_the_request() {
        let s = line_scenario();
        let mut st = SchedulerState::new(&s);
        st.commit_path(item(0), m(2));
        assert!(st.is_delivered(RequestId::new(0)));
        st.revoke_delivery(RequestId::new(0));
        assert!(!st.is_delivered(RequestId::new(0)));
        assert_eq!(st.pending_requests(item(0)).count(), 2);
    }

    #[test]
    fn link_outage_blocks_future_use() {
        let s = line_scenario();
        let mut st = SchedulerState::new(&s);
        let before = st.tree(item(0)).arrival(m(1));
        assert_ne!(before, SimTime::MAX);
        // Take the only first-hop link down from t=0.
        st.apply_link_outage(VirtualLinkId::new(0), SimTime::ZERO);
        assert_eq!(st.tree(item(0)).arrival(m(1)), SimTime::MAX);
        assert!(st.candidate_steps(item(0)).is_empty());
    }

    #[test]
    fn block_past_forces_later_starts() {
        let s = line_scenario();
        let mut st = SchedulerState::new(&s);
        st.block_past(t(120));
        let tree = st.tree(item(0));
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
    fn try_commit_stale_hop_is_idempotent_on_existing_copies() {
        let s = line_scenario();
        let mut st = SchedulerState::new(&s);
        let hop = st.candidate_steps(item(0))[0].hop;
        assert!(st.try_commit_stale_hop(item(0), hop));
        // The same hop again: a copy at least as early is already there =>
        // success without a new transfer.
        let transfers_before = st.metrics().transfers_committed;
        assert!(st.try_commit_stale_hop(item(0), hop));
        assert_eq!(st.metrics().transfers_committed, transfers_before);
    }

    #[test]
    fn try_commit_stale_hop_reports_link_conflicts() {
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
        let hop_a = st.tree(item(0)).first_hop_toward(m(1)).unwrap();
        let hop_b = st.tree(item(1)).first_hop_toward(m(1)).unwrap();
        assert_eq!(hop_a.start, hop_b.start, "planned on the same pristine network");
        assert!(st.try_commit_stale_hop(item(0), hop_a));
        assert!(!st.try_commit_stale_hop(item(1), hop_b), "stale slot must conflict");
        // State is unchanged by the failed commit: item 1 has no copy at m1.
        assert!(!st.is_delivered(RequestId::new(1)));
    }
}
