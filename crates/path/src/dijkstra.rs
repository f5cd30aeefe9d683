//! The adapted multiple-source shortest-path algorithm (paper §4.2).
//!
//! Classic Dijkstra computes shortest distances over static edge weights;
//! here an "edge weight" is *time-dependent*: the earliest moment an item
//! can finish crossing a virtual link depends on when it becomes ready at
//! the sending machine, the link's availability window, the link's existing
//! reservations, and the receiving machine's free storage through the
//! item's garbage-collection time. All four constraints are monotone in
//! the ready time (resources are only ever consumed, never released during
//! a probe), which gives the FIFO/non-overtaking property that makes
//! label-setting Dijkstra exact for this setting.
//!
//! The same monotonicity makes two shortcuts exact (pinned by
//! `tests/properties.rs`):
//!
//! - *lower-bound pruning*: the cheapest conceivable crossing of a link —
//!   ignoring every reservation — is `max(ready, window start) + transfer
//!   time`. When even that bound cannot beat the current label or fit the
//!   window/hold limits, the ledger probe is skipped entirely. The links
//!   are scanned as [`LinkRun`]s — the windows of one physical link, in
//!   which starts and ends never decrease — and the bound is monotone
//!   along a run: the windows that closed before `ready` are a prefix,
//!   found by binary search on the ends; and once a window's bound falls
//!   past the receiver's hold or at or after its label, every later window
//!   of the run fails it too, so the rest of the run is passed over
//!   unread. Only the windows in between are tested one by one, with the
//!   run's one transfer time, and probed in id order (an equal arrival
//!   counts as beating the label when it would take the hop by the tie
//!   rule below);
//! - *validation on read* ([`paths_hold`]): after consumption, a cached
//!   tree's paths to the destinations about to be read still hold when
//!   every hop over a consumed resource re-probes to its old slot.
//!
//! Label-setting also lets a search stop early, and be steered. A read of
//! destinations `R` ([`earliest_arrival_paths`]) is an A* search: the
//! frontier pops ascending `(arrival + h, arrival, machine id)`, where `h`
//! is the landmark lower bound on the time left to the nearest destination
//! ([`Landmarks`]). Every crossing of a link `u → v`
//! takes at least `ceil(size·8000/bps)` ms whatever the windows and
//! bookings, and `h(u) ≤ that + h(v)`, so the key never falls along a path
//! and a popped label is final; the search stops at the pop of the last
//! machine of `R`. The tie rule keeps the hops the full search's: on an
//! equal arrival a hop is replaced by a sender that the full search pops
//! earlier, by `(label, id)`, when this search popped it later. With no
//! goal (`h ≡ 0`, [`earliest_arrival_tree`]) the order is the plain
//! `(arrival, id)` and the rule never fires.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use dstage_model::ids::MachineId;
use dstage_model::link::VirtualLink;
use dstage_model::network::{LinkRun, Network};
use dstage_model::time::SimTime;
use dstage_model::units::Bytes;
use dstage_resources::ledger::{Crossing, NetworkLedger, ProbeTally};

use crate::landmarks::{Goal, Landmarks};
use crate::tree::{ArrivalTree, Hop, Inbound};

/// One search instance: everything needed to compute the earliest-arrival
/// tree of a single data item against the current resource state.
#[derive(Debug, Clone, Copy)]
pub struct ItemQuery<'a> {
    /// The network topology.
    pub network: &'a Network,
    /// Current link/storage commitments.
    pub ledger: &'a NetworkLedger,
    /// Size of the item being staged.
    pub size: Bytes,
    /// Machines currently holding (or scheduled to receive) a copy, with
    /// the time that copy becomes available.
    pub sources: &'a [(MachineId, SimTime)],
    /// Per machine: how long a newly staged copy must be holdable there —
    /// the item's GC time for intermediates, the horizon for requesting
    /// destinations (policy supplied by the scheduler). Indexed by machine.
    pub hold_until: &'a [SimTime],
    /// Ignored: no search reads it. Kept only so the struct literals in
    /// the system benchmark (`sysbench/`) keep compiling until a benchmark
    /// change can drop them.
    pub horizon: SimTime,
}

/// Per-search work tallies, published to the obs tap once per tree.
#[derive(Debug, Default, Clone, Copy)]
struct SearchStats {
    /// Pops that settled a machine (every pop but the stale ones).
    settled: u64,
    /// Outgoing edges considered, including every pruned one.
    edge_scans: u64,
    /// The ledger probes issued: each one is a relaxation, and every
    /// other scanned edge was discarded by the static lower bound.
    probes: ProbeTally,
    /// Queue pushes (sources + label improvements).
    heap_pushes: u64,
    /// Pops whose label had already improved.
    stale_pops: u64,
}

impl SearchStats {
    /// One batched `fetch_add` per series per tree — this is the system's
    /// innermost loop, so the tap must not cost per-relaxation traffic.
    fn publish(&self) {
        use dstage_obs::metrics as m;
        m::PATH_TREES.inc();
        m::PATH_EDGE_SCANS.add(self.edge_scans);
        m::PATH_RELAXATIONS.add(self.probes.probes);
        m::PATH_HEAP_PUSHES.add(self.heap_pushes);
        m::PATH_STALE_POPS.add(self.stale_pops);
        m::PATH_SETTLED.add(self.settled);
        m::PATH_LB_PRUNES.add(self.edge_scans - self.probes.probes);
        self.probes.publish();
    }
}

/// Computes the earliest-arrival tree for one item: every machine
/// labelled.
///
/// For every machine the result reports the earliest time the item could
/// be available there, starting from any current copy, and the chain of
/// transfers achieving it. Checks performed per relaxation match §4.2:
/// link availability windows, link busy intervals, receiving-machine
/// storage through the hold deadline, and source availability times.
///
/// Determinism: ties between equal arrival times are broken by machine id,
/// and outgoing links are scanned in id order, so equal-cost trees are
/// always the same tree.
///
/// The schedulers read a tree only for a few destinations and search with
/// [`earliest_arrival_paths`], which is steered to those and stops once
/// they are settled; this full search is the reference it is held to.
///
/// # Panics
///
/// Panics if `hold_until` is shorter than the machine count, or a source
/// machine id is out of range.
#[must_use]
pub fn earliest_arrival_tree(query: &ItemQuery<'_>) -> ArrivalTree {
    search(query, None, Unsteered)
}

/// Computes the arrivals at `destinations` and the paths to them: the
/// search of [`earliest_arrival_tree`], steered to `destinations` by the
/// lower bound `landmarks` gives ([`Landmarks::goal`]) and stopped once the
/// last of them is settled.
///
/// The frontier pops ascending `(arrival + bound, arrival, machine id)`.
/// The bound is consistent — it falls by at most a crossing's transfer
/// time across a link — so a popped label is final, and every machine
/// that offers a settled machine its label was settled before it. On an
/// equal arrival a hop is replaced by a sender that the full search
/// settles first, by `(label, id)`, so the hop a machine keeps is the
/// one the full search gives it. For each machine of `destinations`,
/// [`ArrivalTree::arrival`], [`ArrivalTree::path_to`] and
/// [`ArrivalTree::first_hop_toward`] therefore answer exactly as on the
/// full tree, tie-breaks included. Any other machine's label may be
/// provisional — no earlier than the full tree's, possibly unreachable —
/// and is not to be read. Duplicates in `destinations` count once; an
/// unreachable one searches to the end; an empty read settles nothing and
/// returns the sources' labels alone.
///
/// # Panics
///
/// As [`earliest_arrival_tree`], and if `landmarks` was built for a
/// network with fewer machines.
#[must_use]
pub fn earliest_arrival_paths(
    query: &ItemQuery<'_>,
    landmarks: &Landmarks,
    destinations: &[MachineId],
) -> ArrivalTree {
    search(query, Some(destinations), &landmarks.goal(query.size, destinations))
}

/// Seeds the frontier with the sources and settles it, up to the last of
/// the reads when given, steered by their goal.
fn search(query: &ItemQuery<'_>, reads: Option<&[MachineId]>, goal: impl Bound) -> ArrivalTree {
    let n = query.network.machine_count();
    assert!(query.hold_until.len() >= n, "hold_until must cover every machine");

    let mut arrivals = vec![SimTime::MAX; n];
    let mut inbound = vec![Inbound::NONE; n];
    let mut queue = Frontier::with_capacity(n);
    let mut stats = SearchStats::default();

    for &(machine, available_at) in query.sources {
        let slot = &mut arrivals[machine.index()];
        if available_at < *slot {
            *slot = available_at;
            queue.push(Reverse(Entry::new(available_at, machine.index(), goal)));
            stats.heap_pushes += 1;
        }
    }

    settle(query, goal, reads, &mut arrivals, &mut inbound, &mut queue, &mut stats);
    stats.publish();

    ArrivalTree::new(arrivals, inbound)
}

/// What steers a search: the lower bound, in ms, on the time from a
/// machine to the nearest destination. Generic rather than optional, so
/// that the full search carries no code of the goal's and a steered one no
/// test for it.
trait Bound: Copy {
    fn at(self, machine: usize) -> u64;
}

/// The full search's bound: none.
#[derive(Clone, Copy)]
struct Unsteered;

impl Bound for Unsteered {
    #[inline]
    fn at(self, _: usize) -> u64 {
        0
    }
}

impl Bound for &Goal<'_> {
    #[inline]
    fn at(self, machine: usize) -> u64 {
        self.bound(MachineId::new(machine as u32)).as_millis()
    }
}

/// A frontier entry, ordered as `(key, arrival, machine id)` with `key =
/// arrival + bound`, packed in one `u128` so that the heap compares once:
/// the key in the high 64 bits, then `u32::MAX − lead` where `lead = key −
/// arrival`, then the machine id. The bound is capped at `u32::MAX` ms
/// (49.7 days; a minimum with a constant keeps it consistent) and the key
/// saturates, so the lead always fits and the arrival is recovered exactly.
/// With no goal the bound is zero and the order is `(arrival, id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry(u128);

impl Entry {
    #[inline]
    fn new(arrival: SimTime, machine: usize, goal: impl Bound) -> Self {
        let bound = goal.at(machine);
        let key = arrival.as_millis().saturating_add(bound.min(u64::from(u32::MAX)));
        let lead = (key - arrival.as_millis()) as u32;
        Entry(u128::from(key) << 64 | u128::from(u32::MAX - lead) << 32 | machine as u128)
    }

    fn key(self) -> u64 {
        (self.0 >> 64) as u64
    }

    fn arrival(self) -> SimTime {
        SimTime::from_millis(self.key() - u64::from(u32::MAX - (self.0 >> 32) as u32))
    }

    fn machine(self) -> u32 {
        self.0 as u32
    }
}

/// The search frontier: a min-heap of [`Entry`], with lazy deletion of
/// superseded entries.
type Frontier = BinaryHeap<Reverse<Entry>>;

/// The label-setting core: drains the seeded queue, relaxing every
/// outgoing edge of each settled machine, and returns once every machine
/// of `reads` is settled (each machine is settled by exactly one pop, so
/// a pop counts its occurrences in `reads`). Each run's transfer time is
/// computed once and handed to every probe of the run, and the probes
/// count into `stats` rather than the tap. Kept out of line: folded into
/// its caller, the sweep measured 12–15 % slower (DESIGN.md §3,
/// "Dirty-item caching").
#[inline(never)]
fn settle(
    query: &ItemQuery<'_>,
    goal: impl Bound,
    reads: Option<&[MachineId]>,
    arrivals: &mut [SimTime],
    inbound: &mut [Inbound],
    queue: &mut Frontier,
    stats: &mut SearchStats,
) {
    let network = query.network;
    let mut unsettled = reads.map_or(usize::MAX, <[MachineId]>::len);
    while unsettled > 0 {
        let Some(Reverse(sender)) = queue.pop() else { return };
        let ready = sender.arrival();
        if ready > arrivals[sender.machine() as usize] {
            stats.stale_pops += 1;
            continue; // stale queue entry
        }
        stats.settled += 1;
        let u = MachineId::new(sender.machine());
        if let Some(reads) = reads {
            unsettled -= reads.iter().filter(|&&d| d == u).count();
            if unsettled == 0 {
                return;
            }
        }
        for run in network.outgoing_runs(u) {
            stats.edge_scans += run.links.len() as u64;
            let head = &run.links[0];
            let v = head.destination().index();
            let hold = query.hold_until[v];
            let takes = |at, arrivals: &[SimTime], inbound: &[Inbound]| {
                takes(goal, &sender, at, v, arrivals, inbound)
            };
            // Ends never decrease along a run: the windows that closed
            // before `ready` are a prefix. Past it, `start < end` puts the
            // earliest start inside the window.
            let open = run.links.partition_point(|link| link.end() < ready);
            debug_assert_pruned(query, goal, &sender, &run, 0..open, arrivals, inbound);
            let mut transfer = None;
            for (k, link) in run.links.iter().enumerate().skip(open) {
                // Starts never decrease either, so neither do the earliest
                // start and its bound: the first window whose bound falls
                // past the hold or no longer takes the receiver ends the
                // run.
                let earliest = link.start().max(ready);
                let bound = if earliest > hold || !takes(earliest, arrivals, inbound) {
                    None
                } else {
                    let transfer = *transfer.get_or_insert_with(|| head.transfer_time(query.size));
                    earliest
                        .checked_add(transfer)
                        .filter(|&lb| lb <= hold && takes(lb, arrivals, inbound))
                        .map(|lb| (lb, transfer))
                };
                let Some((lb, duration)) = bound else {
                    debug_assert_pruned(
                        query,
                        goal,
                        &sender,
                        &run,
                        k..run.links.len(),
                        arrivals,
                        inbound,
                    );
                    break;
                };
                if lb > link.end() {
                    debug_assert_pruned(query, goal, &sender, &run, k..k + 1, arrivals, inbound);
                    continue;
                }
                let link_id = run.link(k);
                debug_assert!(may_improve(query, goal, &sender, link, arrivals, inbound));
                let crossing = Crossing { id: link_id, link, size: query.size, duration };
                let Some(slot) =
                    query.ledger.earliest_crossing(crossing, ready, hold, &mut stats.probes)
                else {
                    continue;
                };
                if takes(slot.arrival, arrivals, inbound) {
                    if slot.arrival < arrivals[v] {
                        arrivals[v] = slot.arrival;
                        queue.push(Reverse(Entry::new(slot.arrival, v, goal)));
                        stats.heap_pushes += 1;
                    }
                    inbound[v] = Inbound::new(u, link_id, slot.start);
                }
            }
        }
    }
}

/// Whether an arrival of `at` at `v`, sent by the machine `sender`
/// settles, takes `v`'s hop: an earlier arrival does; an equal one does
/// when `sender` comes before the hop's sender in the full search's order,
/// `(label, id)`, but was settled after it here. That happens only when
/// the goal's bound put the hop's sender first — never with no goal, when
/// the search settles in the full search's order.
#[inline]
fn takes(
    goal: impl Bound,
    sender: &Entry,
    at: SimTime,
    v: usize,
    arrivals: &[SimTime],
    inbound: &[Inbound],
) -> bool {
    at < arrivals[v]
        || (at == arrivals[v] && settled_out_of_order(goal, sender, inbound[v].sender(), arrivals))
}

/// Whether `sender` comes before `held`, the sender of the hop a machine
/// holds, in the full search's order but was settled after it here.
#[cold]
#[inline(never)]
fn settled_out_of_order(
    goal: impl Bound,
    sender: &Entry,
    held: Option<MachineId>,
    arrivals: &[SimTime],
) -> bool {
    held.is_some_and(|held| {
        let w = held.index();
        let current = Entry::new(arrivals[w], w, goal);
        (sender.arrival(), sender.machine()) < (current.arrival(), current.machine())
            && sender.key() > current.key()
    })
}

/// The unloaded-network bound, link by link: no slot can complete earlier
/// than the earliest start plus the transfer time, and none may complete
/// after window end or the receiver's hold deadline — nor, to matter, fail
/// to take the receiver ([`takes`]); overflow means unrepresentably late.
/// `settle` applies it a run at a time; this is the oracle its debug build
/// checks every passed-over link against.
fn may_improve(
    query: &ItemQuery<'_>,
    goal: impl Bound,
    sender: &Entry,
    link: &VirtualLink,
    arrivals: &[SimTime],
    inbound: &[Inbound],
) -> bool {
    let v = link.destination().index();
    let takes = |at| takes(goal, sender, at, v, arrivals, inbound);
    let (earliest, limit) =
        (link.start().max(sender.arrival()), link.end().min(query.hold_until[v]));
    earliest <= limit
        && takes(earliest)
        && earliest
            .checked_add(link.transfer_time(query.size))
            .is_some_and(|lb| lb <= limit && takes(lb))
}

/// Debug builds only: every window `skipped` of `run` fails [`may_improve`].
fn debug_assert_pruned(
    query: &ItemQuery<'_>,
    goal: impl Bound,
    sender: &Entry,
    run: &LinkRun<'_>,
    skipped: Range<usize>,
    arrivals: &[SimTime],
    inbound: &[Inbound],
) {
    if cfg!(debug_assertions) {
        for k in skipped {
            let link = &run.links[k];
            assert!(
                !may_improve(query, goal, sender, link, arrivals, inbound),
                "{} pruned",
                run.link(k)
            );
        }
    }
}

/// Whether `tree`'s paths to `destinations` — and with them the labels
/// and hops along those paths — are still what a from-scratch run on
/// `query`'s ledger returns, although resources were consumed since the
/// tree was last known to hold for those destinations.
///
/// `moved` names the hops whose link or receiving store was consumed
/// since; each such hop on a read path is probed again exactly as the
/// search probed it, and the paths hold when every probe answers with the
/// hop's old slot. That is sufficient (DESIGN.md §3): consumption moves no
/// label earlier; a path whose hops all keep their slots keeps its labels,
/// by induction from the unchanged sources; and every rival predecessor's
/// label and probe answer is the same or later, so the strict-`<` update
/// still picks the same hop in the same `(arrival, machine id)` pop order.
/// Nothing is claimed about the rest of the tree.
///
/// A hop nothing touched answers with its old slot, so naming more hops
/// changes no answer: `|_| true`, which probes every hop of the read
/// paths, is the reference a narrower `moved` is held to.
#[must_use]
pub fn paths_hold(
    query: &ItemQuery<'_>,
    tree: &ArrivalTree,
    destinations: &[MachineId],
    moved: impl Fn(&Hop) -> bool,
) -> bool {
    let mut probes = ProbeTally::default();
    let holds = destinations.iter().all(|&destination| {
        let mut cursor = destination;
        while let Some(hop) = tree.hop_into(cursor) {
            if moved(&hop) {
                let slot = query.ledger.earliest_crossing(
                    Crossing::new(query.network, hop.link, query.size),
                    tree.arrival(hop.from),
                    query.hold_until[hop.to.index()],
                    &mut probes,
                );
                if slot.map(|s| (s.start, s.arrival)) != Some((hop.start, hop.arrival)) {
                    return false;
                }
            }
            cursor = hop.from;
        }
        true
    });
    dstage_obs::metrics::PATH_HOPS_REPROBED.add(probes.probes);
    probes.publish();
    if holds {
        dstage_obs::metrics::PATH_TREES_VALIDATED.inc();
    }
    holds
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstage_model::link::VirtualLink;
    use dstage_model::machine::Machine;
    use dstage_model::network::NetworkBuilder;
    use dstage_model::units::BitsPerSec;

    fn m(i: u32) -> MachineId {
        MachineId::new(i)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Builds a line 0 -> 1 -> 2 plus a slow direct link 0 -> 2.
    ///
    /// Link speeds: 1 byte/ms on the line hops, 0.25 byte/ms direct.
    fn line_net() -> Network {
        let mut b = NetworkBuilder::new();
        for i in 0..3 {
            b.add_machine(Machine::new(format!("m{i}"), Bytes::from_mib(1)));
        }
        let win = SimTime::from_hours(1);
        b.add_link(VirtualLink::new(m(0), m(1), SimTime::ZERO, win, BitsPerSec::new(8_000)));
        b.add_link(VirtualLink::new(m(1), m(2), SimTime::ZERO, win, BitsPerSec::new(8_000)));
        b.add_link(VirtualLink::new(m(0), m(2), SimTime::ZERO, win, BitsPerSec::new(2_000)));
        b.build()
    }

    fn max_hold(n: usize) -> Vec<SimTime> {
        vec![SimTime::MAX; n]
    }

    #[test]
    fn picks_two_hop_route_when_faster() {
        let net = line_net();
        let ledger = NetworkLedger::new(&net);
        let hold = max_hold(3);
        // 10_000 bytes: two hops take 10+10 s; direct takes 40 s.
        let tree = earliest_arrival_tree(&ItemQuery {
            network: &net,
            ledger: &ledger,
            size: Bytes::new(10_000),
            sources: &[(m(0), t(0))],
            hold_until: &hold,
            horizon: SimTime::from_hours(2),
        });
        assert_eq!(tree.arrival(m(0)), t(0));
        assert_eq!(tree.arrival(m(1)), t(10));
        assert_eq!(tree.arrival(m(2)), t(20));
        let path = tree.path_to(m(2)).unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].to, m(1));
    }

    #[test]
    fn picks_direct_route_when_line_blocked() {
        let net = line_net();
        let mut ledger = NetworkLedger::new(&net);
        // Make hop 1->2 (link id 1) busy for a long time.
        ledger
            .commit_transfer(
                &net,
                dstage_model::ids::VirtualLinkId::new(1),
                t(0),
                Bytes::new(100_000), // 100 s
                SimTime::MAX,
            )
            .unwrap();
        let hold = max_hold(3);
        let tree = earliest_arrival_tree(&ItemQuery {
            network: &net,
            ledger: &ledger,
            size: Bytes::new(10_000),
            sources: &[(m(0), t(0))],
            hold_until: &hold,
            horizon: SimTime::MAX,
        });
        // Direct: 40 s. Via line: 10 s + wait to 100 + 10 = 110 s.
        assert_eq!(tree.arrival(m(2)), t(40));
        assert_eq!(tree.path_to(m(2)).unwrap().len(), 1);
    }

    #[test]
    fn multiple_sources_choose_nearest() {
        let net = line_net();
        let ledger = NetworkLedger::new(&net);
        let hold = max_hold(3);
        // A copy at machine 1 (available late) and machine 0 (early).
        let tree = earliest_arrival_tree(&ItemQuery {
            network: &net,
            ledger: &ledger,
            size: Bytes::new(10_000),
            sources: &[(m(0), t(0)), (m(1), t(5))],
            hold_until: &hold,
            horizon: SimTime::from_hours(2),
        });
        // m2 via m1's copy: ready 5, 10 s hop => 15. Via m0: 20. Direct: 40.
        assert_eq!(tree.arrival(m(2)), t(15));
        let path = tree.path_to(m(2)).unwrap();
        assert_eq!(path.len(), 1);
        assert_eq!(path[0].from, m(1));
    }

    #[test]
    fn source_availability_delays_everything() {
        let net = line_net();
        let ledger = NetworkLedger::new(&net);
        let hold = max_hold(3);
        let tree = earliest_arrival_tree(&ItemQuery {
            network: &net,
            ledger: &ledger,
            size: Bytes::new(10_000),
            sources: &[(m(0), t(100))],
            hold_until: &hold,
            horizon: SimTime::from_hours(2),
        });
        assert_eq!(tree.arrival(m(1)), t(110));
        assert_eq!(tree.arrival(m(2)), t(120));
    }

    #[test]
    fn unreachable_when_no_links() {
        let mut b = NetworkBuilder::new();
        b.add_machine(Machine::new("a", Bytes::from_mib(1)));
        b.add_machine(Machine::new("b", Bytes::from_mib(1)));
        let net = b.build();
        let ledger = NetworkLedger::new(&net);
        let hold = max_hold(2);
        let tree = earliest_arrival_tree(&ItemQuery {
            network: &net,
            ledger: &ledger,
            size: Bytes::new(1),
            sources: &[(m(0), t(0))],
            hold_until: &hold,
            horizon: SimTime::from_hours(2),
        });
        assert!(tree.is_reachable(m(0)));
        assert!(!tree.is_reachable(m(1)));
    }

    #[test]
    fn storage_full_machine_is_bypassed() {
        let net = line_net();
        let mut ledger = NetworkLedger::new(&net);
        // Fill machine 1 completely for the whole horizon.
        ledger.force_storage(m(1), Bytes::from_mib(1), t(0), SimTime::MAX);
        let hold = max_hold(3);
        let tree = earliest_arrival_tree(&ItemQuery {
            network: &net,
            ledger: &ledger,
            size: Bytes::new(10_000),
            sources: &[(m(0), t(0))],
            hold_until: &hold,
            horizon: SimTime::from_hours(2),
        });
        assert!(!tree.is_reachable(m(1)));
        // m2 still reachable via the slow direct link.
        assert_eq!(tree.arrival(m(2)), t(40));
    }

    #[test]
    fn hold_deadline_prunes_late_paths() {
        let net = line_net();
        let ledger = NetworkLedger::new(&net);
        // Intermediate hold deadlines force completion by t=15 at m1/m2.
        let hold = vec![t(15), t(15), t(15)];
        let tree = earliest_arrival_tree(&ItemQuery {
            network: &net,
            ledger: &ledger,
            size: Bytes::new(10_000),
            sources: &[(m(0), t(0))],
            hold_until: &hold,
            horizon: SimTime::from_hours(2),
        });
        // 0->1 arrives at 10 <= 15: ok. 1->2 would arrive at 20 > 15: no.
        // Direct 0->2 arrives at 40 > 15: no.
        assert_eq!(tree.arrival(m(1)), t(10));
        assert!(!tree.is_reachable(m(2)));
    }

    #[test]
    fn window_gaps_force_waiting() {
        // One link available only during [60 s, 120 s).
        let mut b = NetworkBuilder::new();
        b.add_machine(Machine::new("a", Bytes::from_mib(1)));
        b.add_machine(Machine::new("b", Bytes::from_mib(1)));
        b.add_link(VirtualLink::new(m(0), m(1), t(60), t(120), BitsPerSec::new(8_000)));
        let net = b.build();
        let ledger = NetworkLedger::new(&net);
        let hold = max_hold(2);
        let tree = earliest_arrival_tree(&ItemQuery {
            network: &net,
            ledger: &ledger,
            size: Bytes::new(10_000),
            sources: &[(m(0), t(0))],
            hold_until: &hold,
            horizon: SimTime::from_hours(2),
        });
        assert_eq!(tree.arrival(m(1)), t(70));
        assert_eq!(tree.hop_into(m(1)).unwrap().start, t(60));
    }

    #[test]
    fn parallel_virtual_links_pick_best_window() {
        // Two virtual links a->b: early slow window and later fast window.
        let mut b = NetworkBuilder::new();
        b.add_machine(Machine::new("a", Bytes::from_mib(1)));
        b.add_machine(Machine::new("b", Bytes::from_mib(1)));
        b.add_link(VirtualLink::new(m(0), m(1), t(0), t(300), BitsPerSec::new(800))); // 0.1 B/ms
        b.add_link(VirtualLink::new(m(0), m(1), t(30), t(300), BitsPerSec::new(8_000)));
        let net = b.build();
        let ledger = NetworkLedger::new(&net);
        let hold = max_hold(2);
        let tree = earliest_arrival_tree(&ItemQuery {
            network: &net,
            ledger: &ledger,
            size: Bytes::new(10_000),
            sources: &[(m(0), t(0))],
            hold_until: &hold,
            horizon: t(300),
        });
        // Slow link: 100 s. Fast link: wait to 30 + 10 s = 40 s.
        assert_eq!(tree.arrival(m(1)), t(40));
        assert_eq!(tree.hop_into(m(1)).unwrap().link, dstage_model::ids::VirtualLinkId::new(1));
    }

    #[test]
    fn deterministic_tie_break_prefers_lower_link_id() {
        // Two identical links: the tree must always pick link 0.
        let mut b = NetworkBuilder::new();
        b.add_machine(Machine::new("a", Bytes::from_mib(1)));
        b.add_machine(Machine::new("b", Bytes::from_mib(1)));
        for _ in 0..2 {
            b.add_link(VirtualLink::new(m(0), m(1), t(0), t(300), BitsPerSec::new(8_000)));
        }
        let net = b.build();
        let ledger = NetworkLedger::new(&net);
        let hold = max_hold(2);
        for _ in 0..5 {
            let tree = earliest_arrival_tree(&ItemQuery {
                network: &net,
                ledger: &ledger,
                size: Bytes::new(100),
                sources: &[(m(0), t(0))],
                hold_until: &hold,
                horizon: t(300),
            });
            assert_eq!(tree.hop_into(m(1)).unwrap().link, dstage_model::ids::VirtualLinkId::new(0));
        }
    }

    #[test]
    fn latency_adds_to_every_hop() {
        use dstage_model::time::SimDuration;
        let mut b = NetworkBuilder::new();
        for i in 0..3 {
            b.add_machine(Machine::new(format!("m{i}"), Bytes::from_mib(1)));
        }
        for i in 0..2u32 {
            b.add_link(VirtualLink::with_latency(
                m(i),
                m(i + 1),
                t(0),
                SimTime::from_hours(1),
                BitsPerSec::new(8_000),
                SimDuration::from_millis(500),
            ));
        }
        let net = b.build();
        let ledger = NetworkLedger::new(&net);
        let hold = max_hold(3);
        let tree = earliest_arrival_tree(&ItemQuery {
            network: &net,
            ledger: &ledger,
            size: Bytes::new(10_000),
            sources: &[(m(0), t(0))],
            hold_until: &hold,
            horizon: SimTime::from_hours(2),
        });
        // Each hop: 10 s serialization + 0.5 s latency.
        assert_eq!(tree.arrival(m(1)), SimTime::from_millis(10_500));
        assert_eq!(tree.arrival(m(2)), SimTime::from_millis(21_000));
    }

    #[test]
    fn no_sources_means_everything_unreachable() {
        let net = line_net();
        let ledger = NetworkLedger::new(&net);
        let hold = max_hold(3);
        let tree = earliest_arrival_tree(&ItemQuery {
            network: &net,
            ledger: &ledger,
            size: Bytes::new(1),
            sources: &[],
            hold_until: &hold,
            horizon: SimTime::from_hours(2),
        });
        for i in 0..3 {
            assert!(!tree.is_reachable(m(i)));
        }
    }

    #[test]
    fn a_path_holds_only_while_its_consumed_hops_keep_their_slots() {
        let net = line_net();
        let (link, into) = (dstage_model::ids::VirtualLinkId::new(1), [m(2)]);
        let pristine = NetworkLedger::new(&net);
        let booked_at = |starts: &[u64]| {
            let mut ledger = pristine.clone();
            for &s in starts {
                ledger.commit_transfer(&net, link, t(s), Bytes::new(1_000), SimTime::MAX).unwrap();
            }
            ledger
        };
        let (later, clashing) = (booked_at(&[100]), booked_at(&[100, 12]));
        let hold = max_hold(3);
        let sources = [(m(0), t(0))];
        let query = |ledger| ItemQuery {
            network: &net,
            ledger,
            size: Bytes::new(10_000),
            sources: &sources,
            hold_until: &hold,
            horizon: SimTime::MAX,
        };
        let tree = earliest_arrival_tree(&query(&pristine)); // hop 1 -> 2 over [10, 20)
        let moved = |hop: &Hop| hop.link == link || into.contains(&hop.to);
        assert!(paths_hold(&query(&later), &tree, &[m(2)], moved), "slot kept");
        assert!(!paths_hold(&query(&clashing), &tree, &[m(2)], moved), "moved");
        assert!(!paths_hold(&query(&clashing), &tree, &[m(2)], |_| true));
        // A hop `moved` does not name is passed over unprobed.
        assert!(paths_hold(&query(&clashing), &tree, &[m(2)], |_| false));
        assert_ne!(earliest_arrival_tree(&query(&clashing)).arrival(m(2)), tree.arrival(m(2)));
        // The path to m1 never crosses the link.
        assert!(paths_hold(&query(&clashing), &tree, &[m(1)], |_| true));
    }

    #[test]
    fn a_bounded_search_stops_at_the_pop_of_its_last_destination() {
        let net = line_net();
        let ledger = NetworkLedger::new(&net);
        let hold = max_hold(3);
        let query = ItemQuery {
            network: &net,
            ledger: &ledger,
            size: Bytes::new(10_000),
            sources: &[(m(0), t(0))],
            hold_until: &hold,
            horizon: SimTime::MAX,
        };
        let landmarks = Landmarks::new(&net);
        let full = earliest_arrival_tree(&query);
        let to_m1 = earliest_arrival_paths(&query, &landmarks, &[m(1), m(1)]);
        assert_eq!(to_m1.path_to(m(1)), full.path_to(m(1)));
        // m1 was never expanded: m2 keeps the direct link's 40 s, not 20 s.
        assert_eq!((to_m1.arrival(m(2)), full.arrival(m(2))), (t(40), t(20)));
        assert_eq!(earliest_arrival_paths(&query, &landmarks, &[m(2)]), full);
        let none = earliest_arrival_paths(&query, &landmarks, &[]);
        assert_eq!((none.arrival(m(0)), none.is_reachable(m(1))), (t(0), false));
    }

    #[test]
    fn lower_bound_prune_skips_probes_without_changing_labels() {
        // The direct 0->2 link can never beat the two-hop route for this
        // size, so its probe is pruned — labels must match the original
        // algorithm's regardless.
        let net = line_net();
        let ledger = NetworkLedger::new(&net);
        let hold = max_hold(3);
        let tree = earliest_arrival_tree(&ItemQuery {
            network: &net,
            ledger: &ledger,
            size: Bytes::new(10_000),
            sources: &[(m(0), t(0))],
            hold_until: &hold,
            horizon: SimTime::from_hours(2),
        });
        assert_eq!(tree.arrival(m(2)), t(20));
        assert_eq!(tree.path_to(m(2)).unwrap().len(), 2);
    }
}
