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
//!   window/hold limits, the ledger probe is skipped entirely;
//! - *validation on read* ([`paths_hold`]): after consumption, a cached
//!   tree's paths to the destinations about to be read still hold when
//!   every hop over a consumed resource re-probes to its old slot.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dstage_model::ids::{MachineId, VirtualLinkId};
use dstage_model::network::Network;
use dstage_model::time::SimTime;
use dstage_model::units::Bytes;
use dstage_resources::ledger::NetworkLedger;

use crate::tree::{ArrivalTree, Hop};

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
    /// Outgoing edges considered, including every pruned one.
    edge_scans: u64,
    /// Ledger probes issued (`earliest_transfer` calls) — kept exactly
    /// equal to the resources layer's probe count by construction.
    relaxations: u64,
    /// Queue pushes (sources + label improvements).
    heap_pushes: u64,
    /// Pops whose label had already improved.
    stale_pops: u64,
    /// Edges discarded by the static lower bound before any probe.
    lb_prunes: u64,
}

impl SearchStats {
    /// One batched `fetch_add` per series per tree — this is the system's
    /// innermost loop, so the tap must not cost per-relaxation traffic.
    fn publish(&self) {
        use dstage_obs::metrics as m;
        m::PATH_TREES.inc();
        m::PATH_EDGE_SCANS.add(self.edge_scans);
        m::PATH_RELAXATIONS.add(self.relaxations);
        m::PATH_HEAP_PUSHES.add(self.heap_pushes);
        m::PATH_STALE_POPS.add(self.stale_pops);
        m::PATH_LB_PRUNES.add(self.lb_prunes);
    }
}

/// Computes the earliest-arrival tree for one item.
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
/// # Panics
///
/// Panics if `hold_until` is shorter than the machine count, or a source
/// machine id is out of range.
#[must_use]
pub fn earliest_arrival_tree(query: &ItemQuery<'_>) -> ArrivalTree {
    let n = query.network.machine_count();
    assert!(query.hold_until.len() >= n, "hold_until must cover every machine");

    let mut arrivals = vec![SimTime::MAX; n];
    let mut hops: Vec<Option<Hop>> = vec![None; n];
    let mut queue = Frontier::new();
    let mut stats = SearchStats::default();

    for &(machine, available_at) in query.sources {
        let slot = &mut arrivals[machine.index()];
        if available_at < *slot {
            *slot = available_at;
            hops[machine.index()] = None;
            queue.push(Reverse((available_at, machine.index() as u32)));
            stats.heap_pushes += 1;
        }
    }

    settle(query, &mut arrivals, &mut hops, &mut queue, &mut stats);
    stats.publish();

    ArrivalTree::new(arrivals, hops)
}

/// The search frontier: a min-heap popping ascending `(arrival, machine
/// id)`, with lazy deletion of superseded entries.
type Frontier = BinaryHeap<Reverse<(SimTime, u32)>>;

/// The label-setting core: drains the seeded queue, relaxing every
/// outgoing edge of each settled machine. Kept out of line: folded into
/// its caller, the sweep measured 12–15 % slower (EXPERIMENTS.md "Tree
/// repair retired").
#[inline(never)]
fn settle(
    query: &ItemQuery<'_>,
    arrivals: &mut [SimTime],
    hops: &mut [Option<Hop>],
    queue: &mut Frontier,
    stats: &mut SearchStats,
) {
    while let Some(Reverse((ready, u_idx))) = queue.pop() {
        if ready > arrivals[u_idx as usize] {
            stats.stale_pops += 1;
            continue; // stale queue entry
        }
        let u = MachineId::new(u_idx);
        for &link_id in query.network.outgoing(u) {
            stats.edge_scans += 1;
            let link = query.network.link(link_id);
            let v = link.destination().index();
            // The unloaded-network bound: no slot can complete earlier
            // than the earliest start plus the transfer time, and none may
            // complete after window end or the hold deadline. Most edges
            // fail it on the start alone, before the transfer time (a
            // division) is known; overflow means unrepresentably late.
            let hold = query.hold_until[v];
            let (earliest, limit) = (link.start().max(ready), link.end().min(hold));
            let may_improve = earliest <= limit
                && earliest < arrivals[v]
                && earliest
                    .checked_add(link.transfer_time(query.size))
                    .is_some_and(|lb| lb <= limit && lb < arrivals[v]);
            if !may_improve {
                stats.lb_prunes += 1;
                continue;
            }
            stats.relaxations += 1;
            let Some(slot) =
                query.ledger.earliest_transfer(query.network, link_id, ready, query.size, hold)
            else {
                continue;
            };
            if slot.arrival < arrivals[v] {
                arrivals[v] = slot.arrival;
                hops[v] = Some(Hop {
                    from: u,
                    to: MachineId::new(v as u32),
                    link: link_id,
                    start: slot.start,
                    arrival: slot.arrival,
                });
                queue.push(Reverse((slot.arrival, v as u32)));
                stats.heap_pushes += 1;
            }
        }
    }
}

/// Whether `tree`'s paths to `destinations` — and with them the labels
/// and hops along those paths — are still what a from-scratch run on
/// `query`'s ledger returns, although the given links/stores were consumed
/// since the tree was last known to hold for those destinations.
///
/// Each hop on such a path whose link or receiving store was consumed is
/// probed again exactly as the search probed it; the path holds when every
/// probe answers with the hop's old slot. That is sufficient (DESIGN.md
/// §3): consumption moves no label earlier; a path whose hops all keep
/// their slots keeps its labels, by induction from the unchanged sources;
/// and every rival predecessor's label and probe answer is the same or
/// later, so the strict-`<` update still picks the same hop in the same
/// `(arrival, machine id)` pop order. Nothing is claimed about the rest of
/// the tree.
#[must_use]
pub fn paths_hold(
    query: &ItemQuery<'_>,
    tree: &ArrivalTree,
    destinations: &[MachineId],
    dirty_links: &[VirtualLinkId],
    dirty_machines: &[MachineId],
) -> bool {
    let mut reprobed = 0;
    let untouched = dirty_links.is_empty() && dirty_machines.is_empty();
    let holds = untouched
        || destinations.iter().all(|&destination| {
            let mut cursor = destination;
            while let Some(hop) = tree.hop_into(cursor) {
                if dirty_links.contains(&hop.link) || dirty_machines.contains(&hop.to) {
                    reprobed += 1;
                    let slot = query.ledger.earliest_transfer(
                        query.network,
                        hop.link,
                        tree.arrival(hop.from),
                        query.size,
                        query.hold_until[hop.to.index()],
                    );
                    if slot.map(|s| (s.start, s.arrival)) != Some((hop.start, hop.arrival)) {
                        return false;
                    }
                }
                cursor = hop.from;
            }
            true
        });
    dstage_obs::metrics::PATH_HOPS_REPROBED.add(reprobed);
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
        assert!(paths_hold(&query(&later), &tree, &[m(2)], &[link], &into), "slot kept");
        assert!(!paths_hold(&query(&clashing), &tree, &[m(2)], &[link], &into), "slot moved");
        assert_ne!(earliest_arrival_tree(&query(&clashing)).arrival(m(2)), tree.arrival(m(2)));
        // The path to m1 never crosses the link.
        assert!(paths_hold(&query(&clashing), &tree, &[m(1)], &[link], &into));
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
