//! Incremental repair of earliest-arrival trees (dynamic SSSP).
//!
//! Between two queries of the same item, the ledger only ever *consumes*
//! resources (commits, outage blocks) — no reservation is ever released
//! mid-run. Consumption is monotone: every `earliest_transfer` probe
//! answers the same or later, never earlier. So when some links/stores
//! move under a cached tree, only the machines whose path *crossed* a
//! dirtied resource — and their tree descendants — can change label;
//! every other label is still both feasible (its path's resources are
//! untouched) and optimal (no probe anywhere got earlier). That turns
//! invalidation into repair: reset the affected subtrees, re-seed the
//! search from the frontier of unaffected machines plus the item's own
//! sources, and re-run the label-setting core with the unaffected set
//! frozen. The result is the *identical* tree a from-scratch
//! [`crate::earliest_arrival_tree`] would build — pops settle in the same
//! `(arrival, machine id)` order, probes are pure reads, and the strict-<
//! update rule picks the same hops — at a fraction of the probes. Pinned
//! by the property tests in `tests/properties.rs`, and end to end by the
//! caching-on ≡ caching-off test in the workspace root
//! (`tests/determinism.rs`).

use std::cmp::Reverse;

use dstage_model::ids::{MachineId, VirtualLinkId};
use dstage_model::time::SimTime;

use crate::dijkstra::{run_search, Frontier, ItemQuery, SearchStats};
use crate::tree::{ArrivalTree, Hop};

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
/// the tree: when this returns `false`, and before any label elsewhere is
/// read, the tree must go through [`repair_tree`] with everything consumed
/// since it was *built*.
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

/// Repairs `tree` — built for `query`'s item against an *earlier* state
/// of the same ledger — after the given links/stores were consumed.
///
/// Exactness requires what the scheduler guarantees: the ledger has only
/// consumed resources since `tree` was built, the item's sources have at
/// most *gained* copies the tree already reflects (callers rebuild from
/// scratch when a source is lost), and `dirty_links`/`dirty_machines`
/// cover every resource consumed since. The returned tree is equal to a
/// from-scratch run, hop for hop.
///
/// # Panics
///
/// Panics if `tree` does not cover `query.network`'s machines.
#[must_use]
pub fn repair_tree(
    query: &ItemQuery<'_>,
    tree: &ArrivalTree,
    dirty_links: &[VirtualLinkId],
    dirty_machines: &[MachineId],
) -> ArrivalTree {
    let n = query.network.machine_count();
    assert_eq!(tree.machine_count(), n, "tree must cover the query network");
    let (old_arrivals, old_hops) = tree.parts();

    let mut link_dirty = vec![false; query.network.link_count()];
    for &l in dirty_links {
        link_dirty[l.index()] = true;
    }
    let mut machine_dirty = vec![false; n];
    for &m in dirty_machines {
        machine_dirty[m.index()] = true;
    }

    // Affected = machines whose inbound hop crossed a dirtied resource,
    // plus all their tree descendants (their labels chain through it).
    // Children sit in one flat array, grouped by parent: machine `p`'s are
    // `children[bounds[p]..bounds[p + 1]]`. Built by counting sort, with
    // `bounds[p + 1]` serving as `p`'s fill cursor on the way.
    let mut bounds = vec![0usize; n + 2];
    for hop in old_hops.iter().flatten() {
        bounds[hop.from.index() + 2] += 1;
    }
    for p in 2..n + 2 {
        bounds[p] += bounds[p - 1];
    }
    let mut children = vec![0usize; bounds[n + 1]];
    let mut affected = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    for (idx, hop) in old_hops.iter().enumerate() {
        let Some(hop) = hop else { continue };
        let cursor = &mut bounds[hop.from.index() + 1];
        children[*cursor] = idx;
        *cursor += 1;
        if link_dirty[hop.link.index()] || machine_dirty[idx] {
            affected[idx] = true;
            stack.push(idx);
        }
    }
    while let Some(idx) = stack.pop() {
        for &child in &children[bounds[idx]..bounds[idx + 1]] {
            if !affected[child] {
                affected[child] = true;
                stack.push(child);
            }
        }
    }

    let mut arrivals = old_arrivals.to_vec();
    let mut hops: Vec<Option<Hop>> = old_hops.to_vec();
    let mut queue = Frontier::new();
    let mut stats = SearchStats::default();

    for idx in 0..n {
        if affected[idx] {
            arrivals[idx] = SimTime::MAX;
            hops[idx] = None;
        }
    }
    // Affected machines holding a copy fall back to their source
    // availability, exactly like the scratch run's seeding (a source can
    // still be *reached* earlier than a late copy becomes available).
    for &(machine, available_at) in query.sources {
        let idx = machine.index();
        if affected[idx] && available_at < arrivals[idx] {
            arrivals[idx] = available_at;
            hops[idx] = None;
            queue.push(Reverse((available_at, idx as u32)));
            stats.heap_pushes += 1;
        }
    }
    // The frontier: unaffected reachable machines with an edge into the
    // affected set relax back into it at their (final) labels.
    for idx in 0..n {
        if affected[idx] || arrivals[idx] == SimTime::MAX {
            continue;
        }
        let feeds_affected = query
            .network
            .outgoing(MachineId::new(idx as u32))
            .iter()
            .any(|&l| affected[query.network.link(l).destination().index()]);
        if feeds_affected {
            queue.push(Reverse((arrivals[idx], idx as u32)));
            stats.heap_pushes += 1;
        }
    }
    let seeds = stats.heap_pushes;

    // Frozen = the unaffected machines: their labels are final, so edges
    // into them are skipped (no probe could improve them).
    let frozen: Vec<bool> = affected.iter().map(|&a| !a).collect();
    run_search(query, &mut arrivals, &mut hops, &mut queue, Some(&frozen), &mut stats);

    stats.publish();
    dstage_obs::metrics::PATH_TREE_REPAIRS.inc();
    dstage_obs::metrics::PATH_REPAIR_SEEDS.add(seeds);

    ArrivalTree::new(arrivals, hops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::earliest_arrival_tree;
    use dstage_model::link::VirtualLink;
    use dstage_model::machine::Machine;
    use dstage_model::network::{Network, NetworkBuilder};
    use dstage_model::units::{BitsPerSec, Bytes};
    use dstage_resources::ledger::NetworkLedger;

    fn m(i: u32) -> MachineId {
        MachineId::new(i)
    }

    fn l(i: u32) -> VirtualLinkId {
        VirtualLinkId::new(i)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Diamond: 0 -> 1 -> 3, 0 -> 2 -> 3, all 1 byte/ms.
    fn diamond() -> Network {
        let mut b = NetworkBuilder::new();
        for i in 0..4 {
            b.add_machine(Machine::new(format!("m{i}"), Bytes::from_mib(1)));
        }
        let win = SimTime::from_hours(1);
        b.add_link(VirtualLink::new(m(0), m(1), SimTime::ZERO, win, BitsPerSec::new(8_000)));
        b.add_link(VirtualLink::new(m(1), m(3), SimTime::ZERO, win, BitsPerSec::new(8_000)));
        b.add_link(VirtualLink::new(m(0), m(2), SimTime::ZERO, win, BitsPerSec::new(8_000)));
        b.add_link(VirtualLink::new(m(2), m(3), SimTime::ZERO, win, BitsPerSec::new(8_000)));
        b.build()
    }

    #[test]
    fn repair_after_a_link_commit_matches_scratch() {
        let net = diamond();
        let mut ledger = NetworkLedger::new(&net);
        let hold = vec![SimTime::MAX; 4];
        let size = Bytes::new(10_000);
        let sources = [(m(0), t(0))];
        let before = earliest_arrival_tree(&ItemQuery {
            network: &net,
            ledger: &ledger,
            size,
            sources: &sources,
            hold_until: &hold,
            horizon: SimTime::from_hours(2),
        });
        // The tree routes 0 -> 1 -> 3 (lower link ids win the tie).
        assert_eq!(before.hop_into(m(3)).unwrap().link, l(1));

        // A foreign commit congests link 0 for 30 s.
        ledger.commit_transfer(&net, l(0), t(0), Bytes::new(30_000), SimTime::MAX).unwrap();
        let dirty_links = [l(0)];
        let dirty_machines = [m(1)];
        let query = ItemQuery {
            network: &net,
            ledger: &ledger,
            size,
            sources: &sources,
            hold_until: &hold,
            horizon: SimTime::from_hours(2),
        };
        let repaired = repair_tree(&query, &before, &dirty_links, &dirty_machines);
        let scratch = earliest_arrival_tree(&query);
        assert_eq!(repaired, scratch);
        // The route flipped to the untouched 0 -> 2 -> 3 branch.
        assert_eq!(repaired.hop_into(m(3)).unwrap().link, l(3));
    }

    #[test]
    fn clean_journal_repair_is_a_no_op() {
        let net = diamond();
        let ledger = NetworkLedger::new(&net);
        let hold = vec![SimTime::MAX; 4];
        let sources = [(m(0), t(0))];
        let query = ItemQuery {
            network: &net,
            ledger: &ledger,
            size: Bytes::new(10_000),
            sources: &sources,
            hold_until: &hold,
            horizon: SimTime::from_hours(2),
        };
        let tree = earliest_arrival_tree(&query);
        assert_eq!(repair_tree(&query, &tree, &[], &[]), tree);
    }

    #[test]
    fn storage_dirty_machines_reseed_their_subtree() {
        let net = diamond();
        let mut ledger = NetworkLedger::new(&net);
        let hold = vec![SimTime::MAX; 4];
        let sources = [(m(0), t(0))];
        let before = earliest_arrival_tree(&ItemQuery {
            network: &net,
            ledger: &ledger,
            size: Bytes::new(10_000),
            sources: &sources,
            hold_until: &hold,
            horizon: SimTime::from_hours(2),
        });
        // Fill machine 1's storage so the old subtree through it dies.
        ledger.force_storage(m(1), Bytes::from_mib(1), t(0), SimTime::MAX);
        let query = ItemQuery {
            network: &net,
            ledger: &ledger,
            size: Bytes::new(10_000),
            sources: &sources,
            hold_until: &hold,
            horizon: SimTime::from_hours(2),
        };
        let repaired = repair_tree(&query, &before, &[], &[m(1)]);
        let scratch = earliest_arrival_tree(&query);
        assert_eq!(repaired, scratch);
        assert!(!repaired.is_reachable(m(1)));
        assert_eq!(repaired.hop_into(m(3)).unwrap().from, m(2));
    }
}
