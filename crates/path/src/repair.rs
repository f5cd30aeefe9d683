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

use crate::dijkstra::{link_bounds, run_search, Frontier, ItemQuery, SearchStats};
use crate::tree::{ArrivalTree, Hop};

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
    let mut affected = vec![false; n];
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut stack: Vec<usize> = Vec::new();
    for (idx, hop) in old_hops.iter().enumerate() {
        let Some(hop) = hop else { continue };
        children[hop.from.index()].push(idx);
        if link_dirty[hop.link.index()] || machine_dirty[idx] {
            affected[idx] = true;
            stack.push(idx);
        }
    }
    while let Some(idx) = stack.pop() {
        for &child in &children[idx] {
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
    let bounds = link_bounds(query.network, query.size);
    for idx in 0..n {
        if affected[idx] || arrivals[idx] == SimTime::MAX {
            continue;
        }
        let feeds_affected = query
            .network
            .outgoing(MachineId::new(idx as u32))
            .iter()
            .any(|&l| affected[bounds[l.index()].dst]);
        if feeds_affected {
            queue.push(Reverse((arrivals[idx], idx as u32)));
            stats.heap_pushes += 1;
        }
    }
    let seeds = stats.heap_pushes;

    // Frozen = the unaffected machines: their labels are final, so edges
    // into them are skipped (no probe could improve them).
    let frozen: Vec<bool> = affected.iter().map(|&a| !a).collect();
    run_search(query, &bounds, &mut arrivals, &mut hops, &mut queue, Some(&frozen), &mut stats);

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
