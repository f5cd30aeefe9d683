//! Property-based tests for the earliest-arrival search.
//!
//! The load-bearing claims are checked against randomized networks:
//!
//! 1. **Exactness** — the label-setting (Dijkstra) result equals a
//!    Bellman-Ford-style relax-to-fixpoint reference, i.e. the FIFO
//!    argument for label-setting holds for our time-dependent edges.
//! 2. **Commit consistency** — every hop the tree promises can actually be
//!    committed to the ledger at exactly the promised times.
//! 3. **Validation soundness** — after arbitrary consumption, the paths
//!    `paths_hold` accepts are a from-scratch search's.
//! 4. **First-hop memo** — the precomputed first hop equals a walk up the
//!    hop chain.

use dstage_model::ids::{MachineId, VirtualLinkId};
use dstage_model::link::VirtualLink;
use dstage_model::machine::Machine;
use dstage_model::network::{Network, NetworkBuilder};
use dstage_model::time::SimTime;
use dstage_model::units::{BitsPerSec, Bytes};
use dstage_path::{earliest_arrival_tree, paths_hold, ItemQuery};
use dstage_resources::ledger::NetworkLedger;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomNet {
    machines: usize,
    /// (src, dst, window_start_s, window_len_s, bytes_per_ms)
    links: Vec<(usize, usize, u64, u64, u64)>,
    /// capacity per machine, bytes
    caps: Vec<u64>,
}

fn random_net_strategy() -> impl Strategy<Value = RandomNet> {
    (2usize..7).prop_flat_map(|machines| {
        let links = prop::collection::vec(
            (0..machines, 0..machines, 0u64..200, 1u64..400, 1u64..20),
            1..20,
        );
        let caps = prop::collection::vec(1_000u64..1_000_000, machines);
        (Just(machines), links, caps).prop_map(|(machines, links, caps)| RandomNet {
            machines,
            links,
            caps,
        })
    })
}

fn build(net: &RandomNet) -> Network {
    let mut b = NetworkBuilder::new();
    for i in 0..net.machines {
        b.add_machine(Machine::new(format!("m{i}"), Bytes::new(net.caps[i])));
    }
    for &(s, d, ws, wl, speed) in &net.links {
        if s == d {
            continue;
        }
        b.add_link(VirtualLink::new(
            MachineId::new(s as u32),
            MachineId::new(d as u32),
            SimTime::from_secs(ws),
            SimTime::from_secs(ws + wl),
            BitsPerSec::new(speed * 8_000), // speed bytes per ms
        ));
    }
    b.build()
}

/// Assembles an [`ItemQuery`] over borrowed parts (a closure cannot tie
/// the passed-in ledger's lifetime to the returned query).
fn query_of<'a>(
    network: &'a Network,
    ledger: &'a NetworkLedger,
    size: u64,
    sources: &'a [(MachineId, SimTime)],
    hold: &'a [SimTime],
) -> ItemQuery<'a> {
    ItemQuery {
        network,
        ledger,
        size: Bytes::new(size),
        sources,
        hold_until: hold,
        horizon: SimTime::MAX,
    }
}

/// Relax every edge repeatedly until nothing changes — a slow but obviously
/// correct reference for earliest arrivals.
fn fixpoint_arrivals(
    network: &Network,
    ledger: &NetworkLedger,
    size: Bytes,
    sources: &[(MachineId, SimTime)],
    hold: &[SimTime],
) -> Vec<SimTime> {
    let n = network.machine_count();
    let mut arrivals = vec![SimTime::MAX; n];
    for &(m, at) in sources {
        arrivals[m.index()] = arrivals[m.index()].min(at);
    }
    loop {
        let mut changed = false;
        for (link_id, link) in network.links() {
            let u = link.source().index();
            if arrivals[u] == SimTime::MAX {
                continue;
            }
            let v = link.destination();
            if let Some(slot) =
                ledger.earliest_transfer(network, link_id, arrivals[u], size, hold[v.index()])
            {
                if slot.arrival < arrivals[v.index()] {
                    arrivals[v.index()] = slot.arrival;
                    changed = true;
                }
            }
        }
        if !changed {
            return arrivals;
        }
    }
}

/// Applies `seeds`-driven random commits to `ledger`, returning the
/// consumed links and receiving machines (the journal's view).
fn consume_randomly(
    network: &Network,
    ledger: &mut NetworkLedger,
    commits: &[(usize, u64, u64)],
) -> (Vec<VirtualLinkId>, Vec<MachineId>) {
    let mut dirty_links = Vec::new();
    let mut dirty_machines = Vec::new();
    for &(link_pick, start_s, size) in commits {
        let link_id = VirtualLinkId::new((link_pick % network.link_count()) as u32);
        let link = network.link(link_id);
        // Probe for a feasible slot first so most commits land.
        let Some(slot) = ledger.earliest_transfer(
            network,
            link_id,
            link.start().max(SimTime::from_secs(start_s)),
            Bytes::new(size),
            SimTime::MAX,
        ) else {
            continue;
        };
        if ledger
            .commit_transfer(network, link_id, slot.start, Bytes::new(size), SimTime::MAX)
            .is_ok()
        {
            dirty_links.push(link_id);
            dirty_machines.push(link.destination());
        }
    }
    (dirty_links, dirty_machines)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dijkstra_matches_fixpoint_reference(
        net in random_net_strategy(),
        size in 1u64..40_000,
        src in 0usize..7,
        src_avail in 0u64..100,
    ) {
        let network = build(&net);
        let src = MachineId::new((src % net.machines) as u32);
        let ledger = NetworkLedger::new(&network);
        let hold = vec![SimTime::MAX; net.machines];
        let sources = [(src, SimTime::from_secs(src_avail))];
        let query = ItemQuery {
            network: &network,
            ledger: &ledger,
            size: Bytes::new(size),
            sources: &sources,
            hold_until: &hold,
            horizon: SimTime::from_hours(2),
        };
        let tree = earliest_arrival_tree(&query);
        let reference = fixpoint_arrivals(&network, &ledger, Bytes::new(size), &sources, &hold);
        for (i, &expected) in reference.iter().enumerate() {
            prop_assert_eq!(
                tree.arrival(MachineId::new(i as u32)),
                expected,
                "machine {} disagrees", i
            );
        }
    }

    #[test]
    fn tree_hops_commit_at_promised_times(
        net in random_net_strategy(),
        size in 1u64..40_000,
        src in 0usize..7,
    ) {
        let network = build(&net);
        let src = MachineId::new((src % net.machines) as u32);
        let ledger = NetworkLedger::new(&network);
        let hold = vec![SimTime::MAX; net.machines];
        let sources = [(src, SimTime::ZERO)];
        let tree = earliest_arrival_tree(&ItemQuery {
            network: &network,
            ledger: &ledger,
            size: Bytes::new(size),
            sources: &sources,
            hold_until: &hold,
            horizon: SimTime::MAX,
        });
        // Committing every tree hop (in start order) must succeed exactly
        // as promised: distinct links and distinct receiving machines mean
        // no internal conflicts.
        let mut mutable = ledger.clone();
        let mut hops: Vec<_> = tree.hops().collect();
        hops.sort_by_key(|h| (h.start, h.link));
        for hop in hops {
            let slot = mutable
                .commit_transfer(&network, hop.link, hop.start, Bytes::new(size), SimTime::MAX)
                .expect("tree hop must be committable");
            prop_assert_eq!(slot.arrival, hop.arrival);
        }
    }

    #[test]
    fn arrivals_never_improve_as_resources_are_consumed(
        net in random_net_strategy(),
        size in 1u64..20_000,
        src in 0usize..7,
        blocked_link in 0usize..20,
        block_len in 1u64..200,
    ) {
        let network = build(&net);
        if network.link_count() == 0 {
            return Ok(());
        }
        let src = MachineId::new((src % net.machines) as u32);
        let hold = vec![SimTime::MAX; net.machines];
        let sources = [(src, SimTime::ZERO)];
        let before = {
            let ledger = NetworkLedger::new(&network);
            earliest_arrival_tree(&ItemQuery {
                network: &network,
                ledger: &ledger,
                size: Bytes::new(size),
                sources: &sources,
                hold_until: &hold,
                horizon: SimTime::from_hours(2),
            })
        };
        // Consume some resources: reserve a chunk of one link's window.
        let mut ledger = NetworkLedger::new(&network);
        let link_id = dstage_model::ids::VirtualLinkId::new(
            (blocked_link % network.link_count()) as u32,
        );
        let link = network.link(link_id);
        let block_end = link.end().min(link.start() + dstage_model::time::SimDuration::from_secs(block_len));
        if block_end > link.start() {
            // Reserve directly on the busy set via a zero-storage commit is
            // not possible; emulate contention with storage instead when
            // commit fails.
            let blocker = Bytes::new(block_len * 1_000);
            let _ = ledger.commit_transfer(&network, link_id, link.start(), blocker, SimTime::MAX);
        }
        let after = earliest_arrival_tree(&ItemQuery {
            network: &network,
            ledger: &ledger,
            size: Bytes::new(size),
            sources: &sources,
            hold_until: &hold,
            horizon: SimTime::from_hours(2),
        });
        for i in 0..net.machines {
            let m = MachineId::new(i as u32);
            prop_assert!(
                after.arrival(m) >= before.arrival(m),
                "arrival improved after consuming resources at machine {}", i
            );
        }
    }

    #[test]
    fn paths_that_hold_equal_a_scratch_search(
        net in random_net_strategy(),
        size in 1u64..20_000,
        src in 0usize..7,
        src_avail in 0u64..50,
        commits in prop::collection::vec((0usize..32, 0u64..300, 1u64..30_000), 0..12),
        picks in prop::collection::vec(0usize..7, 1..4),
    ) {
        let network = build(&net);
        if network.link_count() == 0 {
            return Ok(());
        }
        let src = MachineId::new((src % net.machines) as u32);
        let hold = vec![SimTime::MAX; net.machines];
        let sources = [(src, SimTime::from_secs(src_avail))];
        let destinations: Vec<MachineId> =
            picks.iter().map(|&p| MachineId::new((p % net.machines) as u32)).collect();
        let mut ledger = NetworkLedger::new(&network);
        let query = query_of(&network, &ledger, size, &sources, &hold);
        let tree = earliest_arrival_tree(&query);
        // Nothing consumed: every hop, probed again with every resource
        // named, finds the slot the search gave it.
        let (all_links, all_machines): (Vec<VirtualLinkId>, Vec<MachineId>) =
            network.links().map(|(l, link)| (l, link.destination())).unzip();
        prop_assert!(paths_hold(&query, &tree, &destinations, &all_links, &all_machines));

        let (dirty_links, dirty_machines) = consume_randomly(&network, &mut ledger, &commits);
        let query = query_of(&network, &ledger, size, &sources, &hold);
        if paths_hold(&query, &tree, &destinations, &dirty_links, &dirty_machines) {
            let scratch = earliest_arrival_tree(&query);
            for &d in &destinations {
                prop_assert_eq!(tree.arrival(d), scratch.arrival(d), "arrival at {}", d);
                prop_assert_eq!(tree.path_to(d), scratch.path_to(d), "path to {}", d);
            }
        }
    }

    #[test]
    fn first_hop_memo_matches_chain_walk(
        net in random_net_strategy(),
        size in 1u64..40_000,
        src in 0usize..7,
    ) {
        let network = build(&net);
        let src = MachineId::new((src % net.machines) as u32);
        let ledger = NetworkLedger::new(&network);
        let hold = vec![SimTime::MAX; net.machines];
        let sources = [(src, SimTime::ZERO)];
        let tree = earliest_arrival_tree(&ItemQuery {
            network: &network,
            ledger: &ledger,
            size: Bytes::new(size),
            sources: &sources,
            hold_until: &hold,
            horizon: SimTime::from_hours(2),
        });
        for i in 0..net.machines {
            let m = MachineId::new(i as u32);
            let walked = tree.hop_into(m).map(|mut hop| {
                while let Some(prev) = tree.hop_into(hop.from) {
                    hop = prev;
                }
                hop
            });
            prop_assert_eq!(tree.first_hop_toward(m), walked, "machine {}", i);
        }
    }
}
