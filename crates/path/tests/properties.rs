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
//!    `paths_hold` accepts are a from-scratch search's, and probing only
//!    the hops over a consumed link or into a consumed store (what a
//!    scheduler's stamps name) decides exactly what probing every hop of
//!    the read paths does.
//! 4. **First hop** — `first_hop_toward` equals a walk up the hop chain.
//! 5. **Bounded reads** — the search steered to its destinations and
//!    stopped there (`earliest_arrival_paths`) gives each of them the
//!    arrival and path the full search does; an empty read settles
//!    nothing. Uniform grids and lines, where many routes arrive at once,
//!    hold it to the full search's tie-breaks.
//! 6. **Landmark bound** — the goal's bound is consistent across every
//!    link, zero at the destinations, and no more than the item's size
//!    times the static distance to the nearest destination, rounded down.
//! 7. **Hop reconstruction** — a tree stores each machine's inbound hop
//!    without its receiver and arrival; `hop_into` rebuilds them from the
//!    machine and its label, on full trees and on steered reads, and
//!    answers `None` for a source not reached earlier and for an
//!    unreachable machine.
//!
//! Exactness is also checked with finite per-machine hold deadlines, on a
//! partly consumed ledger, with some windows opening after every hold.
//! That check, validation soundness (on the bounded trees the schedulers
//! cache) and bounded reads also run on networks of window trains, where
//! the search scans long runs of one physical link's windows.

use dstage_model::ids::{MachineId, VirtualLinkId};
use dstage_model::link::VirtualLink;
use dstage_model::machine::Machine;
use dstage_model::network::{Network, NetworkBuilder};
use dstage_model::time::SimTime;
use dstage_model::units::{BitsPerSec, Bytes};
use dstage_path::{
    earliest_arrival_paths, earliest_arrival_tree, paths_hold, ItemQuery, Landmarks,
};
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

/// Networks of window trains, as the paper's generator emits them per
/// physical link (`workload::links::generate_windows`): consecutive link
/// ids, one bandwidth, ordered disjoint windows. About one window in four
/// breaks its train — it steps back to near the train's first start, ends
/// before the window it follows, or changes the bandwidth — and a train of
/// one window is a single link between trains.
fn train_net_strategy() -> impl Strategy<Value = RandomNet> {
    (2usize..7).prop_flat_map(|machines| {
        // (gap, length, breaker)
        let window = (0u64..15, 1u64..30, 0u8..12);
        let train =
            (0..machines, 1..machines, 1u64..20, 0u64..60, prop::collection::vec(window, 1..10));
        let trains = prop::collection::vec(train, 1..6);
        let caps = prop::collection::vec(1_000u64..1_000_000, machines);
        (Just(machines), trains, caps).prop_map(|(machines, trains, caps)| {
            let mut links = Vec::new();
            for (src, hop, mut speed, first, windows) in trains {
                let (mut start, mut end) = (first, first);
                for (gap, len, breaker) in windows {
                    (start, end) = match breaker {
                        0 => (first + gap, first + gap + len),
                        1 => (
                            start,
                            (start + 1 + gap % len).min(end.saturating_sub(1)).max(start + 1),
                        ),
                        2 => {
                            speed = 20 - speed;
                            (end + gap, end + gap + len)
                        }
                        _ => (end + gap, end + gap + len),
                    };
                    links.push((src, (src + hop) % machines, start, end - start, speed));
                }
            }
            RandomNet { machines, links, caps }
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
/// consumed links and receiving machines.
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

/// After random consumption, every destination whose path `paths_hold`
/// accepts has the arrival and path a from-scratch search gives it. The
/// tree validated is searched up to its destinations, as the schedulers
/// cache it.
fn check_paths_that_hold(
    net: RandomNet,
    size: u64,
    src: usize,
    src_avail: u64,
    commits: &[(usize, u64, u64)],
    picks: &[usize],
) -> Result<(), TestCaseError> {
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
    let tree = earliest_arrival_paths(&query, &Landmarks::new(&network), &destinations);
    // Nothing consumed: every hop, probed again, finds the slot the search
    // gave it.
    prop_assert!(paths_hold(&query, &tree, &destinations, |_| true));

    let (dirty_links, dirty_machines) = consume_randomly(&network, &mut ledger, commits);
    let query = query_of(&network, &ledger, size, &sources, &hold);
    // What a scheduler's stamps say of a hop — its link or its receiving
    // store consumed since the tree was searched — probes exactly what
    // probing every hop of the read paths decides.
    let (mut link_moved, mut store_moved) =
        (vec![false; network.link_count()], vec![false; net.machines]);
    for &link in &dirty_links {
        link_moved[link.index()] = true;
    }
    for &machine in &dirty_machines {
        store_moved[machine.index()] = true;
    }
    let holds = paths_hold(&query, &tree, &destinations, |hop| {
        link_moved[hop.link.index()] || store_moved[hop.to.index()]
    });
    prop_assert_eq!(holds, paths_hold(&query, &tree, &destinations, |_| true));
    if holds {
        let scratch = earliest_arrival_tree(&query);
        for &d in &destinations {
            prop_assert_eq!(tree.arrival(d), scratch.arrival(d), "arrival at {}", d);
            prop_assert_eq!(tree.path_to(d), scratch.path_to(d), "path to {}", d);
        }
    }
    Ok(())
}

/// On a partly consumed ledger with finite holds, the search's arrivals
/// are the fixpoint reference's.
fn check_fixpoint_under_finite_holds(
    mut net: RandomNet,
    size: u64,
    src: usize,
    src_avail: u64,
    holds: &[u64],
    commits: &[(usize, u64, u64)],
) -> Result<(), TestCaseError> {
    // Every hold ends by 170 s and the appended link opens at 185 s, so
    // at least one window opens after every hold and can carry nothing.
    net.links.push((0, 1, 185, 100, 5));
    let network = build(&net);
    let src = MachineId::new((src % net.machines) as u32);
    let mut ledger = NetworkLedger::new(&network);
    consume_randomly(&network, &mut ledger, commits);
    let hold: Vec<SimTime> = holds[..net.machines].iter().map(|&h| SimTime::from_secs(h)).collect();
    let sources = [(src, SimTime::from_secs(src_avail))];
    let query = query_of(&network, &ledger, size, &sources, &hold);
    let tree = earliest_arrival_tree(&query);
    let reference = fixpoint_arrivals(&network, &ledger, Bytes::new(size), &sources, &hold);
    for (i, &expected) in reference.iter().enumerate() {
        prop_assert_eq!(
            tree.arrival(MachineId::new(i as u32)),
            expected,
            "machine {} disagrees",
            i
        );
    }
    Ok(())
}

/// On a partly consumed ledger with finite holds and two sources, the
/// search stopped at `picks` gives each picked machine the arrival and
/// path of the full search. A pick past the net's machines names a source
/// (`machines`) or a machine without links (`machines + 1`), so the
/// draws cover sources, unreachable machines, duplicates and, with no
/// picks, the empty read — which settles nothing: only the sources keep
/// a label.
fn check_bounded_reads(
    mut net: RandomNet,
    size: u64,
    src: (usize, u64),
    other: (usize, u64),
    holds: &[u64],
    commits: &[(usize, u64, u64)],
    picks: &[usize],
) -> Result<(), TestCaseError> {
    let linked = net.machines;
    let isolated = MachineId::new(linked as u32);
    net.machines += 1;
    net.caps.push(1_000_000);
    let network = build(&net);
    let mut ledger = NetworkLedger::new(&network);
    if network.link_count() > 0 {
        consume_randomly(&network, &mut ledger, commits);
    }
    // A hold past 300 s stands for none.
    let hold: Vec<SimTime> = holds[..net.machines]
        .iter()
        .map(|&h| if h >= 300 { SimTime::MAX } else { SimTime::from_secs(h) })
        .collect();
    let source = |(machine, at): (usize, u64)| {
        (MachineId::new((machine % linked) as u32), SimTime::from_secs(at))
    };
    let sources = [source(src), source(other)];
    let reads: Vec<MachineId> = picks
        .iter()
        .map(|&p| match p.checked_sub(linked) {
            Some(0) => sources[0].0,
            Some(1) => isolated,
            _ => MachineId::new((p % net.machines) as u32),
        })
        .collect();
    let query = query_of(&network, &ledger, size, &sources, &hold);
    let full = earliest_arrival_tree(&query);
    let bounded = earliest_arrival_paths(&query, &Landmarks::new(&network), &reads);
    for &d in &reads {
        prop_assert_eq!(bounded.arrival(d), full.arrival(d), "arrival at {}", d);
        prop_assert_eq!(bounded.path_to(d), full.path_to(d), "path to {}", d);
    }
    if reads.is_empty() {
        for i in 0..net.machines {
            let machine = MachineId::new(i as u32);
            let seeded = sources.iter().filter(|s| s.0 == machine).map(|s| s.1).min();
            prop_assert_eq!(bounded.arrival(machine), seeded.unwrap_or(SimTime::MAX));
            prop_assert_eq!(bounded.hop_into(machine), None);
        }
    }
    Ok(())
}

/// Every hop a tree hands out is rebuilt from the machine it is stored at
/// and that machine's label: `hop_into(v)` enters `v` at `v`'s arrival. A
/// source keeps no hop unless another copy reached it earlier than its
/// own (its label is then below its availability), and an unreachable
/// machine keeps none. Checked on the full tree and on the search steered
/// to `picks`, whose unsettled labels are provisional but keep the same
/// shape.
fn check_hop_reconstruction(
    net: &RandomNet,
    size: u64,
    sources: &[(usize, u64)],
    commits: &[(usize, u64, u64)],
    picks: &[usize],
) -> Result<(), TestCaseError> {
    let network = build(net);
    let mut ledger = NetworkLedger::new(&network);
    if network.link_count() > 0 {
        consume_randomly(&network, &mut ledger, commits);
    }
    let hold = vec![SimTime::MAX; net.machines];
    let machine = |p: usize| MachineId::new((p % net.machines) as u32);
    let sources: Vec<_> =
        sources.iter().map(|&(m, at)| (machine(m), SimTime::from_secs(at))).collect();
    let reads: Vec<MachineId> = picks.iter().map(|&p| machine(p)).collect();
    let query = query_of(&network, &ledger, size, &sources, &hold);
    let full = earliest_arrival_tree(&query);
    let steered = earliest_arrival_paths(&query, &Landmarks::new(&network), &reads);
    for (name, tree) in [("full", &full), ("steered", &steered)] {
        for i in 0..net.machines {
            let v = MachineId::new(i as u32);
            let label = tree.arrival(v);
            let seeded = sources.iter().filter(|s| s.0 == v).map(|s| s.1).min();
            match tree.hop_into(v) {
                Some(hop) => {
                    prop_assert_eq!(hop.to, v, "{} tree: receiver of the hop into {}", name, v);
                    prop_assert_eq!(hop.arrival, label, "{} tree: arrival at {}", name, v);
                    prop_assert!(seeded.is_none_or(|at| label < at), "{} tree: source {}", name, v);
                }
                None => prop_assert!(
                    label == SimTime::MAX || seeded == Some(label),
                    "{} tree: {} labelled {} without a hop",
                    name,
                    v,
                    label
                ),
            }
            if label == SimTime::MAX {
                prop_assert_eq!(tree.hop_into(v), None, "{} tree: unreachable {}", name, v);
            }
        }
    }
    Ok(())
}

/// A network of one bandwidth, `speed` bytes per ms, on every link, and
/// one window: a `k`×`k` grid linked both ways between neighbours, or (with
/// `line`) `k`² machines in a line, linked both ways — and one machine
/// linked to nothing, the last. Many routes arrive at once.
fn uniform_net(line: bool, k: usize, speed: u64) -> RandomNet {
    let machines = k * k;
    let mut links = Vec::new();
    let mut both_ways = |a: usize, b: usize| {
        links.push((a, b, 0, 100_000, speed));
        links.push((b, a, 0, 100_000, speed));
    };
    for cell in 0..machines {
        if line {
            if cell + 1 < machines {
                both_ways(cell, cell + 1);
            }
        } else {
            if cell % k + 1 < k {
                both_ways(cell, cell + 1);
            }
            if cell + k < machines {
                both_ways(cell, cell + k);
            }
        }
    }
    RandomNet { machines: machines + 1, links, caps: vec![u64::MAX / 2; machines + 1] }
}

/// A draw of `0..40_000` with a zero one time in four: an empty item
/// crosses every link in 0 ms.
fn tie_size(pick: u8, size: u64) -> u64 {
    if pick == 0 {
        0
    } else {
        size
    }
}

/// On a uniform grid or line of `speed` bytes per ms, with one or two
/// sources and some bookings, the search steered to `picks` gives each
/// picked machine the arrival and path of the full search. A source's copy
/// is available after a whole number of hops, so routes from different
/// sources arrive at once too. A pick past the linked machines names the
/// isolated one; duplicates are drawn as they fall.
fn check_ties(
    net: &RandomNet,
    speed: u64,
    size: u64,
    sources: &[(usize, u64)],
    commits: &[(usize, u64, u64)],
    picks: &[usize],
) -> Result<(), TestCaseError> {
    let network = build(net);
    let linked = net.machines - 1;
    let mut ledger = NetworkLedger::new(&network);
    consume_randomly(&network, &mut ledger, commits);
    let hold = vec![SimTime::MAX; net.machines];
    let hop = size.div_ceil(speed);
    let sources: Vec<_> = sources
        .iter()
        .map(|&(m, hops)| (MachineId::new((m % linked) as u32), SimTime::from_millis(hops * hop)))
        .collect();
    let reads: Vec<MachineId> =
        picks.iter().map(|&p| MachineId::new(p.min(linked) as u32)).collect();
    let query = query_of(&network, &ledger, size, &sources, &hold);
    let full = earliest_arrival_tree(&query);
    let steered = earliest_arrival_paths(&query, &Landmarks::new(&network), &reads);
    for &d in &reads {
        prop_assert_eq!(steered.arrival(d), full.arrival(d), "arrival at {}", d);
        prop_assert_eq!(steered.path_to(d), full.path_to(d), "path to {}", d);
    }
    Ok(())
}

/// The fixed-point static distance of every machine to the nearest of
/// `destinations` (`None`: none reachable), by relaxing every link to a
/// fixpoint over the cost `floor(8000·2³²/bps)`.
fn static_distances(network: &Network, destinations: &[MachineId]) -> Vec<Option<u128>> {
    let mut dist = vec![None; network.machine_count()];
    for d in destinations {
        dist[d.index()] = Some(0);
    }
    loop {
        let mut changed = false;
        for (_, link) in network.links() {
            let cost = (8_000u128 << 32) / u128::from(link.bandwidth().as_u64());
            let Some(onward) = dist[link.destination().index()] else { continue };
            let slot = &mut dist[link.source().index()];
            if slot.is_none_or(|d| onward + cost < d) {
                *slot = Some(onward + cost);
                changed = true;
            }
        }
        if !changed {
            return dist;
        }
    }
}

/// The goal of a read of `picks` is consistent across every link, zero at
/// each destination, and at most the size-scaled static distance to the
/// nearest destination, rounded down.
fn check_bound(net: &RandomNet, size: u64, picks: &[usize]) -> Result<(), TestCaseError> {
    let network = build(net);
    let reads: Vec<MachineId> =
        picks.iter().map(|&p| MachineId::new((p % net.machines) as u32)).collect();
    let landmarks = Landmarks::new(&network);
    let goal = landmarks.goal(Bytes::new(size), &reads);
    for (id, link) in network.links() {
        let (u, v) = (link.source(), link.destination());
        let onward = goal.bound(v).saturating_add(link.transfer_time(Bytes::new(size)));
        prop_assert!(goal.bound(u) <= onward, "{} from {} to {}", id, u, v);
    }
    for &d in &reads {
        prop_assert_eq!(goal.bound(d).as_millis(), 0, "at destination {}", d);
    }
    for (i, distance) in static_distances(&network, &reads).into_iter().enumerate() {
        if let Some(distance) = distance {
            let ceiling = (u128::from(size) * distance) >> 32;
            let bound = goal.bound(MachineId::new(i as u32)).as_millis();
            prop_assert!(u128::from(bound) <= ceiling, "machine {}: {} > {}", i, bound, ceiling);
        }
    }
    Ok(())
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
        check_paths_that_hold(net, size, src, src_avail, &commits, &picks)?;
    }

    #[test]
    fn dijkstra_matches_fixpoint_reference_under_finite_holds(
        net in random_net_strategy(),
        size in 1u64..40_000,
        src in 0usize..7,
        src_avail in 0u64..60,
        holds in prop::collection::vec(60u64..170, 7),
        commits in prop::collection::vec((0usize..32, 0u64..200, 1u64..30_000), 0..8),
    ) {
        check_fixpoint_under_finite_holds(net, size, src, src_avail, &holds, &commits)?;
    }

    #[test]
    fn bounded_reads_equal_the_full_search(
        net in random_net_strategy(),
        size in 1u64..40_000,
        src in (0usize..7, 0u64..60),
        other in (0usize..7, 0u64..60),
        holds in prop::collection::vec(60u64..400, 8),
        commits in prop::collection::vec((0usize..32, 0u64..200, 1u64..30_000), 0..8),
        picks in prop::collection::vec(0usize..9, 0..5),
    ) {
        check_bounded_reads(net, size, src, other, &holds, &commits, &picks)?;
    }

    #[test]
    fn hop_into_rebuilds_each_hop_from_its_receiver_and_label(
        net in random_net_strategy(),
        size in 1u64..40_000,
        sources in prop::collection::vec((0usize..7, 0u64..60), 1..3),
        commits in prop::collection::vec((0usize..32, 0u64..200, 1u64..30_000), 0..8),
        picks in prop::collection::vec(0usize..7, 0..4),
    ) {
        check_hop_reconstruction(&net, size, &sources, &commits, &picks)?;
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

proptest! {
    // Cheap cases; the run scan's exits need many trains to meet.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn paths_that_hold_on_window_trains_equal_a_scratch_search(
        net in train_net_strategy(),
        size in 1u64..20_000,
        src in 0usize..7,
        src_avail in 0u64..50,
        commits in prop::collection::vec((0usize..32, 0u64..300, 1u64..30_000), 0..12),
        picks in prop::collection::vec(0usize..7, 1..4),
    ) {
        check_paths_that_hold(net, size, src, src_avail, &commits, &picks)?;
    }

    #[test]
    fn window_trains_match_fixpoint_reference_under_finite_holds(
        net in train_net_strategy(),
        size in 1u64..40_000,
        src in 0usize..7,
        src_avail in 0u64..60,
        holds in prop::collection::vec(60u64..170, 7),
        commits in prop::collection::vec((0usize..32, 0u64..200, 1u64..30_000), 0..8),
    ) {
        check_fixpoint_under_finite_holds(net, size, src, src_avail, &holds, &commits)?;
    }

    #[test]
    fn hop_into_on_window_trains_and_uniform_grids_rebuilds_each_hop(
        net in train_net_strategy(),
        shape in (0u8..4, 2usize..6, 1u64..20),
        size in (0u8..4, 1u64..40_000),
        sources in prop::collection::vec((0usize..36, 0u64..60), 1..3),
        commits in prop::collection::vec((0usize..120, 0u64..200, 1u64..30_000), 0..8),
        picks in prop::collection::vec(0usize..40, 0..4),
    ) {
        let size = tie_size(size.0, size.1);
        check_hop_reconstruction(&net, size, &sources, &commits, &picks)?;
        let (line, k, speed) = shape;
        let grid = uniform_net(line == 0, k, speed);
        check_hop_reconstruction(&grid, size, &sources, &commits, &picks)?;
    }

    #[test]
    fn bounded_reads_on_window_trains_equal_the_full_search(
        net in train_net_strategy(),
        size in 1u64..40_000,
        src in (0usize..7, 0u64..60),
        other in (0usize..7, 0u64..60),
        holds in prop::collection::vec(60u64..400, 8),
        commits in prop::collection::vec((0usize..32, 0u64..200, 1u64..30_000), 0..8),
        picks in prop::collection::vec(0usize..9, 0..5),
    ) {
        check_bounded_reads(net, size, src, other, &holds, &commits, &picks)?;
    }
}

proptest! {
    // Cheap cases; a tie the goal could settle out of order needs a
    // destination whose last hop the bound sees from one side only.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn steered_reads_on_uniform_grids_and_lines_keep_the_full_search_tie_breaks(
        shape in (0u8..4, 2usize..6, 1u64..20),
        size in (0u8..4, 1u64..40_000),
        sources in prop::collection::vec((0usize..36, 0u64..4), 1..3),
        commits in prop::collection::vec((0usize..120, 0u64..200, 1u64..30_000), 0..4),
        picks in prop::collection::vec(0usize..40, 0..5),
    ) {
        let (line, k, speed) = shape;
        let net = uniform_net(line == 0, k, speed);
        check_ties(&net, speed, tie_size(size.0, size.1), &sources, &commits, &picks)?;
    }

    #[test]
    fn the_landmark_bound_is_consistent_zero_at_destinations_and_below_the_static_distance(
        net in random_net_strategy(),
        grid in (0u8..3, 2usize..6, 1u64..20),
        size in (0u8..4, 1u64..40_000),
        picks in prop::collection::vec(0usize..40, 0..4),
    ) {
        let size = tie_size(size.0, size.1);
        check_bound(&net, size, &picks)?;
        let (line, k, speed) = grid;
        check_bound(&uniform_net(line == 0, k, speed), size, &picks)?;
    }
}
