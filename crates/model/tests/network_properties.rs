//! Property-based tests for the network graph utilities.
//!
//! The strong-connectivity check is held to a brute-force reachability
//! (Floyd–Warshall) oracle on random digraphs.

use dstage_model::ids::MachineId;
use dstage_model::link::VirtualLink;
use dstage_model::machine::Machine;
use dstage_model::network::{Network, NetworkBuilder};
use dstage_model::time::SimTime;
use dstage_model::units::{BitsPerSec, Bytes};
use proptest::prelude::*;

fn build_network(machines: usize, edges: &[(usize, usize)]) -> Network {
    let mut b = NetworkBuilder::new();
    for i in 0..machines {
        b.add_machine(Machine::new(format!("m{i}"), Bytes::from_mib(1)));
    }
    for &(s, d) in edges {
        if s != d {
            b.add_link(VirtualLink::new(
                MachineId::new(s as u32),
                MachineId::new(d as u32),
                SimTime::ZERO,
                SimTime::from_hours(1),
                BitsPerSec::from_kbps(10),
            ));
        }
    }
    b.build()
}

/// Floyd–Warshall transitive closure.
fn reachability(machines: usize, edges: &[(usize, usize)]) -> Vec<Vec<bool>> {
    let mut reach = vec![vec![false; machines]; machines];
    for (i, row) in reach.iter_mut().enumerate() {
        row[i] = true;
    }
    for &(s, d) in edges {
        if s != d {
            reach[s][d] = true;
        }
    }
    for k in 0..machines {
        for i in 0..machines {
            for j in 0..machines {
                if reach[i][k] && reach[k][j] {
                    reach[i][j] = true;
                }
            }
        }
    }
    reach
}

proptest! {
    #[test]
    fn strong_connectivity_matches_reachability_oracle(
        machines in 1usize..9,
        edges in prop::collection::vec((0usize..9, 0usize..9), 0..40),
    ) {
        let edges: Vec<(usize, usize)> =
            edges.into_iter().map(|(s, d)| (s % machines, d % machines)).collect();
        let net = build_network(machines, &edges);
        let reach = reachability(machines, &edges);
        let expected = (0..machines).all(|i| (0..machines).all(|j| reach[i][j]));
        prop_assert_eq!(net.is_strongly_connected(), expected);
    }

    #[test]
    fn adjacency_is_complete_and_consistent(
        machines in 2usize..8,
        edges in prop::collection::vec((0usize..8, 0usize..8), 0..30),
    ) {
        let edges: Vec<(usize, usize)> =
            edges.into_iter().map(|(s, d)| (s % machines, d % machines)).collect();
        let net = build_network(machines, &edges);
        // Every link appears in exactly one outgoing and one incoming list.
        let mut out_total = 0;
        let mut in_total = 0;
        for mid in net.machine_ids() {
            for &l in net.outgoing(mid) {
                prop_assert_eq!(net.link(l).source(), mid);
                out_total += 1;
            }
            for &l in net.incoming(mid) {
                prop_assert_eq!(net.link(l).destination(), mid);
                in_total += 1;
            }
        }
        prop_assert_eq!(out_total, net.link_count());
        prop_assert_eq!(in_total, net.link_count());
        // Neighbors are exactly the distinct outgoing targets.
        for mid in net.machine_ids() {
            let mut targets: Vec<_> =
                net.outgoing(mid).iter().map(|&l| net.link(l).destination()).collect();
            targets.sort();
            targets.dedup();
            prop_assert_eq!(net.neighbors(mid), targets);
        }
    }
}
