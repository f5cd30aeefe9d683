//! The search's probe tally against the per-probe counting of
//! `earliest_transfer`, on a loaded grid.
//!
//! A search counts its ledger probes locally (`earliest_crossing` adds to
//! a [`ProbeTally`]) and publishes once per tree, while the one-call
//! `earliest_transfer` publishes per probe. Both must count the same
//! work. The obs counters are process-global, so this file is its own
//! test binary with a single `#[test]`.

use dstage_model::ids::{MachineId, VirtualLinkId};
use dstage_model::link::VirtualLink;
use dstage_model::machine::Machine;
use dstage_model::network::{Network, NetworkBuilder};
use dstage_model::time::{SimDuration, SimTime};
use dstage_model::units::{BitsPerSec, Bytes};
use dstage_obs::metrics as m;
use dstage_path::{earliest_arrival_tree, paths_hold, ItemQuery};
use dstage_resources::ledger::{Crossing, NetworkLedger, ProbeTally};

const SIDE: u32 = 6;

/// A splitmix64 stream: seeded, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// A `SIDE`×`SIDE` grid; each neighbour pair is joined both ways by a
/// train of three windows of one link.
fn grid() -> Network {
    let mut b = NetworkBuilder::new();
    for i in 0..SIDE * SIDE {
        b.add_machine(Machine::new(format!("g{i}"), Bytes::new(60_000)));
    }
    let id = |r: u32, c: u32| MachineId::new(r * SIDE + c);
    for r in 0..SIDE {
        for c in 0..SIDE {
            let mut neighbours = Vec::new();
            if c + 1 < SIDE {
                neighbours.push(id(r, c + 1));
            }
            if r + 1 < SIDE {
                neighbours.push(id(r + 1, c));
            }
            for n in neighbours {
                for (from, to) in [(id(r, c), n), (n, id(r, c))] {
                    for w in 0..3 {
                        let start = secs(w * 400);
                        b.add_link(VirtualLink::new(
                            from,
                            to,
                            start,
                            start + SimDuration::from_secs(300),
                            BitsPerSec::new(8_000 * (1 + u64::from(r + c) % 3)),
                        ));
                    }
                }
            }
        }
    }
    b.build()
}

/// Seeded bookings: link transfers (busy spans for the gap search to
/// step over) and storage blocks (restarts for the probe loop).
fn load(network: &Network, rng: &mut Rng) -> NetworkLedger {
    let mut ledger = NetworkLedger::new(network);
    let links = network.link_count() as u64;
    for _ in 0..600 {
        let link = VirtualLinkId::new(rng.below(links) as u32);
        let size = Bytes::new(1_000 + rng.below(40_000));
        let ready = secs(rng.below(1_000));
        if let Some(slot) = ledger.earliest_transfer(network, link, ready, size, SimTime::MAX) {
            ledger.commit_transfer(network, link, slot.start, size, SimTime::MAX).unwrap();
        }
    }
    for _ in 0..40 {
        let machine = MachineId::new(rng.below(u64::from(SIDE * SIDE)) as u32);
        let from = secs(rng.below(1_000));
        let until = from + SimDuration::from_secs(20 + rng.below(200));
        ledger.force_storage(machine, Bytes::new(50_000), from, until);
    }
    ledger
}

/// The resources layer's three probe counters, as a tally.
fn published() -> ProbeTally {
    ProbeTally {
        probes: m::RESOURCES_PROBES.get(),
        gap_iterations: m::RESOURCES_GAP_ITERATIONS.get(),
        restarts: m::RESOURCES_PROBE_RESTARTS.get(),
    }
}

fn delta(after: ProbeTally, before: ProbeTally) -> ProbeTally {
    ProbeTally {
        probes: after.probes - before.probes,
        gap_iterations: after.gap_iterations - before.gap_iterations,
        restarts: after.restarts - before.restarts,
    }
}

#[test]
fn a_tally_counts_what_per_probe_publishing_counts() {
    dstage_obs::set_enabled(true);
    let network = grid();
    let mut rng = Rng(0x5EED_0040);
    let ledger = load(&network, &mut rng);
    let (links, machines) = (network.link_count() as u64, u64::from(SIDE * SIDE));

    // Probe by probe: the same slot, and a tally equal to the deltas the
    // one-call form published.
    let (mut stepped, mut restarted) = (0, 0);
    for _ in 0..2_000 {
        let link = VirtualLinkId::new(rng.below(links) as u32);
        let size = Bytes::new(1_000 + rng.below(30_000));
        let ready = secs(rng.below(1_100));
        let hold = if rng.below(2) == 0 { SimTime::MAX } else { secs(200 + rng.below(1_000)) };
        let before = published();
        let reference = ledger.earliest_transfer(&network, link, ready, size, hold);
        let counted = delta(published(), before);
        let mut tally = ProbeTally::default();
        let slot =
            ledger.earliest_crossing(Crossing::new(&network, link, size), ready, hold, &mut tally);
        assert_eq!(slot, reference, "{link} ready {ready} size {size}");
        assert_eq!(tally, counted, "{link} ready {ready} size {size}");
        assert_eq!(delta(published(), before), counted, "earliest_crossing publishes nothing");
        stepped += u32::from(tally.gap_iterations > 1);
        restarted += u32::from(tally.restarts > 0);
    }
    assert!(stepped > 100, "{stepped} probes stepped over busy spans");
    assert!(restarted > 10, "{restarted} probes restarted for storage");

    // Whole trees and their validation: one probe per relaxation and per
    // reprobed hop.
    for _ in 0..40 {
        let sources: Vec<_> = (0..1 + rng.below(3))
            .map(|_| (MachineId::new(rng.below(machines) as u32), secs(rng.below(500))))
            .collect();
        let hold_until: Vec<_> = (0..machines).map(|_| secs(900 + rng.below(600))).collect();
        let query = ItemQuery {
            network: &network,
            ledger: &ledger,
            size: Bytes::new(1_000 + rng.below(20_000)),
            sources: &sources,
            hold_until: &hold_until,
            horizon: SimTime::MAX,
        };
        let (probes, relaxations) = (m::RESOURCES_PROBES.get(), m::PATH_RELAXATIONS.get());
        let tree = earliest_arrival_tree(&query);
        assert_eq!(
            m::RESOURCES_PROBES.get() - probes,
            m::PATH_RELAXATIONS.get() - relaxations,
            "one probe per relaxation"
        );
        assert!(m::PATH_RELAXATIONS.get() > relaxations, "the search probed");

        let destinations: Vec<_> = (0..machines).map(|i| MachineId::new(i as u32)).collect();
        let (probes, reprobed) = (m::RESOURCES_PROBES.get(), m::PATH_HOPS_REPROBED.get());
        assert!(paths_hold(&query, &tree, &destinations, |_| true), "nothing changed");
        assert_eq!(
            m::RESOURCES_PROBES.get() - probes,
            m::PATH_HOPS_REPROBED.get() - reprobed,
            "one probe per reprobed hop"
        );
    }
}
