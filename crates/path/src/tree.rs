//! Shortest-path trees produced by the earliest-arrival search.

use dstage_model::ids::{MachineId, VirtualLinkId};
use dstage_model::time::SimTime;

/// One scheduled-to-be hop: how the item would reach a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Hop {
    /// The machine the item is sent from (already holds or will hold a copy).
    pub from: MachineId,
    /// The machine the item arrives at.
    pub to: MachineId,
    /// The virtual link carrying the transfer.
    pub link: VirtualLinkId,
    /// When the transfer starts occupying the link.
    pub start: SimTime,
    /// When the item is available at `to`.
    pub arrival: SimTime,
}

/// A machine's inbound hop as a tree stores it: the parts of a [`Hop`]
/// that the machine's index and label do not already give (`to` is the
/// machine, `arrival` its label). 16 bytes; a `from` of `u32::MAX` means
/// no inbound hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Inbound {
    from: MachineId,
    link: VirtualLinkId,
    start: SimTime,
}

impl Inbound {
    /// No inbound hop: a source, or a machine the search has not reached.
    pub(crate) const NONE: Inbound = Inbound {
        from: MachineId::new(u32::MAX),
        link: VirtualLinkId::new(0),
        start: SimTime::ZERO,
    };

    pub(crate) fn new(from: MachineId, link: VirtualLinkId, start: SimTime) -> Self {
        debug_assert_ne!(from, Self::NONE.from);
        Inbound { from, link, start }
    }

    /// The sending machine, if there is a hop.
    #[inline]
    pub(crate) fn sender(self) -> Option<MachineId> {
        (self.from != Self::NONE.from).then_some(self.from)
    }
}

/// The result of one multiple-source earliest-arrival search for one data
/// item: per machine, the earliest time the item could be there, and the
/// hop that achieves it.
///
/// Machines that already hold a copy (the search's sources) have an
/// arrival equal to their copy's availability and no inbound hop, unless
/// another copy reaches them earlier. Unreachable machines report
/// [`SimTime::MAX`] and no hop. The tree keeps only two n-length arrays,
/// as the search leaves them: the labels (8 bytes a machine) and the
/// inbound hops packed to sender, link and start (16 bytes a machine) —
/// a hop's receiver is the machine it is stored at and its arrival that
/// machine's label, so [`hop_into`](Self::hop_into) rebuilds the [`Hop`].
/// Everything else (paths, first hops) is walked along the hops when read,
/// since a reader asks about a request's few destinations, not about every
/// machine.
///
/// A tree from [`earliest_arrival_paths`](crate::earliest_arrival_paths)
/// stopped once its destinations were settled: their arrivals and paths
/// are the full tree's, and any other machine's entry may be provisional
/// (no earlier than the full tree's, possibly unreachable).
///
/// Booking the item over some of the tree's own hops leaves the tree the
/// search from the grown copy set would return on those paths, once
/// [`stage`](Self::stage) has made each receiver a source: a scheduler
/// keeps it across such a commit instead of searching again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalTree {
    arrivals: Vec<SimTime>,
    inbound: Vec<Inbound>,
}

impl ArrivalTree {
    pub(crate) fn new(arrivals: Vec<SimTime>, inbound: Vec<Inbound>) -> Self {
        debug_assert_eq!(arrivals.len(), inbound.len());
        ArrivalTree { arrivals, inbound }
    }

    /// Number of machines covered by the tree.
    #[must_use]
    pub fn machine_count(&self) -> usize {
        self.arrivals.len()
    }

    /// Earliest arrival of the item at `machine` (`A_T` in the paper when
    /// `machine` is a requesting destination); [`SimTime::MAX`] when the
    /// item cannot reach it at all.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn arrival(&self, machine: MachineId) -> SimTime {
        self.arrivals[machine.index()]
    }

    /// Whether the item can reach `machine`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn is_reachable(&self, machine: MachineId) -> bool {
        self.arrivals[machine.index()] != SimTime::MAX
    }

    /// The hop that brings the item to `machine`, or `None` when the
    /// machine is a source (already holds a copy) or unreachable.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    #[inline]
    pub fn hop_into(&self, machine: MachineId) -> Option<Hop> {
        let Inbound { from, link, start } = self.inbound[machine.index()];
        let arrival = self.arrivals[machine.index()];
        (from != Inbound::NONE.from).then_some(Hop { from, to: machine, link, start, arrival })
    }

    /// The full chain of hops from a current copy holder to `machine`,
    /// in travel order. Empty when `machine` is itself a source.
    ///
    /// Returns `None` when `machine` is unreachable.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn path_to(&self, machine: MachineId) -> Option<Vec<Hop>> {
        if !self.is_reachable(machine) {
            return None;
        }
        let mut chain = Vec::new();
        let mut cursor = machine;
        while let Some(hop) = self.hop_into(cursor) {
            chain.push(hop);
            cursor = hop.from;
        }
        chain.reverse();
        Some(chain)
    }

    /// The *first* hop on the path to `machine`: the transfer out of a
    /// machine that already holds a copy. `None` when the machine is a
    /// source itself or unreachable.
    ///
    /// This is the paper's "next machine in the shortest path" (§4.8): the
    /// receiving end of this hop is the `M[r]` that defines `Drq[i, r]`.
    /// Walks the chain back to the source, O(path length).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn first_hop_toward(&self, machine: MachineId) -> Option<Hop> {
        let mut first = self.hop_into(machine)?;
        while let Some(hop) = self.hop_into(first.from) {
            first = hop;
        }
        Some(first)
    }

    /// Iterates over every hop in the tree (each machine's inbound hop).
    pub fn hops(&self) -> impl Iterator<Item = Hop> + '_ {
        (0..self.machine_count() as u32).filter_map(|v| self.hop_into(MachineId::new(v)))
    }

    /// Makes the receiver of `hop`, the tree's own hop into it, a source:
    /// the item was booked over `hop`, so the receiver now holds a copy
    /// available at its label, and a search from the item's copies gives
    /// it that label and no inbound hop. Its label and every other entry
    /// stay; paths through it now start there (DESIGN.md §3).
    pub fn stage(&mut self, hop: Hop) {
        debug_assert_eq!(self.hop_into(hop.to), Some(hop), "not the tree's hop into {}", hop.to);
        self.inbound[hop.to.index()] = Inbound::NONE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstage_model::link::VirtualLink;
    use dstage_model::machine::Machine;
    use dstage_model::network::NetworkBuilder;
    use dstage_model::units::{BitsPerSec, Bytes};
    use dstage_resources::ledger::NetworkLedger;

    use crate::{earliest_arrival_paths, earliest_arrival_tree, ItemQuery, Landmarks};

    fn m(i: u32) -> MachineId {
        MachineId::new(i)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Source 0 -> 1 -> 2, machine 3 unreachable.
    fn sample() -> ArrivalTree {
        let h1 = Inbound::new(m(0), VirtualLinkId::new(0), t(0));
        let h2 = Inbound::new(m(1), VirtualLinkId::new(1), t(5));
        ArrivalTree::new(
            vec![t(0), t(5), t(9), SimTime::MAX],
            vec![Inbound::NONE, h1, h2, Inbound::NONE],
        )
    }

    #[test]
    fn arrivals_and_reachability() {
        let tr = sample();
        assert_eq!(tr.machine_count(), 4);
        assert_eq!(tr.arrival(m(0)), t(0));
        assert_eq!(tr.arrival(m(2)), t(9));
        assert!(tr.is_reachable(m(2)));
        assert!(!tr.is_reachable(m(3)));
    }

    #[test]
    fn path_to_walks_the_chain() {
        let tr = sample();
        let path = tr.path_to(m(2)).unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].from, m(0));
        assert_eq!(path[0].to, m(1));
        assert_eq!(path[1].from, m(1));
        assert_eq!(path[1].to, m(2));
        assert_eq!(tr.path_to(m(0)).unwrap(), vec![]);
        assert_eq!(tr.path_to(m(3)), None);
    }

    #[test]
    fn first_hop_is_out_of_a_source() {
        let tr = sample();
        let hop = tr.first_hop_toward(m(2)).unwrap();
        assert_eq!(hop.from, m(0));
        assert_eq!(hop.to, m(1));
        assert_eq!(tr.first_hop_toward(m(1)).unwrap().to, m(1));
        assert_eq!(tr.first_hop_toward(m(0)), None);
        assert_eq!(tr.first_hop_toward(m(3)), None);
    }

    #[test]
    fn a_staged_receiver_is_a_source_with_its_label() {
        let mut tr = sample();
        let into_1 = tr.hop_into(m(1)).unwrap();
        tr.stage(into_1);
        assert_eq!((tr.arrival(m(1)), tr.hop_into(m(1))), (t(5), None));
        assert_eq!(tr.path_to(m(2)).unwrap(), vec![tr.hop_into(m(2)).unwrap()]);
        assert_eq!(tr.first_hop_toward(m(2)).unwrap().from, m(1));
        assert_eq!(tr.arrival(m(2)), t(9));
    }

    #[test]
    fn hops_iterator_yields_each_edge_once() {
        let tr = sample();
        assert_eq!(tr.hops().count(), 2);
    }

    #[test]
    fn first_hop_of_a_long_line_is_the_source_out_hop() {
        // Source 0 -> 1 -> ... -> 39, machine 40 unreachable.
        let n = 40;
        let inbound = (0..n)
            .map(|i| {
                if i > 0 {
                    Inbound::new(m(i - 1), VirtualLinkId::new(i - 1), t(u64::from(i - 1)))
                } else {
                    Inbound::NONE
                }
            })
            .chain([Inbound::NONE])
            .collect();
        let arrivals = (0..n).map(|i| t(u64::from(i))).chain([SimTime::MAX]).collect();
        let tr = ArrivalTree::new(arrivals, inbound);
        let out = tr.hop_into(m(1)).unwrap();
        assert_eq!(tr.first_hop_toward(m(n - 1)), Some(out));
        assert_eq!(tr.first_hop_toward(m(0)), None, "a source");
        assert_eq!(tr.first_hop_toward(m(n)), None, "unreachable");
    }

    /// The layout guard: a packed inbound hop is 16 bytes, and a tree over
    /// `n` machines — full or stopped at its destinations — holds exactly
    /// `n` labels and `n` packed hops, 24 bytes a machine.
    #[test]
    fn a_tree_holds_one_label_and_one_packed_hop_a_machine() {
        assert_eq!(std::mem::size_of::<Inbound>(), 16);
        assert_eq!(std::mem::size_of::<SimTime>(), 8);
        let n = 7;
        let mut b = NetworkBuilder::new();
        for i in 0..n {
            b.add_machine(Machine::new(format!("m{i}"), Bytes::from_mib(1)));
        }
        for i in 1..n {
            b.add_link(VirtualLink::new(m(i - 1), m(i), t(0), t(3_600), BitsPerSec::new(8_000)));
        }
        let net = b.build();
        let ledger = NetworkLedger::new(&net);
        let hold = vec![SimTime::MAX; n as usize];
        let query = ItemQuery {
            network: &net,
            ledger: &ledger,
            size: Bytes::new(1_000),
            sources: &[(m(0), t(0))],
            hold_until: &hold,
            horizon: SimTime::MAX,
        };
        let full = earliest_arrival_tree(&query);
        let bounded = earliest_arrival_paths(&query, &Landmarks::new(&net), &[m(2)]);
        for tree in [&full, &bounded] {
            assert_eq!((tree.arrivals.len(), tree.arrivals.capacity()), (n as usize, n as usize));
            assert_eq!((tree.inbound.len(), tree.inbound.capacity()), (n as usize, n as usize));
        }
        assert_eq!(full.hops().count(), n as usize - 1);
    }
}
