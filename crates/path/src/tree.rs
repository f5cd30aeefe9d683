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

/// The result of one multiple-source earliest-arrival search for one data
/// item: per machine, the earliest time the item could be there, and the
/// hop that achieves it.
///
/// Machines that already hold a copy (the search's sources) have an
/// arrival equal to their copy's availability and no inbound hop.
/// Unreachable machines report [`SimTime::MAX`]. The tree keeps only these
/// two arrays, as the search leaves them: everything else (paths, first
/// hops) is walked along `hops` when read, since a reader asks about a
/// request's few destinations, not about every machine.
///
/// A tree from [`earliest_arrival_paths`](crate::earliest_arrival_paths)
/// stopped once its destinations were settled: their arrivals and paths
/// are the full tree's, and any other machine's entry may be provisional
/// (no earlier than the full tree's, possibly unreachable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalTree {
    arrivals: Vec<SimTime>,
    hops: Vec<Option<Hop>>,
}

impl ArrivalTree {
    pub(crate) fn new(arrivals: Vec<SimTime>, hops: Vec<Option<Hop>>) -> Self {
        debug_assert_eq!(arrivals.len(), hops.len());
        ArrivalTree { arrivals, hops }
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
    pub fn hop_into(&self, machine: MachineId) -> Option<Hop> {
        self.hops[machine.index()]
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
        while let Some(hop) = self.hops[cursor.index()] {
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
        let mut first = self.hops[machine.index()]?;
        while let Some(hop) = self.hops[first.from.index()] {
            first = hop;
        }
        Some(first)
    }

    /// Iterates over every hop in the tree (each machine's inbound hop).
    pub fn hops(&self) -> impl Iterator<Item = Hop> + '_ {
        self.hops.iter().filter_map(|h| *h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(i: u32) -> MachineId {
        MachineId::new(i)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Source 0 -> 1 -> 2, machine 3 unreachable.
    fn sample() -> ArrivalTree {
        let h1 =
            Hop { from: m(0), to: m(1), link: VirtualLinkId::new(0), start: t(0), arrival: t(5) };
        let h2 =
            Hop { from: m(1), to: m(2), link: VirtualLinkId::new(1), start: t(5), arrival: t(9) };
        ArrivalTree::new(vec![t(0), t(5), t(9), SimTime::MAX], vec![None, Some(h1), Some(h2), None])
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
    fn hops_iterator_yields_each_edge_once() {
        let tr = sample();
        assert_eq!(tr.hops().count(), 2);
    }

    #[test]
    fn first_hop_of_a_long_line_is_the_source_out_hop() {
        // Source 0 -> 1 -> ... -> 39, machine 40 unreachable.
        let n = 40;
        let hops = (0..n)
            .map(|i| {
                (i > 0).then(|| Hop {
                    from: m(i - 1),
                    to: m(i),
                    link: VirtualLinkId::new(i - 1),
                    start: t(u64::from(i - 1)),
                    arrival: t(u64::from(i)),
                })
            })
            .chain([None])
            .collect();
        let arrivals = (0..n).map(|i| t(u64::from(i))).chain([SimTime::MAX]).collect();
        let tr = ArrivalTree::new(arrivals, hops);
        let out = tr.hop_into(m(1)).unwrap();
        assert_eq!(tr.first_hop_toward(m(n - 1)), Some(out));
        assert_eq!(tr.first_hop_toward(m(0)), None, "a source");
        assert_eq!(tr.first_hop_toward(m(n)), None, "unreachable");
    }
}
