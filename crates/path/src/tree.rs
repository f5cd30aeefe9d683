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
/// Unreachable machines report [`SimTime::MAX`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalTree {
    arrivals: Vec<SimTime>,
    hops: Vec<Option<Hop>>,
    /// Per machine, the first hop on its path (the transfer out of a
    /// source) — precomputed once so candidate-step enumeration does not
    /// re-walk the whole hop chain per destination. Derived from `hops`,
    /// so it never disagrees between equal trees.
    first_hops: Vec<Option<Hop>>,
}

impl ArrivalTree {
    pub(crate) fn new(arrivals: Vec<SimTime>, hops: Vec<Option<Hop>>) -> Self {
        debug_assert_eq!(arrivals.len(), hops.len());
        let first_hops = first_hops_of(&hops);
        ArrivalTree { arrivals, hops, first_hops }
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
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn first_hop_toward(&self, machine: MachineId) -> Option<Hop> {
        self.first_hops[machine.index()]
    }

    /// Iterates over every hop in the tree (each machine's inbound hop).
    pub fn hops(&self) -> impl Iterator<Item = Hop> + '_ {
        self.hops.iter().filter_map(|h| *h)
    }
}

/// Resolves each machine's first hop in O(n) total with iterative path
/// compression: walk up until a machine with a known answer (a source,
/// an unreachable machine, or one resolved earlier), then unwind.
fn first_hops_of(hops: &[Option<Hop>]) -> Vec<Option<Hop>> {
    let n = hops.len();
    let mut first_hops: Vec<Option<Hop>> = vec![None; n];
    let mut done: Vec<bool> = hops.iter().map(Option::is_none).collect();
    let mut chain: Vec<usize> = Vec::new();
    for start in 0..n {
        let mut cursor = start;
        while !done[cursor] {
            chain.push(cursor);
            cursor = hops[cursor].expect("undone machines have an inbound hop").from.index();
        }
        // `cursor` is resolved: its first hop (None exactly when it is a
        // source or unreachable, i.e. a chain root).
        let mut inherited = first_hops[cursor];
        while let Some(machine) = chain.pop() {
            let inbound = hops[machine].expect("chained machines have an inbound hop");
            // A root parent means `machine`'s own inbound hop leaves a
            // source: it IS the first hop.
            let first = inherited.unwrap_or(inbound);
            first_hops[machine] = Some(first);
            done[machine] = true;
            inherited = Some(first);
        }
    }
    first_hops
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
    fn precomputed_first_hops_match_a_chain_walk() {
        // A branching tree: 0 -> {1, 2}, 1 -> 3, 3 -> 4, plus source 5
        // -> 6, so compression crosses shared prefixes and distinct roots.
        let hop = |from: u32, to: u32, link: u32, s: u64| Hop {
            from: m(from),
            to: m(to),
            link: VirtualLinkId::new(link),
            start: t(s),
            arrival: t(s + 2),
        };
        let hops = vec![
            None,
            Some(hop(0, 1, 0, 0)),
            Some(hop(0, 2, 1, 1)),
            Some(hop(1, 3, 2, 2)),
            Some(hop(3, 4, 3, 4)),
            None,
            Some(hop(5, 6, 4, 0)),
        ];
        let arrivals = vec![t(0), t(2), t(3), t(4), t(6), t(0), t(2)];
        let tr = ArrivalTree::new(arrivals, hops.clone());
        for i in 0..hops.len() {
            // The original implementation: walk the chain to the root.
            let expected = hops[i].map(|mut current| {
                while let Some(prev) = hops[current.from.index()] {
                    current = prev;
                }
                current
            });
            assert_eq!(tr.first_hop_toward(m(i as u32)), expected, "machine {i}");
        }
    }
}
