//! Landmark (ALT) lower bounds that steer a bounded search to its
//! destinations, after Goldberg & Harrelson, "Computing the shortest path:
//! A* search meets graph theory" (SODA 2005).
//!
//! A [`Landmarks`] table is built once per network. It holds, for every
//! machine, the static distance to and from each of [`LANDMARKS`] machines
//! picked farthest-first from machine 0, over link costs that bound every
//! crossing from below: a link of `bps` bits per second costs
//! `floor(8000·2³²/bps)`, the time per byte in milliseconds as a 32.32
//! fixed-point number. A crossing of `size` bytes takes at least
//! `ceil(size·8000/bps)` ms whatever the windows, the bookings and the
//! latency, so the static distances scaled by `size` bound every arrival.
//!
//! A search for destinations `R` reads the table through a [`Goal`]:
//!
//! ```text
//! h(v) = floor(size · max(0, maxᵢ(toᵥᵢ − max_{d∈R} to_dᵢ,
//!                              min_{d∈R} from_dᵢ − fromᵥᵢ)) / 2³²)
//! ```
//!
//! By the triangle inequality each term is at most the static distance
//! from `v` to the nearest destination, and it changes by at most a link's
//! cost across a link, so `h(u) ≤ transfer + h(v)` on every link `u→v`:
//! the bound is consistent, and `h(d) = 0` for every `d` in `R`.
//! Unreachable distances are stored as the cap `2⁶⁰` — a minimum with a
//! constant keeps the triangle inequality — so the bound is evaluated
//! without a branch: a destination that cannot reach a landmark (or a
//! landmark that reaches no destination) makes that landmark's term vanish
//! for every machine.
//!
//! Every goal reads all [`LANDMARKS`] landmarks. Keeping only the one or
//! two with the largest bound at the search's sources (any subset is
//! consistent too) made each bound cheaper, but choosing them cost more
//! than it saved: on the paper's 10- and 11-machine networks a search takes
//! about a microsecond, and the choice alone took a tenth of it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dstage_model::ids::MachineId;
use dstage_model::network::Network;
use dstage_model::time::SimDuration;
use dstage_model::units::Bytes;

/// Landmarks per table.
pub const LANDMARKS: usize = 4;

/// The distance recorded for "unreachable", and the most any distance is
/// allowed to be: far above any real distance (`8000·2³²` per link at
/// 1 bit/s), far below `i64` overflow when two are subtracted.
const CAP: i64 = 1 << 60;

/// One machine's distances to each landmark, then from each. A goal keeps
/// its destinations' extremes in the same shape.
type Row = [i64; 2 * LANDMARKS];

/// Static landmark distances over a network: the table every goal-directed
/// search of its scheduling state reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Landmarks {
    rows: Vec<Row>,
}

impl Landmarks {
    /// Builds the table for `network`: [`LANDMARKS`] landmarks, the first
    /// the machine farthest from machine 0 and each next one the machine
    /// farthest from those already picked (by round trip, a way that does
    /// not exist counting zero; ties to the lowest id), and every machine's
    /// distance to and from each.
    #[must_use]
    pub fn new(network: &Network) -> Self {
        let n = network.machine_count();
        let (forward, backward) = Graph::both_ways(network);
        let mut rows = vec![[0; 2 * LANDMARKS]; n];
        if n == 0 {
            return Landmarks { rows };
        }
        let mut search = Search::sized(n);
        // Round trip of each machine to the nearest landmark picked so far
        // (from machine 0, one way, before the first).
        let mut spread: Vec<i64> =
            search.from(&forward, 0).iter().map(|&d| round_trip(0, d)).collect();
        for i in 0..LANDMARKS {
            let landmark = (0..n).max_by_key(|&v| (spread[v], Reverse(v))).unwrap_or(0);
            for (v, &to) in search.from(&backward, landmark).iter().enumerate() {
                rows[v][i] = to;
            }
            for (v, &from) in search.from(&forward, landmark).iter().enumerate() {
                rows[v][LANDMARKS + i] = from;
                spread[v] = spread[v].min(round_trip(rows[v][i], from));
            }
        }
        Landmarks { rows }
    }

    /// The bound of a search for `destinations` of an item of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if a machine id is out of range of the table's network.
    #[must_use]
    pub fn goal(&self, size: Bytes, destinations: &[MachineId]) -> Goal<'_> {
        // Per landmark: the largest distance of a destination to it and the
        // smallest from it (with no destination, values that vanish).
        let mut bars = [0; 2 * LANDMARKS];
        let (to_bars, from_bars) = bars.split_at_mut(LANDMARKS);
        let vanish = destinations.is_empty();
        to_bars.fill(if vanish { CAP } else { 0 });
        from_bars.fill(if vanish { 0 } else { CAP });
        for d in destinations {
            let row = &self.rows[d.index()];
            for i in 0..LANDMARKS {
                to_bars[i] = to_bars[i].max(row[i]);
                from_bars[i] = from_bars[i].min(row[LANDMARKS + i]);
            }
        }
        Goal { rows: &self.rows, size: size.as_u64(), bars }
    }
}

/// A search's lower bound on the time from any machine to its nearest
/// destination: [`Landmarks::goal`].
#[derive(Debug, Clone, Copy)]
pub struct Goal<'a> {
    rows: &'a [Row],
    size: u64,
    /// The largest distance of a destination to each landmark, then the
    /// smallest from each.
    bars: Row,
}

impl Goal<'_> {
    /// The bound at `machine`: an item available there at `t` reaches no
    /// destination before `t` plus this duration.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is out of range of the table's network.
    #[inline]
    #[must_use]
    pub fn bound(&self, machine: MachineId) -> SimDuration {
        let (row, bars) = (&self.rows[machine.index()], &self.bars);
        let term = |i: usize| (row[i] - bars[i]).max(bars[LANDMARKS + i] - row[LANDMARKS + i]);
        let best = (0..LANDMARKS).map(term).fold(0, i64::max);
        // `best` is in 0..=2⁶⁰, so the product fits in 124 bits.
        let ms = (u128::from(self.size) * best as u128) >> 32;
        SimDuration::from_millis(u64::try_from(ms).unwrap_or(u64::MAX))
    }
}

/// What farthest-first picking counts of a machine's distances to and from
/// a landmark: their sum, a way that does not exist counting zero — so a
/// machine cut off from the others is picked last, not first.
fn round_trip(to: i64, from: i64) -> i64 {
    let reached = |distance: i64| if distance < CAP { distance } else { 0 };
    reached(to) + reached(from)
}

/// The static graph one way round: per machine, its neighbours with the
/// cheapest per-byte cost of each of its runs, in flat arrays.
struct Graph {
    offsets: Vec<u32>,
    arcs: Vec<(u32, i64)>,
}

impl Graph {
    /// The network's runs as arcs `u → v` (`forward`) and `v → u`
    /// (`backward`), each costing `floor(8000·2³²/bps)`.
    fn both_ways(network: &Network) -> (Graph, Graph) {
        let n = network.machine_count();
        let mut arcs = Vec::new();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut into = vec![0u32; n + 1];
        for u in 0..n {
            offsets.push(arcs.len() as u32);
            for run in network.outgoing_runs(MachineId::new(u as u32)) {
                let head = &run.links[0];
                let bps = u128::from(head.bandwidth().as_u64().max(1));
                let cost = i64::try_from((8_000u128 << 32) / bps).unwrap_or(CAP).min(CAP);
                let v = head.destination().index();
                arcs.push((v as u32, cost));
                into[v + 1] += 1;
            }
        }
        offsets.push(arcs.len() as u32);
        for v in 0..n {
            into[v + 1] += into[v];
        }
        let mut reversed = vec![(0, 0); arcs.len()];
        let mut fill = into.clone();
        for u in 0..n {
            for &(v, cost) in &arcs[offsets[u] as usize..offsets[u + 1] as usize] {
                reversed[fill[v as usize] as usize] = (u as u32, cost);
                fill[v as usize] += 1;
            }
        }
        (Graph { offsets, arcs }, Graph { offsets: into, arcs: reversed })
    }

    fn arcs(&self, u: usize) -> &[(u32, i64)] {
        &self.arcs[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }
}

/// A reusable static shortest-path search.
struct Search {
    dist: Vec<i64>,
    queue: BinaryHeap<Reverse<u128>>,
}

impl Search {
    fn sized(n: usize) -> Self {
        Search { dist: vec![CAP; n], queue: BinaryHeap::with_capacity(n) }
    }

    /// Static distances from `origin` over `graph`, capped at [`CAP`]
    /// (unreachable machines included). The queue holds `distance << 32 |
    /// machine`, one compare per heap step.
    fn from(&mut self, graph: &Graph, origin: usize) -> &[i64] {
        self.dist.fill(CAP);
        self.dist[origin] = 0;
        self.queue.push(Reverse(origin as u128));
        while let Some(Reverse(entry)) = self.queue.pop() {
            let (d, u) = ((entry >> 32) as i64, entry as u32 as usize);
            if d > self.dist[u] {
                continue;
            }
            for &(v, cost) in graph.arcs(u) {
                let through = (d + cost).min(CAP);
                if through < self.dist[v as usize] {
                    self.dist[v as usize] = through;
                    self.queue.push(Reverse((through as u128) << 32 | u128::from(v)));
                }
            }
        }
        &self.dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstage_model::link::VirtualLink;
    use dstage_model::machine::Machine;
    use dstage_model::network::NetworkBuilder;
    use dstage_model::time::SimTime;
    use dstage_model::units::BitsPerSec;

    fn m(i: u32) -> MachineId {
        MachineId::new(i)
    }

    /// A line 0 -> 1 -> 2 -> 3 at 1 byte/ms, and 4 linked to nothing.
    fn line() -> Network {
        let mut b = NetworkBuilder::new();
        for i in 0..5 {
            b.add_machine(Machine::new(format!("m{i}"), Bytes::from_mib(1)));
        }
        for i in 0..3 {
            b.add_link(VirtualLink::new(
                m(i),
                m(i + 1),
                SimTime::ZERO,
                SimTime::from_hours(1),
                BitsPerSec::new(8_000),
            ));
        }
        b.build()
    }

    #[test]
    fn the_bound_is_the_static_distance_on_a_line() {
        let net = line();
        let table = Landmarks::new(&net);
        let goal = table.goal(Bytes::new(1_000), &[m(3)]);
        // One byte per ms: 1 s a hop.
        let bounds: Vec<u64> = (0..4).map(|v| goal.bound(m(v)).as_millis()).collect();
        assert_eq!(bounds, [3_000, 2_000, 1_000, 0]);
        // Past the destination, and off the line, nothing reaches it.
        assert_eq!(goal.bound(m(4)).as_millis(), ((1_000u128 * CAP as u128) >> 32) as u64);
    }

    #[test]
    fn an_empty_read_or_an_empty_item_bounds_nothing() {
        let net = line();
        let table = Landmarks::new(&net);
        let none = table.goal(Bytes::new(1_000), &[]);
        let empty = table.goal(Bytes::ZERO, &[m(3)]);
        for v in 0..5 {
            assert_eq!(
                (none.bound(m(v)), empty.bound(m(v))),
                (SimDuration::ZERO, SimDuration::ZERO)
            );
        }
    }

    #[test]
    fn an_empty_network_has_an_empty_table() {
        let table = Landmarks::new(&NetworkBuilder::new().build());
        assert!(table.rows.is_empty());
    }
}
