//! The network topology graph `G_nt`.
//!
//! A [`Network`] owns the machines and the virtual links and provides the
//! adjacency views the path-finding layer needs, among them each machine's
//! outgoing links cut into [`LinkRun`]s. The strong-connectivity check
//! ([`strongly_connected`]) works on the *static* graph — the union of all
//! virtual links, ignoring time windows — which is the sense in which the
//! paper's generator guarantees strong connectivity; the generator calls it
//! on its physical links.
//!
//! A network read from JSON is rebuilt through [`NetworkBuilder`]: the
//! stored adjacency lists are checked against the links, never trusted.

use core::fmt;
use std::collections::BTreeSet;

use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::ids::{MachineId, VirtualLinkId};
use crate::link::VirtualLink;
use crate::machine::{Machine, MachineRef};

/// The communication system: machines plus virtual links, with adjacency
/// indexes for efficient traversal.
///
/// # Examples
///
/// ```
/// use dstage_model::network::NetworkBuilder;
/// use dstage_model::machine::Machine;
/// use dstage_model::link::VirtualLink;
/// use dstage_model::units::{Bytes, BitsPerSec};
/// use dstage_model::time::SimTime;
///
/// let mut b = NetworkBuilder::new();
/// let a = b.add_machine(Machine::new("a", Bytes::from_mib(10)));
/// let c = b.add_machine(Machine::new("c", Bytes::from_mib(10)));
/// b.add_link(VirtualLink::new(a, c, SimTime::ZERO, SimTime::from_hours(1),
///     BitsPerSec::from_kbps(56)));
/// b.add_link(VirtualLink::new(c, a, SimTime::ZERO, SimTime::from_hours(1),
///     BitsPerSec::from_kbps(56)));
/// let net = b.build();
/// assert_eq!(net.machine_count(), 2);
/// assert!(net.is_strongly_connected());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    machines: Vec<Machine>,
    links: Vec<VirtualLink>,
    /// Outgoing virtual links per machine, sorted by id.
    out_links: Vec<Vec<VirtualLinkId>>,
    /// The runs of `out_links` (see [`LinkRun`]), machine after machine;
    /// machine `m`'s are `runs[run_offsets[m]..run_offsets[m + 1]]`.
    runs: Vec<RunSpan>,
    run_offsets: Vec<u32>,
    /// Incoming virtual links per machine, sorted by id.
    in_links: Vec<Vec<VirtualLinkId>>,
}

/// One run of outgoing links: the links `first..first + len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunSpan {
    first: u32,
    len: u32,
}

/// A maximal stretch of one machine's outgoing links, consecutive in id,
/// with one destination, bandwidth and latency, and window starts and ends
/// that never decrease — the windows of one physical link, as the paper's
/// generator emits them (§5.3). A link that starts no such stretch with
/// its neighbours is a run of length 1.
///
/// Within a run, a later window opens and closes no earlier, so a search
/// can binary-search the run by window end and stop at the first window
/// that opens too late.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkRun<'a> {
    /// Id of the run's first link.
    pub first: VirtualLinkId,
    /// The run's links in id order (at least one): `links[k]` is link
    /// `first + k`.
    pub links: &'a [VirtualLink],
}

impl LinkRun<'_> {
    /// The id of the run's `k`-th link.
    #[must_use]
    pub fn link(&self, k: usize) -> VirtualLinkId {
        VirtualLinkId::new(self.first.index() as u32 + k as u32)
    }
}

/// The serialized form of a [`Network`]: the adjacency lists are written
/// out for readers of the JSON, and checked on the way back in.
#[derive(Serialize)]
struct NetworkRef<'a> {
    machines: &'a [Machine],
    links: &'a [VirtualLink],
    out_links: &'a [Vec<VirtualLinkId>],
    in_links: &'a [Vec<VirtualLinkId>],
}

/// The owned counterpart of [`NetworkRef`], read before any check.
#[derive(Deserialize)]
struct NetworkWire {
    machines: Vec<Machine>,
    links: Vec<VirtualLink>,
    out_links: Vec<Vec<VirtualLinkId>>,
    in_links: Vec<Vec<VirtualLinkId>>,
}

impl Serialize for Network {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        NetworkRef {
            machines: &self.machines,
            links: &self.links,
            out_links: &self.out_links,
            in_links: &self.in_links,
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Network {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let wire = NetworkWire::deserialize(deserializer)?;
        let mut b = NetworkBuilder::new();
        for machine in wire.machines {
            b.add_machine(machine);
        }
        for link in wire.links {
            b.try_add_link(link).map_err(serde::de::Error::custom)?;
        }
        b.build_matching(&wire.out_links, &wire.in_links).map_err(serde::de::Error::custom)
    }
}

/// Why a network read from outside is refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum NetworkError {
    /// A link names a machine the network does not have.
    UnknownEndpoint {
        /// The offending link.
        link: VirtualLinkId,
        /// The machine it names.
        machine: MachineId,
    },
    /// A machine's stored adjacency list is not the list of links that
    /// leave (or enter) it, in id order.
    AdjacencyMismatch {
        /// The machine whose list disagrees.
        machine: MachineId,
        /// `"out_links"` or `"in_links"`.
        list: &'static str,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::UnknownEndpoint { link, machine } => {
                write!(f, "link {link} references unknown machine {machine}")
            }
            NetworkError::AdjacencyMismatch { machine, list } => {
                write!(f, "{list} of machine {machine} disagree with the links' endpoints")
            }
        }
    }
}

impl Network {
    /// Number of machines `m`.
    #[must_use]
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Number of virtual links (directed edges of `G_nt`).
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Looks up a machine.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this network.
    #[must_use]
    pub fn machine(&self, id: MachineId) -> &Machine {
        &self.machines[id.index()]
    }

    /// Looks up a virtual link.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this network.
    #[must_use]
    pub fn link(&self, id: VirtualLinkId) -> &VirtualLink {
        &self.links[id.index()]
    }

    /// Iterates over all machines with their ids.
    pub fn machines(&self) -> impl Iterator<Item = MachineRef<'_>> + '_ {
        self.machines
            .iter()
            .enumerate()
            .map(|(i, m)| MachineRef { id: MachineId::new(i as u32), machine: m })
    }

    /// Iterates over all machine ids.
    pub fn machine_ids(&self) -> impl Iterator<Item = MachineId> + 'static {
        (0..self.machines.len() as u32).map(MachineId::new)
    }

    /// Iterates over all virtual links with their ids.
    pub fn links(&self) -> impl Iterator<Item = (VirtualLinkId, &VirtualLink)> + '_ {
        self.links.iter().enumerate().map(|(i, l)| (VirtualLinkId::new(i as u32), l))
    }

    /// The ids of virtual links leaving `machine`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this network.
    #[must_use]
    pub fn outgoing(&self, machine: MachineId) -> &[VirtualLinkId] {
        &self.out_links[machine.index()]
    }

    /// [`Network::outgoing`] cut into its [`LinkRun`]s, in the same order:
    /// the runs' links, read in turn, are exactly `outgoing(machine)`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this network.
    pub fn outgoing_runs(&self, machine: MachineId) -> impl Iterator<Item = LinkRun<'_>> + '_ {
        let m = machine.index();
        let runs = &self.runs[self.run_offsets[m] as usize..self.run_offsets[m + 1] as usize];
        runs.iter().map(|&RunSpan { first, len }| LinkRun {
            first: VirtualLinkId::new(first),
            links: &self.links[first as usize..(first + len) as usize],
        })
    }

    /// The ids of virtual links arriving at `machine`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this network.
    #[must_use]
    pub fn incoming(&self, machine: MachineId) -> &[VirtualLinkId] {
        &self.in_links[machine.index()]
    }

    /// The distinct machines directly reachable from `machine` through at
    /// least one virtual link (the *outbound degree* neighbours of §5.3).
    #[must_use]
    pub fn neighbors(&self, machine: MachineId) -> Vec<MachineId> {
        let set: BTreeSet<MachineId> =
            self.outgoing(machine).iter().map(|&l| self.link(l).destination()).collect();
        set.into_iter().collect()
    }

    /// Whether the static graph (union of all virtual links) is strongly
    /// connected: every machine can reach every other machine through some
    /// sequence of physical transmission links.
    ///
    /// The empty network and the single-machine network count as strongly
    /// connected.
    #[must_use]
    pub fn is_strongly_connected(&self) -> bool {
        let edges = self.links.iter().map(|l| (l.source().index(), l.destination().index()));
        strongly_connected(self.machine_count(), edges)
    }
}

/// Whether the digraph on nodes `0..nodes` with `edges` (`(from, to)`
/// pairs) is strongly connected: node 0 reaches every node and every node
/// reaches node 0, one search forward and one backward. Zero or one node
/// counts as connected.
///
/// # Panics
///
/// Panics if an edge names a node `>= nodes`.
#[must_use]
pub fn strongly_connected(nodes: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> bool {
    if nodes <= 1 {
        return true;
    }
    let mut forward = vec![Vec::new(); nodes];
    let mut backward = vec![Vec::new(); nodes];
    for (from, to) in edges {
        forward[from].push(to);
        backward[to].push(from);
    }
    let reaches_all = |adjacent: &[Vec<usize>]| {
        let mut seen = vec![false; nodes];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in &adjacent[u] {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == nodes
    };
    reaches_all(&forward) && reaches_all(&backward)
}

/// Incremental constructor for [`Network`].
///
/// Machines must be added before links that reference them; `build`
/// validates every link endpoint.
#[derive(Debug, Default, Clone)]
pub struct NetworkBuilder {
    machines: Vec<Machine>,
    links: Vec<VirtualLink>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        NetworkBuilder::default()
    }

    /// Adds a machine and returns its id.
    pub fn add_machine(&mut self, machine: Machine) -> MachineId {
        let id = MachineId::new(self.machines.len() as u32);
        self.machines.push(machine);
        id
    }

    /// Adds a virtual link and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint has not been added yet.
    pub fn add_link(&mut self, link: VirtualLink) -> VirtualLinkId {
        self.try_add_link(link).unwrap_or_else(|e| {
            panic!("{e}: link endpoints must refer to machines already added to the builder")
        })
    }

    /// [`NetworkBuilder::add_link`], refusing a dangling endpoint.
    fn try_add_link(&mut self, link: VirtualLink) -> Result<VirtualLinkId, NetworkError> {
        let id = VirtualLinkId::new(self.links.len() as u32);
        for machine in [link.source(), link.destination()] {
            if machine.index() >= self.machines.len() {
                return Err(NetworkError::UnknownEndpoint { link: id, machine });
            }
        }
        self.links.push(link);
        Ok(id)
    }

    /// Number of machines added so far.
    #[must_use]
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Finalizes the network, computing adjacency indexes.
    #[must_use]
    pub fn build(self) -> Network {
        let n = self.machines.len();
        let mut out_links = vec![Vec::new(); n];
        let mut in_links = vec![Vec::new(); n];
        for (i, link) in self.links.iter().enumerate() {
            let id = VirtualLinkId::new(i as u32);
            out_links[link.source().index()].push(id);
            in_links[link.destination().index()].push(id);
        }
        let mut runs: Vec<RunSpan> = Vec::new();
        let mut run_offsets = Vec::with_capacity(n + 1);
        for list in &out_links {
            run_offsets.push(runs.len() as u32);
            for &id in list {
                // A previous id from the same source is the previous entry.
                let i = id.index();
                let continues = i > 0 && continues_run(&self.links[i - 1], &self.links[i]);
                match runs.last_mut() {
                    Some(run) if continues => run.len += 1,
                    _ => runs.push(RunSpan { first: i as u32, len: 1 }),
                }
            }
        }
        run_offsets.push(runs.len() as u32);
        Network {
            machines: self.machines,
            links: self.links,
            out_links,
            runs,
            run_offsets,
            in_links,
        }
    }

    /// [`NetworkBuilder::build`], refusing the network unless `out_links`
    /// and `in_links` are exactly the adjacency lists it derives.
    fn build_matching(
        self,
        out_links: &[Vec<VirtualLinkId>],
        in_links: &[Vec<VirtualLinkId>],
    ) -> Result<Network, NetworkError> {
        let network = self.build();
        for (list, stored, derived) in [
            ("out_links", out_links, &network.out_links),
            ("in_links", in_links, &network.in_links),
        ] {
            let longest = stored.len().max(derived.len());
            if let Some(i) = (0..longest).find(|&i| stored.get(i) != derived.get(i)) {
                return Err(NetworkError::AdjacencyMismatch {
                    machine: MachineId::new(i as u32),
                    list,
                });
            }
        }
        Ok(network)
    }
}

/// Whether `link` extends the run of `prev`, the link one id before it:
/// the same endpoints, bandwidth and latency, and a window that starts and
/// ends no earlier.
fn continues_run(prev: &VirtualLink, link: &VirtualLink) -> bool {
    (prev.source(), prev.destination()) == (link.source(), link.destination())
        && prev.bandwidth() == link.bandwidth()
        && prev.latency() == link.latency()
        && prev.start() <= link.start()
        && prev.end() <= link.end()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use crate::units::{BitsPerSec, Bytes};

    fn quick_link(a: u32, b: u32) -> VirtualLink {
        VirtualLink::new(
            MachineId::new(a),
            MachineId::new(b),
            SimTime::ZERO,
            SimTime::from_hours(1),
            BitsPerSec::from_kbps(56),
        )
    }

    fn machines(b: &mut NetworkBuilder, count: usize) {
        for i in 0..count {
            b.add_machine(Machine::new(format!("m{i}"), Bytes::from_mib(100)));
        }
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = NetworkBuilder::new();
        let a = b.add_machine(Machine::new("a", Bytes::ZERO));
        let c = b.add_machine(Machine::new("c", Bytes::ZERO));
        assert_eq!(a, MachineId::new(0));
        assert_eq!(c, MachineId::new(1));
        let l0 = b.add_link(quick_link(0, 1));
        let l1 = b.add_link(quick_link(1, 0));
        assert_eq!(l0, VirtualLinkId::new(0));
        assert_eq!(l1, VirtualLinkId::new(1));
    }

    #[test]
    #[should_panic(expected = "already added")]
    fn builder_rejects_dangling_link() {
        let mut b = NetworkBuilder::new();
        machines(&mut b, 1);
        b.add_link(quick_link(0, 3));
    }

    #[test]
    fn adjacency_indexes_out_and_in() {
        let mut b = NetworkBuilder::new();
        machines(&mut b, 3);
        b.add_link(quick_link(0, 1));
        b.add_link(quick_link(0, 2));
        b.add_link(quick_link(1, 2));
        let net = b.build();
        assert_eq!(net.outgoing(MachineId::new(0)).len(), 2);
        assert_eq!(net.outgoing(MachineId::new(1)).len(), 1);
        assert_eq!(net.outgoing(MachineId::new(2)).len(), 0);
        assert_eq!(net.incoming(MachineId::new(2)).len(), 2);
        assert_eq!(net.incoming(MachineId::new(0)).len(), 0);
    }

    #[test]
    fn neighbors_deduplicates_parallel_virtual_links() {
        let mut b = NetworkBuilder::new();
        machines(&mut b, 2);
        // Two virtual links over the same physical pair.
        b.add_link(quick_link(0, 1));
        b.add_link(quick_link(0, 1));
        let net = b.build();
        assert_eq!(net.neighbors(MachineId::new(0)), vec![MachineId::new(1)]);
    }

    #[test]
    fn two_cycle_is_strongly_connected() {
        let mut b = NetworkBuilder::new();
        machines(&mut b, 2);
        b.add_link(quick_link(0, 1));
        b.add_link(quick_link(1, 0));
        assert!(b.build().is_strongly_connected());
    }

    #[test]
    fn one_way_pair_is_not_strongly_connected() {
        let mut b = NetworkBuilder::new();
        machines(&mut b, 2);
        b.add_link(quick_link(0, 1));
        let net = b.build();
        assert!(!net.is_strongly_connected());
    }

    #[test]
    fn trivial_networks_are_strongly_connected() {
        let b = NetworkBuilder::new();
        assert!(b.build().is_strongly_connected());
        let mut b = NetworkBuilder::new();
        machines(&mut b, 1);
        assert!(b.build().is_strongly_connected());
    }

    #[test]
    fn two_cycles_joined_one_way_are_not_strongly_connected() {
        // {0,1} strongly connected, {2,3} strongly connected, bridge 1->2.
        let mut b = NetworkBuilder::new();
        machines(&mut b, 4);
        b.add_link(quick_link(0, 1));
        b.add_link(quick_link(1, 0));
        b.add_link(quick_link(2, 3));
        b.add_link(quick_link(3, 2));
        b.add_link(quick_link(1, 2));
        assert!(!b.clone().build().is_strongly_connected());
        b.add_link(quick_link(3, 0));
        assert!(b.build().is_strongly_connected());
    }

    #[test]
    fn a_long_cycle_is_strongly_connected() {
        let n = 50;
        let mut b = NetworkBuilder::new();
        machines(&mut b, n);
        for i in 0..n as u32 {
            b.add_link(quick_link(i, (i + 1) % n as u32));
        }
        assert!(b.build().is_strongly_connected());
    }

    /// Every machine's runs, as (first link id, destination, length).
    fn runs_of(net: &Network) -> Vec<Vec<(usize, usize, usize)>> {
        net.machine_ids()
            .map(|m| {
                net.outgoing_runs(m)
                    .map(|r| (r.first.index(), r.links[0].destination().index(), r.links.len()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn outgoing_runs_follow_outgoing() {
        let mut b = NetworkBuilder::new();
        machines(&mut b, 3);
        let late = |a, c, s| {
            VirtualLink::new(
                MachineId::new(a),
                MachineId::new(c),
                SimTime::from_secs(s),
                SimTime::from_secs(s + 60),
                BitsPerSec::from_kbps(56),
            )
        };
        b.add_link(late(0, 1, 30));
        b.add_link(late(1, 2, 10));
        b.add_link(late(0, 1, 90));
        b.add_link(late(0, 2, 20));
        b.add_link(late(0, 2, 90));
        b.add_link(late(1, 2, 100));
        let net = b.build();
        for m in net.machine_ids() {
            let mut ids = Vec::new();
            for run in net.outgoing_runs(m) {
                assert!(!run.links.is_empty());
                for (k, link) in run.links.iter().enumerate() {
                    assert_eq!(net.link(run.link(k)), link);
                    ids.push(run.link(k));
                }
            }
            assert_eq!(ids, net.outgoing(m));
        }
        // L0 and L2 would be one run but for L1 between them; L3 and L4 are
        // one; L5 leaves another machine.
        let expected =
            vec![vec![(0, 1, 1), (2, 1, 1), (3, 2, 2)], vec![(1, 2, 1), (5, 2, 1)], vec![]];
        assert_eq!(runs_of(&net), expected);
    }

    #[test]
    fn runs_split_wherever_a_window_train_breaks() {
        use crate::time::SimDuration;
        let window = |c, s, e, kbps, latency_ms| {
            VirtualLink::with_latency(
                MachineId::new(0),
                MachineId::new(c),
                SimTime::from_secs(s),
                SimTime::from_secs(e),
                BitsPerSec::from_kbps(kbps),
                SimDuration::from_millis(latency_ms),
            )
        };
        let mut b = NetworkBuilder::new();
        machines(&mut b, 3);
        b.add_link(window(1, 0, 10, 56, 0)); // run A
        b.add_link(window(1, 20, 30, 56, 0)); // A
        b.add_link(window(1, 20, 40, 56, 0)); // A: equal start, later end
        b.add_link(window(2, 50, 60, 56, 0)); // B: destination changes
        b.add_link(window(2, 70, 80, 64, 0)); // C: bandwidth changes
        b.add_link(window(2, 90, 95, 64, 5)); // D: latency changes
        b.add_link(window(2, 85, 99, 64, 5)); // E: start goes backwards
        b.add_link(window(2, 86, 98, 64, 5)); // F: end goes backwards
        b.add_link(window(2, 86, 98, 64, 5)); // F: an equal window continues
        let net = b.build();
        let expected = vec![(0, 1, 3), (3, 2, 1), (4, 2, 1), (5, 2, 1), (6, 2, 1), (7, 2, 2)];
        assert_eq!(runs_of(&net)[0], expected);
        // A network read back from JSON derives the same runs.
        let back: Network = serde_json::from_str(&serde_json::to_string(&net).unwrap()).unwrap();
        assert_eq!(runs_of(&back), runs_of(&net));
        assert_eq!(back, net);
    }

    /// A three-machine network as JSON, with `edits` (`from`, `to`)
    /// replaced before reading.
    fn read_edited(edits: &[(&str, &str)]) -> Result<Network, String> {
        let mut b = NetworkBuilder::new();
        machines(&mut b, 3);
        b.add_link(quick_link(0, 1));
        b.add_link(quick_link(0, 2));
        b.add_link(quick_link(1, 2));
        let mut text = serde_json::to_string(&b.build()).unwrap();
        for (from, to) in edits {
            assert!(text.contains(from), "{from} not in {text}");
            text = text.replace(from, to);
        }
        serde_json::from_str::<Network>(&text).map_err(|e| e.to_string())
    }

    #[test]
    fn a_read_network_writes_the_same_bytes() {
        let mut b = NetworkBuilder::new();
        machines(&mut b, 3);
        b.add_link(quick_link(0, 1));
        b.add_link(quick_link(2, 0));
        let net = b.build();
        let text = serde_json::to_string(&net).unwrap();
        assert!(text.ends_with(r#""out_links":[[0],[],[1]],"in_links":[[1],[0],[]]}"#), "{text}");
        let back: Network = serde_json::from_str(&text).unwrap();
        assert_eq!(back, net);
        assert_eq!(serde_json::to_string(&back).unwrap(), text);
        assert!(read_edited(&[]).is_ok());
    }

    #[test]
    fn an_out_of_range_adjacency_id_is_refused() {
        // Trusted, this made the search index past the link table.
        let err = read_edited(&[(r#""out_links":[[0,"#, r#""out_links":[[99,"#)]).unwrap_err();
        assert!(err.contains("out_links of machine M0 disagree"), "{err}");
    }

    #[test]
    fn a_link_filed_under_the_wrong_machine_is_refused() {
        // Trusted, the link was searched from M1 and the schedule it gave
        // failed validation: its transfer's endpoints were not the link's.
        let err =
            read_edited(&[(r#""out_links":[[0,1],[2]"#, r#""out_links":[[1],[0,2]"#)]).unwrap_err();
        assert!(err.contains("out_links of machine M0 disagree"), "{err}");
        let err =
            read_edited(&[(r#""in_links":[[],[0],[1,2]]"#, r#""in_links":[[],[0]]"#)]).unwrap_err();
        assert!(err.contains("in_links of machine M2 disagree"), "{err}");
    }

    #[test]
    fn a_dangling_link_endpoint_is_refused() {
        let err =
            read_edited(&[(r#""source":1,"destination":2"#, r#""source":1,"destination":7"#)])
                .unwrap_err();
        assert!(err.contains("link L2 references unknown machine M7"), "{err}");
    }

    #[test]
    fn machines_iterator_pairs_ids() {
        let mut b = NetworkBuilder::new();
        machines(&mut b, 3);
        let net = b.build();
        let names: Vec<(usize, String)> =
            net.machines().map(|r| (r.id.index(), r.machine.name().to_string())).collect();
        assert_eq!(names, vec![(0, "m0".into()), (1, "m1".into()), (2, "m2".into())]);
    }
}
