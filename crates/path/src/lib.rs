//! Time-dependent multiple-source shortest-path search for data staging.
//!
//! Implements the paper's adaptation of Dijkstra's algorithm (§4.2): for a
//! single data item, starting from every machine that currently holds a
//! copy, compute the earliest time the item could be made available at
//! every other machine, honouring link availability windows, existing link
//! reservations, per-machine storage through the item's garbage-collection
//! time, and copy availability times.
//!
//! The search is exact for the current resource state because every
//! constraint is monotone in the ready time (see
//! [`dijkstra::earliest_arrival_tree`]). The same monotonicity powers
//! static lower-bound pruning of hopeless relaxations and, for cached trees
//! after resource consumption, validation of just the paths about to be
//! read ([`paths_hold`]); a tree that fails it is searched again from
//! scratch. The frontier is a plain binary heap.
//!
//! # Examples
//!
//! ```
//! use dstage_model::prelude::*;
//! use dstage_resources::ledger::NetworkLedger;
//! use dstage_path::{earliest_arrival_tree, ItemQuery};
//!
//! let mut b = NetworkBuilder::new();
//! let a = b.add_machine(Machine::new("a", Bytes::from_mib(8)));
//! let c = b.add_machine(Machine::new("c", Bytes::from_mib(8)));
//! b.add_link(VirtualLink::new(a, c, SimTime::ZERO, SimTime::from_hours(1),
//!     BitsPerSec::from_mbps(1)));
//! let net = b.build();
//! let ledger = NetworkLedger::new(&net);
//! let hold = vec![SimTime::MAX; 2];
//!
//! let tree = earliest_arrival_tree(&ItemQuery {
//!     network: &net,
//!     ledger: &ledger,
//!     size: Bytes::from_kib(100),
//!     sources: &[(a, SimTime::ZERO)],
//!     hold_until: &hold,
//!     horizon: SimTime::from_hours(2),
//! });
//! assert!(tree.is_reachable(c));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dijkstra;
pub mod tree;

pub use dijkstra::{earliest_arrival_tree, paths_hold, ItemQuery};
pub use tree::{ArrivalTree, Hop};
